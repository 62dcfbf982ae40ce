//! Declarative chaos schedules: seeded, phased fault sequences over named
//! boxes and links.
//!
//! A [`ChaosSchedule`] is a substrate-agnostic description of *correlated,
//! time-varying* failures — network partitions (bidirectional or
//! asymmetric), crash storms, bursty loss/delay spikes, and the heal
//! events that end them. The same schedule value is applied to the
//! discrete-event simulator (`ipmedia-netsim`, virtual time) and to the
//! tokio runtime (`ipmedia-rt`, wall clock), so a failure scenario
//! debugged under the simulator reproduces on deployed nodes.
//!
//! Determinism: a schedule is pure data plus a `seed`. Generators
//! ([`generate`]) derive every probabilistic choice from the seed with a
//! splitmix64 stream, and the substrates in turn derive their per-channel
//! fault PRNGs from `seed` — identical `(schedule, seed)` pairs yield
//! identical simulator outcomes.
//!
//! Minimization: when a `(schedule, seed)` pair makes an invariant
//! monitor flag a violation, [`minimize_schedule`] delta-debugs the phase
//! list down to a minimal still-failing subsequence with the same
//! [`crate::shrink`] that minimizes the model checker's counterexample
//! ladders.

use crate::hash::{SplitMix64, GOLDEN_GAMMA};

/// Which direction(s) of a box pair a partition cuts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Both directions are cut (a full partition).
    Both,
    /// Only traffic from the first named box to the second is cut.
    AToB,
    /// Only traffic from the second named box to the first is cut.
    BToA,
}

impl Direction {
    /// Per-direction block flags as `(block_a_to_b, block_b_to_a)`.
    pub fn blocks(self) -> (bool, bool) {
        match self {
            Direction::Both => (true, true),
            Direction::AToB => (true, false),
            Direction::BToA => (false, true),
        }
    }

    /// Short human-readable form used by [`ChaosSchedule::describe`].
    pub fn label(self) -> &'static str {
        match self {
            Direction::Both => "both",
            Direction::AToB => "a->b",
            Direction::BToA => "b->a",
        }
    }
}

/// One fault (or heal) action of a chaos phase.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosAction {
    /// Cut traffic between two named boxes in the given direction(s).
    /// Stays in force until a matching [`ChaosAction::Heal`].
    Partition {
        /// First box name.
        a: String,
        /// Second box name.
        b: String,
        /// Which direction(s) are cut.
        dir: Direction,
    },
    /// Remove any partition between two named boxes (order-insensitive).
    Heal {
        /// First box name.
        a: String,
        /// Second box name.
        b: String,
    },
    /// A bursty loss/delay spike on the link between two boxes: for
    /// `duration_ms`, traffic is subjected to the given drop/duplicate/
    /// reorder probabilities instead of the link's baseline plan. The
    /// burst expires on its own; no heal phase is needed.
    Burst {
        /// First box name.
        a: String,
        /// Second box name.
        b: String,
        /// Per-signal drop probability in `[0, 1]`.
        drop: f64,
        /// Per-signal duplicate probability in `[0, 1]`.
        duplicate: f64,
        /// Per-copy reorder-jitter probability in `[0, 1]`.
        reorder: f64,
        /// Upper bound on reorder jitter, in milliseconds.
        max_extra_delay_ms: u64,
        /// How long the burst lasts, in schedule milliseconds.
        duration_ms: u64,
    },
    /// Crash a named box, losing its inputs, for `down_ms`; the box
    /// restarts afterwards with its reliability layer re-armed.
    Crash {
        /// The box to crash.
        bx: String,
        /// How long the box stays down, in schedule milliseconds.
        down_ms: u64,
    },
}

impl ChaosAction {
    fn describe(&self) -> String {
        match self {
            ChaosAction::Partition { a, b, dir } => {
                format!("partition {a}<->{b} ({})", dir.label())
            }
            ChaosAction::Heal { a, b } => format!("heal {a}<->{b}"),
            ChaosAction::Burst {
                a,
                b,
                drop,
                duration_ms,
                ..
            } => format!("burst {a}<->{b} drop={drop:.2} for {duration_ms}ms"),
            ChaosAction::Crash { bx, down_ms } => format!("crash {bx} for {down_ms}ms"),
        }
    }
}

/// One phase of a schedule: an action injected at a schedule-relative
/// time offset (milliseconds from the start of the schedule).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPhase {
    /// Offset from schedule start, in milliseconds.
    pub at_ms: u64,
    /// The fault or heal injected at that instant.
    pub action: ChaosAction,
}

/// A seeded, declarative sequence of chaos phases.
///
/// Times are schedule-relative milliseconds: the simulator maps them onto
/// virtual time, the runtime onto (possibly scaled) wall-clock time.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSchedule {
    /// Seed from which all probabilistic fault behavior derives.
    pub seed: u64,
    /// Phases, in injection order (kept sorted by `at_ms`).
    pub phases: Vec<ChaosPhase>,
}

fn norm<'a>(a: &'a str, b: &'a str) -> (&'a str, &'a str) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl ChaosSchedule {
    /// Empty schedule with the given seed.
    pub fn new(seed: u64) -> Self {
        ChaosSchedule {
            seed,
            phases: Vec::new(),
        }
    }

    fn push(mut self, at_ms: u64, action: ChaosAction) -> Self {
        self.phases.push(ChaosPhase { at_ms, action });
        self.phases.sort_by_key(|p| p.at_ms);
        self
    }

    /// Add a partition phase.
    pub fn partition(self, at_ms: u64, a: &str, b: &str, dir: Direction) -> Self {
        self.push(
            at_ms,
            ChaosAction::Partition {
                a: a.to_string(),
                b: b.to_string(),
                dir,
            },
        )
    }

    /// Add a heal phase for a partitioned pair.
    pub fn heal(self, at_ms: u64, a: &str, b: &str) -> Self {
        self.push(
            at_ms,
            ChaosAction::Heal {
                a: a.to_string(),
                b: b.to_string(),
            },
        )
    }

    /// Add a loss/delay burst phase.
    #[allow(clippy::too_many_arguments)]
    pub fn burst(
        self,
        at_ms: u64,
        a: &str,
        b: &str,
        drop: f64,
        duplicate: f64,
        reorder: f64,
        max_extra_delay_ms: u64,
        duration_ms: u64,
    ) -> Self {
        self.push(
            at_ms,
            ChaosAction::Burst {
                a: a.to_string(),
                b: b.to_string(),
                drop,
                duplicate,
                reorder,
                max_extra_delay_ms,
                duration_ms,
            },
        )
    }

    /// The seed of phase `i`'s probabilistic faults, derived from the
    /// schedule's: both substrates seed a phase's faults from it.
    pub fn phase_seed(&self, i: usize) -> u64 {
        self.seed
            .wrapping_add((i as u64).wrapping_mul(GOLDEN_GAMMA))
    }

    /// Add a crash phase.
    pub fn crash(self, at_ms: u64, bx: &str, down_ms: u64) -> Self {
        self.push(
            at_ms,
            ChaosAction::Crash {
                bx: bx.to_string(),
                down_ms,
            },
        )
    }

    /// The instant (schedule ms) after which no injected fault is active:
    /// the last heal, burst end, or crash restart. Returns `None` if some
    /// partition is never healed — such a schedule has no settle point
    /// and recovery objectives cannot be evaluated against it.
    pub fn settle_ms(&self) -> Option<u64> {
        let mut settle = 0u64;
        for (i, phase) in self.phases.iter().enumerate() {
            let end = match &phase.action {
                ChaosAction::Partition { a, b, .. } => {
                    let key = norm(a, b);
                    // Find the first heal of this pair at or after the cut.
                    let heal = self.phases[i..].iter().find(|p| {
                        matches!(&p.action, ChaosAction::Heal { a: ha, b: hb }
                            if norm(ha, hb) == key)
                    });
                    match heal {
                        Some(h) => h.at_ms,
                        None => return None,
                    }
                }
                ChaosAction::Heal { .. } => phase.at_ms,
                ChaosAction::Burst { duration_ms, .. } => phase.at_ms + duration_ms,
                ChaosAction::Crash { down_ms, .. } => phase.at_ms + down_ms,
            };
            settle = settle.max(end);
        }
        Some(settle)
    }

    /// True iff every partition phase has a matching later heal.
    pub fn is_healed(&self) -> bool {
        self.settle_ms().is_some()
    }

    /// One-line human-readable rendering, stable across runs; used in
    /// failure reports so any red run reproduces from the log.
    pub fn describe(&self) -> String {
        if self.phases.is_empty() {
            return format!("seed={} (empty schedule)", self.seed);
        }
        let parts: Vec<String> = self
            .phases
            .iter()
            .map(|p| format!("t={}ms {}", p.at_ms, p.action.describe()))
            .collect();
        format!("seed={} {}", self.seed, parts.join("; "))
    }
}

/// The topology a schedule generator draws targets from: the named boxes
/// and the links (adjacent box pairs) of a deployment.
#[derive(Debug, Clone)]
pub struct ChaosTopology {
    /// All box names.
    pub boxes: Vec<String>,
    /// Adjacent box pairs that carry channels.
    pub links: Vec<(String, String)>,
}

/// Families of generated schedules, each stressing a distinct failure
/// mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleFamily {
    /// One or two full partitions that heal before the deadline.
    PartitionHeal,
    /// Repeated one-way partitions alternating direction (gray failure).
    AsymmetricFlap,
    /// Several staggered crashes with overlapping down intervals.
    CrashStorm,
    /// Short windows of heavy loss, duplication, and reorder jitter.
    BurstLoss,
    /// A partition, a crash, and a burst overlapping.
    Mixed,
}

impl ScheduleFamily {
    /// Every family, in sweep order.
    pub const ALL: [ScheduleFamily; 5] = [
        ScheduleFamily::PartitionHeal,
        ScheduleFamily::AsymmetricFlap,
        ScheduleFamily::CrashStorm,
        ScheduleFamily::BurstLoss,
        ScheduleFamily::Mixed,
    ];

    /// Stable name used in bench records.
    pub fn name(self) -> &'static str {
        match self {
            ScheduleFamily::PartitionHeal => "partition_heal",
            ScheduleFamily::AsymmetricFlap => "asymmetric_flap",
            ScheduleFamily::CrashStorm => "crash_storm",
            ScheduleFamily::BurstLoss => "burst_loss",
            ScheduleFamily::Mixed => "mixed",
        }
    }
}

/// Uniform in `lo..=hi`, drawn from the schedule generators' only entropy
/// source, so a `(family, seed, topology)` triple always yields the same
/// schedule.
fn between(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    let span = usize::try_from(hi - lo + 1).expect("span fits usize");
    lo + rng.range(span) as u64
}

/// Uniform percentage in `lo..=hi`, as a probability.
#[allow(clippy::cast_precision_loss)] // values are < 100
fn percent(rng: &mut SplitMix64, lo: u64, hi: u64) -> f64 {
    between(rng, lo, hi) as f64 / 100.0
}

/// Generate a seeded schedule of the given family over a topology.
///
/// All durations are conservative with respect to the reliability
/// window (~32 s of retries backing off from
/// [`reliable::BASE_MS`](crate::reliable::BASE_MS) to
/// [`reliable::MAX_MS`](crate::reliable::MAX_MS)), so a healed schedule
/// is always recoverable: partitions heal
/// within ~8 s, crashes restart within ~2.5 s, bursts expire within
/// ~4 s.
pub fn generate(family: ScheduleFamily, seed: u64, topo: &ChaosTopology) -> ChaosSchedule {
    let mut rng = SplitMix64::new(seed ^ 0x000C_4A05_u64.wrapping_mul(family as u64 + 1));
    let mut s = ChaosSchedule::new(seed);
    assert!(
        !topo.links.is_empty() && !topo.boxes.is_empty(),
        "chaos topology must name at least one box and one link"
    );
    match family {
        ScheduleFamily::PartitionHeal => {
            let n = between(&mut rng, 1, 2.min(topo.links.len() as u64));
            for _ in 0..n {
                let (a, b) = rng.pick(&topo.links).clone();
                let t0 = between(&mut rng, 500, 1_500);
                let dur = between(&mut rng, 3_000, 8_000);
                s = s
                    .partition(t0, &a, &b, Direction::Both)
                    .heal(t0 + dur, &a, &b);
            }
        }
        ScheduleFamily::AsymmetricFlap => {
            let (a, b) = rng.pick(&topo.links).clone();
            let mut t = between(&mut rng, 400, 1_000);
            let flaps = between(&mut rng, 2, 3);
            for i in 0..flaps {
                let dir = if i % 2 == 0 {
                    Direction::AToB
                } else {
                    Direction::BToA
                };
                let dur = between(&mut rng, 800, 2_000);
                s = s.partition(t, &a, &b, dir).heal(t + dur, &a, &b);
                t += dur + between(&mut rng, 300, 900);
            }
        }
        ScheduleFamily::CrashStorm => {
            let n = between(&mut rng, 2, 4.min(topo.boxes.len() as u64).max(2));
            let mut t = between(&mut rng, 400, 1_000);
            for _ in 0..n {
                let bx = rng.pick(&topo.boxes).clone();
                let down = between(&mut rng, 500, 2_500);
                s = s.crash(t, &bx, down);
                t += between(&mut rng, 400, 1_000);
            }
        }
        ScheduleFamily::BurstLoss => {
            let n = between(&mut rng, 1, 2);
            for _ in 0..n {
                let (a, b) = rng.pick(&topo.links).clone();
                let t0 = between(&mut rng, 400, 1_200);
                let drop = percent(&mut rng, 30, 70);
                let dur = between(&mut rng, 1_500, 4_000);
                s = s.burst(t0, &a, &b, drop, 0.10, 0.20, 150, dur);
            }
        }
        ScheduleFamily::Mixed => {
            let (a, b) = rng.pick(&topo.links).clone();
            let t0 = between(&mut rng, 500, 1_200);
            let pdur = between(&mut rng, 2_500, 6_000);
            s = s
                .partition(t0, &a, &b, Direction::Both)
                .heal(t0 + pdur, &a, &b);
            let bx = rng.pick(&topo.boxes).clone();
            s = s.crash(
                t0 + between(&mut rng, 200, 800),
                &bx,
                between(&mut rng, 500, 2_000),
            );
            let (ba, bb) = rng.pick(&topo.links).clone();
            s = s.burst(
                t0 + pdur + between(&mut rng, 100, 500),
                &ba,
                &bb,
                percent(&mut rng, 20, 50),
                0.10,
                0.20,
                150,
                between(&mut rng, 1_000, 2_500),
            );
        }
    }
    s
}

/// Delta-debug a failing schedule down to a minimal still-failing phase
/// list with [`crate::shrink`]: each candidate drops one phase, the last
/// phase first, and no candidate goes below one phase.
///
/// `still_fails` re-runs the system under a candidate schedule and
/// reports whether the original violation persists. The result is
/// 1-minimal (removing any single remaining phase makes the failure
/// disappear), and deterministic given a deterministic predicate.
pub fn minimize_schedule<F>(schedule: &ChaosSchedule, still_fails: F) -> ChaosSchedule
where
    F: FnMut(&ChaosSchedule) -> bool,
{
    let drop_one_phase = |s: &ChaosSchedule| {
        let s = s.clone();
        let n = s.phases.len();
        (0..n).rev().filter(move |_| n > 1).map(move |i| {
            let mut cand = s.clone();
            cand.phases.remove(i);
            cand
        })
    };
    crate::shrink(schedule.clone(), drop_one_phase, still_fails)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> ChaosTopology {
        ChaosTopology {
            boxes: vec!["l".into(), "s0".into(), "r".into()],
            links: vec![("l".into(), "s0".into()), ("s0".into(), "r".into())],
        }
    }

    #[test]
    fn settle_is_last_fault_end() {
        let s = ChaosSchedule::new(7)
            .partition(500, "l", "s0", Direction::Both)
            .heal(4_500, "l", "s0")
            .crash(1_000, "r", 2_000)
            .burst(2_000, "s0", "r", 0.5, 0.1, 0.2, 150, 1_000);
        assert_eq!(s.settle_ms(), Some(4_500));
        assert!(s.is_healed());
    }

    #[test]
    fn unhealed_partition_has_no_settle() {
        let s = ChaosSchedule::new(7).partition(500, "l", "s0", Direction::Both);
        assert_eq!(s.settle_ms(), None);
        assert!(!s.is_healed());
        // A heal of a *different* pair does not count.
        let s = s.heal(9_000, "s0", "r");
        assert_eq!(s.settle_ms(), None);
    }

    #[test]
    fn heal_matches_pair_order_insensitively() {
        let s = ChaosSchedule::new(1)
            .partition(100, "l", "s0", Direction::AToB)
            .heal(900, "s0", "l");
        assert_eq!(s.settle_ms(), Some(900));
    }

    #[test]
    fn generate_is_deterministic_and_healed() {
        for family in ScheduleFamily::ALL {
            for seed in 0..20 {
                let a = generate(family, seed, &topo());
                let b = generate(family, seed, &topo());
                assert_eq!(a, b, "family {} seed {seed}", family.name());
                assert!(a.is_healed(), "family {} seed {seed}", family.name());
                assert!(!a.phases.is_empty());
                let settle = a.settle_ms().unwrap();
                assert!(
                    settle <= 20_000,
                    "settle {settle} too late for reliability window"
                );
            }
        }
    }

    #[test]
    fn phases_stay_sorted() {
        let s = ChaosSchedule::new(0)
            .heal(5_000, "l", "s0")
            .partition(500, "l", "s0", Direction::Both)
            .crash(2_000, "r", 100);
        let times: Vec<u64> = s.phases.iter().map(|p| p.at_ms).collect();
        assert_eq!(times, vec![500, 2_000, 5_000]);
    }

    #[test]
    fn minimize_reaches_one_minimal_subset() {
        // Failure iff the schedule still contains the unhealed partition
        // of (l, s0): everything else is noise the minimizer must strip.
        let noisy = ChaosSchedule::new(3)
            .crash(100, "r", 200)
            .partition(500, "l", "s0", Direction::Both)
            .burst(700, "s0", "r", 0.5, 0.1, 0.2, 150, 500)
            .crash(900, "s0", 300);
        let fails = |s: &ChaosSchedule| {
            s.phases.iter().any(|p| {
                matches!(&p.action, ChaosAction::Partition { a, b, .. }
                    if (a == "l" && b == "s0") || (a == "s0" && b == "l"))
            }) && !s.is_healed()
        };
        assert!(fails(&noisy));
        let min = minimize_schedule(&noisy, fails);
        assert_eq!(min.describe(), "seed=3 t=500ms partition l<->s0 (both)");
    }

    #[test]
    fn describe_names_every_phase() {
        let s = ChaosSchedule::new(42)
            .partition(500, "l", "s0", Direction::AToB)
            .heal(2_500, "l", "s0");
        let d = s.describe();
        assert!(d.contains("seed=42"));
        assert!(d.contains("t=500ms partition l<->s0 (a->b)"));
        assert!(d.contains("t=2500ms heal l<->s0"));
    }
}
