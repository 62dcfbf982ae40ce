//! Wall-clock chaos injection for deployed nodes.
//!
//! A [`ChaosGate`] is the runtime counterpart of the simulator's
//! partition/burst machinery: a shared fault table every node spawned
//! with it ([`NodeOptions::gate`](crate::NodeOptions::gate)) consults
//! before handing a frame to its connection writer. The
//! same declarative [`ChaosSchedule`](ipmedia_core::chaos::ChaosSchedule)
//! that drives the simulator is replayed onto the gate by
//! [`drive_schedule`], mapping schedule milliseconds onto (optionally
//! compressed) wall-clock time.
//!
//! Fault semantics mirror a real outage rather than a silent byte
//! eater: when the gate blocks a frame, the node declares the connection
//! it was to cross dead, at either end, and with it every channel the
//! connection carries, as a TCP connection fails whole. The far end reads
//! end of stream. The dialer's channels enter their reconnect path —
//! which the gate also blocks until the heal — so recovery exercises the
//! same redial + §VI resync machinery a genuine partition would; the
//! acceptor's go down. Crashes are approximated by isolating every link of
//! the named box for the down interval (the simulator's crash likewise
//! loses all of the box's inputs).

use ipmedia_core::chaos::{ChaosAction, ChaosSchedule};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use tokio::time::{sleep, Duration};

/// A live burst window on a link: drop probability plus its seeded PRNG.
struct Burst {
    drop: f64,
    rng: StdRng,
}

#[derive(Default)]
struct GateState {
    /// Active partitions keyed by normalized (lexicographic) name pair;
    /// flags block the low→high and high→low directions respectively.
    partitions: HashMap<(String, String), (bool, bool)>,
    /// Boxes currently "crashed": every link touching them is cut.
    isolated: HashSet<String>,
    /// Active bursts keyed by normalized name pair.
    bursts: HashMap<(String, String), Burst>,
}

fn key(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_string(), b.to_string())
    } else {
        (b.to_string(), a.to_string())
    }
}

/// Shared fault table consulted by the nodes spawned with it on every outgoing
/// frame. All methods take `&self`; the state lives behind a mutex so one
/// gate serves a whole deployment.
#[derive(Default)]
pub struct ChaosGate {
    state: Mutex<GateState>,
}

impl ChaosGate {
    /// Fresh gate with no faults active.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Lock the fault table, recovering from poisoning. Each mutation is
    /// a single map insert/remove, so a panicked holder leaves the table
    /// consistent; propagating the poison instead would wedge every node
    /// sharing the gate — one crashed task becoming a fleet-wide outage,
    /// exactly what a chaos layer must not do.
    fn table(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Install a partition between two named boxes; `block_ab`/`block_ba`
    /// cut the `a`→`b` and `b`→`a` directions.
    pub fn partition(&self, a: &str, b: &str, block_ab: bool, block_ba: bool) {
        let k = key(a, b);
        let flags = if a <= b {
            (block_ab, block_ba)
        } else {
            (block_ba, block_ab)
        };
        self.table().partitions.insert(k, flags);
    }

    /// Remove any partition between two named boxes.
    pub fn heal(&self, a: &str, b: &str) {
        self.table().partitions.remove(&key(a, b));
    }

    /// Mark a box crashed (`true`) or restarted (`false`): while
    /// isolated, every link touching it is cut in both directions.
    pub fn isolate(&self, bx: &str, isolated: bool) {
        let mut s = self.table();
        if isolated {
            s.isolated.insert(bx.to_string());
        } else {
            s.isolated.remove(bx);
        }
    }

    /// Open a seeded drop burst on a link; frames between the pair are
    /// dropped with probability `drop` until [`ChaosGate::clear_burst`].
    pub fn burst(&self, a: &str, b: &str, drop: f64, seed: u64) {
        self.table().bursts.insert(
            key(a, b),
            Burst {
                drop,
                rng: StdRng::seed_from_u64(seed),
            },
        );
    }

    /// Close the burst window on a link.
    pub fn clear_burst(&self, a: &str, b: &str) {
        self.table().bursts.remove(&key(a, b));
    }

    /// Remove every active fault (partitions, isolations, bursts).
    pub fn heal_all(&self) {
        let mut s = self.table();
        s.partitions.clear();
        s.isolated.clear();
        s.bursts.clear();
    }

    /// Verdict for one frame from `from` to `to`: `Ok` passes,
    /// `Err("partition")` for a cut link or crashed endpoint,
    /// `Err("drop")` for a burst loss.
    pub fn check(&self, from: &str, to: &str) -> Result<(), &'static str> {
        let mut s = self.table();
        if s.isolated.contains(from) || s.isolated.contains(to) {
            return Err("partition");
        }
        let k = key(from, to);
        if let Some(&(lo_hi, hi_lo)) = s.partitions.get(&k) {
            let blocked = if from <= to { lo_hi } else { hi_lo };
            if blocked {
                return Err("partition");
            }
        }
        if let Some(burst) = s.bursts.get_mut(&k) {
            let p = burst.drop;
            if p > 0.0 && burst.rng.random_bool(p) {
                return Err("drop");
            }
        }
        Ok(())
    }

    /// Whether a (re)connect from `from` to `to` may proceed: dialing is
    /// a round trip, so any cut direction or crashed endpoint blocks it.
    /// Bursts do not block dialing (a flaky link still accepts
    /// connections).
    pub fn dial_allowed(&self, from: &str, to: &str) -> bool {
        let s = self.table();
        if s.isolated.contains(from) || s.isolated.contains(to) {
            return false;
        }
        match s.partitions.get(&key(from, to)) {
            Some(&(lo_hi, hi_lo)) => !lo_hi && !hi_lo,
            None => true,
        }
    }
}

/// Replay a schedule onto a gate in wall-clock time. Schedule
/// milliseconds are divided by `compress` (≥ 1), so a schedule authored
/// for virtual seconds runs in wall-clock fractions of them. The call
/// returns after the last fault edge (including burst ends and crash
/// restarts) has been applied.
pub async fn drive_schedule(gate: &ChaosGate, schedule: &ChaosSchedule, compress: u64) {
    let compress = compress.max(1);
    // Expand phases into instantaneous edges (bursts and crashes get an
    // explicit end edge), then replay in time order.
    enum Edge {
        Partition(String, String, bool, bool),
        Heal(String, String),
        BurstOn(String, String, f64, u64),
        BurstOff(String, String),
        Isolate(String, bool),
    }
    let mut edges: Vec<(u64, Edge)> = Vec::new();
    for (i, phase) in schedule.phases.iter().enumerate() {
        let seed = schedule.phase_seed(i);
        match &phase.action {
            ChaosAction::Partition { a, b, dir } => {
                let (ab, ba) = dir.blocks();
                edges.push((phase.at_ms, Edge::Partition(a.clone(), b.clone(), ab, ba)));
            }
            ChaosAction::Heal { a, b } => {
                edges.push((phase.at_ms, Edge::Heal(a.clone(), b.clone())));
            }
            ChaosAction::Burst {
                a,
                b,
                drop,
                duration_ms,
                ..
            } => {
                edges.push((
                    phase.at_ms,
                    Edge::BurstOn(a.clone(), b.clone(), *drop, seed),
                ));
                edges.push((
                    phase.at_ms + duration_ms,
                    Edge::BurstOff(a.clone(), b.clone()),
                ));
            }
            ChaosAction::Crash { bx, down_ms } => {
                edges.push((phase.at_ms, Edge::Isolate(bx.clone(), true)));
                edges.push((phase.at_ms + down_ms, Edge::Isolate(bx.clone(), false)));
            }
        }
    }
    edges.sort_by_key(|(at, _)| *at);
    let mut clock_ms = 0u64;
    for (at, edge) in edges {
        if at > clock_ms {
            sleep(Duration::from_millis((at - clock_ms) / compress)).await;
            clock_ms = at;
        }
        match edge {
            Edge::Partition(a, b, ab, ba) => gate.partition(&a, &b, ab, ba),
            Edge::Heal(a, b) => gate.heal(&a, &b),
            Edge::BurstOn(a, b, drop, seed) => gate.burst(&a, &b, drop, seed),
            Edge::BurstOff(a, b) => gate.clear_burst(&a, &b),
            Edge::Isolate(bx, on) => gate.isolate(&bx, on),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipmedia_core::chaos::Direction;

    #[test]
    fn partition_blocks_per_direction() {
        let g = ChaosGate::new();
        g.partition("a", "b", true, false);
        assert_eq!(g.check("a", "b"), Err("partition"));
        assert_eq!(g.check("b", "a"), Ok(()));
        assert!(!g.dial_allowed("a", "b"));
        assert!(!g.dial_allowed("b", "a"));
        g.heal("b", "a"); // order-insensitive
        assert_eq!(g.check("a", "b"), Ok(()));
        assert!(g.dial_allowed("a", "b"));
    }

    #[test]
    fn isolation_cuts_every_link_of_the_box() {
        let g = ChaosGate::new();
        g.isolate("s", true);
        assert_eq!(g.check("l", "s"), Err("partition"));
        assert_eq!(g.check("s", "r"), Err("partition"));
        assert_eq!(g.check("l", "r"), Ok(()));
        g.isolate("s", false);
        assert_eq!(g.check("l", "s"), Ok(()));
    }

    #[test]
    fn burst_drops_are_seeded_and_probabilistic() {
        let g = ChaosGate::new();
        g.burst("a", "b", 0.5, 9);
        let drops = (0..200)
            .filter(|_| g.check("a", "b") == Err("drop"))
            .count();
        assert!(drops > 50 && drops < 150, "drops: {drops}");
        // Bursts never block dialing.
        assert!(g.dial_allowed("a", "b"));
        g.clear_burst("a", "b");
        assert_eq!(g.check("a", "b"), Ok(()));
    }

    #[tokio::test]
    async fn drive_schedule_applies_and_clears_edges() {
        let g = ChaosGate::new();
        let s = ipmedia_core::chaos::ChaosSchedule::new(1)
            .partition(0, "a", "b", Direction::Both)
            .heal(10, "a", "b")
            .crash(5, "c", 10);
        drive_schedule(&g, &s, 1).await;
        // Everything healed by the time drive_schedule returns.
        assert_eq!(g.check("a", "b"), Ok(()));
        assert_eq!(g.check("c", "a"), Ok(()));
    }

    /// A chaos-spawned reader task that panics while consulting the gate
    /// must not wedge the rest of the deployment: the poisoned lock
    /// recovers and the table stays usable.
    #[test]
    fn gate_survives_poisoned_lock() {
        let g = ChaosGate::new();
        g.partition("a", "b", true, true);
        let poisoner = g.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.state.lock().unwrap();
            panic!("reader task died holding the gate lock");
        })
        .join();
        // Every accessor still works on the pre-panic state.
        assert_eq!(g.check("a", "b"), Err("partition"));
        assert!(!g.dial_allowed("a", "b"));
        g.heal_all();
        assert_eq!(g.check("a", "b"), Ok(()));
    }

    /// End-to-end poison regression: panic a task holding the gate lock
    /// mid-storm, then drive a fresh call through gated nodes — the node
    /// must still answer instead of cascading the panic.
    #[tokio::test]
    async fn node_still_answers_after_gate_poison() {
        use ipmedia_core::endpoint::{CallerLogic, EndpointLogic};
        use ipmedia_core::goal::EndpointPolicy;
        use ipmedia_core::{BoxId, MediaAddr, SlotState};

        let gate = ChaosGate::new();
        let dir = crate::node::Directory::new();
        let callee = crate::node::spawn_node(
            "callee",
            BoxId(2),
            Box::new(EndpointLogic::resource(EndpointPolicy::audio(
                MediaAddr::v4(10, 0, 0, 2, 4000),
            ))),
            dir.clone(),
            crate::node::NodeOptions {
                gate: Some(gate.clone()),
                ..Default::default()
            },
        )
        .await
        .unwrap();

        // The crash: a task dies while holding the gate's lock.
        let poisoner = gate.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.state.lock().unwrap();
            panic!("reader task died holding the gate lock");
        })
        .join();

        // A fresh caller drives a call through the poisoned gate; every
        // outgoing frame consults it, so reaching Flowing proves the node
        // still answers.
        let mut caller = crate::node::spawn_node(
            "caller",
            BoxId(1),
            Box::new(CallerLogic::new(
                EndpointPolicy::audio(MediaAddr::v4(10, 0, 0, 1, 4000)),
                "callee",
                1,
                1,
            )),
            dir.clone(),
            crate::node::NodeOptions {
                gate: Some(gate.clone()),
                ..Default::default()
            },
        )
        .await
        .unwrap();
        let ok = caller
            .wait_for(std::time::Duration::from_secs(10), |s| {
                s.slots.iter().any(|sl| sl.state == SlotState::Flowing)
            })
            .await;
        assert!(ok, "call completes through the recovered gate");
        caller.shutdown().await;
        callee.shutdown().await;
    }
}
