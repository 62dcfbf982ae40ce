//! `mck_explore`: the model checker at one thread over a fixed sweep of
//! path configurations. It uses `core`'s slots and goals the other way from
//! `sim_storm` — clone, hash and canonicalize instead of dispatch — so a
//! `core` change that speeds one and slows the other shows. `netsim` and
//! `rt` do nothing here.

use super::{shuffle, Rep, Size, Workload};
use crate::metrics::Metrics;
use crate::sampler::{self, Until};
use crate::spans::Spans;
use crate::stats;
use ipmedia_core::path::{EndGoal, PathType};
use ipmedia_mck::explore::state_hash;
use ipmedia_mck::{
    budgeted, check_path_with, check_safety, check_spec, explore_with, CheckConfig, ExploreOptions,
    PathState, SeenSet, StateGraph,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

/// No configuration of the sweep comes near this; hitting it truncates the
/// exploration, which fails the run.
const MAX_STATES: usize = 2_000_000;

/// What one configuration's check must repeat exactly, sweep after sweep
/// and at any thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Outcome {
    states: usize,
    transitions: usize,
    terminals: usize,
    dedup_hits: u64,
    passed: bool,
}

impl Outcome {
    fn of(g: &StateGraph, cfg: &CheckConfig) -> Self {
        let spec = PathType::of(cfg.left, cfg.right).spec();
        Self {
            states: g.states(),
            transitions: g.transitions,
            terminals: g.terminals.len(),
            dedup_hits: g.dedup_hits,
            passed: !g.truncated && check_safety(g).is_ok() && check_spec(g, spec).is_ok(),
        }
    }
}

pub struct MckExplore {
    /// The sweep, in this run's seeded order.
    configs: Vec<(&'static str, CheckConfig)>,
    /// The configuration the per-operation probes walk: the same at every
    /// seed, so their numbers compare across runs.
    walked: CheckConfig,
    seed: u64,
    size: Size,
    /// Outcomes of the first sweep; every later one must repeat them.
    first: Option<Vec<Outcome>>,
}

impl MckExplore {
    pub fn setup(seed: u64, size: Size, spans: &mut Spans) -> Self {
        let open_hold = |links| budgeted(links, EndGoal::Open, EndGoal::Hold, 0);
        let mut configs = match size {
            Size::Full => vec![
                ("open-hold/1", open_hold(1)),
                ("open-open/1", budgeted(1, EndGoal::Open, EndGoal::Open, 0)),
                ("open-hold/0+1fault", open_hold(0).with_faults(1)),
            ],
            Size::Quick => vec![("open-hold/0", open_hold(0))],
        };
        let walked = configs[0].1;
        shuffle(&mut configs, &mut StdRng::seed_from_u64(seed));
        let mut w = Self {
            configs,
            walked,
            seed,
            size,
            first: None,
        };
        let open = spans.enter("mck.setup.warmup");
        let warm = w.rep(&mut Spans::new());
        spans.exit(open);
        assert_eq!(
            warm.failed, 0,
            "mck_explore: the warm-up sweep failed its checks"
        );
        w
    }

    /// One sweep at `threads`, checked against the first sweep.
    fn sweep(&mut self, threads: usize, spans: &mut Spans) -> Rep {
        let opts = ExploreOptions::parallel(MAX_STATES, threads);
        let sweep = spans.enter("mck.sweep");
        let outcomes: Vec<Outcome> = self
            .configs
            .iter()
            .map(|(_, cfg)| {
                if !spans.enabled() {
                    let (r, g) = check_path_with(cfg, &opts);
                    return Outcome {
                        states: r.states,
                        transitions: r.transitions,
                        terminals: r.terminals,
                        dedup_hits: g.dedup_hits,
                        passed: r.passed(),
                    };
                }
                // The same check with its two halves timed apart.
                let open = spans.enter("mck.explore");
                let g = explore_with(cfg, &opts);
                spans.exit(open);
                let open = spans.enter("mck.props");
                let outcome = Outcome::of(&g, cfg);
                spans.exit(open);
                let open = spans.enter("mck.drop_graph");
                drop(g);
                spans.exit(open);
                outcome
            })
            .collect();
        spans.exit(sweep);
        let first = self.first.get_or_insert_with(|| outcomes.clone());
        let mut rep = Rep {
            attempted: 0,
            failed: 0,
        };
        for (((name, _), seen), want) in self.configs.iter().zip(&outcomes).zip(first.iter()) {
            rep.attempted += seen.states as u64;
            if !seen.passed || seen != want {
                eprintln!(
                    "mck_explore: {name} at {threads} thread(s): {seen:?}, first sweep {want:?}"
                );
                rep.failed += seen.states as u64;
            }
        }
        rep
    }

    fn totals(&self) -> (f64, f64, f64) {
        let first = self.first.as_ref().expect("setup ran a sweep");
        let sum = |f: fn(&Outcome) -> f64| first.iter().map(f).sum::<f64>();
        (
            sum(|o| o.states as f64),
            sum(|o| o.transitions as f64),
            sum(|o| o.dedup_hits as f64),
        )
    }
}

impl Workload for MckExplore {
    fn rep(&mut self, spans: &mut Spans) -> Rep {
        self.sweep(1, spans)
    }

    fn layers(&mut self, spans: &mut Spans, out: &mut Metrics) {
        let per_sweep = |name: &str| {
            let mut by_rep: Vec<(u32, f64)> = Vec::new();
            for s in spans.all().iter().filter(|s| s.name == name) {
                match by_rep.iter_mut().find(|(rep, _)| *rep == s.rep) {
                    Some((_, ms)) => *ms += s.ms(),
                    None => by_rep.push((s.rep, s.ms())),
                }
            }
            let sums: Vec<f64> = by_rep.into_iter().map(|(_, ms)| ms / 1e3).collect();
            stats::median(&sums).expect("traced sweeps ran")
        };
        let (explore_s, props_s) = (per_sweep("mck.explore"), per_sweep("mck.props"));
        let (states, transitions, dedup_hits) = self.totals();
        out.set("mck.explore_s", explore_s);
        out.set("mck.props_s", props_s);
        out.set("mck.states", states);
        out.set("mck.transitions", transitions);
        out.set("mck.dedup_hits", dedup_hits);
        out.set("mck.states_per_s", states / explore_s);
        out.set("mck.dedup_hit_ratio", dedup_hits / transitions);

        // Per-operation costs along a seeded walk through one
        // configuration's state space.
        let cfg = self.walked;
        let steps = match self.size {
            Size::Full => 2_000,
            Size::Quick => 200,
        };
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut walk = vec![PathState::initial(&cfg)];
        while walk.len() < steps {
            let here = walk.last().expect("the walk starts at the initial state");
            let actions = here.actions(&cfg);
            let next = if actions.is_empty() {
                PathState::initial(&cfg)
            } else {
                let pick = rng.random_range(0..=actions.len() as u64 - 1) as usize;
                here.apply(&cfg, actions[pick])
            };
            walk.push(next);
        }
        let moves: Vec<_> = walk
            .iter()
            .filter_map(|s| s.actions(&cfg).into_iter().next().map(|a| (s, a)))
            .collect();
        let each = |ns_per_pass: f64, n: usize| ns_per_pass / n as f64;
        let actions_ns = sampler::ns_per_iter(|n| {
            for _ in 0..n {
                for s in &walk {
                    black_box(s.actions(&cfg));
                }
            }
        });
        out.set("mck.actions_ns", each(actions_ns, walk.len()));
        let apply_ns = sampler::ns_per_iter(|n| {
            for _ in 0..n {
                for (s, a) in &moves {
                    black_box(s.apply(&cfg, *a));
                }
            }
        });
        out.set("mck.apply_ns", each(apply_ns, moves.len()));
        let hash_ns = sampler::ns_per_iter(|n| {
            for _ in 0..n {
                for s in &walk {
                    black_box(state_hash(s));
                }
            }
        });
        out.set("mck.hash_ns", each(hash_ns, walk.len()));
        // Interning includes the clone the explorer also pays to own the
        // state; a fresh set per pass keeps every insert a first sighting
        // or a true duplicate, as the walk has them.
        let insert_ns = sampler::ns_per_iter(|n| {
            for _ in 0..n {
                let mut seen = SeenSet::new();
                for s in &walk {
                    black_box(seen.insert(s.clone()));
                }
            }
        });
        out.set("mck.seen_insert_ns", each(insert_ns, walk.len()));

        // The sweep once at two threads: same counts, and what the second
        // core buys.
        let t1_s = stats::median(&spans.ms_of("mck.sweep")).expect("traced sweeps ran") / 1e3;
        let t2 = sampler::sample(Until::Reps(1), |_| self.sweep(2, &mut Spans::new()));
        assert_eq!(
            t2.failed, 0,
            "mck_explore: the sweep differs at two threads"
        );
        let t2_s = t2.median_ms() / 1e3;
        out.set("mck.verify_s_t2", t2_s);
        out.set("mck.t2_speedup", t1_s / t2_s);
    }
}
