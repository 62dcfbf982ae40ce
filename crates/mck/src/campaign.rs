//! The verification campaign of §VIII-A: all six path types, with and
//! without flowlinks, checked for safety and their §V specification.
//!
//! Campaigns are embarrassingly parallel across configurations, so
//! [`run_campaign`] drives a fixed config list through a worker pool
//! (path types × links × fault budgets run concurrently instead of
//! serially), each exploration on one thread. Results come back in config
//! order and are identical at any thread count.

use crate::explore::{explore_with, ExploreOptions, StateGraph};
use crate::props::{check_safety, check_spec, Violation};
use crate::state::CheckConfig;
use ipmedia_core::path::{EndGoal, PathSpec, PathType};
use ipmedia_obs::metrics::Registry;
use ipmedia_obs::JsonObj;
use std::time::Duration;

/// Outcome of checking one path configuration.
pub struct CheckResult {
    pub path_type: PathType,
    pub links: usize,
    pub faults: u8,
    pub spec: PathSpec,
    pub states: usize,
    pub transitions: usize,
    pub terminals: usize,
    /// Distinct states expanded (< `states` iff `truncated`).
    pub expanded: usize,
    /// Seen-set hits: transitions collapsed onto already-interned states.
    pub dedup_hits: u64,
    /// Distinct local steps, the transitions that were executed rather than
    /// looked up ([`StateGraph::local_steps`]).
    pub local_steps: u64,
    /// Successors rebuilt as states to be canonicalized
    /// ([`StateGraph::canonicalized`]).
    pub canonicalized: u64,
    pub elapsed: Duration,
    pub truncated: bool,
    pub safety: Result<(), Violation>,
    pub spec_result: Result<(), Violation>,
}

/// Coarse classification of a [`CheckResult`], for consumers that compare
/// verdicts across tools (the static-analyzer differential harness) and
/// need a stable, machine-readable class rather than the free-text
/// [`CheckResult::verdict`] string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VerdictClass {
    /// Exhaustive exploration, both properties hold.
    Pass,
    /// A safety violation (counterexample trace exists).
    Safety,
    /// The §V path specification failed (liveness/recurrence).
    Spec,
    /// The exploration cap was hit: properties checked over a prefix only,
    /// so nothing is known beyond "no counterexample found so far".
    Truncated,
}

impl VerdictClass {
    /// Stable lower-case name, used in JSONL records.
    pub fn name(self) -> &'static str {
        match self {
            VerdictClass::Pass => "pass",
            VerdictClass::Safety => "safety",
            VerdictClass::Spec => "spec",
            VerdictClass::Truncated => "truncated",
        }
    }

    /// True iff the checker found an actual counterexample (as opposed to
    /// passing or running out of budget).
    pub fn is_counterexample(self) -> bool {
        matches!(self, VerdictClass::Safety | VerdictClass::Spec)
    }
}

impl CheckResult {
    /// A configuration passes only if exploration was exhaustive AND both
    /// properties hold. A truncated run is *never* a pass: the properties
    /// were only checked over a prefix of the reachable space.
    pub fn passed(&self) -> bool {
        !self.truncated && self.safety.is_ok() && self.spec_result.is_ok()
    }

    /// The [`VerdictClass`] of this result. Safety violations win over
    /// spec violations (a safety counterexample invalidates everything
    /// downstream); truncation only matters when no violation was found
    /// in the explored prefix.
    pub fn verdict_class(&self) -> VerdictClass {
        if self.safety.is_err() {
            VerdictClass::Safety
        } else if self.spec_result.is_err() {
            VerdictClass::Spec
        } else if self.truncated {
            VerdictClass::Truncated
        } else {
            VerdictClass::Pass
        }
    }

    /// Human-readable verdict; truncated runs are reported as such (with
    /// the expansion cap context) rather than folded into pass/fail.
    pub fn verdict(&self) -> String {
        if self.passed() {
            "PASS".to_string()
        } else if self.truncated {
            format!(
                "TRUNCATED (cap hit after {} expanded, {} discovered)",
                self.expanded, self.states
            )
        } else if let Err(v) = &self.safety {
            format!("SAFETY: {v}")
        } else if let Err(v) = &self.spec_result {
            format!("SPEC: {v}")
        } else {
            unreachable!("failed result with no violation")
        }
    }

    /// The `mck_check` JSONL record of this result: everything but a
    /// counterexample, which takes the graph to reconstruct.
    pub fn record(&self) -> JsonObj {
        JsonObj::new()
            .str("record", "mck_check")
            .str("path_type", &self.path_type.to_string())
            .num("links", self.links as u64)
            .num("faults", u64::from(self.faults))
            .str("spec", &format!("{:?}", self.spec))
            .num("states", self.states as u64)
            .num("transitions", self.transitions as u64)
            .num("terminals", self.terminals as u64)
            .num("expanded", self.expanded as u64)
            .num("dedup_hits", self.dedup_hits)
            .num("local_steps", self.local_steps)
            .num("canonicalized", self.canonicalized)
            .float("states_per_sec", self.states_per_sec())
            .float("elapsed_ms", self.elapsed.as_secs_f64() * 1e3)
            .bool("truncated", self.truncated)
            .bool("passed", self.passed())
    }

    /// Exploration throughput, states expanded per second.
    pub fn states_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.expanded as f64 / secs
        }
    }
}

/// Check one configuration sequentially.
pub fn check_path(cfg: &CheckConfig, max_states: usize) -> (CheckResult, StateGraph) {
    check_path_with(cfg, &ExploreOptions::sequential(max_states))
}

/// Check one configuration under explicit exploration options.
pub fn check_path_with(cfg: &CheckConfig, opts: &ExploreOptions) -> (CheckResult, StateGraph) {
    let path_type = PathType::of(cfg.left, cfg.right);
    let spec = path_type.spec();
    let g = explore_with(cfg, opts);
    let result = CheckResult {
        path_type,
        links: cfg.links,
        faults: cfg.fault_budget,
        spec,
        states: g.states(),
        transitions: g.transitions,
        terminals: g.terminals.len(),
        expanded: g.expanded,
        dedup_hits: g.dedup_hits,
        local_steps: g.local_steps,
        canonicalized: g.canonicalized,
        elapsed: g.elapsed,
        truncated: g.truncated,
        safety: check_safety(&g),
        spec_result: check_spec(&g, spec),
    };
    (result, g)
}

/// Build the config list for a campaign: every path type at every link
/// count in `0..=max_links`, crossed with every fault budget.
pub fn campaign_configs(
    budget_scale: u8,
    max_links: usize,
    fault_budgets: &[u8],
) -> Vec<CheckConfig> {
    let mut out = Vec::new();
    for &faults in fault_budgets {
        for links in 0..=max_links {
            for pt in PathType::all() {
                let (l, r) = pt.ends();
                out.push(budgeted(links, l, r, budget_scale).with_faults(faults));
            }
        }
    }
    out
}

/// Run every configuration through a pool of `threads` campaign workers
/// (each exploration itself sequential — configs outnumber cores in every
/// real campaign). Results are returned in `cfgs` order regardless of
/// which worker finished when, so output is thread-count deterministic.
pub fn run_campaign(cfgs: &[CheckConfig], max_states: usize, threads: usize) -> Vec<CheckResult> {
    run_campaign_with(cfgs, |_| max_states, threads)
}

/// [`run_campaign`] with a per-configuration exploration cap derived from
/// `base` by [`depth_capped_states`]: shallow configurations are explored
/// exhaustively, deep ones get a budgeted prefix (surfaced as TRUNCATED,
/// never a pass). This is what lets campaign-scale differential runs —
/// thousands of fuzz-generated scenarios reduced to a shared config set —
/// cover multi-flowlink classes without blowing the wall-clock budget.
pub fn run_campaign_depth_capped(
    cfgs: &[CheckConfig],
    base: usize,
    threads: usize,
) -> Vec<CheckResult> {
    run_campaign_with(cfgs, |cfg| depth_capped_states(cfg.links, base), threads)
}

/// Both campaign entry points: every config through the shared worker
/// pool, `max_for` picking its exploration cap.
fn run_campaign_with(
    cfgs: &[CheckConfig],
    max_for: impl Fn(&CheckConfig) -> usize + Sync,
    threads: usize,
) -> Vec<CheckResult> {
    ipmedia_core::par::slot_map(threads, cfgs.len(), |i| {
        check_path_with(&cfgs[i], &ExploreOptions::sequential(max_for(&cfgs[i]))).0
    })
}

/// The per-depth exploration cap for campaign-scale differential runs: a
/// configuration with `flowlinks` interior flowlinks keeps the full
/// `base` cap while its state space is exhaustively explorable in CI
/// (zero or one flowlink, ≈10⁵ states), and gets a geometrically shrunk
/// prefix beyond that (two flowlinks ≈10⁶ states, three ≈10⁷ — a capped
/// prefix still catches every shallow counterexample and is surfaced as
/// TRUNCATED rather than folded into a pass).
pub fn depth_capped_states(flowlinks: usize, base: usize) -> usize {
    let scaled = match flowlinks {
        0 | 1 => base,
        2 => base / 16,
        _ => base / 64,
    };
    scaled.clamp(10_000.min(base), base)
}

/// The paper's 12 models: six path types with no flowlinks and six with one
/// flowlink each (§VIII-A). `budget_scale` tunes phase-1 budgets: 0 keeps
/// the campaign fast (CI-sized), 1 reproduces the fuller nondeterminism.
/// The configurations are spread over `threads` campaign workers (`0` = all
/// cores), with identical results in identical order at any thread count.
pub fn paper_campaign(budget_scale: u8, max_states: usize, threads: usize) -> Vec<CheckResult> {
    run_campaign(
        &campaign_configs(budget_scale, 1, &[0]),
        max_states,
        threads,
    )
}

/// Configuration with budgets scaled for exploration depth.
pub fn budgeted(links: usize, left: EndGoal, right: EndGoal, scale: u8) -> CheckConfig {
    CheckConfig {
        links,
        left,
        right,
        end_phase1_budget: 1 + scale,
        link_phase1_budget: scale.min(1),
        modify_budget: 1,
        fault_budget: 0,
    }
}

/// The fault campaign: every path type checked with the adversary allowed
/// `faults` drop/duplicate faults on each tunnel (and the matching
/// recovery machinery enabled). Budgets are kept minimal — the point is
/// the interleaving of faults with the protocol, not phase-1 breadth.
/// The path types are spread over `threads` campaign workers.
pub fn fault_campaign(
    links: usize,
    faults: u8,
    max_states: usize,
    threads: usize,
) -> Vec<CheckResult> {
    let cfgs: Vec<CheckConfig> = PathType::all()
        .iter()
        .map(|pt| {
            let (l, r) = pt.ends();
            CheckConfig {
                links,
                left: l,
                right: r,
                end_phase1_budget: 1,
                link_phase1_budget: 0,
                modify_budget: 1,
                fault_budget: faults,
            }
        })
        .collect();
    run_campaign(&cfgs, max_states, threads)
}

/// Record a campaign's exploration metrics into an observability
/// registry: per-configuration expansion throughput lands in the
/// `mck_states_per_sec` histogram, seen-set hits in `mck_dedup_hits`, and
/// how the transitions were stepped in `mck_local_steps` and
/// `mck_canonicalized`.
pub fn record_campaign_metrics(registry: &Registry, results: &[CheckResult]) {
    for r in results {
        registry
            .mck_states_per_sec
            .observe(r.states_per_sec() as u64);
        registry.add_mck_dedup_hits(r.dedup_hits);
        registry.add_mck_steps(r.local_steps, r.canonicalized);
    }
}

/// Render campaign results as an aligned text table (the `V1` table of
/// EXPERIMENTS.md).
pub fn render_table(results: &[CheckResult]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<12} {:>5} {:>6} {:<34} {:>9} {:>11} {:>9} {:>9}  {}\n",
        "path type",
        "links",
        "faults",
        "spec",
        "states",
        "transitions",
        "terminals",
        "time",
        "verdict"
    ));
    for r in results {
        s.push_str(&format!(
            "{:<12} {:>5} {:>6} {:<34} {:>9} {:>11} {:>9} {:>8.2}s  {}\n",
            r.path_type.to_string(),
            r.links,
            r.faults,
            format!("{:?}", r.spec),
            r.states,
            r.transitions,
            r.terminals,
            r.elapsed.as_secs_f64(),
            r.verdict()
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_paths_all_pass() {
        // The six no-flowlink models of §VIII-A at small budgets.
        for pt in PathType::all() {
            let (l, r) = pt.ends();
            let cfg = budgeted(0, l, r, 0);
            let (res, g) = check_path(&cfg, 2_000_000);
            assert!(
                res.passed(),
                "{pt} (0 links) failed: safety={:?} spec={:?} states={} trace={:?}",
                res.safety,
                res.spec_result,
                res.states,
                res.spec_result
                    .as_ref()
                    .err()
                    .map(|v| violation_trace(&g, v)),
            );
        }
    }

    #[test]
    fn direct_paths_pass_with_one_fault_per_tunnel() {
        // Acceptance: every path type still satisfies safety and its §V
        // spec when the adversary may drop or duplicate one signal on
        // each channel (with the recovery machinery enabled). Runs the
        // path types through the campaign worker pool.
        for res in fault_campaign(0, 1, 4_000_000, 0) {
            assert!(
                res.passed(),
                "{} (0 links, 1 fault) failed: safety={:?} spec={:?} states={}",
                res.path_type,
                res.safety,
                res.spec_result,
                res.states,
            );
        }
    }

    #[test]
    fn fault_budget_grows_the_explored_space() {
        // The fault actions genuinely branch the exploration: the same
        // model with a fault budget must visit strictly more states.
        let cfg = budgeted(0, EndGoal::Open, EndGoal::Hold, 0);
        let (plain, _) = check_path(&cfg, 2_000_000);
        let (faulty, _) = check_path(&cfg.with_faults(1), 4_000_000);
        assert!(faulty.passed(), "faulty open–hold must still pass");
        assert!(
            faulty.states > plain.states,
            "faults explored: {} vs {}",
            faulty.states,
            plain.states
        );
    }

    #[test]
    fn truncated_run_is_surfaced_not_passed() {
        // A capped exploration must never report a clean pass, and the
        // rendered verdict must say TRUNCATED with the expansion context.
        let cfg = budgeted(0, EndGoal::Open, EndGoal::Hold, 0);
        let (res, g) = check_path(&cfg, 100);
        assert!(g.truncated);
        assert!(res.truncated);
        assert!(!res.passed(), "truncated run reported as a pass");
        assert_eq!(res.expanded, 100);
        assert!(res.verdict().starts_with("TRUNCATED"), "{}", res.verdict());
        let table = render_table(std::slice::from_ref(&res));
        assert!(table.contains("TRUNCATED"), "table must surface truncation");
    }

    #[test]
    fn campaign_worker_pool_matches_serial_run() {
        // Direct paths only: enough configs to exercise the pool, small
        // enough to keep the double run cheap.
        let cfgs = campaign_configs(0, 0, &[0]);
        let serial = run_campaign(&cfgs, 2_000_000, 1);
        let pooled = run_campaign(&cfgs, 2_000_000, 4);
        assert_eq!(serial.len(), pooled.len());
        for (a, b) in serial.iter().zip(&pooled) {
            assert_eq!(a.path_type, b.path_type);
            assert_eq!(a.links, b.links);
            assert_eq!(a.states, b.states);
            assert_eq!(a.transitions, b.transitions);
            assert_eq!(a.terminals, b.terminals);
            assert_eq!(a.expanded, b.expanded);
            assert_eq!(a.dedup_hits, b.dedup_hits);
            assert_eq!(a.passed(), b.passed());
            assert_eq!(a.safety, b.safety);
            assert_eq!(a.spec_result, b.spec_result);
        }
    }

    #[test]
    fn depth_caps_are_monotone_and_bounded() {
        let base = 2_000_000;
        assert_eq!(depth_capped_states(0, base), base);
        assert_eq!(depth_capped_states(1, base), base);
        let two = depth_capped_states(2, base);
        let three = depth_capped_states(3, base);
        assert!(two < base && three < two, "{two} {three}");
        // Deep caps never collapse to uselessness, shallow bases are
        // never inflated.
        assert!(depth_capped_states(5, base) >= 10_000);
        assert_eq!(depth_capped_states(3, 5_000), 5_000);
    }

    #[test]
    fn depth_capped_campaign_matches_per_config_caps() {
        // One shallow and one deep config: the shallow one must explore
        // exhaustively under the base cap, the deep one must be truncated
        // at its reduced cap — and the pooled run must match serial.
        let base = 40_000;
        let cfgs = vec![
            budgeted(0, EndGoal::Open, EndGoal::Hold, 0),
            budgeted(2, EndGoal::Open, EndGoal::Open, 0),
        ];
        let serial = run_campaign_depth_capped(&cfgs, base, 1);
        assert!(!serial[0].truncated, "shallow config is exhaustive");
        assert!(serial[1].truncated, "deep config hits its reduced cap");
        assert_eq!(serial[1].expanded, depth_capped_states(2, base));
        let pooled = run_campaign_depth_capped(&cfgs, base, 4);
        for (a, b) in serial.iter().zip(&pooled) {
            assert_eq!(a.states, b.states);
            assert_eq!(a.expanded, b.expanded);
            assert_eq!(a.verdict_class(), b.verdict_class());
        }
    }

    fn violation_trace(g: &crate::explore::StateGraph, v: &Violation) -> Vec<crate::state::Action> {
        let idx = match v {
            Violation::DirtyTerminal { state }
            | Violation::BadTerminal { state }
            | Violation::BadCycle { state } => *state,
        };
        g.trace_to(idx)
    }
}
