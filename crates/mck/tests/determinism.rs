//! Determinism (§VIII-A acceptance): the campaign worker pool must produce
//! identical state counts and verdicts at 1, 2, and 8 threads —
//! parallelism is an implementation detail, never observable in results —
//! and an exploration must produce the identical graph and (after trace
//! minimization) the identical counterexample ladder at every run.

use ipmedia_core::path::{EndGoal, PathSpec};
use ipmedia_mck::{
    budgeted, campaign_configs, check_spec, explore, minimize_counterexample, render_trace,
    run_campaign,
};

#[test]
fn campaign_results_are_identical_at_1_2_and_8_threads() {
    // Capped low enough to stay fast; truncation itself must also be
    // deterministic, so capped configs still have to agree exactly.
    let cfgs = campaign_configs(0, 1, &[0]);
    let cap = 30_000;
    let base = run_campaign(&cfgs, cap, 1);
    for threads in [2usize, 8] {
        let other = run_campaign(&cfgs, cap, threads);
        assert_eq!(base.len(), other.len());
        for (a, b) in base.iter().zip(&other) {
            assert_eq!(a.path_type, b.path_type, "{threads} threads");
            assert_eq!(a.links, b.links, "{threads} threads");
            assert_eq!(a.states, b.states, "{} at {threads} threads", a.path_type);
            assert_eq!(a.transitions, b.transitions, "{}", a.path_type);
            assert_eq!(a.terminals, b.terminals, "{}", a.path_type);
            assert_eq!(a.expanded, b.expanded, "{}", a.path_type);
            assert_eq!(a.dedup_hits, b.dedup_hits, "{}", a.path_type);
            assert_eq!(a.truncated, b.truncated, "{}", a.path_type);
            assert_eq!(a.safety, b.safety, "{}", a.path_type);
            assert_eq!(a.spec_result, b.spec_result, "{}", a.path_type);
            assert_eq!(a.verdict(), b.verdict(), "{}", a.path_type);
        }
    }
}

#[test]
fn exploration_numbering_repeats_run_to_run() {
    // The full graph — succ lists, parents, flags — must be identical,
    // not just the aggregate counts: state *numbering* is part of the
    // deterministic contract (trace extraction depends on it). Explored
    // twice in one process, so that a `RandomState` map's iteration order
    // or the order components were interned in reaching the graph shows —
    // or reaching the counts of distinct local steps, of canonicalized
    // successors and of states rebuilt from rows, which belong to the graph.
    let cases = [
        (
            budgeted(0, EndGoal::Open, EndGoal::Hold, 0).with_faults(1),
            200_000,
        ),
        (budgeted(1, EndGoal::Open, EndGoal::Hold, 0), 20_000),
        (
            budgeted(1, EndGoal::Open, EndGoal::Open, 0).with_faults(1),
            10_000,
        ),
        (
            budgeted(1, EndGoal::Hold, EndGoal::Hold, 0).with_faults(1),
            10_000,
        ),
    ];
    for (cfg, cap) in cases {
        let at = format!("{} link(s), {} fault(s)", cfg.links, cfg.fault_budget);
        let (base, g) = (explore(&cfg, cap), explore(&cfg, cap));
        assert_eq!(base.states(), g.states(), "{at}");
        assert_eq!(base.expanded, g.expanded, "{at}");
        assert_eq!(base.truncated, g.truncated, "{at}");
        let ids = 0..base.states() as u32;
        assert!(
            ids.clone().all(|i| base.succ(i) == g.succ(i)),
            "{at}: successor lists differ"
        );
        assert!(
            ids.clone().all(|i| base.parent(i) == g.parent(i)),
            "{at}: parents differ"
        );
        assert!(base.flags == g.flags, "{at}: flags differ");
        assert_eq!(base.terminals, g.terminals, "{at}");
        assert_eq!(base.transitions, g.transitions, "{at}");
        assert_eq!(base.dedup_hits, g.dedup_hits, "{at}");
        assert_eq!(base.local_steps, g.local_steps, "{at}");
        assert_eq!(base.canonicalized, g.canonicalized, "{at}");
        assert_eq!(base.rebuilt, g.rebuilt, "{at}");
    }
}

#[test]
fn minimized_counterexample_ladder_repeats_run_to_run() {
    // Check a spec the model genuinely violates (open–open ends never
    // reach bothClosed) so every run has to reconstruct and minimize a
    // real counterexample, then render it byte-for-byte.
    let cfg = budgeted(0, EndGoal::Open, EndGoal::Open, 0);
    let wrong_spec = PathSpec::EventuallyAlwaysBothClosed;
    let ladder = || {
        let g = explore(&cfg, 2_000_000);
        let violation = check_spec(&g, wrong_spec).expect_err("open–open cannot close");
        let trace = minimize_counterexample(&cfg, &g, wrong_spec, &violation);
        render_trace(&cfg, &trace)
    };
    let base = ladder();
    assert!(!base.is_empty());
    assert_eq!(ladder(), base);
    // The ladder itself is pinned, so a change to the minimizer that
    // picks a different (if equally minimal) trace shows as a diff.
    let golden = include_str!("fixtures/open_open_wrong_spec_ladder.txt");
    assert_eq!(
        base, golden,
        "minimized ladder drifted from the fixture;\nactual:\n{base}"
    );
}
