//! Cross-crate evaluation tests: the paper's headline numbers, asserted.
//!
//! These pin the *shape* results of the paper's evaluation — who wins, by
//! what factor, where the formulas land — across the simulator, the model
//! checker, and the SIP baseline together.

use ipmedia::core::path::PathType;
use ipmedia::mck::{budgeted, check_path, paper_campaign};
use ipmedia::netsim::{SimConfig, SimDuration};
use ipmedia_bench::{fig13_concurrent_relink, fresh_setup_latency, relink_latency};

#[test]
fn fig13_latency_matches_paper_exactly() {
    // §VIII-C: "With these numbers the latency of Figure 13 is 128 ms."
    assert_eq!(
        fig13_concurrent_relink(SimConfig::paper()),
        SimDuration::from_millis(128)
    );
}

#[test]
fn general_latency_formula_holds_for_all_path_lengths() {
    // §VIII-C: pn + (p+1)c.
    for p in 1..=8usize {
        let measured = relink_latency(p, SimConfig::paper());
        let formula = SimDuration::from_millis(34 * p as u64 + 20 * (p as u64 + 1));
        assert_eq!(measured, formula, "p = {p}");
    }
}

#[test]
fn latency_scales_linearly_with_n_and_c() {
    // Re-run Fig. 13 with doubled parameters: the formula structure, not
    // the constants, is what the simulator reproduces.
    let cfg = SimConfig {
        net_latency: SimDuration::from_millis(68),
        compute_cost: SimDuration::from_millis(40),
    };
    assert_eq!(
        fig13_concurrent_relink(cfg),
        SimDuration::from_millis(2 * 68 + 3 * 40)
    );
}

#[test]
fn sip_common_case_is_three_times_slower() {
    // §IX-B: "in the common situation, the comparison is 378 ms versus
    // 128 ms."
    let ours = fig13_concurrent_relink(SimConfig::paper()).as_millis_f64();
    let sip = ipmedia::sip::common_case(1)
        .expect("converges")
        .converged_after
        .as_millis_f64();
    assert_eq!(ours, 128.0);
    assert_eq!(sip, 378.0, "the SIP message walk reproduces 7n + 7c");
}

#[test]
fn sip_glare_is_dominated_by_the_retry_delay() {
    // §IX-B: 10n + 11c + d with E[d] = 3 s ≈ 3560 ms. Individual runs
    // vary with d ∈ [2.1 s, 4 s].
    let mut sum = 0.0;
    for seed in 0..10 {
        let g = ipmedia::sip::glare_scenario(seed).expect("converges");
        let ms = g.converged_after.as_millis_f64();
        assert!((2_300.0..4_700.0).contains(&ms), "seed {seed}: {ms}");
        sum += ms;
    }
    let avg = sum / 10.0;
    let ours = 128.0;
    assert!(
        avg / ours > 20.0,
        "glare must be over an order of magnitude worse: {avg} vs {ours}"
    );
}

#[test]
fn caching_pays_for_itself() {
    // Unilateral descriptors can be cached and re-used (§IX-B): re-linking
    // an established path is strictly cheaper than a fresh setup.
    for k in 1..=4 {
        let fresh = fresh_setup_latency(k, SimConfig::paper());
        let cached = relink_latency(k, SimConfig::paper());
        assert!(cached < fresh, "k={k}: cached {cached} >= fresh {fresh}");
    }
}

#[test]
fn verification_campaign_all_pass_quick() {
    // The 12-model campaign of §VIII-A at CI-sized budgets, run through
    // the campaign worker pool (0 = one worker per core); results come
    // back in config order and are identical at any thread count.
    let results = paper_campaign(0, 2_000_000, 0);
    assert_eq!(results.len(), 12);
    for res in results {
        assert!(
            res.passed(),
            "{} with {} flowlinks: safety={:?} spec={:?}",
            res.path_type,
            res.links,
            res.safety,
            res.spec_result
        );
    }
}

#[test]
fn flowlink_inflates_the_state_space() {
    // §VIII-A's qualitative claim: adding a flowlink costs orders of
    // magnitude. At our budgets the factor is tens, consistently.
    let (l, r) = PathType::OpenHold.ends();
    let (res0, _) = check_path(&budgeted(0, l, r, 0), 2_000_000);
    let (res1, _) = check_path(&budgeted(1, l, r, 0), 2_000_000);
    assert!(
        res1.states > 10 * res0.states,
        "{} vs {}",
        res1.states,
        res0.states
    );
}
