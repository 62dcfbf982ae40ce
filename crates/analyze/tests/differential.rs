//! Differential validation against the model checker (the soundness
//! direction of the analyzer's contract): if the static passes report a
//! scenario **clean**, then `mck`'s exploration must find no
//! counterexample in any dynamic path class that scenario covers.
//!
//! The bridge is [`covered_classes`]: every simple signaling path of a
//! scenario whose interior boxes rest flow-linking end to end, reduced
//! to the `(links, left-goal, right-goal)` configuration the checker
//! explores. A covered class with `n` links maps to a `CheckConfig`
//! with `n - 1` flowlink boxes.
//!
//! The converse (analyzer finding ⇒ checker counterexample) does *not*
//! hold and is not asserted: the analyzer's abstraction is a sound
//! over-approximation, so it may flag behaviors outside the dynamic
//! classes `mck` explores.
//!
//! Truncated checker runs are accepted but must themselves be violation
//! free — "no counterexample found in the explored prefix" is the
//! honest form of the claim under a state cap (`scripts/check.sh` runs
//! the full-budget form as the registry prefix of `ipmedia-lint --fuzz
//! 2000`).

use ipmedia_analyze::fuzz::{fuzz_campaign, FuzzConfig, MckChecker};
use ipmedia_analyze::{analyze_scenario, covered_classes};

/// Base budget: exhausts the 0/1-flowlink classes; deeper classes get
/// the `depth_capped_states` fraction so the widened coverage (up to 3
/// flowlink boxes) stays test-suite fast.
const MAX_STATES: usize = 60_000;

#[test]
fn analyzer_clean_scenarios_have_no_checker_counterexample() {
    // No generated scenarios: the campaign's registry prefix alone, each
    // covered class checked once however many scenarios cover it.
    let cfg = FuzzConfig {
        scenarios: 0,
        max_states: MAX_STATES,
        ..FuzzConfig::default()
    };
    let report = fuzz_campaign(&cfg, &mut MckChecker::new(MAX_STATES));
    assert!(
        report.registry.iter().any(|r| r.error_codes.is_empty()),
        "registry should have analyzer-clean scenarios"
    );
    assert!(
        !report.checked.is_empty(),
        "clean scenarios should cover at least one dynamic class"
    );
    assert!(report.is_clean_run(), "{:#?}", report.divergences);
}

#[test]
fn covered_classes_span_all_checker_depths() {
    // The registry must keep exercising the direct-path (0 flowlinks),
    // one-flowlink, and — since the multi-link widening — two-flowlink
    // configurations, or the differential claim silently loses coverage.
    let mut depths = std::collections::BTreeSet::new();
    for sc in ipmedia_apps::models::all_scenarios() {
        if analyze_scenario(&sc).is_empty() {
            for c in covered_classes(&sc) {
                depths.insert(c.links - 1);
            }
        }
    }
    assert!(depths.contains(&0), "no direct-path class covered");
    assert!(depths.contains(&1), "no one-flowlink class covered");
    assert!(depths.contains(&2), "no two-flowlink class covered");
}
