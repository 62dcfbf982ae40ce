//! Property tests over the fuzz harness itself: the generated-scenario
//! invariants every campaign relies on, the `.ipm` round-trip law, the
//! shrinker's contract, and campaign determinism with the real
//! mck-backed oracle at a small budget.
//!
//! The CI-scale campaign (the registry and 2,000 generated scenarios,
//! full budget) runs as the `ipmedia-lint --fuzz 2000` step of
//! `scripts/check.sh`; these tests keep the harness honest at unit-test
//! cost.

use ipmedia_analyze::fuzz::{
    fuzz_campaign, generate_scenario, scenario_seed, shrink_scenario, FuzzConfig, MckChecker,
};
use ipmedia_analyze::{analyze_scenario, parse_scenario, to_ipm, Severity};
use ipmedia_core::program::model::ScenarioModel;

const SEEDS: u64 = 200;

fn seeds() -> impl Iterator<Item = u64> {
    (0..SEEDS).map(|i| scenario_seed(0x5EED, i))
}

/// Law: `parse_scenario(to_ipm(sc)) == sc` for every generated scenario.
/// This is the property that forced the parser to learn separate
/// program/box names and explicit `initial` lines.
#[test]
fn generated_scenarios_round_trip_through_ipm_text() {
    for s in seeds() {
        let sc = generate_scenario(s);
        let text = to_ipm(&sc);
        let back = parse_scenario(&text)
            .unwrap_or_else(|e| panic!("seed {s:#x}: emitted .ipm does not parse: {e}\n{text}"));
        assert_eq!(back, sc, "seed {s:#x}: round trip diverged\n{text}");
        // And the emitter is a fixpoint: emitting the parse re-yields
        // the same text.
        assert_eq!(to_ipm(&back), text, "seed {s:#x}");
    }
}

/// Generated scenarios are valid by construction: no structural or
/// determinism errors, no topology/well-formedness errors. (Semantic
/// findings — AZ2xx/3xx/5xx/6xx — are expected and welcome; they are
/// the population the differential oracle feeds on.)
#[test]
fn generated_scenarios_never_have_structural_findings() {
    for s in seeds() {
        let sc = generate_scenario(s);
        let structural: Vec<_> = analyze_scenario(&sc)
            .into_iter()
            .filter(|d| {
                d.code == "AZ001"
                    || d.code == "AZ002"
                    || (d.code.starts_with("AZ4") && d.severity == Severity::Error)
            })
            .collect();
        assert!(structural.is_empty(), "seed {s:#x}: {structural:?}");
    }
}

/// The generator exercises the analyzer: across a modest seed range the
/// population must contain both analyzer-clean scenarios and scenarios
/// with error-severity findings, and must cover multi-link classes
/// beyond the old 2-link cap.
#[test]
fn generated_population_is_mixed_and_deep() {
    let mut clean = 0usize;
    let mut dirty = 0usize;
    let mut deepest = 0usize;
    for s in seeds() {
        let sc = generate_scenario(s);
        let errors = analyze_scenario(&sc)
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        if errors == 0 {
            clean += 1;
        } else {
            dirty += 1;
        }
        for c in ipmedia_analyze::covered_classes(&sc) {
            deepest = deepest.max(c.links);
        }
    }
    assert!(clean > 10, "only {clean} clean scenarios in {SEEDS}");
    assert!(
        dirty > 10,
        "only {dirty} finding-bearing scenarios in {SEEDS}"
    );
    assert!(
        deepest >= 3,
        "no multi-link class deeper than {deepest} links"
    );
}

/// Shrinking is idempotent: a minimized reproducer does not shrink
/// further under the same predicate.
#[test]
fn shrinking_is_idempotent() {
    let mut shrunk_any = false;
    for s in seeds().take(40) {
        let sc = generate_scenario(s);
        let mut pred = |c: &ScenarioModel| {
            analyze_scenario(c)
                .iter()
                .any(|d| d.severity == Severity::Error)
        };
        if !pred(&sc) {
            continue;
        }
        let once = shrink_scenario(&sc, &mut pred);
        let twice = shrink_scenario(&once, &mut pred);
        assert_eq!(once, twice, "seed {s:#x}: shrink not a fixpoint");
        shrunk_any = true;
    }
    assert!(shrunk_any, "seed range produced nothing to shrink");
}

/// End-to-end determinism with the real checker: two campaigns at the
/// same seed but different thread counts produce identical reports —
/// same statistics, same per-class verdicts, same divergence list.
#[test]
fn campaign_with_real_checker_is_thread_count_invariant() {
    let run = |threads: usize| {
        let cfg = FuzzConfig {
            scenarios: 60,
            seed: 0xCAFE,
            threads,
            max_states: 12_000,
            shrink_cap: 2,
        };
        let mut checker = MckChecker::new(cfg.max_states);
        let r = fuzz_campaign(&cfg, &mut checker);
        (
            r.clean,
            r.with_errors,
            r.roundtrip_failures,
            r.code_counts.clone(),
            r.class_counts.clone(),
            r.checked.clone(),
            r.divergences.len(),
        )
    };
    let a = run(1);
    let b = run(3);
    assert_eq!(a, b);
    // At this budget the harness must also be divergence-free: truncated
    // classes are not counterexamples, and the paper protocol passes.
    assert_eq!(a.6, 0, "unexpected divergence at small budget");
}
