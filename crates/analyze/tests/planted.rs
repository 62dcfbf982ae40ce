//! Regression tests over the planted-bug fixtures in `examples/models/`:
//! each fixture contains exactly one seeded defect class, and the
//! analyzer must (a) find it and (b) find nothing in the real example
//! registry. Together these pin down that every pass provably catches
//! its target bug class.

use ipmedia_analyze::fuzz::{
    class_keys, fuzz_campaign, generate_scenario, promote_divergences, shrink_scenario,
    ClassChecker, ClassKey, ClassVerdict, DivergenceKind, FuzzConfig, Origin,
};
use ipmedia_analyze::{analyze_scenario, parse_scenario, to_ipm, Diagnostic, Severity};
use ipmedia_core::program::model::ScenarioModel;
use std::path::PathBuf;

fn lint_fixture(name: &str) -> Vec<Diagnostic> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/models")
        .join(name);
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let sc = parse_scenario(&src).expect("fixture parses");
    analyze_scenario(&sc)
}

fn has_code(diags: &[Diagnostic], code: &str) -> bool {
    diags.iter().any(|d| d.code == code)
}

/// Pass 1 (conformance): the static form of the PR-2 "action on a Closed
/// slot" class — `select` where the send table permits it in no possible
/// state.
#[test]
fn planted_closed_slot_caught_by_conformance() {
    let diags = lint_fixture("planted_closed_slot.ipm");
    assert!(has_code(&diags, "AZ101"), "{diags:?}");
    let d = diags.iter().find(|d| d.code == "AZ101").unwrap();
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("`select`"), "{}", d.message);
    assert!(
        d.note.as_deref().unwrap_or("").contains("closed"),
        "note should name the offending state: {d:?}"
    );
}

/// Pass 2 (conflict): holdSlot vs flowLink on one slot.
#[test]
fn planted_goal_conflict_caught() {
    let diags = lint_fixture("planted_goal_conflict.ipm");
    assert!(has_code(&diags, "AZ201"), "{diags:?}");
}

/// Pass 3 (leak/termination): a live, unclaimed slot at a final state,
/// plus an unreachable state in the same fixture.
#[test]
fn planted_slot_leak_caught() {
    let diags = lint_fixture("planted_slot_leak.ipm");
    assert!(has_code(&diags, "AZ303"), "{diags:?}");
    assert!(has_code(&diags, "AZ301"), "{diags:?}");
}

/// Pass 4 (well-formedness): a cycle in the signaling graph.
#[test]
fn planted_cycle_caught() {
    let diags = lint_fixture("planted_cycle.ipm");
    assert!(has_code(&diags, "AZ403"), "{diags:?}");
}

/// Pass 5 (interprocedural dataflow): the relay rests flow-linking into
/// a slot whose peer answers by closing its side and never wants flow —
/// the chain cannot converge end-to-end.
#[test]
fn planted_flowlink_break_caught() {
    let diags = lint_fixture("planted_flowlink_break.ipm");
    assert!(has_code(&diags, "AZ501"), "{diags:?}");
    let d = diags.iter().find(|d| d.code == "AZ501").unwrap();
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.program.as_deref(), Some("relay"), "{d:?}");
    assert!(d.message.contains("converge"), "{}", d.message);
}

/// Pass 6 (race): both endpoints can initiate the same bound channel, so
/// the Fig.-10 initiator-based open/open resolution has no agreed winner.
#[test]
fn planted_open_race_caught() {
    let diags = lint_fixture("planted_open_race.ipm");
    assert!(has_code(&diags, "AZ601"), "{diags:?}");
    let d = diags.iter().find(|d| d.code == "AZ601").unwrap();
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("initiate"), "{}", d.message);
}

/// Fuzzer-minimized fixtures: each was found by the differential fuzz
/// campaign and delta-minimized to a two-box reproducer. The test
/// re-derives the reproducer end-to-end from its recorded scenario seed
/// — generate → shrink with the "code still present" predicate —
/// and requires it to equal the committed fixture exactly, pinning the
/// generator, the shrinker, the `.ipm` emitter/parser round trip, *and*
/// the finding itself in one assertion each.
#[test]
fn fuzz_minimized_fixtures_rederive_from_their_seeds() {
    for (name, seed, code) in [
        ("fuzz_min_az503.ipm", 0x54e0_c7f8_0812_3a58_u64, "AZ503"),
        ("fuzz_min_az601.ipm", 0xd8da_01ba_634d_3532_u64, "AZ601"),
    ] {
        let generated = generate_scenario(seed);
        let mut pred = |c: &ScenarioModel| analyze_scenario(c).iter().any(|d| d.code == code);
        let rederived = shrink_scenario(&generated, &mut pred);
        assert!(
            rederived.topology.boxes.len() < generated.topology.boxes.len(),
            "{name}: shrinker no longer reduces the original scenario"
        );
        let diags = lint_fixture(name);
        assert!(has_code(&diags, code), "{name}: {diags:?}");
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/models")
            .join(name);
        let committed = parse_scenario(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            committed, rederived,
            "{name}: committed fixture drifted from the seed-re-derived reproducer"
        );
        assert_eq!(to_ipm(&committed), to_ipm(&rederived));
    }
}

/// A checker that refutes every class, forcing the soundness oracle to
/// diverge on every analyzer-clean scenario. Stands in for a real past
/// checker divergence so the `--promote` pipeline has deterministic
/// material to promote (live campaigns are divergence-free by CI gate).
struct RefuteAll;

impl ClassChecker for RefuteAll {
    fn check(&mut self, _key: ClassKey) -> ClassVerdict {
        ClassVerdict {
            counterexample: true,
            truncated: false,
            expanded: 1,
        }
    }
}

/// The committed promoted fixtures in `examples/models/` must re-derive
/// byte-for-byte from the fuzz `--promote` pipeline: run a small seeded
/// campaign against the refute-everything checker, delta-minimize, and
/// promote the first two soundness divergences of generated scenarios
/// (the registry's, which come first, are left out). Pins the generator,
/// the shrinker, the triage-note format, and the promoted scenarios
/// themselves. Regenerate with `PROMOTE_REGEN=1 cargo test -p
/// ipmedia-analyze --test planted promoted`.
#[test]
fn promoted_divergence_fixtures_rederive_from_the_campaign() {
    let registry = ipmedia_apps::models::all_scenarios().len();
    let cfg = FuzzConfig {
        scenarios: 24,
        threads: 1,
        shrink_cap: registry + 2,
        ..FuzzConfig::default()
    };
    let mut report = fuzz_campaign(&cfg, &mut RefuteAll);
    assert!(
        report.divergences.len() >= registry + 2,
        "refute-all campaign must diverge on every clean scenario: {}",
        report.divergences.len()
    );
    assert!(report
        .divergences
        .iter()
        .all(|d| d.kind == DivergenceKind::Soundness));
    let generated = report.divergences.split_off(registry);
    assert!(report
        .divergences
        .iter()
        .all(|d| matches!(d.origin, Origin::Registry(_))));
    report.divergences = generated;
    report.divergences.truncate(2);

    let models = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/models");
    let out = if std::env::var_os("PROMOTE_REGEN").is_some() {
        models.clone()
    } else {
        std::env::temp_dir().join(format!("ipm-promote-{}", std::process::id()))
    };
    let paths = promote_divergences(&report, &out).expect("promote writes");
    assert_eq!(paths.len(), 2);

    for path in &paths {
        let name = path.file_name().unwrap().to_str().unwrap();
        let derived = std::fs::read_to_string(path).unwrap();
        let committed_path = models.join(name);
        let committed = std::fs::read_to_string(&committed_path)
            .unwrap_or_else(|e| panic!("{committed_path:?}: {e} (run with PROMOTE_REGEN=1)"));
        assert_eq!(
            committed, derived,
            "{name}: committed fixture drifted from the campaign-re-derived reproducer"
        );
        // Triage note: kind, seeds, minimization delta — as `#` comments
        // the parser ignores.
        assert!(derived.starts_with("# fuzz-promoted divergence reproducer (soundness)"));
        assert!(derived.contains("# campaign seed"), "{derived}");
        assert!(derived.contains("# weight"), "{derived}");
        // Soundness reproducers are analyzer-clean and cover at least
        // one path class (the divergence precondition).
        let sc = parse_scenario(&derived).expect("promoted fixture parses");
        let errors: Vec<Diagnostic> = analyze_scenario(&sc)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{name}: {errors:?}");
        assert!(
            !class_keys(&sc).is_empty(),
            "{name} must cover a path class"
        );
    }
    if out != models {
        let _ = std::fs::remove_dir_all(&out);
    }
}

/// The real example registry is clean — the gate `scripts/check.sh` runs
/// (`ipmedia-lint --all-examples --deny warnings`) must stay green.
#[test]
fn example_registry_is_clean() {
    for sc in ipmedia_apps::models::all_scenarios() {
        let diags = analyze_scenario(&sc);
        assert!(diags.is_empty(), "{}: {diags:#?}", sc.name);
    }
}

/// Every planted fixture fails the lint the way the CLI would see it:
/// at least one error-severity diagnostic each.
#[test]
fn every_planted_fixture_has_an_error_or_warning() {
    for name in [
        "planted_closed_slot.ipm",
        "planted_goal_conflict.ipm",
        "planted_slot_leak.ipm",
        "planted_cycle.ipm",
        "planted_flowlink_break.ipm",
        "planted_open_race.ipm",
        "fuzz_min_az503.ipm",
        "fuzz_min_az601.ipm",
    ] {
        let diags = lint_fixture(name);
        assert!(!diags.is_empty(), "{name} should not lint clean");
    }
}
