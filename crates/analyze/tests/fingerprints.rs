//! Property tests for the scenario fingerprints of the verified manifest
//! (DESIGN.md §12): every observable single-field mutation must move the
//! fingerprint, emit→parse round trips must not, and the canonicalized
//! orders the fingerprint ignores must be exactly the ones the analyzer
//! cannot observe.

use ipmedia_analyze::{analyze_scenario, parse_scenario, scenario_fingerprint, to_ipm};
use ipmedia_core::program::model::ScenarioModel;

fn registry() -> Vec<ScenarioModel> {
    ipmedia_apps::models::all_scenarios()
}

/// Apply `mutate` to every registry scenario it is applicable to (the
/// closure returns `false` where it cannot change anything) and require
/// the fingerprint to move on each one; require at least `min_hits`
/// applicable scenarios so a mutation that silently stops applying fails
/// the test instead of vacuously passing.
fn assert_mutation_moves_fingerprint(
    label: &str,
    min_hits: usize,
    mutate: impl Fn(&mut ScenarioModel) -> bool,
) {
    let mut hits = 0;
    for sc in registry() {
        let before = scenario_fingerprint(&sc);
        let mut mutant = sc.clone();
        if !mutate(&mut mutant) {
            continue;
        }
        hits += 1;
        assert_ne!(
            mutant, sc,
            "{label}: mutation reported a change on {}",
            sc.name
        );
        assert_ne!(
            scenario_fingerprint(&mutant),
            before,
            "{label}: fingerprint blind to the mutation on {}",
            sc.name
        );
    }
    assert!(
        hits >= min_hits,
        "{label}: applied to only {hits} registry scenario(s), expected >= {min_hits}"
    );
}

#[test]
fn removing_a_box_changes_the_fingerprint() {
    assert_mutation_moves_fingerprint("remove_box", 5, |sc| {
        let name = sc.topology.boxes.first().cloned();
        name.is_some_and(|n| sc.remove_box(&n))
    });
}

#[test]
fn removing_a_program_changes_the_fingerprint() {
    assert_mutation_moves_fingerprint("remove_program", 5, |sc| {
        let name = sc.programs.first().map(|(b, _)| b.clone());
        name.is_some_and(|n| sc.remove_program(&n))
    });
}

#[test]
fn removing_a_state_changes_the_fingerprint() {
    assert_mutation_moves_fingerprint("remove_state", 5, |sc| {
        let Some((_, m)) = sc.programs.first_mut() else {
            return false;
        };
        let initial = m.initial.clone();
        let victim = m
            .states
            .iter()
            .map(|s| s.name.clone())
            .find(|n| *n != initial);
        victim.is_some_and(|n| m.remove_state(&n))
    });
}

#[test]
fn renaming_a_state_changes_the_fingerprint() {
    assert_mutation_moves_fingerprint("rename_state", 5, |sc| {
        let Some((_, m)) = sc.programs.first_mut() else {
            return false;
        };
        let old = m.initial.clone();
        m.rename_state(&old, "zz_fp_probe")
    });
}

#[test]
fn renaming_a_box_changes_the_fingerprint() {
    assert_mutation_moves_fingerprint("rename_box", 5, |sc| {
        let old = sc.topology.boxes.first().cloned();
        old.is_some_and(|o| sc.rename_box(&o, "zz_fp_probe"))
    });
}

#[test]
fn dropping_an_effect_changes_the_fingerprint() {
    assert_mutation_moves_fingerprint("drop_first_effect", 5, |sc| {
        sc.programs.iter_mut().any(|(_, m)| m.drop_first_effect())
    });
}

/// The scenario *name* is part of the content address: two scenarios with
/// identical bodies but different names are different manifest entries
/// (diagnostics are scenario-tagged).
#[test]
fn renaming_the_scenario_changes_the_fingerprint() {
    assert_mutation_moves_fingerprint("rename_scenario", 5, |sc| {
        sc.name = format!("{}_probe", sc.name);
        true
    });
}

/// Emit → parse must be the identity for fingerprints: a scenario read
/// back from its own `.ipm` text hashes to the same address, so a manifest
/// written from files and a monitor running in-memory models agree.
#[test]
fn reparse_is_fingerprint_stable() {
    for sc in registry() {
        let reparsed = parse_scenario(&to_ipm(&sc)).expect("registry emits parseable .ipm");
        assert_eq!(
            scenario_fingerprint(&reparsed),
            scenario_fingerprint(&sc),
            "{}: fingerprint drifted across emit/parse",
            sc.name
        );
    }
}

/// The canonicalization-soundness pin: the only declaration orders the
/// fingerprint ignores (topology box order, program attachment order) are
/// orders the analyzer provably cannot see — scrambling them preserves
/// both the fingerprint *and* the exact diagnostic output.
#[test]
fn declaration_order_scramble_preserves_fingerprint_and_diagnostics() {
    let mut scrambled_any = false;
    for sc in registry() {
        let mut scrambled = sc.clone();
        scrambled.topology.boxes.reverse();
        scrambled.programs.reverse();
        if scrambled != sc {
            scrambled_any = true;
        }
        assert_eq!(
            scenario_fingerprint(&scrambled),
            scenario_fingerprint(&sc),
            "{}: fingerprint sensitive to analysis-invisible order",
            sc.name
        );
        assert_eq!(
            analyze_scenario(&scrambled),
            analyze_scenario(&sc),
            "{}: analyzer output sensitive to declaration order — canonicalization is unsound",
            sc.name
        );
    }
    assert!(scrambled_any, "scramble must actually reorder something");
}

/// Link order is analysis-significant, so the fingerprint must NOT ignore
/// it — the converse guard that canonicalization does not over-normalize.
#[test]
fn link_order_is_fingerprint_significant() {
    let mut hit = false;
    for sc in registry() {
        if sc.topology.links.len() < 2 {
            continue;
        }
        let mut reordered = sc.clone();
        reordered.topology.links.reverse();
        if reordered == sc {
            continue;
        }
        hit = true;
        assert_ne!(
            scenario_fingerprint(&reordered),
            scenario_fingerprint(&sc),
            "{}: link order must stay content-addressed",
            sc.name
        );
    }
    assert!(hit, "no registry scenario had >= 2 distinct links");
}
