//! # ipmedia-analyze
//!
//! Sans-IO static analyzer for the declarative box-program models of
//! [`ipmedia_core::program::model`]. Where `mck` model-checks the
//! *executable* goal objects and protocol engine, this crate exhaustively
//! checks the *declarative* §IV-A models that describe what programs are
//! supposed to do, catching whole failure classes before anything runs:
//!
//! 1. **Slot-protocol conformance** ([`conformance`], `AZ1xx`) — every
//!    raw protocol action a program performs is judged against the Fig.-9
//!    send table; statically impossible sequences (`select` before
//!    anything was described, any action on a `Closed` or unbound slot)
//!    are errors.
//! 2. **Goal-conflict detection** ([`conflict`], `AZ2xx`) — two live
//!    goals claiming one slot with incompatible intents.
//! 3. **Leak / termination lints** ([`leak`], `AZ3xx`) — unreachable
//!    states, wedged non-final states, and slots left possibly open and
//!    unclaimed at resting points.
//! 4. **Signaling-path well-formedness** ([`wellformed`], `AZ4xx`) —
//!    dangling channels, cycles breaking the tunnel model, isolated
//!    boxes, malformed channel bindings.
//! 5. **Interprocedural media-flow dataflow** ([`dataflow`], `AZ5xx`) —
//!    flowlink chains that cannot converge end-to-end, descriptor caches
//!    that go permanently stale, holds that wedge a downstream flowlink,
//!    over the [`interproc`] tunnel-product abstraction.
//! 6. **Signaling-race analysis** ([`race`], `AZ6xx`) — open/open races
//!    without the Fig.-10 initiator resolution, close/progress crossings
//!    that wedge a peer.
//!
//! The `ipmedia-lint` binary runs all passes over the built-in example
//! registry (`ipmedia_apps::models`) and over serialized `.ipm`
//! scenarios ([`parse`]), in parallel with deterministic output
//! ([`runner`]), and writes the verified manifest of scenario fingerprints ([`manifest`]) that
//! the runtime monitor checks live models against.
//! The [`fuzz`] module runs the analyzer↔checker differential oracle
//! over the registry and then thousands of seeded, generated scenarios
//! per run, with divergences delta-minimized to small `.ipm` reproducers
//! (`ipmedia-lint --fuzz N`).

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::pedantic)]
// Same pedantic allowlist as ipmedia-core: these fight the codebase's
// established idiom without catching bugs.
#![allow(
    clippy::module_name_repetitions,
    clippy::must_use_candidate,
    clippy::missing_errors_doc,
    clippy::missing_panics_doc,
    clippy::return_self_not_must_use,
    clippy::match_same_arms,
    clippy::similar_names,
    clippy::too_many_lines,
    clippy::items_after_statements,
    clippy::uninlined_format_args
)]

pub mod conflict;
pub mod conformance;
pub mod dataflow;
pub mod diag;
pub mod fuzz;
pub mod interproc;
pub mod leak;
pub mod manifest;
pub mod parse;
pub mod race;
pub mod runner;
pub mod wellformed;

pub use diag::{sort_report, Diagnostic, Severity};
pub use fuzz::{
    class_label, fuzz_campaign, generate_scenario, scenario_seed, shrink_scenario, ClassChecker,
    ClassKey, ClassVerdict, Divergence, DivergenceKind, FuzzConfig, FuzzReport, MckChecker, Origin,
    ScenarioRecord,
};
pub use interproc::{covered_classes, covered_classes_up_to, CoveredClass};
pub use manifest::{render_manifest, scenario_fingerprint, ScenarioVerdict, ANALYZER_VERSION};
pub use parse::{parse_scenario, to_ipm, ParseError};
pub use runner::{run, RunReport};

use ipmedia_core::program::model::{ProgramModel, ScenarioModel};

/// Run the three program-scoped passes over one model. Structural errors
/// from [`ProgramModel::validate`] are reported first (`AZ001`); the
/// deeper passes still run, but on a malformed model their findings may
/// be echoes of the structural problems.
pub fn analyze_program(model: &ProgramModel) -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = model
        .validate()
        .into_iter()
        .map(|msg| Diagnostic::error("AZ001", msg).in_program(&model.name))
        .collect();
    if !model.is_deterministic() {
        diags.push(
            Diagnostic::error(
                "AZ002",
                "a state has two transitions on the same trigger".to_string(),
            )
            .in_program(&model.name),
        );
    }
    let (conf, abs) = conformance::analyze(model);
    diags.extend(conf);
    diags.extend(conflict::analyze(model));
    diags.extend(leak::analyze(model, &abs));
    diags
}

/// Run all passes over a scenario: the topology checks, the
/// interprocedural cross-box passes, plus every attached program.
/// Diagnostics are tagged with the scenario name and sorted errors-first.
pub fn analyze_scenario(scenario: &ScenarioModel) -> Vec<Diagnostic> {
    let mut diags = wellformed::analyze(scenario);
    diags.extend(dataflow::analyze(scenario));
    diags.extend(race::analyze(scenario));
    for (box_name, model) in &scenario.programs {
        diags.extend(analyze_program(model).into_iter().map(|d| {
            let mut d = d;
            if d.program.is_none() {
                d.program = Some(box_name.clone());
            }
            d
        }));
    }
    for d in &mut diags {
        if d.scenario.is_none() {
            d.scenario = Some(scenario.name.clone());
        }
    }
    sort_report(&mut diags);
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipmedia_core::program::model::StateModel;

    #[test]
    fn structural_errors_surface_as_az001() {
        let m = ProgramModel::new("bad")
            .state(StateModel::new("init").final_state())
            .slot("s", Some("ghost"));
        let diags = analyze_program(&m);
        assert!(diags.iter().any(|d| d.code == "AZ001"), "{diags:?}");
    }

    #[test]
    fn scenario_diagnostics_are_tagged_and_sorted() {
        use ipmedia_core::path::Topology;
        let sc = ScenarioModel::new("s")
            .program(
                "a",
                ProgramModel::new("a")
                    .state(StateModel::new("init").final_state())
                    .state(StateModel::new("orphan").final_state()),
            )
            .with_topology(Topology::new().with_box("a"));
        let diags = analyze_scenario(&sc);
        assert!(diags.iter().all(|d| d.scenario.as_deref() == Some("s")));
        // isolated box (AZ404) + unreachable state (AZ301), both warnings
        assert!(diags.iter().any(|d| d.code == "AZ301"));
        assert!(diags.iter().any(|d| d.code == "AZ404"));
    }
}
