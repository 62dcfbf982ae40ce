//! Deterministic parallel analysis runner: one scenario per worker,
//! results stitched back in input order so rendered and JSONL output are
//! byte-identical at any thread count (the same slot-per-item discipline
//! as `ipmedia_mck::run_campaign`).
//!
//! The `ipmedia-lint` CLI is a thin argument-parsing shell around this
//! module, so the determinism test exercises exactly the code path the
//! binary ships.

use crate::baseline::Baseline;
use crate::diag::{Diagnostic, Severity};
use crate::{analyze_scenario, sort_report};
use ipmedia_core::program::model::ScenarioModel;

/// Outcome of analyzing a scenario set.
pub struct RunReport {
    /// Findings not suppressed by the baseline, in stable report order.
    pub kept: Vec<Diagnostic>,
    /// Findings the baseline suppressed, in stable report order.
    pub suppressed: Vec<Diagnostic>,
    /// Per input scenario, input order: true iff it had no finding
    /// before the baseline was applied (the verified manifest's verdict).
    pub clean: Vec<bool>,
}

impl RunReport {
    /// Count of kept findings at or above the deny threshold:
    /// errors always; warnings too iff `deny_warnings`.
    pub fn denied(&self, deny_warnings: bool) -> usize {
        self.kept
            .iter()
            .filter(|d| d.severity == Severity::Error || deny_warnings)
            .count()
    }

    /// Rendered rustc-style report, one blank line between findings.
    pub fn render(&self) -> String {
        self.kept
            .iter()
            .map(Diagnostic::render)
            .collect::<Vec<_>>()
            .join("\n\n")
    }

    /// One JSONL line per kept finding.
    pub fn to_jsonl(&self) -> String {
        self.kept
            .iter()
            .map(Diagnostic::to_json)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Analyze every scenario, spreading scenarios over `threads` workers
/// (`0` = all cores), then merge, re-sort, and apply the baseline. The
/// result is identical at any thread count: the pool returns per-scenario
/// results in input order and the merge walks them in that order.
pub fn run(scenarios: &[ScenarioModel], threads: usize, baseline: &Baseline) -> RunReport {
    let per_scenario = ipmedia_core::par::slot_map(threads, scenarios.len(), |i| {
        analyze_scenario(&scenarios[i])
    });
    let clean = per_scenario.iter().map(Vec::is_empty).collect();
    let mut all: Vec<Diagnostic> = per_scenario.into_iter().flatten().collect();
    sort_report(&mut all);
    let (kept, suppressed) = baseline.apply(all);
    RunReport {
        kept,
        suppressed,
        clean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipmedia_core::path::Topology;
    use ipmedia_core::program::model::{ProgramModel, StateModel};

    fn noisy_scenario(name: &str) -> ScenarioModel {
        // An isolated box (AZ404 warning) plus an unreachable state
        // (AZ301 warning): deterministic, multi-finding input.
        ScenarioModel::new(name)
            .program(
                "a",
                ProgramModel::new("a")
                    .state(StateModel::new("init").final_state())
                    .state(StateModel::new("orphan").final_state()),
            )
            .with_topology(Topology::new().with_box("a"))
    }

    #[test]
    fn output_is_identical_across_thread_counts() {
        let scenarios: Vec<ScenarioModel> =
            (0..6).map(|i| noisy_scenario(&format!("s{i}"))).collect();
        let base = Baseline::default();
        let one = run(&scenarios, 1, &base);
        for threads in [2, 4, 8] {
            let n = run(&scenarios, threads, &base);
            assert_eq!(one.render(), n.render(), "threads={threads}");
            assert_eq!(one.to_jsonl(), n.to_jsonl(), "threads={threads}");
        }
    }

    #[test]
    fn baseline_moves_findings_to_suppressed() {
        let scenarios = vec![noisy_scenario("s")];
        let all = run(&scenarios, 1, &Baseline::default());
        assert!(!all.kept.is_empty());
        let base = Baseline::parse(&Baseline::render(&all.kept));
        let none = run(&scenarios, 1, &base);
        assert!(none.kept.is_empty(), "{:?}", none.kept);
        assert_eq!(none.suppressed.len(), all.kept.len());
        assert_eq!(none.denied(true), 0);
        // The per-scenario verdict is taken before the baseline.
        assert_eq!(none.clean, vec![false]);
    }

    #[test]
    fn denied_counts_respect_severity_threshold() {
        let scenarios = vec![noisy_scenario("s")];
        let report = run(&scenarios, 1, &Baseline::default());
        // Only warnings in this input.
        assert_eq!(report.denied(false), 0);
        assert!(report.denied(true) > 0);
    }
}
