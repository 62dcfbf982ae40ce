//! Property-based differential fuzzing driver for `scripts/check.sh`:
//! thousands of seeded, valid-by-construction scenarios
//! (`ipmedia_analyze::fuzz`) run through the static analyzer and the
//! model checker, with both oracle directions enforced (analyzer-clean ⇒
//! no checker counterexample; checker counterexample ⇒ an `AZ5xx`/`AZ6xx`
//! finding). Any divergence is delta-minimized and printed as an `.ipm`
//! reproducer on stderr, and the process exits nonzero.
//!
//! Usage: `cargo run --release -p ipmedia-bench --bin fuzz_differential
//! [--scenarios N] [--seed S] [--threads N] [--max-states M]`
//!
//! Output follows the workspace convention: one JSON record per
//! aggregate row on stdout, the human-readable account on stderr. The
//! run also writes `BENCH_fuzz.json` in the working directory; the
//! records carry nothing read from a clock or from the host, so the file
//! is byte-identical across runs at the same seed and any thread count.

use ipmedia_analyze::fuzz::{class_label, fuzz_campaign, FuzzConfig, MckChecker};
use ipmedia_analyze::to_ipm;
use ipmedia_obs::JsonObj;
use std::process::ExitCode;

const USAGE: &str =
    "usage: fuzz_differential [--scenarios N] [--seed S] [--threads N] [--max-states M]";

fn main() -> ExitCode {
    let mut flags = ipmedia_core::cli::Flags::from_env(USAGE);
    let defaults = FuzzConfig::default();
    let cfg = FuzzConfig {
        scenarios: flags.value("--scenarios").unwrap_or(defaults.scenarios),
        seed: flags.value("--seed").unwrap_or(defaults.seed),
        threads: flags.value("--threads").unwrap_or(defaults.threads),
        max_states: flags.value("--max-states").unwrap_or(defaults.max_states),
        ..defaults
    };
    flags.done();

    eprintln!(
        "fuzz_differential: {} scenario(s), seed {:#x}, base cap {} states",
        cfg.scenarios, cfg.seed, cfg.max_states
    );
    let mut checker = MckChecker::new(cfg.max_states);
    let report = fuzz_campaign(&cfg, &mut checker);

    let mut records: Vec<String> = Vec::new();
    let mut emit = |line: String| {
        println!("{line}");
        records.push(line);
    };

    for (code, count) in &report.code_counts {
        emit(
            JsonObj::new()
                .str("record", "fuzz_code")
                .str("code", code)
                .num("scenarios", *count as u64)
                .finish(),
        );
    }
    for ((links, left, right), verdict) in &report.checked {
        let covering = report
            .class_counts
            .get(&(*links, *left, *right))
            .copied()
            .unwrap_or(0);
        eprintln!(
            "  {:<22} {} scenario(s): {}{}",
            class_label((*links, *left, *right)),
            covering,
            if verdict.counterexample {
                "COUNTEREXAMPLE"
            } else if verdict.truncated {
                "clean-truncated"
            } else {
                "pass"
            },
            format_args!(" ({} states)", verdict.expanded),
        );
        emit(
            JsonObj::new()
                .str("record", "fuzz_check")
                .num("links", *links as u64)
                .str("class", &class_label((*links, *left, *right)))
                .num("covering_scenarios", covering as u64)
                .bool("counterexample", verdict.counterexample)
                .bool("truncated", verdict.truncated)
                .num("expanded", verdict.expanded as u64)
                .finish(),
        );
    }
    for d in &report.divergences {
        eprintln!(
            "fuzz_differential: DIVERGENCE ({}) seed {:#018x}: {}",
            d.kind.name(),
            d.seed,
            d.detail
        );
        let repro = d.minimized.as_ref().unwrap_or(&d.scenario);
        eprintln!("--- minimized reproducer ---\n{}", to_ipm(repro));
        emit(
            JsonObj::new()
                .str("record", "fuzz_divergence")
                .str("kind", d.kind.name())
                .str("seed", &format!("{:#018x}", d.seed))
                .str("detail", &d.detail)
                .finish(),
        );
    }
    emit(
        JsonObj::new()
            .str("record", "fuzz_summary")
            .num("scenarios", report.scenarios as u64)
            .num("clean", report.clean as u64)
            .num("clean_confirmed", report.clean_confirmed as u64)
            .num("clean_unknown", report.clean_unknown as u64)
            .num("with_findings", report.with_errors as u64)
            .num("roundtrip_failures", report.roundtrip_failures as u64)
            .num("classes", report.checked.len() as u64)
            .num("classes_exhaustive", report.classes_exhaustive() as u64)
            .num("classes_truncated", report.classes_truncated() as u64)
            .num(
                "counterexamples",
                report
                    .checked
                    .iter()
                    .filter(|(_, v)| v.counterexample)
                    .count() as u64,
            )
            .num("divergences", report.divergences.len() as u64)
            .bool("clean_run", report.is_clean_run())
            .finish(),
    );

    let matrix = records.join("\n") + "\n";
    if let Err(e) = std::fs::write("BENCH_fuzz.json", matrix) {
        eprintln!("fuzz_differential: BENCH_fuzz.json: {e}");
        return ExitCode::FAILURE;
    }
    if report.is_clean_run() {
        eprintln!(
            "fuzz_differential: CLEAN — {} scenario(s) ({} analyzer-clean: {} confirmed, \
             {} unknown), {} class(es) ({} exhaustive, {} truncated at the state cap), \
             0 divergence(s)",
            report.scenarios,
            report.clean,
            report.clean_confirmed,
            report.clean_unknown,
            report.checked.len(),
            report.classes_exhaustive(),
            report.classes_truncated()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "fuzz_differential: {} divergence(s) — reproduce with \
             `ipmedia-lint --fuzz {} --seed {}`",
            report.divergences.len(),
            report.scenarios,
            report.campaign_seed
        );
        ExitCode::FAILURE
    }
}
