//! Differential validation matrix for `scripts/check.sh`: the static
//! analyzer's clean verdicts cross-checked against the model checker.
//!
//! For every analyzer-clean registry scenario, the covered dynamic path
//! classes (`ipmedia_analyze::covered_classes`) are reduced to unique
//! checker configurations and explored under per-depth state budgets
//! (`ipmedia_mck::depth_capped_states`: multi-flowlink classes get a
//! truncated prefix, surfaced as TRUNCATED); soundness requires that no
//! configuration yields a counterexample. Exits nonzero (and says which
//! class broke) if one does.
//!
//! Usage: `cargo run --release -p ipmedia-bench --bin differential
//! [--threads N] [--max-states M]`
//!
//! Output follows the workspace convention: one JSON record per scenario
//! and per checked configuration on stdout, the human-readable table on
//! stderr. The run also writes the full matrix to
//! `BENCH_differential.jsonl` in the working directory. The records carry
//! nothing read from a clock or from the host, so the file is
//! byte-identical across runs and `scripts/check.sh` compares it with the
//! committed copy.

use ipmedia_analyze::{analyze_scenario, covered_classes};
use ipmedia_core::path::EndGoal;
use ipmedia_mck::{budgeted, run_campaign_depth_capped, VerdictClass};
use ipmedia_obs::{json_str_array, JsonObj};
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str = "usage: differential [--threads N] [--max-states M]";

fn goal_name(g: EndGoal) -> &'static str {
    match g {
        EndGoal::Open => "open",
        EndGoal::Close => "close",
        EndGoal::Hold => "hold",
    }
}

fn main() -> ExitCode {
    let mut flags = ipmedia_core::cli::Flags::from_env(USAGE);
    let threads: usize = flags.value("--threads").unwrap_or(0);
    let max_states: usize = flags.value("--max-states").unwrap_or(2_000_000);
    flags.done();

    let mut records: Vec<String> = Vec::new();
    let mut emit = |line: String| {
        println!("{line}");
        records.push(line);
    };

    // Phase 1: analyze every registry scenario; clean ones contribute
    // their covered classes to the checker work list.
    let mut classes: BTreeMap<(usize, EndGoal, EndGoal), Vec<String>> = BTreeMap::new();
    let scenarios = ipmedia_apps::models::all_scenarios();
    let mut clean = 0usize;
    eprintln!("differential: {} registry scenario(s)", scenarios.len());
    for sc in &scenarios {
        let findings = analyze_scenario(sc);
        let covered = covered_classes(sc);
        if findings.is_empty() {
            clean += 1;
            for c in &covered {
                classes
                    .entry((c.links - 1, c.left, c.right))
                    .or_default()
                    .push(format!("{}:{}", sc.name, c.via.join("~")));
            }
        }
        eprintln!(
            "  {:<16} {} finding(s), {} covered class(es){}",
            sc.name,
            findings.len(),
            covered.len(),
            if findings.is_empty() {
                ""
            } else {
                " — excluded"
            }
        );
        emit(
            JsonObj::new()
                .str("record", "differential_scenario")
                .str("scenario", &sc.name)
                .num("findings", findings.len() as u64)
                .bool("clean", findings.is_empty())
                .num("covered_classes", covered.len() as u64)
                .finish(),
        );
    }

    // Phase 2: one checker run per unique configuration, fanned out over
    // the campaign worker pool (deterministic at any thread count).
    let keys: Vec<(usize, EndGoal, EndGoal)> = classes.keys().copied().collect();
    let cfgs: Vec<_> = keys
        .iter()
        .map(|&(links, l, r)| budgeted(links, l, r, 0))
        .collect();
    eprintln!(
        "differential: {} unique configuration(s), cap {max_states} states",
        cfgs.len()
    );
    let results = run_campaign_depth_capped(&cfgs, max_states, threads);
    let mut counterexamples = 0usize;
    for (key, res) in keys.iter().zip(&results) {
        let (links, left, right) = *key;
        let class = res.verdict_class();
        if class.is_counterexample() {
            counterexamples += 1;
        }
        eprintln!(
            "  {:<5}–{:<5} +{links} flowlink(s): {:<9} ({} states)",
            goal_name(left),
            goal_name(right),
            class.name(),
            res.states
        );
        let witnesses: Vec<&str> = classes[key].iter().map(String::as_str).collect();
        emit(
            JsonObj::new()
                .str("record", "differential_check")
                .num("flowlinks", links as u64)
                .str("left", goal_name(left))
                .str("right", goal_name(right))
                .num("states", res.states as u64)
                .num("transitions", res.transitions as u64)
                .bool("truncated", res.truncated)
                .str("verdict_class", class.name())
                .bool("counterexample", class.is_counterexample())
                .raw("witnesses", &json_str_array(witnesses))
                .finish(),
        );
    }
    let sound = counterexamples == 0;
    emit(
        JsonObj::new()
            .str("record", "differential_summary")
            .num("scenarios", scenarios.len() as u64)
            .num("clean", clean as u64)
            .num("configurations", cfgs.len() as u64)
            .num("max_states", max_states as u64)
            .num("counterexamples", counterexamples as u64)
            .num(
                "truncated",
                results.iter().filter(|r| r.truncated).count() as u64,
            )
            .num(
                "pass",
                results
                    .iter()
                    .filter(|r| r.verdict_class() == VerdictClass::Pass)
                    .count() as u64,
            )
            .bool("sound", sound)
            .finish(),
    );

    let matrix = records.join("\n") + "\n";
    if let Err(e) = std::fs::write("BENCH_differential.jsonl", matrix) {
        eprintln!("differential: BENCH_differential.jsonl: {e}");
        return ExitCode::FAILURE;
    }
    if sound {
        eprintln!(
            "differential: SOUND — {clean}/{} clean scenario(s), {} configuration(s), \
             0 counterexample(s)",
            scenarios.len(),
            cfgs.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "differential: UNSOUND — {counterexamples} counterexample(s) in classes \
             the analyzer called clean"
        );
        ExitCode::FAILURE
    }
}
