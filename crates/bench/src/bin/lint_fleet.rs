//! `ipmedia-lint-fleet`: fleet-scale incremental re-lint check.
//!
//! Usage: `cargo run --release -p ipmedia-bench --bin ipmedia-lint-fleet
//! [--fleet N] [--threads T] [--out FILE]`
//!
//! Generates a deterministic fleet of `N` scenarios (default 10 000) from
//! the differential fuzzer's generator, then counts the pass executions
//! of four lint runs over the content-addressed cache from
//! `analyze::incremental`:
//!
//! 1. **cold** — empty cache; every scenario and program pass runs.
//! 2. **warm** — nothing changed; every scenario must fully replay from
//!    cache (zero pass executions).
//! 3. **one-edit, full fleet** — one program of one scenario is
//!    perturbed and the whole fleet re-linted; exactly that scenario's
//!    three cross-box passes and the one changed program's four pass
//!    families may re-run — O(changed), independent of fleet size.
//! 4. **one-edit, dirty re-lint** — only the changed scenario is linted
//!    against the warm cache (the file-watcher loop): the same seven
//!    pass runs at most.
//!
//! Hard assertions (exit nonzero on violation): zero warm misses, an
//! O(changed) one-edit profile on both re-lints, and byte-identical
//! diagnostic output at 1, 2, and 8 worker threads. Results land as JSONL
//! in `BENCH_lint.json`: pass-run counts only, nothing read from a clock
//! or from the host, so `scripts/check.sh` compares the file with the
//! committed copy.

use ipmedia_analyze::fuzz::{generate_scenario, scenario_seed, FuzzConfig};
use ipmedia_analyze::{run_incremental, to_ipm, AnalysisCache, Baseline, IncrementalStats};
use ipmedia_core::program::model::ScenarioModel;
use ipmedia_obs::JsonObj;
use std::process::ExitCode;

const USAGE: &str =
    "usage: ipmedia-lint-fleet [--fleet N] [--threads T] [--out FILE] [--emit-sample DIR]";

fn phase_record(phase: &str, n: usize, stats: &IncrementalStats) -> String {
    JsonObj::new()
        .str("record", "lint_fleet")
        .str("phase", phase)
        .num("scenarios", n as u64)
        .num("full_hits", stats.full_hits as u64)
        .num("scenario_misses", stats.scenario_misses as u64)
        .num("scenario_pass_runs", stats.scenario_pass_runs as u64)
        .num("program_runs", stats.program_runs as u64)
        .num("program_pass_runs", stats.program_pass_runs as u64)
        .finish()
}

fn main() -> ExitCode {
    let mut flags = ipmedia_core::cli::Flags::from_env(USAGE);
    let fleet: usize = flags.value("--fleet").unwrap_or(10_000);
    let threads: usize = flags.value("--threads").unwrap_or(0);
    let out: String = flags
        .value("--out")
        .unwrap_or_else(|| "BENCH_lint.json".to_string());
    let emit_sample: Option<String> = flags.value("--emit-sample");
    flags.done();

    let seed = FuzzConfig::default().seed;
    let mut scenarios: Vec<ScenarioModel> = (0..fleet as u64)
        .map(|i| generate_scenario(scenario_seed(seed, i)))
        .collect();

    // `--emit-sample DIR`: write the fleet prefix as committed `.ipm`
    // fixtures (plus `DIR/edited/` holding a one-program-edit variant of
    // the first editable scenario, same filename) for the check.sh
    // incremental gate, then exit.
    if let Some(dir) = emit_sample {
        let dir = std::path::PathBuf::from(dir);
        let edited_dir = dir.join("edited");
        if let Err(e) = std::fs::create_dir_all(&edited_dir) {
            eprintln!("lint-fleet: mkdir {edited_dir:?}: {e}");
            return ExitCode::FAILURE;
        }
        for (i, sc) in scenarios.iter().enumerate() {
            let path = dir.join(format!("fleet_{i:03}.ipm"));
            if let Err(e) = std::fs::write(&path, to_ipm(sc)) {
                eprintln!("lint-fleet: write {path:?}: {e}");
                return ExitCode::FAILURE;
            }
        }
        let idx = (0..fleet)
            .find(|&i| {
                scenarios[i]
                    .programs
                    .iter()
                    .any(|(_, m)| m.clone().drop_first_effect())
            })
            .expect("sample contains an editable scenario");
        let mut edited = scenarios[idx].clone();
        assert!(edited
            .programs
            .iter_mut()
            .any(|(_, m)| m.drop_first_effect()));
        let path = edited_dir.join(format!("fleet_{idx:03}.ipm"));
        if let Err(e) = std::fs::write(&path, to_ipm(&edited)) {
            eprintln!("lint-fleet: write {path:?}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("lint-fleet: sample of {fleet} written to {dir:?} (edit: fleet_{idx:03}.ipm)");
        return ExitCode::SUCCESS;
    }

    let baseline = Baseline::parse("");
    let mut cache = AnalysisCache::default();

    let (cold_report, cold_stats) = run_incremental(&scenarios, threads, &baseline, &mut cache);
    let reference = cold_report.render();

    let (warm_report, warm_stats) = run_incremental(&scenarios, threads, &baseline, &mut cache);

    // One edit: perturb a single program mid-fleet. Two re-lints follow:
    // the full fleet (pins the O(changed) pass profile and the
    // byte-identity oracle) and the dirty scenario alone (the
    // file-watcher loop: lint only the changed input against the warm
    // cache).
    let victim_idx = (fleet / 2..fleet)
        .find(|&i| {
            scenarios[i]
                .programs
                .iter()
                .any(|(_, m)| m.clone().drop_first_effect())
        })
        .expect("fleet contains an editable scenario");
    let victim_name = scenarios[victim_idx].name.clone();
    assert!(scenarios[victim_idx]
        .programs
        .iter_mut()
        .any(|(_, m)| m.drop_first_effect()));

    let mut cache_full = cache.clone();
    let (edit_report, edit_stats) =
        run_incremental(&scenarios, threads, &baseline, &mut cache_full);

    let dirty = vec![scenarios[victim_idx].clone()];
    let (_, relint_stats) = run_incremental(&dirty, 1, &baseline, &mut cache);

    // Byte-identity oracle across worker counts, on the edited fleet.
    let edited_reference = edit_report.render();
    let mut byte_identical = true;
    for t in [1usize, 2, 8] {
        let (r, s) = run_incremental(&scenarios, t, &baseline, &mut cache_full);
        if r.render() != edited_reference || s.full_hits != fleet {
            eprintln!("lint-fleet: output diverged at {t} thread(s)");
            byte_identical = false;
        }
    }

    let o_changed = edit_stats.scenario_misses == 1
        && edit_stats.scenario_pass_runs == 3
        && edit_stats.program_runs <= 1
        && edit_stats.program_pass_runs <= 4
        && edit_stats.missed == vec![victim_name.clone()]
        && relint_stats.scenario_misses == 1
        && relint_stats.scenario_pass_runs == 3
        && relint_stats.program_pass_runs <= 4;
    let ok = warm_stats.full_hits == fleet
        && warm_report.render() == reference
        && warm_stats.scenario_pass_runs == 0
        && warm_stats.program_pass_runs == 0
        && o_changed
        && byte_identical;

    let mut lines = vec![
        phase_record("cold", fleet, &cold_stats),
        phase_record("warm", fleet, &warm_stats),
        phase_record("one_edit_fleet", fleet, &edit_stats),
        phase_record("one_edit_relint", 1, &relint_stats),
        JsonObj::new()
            .str("record", "lint_fleet_verdict")
            .str("edited_scenario", &victim_name)
            .bool("o_changed", o_changed)
            .bool("byte_identical_threads_1_2_8", byte_identical)
            .bool("ok", ok)
            .finish(),
    ];
    lines.push(String::new());
    let body = lines.join("\n");
    print!("{body}");
    if let Err(e) = std::fs::write(&out, &body) {
        eprintln!("lint-fleet: write {out}: {e}");
        return ExitCode::FAILURE;
    }

    let pass_runs = |s: &IncrementalStats| s.scenario_pass_runs + s.program_pass_runs;
    eprintln!(
        "lint-fleet: {fleet} scenarios, cold {} pass runs, warm {}, one-edit fleet {}, \
         dirty re-lint {}, {}",
        pass_runs(&cold_stats),
        pass_runs(&warm_stats),
        pass_runs(&edit_stats),
        pass_runs(&relint_stats),
        if ok { "ok" } else { "FAIL" }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
