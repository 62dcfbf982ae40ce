//! `ipmedia-lint-fleet`: fleet-scale incremental re-lint benchmark.
//!
//! Usage: `cargo run --release -p ipmedia-bench --bin ipmedia-lint-fleet
//! [--fleet N] [--threads T] [--out FILE]`
//!
//! Generates a deterministic fleet of `N` scenarios (default 10 000) from
//! the differential fuzzer's generator, then measures three lint passes
//! with the content-addressed cache from `analyze::incremental`:
//!
//! 1. **cold** — empty cache; every scenario and program pass runs.
//! 2. **warm** — nothing changed; every scenario must fully replay from
//!    cache (zero pass executions).
//! 3. **one-edit, full fleet** — one program of one scenario is
//!    perturbed and the whole fleet re-linted; exactly that scenario's
//!    three cross-box passes and the one changed program's four pass
//!    families may re-run — O(changed), independent of fleet size.
//! 4. **one-edit, dirty re-lint** — only the changed scenario is linted
//!    against the warm cache: the file-watcher loop, and the wall-clock
//!    the ≥ 100× cold-vs-edit speedup target is measured on (a
//!    full-fleet pass must at minimum re-fingerprint every input, so its
//!    warm speedup is bounded by analysis-vs-hash cost, not cache hits).
//!
//! Hard assertions (exit nonzero on violation): zero warm misses, an
//! O(changed) one-edit profile on both re-lints, a ≥ 100× cold-over-edit
//! wall-clock speedup, and byte-identical diagnostic output at 1, 2, and
//! 8 worker threads. Results land as JSONL in `BENCH_lint.json` behind
//! the usual `bench_provenance` header.

use ipmedia_analyze::fuzz::{generate_scenario, scenario_seed, FuzzConfig};
use ipmedia_analyze::{run_incremental, to_ipm, AnalysisCache, Baseline, IncrementalStats};
use ipmedia_core::program::model::ScenarioModel;
use ipmedia_obs::JsonObj;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: ipmedia-lint-fleet [--fleet N] [--threads T] [--out FILE] [--emit-sample DIR]";

fn phase_record(phase: &str, n: usize, wall_ms: f64, stats: &IncrementalStats) -> String {
    JsonObj::new()
        .str("record", "lint_fleet")
        .str("phase", phase)
        .num("scenarios", n as u64)
        .float("wall_ms", wall_ms)
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
    let t0 = Instant::now();
    let mut scenarios: Vec<ScenarioModel> = (0..fleet as u64)
        .map(|i| generate_scenario(scenario_seed(seed, i)))
        .collect();
    eprintln!(
        "lint-fleet: generated {fleet} scenarios in {:.0} ms",
        t0.elapsed().as_secs_f64() * 1e3
    );

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

    let t0 = Instant::now();
    let (cold_report, cold_stats) = run_incremental(&scenarios, threads, &baseline, &mut cache);
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let reference = cold_report.render();

    let t0 = Instant::now();
    let (warm_report, warm_stats) = run_incremental(&scenarios, threads, &baseline, &mut cache);
    let warm_ms = t0.elapsed().as_secs_f64() * 1e3;

    // One edit: perturb a single program mid-fleet. Two measurements
    // follow: the full-fleet re-lint (pins the O(changed) pass profile
    // and the byte-identity oracle) and the dirty-scenario re-lint (the
    // file-watcher loop: lint only the changed input against the warm
    // cache — the wall-clock the ≥ 100× target is about, since a
    // full-fleet pass must at minimum re-fingerprint every input).
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
    let t0 = Instant::now();
    let (edit_report, edit_stats) =
        run_incremental(&scenarios, threads, &baseline, &mut cache_full);
    let edit_full_ms = t0.elapsed().as_secs_f64() * 1e3;

    let dirty = vec![scenarios[victim_idx].clone()];
    let t0 = Instant::now();
    let (_, relint_stats) = run_incremental(&dirty, 1, &baseline, &mut cache);
    let relint_ms = t0.elapsed().as_secs_f64() * 1e3;

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

    let speedup_warm = cold_ms / warm_ms.max(1e-6);
    let speedup_edit = cold_ms / relint_ms.max(1e-6);
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
        && speedup_edit >= 100.0
        && byte_identical;

    let mut lines = vec![
        ipmedia_bench::provenance_record(threads),
        phase_record("cold", fleet, cold_ms, &cold_stats),
        phase_record("warm", fleet, warm_ms, &warm_stats),
        phase_record("one_edit_fleet", fleet, edit_full_ms, &edit_stats),
        phase_record("one_edit_relint", 1, relint_ms, &relint_stats),
        JsonObj::new()
            .str("record", "lint_fleet_speedup")
            .str("edited_scenario", &victim_name)
            .float("cold_ms", cold_ms)
            .float("warm_ms", warm_ms)
            .float("edit_fleet_ms", edit_full_ms)
            .float("edit_relint_ms", relint_ms)
            .float("speedup_warm_fleet", speedup_warm)
            .float("speedup_edit_relint", speedup_edit)
            .num("min_speedup", 100)
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

    eprintln!(
        "lint-fleet: cold {cold_ms:.0} ms, warm fleet {warm_ms:.1} ms ({speedup_warm:.0}x), \
         one-edit fleet {edit_full_ms:.1} ms ({} pass runs), \
         dirty re-lint {relint_ms:.3} ms ({speedup_edit:.0}x), {}",
        edit_stats.scenario_pass_runs + edit_stats.program_pass_runs,
        if ok { "ok" } else { "FAIL" }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
