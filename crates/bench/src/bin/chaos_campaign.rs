//! Chaos campaign gate: seeded fault schedules × registry scenarios ×
//! schedule families, judged by the invariant monitor's recovery-time
//! objectives on both substrates.
//!
//! For every registry scenario (chain sized from its topology) and every
//! schedule family, `--seeds` generated schedules run on the simulator;
//! seed 0 of each cell runs twice and the outcomes must be identical
//! (the determinism the virtual-time substrate promises). A smaller
//! sweep (`--rt-seeds` per family) replays compressed schedules against
//! a live two-node TCP deployment through the shared
//! [`ChaosGate`](ipmedia_rt::ChaosGate).
//! Any post-heal invariant violation fails the campaign; the failing
//! seed is printed together with the delta-debugged minimal schedule.
//!
//! Usage: `cargo run --release -p ipmedia-bench --bin chaos_campaign
//!         [--seeds N] [--rt-seeds N] [--substrate netsim|rt|both]
//!         [--threads N]`
//!
//! Output follows the workspace convention: JSON records on stdout (and
//! committed to `BENCH_chaos.json`), the human-readable table on stderr.
//! The records hold only what the seeds decide — counts, verdicts and
//! virtual-time recovery latencies — so `scripts/check.sh` compares the
//! file with the committed copy. How many frames an rt run saw cut
//! depends on wall-clock scheduling and goes to stderr only.

use ipmedia_bench::chaos::{
    chain_topology, minimize_failing_netsim, rt_topology, run_netsim_chaos, run_rt_chaos, ChaosRun,
};
use ipmedia_core::chaos::{generate, ScheduleFamily};
use ipmedia_core::monitor::RecoveryObjectives;
use ipmedia_obs::{json_array, json_str_array, Histogram, JsonObj};

const USAGE: &str = "usage: chaos_campaign [--seeds N] [--rt-seeds N] \
[--substrate netsim|rt|both] [--threads N]";

/// Wall-clock compression for the rt sweep: generated schedules settle
/// within 20 virtual seconds, so ×20 keeps each run under a second of
/// gate-driving time.
const RT_COMPRESS: u64 = 20;

/// Mix a campaign cell into a generator seed: distinct scenarios draw
/// distinct schedules for the same ordinal seed, deterministically.
fn cell_seed(scenario: usize, seed: u64) -> u64 {
    (scenario as u64) << 32 | seed
}

struct Failure {
    scenario: String,
    family: &'static str,
    seed: u64,
    violations: Vec<String>,
    minimized: String,
}

#[allow(clippy::too_many_lines)]
fn main() {
    let mut flags = ipmedia_core::cli::Flags::from_env(USAGE);
    let seeds: u64 = flags.value("--seeds").unwrap_or(10);
    let rt_seeds: u64 = flags.value("--rt-seeds").unwrap_or(2);
    let substrate: String = flags
        .value("--substrate")
        .unwrap_or_else(|| "both".to_string());
    let threads = ipmedia_core::par::resolve(flags.value("--threads").unwrap_or(1));
    flags.done();
    let (run_netsim, run_rt) = match substrate.as_str() {
        "netsim" => (true, false),
        "rt" => (false, true),
        "both" => (true, true),
        other => ipmedia_core::cli::usage_error(USAGE, &format!("unknown substrate `{other}`")),
    };

    let rto = RecoveryObjectives::default();
    let scenarios: Vec<(String, usize)> = ipmedia_apps::models::EXAMPLE_NAMES
        .iter()
        .map(|name| {
            let sc = ipmedia_apps::models::scenario(name).expect("registered scenario");
            // Size the chain by the scenario topology: interior boxes
            // become servers (at least one, capped so big conferences
            // stay fast) — the same sizing the monitor gate uses.
            let k = sc.topology.boxes.len().saturating_sub(2).clamp(1, 4);
            ((*name).to_string(), k)
        })
        .collect();

    let mut records: Vec<String> = Vec::new();
    let mut failures: Vec<Failure> = Vec::new();

    // ---- netsim sweep -------------------------------------------------
    // (scenario, family, seed) tasks fan out over the worker pool, which
    // returns them in task order: aggregation is deterministic.
    let mut netsim_runs = 0usize;
    let mut replay_checks = 0usize;
    let mut replay_ok = true;
    if run_netsim {
        let tasks: Vec<(usize, usize, u64)> = (0..scenarios.len())
            .flat_map(|sc| {
                (0..ScheduleFamily::ALL.len())
                    .flat_map(move |fam| (0..seeds).map(move |s| (sc, fam, s)))
            })
            .collect();
        eprintln!(
            "chaos campaign: {} scenarios x {} families x {seeds} seeds on netsim, {} worker thread(s)",
            scenarios.len(),
            ScheduleFamily::ALL.len(),
            threads.min(tasks.len()).max(1),
        );
        let outcomes: Vec<Result<(ChaosRun, bool), String>> =
            ipmedia_core::par::slot_map(threads, tasks.len(), |i| {
                let (sc, fam, s) = tasks[i];
                let k = scenarios[sc].1;
                let schedule = generate(
                    ScheduleFamily::ALL[fam],
                    cell_seed(sc, s),
                    &chain_topology(k),
                );
                run_netsim_chaos(k, &schedule, &rto).map(|run| {
                    // Seed 0 of each cell doubles as the replay
                    // determinism probe: identical seeds must yield
                    // identical outcomes, field for field.
                    let replayed = s != 0
                        || run_netsim_chaos(k, &schedule, &rto).is_ok_and(|again| again == run);
                    (run, replayed)
                })
            });
        netsim_runs = outcomes.len();

        // Aggregate per family across scenarios and seeds; recovery
        // latencies land in the registry's recovery histogram buckets.
        eprintln!(
            "  {:>16} {:>6} {:>8} {:>10} {:>10} {:>10}  verdict",
            "family", "runs", "faults", "recoveries", "worst", "violations"
        );
        for (fam, family) in ScheduleFamily::ALL.into_iter().enumerate() {
            let hist = Histogram::new(&ipmedia_obs::metrics::RECOVERY_LATENCY_MS_BOUNDS);
            let (mut runs, mut faults, mut violations, mut worst_ms) = (0u64, 0u64, 0u64, 0u64);
            for (i, &(sc, f, s)) in tasks.iter().enumerate() {
                if f != fam {
                    continue;
                }
                match &outcomes[i] {
                    Ok((run, replayed)) => {
                        runs += 1;
                        faults += run.faults;
                        for &ms in &run.recoveries_ms {
                            hist.observe(ms);
                            worst_ms = worst_ms.max(ms);
                        }
                        if s == 0 {
                            replay_checks += 1;
                            if !replayed {
                                replay_ok = false;
                                eprintln!(
                                    "  REPLAY DIVERGED: scenario {} family {} seed {}",
                                    scenarios[sc].0,
                                    family.name(),
                                    cell_seed(sc, s)
                                );
                            }
                        }
                        if !run.violations.is_empty() {
                            violations += 1;
                            let (name, k) = &scenarios[sc];
                            let schedule = generate(family, cell_seed(sc, s), &chain_topology(*k));
                            let minimized = minimize_failing_netsim(*k, &schedule, &rto);
                            failures.push(Failure {
                                scenario: name.clone(),
                                family: family.name(),
                                seed: cell_seed(sc, s),
                                violations: run.violations.clone(),
                                minimized: minimized.describe(),
                            });
                        }
                    }
                    Err(e) => {
                        violations += 1;
                        failures.push(Failure {
                            scenario: scenarios[sc].0.clone(),
                            family: family.name(),
                            seed: cell_seed(sc, s),
                            violations: vec![format!("schedule failed to apply: {e}")],
                            minimized: String::new(),
                        });
                    }
                }
            }
            let snap = hist.snapshot();
            records.push(
                JsonObj::new()
                    .str("record", "chaos_family")
                    .str("family", family.name())
                    .num("runs", runs)
                    .num("faults", faults)
                    .num("recoveries", snap.total())
                    .num("recovery_ms_sum", snap.sum)
                    .raw(
                        "recovery_ms_bounds",
                        &json_array(snap.bounds.iter().map(ToString::to_string)),
                    )
                    .raw(
                        "recovery_ms_counts",
                        &json_array(snap.counts.iter().map(ToString::to_string)),
                    )
                    .num("violations", violations)
                    .finish(),
            );
            eprintln!(
                "  {:>16} {:>6} {:>8} {:>10} {:>9}ms {:>10}  {}",
                family.name(),
                runs,
                faults,
                snap.total(),
                worst_ms,
                violations,
                if violations == 0 { "PASS" } else { "FAIL" }
            );
        }
    }

    // ---- rt sweep -----------------------------------------------------
    // Wall-clock runs share ports and sleep in compressed real time, so
    // they go sequentially on the runtime, not over the pool.
    let (mut rt_runs, mut rt_violations) = (0u64, 0u64);
    if run_rt {
        eprintln!(
            "chaos campaign: {} families x {rt_seeds} seeds on rt (x{RT_COMPRESS} compression)",
            ScheduleFamily::ALL.len()
        );
        let topo = rt_topology();
        tokio::runtime::block_on(async {
            for family in ScheduleFamily::ALL {
                for s in 0..rt_seeds {
                    let schedule = generate(family, s, &topo);
                    rt_runs += 1;
                    match run_rt_chaos(&schedule, &rto, RT_COMPRESS).await {
                        Ok(run) => {
                            let ok = run.violations.is_empty();
                            eprintln!(
                                "  rt {:>16} seed {s}: {} partition cut(s)  {}",
                                family.name(),
                                run.partitions,
                                if ok { "PASS" } else { "FAIL" }
                            );
                            if !ok {
                                rt_violations += 1;
                                failures.push(Failure {
                                    scenario: "rt-two-node".to_string(),
                                    family: family.name(),
                                    seed: s,
                                    violations: run.violations,
                                    minimized: schedule.describe(),
                                });
                            }
                        }
                        Err(e) => {
                            rt_violations += 1;
                            eprintln!("  rt {:>16} seed {s}: FAIL ({e})", family.name());
                            failures.push(Failure {
                                scenario: "rt-two-node".to_string(),
                                family: family.name(),
                                seed: s,
                                violations: vec![e],
                                minimized: schedule.describe(),
                            });
                        }
                    }
                }
            }
        });
        records.push(
            JsonObj::new()
                .str("record", "chaos_rt")
                .num("runs", rt_runs)
                .num("violations", rt_violations)
                .finish(),
        );
    }

    // ---- verdict ------------------------------------------------------
    for f in &failures {
        records.push(
            JsonObj::new()
                .str("record", "chaos_violation")
                .str("scenario", &f.scenario)
                .str("family", f.family)
                .num("seed", f.seed)
                .raw(
                    "violations",
                    &json_str_array(f.violations.iter().map(String::as_str)),
                )
                .str("minimized", &f.minimized)
                .finish(),
        );
    }
    records.push(
        JsonObj::new()
            .str("record", "chaos_campaign")
            .str("substrate", &substrate)
            .num("scenarios", scenarios.len() as u64)
            .num("families", ScheduleFamily::ALL.len() as u64)
            .num("seeds_per_cell", seeds)
            .num("netsim_runs", netsim_runs as u64)
            .num("replay_checks", replay_checks as u64)
            .bool("replay_ok", replay_ok)
            .num("rt_runs", rt_runs)
            .num("violations", failures.len() as u64)
            .bool("passed", failures.is_empty() && replay_ok)
            .finish(),
    );

    let body: String = records.iter().map(|r| format!("{r}\n")).collect();
    for r in &records {
        println!("{r}");
    }
    std::fs::write("BENCH_chaos.json", &body).expect("write BENCH_chaos.json");

    if !failures.is_empty() || !replay_ok {
        for f in &failures {
            eprintln!(
                "chaos campaign FAIL: scenario {} family {} seed {}",
                f.scenario, f.family, f.seed
            );
            for v in &f.violations {
                eprintln!("    {v}");
            }
            if !f.minimized.is_empty() {
                eprintln!("    minimized schedule: {}", f.minimized);
            }
        }
        if !replay_ok {
            eprintln!("chaos campaign FAIL: replay determinism check diverged");
        }
        std::process::exit(1);
    }
    eprintln!(
        "chaos campaign: all {} netsim + {rt_runs} rt run(s) within recovery objectives",
        netsim_runs
    );
}
