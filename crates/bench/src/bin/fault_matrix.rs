//! Fault-matrix smoke gate for `scripts/check.sh`.
//!
//! Runs the flowlinked-call scenario over the matrix
//! loss ∈ {0, 1%, 10%} × {dup/reorder off, dup/reorder on (10% each)},
//! three seeds per cell, and requires every run to converge to an
//! end-to-end flowing path within a bounded virtual-time budget. Exits
//! nonzero (and says which cell failed) otherwise.
//!
//! Usage: `cargo run -p ipmedia-bench --bin fault_matrix [--threads N]`
//!
//! Each (cell, seed) run is an independent deterministic simulation, so
//! the matrix fans out over a worker pool (`--threads 0` = one worker per
//! core; default 1). Aggregation is by cell in matrix order, so output is
//! identical at any thread count.
//!
//! Output follows the workspace convention: one JSON record per cell on
//! stdout, the human-readable table on stderr.

use ipmedia_bench::flowlink_convergence_under_loss;
use ipmedia_netsim::SimDuration;
use ipmedia_obs::JsonObj;

const USAGE: &str = "usage: fault_matrix [--threads N]   (0 = one worker per core; default 1)";

type RunOutcome = Result<(f64, u64, u64), String>;

fn main() {
    let mut flags = ipmedia_core::cli::Flags::from_env(USAGE);
    let threads: usize = flags.value("--threads").unwrap_or(1);
    flags.done();

    // 60 virtual seconds is ~250× the fault-free setup time: generous
    // enough for deep retransmission backoff, tight enough to catch a
    // livelocked recovery loop.
    let budget = SimDuration::from_millis(60_000);
    let seeds: u64 = 3;

    let cells: Vec<(f64, bool)> = [0.0, 0.01, 0.10]
        .into_iter()
        .flat_map(|loss| [false, true].map(|chaos| (loss, chaos)))
        .collect();
    let tasks: Vec<(usize, u64)> = (0..cells.len())
        .flat_map(|c| (0..seeds).map(move |s| (c, s)))
        .collect();

    // Fan the independent simulations over the pool; results come back
    // in task order, so aggregation is deterministic.
    let workers = ipmedia_core::par::resolve(threads).min(tasks.len());
    let outcomes: Vec<RunOutcome> = ipmedia_core::par::slot_map(threads, tasks.len(), |i| {
        let (cell, seed) = tasks[i];
        let (loss, chaos) = cells[cell];
        let (dup, reorder) = if chaos { (0.10, 0.10) } else { (0.0, 0.0) };
        flowlink_convergence_under_loss(loss, dup, reorder, seed, budget).map(|run| {
            (
                run.converged.as_millis_f64(),
                run.faults,
                run.retransmissions,
            )
        })
    });

    let mut failures = 0usize;
    eprintln!(
        "fault matrix: loss x dup/reorder, {seeds} seeds per cell, budget {budget}, {workers} worker thread(s)"
    );
    eprintln!(
        "  {:>6} {:>12} {:>12} {:>12} {:>8} {:>8}  verdict",
        "loss", "dup/reord", "mean(ms)", "worst(ms)", "faults", "retx"
    );
    for (cell, &(loss, chaos)) in cells.iter().enumerate() {
        let (mut sum, mut worst, mut faults, mut retx) = (0.0, 0.0f64, 0u64, 0u64);
        let mut err: Option<String> = None;
        for (i, &(c, _)) in tasks.iter().enumerate() {
            if c != cell {
                continue;
            }
            match &outcomes[i] {
                Ok((ms, f, r)) => {
                    sum += ms;
                    worst = worst.max(*ms);
                    faults += f;
                    retx += r;
                }
                Err(e) => {
                    if err.is_none() {
                        err = Some(e.clone());
                    }
                }
            }
        }
        let ok = err.is_none();
        let mean = sum / seeds as f64;
        println!(
            "{}",
            JsonObj::new()
                .str("record", "fault_matrix")
                .float("loss", loss)
                .bool("dup_reorder", chaos)
                .num("seeds", seeds)
                .float("mean_ms", mean)
                .float("worst_ms", worst)
                .num("faults", faults)
                .num("retransmissions", retx)
                .bool("passed", ok)
                .finish()
        );
        eprintln!(
            "  {:>5.0}% {:>12} {:>12.0} {:>12.0} {:>8} {:>8}  {}",
            loss * 100.0,
            if chaos { "on" } else { "off" },
            mean,
            worst,
            faults,
            retx,
            match &err {
                None => "PASS".to_string(),
                Some(e) => format!("FAIL: {e}"),
            }
        );
        if !ok {
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("fault matrix: {failures} cell(s) failed");
        std::process::exit(1);
    }
    eprintln!("fault matrix: all cells converged within budget");
}
