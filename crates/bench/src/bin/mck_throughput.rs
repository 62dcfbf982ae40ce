//! Exploration-throughput experiment for the parallel model checker.
//!
//! Usage: `cargo run --release -p ipmedia-bench --bin mck_throughput
//! [max_states]`
//!
//! Explores a set of representative path configurations at 1, 2, 4, and 8
//! exploration threads, asserts that every thread count produces the
//! identical graph (state/transition/terminal counts and verdicts — the
//! determinism contract), and records expansion throughput. Results go to
//! stdout as JSONL and are written to `BENCH_mck.json` together with a
//! host-parallelism record and the `mck_states_per_sec` histogram; the
//! human-readable table goes to stderr.
//!
//! Speedup interpretation: wall-clock scaling is only meaningful when the
//! host has that many cores — the JSON carries `host_parallelism` so a
//! 1-core CI run is not misread as a parallelism regression.

use ipmedia_core::path::EndGoal;
use ipmedia_mck::{budgeted, check_path_with, ExploreOptions};
use ipmedia_obs::export::snapshot_json;
use ipmedia_obs::metrics::Registry;
use ipmedia_obs::JsonObj;
use std::fmt::Write as _;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let mut flags = ipmedia_core::cli::Flags::from_env("usage: mck_throughput [max_states]");
    let max_states: usize = flags.positional("max_states").unwrap_or(2_000_000);
    flags.done();
    let host = ipmedia_core::par::resolve(0);
    let registry = Registry::new();

    // Representative spread: the cheap direct path, the same path under an
    // adversarial fault budget, and the state-space blow-ups behind a
    // flowlink (the campaign's dominant cost).
    let configs = [
        ("open-hold/0", budgeted(0, EndGoal::Open, EndGoal::Hold, 0)),
        (
            "open-hold/0+1fault",
            budgeted(0, EndGoal::Open, EndGoal::Hold, 0).with_faults(1),
        ),
        ("open-hold/1", budgeted(1, EndGoal::Open, EndGoal::Hold, 0)),
        ("open-open/1", budgeted(1, EndGoal::Open, EndGoal::Open, 0)),
    ];

    let mut lines = Vec::new();
    lines.push(ipmedia_bench::provenance_record(
        *THREAD_COUNTS.last().unwrap(),
    ));
    lines.push(
        JsonObj::new()
            .str("record", "mck_throughput_host")
            .num("host_parallelism", host as u64)
            .num("max_states", max_states as u64)
            .finish(),
    );

    eprintln!("mck exploration throughput (host parallelism: {host})");
    eprintln!(
        "  {:<20} {:>8} {:>9} {:>10} {:>12} {:>9}",
        "config", "threads", "states", "time(s)", "states/s", "speedup"
    );
    for (name, cfg) in &configs {
        let mut base: Option<(usize, usize, usize, String, f64)> = None;
        for threads in THREAD_COUNTS {
            let (res, _) = check_path_with(cfg, &ExploreOptions::parallel(max_states, threads));
            let sps = res.states_per_sec();
            registry.mck_states_per_sec.observe(sps as u64);
            registry.add_mck_dedup_hits(res.dedup_hits);
            let speedup = match &base {
                None => {
                    base = Some((
                        res.states,
                        res.transitions,
                        res.terminals,
                        res.verdict(),
                        res.elapsed.as_secs_f64(),
                    ));
                    1.0
                }
                Some((states, transitions, terminals, verdict, base_secs)) => {
                    // The determinism contract: parallelism must never be
                    // observable in the results, only in the wall clock.
                    assert_eq!(res.states, *states, "{name} at {threads} threads");
                    assert_eq!(res.transitions, *transitions, "{name} at {threads} threads");
                    assert_eq!(res.terminals, *terminals, "{name} at {threads} threads");
                    assert_eq!(&res.verdict(), verdict, "{name} at {threads} threads");
                    base_secs / res.elapsed.as_secs_f64().max(1e-9)
                }
            };
            let mut line = String::new();
            let _ = write!(
                line,
                "  {:<20} {:>8} {:>9} {:>10.2} {:>12.0} {:>8.2}x",
                name,
                threads,
                res.states,
                res.elapsed.as_secs_f64(),
                sps,
                speedup
            );
            eprintln!("{line}");
            let rec = JsonObj::new()
                .str("record", "mck_throughput")
                .str("config", name)
                .num("threads", threads as u64)
                .num("states", res.states as u64)
                .num("transitions", res.transitions as u64)
                .num("expanded", res.expanded as u64)
                .num("dedup_hits", res.dedup_hits)
                .float("elapsed_ms", res.elapsed.as_secs_f64() * 1e3)
                .float("states_per_sec", sps)
                .float("speedup_vs_1_thread", speedup)
                .str("verdict", &res.verdict())
                .finish();
            println!("{rec}");
            lines.push(rec);
        }
    }

    lines.push(
        JsonObj::new()
            .str("record", "mck_metrics_snapshot")
            .raw("metrics", &snapshot_json(&registry.snapshot()))
            .finish(),
    );
    let body = lines.join("\n") + "\n";
    match std::fs::write("BENCH_mck.json", body) {
        Ok(()) => eprintln!("wrote BENCH_mck.json ({} records).", lines.len()),
        Err(e) => eprintln!("failed to write BENCH_mck.json: {e}"),
    }
}
