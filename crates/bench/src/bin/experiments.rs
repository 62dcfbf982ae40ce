//! Regenerate every table and figure of the paper's evaluation.
//!
//! Usage: `cargo run --release -p ipmedia-bench --bin experiments
//! [--full] [--threads N]`
//!
//! Output follows the workspace JSONL convention: stdout carries one JSON
//! record per measurement (machine-readable, pipe it into a file or `jq`);
//! the human-readable summary goes to stderr. The run also writes
//! `BENCH_obs.json` — a metrics snapshot with the tunnel-setup and
//! flowlink-convergence latency histograms — into the working directory.
//!
//! `--full` raises the model-checking budgets (slower, larger state
//! spaces, same verdicts). `--threads N` sets the campaign worker count
//! (0, the default, means one worker per core); results are identical at
//! any thread count.

use ipmedia_bench::{
    count_signals_for_relink, fig13_concurrent_relink, flowlink_convergence_under_loss,
    fresh_setup_latency, relink_latency, Chain,
};
use ipmedia_core::path::PathType;
use ipmedia_mck::{
    campaign_configs, record_campaign_metrics, render_table, run_campaign, CheckResult,
};
use ipmedia_netsim::SimConfig;
use ipmedia_netsim::SimDuration;
use ipmedia_obs::export::snapshot_json;
use ipmedia_obs::metrics::{CountingObserver, Registry};
use ipmedia_obs::JsonObj;
use std::sync::Arc;

const USAGE: &str = "usage: experiments [--full] [--threads N]";

fn main() {
    let mut flags = ipmedia_core::cli::Flags::from_env(USAGE);
    let full = flags.switch("--full");
    // 0 = one campaign worker per core
    let threads: usize = flags.value("--threads").unwrap_or(0);
    flags.done();
    let scale: u8 = if full { 1 } else { 0 };
    let n = 34.0;
    let c = 20.0;
    let registry = Arc::new(Registry::new());

    eprintln!("================================================================");
    eprintln!(" Compositional Control of IP Media — evaluation reproduction");
    eprintln!(" timing model: n = {n} ms (network), c = {c} ms (compute)");
    eprintln!("================================================================");

    // ----- V1: the verification campaign (paper §VIII-A) -----
    eprintln!("\n[V1] Verification of signaling paths (paper: 12 Spin models;");
    eprintln!("     here: 18 configurations over the real implementation)\n");
    let results: Vec<CheckResult> =
        run_campaign(&campaign_configs(scale, 2, &[0]), 5_000_000, threads);
    for res in &results {
        println!("{}", res.record().finish());
    }
    record_campaign_metrics(&registry, &results);
    eprintln!("{}", render_table(&results));

    // ----- V2: flowlink growth factors (paper: ×300 memory, ×1000 time) -----
    eprintln!("[V2] State-space growth per added flowlink (paper §VIII-A reports");
    eprintln!("     ×300 memory and ×1000 time on average for one flowlink)\n");
    eprintln!(
        "{:<12} {:>10} {:>12} {:>10} {:>12} {:>10}",
        "path type", "0-link", "1-link", "growth", "2-link", "growth"
    );
    for pt in PathType::all() {
        let find = |links: usize| {
            results
                .iter()
                .find(|r| r.path_type == pt && r.links == links)
                .map(|r| r.states)
                .unwrap_or(0)
        };
        let (s0, s1, s2) = (find(0), find(1), find(2));
        println!(
            "{}",
            JsonObj::new()
                .str("record", "mck_growth")
                .str("path_type", &pt.to_string())
                .num("states_0_links", s0 as u64)
                .num("states_1_link", s1 as u64)
                .num("states_2_links", s2 as u64)
                .finish()
        );
        eprintln!(
            "{:<12} {:>10} {:>12} {:>9.0}x {:>12} {:>9.1}x",
            pt.to_string(),
            s0,
            s1,
            s1 as f64 / s0.max(1) as f64,
            s2,
            s2 as f64 / s1.max(1) as f64
        );
    }

    // ----- L1: Fig. 13 latency -----
    eprintln!("\n[L1] Fig. 13 — concurrent re-link by two servers (PBX & PC)\n");
    let d = fig13_concurrent_relink(SimConfig::paper());
    registry
        .flowlink_convergence_ms
        .observe(d.as_millis_f64() as u64);
    println!(
        "{}",
        JsonObj::new()
            .str("record", "latency")
            .str("experiment", "fig13_concurrent_relink")
            .float("formula_ms", 2.0 * n + 3.0 * c)
            .float("measured_ms", d.as_millis_f64())
            .finish()
    );
    eprintln!("  paper formula : 2n + 3c = {} ms", 2.0 * n + 3.0 * c);
    eprintln!("  measured      : {:.0} ms", d.as_millis_f64());

    // ----- L2: the general formula sweep -----
    eprintln!("\n[L2] §VIII-C general formula — p·n + (p+1)·c, re-linked flowlink");
    eprintln!("     at p hops from its farther endpoint\n");
    eprintln!("  {:>3} {:>12} {:>12}", "p", "formula(ms)", "measured(ms)");
    for p in 1..=8usize {
        let d = relink_latency(p, SimConfig::paper());
        registry
            .flowlink_convergence_ms
            .observe(d.as_millis_f64() as u64);
        let f = p as f64 * n + (p as f64 + 1.0) * c;
        println!(
            "{}",
            JsonObj::new()
                .str("record", "latency")
                .str("experiment", "relink")
                .num("p", p as u64)
                .float("formula_ms", f)
                .float("measured_ms", d.as_millis_f64())
                .finish()
        );
        eprintln!("  {:>3} {:>12.0} {:>12.0}", p, f, d.as_millis_f64());
    }

    // Fresh-setup sweep: fills the tunnel-setup histogram (§IX-B contrast
    // with the cached re-link numbers above).
    for k in 1..=4usize {
        let d = fresh_setup_latency(k, SimConfig::paper());
        registry.tunnel_setup_ms.observe(d.as_millis_f64() as u64);
        println!(
            "{}",
            JsonObj::new()
                .str("record", "latency")
                .str("experiment", "fresh_setup")
                .num("k", k as u64)
                .float(
                    "formula_ms",
                    2.0 * (k as f64 + 1.0) * n + (2.0 * k as f64 + 3.0) * c
                )
                .float("measured_ms", d.as_millis_f64())
                .finish()
        );
    }

    // ----- L5: convergence under loss -----
    eprintln!("\n[L5] Robustness — flowlink convergence time vs loss rate (§VI");
    eprintln!("     idempotent retransmission; chaos adds 10% dup + 10% reorder)\n");
    eprintln!(
        "  {:>6} {:>8} {:>12} {:>12} {:>8} {:>8}",
        "loss", "seeds", "mean(ms)", "worst(ms)", "faults", "retx"
    );
    let budget = SimDuration::from_millis(60_000);
    let seeds: u64 = if full { 12 } else { 5 };
    for loss in [0.0, 0.01, 0.05, 0.10, 0.20] {
        let (mut sum, mut worst, mut faults, mut retx) = (0.0, 0.0f64, 0u64, 0u64);
        for seed in 0..seeds {
            let run = flowlink_convergence_under_loss(loss, 0.10, 0.10, seed, budget)
                .expect("loss sweep must converge within budget");
            let ms = run.converged.as_millis_f64();
            sum += ms;
            worst = worst.max(ms);
            faults += run.faults;
            retx += run.retransmissions;
            registry.flowlink_convergence_ms.observe(ms as u64);
        }
        let mean = sum / seeds as f64;
        println!(
            "{}",
            JsonObj::new()
                .str("record", "loss_convergence")
                .float("loss", loss)
                .num("seeds", seeds)
                .float("mean_ms", mean)
                .float("worst_ms", worst)
                .num("faults", faults)
                .num("retransmissions", retx)
                .finish()
        );
        eprintln!(
            "  {:>5.0}% {:>8} {:>12.0} {:>12.0} {:>8} {:>8}",
            loss * 100.0,
            seeds,
            mean,
            worst,
            faults,
            retx
        );
    }

    // ----- L3: SIP comparison -----
    eprintln!("\n[L3] §IX-B — SIP baseline vs the compositional protocol\n");
    let ours = fig13_concurrent_relink(SimConfig::paper()).as_millis_f64();
    let sip_common = ipmedia_sip::common_case(42).expect("sip common case converges");
    let mut glare_sum = 0.0;
    let mut glare_msgs = 0u64;
    let runs = 20;
    for seed in 0..runs {
        let g = ipmedia_sip::glare_scenario(seed).expect("sip glare converges");
        glare_sum += g.converged_after.as_millis_f64();
        glare_msgs += g.messages;
    }
    let glare_avg = glare_sum / runs as f64;
    println!(
        "{}",
        JsonObj::new()
            .str("record", "sip_comparison")
            .float("compositional_relink_ms", ours)
            .float(
                "sip_common_case_ms",
                sip_common.converged_after.as_millis_f64()
            )
            .float("sip_glare_avg_ms", glare_avg)
            .num("glare_seeds", runs)
            .finish()
    );
    eprintln!("  compositional, concurrent re-link : {ours:>7.0} ms   (paper: 128 ms)");
    eprintln!(
        "  SIP common case (no contention)    : {:>7.0} ms   (paper: 7n+7c = {} ms)",
        sip_common.converged_after.as_millis_f64(),
        7.0 * n + 7.0 * c
    );
    eprintln!(
        "  SIP glare case, avg of {runs} seeds    : {:>7.0} ms   (paper: 10n+11c+d ≈ 3560 ms)",
        glare_avg
    );

    // ----- L4: SIP overhead decomposition -----
    eprintln!("\n[L4] §IX-B — where the SIP overhead comes from (formulas)\n");
    println!(
        "{}",
        JsonObj::new()
            .str("record", "sip_overhead_decomposition")
            .float("solicit_fresh_offer_ms", 2.0 * n + 2.0 * c)
            .float("glare_retry_ms", 3.0 * n + 4.0 * c + 3000.0)
            .float("sequential_description_ms", 3.0 * n + 2.0 * c)
            .float(
                "measured_common_case_penalty_ms",
                sip_common.converged_after.as_millis_f64() - ours
            )
            .finish()
    );
    eprintln!(
        "  (1) solicit fresh offer (no caching)      : 2n + 2c = {:>4.0} ms",
        2.0 * n + 2.0 * c
    );
    eprintln!(
        "  (2) glare failure + randomized retry      : 3n + 4c + d ≈ {:>4.0} ms (E[d]=3000)",
        3.0 * n + 4.0 * c + 3000.0
    );
    eprintln!(
        "  (3) sequential (not parallel) description : 3n + 2c = {:>4.0} ms",
        3.0 * n + 2.0 * c
    );
    eprintln!(
        "  measured common-case penalty vs ours      : {:>4.0} ms",
        sip_common.converged_after.as_millis_f64() - ours
    );

    // ----- P1: protocol cost -----
    eprintln!("\n[P1] Protocol cost — signals to re-link a two-tunnel path, and");
    eprintln!("     the value of cacheable unilateral descriptors (§IX-B)\n");
    let our_msgs = count_signals_for_relink(2);
    let fresh = fresh_setup_latency(2, SimConfig::paper());
    let cached = relink_latency(2, SimConfig::paper());
    println!(
        "{}",
        JsonObj::new()
            .str("record", "protocol_cost")
            .num("compositional_relink_signals", our_msgs as u64)
            .num("sip_common_case_messages", sip_common.messages)
            .float("sip_glare_avg_messages", glare_msgs as f64 / runs as f64)
            .float("fresh_setup_ms", fresh.as_millis_f64())
            .float("cached_relink_ms", cached.as_millis_f64())
            .finish()
    );
    eprintln!("  compositional re-link (k=2)  : {our_msgs} signals");
    eprintln!(
        "  SIP common-case re-link      : {} messages",
        sip_common.messages
    );
    eprintln!(
        "  SIP glare re-link (avg)      : {:.0} messages",
        glare_msgs as f64 / runs as f64
    );
    eprintln!(
        "  fresh setup vs cached re-link over the same path: {:.0} ms vs {:.0} ms",
        fresh.as_millis_f64(),
        cached.as_millis_f64()
    );

    // One fully observed chain establishment so the exported snapshot also
    // carries protocol counters alongside the latency histograms.
    let _ = Chain::new_observed(
        2,
        SimConfig::paper(),
        Box::new(CountingObserver::new(registry.clone())),
    );

    let snapshot = snapshot_json(&registry.snapshot());
    println!(
        "{}",
        JsonObj::new()
            .str("record", "metrics_snapshot")
            .raw("metrics", &snapshot)
            .finish()
    );
    match std::fs::write("BENCH_obs.json", format!("{snapshot}\n")) {
        Ok(()) => eprintln!("\nwrote BENCH_obs.json (latency histograms + protocol counters)."),
        Err(e) => eprintln!("\nfailed to write BENCH_obs.json: {e}"),
    }
    eprintln!("done. See EXPERIMENTS.md for the paper-vs-measured record.");
}
