//! Fleet-scale call-storm driver for `scripts/check.sh` and for the
//! committed `BENCH_storm.json` sweep (§VIII-C at deployment scale).
//!
//! Three arms run the same seeded storm (see `ipmedia_bench::storm`):
//!
//! 1. **netsim** — every generated call established concurrently in the
//!    discrete-event simulator; tunnel-setup and flowlink-reconvergence
//!    latency distributions in virtual ms, plus signal totals and
//!    resident bytes per live call from a counting allocator.
//! 2. **rt** — `channels × tunnels` concurrent calls over real TCP
//!    through the tokio runtime, once with [`NodeTuning::UNSHARDED`]
//!    (the original single-inbox, one-frame-per-flush pipeline) and once
//!    with the sharded/batched default, in the same process; the
//!    speedup row is the acceptance gate for the sharding work.
//! 3. **sip** — the same-topology B2BUA baseline (`A—PBX—PC—C` per
//!    call) at the same call count, the transactional row the storm
//!    numbers are read against.
//!
//! Usage: `call_storm [--calls N] [--seed S] [--threads N]
//! [--rt-channels N] [--rt-tunnels N] [--rt-reps N] [--min-speedup X]
//! [--jsonl]`
//!
//! Output convention: the human-readable account goes to stderr; with
//! `--jsonl` every aggregate row is also printed as one JSON record per
//! line on stdout. The run always writes `BENCH_storm.json`, prefixed
//! with the workspace provenance header. Wall-clock fields (calls/sec,
//! peak bytes) vary across hosts; the virtual-time and count fields are
//! byte-identical across runs at the same seed and any thread count.

use ipmedia_bench::storm::{run_netsim_storm, run_rt_storm, run_sip_storm, StormSpec};
use ipmedia_obs::metrics::HistogramSnapshot;
use ipmedia_obs::JsonObj;
use ipmedia_rt::NodeTuning;
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

const USAGE: &str = "usage: call_storm [--calls N] [--seed S] [--threads N] \
[--rt-channels N] [--rt-tunnels N] [--rt-reps N] [--min-speedup X] [--jsonl]";

/// A counting wrapper around the system allocator: tracks resident and
/// peak-resident bytes so the storm can report bytes per live call.
struct CountingAlloc;

static RESIDENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let now = RESIDENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(now, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        RESIDENT.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                let grow = new_size - layout.size();
                let now = RESIDENT.fetch_add(grow, Ordering::Relaxed) + grow;
                PEAK.fetch_max(now, Ordering::Relaxed);
            } else {
                RESIDENT.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Reset the peak watermark to the current residency and return a token
/// for [`peak_since`].
fn mark() -> usize {
    let now = RESIDENT.load(Ordering::Relaxed);
    PEAK.store(now, Ordering::Relaxed);
    now
}

/// Peak bytes allocated above the [`mark`] baseline.
fn peak_since(baseline: usize) -> usize {
    PEAK.load(Ordering::Relaxed).saturating_sub(baseline)
}

/// Render a histogram as an inline JSON object.
fn hist_json(h: &HistogramSnapshot) -> String {
    let join = |xs: &[u64]| xs.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
    format!(
        "{{\"bounds\":[{}],\"counts\":[{}],\"sum\":{},\"total\":{}}}",
        join(&h.bounds),
        join(&h.counts),
        h.sum,
        h.total()
    )
}

fn main() -> ExitCode {
    let mut flags = ipmedia_core::cli::Flags::from_env(USAGE);
    let calls: usize = flags.value("--calls").unwrap_or(10_000);
    let seed: u64 = flags.value("--seed").unwrap_or(0x5704_0001);
    let threads: usize = flags.value("--threads").unwrap_or(0);
    let rt_channels: u32 = flags.value("--rt-channels").unwrap_or(64);
    let rt_tunnels: u16 = flags.value("--rt-tunnels").unwrap_or(8);
    let rt_reps: usize = flags.value("--rt-reps").unwrap_or(3).max(1);
    let min_speedup: f64 = flags.value("--min-speedup").unwrap_or(2.0);
    let jsonl = flags.switch("--jsonl");
    flags.done();

    let mut records: Vec<String> = Vec::new();
    let mut emit = |line: String| {
        if jsonl {
            println!("{line}");
        }
        records.push(line);
    };

    // --- netsim arm -------------------------------------------------------
    let spec = StormSpec {
        seed,
        calls,
        threads,
    };
    eprintln!("call_storm: netsim arm — {calls} call(s), seed {seed:#x}");
    let baseline = mark();
    let wall = std::time::Instant::now();
    let net = run_netsim_storm(&spec);
    let net_wall = wall.elapsed();
    let net_peak = peak_since(baseline);
    let bytes_per_call = net_peak / net.calls.max(1);
    eprintln!(
        "  established {}/{} across {} box(es), {} reconverged after relink",
        net.established, net.calls, net.boxes, net.reconverged
    );
    eprintln!(
        "  {:.0} calls/sec wall, {} bytes/live call, virtual span {} ms",
        net.calls as f64 / net_wall.as_secs_f64(),
        bytes_per_call,
        net.virtual_ms
    );
    emit(
        JsonObj::new()
            .str("record", "storm_netsim")
            .num("calls", net.calls as u64)
            .num("boxes", net.boxes as u64)
            .num("established", net.established as u64)
            .num("reconverged", net.reconverged as u64)
            .num("signals_sent", net.signals_sent)
            .num("stimuli", net.stimuli)
            .num("virtual_ms", net.virtual_ms)
            .raw("setup_ms", &hist_json(&net.setup_ms))
            .raw("flowlink_ms", &hist_json(&net.flowlink_ms))
            .raw(
                "path_mix",
                &format!(
                    "{{{}}}",
                    net.path_mix
                        .iter()
                        .map(|(k, v)| format!("\"{k}\":{v}"))
                        .collect::<Vec<_>>()
                        .join(",")
                ),
            )
            .float(
                "calls_per_sec_wall",
                net.calls as f64 / net_wall.as_secs_f64(),
            )
            .num("bytes_per_live_call", bytes_per_call as u64)
            .finish(),
    );
    let net_ok = net.established == net.calls;

    // --- rt arm: unsharded baseline, then the sharded default -------------
    let rt_calls = rt_channels as usize * rt_tunnels as usize;
    let mut rt_rates = Vec::new();
    for (arm, tuning) in [
        ("unsharded", NodeTuning::UNSHARDED),
        ("sharded", NodeTuning::default()),
    ] {
        eprintln!(
            "call_storm: rt arm ({arm}) — {rt_calls} call(s) as {rt_channels}×{rt_tunnels}, \
             shards={} batch={} writer={}, best of {rt_reps}",
            tuning.inbox_shards, tuning.inbox_batch, tuning.writer_batch
        );
        // Best-of-N per arm: wall-clock establishment of a few hundred
        // calls is tens of milliseconds, so scheduler noise dominates a
        // single rep; the fastest rep of each arm is the honest
        // throughput comparison (same rule as trace_overhead).
        let mut best = None;
        for _ in 0..rt_reps {
            let report = tokio::runtime::block_on(run_rt_storm(rt_channels, rt_tunnels, tuning));
            eprintln!(
                "  {}/{} flowing in {:.1} ms — {:.0} calls/sec",
                report.flowing, report.calls, report.wall_ms, report.calls_per_sec
            );
            if best
                .as_ref()
                .is_none_or(|b: &ipmedia_bench::storm::RtStormReport| {
                    report.calls_per_sec > b.calls_per_sec
                })
            {
                best = Some(report);
            }
        }
        let report = best.expect("at least one rep");
        emit(
            JsonObj::new()
                .str("record", "storm_rt")
                .str("arm", arm)
                .num("inbox_shards", tuning.inbox_shards as u64)
                .num("inbox_batch", tuning.inbox_batch as u64)
                .num("writer_batch", tuning.writer_batch as u64)
                .num("reps", rt_reps as u64)
                .num("calls", report.calls as u64)
                .num("flowing", report.flowing as u64)
                .num("opens_sent", report.opens_sent)
                .float("wall_ms", report.wall_ms)
                .float("calls_per_sec", report.calls_per_sec)
                .raw("setup_ms", &hist_json(&report.setup_ms))
                .finish(),
        );
        rt_rates.push(report.calls_per_sec);
    }
    let speedup = rt_rates[1] / rt_rates[0];
    let rt_ok = speedup >= min_speedup;
    eprintln!(
        "call_storm: rt sharded/batched speedup {speedup:.2}x over single-inbox baseline \
         (gate: ≥{min_speedup:.1}x) — {}",
        if rt_ok { "ok" } else { "FAIL" }
    );
    emit(
        JsonObj::new()
            .str("record", "storm_rt_speedup")
            .float("unsharded_calls_per_sec", rt_rates[0])
            .float("sharded_calls_per_sec", rt_rates[1])
            .float("speedup", speedup)
            .float("min_speedup", min_speedup)
            .bool("ok", rt_ok)
            .finish(),
    );

    // --- sip baseline arm -------------------------------------------------
    eprintln!("call_storm: sip arm — {calls} B2BUA chain(s), seed {seed:#x}");
    let wall = std::time::Instant::now();
    let sip = run_sip_storm(calls, seed);
    let sip_wall = wall.elapsed();
    eprintln!(
        "  {}/{} converged, {} message(s), virtual span {} ms, {:.0} calls/sec wall",
        sip.converged,
        sip.calls,
        sip.messages,
        sip.virtual_ms,
        sip.calls as f64 / sip_wall.as_secs_f64()
    );
    emit(
        JsonObj::new()
            .str("record", "storm_sip")
            .num("calls", sip.calls as u64)
            .num("converged", sip.converged as u64)
            .num("messages", sip.messages)
            .num("virtual_ms", sip.virtual_ms)
            .raw("relink_ms", &hist_json(&sip.relink_ms))
            .float(
                "calls_per_sec_wall",
                sip.calls as f64 / sip_wall.as_secs_f64(),
            )
            .finish(),
    );
    let sip_ok = sip.converged == sip.calls;

    let ok = net_ok && rt_ok && sip_ok;
    emit(
        JsonObj::new()
            .str("record", "storm_summary")
            .num("netsim_calls", net.calls as u64)
            .num("rt_calls", rt_calls as u64)
            .num("sip_calls", sip.calls as u64)
            .float("rt_speedup", speedup)
            .bool("ok", ok)
            .finish(),
    );

    let mut out = ipmedia_bench::provenance_record(threads);
    out.push('\n');
    out.push_str(&records.join("\n"));
    out.push('\n');
    if let Err(e) = std::fs::write("BENCH_storm.json", out) {
        eprintln!("call_storm: BENCH_storm.json: {e}");
        return ExitCode::FAILURE;
    }
    if ok {
        eprintln!("call_storm: CLEAN — all arms converged, speedup gate met");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
