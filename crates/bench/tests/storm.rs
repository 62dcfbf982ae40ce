//! Generation-order determinism for the call-storm harness: the storm's
//! aggregate metrics and a sampled per-call ladder must be identical
//! whether plans are generated on 1, 2, or 8 worker threads. Parallel
//! generation is a throughput knob, never semantics. The full-size storm
//! `benchmark/`'s `sim_storm` workload times is pinned here by what it
//! decides: its digest, and the SIP baseline's counts.

use ipmedia_bench::storm::{ladder_sample, run_netsim_storm, run_sip_storm, StormSpec};

#[test]
fn storm_report_is_generation_thread_invariant() {
    let spec = |threads| StormSpec {
        seed: 0xD15C0,
        calls: 120,
        threads,
    };
    let digests: Vec<String> = [1usize, 2, 8]
        .iter()
        .map(|&t| run_netsim_storm(&spec(t)).digest())
        .collect();
    assert_eq!(digests[0], digests[1], "2 threads diverged from serial");
    assert_eq!(digests[0], digests[2], "8 threads diverged from serial");
}

#[test]
fn full_size_storm_decides_the_recorded_digest() {
    const SEED: u64 = 0x5704_0001;
    let report = run_netsim_storm(&StormSpec {
        seed: SEED,
        calls: 10_000,
        threads: 1,
    });
    assert_eq!(
        report.digest(),
        "calls=10000 boxes=26690 established=10000 reconverged=808 \
         setup=([0, 0, 0, 0, 4987, 0, 3336, 0, 1677, 0, 0],3303780) \
         flowlink=([0, 0, 0, 0, 0, 0, 542, 266, 0, 0, 0],191944) \
         signals=121038 stimuli=214796 vt=2396 \
         mix={\"close/close\": 1677, \"close/hold\": 1671, \"close/open\": 1678, \
         \"hold/hold\": 1622, \"open/hold\": 1681, \"open/open\": 1671}"
    );
    let sip = run_sip_storm(10_000, SEED);
    assert_eq!(
        (sip.converged, sip.messages, sip.virtual_ms),
        (10_000, 90_000, 378)
    );
}

#[test]
fn sampled_storm_ladder_is_byte_identical_across_threads() {
    let spec = |threads| StormSpec {
        seed: 0xD15C0,
        calls: 120,
        threads,
    };
    let ladders: Vec<String> = [1usize, 2, 8]
        .iter()
        .map(|&t| ladder_sample(&spec(t), 5))
        .collect();
    assert!(!ladders[0].is_empty(), "trace produced no ladder");
    assert_eq!(ladders[0], ladders[1], "2-thread ladder diverged");
    assert_eq!(ladders[0], ladders[2], "8-thread ladder diverged");
}
