//! The observability layer must be strictly passive: attaching an
//! observer to a scenario may not change a single protocol decision.
//! This pins the guarantee down by running the same `Chain` scenario
//! four ways — no observer (the `Chain::new` default), an explicit
//! [`NoopObserver`], a fully counting observer, and the causal tracer
//! recording spans — and demanding byte-identical traces and identical
//! measured latencies. What the tracer costs in wall-clock time is
//! `benchmark/`'s `host.trace_overhead_pct`.

use ipmedia_bench::Chain;
use ipmedia_netsim::{SimConfig, SimDuration};
use ipmedia_obs::metrics::{CountingObserver, Registry};
use ipmedia_obs::trace::SpanSink;
use ipmedia_obs::NoopObserver;
use std::sync::Arc;

/// Hold + re-link the first server of an established 2-server chain with
/// the signal trace on, and return that trace plus the re-link latency.
fn run(mut chain: Chain) -> (String, SimDuration) {
    chain.hold(0);
    chain.net.trace_enabled = true;
    chain.net.advance(SimDuration::from_millis(1_000));
    let t0 = chain.net.now();
    chain.relink(0);
    let latency = chain.measure_reconvergence(t0);
    // Drain in-flight signals so the sent/received ledgers can balance.
    chain
        .net
        .run_until_quiescent(ipmedia_netsim::SimTime(3_600_000_000));
    let trace: String = chain
        .net
        .trace()
        .iter()
        .map(|e| format!("{} {:?} {} {}\n", e.at, e.from, e.to, e.what))
        .collect();
    (trace, latency)
}

#[test]
fn observers_do_not_perturb_traces_or_latencies() {
    let cfg = SimConfig::paper;
    let bare = run(Chain::new(2, cfg()));
    assert!(!bare.0.is_empty(), "scenario produced a trace");

    let registry = Arc::new(Registry::new());
    let sink = Arc::new(SpanSink::new(1 << 16));
    let observed = [
        (
            "NoopObserver",
            Chain::new_observed(2, cfg(), Box::new(NoopObserver)),
        ),
        (
            "CountingObserver",
            Chain::new_observed(2, cfg(), Box::new(CountingObserver::new(registry.clone()))),
        ),
        (
            "the tracer",
            Chain::new_traced(2, cfg(), Box::new(NoopObserver), sink.clone()),
        ),
    ];
    for (who, chain) in observed {
        let (trace, latency) = run(chain);
        assert_eq!(bare.0, trace, "{who} perturbed the trace");
        assert_eq!(bare.1, latency, "{who} perturbed the re-link latency");
    }

    // The counting run really observed the protocol it didn't perturb.
    let snap = registry.snapshot();
    assert!(snap.signals_sent_total() > 0);
    assert_eq!(snap.signals_sent_total(), snap.signals_received_total());
    assert!(snap.goal_activations > 0);

    // So did the tracer, and it kept every span.
    assert!(!sink.is_empty(), "tracing recorded no span");
    assert_eq!(sink.dropped(), 0);
}
