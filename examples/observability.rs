//! Observability tour: trace a call, render it as the paper's Fig.-10
//! signal ladder, and export the metrics the observer collected.
//!
//! The same scenario as `quickstart` — two phones flowlinked through a
//! server — but with a [`CountingObserver`] installed on the simulator
//! and per-signal tracing enabled. After the call sets up we print:
//!
//! 1. the ASCII signal ladder of every signal on the wire (Fig. 10),
//! 2. the metrics registry in Prometheus text exposition format,
//! 3. the same snapshot as a single JSON record (the JSONL convention).
//!
//! Run with: `cargo run --example observability`

use ipmedia::core::boxes::GoalSpec;
use ipmedia::core::endpoint::{EndpointLogic, NullLogic};
use ipmedia::core::goal::{EndpointPolicy, UserCmd};
use ipmedia::core::{MediaAddr, Medium};
use ipmedia::netsim::{Network, SimConfig, SimTime};
use ipmedia::obs::{snapshot_json, CountingObserver, Registry};
use std::sync::Arc;

fn main() {
    let mut net = Network::new(SimConfig::paper());
    net.trace_enabled = true;

    // Every protocol event feeds a lock-free metrics registry.
    let registry = Arc::new(Registry::new());
    net.set_observer(Box::new(CountingObserver::new(registry.clone())));

    let alice = net.add_box(
        "alice",
        Box::new(EndpointLogic::resource(EndpointPolicy::audio(
            MediaAddr::v4(10, 0, 0, 1, 4000),
        ))),
    );
    let bob = net.add_box(
        "bob",
        Box::new(EndpointLogic::resource(EndpointPolicy::audio(
            MediaAddr::v4(10, 0, 0, 2, 4000),
        ))),
    );
    let server = net.add_box("server", Box::new(NullLogic));

    let (_, alice_slots, srv_a) = net.connect(alice, server, 1);
    let (_, srv_b, _) = net.connect(server, bob, 1);
    net.run_until_quiescent(SimTime(10_000_000));

    let (a, b) = (srv_a[0], srv_b[0]);
    net.set_goal(server, [GoalSpec::Link { a, b }]);
    net.user(alice, alice_slots[0], UserCmd::Open(Medium::Audio));
    net.run_until_quiescent(SimTime(10_000_000));

    // (1) The signal ladder: one column per box, arrows per signal,
    // exactly the shape of the paper's Fig. 10.
    println!("{}", net.ladder());

    // (2) Prometheus text exposition of the registry.
    let snap = registry.snapshot();
    println!("{}", ipmedia::obs::prometheus_text(&snap));

    // (3) The same snapshot as one machine-readable JSON record.
    println!("{}", snapshot_json(&snap));

    assert!(snap.signals_sent_total() > 0);
    assert_eq!(snap.signals_sent_total(), snap.signals_received_total());
}
