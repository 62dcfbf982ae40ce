//! Quickstart: two phones, one application server, one audio call.
//!
//! Demonstrates the library's core loop: build a network of boxes, put the
//! server's two slots under a `flowLink`, let a phone open an audio
//! channel, and watch the compositional protocol negotiate media flow
//! directly between the endpoints — the media packets never touch the
//! server (paper §I, Fig. 1).
//!
//! Run with: `cargo run --example quickstart`

use ipmedia::core::boxes::GoalSpec;
use ipmedia::core::endpoint::{EndpointLogic, NullLogic};
use ipmedia::core::goal::{EndpointPolicy, UserCmd};
use ipmedia::core::path::PathEnds;
use ipmedia::core::{MediaAddr, Medium};
use ipmedia::netsim::{Network, SimConfig, SimTime};

fn main() {
    // A network with the paper's timing: 34 ms network latency, 20 ms
    // per-box compute cost (§VIII-C).
    let mut net = Network::new(SimConfig::paper());

    // Two genuine media endpoints; they auto-accept incoming channels.
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
    // An application server between them (it has no logic of its own here;
    // we drive its goal annotations directly).
    let server = net.add_box("server", Box::new(NullLogic));

    // Signaling channels: alice—server and server—bob, one tunnel each.
    let (_, alice_slots, srv_a) = net.connect(alice, server, 1);
    let (_, srv_b, bob_slots) = net.connect(server, bob, 1);
    net.run_until_quiescent(SimTime(10_000_000));

    // The server flowlinks its two slots: from now on the two tunnels form
    // one signaling path, transparently.
    let (a, b) = (srv_a[0], srv_b[0]);
    net.set_goal(server, [GoalSpec::Link { a, b }]);
    net.run_until_quiescent(SimTime(10_000_000));

    // Alice picks up and opens an audio channel.
    let t0 = net.now();
    net.user(alice, alice_slots[0], UserCmd::Open(Medium::Audio));
    net.run_until_quiescent(SimTime(10_000_000));

    // Inspect the path endpoints: Alice's slot and Bob's slot.
    let sa = net.media(alice).slot(alice_slots[0]).unwrap();
    let sb = net.media(bob).slot(bob_slots[0]).unwrap();
    let ends = PathEnds::new(sa, sb);

    println!("call setup completed in {}", net.now() - t0);
    println!("path state: bothFlowing = {}", ends.both_flowing());
    let (to, codec) = sa.tx_route().expect("alice transmits");
    println!("alice sends {codec} directly to {to}");
    let (to, codec) = sb.tx_route().expect("bob transmits");
    println!("bob   sends {codec} directly to {to}");

    assert!(ends.both_flowing());
    println!("\nnote: media flows endpoint-to-endpoint; the server only saw signaling.");
}
