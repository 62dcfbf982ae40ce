//! A live call over real TCP sockets: three boxes as tokio tasks —
//! caller ([`CallerLogic`]), gateway server ([`RelayLogic`], which
//! flowlinks the legs), callee ([`EndpointLogic`]) — speaking the binary
//! wire protocol over loopback TCP. The same state machines the simulator
//! and the model checker execute, now on an actual network stack.
//!
//! Run with: `cargo run --example tcp_call`

use ipmedia::core::endpoint::{CallerLogic, EndpointLogic, RelayLogic};
use ipmedia::core::goal::{EndpointPolicy, UserCmd};
use ipmedia::core::{BoxId, MediaAddr, SlotState};
use ipmedia::rt::{spawn_node, Directory, NodeOptions};
use tokio::time::Duration;

#[tokio::main]
async fn main() -> std::io::Result<()> {
    let dir = Directory::new();

    let mut callee = spawn_node(
        "callee",
        BoxId(3),
        Box::new(EndpointLogic::resource(EndpointPolicy::audio(
            MediaAddr::v4(127, 0, 0, 1, 40020),
        ))),
        dir.clone(),
        NodeOptions::default(),
    )
    .await?;
    println!("callee listening on {}", callee.addr);

    let gateway = spawn_node(
        "gateway",
        BoxId(2),
        Box::new(RelayLogic::new("callee")),
        dir.clone(),
        NodeOptions::default(),
    )
    .await?;
    println!("gateway listening on {}", gateway.addr);

    let mut caller = spawn_node(
        "caller",
        BoxId(1),
        Box::new(CallerLogic::new(
            EndpointPolicy::audio(MediaAddr::v4(127, 0, 0, 1, 40010)),
            "gateway",
            1,
            1,
        )),
        dir.clone(),
        NodeOptions::default(),
    )
    .await?;
    println!("caller  listening on {}", caller.addr);

    let ok = caller
        .wait_for(Duration::from_secs(10), |snap| {
            snap.slots
                .iter()
                .any(|s| s.state == SlotState::Flowing && s.tx_route.is_some())
        })
        .await;
    assert!(ok, "caller must reach flowing");
    let snap = caller.snapshot.borrow().clone();
    let route = snap.slots[0].tx_route.unwrap();
    println!(
        "\ncall established over real TCP: caller sends {} to {}",
        route.1, route.0
    );

    let ok = callee
        .wait_for(Duration::from_secs(10), |snap| {
            snap.slots.iter().any(|s| s.tx_route.is_some())
        })
        .await;
    assert!(ok);
    let snap = callee.snapshot.borrow().clone();
    let route = snap.slots[0].tx_route.unwrap();
    println!("callee sends {} to {}", route.1, route.0);
    println!("media addresses were negotiated end-to-end through the gateway's flowlink.");

    // Hang up and shut everything down gracefully.
    let slot = caller.snapshot.borrow().slots[0].slot;
    caller.user(slot, UserCmd::Close).await;
    caller
        .wait_for(Duration::from_secs(5), |snap| {
            snap.slots.iter().all(|s| s.state == SlotState::Closed)
        })
        .await;
    println!("hung up; shutting down.");
    caller.shutdown().await;
    gateway.shutdown().await;
    callee.shutdown().await;
    Ok(())
}
