//! Connection-fault recovery over real TCP: the runtime counterparts of
//! the simulator's fault-injection tests. The test plays the peer with a
//! raw listener so it can kill connections without a Bye and watch what
//! the node retransmits after reconnecting.

use ipmedia_core::endpoint::{CallerLogic, EndpointLogic};
use ipmedia_core::goal::{EndpointPolicy, UserCmd};
use ipmedia_core::signal::{ChannelMsg, Signal};
use ipmedia_core::{BoxId, MediaAddr, Medium, SlotState};
use ipmedia_rt::{
    backoff_delays, jitter_seed, spawn_node, wire, Directory, Frame, Framed, NodeOptions,
    ReconnectPolicy,
};
use tokio::net::{TcpListener, TcpStream};
use tokio::time::Duration;

const WAIT: Duration = Duration::from_secs(10);

fn addr(h: u8) -> MediaAddr {
    MediaAddr::v4(10, 0, 0, h, 4000)
}

fn dialer(target: &str) -> Box<CallerLogic> {
    Box::new(CallerLogic::new(
        EndpointPolicy::audio(addr(1)),
        target,
        1,
        1,
    ))
}

fn fast_policy(reconnect_attempts: u32) -> ReconnectPolicy {
    ReconnectPolicy {
        connect_attempts: 3,
        reconnect_attempts,
        base_delay: Duration::from_millis(20),
        max_delay: Duration::from_millis(100),
        send_timeout: Duration::from_secs(2),
    }
}

/// Accept one connection and return it with its Hello consumed: the
/// node's one channel, tagged with its channel id 0.
async fn accept_peer(listener: &TcpListener) -> Framed<TcpStream> {
    let (sock, _) = listener.accept().await.unwrap();
    let mut framed = Framed::new(sock);
    let bytes = framed.read_frame().await.unwrap().expect("hello frame");
    assert!(matches!(
        wire::decode_tagged(bytes).unwrap(),
        (0, Frame::Hello(_))
    ));
    framed
}

/// Read frames until a tunnel signal shows up; return it.
async fn next_signal(framed: &mut Framed<TcpStream>) -> Signal {
    loop {
        let bytes = framed.read_frame().await.unwrap().expect("open connection");
        let (_, frame) = wire::decode_tagged(bytes).unwrap();
        if let Frame::Msg(ChannelMsg::Tunnel { signal, .. }) = frame {
            return signal;
        }
    }
}

/// Full-jitter backoff: every delay is bounded by the capped-doubling
/// envelope, the stream is seeded-deterministic, and distinct nodes
/// reconnecting after the same partition heal draw distinct spacings
/// (no stampede in lockstep).
#[test]
fn backoff_full_jitter_is_bounded_and_seeded_deterministic() {
    let policy = fast_policy(8);
    let seed = jitter_seed("caller", 0);
    let a = backoff_delays(&policy, seed, 8);
    let b = backoff_delays(&policy, seed, 8);
    assert_eq!(a, b, "same seed, same delay sequence");
    assert_eq!(a.len(), 8);
    for (i, d) in a.iter().enumerate() {
        let cap = (policy.base_delay * 2u32.pow(i as u32)).min(policy.max_delay);
        assert!(*d <= cap, "attempt {i}: {d:?} exceeds its cap {cap:?}");
    }
    // Two nodes healing off the same partition must not share a stream.
    let other = backoff_delays(&policy, jitter_seed("callee", 0), 8);
    assert_ne!(a, other, "distinct nodes draw distinct jitter");
    // Distinct channels of one node decorrelate too.
    let other_ch = backoff_delays(&policy, jitter_seed("caller", 1), 8);
    assert_ne!(a, other_ch, "distinct channels draw distinct jitter");
}

#[tokio::test]
async fn connection_loss_parks_slot_and_reconnect_retransmits() {
    let dir = Directory::new();
    let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
    dir.register("flaky", listener.local_addr().unwrap());
    let mut node = spawn_node(
        "caller",
        BoxId(1),
        dialer("flaky"),
        dir.clone(),
        NodeOptions {
            policy: fast_policy(20),
            ..NodeOptions::default()
        },
    )
    .await
    .unwrap();

    // First life of the connection: hello, then the slot's Open arrives.
    let mut peer = accept_peer(&listener).await;
    assert!(matches!(next_signal(&mut peer).await, Signal::Open { .. }));

    // Kill the connection without a Bye and take the listener down too:
    // the next few re-dial attempts must fail and back off.
    drop(peer);
    drop(listener);

    // The slot parks — still present, state retained, nothing panics.
    assert!(
        node.wait_for(WAIT, |s| s.recovering == 1).await,
        "node notices the dead connection and starts recovering"
    );
    {
        let snap = node.snapshot.borrow();
        assert_eq!(snap.channels, 1, "parked channel is not torn down");
        assert!(
            snap.slots.iter().any(|sl| sl.state == SlotState::Opening),
            "parked slot keeps its protocol state"
        );
    }

    // The peer comes back under the same name at a NEW address (the
    // re-dial looks the directory up again on every attempt).
    let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
    dir.register("flaky", listener.local_addr().unwrap());
    let mut peer = accept_peer(&listener).await;

    // Idempotent recovery: the parked Opening slot's Open is
    // retransmitted over the new pipe, unchanged.
    assert!(matches!(next_signal(&mut peer).await, Signal::Open { .. }));
    assert!(
        node.wait_for(WAIT, |s| s.recovering == 0 && s.channels == 1)
            .await,
        "channel recovers under its original id"
    );

    let m = node.registry().snapshot();
    assert!(m.faults("other") >= 2, "disconnect + reconnect observed");
    assert!(m.retransmissions >= 1, "recovery retransmitted the open");
    assert!(m.recoveries >= 1);
    assert_eq!(m.recovery_latency_ms.total(), m.recoveries);

    node.shutdown().await;
}

/// A node that crashes (no Bye, no cleanup) leaves its stale address in
/// the name directory. The fix is twofold: a re-spawned instance
/// re-registers under the same name, overwriting the stale entry, and
/// `Directory::deregister` is address-guarded so a late cleanup of the
/// dead instance can never clobber its replacement. The peer's per-attempt
/// directory lookup then lands on the new address, the channel recovers,
/// and a new call flows over it.
#[tokio::test]
async fn crash_restart_reregisters_and_peer_recovers() {
    let dir = Directory::new();

    // First life of the callee: a real node answering calls.
    let callee = spawn_node(
        "callee",
        BoxId(2),
        Box::new(EndpointLogic::resource(EndpointPolicy::audio(addr(2)))),
        dir.clone(),
        NodeOptions::default(),
    )
    .await
    .unwrap();
    let addr1 = callee.addr;
    assert_eq!(dir.lookup("callee"), Some(addr1));

    let mut caller = spawn_node(
        "caller",
        BoxId(1),
        dialer("callee"),
        dir.clone(),
        NodeOptions {
            policy: fast_policy(40),
            ..NodeOptions::default()
        },
    )
    .await
    .unwrap();
    assert!(
        caller
            .wait_for(WAIT, |s| {
                s.slots.iter().any(|sl| sl.state == SlotState::Flowing)
            })
            .await,
        "call reaches Flowing before the crash"
    );

    // Crash the callee: no Bye, no directory cleanup — the stale address
    // stays resolvable, which is exactly the bug's precondition.
    callee.abort();
    assert_eq!(
        dir.lookup("callee"),
        Some(addr1),
        "crash leaves a stale directory entry behind"
    );

    // Nudge the call so the caller touches the dead connection: a mid-call
    // Modify writes a frame, the zombie peer's socket collapses, and the
    // caller parks the slot and starts re-dialing.
    let slot = caller.snapshot.borrow().slots[0].slot;
    caller
        .user(
            slot,
            UserCmd::Modify {
                mute_in: false,
                mute_out: true,
            },
        )
        .await;
    assert!(
        caller.wait_for(WAIT, |s| s.recovering == 1).await,
        "caller notices the crashed peer and parks the slot"
    );

    // Second life: a fresh instance under the same name re-registers and
    // overwrites the stale mapping.
    let mut callee2 = spawn_node(
        "callee",
        BoxId(2),
        Box::new(EndpointLogic::resource(EndpointPolicy::audio(addr(2)))),
        dir.clone(),
        NodeOptions::default(),
    )
    .await
    .unwrap();
    let addr2 = callee2.addr;
    assert_ne!(addr2, addr1, "restart binds a fresh address");
    assert_eq!(
        dir.lookup("callee"),
        Some(addr2),
        "restart overwrites the stale entry"
    );

    // The caller's per-attempt lookup finds the new address and the
    // channel comes back. The fresh instance holds no state for the old
    // call, so it refuses each signal of the §VI resync (oack, describe,
    // select) with a `close` and the caller's slot closes in order —
    // `Flowing` right after the reconnect is only the parked state, and
    // an open sent before the last refusal lands would be closed by it.
    let registry = caller.registry();
    assert!(
        caller
            .wait_for(WAIT, |s| {
                s.recovering == 0
                    && s.channels == 1
                    && s.slots[0].state == SlotState::Closed
                    && registry.snapshot().received("close") == 3
            })
            .await,
        "channel recovers against the restarted instance; the stale call is closed"
    );
    // A new call on the recovered channel flows at both ends.
    caller.user(slot, UserCmd::Open(Medium::Audio)).await;
    let flowing =
        |s: &ipmedia_rt::NodeSnapshot| s.slots.iter().any(|sl| sl.state == SlotState::Flowing);
    assert!(caller.wait_for(WAIT, flowing).await, "caller flows again");
    assert!(
        callee2.wait_for(WAIT, flowing).await,
        "restarted callee flows"
    );

    // Address-guarded cleanup: a late deregister from the dead first
    // instance is a no-op against the replacement's registration.
    dir.deregister("callee", addr1);
    assert_eq!(
        dir.lookup("callee"),
        Some(addr2),
        "stale deregister cannot clobber the replacement"
    );

    caller.shutdown().await;
    callee2.shutdown().await;
    assert_eq!(
        dir.lookup("callee"),
        None,
        "graceful shutdown removes its own registration"
    );
}

#[tokio::test]
async fn reconnect_exhaustion_degrades_to_orderly_teardown() {
    let dir = Directory::new();
    let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
    dir.register("flaky", listener.local_addr().unwrap());
    let mut node = spawn_node(
        "caller",
        BoxId(1),
        dialer("flaky"),
        dir.clone(),
        NodeOptions {
            policy: fast_policy(2),
            ..NodeOptions::default()
        },
    )
    .await
    .unwrap();

    let mut peer = accept_peer(&listener).await;
    assert!(matches!(next_signal(&mut peer).await, Signal::Open { .. }));

    // The peer is gone for good: after the bounded re-dial attempts the
    // node gives up and tears the channel down in order — ChannelDown to
    // the program, slots removed, no panic, no stuck recovering state.
    drop(peer);
    drop(listener);
    assert!(
        node.wait_for(WAIT, |s| {
            s.channels == 0 && s.recovering == 0 && s.slots.is_empty()
        })
        .await,
        "exhausted reconnection degrades to channel teardown"
    );

    node.shutdown().await;
}
