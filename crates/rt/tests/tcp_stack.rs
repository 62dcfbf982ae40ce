//! End-to-end tests of the tokio runtime: real TCP signaling channels
//! between boxes running the same state machines as the simulator.

use ipmedia_core::endpoint::{CallerLogic, EndpointLogic, RelayLogic};
use ipmedia_core::goal::{EndpointPolicy, UserCmd};
use ipmedia_core::ids::{ChannelId, SlotId};
use ipmedia_core::program::{AppLogic, BoxInput, Ctx};
use ipmedia_core::{Availability, BoxId, Codec, MediaAddr, MetaSignal, SlotState};
use ipmedia_obs::{
    prometheus_text, Clock, MetricsSnapshot, ObsEvent, RecordingObserver, WallClock,
};
use ipmedia_rt::{
    backoff_delays, jitter_seed, spawn_node, Directory, NodeOptions, ReconnectPolicy,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use tokio::time::Duration;

fn addr(h: u8) -> MediaAddr {
    MediaAddr::v4(10, 0, 0, h, 4000)
}

fn phone(h: u8) -> Box<EndpointLogic> {
    Box::new(EndpointLogic::resource(EndpointPolicy::audio(addr(h))))
}

fn dialer(target: &str, tunnels: u16) -> Box<CallerLogic> {
    Box::new(CallerLogic::new(
        EndpointPolicy::audio(addr(1)),
        target,
        1,
        tunnels,
    ))
}

const WAIT: Duration = Duration::from_secs(10);

#[tokio::test]
async fn direct_call_over_tcp() {
    let dir = Directory::new();
    let mut callee = spawn_node(
        "phone-b",
        BoxId(2),
        phone(2),
        dir.clone(),
        NodeOptions::default(),
    )
    .await
    .unwrap();
    let mut caller = spawn_node(
        "phone-a",
        BoxId(1),
        dialer("phone-b", 1),
        dir.clone(),
        NodeOptions::default(),
    )
    .await
    .unwrap();

    let ok = caller
        .wait_for(WAIT, |s| {
            s.slots
                .iter()
                .any(|sl| sl.state == SlotState::Flowing && sl.tx_route.is_some())
        })
        .await;
    assert!(ok, "caller reaches flowing with a media route");
    let ok = callee
        .wait_for(WAIT, |s| {
            s.slots
                .iter()
                .any(|sl| sl.tx_route == Some((addr(1), Codec::G711)))
        })
        .await;
    assert!(
        ok,
        "callee transmits toward the caller's descriptor address"
    );

    // The node's metrics are read from its registry: the caller sent one
    // open, received its answers, and timed one dial and one call. The
    // callee's select is the last thing the caller hears, so once that
    // stimulus is timed the registry has stopped moving.
    let registry = caller.registry();
    let settled = |m: &MetricsSnapshot| {
        m.received("select") == 1 && m.stimulus_compute_us.total() == m.stimuli
    };
    assert!(
        caller
            .wait_for(WAIT, |_| settled(&registry.snapshot()))
            .await
    );
    let m = registry.snapshot();
    assert_eq!(m.sent("open"), 1);
    assert!(m.signals_received_total() > 0);
    assert!(m.stimuli > 0);
    assert_eq!(m.tunnel_setup_ms.total(), 1);
    assert_eq!(m.call_setup_us.total(), 1);
    let text = prometheus_text(&m);
    assert!(text.contains("ipmedia_signals_sent_total{kind=\"open\"} 1"));
    assert!(text.contains("ipmedia_tunnel_setup_ms_count 1"));

    caller.shutdown().await;
    callee.shutdown().await;
}

#[tokio::test]
async fn spawned_observer_sees_structural_events() {
    // A caller-supplied observer receives the same event stream the
    // metrics registry counts, with wall-clock timestamps.
    let dir = Directory::new();
    let callee = spawn_node(
        "phone-b",
        BoxId(2),
        phone(2),
        dir.clone(),
        NodeOptions::default(),
    )
    .await
    .unwrap();
    let clock = Arc::new(WallClock::new());
    let rec = RecordingObserver::new(clock.clone() as Arc<dyn Clock + Send + Sync>);
    let log = rec.log();
    let mut caller = spawn_node(
        "phone-a",
        BoxId(1),
        dialer("phone-b", 1),
        dir.clone(),
        NodeOptions {
            observer: Box::new(rec),
            ..NodeOptions::default()
        },
    )
    .await
    .unwrap();
    assert!(
        caller
            .wait_for(WAIT, |s| s
                .slots
                .iter()
                .any(|sl| sl.state == SlotState::Flowing))
            .await
    );
    let events = log.lock().unwrap().clone();
    assert!(events
        .iter()
        .any(|(_, e)| matches!(e, ObsEvent::SignalSent { kind: "open", .. })));
    assert!(events
        .iter()
        .any(|(_, e)| matches!(e, ObsEvent::SlotTransition { to: "flowing", .. })));
    let now = clock.now_micros();
    assert!(events.iter().all(|(t, _)| *t <= now));

    // A user command the protocol rejects (no such slot) is reported, not
    // lost — and the node carries on.
    let registry = caller.registry();
    let ignored = registry.snapshot().signals_ignored;
    caller.user(SlotId(99), UserCmd::Close).await;
    assert!(
        caller
            .wait_for(WAIT, |_| registry.snapshot().signals_ignored == ignored + 1)
            .await
    );
    assert!(log.lock().unwrap().iter().any(|(_, e)| matches!(
        e,
        ObsEvent::SignalIgnored {
            slot: 99,
            reason: "user_rejected",
            ..
        }
    )));
    caller.shutdown().await;
    callee.shutdown().await;
}

#[tokio::test]
async fn call_through_gateway_server_over_tcp() {
    // Caller → gateway (flowlink) → callee: three OS processes' worth of
    // sockets, one transparent media path.
    let dir = Directory::new();
    let mut callee = spawn_node(
        "phone-c",
        BoxId(3),
        phone(3),
        dir.clone(),
        NodeOptions::default(),
    )
    .await
    .unwrap();
    let _gw = spawn_node(
        "gateway",
        BoxId(2),
        Box::new(RelayLogic::new("phone-c")),
        dir.clone(),
        NodeOptions::default(),
    )
    .await
    .unwrap();
    let mut caller = spawn_node(
        "phone-a",
        BoxId(1),
        dialer("gateway", 1),
        dir.clone(),
        NodeOptions::default(),
    )
    .await
    .unwrap();

    let ok = caller
        .wait_for(WAIT, |s| {
            s.slots
                .iter()
                .any(|sl| sl.tx_route == Some((addr(3), Codec::G711)))
        })
        .await;
    assert!(ok, "caller's media route points directly at the callee");
    let ok = callee
        .wait_for(WAIT, |s| {
            s.slots
                .iter()
                .any(|sl| sl.tx_route == Some((addr(1), Codec::G711)))
        })
        .await;
    assert!(ok, "callee's media route points directly at the caller");

    caller.shutdown().await;
    callee.shutdown().await;
}

#[tokio::test]
async fn dialing_unknown_box_reports_unavailable() {
    struct Probe {
        outcome: std::sync::Arc<std::sync::Mutex<Option<bool>>>,
    }
    impl AppLogic for Probe {
        fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
            match input {
                BoxInput::Start => ctx.open_channel("nobody", 1, 1),
                BoxInput::Meta {
                    channel,
                    meta: ipmedia_core::MetaSignal::Peer(av),
                } => {
                    *self.outcome.lock().unwrap() =
                        Some(matches!(av, ipmedia_core::Availability::Available));
                    ctx.close_channel(*channel);
                }
                _ => {}
            }
        }
    }
    let outcome = std::sync::Arc::new(std::sync::Mutex::new(None));
    let dir = Directory::new();
    let node = spawn_node(
        "probe",
        BoxId(1),
        Box::new(Probe {
            outcome: outcome.clone(),
        }),
        dir,
        NodeOptions::default(),
    )
    .await
    .unwrap();
    tokio::time::timeout(WAIT, async {
        loop {
            if outcome.lock().unwrap().is_some() {
                break;
            }
            tokio::time::sleep(Duration::from_millis(20)).await;
        }
    })
    .await
    .expect("availability reported");
    assert_eq!(*outcome.lock().unwrap(), Some(false));
    node.shutdown().await;
}

#[tokio::test]
async fn user_close_tears_down_over_tcp() {
    let dir = Directory::new();
    let mut callee = spawn_node(
        "phone-b",
        BoxId(2),
        phone(2),
        dir.clone(),
        NodeOptions::default(),
    )
    .await
    .unwrap();
    let mut caller = spawn_node(
        "phone-a",
        BoxId(1),
        dialer("phone-b", 1),
        dir.clone(),
        NodeOptions::default(),
    )
    .await
    .unwrap();
    assert!(
        caller
            .wait_for(WAIT, |s| s
                .slots
                .iter()
                .any(|sl| sl.state == SlotState::Flowing))
            .await
    );
    let slot = caller.snapshot.borrow().slots[0].slot;
    caller.user(slot, UserCmd::Close).await;
    assert!(
        caller
            .wait_for(WAIT, |s| s
                .slots
                .iter()
                .all(|sl| sl.state == SlotState::Closed))
            .await,
        "caller side closed"
    );
    assert!(
        callee
            .wait_for(WAIT, |s| s
                .slots
                .iter()
                .all(|sl| sl.state == SlotState::Closed))
            .await,
        "callee side closed"
    );
    caller.shutdown().await;
    callee.shutdown().await;
}

#[tokio::test]
async fn graceful_shutdown_closes_peer_channel() {
    let dir = Directory::new();
    let mut callee = spawn_node(
        "phone-b",
        BoxId(2),
        phone(2),
        dir.clone(),
        NodeOptions::default(),
    )
    .await
    .unwrap();
    let mut caller = spawn_node(
        "phone-a",
        BoxId(1),
        dialer("phone-b", 1),
        dir.clone(),
        NodeOptions::default(),
    )
    .await
    .unwrap();
    assert!(
        caller
            .wait_for(WAIT, |s| s
                .slots
                .iter()
                .any(|sl| sl.state == SlotState::Flowing))
            .await
    );
    // Shut the caller down: the callee must observe channel teardown (its
    // slots disappear with the channel).
    caller.shutdown().await;
    assert!(
        callee.wait_for(WAIT, |s| s.channels == 0).await,
        "callee saw the Bye and dropped the channel"
    );
    callee.shutdown().await;
}

/// A node's handle applies its commands in the order they were sent, and
/// `shutdown` is one of them: closes queued ahead of it all go out before
/// the node says Bye.
#[tokio::test]
async fn shutdown_applies_the_commands_queued_before_it() {
    const CALLS: u16 = 8;
    let dir = Directory::new();
    let mut callee = spawn_node(
        "phone-b",
        BoxId(2),
        phone(2),
        dir.clone(),
        NodeOptions::default(),
    )
    .await
    .unwrap();
    let mut caller = spawn_node(
        "phone-a",
        BoxId(1),
        dialer("phone-b", CALLS),
        dir.clone(),
        NodeOptions::default(),
    )
    .await
    .unwrap();
    let all_flowing = |s: &ipmedia_rt::NodeSnapshot| {
        s.slots
            .iter()
            .filter(|sl| sl.state == SlotState::Flowing)
            .count()
            == usize::from(CALLS)
    };
    assert!(caller.wait_for(WAIT, all_flowing).await);
    assert!(callee.wait_for(WAIT, all_flowing).await);

    let registry = caller.registry();
    let slots: Vec<SlotId> = caller
        .snapshot
        .borrow()
        .slots
        .iter()
        .map(|sl| sl.slot)
        .collect();
    for slot in slots {
        caller.user(slot, UserCmd::Close).await;
    }
    caller.shutdown().await;
    assert_eq!(registry.snapshot().sent("close"), u64::from(CALLS));
    callee.shutdown().await;
}

/// A dial runs beside the node, not inside it: while one target refuses
/// every connect and the dial backs off between attempts, the node goes
/// on with its other work, here a second dial in the same `Start`.
#[tokio::test]
async fn a_dial_in_flight_holds_up_nothing_else() {
    type Outcomes = Arc<Mutex<Vec<(u32, bool)>>>;
    /// Dials "ghost" (tag 1), then "callee" (tag 2), and records each
    /// dial's tag with the availability its channel reported.
    struct TwoDials {
        tags: HashMap<ChannelId, u32>,
        outcomes: Outcomes,
    }
    impl AppLogic for TwoDials {
        fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
            match input {
                BoxInput::Start => {
                    ctx.open_channel("ghost", 1, 1);
                    ctx.open_channel("callee", 1, 2);
                }
                BoxInput::ChannelUp {
                    channel,
                    req: Some(tag),
                    ..
                } => {
                    self.tags.insert(*channel, *tag);
                }
                BoxInput::Meta {
                    channel,
                    meta: MetaSignal::Peer(av),
                } => {
                    let up = matches!(av, Availability::Available);
                    self.outcomes.lock().unwrap().push((self.tags[channel], up));
                }
                _ => {}
            }
        }
    }

    let policy = ReconnectPolicy {
        connect_attempts: 6,
        base_delay: Duration::from_millis(100),
        ..ReconnectPolicy::default()
    };
    // The sleeps between the six attempts of the node's connection to
    // "ghost".
    let planned: Duration = backoff_delays(&policy, jitter_seed("two-dials", "ghost"), 6)[..5]
        .iter()
        .sum();
    assert!(planned > Duration::from_secs(1), "planned {planned:?}");

    // "ghost" resolves, but nothing listens there: every connect is
    // refused at once.
    let dir = Directory::new();
    let gone = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    dir.register("ghost", gone.local_addr().unwrap());
    drop(gone);
    let mut callee = spawn_node(
        "callee",
        BoxId(2),
        phone(2),
        dir.clone(),
        NodeOptions::default(),
    )
    .await
    .unwrap();
    let outcomes = Outcomes::default();
    let mut node = spawn_node(
        "two-dials",
        BoxId(1),
        Box::new(TwoDials {
            tags: HashMap::new(),
            outcomes: outcomes.clone(),
        }),
        dir,
        NodeOptions {
            policy,
            ..NodeOptions::default()
        },
    )
    .await
    .unwrap();

    let t0 = std::time::Instant::now();
    assert!(
        callee.wait_for(planned / 4, |s| s.channels == 1).await,
        "the callee's channel waited {:?} behind the ghost's backoff",
        t0.elapsed()
    );
    // The ghost's dial still runs its course and leaves a half-open
    // channel that reports its peer unavailable.
    assert!(node.wait_for(WAIT, |s| s.channels == 2).await);
    let mut seen = outcomes.lock().unwrap().clone();
    seen.sort();
    assert_eq!(seen, [(1, false), (2, true)]);

    node.shutdown().await;
    callee.shutdown().await;
}

/// A dial task outlives nothing: once its node has shut down, a dial
/// still backing off makes no further attempt, so no peer accepts a
/// channel from a node that is gone.
#[tokio::test]
async fn a_node_that_shut_down_dials_no_more() {
    struct DialsGhost;
    impl AppLogic for DialsGhost {
        fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
            if let BoxInput::Start = input {
                ctx.open_channel("ghost", 1, 1);
            }
        }
    }
    let dir = Directory::new();
    let gone = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    dir.register("ghost", gone.local_addr().unwrap());
    drop(gone);
    let policy = ReconnectPolicy {
        connect_attempts: 6,
        base_delay: Duration::from_millis(100),
        ..ReconnectPolicy::default()
    };
    let node = spawn_node(
        "dials-ghost",
        BoxId(1),
        Box::new(DialsGhost),
        dir.clone(),
        NodeOptions {
            policy,
            ..NodeOptions::default()
        },
    )
    .await
    .unwrap();
    node.shutdown().await;
    // The ghost comes up while the dial would still be backing off.
    let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
    dir.register("ghost", listener.local_addr().unwrap());
    let planned: Duration = backoff_delays(&policy, jitter_seed("dials-ghost", "ghost"), 6)[..5]
        .iter()
        .sum();
    let dialed = tokio::time::timeout(planned, listener.accept()).await;
    assert!(dialed.is_err(), "a node that shut down dialed again");
}
