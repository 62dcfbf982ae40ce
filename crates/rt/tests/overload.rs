//! Overload is defined: a burst larger than a connection's writer queue
//! makes the actor wait, never discard, and a peer that stops reading
//! costs its own connection and nothing else.

use ipmedia_core::boxes::GoalSpec;
use ipmedia_core::endpoint::{CallerLogic, EndpointLogic, RelayLogic};
use ipmedia_core::goal::{AcceptMode, EndpointPolicy, UserCmd};
use ipmedia_core::ids::SlotId;
use ipmedia_core::monitor::Monitor;
use ipmedia_core::program::{AppLogic, BoxInput, Ctx, TimerId};
use ipmedia_core::signal::{AppEvent, MetaSignal};
use ipmedia_core::{BoxId, MediaAddr, Medium, SlotState};
use ipmedia_obs::{Clock, ObsEvent, RecordingObserver, WallClock};
use ipmedia_rt::{
    spawn_node, wire, Directory, Frame, Framed, NodeOptions, NodeSnapshot, ReconnectPolicy,
};
use std::sync::Arc;
use tokio::net::{TcpListener, TcpStream};
use tokio::time::{timeout, Duration, Instant};

const WAIT: Duration = Duration::from_secs(20);

fn addr(h: u8) -> MediaAddr {
    MediaAddr::v4(10, 0, 0, h, 4000)
}

fn callee_logic() -> Box<dyn AppLogic> {
    Box::new(EndpointLogic::resource(EndpointPolicy::audio(addr(2))))
}

fn count(s: &NodeSnapshot, state: SlotState) -> usize {
    s.slots.iter().filter(|sl| sl.state == state).count()
}

/// `channels × tunnels` calls, directly or through a flowlinking gateway,
/// closed and re-opened all at once for 20 waves: on one channel every
/// burst is several times the 64-frame writer queue, on several the calls
/// interleave in the callee's one inbox.
async fn waves(channels: u16, tunnels: u16, via_gateway: bool) {
    let n = usize::from(channels * tunnels);
    let dir = Directory::new();
    let clock: Arc<dyn Clock + Send + Sync> = Arc::new(WallClock::new());
    let mut logs = Vec::new();
    // Each node's options: an observer recording into `logs`.
    let mut recorded = || {
        let rec = RecordingObserver::new(clock.clone());
        logs.push(rec.log());
        NodeOptions {
            observer: Box::new(rec),
            ..NodeOptions::default()
        }
    };

    let mut callee = spawn_node("callee", BoxId(3), callee_logic(), dir.clone(), recorded())
        .await
        .unwrap();
    let mut gateway = None;
    if via_gateway {
        let logic = Box::new(RelayLogic::new("callee"));
        let node = spawn_node("gateway", BoxId(2), logic, dir.clone(), recorded());
        gateway = Some(node.await.unwrap());
    }
    let target = if via_gateway { "gateway" } else { "callee" };
    let dialer = CallerLogic::new(EndpointPolicy::audio(addr(1)), target, channels, tunnels);
    let mut caller = spawn_node("caller", BoxId(1), Box::new(dialer), dir, recorded())
        .await
        .unwrap();

    assert!(
        caller
            .wait_for(WAIT, |s| count(s, SlotState::Flowing) == n)
            .await,
        "{n} calls establish"
    );
    let slots: Vec<SlotId> = caller
        .snapshot
        .borrow()
        .slots
        .iter()
        .map(|s| s.slot)
        .collect();
    for wave in 0..20 {
        for &slot in &slots {
            caller.user(slot, UserCmd::Close).await;
        }
        assert!(
            caller
                .wait_for(WAIT, |s| count(s, SlotState::Closed) == n)
                .await,
            "wave {wave}: all closed"
        );
        for &slot in &slots {
            caller.user(slot, UserCmd::Open(Medium::Audio)).await;
        }
        assert!(
            caller
                .wait_for(WAIT, |s| count(s, SlotState::Flowing) == n)
                .await,
            "wave {wave}: all flowing again"
        );
    }
    // The far end and the gateway settle too before the logs are judged.
    assert!(
        callee
            .wait_for(WAIT, |s| count(s, SlotState::Flowing) == n)
            .await
    );
    if let Some(g) = &mut gateway {
        assert!(
            g.wait_for(WAIT, |s| count(s, SlotState::Flowing) == 2 * n)
                .await
        );
    }

    for node in [Some(&caller), gateway.as_ref(), Some(&callee)]
        .into_iter()
        .flatten()
    {
        let m = node.registry().snapshot();
        assert_eq!(
            m.faults_total(),
            0,
            "{}: nothing shed, nothing lost",
            node.name
        );
        assert_eq!(m.retransmissions, 0, "{}", node.name);
    }
    // One open per call per establishment: the first and one per wave.
    let m = caller.registry().snapshot();
    assert_eq!(m.sent("open"), n as u64 * 21, "caller opens");
    // And each establishment timed, as one observation of some length.
    assert_eq!(m.call_setup_us.total(), n as u64 * 21, "caller setups");
    assert!(m.call_setup_us.sum > 0, "setups take time");

    let mut log: Vec<(u64, ObsEvent)> = Vec::new();
    for l in &logs {
        log.extend(l.lock().unwrap().iter().cloned());
    }
    log.sort_by_key(|(t, _)| *t);
    // The gateway's flowlinks are learned from its own goal events.
    let mut monitor = Monitor::new();
    monitor.ingest_all(&log);
    monitor.check_quiescent(clock.now_micros());
    assert!(monitor.is_clean(), "{:#?}", monitor.findings());

    caller.shutdown().await;
    if let Some(g) = gateway {
        g.shutdown().await;
    }
    callee.shutdown().await;
}

#[tokio::test]
async fn sixty_four_calls_on_one_channel_survive_waves() {
    waves(1, 64, false).await;
}

#[tokio::test]
async fn twenty_four_calls_through_a_gateway_survive_waves() {
    waves(1, 24, true).await;
}

#[tokio::test]
async fn thirty_two_calls_over_eight_channels_survive_waves() {
    waves(8, 4, false).await;
}

const PUMP: TimerId = TimerId(7);

/// Opens a channel to `stalled` and one to `phone`; every [`PUMP`] timer
/// puts a burst of meta-signals on the first.
struct Pump {
    stalled: Option<ipmedia_core::ids::ChannelId>,
}

impl AppLogic for Pump {
    fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
        match input {
            BoxInput::Start => {
                ctx.open_channel("stalled", 1, 1);
                ctx.open_channel("phone", 1, 2);
            }
            BoxInput::ChannelUp {
                channel,
                req: Some(1),
                ..
            } => self.stalled = Some(*channel),
            BoxInput::ChannelUp {
                slots,
                req: Some(2),
                ..
            } => ctx.set_goal(GoalSpec::User {
                slot: slots[0],
                policy: EndpointPolicy::audio(addr(1)),
                mode: AcceptMode::Auto,
            }),
            BoxInput::ChannelDown { channel } if self.stalled == Some(*channel) => {
                self.stalled = None;
            }
            BoxInput::Timer(PUMP) => {
                for _ in 0..1000 {
                    if let Some(channel) = self.stalled {
                        let event = AppEvent::Custom("pump".into());
                        ctx.send_meta(channel, MetaSignal::App(event));
                    }
                }
            }
            _ => {}
        }
    }
}

/// A peer that takes the hello and never reads again fills its socket,
/// then the writer queue; the actor waits for room, the send timeout
/// declares the connection dead, and the node carries on.
#[tokio::test]
async fn a_stalled_peer_costs_its_connection_and_nothing_else() {
    let dir = Directory::new();
    let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
    dir.register("stalled", listener.local_addr().unwrap());
    let stalled = tokio::spawn(async move {
        let (sock, _) = listener.accept().await.unwrap();
        let mut framed = Framed::new(sock);
        let hello = framed.read_frame().await.unwrap().expect("hello frame");
        let (_, hello) = wire::decode_tagged(hello).unwrap();
        assert!(matches!(hello, Frame::Hello(_)));
        // Held open, never read: returned so that it outlives the test body.
        (framed, listener)
    });
    let mut phone = spawn_node(
        "phone",
        BoxId(2),
        callee_logic(),
        dir.clone(),
        NodeOptions::default(),
    )
    .await
    .unwrap();

    let policy = ReconnectPolicy {
        // Zero: a dead connection is torn down, not re-dialed.
        reconnect_attempts: 0,
        send_timeout: Duration::from_millis(200),
        ..ReconnectPolicy::default()
    };
    let logic = Box::new(Pump { stalled: None });
    let mut node = spawn_node(
        "pump",
        BoxId(1),
        logic,
        dir,
        NodeOptions {
            policy,
            ..NodeOptions::default()
        },
    )
    .await
    .unwrap();
    assert!(node.wait_for(WAIT, |s| s.channels == 2).await);
    let _held = stalled.await.unwrap();

    let deadline = Instant::now() + WAIT;
    while node.snapshot.borrow().channels == 2 {
        assert!(Instant::now() < deadline, "the stalled channel never died");
        node.inject(BoxInput::Timer(PUMP)).await;
    }
    let m = node.registry().snapshot();
    assert!(m.writer_wait_us.total() >= 1, "the actor waited for room");
    assert_eq!(m.faults_total(), 0, "nothing was discarded");

    // The other channel is untouched: a call on it completes.
    let slot = node
        .snapshot
        .borrow()
        .slots
        .last()
        .expect("phone slot")
        .slot;
    node.user(slot, UserCmd::Open(Medium::Audio)).await;
    let flowing = |s: &NodeSnapshot| count(s, SlotState::Flowing) == 1;
    assert!(
        node.wait_for(WAIT, flowing).await,
        "call on the live channel"
    );
    assert!(phone.wait_for(WAIT, flowing).await);

    node.shutdown().await;
    phone.shutdown().await;
}

/// A peer that connects and never says hello is hung up on after the send
/// timeout, and the node goes on taking calls.
#[tokio::test]
async fn a_silent_opener_is_hung_up_on() {
    let dir = Directory::new();
    let policy = ReconnectPolicy {
        send_timeout: Duration::from_millis(200),
        ..ReconnectPolicy::default()
    };
    let mut phone = spawn_node(
        "phone",
        BoxId(2),
        callee_logic(),
        dir.clone(),
        NodeOptions {
            policy,
            ..NodeOptions::default()
        },
    )
    .await
    .unwrap();

    let mut silent = Framed::new(TcpStream::connect(phone.addr).await.unwrap());
    let end = timeout(Duration::from_secs(2), silent.read_frame()).await;
    assert!(matches!(end, Ok(Ok(None))), "no EOF in 2 s: {end:?}");

    let dialer = CallerLogic::new(EndpointPolicy::audio(addr(1)), "phone", 1, 1);
    let mut caller = spawn_node(
        "caller",
        BoxId(1),
        Box::new(dialer),
        dir,
        NodeOptions::default(),
    )
    .await
    .unwrap();
    let flowing = |s: &NodeSnapshot| count(s, SlotState::Flowing) == 1;
    assert!(
        caller.wait_for(WAIT, flowing).await,
        "call after the opener"
    );
    assert!(phone.wait_for(WAIT, flowing).await);

    caller.shutdown().await;
    phone.shutdown().await;
}
