//! Channels share their peer's connection: every channel a node dials to
//! one box rides one TCP connection, the transport, each frame tagged with
//! its channel. A raw listener plays the far end where the test must see
//! the bytes, and a counting relay stands between two nodes where it must
//! see the connections.

use bytes::BytesMut;
use ipmedia_core::boxes::GoalSpec;
use ipmedia_core::endpoint::{CallerLogic, EndpointLogic};
use ipmedia_core::goal::{AcceptMode, EndpointPolicy, UserCmd};
use ipmedia_core::ids::ChannelId;
use ipmedia_core::program::{AppLogic, BoxInput, Ctx, TimerId};
use ipmedia_core::signal::{ChannelMsg, MetaSignal, Signal};
use ipmedia_core::{
    AppEvent, BoxId, Codec, DescTag, Descriptor, MediaAddr, Medium, SlotState, TunnelId,
};
use ipmedia_obs::{ObsEvent, Observer};
use ipmedia_rt::{
    put_frame, spawn_node, wire, ChaosGate, Directory, Frame, Framed, Hello, NodeOptions,
    NodeSnapshot, ReconnectPolicy, MAX_FRAME,
};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::{OwnedReadHalf, OwnedWriteHalf, TcpListener, TcpStream};
use tokio::time::{timeout, Duration};

const WAIT: Duration = Duration::from_secs(10);

/// How long a second connection gets to show up, were there one.
const QUIET: Duration = Duration::from_millis(300);

fn addr(h: u8) -> MediaAddr {
    MediaAddr::v4(10, 0, 0, h, 4000)
}

fn fast_policy() -> ReconnectPolicy {
    ReconnectPolicy {
        connect_attempts: 3,
        reconnect_attempts: 20,
        base_delay: Duration::from_millis(20),
        max_delay: Duration::from_millis(100),
        send_timeout: Duration::from_secs(2),
    }
}

/// A node dialing `channels` channels of one tunnel each to "peer", which
/// a raw listener answers.
async fn caller_of_raw_peer(channels: u16) -> (ipmedia_rt::NodeHandle, TcpListener) {
    let dir = Directory::new();
    let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
    dir.register("peer", listener.local_addr().unwrap());
    let logic = CallerLogic::new(EndpointPolicy::audio(addr(1)), "peer", channels, 1);
    let opts = NodeOptions {
        policy: fast_policy(),
        ..NodeOptions::default()
    };
    let node = spawn_node("caller", BoxId(1), Box::new(logic), dir, opts);
    (node.await.unwrap(), listener)
}

/// The next frame on a transport, with its channel's tag.
async fn next_frame(framed: &mut Framed<TcpStream>) -> (u32, Frame) {
    let read = timeout(WAIT, framed.read_frame())
        .await
        .expect("a frame in time");
    let bytes = read.unwrap().expect("the transport is open");
    wire::decode_tagged(bytes).unwrap()
}

/// Read a transport until `channels` channels have said hello and sent an
/// open; returns their tags in the order their hellos came.
async fn hellos_and_opens(framed: &mut Framed<TcpStream>, channels: u32) -> Vec<u32> {
    let (mut hellos, mut opens) = (Vec::new(), 0);
    while hellos.len() < channels as usize || opens < channels {
        match next_frame(framed).await {
            (tag, Frame::Hello(_)) => hellos.push(tag),
            (tag, Frame::Msg(ChannelMsg::Tunnel { signal, .. })) => {
                assert!(
                    hellos.contains(&tag),
                    "channel {tag} spoke before its hello"
                );
                opens += u32::from(matches!(signal, Signal::Open { .. }));
            }
            _ => {}
        }
    }
    hellos
}

/// (a) N first dials to one box leave on one connection, their hellos in
/// the order they were dialed.
#[tokio::test]
async fn first_dials_to_one_box_share_one_connection_in_dial_order() {
    const N: u16 = 6;
    let (mut node, listener) = caller_of_raw_peer(N).await;
    let (sock, _) = timeout(WAIT, listener.accept()).await.unwrap().unwrap();
    let mut peer = Framed::new(sock);
    let hellos = hellos_and_opens(&mut peer, N.into()).await;
    assert_eq!(hellos, (0..u32::from(N)).collect::<Vec<_>>());
    assert!(node.wait_for(WAIT, |s| s.channels == usize::from(N)).await);
    let second = timeout(QUIET, listener.accept()).await;
    assert!(second.is_err(), "a second connection came");
    node.shutdown().await;
}

/// (b) A transport that dies costs every channel on it its connection, and
/// the connection's one lifecycle re-dials it once for all of them: each
/// channel says hello on the new connection again, in tag order, and
/// resyncs (its parked open is sent anew).
#[tokio::test]
async fn a_dead_transport_is_redialed_once_for_all_its_channels() {
    const N: u16 = 4;
    let (mut node, listener) = caller_of_raw_peer(N).await;
    let (sock, _) = timeout(WAIT, listener.accept()).await.unwrap().unwrap();
    let mut peer = Framed::new(sock);
    hellos_and_opens(&mut peer, N.into()).await;
    drop(peer);

    let (sock, _) = timeout(WAIT, listener.accept()).await.unwrap().unwrap();
    let mut peer = Framed::new(sock);
    let hellos = hellos_and_opens(&mut peer, N.into()).await;
    assert_eq!(hellos, (0..u32::from(N)).collect::<Vec<_>>());
    let recovered = |s: &NodeSnapshot| s.recovering == 0 && s.channels == usize::from(N);
    assert!(node.wait_for(WAIT, recovered).await);
    let second = timeout(QUIET, listener.accept()).await;
    assert!(second.is_err(), "the re-dials made a second connection");
    let m = node.registry().snapshot();
    assert_eq!(
        m.faults("other"),
        2 * u64::from(N),
        "a loss and a resync each"
    );
    assert_eq!(m.recoveries, u64::from(N));
    node.shutdown().await;
}

/// Copy bytes one way until either side ends.
async fn pipe(mut from: OwnedReadHalf, mut to: OwnedWriteHalf) {
    let mut buf = BytesMut::with_capacity(4096);
    while let Ok(1..) = from.read_buf(&mut buf).await {
        let bytes = buf.split_to(buf.len());
        if to.write_all(&bytes).await.is_err() {
            break;
        }
    }
}

/// A relay in front of `to`: forwards every connection it accepts byte for
/// byte, and counts them.
async fn counting_relay(to: SocketAddr) -> (SocketAddr, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
    let at = listener.local_addr().unwrap();
    let accepted = Arc::new(AtomicUsize::new(0));
    let count = accepted.clone();
    tokio::spawn(async move {
        while let Ok((near, _)) = listener.accept().await {
            count.fetch_add(1, Ordering::SeqCst);
            let far = TcpStream::connect(to).await.unwrap();
            near.set_nodelay(true).unwrap();
            far.set_nodelay(true).unwrap();
            let (near_rx, near_tx) = near.into_split();
            let (far_rx, far_tx) = far.into_split();
            tokio::spawn(pipe(near_rx, far_tx));
            tokio::spawn(pipe(far_rx, near_tx));
        }
    });
    (at, accepted)
}

const HANG_UP: TimerId = TimerId(9);

/// Dials three one-call channels to "callee" and calls on each; on
/// [`HANG_UP`] it closes the second channel.
struct ThreeCalls {
    channels: BTreeMap<u32, ChannelId>,
}

impl AppLogic for ThreeCalls {
    fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
        match input {
            BoxInput::Start => (0..3).for_each(|req| ctx.open_channel("callee", 1, req)),
            BoxInput::ChannelUp {
                channel,
                slots,
                req: Some(req),
            } => {
                self.channels.insert(*req, *channel);
                ctx.set_goal(GoalSpec::User {
                    slot: slots[0],
                    policy: EndpointPolicy::audio(addr(1)),
                    mode: AcceptMode::Auto,
                });
                ctx.user(slots[0], UserCmd::Open(Medium::Audio));
            }
            BoxInput::Timer(HANG_UP) => ctx.close_channel(self.channels[&1]),
            _ => {}
        }
    }
}

/// (c) A channel closed by its box leaves its siblings on the shared
/// connection flowing: a mid-call change on each still crosses it.
#[tokio::test]
async fn closing_one_channel_leaves_its_siblings_flowing() {
    let dir = Directory::new();
    let logic = EndpointLogic::resource(EndpointPolicy::audio(addr(2)));
    let opts = NodeOptions::default();
    let mut callee = spawn_node("callee-node", BoxId(2), Box::new(logic), dir.clone(), opts)
        .await
        .unwrap();
    let (relay, connections) = counting_relay(callee.addr).await;
    dir.register("callee", relay);
    let logic = ThreeCalls {
        channels: BTreeMap::new(),
    };
    let opts = NodeOptions::default();
    let mut caller = spawn_node("caller", BoxId(1), Box::new(logic), dir, opts)
        .await
        .unwrap();
    let flowing = |n| {
        move |s: &NodeSnapshot| {
            s.slots
                .iter()
                .filter(|sl| sl.state == SlotState::Flowing)
                .count()
                == n
        }
    };
    assert!(caller.wait_for(WAIT, flowing(3)).await);
    assert!(callee.wait_for(WAIT, flowing(3)).await);

    caller.inject(BoxInput::Timer(HANG_UP)).await;
    assert!(callee.wait_for(WAIT, |s| s.channels == 2).await);
    assert!(caller.wait_for(WAIT, |s| s.channels == 2).await);
    // Mute each remaining call's inbound: the callee stops sending.
    let slots: Vec<_> = caller
        .snapshot
        .borrow()
        .slots
        .iter()
        .map(|s| s.slot)
        .collect();
    assert_eq!(slots.len(), 2);
    for slot in slots {
        let cmd = UserCmd::Modify {
            mute_in: true,
            mute_out: false,
        };
        caller.user(slot, cmd).await;
    }
    let muted = |s: &NodeSnapshot| s.slots.iter().all(|sl| sl.tx_route.is_none());
    assert!(
        callee.wait_for(WAIT, muted).await,
        "the siblings still cross"
    );
    assert!(callee.wait_for(WAIT, flowing(2)).await);
    assert_eq!(connections.load(Ordering::SeqCst), 1);
    assert_eq!(caller.registry().snapshot().faults_total(), 0);
    caller.shutdown().await;
    callee.shutdown().await;
}

/// Counts the `reconnect` faults its node observes: one per re-dial that
/// landed.
struct Reconnects(Arc<AtomicUsize>);

impl Observer for Reconnects {
    fn observe(&mut self, ev: ObsEvent) {
        if let ObsEvent::FaultInjected {
            kind: "reconnect", ..
        } = ev
        {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// (d) A transport fails whole, as the TCP connection under it does: one
/// gate-blocked frame on one channel costs every channel on the transport
/// its connection (the acceptor's go down, as it never re-dials), and
/// after the heal their re-dials share one new connection, each
/// resyncing once.
#[tokio::test]
async fn a_gated_transmit_costs_every_channel_on_its_transport() {
    const N: usize = 3;
    let dir = Directory::new();
    let logic = EndpointLogic::resource(EndpointPolicy::audio(addr(2)));
    let mut callee = spawn_node(
        "callee-node",
        BoxId(2),
        Box::new(logic),
        dir.clone(),
        NodeOptions::default(),
    )
    .await
    .unwrap();
    let (relay, connections) = counting_relay(callee.addr).await;
    dir.register("callee", relay);
    let gate = ChaosGate::new();
    let reconnects = Arc::new(AtomicUsize::new(0));
    let opts = NodeOptions {
        policy: fast_policy(),
        observer: Box::new(Reconnects(reconnects.clone())),
        gate: Some(gate.clone()),
        ..NodeOptions::default()
    };
    let logic = CallerLogic::new(EndpointPolicy::audio(addr(1)), "callee", N as u16, 1);
    let mut caller = spawn_node("caller", BoxId(1), Box::new(logic), dir, opts)
        .await
        .unwrap();
    let flowing = |s: &NodeSnapshot| {
        s.slots
            .iter()
            .filter(|sl| sl.state == SlotState::Flowing)
            .count()
            == N
    };
    assert!(caller.wait_for(WAIT, flowing).await);

    // A mid-call change on one call: its frame is the one the gate blocks.
    gate.partition("caller", "callee", true, false);
    let slot = caller.snapshot.borrow().slots[0].slot;
    let cmd = UserCmd::Modify {
        mute_in: true,
        mute_out: false,
    };
    caller.user(slot, cmd).await;
    assert!(caller.wait_for(WAIT, |s| s.recovering == N).await);
    assert!(callee.wait_for(WAIT, |s| s.channels == 0).await);

    gate.heal("caller", "callee");
    let recovered = |s: &NodeSnapshot| s.recovering == 0 && s.channels == N;
    assert!(caller.wait_for(WAIT, recovered).await);
    tokio::time::sleep(QUIET).await;
    assert_eq!(connections.load(Ordering::SeqCst), 2, "one new connection");
    assert_eq!(reconnects.load(Ordering::SeqCst), N);
    caller.shutdown().await;
    callee.shutdown().await;
}

const SEND_BIG: TimerId = TimerId(8);

/// Dials two one-tunnel channels to "peer"; on [`SEND_BIG`] it sends a
/// meta too large for one frame on the first, then a small one on the
/// second.
struct BigMeta {
    channels: BTreeMap<u32, ChannelId>,
}

fn small_meta() -> MetaSignal {
    MetaSignal::App(AppEvent::Custom("small".into()))
}

impl AppLogic for BigMeta {
    fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
        match input {
            BoxInput::Start => (0..2).for_each(|req| ctx.open_channel("peer", 1, req)),
            BoxInput::ChannelUp {
                channel,
                req: Some(req),
                ..
            } => _ = self.channels.insert(*req, *channel),
            BoxInput::Timer(SEND_BIG) => {
                let big = AppEvent::Custom("x".repeat(MAX_FRAME + 4_000));
                ctx.send_meta(self.channels[&0], MetaSignal::App(big));
                ctx.send_meta(self.channels[&1], small_meta());
            }
            _ => {}
        }
    }
}

/// (e) A message too large for a frame is refused where it is encoded,
/// and observed there as one fault: the transport under it stays up, so
/// its sibling channel still carries frames and nothing is re-dialed.
#[tokio::test]
async fn an_oversized_frame_is_refused_alone() {
    let dir = Directory::new();
    let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
    dir.register("peer", listener.local_addr().unwrap());
    let logic = BigMeta {
        channels: BTreeMap::new(),
    };
    let opts = NodeOptions {
        policy: fast_policy(),
        ..NodeOptions::default()
    };
    let mut node = spawn_node("caller", BoxId(1), Box::new(logic), dir, opts)
        .await
        .unwrap();
    let (sock, _) = timeout(WAIT, listener.accept()).await.unwrap().unwrap();
    let mut peer = Framed::new(sock);
    for tag in 0..2 {
        let (said, frame) = next_frame(&mut peer).await;
        assert!(said == tag && matches!(frame, Frame::Hello(_)));
    }
    assert!(node.wait_for(WAIT, |s| s.channels == 2).await);

    node.inject(BoxInput::Timer(SEND_BIG)).await;
    let small = Frame::Msg(ChannelMsg::Meta(small_meta()));
    assert_eq!(next_frame(&mut peer).await, (1, small));
    let registry = node.registry();
    let counted = |_: &NodeSnapshot| registry.snapshot().faults("other") == 1;
    assert!(node.wait_for(WAIT, counted).await);
    let second = timeout(QUIET, listener.accept()).await;
    assert!(second.is_err(), "the refusal made a second connection");
    let snap = node.snapshot.borrow().clone();
    assert_eq!((snap.channels, snap.recovering), (2, 0));
    assert_eq!(registry.snapshot().faults("other"), 1);
    node.shutdown().await;
}

/// (f) Frames of several channels that arrive in one read are applied in
/// wire order: channel a's open is answered before a's `Bye` drops it,
/// then b opens and answers its own.
#[tokio::test]
async fn frames_of_one_read_are_applied_in_wire_order() {
    let logic = EndpointLogic::resource(EndpointPolicy::audio(addr(2)));
    let opts = NodeOptions::default();
    let mut node = spawn_node("callee", BoxId(2), Box::new(logic), Directory::new(), opts)
        .await
        .unwrap();
    let (a, b) = (0, 1);
    let hello = Frame::Hello(Hello {
        from: "raw".into(),
        tunnels: 1,
    });
    let desc = Descriptor::media(
        DescTag {
            origin: 7,
            generation: 0,
        },
        addr(1),
        vec![Codec::G711],
    );
    let open = Frame::Msg(ChannelMsg::Tunnel {
        tunnel: TunnelId(0),
        signal: Signal::Open {
            medium: Medium::Audio,
            desc,
        },
    });
    let mut run = Vec::new();
    for (tag, frame) in [
        (a, &hello),
        (a, &open),
        (a, &Frame::Bye),
        (b, &hello),
        (b, &open),
    ] {
        put_frame(&mut run, |buf| wire::encode_tagged_into(buf, tag, frame)).unwrap();
    }
    let mut sock = TcpStream::connect(node.addr).await.unwrap();
    sock.write_all(&run).await.unwrap();

    let mut peer = Framed::new(sock);
    let mut answered = Vec::new();
    while answered.len() < 2 {
        if let (tag, Frame::Msg(ChannelMsg::Tunnel { signal, .. })) = next_frame(&mut peer).await {
            if matches!(signal, Signal::Oack { .. }) {
                answered.push(tag);
            }
        }
    }
    assert_eq!(answered, [a, b], "each open answered, in wire order");
    let b_alone = |s: &NodeSnapshot| s.channels == 1 && s.slots.len() == 1;
    assert!(node.wait_for(WAIT, b_alone).await);
    node.shutdown().await;
    // The node's shutdown says `Bye` on b, the one channel it still holds.
    loop {
        match next_frame(&mut peer).await {
            (tag, Frame::Bye) => break assert_eq!(tag, b),
            (tag, _) => assert_eq!(tag, b, "a frame of channel a after its Bye"),
        }
    }
}
