//! A node holds at most `MAX_SLOTS` slots, whoever asks: a peer's hello
//! cannot make it deal more (or run its `u16` slot ids out), a peer it
//! refuses hears `Bye` and stops, and the box's own dial over the cap
//! comes back unavailable.

use ipmedia_core::endpoint::{CallerLogic, EndpointLogic};
use ipmedia_core::goal::EndpointPolicy;
use ipmedia_core::host::MAX_SLOTS;
use ipmedia_core::program::{AppLogic, BoxInput, Ctx};
use ipmedia_core::signal::{ChannelMsg, Signal};
use ipmedia_core::{
    Availability, BoxId, Codec, DescTag, Descriptor, MediaAddr, Medium, MetaSignal, SlotState,
    TunnelId,
};
use ipmedia_rt::{spawn_node, wire, Directory, Frame, Framed, Hello, NodeHandle, NodeOptions};
use std::sync::{Arc, Mutex};
use tokio::net::TcpStream;
use tokio::time::Duration;

const WAIT: Duration = Duration::from_secs(10);

fn addr(h: u8) -> MediaAddr {
    MediaAddr::v4(10, 0, 0, h, 4000)
}

/// Two hellos asking for 65,535 tunnels each, from a raw TCP peer: the
/// node goes on to complete an ordinary call, and each hello is refused
/// with a `Bye`, its socket closed. (Before the cap, the first made 65,535
/// slots and the second ran the slot ids out and killed the node.)
#[tokio::test]
async fn a_peers_oversized_hellos_cannot_panic_the_node() {
    let dir = Directory::new();
    let policy = EndpointPolicy::audio(addr(2));
    let callee = spawn_node(
        "callee",
        BoxId(2),
        Box::new(EndpointLogic::resource(policy)),
        dir.clone(),
        NodeOptions::default(),
    )
    .await
    .unwrap();
    let mut floods = Vec::new();
    for _ in 0..2 {
        let sock = TcpStream::connect(callee.addr).await.unwrap();
        let mut framed = Framed::new(sock);
        let hello = Hello {
            from: "flood".into(),
            tunnels: u16::MAX,
        };
        framed
            .write_frame(&wire::encode_tagged(0, &Frame::Hello(hello)))
            .await
            .unwrap();
        floods.push(framed);
    }

    let caller_logic = CallerLogic::new(EndpointPolicy::audio(addr(1)), "callee", 1, 1);
    let mut caller = spawn_node(
        "caller",
        BoxId(1),
        Box::new(caller_logic),
        dir,
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
            .await,
        "a call completes after the refusals"
    );
    assert_eq!(callee.snapshot.borrow().slots.len(), 1);
    // Refused: the node said Bye and closed each socket, and observed
    // each refusal.
    for mut framed in floods {
        let read = tokio::time::timeout(WAIT, framed.read_frame()).await;
        let frame = read.unwrap().unwrap().map(wire::decode_tagged);
        assert_eq!(frame, Some(Ok((0, Frame::Bye))));
        let read = tokio::time::timeout(WAIT, framed.read_frame()).await;
        assert!(matches!(read, Ok(Ok(None)) | Ok(Err(_))), "{read:?}");
    }
    assert_eq!(callee.registry().snapshot().faults("other"), 2);
    caller.shutdown().await;
    callee.shutdown().await;
}

/// A resource node, and a raw connection to it that says hello for each
/// `(channel, tunnels)` in order.
async fn raw_peer_of_callee(hellos: &[(u32, u16)]) -> (NodeHandle, Framed<TcpStream>) {
    let policy = EndpointPolicy::audio(addr(2));
    let callee = spawn_node(
        "callee",
        BoxId(2),
        Box::new(EndpointLogic::resource(policy)),
        Directory::new(),
        NodeOptions::default(),
    )
    .await
    .unwrap();
    let mut peer = Framed::new(TcpStream::connect(callee.addr).await.unwrap());
    for &(channel, tunnels) in hellos {
        let hello = Frame::Hello(Hello {
            from: "peer".into(),
            tunnels,
        });
        let bytes = wire::encode_tagged(channel, &hello);
        peer.write_frame(&bytes).await.unwrap();
    }
    (callee, peer)
}

/// Open a call on channel `channel`'s first tunnel and read the
/// connection up to its answer: every frame read, the `oack` last.
async fn open_call(peer: &mut Framed<TcpStream>, channel: u32) -> Vec<(u32, Frame)> {
    let desc = Descriptor::media(
        DescTag {
            origin: 9,
            generation: 1,
        },
        addr(9),
        vec![Codec::G711],
    );
    let open = Frame::Msg(ChannelMsg::Tunnel {
        tunnel: TunnelId(0),
        signal: Signal::Open {
            medium: Medium::Audio,
            desc,
        },
    });
    let bytes = wire::encode_tagged(channel, &open);
    peer.write_frame(&bytes).await.unwrap();
    let mut seen = Vec::new();
    loop {
        let read = tokio::time::timeout(WAIT, peer.read_frame()).await;
        let bytes = read.unwrap().unwrap().expect("the connection stays open");
        let (tag, frame) = wire::decode_tagged(bytes).unwrap();
        let oack = matches!(
            frame,
            Frame::Msg(ChannelMsg::Tunnel {
                signal: Signal::Oack { .. },
                ..
            })
        );
        seen.push((tag, frame));
        if oack {
            return seen;
        }
    }
}

/// Three hellos on one connection, the middle one over the cap: that
/// channel alone is refused with its `Bye`, and the connection goes on
/// carrying its siblings, which the node answers.
#[tokio::test]
async fn an_oversized_hello_on_a_shared_transport_costs_only_its_channel() {
    let (mut callee, mut peer) = raw_peer_of_callee(&[(0, 1), (1, u16::MAX), (2, 1)]).await;
    assert!(callee.wait_for(WAIT, |s| s.channels == 2).await);
    assert_eq!(callee.snapshot.borrow().slots.len(), 2);

    // An open on the last sibling is answered on the same connection.
    let seen = open_call(&mut peer, 2).await;
    assert_eq!(seen[0], (1, Frame::Bye), "{seen:?}");
    assert_eq!(seen.last().map(|(t, _)| *t), Some(2), "{seen:?}");
    assert!(seen[1..].iter().all(|(t, _)| *t != 1), "{seen:?}");
    assert_eq!(callee.registry().snapshot().faults("other"), 1);
    callee.shutdown().await;
}

/// A peer that says hello twice under one tag, the first time on the
/// connection's first frame, ends the tag's first channel with the second
/// and nothing else: the connection, its only one, stays up for the new
/// channel, which answers a call. (Before, losing the first channel
/// closed the connection, and binding the second to it killed the node.)
#[tokio::test]
async fn a_second_hello_under_a_bound_tag_cannot_panic_the_node() {
    let (mut callee, mut peer) = raw_peer_of_callee(&[(0, 1), (0, 1)]).await;
    let seen = open_call(&mut peer, 0).await;
    assert!(seen.iter().all(|(t, _)| *t == 0), "{seen:?}");
    assert!(callee.wait_for(WAIT, |s| s.channels == 1).await);
    assert_eq!(callee.snapshot.borrow().slots.len(), 1);
    callee.shutdown().await;
}

/// A channel of no tunnels costs its box no slot, so the cap alone would
/// let one connection open them without end behind one channel that has
/// a tunnel: each is refused with its `Bye`, and that channel answers a
/// call.
#[tokio::test]
async fn hellos_of_no_tunnels_are_refused() {
    const EMPTY: u32 = 64;
    let mut hellos = vec![(0, 1)];
    hellos.extend((1..=EMPTY).map(|channel| (channel, 0)));
    let (mut callee, mut peer) = raw_peer_of_callee(&hellos).await;
    let seen = open_call(&mut peer, 0).await;
    let byes: Vec<_> = (1..=EMPTY).map(|channel| (channel, Frame::Bye)).collect();
    assert_eq!(seen[..byes.len()], byes[..], "{seen:?}");
    assert!(seen[byes.len()..].iter().all(|(t, _)| *t == 0));
    assert!(callee.wait_for(WAIT, |s| s.channels == 1).await);
    assert_eq!(
        callee.registry().snapshot().faults("other"),
        u64::from(EMPTY)
    );
    callee.shutdown().await;
}

type Log = Arc<Mutex<Vec<&'static str>>>;

/// Dials "callee" with `tunnels` tunnels at start and records what its
/// channel does: "up", the peer's availability, "down".
struct Dialer {
    tunnels: u16,
    log: Log,
}

impl AppLogic for Dialer {
    fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
        let what = match input {
            BoxInput::Start => return ctx.open_channel("callee", self.tunnels, 1),
            BoxInput::ChannelUp { .. } => "up",
            BoxInput::Meta {
                meta: MetaSignal::Peer(Availability::Available),
                ..
            } => "available",
            BoxInput::Meta {
                meta: MetaSignal::Peer(_),
                ..
            } => "unavailable",
            BoxInput::ChannelDown { .. } => "down",
            _ => return,
        };
        self.log.lock().unwrap().push(what);
    }
}

/// A box that dials a channel of more tunnels than it may hold learns, as
/// from a busy box, that its peer is unavailable; nothing is dealt.
#[tokio::test]
async fn a_dial_over_the_cap_comes_back_unavailable() {
    let dir = Directory::new();
    let callee = spawn_node(
        "callee",
        BoxId(2),
        Box::new(EndpointLogic::resource(EndpointPolicy::audio(addr(2)))),
        dir.clone(),
        NodeOptions::default(),
    )
    .await
    .unwrap();
    let log = Log::default();
    let greedy = Dialer {
        tunnels: MAX_SLOTS + 1,
        log: log.clone(),
    };
    let mut node = spawn_node(
        "greedy",
        BoxId(1),
        Box::new(greedy),
        dir,
        NodeOptions::default(),
    )
    .await
    .unwrap();
    assert!(node.wait_for(WAIT, |s| s.channels == 1).await);
    assert_eq!(*log.lock().unwrap(), ["up", "unavailable"]);
    assert!(node.snapshot.borrow().slots.is_empty());
    node.shutdown().await;
    callee.shutdown().await;
}

/// A callee at the cap refuses a second caller's channel, and the refusal
/// ends the channel: the caller hears `Bye`, its channel goes down, and it
/// never re-dials. (Were the socket closed silently, the caller would take
/// the end of stream for a lost connection and re-dial the full callee
/// for good.) A hello is not acknowledged, so the caller saw the channel
/// come up first.
#[tokio::test]
async fn a_refused_caller_goes_down_and_does_not_redial() {
    let dir = Directory::new();
    let resource = EndpointLogic::resource(EndpointPolicy::audio(addr(3)));
    let mut callee = spawn_node(
        "callee",
        BoxId(3),
        Box::new(resource),
        dir.clone(),
        NodeOptions::default(),
    )
    .await
    .unwrap();
    let (full, late) = (Log::default(), Log::default());
    let dialer = |tunnels, log: &Log| {
        let log = log.clone();
        Box::new(Dialer { tunnels, log })
    };
    let filler = spawn_node(
        "filler",
        BoxId(1),
        dialer(MAX_SLOTS, &full),
        dir.clone(),
        NodeOptions::default(),
    )
    .await
    .unwrap();
    let at_cap = usize::from(MAX_SLOTS);
    assert!(callee.wait_for(WAIT, |s| s.slots.len() == at_cap).await);

    let caller = spawn_node(
        "caller",
        BoxId(2),
        dialer(1, &late),
        dir,
        NodeOptions::default(),
    )
    .await
    .unwrap();
    let deadline = tokio::time::Instant::now() + WAIT;
    while !late.lock().unwrap().contains(&"down") {
        let log = late.lock().unwrap().clone();
        assert!(
            tokio::time::Instant::now() < deadline,
            "the refused channel never went down: {log:?}, {} refusals",
            callee.registry().snapshot().faults("other")
        );
        tokio::time::sleep(Duration::from_millis(10)).await;
    }
    // Room for a re-dial or two to show, were there any (the first goes
    // within the policy's 50 ms base delay).
    tokio::time::sleep(Duration::from_millis(300)).await;
    assert_eq!(*late.lock().unwrap(), ["up", "available", "down"]);
    assert_eq!(caller.snapshot.borrow().channels, 0);
    // No disconnect, no re-dial; one refusal.
    assert_eq!(caller.registry().snapshot().faults("other"), 0);
    assert_eq!(callee.registry().snapshot().faults("other"), 1);
    assert_eq!(*full.lock().unwrap(), ["up", "available"]);
    assert_eq!(callee.snapshot.borrow().slots.len(), at_cap);
    caller.shutdown().await;
    filler.shutdown().await;
    callee.shutdown().await;
}
