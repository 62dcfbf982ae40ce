//! Layer microbenches that need no workload: tight loops over one public
//! function each of `core`, `rt`'s codec and framing, the tokio stand-in
//! under `rt`, and `obs`. They run first in every traced pass, because the
//! workloads' own layer metrics divide by some of them.

use crate::metrics::Metrics;
use crate::sampler::{ns_per_iter, ns_per_iter_with, sample, Rep, Until};
use crate::workloads::rt::block_on;
use crate::workloads::Size;
use ipmedia_core::goal::{EndpointPolicy, FlowLink, LinkSide, Policy};
use ipmedia_core::{
    BoxId, BoxInput, ChannelMsg, Codec, DescTag, Descriptor, EndpointLogic, GoalSpec, MediaAddr,
    MediaBox, Medium, ProgramBox, Selector, Signal, Slot, SlotId, TagSource, TunnelId,
};
use ipmedia_obs::metrics::{CountingObserver, Registry};
use ipmedia_obs::trace::{SpanId, SpanRecord, SpanSink, TraceId};
use ipmedia_obs::Observer;
use ipmedia_rt::{decode, encode, Frame, Framed};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::mpsc;

const OK: Rep = Rep {
    attempted: 1,
    failed: 0,
};

pub fn run(size: Size, out: &mut Metrics) {
    core(out);
    wire_and_frame(out);
    runtime(size, out);
    obs(out);
}

/// Nanoseconds per step of a dependent multiply-add chain: no memory
/// traffic, no code of ours. A traced pass takes it before each workload;
/// if it moves between two runs, the host moved, whatever the workloads say.
pub fn spin_ns() -> f64 {
    ns_per_iter(|n| {
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
        for i in 0..n {
            x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
    })
}

fn audio(tags: &mut TagSource, at: MediaAddr) -> Descriptor {
    Descriptor::media(tags.next(), at, vec![Codec::G711])
}

fn core(out: &mut Metrics) {
    let (at_a, at_b) = (
        MediaAddr::v4(10, 0, 0, 1, 4000),
        MediaAddr::v4(10, 0, 0, 2, 4000),
    );
    let (mut tags_a, mut tags_b) = (TagSource::new(1), TagSource::new(2));

    // Open, accept, select, close, acknowledge: one call's worth of slot
    // FSM work at both ends of a tunnel.
    let handshake = ns_per_iter(|n| {
        for _ in 0..n {
            let mut a = Slot::new(true);
            let mut b = Slot::new(false);
            let da = audio(&mut tags_a, at_a);
            let open = a
                .send_open(Medium::Audio, da.clone())
                .expect("closed slot opens");
            b.on_signal(open);
            let db = audio(&mut tags_b, at_b);
            let [oack, select] = b
                .accept(db, Selector::sending(da.tag, at_b, Codec::G711))
                .expect("opened slot accepts");
            a.on_signal(oack);
            a.on_signal(select);
            let close = a.send_close().expect("flowing slot closes");
            let (_, acks) = b.on_signal(close);
            a.on_signal(acks.into_iter().next().expect("close is acknowledged"));
            black_box(a.state());
        }
    });
    out.set("core.slot.handshake_ns", handshake);

    // A flowlink attached across an opening slot forwards the far oack.
    let forward = ns_per_iter(|n| {
        for _ in 0..n {
            let mut fl = FlowLink::new(50);
            let (mut sa, mut sb) = (Slot::new(true), Slot::new(true));
            sa.on_signal(Signal::Open {
                medium: Medium::Audio,
                desc: audio(&mut tags_a, at_a),
            });
            fl.attach(&mut sa, &mut sb);
            let (ev, _) = sb.on_signal(Signal::Oack {
                desc: audio(&mut tags_b, at_b),
            });
            black_box(fl.on_event(LinkSide::B, &ev, &mut sa, &mut sb).len());
        }
    });
    out.set("core.flowlink.forward_ns", forward);

    // An auto-accepting endpoint answering open then close: two signals
    // through `MediaBox::on_signal` (slot + goal + maps), and the same two
    // through `ProgramBox::handle` (plus the program's own dispatch).
    let slot = SlotId(0);
    let user = GoalSpec::User {
        slot,
        policy: EndpointPolicy::audio(at_b),
        mode: ipmedia_core::goal::AcceptMode::Auto,
    };
    let mut media = MediaBox::new(BoxId(1));
    media.add_slot(slot, false);
    media.set_goal(user);
    let on_signal = ns_per_iter(|n| {
        for _ in 0..n {
            let open = Signal::Open {
                medium: Medium::Audio,
                desc: audio(&mut tags_a, at_a),
            };
            let (answer, _) = media.on_signal(slot, open);
            assert_eq!(
                answer.len(),
                2,
                "an auto-accepting endpoint answers oack + select"
            );
            let (ack, _) = media.on_signal(slot, Signal::Close);
            assert_eq!(ack.len(), 1, "close is acknowledged");
        }
    });
    out.set("core.box.on_signal_ns", on_signal / 2.0);

    let mut program = ProgramBox::new(
        BoxId(2),
        Box::new(EndpointLogic::resource(EndpointPolicy::audio(at_b))),
    );
    program.media_mut().add_slot(slot, false);
    program.handle(BoxInput::ChannelUp {
        channel: ipmedia_core::ChannelId(0),
        slots: vec![slot],
        req: None,
    });
    let handle = ns_per_iter(|n| {
        for _ in 0..n {
            let signal = Signal::Open {
                medium: Medium::Audio,
                desc: audio(&mut tags_a, at_a),
            };
            let answer = program.handle(BoxInput::Tunnel { slot, signal });
            assert_eq!(
                answer.len(),
                2,
                "an auto-accepting endpoint answers oack + select"
            );
            let signal = Signal::Close;
            black_box(program.handle(BoxInput::Tunnel { slot, signal }));
        }
    });
    out.set("core.program.handle_ns", handle / 2.0);

    // Re-annotating a closed slot: goal teardown and construction alone,
    // no signal leaves.
    let mut idle = MediaBox::new(BoxId(3));
    idle.add_slot(slot, true);
    let set_goal = ns_per_iter(|n| {
        for _ in 0..n {
            let policy = Policy::Server;
            black_box(idle.set_goal(GoalSpec::Hold { slot, policy }));
            black_box(idle.set_goal(GoalSpec::Close { slot }));
        }
    });
    out.set("core.box.set_goal_ns", set_goal / 2.0);
}

fn wire_and_frame(out: &mut Metrics) {
    let tag = DescTag {
        origin: 42,
        generation: 7,
    };
    let frame = Frame::Msg(ChannelMsg::Tunnel {
        tunnel: TunnelId(3),
        signal: Signal::Select {
            sel: Selector::sending(tag, MediaAddr::v4(10, 0, 0, 1, 4000), Codec::G711),
        },
    });
    let bytes = encode(&frame);
    assert_eq!(
        decode(bytes.clone()).as_ref(),
        Ok(&frame),
        "the codec round-trips"
    );
    let encode_ns = ns_per_iter(|n| {
        for _ in 0..n {
            black_box(encode(black_box(&frame)));
        }
    });
    out.set("rt.wire.encode_ns", encode_ns);
    let decode_ns = ns_per_iter(|n| {
        for _ in 0..n {
            black_box(decode(bytes.clone()).expect("decodes"));
        }
    });
    out.set("rt.wire.decode_ns", decode_ns);

    // Framing over an in-memory pipe wide enough that no write waits for
    // the reader; the far end is kept open and only the timed side runs.
    let wide = |frames: u64| frames as usize * (bytes.len() + 4) + 64;
    let write_ns = ns_per_iter_with(
        |n| tokio::io::duplex(wide(n)),
        |n, (near, _far)| {
            let mut framed = Framed::new(near);
            block_on(async {
                for _ in 0..n {
                    framed
                        .write_frame(&bytes)
                        .await
                        .expect("pipe is open and wide");
                }
            });
        },
    );
    out.set("rt.frame.write_ns", write_ns);
    let batch: Vec<bytes::Bytes> = vec![bytes.clone(); 32];
    let write_batch_ns = ns_per_iter_with(
        |n| tokio::io::duplex(wide(n * 32)),
        |n, (near, _far)| {
            let mut framed = Framed::new(near);
            block_on(async {
                for _ in 0..n {
                    framed
                        .write_frames(&batch)
                        .await
                        .expect("pipe is open and wide");
                }
            });
        },
    );
    out.set("rt.frame.write_batch32_ns", write_batch_ns);
    let read_ns = ns_per_iter_with(
        |n| {
            let (near, far) = tokio::io::duplex(wide(n));
            let mut framed = Framed::new(near);
            let frames = vec![bytes.clone(); n as usize];
            block_on(framed.write_frames(&frames)).expect("pipe is open and wide");
            (framed, far)
        },
        |n, (_near, far)| {
            let mut framed = Framed::new(far);
            block_on(async {
                for _ in 0..n {
                    let frame = framed.read_frame().await.expect("pipe is open");
                    assert!(frame.is_some(), "every written frame is read back");
                }
            });
        },
    );
    out.set("rt.frame.read_ns", read_ns);
}

const PING: usize = 16;

/// The next [`PING`] bytes of `stream`; `None` once it has closed.
async fn read_ping(stream: &mut TcpStream) -> Option<bytes::BytesMut> {
    let mut buf = bytes::BytesMut::with_capacity(PING);
    while buf.len() < PING {
        if stream.read_buf(&mut buf).await.ok()? == 0 {
            return None;
        }
    }
    Some(buf)
}

fn runtime(size: Size, out: &mut Metrics) {
    let (pings, naps) = match size {
        Size::Full => (300, 100),
        Size::Quick => (30, 10),
    };

    // 16 bytes there and back over the stand-in's loopback TCP.
    let (mut stream, echo) = block_on(async {
        let listener = TcpListener::bind("127.0.0.1:0")
            .await
            .expect("bind loopback");
        let addr = listener.local_addr().expect("bound");
        let echo = tokio::spawn(async move {
            let (mut peer, _) = listener.accept().await.expect("accept");
            while let Some(ping) = read_ping(&mut peer).await {
                if peer.write_all(&ping).await.is_err() {
                    break;
                }
            }
        });
        let stream = TcpStream::connect(addr).await.expect("connect loopback");
        stream.set_nodelay(true).expect("nodelay");
        (stream, echo)
    });
    let ping = |stream: &mut TcpStream| {
        block_on(async {
            stream.write_all(&[7u8; PING]).await.expect("ping");
            assert!(read_ping(stream).await.is_some(), "pong");
        });
        OK
    };
    sample(Until::Reps(pings / 10), |_| ping(&mut stream));
    let rtts = sample(Until::Reps(pings), |_| ping(&mut stream));
    out.set("tokio.tcp_rtt_us_p50", rtts.median_ms() * 1e3);
    drop(stream);
    block_on(echo).expect("the echo task ends when the stream closes");

    // One message to a task on the pool and one back: two hops.
    let (to_echo, mut at_echo) = mpsc::channel::<u64>(1);
    let (to_us, mut at_us) = mpsc::channel::<u64>(1);
    let echo = tokio::spawn(async move {
        while let Some(v) = at_echo.recv().await {
            if to_us.send(v).await.is_err() {
                break;
            }
        }
    });
    let round_trip = ns_per_iter(|n| {
        block_on(async {
            for i in 0..n {
                to_echo.send(i).await.expect("echo task is alive");
                assert_eq!(at_us.recv().await, Some(i));
            }
        });
    });
    out.set("tokio.mpsc_hop_ns", round_trip / 2.0);
    drop(to_echo);
    block_on(echo).expect("the echo task ends when its inbox closes");

    let spawn_ns = ns_per_iter(|n| {
        block_on(async {
            for i in 0..n {
                assert_eq!(tokio::spawn(async move { i }).await.ok(), Some(i));
            }
        });
    });
    out.set("tokio.spawn_ns", spawn_ns);

    let nap = Duration::from_millis(1);
    let slept = sample(Until::Reps(naps), |_| {
        block_on(tokio::time::sleep(nap));
        OK
    });
    out.set(
        "tokio.sleep_1ms_overshoot_us",
        slept.median_ms() * 1e3 - 1e3,
    );
}

fn obs(out: &mut Metrics) {
    let registry = Arc::new(Registry::new());
    let mut counting = CountingObserver::new(registry.clone());
    let event_ns = ns_per_iter(|n| {
        for i in 0..n {
            let (bx, slot) = (i as u32 & 0xFF, i as u16 & 7);
            counting.stimulus(bx, "tunnel");
            counting.signal_received(bx, slot, "open");
            counting.slot_transition(bx, slot, "closed", "opened", "open");
            counting.signal_sent(bx, slot, "oack");
        }
    });
    out.set("obs.counting_event_ns", event_ns / 4.0);
    let snapshot_ns = ns_per_iter(|n| {
        for _ in 0..n {
            black_box(registry.snapshot());
        }
    });
    out.set("obs.registry_snapshot_us", snapshot_ns / 1e3);
    let span_ns = ns_per_iter_with(
        |n| SpanSink::new(n as usize),
        |n, sink| {
            for i in 0..n {
                sink.record(SpanRecord {
                    trace: TraceId(1),
                    id: SpanId(i + 1),
                    parent: None,
                    bx: 1,
                    from: None,
                    kind: "stimulus",
                    label: String::new(),
                    start_micros: i,
                    end_micros: i + 1,
                });
            }
            assert_eq!(sink.dropped(), 0, "the sink holds the whole batch");
        },
    );
    out.set("obs.span_ns", span_ns);
}
