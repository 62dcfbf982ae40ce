//! The decoders that face bytes from outside the program —
//! [`ipmedia_rt::decode`], [`ipmedia_rt::decode_tagged`],
//! [`decode_tagged_slice`], [`Framed::read_frame`] and
//! [`Framed::read_run`] — return `Ok` or `Err` for any input: they never
//! panic, and never reserve memory by a length the peer chose (a frame is
//! bounded by [`MAX_FRAME`], a list inside one by the bytes that are
//! actually there). The slice decoder reads what the `Bytes` one reads. A
//! tagged frame, what a transport carries, decodes to the tag and frame it
//! was encoded from, and frames encoded into one buffer, as a writer does,
//! come back as the same frames in order.
//!
//! Random bytes alone die on the version byte, so most cases start from a
//! valid frame of every kind and damage it.

use bytes::Bytes;
use ipmedia_core::{
    AppEvent, ChannelMsg, Codec, DescTag, Descriptor, MediaAddr, Medium, MetaSignal, MixRow,
    Selector, Signal, TunnelId,
};
use ipmedia_obs::trace::{SpanCtx, SpanId, TraceId};
use ipmedia_rt::{
    decode, decode_tagged, decode_tagged_slice, encode, encode_tagged, encode_tagged_into, frames,
    put_frame, Frame, FrameError, Framed, Hello, WireError, MAX_FRAME, WIRE_VERSION,
};
use proptest::prelude::*;
use tokio::io::{duplex, AsyncWriteExt};
use tokio::runtime::block_on;

/// One valid frame of every kind the codec knows.
fn corpus() -> Vec<Frame> {
    let tag = DescTag {
        origin: 0xDEAD_BEEF,
        generation: 7,
    };
    let v4 = MediaAddr::v4(10, 1, 2, 3, 4000);
    let v6 = MediaAddr::new("2001:db8::1".parse().unwrap(), 9000);
    let tunnel = |signal| ChannelMsg::Tunnel {
        tunnel: TunnelId(3),
        signal,
    };
    let msgs = [
        tunnel(Signal::Open {
            medium: Medium::Video,
            desc: Descriptor::media(tag, v4, Codec::ALL[1..].to_vec()),
        }),
        tunnel(Signal::Oack {
            desc: Descriptor::media(tag, v6, vec![Codec::G711]),
        }),
        tunnel(Signal::Describe {
            desc: Descriptor::no_media(tag),
        }),
        tunnel(Signal::Select {
            sel: Selector::sending(tag, v4, Codec::G729),
        }),
        tunnel(Signal::Close),
        ChannelMsg::Meta(MetaSignal::App(AppEvent::Custom("switch:1".into()))),
        ChannelMsg::Meta(MetaSignal::App(AppEvent::MixMatrix(vec![MixRow {
            output: 1,
            hears: vec![(0, 100), (2, 30)],
        }]))),
    ];
    let ctx = SpanCtx {
        trace: TraceId(1),
        parent: SpanId(2),
        bx: 3,
        sent_micros: 4,
    };
    let hello = Frame::Hello(Hello {
        from: "pbx".into(),
        tunnels: 5,
    });
    let traced = msgs.iter().cloned().map(|msg| Frame::Traced { ctx, msg });
    [hello, Frame::Bye]
        .into_iter()
        .chain(msgs.iter().cloned().map(Frame::Msg))
        .chain(traced)
        .collect()
}

/// A valid frame's bytes with `edits` applied (position, new byte), then
/// cut to `keep` bytes and followed by `tail`.
fn damaged(pick: usize, edits: &[(u16, u8)], keep: u16, tail: &[u8]) -> Vec<u8> {
    let frames = corpus();
    let mut bytes = encode(&frames[pick % frames.len()]).to_vec();
    for &(at, byte) in edits {
        let at = usize::from(at) % bytes.len();
        bytes[at] = byte;
    }
    bytes.truncate(usize::from(keep) % (bytes.len() + 1));
    bytes.extend_from_slice(tail);
    bytes
}

/// Decode `bytes` as a tagged frame by both paths, which must agree.
fn decode_both(bytes: Vec<u8>) -> Result<(u32, Frame), WireError> {
    let by_slice = decode_tagged_slice(&bytes);
    assert_eq!(by_slice, decode_tagged(Bytes::from(bytes)));
    by_slice
}

/// A pipe holding the whole `stream`, closed behind it.
async fn pipe_of(stream: &[u8]) -> Framed<tokio::io::DuplexStream> {
    let (mut tx, rx) = duplex(stream.len().max(1));
    tx.write_all(stream).await.expect("the pipe has room");
    drop(tx);
    Framed::new(rx)
}

/// Read runs until the stream ends or errs; every frame in them goes
/// through the slice decoder too.
async fn drain_runs(stream: Vec<u8>) -> Result<usize, FrameError> {
    let mut framed = pipe_of(&stream).await;
    let mut frames_read = 0;
    while let Some(run) = framed.read_run().await? {
        for payload in frames(&run) {
            assert!(payload.len() <= MAX_FRAME);
            let _ = decode_tagged_slice(payload);
            frames_read += 1;
        }
    }
    Ok(frames_read)
}

/// Read frames until the stream ends or errs; every payload goes through
/// `decode` too.
async fn drain(stream: Vec<u8>) -> Result<usize, FrameError> {
    // The pipe holds the whole stream, so one task can write then read.
    let mut framed = pipe_of(&stream).await;
    let mut frames = 0;
    while let Some(payload) = framed.read_frame().await? {
        assert!(payload.len() <= MAX_FRAME);
        let _ = decode(payload);
        frames += 1;
    }
    Ok(frames)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decode_is_total_on_damaged_frames(
        pick in any::<usize>(),
        edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..4),
        keep in any::<u16>(),
        tail in proptest::collection::vec(any::<u8>(), 0..8),
    ) {
        let bytes = damaged(pick, &edits, keep, &tail);
        let _ = decode(Bytes::from(bytes.clone()));
        let _ = decode_both(bytes);
    }

    #[test]
    fn decode_is_total_past_the_version_byte(
        body in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let mut bytes = vec![WIRE_VERSION];
        bytes.extend_from_slice(&body);
        let _ = decode(Bytes::from(bytes.clone()));
        let _ = decode_both(bytes);
    }

    #[test]
    fn decode_is_total_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let _ = decode(Bytes::from(bytes.clone()));
        let _ = decode_both(bytes);
    }

    #[test]
    fn tagged_frames_round_trip(pick in any::<usize>(), channel in any::<u32>()) {
        let frames = corpus();
        let frame = &frames[pick % frames.len()];
        let bytes = encode_tagged(channel, frame);
        let mut into = Vec::new();
        encode_tagged_into(&mut into, channel, frame);
        prop_assert_eq!(&into[..], &bytes[..]);
        prop_assert_eq!(decode_both(into), Ok((channel, frame.clone())));
    }

    /// k frames encoded into one buffer, as a transport's writer encodes
    /// them, walk back as the same k frames in order, whether walked in
    /// place or read off a stream as runs.
    #[test]
    fn a_run_decodes_as_its_frames_in_order(
        picks in proptest::collection::vec((any::<usize>(), any::<u32>()), 0..12),
    ) {
        let corpus = corpus();
        let sent: Vec<(u32, Frame)> = picks
            .iter()
            .map(|&(pick, channel)| (channel, corpus[pick % corpus.len()].clone()))
            .collect();
        let mut run = Vec::new();
        for (channel, frame) in &sent {
            put_frame(&mut run, |b| encode_tagged_into(b, *channel, frame)).unwrap();
        }
        let walked: Vec<_> = frames(&run).map(|f| decode_tagged_slice(f).unwrap()).collect();
        prop_assert_eq!(&walked, &sent);
        let read = block_on(async {
            let mut framed = pipe_of(&run).await;
            let mut read = Vec::new();
            while let Some(run) = framed.read_run().await.unwrap() {
                read.extend(frames(&run).map(|f| decode_tagged_slice(f).unwrap()));
            }
            read
        });
        prop_assert_eq!(read, sent);
    }

    #[test]
    fn decode_tagged_is_total_on_damaged_frames(
        pick in any::<usize>(),
        channel in any::<u32>(),
        edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..4),
        keep in any::<u16>(),
    ) {
        let frames = corpus();
        let mut bytes = encode_tagged(channel, &frames[pick % frames.len()]).to_vec();
        for &(at, byte) in &edits {
            let at = usize::from(at) % bytes.len();
            bytes[at] = byte;
        }
        bytes.truncate(usize::from(keep) % (bytes.len() + 1));
        let _ = decode_both(bytes);
    }

    #[test]
    fn read_frame_is_total_on_any_byte_stream(
        pick in any::<usize>(),
        edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..4),
        keep in any::<u16>(),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        // Two well-framed payloads (the second one damaged), then noise
        // where the next length prefix should be.
        let frames = corpus();
        let mut stream = Vec::new();
        for payload in [
            encode(&frames[pick % frames.len()]).to_vec(),
            damaged(pick / 7, &edits, keep, &[]),
        ] {
            stream.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_be_bytes());
            stream.extend_from_slice(&payload);
        }
        stream.extend_from_slice(&noise);
        for drained in [block_on(drain(stream.clone())), block_on(drain_runs(stream))] {
            match drained {
                Ok(frames) => prop_assert!(frames >= 2),
                Err(FrameError::TooLarge(n)) => prop_assert!(n > MAX_FRAME),
                Err(FrameError::UnexpectedEof) => {}
                Err(FrameError::Io(e)) => panic!("an in-memory pipe failed: {e}"),
            }
        }
    }
}

/// The length prefix is checked before any buffer grows: a 4 GiB frame
/// costs its four bytes.
#[test]
fn an_oversized_length_prefix_is_refused_unread() {
    let mut stream = u32::MAX.to_be_bytes().to_vec();
    stream.extend_from_slice(&[0; 16]);
    assert!(matches!(
        block_on(drain(stream.clone())),
        Err(FrameError::TooLarge(n)) if n == u32::MAX as usize
    ));
    assert!(matches!(
        block_on(drain_runs(stream)),
        Err(FrameError::TooLarge(n)) if n == u32::MAX as usize
    ));
}

/// The frames ahead of an oversized length prefix are read as a run of
/// their own; the length is the error of the read after.
#[test]
fn a_run_stops_ahead_of_an_oversized_length() {
    let mut stream = Vec::new();
    for channel in 0..3 {
        put_frame(&mut stream, |b| encode_tagged_into(b, channel, &Frame::Bye)).unwrap();
    }
    stream.extend_from_slice(&u32::MAX.to_be_bytes());
    block_on(async {
        let mut framed = pipe_of(&stream).await;
        let run = framed.read_run().await.unwrap().unwrap();
        let channels: Vec<_> = frames(&run)
            .map(|f| decode_tagged_slice(f).unwrap().0)
            .collect();
        assert_eq!(channels, [0, 1, 2]);
        assert!(matches!(
            framed.read_run().await,
            Err(FrameError::TooLarge(n)) if n == u32::MAX as usize
        ));
    });
}

/// A frame too large for the wire is refused where it is encoded, and
/// leaves the buffer as it was.
#[test]
fn put_frame_refuses_an_oversized_frame_whole() {
    let mut run = Vec::new();
    put_frame(&mut run, |b| encode_tagged_into(b, 1, &Frame::Bye)).unwrap();
    let before = run.clone();
    let huge = Frame::Hello(Hello {
        from: "x".repeat(MAX_FRAME),
        tunnels: 1,
    });
    assert!(matches!(
        put_frame(&mut run, |b| encode_tagged_into(b, 2, &huge)),
        Err(FrameError::TooLarge(n)) if n > MAX_FRAME
    ));
    assert_eq!(run, before);
}
