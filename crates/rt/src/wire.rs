//! Binary wire format for signaling-channel messages.
//!
//! A signaling channel between physical components is TCP (paper §I); this
//! module defines the byte encoding of [`ChannelMsg`]s carried in the
//! length-prefixed frames of [`crate::frame`]. The format is versioned,
//! self-contained, and deliberately simple: fixed-width tags, big-endian
//! integers, length-prefixed strings and lists.
//!
//! Every channel a node dials to one peer shares one TCP connection, its
//! *transport*, so a frame on a transport names its channel:
//! [`encode_tagged`] puts the dialer's channel id between the version and
//! the frame. [`encode`] is the frame alone.
//!
//! There is one encoder, into any [`BufMut`] ([`encode_tagged_into`], what
//! a transport's writer runs into its one buffer), and one decoder, over a
//! byte slice in place ([`decode_tagged_slice`], what a node runs on each
//! frame of a run); the `Bytes` entry points wrap them.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use ipmedia_core::{
    AppEvent, Availability, ChannelMsg, Codec, CodecList, DescTag, Descriptor, MediaAddr, Medium,
    MetaSignal, MixRow, MovieCommand, Selector, Signal, TunnelId,
};
use ipmedia_obs::trace::{SpanCtx, SpanId, TraceId};
use std::net::IpAddr;

/// Format version carried in every frame. Version 3 tags each frame with
/// its channel id alone.
pub const WIRE_VERSION: u8 = 3;

/// Errors from decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    Truncated,
    BadVersion(u8),
    BadTag(&'static str, u8),
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => f.write_str("truncated frame"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag(what, t) => write!(f, "bad {what} tag {t}"),
            WireError::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Channel setup: the first frame of a channel on its transport, whether
/// the transport is new or already carries others.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    pub from: String,
    pub tunnels: u16,
}

/// Everything that can travel in one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    Hello(Hello),
    Msg(ChannelMsg),
    /// Orderly shutdown of the signaling channel.
    Bye,
    /// A [`ChannelMsg`] with the sender's causal trace context piggybacked
    /// on it (`sent_micros` is the sender's clock; receivers use their own
    /// for the arrival edge). Receivers that don't trace simply unwrap the
    /// inner message, so traced and untraced nodes interoperate.
    Traced {
        ctx: SpanCtx,
        msg: ChannelMsg,
    },
}

/// A frame's bytes, without a channel.
pub fn encode(frame: &Frame) -> Bytes {
    let mut b = BytesMut::with_capacity(64);
    b.put_u8(WIRE_VERSION);
    encode_frame(&mut b, frame);
    b.freeze()
}

/// A frame's bytes on a transport: `frame` of the channel the dialer
/// numbered `channel`. [`encode_tagged_into`] into a new buffer.
pub fn encode_tagged(channel: u32, frame: &Frame) -> Bytes {
    let mut b = BytesMut::with_capacity(64);
    encode_tagged_into(&mut b, channel, frame);
    b.freeze()
}

/// Append [`encode_tagged`]'s bytes to `b`: the one encoder a transport
/// writer runs, into its one reused buffer.
pub fn encode_tagged_into(b: &mut impl BufMut, channel: u32, frame: &Frame) {
    b.put_u8(WIRE_VERSION);
    b.put_u32(channel);
    encode_frame(b, frame);
}

/// The inverse of [`encode`].
pub fn decode(buf: Bytes) -> Result<Frame, WireError> {
    let mut buf = &buf[..];
    version(&mut buf)?;
    decode_frame(&mut buf)
}

/// The inverse of [`encode_tagged`]: [`decode_tagged_slice`] of its bytes.
pub fn decode_tagged(buf: Bytes) -> Result<(u32, Frame), WireError> {
    decode_tagged_slice(&buf)
}

/// The channel and frame a tagged frame's bytes carry, read in place: the
/// one decoder a node runs on the frames of a run.
pub fn decode_tagged_slice(mut buf: &[u8]) -> Result<(u32, Frame), WireError> {
    version(&mut buf)?;
    let channel = get_u32(&mut buf)?;
    Ok((channel, decode_frame(&mut buf)?))
}

fn version(buf: &mut &[u8]) -> Result<(), WireError> {
    match get_u8(buf)? {
        WIRE_VERSION => Ok(()),
        v => Err(WireError::BadVersion(v)),
    }
}

fn encode_frame(b: &mut impl BufMut, frame: &Frame) {
    match frame {
        Frame::Hello(h) => {
            b.put_u8(0);
            put_str(b, &h.from);
            b.put_u16(h.tunnels);
        }
        Frame::Msg(m) => {
            b.put_u8(1);
            encode_msg(b, m);
        }
        Frame::Bye => b.put_u8(2),
        Frame::Traced { ctx, msg } => {
            b.put_u8(3);
            b.put_u64(ctx.trace.0);
            b.put_u64(ctx.parent.0);
            b.put_u32(ctx.bx);
            b.put_u64(ctx.sent_micros);
            encode_msg(b, msg);
        }
    }
}

fn decode_frame(buf: &mut &[u8]) -> Result<Frame, WireError> {
    match get_u8(buf)? {
        0 => {
            let from = get_str(buf)?;
            let tunnels = get_u16(buf)?;
            Ok(Frame::Hello(Hello { from, tunnels }))
        }
        1 => Ok(Frame::Msg(decode_msg(buf)?)),
        2 => Ok(Frame::Bye),
        3 => {
            let ctx = SpanCtx {
                trace: TraceId(get_u64(buf)?),
                parent: SpanId(get_u64(buf)?),
                bx: get_u32(buf)?,
                sent_micros: get_u64(buf)?,
            };
            let msg = decode_msg(buf)?;
            Ok(Frame::Traced { ctx, msg })
        }
        t => Err(WireError::BadTag("frame", t)),
    }
}

fn encode_msg(b: &mut impl BufMut, m: &ChannelMsg) {
    match m {
        ChannelMsg::Tunnel { tunnel, signal } => {
            b.put_u8(0);
            b.put_u16(tunnel.0);
            encode_signal(b, signal);
        }
        ChannelMsg::Meta(meta) => {
            b.put_u8(1);
            encode_meta(b, meta);
        }
    }
}

fn decode_msg(buf: &mut &[u8]) -> Result<ChannelMsg, WireError> {
    match get_u8(buf)? {
        0 => {
            let tunnel = TunnelId(get_u16(buf)?);
            let signal = decode_signal(buf)?;
            Ok(ChannelMsg::Tunnel { tunnel, signal })
        }
        1 => Ok(ChannelMsg::Meta(decode_meta(buf)?)),
        t => Err(WireError::BadTag("msg", t)),
    }
}

fn encode_signal(b: &mut impl BufMut, s: &Signal) {
    match s {
        Signal::Open { medium, desc } => {
            b.put_u8(0);
            b.put_u8(medium_id(*medium));
            encode_desc(b, desc);
        }
        Signal::Oack { desc } => {
            b.put_u8(1);
            encode_desc(b, desc);
        }
        Signal::Close => b.put_u8(2),
        Signal::CloseAck => b.put_u8(3),
        Signal::Describe { desc } => {
            b.put_u8(4);
            encode_desc(b, desc);
        }
        Signal::Select { sel } => {
            b.put_u8(5);
            encode_sel(b, sel);
        }
    }
}

fn decode_signal(buf: &mut &[u8]) -> Result<Signal, WireError> {
    match get_u8(buf)? {
        0 => {
            let medium = medium_from(get_u8(buf)?)?;
            let desc = decode_desc(buf)?;
            Ok(Signal::Open { medium, desc })
        }
        1 => Ok(Signal::Oack {
            desc: decode_desc(buf)?,
        }),
        2 => Ok(Signal::Close),
        3 => Ok(Signal::CloseAck),
        4 => Ok(Signal::Describe {
            desc: decode_desc(buf)?,
        }),
        5 => Ok(Signal::Select {
            sel: decode_sel(buf)?,
        }),
        t => Err(WireError::BadTag("signal", t)),
    }
}

fn encode_meta(b: &mut impl BufMut, m: &MetaSignal) {
    match m {
        MetaSignal::ChannelUp => b.put_u8(0),
        MetaSignal::Peer(av) => {
            b.put_u8(1);
            b.put_u8(matches!(av, Availability::Available) as u8);
        }
        MetaSignal::Teardown => b.put_u8(2),
        MetaSignal::App(app) => {
            b.put_u8(3);
            encode_app(b, app);
        }
    }
}

fn decode_meta(buf: &mut &[u8]) -> Result<MetaSignal, WireError> {
    match get_u8(buf)? {
        0 => Ok(MetaSignal::ChannelUp),
        1 => Ok(MetaSignal::Peer(if get_u8(buf)? != 0 {
            Availability::Available
        } else {
            Availability::Unavailable
        })),
        2 => Ok(MetaSignal::Teardown),
        3 => Ok(MetaSignal::App(decode_app(buf)?)),
        t => Err(WireError::BadTag("meta", t)),
    }
}

fn encode_app(b: &mut impl BufMut, a: &AppEvent) {
    match a {
        AppEvent::FundsVerified => b.put_u8(0),
        AppEvent::MixMatrix(rows) => {
            b.put_u8(1);
            b.put_u16(rows.len() as u16);
            for r in rows {
                b.put_u16(r.output);
                b.put_u16(r.hears.len() as u16);
                for (input, gain) in &r.hears {
                    b.put_u16(*input);
                    b.put_u8(*gain);
                }
            }
        }
        AppEvent::MovieControl(cmd) => {
            b.put_u8(2);
            match cmd {
                MovieCommand::Play => b.put_u8(0),
                MovieCommand::Pause => b.put_u8(1),
                MovieCommand::Seek(s) => {
                    b.put_u8(2);
                    b.put_u32(*s);
                }
            }
        }
        AppEvent::Custom(s) => {
            b.put_u8(3);
            put_str(b, s);
        }
    }
}

fn decode_app(buf: &mut &[u8]) -> Result<AppEvent, WireError> {
    match get_u8(buf)? {
        0 => Ok(AppEvent::FundsVerified),
        1 => {
            let n = get_u16(buf)? as usize;
            let mut rows = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let output = get_u16(buf)?;
                let k = get_u16(buf)? as usize;
                let mut hears = Vec::with_capacity(k.min(1024));
                for _ in 0..k {
                    let input = get_u16(buf)?;
                    let gain = get_u8(buf)?;
                    hears.push((input, gain));
                }
                rows.push(MixRow { output, hears });
            }
            Ok(AppEvent::MixMatrix(rows))
        }
        2 => match get_u8(buf)? {
            0 => Ok(AppEvent::MovieControl(MovieCommand::Play)),
            1 => Ok(AppEvent::MovieControl(MovieCommand::Pause)),
            2 => Ok(AppEvent::MovieControl(MovieCommand::Seek(get_u32(buf)?))),
            t => Err(WireError::BadTag("movie command", t)),
        },
        3 => Ok(AppEvent::Custom(get_str(buf)?)),
        t => Err(WireError::BadTag("app event", t)),
    }
}

fn encode_desc(b: &mut impl BufMut, d: &Descriptor) {
    b.put_u64(d.tag.origin);
    b.put_u32(d.tag.generation);
    put_addr_opt(b, d.addr);
    b.put_u8(u8::try_from(d.codecs.len()).expect("a codec list is shorter than 256"));
    for c in &d.codecs {
        b.put_u8(codec_id(*c));
    }
}

fn decode_desc(buf: &mut &[u8]) -> Result<Descriptor, WireError> {
    let tag = DescTag {
        origin: get_u64(buf)?,
        generation: get_u32(buf)?,
    };
    let addr = get_addr_opt(buf)?;
    let n = get_u8(buf)?;
    let mut codecs = CodecList::new();
    for _ in 0..n {
        // More codecs than there are: one is listed twice.
        codecs
            .push(codec_from(get_u8(buf)?)?)
            .map_err(|_| WireError::Malformed("descriptor with too many codecs"))?;
    }
    if codecs.is_empty() {
        return Err(WireError::Malformed("descriptor with no codecs"));
    }
    Ok(Descriptor { tag, addr, codecs })
}

fn encode_sel(b: &mut impl BufMut, s: &Selector) {
    b.put_u64(s.answers.origin);
    b.put_u32(s.answers.generation);
    put_addr_opt(b, s.sender);
    b.put_u8(codec_id(s.codec));
}

fn decode_sel(buf: &mut &[u8]) -> Result<Selector, WireError> {
    let answers = DescTag {
        origin: get_u64(buf)?,
        generation: get_u32(buf)?,
    };
    let sender = get_addr_opt(buf)?;
    let codec = codec_from(get_u8(buf)?)?;
    Ok(Selector {
        answers,
        sender,
        codec,
    })
}

fn medium_id(m: Medium) -> u8 {
    match m {
        Medium::Audio => 0,
        Medium::Video => 1,
        Medium::VideoHd => 2,
        Medium::Text => 3,
        Medium::AudioVideo => 4,
    }
}

fn medium_from(v: u8) -> Result<Medium, WireError> {
    Ok(match v {
        0 => Medium::Audio,
        1 => Medium::Video,
        2 => Medium::VideoHd,
        3 => Medium::Text,
        4 => Medium::AudioVideo,
        t => return Err(WireError::BadTag("medium", t)),
    })
}

fn codec_id(c: Codec) -> u8 {
    match c {
        Codec::NoMedia => 0,
        Codec::G711 => 1,
        Codec::G726 => 2,
        Codec::G729 => 3,
        Codec::H261 => 4,
        Codec::H263 => 5,
        Codec::T140 => 6,
    }
}

fn codec_from(v: u8) -> Result<Codec, WireError> {
    Ok(match v {
        0 => Codec::NoMedia,
        1 => Codec::G711,
        2 => Codec::G726,
        3 => Codec::G729,
        4 => Codec::H261,
        5 => Codec::H263,
        6 => Codec::T140,
        t => return Err(WireError::BadTag("codec", t)),
    })
}

fn put_addr_opt(b: &mut impl BufMut, addr: Option<MediaAddr>) {
    match addr {
        None => b.put_u8(0),
        Some(a) => match a.ip {
            IpAddr::V4(ip) => {
                b.put_u8(4);
                b.put_slice(&ip.octets());
                b.put_u16(a.port);
            }
            IpAddr::V6(ip) => {
                b.put_u8(6);
                b.put_slice(&ip.octets());
                b.put_u16(a.port);
            }
        },
    }
}

fn get_addr_opt(buf: &mut &[u8]) -> Result<Option<MediaAddr>, WireError> {
    match get_u8(buf)? {
        0 => Ok(None),
        4 => {
            if buf.remaining() < 6 {
                return Err(WireError::Truncated);
            }
            let mut o = [0u8; 4];
            buf.copy_to_slice(&mut o);
            let port = buf.get_u16();
            Ok(Some(MediaAddr::new(IpAddr::from(o), port)))
        }
        6 => {
            if buf.remaining() < 18 {
                return Err(WireError::Truncated);
            }
            let mut o = [0u8; 16];
            buf.copy_to_slice(&mut o);
            let port = buf.get_u16();
            Ok(Some(MediaAddr::new(IpAddr::from(o), port)))
        }
        t => Err(WireError::BadTag("addr", t)),
    }
}

fn put_str(b: &mut impl BufMut, s: &str) {
    b.put_u16(s.len() as u16);
    b.put_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Result<String, WireError> {
    let n = get_u16(buf)? as usize;
    if buf.remaining() < n {
        return Err(WireError::Truncated);
    }
    let (bytes, rest) = buf.split_at(n);
    *buf = rest;
    String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("utf-8 string"))
}

macro_rules! getter {
    ($name:ident, $ty:ty, $size:expr, $get:ident) => {
        fn $name(buf: &mut &[u8]) -> Result<$ty, WireError> {
            if buf.remaining() < $size {
                return Err(WireError::Truncated);
            }
            Ok(buf.$get())
        }
    };
}
getter!(get_u8, u8, 1, get_u8);
getter!(get_u16, u16, 2, get_u16);
getter!(get_u32, u32, 4, get_u32);
getter!(get_u64, u64, 8, get_u64);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let bytes = encode(&f);
        let back = decode(bytes).expect("decodes");
        assert_eq!(f, back);
    }

    fn desc() -> Descriptor {
        Descriptor::media(
            DescTag {
                origin: 0xDEAD_BEEF,
                generation: 7,
            },
            MediaAddr::v4(10, 1, 2, 3, 4000),
            vec![Codec::G711, Codec::G726],
        )
    }

    #[test]
    fn hello_roundtrip() {
        roundtrip(Frame::Hello(Hello {
            from: "pbx".into(),
            tunnels: 5,
        }));
    }

    #[test]
    fn all_signals_roundtrip() {
        for sig in [
            Signal::Open {
                medium: Medium::Video,
                desc: desc(),
            },
            Signal::Oack { desc: desc() },
            Signal::Close,
            Signal::CloseAck,
            Signal::Describe {
                desc: Descriptor::no_media(DescTag {
                    origin: 1,
                    generation: 0,
                }),
            },
            Signal::Select {
                sel: Selector::sending(
                    DescTag {
                        origin: 9,
                        generation: 3,
                    },
                    MediaAddr::v4(1, 2, 3, 4, 5),
                    Codec::G729,
                ),
            },
            Signal::Select {
                sel: Selector::not_sending(DescTag {
                    origin: 2,
                    generation: 1,
                }),
            },
        ] {
            roundtrip(Frame::Msg(ChannelMsg::Tunnel {
                tunnel: TunnelId(3),
                signal: sig,
            }));
        }
    }

    #[test]
    fn all_metas_roundtrip() {
        for meta in [
            MetaSignal::ChannelUp,
            MetaSignal::Peer(Availability::Available),
            MetaSignal::Peer(Availability::Unavailable),
            MetaSignal::Teardown,
            MetaSignal::App(AppEvent::FundsVerified),
            MetaSignal::App(AppEvent::Custom("switch:1".into())),
            MetaSignal::App(AppEvent::MovieControl(MovieCommand::Seek(3600))),
            MetaSignal::App(AppEvent::MovieControl(MovieCommand::Play)),
            MetaSignal::App(AppEvent::MixMatrix(vec![MixRow {
                output: 1,
                hears: vec![(0, 100), (2, 30)],
            }])),
        ] {
            roundtrip(Frame::Msg(ChannelMsg::Meta(meta)));
        }
    }

    #[test]
    fn ipv6_addresses_roundtrip() {
        let d = Descriptor::media(
            DescTag {
                origin: 3,
                generation: 1,
            },
            MediaAddr::new("2001:db8::1".parse().unwrap(), 9000),
            vec![Codec::G711],
        );
        roundtrip(Frame::Msg(ChannelMsg::Tunnel {
            tunnel: TunnelId(0),
            signal: Signal::Oack { desc: d },
        }));
    }

    #[test]
    fn descriptor_with_too_many_codecs_is_malformed() {
        // A full list round-trips; one more codec byte than there are
        // codecs (so one of them repeats) is refused, not truncated.
        let full = Descriptor {
            codecs: Codec::ALL.into(),
            ..desc()
        };
        let frame = Frame::Msg(ChannelMsg::Tunnel {
            tunnel: TunnelId(0),
            signal: Signal::Oack { desc: full },
        });
        let mut bytes = encode(&frame).to_vec();
        assert_eq!(decode(Bytes::from(bytes.clone())), Ok(frame));
        // The descriptor ends the frame: a count byte, then the codecs.
        let count = bytes.len() - 1 - Codec::ALL.len();
        assert_eq!(usize::from(bytes[count]), Codec::ALL.len());
        bytes[count] += 1;
        bytes.push(codec_id(Codec::G711));
        assert_eq!(
            decode(Bytes::from(bytes)),
            Err(WireError::Malformed("descriptor with too many codecs"))
        );
    }

    #[test]
    fn bye_roundtrip() {
        roundtrip(Frame::Bye);
    }

    #[test]
    fn a_tagged_frame_is_its_tag_before_the_frame() {
        let frame = Frame::Msg(ChannelMsg::Meta(MetaSignal::Teardown));
        let tagged = encode_tagged(0x0102_0304, &frame);
        let plain = encode(&frame);
        assert_eq!(tagged[..5], [WIRE_VERSION, 1, 2, 3, 4]);
        assert_eq!(tagged[5..], plain[1..]);
        assert_eq!(decode_tagged(tagged), Ok((0x0102_0304, frame)));
        // A tagged frame cut inside its tag is truncated, not misread.
        for cut in 0..5 {
            let partial = encode_tagged(7, &Frame::Bye).slice(0..cut);
            assert_eq!(decode_tagged(partial), Err(WireError::Truncated));
        }
    }

    #[test]
    fn traced_roundtrip() {
        roundtrip(Frame::Traced {
            ctx: SpanCtx {
                trace: TraceId(0x1122_3344_5566_7788),
                parent: SpanId(42),
                bx: 7,
                sent_micros: 1_234_567,
            },
            msg: ChannelMsg::Tunnel {
                tunnel: TunnelId(3),
                signal: Signal::Open {
                    medium: Medium::Audio,
                    desc: desc(),
                },
            },
        });
        roundtrip(Frame::Traced {
            ctx: SpanCtx {
                trace: TraceId(1),
                parent: SpanId(0),
                bx: 0,
                sent_micros: 0,
            },
            msg: ChannelMsg::Meta(MetaSignal::Teardown),
        });
    }

    #[test]
    fn traced_rejects_truncation_everywhere() {
        let full = encode(&Frame::Traced {
            ctx: SpanCtx {
                trace: TraceId(5),
                parent: SpanId(6),
                bx: 7,
                sent_micros: 8,
            },
            msg: ChannelMsg::Tunnel {
                tunnel: TunnelId(1),
                signal: Signal::Close,
            },
        });
        for cut in 0..full.len() {
            let partial = full.slice(0..cut);
            assert!(decode(partial).is_err(), "cut at {cut} must error");
        }
    }

    #[test]
    fn rejects_bad_version() {
        let mut b = BytesMut::new();
        b.put_u8(99);
        b.put_u8(2);
        assert_eq!(decode(b.freeze()), Err(WireError::BadVersion(99)));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        // Truncate a valid frame at every length and require a clean error
        // (never a panic).
        let full = encode(&Frame::Msg(ChannelMsg::Tunnel {
            tunnel: TunnelId(3),
            signal: Signal::Open {
                medium: Medium::Audio,
                desc: desc(),
            },
        }));
        for cut in 0..full.len() {
            let partial = full.slice(0..cut);
            assert!(decode(partial).is_err(), "cut at {cut} must error");
        }
    }

    #[test]
    fn rejects_garbage_tags() {
        let mut b = BytesMut::new();
        b.put_u8(WIRE_VERSION);
        b.put_u8(7); // no such frame tag
        assert!(matches!(
            decode(b.freeze()),
            Err(WireError::BadTag("frame", 7))
        ));
    }
}
