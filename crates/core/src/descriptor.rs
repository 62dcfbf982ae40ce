//! Descriptors and selectors (paper §VI-B).
//!
//! A *descriptor* is a record in which an endpoint describes itself as a
//! receiver of media: an IP address, port number, and a priority-ordered
//! list of codecs it can handle. If the endpoint does not wish to receive
//! media (`muteIn`), the only offered codec is `noMedia`.
//!
//! A *selector* is a record in which an endpoint declares its intention to
//! send to the endpoint described by a descriptor: it identifies the
//! descriptor it responds to, carries the sender's address, and names the
//! single codec the sender will use (`noMedia` if `muteOut`).
//!
//! Descriptors are *unilateral* (they describe one endpoint independently of
//! any other), which is what allows boxes to cache and re-use them — a key
//! difference from SIP's relative offer/answer (§IX-B).

use crate::codec::{Codec, CodecList, Medium};
use std::fmt;
use std::net::{IpAddr, Ipv4Addr};

/// Transport address of a media endpoint: where RTP-like packets are sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MediaAddr {
    /// IP address packets are sent to.
    pub ip: IpAddr,
    /// UDP/RTP port packets are sent to.
    pub port: u16,
}

impl MediaAddr {
    /// Address from an ip/port pair.
    pub fn new(ip: IpAddr, port: u16) -> Self {
        Self { ip, port }
    }

    /// Convenience constructor for test-lab style v4 addresses.
    pub fn v4(a: u8, b: u8, c: u8, d: u8, port: u16) -> Self {
        Self {
            ip: IpAddr::V4(Ipv4Addr::new(a, b, c, d)),
            port,
        }
    }
}

impl fmt::Display for MediaAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

/// Unique identity of a descriptor: which source issued it and its
/// generation at that source.
///
/// Selectors name the tag of the descriptor they answer; flowlinks use tag
/// equality to decide whether a selector is fresh (it responds to the other
/// slot's *current* descriptor) or obsolete and to be discarded (§VII).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DescTag {
    /// Identifier of the issuing source; unique per descriptor-issuing
    /// entity (endpoint policy or masquerading goal object).
    pub origin: u64,
    /// Monotonically increasing generation at the origin. A re-issued
    /// description of the same endpoint gets a fresh generation.
    pub generation: u32,
}

impl fmt::Display for DescTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}#{}", self.origin, self.generation)
    }
}

/// Issues uniquely-tagged descriptors on behalf of one endpoint or goal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TagSource {
    origin: u64,
    next_generation: u32,
}

impl TagSource {
    /// A source minting tags with the given unique origin.
    pub fn new(origin: u64) -> Self {
        Self {
            origin,
            next_generation: 0,
        }
    }

    /// The origin stamped on every tag this source mints.
    pub fn origin(&self) -> u64 {
        self.origin
    }

    /// Current generation counter (the generation the next mint will use).
    pub fn generation_counter(&self) -> u32 {
        self.next_generation
    }

    /// Reset the generation counter; used only by state canonicalization
    /// in the model checker (`ipmedia_core::retag`).
    #[doc(hidden)]
    pub fn set_generation_counter(&mut self, next: u32) {
        self.next_generation = next;
    }

    /// Mint the next tag for this source.
    #[allow(clippy::should_implement_trait)] // a tag mint, not an Iterator
    pub fn next(&mut self) -> DescTag {
        let tag = DescTag {
            origin: self.origin,
            generation: self.next_generation,
        };
        self.next_generation += 1;
        tag
    }
}

/// A descriptor: one endpoint's unilateral self-description as a receiver.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Descriptor {
    /// Freshness tag identifying this particular description.
    pub tag: DescTag,
    /// Where to send media. `None` only for `noMedia` descriptors.
    pub addr: Option<MediaAddr>,
    /// Priority-ordered codecs the endpoint can receive; highest priority
    /// first. Exactly `[NoMedia]` when the endpoint mutes inward flow.
    pub codecs: CodecList,
}

impl Descriptor {
    /// Descriptor of an endpoint willing to receive media at `addr` using
    /// any of `codecs` (priority order, all real).
    ///
    /// # Panics
    /// Panics if `codecs` is empty or contains `NoMedia`; a mixed offer is
    /// meaningless in the protocol.
    pub fn media(tag: DescTag, addr: MediaAddr, codecs: impl Into<CodecList>) -> Self {
        let codecs = codecs.into();
        assert!(
            !codecs.is_empty() && codecs.iter().all(|c| c.is_real()),
            "a media descriptor must offer at least one real codec and no NoMedia"
        );
        Self {
            tag,
            addr: Some(addr),
            codecs,
        }
    }

    /// Descriptor of an endpoint that does not wish to receive media
    /// (muteIn true, or an application-server slot masquerading as an
    /// endpoint, §IV-A).
    pub fn no_media(tag: DescTag) -> Self {
        Self {
            tag,
            addr: None,
            codecs: [Codec::NoMedia].into(),
        }
    }

    /// True iff this descriptor offers no real codec.
    pub fn is_no_media(&self) -> bool {
        self.codecs.iter().all(|c| !c.is_real())
    }

    /// The medium all offered codecs belong to, if the offer is real and
    /// consistent.
    pub fn medium(&self) -> Option<Medium> {
        let mut m = None;
        for c in &self.codecs {
            match (m, c.medium()) {
                (_, None) => return None,
                (None, some) => m = some,
                (Some(a), Some(b)) if a == b => {}
                _ => return None,
            }
        }
        m
    }

    /// Highest-priority codec offered that satisfies `willing`, as the
    /// paper's rule for optimal codec choice: "the sender should choose the
    /// highest-priority codec that it is able and willing to send" (§VI-B).
    pub fn best_codec_for(&self, willing: &[Codec]) -> Option<Codec> {
        self.codecs
            .iter()
            .copied()
            .find(|c| c.is_real() && willing.contains(c))
    }
}

impl fmt::Display for Descriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "desc[{}", self.tag)?;
        if let Some(a) = self.addr {
            write!(f, " @{a}")?;
        }
        write!(f, " {{")?;
        for (i, c) in self.codecs.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}]")
    }
}

/// A selector: a response to a descriptor declaring what the sender will do.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Selector {
    /// Tag of the descriptor this selector responds to.
    pub answers: DescTag,
    /// The sender's media address. `None` when not sending (`NoMedia`).
    pub sender: Option<MediaAddr>,
    /// The single codec the sender will use, selected from the descriptor's
    /// list; `NoMedia` if the sender mutes outward flow or the descriptor
    /// offered only `NoMedia`.
    pub codec: Codec,
}

impl Selector {
    /// Selector declaring active transmission in `codec` from `sender`.
    pub fn sending(answers: DescTag, sender: MediaAddr, codec: Codec) -> Self {
        assert!(codec.is_real(), "a sending selector needs a real codec");
        Self {
            answers,
            sender: Some(sender),
            codec,
        }
    }

    /// Selector declaring no transmission (muteOut, a masquerading server
    /// slot, or the mandatory `noMedia` answer to a `noMedia` descriptor).
    pub fn not_sending(answers: DescTag) -> Self {
        Self {
            answers,
            sender: None,
            codec: Codec::NoMedia,
        }
    }

    /// True iff this selector declares real sending intent (not `noMedia`).
    pub fn is_sending(&self) -> bool {
        self.codec.is_real()
    }

    /// Check protocol legality of this selector against the descriptor it
    /// claims to answer: the codec must come from the descriptor's list, and
    /// the only legal response to a `noMedia` descriptor is `noMedia`.
    pub fn answers_validly(&self, desc: &Descriptor) -> bool {
        if self.answers != desc.tag {
            return false;
        }
        if self.codec == Codec::NoMedia {
            return true;
        }
        !desc.is_no_media() && desc.codecs.contains(&self.codec)
    }
}

impl fmt::Display for Selector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sel[->{} {}", self.answers, self.codec)?;
        if let Some(a) = self.sender {
            write!(f, " from {a}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tags() -> TagSource {
        TagSource::new(42)
    }

    #[test]
    fn tag_source_is_monotonic_and_unique() {
        let mut t = tags();
        let a = t.next();
        let b = t.next();
        assert_eq!(a.origin, 42);
        assert_eq!(b.origin, 42);
        assert!(b.generation > a.generation);
        assert_ne!(a, b);
    }

    #[test]
    fn no_media_descriptor_shape() {
        let d = Descriptor::no_media(tags().next());
        assert!(d.is_no_media());
        assert_eq!(d.addr, None);
        assert_eq!(d.codecs, vec![Codec::NoMedia]);
        assert_eq!(d.medium(), None);
    }

    #[test]
    fn media_descriptor_shape() {
        let d = Descriptor::media(
            tags().next(),
            MediaAddr::v4(10, 0, 0, 1, 4000),
            vec![Codec::G711, Codec::G726],
        );
        assert!(!d.is_no_media());
        assert_eq!(d.medium(), Some(Medium::Audio));
    }

    #[test]
    #[should_panic = "at least one real codec"]
    fn media_descriptor_rejects_no_media_codec() {
        Descriptor::media(
            tags().next(),
            MediaAddr::v4(10, 0, 0, 1, 4000),
            vec![Codec::NoMedia],
        );
    }

    #[test]
    fn best_codec_respects_priority_order() {
        // Descriptor prefers G.711; a sender able to send both picks G.711,
        // a sender only able to send G.726 picks that.
        let d = Descriptor::media(
            tags().next(),
            MediaAddr::v4(10, 0, 0, 1, 4000),
            vec![Codec::G711, Codec::G726],
        );
        assert_eq!(
            d.best_codec_for(&[Codec::G726, Codec::G711]),
            Some(Codec::G711)
        );
        assert_eq!(d.best_codec_for(&[Codec::G726]), Some(Codec::G726));
        assert_eq!(d.best_codec_for(&[Codec::G729]), None);
    }

    #[test]
    fn only_legal_response_to_no_media_is_no_media() {
        let mut t = tags();
        let d = Descriptor::no_media(t.next());
        let ok = Selector::not_sending(d.tag);
        assert!(ok.answers_validly(&d));
        let bad = Selector::sending(d.tag, MediaAddr::v4(1, 2, 3, 4, 5), Codec::G711);
        assert!(!bad.answers_validly(&d));
    }

    #[test]
    fn selector_must_pick_from_offered_list() {
        let d = Descriptor::media(
            tags().next(),
            MediaAddr::v4(10, 0, 0, 1, 4000),
            vec![Codec::G726],
        );
        let wrong_codec = Selector::sending(d.tag, MediaAddr::v4(1, 1, 1, 1, 9), Codec::G711);
        assert!(!wrong_codec.answers_validly(&d));
        let right = Selector::sending(d.tag, MediaAddr::v4(1, 1, 1, 1, 9), Codec::G726);
        assert!(right.answers_validly(&d));
    }

    #[test]
    fn selector_must_answer_matching_tag() {
        let mut t = tags();
        let d1 = Descriptor::no_media(t.next());
        let d2 = Descriptor::no_media(t.next());
        let s = Selector::not_sending(d1.tag);
        assert!(s.answers_validly(&d1));
        assert!(!s.answers_validly(&d2));
    }

    #[test]
    fn mixed_medium_descriptor_has_no_medium() {
        let d = Descriptor::media(
            tags().next(),
            MediaAddr::v4(10, 0, 0, 1, 4000),
            vec![Codec::G711, Codec::H261],
        );
        assert_eq!(d.medium(), None);
    }
}
