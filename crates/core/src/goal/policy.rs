//! Media policies: who composes descriptors and selectors for a slot.
//!
//! A goal object needs to describe its end of a media channel (as a
//! receiver) and to answer descriptors (as a sender). For goal objects in
//! application servers the answer is fixed: a server slot "may be
//! masquerading as a media endpoint, but it is not a genuine media endpoint,
//! and can neither send nor receive media packets fruitfully", so it mutes
//! media flow in both directions (paper §IV-A). For genuine endpoints the
//! user's address, codec capabilities, and `mute` flags decide.

use crate::codec::{Codec, CodecList};
use crate::descriptor::{Descriptor, MediaAddr, Selector, TagSource};

/// Media capabilities and current user intent of a genuine endpoint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EndpointPolicy {
    /// Where this endpoint receives media.
    pub addr: MediaAddr,
    /// Codecs this endpoint can receive, in descending priority order.
    pub recv_codecs: CodecList,
    /// Codecs this endpoint is able and willing to send.
    pub send_codecs: CodecList,
    /// The user desires inward media flow to be suspended (Fig. 5).
    pub mute_in: bool,
    /// The user desires outward media flow to be suspended (Fig. 5).
    pub mute_out: bool,
}

impl EndpointPolicy {
    /// A symmetric audio endpoint with the standard codec set and no muting.
    pub fn audio(addr: MediaAddr) -> Self {
        Self {
            addr,
            recv_codecs: Codec::audio_all().into(),
            send_codecs: Codec::audio_all().into(),
            mute_in: false,
            mute_out: false,
        }
    }
}

/// How a slot's descriptors and selectors are produced.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Application-server slot: mutes media in both directions.
    Server,
    /// Genuine media endpoint with user-controlled muting.
    Endpoint(EndpointPolicy),
}

impl Policy {
    /// Compose a fresh self-description as a receiver of media.
    pub fn descriptor(&self, tags: &mut TagSource) -> Descriptor {
        match self {
            Policy::Server => Descriptor::no_media(tags.next()),
            Policy::Endpoint(p) if p.mute_in => Descriptor::no_media(tags.next()),
            Policy::Endpoint(p) => Descriptor::media(tags.next(), p.addr, p.recv_codecs),
        }
    }

    /// Answer a received descriptor with a selector, applying the paper's
    /// optimal-codec rule: the highest-priority offered codec the sender is
    /// able and willing to send; `noMedia` when muting outward, when the
    /// descriptor offers `noMedia` only, or when no codec is shared.
    pub fn selector_for(&self, desc: &Descriptor) -> Selector {
        match self {
            Policy::Server => Selector::not_sending(desc.tag),
            Policy::Endpoint(p) => {
                if p.mute_out {
                    return Selector::not_sending(desc.tag);
                }
                match desc.best_codec_for(&p.send_codecs) {
                    Some(codec) => Selector::sending(desc.tag, p.addr, codec),
                    None => Selector::not_sending(desc.tag),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tags() -> TagSource {
        TagSource::new(7)
    }

    #[test]
    fn server_policy_mutes_both_directions() {
        let mut t = tags();
        let p = Policy::Server;
        let d = p.descriptor(&mut t);
        assert!(d.is_no_media());
        let peer = Descriptor::media(
            t.next(),
            MediaAddr::v4(10, 0, 0, 9, 4000),
            vec![Codec::G711],
        );
        assert!(!p.selector_for(&peer).is_sending());
    }

    #[test]
    fn endpoint_policy_offers_codecs_and_selects_optimally() {
        let mut t = tags();
        let p = Policy::Endpoint(EndpointPolicy::audio(MediaAddr::v4(10, 0, 0, 1, 4000)));
        let d = p.descriptor(&mut t);
        assert!(!d.is_no_media());
        assert_eq!(d.codecs[0], Codec::G711, "highest fidelity first");

        let peer = Descriptor::media(
            t.next(),
            MediaAddr::v4(10, 0, 0, 2, 5000),
            vec![Codec::G726, Codec::G711],
        );
        let sel = p.selector_for(&peer);
        assert_eq!(
            sel.codec,
            Codec::G726,
            "respects the receiver's priority order"
        );
    }

    #[test]
    fn mute_in_yields_no_media_descriptor() {
        let mut t = tags();
        let mut ep = EndpointPolicy::audio(MediaAddr::v4(10, 0, 0, 1, 4000));
        ep.mute_in = true;
        let d = Policy::Endpoint(ep).descriptor(&mut t);
        assert!(d.is_no_media());
    }

    #[test]
    fn mute_out_yields_no_media_selector() {
        let mut t = tags();
        let mut ep = EndpointPolicy::audio(MediaAddr::v4(10, 0, 0, 1, 4000));
        ep.mute_out = true;
        let peer = Descriptor::media(
            t.next(),
            MediaAddr::v4(10, 0, 0, 2, 5000),
            vec![Codec::G711],
        );
        let sel = Policy::Endpoint(ep).selector_for(&peer);
        assert!(!sel.is_sending());
        assert!(sel.answers_validly(&peer));
    }

    #[test]
    fn no_shared_codec_yields_no_media_selector() {
        let mut t = tags();
        let mut ep = EndpointPolicy::audio(MediaAddr::v4(10, 0, 0, 1, 4000));
        ep.send_codecs = [Codec::G729].into();
        let peer = Descriptor::media(
            t.next(),
            MediaAddr::v4(10, 0, 0, 2, 5000),
            vec![Codec::G711],
        );
        let sel = Policy::Endpoint(ep).selector_for(&peer);
        assert!(!sel.is_sending());
    }
}
