//! Media and codecs (paper §III-B, §VI-A).
//!
//! A *medium* is the kind of content a media channel carries; a *codec* is a
//! data format for a medium. The distinguished pseudo-codec [`Codec::NoMedia`]
//! indicates no media transmission: a descriptor offering only `NoMedia`
//! means "do not send to me" (muteIn), and a selector carrying `NoMedia`
//! means "I am not sending" (muteOut).

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// The medium of a media channel, chosen when the channel is opened.
///
/// Audio and video are the usual media, but the paper notes that quality
/// tiers, text, or combined encodings are also possible (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Medium {
    /// Audio (voice).
    Audio,
    /// Video.
    Video,
    /// High-definition variant of video (media may be subdivided by quality).
    VideoHd,
    /// Real-time text.
    Text,
    /// A single medium encoding audio and video together.
    AudioVideo,
}

impl fmt::Display for Medium {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Medium::Audio => "audio",
            Medium::Video => "video",
            Medium::VideoHd => "video-hd",
            Medium::Text => "text",
            Medium::AudioVideo => "audio+video",
        };
        f.write_str(s)
    }
}

/// A coder-decoder: the data format used in one direction of a media channel.
///
/// The two directions of a channel may use different codecs (§VI-A). Fidelity
/// and bandwidth figures follow the paper's examples: G.711 is the
/// higher-fidelity, higher-bandwidth audio codec (circuit-switched-telephony
/// quality); G.726 is lower-fidelity and lower-bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Codec {
    /// Distinguished pseudo-codec: no media transmission.
    NoMedia,
    /// ITU-T G.711 PCM audio, 64 kbit/s.
    G711,
    /// ITU-T G.726 ADPCM audio, 32 kbit/s.
    G726,
    /// ITU-T G.729 CS-ACELP audio, 8 kbit/s.
    G729,
    /// ITU-T H.261 video.
    H261,
    /// ITU-T H.263 video.
    H263,
    /// Plain UTF-8 text frames.
    T140,
}

impl Codec {
    /// Every codec, `NoMedia` included, in declaration order.
    pub const ALL: [Codec; 7] = [
        Codec::NoMedia,
        Codec::G711,
        Codec::G726,
        Codec::G729,
        Codec::H261,
        Codec::H263,
        Codec::T140,
    ];

    /// The medium this codec encodes. `NoMedia` encodes none.
    pub fn medium(self) -> Option<Medium> {
        match self {
            Codec::NoMedia => None,
            Codec::G711 | Codec::G726 | Codec::G729 => Some(Medium::Audio),
            Codec::H261 | Codec::H263 => Some(Medium::Video),
            Codec::T140 => Some(Medium::Text),
        }
    }

    /// True for every codec except the `NoMedia` pseudo-codec.
    pub fn is_real(self) -> bool {
        self != Codec::NoMedia
    }

    /// Nominal bandwidth in kilobits per second (0 for `NoMedia`).
    ///
    /// Used by the simulated media plane to size packets; the control plane
    /// never depends on it.
    pub fn bandwidth_kbps(self) -> u32 {
        match self {
            Codec::NoMedia => 0,
            Codec::G711 => 64,
            Codec::G726 => 32,
            Codec::G729 => 8,
            Codec::H261 => 384,
            Codec::H263 => 512,
            Codec::T140 => 1,
        }
    }

    /// All real audio codecs in descending fidelity order.
    pub fn audio_all() -> &'static [Codec] {
        &[Codec::G711, Codec::G726, Codec::G729]
    }

    /// All real video codecs in descending fidelity order.
    pub fn video_all() -> &'static [Codec] {
        &[Codec::H263, Codec::H261]
    }
}

impl fmt::Display for Codec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Codec::NoMedia => "noMedia",
            Codec::G711 => "G.711",
            Codec::G726 => "G.726",
            Codec::G729 => "G.729",
            Codec::H261 => "H.261",
            Codec::H263 => "H.263",
            Codec::T140 => "T.140",
        };
        f.write_str(s)
    }
}

/// A priority-ordered codec list (§VI-A), held inline.
///
/// A descriptor or an endpoint policy lists each codec it means at most
/// once, so a list never needs more room than there are codecs; keeping
/// it in the record makes descriptors — and the signals, slots and
/// checker states that embed them — plain memory with no heap behind
/// them. Reads as a `[Codec]` through `Deref`; compares, orders, hashes
/// and prints exactly as that slice does.
#[derive(Clone, Copy)]
pub struct CodecList {
    len: u8,
    /// Entries past `len` are filler and never observable.
    items: [Codec; Self::CAPACITY],
}

/// More codecs than a [`CodecList`] holds: some codec is listed twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooManyCodecs;

impl fmt::Display for TooManyCodecs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "a codec list holds at most {} codecs",
            CodecList::CAPACITY
        )
    }
}

impl std::error::Error for TooManyCodecs {}

impl CodecList {
    /// The longest list: one entry per codec.
    pub const CAPACITY: usize = Codec::ALL.len();

    /// The empty list.
    pub const fn new() -> Self {
        Self {
            len: 0,
            items: [Codec::NoMedia; Self::CAPACITY],
        }
    }

    /// Append `codec` at the lowest priority.
    pub fn push(&mut self, codec: Codec) -> Result<(), TooManyCodecs> {
        let slot = self
            .items
            .get_mut(usize::from(self.len))
            .ok_or(TooManyCodecs)?;
        *slot = codec;
        self.len += 1;
        Ok(())
    }
}

impl Default for CodecList {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for CodecList {
    type Target = [Codec];

    fn deref(&self) -> &[Codec] {
        &self.items[..usize::from(self.len)]
    }
}

/// Conversion for lists written in the program (`vec![..]`, array
/// literals, [`Codec::audio_all`]).
///
/// # Panics
/// Panics on more than [`CodecList::CAPACITY`] codecs; a list read from
/// outside the program is built with [`CodecList::push`].
impl From<&[Codec]> for CodecList {
    fn from(codecs: &[Codec]) -> Self {
        let mut list = Self::new();
        for &c in codecs {
            if let Err(e) = list.push(c) {
                panic!("{e}, got {}", codecs.len());
            }
        }
        list
    }
}

impl From<Vec<Codec>> for CodecList {
    fn from(codecs: Vec<Codec>) -> Self {
        Self::from(&codecs[..])
    }
}

impl<const N: usize> From<[Codec; N]> for CodecList {
    fn from(codecs: [Codec; N]) -> Self {
        Self::from(&codecs[..])
    }
}

impl<'a> IntoIterator for &'a CodecList {
    type Item = &'a Codec;
    type IntoIter = std::slice::Iter<'a, Codec>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for CodecList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for CodecList {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for CodecList {}

impl PartialEq<Vec<Codec>> for CodecList {
    fn eq(&self, other: &Vec<Codec>) -> bool {
        **self == **other
    }
}

impl PartialOrd for CodecList {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CodecList {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (**self).cmp(&**other)
    }
}

impl Hash for CodecList {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_media_is_not_real() {
        assert!(!Codec::NoMedia.is_real());
        assert!(Codec::G711.is_real());
    }

    #[test]
    fn codec_media_are_consistent() {
        for c in Codec::audio_all() {
            assert_eq!(c.medium(), Some(Medium::Audio));
        }
        for c in Codec::video_all() {
            assert_eq!(c.medium(), Some(Medium::Video));
        }
        assert_eq!(Codec::NoMedia.medium(), None);
        assert_eq!(Codec::T140.medium(), Some(Medium::Text));
    }

    #[test]
    fn g711_has_higher_fidelity_bandwidth_than_g726() {
        // The paper uses exactly this pair as its fidelity example (§VI-A).
        assert!(Codec::G711.bandwidth_kbps() > Codec::G726.bandwidth_kbps());
    }

    #[test]
    fn no_media_zero_bandwidth() {
        assert_eq!(Codec::NoMedia.bandwidth_kbps(), 0);
    }

    /// Every priority-ordered list without repeats drawn in declaration
    /// order: the 128 subsequences of [`Codec::ALL`].
    fn subsequences() -> Vec<Vec<Codec>> {
        (0u32..1 << Codec::ALL.len())
            .map(|mask| {
                Codec::ALL
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &c)| c)
                    .collect()
            })
            .collect()
    }

    fn hash_of(v: &impl Hash) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn codec_list_round_trips_every_subsequence() {
        for v in subsequences() {
            let list = CodecList::from(v.clone());
            assert_eq!(list.to_vec(), v);
            assert_eq!(list, v);
            assert_eq!(format!("{list:?}"), format!("{v:?}"));
            assert_eq!(CodecList::from(&v[..]), list);
        }
    }

    #[test]
    fn codec_list_compares_orders_and_hashes_as_its_slice() {
        let all = subsequences();
        for a in &all {
            let la = CodecList::from(a.clone());
            assert_eq!(hash_of(&la), hash_of(a), "{a:?}");
            for b in &all {
                let lb = CodecList::from(b.clone());
                assert_eq!(la == lb, a == b, "{a:?} == {b:?}");
                assert_eq!(la.cmp(&lb), a.cmp(b), "{a:?} <=> {b:?}");
            }
        }
    }

    #[test]
    fn codec_list_overflow_is_an_error() {
        let mut list = CodecList::from(Codec::ALL);
        assert_eq!(list.len(), CodecList::CAPACITY);
        assert_eq!(list.push(Codec::G711), Err(TooManyCodecs));
        assert_eq!(list, Codec::ALL.to_vec(), "a refused push changes nothing");
    }

    #[test]
    #[should_panic = "a codec list holds at most 7 codecs, got 8"]
    fn codec_list_from_an_overlong_vec_panics_with_a_message() {
        let _ = CodecList::from(vec![Codec::G711; 8]);
    }
}
