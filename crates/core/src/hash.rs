//! The workspace's two non-cryptographic hashes: 64-bit FNV-1a for stable
//! fingerprints of text, and splitmix64 for seed derivation and small
//! deterministic PRNG streams. Committed artifacts (lint-cache
//! fingerprints, `BENCH_fuzz.json`, `BENCH_chaos.json`) pin the outputs,
//! so the constants here must never change.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The splitmix64 stream increment (2^64 / φ).
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// 64-bit FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Continue an FNV-1a hash `h` over more `bytes`:
/// `fnv1a_extend(fnv1a(a), b)` equals `fnv1a` of `a` followed by `b`.
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The splitmix64 output function (finalizer): a bijective mix of `z`.
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One step of the splitmix64 generator: advance `state` and return the
/// next value of its stream.
pub fn splitmix64_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    splitmix64(*state)
}

/// A small, fast, seedable PRNG (splitmix64). Deterministic across
/// platforms and thread counts; every generated artifact derives from
/// one `u64` seed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// New generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64_next(&mut self.state)
    }

    /// Uniform value in `0..n` (`n` must be nonzero).
    #[allow(clippy::cast_possible_truncation)]
    pub fn range(&mut self, n: usize) -> usize {
        assert!(n > 0, "range over empty interval");
        (self.next_u64() % n as u64) as usize
    }

    /// Pick one element of a nonempty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.range(xs.len())]
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: usize, den: usize) -> bool {
        self.range(den) < num
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }

    #[test]
    fn splitmix64_matches_reference_stream() {
        // First outputs of the reference generator seeded with 0.
        let mut s = 0u64;
        assert_eq!(splitmix64_next(&mut s), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64_next(&mut s), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(splitmix64_next(&mut s), 0x06c4_5d18_8009_454f);
    }
}
