//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no crates.io access, so the workspace patches
//! `bytes` to this crate (see `[patch.crates-io]` in the root manifest). It
//! implements the subset of the real API this workspace uses — contiguous
//! `Bytes`/`BytesMut` buffers and the `Buf`/`BufMut` cursor traits, `&[u8]`
//! as a `Buf` included — with the same observable semantics, minus the
//! zero-copy sharing tricks (`split_to` copies instead of refcounting;
//! `rt` splits off one run of frames per read, not one frame).

use std::mem::MaybeUninit;
use std::ops::Deref;

/// The most [`BufMut::chunk_mut`] hands out of a `Vec<u8>`, which zeroes
/// it on every call.
const VEC_CHUNK_MAX: usize = 16 * 1024;

/// Read-side cursor over a contiguous byte buffer.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "copy_to_slice out of bounds");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    fn get_u16(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_be_bytes(b)
    }

    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_be_bytes(b)
    }
}

/// Write-side cursor appending to a growable byte buffer.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    /// Room past the end of the buffer for a reader to fill, reserving
    /// some first if there is none; [`advance_mut`](BufMut::advance_mut)
    /// then appends the prefix it filled. Unlike the real crate's, the
    /// bytes are initialized (zeroed, holding no data), so a plain
    /// `&mut [u8]` reader can fill them.
    fn chunk_mut(&mut self) -> &mut [u8];

    /// Append the first `cnt` bytes of the slice [`chunk_mut`] returned.
    ///
    /// # Safety
    ///
    /// `cnt` is at most that slice's length, and the buffer was not
    /// touched between the two calls.
    ///
    /// [`chunk_mut`]: BufMut::chunk_mut
    unsafe fn advance_mut(&mut self, cnt: usize);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

/// An immutable byte buffer with a read cursor.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Bytes {
    data: Vec<u8>,
    pos: usize,
}

impl Bytes {
    pub const fn new() -> Self {
        Bytes {
            data: Vec::new(),
            pos: 0,
        }
    }

    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            data: data.to_vec(),
            pos: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.data.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.data[self.pos..].to_vec()
    }

    /// A copy of the given subrange of the unread bytes. (The real crate
    /// shares the backing buffer; a copy is semantically equivalent.)
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        Bytes {
            data: self.data[self.pos + range.start..self.pos + range.end].to_vec(),
            pos: 0,
        }
    }

    /// Split off and return the first `n` unread bytes.
    pub fn copy_to_bytes(&mut self, n: usize) -> Bytes {
        assert!(self.len() >= n, "copy_to_bytes out of bounds");
        let out = Bytes {
            data: self.data[self.pos..self.pos + n].to_vec(),
            pos: 0,
        };
        self.pos += n;
        out
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        &self.data[self.pos..]
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds");
        self.pos += cnt;
    }
}

/// A slice reads from its front, as in the real crate.
impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds");
        *self = &self[cnt..];
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.pos..]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes { data, pos: 0 }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(data: &'static [u8]) -> Self {
        Bytes::copy_from_slice(data)
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_ref() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

/// A growable byte buffer with a read cursor at the front.
///
/// The content is `data[pos..end]`. `data[end..]` is room already zeroed
/// for [`BufMut::chunk_mut`], so a buffer read into over and over zeroes
/// each byte of its capacity once, not once per read.
#[derive(Clone, Default)]
pub struct BytesMut {
    data: Vec<u8>,
    pos: usize,
    end: usize,
}

impl BytesMut {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
            pos: 0,
            end: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.end - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Room for `additional` more bytes behind the content: the consumed
    /// front is reclaimed first, as in the real crate, and the buffer
    /// grows only when that is not enough.
    pub fn reserve(&mut self, additional: usize) {
        if self.data.capacity() - self.end >= additional {
            return;
        }
        if self.pos > 0 {
            self.data.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
            if self.data.capacity() - self.end >= additional {
                return;
            }
        }
        self.data.truncate(self.end);
        self.data.reserve(additional);
    }

    /// Split off the first `n` unread bytes, leaving the rest in place.
    pub fn split_to(&mut self, n: usize) -> BytesMut {
        assert!(n <= self.len(), "split_to out of bounds");
        let data = self.data[self.pos..self.pos + n].to_vec();
        let out = BytesMut {
            end: data.len(),
            data,
            pos: 0,
        };
        self.pos += n;
        self.compact();
        out
    }

    pub fn freeze(mut self) -> Bytes {
        self.data.truncate(self.end);
        Bytes {
            data: self.data,
            pos: self.pos,
        }
    }

    /// Drop consumed front bytes once they dominate the buffer, keeping
    /// `advance`/`split_to` amortized O(1). The content moves to the front
    /// over bytes that stay initialized, so the zeroed room is kept.
    fn compact(&mut self) {
        if self.pos > 64 && self.pos >= self.end / 2 {
            self.data.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        &self.data[self.pos..self.end]
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds");
        self.pos += cnt;
        self.compact();
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.truncate(self.end);
        self.data.extend_from_slice(src);
        self.end = self.data.len();
    }

    fn chunk_mut(&mut self) -> &mut [u8] {
        if self.end == self.data.capacity() {
            self.data.reserve(64);
        }
        // Zeroes only room no earlier call zeroed.
        self.data.resize(self.data.capacity(), 0);
        &mut self.data[self.end..]
    }

    unsafe fn advance_mut(&mut self, cnt: usize) {
        assert!(
            cnt <= self.data.len() - self.end,
            "advance_mut out of bounds"
        );
        self.end += cnt;
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }

    fn chunk_mut(&mut self) -> &mut [u8] {
        if self.len() == self.capacity() {
            self.reserve(64);
        }
        let spare = self.spare_capacity_mut();
        let len = spare.len().min(VEC_CHUNK_MAX);
        let spare = &mut spare[..len];
        spare.fill(MaybeUninit::new(0));
        // SAFETY: every byte of `spare` was just initialized.
        unsafe { &mut *(spare as *mut [MaybeUninit<u8>] as *mut [u8]) }
    }

    unsafe fn advance_mut(&mut self, cnt: usize) {
        assert!(
            cnt <= (self.capacity() - self.len()).min(VEC_CHUNK_MAX),
            "advance_mut out of bounds"
        );
        // SAFETY: the caller promises these bytes are a prefix of the
        // slice `chunk_mut` zeroed, which nothing has touched since.
        unsafe { self.set_len(self.len() + cnt) }
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.pos..self.end]
    }
}

/// Equal content is equal, whatever the room behind it.
impl PartialEq for BytesMut {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for BytesMut {}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&Bytes::copy_from_slice(self.as_ref()), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_integers() {
        let mut b = BytesMut::with_capacity(16);
        b.put_u8(7);
        b.put_u16(0xBEEF);
        b.put_u32(0xDEADBEEF);
        b.put_u64(42);
        b.put_slice(b"xy");
        let mut r = b.freeze();
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16(), 0xBEEF);
        assert_eq!(r.get_u32(), 0xDEADBEEF);
        assert_eq!(r.get_u64(), 42);
        assert_eq!(r.as_ref(), b"xy");
    }

    #[test]
    fn split_and_advance() {
        let mut b = BytesMut::new();
        b.put_slice(b"\x00\x00\x00\x05hello rest");
        assert_eq!(u32::from_be_bytes(b[0..4].try_into().unwrap()), 5);
        b.advance(4);
        let frame = b.split_to(5).freeze();
        assert_eq!(frame.as_ref(), b"hello");
        assert_eq!(b.as_ref(), b" rest");
    }

    /// What a reader writes into `chunk_mut` and commits is appended, for
    /// both buffer types, across a compaction that keeps the zeroed room.
    #[test]
    fn chunk_mut_appends_what_a_reader_filled() {
        fn fill(buf: &mut impl BufMut, src: &[u8]) {
            let room = buf.chunk_mut();
            assert!(!room.is_empty());
            let n = src.len().min(room.len());
            room[..n].copy_from_slice(&src[..n]);
            // SAFETY: `n` is within the slice just returned.
            unsafe { buf.advance_mut(n) };
        }
        let mut b = BytesMut::with_capacity(256);
        fill(&mut b, &[1; 200]);
        fill(&mut b, b"tail");
        assert_eq!(b.split_to(200).as_ref(), &[1; 200][..]);
        fill(&mut b, b"!");
        assert_eq!(b.as_ref(), b"tail!");
        let mut same = BytesMut::new();
        same.put_slice(b"tail!");
        assert_eq!(
            b, same,
            "the zeroed room behind the content is not compared"
        );
        assert_eq!(b.freeze().as_ref(), b"tail!");

        let mut v = Vec::new();
        fill(&mut v, b"ab");
        fill(&mut v, b"c");
        assert_eq!(v, b"abc");
    }

    #[test]
    fn a_slice_is_a_buf() {
        let bytes = [7, 0xBE, 0xEF, 1, 2];
        let mut r = &bytes[..];
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16(), 0xBEEF);
        assert_eq!(r.remaining(), 2);
        r.advance(1);
        assert_eq!(r, &[2][..]);
    }

    /// A reserve that the consumed front makes room for does not grow the
    /// buffer.
    #[test]
    fn reserve_reclaims_the_consumed_front() {
        let mut b = BytesMut::with_capacity(64);
        b.put_slice(&[1; 64]);
        let cap = b.data.capacity();
        b.advance(48);
        b.reserve(32);
        assert_eq!(b.data.capacity(), cap);
        assert_eq!(b.as_ref(), &[1; 16][..]);
        b.reserve(cap);
        assert!(b.data.capacity() >= 16 + cap);
        assert_eq!(b.as_ref(), &[1; 16][..]);
    }

    #[test]
    fn copy_to_bytes_and_slice() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let head = b.copy_to_bytes(2);
        assert_eq!(head.as_ref(), &[1, 2]);
        let mut tail = [0u8; 3];
        b.copy_to_slice(&mut tail);
        assert_eq!(tail, [3, 4, 5]);
        assert!(b.is_empty());
    }
}
