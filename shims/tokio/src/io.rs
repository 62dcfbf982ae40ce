//! Async I/O traits, extension methods, and the in-memory `duplex` pipe.
//!
//! The traits take `&mut self` rather than `Pin<&mut Self>`: every stream
//! type in this shim is `Unpin`, which keeps the extension futures plain
//! structs that a `timeout` can poll with `Pin::new`.

use crate::lock;
use std::io;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

/// Poll-based byte reader.
pub trait AsyncRead: Unpin {
    fn poll_read(&mut self, cx: &mut Context<'_>, buf: &mut [u8]) -> Poll<io::Result<usize>>;
}

/// Poll-based byte writer.
pub trait AsyncWrite: Unpin {
    fn poll_write(&mut self, cx: &mut Context<'_>, buf: &[u8]) -> Poll<io::Result<usize>>;
    fn poll_flush(&mut self, cx: &mut Context<'_>) -> Poll<io::Result<()>>;
}

/// Future returned by [`AsyncReadExt::read_buf`].
pub struct ReadBuf<'a, S: ?Sized, B> {
    stream: &'a mut S,
    buf: &'a mut B,
}

impl<S: AsyncRead + ?Sized, B: bytes::BufMut> std::future::Future for ReadBuf<'_, S, B> {
    type Output = io::Result<usize>;

    /// Reads straight into the buffer's spare room, with no copy.
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        let room = this.buf.chunk_mut();
        let len = room.len();
        match this.stream.poll_read(cx, room) {
            Poll::Ready(Ok(n)) => {
                assert!(n <= len, "poll_read claimed {n} bytes of {len}");
                // SAFETY: `n` is within the slice `chunk_mut` returned,
                // and the buffer was not touched since.
                unsafe { this.buf.advance_mut(n) };
                Poll::Ready(Ok(n))
            }
            other => other,
        }
    }
}

/// Future returned by [`AsyncWriteExt::write_all`] and `write_u32`: it
/// writes the bytes it was given, borrowed (`&[u8]`) or its own
/// (`[u8; 4]`), with no copy.
pub struct WriteAll<'a, S: ?Sized, D = &'a [u8]> {
    stream: &'a mut S,
    data: D,
    pos: usize,
}

impl<S: AsyncWrite + ?Sized, D: AsRef<[u8]> + Unpin> std::future::Future for WriteAll<'_, S, D> {
    type Output = io::Result<()>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        let data = this.data.as_ref();
        while this.pos < data.len() {
            match this.stream.poll_write(cx, &data[this.pos..]) {
                Poll::Ready(Ok(0)) => {
                    return Poll::Ready(Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "write returned zero",
                    )))
                }
                Poll::Ready(Ok(n)) => this.pos += n,
                Poll::Ready(Err(e)) => return Poll::Ready(Err(e)),
                Poll::Pending => return Poll::Pending,
            }
        }
        Poll::Ready(Ok(()))
    }
}

/// Future returned by [`AsyncWriteExt::flush`].
pub struct Flush<'a, S: ?Sized> {
    stream: &'a mut S,
}

impl<S: AsyncWrite + ?Sized> std::future::Future for Flush<'_, S> {
    type Output = io::Result<()>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        self.stream.poll_flush(cx)
    }
}

/// Buffered-read conveniences over [`AsyncRead`].
pub trait AsyncReadExt: AsyncRead {
    /// Read some bytes and append them to `buf`; `Ok(0)` means EOF.
    fn read_buf<'a, B: bytes::BufMut>(&'a mut self, buf: &'a mut B) -> ReadBuf<'a, Self, B> {
        ReadBuf { stream: self, buf }
    }
}

impl<T: AsyncRead + ?Sized> AsyncReadExt for T {}

/// Write conveniences over [`AsyncWrite`].
pub trait AsyncWriteExt: AsyncWrite {
    fn write_all<'a>(&'a mut self, src: &'a [u8]) -> WriteAll<'a, Self> {
        WriteAll {
            stream: self,
            data: src,
            pos: 0,
        }
    }

    fn write_u32(&mut self, v: u32) -> WriteAll<'_, Self, [u8; 4]> {
        WriteAll {
            stream: self,
            data: v.to_be_bytes(),
            pos: 0,
        }
    }

    fn flush(&mut self) -> Flush<'_, Self> {
        Flush { stream: self }
    }
}

impl<T: AsyncWrite + ?Sized> AsyncWriteExt for T {}

struct Pipe {
    buf: std::collections::VecDeque<u8>,
    cap: usize,
    write_closed: bool,
    read_closed: bool,
    read_waker: Option<Waker>,
    write_waker: Option<Waker>,
}

impl Pipe {
    fn new(cap: usize) -> Arc<Mutex<Pipe>> {
        Arc::new(Mutex::new(Pipe {
            buf: std::collections::VecDeque::new(),
            cap: cap.max(1),
            write_closed: false,
            read_closed: false,
            read_waker: None,
            write_waker: None,
        }))
    }
}

/// One end of an in-memory, bounded, bidirectional byte stream.
pub struct DuplexStream {
    read: Arc<Mutex<Pipe>>,
    write: Arc<Mutex<Pipe>>,
}

/// A pair of connected in-memory streams, each able to hold
/// `max_buf_size` in-flight bytes per direction.
pub fn duplex(max_buf_size: usize) -> (DuplexStream, DuplexStream) {
    let a_to_b = Pipe::new(max_buf_size);
    let b_to_a = Pipe::new(max_buf_size);
    (
        DuplexStream {
            read: b_to_a.clone(),
            write: a_to_b.clone(),
        },
        DuplexStream {
            read: a_to_b,
            write: b_to_a,
        },
    )
}

impl AsyncRead for DuplexStream {
    fn poll_read(&mut self, cx: &mut Context<'_>, buf: &mut [u8]) -> Poll<io::Result<usize>> {
        let mut p = lock(&self.read);
        if !p.buf.is_empty() {
            let n = buf.len().min(p.buf.len());
            for b in buf.iter_mut().take(n) {
                *b = p.buf.pop_front().unwrap();
            }
            if let Some(w) = p.write_waker.take() {
                w.wake();
            }
            return Poll::Ready(Ok(n));
        }
        if p.write_closed {
            return Poll::Ready(Ok(0));
        }
        p.read_waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

impl AsyncWrite for DuplexStream {
    fn poll_write(&mut self, cx: &mut Context<'_>, buf: &[u8]) -> Poll<io::Result<usize>> {
        let mut p = lock(&self.write);
        if p.read_closed {
            return Poll::Ready(Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "duplex peer dropped",
            )));
        }
        let space = p.cap - p.buf.len();
        if space == 0 {
            p.write_waker = Some(cx.waker().clone());
            return Poll::Pending;
        }
        let n = space.min(buf.len());
        p.buf.extend(&buf[..n]);
        if let Some(w) = p.read_waker.take() {
            w.wake();
        }
        Poll::Ready(Ok(n))
    }

    fn poll_flush(&mut self, _cx: &mut Context<'_>) -> Poll<io::Result<()>> {
        Poll::Ready(Ok(()))
    }
}

impl Drop for DuplexStream {
    fn drop(&mut self) {
        let mut w = lock(&self.write);
        w.write_closed = true;
        if let Some(wk) = w.read_waker.take() {
            wk.wake();
        }
        drop(w);
        let mut r = lock(&self.read);
        r.read_closed = true;
        if let Some(wk) = r.write_waker.take() {
            wk.wake();
        }
    }
}
