//! Nonblocking TCP woken by socket readiness.
//!
//! Every listener, stream and split half is a [`Source`]: a nonblocking
//! `std::net` socket registered with the [reactor](crate::reactor). An
//! operation that would block parks its task until the kernel reports the
//! socket readable or writable, so a hop costs what the kernel and the
//! executor cost (tens of microseconds over loopback) and an idle
//! connection costs nothing. A read shorter than its buffer tells the
//! reactor the socket is drained, so the next read waits for the kernel's
//! next report instead of asking the socket and getting `EAGAIN`.
//! Per-socket FIFO order is the kernel's and does not depend on when a
//! reader is woken.
//!
//! [`TcpStream::connect`] goes through the reactor too: the socket is
//! created nonblocking, and a connect still in progress waits for the
//! socket to turn writable, then reads the outcome from `SO_ERROR`
//! (`take_error`). No worker thread blocks in it, which matters because a
//! blocked worker strands the task in its LIFO slot. `socket` and
//! `connect` are declared here, as the reactor declares `epoll`: the
//! standard library has no call that starts a connect without waiting for
//! it.

use crate::io::{AsyncRead, AsyncWrite};
use crate::reactor::{Interest, Source};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr};
use std::os::fd::{FromRawFd, OwnedFd};
use std::os::raw::c_int;
use std::task::{Context, Poll};
use std::time::Duration;

extern "C" {
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn connect(fd: c_int, addr: *const u8, len: u32) -> c_int;
}

const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
const SOCK_STREAM: c_int = 1;
const SOCK_NONBLOCK: c_int = 0o4000;
const SOCK_CLOEXEC: c_int = 0o2000000;
const EINPROGRESS: i32 = 115;

/// How long [`TcpStream::connect`] waits for the handshake.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// `struct sockaddr_in`.
#[repr(C)]
struct SockaddrIn {
    family: u16,
    port: [u8; 2],
    addr: [u8; 4],
    zero: [u8; 8],
}

/// `struct sockaddr_in6`.
#[repr(C)]
struct SockaddrIn6 {
    family: u16,
    port: [u8; 2],
    flowinfo: u32,
    addr: [u8; 16],
    scope_id: u32,
}

/// Start a nonblocking connect to `addr`: the socket, and whether the
/// handshake is still in progress.
fn start_connect(addr: &SocketAddr) -> io::Result<(std::net::TcpStream, bool)> {
    let family = match addr {
        SocketAddr::V4(_) => AF_INET,
        SocketAddr::V6(_) => AF_INET6,
    };
    // SAFETY: no pointer arguments; the result is checked below.
    let fd = unsafe { socket(family.into(), SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` is a fresh descriptor that nothing else owns; the
    // stream closes it on every path out of here.
    let stream = std::net::TcpStream::from(unsafe { OwnedFd::from_raw_fd(fd) });
    // SAFETY (both arms): the address outlives the call, and the length
    // passed is its own.
    let rc = match addr {
        SocketAddr::V4(a) => {
            let sa = SockaddrIn {
                family,
                port: a.port().to_be_bytes(),
                addr: a.ip().octets(),
                zero: [0; 8],
            };
            let len = std::mem::size_of_val(&sa) as u32;
            unsafe { connect(fd, (&raw const sa).cast(), len) }
        }
        SocketAddr::V6(a) => {
            let sa = SockaddrIn6 {
                family,
                port: a.port().to_be_bytes(),
                flowinfo: a.flowinfo().to_be(),
                addr: a.ip().octets(),
                scope_id: a.scope_id(),
            };
            let len = std::mem::size_of_val(&sa) as u32;
            unsafe { connect(fd, (&raw const sa).cast(), len) }
        }
    };
    if rc == 0 {
        return Ok((stream, false));
    }
    let e = io::Error::last_os_error();
    if e.raw_os_error() == Some(EINPROGRESS) {
        Ok((stream, true))
    } else {
        Err(e)
    }
}

/// Nonblocking TCP listener.
pub struct TcpListener {
    inner: Source<std::net::TcpListener>,
}

impl TcpListener {
    pub async fn bind<A: std::net::ToSocketAddrs>(addr: A) -> io::Result<TcpListener> {
        let inner = std::net::TcpListener::bind(addr)?;
        inner.set_nonblocking(true)?;
        Ok(TcpListener {
            inner: Source::new(inner)?,
        })
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.get().local_addr()
    }

    /// Accept the next connection. One task at a time may wait here.
    pub async fn accept(&self) -> io::Result<(TcpStream, SocketAddr)> {
        let (stream, peer) = std::future::poll_fn(|cx| {
            self.inner
                .poll_io(cx, Interest::Read, std::net::TcpListener::accept, |_| false)
        })
        .await?;
        Ok((TcpStream::register(stream)?, peer))
    }
}

type Sock = Source<std::net::TcpStream>;

/// Nonblocking TCP stream.
pub struct TcpStream {
    inner: Sock,
}

impl TcpStream {
    fn register(stream: std::net::TcpStream) -> io::Result<TcpStream> {
        stream.set_nonblocking(true)?;
        Ok(TcpStream {
            inner: Source::new(stream)?,
        })
    }

    /// Connect to `addr`, giving up after ten seconds.
    pub async fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
        let (stream, in_progress) = start_connect(&addr)?;
        if !in_progress {
            return Ok(TcpStream {
                inner: Source::new(stream)?,
            });
        }
        // Writable only once the handshake is over: `SO_ERROR` then says
        // how it ended.
        let inner = Source::unready(stream)?;
        let handshake = std::future::poll_fn(|cx| {
            inner.poll_io(
                cx,
                Interest::Write,
                |s| match s.take_error()? {
                    Some(e) => Err(e),
                    None => Ok(()),
                },
                |_| false,
            )
        });
        match crate::time::timeout(CONNECT_TIMEOUT, handshake).await {
            Ok(result) => result.map(|()| TcpStream { inner }),
            Err(_) => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "connection timed out",
            )),
        }
    }

    pub fn set_nodelay(&self, nodelay: bool) -> io::Result<()> {
        self.inner.get().set_nodelay(nodelay)
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.get().local_addr()
    }

    pub fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.inner.get().peer_addr()
    }

    /// Split into independently owned read/write halves. The read half
    /// keeps this stream's descriptor and registration; the write half is
    /// a duplicate (`try_clone`) registered on its own, so the halves can
    /// wait and be dropped independently. Dropping the write half shuts
    /// down the write direction so the peer sees EOF.
    pub fn into_split(self) -> (OwnedReadHalf, OwnedWriteHalf) {
        let clone = self
            .inner
            .get()
            .try_clone()
            .and_then(Source::new)
            .expect("duplicate and register socket handle");
        (
            OwnedReadHalf { inner: self.inner },
            OwnedWriteHalf { inner: clone },
        )
    }
}

// `impl Read for &TcpStream` / `impl Write for &TcpStream` let an
// operation run through the shared reference a `Source` hands out.
// A read that fills less than `buf` has drained the socket.
fn poll_read_inner(sock: &Sock, cx: &mut Context<'_>, buf: &mut [u8]) -> Poll<io::Result<usize>> {
    let len = buf.len();
    sock.poll_io(cx, Interest::Read, |mut s| s.read(buf), |&n| n < len)
}

fn poll_write_inner(sock: &Sock, cx: &mut Context<'_>, buf: &[u8]) -> Poll<io::Result<usize>> {
    sock.poll_io(cx, Interest::Write, |mut s| s.write(buf), |_| false)
}

impl AsyncRead for TcpStream {
    fn poll_read(&mut self, cx: &mut Context<'_>, buf: &mut [u8]) -> Poll<io::Result<usize>> {
        poll_read_inner(&self.inner, cx, buf)
    }
}

impl AsyncWrite for TcpStream {
    fn poll_write(&mut self, cx: &mut Context<'_>, buf: &[u8]) -> Poll<io::Result<usize>> {
        poll_write_inner(&self.inner, cx, buf)
    }

    fn poll_flush(&mut self, _cx: &mut Context<'_>) -> Poll<io::Result<()>> {
        Poll::Ready(Ok(()))
    }
}

/// Read side of a split [`TcpStream`].
pub struct OwnedReadHalf {
    inner: Sock,
}

impl AsyncRead for OwnedReadHalf {
    fn poll_read(&mut self, cx: &mut Context<'_>, buf: &mut [u8]) -> Poll<io::Result<usize>> {
        poll_read_inner(&self.inner, cx, buf)
    }
}

/// Write side of a split [`TcpStream`].
pub struct OwnedWriteHalf {
    inner: Sock,
}

impl AsyncWrite for OwnedWriteHalf {
    fn poll_write(&mut self, cx: &mut Context<'_>, buf: &[u8]) -> Poll<io::Result<usize>> {
        poll_write_inner(&self.inner, cx, buf)
    }

    fn poll_flush(&mut self, _cx: &mut Context<'_>) -> Poll<io::Result<()>> {
        Poll::Ready(Ok(()))
    }
}

impl Drop for OwnedWriteHalf {
    fn drop(&mut self) {
        let _ = self.inner.get().shutdown(Shutdown::Write);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{AsyncReadExt, AsyncWriteExt};
    use crate::runtime::block_on;
    use crate::time::{sleep, timeout, Duration, Instant};
    use crate::{reactor, spawn};

    async fn pair(listener: &TcpListener) -> (TcpStream, TcpStream) {
        let client = TcpStream::connect(listener.local_addr().unwrap())
            .await
            .unwrap();
        let (server, _) = listener.accept().await.unwrap();
        client.set_nodelay(true).unwrap();
        server.set_nodelay(true).unwrap();
        (client, server)
    }

    async fn read_byte(s: &mut impl AsyncRead) -> Option<u8> {
        let mut buf = Vec::new();
        while buf.is_empty() {
            if s.read_buf(&mut buf).await.unwrap() == 0 {
                return None;
            }
        }
        Some(buf[0])
    }

    fn open_fds() -> usize {
        std::fs::read_dir("/proc/self/fd").unwrap().count()
    }

    /// A round trip costs a wake, not a timer tick: 200 of them polled at
    /// 1 kHz would take 200 ms or more.
    #[test]
    fn ping_pong_runs_at_socket_speed() {
        let _serial = crate::test_serial();
        block_on(async {
            let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
            let (mut client, mut server) = pair(&listener).await;
            let echo = spawn(async move {
                while let Some(b) = read_byte(&mut server).await {
                    server.write_all(&[b]).await.unwrap();
                }
            });
            let t0 = Instant::now();
            for i in 0..200u8 {
                client.write_all(&[i]).await.unwrap();
                assert_eq!(read_byte(&mut client).await, Some(i));
            }
            let took = t0.elapsed();
            drop(client);
            echo.await.unwrap();
            assert!(
                took < Duration::from_millis(100),
                "200 round trips took {took:?}"
            );
        });
    }

    /// The `EPOLLOUT` path: far more than the socket buffers hold, to a
    /// peer that is not reading yet, so the writer must park on
    /// writability and resume.
    #[test]
    fn large_write_to_a_late_reader_arrives_intact() {
        let _serial = crate::test_serial();
        const LEN: usize = 8 << 20;
        let byte_at = |i: usize| (i.wrapping_mul(31) >> 3) as u8;
        block_on(async {
            let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
            let (client, mut server) = pair(&listener).await;
            let (_, mut tx) = client.into_split();
            let writer = spawn(async move {
                let data: Vec<u8> = (0..LEN).map(byte_at).collect();
                tx.write_all(&data).await.unwrap();
            });
            sleep(Duration::from_millis(50)).await;
            let mut got = Vec::with_capacity(LEN);
            while server.read_buf(&mut got).await.unwrap() > 0 {}
            writer.await.unwrap();
            assert_eq!(got.len(), LEN);
            assert!(got.iter().enumerate().all(|(i, b)| *b == byte_at(i)));
        });
    }

    /// Every socket object leaves the epoll set, the reactor's table and
    /// the descriptor table when it is dropped, whichever half of a split
    /// stream goes first and whether or not a read was armed on it.
    #[test]
    fn dropped_sockets_leave_nothing_registered_or_open() {
        let _serial = crate::test_serial();
        block_on(async {
            // The reactor's own descriptor is part of the baseline.
            drop(TcpListener::bind("127.0.0.1:0").await.unwrap());
            assert_eq!(reactor::registered(), 0);
            let fds = open_fds();

            let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
            for i in 0..2000 {
                let (client, server) = pair(&listener).await;
                // The far end parks in a read until this end closes.
                let far = spawn(async move {
                    let (mut rx, tx) = server.into_split();
                    assert_eq!(read_byte(&mut rx).await, None);
                    if i % 4 < 2 {
                        drop(rx);
                        drop(tx);
                    } else {
                        drop(tx);
                        drop(rx);
                    }
                });
                let (rx, tx) = client.into_split();
                if i % 2 == 0 {
                    drop(rx);
                    drop(tx);
                } else {
                    drop(tx);
                    drop(rx);
                }
                far.await.unwrap();
            }
            assert_eq!(reactor::registered(), 1, "only the listener is left");

            let (mut client, mut server) = pair(&listener).await;
            client.write_all(b"x").await.unwrap();
            assert_eq!(read_byte(&mut server).await, Some(b'x'));
            drop((client, server, listener));
            assert_eq!(reactor::registered(), 0);
            assert_eq!(open_fds(), fds);
        });
    }

    #[test]
    fn pending_accept_wakes_on_connect() {
        let _serial = crate::test_serial();
        block_on(async {
            let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
            let addr = listener.local_addr().unwrap();
            let accepted = spawn(async move { listener.accept().await.map(|(_, peer)| peer) });
            // Long enough for the accept to have parked; the assertion
            // holds either way.
            sleep(Duration::from_millis(20)).await;
            let client = TcpStream::connect(addr).await.unwrap();
            let peer = timeout(Duration::from_secs(5), accepted)
                .await
                .expect("accept woke")
                .unwrap()
                .unwrap();
            assert_eq!(peer, client.local_addr().unwrap());
        });
    }
}
