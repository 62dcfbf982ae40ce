//! Nonblocking TCP woken by socket readiness.
//!
//! Every listener, stream and split half is a [`Source`]: a nonblocking
//! `std::net` socket registered with the [reactor](crate::reactor). An
//! operation that would block parks its task until the kernel reports the
//! socket readable or writable, so a hop costs what the kernel and the
//! executor cost (tens of microseconds over loopback) and an idle
//! connection costs nothing. Per-socket FIFO order is the kernel's and
//! does not depend on when a reader is woken.

use crate::io::{AsyncRead, AsyncWrite};
use crate::reactor::{Interest, Source};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr};
use std::task::{Context, Poll};

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
                .poll_io(cx, Interest::Read, std::net::TcpListener::accept)
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

    pub async fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
        // A blocking connect briefly occupies one worker thread; loopback
        // connects resolve in microseconds and the timeout bounds the rest.
        let stream =
            std::net::TcpStream::connect_timeout(&addr, std::time::Duration::from_secs(10))?;
        TcpStream::register(stream)
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
fn poll_read_inner(sock: &Sock, cx: &mut Context<'_>, buf: &mut [u8]) -> Poll<io::Result<usize>> {
    sock.poll_io(cx, Interest::Read, |mut s| s.read(buf))
}

fn poll_write_inner(sock: &Sock, cx: &mut Context<'_>, buf: &[u8]) -> Poll<io::Result<usize>> {
    sock.poll_io(cx, Interest::Write, |mut s| s.write(buf))
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
