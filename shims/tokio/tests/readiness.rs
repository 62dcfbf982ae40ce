//! Edge-triggered readiness: the reactor hears of a socket's change once,
//! so every test here is a way to lose that one edge — a short read that
//! clears the readable bit just before the FIN it did not see, a write
//! half that hears the read half's edges, data landing between a read and
//! the next poll, a connect that never turns writable.
//!
//! A lost edge shows as a wait that never ends. Each test runs under a
//! timeout so it fails instead, and the repository gate
//! (`scripts/check.sh`) runs the file under a wall-clock budget besides.
//! Every test holds [`serial`], as in `executor.rs`.

use std::io::Write;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::{TcpListener, TcpStream};
use tokio::runtime::block_on;
use tokio::time::{sleep, timeout};

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run `test` on the pool, failing it if it takes longer than `secs`.
fn within<T: Send + 'static>(
    secs: u64,
    test: impl std::future::Future<Output = T> + Send + 'static,
) -> T {
    block_on(timeout(Duration::from_secs(secs), tokio::spawn(test)))
        .expect("an edge was lost: the test did not finish")
        .unwrap()
}

fn byte_at(i: usize) -> u8 {
    (i.wrapping_mul(31) >> 3) as u8
}

/// The peer writes, shuts down and is gone before the socket is even
/// accepted, so the kernel reports data and FIN in one edge. The reads
/// that take the data end in a short one, which clears the readable bit;
/// only the sticky closed bit lets the next read reach the socket and see
/// EOF.
#[test]
fn data_and_fin_in_one_edge_still_read_to_eof() {
    let _serial = serial();
    const LEN: usize = 100_000;
    within(20, async {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let mut peer = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let data: Vec<u8> = (0..LEN).map(byte_at).collect();
        peer.write_all(&data).unwrap();
        drop(peer);
        // Time for the data and the FIN to land in the accept queue.
        sleep(Duration::from_millis(20)).await;
        let (mut stream, _) = listener.accept().await.unwrap();
        let mut got = Vec::new();
        while stream.read_buf(&mut got).await.unwrap() > 0 {}
        assert_eq!(got, data);
    });
}

/// The write half of a split stream parks on a full send buffer while the
/// read half waits in a read on the same socket: the write half's
/// registration hears every edge too, and must wake its writer on the
/// writable one only — once the peer drains the buffer.
#[test]
fn a_writer_parked_on_a_full_send_buffer_wakes_when_the_reader_drains() {
    let _serial = serial();
    const LEN: usize = 8 << 20;
    within(30, async {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap())
            .await
            .unwrap();
        let (mut server, _) = listener.accept().await.unwrap();
        let (mut rx, mut tx) = client.into_split();
        let reader = tokio::spawn(async move {
            let mut got = Vec::new();
            while rx.read_buf(&mut got).await.unwrap() > 0 {}
            got
        });
        let writer = tokio::spawn(async move {
            let data: Vec<u8> = (0..LEN).map(byte_at).collect();
            tx.write_all(&data).await.unwrap();
        });
        sleep(Duration::from_millis(50)).await;
        assert!(!writer.is_finished(), "{LEN} bytes fit the socket buffers");
        let mut got = Vec::with_capacity(LEN);
        while got.len() < LEN {
            assert!(server.read_buf(&mut got).await.unwrap() > 0);
        }
        writer.await.unwrap();
        assert!(got.iter().enumerate().all(|(i, b)| *b == byte_at(i)));
        // The read half heard all those writable edges and stayed parked;
        // the server's FIN wakes it with nothing read.
        drop(server);
        assert!(reader.await.unwrap().is_empty());
    });
}

/// Every byte is read by a short read, which clears the readable bit, and
/// the next byte often lands before the reader has polled again: its
/// edge must set the bit back, whichever comes first.
#[test]
fn ten_thousand_one_byte_ping_pongs_finish() {
    let _serial = serial();
    within(60, async {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap())
            .await
            .unwrap();
        let (mut server, _) = listener.accept().await.unwrap();
        client.set_nodelay(true).unwrap();
        server.set_nodelay(true).unwrap();
        let echo = tokio::spawn(async move {
            let mut buf = Vec::new();
            while server.read_buf(&mut buf).await.unwrap() > 0 {
                server.write_all(&buf).await.unwrap();
                buf.clear();
            }
        });
        for i in 0..10_000usize {
            client.write_all(&[i as u8]).await.unwrap();
            let mut got = Vec::new();
            assert!(client.read_buf(&mut got).await.unwrap() > 0);
            assert_eq!(got, [i as u8]);
        }
        drop(client);
        echo.await.unwrap();
    });
}

/// A connect goes through the reactor: one to a port nobody listens on
/// fails with the kernel's answer rather than waiting out its timeout.
#[test]
fn a_refused_connect_fails_at_once() {
    let _serial = serial();
    within(5, async {
        let addr = TcpListener::bind("127.0.0.1:0")
            .await
            .unwrap()
            .local_addr()
            .unwrap();
        let error = TcpStream::connect(addr)
            .await
            .err()
            .expect("nobody listens");
        assert_eq!(error.kind(), std::io::ErrorKind::ConnectionRefused);
    });
}
