//! The executor's handoffs: a push wakes a parked worker or interrupts
//! the one driving the reactor, a busy worker still polls readiness, and
//! a panicking task costs its handle, not its worker.
//!
//! A lost wake or a starved reactor shows here as a hang, which the
//! repository gate (`scripts/check.sh`) turns into a blown time budget.
//! Every test holds [`serial`]: they share the process-wide pool, and one
//! of them keeps both workers busy on purpose.

use std::future::{poll_fn, Future};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::task::Poll;
use std::time::{Duration, Instant};
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::{TcpListener, TcpStream};
use tokio::runtime::block_on;

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Pending once, having woken itself: the task goes to the back of the
/// queue.
fn yield_now() -> impl Future<Output = ()> {
    let mut yielded = false;
    poll_fn(move |cx| {
        if std::mem::replace(&mut yielded, true) {
            Poll::Ready(())
        } else {
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    })
}

/// `rounds` one-byte round trips over loopback TCP to an echo task: each
/// one waits on the reactor twice.
async fn ping_pong(rounds: usize) {
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
    for i in 0..rounds {
        client.write_all(&[i as u8]).await.unwrap();
        let mut got = Vec::new();
        assert!(client.read_buf(&mut got).await.unwrap() > 0);
        assert_eq!(got, [i as u8]);
    }
    drop(client);
    echo.await.unwrap();
}

#[test]
fn a_panicking_task_fails_its_handle_and_spares_its_worker() {
    let _serial = serial();
    block_on(async {
        // More panics than the pool has workers: had each taken its worker
        // along, nothing below would run.
        for _ in 0..16 {
            let error = tokio::spawn(async { panic!("the task's own bug") })
                .await
                .unwrap_err();
            assert!(error.is_panic());
            assert!(!error.is_cancelled());
            assert!(error.to_string().contains("the task's own bug"));
        }
        let handles: Vec<_> = (0..1000u64)
            .map(|i| tokio::spawn(async move { i }))
            .collect();
        for (i, handle) in (0..).zip(handles) {
            assert_eq!(handle.await.unwrap(), i);
        }
        ping_pong(100).await;
    });
}

/// Two tasks that only yield keep both workers busy, so no worker is
/// ever idle to block in the reactor: the round trips complete only
/// because a busy worker polls it every 61 tasks.
#[test]
fn a_busy_pool_still_polls_readiness() {
    let _serial = serial();
    let stop = Arc::new(AtomicBool::new(false));
    let spinners: Vec<_> = (0..2)
        .map(|_| {
            let stop = stop.clone();
            tokio::spawn(async move {
                while !stop.load(Ordering::Relaxed) {
                    yield_now().await;
                }
            })
        })
        .collect();
    block_on(ping_pong(1000));
    stop.store(true, Ordering::Relaxed);
    for spinner in spinners {
        block_on(spinner).unwrap();
    }
}

/// One worker is held inside a task, so the other, with nothing queued,
/// blocks in the reactor: a push then finds no worker parked on the
/// condvar, and only the eventfd gets its task run before the hold ends.
#[test]
fn a_push_interrupts_the_worker_blocked_in_the_reactor() {
    let _serial = serial();
    let (started_tx, started_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let hold = tokio::spawn(async move {
        started_tx.send(()).unwrap();
        let _ = release_rx.recv_timeout(Duration::from_secs(3));
    });
    started_rx.recv().unwrap();
    // Time for the other worker to find the queue empty and take the
    // driver role. The assertion holds in any interleaving; the pause
    // only makes this one, the eventfd's, the one that runs.
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    assert_eq!(block_on(tokio::spawn(async { 7 })).unwrap(), 7);
    let took = t0.elapsed();
    release_tx.send(()).unwrap();
    block_on(hold).unwrap();
    assert!(took < Duration::from_secs(1), "the task waited {took:?}");
}

/// Each spawn is one push that must reach a worker, by the condvar or
/// the eventfd, and one wake back to this thread.
#[test]
fn spawn_and_await_loses_no_wake() {
    let _serial = serial();
    block_on(async {
        for i in 0..100_000u64 {
            assert_eq!(tokio::spawn(async move { i }).await.unwrap(), i);
        }
    });
}
