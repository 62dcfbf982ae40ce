//! The executor's handoffs: a push wakes a parked worker or interrupts
//! the one driving the reactor, a busy worker still polls readiness, a
//! task woken on a worker runs next on that worker without waking another
//! (but not forever), spawns start in order, and a panicking task costs
//! its handle, not its worker.
//!
//! A lost wake or a starved reactor shows here as a hang, which the
//! repository gate (`scripts/check.sh`) turns into a blown time budget.
//! Every test holds [`serial`]: they share the process-wide pool, and one
//! of them keeps both workers busy on purpose.

use std::future::{poll_fn, Future};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::task::{Poll, Waker};
use std::time::{Duration, Instant};
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::{TcpListener, TcpStream};
use tokio::runtime::block_on;

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Start the pool's workers if no test has yet.
fn start_pool() {
    block_on(tokio::spawn(async {})).unwrap();
}

/// The thread ids of the pool's workers, which the pool names
/// `tokio-shim-worker-N` (`comm` keeps 15 bytes of it).
fn worker_tids() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|entry| {
            let tid = entry.ok()?.file_name().into_string().ok()?;
            let comm = std::fs::read_to_string(format!("/proc/self/task/{tid}/comm")).ok()?;
            comm.starts_with("tokio-shim-work").then_some(tid)
        })
        .collect()
}

/// The calling thread's id.
fn current_tid() -> String {
    let link = std::fs::read_link("/proc/thread-self").unwrap();
    link.file_name().unwrap().to_str().unwrap().to_owned()
}

/// How many times thread `tid` has gone to sleep.
fn sleeps(tid: &str) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/self/task/{tid}/status")).unwrap();
    status
        .lines()
        .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
        .unwrap()
        .trim()
        .parse()
        .unwrap()
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

/// What the waking task saw: its thread, the other workers, and how often
/// each of those had slept.
type Seen = (String, Vec<String>, Vec<u64>);

/// A task woken by a running task goes into that worker's LIFO slot: it
/// runs next on the same thread, and no other worker is woken for it.
#[test]
fn a_task_woken_by_a_running_task_runs_next_on_its_worker() {
    let _serial = serial();
    start_pool();
    let parked: Arc<Mutex<Option<Waker>>> = Arc::default();
    let seen: Arc<Mutex<Option<Seen>>> = Arc::default();
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let woken = tokio::spawn({
        let (parked, seen) = (parked.clone(), seen.clone());
        let mut first = true;
        poll_fn(move |cx| {
            if std::mem::replace(&mut first, false) {
                *parked.lock().unwrap() = Some(cx.waker().clone());
                ready_tx.send(()).unwrap();
                return Poll::Pending;
            }
            // Long enough for a worker woken in vain to have gone back to
            // sleep, which is what would show.
            std::thread::sleep(Duration::from_millis(20));
            let (waker_tid, others, before) = seen.lock().unwrap().take().unwrap();
            let after: Vec<u64> = others.iter().map(|t| sleeps(t)).collect();
            Poll::Ready((waker_tid, current_tid(), before, after))
        })
    });
    ready_rx.recv().unwrap();
    // Let the worker that parked the task settle back to sleep.
    std::thread::sleep(Duration::from_millis(50));
    block_on(tokio::spawn(async move {
        let me = current_tid();
        let others: Vec<String> = worker_tids().into_iter().filter(|t| *t != me).collect();
        let before = others.iter().map(|t| sleeps(t)).collect();
        *seen.lock().unwrap() = Some((me, others, before));
        parked.lock().unwrap().take().unwrap().wake();
    }))
    .unwrap();
    let (waker_tid, woken_tid, before, after) = block_on(woken).unwrap();
    assert_eq!(woken_tid, waker_tid, "the woken task ran on another worker");
    assert_eq!(after, before, "the wake woke another worker");
}

/// Whose turn it is between two tasks, and their wakers.
#[derive(Default)]
struct Baton {
    turn: usize,
    wakers: [Option<Waker>; 2],
}

/// Two tasks that wake each other on every poll would keep one worker's
/// LIFO slot forever; more such pairs than workers would then keep every
/// worker from the queue. The cap on slot polls in a row sends the slot's
/// task to the back of the queue, so a task spawned behind them runs.
#[test]
fn tasks_that_wake_each_other_forever_do_not_starve_the_queue() {
    let _serial = serial();
    start_pool();
    let stop = Arc::new(AtomicBool::new(false));
    let mut pairs = Vec::new();
    for _ in 0..2 * worker_tids().len() {
        let baton: Arc<Mutex<Baton>> = Arc::default();
        for me in 0..2 {
            let (baton, stop) = (baton.clone(), stop.clone());
            pairs.push(tokio::spawn(poll_fn(move |cx| {
                let mut b = baton.lock().unwrap();
                let stopping = stop.load(Ordering::Relaxed);
                if b.turn == me || stopping {
                    b.turn = 1 - me;
                    if let Some(other) = b.wakers[1 - me].take() {
                        other.wake();
                    }
                }
                if stopping {
                    return Poll::Ready(());
                }
                b.wakers[me] = Some(cx.waker().clone());
                Poll::Pending
            })));
        }
    }
    let behind = tokio::spawn(async { 7 });
    let ran = block_on(tokio::time::timeout(Duration::from_secs(10), behind));
    stop.store(true, Ordering::Relaxed);
    for task in pairs {
        block_on(task).unwrap();
    }
    assert_eq!(
        ran.expect("the task behind the pairs never ran").unwrap(),
        7
    );
}

/// Spawns never take the LIFO slot: with every other worker held, the
/// one left runs what a task spawned in the order it spawned it.
#[test]
fn tasks_spawned_by_one_task_start_in_spawn_order() {
    let _serial = serial();
    start_pool();
    let held = worker_tids().len() - 1;
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let (started_tx, started_rx) = std::sync::mpsc::channel();
    let holders: Vec<_> = (0..held)
        .map(|_| {
            let (gate, started_tx) = (gate.clone(), started_tx.clone());
            tokio::spawn(async move {
                started_tx.send(()).unwrap();
                let (open, cv) = &*gate;
                let guard = open.lock().unwrap();
                drop(cv.wait_while(guard, |open| !*open).unwrap());
            })
        })
        .collect();
    for _ in 0..held {
        started_rx.recv().unwrap();
    }
    let log: Arc<Mutex<Vec<u32>>> = Arc::default();
    let spawned = block_on(tokio::spawn({
        let log = log.clone();
        async move {
            (0..32u32)
                .map(|i| {
                    let log = log.clone();
                    tokio::spawn(async move { log.lock().unwrap().push(i) })
                })
                .collect::<Vec<_>>()
        }
    }))
    .unwrap();
    for task in spawned {
        block_on(task).unwrap();
    }
    *gate.0.lock().unwrap() = true;
    gate.1.notify_all();
    for holder in holders {
        block_on(holder).unwrap();
    }
    assert_eq!(*log.lock().unwrap(), (0..32).collect::<Vec<_>>());
}
