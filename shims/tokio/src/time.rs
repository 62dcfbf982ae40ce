//! Timers: a dedicated thread holds the pending deadlines, earliest first,
//! and wakes each one's waker when its instant passes.
//!
//! The table holds one entry per *pending* [`Sleep`]: a `Sleep` enters it
//! when first polled before its deadline, has its waker replaced in place
//! when polled again, and leaves it when it fires or is dropped — so a
//! `timeout` whose future wins leaves nothing behind. The table keeps the
//! instant the thread sleeps toward, which only moves earlier until it
//! passes, and a new entry notifies the thread only when it is earlier
//! than that; any other insertion cannot change when it must next wake.
//! Re-creating a sleep at the same deadline — a loop that awaits
//! `timeout_at(deadline, ..)` afresh on every pass — therefore costs no
//! wake.

use crate::lock;
use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};
use std::task::{Context, Poll, Waker};

pub use std::time::{Duration, Instant};

/// Deadline and insertion number: entries fire in that order.
type Key = (Instant, u64);

struct Table {
    entries: BTreeMap<Key, Waker>,
    /// The highest insertion number handed out.
    last_seq: u64,
    /// The instant the thread sleeps toward, or will once it has fired
    /// what is due; `None` while it waits with no deadline. Until it
    /// passes, it only ever moves earlier.
    wake_at: Option<Instant>,
}

struct Timer {
    table: Mutex<Table>,
    changed: Condvar,
}

/// Notifications sent to the timer thread.
#[cfg(test)]
static NOTIFIES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

fn timer() -> &'static Timer {
    static TIMER: OnceLock<Timer> = OnceLock::new();
    TIMER.get_or_init(|| {
        std::thread::Builder::new()
            .name("tokio-shim-timer".into())
            .spawn(timer_loop)
            .expect("spawn timer thread");
        Timer {
            table: Mutex::new(Table {
                entries: BTreeMap::new(),
                last_seq: 0,
                wake_at: None,
            }),
            changed: Condvar::new(),
        }
    })
}

fn timer_loop() {
    let t = timer();
    let mut due: Vec<Waker> = Vec::new();
    loop {
        {
            let mut guard = lock(&t.table);
            loop {
                let now = Instant::now();
                while let Some(first) = guard.entries.first_entry().filter(|e| e.key().0 <= now) {
                    due.push(first.remove());
                }
                if !due.is_empty() {
                    break;
                }
                // An instant already promised stands even if its entry is
                // gone: a sleep re-created at it was told no notify was
                // needed.
                let first = guard.entries.first_key_value().map(|((at, _), _)| *at);
                let promised = guard.wake_at.filter(|at| *at > now);
                guard.wake_at = first.into_iter().chain(promised).min();
                guard = match guard.wake_at {
                    Some(at) => {
                        let wait = at.saturating_duration_since(now);
                        t.changed
                            .wait_timeout(guard, wait)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0
                    }
                    None => t
                        .changed
                        .wait(guard)
                        .unwrap_or_else(PoisonError::into_inner),
                };
            }
        }
        for w in due.drain(..) {
            w.wake();
        }
    }
}

/// Future resolving once its deadline passes.
#[derive(Debug)]
pub struct Sleep {
    deadline: Instant,
    /// Insertion number of this sleep's entry in the timer table, once it
    /// has been polled before its deadline.
    entry: Option<u64>,
}

impl Sleep {
    pub fn deadline(&self) -> Instant {
        self.deadline
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if Instant::now() >= self.deadline {
            return Poll::Ready(());
        }
        let t = timer();
        let mut guard = lock(&t.table);
        let fresh = self.entry.is_none();
        let seq = *self.entry.get_or_insert_with(|| {
            guard.last_seq += 1;
            guard.last_seq
        });
        guard
            .entries
            .insert((self.deadline, seq), cx.waker().clone());
        if fresh && guard.wake_at.is_none_or(|at| self.deadline < at) {
            guard.wake_at = Some(self.deadline);
            #[cfg(test)]
            NOTIFIES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            t.changed.notify_one();
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        let Some(seq) = self.entry else { return };
        lock(&timer().table).entries.remove(&(self.deadline, seq));
    }
}

pub fn sleep(duration: Duration) -> Sleep {
    sleep_until(Instant::now() + duration)
}

pub fn sleep_until(deadline: Instant) -> Sleep {
    Sleep {
        deadline,
        entry: None,
    }
}

/// Error returned when a `timeout` elapses before its future completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Elapsed(());

impl std::fmt::Display for Elapsed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("deadline has elapsed")
    }
}

impl std::error::Error for Elapsed {}

/// Future racing an inner future against a deadline.
pub struct Timeout<F> {
    future: F,
    sleep: Sleep,
}

impl<F: Future> Future for Timeout<F> {
    type Output = Result<F::Output, Elapsed>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // Structural pinning of `future`: it is never moved out of `this`
        // and `Timeout` has no Drop impl, so the projection is sound.
        let this = unsafe { self.get_unchecked_mut() };
        let inner = unsafe { Pin::new_unchecked(&mut this.future) };
        if let Poll::Ready(v) = inner.poll(cx) {
            return Poll::Ready(Ok(v));
        }
        match Pin::new(&mut this.sleep).poll(cx) {
            Poll::Ready(()) => Poll::Ready(Err(Elapsed(()))),
            Poll::Pending => Poll::Pending,
        }
    }
}

pub fn timeout<F: Future>(duration: Duration, future: F) -> Timeout<F> {
    timeout_at(Instant::now() + duration, future)
}

pub fn timeout_at<F: Future>(deadline: Instant, future: F) -> Timeout<F> {
    Timeout {
        future,
        sleep: sleep_until(deadline),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::block_on;

    /// Number of entries in the timer table.
    fn pending() -> usize {
        lock(&timer().table).entries.len()
    }

    /// Pending once (so the timeout's sleep enters the table), then ready.
    fn ready_on_second_poll() -> impl Future<Output = ()> {
        let mut polled = false;
        std::future::poll_fn(move |cx| {
            if std::mem::replace(&mut polled, true) {
                Poll::Ready(())
            } else {
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        })
    }

    #[test]
    fn a_timeout_whose_future_wins_leaves_no_entry() {
        let _serial = crate::test_serial();
        block_on(async {
            for _ in 0..10_000 {
                timeout(Duration::from_secs(10), ready_on_second_poll())
                    .await
                    .unwrap();
                let deadline = Instant::now() + Duration::from_secs(10);
                timeout_at(deadline, ready_on_second_poll()).await.unwrap();
            }
        });
        assert_eq!(pending(), 0);
    }

    #[test]
    fn a_sleep_polled_again_keeps_one_entry_and_still_fires() {
        let _serial = crate::test_serial();
        block_on(async {
            let t0 = Instant::now();
            let mut nap = sleep(Duration::from_millis(30));
            for _ in 0..100 {
                let again = std::future::poll_fn(|cx| Poll::Ready(Pin::new(&mut nap).poll(cx)));
                assert!(again.await.is_pending());
                assert_eq!(pending(), 1);
            }
            nap.await;
            assert!(t0.elapsed() >= Duration::from_millis(30));
            assert!(
                timeout(Duration::from_millis(5), sleep(Duration::from_secs(10)))
                    .await
                    .is_err()
            );
        });
        assert_eq!(pending(), 0);
    }

    /// A loop awaiting `timeout_at(deadline, ..)` builds a sleep at that
    /// deadline afresh on every pass, dropping the last one first: the
    /// thread hears of it once (or not at all, if it already sleeps toward
    /// an earlier instant), however soon it wakes to that notify.
    #[test]
    fn fresh_sleeps_at_one_deadline_notify_the_thread_at_most_once() {
        let _serial = crate::test_serial();
        let deadline = Instant::now() + Duration::from_millis(50);
        let before = NOTIFIES.load(std::sync::atomic::Ordering::Relaxed);
        block_on(async {
            for _ in 0..100 {
                let mut nap = sleep_until(deadline);
                let polled = std::future::poll_fn(|cx| Poll::Ready(Pin::new(&mut nap).poll(cx)));
                assert!(polled.await.is_pending());
            }
            sleep_until(deadline).await;
        });
        let sent = NOTIFIES.load(std::sync::atomic::Ordering::Relaxed) - before;
        assert!(sent <= 1, "{sent} notifies for one deadline");
        assert_eq!(pending(), 0);
    }

    /// The thread sleeps toward the one pending deadline, ten seconds out;
    /// a sleep due sooner must wake it, and fire on time.
    #[test]
    fn a_sleep_earlier_than_the_pending_one_fires_on_time() {
        let _serial = crate::test_serial();
        block_on(async {
            let mut late = sleep(Duration::from_secs(10));
            let polled = std::future::poll_fn(|cx| Poll::Ready(Pin::new(&mut late).poll(cx)));
            assert!(polled.await.is_pending());
            let t0 = Instant::now();
            sleep(Duration::from_millis(20)).await;
            let took = t0.elapsed();
            assert!(
                took >= Duration::from_millis(20) && took < Duration::from_millis(500),
                "a 20 ms sleep took {took:?}"
            );
        });
        assert_eq!(pending(), 0);
    }
}
