//! Timers: a dedicated thread holds the pending deadlines, earliest first,
//! and wakes each one's waker when its instant passes.
//!
//! The table holds one entry per *pending* [`Sleep`]: a `Sleep` enters it
//! when first polled before its deadline, has its waker replaced in place
//! when polled again, and leaves it when it fires or is dropped — so a
//! `timeout` whose future wins, or a `select!` arm that loses, leaves
//! nothing behind. The thread is notified only when a new entry becomes
//! the earliest; any other insertion cannot change when it must next wake.

use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Condvar, Mutex, OnceLock};
use std::task::{Context, Poll, Waker};

pub use std::time::{Duration, Instant};

/// Deadline and insertion number: entries fire in that order.
type Key = (Instant, u64);

struct Timer {
    table: Mutex<(BTreeMap<Key, Waker>, u64)>,
    changed: Condvar,
}

fn timer() -> &'static Timer {
    static TIMER: OnceLock<Timer> = OnceLock::new();
    TIMER.get_or_init(|| {
        std::thread::Builder::new()
            .name("tokio-shim-timer".into())
            .spawn(timer_loop)
            .expect("spawn timer thread");
        Timer {
            table: Mutex::new((BTreeMap::new(), 0)),
            changed: Condvar::new(),
        }
    })
}

fn timer_loop() {
    let t = timer();
    let mut due: Vec<Waker> = Vec::new();
    loop {
        {
            let mut guard = t.table.lock().unwrap();
            loop {
                let now = Instant::now();
                while let Some(first) = guard.0.first_entry().filter(|e| e.key().0 <= now) {
                    due.push(first.remove());
                }
                if !due.is_empty() {
                    break;
                }
                guard = match guard.0.first_key_value() {
                    Some(((at, _), _)) => {
                        let wait = at.saturating_duration_since(now);
                        t.changed.wait_timeout(guard, wait).unwrap().0
                    }
                    None => t.changed.wait(guard).unwrap(),
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
        let mut guard = t.table.lock().unwrap();
        let fresh = self.entry.is_none();
        let seq = *self.entry.get_or_insert_with(|| {
            guard.1 += 1;
            guard.1
        });
        let key = (self.deadline, seq);
        guard.0.insert(key, cx.waker().clone());
        if fresh && guard.0.first_key_value().map(|(k, _)| *k) == Some(key) {
            t.changed.notify_one();
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        let Some(seq) = self.entry else { return };
        // A poisoned table is left alone: `drop` must not panic.
        if let Ok(mut guard) = timer().table.lock() {
            guard.0.remove(&(self.deadline, seq));
        }
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
    Timeout {
        future,
        sleep: sleep(duration),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::block_on;

    /// Number of entries in the timer table.
    fn pending() -> usize {
        timer().table.lock().unwrap().0.len()
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
}
