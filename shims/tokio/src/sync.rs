//! Channels: bounded multi-producer `mpsc` and broadcast-latest `watch`.
//!
//! Neither is poisoned by a panic: every lock is taken through
//! [`crate::lock`], so a caller's code that panics while it holds one (a
//! `watch` predicate under [`watch::Ref`]) leaves the channel usable.

/// Bounded multi-producer, single-consumer channel.
pub mod mpsc {
    use crate::lock;
    use std::collections::VecDeque;
    use std::future::Future;
    use std::pin::Pin;
    use std::sync::{Arc, Mutex};
    use std::task::{Context, Poll, Waker};

    struct Chan<T> {
        queue: VecDeque<T>,
        cap: usize,
        senders: usize,
        rx_alive: bool,
        rx_waker: Option<Waker>,
        tx_wakers: Vec<Waker>,
    }

    impl<T> Chan<T> {
        fn wake_senders(&mut self) {
            for w in self.tx_wakers.drain(..) {
                w.wake();
            }
        }

        /// Dequeue one value. Blocked senders are woken once the queue is
        /// down to half its capacity, not on every pop: the low-water mark
        /// a kernel applies to a writer blocked on a full send buffer, so
        /// a receiver draining a full queue wakes them once, with room
        /// for a batch, rather than once per value.
        fn pop(&mut self) -> Option<T> {
            let v = self.queue.pop_front()?;
            if self.queue.len() <= self.cap / 2 {
                self.wake_senders();
            }
            Some(v)
        }
    }

    /// Error returned when sending to a channel whose receiver is gone;
    /// carries the unsent value.
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("channel closed")
        }
    }

    pub struct Sender<T> {
        chan: Arc<Mutex<Chan<T>>>,
    }

    pub struct Receiver<T> {
        chan: Arc<Mutex<Chan<T>>>,
    }

    pub fn channel<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Mutex::new(Chan {
            queue: VecDeque::new(),
            cap: cap.max(1),
            senders: 1,
            rx_alive: true,
            rx_waker: None,
            tx_wakers: Vec::new(),
        }));
        (Sender { chan: chan.clone() }, Receiver { chan })
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            lock(&self.chan).senders += 1;
            Sender {
                chan: self.chan.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut c = lock(&self.chan);
            c.senders -= 1;
            if c.senders == 0 {
                if let Some(w) = c.rx_waker.take() {
                    w.wake();
                }
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut c = lock(&self.chan);
            c.rx_alive = false;
            c.wake_senders();
        }
    }

    /// Error returned by [`Sender::try_send`].
    pub enum TrySendError<T> {
        /// The channel is at capacity; carries the unsent value.
        Full(T),
        /// The receiver is gone; carries the unsent value.
        Closed(T),
    }

    impl<T> std::fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Closed(_) => f.write_str("Closed(..)"),
            }
        }
    }

    /// Error types, under the module path tokio uses.
    pub mod error {
        pub use super::{SendError, TryRecvError, TrySendError};
    }

    impl<T> Sender<T> {
        /// Wait for capacity, then enqueue. Errors iff the receiver is gone.
        pub fn send(&self, value: T) -> Send<'_, T> {
            Send {
                chan: &self.chan,
                value: Some(value),
            }
        }

        /// Enqueue without waiting: errors with `Full` at capacity,
        /// `Closed` when the receiver is gone.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut c = lock(&self.chan);
            if !c.rx_alive {
                return Err(TrySendError::Closed(value));
            }
            if c.queue.len() < c.cap {
                c.queue.push_back(value);
                if let Some(w) = c.rx_waker.take() {
                    w.wake();
                }
                Ok(())
            } else {
                Err(TrySendError::Full(value))
            }
        }

        /// Whether the receiver is gone.
        pub fn is_closed(&self) -> bool {
            !lock(&self.chan).rx_alive
        }
    }

    /// Future returned by [`Sender::send`].
    pub struct Send<'a, T> {
        chan: &'a Arc<Mutex<Chan<T>>>,
        value: Option<T>,
    }

    impl<T> Unpin for Send<'_, T> {}

    impl<T> Future for Send<'_, T> {
        type Output = Result<(), SendError<T>>;

        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            let this = &mut *self;
            let mut c = lock(this.chan);
            let value = this.value.take().expect("polled after completion");
            if !c.rx_alive {
                return Poll::Ready(Err(SendError(value)));
            }
            if c.queue.len() < c.cap {
                c.queue.push_back(value);
                if let Some(w) = c.rx_waker.take() {
                    w.wake();
                }
                Poll::Ready(Ok(()))
            } else {
                this.value = Some(value);
                c.tx_wakers.push(cx.waker().clone());
                Poll::Pending
            }
        }
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The queue is momentarily empty but senders remain.
        Empty,
        /// All senders are gone and the queue is drained.
        Disconnected,
    }

    impl<T> Receiver<T> {
        /// Wait for the next value; `None` once all senders are dropped
        /// and the queue is drained.
        pub fn recv(&mut self) -> Recv<'_, T> {
            Recv { chan: &self.chan }
        }

        /// Dequeue without waiting. Batch consumers drain with this after
        /// an awaited `recv`/`poll_recv` delivers the first value.
        pub fn try_recv(&mut self) -> Result<T, TryRecvError> {
            let mut c = lock(&self.chan);
            if let Some(v) = c.pop() {
                Ok(v)
            } else if c.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Poll for the next value (the primitive under `recv`), for
        /// callers multiplexing several receivers in one `poll_fn`.
        pub fn poll_recv(&mut self, cx: &mut Context<'_>) -> Poll<Option<T>> {
            let mut c = lock(&self.chan);
            if let Some(v) = c.pop() {
                Poll::Ready(Some(v))
            } else if c.senders == 0 {
                Poll::Ready(None)
            } else {
                c.rx_waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }

    /// Future returned by [`Receiver::recv`].
    pub struct Recv<'a, T> {
        chan: &'a Arc<Mutex<Chan<T>>>,
    }

    impl<T> Unpin for Recv<'_, T> {}

    impl<T> Future for Recv<'_, T> {
        type Output = Option<T>;

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            let mut c = lock(self.chan);
            if let Some(v) = c.pop() {
                Poll::Ready(Some(v))
            } else if c.senders == 0 {
                Poll::Ready(None)
            } else {
                c.rx_waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::runtime::block_on;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::task::Wake;

        /// A waker that counts its wakes.
        #[derive(Default)]
        struct Wakes(AtomicUsize);

        impl Wake for Wakes {
            fn wake(self: Arc<Self>) {
                self.wake_by_ref();
            }

            fn wake_by_ref(self: &Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        impl Wakes {
            fn count(&self) -> usize {
                self.0.load(Ordering::SeqCst)
            }
        }

        /// A channel of `cap` filled to capacity, and a counting waker for
        /// the sends that then block on it.
        fn blocked(cap: usize) -> (Sender<usize>, Receiver<usize>, Arc<Wakes>) {
            let (tx, rx) = channel(cap);
            for i in 0..cap {
                tx.try_send(i).unwrap();
            }
            (tx, rx, Arc::default())
        }

        fn poll_send(send: &mut Send<'_, usize>, wakes: &Arc<Wakes>) -> Poll<Result<(), ()>> {
            let waker = Waker::from(wakes.clone());
            Pin::new(send)
                .poll(&mut Context::from_waker(&waker))
                .map(|sent| sent.map_err(|_| ()))
        }

        #[test]
        fn a_blocked_sender_is_woken_at_half_empty() {
            let (tx, mut rx, wakes) = blocked(8);
            let mut send = tx.send(8);
            assert!(poll_send(&mut send, &wakes).is_pending());
            for i in 0..3 {
                assert_eq!(rx.try_recv(), Ok(i));
                assert_eq!(wakes.count(), 0, "woken with {} of 8 queued", 7 - i);
            }
            assert_eq!(rx.try_recv(), Ok(3));
            assert_eq!(wakes.count(), 1);
            assert_eq!(poll_send(&mut send, &wakes), Poll::Ready(Ok(())));
            for i in 4..=8 {
                assert_eq!(rx.try_recv(), Ok(i));
            }
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn a_dropped_receiver_wakes_every_blocked_sender() {
            let (tx, rx, wakes) = blocked(2);
            let others: Vec<_> = (0..3).map(|_| tx.clone()).collect();
            let mut sends: Vec<_> = others.iter().map(|tx| tx.send(7)).collect();
            for send in &mut sends {
                assert!(poll_send(send, &wakes).is_pending());
            }
            drop(rx);
            assert_eq!(wakes.count(), 3);
            for send in &mut sends {
                assert_eq!(poll_send(send, &wakes), Poll::Ready(Err(())));
            }
        }

        #[test]
        fn a_one_slot_channel_wakes_its_sender_on_the_one_pop() {
            let (tx, mut rx, wakes) = blocked(1);
            let mut send = tx.send(1);
            assert!(poll_send(&mut send, &wakes).is_pending());
            assert_eq!(rx.try_recv(), Ok(0));
            assert_eq!(wakes.count(), 1);
            assert_eq!(poll_send(&mut send, &wakes), Poll::Ready(Ok(())));
            assert_eq!(rx.try_recv(), Ok(1));
        }

        /// Senders blocked and woken in batches still deliver every value,
        /// each producer's in the order it sent them.
        #[test]
        fn many_producers_through_a_narrow_channel_arrive_complete_and_in_order() {
            const PRODUCERS: usize = 4;
            const SENDS: usize = 10_000;
            let (tx, mut rx) = channel(4);
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        block_on(async {
                            for i in 0..SENDS {
                                tx.send((p, i)).await.unwrap();
                            }
                        })
                    })
                })
                .collect();
            drop(tx);
            let mut next = [0; PRODUCERS];
            block_on(async {
                while let Some((p, i)) = rx.recv().await {
                    assert_eq!(i, next[p], "producer {p} out of order");
                    next[p] += 1;
                }
            });
            assert_eq!(next, [SENDS; PRODUCERS]);
            for producer in producers {
                producer.join().unwrap();
            }
        }
    }
}

/// Single-value broadcast channel: receivers observe the latest value.
pub mod watch {
    use crate::lock;
    use std::collections::BTreeMap;
    use std::future::Future;
    use std::ops::Deref;
    use std::pin::Pin;
    use std::sync::{Arc, Mutex, MutexGuard};
    use std::task::{Context, Poll, Waker};

    struct Shared<T> {
        value: T,
        version: u64,
        sender_alive: bool,
        /// At most one waker per receiver, keyed by [`Receiver::id`]: a
        /// `changed()` polled again replaces its receiver's entry, and a
        /// dropped receiver takes its entry along.
        wakers: BTreeMap<u64, Waker>,
        /// The highest receiver id handed out.
        last_id: u64,
    }

    impl<T> Shared<T> {
        fn wake_all(&mut self) {
            for (_, w) in std::mem::take(&mut self.wakers) {
                w.wake();
            }
        }
    }

    pub struct Sender<T> {
        shared: Arc<Mutex<Shared<T>>>,
    }

    pub struct Receiver<T> {
        shared: Arc<Mutex<Shared<T>>>,
        seen: u64,
        id: u64,
    }

    /// Error from [`Receiver::changed`] after the sender dropped.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError(());

    impl std::fmt::Display for RecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("watch sender dropped")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error from [`Sender::send`]; carries the unsent value.
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    pub fn channel<T>(init: T) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Mutex::new(Shared {
            value: init,
            version: 0,
            sender_alive: true,
            wakers: BTreeMap::new(),
            last_id: 0,
        }));
        (
            Sender {
                shared: shared.clone(),
            },
            Receiver {
                shared,
                seen: 0,
                id: 0,
            },
        )
    }

    impl<T> Sender<T> {
        /// Publish a new value, waking all pending `changed` calls.
        /// Unlike tokio this never errors: the value is stored even with
        /// no receivers, which is the behavior callers here rely on.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.send_modify(|v| *v = value);
            Ok(())
        }

        /// Change the value in place under the channel lock and publish
        /// the result as one new version, waking all pending `changed`
        /// calls (after the lock is released, as tokio does).
        pub fn send_modify(&self, modify: impl FnOnce(&mut T)) {
            let wakers = {
                let mut s = lock(&self.shared);
                modify(&mut s.value);
                s.version += 1;
                std::mem::take(&mut s.wakers)
            };
            for (_, w) in wakers {
                w.wake();
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut s = lock(&self.shared);
            s.sender_alive = false;
            s.wake_all();
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            let id = {
                let mut s = lock(&self.shared);
                s.last_id += 1;
                s.last_id
            };
            Receiver {
                shared: self.shared.clone(),
                seen: self.seen,
                id,
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            lock(&self.shared).wakers.remove(&self.id);
        }
    }

    /// Shared borrow of the current value (holds the channel lock).
    pub struct Ref<'a, T>(MutexGuard<'a, Shared<T>>);

    impl<T> Deref for Ref<'_, T> {
        type Target = T;

        fn deref(&self) -> &T {
            &self.0.value
        }
    }

    impl<T> Receiver<T> {
        pub fn borrow(&self) -> Ref<'_, T> {
            Ref(lock(&self.shared))
        }

        /// Resolves when a value newer than the last seen one is
        /// published; errors once the sender is gone with nothing new.
        pub fn changed(&mut self) -> Changed<'_, T> {
            Changed { rx: self }
        }
    }

    /// Future returned by [`Receiver::changed`].
    pub struct Changed<'a, T> {
        rx: &'a mut Receiver<T>,
    }

    impl<T> Unpin for Changed<'_, T> {}

    impl<T> Future for Changed<'_, T> {
        type Output = Result<(), RecvError>;

        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            let rx = &mut *self.rx;
            let mut s = lock(&rx.shared);
            if s.version != rx.seen {
                rx.seen = s.version;
                Poll::Ready(Ok(()))
            } else if !s.sender_alive {
                Poll::Ready(Err(RecvError(())))
            } else {
                s.wakers.insert(rx.id, cx.waker().clone());
                Poll::Pending
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// A `changed()` that is polled and never fires (one under a
        /// `timeout_at` whose task keeps being woken) must not grow the
        /// channel.
        #[test]
        fn unsent_changed_polls_keep_one_waker_per_receiver() {
            let (tx, mut rx) = channel(0u32);
            let mut cx = Context::from_waker(Waker::noop());
            for _ in 0..10_000 {
                assert!(Pin::new(&mut rx.changed()).poll(&mut cx).is_pending());
            }
            assert_eq!(lock(&tx.shared).wakers.len(), 1);

            let mut other = rx.clone();
            assert!(Pin::new(&mut other.changed()).poll(&mut cx).is_pending());
            assert_eq!(lock(&tx.shared).wakers.len(), 2);
            drop(other);
            assert_eq!(lock(&tx.shared).wakers.len(), 1);

            tx.send(1).unwrap();
            assert!(lock(&tx.shared).wakers.is_empty());
            assert!(Pin::new(&mut rx.changed()).poll(&mut cx).is_ready());
            assert_eq!(*rx.borrow(), 1);
        }

        /// A `wait_for` predicate that panics while it holds `borrow()`
        /// leaves the channel usable: the next publish goes out and is
        /// seen.
        #[test]
        fn a_panic_under_borrow_does_not_poison_the_channel() {
            let (tx, mut rx) = channel(0u32);
            let held = rx.clone();
            let panicked = std::thread::spawn(move || {
                let _value = held.borrow();
                panic!("a predicate's own bug");
            })
            .join();
            assert!(panicked.is_err());
            let waiter = std::thread::spawn(move || {
                crate::runtime::block_on(rx.changed()).map(|()| *rx.borrow())
            });
            tx.send_modify(|v| *v = 7);
            assert_eq!(waiter.join().unwrap(), Ok(7));
        }

        /// However much a `send_modify` changes, it is one new version:
        /// a pending `changed()` is woken, resolves once, and sees all
        /// of it.
        #[test]
        fn send_modify_publishes_in_place_as_one_version() {
            let (tx, mut rx) = channel(vec![1u32, 2, 3]);
            let mut cx = Context::from_waker(Waker::noop());
            assert!(Pin::new(&mut rx.changed()).poll(&mut cx).is_pending());
            tx.send_modify(|v| {
                v[0] = 7;
                v.push(4);
            });
            assert!(lock(&tx.shared).wakers.is_empty());
            assert!(Pin::new(&mut rx.changed()).poll(&mut cx).is_ready());
            assert!(Pin::new(&mut rx.changed()).poll(&mut cx).is_pending());
            assert_eq!(*rx.borrow(), [7, 2, 3, 4]);
        }
    }
}
