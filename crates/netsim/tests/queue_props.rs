//! [`EventQueue`] against a binary heap keyed `(at, seq)`, the order both
//! simulators are defined by: for any interleaving of pushes and pops the
//! two hand back the same events in the same order, and agree on `len` and
//! `next_at` after every operation. The slab behind the queue holds no
//! more slots than the deepest the queue has been, look-ahead and all.
//!
//! After every operation `ahead(n)`, for `n` in `0..=20`, names the event
//! the heap holds `n` places behind its earliest while that one is of the
//! same instant, and nothing past it; and when no push comes between, it
//! is the event the `n`-th later pop returns.

use ipmedia_netsim::{EventQueue, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The look-ahead distances checked after every operation.
const AHEAD: usize = 20;

/// The queue under test beside its reference. Both carry the push's
/// sequence number as the event.
#[derive(Default)]
struct Pair {
    queue: EventQueue<u64>,
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    seq: u64,
    /// The instant last popped: the simulators never push before it.
    now: SimTime,
    deepest: usize,
    /// What `ahead` promised, as (pops still to come first, event); a
    /// push voids them.
    promised: Vec<(usize, u64)>,
}

impl Pair {
    fn push(&mut self, at: SimTime) {
        self.queue.push(at, self.seq);
        self.heap.push(Reverse((at, self.seq)));
        self.seq += 1;
        self.promised.clear();
        self.agree();
    }

    /// Pops both; false once they are empty.
    fn pop(&mut self) -> bool {
        let expected = self.heap.pop().map(|Reverse(e)| e);
        assert_eq!(self.queue.pop(), expected);
        self.promised
            .retain_mut(|(first, seq)| match first.checked_sub(1) {
                Some(left) => {
                    *first = left;
                    true
                }
                None => {
                    assert_eq!(expected.map(|(_, e)| e), Some(*seq), "ahead broke its word");
                    false
                }
            });
        self.agree();
        match expected {
            Some((at, _)) => {
                assert!(at >= self.now, "time went backwards");
                self.now = at;
                true
            }
            None => false,
        }
    }

    fn agree(&mut self) {
        assert_eq!(self.queue.len(), self.heap.len());
        assert_eq!(self.queue.is_empty(), self.heap.is_empty());
        assert_eq!(
            self.queue.next_at(),
            self.heap.peek().map(|Reverse((at, _))| *at)
        );
        self.deepest = self.deepest.max(self.queue.len());
        self.look_ahead();
        assert_eq!(self.queue.slots(), self.deepest, "a freed slot is reused");
    }

    /// First the farthest distance, as a simulator asks before every pop:
    /// it walks on from where the pops since the last call left the
    /// cursor. Then near to far: the first call starts over from the head
    /// and the last leaves the cursor far out for the next pops to bring
    /// closer.
    fn look_ahead(&mut self) {
        let mut queued: Vec<(SimTime, u64)> = self.heap.iter().map(|Reverse(e)| *e).collect();
        queued.sort_unstable();
        for n in std::iter::once(AHEAD).chain(0..=AHEAD) {
            let expected = queued
                .get(n)
                .filter(|(at, _)| Some(*at) == queued.first().map(|e| e.0))
                .map(|e| e.1);
            assert_eq!(self.queue.ahead(n).copied(), expected, "ahead({n})");
            if let Some(seq) = expected {
                self.promised.push((n, seq));
            }
        }
    }
}

/// Runs `ops` on both queues. An op pushes (five in eight) at up to
/// `spread - 1` µs past the instant being drained, pops one event (two in
/// eight), or pops until empty — so that later pushes meet a queue that
/// ran dry, free list and all.
fn check(ops: &[(u8, u16)], spread: u64) {
    let mut pair = Pair::default();
    for &(kind, offset) in ops {
        match kind % 8 {
            0..=4 => pair.push(SimTime(pair.now.0 + u64::from(offset) % spread)),
            5..=6 => {
                pair.pop();
            }
            _ => while pair.pop() {},
        }
    }
    while pair.pop() {}
    assert_eq!(pair.queue.next_at(), None);
}

fn ops() -> impl Strategy<Value = Vec<(u8, u16)>> {
    proptest::collection::vec((any::<u8>(), any::<u16>()), 0..600)
}

/// The cases the random interleavings reach only now and then, in turn.
#[test]
fn ahead_follows_pushes_and_drains() {
    let mut pair = Pair::default();
    for _ in 0..4 {
        pair.push(SimTime(3));
    }
    pair.push(SimTime(5));
    pair.pop();
    // A push at the draining instant joins its tail: within reach.
    pair.push(SimTime(3));
    assert_eq!(pair.queue.ahead(3), Some(&5));
    // A push that makes a new earliest instant: the one being drained ran
    // dry, and the push lands before the next one pending.
    while pair.queue.next_at() == Some(SimTime(3)) {
        pair.pop();
    }
    pair.push(SimTime(4));
    assert_eq!(pair.queue.ahead(0), Some(&6));
    // The earliest instant running dry: nothing past it is named.
    assert_eq!(pair.queue.ahead(1), None);
    pair.pop();
    assert_eq!(pair.queue.ahead(0), Some(&4));
    while pair.pop() {}
    assert_eq!(pair.queue.ahead(0), None);
    assert_eq!(pair.queue.slots(), 5, "looking ahead allocates nothing");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `SimConfig::instant()`: every push lands at the instant being
    /// drained, behind what is already queued there.
    #[test]
    fn one_instant(ops in ops()) {
        check(&ops, 1);
    }

    /// The storm's shape: six instants pending at most.
    #[test]
    fn few_instants(ops in ops()) {
        check(&ops, 6);
    }

    /// Retry jitter: nearly every event at an instant of its own.
    #[test]
    fn many_instants(ops in ops()) {
        check(&ops, 1 << 16);
    }
}
