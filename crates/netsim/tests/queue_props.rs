//! [`EventQueue`] against a binary heap keyed `(at, seq)`, the order both
//! simulators are defined by: for any interleaving of pushes and pops the
//! two hand back the same events in the same order, and agree on `len` and
//! `next_at` after every operation. The slab behind the queue holds no
//! more slots than the deepest the queue has been.

use ipmedia_netsim::{EventQueue, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
}

impl Pair {
    fn push(&mut self, at: SimTime) {
        self.queue.push(at, self.seq);
        self.heap.push(Reverse((at, self.seq)));
        self.seq += 1;
        self.agree();
    }

    /// Pops both; false once they are empty.
    fn pop(&mut self) -> bool {
        let expected = self.heap.pop().map(|Reverse(e)| e);
        assert_eq!(self.queue.pop(), expected);
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
        assert_eq!(self.queue.slots(), self.deepest, "a freed slot is reused");
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
