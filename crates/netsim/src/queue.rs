//! The time-ordered event queue under both simulators (`Network` here,
//! `SipNet` in `ipmedia-sip`): one FIFO per pending instant.
//!
//! §VIII-C's timing model has two constants, so a fleet opened at one
//! virtual instant moves in lockstep and very few distinct instants are
//! pending at once — six at most over the whole 10,000-call storm, with
//! 60,070 events queued. Ordering instants in a `BTreeMap` and events
//! within an instant by arrival costs a pop no sift. Push order only
//! grows, so arrival order within an instant *is* `(at, seq)` order — also
//! for a push at the instant being drained — and the key is the exact
//! `SimTime`: no bucket width, nothing to tune and nothing rounded.

use crate::time::SimTime;
use std::collections::btree_map::{BTreeMap, Entry};

/// End of a FIFO's chain, and of the free list.
const NIL: u32 = u32::MAX;

/// Events ordered by time, and by push order within one time.
pub struct EventQueue<T> {
    /// Each pending instant's FIFO, as the slab indices of its head and
    /// tail.
    instants: BTreeMap<SimTime, (u32, u32)>,
    /// Every FIFO is threaded through this one slab: an event and the
    /// index of the one queued after it. An empty slot holds the next free
    /// one instead. One slab, not a `VecDeque` per instant: a drained
    /// deque keeps its capacity while the next instant fills.
    slab: Vec<(Option<T>, u32)>,
    /// Most recently popped slot, the next one pushed to.
    free: u32,
    len: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self {
            instants: BTreeMap::new(),
            slab: Vec::new(),
            free: NIL,
            len: 0,
        }
    }
}

impl<T> EventQueue<T> {
    /// Queue `item` behind everything already queued for `at`.
    pub fn push(&mut self, at: SimTime, item: T) {
        let slot = match self.free {
            NIL => {
                assert!(self.slab.len() < NIL as usize, "slab indices fit u32");
                self.slab.push((Some(item), NIL));
                (self.slab.len() - 1) as u32
            }
            slot => {
                let vacant = &mut self.slab[slot as usize];
                self.free = vacant.1;
                *vacant = (Some(item), NIL);
                slot
            }
        };
        match self.instants.entry(at) {
            Entry::Vacant(fifo) => {
                fifo.insert((slot, slot));
            }
            Entry::Occupied(mut fifo) => {
                let tail = &mut fifo.get_mut().1;
                self.slab[*tail as usize].1 = slot;
                *tail = slot;
            }
        }
        self.len += 1;
    }

    /// Take the earliest event; among those of one instant, the one
    /// pushed first.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let mut fifo = self.instants.first_entry()?;
        let at = *fifo.key();
        let (head, tail) = *fifo.get();
        let slot = &mut self.slab[head as usize];
        let item = slot.0.take().expect("a queued slot holds its event");
        if head == tail {
            fifo.remove();
        } else {
            fifo.get_mut().0 = slot.1;
        }
        slot.1 = self.free;
        self.free = head;
        self.len -= 1;
        Some((at, item))
    }

    /// The instant of the event `pop` would return.
    pub fn next_at(&self) -> Option<SimTime> {
        self.instants.first_key_value().map(|(at, _)| *at)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slab slots in existence, queued or free: the deepest `len` reached.
    pub fn slots(&self) -> usize {
        self.slab.len()
    }
}
