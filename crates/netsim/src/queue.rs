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
//!
//! [`EventQueue::ahead`] names an event still to come, so a simulator can
//! fetch what that event will touch before its turn. It is a hint: it
//! changes no order, and a push may make the event it named come later.

use crate::time::SimTime;
use ipmedia_core::prefetch;
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
    /// The look-ahead cursor: `NIL`, or the slot `ahead_by` links behind
    /// the head of the earliest instant's FIFO. A pop brings it one
    /// closer; draining that instant, or a push that makes a new earliest
    /// one, resets it.
    cursor: u32,
    ahead_by: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self {
            instants: BTreeMap::new(),
            slab: Vec::new(),
            free: NIL,
            len: 0,
            cursor: NIL,
            ahead_by: 0,
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
                // The cursor counted from the head of an instant that is
                // no longer the earliest.
                if self.next_at() == Some(at) {
                    self.cursor = NIL;
                    self.ahead_by = 0;
                }
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
            self.cursor = NIL;
            self.ahead_by = 0;
        } else {
            fifo.get_mut().0 = slot.1;
            match self.ahead_by.checked_sub(1) {
                Some(by) => self.ahead_by = by,
                // The cursor was on the slot just popped.
                None => self.cursor = NIL,
            }
        }
        slot.1 = self.free;
        self.free = head;
        self.len -= 1;
        Some((at, item))
    }

    /// The event `pop` will return `n` pops from now, if it is one of the
    /// earliest instant's and nothing is pushed meanwhile. Walks on from
    /// where the last call stopped, so asking for the same distance before
    /// every pop costs one link a pop and allocates nothing; and it
    /// prefetches the slot that link leads to, so the walk does not wait.
    pub fn ahead(&mut self, n: usize) -> Option<&T> {
        let (_, &(head, _)) = self.instants.first_key_value()?;
        if self.cursor == NIL || n < self.ahead_by {
            self.cursor = head;
            self.ahead_by = 0;
        }
        while self.ahead_by < n {
            let next = self.slab[self.cursor as usize].1;
            if next == NIL {
                return None;
            }
            self.cursor = next;
            self.ahead_by += 1;
        }
        let (item, next) = &self.slab[self.cursor as usize];
        // The slot the next call walks to.
        if let Some(slot) = self.slab.get(*next as usize) {
            prefetch(std::ptr::from_ref(slot).cast(), size_of_val(slot));
        }
        item.as_ref()
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
