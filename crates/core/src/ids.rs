//! Identifiers for the entities of the descriptive model (paper §III-A).
//!
//! The model is a graph of *boxes* (peer modules involved in media control)
//! connected by *signaling channels*. Each channel is statically partitioned
//! into *tunnels*, and the endpoint of a tunnel at a box is a *slot*.

use std::fmt;

/// Identity of a box: a peer module involved in media control.
///
/// A box may be a physical component (user device, application server, media
/// resource) or a virtual module running inside one; the model treats all of
/// them uniformly (paper §III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BoxId(pub u32);

/// Identity of a signaling channel: a two-way, FIFO, reliable connection
/// between two boxes (typically TCP between physical components, software
/// queues within one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub u32);

/// Index of a tunnel within its signaling channel. Each tunnel provides a
/// separate two-way signaling capability controlling one media channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TunnelId(pub u16);

/// Identity of a slot within a box: the protocol endpoint of one tunnel.
///
/// Slot ids are local to their box; `(BoxId, SlotId)` is globally unique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotId(pub u16);

/// The slots of one channel at one box, in tunnel order. A box deals a
/// channel's slot ids consecutively, so tunnel `i` is slot `first + i`;
/// only the box that dealt them builds one, so `first + len` fits a
/// `u16`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRange {
    /// The slot of tunnel 0.
    pub(crate) first: SlotId,
    /// Number of tunnels, and so of slots.
    pub(crate) len: u16,
}

impl SlotRange {
    /// The slot of tunnel `i`, if the channel has that many.
    pub fn get(self, i: usize) -> Option<SlotId> {
        let i = u16::try_from(i).ok().filter(|&i| i < self.len)?;
        Some(SlotId(self.first.0 + i))
    }

    /// Number of slots, one per tunnel.
    pub fn len(self) -> u16 {
        self.len
    }

    /// True iff the channel has no tunnels.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The slots, in tunnel order.
    pub fn iter(self) -> impl Iterator<Item = SlotId> {
        (self.first.0..self.first.0 + self.len).map(SlotId)
    }

    /// The slots, in tunnel order, as a `Vec`.
    pub fn to_vec(self) -> Vec<SlotId> {
        self.iter().collect()
    }
}

/// Globally unique reference to a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotRef {
    /// The box owning the slot.
    pub box_id: BoxId,
    /// The slot, local to its box.
    pub slot: SlotId,
}

impl SlotRef {
    /// Reference to `slot` within `box_id`.
    pub fn new(box_id: BoxId, slot: SlotId) -> Self {
        Self { box_id, slot }
    }
}

impl fmt::Display for BoxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "box{}", self.0)
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

impl fmt::Display for TunnelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tun{}", self.0)
    }
}

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot{}", self.0)
    }
}

impl fmt::Display for SlotRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.box_id, self.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn slot_ref_identity() {
        let a = SlotRef::new(BoxId(1), SlotId(2));
        let b = SlotRef::new(BoxId(1), SlotId(2));
        let c = SlotRef::new(BoxId(1), SlotId(3));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let set: HashSet<_> = [a, b, c].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn display_formats() {
        assert_eq!(BoxId(7).to_string(), "box7");
        assert_eq!(SlotRef::new(BoxId(1), SlotId(0)).to_string(), "box1.slot0");
        assert_eq!(ChannelId(3).to_string(), "ch3");
        assert_eq!(TunnelId(9).to_string(), "tun9");
    }
}
