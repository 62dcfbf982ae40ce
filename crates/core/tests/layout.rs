//! Size pins for the records that travel and sit by value: every queued
//! simulator event and `rt` frame holds a `Signal`, every slot (and so
//! every checker state) two `Descriptor`s, every box its `Slot`s and one
//! `NodeHost`. They hold no heap they do not need (DESIGN §3, "data
//! layout"); a field that grows one of them should be a decision, not an
//! accident.

use ipmedia_core::host::NodeHost;
use ipmedia_core::{Descriptor, Signal, Slot, TimerGenerations};
use std::mem::size_of;

#[test]
#[cfg(target_pointer_width = "64")]
fn signal_slot_and_descriptor_stay_small() {
    assert!(size_of::<Descriptor>() <= 48, "{}", size_of::<Descriptor>());
    assert!(size_of::<Signal>() <= 56, "{}", size_of::<Signal>());
    assert!(size_of::<Slot>() <= 184, "{}", size_of::<Slot>());
}

/// A storm builds tens of thousands of hosts and arms a timer in none of
/// them: the timer table is an empty `Vec` and the reliability layer a
/// null pointer until used, and the channel table is the route table.
/// The simulator prefetches a host whole, inside its node, every cache
/// line of it, before the step that needs it (netsim's
/// `a_node_stays_small` pins the node): a wider host costs every step.
#[test]
#[cfg(target_pointer_width = "64")]
fn a_host_stays_small() {
    assert!(size_of::<NodeHost>() <= 144, "{}", size_of::<NodeHost>());
    let timers = size_of::<TimerGenerations>();
    assert!(timers <= 24, "{timers}");
}
