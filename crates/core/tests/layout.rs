//! Size pins for the records that travel and sit by value: every queued
//! simulator event and `rt` frame holds a `Signal`, every slot (and so
//! every checker state) two `Descriptor`s, every box its `Slot`s. They
//! hold no heap (DESIGN §3, "data layout"); a field that grows one of
//! them should be a decision, not an accident.

use ipmedia_core::{Descriptor, Signal, Slot};
use std::mem::size_of;

#[test]
#[cfg(target_pointer_width = "64")]
fn signal_slot_and_descriptor_stay_small() {
    assert!(size_of::<Descriptor>() <= 48, "{}", size_of::<Descriptor>());
    assert!(size_of::<Signal>() <= 56, "{}", size_of::<Signal>());
    assert!(size_of::<Slot>() <= 184, "{}", size_of::<Slot>());
}
