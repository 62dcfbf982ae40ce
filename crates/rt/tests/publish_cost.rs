//! What a node pays to publish is O(slots an event touched), pinned as a
//! count rather than a timing: the bytes the whole process allocates for
//! one mid-call `Modify` round trip must not depend on how many other
//! calls the two nodes hold. A publish that rebuilds every entry
//! allocates 40 bytes a slot each time — 20 KB at 512 slots, several
//! times per round trip.
//!
//! One `#[test]` only: the counter is process-wide.

use ipmedia_core::endpoint::{CallerLogic, EndpointLogic};
use ipmedia_core::goal::{EndpointPolicy, UserCmd};
use ipmedia_core::{BoxId, MediaAddr, SlotState};
use ipmedia_obs::metrics::{kind_index, Registry};
use ipmedia_rt::{spawn_node, Directory, NodeOptions, NodeSnapshot};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use tokio::time::Duration;

/// Counts the bytes the runtime's workers ask for: the nodes run there.
/// The test's own thread only sends commands and waits, and is not
/// counted: whether a wait finds its condition met at once or parks (and
/// allocates for it) is a race, not something the nodes pay.
struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the test's thread.
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    if !UNCOUNTED.try_with(Cell::get).unwrap_or(false) {
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the wrapper only
// adds to a counter, and never allocates itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WAIT: Duration = Duration::from_secs(20);

fn addr(h: u8) -> MediaAddr {
    MediaAddr::v4(10, 0, 0, h, 4000)
}

/// Selects a node has received, read without allocating.
fn selects(registry: &Registry) -> u64 {
    registry.signals_received[kind_index("select")].load(Ordering::Relaxed)
}

/// Bytes allocated per round trip — mute one call's inbound at the
/// caller, wait for the callee's route to go and for the caller to hold
/// the callee's answering select, and back — between two nodes holding
/// `channels × 8` flowing calls, after a warm-up. Each round trip ends
/// with both nodes quiescent, so none is billed for the tail of another.
async fn bytes_per_round_trip(channels: u16) -> u64 {
    const WARMUP: u64 = 50;
    const MEASURED: u64 = 200;
    let calls = usize::from(channels) * 8;
    let dir = Directory::new();
    let logic = EndpointLogic::resource(EndpointPolicy::audio(addr(2)));
    let mut callee = spawn_node(
        "callee",
        BoxId(2),
        Box::new(logic),
        dir.clone(),
        NodeOptions::default(),
    )
    .await
    .unwrap();
    let mut caller = spawn_node(
        "caller",
        BoxId(1),
        Box::new(CallerLogic::new(
            EndpointPolicy::audio(addr(1)),
            "callee",
            channels,
            8,
        )),
        dir,
        NodeOptions::default(),
    )
    .await
    .unwrap();
    let flowing = |s: &NodeSnapshot| {
        s.slots
            .iter()
            .filter(|sl| sl.state == SlotState::Flowing)
            .count()
    };
    assert!(caller.wait_for(WAIT, |s| flowing(s) == calls).await);
    assert!(callee.wait_for(WAIT, |s| flowing(s) == calls).await);
    let slot = caller.snapshot.borrow().slots[calls / 2].slot;
    let registry = caller.registry();

    let mut start = 0;
    for trip in 0..WARMUP + MEASURED {
        if trip == WARMUP {
            start = BYTES.load(Ordering::Relaxed);
        }
        let mute_in = trip % 2 == 0;
        let cmd = UserCmd::Modify {
            mute_in,
            mute_out: false,
        };
        let answered = selects(&registry) + 1;
        caller.user(slot, cmd).await;
        let seen = callee.wait_for(WAIT, |s| {
            s.slots.iter().filter(|sl| sl.tx_route.is_none()).count() == usize::from(mute_in)
        });
        assert!(seen.await, "{calls} calls: round trip {trip} never landed");
        // At least: during the warm-up a select of the calls' setup may
        // still trail in.
        let held = caller.wait_for(WAIT, |_| selects(&registry) >= answered);
        assert!(
            held.await,
            "{calls} calls: round trip {trip} never answered"
        );
    }
    let bytes = BYTES.load(Ordering::Relaxed) - start;
    caller.shutdown().await;
    callee.shutdown().await;
    bytes / MEASURED
}

#[tokio::test]
async fn a_round_trip_allocates_the_same_at_8_slots_and_at_512() {
    UNCOUNTED.with(|u| u.set(true));
    let small = bytes_per_round_trip(1).await;
    let large = bytes_per_round_trip(64).await;
    eprintln!("bytes allocated per Modify round trip: {small} at 8 slots, {large} at 512");
    assert!(small < 4096 && large < 4096, "{small} / {large} bytes");
    assert!(
        small.abs_diff(large) * 10 <= small,
        "{small} bytes at 8 slots, {large} at 512: not within 10 %"
    );
}
