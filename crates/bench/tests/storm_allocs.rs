//! The storm's allocation budget, as exact-repeat counts: how many heap
//! allocations one stimulus costs and how many bytes one built box keeps
//! resident. Both are properties of how `core` and `netsim` lay their
//! state out (DESIGN §3, "data layout"), not of the host, so a fixed seed
//! gives the same numbers on every run and a regression is a changed
//! count rather than a slower clock.
//!
//! One `#[test]` only: the counters are process-wide, and two measuring
//! threads would count into each other.

use ipmedia_bench::storm::{build_netsim_calls, generate_storm, run_netsim_storm, StormSpec};
use ipmedia_netsim::{Network, SimConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Counts allocations made by the thread that asked for counting, and
/// the bytes it holds.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the measuring thread only, so the test harness's own
    /// threads stay out of the counts. `const` and without a destructor:
    /// reading it from inside the allocator allocates nothing.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    COUNTING.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to `System`; the wrapper only
// updates counters, and never allocates itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counting() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f` with counting on; returns its result, the allocations it made
/// and the bytes it left allocated.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, usize) {
    let (allocs, live) = (ALLOCS.load(Ordering::Relaxed), LIVE.load(Ordering::Relaxed));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (
        out,
        ALLOCS.load(Ordering::Relaxed) - allocs,
        LIVE.load(Ordering::Relaxed).wrapping_sub(live),
    )
}

/// The benchmark's `--quick` storm: default seed, 500 calls, one thread.
const SPEC: StormSpec = StormSpec {
    seed: 0x5704_0001,
    calls: 500,
    threads: 1,
};

/// Allocations of one whole 500-call storm (generate, build, establish,
/// features, relink, report, teardown): 2.05 for each of its 10,524
/// stimuli. Four of them are per histogram in the metric table (two to
/// make it, two to snapshot it), whatever the storm's size, and one is
/// the event queue's `BTreeMap` node (a handful of pending instants fit
/// one leaf; nothing is allocated per event).
const STORM_ALLOCS: u64 = 21_622;
/// Bytes the 1,319 boxes of the built storm keep allocated, network and
/// event queue included: 995 a box. The queue's share is its slab —
/// 104-byte slots, as many as the deepest it has been (4,096 reserved
/// here) — and the 192-byte map node. A slot stores neither a time nor a
/// sequence number: the map key and the chain order carry them, and a
/// trace context only when tracing is on.
const BUILT_BYTES: usize = 1_313_496;

#[test]
fn storm_stays_inside_its_allocation_budget() {
    let (report, allocs, _) = counted(|| run_netsim_storm(&SPEC));
    let (again, allocs_again, _) = counted(|| run_netsim_storm(&SPEC));
    assert_eq!(report.digest(), again.digest());
    assert_eq!(allocs, allocs_again, "the count must repeat exactly");

    let plans = generate_storm(&SPEC);
    let ((net, boxes), _, built) = counted(|| {
        let mut net = Network::new(SimConfig::paper());
        let (calls, boxes) = build_netsim_calls(&mut net, plans);
        drop(calls);
        (net, boxes)
    });
    assert_eq!(net.pending_events(), 0);
    assert_eq!(boxes, report.boxes);

    eprintln!(
        "storm_allocs: {allocs} allocations / {} stimuli = {:.2} per stimulus; \
         {built} bytes / {boxes} boxes = {} per box",
        report.stimuli,
        allocs as f64 / report.stimuli as f64,
        built / boxes,
    );
    assert!(
        allocs <= STORM_ALLOCS,
        "a storm made {allocs} allocations, budget {STORM_ALLOCS}"
    );
    assert!(
        built <= BUILT_BYTES,
        "{boxes} built boxes hold {built} bytes, budget {BUILT_BYTES}"
    );
}
