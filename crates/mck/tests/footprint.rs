//! What an exploration costs in memory, as exact-repeat counts: the most
//! bytes it holds at once, how many heap allocations one transition takes,
//! and how many bytes the graph it returns keeps. All three follow from how
//! the engine stores a state (DESIGN §5.1: a row of component ids, not a
//! `PathState`), not from the host, so they are the same on every run and
//! a regression is a changed count rather than a slower clock.
//! So is how the transitions were stepped: the local steps executed, the
//! successors that had to be rebuilt to be canonicalized and the states
//! rebuilt from rows in all are pinned beside the allocations, and are what
//! catches a transition that got dearer, or a state rebuilt that need not
//! be.
//! The size of the graph itself — states and transitions — is pinned
//! exactly: those are the counts `benchmark/`'s `mck_explore` divides its
//! clock by.
//!
//! One `#[test]` only: the counters are process-wide, and two measuring
//! threads would count into each other.

use ipmedia_core::path::EndGoal;
use ipmedia_mck::{budgeted, explore, CheckConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Counts allocations made by the thread that asked for counting, the
/// bytes it holds, and the most it ever held.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the measuring thread only, so the test harness's own
    /// threads stay out of the counts. `const` and without a destructor:
    /// reading it from inside the allocator allocates nothing.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the wrapper only
// updates counters, and never allocates itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            grew(layout.size());
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.with(Cell::get) {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            // Counted as growing in place, which is what the system
            // allocator does with the large blocks that decide the peak.
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One exploration's counts.
#[derive(Debug, PartialEq, Eq)]
struct Footprint {
    states: usize,
    transitions: usize,
    allocs: u64,
    /// Most bytes held at once while exploring.
    peak: usize,
    /// Bytes the returned graph keeps.
    kept: usize,
    /// Local steps executed, successors rebuilt to be canonicalized, and
    /// states rebuilt from rows in all.
    local_steps: u64,
    canonicalized: u64,
    rebuilt: u64,
}

fn measure(cfg: &CheckConfig) -> Footprint {
    let (allocs, live) = (ALLOCS.load(Ordering::Relaxed), LIVE.load(Ordering::Relaxed));
    PEAK.store(live, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let g = explore(cfg, usize::MAX);
    COUNTING.with(|c| c.set(false));
    assert!(!g.truncated);
    Footprint {
        states: g.states(),
        transitions: g.transitions,
        allocs: ALLOCS.load(Ordering::Relaxed) - allocs,
        peak: PEAK.load(Ordering::Relaxed) - live,
        kept: LIVE.load(Ordering::Relaxed) - live,
        local_steps: g.local_steps,
        canonicalized: g.canonicalized,
        rebuilt: g.rebuilt,
    }
}

/// The graph one configuration explores to and how its transitions were
/// stepped (both exact), and what that may cost at most: the counts the
/// row layout reaches. Lower those when a change lowers the counts.
///
/// `allocs` is what a transition costs as a lookup and a row (DESIGN §5.1,
/// "local steps are taken once"): the graph's own vectors, a table entry
/// per new component, a row per canonicalized successor, and nothing for a
/// transition that hits — 25,785 = 0.09 a transition on `open-hold/1`.
/// All three were re-pinned down when the search became one FIFO loop
/// (`peak` 27,178,692 → 22,921,956, `allocs` 426,568 → 326,169, `kept`
/// 11,354,344 → 9,027,672; with the fault 27,041,380 → 23,113,392, 430,055
/// → 334,438, 10,604,836 → 8,777,868): a discovered state's row goes
/// straight into the seen-set instead of waiting in a per-level pending
/// list beside the vectors that ordered and renumbered the level, a
/// successor list is built as ids rather than as 12-byte edges to resolve,
/// and is kept at its exact capacity, not at three times it. And again
/// when states came to be read off their rows (`peak` 22,921,956 →
/// 14,407,436, `allocs` 326,169 → 25,785, `kept` 9,027,672 → 4,194,320;
/// with the fault 23,113,392 → 13,490,228, 334,438 → 45,389, 8,777,868 →
/// 3,145,792): actions and flags come from per-component facts, so a state
/// is rebuilt only for a step the memo lacks (`rebuilt`, pinned exactly),
/// the seen-set and the tables index ids in one `Vec<u64>` each instead of
/// a `HashMap` of `Vec`s, and the graph is two flat successor arrays and a
/// packed 8-byte parent in place of a `Vec` and a 32-byte `Option<(u32,
/// Action)>` per state. Both builds now reach the same `peak`.
struct Budget {
    name: &'static str,
    cfg: CheckConfig,
    states: usize,
    transitions: usize,
    /// Exact: the distinct `(action, components read)` among the
    /// transitions, each executed once.
    local_steps: u64,
    /// Exact: the successors whose census could not say "canonical".
    canonicalized: u64,
    /// Exact: the states rebuilt from rows, to take a step or to be
    /// canonicalized.
    rebuilt: u64,
    peak: usize,
    allocs: u64,
    kept: usize,
}

#[test]
fn exploration_stays_inside_its_memory_budget() {
    let open_hold = |links| budgeted(links, EndGoal::Open, EndGoal::Hold, 0);
    let budgets = [
        Budget {
            name: "open-hold/1",
            cfg: open_hold(1),
            states: 95_675,
            transitions: 290_834,
            local_steps: 14_393,
            canonicalized: 4_688,
            rebuilt: 17_954,
            peak: 14_407_436,
            allocs: 25_785,
            kept: 4_194_320,
        },
        Budget {
            name: "open-hold/0+1fault",
            cfg: open_hold(0).with_faults(1),
            states: 91_743,
            transitions: 228_371,
            local_steps: 27_283,
            canonicalized: 6_427,
            rebuilt: 32_433,
            peak: 13_490_228,
            allocs: 45_389,
            kept: 3_145_792,
        },
    ];
    for b in &budgets {
        let seen = measure(&b.cfg);
        assert_eq!(seen, measure(&b.cfg), "{}: counts must repeat", b.name);
        eprintln!(
            "footprint {}: {} states, {} transitions, {} local steps, {} canonicalized, \
             {} rebuilt; peak {} B = {} a state; {} allocations = {:.2} a transition; \
             graph keeps {} B = {} a state",
            b.name,
            seen.states,
            seen.transitions,
            seen.local_steps,
            seen.canonicalized,
            seen.rebuilt,
            seen.peak,
            seen.peak / seen.states,
            seen.allocs,
            seen.allocs as f64 / seen.transitions as f64,
            seen.kept,
            seen.kept / seen.states,
        );
        assert_eq!(
            (seen.states, seen.transitions),
            (b.states, b.transitions),
            "{}: explored a different graph",
            b.name
        );
        assert_eq!(
            (seen.local_steps, seen.canonicalized),
            (b.local_steps, b.canonicalized),
            "{}: stepped it differently",
            b.name
        );
        assert!(
            seen.peak <= b.peak,
            "{}: {} bytes held at the peak, budget {}",
            b.name,
            seen.peak,
            b.peak
        );
        // A debug build also rebuilds every state it expands and applies
        // every transition the long way, to hold the rows to them
        // (`Components::successor`), and that allocates: the rebuilds and
        // the allocation budget are the optimized build's, which
        // `scripts/check.sh` runs.
        assert!(
            cfg!(debug_assertions) || seen.rebuilt == b.rebuilt,
            "{}: {} states rebuilt from rows, pinned {}",
            b.name,
            seen.rebuilt,
            b.rebuilt
        );
        assert!(
            cfg!(debug_assertions) || seen.allocs <= b.allocs,
            "{}: {} allocations, budget {}",
            b.name,
            seen.allocs,
            b.allocs
        );
        assert!(
            seen.kept <= b.kept,
            "{}: the graph keeps {} bytes, budget {}",
            b.name,
            seen.kept,
            b.kept
        );
    }
}
