//! Parallel, deduplicating exploration of a signaling path's state space.
//!
//! The engine is a level-synchronized breadth-first search: the frontier is
//! processed one BFS depth at a time, each level split into contiguous
//! chunks expanded by worker threads against a hash-partitioned (sharded)
//! seen-set, and all states discovered within a level are committed in a
//! deterministic order before the next level starts. Because every new
//! state is numbered by its *minimal* discovery key — the `(parent index,
//! action ordinal)` pair, minimized commutatively under the shard lock —
//! the resulting graph (state numbering, parent pointers, successor lists,
//! terminal set) is byte-identical at any thread count, and identical to
//! the plain sequential FIFO BFS. Counterexample replay therefore never
//! needs a special single-threaded run, but `threads = 1` remains the
//! deterministic-by-construction mode (no locking involved at all).
//!
//! States are canonicalized before hashing ([`PathState::canonicalize`]
//! renumbers descriptor generations), so symmetric interleavings that
//! differ only in tag history collapse in the seen-set before they are
//! ever expanded; the `dedup_hits` counter reports how many transitions
//! landed on an already-interned state.

use crate::state::{Action, CheckConfig, PathState};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Number of seen-set shards. A power of two well above any realistic
/// worker count, so shard-lock contention stays negligible; shard choice
/// uses the *top* hash bits, leaving the low bits (the hash-map bucket
/// index) fully distributed within each shard.
const SHARDS: usize = 64;

/// Fast non-cryptographic hasher (the FxHash rotate–xor–multiply mix).
///
/// Exploration hashes every candidate successor state, and the deeply
/// nested `PathState` makes the default SipHash a measurable fraction of
/// the whole campaign; dedup only needs distribution, not DoS resistance.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// Hasher for maps keyed by an already-computed 64-bit state hash: the
/// key *is* the hash, so rehashing it would only discard entropy.
#[derive(Default)]
struct PreHashed {
    hash: u64,
}

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PreHashed is only for u64 keys");
    }

    fn write_u64(&mut self, v: u64) {
        self.hash = v;
    }
}

type HashIndex = HashMap<u64, Vec<u32>, BuildHasherDefault<PreHashed>>;

/// Hash a canonical state with [`FxHasher`].
pub fn state_hash(s: &PathState) -> u64 {
    let mut h = FxHasher::default();
    s.hash(&mut h);
    h.finish()
}

#[inline]
fn shard_of(hash: u64) -> usize {
    // Top bits: the in-shard HashMap consumes the low bits for its bucket
    // index, so the shard selector must not alias them.
    (hash >> 58) as usize % SHARDS
}

/// Per-state predicate bits, evaluated at insertion so full states need not
/// be retained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateFlags {
    pub both_closed: bool,
    pub both_flowing: bool,
    pub clean: bool,
    pub fully_attached: bool,
}

impl StateFlags {
    /// Evaluate all predicate bits of one state.
    pub fn of(s: &PathState) -> Self {
        StateFlags {
            both_closed: s.both_closed(),
            both_flowing: s.both_flowing(),
            clean: s.clean(),
            fully_attached: s.fully_attached(),
        }
    }
}

/// Exploration bounds and parallelism.
#[derive(Debug, Clone, Copy)]
pub struct ExploreOptions {
    /// Cap on *distinct states expanded* (successor computation). When the
    /// cap is hit with frontier states left, the graph is marked
    /// [`StateGraph::truncated`]; already-discovered but unexpanded states
    /// stay in the graph with empty successor lists and are not terminals.
    pub max_states: usize,
    /// Worker threads for expansion. `0` means "use all available cores";
    /// any value yields the identical graph.
    pub threads: usize,
}

impl ExploreOptions {
    /// Sequential exploration with the given state cap.
    pub fn sequential(max_states: usize) -> Self {
        ExploreOptions {
            max_states,
            threads: 1,
        }
    }

    /// Parallel exploration; `threads = 0` resolves to the host cores.
    pub fn parallel(max_states: usize, threads: usize) -> Self {
        ExploreOptions {
            max_states,
            threads,
        }
    }
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_states: 5_000_000,
            threads: 1,
        }
    }
}

/// The explored transition system.
pub struct StateGraph {
    /// Adjacency: successor state indices per state.
    pub succ: Vec<Vec<u32>>,
    pub flags: Vec<StateFlags>,
    /// BFS predecessor (state, action) for counterexample reconstruction.
    /// Discovery keys are minimized per level, so the parent of a state is
    /// identical at any thread count and traces are BFS-shortest.
    pub parent: Vec<Option<(u32, Action)>>,
    /// States with no enabled actions.
    pub terminals: Vec<u32>,
    pub transitions: usize,
    pub elapsed: Duration,
    /// True if exploration stopped at the expanded-state cap rather than
    /// exhausting the space. Property verdicts over a truncated graph are
    /// not trustworthy and must never be reported as a clean pass.
    pub truncated: bool,
    /// Distinct states expanded (equal to [`StateGraph::states`] unless
    /// the run was truncated).
    pub expanded: usize,
    /// Transitions that landed on an already-interned state — the work the
    /// canonical-hash dedup saved from re-expansion.
    pub dedup_hits: u64,
}

impl StateGraph {
    pub fn states(&self) -> usize {
        self.succ.len()
    }

    /// Expansion throughput of the run, in states per second.
    pub fn states_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.expanded as f64 / secs
        }
    }

    /// Reconstruct the BFS action path to a state (for counterexamples).
    pub fn trace_to(&self, mut idx: u32) -> Vec<Action> {
        let mut rev = Vec::new();
        while let Some((p, a)) = self.parent[idx as usize] {
            rev.push(a);
            idx = p;
        }
        rev.reverse();
        rev
    }
}

/// A successor discovered during a level's expansion: either a state that
/// already had an index, or the `handle`-th pending entry of a shard
/// (resolved to its final index when the level commits).
#[derive(Clone, Copy)]
enum Edge {
    Known(u32),
    New { shard: u32, handle: u32 },
}

/// A state discovered this level, parked in its shard until the commit
/// phase assigns the final index.
struct Pending {
    hash: u64,
    state: PathState,
    /// Minimal discovery key: smallest `(parent, ordinal)` over every
    /// transition that reached this state within the level.
    parent: u32,
    ordinal: u16,
    action: Action,
}

#[derive(Default)]
struct Shard {
    /// Committed states: state hash → indices of states with that hash.
    known: HashIndex,
    /// This level's discoveries: state hash → pending handles.
    pending_index: HashIndex,
    pending: Vec<Pending>,
}

/// Output of one worker for one contiguous chunk of the level: per state,
/// whether it is terminal plus its out-edges, and the dedup tally.
struct ChunkOut {
    rows: Vec<(bool, Vec<Edge>)>,
    dedup_hits: u64,
}

/// Expand the states `lo..hi` of the arena against the shared seen-set.
fn expand_chunk(
    cfg: &CheckConfig,
    arena: &[PathState],
    shards: &[Mutex<Shard>],
    lo: u32,
    hi: u32,
) -> ChunkOut {
    let mut rows = Vec::with_capacity((hi - lo) as usize);
    let mut dedup_hits = 0u64;
    for i in lo..hi {
        let state = &arena[i as usize];
        let actions = state.actions(cfg);
        if actions.is_empty() {
            rows.push((true, Vec::new()));
            continue;
        }
        let mut edges = Vec::with_capacity(actions.len());
        for (ordinal, &action) in actions.iter().enumerate() {
            let next = state.apply(cfg, action);
            let hash = state_hash(&next);
            let shard_id = shard_of(hash);
            let mut shard = shards[shard_id].lock().expect("shard lock");
            if let Some(id) = lookup_known(&shard.known, arena, hash, &next) {
                dedup_hits += 1;
                edges.push(Edge::Known(id));
                continue;
            }
            let ordinal = ordinal as u16;
            if let Some(handle) = lookup_pending(&shard, hash, &next) {
                dedup_hits += 1;
                let p = &mut shard.pending[handle as usize];
                // Commutative min: the winning key is the same no matter
                // which worker saw the state first.
                if (i, ordinal) < (p.parent, p.ordinal) {
                    p.parent = i;
                    p.ordinal = ordinal;
                    p.action = action;
                }
                edges.push(Edge::New {
                    shard: shard_id as u32,
                    handle,
                });
                continue;
            }
            let handle = shard.pending.len() as u32;
            shard.pending.push(Pending {
                hash,
                state: next,
                parent: i,
                ordinal,
                action,
            });
            shard.pending_index.entry(hash).or_default().push(handle);
            edges.push(Edge::New {
                shard: shard_id as u32,
                handle,
            });
        }
        rows.push((false, edges));
    }
    ChunkOut { rows, dedup_hits }
}

fn lookup_known(known: &HashIndex, arena: &[PathState], hash: u64, s: &PathState) -> Option<u32> {
    known
        .get(&hash)?
        .iter()
        .copied()
        .find(|&id| arena[id as usize] == *s)
}

fn lookup_pending(shard: &Shard, hash: u64, s: &PathState) -> Option<u32> {
    shard
        .pending_index
        .get(&hash)?
        .iter()
        .copied()
        .find(|&h| shard.pending[h as usize].state == *s)
}

/// Explore the reachable state space of `cfg`, expanding at most
/// `max_states` distinct states, sequentially. Kept as the plain
/// deterministic mode for replay-style tests; [`explore_with`] at any
/// thread count produces the identical graph.
pub fn explore(cfg: &CheckConfig, max_states: usize) -> StateGraph {
    explore_with(cfg, &ExploreOptions::sequential(max_states))
}

/// Explore the reachable state space of `cfg` under `opts`.
pub fn explore_with(cfg: &CheckConfig, opts: &ExploreOptions) -> StateGraph {
    let start = Instant::now();
    let threads = ipmedia_core::par::resolve(opts.threads);
    let max_states = opts.max_states;

    let initial = PathState::initial(cfg);
    let initial_hash = state_hash(&initial);
    let mut shards: Vec<Mutex<Shard>> = (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect();
    shards[shard_of(initial_hash)]
        .get_mut()
        .expect("unshared shard")
        .known
        .entry(initial_hash)
        .or_default()
        .push(0);

    let mut arena: Vec<PathState> = vec![initial];
    let mut flags: Vec<StateFlags> = vec![StateFlags::of(&arena[0])];
    let mut parent: Vec<Option<(u32, Action)>> = vec![None];
    let mut succ: Vec<Vec<u32>> = vec![Vec::new()];
    let mut terminals: Vec<u32> = Vec::new();
    let mut transitions = 0usize;
    let mut dedup_hits = 0u64;
    let mut expanded = 0usize;
    let mut truncated = false;

    let mut level_start = 0usize;
    let mut level_end = 1usize;

    while level_start < level_end {
        let level_len = level_end - level_start;
        let budget = max_states - expanded;
        let take = level_len.min(budget);
        if take < level_len {
            truncated = true;
            if take == 0 {
                break;
            }
        }

        // Phase A: expand this level's prefix in parallel chunks.
        let outs: Vec<ChunkOut> = {
            let arena_ref: &[PathState] = &arena;
            let shards_ref: &[Mutex<Shard>] = &shards;
            let workers = threads.min(take);
            if workers <= 1 {
                vec![expand_chunk(
                    cfg,
                    arena_ref,
                    shards_ref,
                    level_start as u32,
                    (level_start + take) as u32,
                )]
            } else {
                let chunk = take.div_ceil(workers);
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..workers)
                        .map(|w| {
                            let lo = (level_start + w * chunk).min(level_start + take);
                            let hi = (lo + chunk).min(level_start + take);
                            scope.spawn(move || {
                                expand_chunk(cfg, arena_ref, shards_ref, lo as u32, hi as u32)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("worker panicked"))
                        .collect()
                })
            }
        };

        // Phase B: commit the level. New states are numbered by their
        // minimal discovery key, which is thread-count independent.
        let mut order: Vec<(u32, u16, u32, u32)> = Vec::new();
        let mut taken: Vec<Vec<Option<Pending>>> = Vec::with_capacity(SHARDS);
        for (shard_id, shard) in shards.iter_mut().enumerate() {
            let shard = shard.get_mut().expect("unshared shard");
            shard.pending_index.clear();
            let drained: Vec<Option<Pending>> = shard.pending.drain(..).map(Some).collect();
            for (handle, p) in drained.iter().enumerate() {
                let p = p.as_ref().expect("fresh pending");
                order.push((p.parent, p.ordinal, shard_id as u32, handle as u32));
            }
            taken.push(drained);
        }
        // `(parent, ordinal)` identifies one transition, hence at most one
        // pending state: the key is unique and the sort total.
        order.sort_unstable();

        let mut resolve: Vec<Vec<u32>> = taken.iter().map(|v| vec![0; v.len()]).collect();
        for &(_, _, shard_id, handle) in &order {
            let p = taken[shard_id as usize][handle as usize]
                .take()
                .expect("pending taken once");
            let id = arena.len() as u32;
            flags.push(StateFlags::of(&p.state));
            parent.push(Some((p.parent, p.action)));
            succ.push(Vec::new());
            shards[shard_of(p.hash)]
                .get_mut()
                .expect("unshared shard")
                .known
                .entry(p.hash)
                .or_default()
                .push(id);
            arena.push(p.state);
            resolve[shard_id as usize][handle as usize] = id;
        }

        let mut id = level_start as u32;
        for out in outs {
            for (terminal, edges) in out.rows {
                if terminal {
                    terminals.push(id);
                } else {
                    let list: Vec<u32> = edges
                        .into_iter()
                        .map(|e| match e {
                            Edge::Known(j) => j,
                            Edge::New { shard, handle } => resolve[shard as usize][handle as usize],
                        })
                        .collect();
                    transitions += list.len();
                    succ[id as usize] = list;
                }
                id += 1;
            }
            dedup_hits += out.dedup_hits;
        }

        expanded += take;
        if truncated {
            break;
        }
        level_start = level_end;
        level_end = arena.len();
    }

    StateGraph {
        succ,
        flags,
        parent,
        terminals,
        transitions,
        elapsed: start.elapsed(),
        truncated,
        expanded,
        dedup_hits,
    }
}

/// A sequential deduplicating interner over canonical [`PathState`]s —
/// the single-shard facade over the exploration engine's seen-set (same
/// [`FxHasher`], same hash-bucket-then-compare resolution), for replay
/// loops and tests that need "have I been here before" without a full
/// exploration.
#[derive(Default)]
pub struct SeenSet {
    by_hash: HashIndex,
    states: Vec<PathState>,
}

impl SeenSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a state: returns `(index, fresh)` where `fresh` is false if
    /// an equal state was already present.
    pub fn insert(&mut self, s: PathState) -> (u32, bool) {
        let hash = state_hash(&s);
        if let Some(id) = lookup_known(&self.by_hash, &self.states, hash, &s) {
            return (id, false);
        }
        let id = self.states.len() as u32;
        self.by_hash.entry(hash).or_default().push(id);
        self.states.push(s);
        (id, true)
    }

    pub fn len(&self) -> usize {
        self.states.len()
    }

    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The interned state at `idx`.
    pub fn get(&self, idx: u32) -> &PathState {
        &self.states[idx as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipmedia_core::path::EndGoal;

    #[test]
    fn tiny_exploration_terminates() {
        // Minimal budgets, no flowlink: the space must be small and finite.
        let cfg = CheckConfig {
            links: 0,
            left: EndGoal::Close,
            right: EndGoal::Close,
            end_phase1_budget: 1,
            link_phase1_budget: 0,
            modify_budget: 0,
            fault_budget: 0,
        };
        let g = explore(&cfg, 1_000_000);
        assert!(!g.truncated);
        assert!(g.states() > 1);
        assert_eq!(g.expanded, g.states());
        assert!(!g.terminals.is_empty());
        // All terminals of close–close are clean and bothClosed.
        for &t in &g.terminals {
            assert!(g.flags[t as usize].clean, "terminal not clean");
            assert!(g.flags[t as usize].both_closed);
        }
    }

    #[test]
    fn trace_reconstruction_reaches_state() {
        let cfg = CheckConfig {
            links: 0,
            left: EndGoal::Open,
            right: EndGoal::Hold,
            end_phase1_budget: 0,
            link_phase1_budget: 0,
            modify_budget: 0,
            fault_budget: 0,
        };
        let g = explore(&cfg, 1_000_000);
        assert!(!g.truncated);
        let term = g.terminals[0];
        let trace = g.trace_to(term);
        // Replaying the trace lands on a terminal with the same flags.
        let mut s = crate::state::PathState::initial(&cfg);
        for a in trace {
            s = s.apply(&cfg, a);
        }
        assert!(s.actions(&cfg).is_empty());
        assert_eq!(s.both_flowing(), g.flags[term as usize].both_flowing);
    }

    #[test]
    fn cap_counts_expanded_states_and_sets_truncated() {
        // The cap means "distinct states expanded": a capped run reports
        // exactly that many expansions, flags truncation, and keeps the
        // already-discovered (unexpanded) frontier out of the terminal set.
        let cfg = CheckConfig::standard(0, EndGoal::Open, EndGoal::Hold);
        let full = explore(&cfg, usize::MAX);
        assert!(!full.truncated);
        let cap = full.expanded / 2;
        let g = explore(&cfg, cap);
        assert!(g.truncated, "capped run must be marked truncated");
        assert_eq!(g.expanded, cap);
        assert!(g.states() > g.expanded, "frontier states remain interned");
        // Every terminal was genuinely expanded (its empty successor list
        // came from an empty action set, not from never being processed).
        for &t in &g.terminals {
            assert!((t as usize) < g.expanded, "terminal {t} was never expanded");
        }
    }

    #[test]
    fn zero_cap_truncates_immediately() {
        let cfg = CheckConfig::standard(0, EndGoal::Close, EndGoal::Close);
        let g = explore(&cfg, 0);
        assert!(g.truncated);
        assert_eq!(g.expanded, 0);
        assert_eq!(g.states(), 1);
        assert!(g.terminals.is_empty());
    }

    #[test]
    fn parallel_graph_is_identical_to_sequential() {
        let cfg = CheckConfig::standard(0, EndGoal::Open, EndGoal::Hold);
        let seq = explore_with(&cfg, &ExploreOptions::sequential(1_000_000));
        for threads in [2usize, 4, 8] {
            let par = explore_with(&cfg, &ExploreOptions::parallel(1_000_000, threads));
            assert_eq!(seq.states(), par.states(), "{threads} threads");
            assert_eq!(seq.succ, par.succ, "{threads} threads");
            assert_eq!(seq.flags, par.flags, "{threads} threads");
            assert_eq!(seq.parent, par.parent, "{threads} threads");
            assert_eq!(seq.terminals, par.terminals, "{threads} threads");
            assert_eq!(seq.transitions, par.transitions, "{threads} threads");
            assert_eq!(seq.expanded, par.expanded, "{threads} threads");
            assert_eq!(seq.dedup_hits, par.dedup_hits, "{threads} threads");
        }
    }

    #[test]
    fn truncation_is_thread_count_deterministic() {
        let cfg = CheckConfig::standard(0, EndGoal::Open, EndGoal::Hold);
        let cap = 500;
        let seq = explore_with(&cfg, &ExploreOptions::sequential(cap));
        assert!(seq.truncated);
        for threads in [2usize, 8] {
            let par = explore_with(&cfg, &ExploreOptions::parallel(cap, threads));
            assert!(par.truncated);
            assert_eq!(seq.states(), par.states());
            assert_eq!(seq.expanded, par.expanded);
            assert_eq!(seq.succ, par.succ);
            assert_eq!(seq.terminals, par.terminals);
        }
    }

    #[test]
    fn dedup_hits_account_for_all_transitions() {
        // Every transition either discovered a new state or hit the
        // seen-set: transitions = (states - 1) + dedup_hits.
        let cfg = CheckConfig::standard(0, EndGoal::Open, EndGoal::Close);
        let g = explore(&cfg, usize::MAX);
        assert!(!g.truncated);
        assert_eq!(g.transitions as u64, (g.states() - 1) as u64 + g.dedup_hits);
        assert!(g.dedup_hits > 0, "interleavings must collapse");
    }

    #[test]
    fn seen_set_interns_like_the_engine() {
        let cfg = CheckConfig::standard(0, EndGoal::Open, EndGoal::Hold);
        let mut seen = SeenSet::new();
        let s0 = PathState::initial(&cfg);
        let (i0, fresh0) = seen.insert(s0.clone());
        assert!(fresh0);
        let (i1, fresh1) = seen.insert(s0.clone());
        assert!(!fresh1);
        assert_eq!(i0, i1);
        assert_eq!(seen.len(), 1);
        let s1 = s0.apply(&cfg, crate::state::Action::EndAttach { right: false });
        let (i2, fresh2) = seen.insert(s1);
        assert!(fresh2);
        assert_ne!(i0, i2);
        assert_eq!(seen.get(i0), &s0);
    }
}
