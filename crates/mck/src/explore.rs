//! Deduplicating exploration of a signaling path's state space.
//!
//! The engine is a plain FIFO breadth-first search on one thread: states
//! are numbered as they are discovered, so the queue is the ids not yet
//! expanded; state `i`'s enabled actions are read off its row, each is
//! stepped, and a successor the seen-set does not hold gets the next id, its
//! flags and its `(i, action)` parent there and then. Nothing in a run
//! depends on the host or on a map's iteration order, so the graph (state
//! numbering, parent pointers, successor lists, terminal set) is the same
//! at every run, and traces are BFS-shortest. Parallelism is across
//! configurations ([`crate::campaign::run_campaign`]), never inside one.
//!
//! States are canonicalized before hashing ([`PathState::canonicalize`]
//! renumbers descriptor generations), so symmetric interleavings that
//! differ only in tag history collapse in the seen-set before they are
//! ever expanded; the `dedup_hits` counter reports how many transitions
//! landed on an already-interned state.
//!
//! A state is *stored* as a row of `u32`s, not as a [`PathState`] (Spin's
//! COLLAPSE compression): a global state is the tuple of its components'
//! states, and a hundred thousand states are made of a few hundred
//! distinct boxes and queue contents. Each endpoint box, flowlink box and
//! tunnel queue is interned in a table of its own ([`Components`]) and the
//! row holds the ids, with the three per-tunnel counters packed inline.
//! Components and rows are found through one kind of open-addressed index
//! ([`OpenIndex`]). Dedup stays exact: a hash hit is confirmed by
//! comparing the values, or the rows ([`SeenSet`]), so two rows are equal
//! exactly when their states are. Ids are only ever compared for equality
//! within one run — never ordered, never exported.
//!
//! A state is *read* off its row. Each interned box carries its facts,
//! taken once when it is interned: whether its slots are closed or
//! flowing, whether it is in phase 2, and the actions it enables. A
//! tunnel's actions follow from whether its queue ids are the empty
//! queue's and from its counters, and `bothClosed` / `bothFlowing` are
//! memoised per pair of endpoint ids. So a state's actions
//! ([`Components::actions_of`]) and flags ([`Components::flags_of`]) are
//! the same per-component functions `PathState` composes, with no
//! `PathState` built.
//!
//! A transition is *stepped* on ids too. It reads one box and at most one
//! queue and appends to at most two more ([`footprint`]), so it is executed
//! once per distinct `(action, ids read)` and looked up from then on
//! ([`Components::successor`]); the successor's row is its parent's with
//! those columns replaced, and whether that row is already canonical is read
//! off a per-component [`Census`] instead of by canonicalizing. A full
//! `PathState` is rebuilt from a row only for a state one of whose steps
//! is not in the memo yet, and for the few successors that do need
//! canonicalizing ([`StateGraph::rebuilt`] counts both).

use crate::state::{
    end_actions, end_pair_flags, footprint, link_actions, tunnel_actions, Action, CheckConfig,
    EndBox, LinkBox, Part, PathState, Tagged, Tunnel,
};
use ipmedia_core::signal::Signal;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::time::{Duration, Instant};

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

/// Hash a value with [`FxHasher`]: a canonical state, one of its
/// components, or a row of component ids.
pub fn state_hash<T: Hash + ?Sized>(v: &T) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

/// An open-addressed index of the ids `0..n` by hash: the seen-set's, and
/// each component table's. A slot holds the high 32 bits of an id's hash
/// above `id + 1`, 0 being empty. Slots are probed linearly from the one
/// those bits pick, at most half of them are full, and growing re-files
/// each id by the bits its slot stores, so nothing is hashed twice. A
/// match of the bits only nominates an id: the caller compares values.
#[derive(Default)]
struct OpenIndex {
    slots: Vec<u64>,
}

impl OpenIndex {
    /// The id filed under `hash` that `is` confirms, and `false`; or else
    /// `next`, now filed under `hash`, and `true`. The index must hold the
    /// ids `0..next`.
    fn find_or_insert(
        &mut self,
        hash: u64,
        next: u32,
        mut is: impl FnMut(u32) -> bool,
    ) -> (u32, bool) {
        if 2 * (next as usize + 1) > self.slots.len() {
            self.grow();
        }
        let high = hash >> 32;
        let mask = self.slots.len() - 1;
        let mut at = high as usize & mask;
        loop {
            match self.slots[at] {
                0 => {
                    assert!(next < u32::MAX, "an index holds under 2^32 - 1 ids");
                    self.slots[at] = high << 32 | u64::from(next + 1);
                    return (next, true);
                }
                slot if slot >> 32 == high && is(slot as u32 - 1) => {
                    return (slot as u32 - 1, false)
                }
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Double the slots, 16 at first.
    fn grow(&mut self) {
        let mut slots = vec![0; (2 * self.slots.len()).max(16)];
        let mask = slots.len() - 1;
        for slot in self.slots.drain(..).filter(|&slot| slot != 0) {
            let mut at = (slot >> 32) as usize & mask;
            while slots[at] != 0 {
                at = (at + 1) & mask;
            }
            slots[at] = slot;
        }
        self.slots = slots;
    }
}

/// `0x01` in each of the sixteen bytes of a [`Census`] word.
const EACH_BYTE: u128 = u128::from_ne_bytes([1; 16]);

/// What [`PathState::canonicalize`] would read of one interned component,
/// taken once when it is interned, so that whether a row is canonical is
/// decided on its ids: the censuses of a row's components, OR-ed, are the
/// census of the state.
#[derive(Clone, Copy, Default)]
struct Census {
    /// Byte `o`: a bit per generation in use of the tag origin numbered
    /// `o`. Bit 7 of any byte says a generation past 6, a counter past 7 or
    /// an origin past the sixteenth was met: "don't know".
    gens: u128,
    /// Byte `o`: bit `c` for a tag source of that origin whose counter is `c`.
    next: u128,
}

impl Census {
    /// Bit 7 of a byte of `gens`.
    const UNKNOWN: u128 = 0x80;

    fn of(v: &mut impl Tagged, origins: &mut Vec<u64>) -> Census {
        // Bit `n` of the byte of `origin`, origins numbered as they are met.
        let mut bit = |origin: u64, n: u32, limit: u32| {
            let o = origins.iter().position(|&met| met == origin);
            let o = o.unwrap_or_else(|| {
                origins.push(origin);
                origins.len() - 1
            });
            (o < 16 && n < limit).then(|| 1u128 << (8 * o as u32 + n))
        };
        let mut census = Census::default();
        v.visit_tags(&mut |t| {
            census.gens |= bit(t.origin, t.generation, 7).unwrap_or(Self::UNKNOWN)
        });
        v.visit_sources(&mut |s| match bit(s.origin(), s.generation_counter(), 8) {
            Some(bit) => census.next |= bit,
            None => census.gens |= Self::UNKNOWN,
        });
        census
    }

    /// Whether canonicalizing the state counted here would leave it as it
    /// is: every origin's generations in use are `0..k` (a byte `b` of
    /// `gens` with `b & (b + 1) == 0`) and each of its sources stands at
    /// `k` (its bit of `next` is that `b + 1`). `false` also stands for
    /// "don't know", never `true`.
    fn canonical(self) -> bool {
        let past = self.gens.wrapping_add(EACH_BYTE);
        self.gens & (past | EACH_BYTE << 7) == 0 && self.next & !past == 0
    }
}

/// A type of component the search interns.
trait Component: Clone + Eq + Hash + Tagged {
    /// What the search reads of a value in place of rebuilding a state.
    type Facts;
    fn facts(&self) -> Self::Facts;
}

/// What the search reads of an interned box.
struct BoxFacts<const N: usize> {
    /// Its slots are closed or flowing.
    settled: bool,
    /// Its goal object is in phase 2.
    attached: bool,
    /// The actions it enables: an endpoint box's as the left end and as
    /// the right end; a flowlink box's as the one at index 0.
    actions: [Vec<Action>; N],
}

impl Component for EndBox {
    type Facts = BoxFacts<2>;

    fn facts(&self) -> BoxFacts<2> {
        BoxFacts {
            settled: self.settled(),
            attached: self.attached(),
            actions: [false, true].map(|right| {
                let mut actions = Vec::new();
                end_actions(self, right, &mut actions);
                actions
            }),
        }
    }
}

impl Component for LinkBox {
    type Facts = BoxFacts<1>;

    fn facts(&self) -> BoxFacts<1> {
        let mut actions = Vec::new();
        link_actions(self, 0, &mut actions);
        BoxFacts {
            settled: self.settled(),
            attached: self.attached(),
            actions: [actions],
        }
    }
}

/// All the search reads of a queue is whether it is empty, and that is
/// its id being [`EMPTY`].
impl Component for VecDeque<Signal> {
    type Facts = ();

    fn facts(&self) {}
}

/// An interned value and what is read of it in its place.
struct Interned<T: Component> {
    value: T,
    census: Census,
    facts: T::Facts,
}

/// Interning table for one component type: equal values get the same id,
/// different values different ids.
struct Table<T: Component> {
    values: Vec<Interned<T>>,
    index: OpenIndex,
}

impl<T: Component> Default for Table<T> {
    fn default() -> Self {
        Table {
            values: Vec::new(),
            index: OpenIndex::default(),
        }
    }
}

impl<T: Component> Table<T> {
    /// The id of `v`: a hash hit is confirmed by value. A value met for the
    /// first time has its census and its facts taken.
    fn intern(&mut self, v: &T, origins: &mut Vec<u64>) -> u32 {
        let Table { values, index } = self;
        let next = u32::try_from(values.len()).expect("under 2^32 components");
        let (id, fresh) =
            index.find_or_insert(state_hash(v), next, |id| values[id as usize].value == *v);
        if fresh {
            let mut value = v.clone();
            let census = Census::of(&mut value, origins);
            let facts = value.facts();
            values.push(Interned {
                value,
                census,
                facts,
            });
        }
        id
    }

    fn get(&self, id: u32) -> &Interned<T> {
        &self.values[id as usize]
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// The ids of a footprint's `ins`, or of its `outs`.
type Ids = [u32; 2];

/// The id of the empty queue: [`Components::new`] interns it first.
const EMPTY: u32 = 0;

/// The interning tables and memos of one exploration.
#[derive(Default)]
struct Tables {
    ends: Table<EndBox>,
    boxes: Table<LinkBox>,
    queues: Table<VecDeque<Signal>>,
    /// Tag origins in the order met; an origin's [`Census`] byte is its
    /// position here. Like the ids, the numbers never leave the run.
    origins: Vec<u64>,
    /// The local-step memo: an action's code and the ids of its footprint's
    /// `ins` → their ids after the uncanonicalized step, and the ids of
    /// the queues of what it sent to each of the `outs`. Unused places
    /// hold 0.
    steps: FxMap<(u32, Ids), (Ids, Ids)>,
    /// A queue and what was sent after it → the two end to end.
    appends: FxMap<(u32, u32), u32>,
    /// The ids of a left and a right endpoint box → their
    /// [`end_pair_flags`].
    end_pairs: FxMap<(u32, u32), (bool, bool)>,
}

impl Tables {
    /// The id of `part` of `s` (a tunnel's counters are their own id).
    fn intern(&mut self, s: &PathState, part: Part) -> u32 {
        let origins = &mut self.origins;
        match part {
            Part::Left => self.ends.intern(&s.left, origins),
            Part::Right => self.ends.intern(&s.right, origins),
            Part::Link(i) => self.boxes.intern(&s.links[i], origins),
            Part::Fwd(t) => self.queues.intern(&s.tunnels[t].fwd, origins),
            Part::Bwd(t) => self.queues.intern(&s.tunnels[t].bwd, origins),
            Part::Counters(t) => {
                let tun = &s.tunnels[t];
                u32::from_le_bytes([tun.faults_left, tun.lost_fwd, tun.lost_bwd, 0])
            }
        }
    }

    /// The id of `queue` with `sent` appended.
    fn append(&mut self, queue: u32, sent: u32) -> u32 {
        if let Some(&joined) = self.appends.get(&(queue, sent)) {
            return joined;
        }
        let [queue_then, sent_then] = [queue, sent].map(|id| &self.queues.get(id).value);
        let joined = queue_then.iter().chain(sent_then).cloned().collect();
        let joined = self.queues.intern(&joined, &mut self.origins);
        self.appends.insert((queue, sent), joined);
        joined
    }

    /// The census of the state `row` stands for, on a path of `links`
    /// flowlinks.
    fn census(&self, links: usize, row: &[u32]) -> Census {
        let (boxes, tunnels) = row.split_at(2 + links);
        let ends = boxes[..2].iter().map(|&id| self.ends.get(id).census);
        let links = boxes[2..].iter().map(|&id| self.boxes.get(id).census);
        let queues = tunnels.chunks_exact(3).flat_map(|cols| [cols[0], cols[1]]);
        let queues = queues.map(|id| self.queues.get(id).census);
        ends.chain(links)
            .chain(queues)
            .fold(Census::default(), |all, c| Census {
                gens: all.gens | c.gens,
                next: all.next | c.next,
            })
    }
}

/// The component tables of one exploration and the row layout over them:
/// `[left, right, links.., (fwd, bwd, counters) per tunnel]`.
struct Components {
    /// Flowlink boxes of the path; fixes the row width.
    links: usize,
    tables: Tables,
    /// States the search has rebuilt from rows ([`StateGraph::rebuilt`]).
    rebuilt: u64,
}

impl Components {
    fn new(links: usize) -> Self {
        let mut tables = Tables::default();
        let empty = tables.queues.intern(&VecDeque::new(), &mut tables.origins);
        assert_eq!(empty, EMPTY);
        Components {
            links,
            tables,
            rebuilt: 0,
        }
    }

    /// `u32`s in a row.
    fn width(&self) -> usize {
        2 + self.links + 3 * (self.links + 1)
    }

    /// The parts of a state, in row order.
    fn parts(&self) -> impl Iterator<Item = Part> {
        let tunnels =
            (0..=self.links).flat_map(|t| [Part::Fwd(t), Part::Bwd(t), Part::Counters(t)]);
        [Part::Left, Part::Right]
            .into_iter()
            .chain((0..self.links).map(Part::Link))
            .chain(tunnels)
    }

    /// The column of a row that holds `part`.
    fn col(&self, part: Part) -> usize {
        let tunnel = |t: usize| 2 + self.links + 3 * t;
        match part {
            Part::Left => 0,
            Part::Right => 1,
            Part::Link(i) => 2 + i,
            Part::Fwd(t) => tunnel(t),
            Part::Bwd(t) => tunnel(t) + 1,
            Part::Counters(t) => tunnel(t) + 2,
        }
    }

    /// The row of `s`.
    fn pack(&mut self, s: &PathState) -> Vec<u32> {
        assert!(
            s.links.len() == self.links && s.tunnels.len() == self.links + 1,
            "a state with {} flowlink(s) in a seen-set built for {}",
            s.links.len(),
            self.links
        );
        self.parts()
            .map(|part| self.tables.intern(s, part))
            .collect()
    }

    /// Rebuild into `out` the state `row` was packed from, reusing `out`'s
    /// buffers.
    fn unpack_into(&self, row: &[u32], out: &mut PathState) {
        let (ends, rest) = row.split_at(2);
        let (links, tunnels) = rest.split_at(self.links);
        let tables = &self.tables;
        out.left.clone_from(&tables.ends.get(ends[0]).value);
        out.right.clone_from(&tables.ends.get(ends[1]).value);
        out.links.clear();
        out.links
            .extend(links.iter().map(|&id| tables.boxes.get(id).value.clone()));
        out.tunnels.resize_with(self.links + 1, Tunnel::default);
        for (tun, cols) in out.tunnels.iter_mut().zip(tunnels.chunks_exact(3)) {
            tun.fwd.clone_from(&tables.queues.get(cols[0]).value);
            tun.bwd.clone_from(&tables.queues.get(cols[1]).value);
            [tun.faults_left, tun.lost_fwd, tun.lost_bwd, _] = cols[2].to_le_bytes();
        }
    }

    /// The state `row` was packed from.
    fn unpack(&self, row: &[u32]) -> PathState {
        // Any endpoint box will do to have a state to rebuild into.
        let end = self.tables.ends.get(row[0]).value.clone();
        let mut s = PathState {
            left: end.clone(),
            links: Vec::new(),
            right: end,
            tunnels: Vec::new(),
        };
        self.unpack_into(row, &mut s);
        s
    }

    /// Put into `out` the actions the state `row` stands for enables, in
    /// [`PathState::actions`]' order: a tunnel's from whether its queues
    /// are [`EMPTY`] and from its counters, a box's from its facts.
    fn actions_of(&self, row: &[u32], out: &mut Vec<Action>) {
        out.clear();
        let (ends, rest) = row.split_at(2);
        let (links, tunnels) = rest.split_at(self.links);
        for (t, cols) in tunnels.chunks_exact(3).enumerate() {
            let [faults_left, lost_fwd, lost_bwd, _] = cols[2].to_le_bytes();
            let waiting = [cols[0] != EMPTY, cols[1] != EMPTY];
            tunnel_actions(t, waiting, [faults_left, lost_fwd, lost_bwd], out);
        }
        let tables = &self.tables;
        for (right, &id) in ends.iter().enumerate() {
            out.extend_from_slice(&tables.ends.get(id).facts.actions[right]);
        }
        for (idx, &id) in links.iter().enumerate() {
            let [at_0] = &tables.boxes.get(id).facts.actions;
            out.extend(at_0.iter().map(|a| a.at_link(idx)));
        }
    }

    /// The flags of the state `row` stands for: `bothClosed` and
    /// `bothFlowing` from the memo of its pair of endpoint boxes, the rest
    /// from its boxes' facts and its queue ids.
    fn flags_of(&mut self, row: &[u32]) -> StateFlags {
        let (ends, rest) = row.split_at(2);
        let (links, tunnels) = rest.split_at(self.links);
        let tables = &mut self.tables;
        let [left, right] = [ends[0], ends[1]].map(|id| tables.ends.get(id));
        let (both_closed, both_flowing) = *tables
            .end_pairs
            .entry((ends[0], ends[1]))
            .or_insert_with(|| end_pair_flags(&left.value, &right.value));
        let links = || links.iter().map(|&id| &tables.boxes.get(id).facts);
        StateFlags {
            both_closed,
            both_flowing,
            clean: left.facts.settled
                && right.facts.settled
                && links().all(|f| f.settled)
                && tunnels
                    .chunks_exact(3)
                    .all(|cols| cols[0] == EMPTY && cols[1] == EMPTY),
            fully_attached: left.facts.attached
                && right.facts.attached
                && links().all(|f| f.attached),
        }
    }

    /// The state under expansion, out of `exp`: rebuilt there from `own`,
    /// its row, unless it already is.
    fn rebuild<'e>(
        &mut self,
        cfg: &CheckConfig,
        own: &[u32],
        exp: &'e mut Expanding,
    ) -> &'e PathState {
        if !exp.rebuilt {
            self.unpack_into(own, &mut exp.state);
            exp.rebuilt = true;
            self.rebuilt += 1;
            debug_assert_eq!(
                exp.state.actions(cfg),
                {
                    let mut actions = Vec::new();
                    self.actions_of(own, &mut actions);
                    actions
                },
                "a row's actions are not its state's"
            );
        }
        &exp.state
    }

    /// Put into `row` the row of `state.apply(cfg, action)`, given `own`,
    /// the row of `state`: `own` with the columns of the action's footprint
    /// replaced. The step itself is taken once per distinct `(action,
    /// ins)` — in `scratch`, uncanonicalized, and with the `outs` emptied
    /// first, so that what they hold afterwards is what the step sent — and
    /// looked up from then on; `state` is rebuilt from `own` into `exp` for
    /// the first step of it taken. Only a row that cannot be shown canonical
    /// on its ids is rebuilt as a state, to be canonicalized and packed
    /// again; returns `false` for such a row.
    fn successor(
        &mut self,
        cfg: &CheckConfig,
        (own, exp): (&[u32], &mut Expanding),
        action: Action,
        scratch: &mut PathState,
        row: &mut Vec<u32>,
    ) -> bool {
        row.clear();
        row.extend_from_slice(own);
        let (ins, outs) = footprint(self.links, action);
        let ids = ins.map(|p| p.map_or(0, |p| row[self.col(p)]));
        let key = (action.code(), ids);
        let (after, sent) = if let Some(&known) = self.tables.steps.get(&key) {
            known
        } else {
            scratch.clone_from(self.rebuild(cfg, own, exp));
            for out in outs.into_iter().flatten() {
                scratch.queue_mut(out).clear();
            }
            scratch.step(cfg, action);
            let taken = (
                ins.map(|p| p.map_or(0, |p| self.tables.intern(scratch, p))),
                outs.map(|p| p.map_or(EMPTY, |p| self.tables.intern(scratch, p))),
            );
            self.tables.steps.insert(key, taken);
            taken
        };
        for (part, id) in ins.into_iter().flatten().zip(after) {
            row[self.col(part)] = id;
        }
        for (part, sent) in outs.into_iter().flatten().zip(sent) {
            if sent != EMPTY {
                let col = self.col(part);
                row[col] = self.tables.append(row[col], sent);
            }
        }
        let canonical = self.tables.census(self.links, row).canonical();
        if !canonical {
            self.unpack_into(row, scratch);
            self.rebuilt += 1;
            scratch.canonicalize();
            *row = self.pack(scratch);
        }
        if cfg!(debug_assertions) {
            let long_way = self.rebuild(cfg, own, exp).apply(cfg, action);
            assert_eq!(
                *row,
                self.pack(&long_way),
                "local step != apply on {action:?}"
            );
        }
        canonical
    }
}

/// The state under expansion as a [`PathState`], once it has had to be
/// rebuilt from its row.
struct Expanding {
    state: PathState,
    /// `state` is the state under expansion.
    rebuilt: bool,
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
        let (both_closed, both_flowing) = end_pair_flags(&s.left, &s.right);
        StateFlags {
            both_closed,
            both_flowing,
            clean: s.clean(),
            fully_attached: s.fully_attached(),
        }
    }
}

/// Exploration bounds.
#[derive(Debug, Clone, Copy)]
pub struct ExploreOptions {
    /// Cap on *distinct states expanded* (successor computation). When the
    /// cap is hit with states left to expand, the graph is marked
    /// [`StateGraph::truncated`]; already-discovered but unexpanded states
    /// stay in the graph with empty successor lists and are not terminals.
    pub max_states: usize,
}

impl ExploreOptions {
    /// Exploration with the given state cap.
    pub fn sequential(max_states: usize) -> Self {
        ExploreOptions { max_states }
    }

    // `benchmark/` names it; ROADMAP item 6 deletes it with its one call.
    #[doc(hidden)]
    pub fn parallel(max_states: usize, _threads: usize) -> Self {
        Self::sequential(max_states)
    }
}

impl Default for ExploreOptions {
    fn default() -> Self {
        Self::sequential(5_000_000)
    }
}

/// The explored transition system.
pub struct StateGraph {
    /// State `i`'s successors are `succ_to[succ_start[i]..succ_start[i +
    /// 1]]` ([`StateGraph::succ`]).
    pub(crate) succ_start: Vec<u32>,
    pub(crate) succ_to: Vec<u32>,
    pub flags: Vec<StateFlags>,
    /// For each state after the initial one, state 0, the transition that
    /// discovered it as `(state, Action::code)` ([`StateGraph::parent`]).
    pub(crate) parent: Vec<(u32, u32)>,
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
    /// Distinct local steps: transitions whose `(action, ids of the
    /// components it reads)` no earlier transition had, and which were
    /// therefore executed; the rest were looked up.
    pub local_steps: u64,
    /// Successors whose row could not be shown canonical on its ids and
    /// was rebuilt as a state, canonicalized and packed again.
    pub canonicalized: u64,
    /// Full `PathState`s built from rows: a state under expansion one of
    /// whose steps was not in the local-step memo, and each canonicalized
    /// successor. A debug build rebuilds every state it expands, to check
    /// it, so counts more.
    pub rebuilt: u64,
}

impl StateGraph {
    pub fn states(&self) -> usize {
        self.flags.len()
    }

    /// The successors of state `i`, in the order of its actions.
    pub fn succ(&self, i: u32) -> &[u32] {
        let i = i as usize;
        &self.succ_to[self.succ_start[i] as usize..self.succ_start[i + 1] as usize]
    }

    /// The BFS predecessor of state `i` for counterexample
    /// reconstruction: the state and action that discovered it, so traces
    /// are BFS-shortest. `None` for the initial state.
    pub fn parent(&self, i: u32) -> Option<(u32, Action)> {
        let (state, code) = self.parent[(i as usize).checked_sub(1)?];
        Some((state, Action::from_code(code)))
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
        while let Some((p, a)) = self.parent(idx) {
            rev.push(a);
            idx = p;
        }
        rev.reverse();
        rev
    }
}

/// Explore the reachable state space of `cfg`, expanding at most
/// `max_states` distinct states.
pub fn explore(cfg: &CheckConfig, max_states: usize) -> StateGraph {
    explore_with(cfg, &ExploreOptions::sequential(max_states))
}

/// Explore the reachable state space of `cfg` under `opts`.
pub fn explore_with(cfg: &CheckConfig, opts: &ExploreOptions) -> StateGraph {
    let start = Instant::now();
    // The two full states the search may hold: the one under expansion,
    // once one of its steps has to be taken, and a scratch one for that
    // step and for the few successors that have to be canonicalized.
    let initial = PathState::initial(cfg);
    let mut next = initial.clone();
    let mut exp = Expanding {
        state: initial.clone(),
        rebuilt: false,
    };
    let mut seen = SeenSet::new();
    seen.insert(initial);
    let w = seen.components.width();
    let (mut row, mut actions) = (Vec::with_capacity(w), Vec::new());
    let offset = |n: usize| u32::try_from(n).expect("under 2^32 transitions");

    let mut flags = vec![seen.components.flags_of(&seen.rows)];
    let mut parent = Vec::new();
    let (mut succ_start, mut succ_to) = (Vec::new(), Vec::new());
    let mut terminals = Vec::new();
    let (mut dedup_hits, mut canonicalized) = (0u64, 0u64);
    // States are numbered as they are discovered, so the queue is the ids
    // from `expanded` up.
    let mut expanded = 0usize;
    while expanded < flags.len() && expanded < opts.max_states {
        let i = expanded;
        let own = &seen.rows[i * w..][..w];
        seen.components.actions_of(own, &mut actions);
        if actions.is_empty() {
            terminals.push(i as u32);
        }
        succ_start.push(offset(succ_to.len()));
        exp.rebuilt = false;
        if cfg!(debug_assertions) {
            // Every state, so that each is checked against its row and
            // every step can also be taken the long way (`successor`).
            seen.components.rebuild(cfg, own, &mut exp);
        }
        for &action in &actions {
            let own = &seen.rows[i * w..][..w];
            let canonical =
                seen.components
                    .successor(cfg, (own, &mut exp), action, &mut next, &mut row);
            canonicalized += u64::from(!canonical);
            let (id, fresh) = seen.insert_row(state_hash(&row[..]), &row);
            if fresh {
                flags.push(seen.components.flags_of(&row));
                parent.push((i as u32, action.code()));
            } else {
                dedup_hits += 1;
            }
            succ_to.push(id);
        }
        expanded += 1;
    }
    succ_start.resize(flags.len() + 1, offset(succ_to.len()));

    StateGraph {
        truncated: expanded < flags.len(),
        transitions: succ_to.len(),
        succ_start,
        succ_to,
        flags,
        parent,
        terminals,
        elapsed: start.elapsed(),
        expanded,
        dedup_hits,
        local_steps: seen.components.tables.steps.len() as u64,
        canonicalized,
        rebuilt: seen.components.rebuilt,
    }
}

/// A deduplicating interner over canonical [`PathState`]s, kept as rows of
/// [`Components`] ids and resolved by an [`OpenIndex`] of row hashes, then
/// row comparison: the exploration's seen-set, and "have I been here
/// before" for replay loops and tests without a full exploration. One set
/// holds states of one path shape: the first insert fixes the flowlink
/// count, and a state with another is a panic.
pub struct SeenSet {
    /// Rebuilt for the path shape of the first state inserted.
    components: Components,
    index: OpenIndex,
    /// Interned rows, back to back.
    rows: Vec<u32>,
}

impl Default for SeenSet {
    fn default() -> Self {
        Self::new()
    }
}

impl SeenSet {
    pub fn new() -> Self {
        SeenSet {
            components: Components::new(0),
            index: OpenIndex::default(),
            rows: Vec::new(),
        }
    }

    /// Intern a state: returns `(index, fresh)` where `fresh` is false if
    /// an equal state was already present.
    pub fn insert(&mut self, s: PathState) -> (u32, bool) {
        if self.rows.is_empty() {
            self.components = Components::new(s.links.len());
        }
        let row = self.components.pack(&s);
        self.insert_row(state_hash(&row[..]), &row)
    }

    /// Intern a row under `hash`; equality is decided on the row alone.
    fn insert_row(&mut self, hash: u64, row: &[u32]) -> (u32, bool) {
        let SeenSet { index, rows, .. } = self;
        let w = row.len();
        let next = u32::try_from(rows.len() / w).expect("under 2^32 states");
        let (id, fresh) =
            index.find_or_insert(hash, next, |id| rows[id as usize * w..][..w] == *row);
        if fresh {
            rows.extend_from_slice(row);
        }
        (id, fresh)
    }

    pub fn len(&self) -> usize {
        self.rows.len() / self.components.width()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The interned state at `idx`, rebuilt from its row.
    pub fn get(&self, idx: u32) -> PathState {
        let w = self.components.width();
        self.components.unpack(&self.rows[idx as usize * w..][..w])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipmedia_core::path::{EndGoal, PathType};
    use proptest::prelude::*;

    /// A seeded walk from the initial state: `shape` picks the path type,
    /// 0–2 flowlinks and whether the tunnels may fault, `picks` the action
    /// taken at each step.
    fn walk(shape: u8, picks: &[u8]) -> (CheckConfig, Vec<PathState>) {
        let shape = usize::from(shape);
        let (left, right) = PathType::all()[shape % 6].ends();
        let cfg =
            crate::budgeted(shape / 6 % 3, left, right, 0).with_faults((shape / 18 % 2) as u8);
        let mut states = vec![PathState::initial(&cfg)];
        for &pick in picks {
            let here = states.last().expect("starts at the initial state");
            let actions = here.actions(&cfg);
            if actions.is_empty() {
                break;
            }
            states.push(here.apply(&cfg, actions[usize::from(pick) % actions.len()]));
        }
        (cfg, states)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn a_row_rebuilds_its_state(
            shape in any::<u8>(),
            picks in proptest::collection::vec(any::<u8>(), 1..48),
        ) {
            let (cfg, states) = walk(shape, &picks);
            let mut components = Components::new(cfg.links);
            // One scratch state throughout, as the search has: whatever the
            // previous row left in its buffers must not show.
            let mut rebuilt = PathState::initial(&cfg);
            for s in &states {
                let row = components.pack(s);
                prop_assert_eq!(row.len(), components.width());
                components.unpack_into(&row, &mut rebuilt);
                prop_assert_eq!(&rebuilt, s);
                prop_assert_eq!(&components.unpack(&row), s);
            }
        }

        // The local-step memo's three premises, over every enabled action
        // of every state on the walk.

        #[test]
        fn a_step_stays_inside_its_footprint(
            shape in any::<u8>(),
            picks in proptest::collection::vec(any::<u8>(), 1..32),
        ) {
            let (cfg, states) = walk(shape, &picks);
            let mut components = Components::new(cfg.links);
            let queue = |s: &PathState, part: Part| s.clone().queue_mut(part).clone();
            for s in &states {
                for action in s.actions(&cfg) {
                    let (ins, outs) = footprint(cfg.links, action);
                    let mut stepped = s.clone();
                    stepped.step(&cfg, action);
                    // The same step with nothing in the queues it sends to.
                    let mut emptied = s.clone();
                    for out in outs.into_iter().flatten() {
                        emptied.queue_mut(out).clear();
                    }
                    emptied.step(&cfg, action);
                    for part in components.parts() {
                        let mut id = |s: &PathState| components.tables.intern(s, part);
                        if outs.contains(&Some(part)) {
                            // Appended to, by the same signals whatever it held.
                            let mut sent = queue(&stepped, part);
                            let before = queue(s, part);
                            prop_assert!(sent.len() >= before.len(), "{:?} popped {:?}", action, part);
                            let kept: VecDeque<Signal> = sent.drain(..before.len()).collect();
                            prop_assert_eq!(&kept, &before, "{:?} rewrote {:?}", action, part);
                            prop_assert_eq!(&sent, &queue(&emptied, part), "{:?} read {:?}", action, part);
                        } else if ins.contains(&Some(part)) {
                            prop_assert_eq!(id(&stepped), id(&emptied), "{:?} read its outs", action);
                        } else {
                            prop_assert_eq!(id(&stepped), id(s), "{:?} wrote {:?}", action, part);
                        }
                    }
                }
            }
        }

        #[test]
        fn a_looked_up_step_is_the_step(
            shape in any::<u8>(),
            picks in proptest::collection::vec(any::<u8>(), 1..32),
        ) {
            let (cfg, states) = walk(shape, &picks);
            let mut components = Components::new(cfg.links);
            let (mut scratch, mut row) = (PathState::initial(&cfg), Vec::new());
            // Rebuilt from each row into what the previous one left, as
            // the search does.
            let mut exp = Expanding { state: PathState::initial(&cfg), rebuilt: false };
            for s in &states {
                let own = components.pack(s);
                exp.rebuilt = false;
                for action in s.actions(&cfg) {
                    let want = components.pack(&s.apply(&cfg, action));
                    // Cold — unless an earlier state took the same local
                    // step — and then certainly warm.
                    for _ in 0..2 {
                        components.successor(&cfg, (&own, &mut exp), action, &mut scratch, &mut row);
                        prop_assert_eq!(&row, &want, "{:?}", action);
                    }
                }
            }
        }

        #[test]
        fn a_row_reads_as_its_state(
            shape in any::<u8>(),
            picks in proptest::collection::vec(any::<u8>(), 1..48),
        ) {
            let (cfg, states) = walk(shape, &picks);
            let mut components = Components::new(cfg.links);
            // One buffer throughout, as the search has.
            let mut actions = vec![Action::LinkAttach { idx: 7 }];
            for s in &states {
                let row = components.pack(s);
                components.actions_of(&row, &mut actions);
                prop_assert_eq!(&actions, &s.actions(&cfg));
                prop_assert_eq!(components.flags_of(&row), StateFlags::of(s));
                for &a in &actions {
                    prop_assert_eq!(Action::from_code(a.code()), a);
                }
            }
        }

        #[test]
        fn a_census_that_says_canonical_is_right(
            shape in any::<u8>(),
            picks in proptest::collection::vec(any::<u8>(), 1..32),
        ) {
            let (cfg, states) = walk(shape, &picks);
            let mut components = Components::new(cfg.links);
            for s in &states {
                // The states canonicalization is asked about: a canonical
                // one after one more step.
                for action in s.actions(&cfg) {
                    let mut raw = s.clone();
                    raw.step(&cfg, action);
                    let row = components.pack(&raw);
                    let census = components.tables.census(cfg.links, &row);
                    let mut canonical = raw.clone();
                    canonical.canonicalize();
                    if census.canonical() {
                        prop_assert_eq!(&canonical, &raw, "{:?}", action);
                    } else if census.gens & EACH_BYTE << 7 == 0 {
                        // Nothing was out of range: it knows, and said no.
                        prop_assert_ne!(&canonical, &raw, "{:?}", action);
                    }
                }
            }
        }

        #[test]
        fn seen_set_gives_an_equal_state_its_first_id(
            shape in any::<u8>(),
            picks in proptest::collection::vec(any::<u8>(), 1..48),
        ) {
            let (_, states) = walk(shape, &picks);
            let mut seen = SeenSet::new();
            let mut first: HashMap<&PathState, u32> = HashMap::new();
            for s in &states {
                let (id, fresh) = seen.insert(s.clone());
                let known = first.len() as u32;
                let want = *first.entry(s).or_insert(known);
                prop_assert_eq!((id, fresh), (want, want == known));
                prop_assert_eq!(seen.insert(s.clone()), (want, false));
                prop_assert_eq!(&seen.get(id), s);
            }
            prop_assert_eq!(seen.len(), first.len());
        }
    }

    #[test]
    fn a_census_out_of_range_says_dont_know_and_reaches_the_same_rows() {
        use ipmedia_core::retag::Retag;
        let cfg = CheckConfig::standard(0, EndGoal::Open, EndGoal::Hold);
        let attached = PathState::initial(&cfg).apply(&cfg, Action::EndAttach { right: false });
        let open = attached.tunnels[0].fwd[0].clone();
        // The open in flight once per tag: an eighth live generation of its
        // origin, then a seventeenth origin.
        type Tag = fn(u32) -> (u64, u32);
        let cases: [(u32, Tag); 2] = [(8, |i| (101, i)), (17, |i| (1000 + u64::from(i), 0))];
        for (copies, tag) in cases {
            let mut s = attached.clone();
            s.tunnels[0].fwd = (0..copies)
                .map(|i| {
                    let mut sig = open.clone();
                    sig.visit_tags(&mut |t| (t.origin, t.generation) = tag(i));
                    sig
                })
                .collect();
            s.canonicalize();
            let mut components = Components::new(cfg.links);
            let own = components.pack(&s);
            // Canonical it is, but its census cannot tell.
            assert!(!components.tables.census(cfg.links, &own).canonical());
            let (mut scratch, mut row) = (s.clone(), Vec::new());
            let mut exp = Expanding {
                state: s.clone(),
                rebuilt: true,
            };
            for action in s.actions(&cfg) {
                let known =
                    components.successor(&cfg, (&own, &mut exp), action, &mut scratch, &mut row);
                assert!(!known, "{copies} copies, {action:?}");
                assert_eq!(row, components.pack(&s.apply(&cfg, action)), "{action:?}");
            }
        }
    }

    #[test]
    fn rows_sharing_a_hash_stay_two_states() {
        // Equality is decided on the rows, whatever the hash says: force
        // two states' rows into one bucket.
        let cfg = CheckConfig::standard(0, EndGoal::Open, EndGoal::Hold);
        let s0 = PathState::initial(&cfg);
        let s1 = s0.apply(&cfg, Action::EndAttach { right: false });
        let mut components = Components::new(cfg.links);
        let (r0, r1) = (components.pack(&s0), components.pack(&s1));
        assert_ne!(r0, r1);
        let mut seen = SeenSet {
            components,
            ..SeenSet::new()
        };
        assert_eq!(seen.insert_row(7, &r0), (0, true));
        assert_eq!(seen.insert_row(7, &r1), (1, true));
        assert_eq!(seen.insert_row(7, &r0), (0, false));
        assert_eq!(seen.insert_row(7, &r1), (1, false));
        assert_eq!(seen.len(), 2);
        assert_eq!((seen.get(0), seen.get(1)), (s0, s1));
    }

    #[test]
    #[should_panic(expected = "a state with 1 flowlink(s) in a seen-set built for 0")]
    fn seen_set_refuses_a_state_of_another_shape() {
        let mut seen = SeenSet::new();
        let direct = CheckConfig::standard(0, EndGoal::Open, EndGoal::Hold);
        let linked = CheckConfig::standard(1, EndGoal::Open, EndGoal::Hold);
        seen.insert(PathState::initial(&direct));
        seen.insert(PathState::initial(&linked));
    }

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
        assert_eq!(seen.get(i0), s0);
    }
}
