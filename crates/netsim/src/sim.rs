//! The deterministic discrete-event network simulator.
//!
//! Boxes are [`ProgramBox`]es; signaling channels are FIFO, reliable, and
//! delay each message by the network latency *n*; each box takes the
//! compute cost *c* to read a stimulus and compute the next signals to
//! send, and processes stimuli serially (paper §VIII-C). All scheduling is
//! deterministic: events are ordered by time, and by push order within
//! one time ([`EventQueue`]).

use crate::fault::{FaultPlan, FaultState, SendFate};
use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};
use ipmedia_core::boxes::GoalSpec;
use ipmedia_core::goal::UserCmd;
use ipmedia_core::host::{Arrival, Buffers, Effect, Input, NodeHost, Outcome};
use ipmedia_core::ids::{BoxId, ChannelId, SlotId, SlotRange};
use ipmedia_core::link::{jitter_seed, Command, Event, Link, LinkState, ReconnectPolicy};
use ipmedia_core::program::{AppLogic, BoxCmd, BoxInput, ProgramBox};
use ipmedia_core::reliable;
use ipmedia_core::signal::{ChannelMsg, Signal};
use ipmedia_core::{prefetch, MediaBox};
use ipmedia_obs::clock::ManualClock;
use ipmedia_obs::ladder::{render, LadderEvent};
use ipmedia_obs::trace::{SpanCtx, SpanSink, Tracer};
use ipmedia_obs::{Fanout, NoopObserver, Observer};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

/// Timing parameters of the simulated deployment.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Average time for the network to accept a signal and deliver it to
    /// its destination box (*n*; the paper measured 34 ms on a typical
    /// carrier network with multiple geographic sites).
    pub net_latency: SimDuration,
    /// Average time for a box to read a stimulus from its input queue and
    /// compute the next signal to send (*c*; typical value 20 ms).
    pub compute_cost: SimDuration,
}

impl SimConfig {
    /// The paper's calibration: n = 34 ms, c = 20 ms (§VIII-C).
    pub fn paper() -> Self {
        Self {
            net_latency: SimDuration::from_millis(34),
            compute_cost: SimDuration::from_millis(20),
        }
    }

    /// Zero-cost timing: useful for functional tests where only message
    /// ordering matters.
    pub fn instant() -> Self {
        Self {
            net_latency: SimDuration::ZERO,
            compute_cost: SimDuration::ZERO,
        }
    }
}

enum Ev {
    /// Deliver an input to a box's host (and let it process it). `from`
    /// is the box whose output caused the input, when there is one — it
    /// feeds the trace's source column and ladder arrows. A message left
    /// on connection `gen` of its channel (0 until the channel's pair
    /// loses one, [`Network::schedule_disconnect`]); it is dropped on
    /// arrival if that connection has died since.
    Input {
        to: BoxId,
        input: Input,
        from: Option<BoxId>,
        gen: u32,
    },
    /// The connection under a channel breaks, as a TCP reset breaks it:
    /// both ends hear of it at once.
    Disconnect { ch: ChannelId },
    /// The lifecycle of the connection `a` dialed to `b` makes an attempt.
    Attempt { a: BoxId, b: BoxId, gen: u32 },
    /// An attempt's outcome reaches `a`, a round trip after it was made:
    /// it landed iff `b` still holds connection `gen`.
    Dialed { a: BoxId, b: BoxId, gen: u32 },
    /// The box goes down: inputs and timer fires addressed to it are lost
    /// until the matching `Restart`. Protocol state survives (a transient
    /// outage, not a state wipe).
    Crash { to: BoxId },
    /// The box comes back up; its reliability layer (if any) re-arms.
    Restart { to: BoxId },
    /// A (possibly asymmetric) partition between two boxes comes into
    /// force: blocked directions silently swallow signals and meta
    /// traffic until the matching `HealPair`.
    Partition {
        a: BoxId,
        b: BoxId,
        block_ab: bool,
        block_ba: bool,
    },
    /// Remove any partition between two boxes.
    HealPair { a: BoxId, b: BoxId },
    /// A bursty fault window opens on a channel: for its duration the
    /// burst plan overrides the channel's baseline fault plan.
    BurstStart {
        ch: ChannelId,
        plan: FaultPlan,
        until: SimTime,
    },
}

struct Scheduled {
    ev: Ev,
    /// Causal trace context the event carries (tracing enabled only;
    /// boxed, so an untraced event does not pay for its width). The queue
    /// orders by time and push order and never looks inside what it
    /// holds, so enabling tracing cannot change the event schedule — the
    /// zero-perturbation guarantee.
    ctx: Option<Box<SpanCtx>>,
}

/// A box as the network runs it; its name is only the key of `names`.
struct Node {
    host: NodeHost,
    /// The box processes stimuli serially; this is when it frees up.
    busy_until: SimTime,
    available: bool,
    terminated: bool,
    /// Crashed (between `Ev::Crash` and `Ev::Restart`): all deliveries
    /// and timer fires are lost.
    down: bool,
}

/// How many events ahead a step fetches the `Node` of the box an input is
/// for, and how many ahead it fetches the heap blocks that `Node` points
/// to. Two stages, because a box's heap blocks can only be named once its
/// `Node` is in cache: the ring in between holds the 8 box ids fetched on
/// the way. A storm step finds the box it is for gone cold (DESIGN §3.1).
/// The sweep on `sim_storm`: without the queue's own slot prefetch, 8/4
/// read ×0.93 of 16/8's ops/s and 24/12 level with it; with it, 8/4 and
/// 24/12 both read level with 16/8.
const NODE_AHEAD: usize = 16;
const HEAP_AHEAD: usize = 8;
const RING: usize = NODE_AHEAD - HEAP_AHEAD;

/// The two ends of a channel. `b` is `None` for the half-open channel a
/// failed dial leaves behind: whatever `a` sends on it goes nowhere.
struct Channel {
    a: BoxId,
    b: Option<BoxId>,
}

impl Channel {
    fn peer_of(&self, from: BoxId) -> Option<BoxId> {
        if self.a == from {
            self.b
        } else {
            Some(self.a)
        }
    }
}

/// The connection one box dialed to another, once it has lost one (see
/// [`Network::schedule_disconnect`]).
struct Pair {
    /// The dialer's lifecycle of it.
    link: Link,
    /// The connection the target holds: the generation of the attempt
    /// that reached it last, or `None` while its end is down.
    held: Option<u32>,
    /// First dials that wait for the re-dial, in dial order:
    /// [`Network::open_channel`]'s arguments save the dialer and the
    /// instant.
    dials: Vec<(String, u16, u32, Option<SpanCtx>)>,
}

/// A live burst window: overrides the channel's baseline fault plan
/// until `until` (inclusive), then expires on its own.
struct BurstState {
    fs: FaultState,
    until: SimTime,
}

/// Where a box sits in the node table: ids are dealt densely from zero.
fn ix(id: BoxId) -> usize {
    id.0 as usize
}

/// Normalize an unordered box pair to a canonical map key.
fn pair_key(a: BoxId, b: BoxId) -> (BoxId, BoxId) {
    if a.0 <= b.0 {
        (a, b)
    } else {
        (b, a)
    }
}

/// One recorded delivery, for debugging and figure generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    pub at: SimTime,
    /// The box whose output caused this delivery, when there is one;
    /// `None` for externally injected inputs (start, user commands,
    /// harness closures).
    pub from: Option<BoxId>,
    pub to: BoxId,
    pub what: String,
}

/// The simulated network of boxes and signaling channels.
pub struct Network {
    cfg: SimConfig,
    /// Indexed by `BoxId`; boxes are never removed.
    nodes: Vec<Node>,
    names: HashMap<String, BoxId>,
    /// Indexed by `ChannelId`; `None` once the channel is closed.
    channels: Vec<Option<Channel>>,
    /// Per-channel fault injection; channels absent here are perfect.
    faults: HashMap<ChannelId, FaultState>,
    /// Active partitions, keyed by normalized box pair; flags block the
    /// low→high and high→low directions respectively. A partition gates
    /// every channel between the pair, present and future.
    partitions: HashMap<(BoxId, BoxId), (bool, bool)>,
    /// Active burst windows per channel; consulted before `faults`.
    bursts: HashMap<ChannelId, BurstState>,
    /// The connections that lost one, by (initiator, target) pair (see
    /// [`Network::schedule_disconnect`]). A pair that never did has none,
    /// and while none has, a message pays one emptiness test for it.
    links: HashMap<(BoxId, BoxId), Pair>,
    events: EventQueue<Scheduled>,
    /// The boxes whose `Node` the last `RING` steps fetched, oldest at
    /// `fetched_at` (see [`NODE_AHEAD`]).
    fetched: [Option<BoxId>; RING],
    fetched_at: usize,
    /// Lent to every host call and drained right after; reused so a
    /// stimulus costs no allocation for them.
    buffers: Buffers,
    now: SimTime,
    pub trace_enabled: bool,
    trace: Vec<TraceEntry>,
    /// Unified observability sink; every protocol event in the simulation
    /// flows through it (the trace above is a thin adapter kept for
    /// figure generation and golden tests).
    obs: Box<dyn Observer + Send>,
    /// Virtual-time clock kept in sync with `now`, so observers that
    /// timestamp (e.g. `RecordingObserver`) see simulation time.
    clock: Arc<ManualClock>,
    /// Causal tracer, when [`Network::enable_tracing`] was called. All
    /// per-event tracing work is gated on this being `Some`; with it
    /// `None` the simulation takes exactly the untraced code path.
    tracer: Option<Tracer>,
}

impl Network {
    pub fn new(cfg: SimConfig) -> Self {
        Self {
            cfg,
            nodes: Vec::new(),
            names: HashMap::new(),
            channels: Vec::new(),
            faults: HashMap::new(),
            partitions: HashMap::new(),
            bursts: HashMap::new(),
            links: HashMap::new(),
            events: EventQueue::default(),
            fetched: [None; RING],
            fetched_at: 0,
            buffers: Buffers::default(),
            now: SimTime::ZERO,
            trace_enabled: false,
            trace: Vec::new(),
            obs: Box::new(NoopObserver),
            clock: Arc::new(ManualClock::new()),
            tracer: None,
        }
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn trace(&self) -> &[TraceEntry] {
        &self.trace
    }

    /// Install an observer; all subsequent simulation activity is reported
    /// to it. The previous observer is returned (a `NoopObserver` box if
    /// none was set).
    pub fn set_observer(&mut self, obs: Box<dyn Observer + Send>) -> Box<dyn Observer + Send> {
        std::mem::replace(&mut self.obs, obs)
    }

    /// The simulation's virtual-time clock (microseconds = `SimTime`).
    /// Hand it to observers that timestamp events.
    pub fn clock(&self) -> Arc<ManualClock> {
        self.clock.clone()
    }

    /// Enable causal tracing into `sink`: every delivery records a
    /// `"transit"` span, every box activation a `"stimulus"` span, and
    /// the trace context rides on scheduled events so per-call causality
    /// survives arbitrary interleaving. Box-layer protocol callbacks
    /// (slot transitions, races, faults, recoveries) become child spans
    /// via a [`ipmedia_obs::TracingObserver`] fanned into the current
    /// observer. Tracing is strictly passive: it changes no event
    /// ordering, no virtual-time arithmetic, and no box behavior.
    pub fn enable_tracing(&mut self, sink: Arc<SpanSink>) -> Tracer {
        let tracer = Tracer::new(sink, self.clock.clone());
        let prev = std::mem::replace(&mut self.obs, Box::new(NoopObserver));
        self.obs = Box::new(Fanout(tracer.observer(), prev));
        self.tracer = Some(tracer.clone());
        tracer
    }

    /// Render the recorded trace as a Fig.-10-style ASCII ladder, one
    /// column per box. Requires `trace_enabled` to have been set before
    /// the events of interest.
    pub fn ladder(&self) -> String {
        // A box's name is only the key of `names`: invert the map.
        let mut columns = vec![""; self.nodes.len()];
        for (name, id) in &self.names {
            columns[ix(*id)] = name;
        }
        let events: Vec<LadderEvent> = self
            .trace
            .iter()
            .map(|t| match t.from {
                Some(f) => LadderEvent::arrow(t.at.0, ix(f), ix(t.to), t.what.clone()),
                None => LadderEvent::local(t.at.0, ix(t.to), t.what.clone()),
            })
            .collect();
        render(&columns, &events)
    }

    /// Add a box running `logic` under a unique `name`. A `Start` input is
    /// scheduled at the current time.
    pub fn add_box(&mut self, name: impl Into<String>, logic: Box<dyn AppLogic>) -> BoxId {
        let id = BoxId(u32::try_from(self.nodes.len()).expect("box ids fit u32"));
        match self.names.entry(name.into()) {
            Entry::Occupied(e) => panic!("duplicate box name {}", e.key()),
            Entry::Vacant(e) => e.insert(id),
        };
        self.nodes.push(Node {
            host: NodeHost::new(id, logic),
            busy_until: SimTime::ZERO,
            available: true,
            terminated: false,
            down: false,
        });
        self.inject_input(id, BoxInput::Start);
        id
    }

    /// Mark a box unavailable: channel setup toward it reports
    /// `Peer(Unavailable)` and delivers no far-end `ChannelUp`.
    pub fn set_available(&mut self, id: BoxId, available: bool) {
        self.nodes[ix(id)].available = available;
    }

    /// Install a fault plan on a channel. Signals transmitted on the
    /// channel (in either direction) are subject to the plan from now on;
    /// replacing a plan resets its PRNG stream.
    pub fn set_fault_plan(&mut self, ch: ChannelId, plan: FaultPlan) {
        self.faults.insert(ch, FaultState::new(plan));
    }

    /// Enable the §VI retransmission/recovery layer on a box. Awaits
    /// already outstanding are armed immediately.
    pub fn enable_reliability(&mut self, id: BoxId) {
        self.nodes[ix(id)].host.enable_reliability();
        self.deliver(id, Input::Rearm, None, None);
    }

    /// Schedule a crash at `at` and the matching restart `down_for` later.
    /// While down the box loses every input and timer fire; its protocol
    /// state survives and its reliability layer re-arms on restart.
    pub fn schedule_crash(&mut self, id: BoxId, at: SimTime, down_for: SimDuration) {
        assert!(at >= self.now, "cannot schedule in the past");
        self.push(at, Ev::Crash { to: id }, None);
        self.push(at + down_for, Ev::Restart { to: id }, None);
    }

    /// Schedule a (possibly asymmetric) partition between two boxes at
    /// `at`: blocked directions silently swallow tunnel signals and meta
    /// traffic (each swallowed delivery is observed as a `"partition"`
    /// fault), and channel setup between the pair fails as if the target
    /// were unavailable. The partition covers every channel between the
    /// pair — present and future — and stays in force until a matching
    /// [`Network::schedule_heal`]. `block_ab`/`block_ba` cut the `a`→`b`
    /// and `b`→`a` directions respectively.
    pub fn schedule_partition(
        &mut self,
        at: SimTime,
        a: BoxId,
        b: BoxId,
        block_ab: bool,
        block_ba: bool,
    ) {
        assert!(at >= self.now, "cannot schedule in the past");
        let ev = Ev::Partition {
            a,
            b,
            block_ab,
            block_ba,
        };
        self.push(at, ev, None);
    }

    /// Schedule the removal of any partition between two boxes
    /// (order-insensitive pair).
    pub fn schedule_heal(&mut self, at: SimTime, a: BoxId, b: BoxId) {
        assert!(at >= self.now, "cannot schedule in the past");
        self.push(at, Ev::HealPair { a, b }, None);
    }

    /// Schedule a bursty fault window on a channel: from `at` until
    /// `at + duration` the burst `plan` overrides the channel's baseline
    /// fault plan (which resumes, with its PRNG stream intact, when the
    /// burst expires). The burst's own PRNG is seeded from `plan.seed`
    /// and consumed in event order — the same determinism guarantee as
    /// baseline fault plans.
    pub fn schedule_burst(
        &mut self,
        at: SimTime,
        ch: ChannelId,
        plan: FaultPlan,
        duration: SimDuration,
    ) {
        assert!(at >= self.now, "cannot schedule in the past");
        let until = at + duration;
        self.push(at, Ev::BurstStart { ch, plan, until }, None);
    }

    /// Schedule the loss of the connection under channel `ch` at `at`, the
    /// analogue of a TCP reset. As on `rt`, every channel one box dialed to
    /// another rides one connection, so the loss is every such channel's:
    /// all those with `ch`'s initiator and target. Both ends hear of it at
    /// once: the acceptor's channels go down, and the initiator parks
    /// their slots and re-dials on the delays of the connection's one
    /// lifecycle ([`Link`]), each attempt reaching the far end only as
    /// [`Network::open_channel`]'s rule allows. An attempt that lands
    /// gives the acceptor every channel anew (fresh slots, `ChannelUp`)
    /// and each initiator channel `Resync` a round trip later; a first
    /// dial made meanwhile waits for it. When the attempts run out the
    /// initiator's channels go down too, and the waiting dials come back
    /// half-open. Messages still in flight on the dead connection are
    /// dropped where they arrive. A half-open or closed channel has no
    /// connection to lose.
    pub fn schedule_disconnect(&mut self, at: SimTime, ch: ChannelId) {
        assert!(at >= self.now, "cannot schedule in the past");
        self.push(at, Ev::Disconnect { ch }, None);
    }

    /// Current block flags between two boxes as `(a→b, b→a)`.
    pub fn partition_between(&self, a: BoxId, b: BoxId) -> (bool, bool) {
        let key = pair_key(a, b);
        let (lo_hi, hi_lo) = self.partitions.get(&key).copied().unwrap_or((false, false));
        if a.0 <= b.0 {
            (lo_hi, hi_lo)
        } else {
            (hi_lo, lo_hi)
        }
    }

    /// True iff traffic from `from` to `to` is currently cut.
    fn blocked(&self, from: BoxId, to: BoxId) -> bool {
        self.partition_between(from, to).0
    }

    /// True iff channel setup from `from` reaches `to`, a first dial or a
    /// re-dial alike. Setup is a round trip, so a partition in either
    /// direction makes the target as unreachable as an unavailable one,
    /// and so does a target that is down or terminated: nothing answers.
    fn reachable(&self, from: BoxId, to: BoxId) -> bool {
        let (ab, ba) = self.partition_between(from, to);
        let node = &self.nodes[ix(to)];
        node.available && !node.down && !node.terminated && !ab && !ba
    }

    /// All channels whose endpoints are exactly this box pair (either
    /// orientation), in channel-id order.
    pub fn channels_between(&self, a: BoxId, b: BoxId) -> Vec<ChannelId> {
        let mut both = self.riding(a, b);
        both.extend(self.riding(b, a).into_iter().filter(|_| a != b));
        both.sort_unstable();
        both
    }

    /// True iff every slot of the box has converged (§VI quiescence: no
    /// unanswered open/close/describe).
    pub fn converged(&self, id: BoxId) -> bool {
        reliable::converged(self.media(id))
    }

    /// True iff every box in the network has converged.
    pub fn all_converged(&self) -> bool {
        self.nodes
            .iter()
            .all(|n| reliable::converged(n.host.media()))
    }

    /// Slots of `id` that exhausted their retries and parked.
    pub fn parked_slots(&self, id: BoxId) -> Vec<SlotId> {
        self.nodes[ix(id)].host.parked_slots()
    }

    pub fn box_id(&self, name: &str) -> Option<BoxId> {
        self.names.get(name).copied()
    }

    /// Read access to a box's media layer (slots, goals) for assertions.
    pub fn media(&self, id: BoxId) -> &MediaBox {
        self.nodes[ix(id)].host.media()
    }

    /// Create a signaling channel between two existing boxes with `tunnels`
    /// tunnels, delivering `ChannelUp` to both at the current time. Slots
    /// at `a` are channel initiators. Returns (channel, slots at a,
    /// slots at b).
    pub fn connect(
        &mut self,
        a: BoxId,
        b: BoxId,
        tunnels: u16,
    ) -> (ChannelId, Vec<SlotId>, Vec<SlotId>) {
        let (ch, up) = self.pair(a, Some(b), tunnels);
        assert!(
            up.is_some(),
            "connect: {tunnels} more slots do not fit {a:?} or {b:?} (MAX_SLOTS)"
        );
        for to in [a, b] {
            let input = Input::ChannelUp {
                channel: ch,
                req: None,
            };
            self.push_input(self.now, to, input, None, None);
        }
        let slots = |id| {
            self.nodes[ix(id)]
                .host
                .channel_slots(ch)
                .expect("paired")
                .to_vec()
        };
        (ch, slots(a), slots(b))
    }

    /// Allocate a channel id, register it (slot ids are fixed here) with
    /// the host at each end, and record the ends: `a` dialed it, and `b`,
    /// if any, answered. Returns the far end the channel came up with:
    /// `b`, unless either end had no room for it, and then `a` holds it
    /// half-open.
    fn pair(&mut self, a: BoxId, b: Option<BoxId>, tunnels: u16) -> (ChannelId, Option<BoxId>) {
        let ch = ChannelId(u32::try_from(self.channels.len()).expect("channel ids fit u32"));
        let dealt = self.nodes[ix(a)].host.register_dialed(ch, tunnels);
        let mut answers = |b: &BoxId| {
            let host = &mut self.nodes[ix(*b)].host;
            dealt && host.register_channel(ch, tunnels, false).is_some()
        };
        let b = b.filter(|b| answers(b));
        self.channels.push(Some(Channel { a, b }));
        (ch, b)
    }

    /// Inject a user command at the current time (as if the human acted).
    /// A command the slot protocol rejects is observed as
    /// `signal_ignored(.., "user_rejected")` and costs a stimulus all the
    /// same.
    pub fn user(&mut self, to: BoxId, slot: SlotId, cmd: UserCmd) {
        self.user_at(self.now, to, slot, cmd);
    }

    /// Inject an arbitrary input at the current time. Used by tests and
    /// scenario drivers to deliver application meta-signals (feature
    /// commands like "switch to call 2") as if a peer had sent them.
    pub fn inject_input(&mut self, to: BoxId, input: BoxInput) {
        self.push_input(self.now, to, Input::Inject(input), None, None);
    }

    /// Schedule a user command at `at` (as if the human acted then).
    pub fn user_at(&mut self, at: SimTime, to: BoxId, slot: SlotId, cmd: UserCmd) {
        assert!(at >= self.now, "cannot schedule in the past");
        self.push_input(at, to, Input::User { slot, cmd }, None, None);
    }

    /// Give a box goals from outside its program at the current time, as
    /// one stimulus (it costs *c*, like any other): the way a test or a
    /// benchmark re-annotates a box its program leaves alone. Observed
    /// like the program's own `Ctx::set_goal`.
    pub fn set_goal(&mut self, to: BoxId, goals: impl IntoIterator<Item = GoalSpec>) {
        let input = Input::Goals(goals.into_iter().collect());
        self.push_input(self.now, to, input, None, None);
    }

    /// Inject a closure over a box at the current time: the unobserved
    /// back door. What the closure does to the box reaches no observer,
    /// so a monitor fed from this network misjudges the box from then on;
    /// only the signals it returns are observed, as sent. Use it to plant
    /// raw commands a program would never issue (a fault under test), and
    /// [`Network::set_goal`] or [`Network::user`] for everything else.
    pub fn apply<F>(&mut self, to: BoxId, f: F)
    where
        F: FnOnce(&mut ProgramBox) -> Vec<BoxCmd> + Send + 'static,
    {
        self.push_input(self.now, to, Input::Apply(Box::new(f)), None, None);
    }

    /// Schedule the delivery of `input` to `to` at `at`.
    fn push_input(
        &mut self,
        at: SimTime,
        to: BoxId,
        input: Input,
        from: Option<BoxId>,
        ctx: Option<SpanCtx>,
    ) {
        let ev = Ev::Input {
            to,
            input,
            from,
            gen: 0,
        };
        self.push(at, ev, ctx);
    }

    fn push(&mut self, at: SimTime, ev: Ev, ctx: Option<SpanCtx>) {
        let ctx = ctx.map(Box::new);
        self.events.push(at, Scheduled { ev, ctx });
    }

    /// Process one event. Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.read_ahead();
        let Some((at, sch)) = self.events.pop() else {
            return false;
        };
        debug_assert!(at >= self.now);
        self.now = at;
        self.clock.set(self.now.0);
        if let Some(t) = &self.tracer {
            // Contexts never leak across events: anything observed outside
            // an activation (crash faults, say) is deliberately unparented.
            t.clear_current();
        }
        match sch.ev {
            Ev::Input {
                to,
                input,
                from,
                gen,
            } => {
                if self.current(to, &input, gen) {
                    self.deliver(to, input, from, sch.ctx.map(|c| *c));
                }
            }
            Ev::Disconnect { ch } => self.disconnect(ch),
            Ev::Attempt { a, b, gen } => self.attempt(a, b, gen),
            Ev::Dialed { a, b, gen } => {
                let landed = self.links.get(&(a, b)).map(|p| p.held) == Some(Some(gen));
                self.link_event(a, b, Event::Dialed(landed));
            }
            Ev::Crash { to } => {
                if let Some(node) = self.nodes.get_mut(ix(to)) {
                    node.down = true;
                    self.obs.fault_injected(to.0, "crash");
                }
            }
            Ev::Restart { to } => {
                if let Some(node) = self.nodes.get_mut(ix(to)).filter(|n| n.down) {
                    node.down = false;
                    self.obs.fault_injected(to.0, "restart");
                    // Fires swallowed while down never come back, so the
                    // reliability layer restarts from scratch.
                    self.deliver(to, Input::Rearm, None, None);
                }
            }
            Ev::Partition {
                a,
                b,
                block_ab,
                block_ba,
            } => {
                let key = pair_key(a, b);
                let flags = if a.0 <= b.0 {
                    (block_ab, block_ba)
                } else {
                    (block_ba, block_ab)
                };
                self.partitions.insert(key, flags);
            }
            Ev::HealPair { a, b } => {
                self.partitions.remove(&pair_key(a, b));
            }
            Ev::BurstStart { ch, plan, until } => {
                self.bursts.insert(
                    ch,
                    BurstState {
                        fs: FaultState::new(plan),
                        until,
                    },
                );
            }
        }
        true
    }

    /// Start loading what the steps ahead will touch: the `Node` of the
    /// box the event [`NODE_AHEAD`] out is for, and the heap blocks of the
    /// one fetched [`RING`] steps ago, [`HEAP_AHEAD`] out by now. Changes
    /// nothing the simulation reads.
    fn read_ahead(&mut self) {
        let far = match self.events.ahead(NODE_AHEAD) {
            Some(Scheduled {
                ev: Ev::Input { to, .. },
                ..
            }) => self.nodes.get(ix(*to)).map(|node| {
                prefetch(std::ptr::from_ref(node).cast(), size_of::<Node>());
                *to
            }),
            _ => None,
        };
        let near = std::mem::replace(&mut self.fetched[self.fetched_at], far);
        self.fetched_at = (self.fetched_at + 1) % RING;
        if let Some(node) = near.and_then(|to| self.nodes.get(ix(to))) {
            node.host.prefetch();
        }
    }

    /// Hand one input to a box's host — charging the compute cost *c* if
    /// the box computes on it — and schedule what comes out.
    fn deliver(&mut self, to: BoxId, input: Input, from: Option<BoxId>, ctx: Option<SpanCtx>) {
        let Some(node) = self.nodes.get_mut(ix(to)) else {
            return;
        };
        // Crashed and terminated boxes lose what is sent to them. Harness
        // goals and closures, the far end's teardown and the host's own
        // re-arming are not network deliveries; a user can still act on a
        // box that is down.
        let lost = match input {
            Input::Goals(_) | Input::Apply(_) | Input::ChannelDown { .. } | Input::Rearm => false,
            Input::User { .. } => node.terminated,
            _ => node.terminated || node.down,
        };
        if lost {
            return;
        }
        let what = if self.trace_enabled {
            describe(&node.host, &input)
        } else {
            None
        };
        let start = self.now.max(node.busy_until);
        let done = start + self.cfg.compute_cost;
        let at = Arrival {
            cause: ctx,
            from: from.map(|b| b.0),
            arrived_micros: self.now.0,
            start_micros: start.0,
            done_micros: done.0,
        };
        let result = node.host.handle(
            input,
            &at,
            &mut self.obs,
            self.tracer.as_ref(),
            &mut self.buffers,
        );
        // A rejected user command left the box as it was, but the box read
        // it: it costs c like any other stimulus.
        let outcome = result.unwrap_or_else(|rejected| {
            self.obs
                .signal_ignored(to.0, rejected.slot.0, "user_rejected");
            Outcome {
                activated: true,
                ctx: None,
            }
        });
        // The box's outputs leave when it is done computing; bookkeeping
        // that costs no stimulus takes effect at once.
        let sent = if outcome.activated {
            node.busy_until = done;
            if let Some(what) = what {
                self.trace.push(TraceEntry {
                    at: self.now,
                    from,
                    to,
                    what,
                });
            }
            done
        } else {
            self.now
        };
        let mut effects = std::mem::take(&mut self.buffers.effects);
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { channel, msg } => self.transmit(to, channel, msg, sent, outcome.ctx),
                Effect::Dial {
                    to: name,
                    tunnels,
                    req,
                } => {
                    self.open_channel(to, &name, tunnels, req, sent, outcome.ctx);
                }
                Effect::Hangup { channel } => self.close_channel(to, channel, sent),
                Effect::ArmTimer { id, gen, after_ms } => self.push_input(
                    sent + SimDuration::from_millis(after_ms),
                    to,
                    Input::TimerFired { id, gen },
                    None,
                    outcome.ctx,
                ),
                Effect::Terminated => {
                    self.nodes[ix(to)].terminated = true;
                }
            }
        }
        self.buffers.effects = effects;
    }

    /// Put a message on a channel: partitions, then the channel's burst
    /// window or baseline fault plan, decide its fate; surviving copies
    /// reach the far end one network latency after they left. A network
    /// with no partition and no fault plan consults none of those tables.
    fn transmit(
        &mut self,
        from: BoxId,
        ch: ChannelId,
        msg: ChannelMsg,
        sent: SimTime,
        ctx: Option<SpanCtx>,
    ) {
        // The far end closed the channel under us, or never came up.
        let channel = self.channels.get(ch.0 as usize).and_then(Option::as_ref);
        let Some(peer) = channel.and_then(|c| c.peer_of(from)) else {
            return;
        };
        if !self.partitions.is_empty() && self.blocked(from, peer) {
            self.obs.fault_injected(from.0, "partition");
            return;
        }
        let gen = if self.links.is_empty() {
            0
        } else {
            match self.writes_on(ch, from) {
                Some(gen) => gen,
                None => return,
            }
        };
        let at = sent + self.cfg.net_latency;
        // Meta traffic rides the same links (so partitions swallow it
        // too) but is not subject to per-signal fault plans.
        let unplanned = self.bursts.is_empty() && self.faults.is_empty();
        let plan = if unplanned || matches!(msg, ChannelMsg::Meta(_)) {
            None
        } else {
            // A live burst window overrides the baseline plan; expired
            // bursts are reaped lazily here so the baseline resumes.
            if self.bursts.get(&ch).is_some_and(|b| sent > b.until) {
                self.bursts.remove(&ch);
            }
            let burst = self.bursts.get_mut(&ch).map(|b| &mut b.fs);
            burst.or_else(|| self.faults.get_mut(&ch))
        };
        let Some(plan) = plan else {
            let input = Input::Msg { channel: ch, msg };
            let (to, from) = (peer, Some(from));
            let ev = Ev::Input {
                to,
                input,
                from,
                gen,
            };
            return self.push(at, ev, ctx);
        };
        match plan.fate() {
            SendFate::Dropped => self.obs.fault_injected(from.0, "drop"),
            SendFate::Deliver(copies) => {
                // The payload is moved into the final copy; only a
                // fault-injected duplicate pays for a clone.
                let last = copies.len() - 1;
                let mut msg = Some(msg);
                for (i, copy) in copies.into_iter().enumerate() {
                    for kind in copy.labels() {
                        self.obs.fault_injected(from.0, kind);
                    }
                    let msg = if i == last {
                        msg.take().expect("one take per copy")
                    } else {
                        msg.clone().expect("kept until last")
                    };
                    let input = Input::Msg { channel: ch, msg };
                    let (to, from) = (peer, Some(from));
                    let ev = Ev::Input {
                        to,
                        input,
                        from,
                        gen,
                    };
                    self.push(at + copy.extra_delay, ev, ctx);
                }
            }
        }
    }

    fn open_channel(
        &mut self,
        from: BoxId,
        to_name: &str,
        tunnels: u16,
        req: u32,
        sent: SimTime,
        ctx: Option<SpanCtx>,
    ) {
        let target = self.names.get(to_name).copied();
        let pair = target.and_then(|to| self.links.get_mut(&(from, to)));
        if let Some(pair) = pair.filter(|p| p.link.state() == LinkState::Lost) {
            return pair.dials.push((to_name.to_owned(), tunnels, req, ctx));
        }
        // An unreachable target, or a channel that does not fit either
        // box, leaves the requester with a half-open channel it can
        // observe and destroy (Fig. 6's busy branch).
        let target = target.filter(|t| self.reachable(from, *t));
        let (ch, target) = self.pair(from, target, tunnels);

        // One-way setup message + acknowledgement: the requester learns the
        // outcome after a round trip.
        let up_at = sent + self.cfg.net_latency + self.cfg.net_latency;
        // Tunnel setup gets its own interval span covering the round trip;
        // the ChannelUp/Meta deliveries parent under it, so a trace shows
        // what the setup round trip caused.
        let ctx = self.tracer.as_ref().zip(ctx).map(|(tracer, c)| SpanCtx {
            parent: tracer.span(
                c.trace,
                Some(c.parent),
                from.0,
                None,
                "tunnel_setup",
                format!("open_channel {to_name}"),
                sent.0,
                up_at.0,
            ),
            ..c
        });
        if let Some(target) = target {
            let up = Input::ChannelUp {
                channel: ch,
                req: None,
            };
            self.push_input(sent + self.cfg.net_latency, target, up, Some(from), ctx);
        }
        // The outcome rides the connection the channel does: the current
        // one of a pair that has lost one.
        let pair = target.and_then(|to| self.links.get(&(from, to)));
        let gen = pair.map_or(0, |p| p.link.gen());
        for input in Input::dial_outcome(ch, req, target.is_some()) {
            let (to, from) = (from, target);
            self.push(
                up_at,
                Ev::Input {
                    to,
                    input,
                    from,
                    gen,
                },
                ctx,
            );
        }
    }

    fn close_channel(&mut self, from: BoxId, ch: ChannelId, sent: SimTime) {
        let Some(channel) = self.channels.get_mut(ch.0 as usize).and_then(Option::take) else {
            return;
        };
        // The local slots are gone already; the far end's die when it
        // hears of it, one network latency on.
        if let Some(peer) = channel.peer_of(from) {
            let down = Input::ChannelDown { channel: ch };
            self.push_input(sent + self.cfg.net_latency, peer, down, None, None);
        }
    }

    /// The two ends of a channel with a connection under it.
    fn ends(&self, ch: ChannelId) -> Option<(BoxId, BoxId)> {
        let channel = self.channels.get(ch.0 as usize)?.as_ref()?;
        Some((channel.a, channel.b?))
    }

    /// True iff `input` still counts at `to`: a message that left on a
    /// connection its pair has since lost or replaced does not.
    fn current(&self, to: BoxId, input: &Input, gen: u32) -> bool {
        match input {
            Input::Msg { channel, .. } if !self.links.is_empty() => self.admits(*channel, to, gen),
            _ => true,
        }
    }

    /// [`Network::current`] once a pair has a lifecycle. Cold, as every
    /// function that reads `links` is: only a scheduled disconnect makes
    /// one, and inlined they near triple `step`'s code.
    #[cold]
    fn admits(&self, ch: ChannelId, to: BoxId, gen: u32) -> bool {
        match self.pair_of(ch, to) {
            Some((pair, true)) => pair.link.admits(gen),
            Some((pair, false)) => pair.held == Some(gen),
            None => true,
        }
    }

    /// The connection a frame `from` writes on channel `ch` leaves on. A
    /// frame written to a dead connection is lost (`None`): its lifecycle
    /// knows already.
    #[cold]
    fn writes_on(&self, ch: ChannelId, from: BoxId) -> Option<u32> {
        match self.pair_of(ch, from) {
            Some((pair, true)) => (pair.link.state() != LinkState::Lost).then(|| pair.link.gen()),
            Some((pair, false)) => pair.held,
            None => Some(0),
        }
    }

    /// The connection channel `ch` rides, if its pair has lost one, and
    /// whether `bx` is the end that dialed it.
    fn pair_of(&self, ch: ChannelId, bx: BoxId) -> Option<(&Pair, bool)> {
        let (a, b) = self.ends(ch)?;
        Some((self.links.get(&(a, b))?, bx == a))
    }

    /// The channels `a` dialed to `b` that are not half-open, in channel-id
    /// order: the ones riding their connection.
    fn riding(&self, a: BoxId, b: BoxId) -> Vec<ChannelId> {
        let rides = |c: &&Channel| c.a == a && c.b == Some(b);
        let id = |(id, c): (u32, &Option<Channel>)| c.as_ref().filter(rides).map(|_| ChannelId(id));
        (0..).zip(&self.channels).filter_map(id).collect()
    }

    /// [`Ev::Disconnect`]: the connection under `ch` breaks, and with it
    /// every channel that shares it (same initiator, same target). The
    /// pair gets its lifecycle on its first loss, running the policy every
    /// `rt` node runs by default, jitter seeded by the two names as on
    /// `rt`. The acceptor's channels go down at once.
    #[cold]
    fn disconnect(&mut self, ch: ChannelId) {
        let Some((a, b)) = self.ends(ch) else {
            return;
        };
        let names = &self.names;
        let pair = self.links.entry((a, b)).or_insert_with(|| {
            let name = |id| names.iter().find(|(_, n)| **n == id).map_or("", |(n, _)| n);
            let link = Link::established(ReconnectPolicy::default(), jitter_seed(name(a), name(b)));
            let (held, dials) = (Some(0), Vec::new());
            Pair { link, held, dials }
        });
        let (was_held, gen) = (pair.held.take().is_some(), pair.link.gen());
        for channel in self.riding(a, b).into_iter().filter(|_| was_held) {
            self.push_input(self.now, b, Input::ChannelDown { channel }, None, None);
        }
        self.link_event(a, b, Event::Lost(gen));
    }

    /// [`Ev::Attempt`]: `a` tries connection `gen` to `b`. It reaches `b`
    /// as [`Network::open_channel`]'s rule allows, and then gives it every
    /// channel riding the connection anew, the ones it has room for (one
    /// it has none for is refused and goes down at `a`, as `rt`'s `Bye`
    /// takes it down); either way `a` hears a round trip later. A
    /// connection left with no channel and no dial waiting stops here.
    #[cold]
    fn attempt(&mut self, a: BoxId, b: BoxId, gen: u32) {
        let (riding, reachable) = (self.riding(a, b), self.reachable(a, b));
        let Some(pair) = self.links.get_mut(&(a, b)) else {
            return;
        };
        if riding.is_empty() && pair.dials.is_empty() {
            self.links.remove(&(a, b));
            return;
        }
        if reachable {
            pair.held = Some(gen);
        }
        let rtt = self.cfg.net_latency + self.cfg.net_latency;
        for channel in riding.into_iter().filter(|_| reachable) {
            let slots = self.nodes[ix(a)].host.channel_slots(channel);
            let tunnels = slots.map_or(0, SlotRange::len);
            let host = &mut self.nodes[ix(b)].host;
            let fresh = host.channel_slots(channel).is_none();
            if fresh && host.register_channel(channel, tunnels, false).is_some() {
                let up = Input::ChannelUp { channel, req: None };
                self.push_input(self.now + self.cfg.net_latency, b, up, Some(a), None);
            } else {
                self.channels[channel.0 as usize] = None;
                let down = Input::ChannelDown { channel };
                self.push_input(self.now + rtt, a, down, None, None);
            }
        }
        self.push(self.now + rtt, Ev::Dialed { a, b, gen }, None);
    }

    /// Tell the lifecycle of the connection `a` dialed to `b` what
    /// happened, and do what it decides, once per channel riding it.
    #[cold]
    fn link_event(&mut self, a: BoxId, b: BoxId, event: Event) {
        let (now_ms, riding) = (self.now.as_micros() / 1_000, self.riding(a, b));
        let Some(pair) = self.links.get_mut(&(a, b)) else {
            return;
        };
        match pair.link.on(event, now_ms) {
            Some(Command::Connect { after, gen }) => {
                for _ in riding.iter().filter(|_| matches!(event, Event::Lost(_))) {
                    self.obs.fault_injected(a.0, "disconnect");
                }
                let after = SimDuration::from_micros(after.as_micros() as u64);
                self.push(self.now + after, Ev::Attempt { a, b, gen }, None);
            }
            Some(Command::Landed {
                attempts,
                elapsed_ms,
                ..
            }) => {
                for channel in riding {
                    self.obs.fault_injected(a.0, "reconnect");
                    let resync = Input::Resync {
                        channel,
                        attempts,
                        elapsed_ms,
                    };
                    self.push_input(self.now, a, resync, None, None);
                }
                let pair = self.links.get_mut(&(a, b)).expect("looked up");
                for (to, tunnels, req, ctx) in std::mem::take(&mut pair.dials) {
                    self.open_channel(a, &to, tunnels, req, self.now, ctx);
                }
            }
            Some(Command::Down) => {
                let pair = self.links.remove(&(a, b)).expect("looked up");
                for channel in riding {
                    self.channels[channel.0 as usize] = None;
                    self.push_input(self.now, a, Input::ChannelDown { channel }, None, None);
                }
                for (_, tunnels, req, ctx) in pair.dials {
                    let (ch, _) = self.pair(a, None, tunnels);
                    for input in Input::dial_outcome(ch, req, false) {
                        self.push_input(self.now, a, input, None, ctx);
                    }
                }
            }
            None => {}
        }
    }

    /// Run until the event queue is empty or virtual time exceeds `max`.
    /// Returns the final virtual time.
    pub fn run_until_quiescent(&mut self, max: SimTime) -> SimTime {
        while self.events.next_at().is_some_and(|at| at <= max) {
            self.step();
        }
        self.now
    }

    /// Step until `pred` holds (checked after every event) or the queue
    /// empties / `max` is exceeded. Returns true iff the predicate held.
    pub fn run_until<F: FnMut(&Network) -> bool>(&mut self, max: SimTime, mut pred: F) -> bool {
        loop {
            if pred(self) {
                return true;
            }
            match self.events.next_at() {
                Some(at) if at <= max => {
                    self.step();
                }
                _ => return false,
            }
        }
    }

    /// The virtual time at which a box finishes its current processing:
    /// outputs computed during the event being handled leave at this time.
    /// Latency measurements use it as the completion instant of the state
    /// change observed by a `run_until` predicate.
    pub fn busy_until(&self, id: BoxId) -> SimTime {
        self.nodes[ix(id)].busy_until
    }

    /// Advance virtual time with nothing happening (boxes go idle). Only
    /// legal when no events are pending; used to separate setup from a
    /// measured phase so setup compute time does not queue-delay it.
    pub fn advance(&mut self, d: SimDuration) {
        assert!(
            self.events.is_empty(),
            "advance requires a quiescent network"
        );
        self.now += d;
        self.clock.set(self.now.0);
    }

    /// Count of pending events (for quiescence checks in tests).
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }
}

/// What the recorded trace (and so the ladder) shows for a delivery: a
/// tunnel signal as `slot:kind`, anything else as the box input the host
/// will make of it. `None` for inputs that are not deliveries and leave
/// no trace entry.
fn describe(host: &NodeHost, input: &Input) -> Option<String> {
    let tunnel = |slot: &SlotId, signal: &Signal| Some(format!("{slot}:{}", signal.kind()));
    let shown = match input {
        Input::Msg {
            channel,
            msg: ChannelMsg::Tunnel { tunnel: t, signal },
        } => {
            let slot = host.channel_slots(*channel)?.get(usize::from(t.0))?;
            return tunnel(&slot, signal);
        }
        Input::Inject(BoxInput::Tunnel { slot, signal }) => return tunnel(slot, signal),
        Input::Inject(other) => other.clone(),
        Input::Msg {
            channel,
            msg: ChannelMsg::Meta(meta),
        } => BoxInput::Meta {
            channel: *channel,
            meta: meta.clone(),
        },
        Input::ChannelUp { channel, req } => BoxInput::ChannelUp {
            channel: *channel,
            slots: host.channel_slots(*channel)?.to_vec(),
            req: *req,
        },
        Input::TimerFired { id, .. } if reliable::timer_slot(*id).is_none() => BoxInput::Timer(*id),
        _ => return None,
    };
    Some(format!("{shown:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    /// The event record sits by value in the queue's slab, thousands deep
    /// in a storm; the trace context it carries only when tracing is on
    /// stays out of its width. Growing it should be a decision:
    /// `BUILT_BYTES` in `storm_allocs.rs` moves with it.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn an_event_record_stays_small() {
        let record = size_of::<Scheduled>();
        assert!(record <= 96, "{record}");
        // The queue's slab slot: the record and the index of the next.
        let slot = size_of::<(Option<Scheduled>, u32)>();
        assert!(slot <= 104, "{slot}");
    }

    /// `step` fetches a box's whole `Node` ahead of its turn, every line
    /// of it, and the gain is measured at this size: a field that grows it
    /// should be a decision, not a quiet loss.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_node_stays_small() {
        let node = size_of::<Node>();
        assert!(node <= 160, "{node}");
    }
}
