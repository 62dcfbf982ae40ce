//! Global states of a signaling path, for exhaustive exploration.
//!
//! The checked world is exactly the paper's (§VIII-A): one signaling path —
//! two endpoint goal objects separated by zero or more flowlink boxes and
//! FIFO tunnels. Every goal object has two phases: an initial phase in
//! which the behaviour of its slots is completely nondeterministic
//! (arbitrary protocol-legal user actions, bounded by a budget so the state
//! space is finite), and a second phase, entered at a nondeterministically
//! chosen point, in which it behaves according to the specified goal.
//! Exploration therefore covers traces where the goal objects begin their
//! real work in all possible joint states of the slots and tunnels.
//!
//! Unlike the paper — which model-checked hand-written Promela models of
//! the Java implementation — the states here embed the *actual* library
//! types ([`Slot`], [`FlowLink`], [`OpenSlot`], …): the checker executes
//! the shipped implementation code.

use ipmedia_core::codec::Medium;
use ipmedia_core::descriptor::{DescTag, MediaAddr, TagSource};
use ipmedia_core::goal::{
    AcceptMode, CloseSlot, EndpointPolicy, FlowLink, HoldSlot, LinkSide, OpenSlot, Policy,
    UserAgent, UserCmd,
};
use ipmedia_core::path::{EndGoal, PathEnds};
use ipmedia_core::reliable;
use ipmedia_core::retag::Retag;
use ipmedia_core::signal::Signal;
use ipmedia_core::slot::{Slot, SlotAction, SlotState};
use std::collections::VecDeque;

/// Exploration bounds and path shape.
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// Number of flowlink boxes between the endpoints (0, 1, 2, …).
    pub links: usize,
    /// Goal at the left path endpoint (phase 2).
    pub left: EndGoal,
    /// Goal at the right path endpoint (phase 2).
    pub right: EndGoal,
    /// Nondeterministic user actions available to each endpoint in phase 1.
    pub end_phase1_budget: u8,
    /// Nondeterministic actions available to each flowlink slot in phase 1.
    pub link_phase1_budget: u8,
    /// Mute-flag `modify` perturbations available to each endpoint after
    /// attaching its goal (drives the recurrence check of §V).
    pub modify_budget: u8,
    /// Channel faults (drops and duplications) available to the adversary
    /// on EACH tunnel. The budget lives in the tunnel state, so the space
    /// stays finite; with a nonzero budget the checker also enables the
    /// recovery machinery (duplicate re-acknowledgement on delivery and
    /// budgeted retransmissions compensating each drop), mirroring the
    /// reliability layer the simulator and runtime use.
    pub fault_budget: u8,
}

impl CheckConfig {
    /// The paper's 12-model campaign shape: budgets that exercise every
    /// joint initial state while keeping exploration tractable.
    pub fn standard(links: usize, left: EndGoal, right: EndGoal) -> Self {
        Self {
            links,
            left,
            right,
            end_phase1_budget: 2,
            link_phase1_budget: 1,
            modify_budget: 1,
            fault_budget: 0,
        }
    }

    /// Allow the adversary `budget` drop/duplicate faults per tunnel.
    pub fn with_faults(mut self, budget: u8) -> Self {
        self.fault_budget = budget;
        self
    }
}

/// Mode of an endpoint box.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EndMode {
    /// Initial nondeterministic phase: a manual user agent driven by
    /// arbitrary legal user actions.
    Phase1 { agent: UserAgent, budget: u8 },
    /// The specified goal object is in control.
    Phase2 { goal: EndGoalObj, modify_budget: u8 },
}

/// The goal object at a path endpoint, with a genuine endpoint policy
/// (users keep full freedom over the mute flags, §V).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EndGoalObj {
    Open(OpenSlot),
    Close(CloseSlot),
    Hold(HoldSlot),
}

/// One endpoint box.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EndBox {
    pub slot: Slot,
    pub mode: EndMode,
}

/// Mode of a flowlink box.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LinkMode {
    /// Both slots act nondeterministically and independently.
    Phase1 {
        agents: [UserAgent; 2],
        budget: u8,
    },
    Phase2 {
        link: FlowLink,
    },
}

/// One flowlink box: two slots, left side (toward the left endpoint) at
/// index 0.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LinkBox {
    pub slots: [Slot; 2],
    pub mode: LinkMode,
}

/// One tunnel: a FIFO queue in each direction.
#[derive(Debug, PartialEq, Eq, Hash, Default)]
pub struct Tunnel {
    /// Signals travelling left → right.
    pub fwd: VecDeque<Signal>,
    /// Signals travelling right → left.
    pub bwd: VecDeque<Signal>,
    /// Remaining drop/duplicate faults the adversary may inject here.
    pub faults_left: u8,
    /// Retransmission credits earned by drops, per direction. A drop of a
    /// *request* (open/close/describe) credits the direction it travelled
    /// — its sender still awaits the answer and will retransmit; a drop
    /// of a *response* (oack/closeack/select) credits the opposite
    /// direction — the requester re-requests and the receiver re-answers
    /// from cache. Terminal states require zero credits, so every drop is
    /// eventually compensated, exactly like the timer-driven layer.
    pub lost_fwd: u8,
    pub lost_bwd: u8,
}

// `Clone` by hand for a field-wise `clone_from`, which fills the queues'
// existing buffers where the derived one would allocate new ones.
impl Clone for Tunnel {
    fn clone(&self) -> Self {
        Tunnel {
            fwd: self.fwd.clone(),
            bwd: self.bwd.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.fwd.clone_from(&source.fwd);
        self.bwd.clone_from(&source.bwd);
        self.faults_left = source.faults_left;
        self.lost_fwd = source.lost_fwd;
        self.lost_bwd = source.lost_bwd;
    }
}

/// A global state of the signaling path.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct PathState {
    pub left: EndBox,
    pub links: Vec<LinkBox>,
    pub right: EndBox,
    /// `tunnels[t]` connects element `t` to element `t + 1`, where element
    /// 0 is the left endpoint, elements 1..=links are flowlink boxes, and
    /// element links+1 is the right endpoint.
    pub tunnels: Vec<Tunnel>,
}

// As for [`Tunnel`]: `clone_from` keeps the two `Vec`s and, through them,
// every tunnel's queues.
impl Clone for PathState {
    fn clone(&self) -> Self {
        PathState {
            left: self.left.clone(),
            links: self.links.clone(),
            right: self.right.clone(),
            tunnels: self.tunnels.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.left.clone_from(&source.left);
        self.links.clone_from(&source.links);
        self.right.clone_from(&source.right);
        self.tunnels.clone_from(&source.tunnels);
    }
}

/// A nondeterministic user/phase action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NondetOp {
    Open,
    Accept,
    Close,
    ToggleMuteIn,
    ToggleMuteOut,
}

/// One transition of the global state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Deliver the head of `tunnels[t].fwd` to element `t + 1`.
    DeliverFwd(usize),
    /// Deliver the head of `tunnels[t].bwd` to element `t`.
    DeliverBwd(usize),
    /// A phase-1 endpoint performs a nondeterministic user action.
    EndNondet { right: bool, op: NondetOp },
    /// An endpoint switches permanently to phase 2 (attaches its goal).
    EndAttach { right: bool },
    /// A phase-2 endpoint's user toggles a mute flag (`modify`, §V).
    EndModify { right: bool, op: NondetOp },
    /// A phase-1 flowlink slot performs a nondeterministic action.
    LinkNondet {
        idx: usize,
        side: usize,
        op: NondetOp,
    },
    /// A flowlink box attaches its flowlink.
    LinkAttach { idx: usize },
    /// The adversary drops the head of `tunnels[t].fwd` (costs a fault).
    DropFwd(usize),
    /// The adversary drops the head of `tunnels[t].bwd` (costs a fault).
    DropBwd(usize),
    /// The adversary duplicates the head of `tunnels[t].fwd`, appending
    /// the copy at the back of the queue (duplication + reordering in one
    /// action; costs a fault).
    DupFwd(usize),
    /// As [`Action::DupFwd`], backward direction.
    DupBwd(usize),
    /// The element sending forward into `tunnels[t]` retransmits its
    /// cached signals (spends a `lost_fwd` credit).
    RetransmitFwd(usize),
    /// As [`Action::RetransmitFwd`], backward direction.
    RetransmitBwd(usize),
}

impl Action {
    /// The action in 32 bits, one to one: the local-step memo keys on this
    /// in place of 24 bytes of `usize`.
    pub(crate) fn code(self) -> u32 {
        let word = match self {
            Action::DeliverFwd(t) => [0, t, 0, 0],
            Action::DeliverBwd(t) => [1, t, 0, 0],
            Action::EndNondet { right, op } => [2, right as usize, op as usize, 0],
            Action::EndAttach { right } => [3, right as usize, 0, 0],
            Action::EndModify { right, op } => [4, right as usize, op as usize, 0],
            Action::LinkNondet { idx, side, op } => [5, idx, side, op as usize],
            Action::LinkAttach { idx } => [6, idx, 0, 0],
            Action::DropFwd(t) => [7, t, 0, 0],
            Action::DropBwd(t) => [8, t, 0, 0],
            Action::DupFwd(t) => [9, t, 0, 0],
            Action::DupBwd(t) => [10, t, 0, 0],
            Action::RetransmitFwd(t) => [11, t, 0, 0],
            Action::RetransmitBwd(t) => [12, t, 0, 0],
        };
        u32::from_le_bytes(word.map(|b| u8::try_from(b).expect("a path of under 256 boxes")))
    }

    /// The action whose [`Action::code`] is `code`.
    pub(crate) fn from_code(code: u32) -> Action {
        use NondetOp::{Accept, Close, Open, ToggleMuteIn, ToggleMuteOut};
        const OPS: [NondetOp; 5] = [Open, Accept, Close, ToggleMuteIn, ToggleMuteOut];
        let [kind, a, b, c] = code.to_le_bytes().map(usize::from);
        let right = a != 0;
        match kind {
            0 => Action::DeliverFwd(a),
            1 => Action::DeliverBwd(a),
            2 => Action::EndNondet { right, op: OPS[b] },
            3 => Action::EndAttach { right },
            4 => Action::EndModify { right, op: OPS[b] },
            5 => Action::LinkNondet {
                idx: a,
                side: b,
                op: OPS[c],
            },
            6 => Action::LinkAttach { idx: a },
            7 => Action::DropFwd(a),
            8 => Action::DropBwd(a),
            9 => Action::DupFwd(a),
            10 => Action::DupBwd(a),
            11 => Action::RetransmitFwd(a),
            12 => Action::RetransmitBwd(a),
            _ => panic!("{code:#x} is no action's code"),
        }
    }

    /// A flowlink box's action moved to the box at index `idx`: the
    /// search lists a box's actions once, at index 0, and places them.
    pub(crate) fn at_link(self, idx: usize) -> Action {
        match self {
            Action::LinkNondet { side, op, .. } => Action::LinkNondet { idx, side, op },
            Action::LinkAttach { .. } => Action::LinkAttach { idx },
            other => panic!("{other:?} is no flowlink box's action"),
        }
    }
}

/// One separately interned component of a [`PathState`]: a box, one
/// direction of a tunnel, or a tunnel's three fault counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Part {
    Left,
    Right,
    Link(usize),
    Fwd(usize),
    Bwd(usize),
    Counters(usize),
}

/// What one uncanonicalized [`PathState::step`] touches: its `ins`, the
/// parts it reads and may rewrite — it reads nothing else — and its `outs`,
/// the queues it may `push_back` to and never looks into, so that what it
/// appends is the same whatever they hold. `None`s come last.
pub(crate) type Footprint = ([Option<Part>; 2], [Option<Part>; 2]);

/// The footprint of `action` on a path of `links` flowlinks.
///
/// | action | `ins` | `outs` |
/// |---|---|---|
/// | `Deliver*` | the queue popped, the box delivered to | that box's out-queues |
/// | `End*`, `Link*` | the box | its out-queues |
/// | `Drop*`, `Dup*` | the queue, the tunnel's counters | — |
/// | `Retransmit*` | the sending box, the tunnel's counters | the queue sent into |
pub(crate) fn footprint(links: usize, action: Action) -> Footprint {
    use Part::{Bwd, Counters, Fwd};
    // The box at path element `e` and the queues it sends into.
    let element = |e: usize| match e {
        0 => (Part::Left, [Some(Fwd(0)), None]),
        e if e == links + 1 => (Part::Right, [Some(Bwd(links)), None]),
        e => (Part::Link(e - 1), [Some(Bwd(e - 1)), Some(Fwd(e))]),
    };
    // A step inside the box at element `e`, which may also read `queue`.
    let at = |e: usize, queue: Option<Part>| ([Some(element(e).0), queue], element(e).1);
    let on_tunnel = |ins: [Part; 2], out: Option<Part>| (ins.map(Some), [out, None]);
    match action {
        Action::DeliverFwd(t) => at(t + 1, Some(Fwd(t))),
        Action::DeliverBwd(t) => at(t, Some(Bwd(t))),
        Action::EndNondet { right, .. }
        | Action::EndAttach { right }
        | Action::EndModify { right, .. } => at(if right { links + 1 } else { 0 }, None),
        Action::LinkNondet { idx, .. } | Action::LinkAttach { idx } => at(idx + 1, None),
        Action::DropFwd(t) | Action::DupFwd(t) => on_tunnel([Fwd(t), Counters(t)], None),
        Action::DropBwd(t) | Action::DupBwd(t) => on_tunnel([Bwd(t), Counters(t)], None),
        Action::RetransmitFwd(t) => on_tunnel([element(t).0, Counters(t)], Some(Fwd(t))),
        Action::RetransmitBwd(t) => on_tunnel([element(t + 1).0, Counters(t)], Some(Bwd(t))),
    }
}

/// The descriptor tags and tag sources of one component: what
/// canonicalization reads and rewrites of it. (The shape of core's `Retag`,
/// which the orphan rule keeps off a `VecDeque<Signal>`.)
pub(crate) trait Tagged {
    fn visit_tags(&mut self, f: &mut dyn FnMut(&mut DescTag));
    fn visit_sources(&mut self, _f: &mut dyn FnMut(&mut TagSource)) {}
}

impl Tagged for EndBox {
    fn visit_tags(&mut self, f: &mut dyn FnMut(&mut DescTag)) {
        self.slot.visit_tags(f);
    }

    fn visit_sources(&mut self, f: &mut dyn FnMut(&mut TagSource)) {
        match &mut self.mode {
            EndMode::Phase1 { agent, .. } => agent.visit_sources(f),
            EndMode::Phase2 { goal, .. } => match goal {
                EndGoalObj::Open(g) => g.visit_sources(f),
                EndGoalObj::Close(g) => g.visit_sources(f),
                EndGoalObj::Hold(g) => g.visit_sources(f),
            },
        }
    }
}

impl Tagged for LinkBox {
    fn visit_tags(&mut self, f: &mut dyn FnMut(&mut DescTag)) {
        self.slots[0].visit_tags(f);
        self.slots[1].visit_tags(f);
    }

    fn visit_sources(&mut self, f: &mut dyn FnMut(&mut TagSource)) {
        match &mut self.mode {
            LinkMode::Phase1 { agents, .. } => {
                agents[0].visit_sources(f);
                agents[1].visit_sources(f);
            }
            LinkMode::Phase2 { link } => link.visit_sources(f),
        }
    }
}

impl Tagged for VecDeque<Signal> {
    fn visit_tags(&mut self, f: &mut dyn FnMut(&mut DescTag)) {
        for sig in self {
            sig.visit_tags(f);
        }
    }
}

fn end_policy(host: u8) -> EndpointPolicy {
    EndpointPolicy {
        addr: MediaAddr::v4(10, 0, 0, host, 4000),
        recv_codecs: [ipmedia_core::Codec::G711].into(),
        send_codecs: [ipmedia_core::Codec::G711].into(),
        mute_in: false,
        mute_out: false,
    }
}

fn server_like_policy() -> EndpointPolicy {
    // A phase-1 flowlink slot masquerades as an endpoint that mutes both
    // directions, like any server goal object (§IV-A).
    EndpointPolicy {
        addr: MediaAddr::v4(0, 0, 0, 0, 0),
        recv_codecs: [ipmedia_core::Codec::G711].into(),
        send_codecs: [ipmedia_core::Codec::G711].into(),
        mute_in: true,
        mute_out: true,
    }
}

impl PathState {
    /// The initial state: everything closed, tunnels empty, all goal
    /// objects in phase 1.
    pub fn initial(cfg: &CheckConfig) -> Self {
        let left = EndBox {
            // The left endpoint's channels are all initiated by it.
            slot: Slot::new(true),
            mode: EndMode::Phase1 {
                agent: UserAgent::new(end_policy(1), AcceptMode::Manual, 1),
                budget: cfg.end_phase1_budget,
            },
        };
        let right = EndBox {
            slot: Slot::new(false),
            mode: EndMode::Phase1 {
                agent: UserAgent::new(end_policy(2), AcceptMode::Manual, 2),
                budget: cfg.end_phase1_budget,
            },
        };
        let links = (0..cfg.links)
            .map(|i| LinkBox {
                // Left side answers the previous element's channel; right
                // side initiates the next one.
                slots: [Slot::new(false), Slot::new(true)],
                mode: LinkMode::Phase1 {
                    agents: [
                        UserAgent::new(server_like_policy(), AcceptMode::Manual, 10 + 2 * i as u64),
                        UserAgent::new(server_like_policy(), AcceptMode::Manual, 11 + 2 * i as u64),
                    ],
                    budget: cfg.link_phase1_budget,
                },
            })
            .collect();
        let tunnels = vec![
            Tunnel {
                faults_left: cfg.fault_budget,
                ..Tunnel::default()
            };
            cfg.links + 1
        ];
        let mut s = Self {
            left,
            links,
            right,
            tunnels,
        };
        s.canonicalize();
        s
    }

    /// Enumerate every enabled action, in deterministic order: each
    /// tunnel's, then the left endpoint's, the right one's and each
    /// flowlink box's.
    pub fn actions(&self, cfg: &CheckConfig) -> Vec<Action> {
        let mut out = Vec::new();
        for (t, tun) in self.tunnels.iter().enumerate() {
            let waiting = [!tun.fwd.is_empty(), !tun.bwd.is_empty()];
            let counters = [tun.faults_left, tun.lost_fwd, tun.lost_bwd];
            tunnel_actions(t, waiting, counters, &mut out);
        }
        end_actions(&self.left, false, &mut out);
        end_actions(&self.right, true, &mut out);
        for (idx, link) in self.links.iter().enumerate() {
            link_actions(link, idx, &mut out);
        }
        let _ = cfg;
        out
    }

    /// Apply an action, producing the canonicalized successor state.
    pub fn apply(&self, cfg: &CheckConfig, action: Action) -> PathState {
        let mut s = self.clone();
        s.step(cfg, action);
        s.canonicalize();
        s
    }

    /// Take one transition in place, without canonicalizing: what it reads
    /// and writes is [`footprint`]'s to say.
    pub(crate) fn step(&mut self, cfg: &CheckConfig, action: Action) {
        let reack = cfg.fault_budget > 0;
        match action {
            Action::DeliverFwd(t) => {
                let sig = self.tunnels[t].fwd.pop_front().expect("enabled action");
                self.deliver(t + 1, true, sig, reack);
            }
            Action::DeliverBwd(t) => {
                let sig = self.tunnels[t].bwd.pop_front().expect("enabled action");
                self.deliver(t, false, sig, reack);
            }
            Action::EndNondet { right, op } => self.end_nondet(right, op),
            Action::EndAttach { right } => self.end_attach(cfg, right),
            Action::EndModify { right, op } => self.end_modify(right, op),
            Action::LinkNondet { idx, side, op } => self.link_nondet(idx, side, op),
            Action::LinkAttach { idx } => self.link_attach(idx),
            Action::DropFwd(t) => {
                let sig = self.tunnels[t].fwd.pop_front().expect("enabled action");
                self.tunnels[t].faults_left -= 1;
                if is_request(&sig) {
                    self.tunnels[t].lost_fwd += 1;
                } else {
                    self.tunnels[t].lost_bwd += 1;
                }
            }
            Action::DropBwd(t) => {
                let sig = self.tunnels[t].bwd.pop_front().expect("enabled action");
                self.tunnels[t].faults_left -= 1;
                if is_request(&sig) {
                    self.tunnels[t].lost_bwd += 1;
                } else {
                    self.tunnels[t].lost_fwd += 1;
                }
            }
            Action::DupFwd(t) => {
                let sig = self.tunnels[t]
                    .fwd
                    .front()
                    .cloned()
                    .expect("enabled action");
                self.tunnels[t].fwd.push_back(sig);
                self.tunnels[t].faults_left -= 1;
            }
            Action::DupBwd(t) => {
                let sig = self.tunnels[t]
                    .bwd
                    .front()
                    .cloned()
                    .expect("enabled action");
                self.tunnels[t].bwd.push_back(sig);
                self.tunnels[t].faults_left -= 1;
            }
            Action::RetransmitFwd(t) => {
                self.tunnels[t].lost_fwd -= 1;
                self.retransmit(t, true);
            }
            Action::RetransmitBwd(t) => {
                self.tunnels[t].lost_bwd -= 1;
                self.retransmit(t, false);
            }
        }
    }

    /// Deliver a signal to the element at `pos`. `from_left` says the
    /// signal came from the element's left side. With `reack` set (fault
    /// checking), duplicate opens and describes are re-answered from the
    /// receiving slot's cached state before the signal is applied — the
    /// deterministic half of the reliability layer (§VI idempotence).
    fn deliver(&mut self, pos: usize, from_left: bool, sig: Signal, reack: bool) {
        let n = self.links.len();
        if pos == 0 || pos == n + 1 {
            let end = if pos == 0 {
                &mut self.left
            } else {
                &mut self.right
            };
            let reacks = if reack {
                reliable::reack_signals(&end.slot, &sig)
            } else {
                vec![]
            };
            let (event, auto) = end.slot.on_signal(sig);
            let mut signals = auto;
            match &mut end.mode {
                EndMode::Phase1 { agent, .. } => {
                    let (sigs, _notes) = agent.on_event(&event, &mut end.slot);
                    signals.extend(sigs);
                }
                EndMode::Phase2 { goal, .. } => {
                    let sigs = match goal {
                        EndGoalObj::Open(g) => g.on_event(&event, &mut end.slot),
                        EndGoalObj::Close(g) => g.on_event(&event, &mut end.slot),
                        EndGoalObj::Hold(g) => g.on_event(&event, &mut end.slot),
                    };
                    signals.extend(sigs);
                }
            }
            signals.extend(reacks);
            self.push_from_end(pos != 0, signals);
        } else {
            let idx = pos - 1;
            let side = if from_left { 0 } else { 1 };
            let link = &mut self.links[idx];
            // Split the two slots to satisfy the flowlink's signature.
            let [ref mut s0, ref mut s1] = link.slots;
            let reacks = if reack {
                reliable::reack_signals(if side == 0 { s0 } else { s1 }, &sig)
            } else {
                vec![]
            };
            let (event, auto) = if side == 0 {
                s0.on_signal(sig)
            } else {
                s1.on_signal(sig)
            };
            let mut signals: Vec<(usize, Signal)> = auto.into_iter().map(|s| (side, s)).collect();
            match &mut link.mode {
                LinkMode::Phase1 { agents, .. } => {
                    let slot = if side == 0 { s0 } else { s1 };
                    let (sigs, _notes) = agents[side].on_event(&event, slot);
                    signals.extend(sigs.into_iter().map(|s| (side, s)));
                }
                LinkMode::Phase2 { link } => {
                    let ls = if side == 0 { LinkSide::A } else { LinkSide::B };
                    let out = link.on_event(ls, &event, s0, s1);
                    signals.extend(
                        out.into_iter()
                            .map(|(ls, s)| (if ls == LinkSide::A { 0 } else { 1 }, s)),
                    );
                }
            }
            signals.extend(reacks.into_iter().map(|s| (side, s)));
            for (side, sig) in signals {
                self.push_from_link(idx, side, sig);
            }
        }
    }

    /// Spend a retransmission credit: the element sending into tunnel `t`
    /// in the given direction re-emits its cached signals, exactly what
    /// the timer-driven reliability layer would resend.
    fn retransmit(&mut self, t: usize, fwd: bool) {
        let n = self.links.len();
        let slot = if fwd {
            if t == 0 {
                &self.left.slot
            } else {
                &self.links[t - 1].slots[1]
            }
        } else if t == n {
            &self.right.slot
        } else {
            &self.links[t].slots[0]
        };
        let sigs = reliable::resend_signals(slot);
        self.queue_mut(if fwd { Part::Fwd(t) } else { Part::Bwd(t) })
            .extend(sigs);
    }

    /// Enqueue a signal emitted by link `idx` on slot `side`.
    fn push_from_link(&mut self, idx: usize, side: usize, sig: Signal) {
        if side == 0 {
            // Left slot sends toward the left endpoint: backward on tunnel idx.
            self.tunnels[idx].bwd.push_back(sig);
        } else {
            self.tunnels[idx + 1].fwd.push_back(sig);
        }
    }

    /// Enqueue the signals emitted by an endpoint.
    fn push_from_end(&mut self, right: bool, signals: Vec<Signal>) {
        let n = self.links.len();
        self.queue_mut(if right { Part::Bwd(n) } else { Part::Fwd(0) })
            .extend(signals);
    }

    fn end_nondet(&mut self, right: bool, op: NondetOp) {
        let end = if right {
            &mut self.right
        } else {
            &mut self.left
        };
        let EndMode::Phase1 { agent, budget } = &mut end.mode else {
            panic!("nondet action on phase-2 endpoint");
        };
        *budget -= 1;
        let cmd = op_to_cmd(op, agent);
        let signals = agent.command(cmd, &mut end.slot).expect("legal op");
        self.push_from_end(right, signals);
    }

    fn end_attach(&mut self, cfg: &CheckConfig, right: bool) {
        let (kind, origin) = if right {
            (cfg.right, 102u64)
        } else {
            (cfg.left, 101u64)
        };
        let end = if right {
            &mut self.right
        } else {
            &mut self.left
        };
        let EndMode::Phase1 { agent, .. } = &end.mode else {
            panic!("attach on phase-2 endpoint");
        };
        // The goal inherits the user's current policy (mute freedom, §V).
        let policy = Policy::Endpoint(agent.policy().clone());
        let mut goal = match kind {
            EndGoal::Open => EndGoalObj::Open(OpenSlot::with_policy(Medium::Audio, policy, origin)),
            EndGoal::Close => EndGoalObj::Close(CloseSlot::new()),
            EndGoal::Hold => EndGoalObj::Hold(HoldSlot::with_policy(policy, origin)),
        };
        let signals = match &mut goal {
            EndGoalObj::Open(g) => g.attach(&mut end.slot),
            EndGoalObj::Close(g) => g.attach(&mut end.slot),
            EndGoalObj::Hold(g) => g.attach(&mut end.slot),
        };
        end.mode = EndMode::Phase2 {
            goal,
            modify_budget: cfg.modify_budget,
        };
        self.push_from_end(right, signals);
    }

    fn end_modify(&mut self, right: bool, op: NondetOp) {
        let end = if right {
            &mut self.right
        } else {
            &mut self.left
        };
        let EndMode::Phase2 {
            goal,
            modify_budget,
        } = &mut end.mode
        else {
            panic!("modify on phase-1 endpoint");
        };
        *modify_budget -= 1;
        let signals = match goal {
            EndGoalObj::Open(g) => {
                let p = flipped(g.policy(), op);
                g.modify(p, &mut end.slot)
            }
            EndGoalObj::Hold(g) => {
                let p = flipped(g.policy(), op);
                g.modify(p, &mut end.slot)
            }
            EndGoalObj::Close(_) => panic!("closeSlot has no mute flags"),
        };
        self.push_from_end(right, signals);
    }

    fn link_nondet(&mut self, idx: usize, side: usize, op: NondetOp) {
        let link = &mut self.links[idx];
        let LinkMode::Phase1 { agents, budget } = &mut link.mode else {
            panic!("nondet action on phase-2 link");
        };
        *budget -= 1;
        let cmd = op_to_cmd(op, &agents[side]);
        let signals = agents[side]
            .command(cmd, &mut link.slots[side])
            .expect("legal op");
        for sig in signals {
            self.push_from_link(idx, side, sig);
        }
    }

    fn link_attach(&mut self, idx: usize) {
        let link = &mut self.links[idx];
        let mut fl = FlowLink::new(110 + idx as u64);
        let [ref mut s0, ref mut s1] = link.slots;
        let out = fl.attach(s0, s1);
        link.mode = LinkMode::Phase2 { link: fl };
        for (ls, sig) in out {
            let side = if ls == LinkSide::A { 0 } else { 1 };
            self.push_from_link(idx, side, sig);
        }
    }

    /// All goal objects have switched to phase 2.
    pub fn fully_attached(&self) -> bool {
        self.left.attached() && self.right.attached() && self.links.iter().all(LinkBox::attached)
    }

    pub fn tunnels_empty(&self) -> bool {
        self.tunnels
            .iter()
            .all(|t| t.fwd.is_empty() && t.bwd.is_empty())
    }

    /// Evaluate the `bothClosed` path state.
    pub fn both_closed(&self) -> bool {
        end_pair_flags(&self.left, &self.right).0
    }

    /// Evaluate `bothFlowing`, including mute-flag consistency when both
    /// endpoint policies are known (the full §V definition).
    pub fn both_flowing(&self) -> bool {
        end_pair_flags(&self.left, &self.right).1
    }

    /// Safety condition on terminal states (§VIII-A): each slot closed or
    /// flowing and all tunnels empty.
    pub fn clean(&self) -> bool {
        self.left.settled()
            && self.right.settled()
            && self.links.iter().all(LinkBox::settled)
            && self.tunnels_empty()
    }

    /// Canonicalize descriptor tags: for each origin, densely renumber the
    /// generations that occur anywhere in the state (order-preserving) and
    /// reset tag-source counters just past them. States differing only by
    /// tag generations then hash identically; the protocol only ever tests
    /// tags for equality, so this quotient is bisimulation-preserving.
    pub fn canonicalize(&mut self) {
        // Pass 1: the distinct tags in use. Sorted, a tag's rank within
        // its origin's run is its canonical generation.
        let mut tags: Vec<DescTag> = Vec::with_capacity(16);
        self.visit_all_tags(&mut |t: &mut DescTag| {
            if !tags.contains(t) {
                tags.push(*t);
            }
        });
        tags.sort_unstable();
        let run_start = |origin: u64| tags.partition_point(|t| t.origin < origin);
        // Pass 2: rewrite tags — unless every generation already is its
        // rank, which is the usual case: most transitions mint no tag and
        // retire none.
        let dense = tags
            .iter()
            .enumerate()
            .all(|(i, t)| t.generation as usize == i - run_start(t.origin));
        if !dense {
            self.visit_all_tags(&mut |t: &mut DescTag| {
                let at = tags.binary_search(t).expect("tag collected in pass 1");
                t.generation = (at - run_start(t.origin)) as u32;
            });
        }
        // Pass 3: reset sources just past the generations in use.
        self.visit_all_sources(&mut |s: &mut TagSource| {
            let used = tags.iter().filter(|t| t.origin == s.origin()).count();
            s.set_generation_counter(used as u32);
        });
    }

    fn visit_all_tags(&mut self, f: &mut dyn FnMut(&mut DescTag)) {
        self.left.visit_tags(f);
        self.right.visit_tags(f);
        for link in &mut self.links {
            link.visit_tags(f);
        }
        for tun in &mut self.tunnels {
            tun.fwd.visit_tags(f);
            tun.bwd.visit_tags(f);
        }
    }

    fn visit_all_sources(&mut self, f: &mut dyn FnMut(&mut TagSource)) {
        self.left.visit_sources(f);
        self.right.visit_sources(f);
        for link in &mut self.links {
            link.visit_sources(f);
        }
    }

    /// The queue `part` names.
    pub(crate) fn queue_mut(&mut self, part: Part) -> &mut VecDeque<Signal> {
        match part {
            Part::Fwd(t) => &mut self.tunnels[t].fwd,
            Part::Bwd(t) => &mut self.tunnels[t].bwd,
            _ => panic!("{part:?} is not a queue"),
        }
    }
}

// The per-component pieces of `PathState::{actions, clean, fully_attached,
// both_closed, both_flowing}`: the search reads a state off its row of
// component ids and evaluates these once per interned component instead.

impl EndBox {
    /// Its slot is closed or flowing.
    pub(crate) fn settled(&self) -> bool {
        slot_ok(&self.slot)
    }

    /// Its goal object is in phase 2.
    pub(crate) fn attached(&self) -> bool {
        matches!(self.mode, EndMode::Phase2 { .. })
    }
}

impl LinkBox {
    /// Both its slots are closed or flowing.
    pub(crate) fn settled(&self) -> bool {
        self.slots.iter().all(slot_ok)
    }

    /// Its flowlink is attached.
    pub(crate) fn attached(&self) -> bool {
        matches!(self.mode, LinkMode::Phase2 { .. })
    }
}

/// A slot a terminal state may leave as it is (§VIII-A).
pub(crate) fn slot_ok(slot: &Slot) -> bool {
    matches!(slot.state(), SlotState::Closed | SlotState::Flowing)
}

/// Push to `out` the actions tunnel `t` enables, given whether a signal
/// waits in each direction (`fwd`, `bwd`) and its counters
/// `[faults_left, lost_fwd, lost_bwd]`.
pub(crate) fn tunnel_actions(
    t: usize,
    waiting: [bool; 2],
    counters: [u8; 3],
    out: &mut Vec<Action>,
) {
    let [faults_left, lost_fwd, lost_bwd] = counters;
    if waiting[0] {
        out.push(Action::DeliverFwd(t));
        if faults_left > 0 {
            out.push(Action::DropFwd(t));
            out.push(Action::DupFwd(t));
        }
    }
    if waiting[1] {
        out.push(Action::DeliverBwd(t));
        if faults_left > 0 {
            out.push(Action::DropBwd(t));
            out.push(Action::DupBwd(t));
        }
    }
    if lost_fwd > 0 {
        out.push(Action::RetransmitFwd(t));
    }
    if lost_bwd > 0 {
        out.push(Action::RetransmitBwd(t));
    }
}

/// Push to `out` the actions `end` enables as the right endpoint or the
/// left one.
pub(crate) fn end_actions(end: &EndBox, right: bool, out: &mut Vec<Action>) {
    match &end.mode {
        EndMode::Phase1 { budget, .. } => {
            if *budget > 0 {
                for op in legal_ops(&end.slot) {
                    out.push(Action::EndNondet { right, op });
                }
            }
            out.push(Action::EndAttach { right });
        }
        EndMode::Phase2 {
            goal,
            modify_budget,
        } => {
            if *modify_budget > 0
                && end.slot.state() == SlotState::Flowing
                && !matches!(goal, EndGoalObj::Close(_))
            {
                out.push(Action::EndModify {
                    right,
                    op: NondetOp::ToggleMuteIn,
                });
                out.push(Action::EndModify {
                    right,
                    op: NondetOp::ToggleMuteOut,
                });
            }
        }
    }
}

/// Push to `out` the actions `link` enables as the flowlink box at `idx`.
pub(crate) fn link_actions(link: &LinkBox, idx: usize, out: &mut Vec<Action>) {
    match &link.mode {
        LinkMode::Phase1 { budget, .. } => {
            if *budget > 0 {
                for side in 0..2 {
                    for op in legal_ops(&link.slots[side]) {
                        if matches!(op, NondetOp::ToggleMuteIn | NondetOp::ToggleMuteOut) {
                            continue; // server slots have nothing to modify
                        }
                        out.push(Action::LinkNondet { idx, side, op });
                    }
                }
            }
            out.push(Action::LinkAttach { idx });
        }
        LinkMode::Phase2 { .. } => {}
    }
}

/// `(bothClosed, bothFlowing)` of a path whose endpoint boxes are `left`
/// and `right`; `bothFlowing` includes mute-flag consistency when both
/// endpoint policies are known (the full §V definition).
pub(crate) fn end_pair_flags(left: &EndBox, right: &EndBox) -> (bool, bool) {
    let ends = PathEnds::new(&left.slot, &right.slot);
    let flowing = ends.both_flowing()
        && match (end_mutes(left), end_mutes(right)) {
            (Some((li, lo)), Some((ri, ro))) => ends.both_flowing_with_mutes(li, lo, ri, ro),
            _ => true,
        };
    (ends.both_closed(), flowing)
}

fn end_mutes(end: &EndBox) -> Option<(bool, bool)> {
    match &end.mode {
        EndMode::Phase1 { agent, .. } => {
            let p = agent.policy();
            Some((p.mute_in, p.mute_out))
        }
        EndMode::Phase2 { goal, .. } => match goal {
            EndGoalObj::Open(g) => policy_mutes(g.policy()),
            EndGoalObj::Hold(g) => policy_mutes(g.policy()),
            EndGoalObj::Close(_) => None,
        },
    }
}

fn policy_mutes(p: &Policy) -> Option<(bool, bool)> {
    match p {
        Policy::Endpoint(e) => Some((e.mute_in, e.mute_out)),
        Policy::Server => Some((true, true)),
    }
}

/// Requests are retransmitted by their sender; responses are recovered by
/// the requester re-requesting (the receiver re-answers from cache).
fn is_request(sig: &Signal) -> bool {
    matches!(
        sig,
        Signal::Open { .. } | Signal::Close | Signal::Describe { .. }
    )
}

/// Legal nondeterministic user actions in a slot state, derived from the
/// protocol send table (`SlotState::legal_sends`) so the checker and the
/// slot implementation share one source of truth. `Select`/`Describe` are
/// driven by policy changes rather than explored directly, so they map to
/// the mute-toggle ops instead.
fn legal_ops(slot: &Slot) -> Vec<NondetOp> {
    let state = slot.state();
    let mut ops: Vec<NondetOp> = state
        .legal_sends()
        .filter_map(|action| match action {
            SlotAction::Open => Some(NondetOp::Open),
            SlotAction::Accept => Some(NondetOp::Accept),
            SlotAction::Close => Some(NondetOp::Close),
            SlotAction::Select | SlotAction::Describe => None,
        })
        .collect();
    if state == SlotState::Flowing {
        ops.push(NondetOp::ToggleMuteIn);
        ops.push(NondetOp::ToggleMuteOut);
    }
    ops
}

fn op_to_cmd(op: NondetOp, agent: &UserAgent) -> UserCmd {
    let p = agent.policy();
    match op {
        NondetOp::Open => UserCmd::Open(Medium::Audio),
        NondetOp::Accept => UserCmd::Accept,
        NondetOp::Close => UserCmd::Close,
        NondetOp::ToggleMuteIn => UserCmd::Modify {
            mute_in: !p.mute_in,
            mute_out: p.mute_out,
        },
        NondetOp::ToggleMuteOut => UserCmd::Modify {
            mute_in: p.mute_in,
            mute_out: !p.mute_out,
        },
    }
}

fn flipped(p: &Policy, op: NondetOp) -> Policy {
    let Policy::Endpoint(e) = p else {
        panic!("endpoint goals carry endpoint policies");
    };
    let mut e = e.clone();
    match op {
        NondetOp::ToggleMuteIn => e.mute_in = !e.mute_in,
        NondetOp::ToggleMuteOut => e.mute_out = !e.mute_out,
        _ => panic!("modify is a mute toggle"),
    }
    Policy::Endpoint(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg0() -> CheckConfig {
        CheckConfig::standard(0, EndGoal::Open, EndGoal::Hold)
    }

    #[test]
    fn initial_state_is_clean_and_closed() {
        let s = PathState::initial(&cfg0());
        assert!(s.both_closed());
        assert!(s.clean());
        assert!(!s.fully_attached());
    }

    #[test]
    fn attach_open_end_emits_open() {
        let cfg = cfg0();
        let s = PathState::initial(&cfg);
        let s2 = s.apply(&cfg, Action::EndAttach { right: false });
        assert_eq!(s2.tunnels[0].fwd.len(), 1);
        assert!(matches!(s2.tunnels[0].fwd[0], Signal::Open { .. }));
        assert!(matches!(s2.left.mode, EndMode::Phase2 { .. }));
    }

    #[test]
    fn full_delivery_converges_open_hold() {
        // Drive the path deterministically: attach both, then deliver
        // everything; must reach bothFlowing.
        let cfg = cfg0();
        let mut s = PathState::initial(&cfg);
        s = s.apply(&cfg, Action::EndAttach { right: false });
        s = s.apply(&cfg, Action::EndAttach { right: true });
        for _ in 0..32 {
            let acts: Vec<_> = s
                .actions(&cfg)
                .into_iter()
                .filter(|a| matches!(a, Action::DeliverFwd(_) | Action::DeliverBwd(_)))
                .collect();
            if acts.is_empty() {
                break;
            }
            s = s.apply(&cfg, acts[0]);
        }
        assert!(s.tunnels_empty());
        assert!(s.both_flowing(), "open–hold converges to bothFlowing");
        assert!(s.clean());
    }

    #[test]
    fn canonicalization_collapses_reopen_loop() {
        // closeSlot vs openSlot: the open → reject → reopen loop must
        // revisit a canonical state rather than diverging.
        let cfg = CheckConfig::standard(0, EndGoal::Open, EndGoal::Close);
        let mut s = PathState::initial(&cfg);
        s = s.apply(&cfg, Action::EndAttach { right: false });
        s = s.apply(&cfg, Action::EndAttach { right: true });
        // Same interner the exploration engine uses for its seen-set.
        let mut seen = crate::explore::SeenSet::new();
        let mut looped = false;
        for _ in 0..64 {
            let (_, fresh) = seen.insert(s.clone());
            if !fresh {
                looped = true;
                break;
            }
            let acts: Vec<_> = s
                .actions(&cfg)
                .into_iter()
                .filter(|a| matches!(a, Action::DeliverFwd(_) | Action::DeliverBwd(_)))
                .collect();
            if acts.is_empty() {
                break;
            }
            s = s.apply(&cfg, acts[0]);
        }
        assert!(looped, "reopen loop must revisit a canonical state");
    }

    #[test]
    fn canonicalize_renumbers_sparse_generations_in_order() {
        // Along a walk with a mid-call modify (so one origin has several
        // generations alive at once), spread every state's generations out
        // order-preservingly and advance its sources: canonicalizing must
        // give back the canonical state the walk produced.
        let cfg = CheckConfig::standard(1, EndGoal::Open, EndGoal::Hold);
        let mut s = PathState::initial(&cfg);
        let mut several_generations = false;
        for step in 0..64 {
            let mut sparse = s.clone();
            sparse.visit_all_tags(&mut |t: &mut DescTag| {
                several_generations |= t.generation > 0;
                t.generation = 3 * t.generation + 5;
            });
            sparse.visit_all_sources(&mut |src: &mut TagSource| src.set_generation_counter(40));
            sparse.canonicalize();
            assert_eq!(sparse, s, "step {step}");
            let actions = s.actions(&cfg);
            let Some(&first) = actions.first() else {
                break;
            };
            // Prefer a modify when one is enabled, else the first action.
            let modify = actions
                .iter()
                .copied()
                .find(|a| matches!(a, Action::EndModify { .. }));
            s = s.apply(&cfg, modify.unwrap_or(first));
        }
        assert!(several_generations, "the walk never had two live tags");
    }

    #[test]
    fn one_link_path_converges() {
        let cfg = CheckConfig::standard(1, EndGoal::Open, EndGoal::Hold);
        let mut s = PathState::initial(&cfg);
        s = s.apply(&cfg, Action::EndAttach { right: false });
        s = s.apply(&cfg, Action::LinkAttach { idx: 0 });
        s = s.apply(&cfg, Action::EndAttach { right: true });
        for _ in 0..64 {
            let acts: Vec<_> = s
                .actions(&cfg)
                .into_iter()
                .filter(|a| matches!(a, Action::DeliverFwd(_) | Action::DeliverBwd(_)))
                .collect();
            if acts.is_empty() {
                break;
            }
            s = s.apply(&cfg, acts[0]);
        }
        assert!(s.tunnels_empty(), "path must quiesce");
        assert!(s.both_flowing(), "open–hold with one flowlink converges");
    }

    #[test]
    fn modify_budget_perturbs_and_reconverges() {
        let cfg = cfg0();
        let mut s = PathState::initial(&cfg);
        s = s.apply(&cfg, Action::EndAttach { right: false });
        s = s.apply(&cfg, Action::EndAttach { right: true });
        loop {
            let acts: Vec<_> = s
                .actions(&cfg)
                .into_iter()
                .filter(|a| matches!(a, Action::DeliverFwd(_) | Action::DeliverBwd(_)))
                .collect();
            if acts.is_empty() {
                break;
            }
            s = s.apply(&cfg, acts[0]);
        }
        assert!(s.both_flowing());
        // Perturb: left toggles muteOut.
        s = s.apply(
            &cfg,
            Action::EndModify {
                right: false,
                op: NondetOp::ToggleMuteOut,
            },
        );
        assert!(!s.both_flowing(), "mid-modify the path leaves bothFlowing");
        loop {
            let acts: Vec<_> = s
                .actions(&cfg)
                .into_iter()
                .filter(|a| matches!(a, Action::DeliverFwd(_) | Action::DeliverBwd(_)))
                .collect();
            if acts.is_empty() {
                break;
            }
            s = s.apply(&cfg, acts[0]);
        }
        assert!(
            s.both_flowing(),
            "after the modify round-trip the path recurs to bothFlowing \
             (muted direction disabled, consistently with the flags)"
        );
    }
}
