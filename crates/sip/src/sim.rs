//! A miniature discrete-event simulator for the SIP baseline, with the
//! same timing model as `ipmedia-netsim` and on the same event queue
//! ([`EventQueue`]): per-message network latency *n*, per-stimulus compute
//! cost *c*, serial processing per node. The nodes are separate because
//! the baseline speaks [`SipMsg`]s rather than the paper's protocol; the
//! timing semantics are identical so latency comparisons are
//! apples-to-apples.

use crate::msg::SipMsg;
use ipmedia_netsim::{EventQueue, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

pub type NodeId = usize;

/// What a node asks the simulator to do.
pub enum SipOut {
    Send { dialog: u32, msg: SipMsg },
    Timer { id: u32, after_ms: u64 },
}

/// Context handed to node callbacks.
pub struct SipCtx<'a> {
    pub(crate) out: Vec<SipOut>,
    rng: &'a mut StdRng,
    now: SimTime,
}

impl<'a> SipCtx<'a> {
    pub fn send(&mut self, dialog: u32, msg: SipMsg) {
        self.out.push(SipOut::Send { dialog, msg });
    }

    pub fn set_timer(&mut self, id: u32, after_ms: u64) {
        self.out.push(SipOut::Timer { id, after_ms });
    }

    /// A uniformly random delay in `[lo, hi]` milliseconds (seeded;
    /// deterministic per run).
    pub fn rand_ms(&mut self, lo: u64, hi: u64) -> u64 {
        self.rng.random_range(lo..=hi)
    }

    pub fn now(&self) -> SimTime {
        self.now
    }
}

/// A SIP node: endpoint user agent or B2BUA server.
pub trait SipNode: Send {
    fn on_start(&mut self, _ctx: &mut SipCtx<'_>) {}
    fn on_msg(&mut self, dialog: u32, msg: SipMsg, ctx: &mut SipCtx<'_>);
    fn on_timer(&mut self, _id: u32, _ctx: &mut SipCtx<'_>) {}
}

enum Ev {
    Deliver {
        to: NodeId,
        dialog: u32,
        msg: SipMsg,
    },
    Timer {
        to: NodeId,
        id: u32,
    },
    Start {
        to: NodeId,
    },
}

/// The SIP network simulator.
pub struct SipNet {
    net_latency: SimDuration,
    compute_cost: SimDuration,
    nodes: Vec<Box<dyn SipNode>>,
    busy_until: Vec<SimTime>,
    links: HashMap<(NodeId, u32), (NodeId, u32)>,
    events: EventQueue<Ev>,
    now: SimTime,
    rng: StdRng,
    /// Count of delivered messages by kind, for the protocol-cost table.
    pub msg_counts: HashMap<&'static str, u64>,
}

impl SipNet {
    pub fn new(net_latency: SimDuration, compute_cost: SimDuration, seed: u64) -> Self {
        Self {
            net_latency,
            compute_cost,
            nodes: Vec::new(),
            busy_until: Vec::new(),
            links: HashMap::new(),
            events: EventQueue::default(),
            now: SimTime::ZERO,
            rng: StdRng::seed_from_u64(seed),
            msg_counts: HashMap::new(),
        }
    }

    /// The paper's calibration: n = 34 ms, c = 20 ms.
    pub fn paper(seed: u64) -> Self {
        Self::new(
            SimDuration::from_millis(34),
            SimDuration::from_millis(20),
            seed,
        )
    }

    pub fn add_node(&mut self, node: Box<dyn SipNode>) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(node);
        self.busy_until.push(SimTime::ZERO);
        self.events.push(self.now, Ev::Start { to: id });
        id
    }

    /// Connect dialog `da` at node `a` to dialog `db` at node `b`.
    pub fn link(&mut self, a: NodeId, da: u32, b: NodeId, db: u32) {
        self.links.insert((a, da), (b, db));
        self.links.insert((b, db), (a, da));
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn total_messages(&self) -> u64 {
        self.msg_counts.values().sum()
    }

    fn dispatch(&mut self, to: NodeId, f: impl FnOnce(&mut dyn SipNode, &mut SipCtx<'_>)) {
        let start = self.now.max(self.busy_until[to]);
        let done = start + self.compute_cost;
        self.busy_until[to] = done;
        let mut ctx = SipCtx {
            out: Vec::new(),
            rng: &mut self.rng,
            now: self.now,
        };
        f(self.nodes[to].as_mut(), &mut ctx);
        let out = ctx.out;
        for o in out {
            match o {
                SipOut::Send { dialog, msg } => {
                    if let Some(&(peer, pd)) = self.links.get(&(to, dialog)) {
                        self.events.push(
                            done + self.net_latency,
                            Ev::Deliver {
                                to: peer,
                                dialog: pd,
                                msg,
                            },
                        );
                    }
                }
                SipOut::Timer { id, after_ms } => {
                    self.events.push(
                        done + SimDuration::from_millis(after_ms),
                        Ev::Timer { to, id },
                    );
                }
            }
        }
    }

    pub fn step(&mut self) -> bool {
        let Some((at, ev)) = self.events.pop() else {
            return false;
        };
        self.now = at;
        match ev {
            Ev::Start { to } => self.dispatch(to, |n, ctx| n.on_start(ctx)),
            Ev::Timer { to, id } => self.dispatch(to, |n, ctx| n.on_timer(id, ctx)),
            Ev::Deliver { to, dialog, msg } => {
                *self.msg_counts.entry(msg.kind()).or_insert(0) += 1;
                self.dispatch(to, |n, ctx| n.on_msg(dialog, msg, ctx));
            }
        }
        true
    }

    /// Run until the queue empties or `max` is passed; returns final time.
    pub fn run_until_quiescent(&mut self, max: SimTime) -> SimTime {
        while self.events.next_at().is_some_and(|at| at <= max) {
            self.step();
        }
        self.now
    }

    /// Run until `pred()` holds; the predicate typically reads shared
    /// state published by the nodes. Returns true iff it held.
    pub fn run_until(&mut self, max: SimTime, mut pred: impl FnMut() -> bool) -> bool {
        loop {
            if pred() {
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

    /// Completion instant of the node's in-progress computation.
    pub fn busy_until(&self, node: NodeId) -> SimTime {
        self.busy_until[node]
    }
}
