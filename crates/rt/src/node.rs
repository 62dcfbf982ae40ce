//! Running a media-control box as a tokio task with real TCP signaling
//! channels.
//!
//! Each box is one asynchronous actor with one input queue (§VIII-C): an
//! accept loop admits incoming connections, and it, the per-transport
//! reader tasks, the connect tasks and the node's [`NodeHandle`] all feed
//! a single bounded inbox. The actor awaits only that inbox, bounded by
//! its next timer (never a connect), and applies what it reads, in
//! arrival order, to its
//! [`ProgramBox`](ipmedia_core::program::ProgramBox) — the same
//! sans-IO state machines the simulator and the model checker drive.
//!
//! Every channel a node dials to one peer rides one TCP connection, the
//! *transport*, and each frame on it is tagged with its channel (the
//! dialer's channel id): a channel is *bound* to a transport by its
//! `Hello` and leaves it by its `Bye`, and the socket closes with the
//! last channel bound to it. A transport fails whole, as a TCP
//! connection does: every channel bound to it loses its connection, and
//! the dialer re-dials the connection once for all of them.
//! All I/O is non-blocking; per-transport writer tasks apply
//! backpressure via bounded channels — an actor whose writer queue is
//! full waits for room, for at most the send timeout, and never discards
//! a frame; shutdown applies what was queued before it, then closes every
//! channel with an orderly `Bye` frame.

use crate::chaos::ChaosGate;
use crate::frame::Framed;
use crate::wire::{self, Frame, Hello};
use ipmedia_core::goal::UserCmd;
use ipmedia_core::host::{Arrival, Buffers, Effect, Input, NodeHost};
use ipmedia_core::ids::{ChannelId, SlotId};
use ipmedia_core::link::{jitter_seed, Command, Event, Link, ReconnectPolicy};
use ipmedia_core::program::{AppLogic, BoxInput, TimerId};
use ipmedia_core::signal::ChannelMsg;
use ipmedia_core::slot::Slot;
use ipmedia_core::{BoxId, Codec, MediaAddr, SlotState};
use ipmedia_obs::metrics::{CountingObserver, Registry};
use ipmedia_obs::trace::{SpanCtx, Tracer};
use ipmedia_obs::{Fanout, NoopObserver, ObsEvent, Observer};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::{mpsc, watch};
use tokio::task::JoinHandle;
use tokio::time::{timeout, timeout_at, Duration, Instant};

/// Inbox inputs of any kind applied per actor wakeup before the snapshot
/// publish. A publish costs what the inputs touched, but each one wakes
/// whoever waits on the snapshot (a futex wake of a parked thread):
/// paying that per frame cost ×0.89 on `rt_waves`, 64 ahead in 9 of 10
/// pairs; per user command, ×0.93, ahead in 4 of 5.
const INBOX_BATCH: usize = 64;

/// Frames a transport writer folds into one buffered write and flush:
/// +4…+8 % on `rt_waves` in each of the three pairings measured.
const WRITER_BATCH: usize = 32;

// Shell: `benchmark/` still names it; the re-baseline PR deletes it.
#[doc(hidden)]
#[derive(Default)]
pub struct NodeTuning;

/// Name → socket address registry (a stand-in for the configuration layer
/// the paper scopes out, §III-A).
#[derive(Debug, Clone, Default)]
pub struct Directory {
    inner: Arc<Mutex<HashMap<String, SocketAddr>>>,
}

impl Directory {
    pub fn new() -> Self {
        Self::default()
    }

    /// Lock the table, recovering from poisoning. Every method is a
    /// single `HashMap` operation, so a task that panicked while holding
    /// the lock cannot have left the table half-updated — but before this
    /// recovery, the `PoisonError` unwrap turned one panicked task into a
    /// directory that panicked *every* node touching it during a crash
    /// storm.
    fn table(&self) -> std::sync::MutexGuard<'_, HashMap<String, SocketAddr>> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub fn register(&self, name: impl Into<String>, addr: SocketAddr) {
        self.table().insert(name.into(), addr);
    }

    pub fn lookup(&self, name: &str) -> Option<SocketAddr> {
        self.table().get(name).copied()
    }

    /// Remove `name` only while it still maps to `addr`. A restarted
    /// instance re-registers under the same name at a fresh address, and
    /// the dead instance's late cleanup (or a stale handle's shutdown)
    /// must not clobber the replacement's binding.
    pub fn deregister(&self, name: &str, addr: SocketAddr) {
        let mut t = self.table();
        if t.get(name) == Some(&addr) {
            t.remove(name);
        }
    }
}

/// Observable state of one slot, published after every actor iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotSnapshot {
    pub slot: SlotId,
    pub state: SlotState,
    pub tx_route: Option<(MediaAddr, Codec)>,
}

impl SlotSnapshot {
    fn of(slot: SlotId, s: &Slot) -> Self {
        SlotSnapshot {
            slot,
            state: s.state(),
            tx_route: s.tx_route(),
        }
    }
}

/// Observable state of the node's slots and channels. Its counters and
/// histograms are not copied here: they are read from
/// [`NodeHandle::registry`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeSnapshot {
    pub slots: Vec<SlotSnapshot>,
    pub channels: usize,
    /// Channels whose connection died and are being re-dialed; their
    /// slots are parked (state retained) until recovery or give-up.
    pub recovering: usize,
}

/// Control handle for a running node. Its commands go into the node's one
/// inbox behind whatever is already queued there, so they are applied in
/// the order they were sent, interleaved with frames in arrival order.
///
/// Dropping the handle detaches the node, as dropping a tokio
/// `JoinHandle` detaches its task: the node keeps serving its channels
/// and, once they are quiet, sits idle at no CPU cost. [`shutdown`] and
/// [`abort`] are the ways to stop it.
///
/// [`shutdown`]: NodeHandle::shutdown
/// [`abort`]: NodeHandle::abort
pub struct NodeHandle {
    pub name: String,
    /// Local listener address (register it in the [`Directory`]).
    pub addr: SocketAddr,
    inbox_tx: mpsc::Sender<Inbox>,
    pub snapshot: watch::Receiver<NodeSnapshot>,
    registry: Arc<Registry>,
    join: JoinHandle<()>,
    accept_join: JoinHandle<()>,
}

impl NodeHandle {
    /// Issue a user command on a slot (Fig. 5 user events).
    pub async fn user(&self, slot: SlotId, cmd: UserCmd) {
        let msg = Inbox::User { slot, cmd };
        self.inbox_tx.send(msg).await.expect("node alive");
    }

    /// Inject an application input (meta-signals from local features).
    pub async fn inject(&self, input: BoxInput) {
        let msg = Inbox::Inject(input);
        self.inbox_tx.send(msg).await.expect("node alive");
    }

    /// Gracefully shut the node down: apply every command sent before
    /// this one, then `Bye` on all channels, release the directory entry
    /// and exit.
    pub async fn shutdown(self) {
        let _ = self.inbox_tx.send(Inbox::Shutdown).await;
        let _ = self.join.await;
        self.accept_join.abort();
    }

    /// Simulate a process crash: kill the actor and its accept loop
    /// immediately — no `Bye` frames, no directory cleanup — leaving
    /// exactly the stale state a real crash would (the name still
    /// resolves to the dead address). Restart by spawning a fresh node
    /// under the same name: it re-registers, and reconnecting peers pick
    /// up the new address because they re-resolve on every redial.
    pub fn abort(self) {
        self.join.abort();
        self.accept_join.abort();
    }

    /// The node's metrics registry, live and shared with the actor: its
    /// counters and histograms since spawn, and the one place they are
    /// read from.
    pub fn registry(&self) -> Arc<Registry> {
        self.registry.clone()
    }

    /// Wait until the published snapshot satisfies `pred` (with timeout).
    pub async fn wait_for(
        &mut self,
        timeout: Duration,
        mut pred: impl FnMut(&NodeSnapshot) -> bool,
    ) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if pred(&self.snapshot.borrow()) {
                return true;
            }
            let Ok(Ok(())) = timeout_at(deadline, self.snapshot.changed()).await else {
                return false;
            };
        }
    }
}

enum Inbox {
    /// A frame of the channel tagged `tag` arrived on a transport.
    Net {
        transport: u32,
        tag: u32,
        frame: Frame,
    },
    /// A connection was accepted and sent its first hello, for the
    /// channel tagged `tag`.
    Accepted {
        tag: u32,
        hello: Hello,
        framed: Framed<TcpStream>,
    },
    /// A transport died.
    Gone { transport: u32 },
    /// A connect to the box named `to` is over: the connection, or `None`
    /// when it failed.
    Connected {
        to: String,
        stream: Option<TcpStream>,
    },
    /// [`NodeHandle::user`].
    User { slot: SlotId, cmd: UserCmd },
    /// [`NodeHandle::inject`].
    Inject(BoxInput),
    /// [`NodeHandle::shutdown`]: everything queued before it is applied.
    Shutdown,
}

/// One channel and the transport it is bound to.
struct Conn {
    /// The far end's name: the box dialed, or the hello's `from`. Chaos
    /// gating keys on it, and a dialed channel rides the connection to it.
    peer: String,
    /// The channel's tunnels, said in every hello.
    tunnels: u16,
    /// The channel's tag on its transports: the dialer's channel id.
    tag: u32,
    /// The transport carrying the channel; `None` while its connection is
    /// dialed or re-dialed, and on a half-open channel.
    transport: Option<u32>,
    /// The channel rides the connection this node dials to `peer`: with
    /// no transport, it is parked, waiting for the connection.
    dialed: bool,
    /// A first dial not over yet: the box's request tag, and when it
    /// asked. The channel is not the box's until then.
    dial: Option<(u32, u64)>,
}

/// One TCP connection and the channels bound to it.
struct Transport {
    /// The box this node dialed, or `None` on a connection it accepted.
    dialed: Option<String>,
    /// The writer task's input queue.
    writer: mpsc::Sender<(u32, Frame)>,
    /// Channel tag → channel, for every channel bound to the transport.
    /// Ordered, so the channels a dead transport leaves hear of it in tag
    /// order.
    channels: BTreeMap<u32, ChannelId>,
}

/// What the actor learned while applying an input, acted on before the
/// next one.
enum News {
    /// Tell the lifecycle of the connection to the box named.
    Link(String, Event),
    /// A first dial to a live connection said hello: its channel opens.
    Opened(ChannelId),
    /// A channel is over: its connection went for good, or a `Hello`
    /// took its tag.
    Down(ChannelId),
}

/// A wakeup of the actor: a box timer, or a connection's delayed attempt.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Wake {
    Timer(TimerId, u64),
    Attempt(String),
}

/// What a node runs with besides its box. Every field has a default, so a
/// spawner names only what it changes:
/// `NodeOptions { policy, ..NodeOptions::default() }`.
pub struct NodeOptions {
    pub policy: ReconnectPolicy,
    /// Receives every observation after the node's [`Registry`] counted
    /// it, to record, export or forward the stream. Default: none.
    pub observer: Box<dyn Observer + Send>,
    /// Causal tracing: every stimulus the node processes becomes a span,
    /// outgoing signaling frames carry the trace context on the wire
    /// ([`Frame::Traced`]), and incoming traced frames link the local spans
    /// into the sender's call trace. Untraced peers interoperate (they
    /// see and send plain [`Frame::Msg`]). Nodes that share a span sink
    /// must share the tracer's clock too, or their spans sit on different
    /// timelines. Default: off.
    pub tracer: Option<Tracer>,
    /// Consulted on every outgoing frame and every (re)dial, so the node
    /// takes part in orchestrated fault schedules. A gate-blocked frame
    /// declares its transport dead (the runtime analogue of a partition
    /// killing TCP): every channel on it loses its connection, and the far
    /// end reads end of stream. Redials stay blocked until the gate heals,
    /// and recovery then rides the ordinary redial and §VI resync.
    /// Default: none.
    pub gate: Option<Arc<ChaosGate>>,
}

impl Default for NodeOptions {
    fn default() -> Self {
        NodeOptions {
            policy: ReconnectPolicy::default(),
            observer: Box::new(NoopObserver),
            tracer: None,
            gate: None,
        }
    }
}

// Shell: `benchmark/` still calls it; the re-baseline PR deletes it.
#[doc(hidden)]
pub async fn spawn_node_tuned(
    name: impl Into<String>,
    box_id: BoxId,
    logic: Box<dyn AppLogic>,
    dir: Directory,
    policy: ReconnectPolicy,
    observer: Box<dyn Observer + Send>,
    _tuning: NodeTuning,
) -> std::io::Result<NodeHandle> {
    let opts = NodeOptions {
        policy,
        observer,
        ..NodeOptions::default()
    };
    spawn_node(name, box_id, logic, dir, opts).await
}

/// Spawn a node: bind a listener, register it in `dir`, run the actor,
/// return its handle.
pub async fn spawn_node(
    name: impl Into<String>,
    box_id: BoxId,
    logic: Box<dyn AppLogic>,
    dir: Directory,
    opts: NodeOptions,
) -> std::io::Result<NodeHandle> {
    let NodeOptions {
        policy,
        observer,
        tracer,
        gate,
    } = opts;
    let name = name.into();
    let listener = TcpListener::bind("127.0.0.1:0").await?;
    let addr = listener.local_addr()?;
    dir.register(name.clone(), addr);

    let (snap_tx, snapshot) = watch::channel(NodeSnapshot::default());
    let registry = Arc::new(Registry::new());
    let obs: Box<dyn Observer + Send> = match &tracer {
        Some(t) => Box::new(Fanout(
            t.observer(),
            Fanout(CountingObserver::new(registry.clone()), observer),
        )),
        None => Box::new(Fanout(CountingObserver::new(registry.clone()), observer)),
    };
    let log = SlotLog {
        touched: Vec::new(),
        opening: HashMap::new(),
        registry: registry.clone(),
    };

    // One queue for every input, the handle's included: per-channel FIFO
    // (what §VI resync and the Bye protocol rely on) is global FIFO.
    let (inbox_tx, inbox_rx) = mpsc::channel::<Inbox>(256);

    // Accept loop: read the first hello off the main loop so a slow
    // opener cannot stall signal processing, and bound it by the send
    // timeout so a silent one cannot hold a task and a socket for good.
    // Owned by the handle (not the actor) so a crash-aborted node releases
    // its listener socket.
    let accept_tx = inbox_tx.clone();
    let accept_join = tokio::spawn(async move {
        loop {
            let Ok((socket, _)) = listener.accept().await else {
                break;
            };
            let tx = accept_tx.clone();
            tokio::spawn(async move {
                socket.set_nodelay(true).ok();
                let mut framed = Framed::new(socket);
                if let Ok(Ok(Some(bytes))) = timeout(policy.send_timeout, framed.read_frame()).await
                {
                    if let Ok((tag, Frame::Hello(hello))) = wire::decode_tagged(bytes) {
                        let _ = tx.send(Inbox::Accepted { tag, hello, framed }).await;
                    }
                }
            });
        }
    });

    let actor = Actor {
        name: name.clone(),
        addr,
        host: NodeHost::new(box_id, logic),
        dir,
        conns: HashMap::new(),
        next_channel: 0,
        transports: HashMap::new(),
        next_transport: 0,
        links: HashMap::new(),
        policy,
        timers: BinaryHeap::new(),
        snap_tx,
        slots_changed: true,
        fresh: Vec::new(),
        obs: Fanout(log, obs),
        registry: registry.clone(),
        tracer,
        gate,
        inbox_tx: inbox_tx.clone(),
        started: Instant::now(),
        buffers: Buffers::default(),
        news: VecDeque::new(),
    };
    let join = tokio::spawn(actor.run(inbox_rx));

    Ok(NodeHandle {
        name,
        addr,
        inbox_tx,
        snapshot,
        registry,
        join,
        accept_join,
    })
}

/// The slots the box sent a signal from or received one on since the last
/// publish, one entry per signal and in order. That is every way a slot's
/// `(state, tx_route)` changes: the slot FSM moves only in `on_signal`
/// and in the `send_*` actions, each of which yields a signal to transmit,
/// so a transition adds nothing to the two (and a mid-call re-describe or
/// re-select moves `tx_route` with no transition at all). A transition is
/// instead where a call's instants are events, not something polled out
/// of a coalesced snapshot: `call_setup_us` is observed here.
struct SlotLog {
    touched: Vec<SlotId>,
    /// When each slot now in `opening` entered it.
    opening: HashMap<SlotId, std::time::Instant>,
    registry: Arc<Registry>,
}

impl Observer for SlotLog {
    fn observe(&mut self, ev: ObsEvent) {
        match ev {
            ObsEvent::SignalSent { slot, .. } | ObsEvent::SignalReceived { slot, .. } => {
                self.touched.push(SlotId(slot));
            }
            ObsEvent::SlotTransition { slot, from, to, .. } => {
                if to == SlotState::Opening.name() {
                    self.opening.insert(SlotId(slot), std::time::Instant::now());
                } else if from == SlotState::Opening.name() {
                    let since = self.opening.remove(&SlotId(slot));
                    if let Some(since) = since.filter(|_| to == SlotState::Flowing.name()) {
                        let us = since.elapsed().as_micros() as u64;
                        self.registry.call_setup_us.observe(us);
                    }
                }
            }
            _ => {}
        }
    }
}

struct Actor {
    name: String,
    /// Listener address, for addr-guarded directory cleanup on shutdown.
    addr: SocketAddr,
    /// The box and its sans-IO environment; everything below turns its
    /// effects into socket traffic and socket traffic into its inputs.
    host: NodeHost,
    dir: Directory,
    conns: HashMap<ChannelId, Conn>,
    next_channel: u32,
    transports: HashMap<u32, Transport>,
    next_transport: u32,
    /// The lifecycle of the connection to each box this node dials, by
    /// the box's name; the connection's live transport is the one that
    /// names the box as `dialed`.
    links: HashMap<String, Link>,
    policy: ReconnectPolicy,
    /// Wakeups the host and the connections' attempts asked for, earliest
    /// first. The host drops the stale ones (restarted or cancelled
    /// timers) when they come due.
    timers: BinaryHeap<Reverse<(Instant, Wake)>>,
    snap_tx: watch::Sender<NodeSnapshot>,
    /// The slot *set* changed since the last publish (a channel came or
    /// went): the next one rebuilds every entry instead of folding.
    slots_changed: bool,
    /// The entries a publish is about to write, then the ones it
    /// replaced; kept for its capacity.
    fresh: Vec<SlotSnapshot>,
    /// Unified event sink: the slot log, then metrics counting fanned out
    /// with any observer the spawner supplied.
    obs: Fanout<SlotLog, Box<dyn Observer + Send>>,
    registry: Arc<Registry>,
    /// [`NodeOptions::tracer`].
    tracer: Option<Tracer>,
    /// [`NodeOptions::gate`].
    gate: Option<Arc<ChaosGate>>,
    inbox_tx: mpsc::Sender<Inbox>,
    /// The origin of the milliseconds the connections' lifecycles read.
    started: Instant,
    /// Lent to every host call and drained right after.
    buffers: Buffers,
    /// What the actor itself learned about connections and channels
    /// while applying an input (an attempt the gate blocked, a transport
    /// it declared dead, a dial to a live connection), acted on before the
    /// next input. It does not go through the inbox: the actor is its only
    /// consumer, so awaiting room in it would wait on itself.
    news: VecDeque<News>,
}

impl Actor {
    /// Reads the inbox until an [`Inbox::Shutdown`]. The actor holds a
    /// sender to it, so it never closes: with its handle dropped, the node
    /// waits on it at no cost for as long as the process lives.
    async fn run(mut self, mut inbox_rx: mpsc::Receiver<Inbox>) {
        self.feed(Input::Inject(BoxInput::Start), None).await;
        self.settle().await;

        'run: loop {
            // Due wakeups first: a wait on the inbox that always finds an
            // input never times out.
            self.fire_due_timers().await;
            self.publish();
            let next_due = self.timers.peek().map(|Reverse((due, _))| *due);
            let msg = match next_due {
                Some(due) => timeout_at(due, inbox_rx.recv()).await,
                None => Ok(inbox_rx.recv().await),
            };
            let Ok(msg) = msg else {
                continue;
            };
            if !self.on_inbox(msg.expect("the actor holds a sender")).await {
                break;
            }
            // Apply what else is already queued before paying for the
            // snapshot publish.
            for _ in 1..INBOX_BATCH {
                let Ok(msg) = inbox_rx.try_recv() else {
                    break;
                };
                if !self.on_inbox(msg).await {
                    break 'run;
                }
            }
        }

        // Graceful shutdown: orderly Bye on every channel, then release
        // the directory entry — guarded by address, so a replacement
        // instance that already re-registered keeps its fresh binding.
        // The sockets close as the writers drain.
        let channels: Vec<_> = self.conns.keys().copied().collect();
        for channel in channels {
            self.bye(channel).await;
        }
        self.dir.deregister(&self.name, self.addr);
    }

    /// Feed one input to the host and execute its effects. `cause` is the
    /// trace context the input arrived with, if any.
    async fn feed(&mut self, input: Input, cause: Option<SpanCtx>) {
        let ctx = self.apply(input, cause);
        let mut effects = std::mem::take(&mut self.buffers.effects);
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { channel, msg } => self.transmit(channel, msg, ctx).await,
                Effect::Dial { to, tunnels, req } => self.dial(to, tunnels, req).await,
                Effect::Hangup { channel } => {
                    // Local teardown is immediate; the peer acts on Bye.
                    self.slots_changed = true;
                    self.bye(channel).await;
                    self.conns.remove(&channel);
                }
                Effect::ArmTimer { id, gen, after_ms } => {
                    let due = Instant::now() + Duration::from_millis(after_ms);
                    self.timers.push(Reverse((due, Wake::Timer(id, gen))));
                }
                // The actor stays alive to drain signaling.
                Effect::Terminated => {}
            }
        }
        self.buffers.effects = effects;
    }

    /// One host call: stamps the arrival with the tracer's clock, times
    /// the synchronous compute cost into `stimulus_compute_us`, and
    /// reports a rejected user command instead of losing it. Returns the
    /// trace context the resulting frames carry.
    fn apply(&mut self, input: Input, cause: Option<SpanCtx>) -> Option<SpanCtx> {
        let now = self.tracer.as_ref().map_or(0, Tracer::now_micros);
        let at = Arrival {
            cause,
            from: cause.map(|c| c.bx),
            arrived_micros: now,
            start_micros: now,
            done_micros: now,
        };
        let t0 = std::time::Instant::now();
        let result = self.host.handle(
            input,
            &at,
            &mut self.obs,
            self.tracer.as_ref(),
            &mut self.buffers,
        );
        // Every stimulus is timed, including a user command that ends up
        // rejected; inputs the host dropped are not stimuli.
        if result.as_ref().map_or(true, |o| o.activated) {
            self.registry
                .stimulus_compute_us
                .observe(t0.elapsed().as_micros() as u64);
        }
        match result {
            Ok(outcome) => outcome.ctx,
            Err(rejected) => {
                let bx = self.host.id().0;
                self.obs
                    .signal_ignored(bx, rejected.slot.0, "user_rejected");
                None
            }
        }
    }

    /// Publish what the events since the last publish changed: the
    /// entries of the slots they touched are folded into the value already
    /// in the watch, or every entry is rebuilt when the slot set itself
    /// changed. Everything is computed before the watch lock is taken and
    /// the lock held only to write it — a `wait_for` predicate runs under
    /// the same lock on its caller's thread — and what the writes replaced
    /// comes out with it, to be overwritten by the next publish.
    fn publish(&mut self) {
        let media = self.host.media();
        let entries = || media.slots().map(|(id, s)| SlotSnapshot::of(id, s));
        let rebuild = std::mem::take(&mut self.slots_changed);
        let log = &mut self.obs.0;
        if rebuild {
            log.touched.clear();
            log.opening.retain(|id, _| media.slot(*id).is_some());
            self.fresh.extend(entries());
        } else {
            let slot = |id| media.slot(id).expect("slot set unchanged");
            let touched = log.touched.drain(..);
            self.fresh
                .extend(touched.map(|id| SlotSnapshot::of(id, slot(id))));
        }
        let opened = self.conns.values().filter(|c| c.dial.is_none());
        let channels = opened.clone().count();
        let recovering = opened.filter(|c| c.dialed && c.transport.is_none()).count();
        self.snap_tx.send_modify(|snap| {
            if rebuild {
                std::mem::swap(&mut snap.slots, &mut self.fresh);
            } else {
                for new in self.fresh.drain(..) {
                    let at = snap.slots.binary_search_by_key(&new.slot, |s| s.slot);
                    snap.slots[at.expect("slot set unchanged")] = new;
                }
            }
            (snap.channels, snap.recovering) = (channels, recovering);
            // The oracle: a fold must leave what a rebuild would build.
            debug_assert!(snap.slots.iter().cloned().eq(entries()), "fold != rebuild");
        });
        self.fresh.clear();
    }

    async fn fire_due_timers(&mut self) {
        if self.timers.is_empty() {
            return;
        }
        let now = Instant::now();
        let mut due = Vec::new();
        while self
            .timers
            .peek()
            .is_some_and(|Reverse((at, _))| *at <= now)
        {
            let Reverse((_, wake)) = self.timers.pop().expect("peeked");
            due.push(wake);
        }
        for wake in due {
            match wake {
                Wake::Timer(id, gen) => self.feed(Input::TimerFired { id, gen }, None).await,
                Wake::Attempt(to) => self.attempt(to),
            }
        }
        self.settle().await;
    }

    /// Applies one inbox input, then the news it made; `false` once it is
    /// [`Inbox::Shutdown`].
    async fn on_inbox(&mut self, msg: Inbox) -> bool {
        match msg {
            Inbox::Accepted { tag, hello, framed } => {
                let transport = self.attach(None, framed);
                self.on_hello(transport, tag, hello).await;
            }
            Inbox::Net {
                transport,
                tag,
                frame,
            } => self.on_frame(transport, tag, frame).await,
            Inbox::Gone { transport } => self.lose_transport(transport),
            Inbox::Connected { to, stream } => {
                self.on_link(to, Event::Dialed(stream.is_some()), stream)
                    .await;
            }
            Inbox::User { slot, cmd } => self.feed(Input::User { slot, cmd }, None).await,
            Inbox::Inject(input) => self.feed(Input::Inject(input), None).await,
            Inbox::Shutdown => return false,
        }
        self.settle().await;
        true
    }

    /// Act on the news, in the order it came.
    async fn settle(&mut self) {
        while let Some(news) = self.news.pop_front() {
            match news {
                News::Link(to, event) => self.on_link(to, event, None).await,
                News::Opened(channel) => _ = self.opened(channel, true).await,
                News::Down(channel) => self.down(channel).await,
            }
        }
    }

    /// A frame of the channel tagged `tag` on a transport. One on a
    /// transport already dead, or for a channel no longer bound to it, is
    /// a ghost: a re-dialed channel rides a new transport, so acting on it
    /// (especially a `Bye`) would hit the live replacement.
    async fn on_frame(&mut self, transport: u32, tag: u32, frame: Frame) {
        let Some(t) = self.transports.get(&transport) else {
            return;
        };
        if let Frame::Hello(hello) = frame {
            // Only the dialer says hello.
            if t.dialed.is_none() {
                self.on_hello(transport, tag, hello).await;
            }
            return;
        }
        let Some(&channel) = t.channels.get(&tag) else {
            return;
        };
        match frame {
            Frame::Msg(msg) => self.feed(Input::Msg { channel, msg }, None).await,
            // A traced frame is its inner message plus the sender's causal
            // context.
            Frame::Traced { ctx, msg } => {
                self.feed(Input::Msg { channel, msg }, Some(ctx)).await;
            }
            Frame::Bye => self.down(channel).await,
            Frame::Hello(_) => unreachable!("handled above"),
        }
    }

    /// A peer opened the channel tagged `tag` on a transport it dialed. It
    /// chooses how many tunnels it asks for: a channel that does not fit
    /// the box is refused with its `Bye`, so the dialer ends the channel
    /// rather than re-dial it, and its siblings carry on. So
    /// is a channel of no tunnels: it costs no slot, so the slot cap would
    /// not bound how many of them one connection opens.
    async fn on_hello(&mut self, transport: u32, tag: u32, hello: Hello) {
        // No conforming dialer binds a tag twice on one transport; one
        // that does ends the old channel here as its `Bye` would. The
        // transport stays, as it carries the new one.
        if let Some(&old) = self.transports[&transport].channels.get(&tag) {
            self.detach(old);
            self.news.push_back(News::Down(old));
        }
        let channel = self.new_channel();
        let dealt = hello.tunnels > 0
            && self
                .host
                .register_channel(channel, hello.tunnels, false)
                .is_some();
        if !dealt {
            self.obs.fault_injected(self.host.id().0, "over_cap");
            self.send(transport, tag, Frame::Bye).await;
            self.release(transport);
            return;
        }
        self.slots_changed = true;
        let conn = Conn {
            peer: hello.from,
            tunnels: hello.tunnels,
            tag,
            transport: None,
            dialed: false,
            dial: None,
        };
        self.conns.insert(channel, conn);
        self.bind(channel, transport);
        self.feed(Input::ChannelUp { channel, req: None }, None)
            .await;
    }

    /// The box asked for a channel to the box named `to`: it rides the
    /// connection to it, at once when that is live, and otherwise waits
    /// for the attempt under way or the first one.
    async fn dial(&mut self, to: String, tunnels: u16, req: u32) {
        let (channel, now) = (self.new_channel(), self.now_ms());
        let conn = Conn {
            peer: to.clone(),
            tunnels,
            tag: channel.0,
            transport: None,
            dialed: true,
            dial: Some((req, now)),
        };
        self.conns.insert(channel, conn);
        if !self.links.contains_key(&to) {
            let (link, first) = Link::dial(self.policy, jitter_seed(&self.name, &to), now);
            self.links.insert(to.clone(), link);
            if let Command::Connect { after, .. } = first {
                self.timers
                    .push(Reverse((Instant::now() + after, Wake::Attempt(to))));
            }
            return;
        }
        if let Some(transport) = self.live(&to) {
            self.bind(channel, transport);
            self.hello(channel).await;
            self.news.push_back(News::Opened(channel));
        }
    }

    /// The live transport this node dialed to the box named `to`.
    fn live(&self, to: &str) -> Option<u32> {
        let live = |(id, t): (&u32, &Transport)| (t.dialed.as_deref() == Some(to)).then_some(*id);
        self.transports.iter().find_map(live)
    }

    /// The channels parked on the connection to the box named `to`, in tag
    /// order: the ones its connection carried when it died, and the first
    /// dials made since.
    fn parked(&self, to: &str) -> Vec<ChannelId> {
        let waits = |c: &Conn| c.dialed && c.transport.is_none() && c.peer == to;
        let parked = |(id, c): (&ChannelId, &Conn)| waits(c).then_some(*id);
        let mut parked: Vec<_> = self.conns.iter().filter_map(parked).collect();
        parked.sort_unstable();
        parked
    }

    /// Tell the lifecycle of the connection to the box named `to` what
    /// happened to it, and do what it decides, once per channel parked on
    /// it. An attempt that landed brings its `stream`.
    async fn on_link(&mut self, to: String, event: Event, stream: Option<TcpStream>) {
        let now = self.now_ms();
        let Some(link) = self.links.get_mut(&to) else {
            return;
        };
        let (bx, command) = (self.host.id().0, link.on(event, now));
        let parked = self.parked(&to);
        match command {
            None => {}
            Some(Command::Connect { after, .. }) => {
                let lost = matches!(event, Event::Lost(_));
                for _ in parked.iter().filter(|_| lost) {
                    self.obs.fault_injected(bx, "disconnect");
                }
                self.timers
                    .push(Reverse((Instant::now() + after, Wake::Attempt(to))));
            }
            // The connection is up: the parked channels bind to it and say
            // hello, in tag order. A first dial opens; a channel that lost
            // its connection resyncs, the host retransmitting each parked
            // slot's cached signals so the (idempotent, §VI) protocol
            // re-establishes peer state.
            Some(Command::Landed {
                attempts,
                elapsed_ms,
                ..
            }) => {
                let stream = stream.expect("a landed attempt brings its connection");
                let transport = self.attach(Some(to.clone()), Framed::new(stream));
                for &channel in &parked {
                    self.bind(channel, transport);
                    self.hello(channel).await;
                }
                for channel in parked {
                    if self.opened(channel, true).await {
                        continue;
                    }
                    self.obs.fault_injected(bx, "reconnect");
                    let resync = Input::Resync {
                        channel,
                        attempts,
                        elapsed_ms,
                    };
                    self.feed(resync, None).await;
                }
                self.release(transport);
            }
            // The attempts ran out: the first dials come back half-open,
            // and the other channels go down in order, ChannelDown to the
            // program.
            Some(Command::Down) => {
                self.links.remove(&to);
                for channel in parked {
                    if !self.opened(channel, false).await {
                        self.down(channel).await;
                    }
                }
            }
        }
    }

    /// The end of a first dial, if `channel` is one (`false` otherwise):
    /// the channel opens, answered (`up`) and bound to its transport, or
    /// half-open, for the program to observe and destroy (Fig. 6); and
    /// half-open too when it does not fit the box, its hello taken back.
    /// The outcome is fed as `Input::dial_outcome`, and `tunnel_setup_ms`
    /// is timed from the dial.
    async fn opened(&mut self, channel: ChannelId, up: bool) -> bool {
        let conn = self.conns.get_mut(&channel);
        let Some(conn) = conn.filter(|c| c.dial.is_some()) else {
            return false;
        };
        let ((req, at_ms), tunnels) = (conn.dial.take().expect("filtered"), conn.tunnels);
        let up = self.host.register_dialed(channel, tunnels) && up;
        self.slots_changed = true;
        if up {
            let ms = self.now_ms().saturating_sub(at_ms);
            self.registry.tunnel_setup_ms.observe(ms);
        } else {
            self.bye(channel).await;
        }
        for input in Input::dial_outcome(channel, req, up) {
            self.feed(input, None).await;
        }
        true
    }

    /// A channel goes down in order: off its transport, then
    /// ChannelDown to the program.
    async fn down(&mut self, channel: ChannelId) {
        self.unbind(channel);
        if self.conns.remove(&channel).is_some() {
            self.slots_changed = true;
            self.feed(Input::ChannelDown { channel }, None).await;
        }
    }

    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn new_channel(&mut self) -> ChannelId {
        self.next_channel += 1;
        ChannelId(self.next_channel - 1)
    }

    /// One attempt at the connection to the box named `to`: a task of its
    /// own connects. A partitioned or crashed peer costs the attempt (and
    /// skips the useless connect), and a connection with no channel
    /// parked on it any more stops re-dialing.
    fn attempt(&mut self, to: String) {
        let gate = self.gate.as_ref();
        match self.links.get(&to) {
            None => {}
            Some(_) if self.parked(&to).is_empty() => _ = self.links.remove(&to),
            Some(_) if gate.is_some_and(|g| !g.dial_allowed(&self.name, &to)) => {
                self.news.push_back(News::Link(to, Event::Dialed(false)));
            }
            Some(_) => self.spawn_connect(to),
        }
    }

    /// Bind a channel to a transport: the transport's frames tagged with
    /// the channel's tag are the channel's. A dialed channel whose
    /// transport died meanwhile stays parked, for the re-dial.
    fn bind(&mut self, channel: ChannelId, transport: u32) {
        let conn = self.conns.get_mut(&channel).expect("a channel to bind");
        if let Some(t) = self.transports.get_mut(&transport) {
            conn.transport = Some(transport);
            t.channels.insert(conn.tag, channel);
        }
    }

    /// A channel this node dials just bound: its hello opens it at the far
    /// end. One no longer bound (its transport died meanwhile) waits for
    /// the re-dial.
    async fn hello(&mut self, channel: ChannelId) {
        let conn = &self.conns[&channel];
        let Some(transport) = conn.transport else {
            return;
        };
        let hello = Frame::Hello(Hello {
            from: self.name.clone(),
            tunnels: conn.tunnels,
        });
        self.send(transport, conn.tag, hello).await;
    }

    /// Tell the far end that a channel is over, if it is bound, and take
    /// it off its transport.
    async fn bye(&mut self, channel: ChannelId) {
        let Some(conn) = self.conns.get(&channel) else {
            return;
        };
        if let Some(transport) = conn.transport {
            let tag = conn.tag;
            self.send(transport, tag, Frame::Bye).await;
        }
        self.unbind(channel);
    }

    /// Take a channel off its connection for good, and off its transport
    /// if it is bound to one, and return the transport, which stays open
    /// even with no channel left.
    fn detach(&mut self, channel: ChannelId) -> Option<u32> {
        let conn = self.conns.get_mut(&channel)?;
        conn.dialed = false;
        let transport = conn.transport.take()?;
        if let Some(t) = self.transports.get_mut(&transport) {
            t.channels.remove(&conn.tag);
        }
        Some(transport)
    }

    /// Take a channel off its transport, which closes with its last
    /// channel.
    fn unbind(&mut self, channel: ChannelId) {
        if let Some(transport) = self.detach(channel) {
            self.release(transport);
        }
    }

    /// Close a transport no channel is bound to, and the connection it is:
    /// its writer drains what is queued, then shuts the socket, and the
    /// next dial to the box starts a connection anew.
    fn release(&mut self, transport: u32) {
        if self
            .transports
            .get(&transport)
            .is_some_and(|t| t.channels.is_empty())
        {
            if let Some(to) = self.transports.remove(&transport).and_then(|t| t.dialed) {
                self.links.remove(&to);
            }
        }
    }

    /// A transport died: every channel bound to it lost its connection.
    /// The ones this node dialed park while the connection's lifecycle
    /// decides; the ones it accepted go down.
    fn lose_transport(&mut self, transport: u32) {
        let Some(t) = self.transports.remove(&transport) else {
            return; // closed already
        };
        let bound = |c: &&mut Conn| c.transport == Some(transport);
        for conn in self.conns.values_mut().filter(bound) {
            conn.transport = None;
        }
        let Some(to) = t.dialed else {
            return self.news.extend(t.channels.into_values().map(News::Down));
        };
        let gen = self.links.get(&to).map_or(0, Link::gen);
        self.news.push_back(News::Link(to, Event::Lost(gen)));
    }

    /// Queue a frame of the channel tagged `tag` on a transport. A full
    /// writer queue makes the actor wait for room rather than discard the
    /// frame; a writer that makes none within the send timeout is as dead
    /// as a socket write that takes that long, and so is the transport.
    async fn send(&mut self, transport: u32, tag: u32, frame: Frame) {
        let Some(t) = self.transports.get(&transport) else {
            return;
        };
        // A closed queue belongs to a transport already dead (its writer
        // has gone, and said so): the frame has nowhere to go.
        let Err(mpsc::error::TrySendError::Full(item)) = t.writer.try_send((tag, frame)) else {
            return;
        };
        let t0 = std::time::Instant::now();
        let waited = timeout(self.policy.send_timeout, t.writer.send(item)).await;
        self.registry
            .writer_wait_us
            .observe(t0.elapsed().as_micros() as u64);
        if waited.is_err() {
            self.lose_transport(transport);
        }
    }

    /// Make a connection a transport: spawn its reader and writer tasks,
    /// the writer fed by the transport's queue. Both tasks report a dead
    /// connection as [`Inbox::Gone`]; a frame write that exceeds the send
    /// timeout counts as dead (backpressure on a stalled peer must not
    /// wedge the channels silently).
    fn attach(&mut self, dialed: Option<String>, framed: Framed<TcpStream>) -> u32 {
        let transport = self.next_transport;
        self.next_transport += 1;
        let (writer_tx, mut writer_rx) = mpsc::channel::<(u32, Frame)>(64);
        let (stream, leftover) = framed.into_parts();
        let (read_half, write_half) = stream.into_split();

        let tx = self.inbox_tx.clone();
        tokio::spawn(async move {
            // Frames that arrived behind the first hello are still in the
            // buffer; the reader must start from them.
            let mut reader = Framed::from_parts(read_half, leftover);
            loop {
                let read = reader.read_frame().await.ok().flatten();
                let Some((tag, frame)) = read.and_then(|bytes| wire::decode_tagged(bytes).ok())
                else {
                    let _ = tx.send(Inbox::Gone { transport }).await;
                    break;
                };
                let net = Inbox::Net {
                    transport,
                    tag,
                    frame,
                };
                if tx.send(net).await.is_err() {
                    break;
                }
            }
        });
        let tx = self.inbox_tx.clone();
        let send_timeout = self.policy.send_timeout;
        tokio::spawn(async move {
            let mut writer = Framed::new(write_half);
            let mut payloads: Vec<bytes::Bytes> = Vec::with_capacity(WRITER_BATCH);
            // The queue closes once the transport is released and drained.
            while let Some((tag, frame)) = writer_rx.recv().await {
                // Fold whatever else is already queued, for any channel,
                // into one buffered write and a single flush; under storm
                // load this turns 2+ syscalls per frame into 2 per batch.
                payloads.push(wire::encode_tagged(tag, &frame));
                while payloads.len() < WRITER_BATCH {
                    let Ok((tag, frame)) = writer_rx.try_recv() else {
                        break;
                    };
                    payloads.push(wire::encode_tagged(tag, &frame));
                }
                let written = timeout(send_timeout, writer.write_frames(&payloads)).await;
                if !matches!(written, Ok(Ok(()))) {
                    let _ = tx.send(Inbox::Gone { transport }).await;
                    break;
                }
                payloads.clear();
            }
        });
        let t = Transport {
            dialed,
            writer: writer_tx,
            channels: BTreeMap::new(),
        };
        self.transports.insert(transport, t);
        transport
    }

    /// Put one message on a channel's transport, carrying the trace
    /// context of the activation that produced it when tracing is on
    /// (plain [`Frame::Msg`] otherwise, so untraced peers never see the
    /// extended frame).
    async fn transmit(&mut self, channel: ChannelId, msg: ChannelMsg, ctx: Option<SpanCtx>) {
        // Unbound: a dial or re-dial runs, or the channel is half-open.
        // The frame has nowhere to go.
        let Some(conn) = self.conns.get(&channel) else {
            return;
        };
        let Some(transport) = conn.transport else {
            return;
        };
        let tag = conn.tag;
        let gate = self.gate.as_ref();
        if let Some(kind) = gate.and_then(|g| g.check(&self.name, &conn.peer).err()) {
            self.obs.fault_injected(self.host.id().0, kind);
            // A gate-blocked frame means the connection is dead from this
            // node's point of view, and the far end reads its end: the
            // initiator's channels re-dial (equally gated) and resync, the
            // acceptor's go down — never a silent byte eater, which would
            // wedge the peer's await forever.
            self.lose_transport(transport);
            return;
        }
        let frame = match (ctx, &self.tracer) {
            (Some(ctx), Some(tracer)) => Frame::Traced {
                ctx: SpanCtx {
                    sent_micros: tracer.now_micros(),
                    ..ctx
                },
                msg,
            },
            _ => Frame::Msg(msg),
        };
        self.send(transport, tag, frame).await;
    }

    /// Connect to the box named `to` in a task of its own and report it as
    /// one [`Inbox::Connected`]: the actor goes on applying its inbox
    /// meanwhile.
    fn spawn_connect(&self, to: String) {
        let (dir, policy, tx) = (self.dir.clone(), self.policy, self.inbox_tx.clone());
        tokio::spawn(async move {
            if tx.is_closed() {
                return; // the node is gone: nobody would take the channels
            }
            let stream = connect(&dir, &policy, &to).await;
            let _ = tx.send(Inbox::Connected { to, stream }).await;
        });
    }
}

/// One attempt to connect to the box named `to`: resolve and connect,
/// bounded by the send timeout. A name the directory does not hold costs
/// the attempt exactly as an unreachable address would, and the name is
/// looked up anew every time because a restarted box re-registers under
/// the same name at a fresh address.
async fn connect(dir: &Directory, policy: &ReconnectPolicy, to: &str) -> Option<TcpStream> {
    let addr = dir.lookup(to)?;
    let stream = timeout(policy.send_timeout, TcpStream::connect(addr))
        .await
        .ok()?
        .ok()?;
    stream.set_nodelay(true).ok();
    Some(stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    /// A task that panics while holding the directory lock must not wedge
    /// every other node: the lock recovers the (consistent) table.
    #[test]
    fn directory_survives_poisoned_lock() {
        let dir = Directory::new();
        dir.register("a", addr(1000));
        let poisoner = dir.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("task died holding the directory lock");
        })
        .join();
        assert_eq!(dir.lookup("a"), Some(addr(1000)));
        dir.register("b", addr(2000));
        assert_eq!(dir.lookup("b"), Some(addr(2000)));
    }

    /// Deregistration is addr-guarded: the old instance's late cleanup
    /// must not clobber a replacement that already re-registered.
    #[test]
    fn deregister_only_removes_matching_address() {
        let dir = Directory::new();
        dir.register("pbx", addr(1000));
        // Replacement instance rebinds under the same name.
        dir.register("pbx", addr(2000));
        // Old instance's cleanup fires late: a no-op.
        dir.deregister("pbx", addr(1000));
        assert_eq!(dir.lookup("pbx"), Some(addr(2000)));
        // The live instance's own cleanup removes it.
        dir.deregister("pbx", addr(2000));
        assert_eq!(dir.lookup("pbx"), None);
    }
}
