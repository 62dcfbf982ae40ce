//! Running a media-control box as a tokio task with real TCP signaling
//! channels.
//!
//! Each box is one asynchronous actor with one input queue (§VIII-C): an
//! accept loop admits incoming signaling channels, and it, the
//! per-connection reader tasks, the dial tasks and the node's
//! [`NodeHandle`] all feed a single bounded inbox. The actor awaits only
//! that inbox, bounded by its next timer (never a connect), and applies
//! what it reads, in arrival order, to its
//! [`ProgramBox`](ipmedia_core::program::ProgramBox) — the same
//! sans-IO state machines the simulator and the model checker drive. All
//! I/O is non-blocking; per-connection writer tasks apply backpressure via
//! bounded channels — an actor whose writer queue is full waits for room,
//! for at most the send timeout, and never discards a frame; shutdown
//! applies what was queued before it, then closes every channel with an
//! orderly `Bye` frame.

use crate::chaos::ChaosGate;
use crate::frame::Framed;
use crate::wire::{self, Frame, Hello};
use ipmedia_core::goal::UserCmd;
use ipmedia_core::host::{Arrival, Buffers, Effect, Input, NodeHost};
use ipmedia_core::ids::{ChannelId, SlotId};
use ipmedia_core::link::{jitter_seed, Command, Event, Link, LinkState, ReconnectPolicy};
use ipmedia_core::program::{AppLogic, BoxInput, TimerId};
use ipmedia_core::signal::ChannelMsg;
use ipmedia_core::slot::Slot;
use ipmedia_core::{BoxId, Codec, MediaAddr, SlotState};
use ipmedia_obs::metrics::{CountingObserver, Registry};
use ipmedia_obs::trace::{SpanCtx, Tracer};
use ipmedia_obs::{Fanout, NoopObserver, ObsEvent, Observer};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::{mpsc, watch};
use tokio::task::JoinHandle;
use tokio::time::{sleep, timeout, timeout_at, Duration, Instant};

/// Inbox inputs of any kind applied per actor wakeup before the snapshot
/// publish. A publish costs what the inputs touched, but each one wakes
/// whoever waits on the snapshot (a futex wake of a parked thread):
/// paying that per frame cost ×0.89 on `rt_waves`, 64 ahead in 9 of 10
/// pairs; per user command, ×0.93, ahead in 4 of 5.
const INBOX_BATCH: usize = 64;

/// Frames a connection writer folds into one buffered write and flush:
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
    /// A frame arrived on a connection.
    Net {
        channel: ChannelId,
        gen: u32,
        frame: Frame,
    },
    /// A connection was accepted and sent its hello.
    Accepted {
        hello: Hello,
        framed: Framed<TcpStream>,
    },
    /// A connection died.
    Gone { channel: ChannelId, gen: u32 },
    /// A connection attempt is over: the connection, or `None` when it
    /// failed.
    Dialed {
        channel: ChannelId,
        framed: Option<Framed<TcpStream>>,
    },
    /// [`NodeHandle::user`].
    User { slot: SlotId, cmd: UserCmd },
    /// [`NodeHandle::inject`].
    Inject(BoxInput),
    /// [`NodeHandle::shutdown`]: everything queued before it is applied.
    Shutdown,
}

/// One channel: its connection's writer and its lifecycle, which decides
/// everything else about the connection.
struct Conn {
    /// The far end's name: the box dialed, or the hello's `from`. Chaos
    /// gating keys on it and a re-dial goes to it.
    peer: String,
    /// The channel's tunnels, said in every hello.
    tunnels: u16,
    /// The connection's writer queue; `None` while the first dial runs, on
    /// a half-open channel, and once a write timed out.
    writer: Option<mpsc::Sender<Frame>>,
    link: Link,
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
    /// declares the connection dead (the runtime analogue of a partition
    /// killing TCP), and redials stay blocked until the gate heals;
    /// recovery then rides the ordinary redial and §VI resync. Default:
    /// none.
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

    // Accept loop: do the hello handshake off the main loop so a slow
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
                    if let Ok(Frame::Hello(hello)) = wire::decode(bytes) {
                        let _ = tx.send(Inbox::Accepted { hello, framed }).await;
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
        dial_turn: None,
        started: Instant::now(),
        buffers: Buffers::default(),
        lost: VecDeque::new(),
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
    policy: ReconnectPolicy,
    /// Wakeups the host asked for, earliest first. The host drops the
    /// stale ones (restarted or cancelled timers) when they come due.
    timers: BinaryHeap<Reverse<(Instant, TimerId, u64)>>,
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
    /// Closes once the latest first dial has made its first try.
    dial_turn: Option<mpsc::Receiver<()>>,
    /// The origin of the milliseconds the channels' lifecycles read.
    started: Instant,
    /// Lent to every host call and drained right after.
    buffers: Buffers,
    /// Connections (with their generation) the actor itself declared dead
    /// while transmitting, handled before its next event. They do not go
    /// through the inbox: the actor is its only consumer, so awaiting room
    /// in it would wait on itself.
    lost: VecDeque<(ChannelId, u32)>,
}

impl Actor {
    /// Reads the inbox until an [`Inbox::Shutdown`]. The actor holds a
    /// sender to it, so it never closes: with its handle dropped, the node
    /// waits on it at no cost for as long as the process lives.
    async fn run(mut self, mut inbox_rx: mpsc::Receiver<Inbox>) {
        self.feed(Input::Inject(BoxInput::Start), None).await;

        'run: loop {
            while let Some((channel, gen)) = self.lost.pop_front() {
                self.on_link(channel, Event::Lost(gen), None).await;
            }
            self.publish();
            let next_due = self.timers.peek().map(|Reverse((due, ..))| *due);
            let msg = match next_due {
                Some(due) => timeout_at(due, inbox_rx.recv()).await,
                None => Ok(inbox_rx.recv().await),
            };
            let Ok(msg) = msg else {
                self.fire_due_timers().await;
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
        for writer in self.conns.values().filter_map(|c| c.writer.as_ref()) {
            let _ = writer.send(Frame::Bye).await;
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
                Effect::Dial { to, tunnels, req } => self.dial(to, tunnels, req),
                Effect::Hangup { channel } => {
                    // Local teardown is immediate; the peer acts on Bye.
                    self.slots_changed = true;
                    let conn = self.conns.remove(&channel);
                    if let Some(writer) = conn.and_then(|c| c.writer) {
                        let _ = writer.send(Frame::Bye).await;
                    }
                }
                Effect::ArmTimer { id, gen, after_ms } => {
                    let due = Instant::now() + Duration::from_millis(after_ms);
                    self.timers.push(Reverse((due, id, gen)));
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
        let count = |state| {
            self.conns
                .values()
                .filter(|c| c.link.state() == state)
                .count()
        };
        let channels = self.conns.len() - count(LinkState::Dialing);
        let recovering = count(LinkState::Lost);
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
        let now = Instant::now();
        let mut due = Vec::new();
        while self
            .timers
            .peek()
            .is_some_and(|Reverse((at, ..))| *at <= now)
        {
            let Reverse((_, id, gen)) = self.timers.pop().expect("peeked");
            due.push((id, gen));
        }
        for (id, gen) in due {
            self.feed(Input::TimerFired { id, gen }, None).await;
        }
    }

    /// Applies one inbox input; `false` once it is [`Inbox::Shutdown`].
    async fn on_inbox(&mut self, msg: Inbox) -> bool {
        match msg {
            Inbox::Accepted { hello, framed } => self.on_accepted(hello, framed).await,
            Inbox::Net {
                channel,
                gen,
                frame,
            } => {
                // A frame surfacing from a superseded socket is a ghost of
                // a dead connection; acting on it (especially a Bye) would
                // hit the live replacement.
                if !self.conns.get(&channel).is_some_and(|c| c.link.admits(gen)) {
                    return true;
                }
                match frame {
                    Frame::Msg(msg) => self.feed(Input::Msg { channel, msg }, None).await,
                    // A traced frame is its inner message plus the
                    // sender's causal context.
                    Frame::Traced { ctx, msg } => {
                        self.feed(Input::Msg { channel, msg }, Some(ctx)).await;
                    }
                    Frame::Bye => self.on_link(channel, Event::Bye, None).await,
                    Frame::Hello(_) => {} // protocol error
                }
            }
            Inbox::Gone { channel, gen } => self.on_link(channel, Event::Lost(gen), None).await,
            Inbox::Dialed { channel, framed } => {
                let event = Event::Dialed(framed.is_some());
                self.on_link(channel, event, framed).await;
            }
            Inbox::User { slot, cmd } => self.feed(Input::User { slot, cmd }, None).await,
            Inbox::Inject(input) => self.feed(Input::Inject(input), None).await,
            Inbox::Shutdown => return false,
        }
        true
    }

    /// A peer opened a channel. It chooses how many tunnels it asks for:
    /// a channel that does not fit the box is refused with a `Bye`, so the
    /// dialer's lifecycle ends the channel rather than re-dial it.
    async fn on_accepted(&mut self, hello: Hello, mut framed: Framed<TcpStream>) {
        let channel = self.new_channel();
        let Some(_) = self.host.register_channel(channel, hello.tunnels, false) else {
            self.obs.fault_injected(self.host.id().0, "over_cap");
            let send_timeout = self.policy.send_timeout;
            tokio::spawn(async move {
                let bye = wire::encode(&Frame::Bye);
                let _ = timeout(send_timeout, framed.write_frame(&bye)).await;
            });
            return;
        };
        self.slots_changed = true;
        let conn = Conn {
            peer: hello.from,
            tunnels: hello.tunnels,
            writer: None,
            link: Link::established(self.policy, 0, false, 0),
        };
        self.conns.insert(channel, conn);
        self.attach(channel, 0, framed);
        self.feed(Input::ChannelUp { channel, req: None }, None)
            .await;
    }

    /// The box asked for a channel to the box named `to`: its lifecycle
    /// starts with an attempt.
    fn dial(&mut self, to: String, tunnels: u16, req: u32) {
        let channel = self.new_channel();
        let seed = jitter_seed(&self.name, channel.0);
        let (link, first) = Link::dial(self.policy, seed, req, self.now_ms());
        let conn = Conn {
            peer: to,
            tunnels,
            writer: None,
            link,
        };
        self.conns.insert(channel, conn);
        if let Command::Connect { after, .. } = first {
            self.spawn_connect(channel, after);
        }
    }

    /// Tell a channel's lifecycle what happened to its connection, and do
    /// what it decides. `framed` is the connection an attempt that landed
    /// made.
    async fn on_link(
        &mut self,
        channel: ChannelId,
        event: Event,
        framed: Option<Framed<TcpStream>>,
    ) {
        let now = self.now_ms();
        let Some(conn) = self.conns.get_mut(&channel) else {
            return; // torn down while the news was on its way
        };
        let (bx, tunnels) = (self.host.id().0, conn.tunnels);
        match conn.link.on(event, now) {
            None => {}
            Some(Command::Connect { after, .. }) => {
                if let Event::Lost(_) = event {
                    self.obs.fault_injected(bx, "disconnect");
                }
                self.spawn_connect(channel, after);
            }
            // A first dial is over: register the channel, half-open when
            // nobody answered (or it does not fit), for the program to
            // observe and destroy (Fig. 6), and report the outcome.
            Some(Command::Opened {
                req,
                gen,
                elapsed_ms,
            }) => {
                let dealt = self.host.register_dialed(channel, tunnels);
                self.slots_changed = true;
                let up = match (dealt, gen, framed) {
                    (true, Some(gen), Some(framed)) => {
                        self.attach(channel, gen, framed);
                        self.registry.tunnel_setup_ms.observe(elapsed_ms);
                        true
                    }
                    _ => false,
                };
                for input in Input::dial_outcome(channel, req, up) {
                    self.feed(input, None).await;
                }
            }
            // A re-dial landed: swap the new connection in under the
            // existing channel id, then have the host retransmit each
            // parked slot's cached signals so the (idempotent, §VI)
            // protocol re-establishes peer state.
            Some(Command::Resync {
                gen,
                attempts,
                elapsed_ms,
            }) => {
                if let Some(framed) = framed {
                    self.attach(channel, gen, framed);
                }
                self.obs.fault_injected(bx, "reconnect");
                let resync = Input::Resync {
                    channel,
                    attempts,
                    elapsed_ms,
                };
                self.feed(resync, None).await;
            }
            // A Bye, a loss nobody re-dials, or a re-dial that gave up:
            // the channel goes down in order, ChannelDown to the program.
            Some(Command::Down) => {
                self.conns.remove(&channel);
                self.slots_changed = true;
                self.feed(Input::ChannelDown { channel }, None).await;
            }
        }
    }

    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn new_channel(&mut self) -> ChannelId {
        self.next_channel += 1;
        ChannelId(self.next_channel - 1)
    }

    /// Put connection `gen` under a channel: spawn its reader and writer
    /// tasks, and make the writer's input queue the channel's. Both tasks
    /// report a dead connection as [`Inbox::Gone`]; a frame write that
    /// exceeds the send timeout counts as dead (backpressure on a stalled
    /// peer must not wedge the channel silently).
    fn attach(&mut self, channel: ChannelId, gen: u32, framed: Framed<TcpStream>) {
        let (writer_tx, mut writer_rx) = mpsc::channel::<Frame>(64);
        let (stream, leftover) = framed.into_parts();
        let (read_half, write_half) = stream.into_split();

        let tx = self.inbox_tx.clone();
        tokio::spawn(async move {
            // Frames that arrived behind the handshake are still in the
            // buffer; the reader must start from them.
            let mut reader = Framed::from_parts(read_half, leftover);
            loop {
                let read = reader.read_frame().await.ok().flatten();
                let Some(frame) = read.and_then(|bytes| wire::decode(bytes).ok()) else {
                    let _ = tx.send(Inbox::Gone { channel, gen }).await;
                    break;
                };
                if tx
                    .send(Inbox::Net {
                        channel,
                        gen,
                        frame,
                    })
                    .await
                    .is_err()
                {
                    break;
                }
            }
        });
        let tx = self.inbox_tx.clone();
        let send_timeout = self.policy.send_timeout;
        tokio::spawn(async move {
            let mut writer = Framed::new(write_half);
            let mut payloads: Vec<bytes::Bytes> = Vec::with_capacity(WRITER_BATCH);
            'conn: while let Some(first) = writer_rx.recv().await {
                // Fold whatever else is already queued into one buffered
                // write and a single flush; under storm load this turns
                // 2+ syscalls per frame into 2 per batch. A Bye ends the
                // batch (and the connection) — nothing may follow it.
                let mut bye = matches!(first, Frame::Bye);
                payloads.push(wire::encode(&first));
                while !bye && payloads.len() < WRITER_BATCH {
                    match writer_rx.try_recv() {
                        Ok(frame) => {
                            bye = matches!(frame, Frame::Bye);
                            payloads.push(wire::encode(&frame));
                        }
                        Err(_) => break,
                    }
                }
                match timeout(send_timeout, writer.write_frames(&payloads)).await {
                    Ok(Ok(())) => {}
                    _ => {
                        if !bye {
                            let _ = tx.send(Inbox::Gone { channel, gen }).await;
                        }
                        break 'conn;
                    }
                }
                payloads.clear();
                if bye {
                    break;
                }
            }
        });
        if let Some(conn) = self.conns.get_mut(&channel) {
            conn.writer = Some(writer_tx);
        }
    }

    /// Put one message on a channel's connection, carrying the trace
    /// context of the activation that produced it when tracing is on
    /// (plain [`Frame::Msg`] otherwise, so untraced peers never see the
    /// extended frame).
    async fn transmit(&mut self, channel: ChannelId, msg: ChannelMsg, ctx: Option<SpanCtx>) {
        // No writer: the first dial runs, the channel is half-open, or a
        // write timed out. The frame has nowhere to go.
        let Some(conn) = self.conns.get_mut(&channel) else {
            return;
        };
        let Some(writer) = &conn.writer else {
            return;
        };
        let gate = self.gate.as_ref();
        if let Some(kind) = gate.and_then(|g| g.check(&self.name, &conn.peer).err()) {
            self.obs.fault_injected(self.host.id().0, kind);
            // A gate-blocked frame means the link is dead from this
            // node's point of view: declare the connection gone.
            // Initiators re-dial (equally gated) and resync; acceptors
            // tear the pipe down so the far initiator notices and
            // re-dials — never a silent byte eater, which would wedge the
            // peer's await forever.
            self.lost.push_back((channel, conn.link.gen()));
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
        // A closed queue belongs to a connection already dead (its writer
        // has gone): the frame has nowhere to go.
        let Err(mpsc::error::TrySendError::Full(frame)) = writer.try_send(frame) else {
            return;
        };
        // Back-pressure: a full writer queue makes the actor wait for
        // room rather than discard the frame. A writer that makes none
        // within the send timeout is as dead as a socket write that takes
        // that long: stop queueing behind it and declare the connection
        // gone.
        let t0 = std::time::Instant::now();
        let waited = timeout(self.policy.send_timeout, writer.send(frame)).await;
        self.registry
            .writer_wait_us
            .observe(t0.elapsed().as_micros() as u64);
        if waited.is_err() {
            conn.writer = None;
            self.lost.push_back((channel, conn.link.gen()));
        }
    }

    /// Make one attempt of [`connect`] to the channel's peer in a task of
    /// its own, `after` from now, and report it as one [`Inbox::Dialed`]:
    /// the actor goes on applying its inbox meanwhile. A first dial's
    /// first attempt waits until the first attempt of the dial before it
    /// is over ([`Actor::dial_turn`]): a box dialed twice accepts the
    /// channels in the order they were dialed, and numbers their slots
    /// alike.
    fn spawn_connect(&mut self, channel: ChannelId, after: Duration) {
        let Some(conn) = self.conns.get(&channel) else {
            return;
        };
        let (to, tunnels) = (conn.peer.clone(), conn.tunnels);
        let (mut turn, mut done) = (None, None);
        if conn.link.state() == LinkState::Dialing && conn.link.attempts() == 1 {
            let (tx, next) = mpsc::channel::<()>(1);
            (turn, done) = (self.dial_turn.replace(next), Some(tx));
        }
        let (dir, gate, policy) = (self.dir.clone(), self.gate.clone(), self.policy);
        let (name, tx) = (self.name.clone(), self.inbox_tx.clone());
        tokio::spawn(async move {
            if let Some(turn) = &mut turn {
                turn.recv().await;
            }
            sleep(after).await;
            if tx.is_closed() {
                return; // the node is gone: nobody would take the channel
            }
            let framed = connect(&dir, &gate, &policy, &name, &to, tunnels).await;
            let _ = tx.send(Inbox::Dialed { channel, framed }).await;
            drop(done); // the next dial's turn
        });
    }
}

/// One attempt to set up the connection under a channel from `name` to
/// `to`: resolve, connect and say hello, each bounded by the send
/// timeout. A partitioned or crashed target, and a name the directory
/// does not hold, cost the attempt exactly as an unreachable address would
/// (but skip the useless connect), and the name is looked up anew every
/// time because a restarted box re-registers under the same name at a
/// fresh address.
async fn connect(
    dir: &Directory,
    gate: &Option<Arc<ChaosGate>>,
    policy: &ReconnectPolicy,
    name: &str,
    to: &str,
    tunnels: u16,
) -> Option<Framed<TcpStream>> {
    if gate.as_ref().is_some_and(|g| !g.dial_allowed(name, to)) {
        return None;
    }
    let addr = dir.lookup(to)?;
    let stream = timeout(policy.send_timeout, TcpStream::connect(addr))
        .await
        .ok()?
        .ok()?;
    stream.set_nodelay(true).ok();
    let mut framed = Framed::new(stream);
    let hello = wire::encode(&Frame::Hello(Hello {
        from: name.to_string(),
        tunnels,
    }));
    framed.write_frame(&hello).await.ok()?;
    Some(framed)
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
