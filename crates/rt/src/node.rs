//! Running a media-control box as a tokio task with real TCP signaling
//! channels.
//!
//! Each box is one asynchronous actor: an accept loop admits incoming
//! signaling channels, per-connection reader tasks feed a single inbox,
//! and the actor serially applies inputs to its
//! [`ProgramBox`](ipmedia_core::program::ProgramBox) — the same
//! sans-IO state machines the simulator and the model checker drive. All
//! I/O is non-blocking; per-connection writer tasks apply backpressure via
//! bounded channels — an actor whose writer queue is full waits for room,
//! for at most the send timeout, and never discards a frame; shutdown
//! closes every channel with an orderly `Bye` frame.

use crate::chaos::ChaosGate;
use crate::frame::Framed;
use crate::wire::{self, Frame, Hello};
use ipmedia_core::goal::UserCmd;
use ipmedia_core::hash::fnv1a;
use ipmedia_core::host::{Arrival, Buffers, Effect, Input, NodeHost};
use ipmedia_core::ids::{ChannelId, SlotId, SlotRange};
use ipmedia_core::program::{AppLogic, BoxInput, TimerId};
use ipmedia_core::signal::ChannelMsg;
use ipmedia_core::slot::Slot;
use ipmedia_core::{BoxId, Codec, MediaAddr, SlotState};
use ipmedia_obs::clock::Clock;
use ipmedia_obs::export::prometheus_text;
use ipmedia_obs::metrics::{CountingObserver, MetricsSnapshot, Registry};
use ipmedia_obs::trace::{SpanCtx, SpanSink, Tracer};
use ipmedia_obs::{Fanout, NoopObserver, ObsEvent, Observer};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::{mpsc, watch};
use tokio::task::JoinHandle;
use tokio::time::{sleep, sleep_until, timeout, Duration, Instant};

/// Real-world fault-tolerance knobs: the runtime counterparts of the
/// simulator's retransmission layer. TCP already gives per-channel
/// reliability, so what is left to handle is the connection itself dying
/// — slow peers (send timeout), transient outages (reconnect with capped
/// exponential backoff), and permanent ones (orderly channel teardown
/// after the attempts are exhausted, never a panic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Attempts for the *initial* dial of an outgoing channel.
    pub connect_attempts: u32,
    /// Attempts to re-dial a lost channel before giving up. Zero disables
    /// reconnection: a lost connection tears the channel down immediately.
    pub reconnect_attempts: u32,
    /// First retry delay; doubled per attempt up to `max_delay`.
    pub base_delay: Duration,
    pub max_delay: Duration,
    /// Bound on any single connect or frame write before the connection
    /// is declared dead.
    pub send_timeout: Duration,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        Self {
            connect_attempts: 3,
            reconnect_attempts: 8,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            send_timeout: Duration::from_secs(5),
        }
    }
}

/// The retry delay sequence a policy yields for `attempts` attempts,
/// seeded for reproducibility. Attempt `i` sleeps a uniform random
/// duration in `[0, min(base · 2^i, max)]` (AWS-style full jitter): the
/// expected spacing is half the capped doubling, and the simultaneous
/// reconnects that follow a partition heal spread out rather than
/// stampede the peer in lockstep. The jitter stream is seeded per (node,
/// channel) and thus deterministic in tests.
pub fn backoff_delays(policy: &ReconnectPolicy, seed: u64, attempts: u32) -> Vec<Duration> {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..attempts)
        .map(|i| {
            let cap = policy
                .base_delay
                .saturating_mul(2u32.saturating_pow(i))
                .min(policy.max_delay);
            let cap_us = cap.as_micros() as u64;
            if cap_us == 0 {
                Duration::ZERO
            } else {
                Duration::from_micros(rng.random_range(0..=cap_us))
            }
        })
        .collect()
}

/// Deterministic per-(node, channel) jitter seed (FNV-1a over the name,
/// mixed with the channel id) so two nodes — or two channels of one node
/// — never share a jitter stream.
pub fn jitter_seed(name: &str, channel: u32) -> u64 {
    fnv1a(name.as_bytes()) ^ (u64::from(channel) << 32 | u64::from(channel))
}

/// Inbox events applied per actor wakeup before the snapshot publish. A
/// publish costs what the events touched, but each one wakes whoever
/// waits on the snapshot (a futex wake of a parked thread): paying that
/// per event cost ×0.89 on `rt_waves`, 64 ahead in 9 of 10 pairs.
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

/// Observable state of the node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeSnapshot {
    pub slots: Vec<SlotSnapshot>,
    pub channels: usize,
    /// Channels whose connection died and are being re-dialed; their
    /// slots are parked (state retained) until recovery or give-up.
    pub recovering: usize,
    /// Counters and latency histograms accumulated since spawn.
    pub metrics: MetricsSnapshot,
}

/// Control handle for a running node.
pub struct NodeHandle {
    pub name: String,
    /// Local listener address (register it in the [`Directory`]).
    pub addr: SocketAddr,
    user_tx: mpsc::Sender<(SlotId, UserCmd)>,
    input_tx: mpsc::Sender<BoxInput>,
    shutdown_tx: watch::Sender<bool>,
    pub snapshot: watch::Receiver<NodeSnapshot>,
    registry: Arc<Registry>,
    join: JoinHandle<()>,
    accept_join: JoinHandle<()>,
}

impl NodeHandle {
    /// Issue a user command on a slot (Fig. 5 user events).
    pub async fn user(&self, slot: SlotId, cmd: UserCmd) {
        self.user_tx.send((slot, cmd)).await.expect("node alive");
    }

    /// Cloneable sender for user commands, for tasks that drive the node
    /// concurrently with its owner (e.g. chaos churn during a schedule).
    pub fn commander(&self) -> mpsc::Sender<(SlotId, UserCmd)> {
        self.user_tx.clone()
    }

    /// Inject an application input (meta-signals from local features).
    pub async fn inject(&self, input: BoxInput) {
        self.input_tx.send(input).await.expect("node alive");
    }

    /// Gracefully shut the node down: `Bye` on all channels, release the
    /// directory entry, then exit.
    pub async fn shutdown(self) {
        let _ = self.shutdown_tx.send(true);
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

    /// Live handle to the node's metrics registry (shared with the actor).
    pub fn registry(&self) -> Arc<Registry> {
        self.registry.clone()
    }

    /// Current metrics in Prometheus text exposition format.
    pub fn metrics_text(&self) -> String {
        prometheus_text(&self.registry.snapshot())
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
            tokio::select! {
                changed = self.snapshot.changed() => {
                    if changed.is_err() {
                        return false;
                    }
                }
                _ = sleep_until(deadline) => return false,
            }
        }
    }
}

enum Inbox {
    /// A frame arrived on a connection.
    Net {
        channel: ChannelId,
        gen: u64,
        frame: Frame,
    },
    /// A connection was accepted and sent its hello.
    Accepted {
        hello: Hello,
        framed: Framed<TcpStream>,
    },
    /// A connection died.
    Gone { channel: ChannelId, gen: u64 },
    /// A background re-dial of a lost channel succeeded.
    Reconnected {
        channel: ChannelId,
        framed: Framed<TcpStream>,
        attempts: u32,
        elapsed_ms: u64,
    },
    /// A background re-dial exhausted its attempts.
    ReconnectFailed { channel: ChannelId },
}

struct Conn {
    writer_tx: mpsc::Sender<Frame>,
    /// Dial target when this end initiated the channel; reconnection is
    /// only possible (and only attempted) from the initiating side.
    peer: Option<String>,
    /// The far end's name whichever side initiated: the dial target for
    /// dialed connections, the hello's `from` for accepted ones. Chaos
    /// gating keys on it; `None` only for half-open channels.
    remote: Option<String>,
    /// The connection died and a background re-dial is in flight.
    recovering: bool,
    /// Socket generation, bumped on every reconnect. Reader/writer tasks
    /// tag inbox traffic with the generation they serve; a superseded
    /// socket's death notice can surface after the swap, and acting on it
    /// would re-trigger recovery on the healthy replacement — forever,
    /// since each replacement's teardown seeds the next notice.
    gen: u64,
}

/// Spawn a node: bind a listener, run the actor, return its handle.
pub async fn spawn_node(
    name: impl Into<String>,
    box_id: BoxId,
    logic: Box<dyn AppLogic>,
    dir: Directory,
) -> std::io::Result<NodeHandle> {
    spawn_node_obs(name, box_id, logic, dir, Box::new(NoopObserver)).await
}

/// [`spawn_node`] with a caller-supplied structural observer. The node's
/// metrics registry always counts regardless (fanned out in front of
/// `observer`); the observer receives the same event stream and can
/// record, export, or forward it.
pub async fn spawn_node_obs(
    name: impl Into<String>,
    box_id: BoxId,
    logic: Box<dyn AppLogic>,
    dir: Directory,
    observer: Box<dyn Observer + Send>,
) -> std::io::Result<NodeHandle> {
    spawn_node_with(
        name,
        box_id,
        logic,
        dir,
        ReconnectPolicy::default(),
        observer,
    )
    .await
}

/// [`spawn_node_obs`] with an explicit [`ReconnectPolicy`].
pub async fn spawn_node_with(
    name: impl Into<String>,
    box_id: BoxId,
    logic: Box<dyn AppLogic>,
    dir: Directory,
    policy: ReconnectPolicy,
    observer: Box<dyn Observer + Send>,
) -> std::io::Result<NodeHandle> {
    spawn_node_inner(name, box_id, logic, dir, policy, observer, None, None).await
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
    spawn_node_with(name, box_id, logic, dir, policy, observer).await
}

/// [`spawn_node_with`] plus a [`ChaosGate`]: every outgoing frame and
/// every (re)dial consults the gate, so the node participates in
/// orchestrated fault schedules. A gate-blocked frame on an initiated
/// connection declares the connection dead (the runtime analogue of a
/// partition killing TCP), and the reconnect path stays blocked until
/// the gate heals — recovery then rides the ordinary redial + §VI
/// resync machinery.
pub async fn spawn_node_chaos(
    name: impl Into<String>,
    box_id: BoxId,
    logic: Box<dyn AppLogic>,
    dir: Directory,
    policy: ReconnectPolicy,
    observer: Box<dyn Observer + Send>,
    gate: Arc<ChaosGate>,
) -> std::io::Result<NodeHandle> {
    spawn_node_inner(name, box_id, logic, dir, policy, observer, None, Some(gate)).await
}

/// [`spawn_node_with`] plus causal tracing: every stimulus the node
/// processes becomes a span in `sink`, outgoing signaling frames carry
/// the trace context on the wire ([`Frame::Traced`]), and incoming traced
/// frames link the local spans into the sender's call trace. Untraced
/// peers interoperate (they see/send plain [`Frame::Msg`]). Spans are
/// stamped with `clock`: nodes that share a sink must share it too, or
/// their spans sit on different timelines.
#[allow(clippy::too_many_arguments)]
pub async fn spawn_node_traced(
    name: impl Into<String>,
    box_id: BoxId,
    logic: Box<dyn AppLogic>,
    dir: Directory,
    policy: ReconnectPolicy,
    observer: Box<dyn Observer + Send>,
    sink: Arc<SpanSink>,
    clock: Arc<dyn Clock + Send + Sync>,
) -> std::io::Result<NodeHandle> {
    let tracer = Some(Tracer::new(sink, clock));
    spawn_node_inner(name, box_id, logic, dir, policy, observer, tracer, None).await
}

#[allow(clippy::too_many_arguments)]
async fn spawn_node_inner(
    name: impl Into<String>,
    box_id: BoxId,
    logic: Box<dyn AppLogic>,
    dir: Directory,
    policy: ReconnectPolicy,
    observer: Box<dyn Observer + Send>,
    tracer: Option<Tracer>,
    gate: Option<Arc<ChaosGate>>,
) -> std::io::Result<NodeHandle> {
    let name = name.into();
    let listener = TcpListener::bind("127.0.0.1:0").await?;
    let addr = listener.local_addr()?;
    dir.register(name.clone(), addr);

    let (user_tx, user_rx) = mpsc::channel(64);
    let (input_tx, input_rx) = mpsc::channel(64);
    let (shutdown_tx, shutdown_rx) = watch::channel(false);
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

    // One queue for every connection's events: per-channel FIFO (what §VI
    // resync and the Bye protocol rely on) is global FIFO.
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
        metrics: MetricsSnapshot::default(),
        obs: Fanout(log, obs),
        registry: registry.clone(),
        tracer,
        gate,
        inbox_tx,
        buffers: Buffers::default(),
        lost: VecDeque::new(),
    };
    let join = tokio::spawn(actor.run(inbox_rx, user_rx, input_rx, shutdown_rx));

    Ok(NodeHandle {
        name,
        addr,
        user_tx,
        input_tx,
        shutdown_tx,
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
    /// The same for the metrics: filled before a publish, swapped in.
    metrics: MetricsSnapshot,
    /// Unified event sink: the slot log, then metrics counting fanned out
    /// with any observer the spawner supplied.
    obs: Fanout<SlotLog, Box<dyn Observer + Send>>,
    registry: Arc<Registry>,
    /// Causal tracer, when spawned via [`spawn_node_traced`].
    tracer: Option<Tracer>,
    /// Chaos gate, when spawned via [`spawn_node_chaos`]; consulted on
    /// every outgoing frame and every (re)dial.
    gate: Option<Arc<ChaosGate>>,
    inbox_tx: mpsc::Sender<Inbox>,
    /// Lent to every host call and drained right after.
    buffers: Buffers,
    /// Connections (with their generation) the actor itself declared dead
    /// while transmitting, handled before its next event. They do not go
    /// through the inbox: the actor is its only consumer, so awaiting room
    /// in it would wait on itself.
    lost: VecDeque<(ChannelId, u64)>,
}

impl Actor {
    async fn run(
        mut self,
        mut inbox_rx: mpsc::Receiver<Inbox>,
        mut user_rx: mpsc::Receiver<(SlotId, UserCmd)>,
        mut input_rx: mpsc::Receiver<BoxInput>,
        mut shutdown_rx: watch::Receiver<bool>,
    ) {
        self.feed(Input::Inject(BoxInput::Start), None).await;

        loop {
            while let Some((channel, gen)) = self.lost.pop_front() {
                self.on_conn_lost(channel, gen).await;
            }
            self.publish();
            let next_timer = self.timers.peek().map(|Reverse((due, ..))| *due);
            tokio::select! {
                biased;
                _ = shutdown_rx.changed() => {
                    if *shutdown_rx.borrow() {
                        break;
                    }
                }
                Some(msg) = inbox_rx.recv() => {
                    self.on_inbox(msg).await;
                    // Apply what else is already queued before paying for
                    // the snapshot publish.
                    for _ in 1..INBOX_BATCH {
                        let Ok(msg) = inbox_rx.try_recv() else {
                            break;
                        };
                        self.on_inbox(msg).await;
                    }
                }
                Some((slot, cmd)) = user_rx.recv() => {
                    self.feed(Input::User { slot, cmd }, None).await;
                }
                Some(input) = input_rx.recv() => {
                    self.feed(Input::Inject(input), None).await;
                }
                // Disabled while no wakeup is pending; the fallback deadline
                // only gives the disabled branch a value.
                _ = sleep_until(next_timer.unwrap_or_else(Instant::now)), if next_timer.is_some() => {
                    self.fire_due_timers().await;
                }
            }
        }

        // Graceful shutdown: orderly Bye on every channel, then release
        // the directory entry — guarded by address, so a replacement
        // instance that already re-registered keeps its fresh binding.
        for conn in self.conns.values() {
            let _ = conn.writer_tx.send(Frame::Bye).await;
        }
        self.dir.deregister(&self.name, self.addr);
    }

    /// Feed one input to the host and execute its effects — and the
    /// inputs those give rise to (a dial's outcome) — until none are left.
    /// `cause` is the trace context the input arrived with, if any.
    async fn feed(&mut self, input: Input, cause: Option<SpanCtx>) {
        let mut next = Some((input, cause));
        let mut pending = VecDeque::new();
        while let Some((input, cause)) = next {
            let ctx = self.apply(input, cause);
            let mut effects = std::mem::take(&mut self.buffers.effects);
            for effect in effects.drain(..) {
                match effect {
                    Effect::Send { channel, msg } => self.transmit(channel, msg, ctx).await,
                    Effect::Dial { to, tunnels, req } => {
                        let (channel, answered) = self.open_channel(&to, tunnels).await;
                        pending.extend(Input::dial_outcome(channel, req, answered));
                    }
                    Effect::Hangup { channel } => {
                        // Local teardown is immediate; the peer acts on Bye.
                        self.slots_changed = true;
                        if let Some(conn) = self.conns.remove(&channel) {
                            let _ = conn.writer_tx.send(Frame::Bye).await;
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
            next = pending.pop_front().map(|input| (input, None));
        }
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
        let channels = self.conns.len();
        let recovering = self.conns.values().filter(|c| c.recovering).count();
        self.registry.snapshot_into(&mut self.metrics);
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
            std::mem::swap(&mut snap.metrics, &mut self.metrics);
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

    async fn on_inbox(&mut self, msg: Inbox) {
        match msg {
            Inbox::Accepted { hello, framed } => {
                let channel =
                    self.add_channel(hello.tunnels, false, None, Some(hello.from), Some(framed));
                self.feed(Input::ChannelUp { channel, req: None }, None)
                    .await;
            }
            Inbox::Net {
                channel,
                gen,
                frame,
            } => {
                // A frame surfacing from a superseded socket is a ghost of
                // a dead connection; acting on it (especially a Bye) would
                // hit the live replacement.
                if self.conns.get(&channel).map(|c| c.gen) != Some(gen) {
                    return;
                }
                match frame {
                    Frame::Msg(msg) => self.feed(Input::Msg { channel, msg }, None).await,
                    // A traced frame is its inner message plus the
                    // sender's causal context.
                    Frame::Traced { ctx, msg } => {
                        self.feed(Input::Msg { channel, msg }, Some(ctx)).await;
                    }
                    Frame::Bye => self.drop_channel(channel).await,
                    Frame::Hello(_) => {} // protocol error
                }
            }
            Inbox::Gone { channel, gen } => self.on_conn_lost(channel, gen).await,
            Inbox::Reconnected {
                channel,
                framed,
                attempts,
                elapsed_ms,
            } => {
                self.on_reconnected(channel, framed, attempts, elapsed_ms)
                    .await;
            }
            Inbox::ReconnectFailed { channel } => {
                // Graceful degradation: the peer stayed unreachable, so
                // the channel is torn down in order (ChannelDown to the
                // program), exactly as if the peer had said Bye.
                self.drop_channel(channel).await;
            }
        }
    }

    /// The TCP connection behind `channel` died without a Bye. If this
    /// end initiated the channel, park its slots (state retained, nothing
    /// removed) and re-dial in the background with capped exponential
    /// backoff; otherwise tear the channel down as before.
    async fn on_conn_lost(&mut self, channel: ChannelId, gen: u64) {
        let Some(conn) = self.conns.get_mut(&channel) else {
            return;
        };
        if conn.gen != gen {
            return; // death notice from a socket a reconnect already replaced
        }
        if conn.recovering {
            return; // reader and writer can both report the same death
        }
        let Some(peer) = conn
            .peer
            .clone()
            .filter(|_| self.policy.reconnect_attempts > 0)
        else {
            self.drop_channel(channel).await;
            return;
        };
        conn.recovering = true;
        self.obs.fault_injected(self.host.id().0, "disconnect");
        let tunnels = self.host.channel_slots(channel).map_or(0, SlotRange::len);
        let dir = self.dir.clone();
        let name = self.name.clone();
        let policy = self.policy;
        let gate = self.gate.clone();
        let tx = self.inbox_tx.clone();
        tokio::spawn(async move {
            let t0 = std::time::Instant::now();
            // Jittered capped backoff: after a partition heals, every
            // initiator on the link redials at once; full jitter keeps
            // them from stampeding in lockstep.
            let delays = backoff_delays(
                &policy,
                jitter_seed(&name, channel.0),
                policy.reconnect_attempts,
            );
            for (i, delay) in delays.iter().enumerate() {
                sleep(*delay).await;
                let Some(framed) = connect(&dir, &gate, &policy, &name, &peer, tunnels).await
                else {
                    continue;
                };
                let _ = tx
                    .send(Inbox::Reconnected {
                        channel,
                        framed,
                        attempts: i as u32 + 1,
                        elapsed_ms: t0.elapsed().as_millis() as u64,
                    })
                    .await;
                return;
            }
            let _ = tx.send(Inbox::ReconnectFailed { channel }).await;
        });
    }

    /// A re-dial landed: swap the new connection in under the existing
    /// channel id, then have the host retransmit each parked slot's
    /// cached signals so the (idempotent, §VI) protocol re-establishes
    /// peer state.
    async fn on_reconnected(
        &mut self,
        channel: ChannelId,
        framed: Framed<TcpStream>,
        attempts: u32,
        elapsed_ms: u64,
    ) {
        let Some(gen) = self.conns.get(&channel).map(|c| c.gen + 1) else {
            return; // torn down while the dial was in flight
        };
        let writer_tx = self.spawn_io_tasks(channel, gen, framed);
        let conn = self.conns.get_mut(&channel).expect("checked above");
        conn.writer_tx = writer_tx;
        conn.gen = gen;
        conn.recovering = false;
        self.obs.fault_injected(self.host.id().0, "reconnect");
        let resync = Input::Resync {
            channel,
            attempts,
            elapsed_ms,
        };
        self.feed(resync, None).await;
    }

    async fn drop_channel(&mut self, channel: ChannelId) {
        if self.conns.remove(&channel).is_some() {
            self.slots_changed = true;
            self.feed(Input::ChannelDown { channel }, None).await;
        }
    }

    /// Allocate a channel id, register it with the host (which allocates
    /// its slots), and — unless it is half-open — spawn reader and writer
    /// tasks for its connection. `peer` is the dial target when this end
    /// opened the connection (it enables reconnection).
    fn add_channel(
        &mut self,
        tunnels: u16,
        initiator: bool,
        peer: Option<String>,
        remote: Option<String>,
        framed: Option<Framed<TcpStream>>,
    ) -> ChannelId {
        let channel = ChannelId(self.next_channel);
        self.next_channel += 1;
        self.host.register_channel(channel, tunnels, initiator);
        self.slots_changed = true;
        let writer_tx = match framed {
            Some(framed) => self.spawn_io_tasks(channel, 0, framed),
            // Nothing reads what is written to a half-open channel.
            None => mpsc::channel(1).0,
        };
        self.conns.insert(
            channel,
            Conn {
                writer_tx,
                peer,
                remote,
                recovering: false,
                gen: 0,
            },
        );
        channel
    }

    /// Spawn the reader and writer tasks for one live connection and
    /// return the writer's input queue. Both report a dead connection as
    /// [`Inbox::Gone`]; a frame write that exceeds the send timeout
    /// counts as dead (backpressure on a stalled peer must not wedge the
    /// channel silently).
    fn spawn_io_tasks(
        &self,
        channel: ChannelId,
        gen: u64,
        framed: Framed<TcpStream>,
    ) -> mpsc::Sender<Frame> {
        let (writer_tx, mut writer_rx) = mpsc::channel::<Frame>(64);
        let (stream, leftover) = framed.into_parts();
        let (read_half, write_half) = stream.into_split();

        let tx = self.inbox_tx.clone();
        tokio::spawn(async move {
            // Frames that arrived behind the handshake are still in the
            // buffer; the reader must start from them.
            let mut reader = Framed::from_parts(read_half, leftover);
            loop {
                match reader.read_frame().await {
                    Ok(Some(bytes)) => match wire::decode(bytes) {
                        Ok(frame) => {
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
                        Err(_) => {
                            let _ = tx.send(Inbox::Gone { channel, gen }).await;
                            break;
                        }
                    },
                    Ok(None) | Err(_) => {
                        let _ = tx.send(Inbox::Gone { channel, gen }).await;
                        break;
                    }
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
        writer_tx
    }

    /// Put one message on a channel's connection, carrying the trace
    /// context of the activation that produced it when tracing is on
    /// (plain [`Frame::Msg`] otherwise, so untraced peers never see the
    /// extended frame).
    async fn transmit(&mut self, channel: ChannelId, msg: ChannelMsg, ctx: Option<SpanCtx>) {
        let Some(conn) = self.conns.get_mut(&channel) else {
            return;
        };
        if let Some(kind) = gate_verdict(&self.gate, &self.name, conn) {
            self.obs.fault_injected(self.host.id().0, kind);
            // A gate-blocked frame means the link is dead from this
            // node's point of view: declare the connection gone.
            // Initiators re-dial (equally gated) and resync; acceptors
            // tear the pipe down so the far initiator notices and
            // re-dials — never a silent byte eater, which would wedge the
            // peer's await forever.
            if !conn.recovering {
                self.lost.push_back((channel, conn.gen));
            }
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
        // has gone, or it is half-open): the frame has nowhere to go.
        let Err(mpsc::error::TrySendError::Full(frame)) = conn.writer_tx.try_send(frame) else {
            return;
        };
        // Back-pressure: a full writer queue makes the actor wait for
        // room rather than discard the frame. A writer that makes none
        // within the send timeout is as dead as a socket write that takes
        // that long: stop queueing behind it and declare the connection
        // gone.
        let t0 = std::time::Instant::now();
        let waited = timeout(self.policy.send_timeout, conn.writer_tx.send(frame)).await;
        self.registry
            .writer_wait_us
            .observe(t0.elapsed().as_micros() as u64);
        if waited.is_err() {
            conn.writer_tx = mpsc::channel(1).0;
            self.lost.push_back((channel, conn.gen));
        }
    }

    /// Execute a dial: on success the new channel rides the connection;
    /// on failure it is half-open, for the program to observe and destroy
    /// (Fig. 6). Returns the channel and whether the target answered.
    async fn open_channel(&mut self, to: &str, tunnels: u16) -> (ChannelId, bool) {
        let t0 = std::time::Instant::now();
        let framed = self.dial(to, tunnels).await;
        let answered = framed.is_some();
        let peer = answered.then(|| to.to_string());
        let channel = self.add_channel(tunnels, true, peer.clone(), peer, framed);
        if answered {
            self.registry
                .tunnel_setup_ms
                .observe(t0.elapsed().as_millis() as u64);
        }
        (channel, answered)
    }

    /// Dial a named box: fail fast when the directory has no entry (the
    /// name is simply wrong), otherwise retry the connect with capped
    /// exponential backoff up to `connect_attempts`.
    async fn dial(&mut self, to: &str, tunnels: u16) -> Option<Framed<TcpStream>> {
        let attempts = self.policy.connect_attempts.max(1);
        let delays = backoff_delays(&self.policy, jitter_seed(&self.name, 0), attempts);
        for attempt in 0..attempts {
            if attempt > 0 {
                sleep(delays[attempt as usize - 1]).await;
            }
            self.dir.lookup(to)?;
            let (dir, gate, policy) = (&self.dir, &self.gate, &self.policy);
            if let Some(framed) = connect(dir, gate, policy, &self.name, to, tunnels).await {
                return Some(framed);
            }
        }
        None
    }
}

/// One attempt to set up the connection under a channel from `name` to
/// `to`: resolve, connect and say hello, each bounded by the send
/// timeout. A partitioned or crashed target costs the attempt exactly as
/// an unreachable address would (but skips the useless connect), and the
/// name is looked up anew every time because a restarted box re-registers
/// under the same name at a fresh address.
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

/// The chaos gate's verdict for a frame leaving `name` on `conn`:
/// `None` passes, `Some(kind)` blocks with the fault kind to count.
/// Half-open channels (no remote name) are never gated.
fn gate_verdict(gate: &Option<Arc<ChaosGate>>, name: &str, conn: &Conn) -> Option<&'static str> {
    let gate = gate.as_ref()?;
    let remote = conn.remote.as_deref()?;
    gate.check(name, remote).err()
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
