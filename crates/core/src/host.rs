//! The sans-IO box environment (paper §IV-A/B): one [`ProgramBox`] plus
//! everything an environment must do around it, written once for every
//! substrate.
//!
//! A [`NodeHost`] owns the box, its timer generations, slot-id allocation,
//! the channel → slot-range table (which routes a slot's signals too), the
//! optional §VI [`Reliability`] layer, and the activation-span logic. A
//! substrate feeds it [`Input`]s and executes the [`Effect`]s it appends
//! to the [`Buffers`] the substrate lends it; observer calls happen
//! inside. The host has no clock, no queue, no socket and no `async`: the
//! discrete-event simulator turns effects into scheduled events, the tokio
//! runtime turns them into frames, and a test can wire two hosts back to
//! back with a `Vec`.

use crate::boxes::{BoxNote, GoalSpec, MediaBox};
use crate::error::ProtocolError;
use crate::goal::{Outgoing, UserCmd};
use crate::ids::{BoxId, ChannelId, SlotId, SlotRange, TunnelId};
use crate::program::{AppLogic, BoxCmd, BoxInput, ProgramBox, TimerGenerations, TimerId};
use crate::reliable::{self, Reliability, TimerAction};
use crate::signal::{Availability, ChannelMsg, MetaSignal};
use ipmedia_obs::trace::{SpanCtx, Tracer};
use ipmedia_obs::Observer;

/// The most slots one box holds at once. A channel that would take a box
/// past it is refused, whoever asked: a peer's channel is turned away, and
/// the box's own dial comes back unavailable. Eight times the slots of the
/// busiest node the benchmark runs (512, on `rt_waves`), and far below the
/// end of the `u16` slot ids.
pub const MAX_SLOTS: u16 = 4096;

/// A harness closure over the box; the commands it returns are executed
/// like the program's own. What it does to the box itself goes
/// unobserved (see [`Input::Apply`]).
pub type ApplyFn = Box<dyn FnOnce(&mut ProgramBox) -> Vec<BoxCmd> + Send>;

/// What a substrate feeds a [`NodeHost`].
pub enum Input {
    /// A user command on a user-agent slot (Fig. 5 user events).
    User {
        /// The user-agent slot.
        slot: SlotId,
        /// The command.
        cmd: UserCmd,
    },
    /// Goals a harness gives the box from outside its program, set in
    /// order as one stimulus, each the way the program's own
    /// [`crate::program::Ctx::set_goal`] sets one: every goal dropped and
    /// activated and every transition it causes is observed, and so is a
    /// goal the box refuses.
    Goals(Vec<GoalSpec>),
    /// A harness closure over the box: the unobserved back door, for
    /// planting raw commands (a fault the program would never make). What
    /// it does to the box reaches no observer; only the signals it returns
    /// are observed, as sent.
    Apply(ApplyFn),
    /// A box input delivered as is (`Start`, application meta-signals from
    /// local features, test stimuli).
    Inject(BoxInput),
    /// A message arrived on a signaling channel. The host resolves the
    /// tunnel to its slot and drops the message if the channel or slot is
    /// gone; with reliability on, a duplicate `open`/`describe` is
    /// re-acknowledged from the slot's cache (§VI).
    Msg {
        /// The channel it arrived on.
        channel: ChannelId,
        /// The message.
        msg: ChannelMsg,
    },
    /// A channel registered with [`NodeHost::register_channel`] is up;
    /// `req` echoes the [`Effect::Dial`] tag when this box asked for it.
    ChannelUp {
        /// The channel that came up.
        channel: ChannelId,
        /// Echo of the dial request tag, if this box dialed.
        req: Option<u32>,
    },
    /// The far end (or the substrate) destroyed a channel: its slots are
    /// removed, and with them their routes, then the program is told.
    ChannelDown {
        /// The destroyed channel.
        channel: ChannelId,
    },
    /// A wakeup scheduled by [`Effect::ArmTimer`] came due. Stale
    /// generations are dropped; retransmission timers go to the
    /// reliability layer, everything else to the program.
    TimerFired {
        /// The timer.
        id: TimerId,
        /// The generation stamped on the wakeup when it was armed.
        gen: u64,
    },
    /// The connection under a channel was replaced after an outage:
    /// re-emit each slot's cached signals so the idempotent protocol
    /// re-establishes peer state (§VI), reporting each as recovered.
    Resync {
        /// The channel whose connection was replaced.
        channel: ChannelId,
        /// Dial attempts the recovery took.
        attempts: u32,
        /// Outage duration in milliseconds.
        elapsed_ms: u64,
    },
    /// (Re)start the reliability layer from scratch and arm a timer for
    /// every outstanding await — after enabling it, or after a crash
    /// swallowed its timer fires.
    Rearm,
}

impl Input {
    /// The two inputs that report the outcome of an [`Effect::Dial`] to
    /// the box that asked, in order: the channel (registered by the
    /// substrate, half-open when nobody answered) comes up echoing `req`,
    /// then the far end's availability arrives as a meta-signal.
    pub fn dial_outcome(channel: ChannelId, req: u32, answered: bool) -> [Input; 2] {
        let peer = if answered {
            Availability::Available
        } else {
            Availability::Unavailable
        };
        [
            Input::ChannelUp {
                channel,
                req: Some(req),
            },
            Input::Msg {
                channel,
                msg: ChannelMsg::Meta(MetaSignal::Peer(peer)),
            },
        ]
    }
}

/// What a [`NodeHost`] asks its substrate to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// Transmit `msg` on `channel`.
    Send {
        /// The channel to send on.
        channel: ChannelId,
        /// The message.
        msg: ChannelMsg,
    },
    /// Set up a channel toward the box named `to`; answer by registering
    /// the channel and feeding [`Input::dial_outcome`].
    Dial {
        /// Name of the far box.
        to: String,
        /// Number of tunnels.
        tunnels: u16,
        /// Request tag to echo.
        req: u32,
    },
    /// The box destroyed `channel`; its local slots are already gone.
    /// Tell the far end.
    Hangup {
        /// The destroyed channel.
        channel: ChannelId,
    },
    /// Wake the host with [`Input::TimerFired`]`{id, gen}` in `after_ms`.
    ArmTimer {
        /// The timer.
        id: TimerId,
        /// Generation to hand back.
        gen: u64,
        /// Delay in milliseconds.
        after_ms: u64,
    },
    /// The program terminated.
    Terminated,
}

/// The buffers a substrate lends [`NodeHost::handle`] and reuses for the
/// next call, so an activation allocates none of its own. What the
/// substrate must do comes back in `effects`; the rest is the
/// activation's scratch and comes back empty. One set serves every host
/// of a substrate: a fleet of boxes shares a single warm buffer instead of
/// each keeping a cold one.
#[derive(Default)]
pub struct Buffers {
    /// What the substrate must do, in order. The substrate drains it.
    pub effects: Vec<Effect>,
    /// What the box asked for during the activation.
    cmds: Vec<BoxCmd>,
    /// The notes the media layer surfaced to the program.
    notes: Vec<BoxNote>,
}

/// When an input arrived and what caused it, in the substrate's clock
/// (microseconds): the simulator's virtual time, or wall time on `rt`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Arrival {
    /// Causal context the input carried, if its cause was traced.
    pub cause: Option<SpanCtx>,
    /// The box whose output crossed the network to cause this input; the
    /// activation gets a `"transit"` span iff this and `cause` are set.
    pub from: Option<u32>,
    /// When the input reached the box (`reliable` measures from here).
    pub arrived_micros: u64,
    /// When the box starts computing on it (after any queueing).
    pub start_micros: u64,
    /// When the box is done and its outputs leave.
    pub done_micros: u64,
}

/// A user command the slot protocol rejected; the box is unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejected {
    /// The slot the command was for.
    pub slot: SlotId,
    /// Why the protocol refused it.
    pub error: ProtocolError,
}

/// What [`NodeHost::handle`] did with an input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// The box computed on the input (one stimulus). `false` when the
    /// input was dropped — stale timer, dead channel or slot — or only
    /// touched the host's own bookkeeping.
    pub activated: bool,
    /// Context the effects of this activation should carry (tracing
    /// only).
    pub ctx: Option<SpanCtx>,
}

impl Outcome {
    const QUIET: Outcome = Outcome {
        activated: false,
        ctx: None,
    };
}

/// One box and its environment state. See the module docs.
pub struct NodeHost {
    pb: ProgramBox,
    timers: TimerGenerations,
    /// Slots per channel, sorted by channel id; it is the route table
    /// too. Most boxes have a channel or two, and a sorted `Vec` costs a
    /// fleet of them less memory than a hash table each.
    channels: Vec<(ChannelId, SlotRange)>,
    /// The next slot id: ids are dealt densely from zero, never reused.
    next_slot: u16,
    /// Boxed: most boxes never turn it on.
    reliab: Option<Box<Reliability>>,
}

impl NodeHost {
    /// A host around a fresh box with the given identity and program.
    pub fn new(id: BoxId, logic: Box<dyn AppLogic>) -> Self {
        Self {
            pb: ProgramBox::new(id, logic),
            timers: TimerGenerations::default(),
            channels: Vec::new(),
            next_slot: 0,
            reliab: None,
        }
    }

    /// Identity of the hosted box.
    pub fn id(&self) -> BoxId {
        self.pb.media().id()
    }

    /// Read access to the box's media layer (slots, goals).
    pub fn media(&self) -> &MediaBox {
        self.pb.media()
    }

    /// The slots of a registered channel, in tunnel order.
    pub fn channel_slots(&self, channel: ChannelId) -> Option<SlotRange> {
        let i = self.channel_index(channel).ok()?;
        Some(self.channels[i].1)
    }

    /// Position of `channel` in the sorted table, or where it would go.
    fn channel_index(&self, channel: ChannelId) -> Result<usize, usize> {
        self.channels.binary_search_by_key(&channel, |(ch, _)| *ch)
    }

    /// Where signals of `slot` go: read off the channel table, so a slot
    /// of a dropped channel has no route.
    pub fn route(&self, slot: SlotId) -> Option<(ChannelId, TunnelId)> {
        self.channels.iter().find_map(|&(ch, slots)| {
            let t = slot
                .0
                .checked_sub(slots.first.0)
                .filter(|&t| t < slots.len)?;
            Some((ch, TunnelId(t)))
        })
    }

    /// Start loading the heap blocks a stimulus reads — the channel
    /// table, the slot table, the goal table's first line and the
    /// program's state — so a substrate that knows which box comes next
    /// need not wait for them (DESIGN §3.1). The host itself must be in
    /// cache already: its pointers name the blocks.
    pub fn prefetch(&self) {
        crate::prefetch(
            self.channels.as_ptr().cast(),
            size_of_val(&self.channels[..]),
        );
        self.pb.prefetch();
    }

    /// The generations of the timers the box and its reliability layer
    /// armed.
    pub fn timers(&self) -> &TimerGenerations {
        &self.timers
    }

    /// Slots that exhausted their retransmissions and parked.
    pub fn parked_slots(&self) -> Vec<SlotId> {
        self.reliab
            .as_ref()
            .map(|r| r.parked_slots().collect())
            .unwrap_or_default()
    }

    /// Turn the §VI retransmission layer on; feed [`Input::Rearm`] to arm
    /// the awaits already outstanding.
    pub fn enable_reliability(&mut self) {
        self.reliab = Some(Box::new(Reliability::new()));
    }

    /// Register a channel: deal one slot per tunnel, consecutively.
    /// `initiator` is true iff this box initiated the channel. Registering
    /// is separate from [`Input::ChannelUp`] because a substrate may learn
    /// of a channel (and must fix its slot ids) before the box is told.
    /// A channel that would take the box past [`MAX_SLOTS`] live slots, or
    /// past the last slot id, is refused: `None`, and nothing is
    /// registered.
    pub fn register_channel(
        &mut self,
        channel: ChannelId,
        tunnels: u16,
        initiator: bool,
    ) -> Option<SlotRange> {
        let Err(at) = self.channel_index(channel) else {
            panic!("channel {channel:?} already registered");
        };
        let live = self.pb.media().slots().len() + usize::from(tunnels);
        let next = self.next_slot.checked_add(tunnels);
        let next = next.filter(|_| live <= usize::from(MAX_SLOTS))?;
        let slots = SlotRange {
            first: SlotId(self.next_slot),
            len: tunnels,
        };
        self.next_slot = next;
        for slot in slots.iter() {
            self.pb.media_mut().add_slot(slot, initiator);
        }
        self.channels.insert(at, (channel, slots));
        Some(slots)
    }

    /// Register the channel a dial of this box set up, and return whether
    /// its slots were dealt. One that does not fit (see
    /// [`NodeHost::register_channel`]) is registered with no slots, and
    /// its dial comes back as if nobody had answered: half-open, the peer
    /// unavailable ([`Input::dial_outcome`]).
    pub fn register_dialed(&mut self, channel: ChannelId, tunnels: u16) -> bool {
        let dealt = self.register_channel(channel, tunnels, true).is_some();
        if !dealt {
            self.register_channel(channel, 0, true);
        }
        dealt
    }

    /// Apply one input. Effects are appended to `bufs.effects` in the
    /// order the substrate must execute them; protocol activity is reported
    /// to `obs`, and with a `tracer` the activation is recorded as spans.
    ///
    /// The only error is a user command the slot protocol rejects; the
    /// substrate decides what a rejection means.
    pub fn handle(
        &mut self,
        input: Input,
        at: &Arrival,
        obs: &mut dyn Observer,
        tracer: Option<&Tracer>,
        bufs: &mut Buffers,
    ) -> Result<Outcome, Rejected> {
        let bx = self.id().0;
        let ctx = match input {
            Input::Inject(input) => return Ok(self.deliver(input, at, obs, tracer, bufs)),
            Input::Msg { channel, msg } => {
                let Some(slots) = self.channel_slots(channel) else {
                    return Ok(Outcome::QUIET);
                };
                let input = match msg {
                    ChannelMsg::Tunnel { tunnel, signal } => {
                        let Some(slot) = slots.get(usize::from(tunnel.0)) else {
                            return Ok(Outcome::QUIET);
                        };
                        BoxInput::Tunnel { slot, signal }
                    }
                    ChannelMsg::Meta(meta) => BoxInput::Meta { channel, meta },
                };
                return Ok(self.deliver(input, at, obs, tracer, bufs));
            }
            Input::ChannelUp { channel, req } => {
                let Some(slots) = self.channel_slots(channel) else {
                    return Ok(Outcome::QUIET);
                };
                let input = BoxInput::ChannelUp {
                    channel,
                    slots: slots.to_vec(),
                    req,
                };
                return Ok(self.deliver(input, at, obs, tracer, bufs));
            }
            Input::ChannelDown { channel } => {
                if self.channel_index(channel).is_err() {
                    return Ok(Outcome::QUIET);
                }
                let input = BoxInput::ChannelDown { channel };
                return Ok(self.deliver(input, at, obs, tracer, bufs));
            }
            Input::TimerFired { id, gen } => {
                if !self.timers.is_current(id, gen) {
                    return Ok(Outcome::QUIET);
                }
                let Some(rel) = self
                    .reliab
                    .as_mut()
                    .filter(|_| reliable::timer_slot(id).is_some())
                else {
                    return Ok(self.deliver(BoxInput::Timer(id), at, obs, tracer, bufs));
                };
                let Some(TimerAction::Resend {
                    slot,
                    signals,
                    rearm_ms,
                }) = rel.on_timer(self.pb.media(), id)
                else {
                    return Ok(Outcome::QUIET); // await resolved, or slot parked
                };
                // A retransmission costs a stimulus like any other
                // activity; its span parents to the stimulus that armed
                // the timer, keeping the whole recovery in one trace.
                let kind = signals.first().map_or("resend", |s| s.kind());
                let ctx = self.activate(at, tracer, "retransmission", || {
                    format!("resend {kind} s{}", slot.0)
                });
                obs.stimulus(bx, "retransmit");
                obs.retransmission(bx, slot.0, kind);
                for signal in signals {
                    self.send(Outgoing { slot, signal }, obs, &mut bufs.effects);
                }
                self.arm(id, rearm_ms, &mut bufs.effects);
                ctx
            }
            Input::User { slot, cmd } => {
                let ctx = self.activate(at, tracer, "stimulus", || {
                    format!("user {cmd:?} s{}", slot.0)
                });
                obs.stimulus(bx, "user");
                let sent = self
                    .pb
                    .media_mut()
                    .user_into(slot, cmd, obs, &mut bufs.cmds);
                self.execute(bufs.cmds.drain(..), obs, &mut bufs.effects);
                sent.map_err(|error| Rejected { slot, error })?;
                ctx
            }
            Input::Goals(goals) => {
                let ctx = self.activate(at, tracer, "stimulus", || "goals".into());
                obs.stimulus(bx, "goals");
                for spec in goals {
                    let set = self.pb.media_mut().set_goal_into(spec, obs, &mut bufs.cmds);
                    if let Err(slot) = set {
                        obs.signal_ignored(bx, slot.0, "program_rejected");
                    }
                }
                self.execute(bufs.cmds.drain(..), obs, &mut bufs.effects);
                ctx
            }
            Input::Apply(f) => {
                let ctx = self.activate(at, tracer, "stimulus", || "apply".into());
                obs.stimulus(bx, "apply");
                let cmds = f(&mut self.pb);
                self.execute(cmds, obs, &mut bufs.effects);
                ctx
            }
            Input::Resync {
                channel,
                attempts,
                elapsed_ms,
            } => {
                let mut resend = Vec::new();
                let slots = self.channel_slots(channel);
                for slot in slots.into_iter().flat_map(SlotRange::iter) {
                    let Some(s) = self.pb.media().slot(slot) else {
                        continue;
                    };
                    let signals = reliable::resend_signals(s);
                    if signals.is_empty() {
                        continue;
                    }
                    for signal in signals {
                        obs.retransmission(bx, slot.0, signal.kind());
                        resend.push(Outgoing { slot, signal });
                    }
                    obs.recovered(bx, slot.0, attempts, elapsed_ms);
                }
                for o in resend {
                    self.send(o, obs, &mut bufs.effects);
                }
                self.sync_reliability(at, obs, &mut bufs.effects);
                return Ok(Outcome::QUIET);
            }
            Input::Rearm => {
                if let Some(rel) = &mut self.reliab {
                    **rel = Reliability::new();
                }
                self.sync_reliability(at, obs, &mut bufs.effects);
                return Ok(Outcome::QUIET);
            }
        };
        self.sync_reliability(at, obs, &mut bufs.effects);
        Ok(Outcome {
            activated: true,
            ctx,
        })
    }

    /// Run the program on one box input. A `ChannelDown` removes the
    /// channel's slots inside the activation, after its stimulus and
    /// before the program runs, so the goals that die with them are
    /// reported under it.
    fn deliver(
        &mut self,
        input: BoxInput,
        at: &Arrival,
        obs: &mut dyn Observer,
        tracer: Option<&Tracer>,
        bufs: &mut Buffers,
    ) -> Outcome {
        let bx = self.id().0;
        let mut reack = Vec::new();
        if let BoxInput::Tunnel { slot, signal } = &input {
            // The channel died while the signal was in flight.
            let Some(s) = self.pb.media().slot(*slot) else {
                return Outcome::QUIET;
            };
            // A duplicate open hitting a flowing acceptor means the
            // original oack/select may have been lost; the slot will
            // ignore the duplicate, so re-emit the cached acknowledgement.
            if self.reliab.is_some() {
                let slot = *slot;
                let signals = reliable::reack_signals(s, signal);
                if !signals.is_empty() {
                    obs.retransmission(bx, slot.0, "reack");
                    reack.extend(signals.into_iter().map(|signal| Outgoing { slot, signal }));
                }
            }
        }
        // Meta-signals are surfaced here because they are an
        // environment-level event rather than a box-level one.
        if let BoxInput::Meta { channel, meta } = &input {
            obs.meta_signal(bx, channel.0, meta.kind());
        }
        let ctx = self.activate(at, tracer, "stimulus", || match &input {
            BoxInput::Tunnel { slot, signal } => format!("?{} s{}", signal.kind(), slot.0),
            BoxInput::Timer(_) => "timer".into(),
            BoxInput::Meta { meta, .. } => format!("meta {}", meta.kind()),
            BoxInput::ChannelUp { channel, .. } => format!("channel_up ch{}", channel.0),
            BoxInput::ChannelDown { channel } => format!("channel_down ch{}", channel.0),
            BoxInput::Start => "start".into(),
            other => format!("{other:?}"),
        });
        obs.stimulus(bx, input.kind());
        if let BoxInput::ChannelDown { channel } = input {
            self.drop_channel(channel, obs);
        }
        self.pb
            .handle_into(input, obs, &mut bufs.cmds, &mut bufs.notes);
        self.execute(bufs.cmds.drain(..), obs, &mut bufs.effects);
        for o in reack {
            self.send(o, obs, &mut bufs.effects);
        }
        self.sync_reliability(at, obs, &mut bufs.effects);
        Outcome {
            activated: true,
            ctx,
        }
    }

    /// Record the spans of one activation: the transit leg iff the cause
    /// crossed the network (timer fires and local follow-ups parent
    /// straight to the causing span), then the activation itself, which
    /// becomes the tracer's current context. Returns the context the
    /// activation's outputs carry. No work — and no label — without a
    /// tracer.
    fn activate(
        &self,
        at: &Arrival,
        tracer: Option<&Tracer>,
        kind: &'static str,
        label: impl FnOnce() -> String,
    ) -> Option<SpanCtx> {
        let tracer = tracer?;
        let label = label();
        let bx = self.id().0;
        let (trace, parent) = match at.cause {
            Some(c) => {
                let parent = match at.from {
                    Some(from) => tracer.span(
                        c.trace,
                        Some(c.parent),
                        bx,
                        Some(from),
                        "transit",
                        label.clone(),
                        c.sent_micros,
                        at.arrived_micros,
                    ),
                    None => c.parent,
                };
                (c.trace, Some(parent))
            }
            None => (tracer.new_trace(), None),
        };
        let parent = tracer.span(
            trace,
            parent,
            bx,
            None,
            kind,
            label,
            at.start_micros,
            at.done_micros,
        );
        tracer.set_current(trace, parent);
        Some(SpanCtx {
            trace,
            parent,
            bx,
            sent_micros: at.done_micros,
        })
    }

    /// Turn the box's commands into effects.
    fn execute(
        &mut self,
        cmds: impl IntoIterator<Item = BoxCmd>,
        obs: &mut dyn Observer,
        out: &mut Vec<Effect>,
    ) {
        for cmd in cmds {
            match cmd {
                BoxCmd::Signal(o) => self.send(o, obs, out),
                BoxCmd::Meta { channel, meta } => {
                    if self.channel_index(channel).is_ok() {
                        out.push(Effect::Send {
                            channel,
                            msg: ChannelMsg::Meta(meta),
                        });
                    }
                }
                BoxCmd::OpenChannel { to, tunnels, req } => {
                    out.push(Effect::Dial { to, tunnels, req });
                }
                BoxCmd::CloseChannel(channel) => {
                    if self.drop_channel(channel, obs) {
                        out.push(Effect::Hangup { channel });
                    }
                }
                BoxCmd::SetTimer { id, after_ms } => self.arm(id, after_ms, out),
                BoxCmd::CancelTimer(id) => self.timers.cancel(id),
                BoxCmd::Terminate => out.push(Effect::Terminated),
            }
        }
    }

    /// Route one tunnel signal. This is the one place every transmitted
    /// signal passes through (program-, user- and harness-driven alike),
    /// so sends are observed here — once the route resolved, so a signal
    /// for a slot whose channel died is not counted as sent.
    fn send(&mut self, o: Outgoing, obs: &mut dyn Observer, out: &mut Vec<Effect>) {
        let Some((channel, tunnel)) = self.route(o.slot) else {
            return;
        };
        obs.signal_sent(self.id().0, o.slot.0, o.signal.kind());
        out.push(Effect::Send {
            channel,
            msg: ChannelMsg::Tunnel {
                tunnel,
                signal: o.signal,
            },
        });
    }

    fn arm(&mut self, id: TimerId, after_ms: u64, out: &mut Vec<Effect>) {
        let gen = self.timers.arm(id);
        out.push(Effect::ArmTimer { id, gen, after_ms });
    }

    /// Remove a channel with its slots (and so their routes and their
    /// retransmission timers), reporting the goals that die with them;
    /// false if unknown.
    fn drop_channel(&mut self, channel: ChannelId, obs: &mut dyn Observer) -> bool {
        let Ok(at) = self.channel_index(channel) else {
            return false;
        };
        for slot in self.channels.remove(at).1.iter() {
            self.pb.media_mut().remove_slot(slot, obs);
            // Slot ids are never reused: a fire still scheduled for the
            // slot reads as stale with its generation gone too.
            self.timers.forget(reliable::retransmit_timer(slot));
        }
        true
    }

    /// Any activity can create or resolve awaits: reconcile the
    /// retransmission timers with the new slot state (cancel the resolved,
    /// reporting recoveries; arm the new). Runs after every input; its
    /// output is timer effects only.
    fn sync_reliability(&mut self, at: &Arrival, obs: &mut dyn Observer, out: &mut Vec<Effect>) {
        let Some(rel) = self.reliab.as_mut() else {
            return;
        };
        let (cmds, recoveries) = rel.sync(self.pb.media(), at.arrived_micros / 1_000);
        let bx = self.id().0;
        for r in &recoveries {
            obs.recovered(bx, r.slot.0, r.attempts, r.elapsed_ms);
        }
        self.execute(cmds, obs, out);
    }
}
