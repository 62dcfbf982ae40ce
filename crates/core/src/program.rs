//! State-oriented box programs (paper §IV-A, §IV-B).
//!
//! Media services are event-driven and "best programmed using finite-state
//! machines in which the transitions are triggered by events such as
//! received signals and timeouts". Application logic implements
//! [`AppLogic`]: it reacts to meta-signals, timers, and slot events by
//! re-annotating slots with goals and issuing channel-level commands. All
//! media signaling is concealed inside the goal objects; the program sees
//! mostly meta-events plus the `isClosed`/`isOpening`/`isOpened`/`isFlowing`
//! predicates (exposed on [`crate::slot::Slot`]).
//!
//! A [`ProgramBox`] pairs a [`MediaBox`] with its logic; the surrounding
//! environment (the discrete-event simulator or the tokio runtime) feeds it
//! [`BoxInput`]s and executes the [`BoxCmd`]s it returns.

pub mod model;

pub use model::{
    GoalAnnotation, ModelEffect, ModelTrigger, ProgramModel, ScenarioModel, SlotDecl, StateModel,
    TransitionModel,
};

use crate::boxes::{BoxNote, GoalSpec, MediaBox};
use crate::goal::{Outgoing, UserCmd};
use crate::ids::{BoxId, ChannelId, SlotId};
use crate::signal::MetaSignal;
use ipmedia_obs::{NoopObserver, Observer};

/// Identity of an application timer within its box.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub u32);

/// Per-timer generation bookkeeping for environments that execute
/// [`BoxCmd::SetTimer`] / [`BoxCmd::CancelTimer`].
///
/// [`BoxCmd::SetTimer`] *restarts* a timer, and a cancelled timer must not
/// fire — but an environment that has already scheduled a wakeup (a
/// simulator event, a heap entry) usually cannot unschedule it cheaply.
/// The standard fix is generation stamping: every arm or cancel bumps the
/// timer's generation, each scheduled fire carries the generation current
/// when it was armed, and a fire whose generation is no longer current is
/// stale and must be dropped. Both the discrete-event simulator and the
/// tokio actor use this type so the two substrates cannot drift. The
/// default has no timer armed.
#[derive(Debug, Clone, Default)]
pub struct TimerGenerations {
    /// A box arms a handful of timers: a scan costs less than a hash
    /// table, and nothing until the first arm.
    gens: Vec<(TimerId, u64)>,
}

impl TimerGenerations {
    fn gen_mut(&mut self, id: TimerId) -> Option<&mut u64> {
        self.gens.iter_mut().find(|(t, _)| *t == id).map(|(_, g)| g)
    }

    /// Arm (or restart) a timer: returns the generation to stamp on the
    /// scheduled fire. Any previously scheduled fire becomes stale.
    pub fn arm(&mut self, id: TimerId) -> u64 {
        let Some(g) = self.gen_mut(id) else {
            self.gens.push((id, 1));
            return 1;
        };
        *g += 1;
        *g
    }

    /// Cancel a timer: any scheduled fire becomes stale. Cancelling a timer
    /// that was never armed is a no-op.
    pub fn cancel(&mut self, id: TimerId) {
        if let Some(g) = self.gen_mut(id) {
            *g += 1;
        }
    }

    /// Forget a timer that is never armed again, its slot gone for good:
    /// any fire still scheduled reads as stale, and the table holds the
    /// timers of the live slots, not of every slot the box ever had.
    pub fn forget(&mut self, id: TimerId) {
        if let Some(i) = self.gens.iter().position(|(t, _)| *t == id) {
            self.gens.swap_remove(i);
        }
    }

    /// Timers the table holds a generation for.
    pub fn len(&self) -> usize {
        self.gens.len()
    }

    /// True iff no timer was ever armed, or every one was forgotten.
    pub fn is_empty(&self) -> bool {
        self.gens.is_empty()
    }

    /// True iff a fire stamped with `gen` is still current and must be
    /// delivered to the application.
    pub fn is_current(&self, id: TimerId, gen: u64) -> bool {
        self.gens.contains(&(id, gen))
    }
}

/// Inputs delivered to a box by its environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoxInput {
    /// The box has been started; perform initial actions.
    Start,
    /// A signaling channel is up. For channels this box requested via
    /// [`BoxCmd::OpenChannel`], `req` echoes the request tag; for channels
    /// initiated by a peer, `req` is `None`. `slots` lists the slot ids
    /// registered for the channel's tunnels, in tunnel order.
    ChannelUp {
        /// The channel that came up.
        channel: ChannelId,
        /// Slot ids registered for the channel's tunnels, in tunnel order.
        slots: Vec<SlotId>,
        /// Echo of the [`BoxCmd::OpenChannel`] request tag, if we initiated.
        req: Option<u32>,
    },
    /// A signaling channel was destroyed (all its tunnels and slots die).
    ChannelDown {
        /// The destroyed channel.
        channel: ChannelId,
    },
    /// A channel-level meta-signal arrived.
    Meta {
        /// The channel the meta-signal arrived on.
        channel: ChannelId,
        /// The meta-signal itself.
        meta: MetaSignal,
    },
    /// A tunnel signal arrived for `slot`.
    Tunnel {
        /// The slot at this end of the tunnel.
        slot: SlotId,
        /// The protocol signal.
        signal: crate::signal::Signal,
    },
    /// An application timer fired.
    Timer(TimerId),
    /// Synthesized by [`ProgramBox`]: a slot event already handled by the
    /// goal layer, surfaced so programs can guard on it (the `isFlowing(1a)`
    /// style guards of §IV-A are predicates over slot state at this point).
    SlotNote {
        /// The slot the event happened on.
        slot: SlotId,
        /// The surfaced slot event.
        event: crate::slot::SlotEvent,
    },
    /// Synthesized by [`ProgramBox`]: a Fig. 5 `?` event surfaced by a
    /// user-agent goal.
    UserNote {
        /// The user-agent slot the note concerns.
        slot: SlotId,
        /// The surfaced user note.
        note: crate::goal::UserNote,
    },
}

/// Commands a box issues to its environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoxCmd {
    /// Transmit a tunnel signal (already applied to the local slot).
    Signal(Outgoing),
    /// Send a channel-level meta-signal.
    Meta {
        /// The channel to send on.
        channel: ChannelId,
        /// The meta-signal to send.
        meta: MetaSignal,
    },
    /// Create a signaling channel toward the named box with `tunnels`
    /// tunnels; the environment answers with [`BoxInput::ChannelUp`]
    /// echoing `req`, and reports far-end availability as a meta-signal.
    OpenChannel {
        /// Name of the far box.
        to: String,
        /// Number of tunnels to create.
        tunnels: u16,
        /// Request tag echoed back in [`BoxInput::ChannelUp`].
        req: u32,
    },
    /// Destroy a signaling channel (meta-action; destroys its tunnels and
    /// slots at both ends).
    CloseChannel(ChannelId),
    /// Start (or restart) an application timer after `after_ms` ms.
    SetTimer {
        /// The timer to arm.
        id: TimerId,
        /// Delay until it fires, in milliseconds.
        after_ms: u64,
    },
    /// Cancel an application timer; a cancelled timer must not fire.
    CancelTimer(TimerId),
    /// This box's program has terminated.
    Terminate,
}

impl From<Outgoing> for BoxCmd {
    fn from(out: Outgoing) -> Self {
        BoxCmd::Signal(out)
    }
}

/// Application logic of a box: the finite-state program of §IV.
pub trait AppLogic: Send {
    /// React to an input. Goal re-annotations and user commands go through
    /// `ctx` (which applies them to the media box immediately); channel and
    /// timer commands are queued on `ctx` for the environment.
    fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>);
}

/// Mutable view of the box handed to application logic.
///
/// Carries the environment's observer as a dyn reference ([`AppLogic`]
/// must stay object-safe, so `Ctx` cannot be generic over it); goal
/// re-annotations and user commands issued through the ctx are observed.
/// Commands are appended to the buffer the whole activation shares.
pub struct Ctx<'a> {
    media: &'a mut MediaBox,
    obs: &'a mut dyn Observer,
    cmds: &'a mut Vec<BoxCmd>,
}

impl Ctx<'_> {
    /// Read access to slots for guard predicates.
    pub fn media(&self) -> &MediaBox {
        self.media
    }

    /// Identity of the box this ctx controls.
    pub fn box_id(&self) -> BoxId {
        self.media.id()
    }

    /// Annotate slots with a goal (immediately attaches the goal object and
    /// queues the signals it emits).
    pub fn set_goal(&mut self, spec: GoalSpec) {
        self.media.set_goal_into(spec, self.obs, self.cmds);
    }

    /// Issue a user command on a user-agent slot.
    pub fn user(&mut self, slot: SlotId, cmd: UserCmd) {
        if let Err(e) = self.media.user_into(slot, cmd, self.obs, self.cmds) {
            panic!("user command failed: {e}");
        }
    }

    /// Queue a channel-level meta-signal ([`BoxCmd::Meta`]).
    pub fn send_meta(&mut self, channel: ChannelId, meta: MetaSignal) {
        self.cmds.push(BoxCmd::Meta { channel, meta });
    }

    /// Queue a channel-open request ([`BoxCmd::OpenChannel`]).
    pub fn open_channel(&mut self, to: impl Into<String>, tunnels: u16, req: u32) {
        self.cmds.push(BoxCmd::OpenChannel {
            to: to.into(),
            tunnels,
            req,
        });
    }

    /// Queue destruction of a signaling channel ([`BoxCmd::CloseChannel`]).
    pub fn close_channel(&mut self, channel: ChannelId) {
        self.cmds.push(BoxCmd::CloseChannel(channel));
    }

    /// Queue arming (or restarting) of an application timer.
    pub fn set_timer(&mut self, id: TimerId, after_ms: u64) {
        self.cmds.push(BoxCmd::SetTimer { id, after_ms });
    }

    /// Queue cancellation of an application timer.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.cmds.push(BoxCmd::CancelTimer(id));
    }

    /// Declare the program terminated ([`BoxCmd::Terminate`]).
    pub fn terminate(&mut self) {
        self.cmds.push(BoxCmd::Terminate);
    }
}

/// A media box driven by application logic.
pub struct ProgramBox {
    media: MediaBox,
    logic: Box<dyn AppLogic>,
}

impl ProgramBox {
    /// A fresh media box with the given identity, driven by `logic`.
    pub fn new(id: BoxId, logic: Box<dyn AppLogic>) -> Self {
        Self {
            media: MediaBox::new(id),
            logic,
        }
    }

    /// Read access to the underlying media box.
    pub fn media(&self) -> &MediaBox {
        &self.media
    }

    /// Mutable access to the underlying media box (slot registration).
    pub fn media_mut(&mut self) -> &mut MediaBox {
        &mut self.media
    }

    /// Start loading the media box's tables and the program's state (see
    /// [`crate::prefetch()`]).
    pub(crate) fn prefetch(&self) {
        self.media.prefetch();
        let logic: *const dyn AppLogic = &*self.logic;
        crate::prefetch(logic.cast(), size_of_val(&*self.logic));
    }

    /// Feed one input through the media box (for tunnel signals) and then
    /// the application logic; collect the resulting commands.
    pub fn handle(&mut self, input: BoxInput) -> Vec<BoxCmd> {
        let mut cmds = Vec::new();
        self.handle_into(input, &mut NoopObserver, &mut cmds, &mut Vec::new());
        cmds
    }

    /// [`ProgramBox::handle`] with observability — the media-layer
    /// processing and everything the logic does through its [`Ctx`] are
    /// reported to `obs`; the caller reports the stimulus itself before,
    /// and the *sending* of the [`BoxCmd::Signal`]s once it actually
    /// transmits them — appending the commands to `cmds`. Both buffers are
    /// the caller's to reuse; `notes` is scratch and comes back empty.
    pub(crate) fn handle_into(
        &mut self,
        input: BoxInput,
        obs: &mut dyn Observer,
        cmds: &mut Vec<BoxCmd>,
        notes: &mut Vec<BoxNote>,
    ) {
        match &input {
            BoxInput::Tunnel { slot, signal } => {
                self.media
                    .on_signal_into(*slot, signal.clone(), obs, cmds, notes);
            }
            BoxInput::ChannelUp { slots, .. } => {
                // Slots must already have been registered by the
                // environment via `register_slot`; nothing to do here.
                debug_assert!(slots.iter().all(|s| self.media.slot(*s).is_some()));
            }
            _ => {}
        }
        // The logic sees the raw input first, then each surfaced note.
        for input in std::iter::once(input).chain(notes.drain(..).map(BoxInput::from)) {
            let media = &mut self.media;
            self.logic.handle(&input, &mut Ctx { media, obs, cmds });
        }
    }
}

impl BoxInput {
    /// Stable class name of this input, for observers and trace records.
    pub fn kind(&self) -> &'static str {
        match self {
            BoxInput::Start => "start",
            BoxInput::ChannelUp { .. } => "channel_up",
            BoxInput::ChannelDown { .. } => "channel_down",
            BoxInput::Meta { .. } => "meta",
            BoxInput::Tunnel { .. } => "tunnel",
            BoxInput::Timer(_) => "timer",
            BoxInput::SlotNote { .. } => "slot_note",
            BoxInput::UserNote { .. } => "user_note",
        }
    }
}

/// Notes surfaced by the media layer are re-delivered to the logic as
/// inputs so programs can guard on slot events (`isFlowing(1a)` etc.).
impl From<BoxNote> for BoxInput {
    fn from(note: BoxNote) -> BoxInput {
        match note {
            BoxNote::Slot { slot, event } => BoxInput::SlotNote { slot, event },
            BoxNote::User { slot, note } => BoxInput::UserNote { slot, note },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Medium;
    use crate::goal::Policy;
    use crate::signal::Signal;
    use crate::slot::SlotEvent;

    /// A trivial program: on start, open an audio channel on slot 0; when
    /// the slot starts flowing, set a timer; when the timer fires, close.
    struct Trivial;

    impl AppLogic for Trivial {
        fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
            match input {
                BoxInput::Start => ctx.set_goal(GoalSpec::Open {
                    slot: SlotId(0),
                    medium: Medium::Audio,
                    policy: Policy::Server,
                }),
                BoxInput::SlotNote {
                    slot,
                    event: SlotEvent::Oacked,
                } => {
                    assert!(ctx.media().slot(*slot).unwrap().is_flowing());
                    ctx.set_timer(TimerId(1), 5_000);
                }
                BoxInput::Timer(TimerId(1)) => {
                    ctx.set_goal(GoalSpec::Close { slot: SlotId(0) });
                    ctx.terminate();
                }
                _ => {}
            }
        }
    }

    #[test]
    fn timer_generations_invalidate_stale_fires() {
        let mut tg = TimerGenerations::default();
        let g1 = tg.arm(TimerId(1));
        assert!(tg.is_current(TimerId(1), g1));

        // Restarting invalidates the first scheduled fire.
        let g2 = tg.arm(TimerId(1));
        assert!(!tg.is_current(TimerId(1), g1));
        assert!(tg.is_current(TimerId(1), g2));

        // Cancelling invalidates without arming a new fire.
        tg.cancel(TimerId(1));
        assert!(!tg.is_current(TimerId(1), g2));

        // Other timers are independent; unknown timers are never current.
        let g = tg.arm(TimerId(2));
        assert!(tg.is_current(TimerId(2), g));
        assert!(!tg.is_current(TimerId(3), 1));
        tg.cancel(TimerId(3)); // no-op
        assert!(!tg.is_current(TimerId(3), 1));
    }

    #[test]
    fn program_box_drives_goals_from_inputs() {
        let mut pb = ProgramBox::new(BoxId(9), Box::new(Trivial));
        pb.media_mut().add_slot(SlotId(0), true);

        let cmds = pb.handle(BoxInput::Start);
        assert_eq!(cmds.len(), 1);
        assert!(matches!(
            &cmds[0],
            BoxCmd::Signal(out) if matches!(out.signal, Signal::Open { .. })
        ));

        // Peer oacks: the program observes the slot event and arms a timer.
        let mut peer_tags = crate::descriptor::TagSource::new(3);
        let cmds = pb.handle(BoxInput::Tunnel {
            slot: SlotId(0),
            signal: Signal::Oack {
                desc: crate::descriptor::Descriptor::no_media(peer_tags.next()),
            },
        });
        assert!(cmds.iter().any(|c| matches!(
            c,
            BoxCmd::Signal(out) if matches!(out.signal, Signal::Select { .. })
        )));
        assert!(cmds.contains(&BoxCmd::SetTimer {
            id: TimerId(1),
            after_ms: 5_000
        }));

        // Timer fires: close + terminate.
        let cmds = pb.handle(BoxInput::Timer(TimerId(1)));
        assert!(cmds.iter().any(|c| matches!(
            c,
            BoxCmd::Signal(out) if out.signal == Signal::Close
        )));
        assert!(cmds.contains(&BoxCmd::Terminate));
    }
}
