//! The box: container of slots, goal objects, and the `Maps` association
//! between them (paper §VII, Fig. 11).
//!
//! A box receives signals from its tunnels, uses `Maps` to find the goal
//! object controlling the slot, shows the signal to the goal via the slot,
//! and transmits whatever the goal emits. High-level box programs manipulate
//! media only by re-assigning goals to slots ([`MediaBox::set_goal`]).

use crate::error::ProtocolError;
use crate::goal::{self, FlowLink, Goal, LinkSide, Outgoing, UserCmd, UserNote};
use crate::ids::{BoxId, SlotId};
use crate::signal::Signal;
use crate::slot::{Slot, SlotEvent, SlotState};
use ipmedia_obs::{NoopObserver, Observer};

/// Identity of a goal object within its box.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GoalId(pub u32);

/// What slots a goal controls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Controlled {
    One(SlotId),
    Two(SlotId, SlotId),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GoalEntry {
    id: GoalId,
    goal: Goal,
    controls: Controlled,
}

/// One slot and its row of the `Maps` object: the goal controlling it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SlotEntry {
    id: SlotId,
    slot: Slot,
    goal: Option<GoalId>,
}

/// Both slots of a flowlink at once, as one split borrow of the table.
fn pair_mut(slots: &mut [SlotEntry], a: SlotId, b: SlotId) -> (&mut SlotEntry, &mut SlotEntry) {
    let find = |id: SlotId| {
        slots
            .binary_search_by_key(&id, |e| e.id)
            .unwrap_or_else(|_| panic!("unknown slot {id}"))
    };
    let (ia, ib) = (find(a), find(b));
    let (lo, hi) = slots.split_at_mut(ia.max(ib));
    let (first, second) = (&mut lo[ia.min(ib)], &mut hi[0]);
    if ia < ib {
        (first, second)
    } else {
        (second, first)
    }
}

/// Everything the box reports upward to its program / application logic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoxNote {
    /// A slot event occurred (after the goal object reacted to it).
    Slot {
        /// The slot the event happened on.
        slot: SlotId,
        /// The event itself.
        event: SlotEvent,
    },
    /// A user-agent goal surfaced a Fig. 5 `?` event.
    User {
        /// The user-agent slot the note concerns.
        slot: SlotId,
        /// The surfaced note.
        note: UserNote,
    },
}

/// The desired goal for a slot (or pair), as written in a program-state
/// annotation (§IV-A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GoalSpec {
    /// Annotate `slot` with an `openSlot` goal.
    Open {
        /// The slot to control.
        slot: SlotId,
        /// Medium to open.
        medium: crate::codec::Medium,
        /// Receiving policy of this end.
        policy: goal::Policy,
    },
    /// Annotate `slot` with a `closeSlot` goal.
    Close {
        /// The slot to control.
        slot: SlotId,
    },
    /// Annotate `slot` with a `holdSlot` goal.
    Hold {
        /// The slot to control.
        slot: SlotId,
        /// Receiving policy of this end while held.
        policy: goal::Policy,
    },
    /// Annotate `slot` with an interactive `userAgent` goal.
    User {
        /// The slot to control.
        slot: SlotId,
        /// The endpoint's media policy.
        policy: goal::EndpointPolicy,
        /// How incoming opens are answered.
        mode: goal::AcceptMode,
    },
    /// Annotate slots `a` and `b` with one `flowLink` goal.
    Link {
        /// One linked slot.
        a: SlotId,
        /// The other linked slot.
        b: SlotId,
    },
}

impl GoalSpec {
    fn slots(&self) -> Controlled {
        match *self {
            GoalSpec::Open { slot, .. }
            | GoalSpec::Close { slot }
            | GoalSpec::Hold { slot, .. }
            | GoalSpec::User { slot, .. } => Controlled::One(slot),
            GoalSpec::Link { a, b } => Controlled::Two(a, b),
        }
    }
}

/// A peer module involved in media control: slots + goals + maps.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MediaBox {
    id: BoxId,
    /// Sorted by slot id, and no larger than what it holds: a box has a
    /// slot or two and a fleet has tens of thousands of boxes. Each entry
    /// carries its row of the `Maps` object, the dynamic association
    /// between slots and goals.
    slots: Vec<SlotEntry>,
    /// Sorted by goal id; ids only grow, so a new goal goes last.
    goals: Vec<GoalEntry>,
    next_goal: u32,
    next_origin: u64,
}

impl MediaBox {
    /// New empty box with the given identity.
    pub fn new(id: BoxId) -> Self {
        Self {
            id,
            slots: Vec::new(),
            goals: Vec::new(),
            next_goal: 0,
            next_origin: 0,
        }
    }

    /// This box's identity.
    pub fn id(&self) -> BoxId {
        self.id
    }

    /// Register a slot (one end of a tunnel). `initiator` must be true iff
    /// this box initiated setup of the slot's signaling channel.
    pub fn add_slot(&mut self, id: SlotId, initiator: bool) {
        let Err(at) = self.slot_index(id) else {
            panic!("slot {id} already exists");
        };
        let entry = SlotEntry {
            id,
            slot: Slot::new(initiator),
            goal: None,
        };
        self.slots.reserve_exact(1);
        self.slots.insert(at, entry);
    }

    /// Destroy a slot (its signaling channel was torn down). Any goal
    /// controlling it dies, reported to `obs`; a flowlink's other slot
    /// becomes uncontrolled.
    pub fn remove_slot<O: Observer + ?Sized>(&mut self, id: SlotId, obs: &mut O) {
        self.drop_goal_of_obs(id, obs);
        if let Ok(at) = self.slot_index(id) {
            self.slots.remove(at);
        }
    }

    /// Start loading what a stimulus reads first: the whole slot table and
    /// the goal table's first line (see [`crate::prefetch()`]).
    pub(crate) fn prefetch(&self) {
        crate::prefetch(self.slots.as_ptr().cast(), size_of_val(&self.slots[..]));
        crate::prefetch(self.goals.as_ptr().cast(), self.goals.len().min(1));
    }

    /// Position of `id` in the slot table, or where it would go.
    fn slot_index(&self, id: SlotId) -> Result<usize, usize> {
        self.slots.binary_search_by_key(&id, |e| e.id)
    }

    fn entry(&self, id: SlotId) -> Option<&SlotEntry> {
        self.slot_index(id).ok().map(|at| &self.slots[at])
    }

    fn entry_mut(&mut self, id: SlotId) -> Option<&mut SlotEntry> {
        self.slot_index(id).ok().map(|at| &mut self.slots[at])
    }

    /// Position of a goal the `Maps` rows name.
    fn goal_index(&self, id: GoalId) -> usize {
        self.goals
            .binary_search_by_key(&id, |g| g.id)
            .expect("maps points at live goal")
    }

    /// Read access to a slot, for guard predicates.
    pub fn slot(&self, id: SlotId) -> Option<&Slot> {
        self.entry(id).map(|e| &e.slot)
    }

    /// All registered slot ids, in order.
    pub fn slot_ids(&self) -> impl Iterator<Item = SlotId> + '_ {
        self.slots.iter().map(|e| e.id)
    }

    /// All registered slots with their ids, in id order: one walk of the
    /// table where `slot_ids` + `slot` would search it once per slot.
    pub fn slots(&self) -> impl ExactSizeIterator<Item = (SlotId, &Slot)> + '_ {
        self.slots.iter().map(|e| (e.id, &e.slot))
    }

    /// The goal currently controlling a slot, if any.
    pub fn goal_of(&self, id: SlotId) -> Option<&Goal> {
        let gid = self.entry(id)?.goal?;
        Some(&self.goals[self.goal_index(gid)].goal)
    }

    /// Mint a tag origin unique within the system (box id in the high bits).
    fn fresh_origin(&mut self) -> u64 {
        let o = (u64::from(self.id.0) << 24) | self.next_origin;
        self.next_origin += 1;
        o
    }

    fn drop_goal_of_obs<O: Observer + ?Sized>(&mut self, slot: SlotId, obs: &mut O) {
        let Some(gid) = self.entry_mut(slot).and_then(|e| e.goal.take()) else {
            return;
        };
        let entry = self.goals.remove(self.goal_index(gid));
        obs.goal_dropped(self.id.0, slot.0, entry.goal.kind());
        // A flowlink's other slot loses its controller too; the program
        // must assign it a new goal.
        if let Controlled::Two(a, b) = entry.controls {
            let other = if a == slot { b } else { a };
            if let Some(e) = self.entry_mut(other) {
                e.goal = None;
            }
        }
    }

    /// Snapshot the protocol states of the slots a change may touch, for
    /// transition reporting.
    fn states_of(&self, touched: Controlled) -> [Option<(SlotId, SlotState)>; 2] {
        let state = |s| self.slot(s).map(|slot| (s, slot.state()));
        match touched {
            Controlled::One(s) => [state(s), None],
            Controlled::Two(a, b) => [state(a), state(b)],
        }
    }

    /// Report every state change relative to `before` with the given cause.
    fn observe_transitions<O: Observer + ?Sized>(
        &self,
        obs: &mut O,
        before: [Option<(SlotId, SlotState)>; 2],
        cause: &'static str,
    ) {
        for (slot, was) in before.into_iter().flatten() {
            if let Some(now) = self.slot(slot).map(Slot::state) {
                if now != was {
                    obs.slot_transition(self.id.0, slot.0, was.name(), now.name(), cause);
                }
            }
        }
    }

    /// Report protocol-level meanings of a slot event: races and tolerated
    /// (idempotently dropped) signals.
    fn observe_event<O: Observer + ?Sized>(&self, obs: &mut O, slot: SlotId, event: &SlotEvent) {
        match event {
            SlotEvent::RaceBackoff { .. } => obs.race_resolved(self.id.0, slot.0, false),
            SlotEvent::RaceIgnored => obs.race_resolved(self.id.0, slot.0, true),
            SlotEvent::Ignored(reason) => obs.signal_ignored(self.id.0, slot.0, reason),
            _ => {}
        }
    }

    /// Put slots under the control of a new goal object, as a program-state
    /// annotation does. Returns the signals the new goal emits on gaining
    /// control. Reassignment destroys the slots' previous goal objects
    /// ("the slots are moved elsewhere and this goal object becomes
    /// garbage", §VII). Panics on a goal that names a slot the box does
    /// not hold, or a flowlink of one slot twice.
    pub fn set_goal(&mut self, spec: GoalSpec) -> Vec<Outgoing> {
        self.set_goal_obs(spec, &mut NoopObserver)
    }

    /// [`MediaBox::set_goal`] with observability: reports the dropped and
    /// activated goals and any slot transitions the new goal causes.
    pub fn set_goal_obs<O: Observer + ?Sized>(
        &mut self,
        spec: GoalSpec,
        obs: &mut O,
    ) -> Vec<Outgoing> {
        let mut out = Vec::new();
        if let Err(slot) = self.set_goal_into(spec, obs, &mut out) {
            panic!("a goal names {slot}, unknown or twice");
        }
        out
    }

    /// [`MediaBox::set_goal_obs`] appending what the goal emits to a
    /// buffer the caller reuses. A goal naming a slot the box does not
    /// hold, or a flowlink naming one slot twice, changes nothing and
    /// comes back as that slot.
    pub(crate) fn set_goal_into<T: From<Outgoing>, O: Observer + ?Sized>(
        &mut self,
        spec: GoalSpec,
        obs: &mut O,
        out: &mut Vec<T>,
    ) -> Result<(), SlotId> {
        let controls = spec.slots();
        let named = match controls {
            Controlled::One(s) => [s, s],
            Controlled::Two(a, b) if a != b => [a, b],
            Controlled::Two(a, _) => return Err(a),
        };
        if let Some(&unknown) = named.iter().find(|&&s| self.slot_index(s).is_err()) {
            return Err(unknown);
        }
        let before = self.states_of(controls);
        match controls {
            Controlled::One(s) => self.drop_goal_of_obs(s, obs),
            Controlled::Two(a, b) => {
                self.drop_goal_of_obs(a, obs);
                self.drop_goal_of_obs(b, obs);
            }
        }
        let origin = self.fresh_origin();
        let mut new_goal = match &spec {
            GoalSpec::Open { medium, policy, .. } => {
                Goal::Open(goal::OpenSlot::with_policy(*medium, policy.clone(), origin))
            }
            GoalSpec::Close { .. } => Goal::Close(goal::CloseSlot::new()),
            GoalSpec::Hold { policy, .. } => {
                Goal::Hold(goal::HoldSlot::with_policy(policy.clone(), origin))
            }
            GoalSpec::User { policy, mode, .. } => {
                Goal::User(goal::UserAgent::new(policy.clone(), *mode, origin))
            }
            GoalSpec::Link { .. } => Goal::Link(FlowLink::new(origin)),
        };

        let id = GoalId(self.next_goal);
        self.next_goal += 1;
        let (first, peer) = match controls {
            Controlled::One(s) => {
                let entry = self.entry_mut(s).expect("checked above");
                entry.goal = Some(id);
                emit(out, s, goal::attach_single(&mut new_goal, &mut entry.slot));
                (s, None)
            }
            Controlled::Two(a, b) => {
                let Goal::Link(link) = &mut new_goal else {
                    unreachable!()
                };
                let (ea, eb) = pair_mut(&mut self.slots, a, b);
                (ea.goal, eb.goal) = (Some(id), Some(id));
                emit_link(out, a, b, link.attach(&mut ea.slot, &mut eb.slot));
                (a, Some(b.0))
            }
        };
        obs.goal_activated(self.id.0, first.0, new_goal.kind(), peer);
        self.goals.reserve_exact(1);
        self.goals.push(GoalEntry {
            id,
            goal: new_goal,
            controls,
        });
        self.observe_transitions(obs, before, "goal");
        Ok(())
    }

    /// Deliver one tunnel signal to its slot and the controlling goal.
    pub fn on_signal(&mut self, slot_id: SlotId, signal: Signal) -> (Vec<Outgoing>, Vec<BoxNote>) {
        self.on_signal_obs(slot_id, signal, &mut NoopObserver)
    }

    /// [`MediaBox::on_signal`] with observability: reports the received
    /// signal, any slot transitions it causes (across both slots of a
    /// flowlink), resolved open/open races, and tolerated stale signals.
    pub fn on_signal_obs<O: Observer + ?Sized>(
        &mut self,
        slot_id: SlotId,
        signal: Signal,
        obs: &mut O,
    ) -> (Vec<Outgoing>, Vec<BoxNote>) {
        let (mut out, mut notes) = (Vec::new(), Vec::new());
        self.on_signal_into(slot_id, signal, obs, &mut out, &mut notes);
        (out, notes)
    }

    /// [`MediaBox::on_signal_obs`] appending the signals to transmit and
    /// the notes for the program to buffers the caller reuses.
    pub(crate) fn on_signal_into<T: From<Outgoing>, O: Observer + ?Sized>(
        &mut self,
        slot_id: SlotId,
        signal: Signal,
        obs: &mut O,
        out: &mut Vec<T>,
        notes: &mut Vec<BoxNote>,
    ) {
        let kind = signal.kind();
        obs.signal_received(self.id.0, slot_id.0, kind);
        let Ok(at) = self.slot_index(slot_id) else {
            return;
        };
        let goal = self.slots[at].goal.map(|gid| self.goal_index(gid));
        let touched = match goal.map(|g| self.goals[g].controls) {
            Some(link @ Controlled::Two(..)) => link,
            _ => Controlled::One(slot_id),
        };
        let before = self.states_of(touched);
        let first_note = notes.len();

        match touched {
            Controlled::One(s) => {
                let slot = &mut self.slots[at].slot;
                let (event, auto) = slot.on_signal(signal);
                emit(out, s, auto);
                // An uncontrolled slot gets the protocol-mandated auto
                // responses only; the event is surfaced all the same so
                // the program can react.
                let user_notes = goal.map(|g| {
                    let (sigs, user_notes) =
                        goal::on_event_single(&mut self.goals[g].goal, &event, slot);
                    emit(out, s, sigs);
                    user_notes
                });
                notes.push(BoxNote::Slot { slot: s, event });
                let user_notes = user_notes.into_iter().flatten();
                notes.extend(user_notes.map(|note| BoxNote::User { slot: s, note }));
            }
            Controlled::Two(a, b) => {
                let side = if slot_id == a {
                    LinkSide::A
                } else {
                    LinkSide::B
                };
                let (ea, eb) = pair_mut(&mut self.slots, a, b);
                let (sa, sb) = (&mut ea.slot, &mut eb.slot);
                let target = if side == LinkSide::A {
                    &mut *sa
                } else {
                    &mut *sb
                };
                let (event, auto) = target.on_signal(signal);
                emit(out, slot_id, auto);
                let g = goal.expect("a link is a goal");
                let Goal::Link(link) = &mut self.goals[g].goal else {
                    unreachable!("two-slot goal is a flowlink")
                };
                emit_link(out, a, b, link.on_event(side, &event, sa, sb));
                notes.push(BoxNote::Slot {
                    slot: slot_id,
                    event,
                });
            }
        }

        self.observe_transitions(obs, before, kind);
        for note in &notes[first_note..] {
            if let BoxNote::Slot { slot, event } = note {
                self.observe_event(obs, *slot, event);
            }
        }
    }

    /// Issue a Fig. 5 user command to a user-agent-controlled slot.
    pub fn user(&mut self, slot_id: SlotId, cmd: UserCmd) -> Result<Vec<Outgoing>, ProtocolError> {
        let mut out = Vec::new();
        self.user_into(slot_id, cmd, &mut NoopObserver, &mut out)?;
        Ok(out)
    }

    /// [`MediaBox::user`] with observability — any slot transition the
    /// command causes is reported with cause `"user"` — appending what the
    /// command emits to a buffer the caller reuses; a rejected command
    /// appends nothing.
    pub(crate) fn user_into<T: From<Outgoing>, O: Observer + ?Sized>(
        &mut self,
        slot_id: SlotId,
        cmd: UserCmd,
        obs: &mut O,
        out: &mut Vec<T>,
    ) -> Result<(), ProtocolError> {
        let before = self.states_of(Controlled::One(slot_id));
        let at = self.slot_index(slot_id).ok();
        let gid = at
            .and_then(|at| self.slots[at].goal)
            .ok_or(ProtocolError::InvalidRecord("slot has no goal"))?;
        let entry = self.goal_index(gid);
        let Goal::User(agent) = &mut self.goals[entry].goal else {
            return Err(ProtocolError::InvalidRecord(
                "user commands require a userAgent goal",
            ));
        };
        let slot = &mut self.slots[at.expect("a goal's slot exists")].slot;
        emit(out, slot_id, agent.command(cmd, slot)?);
        self.observe_transitions(obs, before, "user");
        Ok(())
    }
}

/// Append `signals`, all for `slot`, to an output buffer.
fn emit<T: From<Outgoing>>(
    out: &mut Vec<T>,
    slot: SlotId,
    signals: impl IntoIterator<Item = Signal>,
) {
    out.extend(
        signals
            .into_iter()
            .map(|signal| Outgoing { slot, signal }.into()),
    );
}

/// Append a flowlink's output, addressed by link side, to an output buffer.
fn emit_link<T: From<Outgoing>>(
    out: &mut Vec<T>,
    a: SlotId,
    b: SlotId,
    signals: Vec<(LinkSide, Signal)>,
) {
    out.extend(signals.into_iter().map(|(side, signal)| {
        let slot = if side == LinkSide::A { a } else { b };
        Outgoing { slot, signal }.into()
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Medium;
    use crate::descriptor::MediaAddr;
    use crate::goal::{AcceptMode, EndpointPolicy, Policy};
    use crate::slot::SlotState;

    fn server_box() -> MediaBox {
        let mut b = MediaBox::new(BoxId(1));
        b.add_slot(SlotId(0), true);
        b.add_slot(SlotId(1), true);
        b
    }

    #[test]
    fn set_goal_open_emits_open() {
        let mut b = server_box();
        let out = b.set_goal(GoalSpec::Open {
            slot: SlotId(0),
            medium: Medium::Audio,
            policy: Policy::Server,
        });
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].slot, SlotId(0));
        assert!(matches!(out[0].signal, Signal::Open { .. }));
        assert_eq!(b.slot(SlotId(0)).unwrap().state(), SlotState::Opening);
        assert_eq!(b.goal_of(SlotId(0)).unwrap().kind(), "openSlot");
    }

    #[test]
    fn reassignment_replaces_goal() {
        let mut b = server_box();
        b.set_goal(GoalSpec::Open {
            slot: SlotId(0),
            medium: Medium::Audio,
            policy: Policy::Server,
        });
        let out = b.set_goal(GoalSpec::Close { slot: SlotId(0) });
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].signal, Signal::Close);
        assert_eq!(b.goal_of(SlotId(0)).unwrap().kind(), "closeSlot");
    }

    #[test]
    fn flowlink_controls_two_slots_and_breaks_on_reassignment() {
        let mut b = server_box();
        b.set_goal(GoalSpec::Link {
            a: SlotId(0),
            b: SlotId(1),
        });
        assert_eq!(b.goal_of(SlotId(0)).unwrap().kind(), "flowLink");
        assert_eq!(b.goal_of(SlotId(1)).unwrap().kind(), "flowLink");
        // Reassigning one slot destroys the link; the other slot is left
        // uncontrolled until the program assigns it.
        b.set_goal(GoalSpec::Hold {
            slot: SlotId(0),
            policy: Policy::Server,
        });
        assert_eq!(b.goal_of(SlotId(0)).unwrap().kind(), "holdSlot");
        assert!(b.goal_of(SlotId(1)).is_none());
    }

    #[test]
    fn signal_through_flowlink_is_forwarded() {
        let mut b = server_box();
        b.set_goal(GoalSpec::Link {
            a: SlotId(0),
            b: SlotId(1),
        });
        let mut tags = crate::descriptor::TagSource::new(77);
        let desc = crate::descriptor::Descriptor::media(
            tags.next(),
            MediaAddr::v4(10, 0, 0, 9, 4000),
            vec![crate::codec::Codec::G711],
        );
        let (out, notes) = b.on_signal(
            SlotId(0),
            Signal::Open {
                medium: Medium::Audio,
                desc,
            },
        );
        assert!(out
            .iter()
            .any(|o| o.slot == SlotId(1) && matches!(o.signal, Signal::Open { .. })));
        assert_eq!(notes.len(), 1);
    }

    #[test]
    fn uncontrolled_slot_still_auto_acks_close() {
        let mut b = server_box();
        // No goal assigned; an incoming open is surfaced but unanswered.
        let mut tags = crate::descriptor::TagSource::new(77);
        let desc = crate::descriptor::Descriptor::no_media(tags.next());
        let (out, notes) = b.on_signal(
            SlotId(0),
            Signal::Open {
                medium: Medium::Audio,
                desc,
            },
        );
        assert!(out.is_empty());
        assert!(matches!(
            notes[0],
            BoxNote::Slot {
                event: SlotEvent::OpenReceived { .. },
                ..
            }
        ));
        // And a close gets its mandatory ack even without a goal.
        let (out, _) = b.on_signal(SlotId(0), Signal::Close);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].signal, Signal::CloseAck);
    }

    #[test]
    fn user_agent_via_box() {
        let mut b = MediaBox::new(BoxId(5));
        b.add_slot(SlotId(0), true);
        b.set_goal(GoalSpec::User {
            slot: SlotId(0),
            policy: EndpointPolicy::audio(MediaAddr::v4(10, 0, 0, 5, 4000)),
            mode: AcceptMode::Auto,
        });
        let out = b.user(SlotId(0), UserCmd::Open(Medium::Audio)).unwrap();
        assert!(matches!(out[0].signal, Signal::Open { .. }));
        // User commands on non-user goals are rejected.
        let mut srv = server_box();
        srv.set_goal(GoalSpec::Close { slot: SlotId(0) });
        assert!(srv.user(SlotId(0), UserCmd::Close).is_err());
    }

    #[test]
    fn tag_origins_are_unique_per_goal() {
        let mut b = server_box();
        let o1 = b.set_goal(GoalSpec::Open {
            slot: SlotId(0),
            medium: Medium::Audio,
            policy: Policy::Server,
        });
        let o2 = b.set_goal(GoalSpec::Open {
            slot: SlotId(1),
            medium: Medium::Audio,
            policy: Policy::Server,
        });
        let t1 = match &o1[0].signal {
            Signal::Open { desc, .. } => desc.tag,
            _ => unreachable!(),
        };
        let t2 = match &o2[0].signal {
            Signal::Open { desc, .. } => desc.tag,
            _ => unreachable!(),
        };
        assert_ne!(t1.origin, t2.origin);
    }

    #[test]
    fn observer_sees_goals_transitions_and_races() {
        use ipmedia_obs::{ManualClock, ObsEvent, RecordingObserver};
        use std::sync::Arc;

        let mut obs = RecordingObserver::new(Arc::new(ManualClock::new()));
        let log = obs.log();

        let mut b = server_box();
        b.set_goal_obs(
            GoalSpec::Open {
                slot: SlotId(0),
                medium: Medium::Audio,
                policy: Policy::Server,
            },
            &mut obs,
        );
        // Re-annotating drops the old goal and activates the new one.
        b.set_goal_obs(GoalSpec::Close { slot: SlotId(0) }, &mut obs);
        // An open arriving while Opening at the channel initiator is a won
        // race... but the goal is now closeSlot, so drive a fresh slot.
        let mut tags = crate::descriptor::TagSource::new(3);
        let desc = crate::descriptor::Descriptor::no_media(tags.next());
        b.on_signal_obs(
            SlotId(1),
            Signal::Open {
                medium: Medium::Audio,
                desc,
            },
            &mut obs,
        );

        let events: Vec<ObsEvent> = log.lock().unwrap().iter().map(|&(_, e)| e).collect();
        assert!(events.contains(&ObsEvent::GoalActivated {
            bx: 1,
            slot: 0,
            kind: "openSlot",
            peer: None,
        }));
        assert!(events.contains(&ObsEvent::SlotTransition {
            bx: 1,
            slot: 0,
            from: "closed",
            to: "opening",
            cause: "goal",
        }));
        assert!(events.contains(&ObsEvent::GoalDropped {
            bx: 1,
            slot: 0,
            kind: "openSlot"
        }));
        assert!(events.contains(&ObsEvent::GoalActivated {
            bx: 1,
            slot: 0,
            kind: "closeSlot",
            peer: None,
        }));
        assert!(events.contains(&ObsEvent::SignalReceived {
            bx: 1,
            slot: 1,
            kind: "open"
        }));
        assert!(events.contains(&ObsEvent::SlotTransition {
            bx: 1,
            slot: 1,
            from: "closed",
            to: "opened",
            cause: "open",
        }));
    }

    #[test]
    fn observer_reports_open_open_race() {
        use ipmedia_obs::{ManualClock, ObsEvent, RecordingObserver};
        use std::sync::Arc;

        let mut obs = RecordingObserver::new(Arc::new(ManualClock::new()));
        let log = obs.log();

        // Loser side: not the channel initiator, already Opening.
        let mut b = MediaBox::new(BoxId(2));
        b.add_slot(SlotId(0), false);
        b.set_goal_obs(
            GoalSpec::Open {
                slot: SlotId(0),
                medium: Medium::Audio,
                policy: Policy::Server,
            },
            &mut obs,
        );
        let mut tags = crate::descriptor::TagSource::new(9);
        let desc = crate::descriptor::Descriptor::no_media(tags.next());
        b.on_signal_obs(
            SlotId(0),
            Signal::Open {
                medium: Medium::Audio,
                desc,
            },
            &mut obs,
        );

        let events: Vec<ObsEvent> = log.lock().unwrap().iter().map(|&(_, e)| e).collect();
        assert!(events.contains(&ObsEvent::RaceResolved {
            bx: 2,
            slot: 0,
            won: false
        }));
        // The openSlot goal reacts to the backoff within the same stimulus
        // (it accepts the winning open), so the transition the observer
        // reports is the net one: opening straight to flowing.
        assert!(events.contains(&ObsEvent::SlotTransition {
            bx: 2,
            slot: 0,
            from: "opening",
            to: "flowing",
            cause: "open",
        }));
    }

    #[test]
    fn remove_slot_kills_goal() {
        use ipmedia_obs::{ManualClock, ObsEvent, RecordingObserver};
        use std::sync::Arc;

        let mut obs = RecordingObserver::new(Arc::new(ManualClock::new()));
        let log = obs.log();
        let mut b = server_box();
        let link = GoalSpec::Link {
            a: SlotId(0),
            b: SlotId(1),
        };
        b.set_goal_obs(link, &mut obs);
        b.remove_slot(SlotId(0), &mut obs);
        assert!(b.slot(SlotId(0)).is_none());
        assert!(b.goal_of(SlotId(1)).is_none());
        // The link names both its slots when it starts, and its end is
        // reported when a slot goes with its channel.
        let goals: Vec<ObsEvent> = log.lock().unwrap().iter().map(|&(_, e)| e).collect();
        assert_eq!(
            goals,
            [
                ObsEvent::GoalActivated {
                    bx: 1,
                    slot: 0,
                    kind: "flowLink",
                    peer: Some(1),
                },
                ObsEvent::GoalDropped {
                    bx: 1,
                    slot: 0,
                    kind: "flowLink",
                },
            ]
        );
    }
}
