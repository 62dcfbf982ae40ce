//! The slot: one protocol endpoint of one tunnel (paper §III-A, Fig. 9).
//!
//! A `Slot` object sees every signal received from its tunnel and validates
//! every signal sent into it, so it maintains the complete
//! implementation-level state of the protocol endpoint: protocol state,
//! medium, and cached descriptors/selectors (paper §VII).
//!
//! The slot is a pure, sans-IO state machine: `on_signal` consumes one
//! incoming signal and returns an event for the controlling goal object plus
//! any protocol-mandated automatic response (`closeack`). Outgoing signals
//! are produced by the `send_*` methods, which validate against the protocol
//! of Fig. 9 and return the wire signal for the caller to transmit.

use crate::codec::Medium;
use crate::descriptor::{Descriptor, Selector};
use crate::error::ProtocolError;
use crate::signal::{Signal, SignalKind};

/// Protocol state of a slot (Fig. 9). The user-interface states of Fig. 5
/// map onto these; `Closing` is the extra protocol state not observable in
/// the user interface (§VI-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SlotState {
    /// No media channel exists (or it has been fully torn down).
    Closed,
    /// We sent `open` and await `oack` or `close`.
    Opening,
    /// We received `open` and have not yet answered.
    Opened,
    /// The channel is established; media may flow subject to muting.
    Flowing,
    /// We sent `close` and await `closeack`.
    Closing,
}

impl SlotState {
    /// The paper's Fig. 12 shorthand: `opening`, `opened` and `flowing` are
    /// *live*; `closed` and `closing` are *dead*.
    pub fn is_live(self) -> bool {
        matches!(
            self,
            SlotState::Opening | SlotState::Opened | SlotState::Flowing
        )
    }

    /// A dead state: no channel and none being opened (`closed`, `closing`).
    pub fn is_dead(self) -> bool {
        !self.is_live()
    }

    /// The paper's lower-case state name, as used in traces and ladders.
    pub fn name(self) -> &'static str {
        match self {
            SlotState::Closed => "closed",
            SlotState::Opening => "opening",
            SlotState::Opened => "opened",
            SlotState::Flowing => "flowing",
            SlotState::Closing => "closing",
        }
    }

    /// Every protocol state, in the declaration order of Fig. 9.
    pub const ALL: [SlotState; 5] = [
        SlotState::Closed,
        SlotState::Opening,
        SlotState::Opened,
        SlotState::Flowing,
        SlotState::Closing,
    ];

    /// The state after performing `action`, or `None` if the protocol
    /// forbids the action in this state. Queries [`SEND_RULES`]; the
    /// `send_*` methods of [`Slot`] validate against exactly this table.
    pub fn after_send(self, action: SlotAction) -> Option<SlotState> {
        SEND_RULES
            .iter()
            .find(|r| r.state == self && r.action == action)
            .map(|r| r.next)
    }

    /// The protocol actions legal in this state, in [`SEND_RULES`] order.
    /// The model checker derives its nondeterministic user-action menu
    /// from this, and the static analyzer uses it to judge whether a box
    /// program can ever perform an action it is annotated with.
    pub fn legal_sends(self) -> impl Iterator<Item = SlotAction> {
        SEND_RULES
            .iter()
            .filter(move |r| r.state == self)
            .map(|r| r.action)
    }

    /// The state after *receiving* a signal of class `kind`, plus any
    /// protocol-mandated automatic response. `initiator` is the slot's
    /// channel-initiator flag, which decides open/open races (§VI-B).
    /// Queries [`RECV_RULES`]; signals with no matching rule are tolerated
    /// and dropped without a state change, exactly as
    /// [`Slot::on_signal`] does.
    pub fn on_receive(self, kind: SignalKind, initiator: bool) -> (SlotState, Option<SignalKind>) {
        RECV_RULES
            .iter()
            .find(|r| {
                r.state == self && r.signal == kind && r.initiator.is_none_or(|i| i == initiator)
            })
            .map_or((self, None), |r| (r.next, r.auto))
    }
}

/// A protocol action a goal object can ask a slot to perform — the send
/// half of the Fig. 9 protocol FSM ([`SEND_RULES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SlotAction {
    /// `!open` — attempt to open a media channel.
    Open,
    /// `!oack / !select` — accept a pending open.
    Accept,
    /// `!select` — answer the current peer descriptor.
    Select,
    /// `!describe` — send a new self-description.
    Describe,
    /// `!close` — close (or reject) the media channel.
    Close,
}

impl SlotAction {
    /// Every protocol action, in [`SEND_RULES`] order.
    pub const ALL: [SlotAction; 5] = [
        SlotAction::Open,
        SlotAction::Accept,
        SlotAction::Select,
        SlotAction::Describe,
        SlotAction::Close,
    ];

    /// Lower-case action name, as used in diagnostics and
    /// [`ProtocolError::BadState`].
    pub fn name(self) -> &'static str {
        match self {
            SlotAction::Open => "open",
            SlotAction::Accept => "accept",
            SlotAction::Select => "select",
            SlotAction::Describe => "describe",
            SlotAction::Close => "close",
        }
    }
}

/// One row of the send half of the protocol FSM: in `state`, `action` is
/// legal and leaves the slot in `next`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendRule {
    /// State the slot must be in for the action to be legal.
    pub state: SlotState,
    /// The action performed.
    pub action: SlotAction,
    /// State of the slot after the action.
    pub next: SlotState,
}

/// The send half of the Fig. 9 protocol FSM, as a queryable constant.
///
/// This is the single source of truth for which protocol actions are
/// legal in which slot state: the [`Slot`] `send_*` methods validate
/// against it, the model checker derives its action menu from it, and the
/// static analyzer (`ipmedia-analyze`) product-constructs box programs
/// against it. Actions not listed for a state are protocol violations
/// ([`ProtocolError::BadState`]).
pub const SEND_RULES: &[SendRule] = &[
    SendRule {
        state: SlotState::Closed,
        action: SlotAction::Open,
        next: SlotState::Opening,
    },
    SendRule {
        state: SlotState::Opened,
        action: SlotAction::Accept,
        next: SlotState::Flowing,
    },
    SendRule {
        state: SlotState::Flowing,
        action: SlotAction::Select,
        next: SlotState::Flowing,
    },
    SendRule {
        state: SlotState::Flowing,
        action: SlotAction::Describe,
        next: SlotState::Flowing,
    },
    SendRule {
        state: SlotState::Opening,
        action: SlotAction::Close,
        next: SlotState::Closing,
    },
    SendRule {
        state: SlotState::Opened,
        action: SlotAction::Close,
        next: SlotState::Closing,
    },
    SendRule {
        state: SlotState::Flowing,
        action: SlotAction::Close,
        next: SlotState::Closing,
    },
];

/// One row of the receive half of the protocol FSM: a signal of class
/// `signal` arriving in `state` moves the slot to `next` and mandates the
/// automatic response `auto`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvRule {
    /// State the slot is in when the signal arrives.
    pub state: SlotState,
    /// Class of the arriving signal.
    pub signal: SignalKind,
    /// Channel-initiator restriction: `Some(true)` applies only at the
    /// end that initiated the signaling channel (the open/open race
    /// winner, §VI-B), `Some(false)` only at the other end, `None` at
    /// both.
    pub initiator: Option<bool>,
    /// State of the slot after the signal is consumed.
    pub next: SlotState,
    /// Protocol-mandated automatic response, if any.
    pub auto: Option<SignalKind>,
}

/// The receive half of the Fig. 9 protocol FSM, as a queryable constant.
///
/// Rows cover every (state, signal) pair where the signal *does*
/// something — changes state or mandates an automatic response. Pairs
/// with no row are tolerated and dropped without a state change (the
/// protocol's idempotence, §VI). [`Slot::on_signal`] additionally
/// maintains descriptor/selector caches and staleness checks, but its
/// state transitions and automatic responses agree with this table
/// exactly (enforced by test).
pub const RECV_RULES: &[RecvRule] = &[
    // open
    RecvRule {
        state: SlotState::Closed,
        signal: SignalKind::Open,
        initiator: None,
        next: SlotState::Opened,
        auto: None,
    },
    // open/open race: the channel initiator wins and ignores the losing
    // open; the other end backs off and becomes the acceptor.
    RecvRule {
        state: SlotState::Opening,
        signal: SignalKind::Open,
        initiator: Some(false),
        next: SlotState::Opened,
        auto: None,
    },
    // oack
    RecvRule {
        state: SlotState::Opening,
        signal: SignalKind::Oack,
        initiator: None,
        next: SlotState::Flowing,
        auto: None,
    },
    RecvRule {
        state: SlotState::Closed,
        signal: SignalKind::Oack,
        initiator: None,
        next: SlotState::Closed,
        auto: Some(SignalKind::Close),
    },
    // close: every live state closes and acknowledges; a close/close race
    // and a defensive close-while-closed acknowledge without moving.
    RecvRule {
        state: SlotState::Opening,
        signal: SignalKind::Close,
        initiator: None,
        next: SlotState::Closed,
        auto: Some(SignalKind::CloseAck),
    },
    RecvRule {
        state: SlotState::Opened,
        signal: SignalKind::Close,
        initiator: None,
        next: SlotState::Closed,
        auto: Some(SignalKind::CloseAck),
    },
    RecvRule {
        state: SlotState::Flowing,
        signal: SignalKind::Close,
        initiator: None,
        next: SlotState::Closed,
        auto: Some(SignalKind::CloseAck),
    },
    RecvRule {
        state: SlotState::Closing,
        signal: SignalKind::Close,
        initiator: None,
        next: SlotState::Closing,
        auto: Some(SignalKind::CloseAck),
    },
    RecvRule {
        state: SlotState::Closed,
        signal: SignalKind::Close,
        initiator: None,
        next: SlotState::Closed,
        auto: Some(SignalKind::CloseAck),
    },
    // closeack
    RecvRule {
        state: SlotState::Closing,
        signal: SignalKind::CloseAck,
        initiator: None,
        next: SlotState::Closed,
        auto: None,
    },
    // describe / select: meaningful only while flowing; on a closed slot
    // they reveal a half-open peer, which only an explicit close can tear
    // down (the hole PR 2's fault campaign found dynamically).
    RecvRule {
        state: SlotState::Flowing,
        signal: SignalKind::Describe,
        initiator: None,
        next: SlotState::Flowing,
        auto: None,
    },
    RecvRule {
        state: SlotState::Closed,
        signal: SignalKind::Describe,
        initiator: None,
        next: SlotState::Closed,
        auto: Some(SignalKind::Close),
    },
    RecvRule {
        state: SlotState::Flowing,
        signal: SignalKind::Select,
        initiator: None,
        next: SlotState::Flowing,
        auto: None,
    },
    RecvRule {
        state: SlotState::Closed,
        signal: SignalKind::Select,
        initiator: None,
        next: SlotState::Closed,
        auto: Some(SignalKind::Close),
    },
];

/// Export the protocol rule tables as the plain-data form the runtime
/// invariant monitor consumes (`ipmedia_obs::monitor`).
///
/// Built from [`SEND_RULES`] and [`RECV_RULES`] — the same single source
/// of truth the implementation validates against, the analyzer
/// product-constructs with, and the model checker explores — so a
/// monitor verdict of "no rule explains this send" is exactly a
/// divergence from the verified model. The initiator restriction on the
/// open/open race row is intentionally erased: the monitor tracks
/// believed states, not initiator flags, and accepts either race
/// outcome.
pub fn monitor_rules() -> ipmedia_obs::monitor::MonitorRules {
    ipmedia_obs::monitor::MonitorRules {
        send: SEND_RULES
            .iter()
            .map(|r| ipmedia_obs::monitor::SendRuleData {
                state: r.state.name(),
                action: r.action.name(),
                next: r.next.name(),
            })
            .collect(),
        recv: RECV_RULES
            .iter()
            .map(|r| ipmedia_obs::monitor::RecvRuleData {
                state: r.state.name(),
                signal: r.signal.name(),
                next: r.next.name(),
                auto: r.auto.map(SignalKind::name),
            })
            .collect(),
    }
}

/// What an incoming signal meant, reported to the controlling goal object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotEvent {
    /// An `open` arrived while we were closed; the goal must accept
    /// (oack + select) or reject (close). State is now `Opened`.
    OpenReceived {
        /// The medium the peer wants to open.
        medium: Medium,
    },
    /// An `open` arrived while we were `Opening` and this end loses the
    /// open/open race (it did not initiate the signaling channel, §VI-B).
    /// This end backs off and becomes the acceptor; state is now `Opened`.
    RaceBackoff {
        /// The medium the peer wants to open.
        medium: Medium,
    },
    /// An `open` arrived while we were `Opening` and this end wins the
    /// race; the losing open is simply ignored (§VI-B).
    RaceIgnored,
    /// Our `open` was accepted; state is now `Flowing`. The goal must send
    /// a selector answering the oack's descriptor (`?oack / !select`).
    Oacked,
    /// The peer closed (or rejected) the channel. A `closeack` has been
    /// sent automatically; state is now `Closed`. `was` is the state in
    /// which the close arrived — `Opening` means our open was rejected.
    PeerClosed {
        /// The state in which the close arrived.
        was: SlotState,
    },
    /// Our `close` was acknowledged; state is now `Closed`.
    CloseAcked,
    /// A new peer descriptor arrived (`describe`). The goal must respond
    /// with a selector, if only to show the descriptor was received (§VI-B).
    Described,
    /// A selector arrived. `fresh` is true iff it answers the descriptor we
    /// most recently sent; obsolete selectors are reported so flowlinks can
    /// discard them (§VII).
    Selected {
        /// Whether the selector answers our most recent descriptor.
        fresh: bool,
    },
    /// A stale or duplicate signal was tolerated and dropped.
    Ignored(&'static str),
}

/// One protocol endpoint of one tunnel.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Slot {
    state: SlotState,
    /// Medium of the current (or pending) media channel.
    medium: Option<Medium>,
    /// True iff this end initiated setup of the signaling channel; the
    /// initiator wins an open/open race (§VI-B).
    channel_initiator: bool,
    /// Most recent descriptor received (in `open`, `oack`, or `describe`);
    /// "the descriptor of a slot" in the paper's sense (§VII).
    peer_desc: Option<Descriptor>,
    /// Most recent descriptor we sent (in `open`, `oack`, or `describe`).
    sent_desc: Option<Descriptor>,
    /// Most recent selector received.
    peer_sel: Option<Selector>,
    /// Most recent selector we sent.
    sent_sel: Option<Selector>,
}

impl Slot {
    /// A fresh, closed slot. `channel_initiator` must be true at exactly
    /// one end of each tunnel (the end whose box initiated setup of the
    /// signaling channel).
    pub fn new(channel_initiator: bool) -> Self {
        Self {
            state: SlotState::Closed,
            medium: None,
            channel_initiator,
            peer_desc: None,
            sent_desc: None,
            peer_sel: None,
            sent_sel: None,
        }
    }

    /// The slot's current protocol state.
    pub fn state(&self) -> SlotState {
        self.state
    }

    /// The medium of the current (or opening) media channel.
    pub fn medium(&self) -> Option<Medium> {
        self.medium
    }

    /// The slot's current peer descriptor, i.e. the most recent descriptor
    /// received in an `open`, `oack`, or `describe` signal (§VII).
    pub fn peer_desc(&self) -> Option<&Descriptor> {
        self.peer_desc.as_ref()
    }

    /// The descriptor we most recently sent into the tunnel.
    pub fn sent_desc(&self) -> Option<&Descriptor> {
        self.sent_desc.as_ref()
    }

    /// The selector we most recently received.
    pub fn peer_sel(&self) -> Option<&Selector> {
        self.peer_sel.as_ref()
    }

    /// The selector we most recently sent.
    pub fn sent_sel(&self) -> Option<&Selector> {
        self.sent_sel.as_ref()
    }

    /// A slot is *described* if it holds a current peer descriptor; only
    /// slots in the `opened` and `flowing` states are described (§VII).
    pub fn is_described(&self) -> bool {
        matches!(self.state, SlotState::Opened | SlotState::Flowing) && self.peer_desc.is_some()
    }

    /// History variable of §VI-C: this end has *enabled* transmission iff it
    /// is flowing and the selector it most recently sent carries a real
    /// codec.
    pub fn tx_enabled(&self) -> bool {
        self.state == SlotState::Flowing
            && self
                .sent_sel
                .as_ref()
                .is_some_and(super::descriptor::Selector::is_sending)
    }

    /// This end should be ready to receive media iff it is flowing and the
    /// most recently received selector carries a real codec (§VI-B).
    pub fn rx_expected(&self) -> bool {
        self.state == SlotState::Flowing
            && self
                .peer_sel
                .as_ref()
                .is_some_and(super::descriptor::Selector::is_sending)
    }

    /// Where and how this end currently transmits media: the address from
    /// the peer's current descriptor and the codec from our selector — but
    /// only while our selector answers that descriptor (a re-describe not
    /// yet answered suspends transmission until the fresh selector is sent).
    pub fn tx_route(&self) -> Option<(crate::descriptor::MediaAddr, crate::codec::Codec)> {
        if !self.tx_enabled() {
            return None;
        }
        let sel = self.sent_sel.as_ref()?;
        let desc = self.peer_desc.as_ref()?;
        if sel.answers != desc.tag {
            return None;
        }
        Some((desc.addr?, sel.codec))
    }

    /// Mutable access to cached records, for tag canonicalization
    /// (`crate::retag`). Not part of the protocol API.
    #[doc(hidden)]
    pub fn peer_desc_mut(&mut self) -> Option<&mut Descriptor> {
        self.peer_desc.as_mut()
    }

    #[doc(hidden)]
    pub fn sent_desc_mut(&mut self) -> Option<&mut Descriptor> {
        self.sent_desc.as_mut()
    }

    #[doc(hidden)]
    pub fn peer_sel_mut(&mut self) -> Option<&mut Selector> {
        self.peer_sel.as_mut()
    }

    #[doc(hidden)]
    pub fn sent_sel_mut(&mut self) -> Option<&mut Selector> {
        self.sent_sel.as_mut()
    }

    // --- predicates of §IV-A, usable as transition guards in box programs ---

    /// `isClosed` guard predicate (§IV-A).
    pub fn is_closed(&self) -> bool {
        self.state == SlotState::Closed
    }

    /// `isOpening` guard predicate (§IV-A).
    pub fn is_opening(&self) -> bool {
        self.state == SlotState::Opening
    }

    /// `isOpened` guard predicate (§IV-A).
    pub fn is_opened(&self) -> bool {
        self.state == SlotState::Opened
    }

    /// `isFlowing` guard predicate (§IV-A).
    pub fn is_flowing(&self) -> bool {
        self.state == SlotState::Flowing
    }

    // ------------------------------------------------------------------
    // Incoming signals
    // ------------------------------------------------------------------

    /// Consume one incoming signal: update state, auto-respond where the
    /// protocol mandates it (`closeack`), and report what happened.
    pub fn on_signal(&mut self, signal: Signal) -> (SlotEvent, Vec<Signal>) {
        use SlotState::{Closed, Closing, Flowing, Opened, Opening};
        match signal {
            Signal::Open { medium, desc } => match self.state {
                Closed => {
                    self.state = Opened;
                    self.medium = Some(medium);
                    self.peer_desc = Some(desc);
                    self.peer_sel = None;
                    (SlotEvent::OpenReceived { medium }, vec![])
                }
                Opening => {
                    if self.channel_initiator {
                        // We win the race; the losing open is ignored.
                        (SlotEvent::RaceIgnored, vec![])
                    } else {
                        // We lose: back off and act as the acceptor instead.
                        self.state = Opened;
                        self.medium = Some(medium);
                        self.peer_desc = Some(desc);
                        (SlotEvent::RaceBackoff { medium }, vec![])
                    }
                }
                _ => (SlotEvent::Ignored("open in unexpected state"), vec![]),
            },
            Signal::Oack { desc } => match self.state {
                Opening => {
                    self.state = Flowing;
                    self.peer_desc = Some(desc);
                    (SlotEvent::Oacked, vec![])
                }
                Closed => (SlotEvent::Ignored("oack while closed"), vec![Signal::Close]),
                _ => (SlotEvent::Ignored("stale oack"), vec![]),
            },
            Signal::Close => match self.state {
                Opening | Opened | Flowing => {
                    let was = self.state;
                    self.reset_to_closed();
                    (SlotEvent::PeerClosed { was }, vec![Signal::CloseAck])
                }
                Closing => {
                    // close/close race: acknowledge theirs, keep waiting
                    // for the acknowledgement of ours.
                    (
                        SlotEvent::Ignored("close/close race"),
                        vec![Signal::CloseAck],
                    )
                }
                Closed => {
                    // Defensive: acknowledge so a confused peer cannot hang.
                    (
                        SlotEvent::Ignored("close while closed"),
                        vec![Signal::CloseAck],
                    )
                }
            },
            Signal::CloseAck => match self.state {
                Closing => {
                    self.reset_to_closed();
                    (SlotEvent::CloseAcked, vec![])
                }
                _ => (SlotEvent::Ignored("stale closeack"), vec![]),
            },
            Signal::Describe { desc } => match self.state {
                Flowing => {
                    // A reordered describe from an earlier generation of the
                    // same source must not regress the current descriptor
                    // (tag generations order descriptors per origin).
                    let stale = self.peer_desc.as_ref().is_some_and(|cur| {
                        cur.tag.origin == desc.tag.origin
                            && desc.tag.generation < cur.tag.generation
                    });
                    if stale {
                        (SlotEvent::Ignored("stale describe"), vec![])
                    } else {
                        self.peer_desc = Some(desc);
                        (SlotEvent::Described, vec![])
                    }
                }
                Closed => (
                    SlotEvent::Ignored("describe while closed"),
                    vec![Signal::Close],
                ),
                _ => (SlotEvent::Ignored("describe in non-flowing state"), vec![]),
            },
            Signal::Select { sel } => match self.state {
                Flowing => {
                    let fresh = self
                        .sent_desc
                        .as_ref()
                        .is_some_and(|d| sel.answers == d.tag);
                    // A stale selector (answering an outdated descriptor)
                    // never overwrites a fresh answer — a reordered network
                    // must not regress converged state (§VI).
                    let have_fresh = !fresh
                        && self
                            .sent_desc
                            .as_ref()
                            .zip(self.peer_sel.as_ref())
                            .is_some_and(|(d, p)| p.answers == d.tag);
                    if have_fresh {
                        (SlotEvent::Ignored("stale selector"), vec![])
                    } else {
                        self.peer_sel = Some(sel);
                        (SlotEvent::Selected { fresh }, vec![])
                    }
                }
                Closed => (
                    SlotEvent::Ignored("select while closed"),
                    vec![Signal::Close],
                ),
                _ => (SlotEvent::Ignored("select in non-flowing state"), vec![]),
            },
        }
    }

    // ------------------------------------------------------------------
    // Outgoing signals (invoked by goal objects)
    // ------------------------------------------------------------------

    /// Validate `action` against [`SEND_RULES`] and return the successor
    /// state, or the [`ProtocolError::BadState`] the protocol mandates.
    fn check_send(&self, action: SlotAction) -> Result<SlotState, ProtocolError> {
        self.state
            .after_send(action)
            .ok_or(ProtocolError::BadState {
                action: action.name(),
                state: self.state,
            })
    }

    /// Attempt to open a media channel (`!open`). Legal only when closed.
    pub fn send_open(&mut self, medium: Medium, desc: Descriptor) -> Result<Signal, ProtocolError> {
        self.state = self.check_send(SlotAction::Open)?;
        self.medium = Some(medium);
        self.sent_desc = Some(desc.clone());
        self.sent_sel = None;
        self.peer_sel = None;
        Ok(Signal::Open { medium, desc })
    }

    /// Accept a pending open: send `oack` carrying our descriptor followed
    /// by a selector answering the open's descriptor (`!oack / !select`,
    /// Fig. 9). Legal only in `Opened`.
    pub fn accept(
        &mut self,
        desc: Descriptor,
        sel: Selector,
    ) -> Result<[Signal; 2], ProtocolError> {
        let next = self.check_send(SlotAction::Accept)?;
        let peer = self.peer_desc.as_ref().expect("opened slot is described");
        if !sel.answers_validly(peer) {
            return Err(ProtocolError::StaleSelector);
        }
        self.state = next;
        self.sent_desc = Some(desc.clone());
        self.sent_sel = Some(sel.clone());
        Ok([Signal::Oack { desc }, Signal::Select { sel }])
    }

    /// Send a selector answering the current peer descriptor. Legal in
    /// `Flowing` (including immediately after `Oacked`); selectors in the
    /// two directions do not constrain each other (§VI-C).
    pub fn send_select(&mut self, sel: Selector) -> Result<Signal, ProtocolError> {
        self.state = self.check_send(SlotAction::Select)?;
        let peer = self
            .peer_desc
            .as_ref()
            .ok_or(ProtocolError::InvalidRecord("no peer descriptor to answer"))?;
        if !sel.answers_validly(peer) {
            return Err(ProtocolError::StaleSelector);
        }
        self.sent_sel = Some(sel.clone());
        Ok(Signal::Select { sel })
    }

    /// Send a new self-description. Legal any time after `oack` has been
    /// sent or received, i.e. in `Flowing` (§VI-B).
    pub fn send_describe(&mut self, desc: Descriptor) -> Result<Signal, ProtocolError> {
        self.state = self.check_send(SlotAction::Describe)?;
        self.sent_desc = Some(desc.clone());
        Ok(Signal::Describe { desc })
    }

    /// Close (or reject) the media channel. Legal from any live state.
    pub fn send_close(&mut self) -> Result<Signal, ProtocolError> {
        self.state = self.check_send(SlotAction::Close)?;
        Ok(Signal::Close)
    }

    fn reset_to_closed(&mut self) {
        self.state = SlotState::Closed;
        self.medium = None;
        self.peer_desc = None;
        self.sent_desc = None;
        self.peer_sel = None;
        self.sent_sel = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Codec;
    use crate::descriptor::{DescTag, MediaAddr, TagSource};

    fn desc(ts: &mut TagSource) -> Descriptor {
        Descriptor::media(
            ts.next(),
            MediaAddr::v4(10, 0, 0, 1, 4000),
            vec![Codec::G711, Codec::G726],
        )
    }

    fn nm_desc(ts: &mut TagSource) -> Descriptor {
        Descriptor::no_media(ts.next())
    }

    /// Drive a pair of connected slots: deliver `sig` from `from` to `to`,
    /// returning the event and forwarding auto-responses back.
    fn deliver(to: &mut Slot, sig: Signal) -> (SlotEvent, Vec<Signal>) {
        to.on_signal(sig)
    }

    #[test]
    fn happy_path_open_accept_flow_close() {
        // Reproduces the first half of the paper's Fig. 10 scenario.
        let mut a = Slot::new(true);
        let mut b = Slot::new(false);
        let mut ta = TagSource::new(1);
        let mut tb = TagSource::new(2);

        let d1 = desc(&mut ta);
        let open = a.send_open(Medium::Audio, d1.clone()).unwrap();
        assert_eq!(a.state(), SlotState::Opening);

        let (ev, auto) = deliver(&mut b, open);
        assert_eq!(
            ev,
            SlotEvent::OpenReceived {
                medium: Medium::Audio
            }
        );
        assert!(auto.is_empty());
        assert_eq!(b.state(), SlotState::Opened);
        assert!(b.is_described());

        // B accepts: oack(desc2) + select answering desc1.
        let d2 = desc(&mut tb);
        let sel2 = Selector::sending(d1.tag, MediaAddr::v4(10, 0, 0, 2, 5000), Codec::G711);
        let [oack, select] = b.accept(d2.clone(), sel2).unwrap();
        assert_eq!(b.state(), SlotState::Flowing);
        assert!(b.tx_enabled());

        let (ev, _) = deliver(&mut a, oack);
        assert_eq!(ev, SlotEvent::Oacked);
        assert_eq!(a.state(), SlotState::Flowing);
        assert_eq!(a.peer_desc().unwrap().tag, d2.tag);

        let (ev, _) = deliver(&mut a, select);
        assert_eq!(ev, SlotEvent::Selected { fresh: true });
        assert!(a.rx_expected());

        // A answers the oack's descriptor.
        let sel1 = Selector::sending(d2.tag, MediaAddr::v4(10, 0, 0, 1, 4000), Codec::G711);
        let sig = a.send_select(sel1).unwrap();
        assert!(a.tx_enabled());
        let (ev, _) = deliver(&mut b, sig);
        assert_eq!(ev, SlotEvent::Selected { fresh: true });
        assert!(b.rx_expected());

        // Close handshake.
        let close = a.send_close().unwrap();
        assert_eq!(a.state(), SlotState::Closing);
        assert!(!a.tx_enabled(), "leaving flowing disables transmission");
        let (ev, auto) = deliver(&mut b, close);
        assert_eq!(
            ev,
            SlotEvent::PeerClosed {
                was: SlotState::Flowing
            }
        );
        assert_eq!(b.state(), SlotState::Closed);
        let (ev, _) = deliver(&mut a, auto.into_iter().next().unwrap());
        assert_eq!(ev, SlotEvent::CloseAcked);
        assert_eq!(a.state(), SlotState::Closed);
    }

    #[test]
    fn reject_is_close_while_opening() {
        let mut a = Slot::new(true);
        let mut b = Slot::new(false);
        let mut ta = TagSource::new(1);

        let open = a.send_open(Medium::Audio, nm_desc(&mut ta)).unwrap();
        deliver(&mut b, open);
        let close = b.send_close().unwrap(); // reject
        let (ev, auto) = deliver(&mut a, close);
        assert_eq!(
            ev,
            SlotEvent::PeerClosed {
                was: SlotState::Opening
            }
        );
        assert_eq!(a.state(), SlotState::Closed);
        let (ev, _) = deliver(&mut b, auto.into_iter().next().unwrap());
        assert_eq!(ev, SlotEvent::CloseAcked);
        assert_eq!(b.state(), SlotState::Closed);
    }

    #[test]
    fn open_open_race_initiator_wins() {
        // §VI-B: the winner is always the end that initiated setup of the
        // signaling channel; the losing open is simply ignored.
        let mut a = Slot::new(true); // channel initiator
        let mut b = Slot::new(false);
        let mut ta = TagSource::new(1);
        let mut tb = TagSource::new(2);

        let open_a = a.send_open(Medium::Audio, desc(&mut ta)).unwrap();
        let open_b = b.send_open(Medium::Audio, desc(&mut tb)).unwrap();

        let (ev, _) = deliver(&mut a, open_b);
        assert_eq!(ev, SlotEvent::RaceIgnored);
        assert_eq!(a.state(), SlotState::Opening);

        let (ev, _) = deliver(&mut b, open_a);
        assert!(matches!(
            ev,
            SlotEvent::RaceBackoff {
                medium: Medium::Audio
            }
        ));
        assert_eq!(b.state(), SlotState::Opened);

        // b now accepts as if it had been opened.
        let d2 = desc(&mut tb);
        let answer = Selector::sending(
            a.sent_desc().unwrap().tag,
            MediaAddr::v4(10, 0, 0, 2, 5000),
            Codec::G711,
        );
        let [oack, select] = b.accept(d2, answer).unwrap();
        let (ev, _) = deliver(&mut a, oack);
        assert_eq!(ev, SlotEvent::Oacked);
        let (ev, _) = deliver(&mut a, select);
        assert_eq!(ev, SlotEvent::Selected { fresh: true });
        assert_eq!(a.state(), SlotState::Flowing);
    }

    #[test]
    fn close_close_race_resolves() {
        let mut a = Slot::new(true);
        let mut b = Slot::new(false);
        let mut ta = TagSource::new(1);
        let mut tb = TagSource::new(2);

        // Establish a flowing channel.
        let open = a.send_open(Medium::Audio, desc(&mut ta)).unwrap();
        deliver(&mut b, open);
        let d2 = desc(&mut tb);
        let answer = Selector::not_sending(a.sent_desc().unwrap().tag);
        let [oack, select] = b.accept(d2, answer).unwrap();
        deliver(&mut a, oack);
        deliver(&mut a, select);

        // Both close simultaneously.
        let close_a = a.send_close().unwrap();
        let close_b = b.send_close().unwrap();

        let (ev, auto_a) = deliver(&mut a, close_b);
        assert_eq!(ev, SlotEvent::Ignored("close/close race"));
        assert_eq!(auto_a, vec![Signal::CloseAck]);
        let (ev, auto_b) = deliver(&mut b, close_a);
        assert_eq!(ev, SlotEvent::Ignored("close/close race"));
        assert_eq!(auto_b, vec![Signal::CloseAck]);

        let (ev, _) = deliver(&mut a, auto_b.into_iter().next().unwrap());
        assert_eq!(ev, SlotEvent::CloseAcked);
        let (ev, _) = deliver(&mut b, auto_a.into_iter().next().unwrap());
        assert_eq!(ev, SlotEvent::CloseAcked);
        assert_eq!(a.state(), SlotState::Closed);
        assert_eq!(b.state(), SlotState::Closed);
    }

    #[test]
    fn describe_reselect_cycle() {
        // Second half of Fig. 10: a new descriptor at any time, answered by
        // a new selector.
        let mut a = Slot::new(true);
        let mut b = Slot::new(false);
        let mut ta = TagSource::new(1);
        let mut tb = TagSource::new(2);

        let open = a.send_open(Medium::Audio, desc(&mut ta)).unwrap();
        deliver(&mut b, open);
        let d2 = desc(&mut tb);
        let answer = Selector::not_sending(a.sent_desc().unwrap().tag);
        let [oack, select] = b.accept(d2, answer).unwrap();
        deliver(&mut a, oack);
        deliver(&mut a, select);

        // A re-describes itself (e.g. its mute state changed).
        let d3 = desc(&mut ta);
        let sig = a.send_describe(d3.clone()).unwrap();
        let (ev, _) = deliver(&mut b, sig);
        assert_eq!(ev, SlotEvent::Described);
        assert_eq!(b.peer_desc().unwrap().tag, d3.tag);

        // B answers with a fresh selector; A sees it as fresh.
        let sel = Selector::sending(d3.tag, MediaAddr::v4(10, 0, 0, 2, 5000), Codec::G726);
        let sig = b.send_select(sel).unwrap();
        let (ev, _) = deliver(&mut a, sig);
        assert_eq!(ev, SlotEvent::Selected { fresh: true });
    }

    #[test]
    fn obsolete_selector_is_flagged_stale() {
        let mut a = Slot::new(true);
        let mut b = Slot::new(false);
        let mut ta = TagSource::new(1);
        let mut tb = TagSource::new(2);

        let d1 = desc(&mut ta);
        let open = a.send_open(Medium::Audio, d1.clone()).unwrap();
        deliver(&mut b, open);
        let d2 = desc(&mut tb);
        let answer = Selector::not_sending(d1.tag);
        let [oack, select] = b.accept(d2, answer).unwrap();
        deliver(&mut a, oack);
        deliver(&mut a, select);

        // A re-describes; a selector answering the *old* descriptor is
        // then reported as not fresh.
        let d3 = desc(&mut ta);
        let _ = a.send_describe(d3).unwrap();
        let old_sel = Signal::Select {
            sel: Selector::sending(d1.tag, MediaAddr::v4(10, 0, 0, 2, 5000), Codec::G711),
        };
        let (ev, _) = deliver(&mut a, old_sel);
        assert_eq!(ev, SlotEvent::Selected { fresh: false });
    }

    #[test]
    fn stale_selector_never_overwrites_fresh_answer() {
        // A re-describes (d1 → d3) and B's fresh answer to d3 arrives
        // first; the reordered old answer to d1 must not regress it.
        let mut a = Slot::new(true);
        let mut b = Slot::new(false);
        let mut ta = TagSource::new(1);
        let mut tb = TagSource::new(2);

        let d1 = desc(&mut ta);
        let open = a.send_open(Medium::Audio, d1.clone()).unwrap();
        deliver(&mut b, open);
        let d2 = desc(&mut tb);
        let [oack, select] = b.accept(d2, Selector::not_sending(d1.tag)).unwrap();
        deliver(&mut a, oack);
        deliver(&mut a, select);

        let d3 = desc(&mut ta);
        let _ = a.send_describe(d3.clone()).unwrap();
        let fresh = Selector::sending(d3.tag, MediaAddr::v4(10, 0, 0, 2, 5000), Codec::G726);
        let (ev, _) = deliver(&mut a, Signal::Select { sel: fresh.clone() });
        assert_eq!(ev, SlotEvent::Selected { fresh: true });

        // The late answer to d1 arrives out of order: ignored.
        let stale = Selector::sending(d1.tag, MediaAddr::v4(10, 0, 0, 2, 5000), Codec::G711);
        let (ev, _) = deliver(&mut a, Signal::Select { sel: stale });
        assert_eq!(ev, SlotEvent::Ignored("stale selector"));
        assert_eq!(a.peer_sel(), Some(&fresh));
    }

    #[test]
    fn stale_describe_never_regresses_current_descriptor() {
        let mut a = Slot::new(true);
        let mut b = Slot::new(false);
        let mut ta = TagSource::new(1);
        let mut tb = TagSource::new(2);

        let d1 = desc(&mut ta);
        let open = a.send_open(Medium::Audio, d1.clone()).unwrap();
        deliver(&mut b, open);
        let d2 = desc(&mut tb);
        let [oack, select] = b.accept(d2, Selector::not_sending(d1.tag)).unwrap();
        deliver(&mut a, oack);
        deliver(&mut a, select);

        // A's second descriptor overtakes the duplicate of its first.
        let d3 = desc(&mut ta);
        let (ev, _) = deliver(&mut b, Signal::Describe { desc: d3.clone() });
        assert_eq!(ev, SlotEvent::Described);
        let (ev, _) = deliver(&mut b, Signal::Describe { desc: d1 });
        assert_eq!(ev, SlotEvent::Ignored("stale describe"));
        assert_eq!(b.peer_desc().unwrap().tag, d3.tag);

        // A duplicate of the *current* descriptor is re-processed (it
        // re-triggers the goal's answer — the lost-select recovery path).
        let (ev, _) = deliver(&mut b, Signal::Describe { desc: d3.clone() });
        assert_eq!(ev, SlotEvent::Described);
        assert_eq!(b.peer_desc().unwrap().tag, d3.tag);
    }

    #[test]
    fn stale_select_send_is_rejected() {
        let mut a = Slot::new(true);
        let mut b = Slot::new(false);
        let mut ta = TagSource::new(1);
        let mut tb = TagSource::new(2);

        let d1 = desc(&mut ta);
        let open = a.send_open(Medium::Audio, d1.clone()).unwrap();
        deliver(&mut b, open);
        let d2 = desc(&mut tb);
        let answer = Selector::not_sending(d1.tag);
        let [oack, _] = b.accept(d2.clone(), answer).unwrap();
        deliver(&mut a, oack);

        // Answering a tag that is not the current peer descriptor fails.
        let wrong = Selector::not_sending(DescTag {
            origin: 99,
            generation: 0,
        });
        assert_eq!(a.send_select(wrong), Err(ProtocolError::StaleSelector));
        // Answering the current one succeeds.
        let right = Selector::sending(d2.tag, MediaAddr::v4(1, 1, 1, 1, 2), Codec::G711);
        assert!(a.send_select(right).is_ok());
    }

    #[test]
    fn send_validation_per_state() {
        let mut s = Slot::new(true);
        let mut ts = TagSource::new(1);
        // Closed: cannot close, describe, select.
        assert!(s.send_close().is_err());
        assert!(s.send_describe(nm_desc(&mut ts)).is_err());
        assert!(s.send_select(Selector::not_sending(ts.next())).is_err());
        // Opening: cannot open again.
        s.send_open(Medium::Audio, nm_desc(&mut ts)).unwrap();
        assert!(s.send_open(Medium::Audio, nm_desc(&mut ts)).is_err());
        // Closing: cannot open yet.
        let _ = s.send_close().unwrap();
        assert!(s.send_open(Medium::Audio, nm_desc(&mut ts)).is_err());
        // After closeack: closed again, can open.
        s.on_signal(Signal::CloseAck);
        assert!(s.send_open(Medium::Audio, nm_desc(&mut ts)).is_ok());
    }

    #[test]
    fn stale_signals_are_tolerated() {
        let mut s = Slot::new(true);
        let mut ts = TagSource::new(9);
        let d = nm_desc(&mut ts);
        // A stray closeack while closed is dropped silently.
        let (ev, auto) = s.on_signal(Signal::CloseAck);
        assert!(matches!(ev, SlotEvent::Ignored(_)));
        assert!(auto.is_empty());
        assert_eq!(s.state(), SlotState::Closed);
        // Flowing-phase signals while closed are rejected with a close:
        // the sender believes the connection exists (e.g. a duplicated
        // open re-created its side after we closed), and only an explicit
        // close can tear that half-open state down.
        for sig in [
            Signal::Oack { desc: d.clone() },
            Signal::Describe { desc: d.clone() },
            Signal::Select {
                sel: Selector::not_sending(d.tag),
            },
        ] {
            let (ev, auto) = s.on_signal(sig);
            assert!(matches!(ev, SlotEvent::Ignored(_)));
            assert_eq!(auto, vec![Signal::Close]);
            assert_eq!(s.state(), SlotState::Closed);
        }
        // A close while closed is acknowledged defensively.
        let (ev, auto) = s.on_signal(Signal::Close);
        assert!(matches!(ev, SlotEvent::Ignored(_)));
        assert_eq!(auto, vec![Signal::CloseAck]);
    }

    #[test]
    fn closed_slot_rejects_half_open_peer_with_close() {
        // A duplicated open re-delivered after a full open/close cycle can
        // re-open the answering side while the initiator stays closed. The
        // initiator's close-rejection of the answerer's oack must tear the
        // half-open connection back down.
        let mut a = Slot::new(true);
        let mut b = Slot::new(false);
        let mut ta = TagSource::new(1);

        let d1 = nm_desc(&mut ta);
        let open = a.send_open(Medium::Audio, d1.clone()).unwrap();
        deliver(&mut b, open.clone());
        let close = a.send_close().unwrap();
        let (_, autos) = deliver(&mut b, close);
        for sig in autos {
            deliver(&mut a, sig); // closeack -> a is Closed
        }
        assert_eq!(a.state(), SlotState::Closed);
        assert_eq!(b.state(), SlotState::Closed);

        // The adversary re-delivers the duplicated open: b re-opens and
        // its application (unaware this open is stale) accepts.
        let mut tb = TagSource::new(2);
        let d2 = nm_desc(&mut tb);
        let (_, autos) = deliver(&mut b, open);
        assert!(autos.is_empty());
        assert_eq!(b.state(), SlotState::Opened);
        let [oack, select] = b.accept(d2.clone(), Selector::not_sending(d1.tag)).unwrap();
        assert_eq!(b.state(), SlotState::Flowing);

        // b's oack and select hit a's closed slot; the auto-closes they
        // provoke must bring b back down, and the closeacks are absorbed
        // silently.
        let mut queue: Vec<Signal> = vec![oack, select];
        while let Some(sig) = queue.pop() {
            let (_, back) = deliver(&mut a, sig);
            for sig in back {
                let (_, more) = deliver(&mut b, sig);
                queue.extend(more);
            }
        }
        assert_eq!(a.state(), SlotState::Closed);
        assert_eq!(b.state(), SlotState::Closed);
    }

    #[test]
    fn peer_close_resets_all_cached_state() {
        let mut a = Slot::new(true);
        let mut b = Slot::new(false);
        let mut ta = TagSource::new(1);
        let mut tb = TagSource::new(2);

        let open = a.send_open(Medium::Audio, desc(&mut ta)).unwrap();
        deliver(&mut b, open);
        let [oack, select] = b
            .accept(
                desc(&mut tb),
                Selector::not_sending(a.sent_desc().unwrap().tag),
            )
            .unwrap();
        deliver(&mut a, oack);
        deliver(&mut a, select);

        let close = b.send_close().unwrap();
        deliver(&mut a, close);
        assert_eq!(a.state(), SlotState::Closed);
        assert!(a.peer_desc().is_none());
        assert!(a.sent_desc().is_none());
        assert!(a.peer_sel().is_none());
        assert!(a.sent_sel().is_none());
        assert_eq!(a.medium(), None);
    }

    #[test]
    fn live_dead_classification() {
        assert!(SlotState::Opening.is_live());
        assert!(SlotState::Opened.is_live());
        assert!(SlotState::Flowing.is_live());
        assert!(SlotState::Closed.is_dead());
        assert!(SlotState::Closing.is_dead());
    }

    /// Drive a fresh slot into `state` (with the given initiator flag).
    fn slot_in(state: SlotState, initiator: bool) -> Slot {
        let mut s = Slot::new(initiator);
        let mut own = TagSource::new(40);
        let mut peer = TagSource::new(41);
        match state {
            SlotState::Closed => {}
            SlotState::Opening => {
                s.send_open(Medium::Audio, nm_desc(&mut own)).unwrap();
            }
            SlotState::Opened => {
                s.on_signal(Signal::Open {
                    medium: Medium::Audio,
                    desc: nm_desc(&mut peer),
                });
            }
            SlotState::Flowing => {
                let d = nm_desc(&mut peer);
                s.on_signal(Signal::Open {
                    medium: Medium::Audio,
                    desc: d.clone(),
                });
                s.accept(nm_desc(&mut own), Selector::not_sending(d.tag))
                    .unwrap();
            }
            SlotState::Closing => {
                s.send_open(Medium::Audio, nm_desc(&mut own)).unwrap();
                s.send_close().unwrap();
            }
        }
        assert_eq!(s.state(), state);
        s
    }

    #[test]
    fn send_rules_agree_with_slot_validation() {
        // SEND_RULES is the single source of truth: every send_* method
        // must accept exactly the (state, action) pairs the table lists,
        // and land in the state the table names.
        for state in SlotState::ALL {
            for action in SlotAction::ALL {
                let mut s = slot_in(state, true);
                let mut ts = TagSource::new(60);
                let expected = state.after_send(action);
                let result = match action {
                    SlotAction::Open => s.send_open(Medium::Audio, nm_desc(&mut ts)).map(|_| ()),
                    SlotAction::Accept => {
                        let answers = s.peer_desc().map_or(
                            DescTag {
                                origin: 99,
                                generation: 0,
                            },
                            |d| d.tag,
                        );
                        s.accept(nm_desc(&mut ts), Selector::not_sending(answers))
                            .map(|_| ())
                    }
                    SlotAction::Select => {
                        let answers = s.peer_desc().map_or(
                            DescTag {
                                origin: 99,
                                generation: 0,
                            },
                            |d| d.tag,
                        );
                        s.send_select(Selector::not_sending(answers)).map(|_| ())
                    }
                    SlotAction::Describe => s.send_describe(nm_desc(&mut ts)).map(|_| ()),
                    SlotAction::Close => s.send_close().map(|_| ()),
                };
                if let Some(next) = expected {
                    assert!(
                        result.is_ok(),
                        "{action:?} must be legal in {state:?}: {result:?}"
                    );
                    assert_eq!(s.state(), next, "{action:?} from {state:?}");
                } else {
                    assert_eq!(
                        result,
                        Err(ProtocolError::BadState {
                            action: action.name(),
                            state,
                        }),
                        "{action:?} must be illegal in {state:?}"
                    );
                    assert_eq!(s.state(), state, "failed send must not move the slot");
                }
            }
        }
    }

    #[test]
    fn monitor_rules_mirror_the_tables() {
        let rules = monitor_rules();
        assert_eq!(rules.send.len(), SEND_RULES.len());
        assert_eq!(rules.recv.len(), RECV_RULES.len());
        for (data, rule) in rules.send.iter().zip(SEND_RULES) {
            assert_eq!(data.state, rule.state.name());
            assert_eq!(data.action, rule.action.name());
            assert_eq!(data.next, rule.next.name());
        }
        for (data, rule) in rules.recv.iter().zip(RECV_RULES) {
            assert_eq!(data.state, rule.state.name());
            assert_eq!(data.signal, rule.signal.name());
            assert_eq!(data.next, rule.next.name());
            assert_eq!(data.auto, rule.auto.map(SignalKind::name));
        }
    }

    #[test]
    fn recv_rules_agree_with_on_signal() {
        // RECV_RULES must reproduce on_signal's state transitions and
        // automatic responses for every (state, signal, initiator) triple.
        for state in SlotState::ALL {
            for kind in crate::signal::SignalKind::ALL {
                for initiator in [false, true] {
                    let mut s = slot_in(state, initiator);
                    let mut peer = TagSource::new(70);
                    let sig = match kind {
                        crate::signal::SignalKind::Open => Signal::Open {
                            medium: Medium::Audio,
                            desc: nm_desc(&mut peer),
                        },
                        crate::signal::SignalKind::Oack => Signal::Oack {
                            desc: nm_desc(&mut peer),
                        },
                        crate::signal::SignalKind::Close => Signal::Close,
                        crate::signal::SignalKind::CloseAck => Signal::CloseAck,
                        crate::signal::SignalKind::Describe => Signal::Describe {
                            desc: nm_desc(&mut peer),
                        },
                        crate::signal::SignalKind::Select => Signal::Select {
                            sel: Selector::not_sending(peer.next()),
                        },
                    };
                    let (expected_next, expected_auto) = state.on_receive(kind, initiator);
                    let (_event, auto) = s.on_signal(sig);
                    assert_eq!(
                        s.state(),
                        expected_next,
                        "receive {kind:?} in {state:?} (initiator={initiator})"
                    );
                    let auto_kinds: Vec<_> = auto.iter().map(Signal::kind_enum).collect();
                    assert_eq!(
                        auto_kinds,
                        expected_auto.into_iter().collect::<Vec<_>>(),
                        "auto response to {kind:?} in {state:?} (initiator={initiator})"
                    );
                }
            }
        }
    }
}
