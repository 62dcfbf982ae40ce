//! Runtime invariant monitor: checks live observer-event streams against
//! the verified slot-protocol model.
//!
//! The monitor consumes the same [`ObsEvent`] stream every substrate
//! already emits and mirrors each box's slot FSMs as a *belief* state,
//! stepping it with the slot's own rule tables ([`SEND_RULES`] and
//! [`RECV_RULES`]) — the tables the implementation validates against, the
//! analyzer product-constructs with and the model checker explores. Any
//! divergence between deployed behavior and the verified model is flagged
//! with an invariant code shared with the static analyzer and the model
//! checker, so static, exhaustive, and runtime findings are diffable:
//!
//! - **IM101** — slot-protocol conformance: a send or transition with no
//!   matching rule row (and no auto-response justification).
//! - **IM102** — action on a Closed slot: the send was illegal *and* the
//!   monitor believes the slot is closed (the classic
//!   use-after-teardown bug class).
//! - **IM201** — flowlink convergence: at quiescence, a flowlink has one
//!   end flowing and the other not. The monitor learns the flowlinks from
//!   the stream itself: a flowlink goal's activation names both its slots,
//!   and a goal dropped from either slot (re-annotation, or the slot's
//!   channel torn down) ends it.
//! - **IM301** — dirty terminal: at quiescence some slot is neither
//!   closed nor flowing (the model checker's clean-terminal safety
//!   property).
//! - **IM401** — unverified model: live behavior attributed to a scenario
//!   whose content fingerprint the [`VerifiedManifest`] (written by
//!   `ipmedia-lint --emit-manifest`) does not list as verified clean —
//!   either unknown to the analyzer or finding-bearing.
//!   Always fatal: there is no recovery budget for running unverified
//!   models.
//!
//! [`ObsEvent`] carries protocol names as strings; the monitor resolves
//! them to [`SlotState`] and [`SignalKind`] once, as each event arrives.
//!
//! A belief moves only on a transition event. Every state change a box
//! makes is reported as one, before the sends it causes, so a send that
//! would move the believed state with no transition before it is `IM101`,
//! even from Closed (where the one such send, `open`, is legal): some path
//! changed the box behind the observer's back. What stays lenient, and
//! why:
//!
//! - a send is accepted if the rule it follows leaves the believed state
//!   where it is (`select`/`describe` while flowing), or if some rule's
//!   *post*-state is the believed state: the transition came first, and a
//!   retransmission re-sends from the post-state;
//! - a transition is accepted if one receive-rule step plus any send-rule
//!   steps reach it, because a box reports one diff per stimulus;
//! - an auto-response is accepted after the signal that mandates it.

use crate::signal::SignalKind;
use crate::slot::{SlotAction, SlotState, RECV_RULES, SEND_RULES};
use ipmedia_obs::ladder::{render, LadderEvent};
use ipmedia_obs::{JsonObj, ObsEvent};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Invariant code: slot-protocol conformance.
pub const IM_CONFORMANCE: &str = "IM101";
/// Invariant code: action on a Closed slot.
pub const IM_CLOSED_ACTION: &str = "IM102";
/// Invariant code: flowlink convergence at quiescence.
pub const IM_FLOWLINK: &str = "IM201";
/// Invariant code: clean terminal states at quiescence.
pub const IM_TERMINAL: &str = "IM301";
/// Invariant code: live behavior from an unverified model.
pub const IM_UNVERIFIED: &str = "IM401";

/// The protocol action a spontaneously *sent* signal corresponds to;
/// `None` for signals that only ever occur as auto-responses.
fn action_of(kind: SignalKind) -> Option<SlotAction> {
    match kind {
        SignalKind::Open => Some(SlotAction::Open),
        SignalKind::Oack => Some(SlotAction::Accept),
        SignalKind::Select => Some(SlotAction::Select),
        SignalKind::Describe => Some(SlotAction::Describe),
        SignalKind::Close => Some(SlotAction::Close),
        SignalKind::CloseAck => None,
    }
}

/// The Fig.-9 state an event names, if any.
fn state_named(name: &str) -> Option<SlotState> {
    SlotState::ALL.into_iter().find(|s| s.name() == name)
}

/// The signal class an event names, if any.
fn signal_named(name: &str) -> Option<SignalKind> {
    SignalKind::ALL.into_iter().find(|k| k.name() == name)
}

/// One detected divergence between live behavior and the verified model.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Invariant code (`IM101`, `IM102`, `IM201`, `IM301`, `IM401`).
    pub code: &'static str,
    /// Box the finding is anchored to.
    pub bx: u32,
    /// Slot of that box the finding is anchored to.
    pub slot: u16,
    /// When the finding was raised, in the event stream's microseconds.
    pub at_micros: u64,
    /// What diverged, in words.
    pub detail: String,
    /// Minimized Fig.-10-style ladder of the events leading up to the
    /// divergence, restricted to the implicated box.
    pub ladder: String,
}

/// Recovery budget for chaos runs, in ms after the last heal of a
/// schedule: how long an `IM101`, `IM201` or `IM301` finding may take to
/// clear. Generous against the reliability layer's capped backoff
/// (200 ms..3.2 s), tight against a wedged recovery. `IM102` (action on a
/// Closed slot) and `IM401` (unverified model) have no budget: they are
/// fatal whenever they fire, mid-chaos or not.
pub const RECOVERY_BUDGET_MS: u64 = 5_000;

/// The verified manifest written by `ipmedia-lint --emit-manifest`:
/// scenario content fingerprints mapped to their analysis verdict. Plain
/// text, one `<fingerprint> <clean|findings> <scenario>` line, `#`
/// comments — parseable here without any JSON machinery. Fingerprints are salted with the analyzer version, so a
/// manifest from an older analyzer simply never matches (and the model
/// counts as unverified).
#[derive(Debug, Clone, Default)]
pub struct VerifiedManifest {
    verdicts: BTreeMap<String, bool>,
}

impl VerifiedManifest {
    /// Parse manifest text; malformed lines are skipped (an unreadable
    /// entry must degrade to "unverified", never to "clean").
    pub fn parse(src: &str) -> Self {
        let mut verdicts = BTreeMap::new();
        for raw in src.lines() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(fp), Some(verdict)) = (parts.next(), parts.next()) else {
                continue;
            };
            match verdict {
                "clean" => {
                    verdicts.insert(fp.to_string(), true);
                }
                "findings" => {
                    verdicts.insert(fp.to_string(), false);
                }
                _ => {}
            }
        }
        Self { verdicts }
    }

    /// Number of fingerprints listed.
    pub fn len(&self) -> usize {
        self.verdicts.len()
    }

    /// True iff the manifest lists nothing.
    pub fn is_empty(&self) -> bool {
        self.verdicts.is_empty()
    }

    /// Verdict for a fingerprint: `Some(true)` verified clean,
    /// `Some(false)` analyzed but finding-bearing, `None` unknown.
    pub fn verdict(&self, fingerprint: &str) -> Option<bool> {
        self.verdicts.get(fingerprint).copied()
    }

    /// True iff the fingerprint is listed and verified clean.
    pub fn is_clean(&self, fingerprint: &str) -> bool {
        self.verdict(fingerprint) == Some(true)
    }
}

#[derive(Debug)]
struct SlotBelief {
    state: SlotState,
    last_received: Option<SignalKind>,
}

/// Maximum raw events retained for ladder reconstruction.
const RING_CAP: usize = 1024;
/// Maximum rows in a rendered finding ladder.
const LADDER_ROWS: usize = 40;

/// The monitor proper. Feed it timestamped [`ObsEvent`]s in causal order
/// (e.g. an [`ipmedia_obs::RecordingObserver`] log, or live at each step)
/// and call [`Monitor::check_quiescent`] whenever the system should be at
/// rest.
#[derive(Debug, Default)]
pub struct Monitor {
    names: BTreeMap<u32, String>,
    beliefs: BTreeMap<(u32, u16), SlotBelief>,
    /// The live flowlinks, as (box, slot, other slot).
    flowlinks: BTreeSet<(u32, u16, u16)>,
    ring: VecDeque<(u64, ObsEvent)>,
    findings: Vec<Finding>,
    events_seen: u64,
}

impl Monitor {
    /// A monitor that has seen nothing: every slot is believed closed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Name a box for ladder column headers (optional; unnamed boxes
    /// render as `box<N>`).
    pub fn register_box(&mut self, bx: u32, name: impl Into<String>) {
        self.names.insert(bx, name.into());
    }

    /// Every finding raised so far, in the order raised.
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// True iff nothing has been flagged.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Judge the findings against the recovery budget for a chaos run
    /// whose last heal happened at `heal_at_micros`: returns the findings
    /// that violate it. `IM102` and `IM401` are fatal wherever they fire;
    /// `IM101`/`IM201`/`IM301` findings are violations only when stamped
    /// *after* the heal plus [`RECOVERY_BUDGET_MS`] — transient divergence
    /// inside the chaos window or the budget is the fault injector working
    /// as intended.
    pub fn rto_violations(&self, heal_at_micros: u64) -> Vec<&Finding> {
        let deadline = heal_at_micros.saturating_add(RECOVERY_BUDGET_MS * 1_000);
        self.findings
            .iter()
            .filter(|f| match f.code {
                IM_CONFORMANCE | IM_FLOWLINK | IM_TERMINAL => f.at_micros > deadline,
                _ => true,
            })
            .collect()
    }

    /// Number of events ingested so far.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Ingest a whole recorded log in order.
    pub fn ingest_all(&mut self, log: &[(u64, ObsEvent)]) {
        for (at, ev) in log {
            self.ingest(*at, ev);
        }
    }

    /// Ingest one event from the live stream.
    pub fn ingest(&mut self, at: u64, ev: &ObsEvent) {
        self.events_seen += 1;
        self.ring.push_back((at, *ev));
        if self.ring.len() > RING_CAP {
            self.ring.pop_front();
        }

        match *ev {
            ObsEvent::SlotTransition {
                bx,
                slot,
                from,
                to,
                cause,
            } => self.on_transition(at, bx, slot, from, to, cause),
            ObsEvent::SignalSent { bx, slot, kind } => self.on_sent(at, bx, slot, kind),
            ObsEvent::SignalReceived { bx, slot, kind } => {
                self.belief(bx, slot).last_received = signal_named(kind);
            }
            ObsEvent::GoalActivated {
                bx,
                slot,
                peer: Some(peer),
                ..
            } => {
                self.flowlinks.insert((bx, slot, peer));
            }
            ObsEvent::GoalDropped { bx, slot, .. } => {
                self.flowlinks
                    .retain(|&(b, x, y)| b != bx || (x != slot && y != slot));
            }
            _ => {}
        }
    }

    fn belief(&mut self, bx: u32, slot: u16) -> &mut SlotBelief {
        self.beliefs
            .entry((bx, slot))
            .or_insert_with(|| SlotBelief {
                state: SlotState::Closed,
                last_received: None,
            })
    }

    /// Whether `from -> to` is a legal per-stimulus step. Transitions are
    /// reported as a diff over a whole stimulus, so one event can coalesce
    /// several rule applications — but with the shape of a stimulus: at
    /// most one receive-rule step (the incoming signal) followed by any
    /// number of send-rule steps (the goal's reaction), or send-rule steps
    /// alone (a user/goal stimulus). Full graph reachability would be
    /// vacuous here (the protocol FSM is cyclic); the stimulus shape keeps
    /// the check discriminating — e.g. `flowing -> opened` stays illegal.
    /// The receive rules' initiator restriction is not applied: the
    /// monitor does not track initiator flags and accepts either outcome
    /// of an open/open race.
    fn reachable(from: SlotState, to: SlotState) -> bool {
        let mut starts = vec![from];
        starts.extend(
            RECV_RULES
                .iter()
                .filter(|r| r.state == from)
                .map(|r| r.next),
        );
        for s0 in starts {
            let mut seen = vec![s0];
            let mut frontier = vec![s0];
            while let Some(s) = frontier.pop() {
                if s == to {
                    return true;
                }
                for next in SEND_RULES.iter().filter(|r| r.state == s).map(|r| r.next) {
                    if !seen.contains(&next) {
                        seen.push(next);
                        frontier.push(next);
                    }
                }
            }
        }
        false
    }

    fn on_transition(
        &mut self,
        at: u64,
        bx: u32,
        slot: u16,
        from: &'static str,
        to: &'static str,
        cause: &'static str,
    ) {
        // A transition naming no Fig.-9 state leaves the belief as it was.
        let step = state_named(from).zip(state_named(to));
        if !step.is_some_and(|(f, t)| f == t || Self::reachable(f, t)) {
            self.flag(
                IM_CONFORMANCE,
                bx,
                slot,
                at,
                format!("transition {from}->{to} (cause: {cause}) matches no protocol rule"),
            );
        }
        if let Some((_, to)) = step {
            self.belief(bx, slot).state = to;
        }
    }

    fn on_sent(&mut self, at: u64, bx: u32, slot: u16, kind: &'static str) {
        let (state, last_received) = {
            let b = self.belief(bx, slot);
            (b.state, b.last_received)
        };
        let illegal = if state == SlotState::Closed {
            IM_CLOSED_ACTION
        } else {
            IM_CONFORMANCE
        };
        let signal = signal_named(kind);

        // Auto-responses (closeack always; defensive close from Closed)
        // are justified by the last received signal, not by a send rule.
        let auto_ok = signal.is_some_and(|k| {
            RECV_RULES
                .iter()
                .any(|r| r.auto == Some(k) && r.next == state && last_received == Some(r.signal))
        });
        if auto_ok {
            return;
        }

        let Some(action) = signal.and_then(action_of) else {
            self.flag(
                illegal,
                bx,
                slot,
                at,
                format!(
                    "sent {kind} in believed state {} with no auto-response rule",
                    state.name()
                ),
            );
            return;
        };

        // Pre-state view, for the rules that leave the state as it is.
        let next = state.after_send(action);
        if next == Some(state) {
            return;
        }
        // Post-state view: the box reports the transition first, so by
        // the time we see the send the belief is already the rule's `next`
        // state. Also covers retransmissions, which re-send from the
        // post-state.
        if SEND_RULES
            .iter()
            .any(|r| r.next == state && r.action == action)
        {
            return;
        }
        let (action, state) = (action.name(), state.name());
        let (code, detail) = match next {
            // A rule would move the belief, but no transition was
            // reported: the box changed behind the observer's back.
            Some(next) => (
                IM_CONFORMANCE,
                format!(
                    "sent {kind} ({action}) in believed state {state}, which moves it to {}, \
                     with no transition reported",
                    next.name()
                ),
            ),
            None => (
                illegal,
                format!("sent {kind} ({action}) illegal in believed state {state}"),
            ),
        };
        self.flag(code, bx, slot, at, detail);
    }

    fn state_of(&self, key: (u32, u16)) -> SlotState {
        self.beliefs
            .get(&key)
            .map_or(SlotState::Closed, |b| b.state)
    }

    /// Check quiescence invariants: call when the system should be at
    /// rest (virtual-time drain, end of scenario). Flags IM201 for
    /// unconverged live flowlinks and IM301 for slots stuck in a
    /// transient state.
    pub fn check_quiescent(&mut self, at: u64) {
        let links = self.flowlinks.clone();
        for (bx, a, b) in links {
            let (a, b) = ((bx, a), (bx, b));
            let (sa, sb) = (self.state_of(a), self.state_of(b));
            let converged = sa == sb && matches!(sa, SlotState::Flowing | SlotState::Closed);
            if !converged {
                self.flag(
                    IM_FLOWLINK,
                    a.0,
                    a.1,
                    at,
                    format!(
                        "flowlink unconverged at quiescence: box{} s{} is {}, box{} s{} is {}",
                        a.0,
                        a.1,
                        sa.name(),
                        b.0,
                        b.1,
                        sb.name()
                    ),
                );
            }
        }
        let stuck: Vec<((u32, u16), SlotState)> = self
            .beliefs
            .iter()
            .filter(|(_, b)| !matches!(b.state, SlotState::Closed | SlotState::Flowing))
            .map(|(k, b)| (*k, b.state))
            .collect();
        for ((bx, slot), state) in stuck {
            self.flag(
                IM_TERMINAL,
                bx,
                slot,
                at,
                format!("slot in transient state {} at quiescence", state.name()),
            );
        }
    }

    /// Flag a live event stream attributed to a model the verified
    /// manifest does not list as clean (IM401). `verdict` is the
    /// manifest's answer for the scenario's fingerprint; call this once
    /// per scenario whenever it is not `Some(true)`. The ladder anchors
    /// to `(bx, slot)` — typically the first box the scenario drove.
    pub fn flag_unverified(
        &mut self,
        bx: u32,
        slot: u16,
        at: u64,
        scenario: &str,
        fingerprint: &str,
        verdict: Option<bool>,
    ) {
        let why = match verdict {
            Some(false) => "analyzed with findings, not clean",
            _ => "fingerprint not in the verified manifest",
        };
        self.flag(
            IM_UNVERIFIED,
            bx,
            slot,
            at,
            format!(
                "live ladder from unverified model `{scenario}` (fingerprint {fingerprint}): {why}"
            ),
        );
    }

    fn flag(&mut self, code: &'static str, bx: u32, slot: u16, at: u64, detail: String) {
        let ladder = self.minimized_ladder(bx);
        self.findings.push(Finding {
            code,
            bx,
            slot,
            at_micros: at,
            detail,
            ladder,
        });
    }

    /// The last [`LADDER_ROWS`] events at box `bx`, one column. A
    /// flowlink's two slots are both in it: a flowlink lives in one box.
    fn minimized_ladder(&self, bx: u32) -> String {
        let mut rows: Vec<LadderEvent> = Vec::new();
        for (at, ev) in self.ring.iter().filter(|(_, ev)| ev.bx() == bx) {
            let label = match *ev {
                ObsEvent::SignalSent { slot, kind, .. } => format!("!{kind} s{slot}"),
                ObsEvent::SignalReceived { slot, kind, .. } => format!("?{kind} s{slot}"),
                ObsEvent::SlotTransition { slot, from, to, .. } => format!("s{slot} {from}->{to}"),
                ObsEvent::SignalIgnored { slot, reason, .. } => {
                    format!("s{slot} ignored: {reason}")
                }
                ObsEvent::RaceResolved { slot, won, .. } => {
                    format!("s{slot} race {}", if won { "won" } else { "lost" })
                }
                ObsEvent::Retransmission { slot, kind, .. } => format!("s{slot} resend {kind}"),
                _ => continue,
            };
            rows.push(LadderEvent::local(*at, 0, label));
        }
        if rows.len() > LADDER_ROWS {
            rows.drain(..rows.len() - LADDER_ROWS);
        }

        let name = self.names.get(&bx).cloned();
        render(&[&name.unwrap_or_else(|| format!("box{bx}"))], &rows)
    }
}

/// One finding as a JSONL record (for `ipmedia-monitor` output).
pub fn finding_json(f: &Finding) -> String {
    JsonObj::new()
        .str("record", "monitor_finding")
        .str("invariant_code", f.code)
        .num("box", u64::from(f.bx))
        .num("slot", u64::from(f.slot))
        .num("at_micros", f.at_micros)
        .str("detail", &f.detail)
        .str("ladder", &f.ladder)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Medium;
    use crate::descriptor::{DescTag, Descriptor, Selector, TagSource};
    use crate::signal::Signal;
    use crate::slot::Slot;

    fn sent(bx: u32, slot: u16, kind: &'static str) -> ObsEvent {
        ObsEvent::SignalSent { bx, slot, kind }
    }

    fn recv(bx: u32, slot: u16, kind: &'static str) -> ObsEvent {
        ObsEvent::SignalReceived { bx, slot, kind }
    }

    fn trans(
        bx: u32,
        slot: u16,
        from: &'static str,
        to: &'static str,
        cause: &'static str,
    ) -> ObsEvent {
        ObsEvent::SlotTransition {
            bx,
            slot,
            from,
            to,
            cause,
        }
    }

    /// A flowlink goal taking `(bx, a)` and `(bx, b)`.
    fn linked(bx: u32, a: u16, b: u16) -> ObsEvent {
        ObsEvent::GoalActivated {
            bx,
            slot: a,
            kind: "flowLink",
            peer: Some(b),
        }
    }

    #[test]
    fn clean_call_setup_and_teardown_pass() {
        let mut m = Monitor::new();
        // Instrumented order: transition first, then the send it causes.
        let log = vec![
            (0, trans(0, 0, "closed", "opening", "goal")),
            (0, sent(0, 0, "open")),
            (54_000, recv(1, 0, "open")),
            (54_000, trans(1, 0, "closed", "opened", "open")),
            (54_020, trans(1, 0, "opened", "flowing", "goal")),
            (54_020, sent(1, 0, "oack")),
            (108_020, recv(0, 0, "oack")),
            (108_020, trans(0, 0, "opening", "flowing", "oack")),
        ];
        m.ingest_all(&log);
        m.check_quiescent(200_000);
        assert!(m.is_clean(), "unexpected findings: {:?}", m.findings());

        // Teardown.
        m.ingest(300_000, &trans(0, 0, "flowing", "closing", "user"));
        m.ingest(300_000, &sent(0, 0, "close"));
        m.ingest(354_000, &recv(1, 0, "close"));
        m.ingest(354_000, &trans(1, 0, "flowing", "closed", "close"));
        m.ingest(354_000, &sent(1, 0, "closeack")); // auto-response
        m.ingest(408_000, &recv(0, 0, "closeack"));
        m.ingest(408_000, &trans(0, 0, "closing", "closed", "closeack"));
        m.check_quiescent(500_000);
        assert!(m.is_clean(), "unexpected findings: {:?}", m.findings());
    }

    #[test]
    fn a_send_that_moves_the_belief_unreported_is_im101() {
        // A box changed without an observer sends `open` with no
        // `closed -> opening` before it: the belief does not follow.
        let mut m = Monitor::new();
        m.ingest(0, &sent(0, 0, "open"));
        assert_eq!(m.findings().len(), 1, "{:?}", m.findings());
        assert_eq!(m.findings()[0].code, IM_CONFORMANCE);
        assert!(m.findings()[0].detail.contains("no transition reported"));
        assert_eq!(m.state_of((0, 0)), SlotState::Closed);
        // A send that leaves the believed state as it is still passes.
        m.ingest(1, &trans(0, 1, "closed", "flowing", "open"));
        m.ingest(2, &sent(0, 1, "select"));
        assert_eq!(m.findings().len(), 1, "{:?}", m.findings());
    }

    #[test]
    fn flowlinks_are_learned_from_goal_events() {
        let mut m = Monitor::new();
        for (bx, a, b) in [(1, 0, 1), (1, 2, 3), (2, 0, 1)] {
            m.ingest(0, &linked(bx, a, b));
        }
        // A one-slot goal names no peer and is no flowlink.
        let hold = ObsEvent::GoalActivated {
            bx: 1,
            slot: 4,
            kind: "holdSlot",
            peer: None,
        };
        m.ingest(1, &hold);
        assert_eq!(m.flowlinks.len(), 3);
        // A goal dropped from either slot ends the flowlink, at that box.
        for (bx, slot) in [(1, 1), (2, 0)] {
            let kind = "flowLink";
            m.ingest(2, &ObsEvent::GoalDropped { bx, slot, kind });
        }
        assert_eq!(m.flowlinks.iter().collect::<Vec<_>>(), [&(1, 2, 3)]);
    }

    #[test]
    fn action_on_closed_slot_is_im102_with_ladder() {
        let mut m = Monitor::new();
        m.register_box(0, "end-l");
        m.ingest(0, &sent(0, 7, "select"));
        assert_eq!(m.findings().len(), 1);
        let f = &m.findings()[0];
        assert_eq!(f.code, IM_CLOSED_ACTION);
        assert_eq!((f.bx, f.slot), (0, 7));
        assert!(f.detail.contains("select"));
        assert!(f.ladder.contains("end-l"));
        assert!(f.ladder.contains("!select s7"));
    }

    #[test]
    fn illegal_send_in_open_state_is_im101() {
        let mut m = Monitor::new();
        m.ingest(0, &trans(0, 0, "closed", "opening", "goal"));
        m.ingest(0, &sent(0, 0, "open"));
        // describe is never legal in opening (pre- or post-state).
        m.ingest(5, &sent(0, 0, "describe"));
        assert_eq!(m.findings().len(), 1);
        assert_eq!(m.findings()[0].code, IM_CONFORMANCE);
    }

    #[test]
    fn impossible_transition_is_im101() {
        let mut m = Monitor::new();
        // No stimulus (one recv step + send steps) leads from flowing
        // back to opened.
        m.ingest(0, &trans(0, 0, "flowing", "opened", "goal"));
        assert_eq!(m.findings().len(), 1);
        assert_eq!(m.findings()[0].code, IM_CONFORMANCE);
    }

    #[test]
    fn coalesced_stimulus_transition_is_legal() {
        // A received open that is auto-accepted within the same stimulus
        // is reported as one closed->flowing diff; the monitor must
        // recognize the per-stimulus compound (recv open, send oack).
        let mut m = Monitor::new();
        m.ingest(0, &recv(1, 0, "open"));
        m.ingest(0, &trans(1, 0, "closed", "flowing", "open"));
        m.ingest(0, &sent(1, 0, "oack"));
        assert!(m.is_clean(), "findings: {:?}", m.findings());
    }

    #[test]
    fn unconverged_flowlink_is_im201() {
        // Box 1 links its slots 0 and 1; an open arrives on slot 0 and is
        // forwarded on slot 1, whose oack never comes back.
        let mut m = Monitor::new();
        m.ingest(0, &linked(1, 0, 1));
        m.ingest(10, &recv(1, 0, "open"));
        m.ingest(10, &trans(1, 0, "closed", "opened", "open"));
        m.ingest(10, &trans(1, 1, "closed", "opening", "open"));
        m.ingest(10, &sent(1, 1, "open"));
        m.check_quiescent(1_000_000);
        let f = m.findings().iter().find(|f| f.code == IM_FLOWLINK);
        let f = f.expect("IM201");
        assert_eq!((f.bx, f.slot), (1, 0));
        assert!(f.detail.contains("box1 s1 is opening"), "{}", f.detail);
        let codes: Vec<&str> = m.findings().iter().map(|f| f.code).collect();
        assert!(codes.contains(&IM_TERMINAL), "findings: {codes:?}");
    }

    #[test]
    fn defensive_close_from_closed_is_legal() {
        let mut m = Monitor::new();
        // A stale select arrives on a closed slot; the box answers with
        // a defensive close (auto-response), which must not be flagged.
        m.ingest(0, &recv(0, 3, "select"));
        m.ingest(0, &sent(0, 3, "close"));
        assert!(m.is_clean(), "unexpected findings: {:?}", m.findings());
    }

    #[test]
    fn finding_json_carries_code_and_ladder() {
        let mut m = Monitor::new();
        m.ingest(42, &sent(2, 1, "oack"));
        let json = finding_json(&m.findings()[0]);
        assert!(json.contains("\"invariant_code\":\"IM102\""));
        assert!(json.contains("\"box\":2"));
        assert!(json.contains("\"at_micros\":42"));
        assert!(json.contains("\"ladder\":\""));
    }

    #[test]
    fn rto_forgives_findings_inside_the_budget() {
        let mut m = Monitor::new();
        m.ingest(0, &linked(0, 0, 1));
        m.ingest(0, &trans(0, 0, "closed", "opening", "goal"));
        m.ingest(0, &sent(0, 0, "open"));
        // Quiescence checked 2 s after the heal: inside the 5 s budget,
        // so the IM201/IM301 findings are transient, not violations.
        let heal = 10_000_000u64;
        m.check_quiescent(heal + 2_000_000);
        assert!(!m.findings().is_empty());
        assert!(m.rto_violations(heal).is_empty());
    }

    #[test]
    fn a_heal_at_the_end_of_time_forgives_without_overflow() {
        let mut m = Monitor::new();
        m.ingest(0, &linked(0, 0, 1));
        m.ingest(0, &trans(0, 0, "closed", "opening", "goal"));
        m.ingest(0, &sent(0, 0, "open"));
        m.check_quiescent(1_000_000);
        assert!(m.findings().iter().any(|f| f.code == IM_FLOWLINK));
        // The deadline saturates instead of wrapping: the IM201 finding
        // lies inside the budget and is forgiven.
        assert!(m.rto_violations(u64::MAX - 1).is_empty());
    }

    #[test]
    fn rto_flags_findings_past_the_budget() {
        let mut m = Monitor::new();
        m.ingest(0, &linked(0, 0, 1));
        m.ingest(0, &trans(0, 0, "closed", "opening", "goal"));
        m.ingest(0, &sent(0, 0, "open"));
        let heal = 10_000_000u64;
        m.check_quiescent(heal + 6_000_000); // past the 5 s budget
        let v = m.rto_violations(heal);
        assert!(v.iter().any(|f| f.code == IM_FLOWLINK));
        assert!(v.iter().any(|f| f.code == IM_TERMINAL));
    }

    #[test]
    fn verified_manifest_parses_verdicts_and_skips_garbage() {
        let m = VerifiedManifest::parse(
            "# header comment\n\
             00ff00ff00ff00ff clean quickstart\n\
             1122334455667788 findings relay_chain # known-dirty\n\
             not-a-valid-line\n\
             deadbeefdeadbeef bogus-verdict x\n",
        );
        assert_eq!(m.len(), 2);
        assert!(m.is_clean("00ff00ff00ff00ff"));
        assert_eq!(m.verdict("1122334455667788"), Some(false));
        assert_eq!(m.verdict("deadbeefdeadbeef"), None);
        assert!(!m.is_clean("ffffffffffffffff"));
    }

    #[test]
    fn unverified_model_is_im401_and_never_forgiven() {
        let mut m = Monitor::new();
        m.register_box(0, "end-l");
        m.ingest(0, &trans(0, 0, "closed", "opening", "user"));
        m.ingest(0, &sent(0, 0, "open"));
        let manifest = VerifiedManifest::parse("1111111111111111 clean other\n");
        let fp = "2222222222222222";
        assert!(!manifest.is_clean(fp));
        m.flag_unverified(0, 0, 5, "rogue", fp, manifest.verdict(fp));
        let f = m
            .findings()
            .iter()
            .find(|f| f.code == IM_UNVERIFIED)
            .expect("IM401 finding");
        assert!(f.detail.contains("rogue"), "{}", f.detail);
        assert!(f.detail.contains(fp), "{}", f.detail);
        assert!(f.ladder.contains("end-l"), "{}", f.ladder);
        // No recovery budget: IM401 is a violation whenever it fires.
        assert!(m
            .rto_violations(u64::MAX - 1)
            .iter()
            .any(|f| f.code == IM_UNVERIFIED));
    }

    #[test]
    fn findings_bearing_verdict_says_so_in_the_detail() {
        let mut m = Monitor::new();
        m.flag_unverified(0, 0, 5, "dirty", "aaaaaaaaaaaaaaaa", Some(false));
        assert!(m.findings()[0].detail.contains("analyzed with findings"));
    }

    #[test]
    fn rto_never_forgives_im102() {
        let mut m = Monitor::new();
        // An action on a Closed slot at t=42us, long before any heal.
        m.ingest(42, &sent(2, 1, "oack"));
        let v = m.rto_violations(10_000_000);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, IM_CLOSED_ACTION);
    }

    #[test]
    fn names_outside_the_protocol_are_flagged_without_panicking() {
        let mut m = Monitor::new();
        m.ingest(0, &sent(0, 0, "bogus"));
        m.ingest(1, &trans(0, 1, "closed", "opening", "goal"));
        m.ingest(2, &sent(0, 1, "bogus"));
        m.ingest(3, &trans(0, 1, "opening", "limbo", "goal"));
        let codes: Vec<&str> = m.findings().iter().map(|f| f.code).collect();
        assert_eq!(codes, [IM_CLOSED_ACTION, IM_CONFORMANCE, IM_CONFORMANCE]);
        // The unnamed state left the belief where it was.
        assert_eq!(m.state_of((0, 1)), SlotState::Opening);
        // An unknown received signal justifies no auto-response.
        m.ingest(4, &recv(0, 2, "close"));
        m.ingest(5, &recv(0, 2, "bogus"));
        m.ingest(6, &sent(0, 2, "closeack"));
        assert_eq!(m.findings().len(), 4);
    }

    /// A monitor that believes slot `(0, 0)` is in `state`.
    fn believing(state: SlotState) -> Monitor {
        let mut m = Monitor::new();
        m.belief(0, 0).state = state;
        m
    }

    /// A real slot driven into `state` through its public API.
    fn slot_in(state: SlotState, initiator: bool) -> Slot {
        let mut slot = Slot::new(initiator);
        let mut own = TagSource::new(1);
        let peer = Descriptor::no_media(TagSource::new(2).next());
        let peer_open = Signal::Open {
            medium: Medium::Audio,
            desc: peer.clone(),
        };
        match state {
            SlotState::Closed => {}
            SlotState::Opening => {
                slot.send_open(Medium::Audio, Descriptor::no_media(own.next()))
                    .unwrap();
            }
            SlotState::Opened => {
                slot.on_signal(peer_open);
            }
            SlotState::Flowing => {
                slot.on_signal(peer_open);
                slot.accept(
                    Descriptor::no_media(own.next()),
                    Selector::not_sending(peer.tag),
                )
                .unwrap();
            }
            SlotState::Closing => {
                slot.send_open(Medium::Audio, Descriptor::no_media(own.next()))
                    .unwrap();
                slot.send_close().unwrap();
            }
        }
        assert_eq!(slot.state(), state);
        slot
    }

    /// What `slot` puts on the wire for `action`, or `None` if it refuses.
    fn try_send(slot: &mut Slot, action: SlotAction) -> Option<Vec<Signal>> {
        let desc = Descriptor::no_media(TagSource::new(3).next());
        let answers = slot.peer_desc().map_or(
            DescTag {
                origin: 99,
                generation: 0,
            },
            |d| d.tag,
        );
        let sel = Selector::not_sending(answers);
        match action {
            SlotAction::Open => slot.send_open(Medium::Audio, desc).map(|s| vec![s]),
            SlotAction::Accept => slot.accept(desc, sel).map(Vec::from),
            SlotAction::Select => slot.send_select(sel).map(|s| vec![s]),
            SlotAction::Describe => slot.send_describe(desc).map(|s| vec![s]),
            SlotAction::Close => slot.send_close().map(|s| vec![s]),
        }
        .ok()
    }

    /// A signal of class `kind` as a peer would send it.
    fn incoming(kind: SignalKind) -> Signal {
        let desc = Descriptor::no_media(TagSource::new(4).next());
        match kind {
            SignalKind::Open => Signal::Open {
                medium: Medium::Audio,
                desc,
            },
            SignalKind::Oack => Signal::Oack { desc },
            SignalKind::Close => Signal::Close,
            SignalKind::CloseAck => Signal::CloseAck,
            SignalKind::Describe => Signal::Describe { desc },
            SignalKind::Select => Signal::Select {
                sel: Selector::not_sending(desc.tag),
            },
        }
    }

    #[test]
    fn every_send_a_real_slot_makes_is_accepted() {
        let (mut sends, mut autos) = (0, 0);
        for initiator in [false, true] {
            for state in SlotState::ALL {
                // Whatever the slot lets a goal send, the monitor accepts.
                for action in SlotAction::ALL {
                    let mut slot = slot_in(state, initiator);
                    let Some(signals) = try_send(&mut slot, action) else {
                        continue;
                    };
                    // The box layer reports the transition before the
                    // signals it causes.
                    let mut m = believing(state);
                    if slot.state() != state {
                        m.ingest(0, &trans(0, 0, state.name(), slot.state().name(), "goal"));
                    }
                    for sig in &signals {
                        m.ingest(0, &sent(0, 0, sig.kind_enum().name()));
                    }
                    assert!(
                        m.is_clean(),
                        "{action:?} in {state:?} (initiator={initiator}): {:?}",
                        m.findings()
                    );
                    sends += 1;
                }
                // Whatever the slot answers on its own, the monitor
                // accepts after the receipt and the transition it causes,
                // in the order the box layer reports them.
                for kind in SignalKind::ALL {
                    let mut slot = slot_in(state, initiator);
                    let (_, auto) = slot.on_signal(incoming(kind));
                    if auto.is_empty() {
                        continue;
                    }
                    let mut m = believing(state);
                    m.ingest(0, &recv(0, 0, kind.name()));
                    m.ingest(0, &trans(0, 0, state.name(), slot.state().name(), "recv"));
                    for sig in &auto {
                        m.ingest(0, &sent(0, 0, sig.kind_enum().name()));
                    }
                    assert!(
                        m.is_clean(),
                        "auto-response to {kind:?} in {state:?} (initiator={initiator}): {:?}",
                        m.findings()
                    );
                    autos += 1;
                }
            }
        }
        assert_eq!(sends, 2 * SEND_RULES.len());
        let auto_rows = RECV_RULES.iter().filter(|r| r.auto.is_some()).count();
        assert_eq!(autos, 2 * auto_rows);
    }
}
