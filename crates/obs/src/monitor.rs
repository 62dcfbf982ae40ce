//! Runtime invariant monitor: checks live observer-event streams against
//! the verified slot-protocol model.
//!
//! The monitor consumes the same [`crate::ObsEvent`] stream every
//! substrate already emits and mirrors each box's slot FSMs as a *belief*
//! state, validating sends and transitions against the rule tables that
//! `ipmedia-core` exports from its single source of truth
//! (`SEND_RULES`/`RECV_RULES`). Any divergence between deployed behavior
//! and the verified model is flagged with an invariant code shared with
//! the static analyzer and the model checker, so static, exhaustive, and
//! runtime findings are diffable:
//!
//! - **IM101** — slot-protocol conformance: a send or transition with no
//!   matching rule row (and no auto-response justification).
//! - **IM102** — action on a Closed slot: the send was illegal *and* the
//!   monitor believes the slot is closed (the classic
//!   use-after-teardown bug class).
//! - **IM201** — flowlink convergence: at quiescence, a watched flowlink
//!   has one end flowing and the other not.
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
//! Because observation can begin mid-call and some harness paths mutate
//! boxes without an observer attached (e.g. `apply`-injected goals), the
//! monitor is deliberately *belief-updating* rather than strict: a send
//! is accepted if it is consistent with the believed pre-state, with the
//! believed post-state (transition events arrive before the sends they
//! cause), or as a protocol-mandated auto-response to the last received
//! signal. Only sends that no rule can explain are flagged — that is
//! exactly the divergence class the model checker proves absent.

use crate::ladder::{render, LadderEvent};
use crate::ObsEvent;
use std::collections::{BTreeMap, VecDeque};

/// Invariant codes, shared across `obs::monitor`, `mck`, and docs.
pub const IM_CONFORMANCE: &str = "IM101";
pub const IM_CLOSED_ACTION: &str = "IM102";
pub const IM_FLOWLINK: &str = "IM201";
pub const IM_TERMINAL: &str = "IM301";
pub const IM_UNVERIFIED: &str = "IM401";

/// One send-rule row: in `state`, `action` is legal and moves to `next`.
/// All fields are state/action names (`SlotState::name()` spelling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendRuleData {
    pub state: &'static str,
    pub action: &'static str,
    pub next: &'static str,
}

/// One receive-rule row: in `state`, receiving `signal` moves to `next`,
/// optionally emitting the `auto` response signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvRuleData {
    pub state: &'static str,
    pub signal: &'static str,
    pub next: &'static str,
    pub auto: Option<&'static str>,
}

/// The slot-protocol rule tables in plain data, exported by
/// `ipmedia-core` (`slot::monitor_rules()`) from the same consts the
/// implementation, the analyzer, and the model checker execute.
#[derive(Debug, Clone, Default)]
pub struct MonitorRules {
    pub send: Vec<SendRuleData>,
    pub recv: Vec<RecvRuleData>,
}

/// The protocol action a spontaneously *sent* signal corresponds to;
/// `None` for signals that only ever occur as auto-responses.
fn action_for_signal(kind: &str) -> Option<&'static str> {
    match kind {
        "open" => Some("open"),
        "oack" => Some("accept"),
        "select" => Some("select"),
        "describe" => Some("describe"),
        "close" => Some("close"),
        _ => None,
    }
}

/// One detected divergence between live behavior and the verified model.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Invariant code (`IM101`, `IM102`, `IM201`, `IM301`).
    pub code: &'static str,
    pub bx: u32,
    pub slot: u16,
    pub at_micros: u64,
    pub detail: String,
    /// Minimized Fig.-10-style ladder of the events leading up to the
    /// divergence, restricted to the implicated box/slot (and flowlink
    /// peer, for convergence findings).
    pub ladder: String,
}

/// Per-invariant recovery-time objectives for chaos runs: after the last
/// heal of a schedule, how long each invariant class may take to be
/// restored. `IM102` (action on a Closed slot) has no budget — it is a
/// safety violation and fatal whenever it fires, mid-chaos or not.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryObjectives {
    /// Budget (ms after last heal) for `IM101` conformance findings.
    pub conformance_ms: u64,
    /// Budget (ms after last heal) for `IM201` flowlink convergence.
    pub flowlink_ms: u64,
    /// Budget (ms after last heal) for `IM301` clean terminal states.
    pub terminal_ms: u64,
}

impl Default for RecoveryObjectives {
    /// 5 s per class: generous against the reliability layer's capped
    /// backoff (200 ms..3.2 s), tight against a wedged recovery.
    fn default() -> Self {
        RecoveryObjectives {
            conformance_ms: 5_000,
            flowlink_ms: 5_000,
            terminal_ms: 5_000,
        }
    }
}

impl RecoveryObjectives {
    /// The budget for a finding code; `None` means no budget (always
    /// fatal).
    fn budget_ms(&self, code: &str) -> Option<u64> {
        match code {
            IM_CONFORMANCE => Some(self.conformance_ms),
            IM_FLOWLINK => Some(self.flowlink_ms),
            IM_TERMINAL => Some(self.terminal_ms),
            _ => None,
        }
    }
}

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

#[derive(Debug, Default)]
struct SlotBelief {
    state: &'static str,
    last_received: Option<&'static str>,
}

/// Maximum raw events retained for ladder reconstruction.
const RING_CAP: usize = 1024;
/// Maximum rows in a rendered finding ladder.
const LADDER_ROWS: usize = 40;

/// The monitor proper. Feed it timestamped [`ObsEvent`]s in causal order
/// (e.g. a [`crate::RecordingObserver`] log, or live at each step) and
/// call [`Monitor::check_quiescent`] whenever the system should be at
/// rest.
#[derive(Debug)]
pub struct Monitor {
    rules: MonitorRules,
    names: BTreeMap<u32, String>,
    beliefs: BTreeMap<(u32, u16), SlotBelief>,
    flowlinks: Vec<((u32, u16), (u32, u16))>,
    ring: VecDeque<(u64, ObsEvent)>,
    findings: Vec<Finding>,
    events_seen: u64,
}

impl Monitor {
    pub fn new(rules: MonitorRules) -> Self {
        Monitor {
            rules,
            names: BTreeMap::new(),
            beliefs: BTreeMap::new(),
            flowlinks: Vec::new(),
            ring: VecDeque::new(),
            findings: Vec::new(),
            events_seen: 0,
        }
    }

    /// Name a box for ladder column headers (optional; unnamed boxes
    /// render as `box<N>`).
    pub fn register_box(&mut self, bx: u32, name: impl Into<String>) {
        self.names.insert(bx, name.into());
    }

    /// Declare a flowlink whose two member slots must converge: at
    /// quiescence both flowing, or both torn down.
    pub fn watch_flowlink(&mut self, a: (u32, u16), b: (u32, u16)) {
        self.flowlinks.push((a, b));
    }

    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Judge the findings against per-invariant recovery-time objectives
    /// for a chaos run whose last heal happened at `heal_at_micros`:
    /// returns the findings that violate their objective. `IM102` is
    /// fatal wherever it fires; `IM101`/`IM201`/`IM301` findings are
    /// violations only when stamped *after* the heal plus their budget —
    /// transient divergence inside the chaos window or the recovery
    /// budget is the fault injector working as intended.
    pub fn rto_violations(&self, heal_at_micros: u64, rto: &RecoveryObjectives) -> Vec<&Finding> {
        self.findings
            .iter()
            .filter(|f| match rto.budget_ms(f.code) {
                None => true,
                Some(ms) => f.at_micros > heal_at_micros + ms * 1_000,
            })
            .collect()
    }

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
        self.ring.push_back((at, ev.clone()));
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
                self.belief(bx, slot).last_received = Some(kind);
            }
            _ => {}
        }
    }

    fn belief(&mut self, bx: u32, slot: u16) -> &mut SlotBelief {
        self.beliefs
            .entry((bx, slot))
            .or_insert_with(|| SlotBelief {
                state: "closed",
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
    fn reachable(&self, from: &'static str, to: &'static str) -> bool {
        let mut starts = vec![from];
        starts.extend(
            self.rules
                .recv
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
                for r in self.rules.send.iter().filter(|r| r.state == s) {
                    if !seen.contains(&r.next) {
                        seen.push(r.next);
                        frontier.push(r.next);
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
        let legal = from == to || self.reachable(from, to);
        if !legal {
            self.flag(
                IM_CONFORMANCE,
                bx,
                slot,
                at,
                format!("transition {from}->{to} (cause: {cause}) matches no protocol rule"),
            );
        }
        self.belief(bx, slot).state = to;
    }

    fn on_sent(&mut self, at: u64, bx: u32, slot: u16, kind: &'static str) {
        let (state, last_received) = {
            let b = self.belief(bx, slot);
            (b.state, b.last_received)
        };

        // Auto-responses (closeack always; defensive close from Closed)
        // are justified by the last received signal, not by a send rule.
        let auto_ok =
            self.rules.recv.iter().any(|r| {
                r.auto == Some(kind) && r.next == state && last_received == Some(r.signal)
            });
        if auto_ok {
            return;
        }

        let Some(action) = action_for_signal(kind) else {
            self.flag(
                if state == "closed" {
                    IM_CLOSED_ACTION
                } else {
                    IM_CONFORMANCE
                },
                bx,
                slot,
                at,
                format!("sent {kind} in believed state {state} with no auto-response rule"),
            );
            return;
        };

        // Pre-state view: the send itself drives the FSM (covers boxes
        // mutated without an attached observer, where no transition event
        // preceded the send).
        if let Some(r) = self
            .rules
            .send
            .iter()
            .find(|r| r.state == state && r.action == action)
        {
            self.belief(bx, slot).state = r.next;
            return;
        }
        // Post-state view: the instrumented path emits the transition
        // first, so by the time we see the send the belief is already the
        // rule's `next` state. Also covers retransmissions, which re-send
        // from the post-state.
        if self
            .rules
            .send
            .iter()
            .any(|r| r.next == state && r.action == action)
        {
            return;
        }

        self.flag(
            if state == "closed" {
                IM_CLOSED_ACTION
            } else {
                IM_CONFORMANCE
            },
            bx,
            slot,
            at,
            format!("sent {kind} ({action}) illegal in believed state {state}"),
        );
    }

    fn state_of(&self, key: (u32, u16)) -> &'static str {
        self.beliefs.get(&key).map(|b| b.state).unwrap_or("closed")
    }

    /// Check quiescence invariants: call when the system should be at
    /// rest (virtual-time drain, end of scenario). Flags IM201 for
    /// unconverged watched flowlinks and IM301 for slots stuck in a
    /// transient state.
    pub fn check_quiescent(&mut self, at: u64) {
        let links = self.flowlinks.clone();
        for (a, b) in links {
            let (sa, sb) = (self.state_of(a), self.state_of(b));
            let both_flowing = sa == "flowing" && sb == "flowing";
            let both_down = sa == "closed" && sb == "closed";
            if !(both_flowing || both_down) {
                self.flag(
                    IM_FLOWLINK,
                    a.0,
                    a.1,
                    at,
                    format!(
                        "flowlink unconverged at quiescence: box{} s{} is {sa}, box{} s{} is {sb}",
                        a.0, a.1, b.0, b.1
                    ),
                );
            }
        }
        let stuck: Vec<((u32, u16), &'static str)> = self
            .beliefs
            .iter()
            .filter(|(_, b)| b.state != "closed" && b.state != "flowing")
            .map(|(k, b)| (*k, b.state))
            .collect();
        for ((bx, slot), state) in stuck {
            self.flag(
                IM_TERMINAL,
                bx,
                slot,
                at,
                format!("slot in transient state {state} at quiescence"),
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
        let ladder = self.minimized_ladder(bx, slot);
        self.findings.push(Finding {
            code,
            bx,
            slot,
            at_micros: at,
            detail,
            ladder,
        });
    }

    /// Boxes causally adjacent to the implicated slot: the box itself
    /// plus any flowlink peer of the same (bx, slot).
    fn implicated(&self, bx: u32, slot: u16) -> Vec<u32> {
        let mut boxes = vec![bx];
        for (a, b) in &self.flowlinks {
            if *a == (bx, slot) && !boxes.contains(&b.0) {
                boxes.push(b.0);
            }
            if *b == (bx, slot) && !boxes.contains(&a.0) {
                boxes.push(a.0);
            }
        }
        boxes.sort_unstable();
        boxes
    }

    fn minimized_ladder(&self, bx: u32, slot: u16) -> String {
        let boxes = self.implicated(bx, slot);
        let col = |b: u32| boxes.iter().position(|x| *x == b);

        let mut rows: Vec<LadderEvent> = Vec::new();
        for (at, ev) in &self.ring {
            let (ev_bx, label) = match ev {
                ObsEvent::SignalSent { bx, slot, kind } => (*bx, format!("!{kind} s{slot}")),
                ObsEvent::SignalReceived { bx, slot, kind } => (*bx, format!("?{kind} s{slot}")),
                ObsEvent::SlotTransition {
                    bx, slot, from, to, ..
                } => (*bx, format!("s{slot} {from}->{to}")),
                ObsEvent::SignalIgnored { bx, slot, reason } => {
                    (*bx, format!("s{slot} ignored: {reason}"))
                }
                ObsEvent::RaceResolved { bx, slot, won } => (
                    *bx,
                    format!("s{slot} race {}", if *won { "won" } else { "lost" }),
                ),
                ObsEvent::Retransmission { bx, slot, kind } => {
                    (*bx, format!("s{slot} resend {kind}"))
                }
                _ => continue,
            };
            if let Some(c) = col(ev_bx) {
                rows.push(LadderEvent::local(*at, c, label));
            }
        }
        if rows.len() > LADDER_ROWS {
            rows.drain(..rows.len() - LADDER_ROWS);
        }

        let names: Vec<String> = boxes
            .iter()
            .map(|b| {
                self.names
                    .get(b)
                    .cloned()
                    .unwrap_or_else(|| format!("box{b}"))
            })
            .collect();
        let cols: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        render(&cols, &rows)
    }
}

/// One finding as a JSONL record (for `ipmedia-monitor` output).
pub fn finding_json(f: &Finding) -> String {
    crate::JsonObj::new()
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

    /// The real tables, transcribed; unit tests here can't depend on
    /// `ipmedia-core` (which depends on this crate), so this mirrors
    /// `core::slot::monitor_rules()` — the integration tests in `bench`
    /// use the exported tables directly.
    fn rules() -> MonitorRules {
        let s = |state, action, next| SendRuleData {
            state,
            action,
            next,
        };
        let r = |state, signal, next, auto| RecvRuleData {
            state,
            signal,
            next,
            auto,
        };
        MonitorRules {
            send: vec![
                s("closed", "open", "opening"),
                s("opened", "accept", "flowing"),
                s("flowing", "select", "flowing"),
                s("flowing", "describe", "flowing"),
                s("opening", "close", "closing"),
                s("opened", "close", "closing"),
                s("flowing", "close", "closing"),
            ],
            recv: vec![
                r("closed", "open", "opened", None),
                r("opening", "open", "opened", None),
                r("opening", "oack", "flowing", None),
                r("closed", "oack", "closed", Some("close")),
                r("opening", "close", "closed", Some("closeack")),
                r("opened", "close", "closed", Some("closeack")),
                r("flowing", "close", "closed", Some("closeack")),
                r("closing", "close", "closing", Some("closeack")),
                r("closed", "close", "closed", Some("closeack")),
                r("closing", "closeack", "closed", None),
                r("flowing", "describe", "flowing", None),
                r("closed", "describe", "closed", Some("close")),
                r("flowing", "select", "flowing", None),
                r("closed", "select", "closed", Some("close")),
            ],
        }
    }

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

    #[test]
    fn clean_call_setup_and_teardown_pass() {
        let mut m = Monitor::new(rules());
        m.watch_flowlink((0, 0), (1, 0));
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
    fn uninstrumented_sends_update_belief_via_pre_state_rule() {
        // A box mutated without an observer emits sends but no
        // transitions; the pre-state view keeps the belief in sync.
        let mut m = Monitor::new(rules());
        m.ingest(0, &sent(0, 0, "open")); // closed -> opening
        m.ingest(10, &recv(0, 0, "oack"));
        m.ingest(10, &trans(0, 0, "opening", "flowing", "oack"));
        m.ingest(20, &sent(0, 0, "select")); // legal in flowing
        m.check_quiescent(100);
        assert!(m.is_clean(), "unexpected findings: {:?}", m.findings());
    }

    #[test]
    fn action_on_closed_slot_is_im102_with_ladder() {
        let mut m = Monitor::new(rules());
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
        let mut m = Monitor::new(rules());
        m.ingest(0, &trans(0, 0, "closed", "opening", "goal"));
        m.ingest(0, &sent(0, 0, "open"));
        // describe is never legal in opening (pre- or post-state).
        m.ingest(5, &sent(0, 0, "describe"));
        assert_eq!(m.findings().len(), 1);
        assert_eq!(m.findings()[0].code, IM_CONFORMANCE);
    }

    #[test]
    fn impossible_transition_is_im101() {
        let mut m = Monitor::new(rules());
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
        let mut m = Monitor::new(rules());
        m.ingest(0, &recv(1, 0, "open"));
        m.ingest(0, &trans(1, 0, "closed", "flowing", "open"));
        m.ingest(0, &sent(1, 0, "oack"));
        assert!(m.is_clean(), "findings: {:?}", m.findings());
    }

    #[test]
    fn unconverged_flowlink_is_im201() {
        let mut m = Monitor::new(rules());
        m.watch_flowlink((0, 0), (1, 0));
        m.ingest(0, &trans(0, 0, "closed", "opening", "goal"));
        m.ingest(0, &sent(0, 0, "open"));
        m.ingest(10, &recv(1, 0, "open"));
        m.ingest(10, &trans(1, 0, "closed", "opened", "open"));
        m.ingest(20, &trans(1, 0, "opened", "flowing", "goal"));
        m.ingest(20, &sent(1, 0, "oack"));
        // The oack never arrives; box 0 is stuck in opening.
        m.check_quiescent(1_000_000);
        let codes: Vec<&str> = m.findings().iter().map(|f| f.code).collect();
        assert!(codes.contains(&IM_FLOWLINK), "findings: {codes:?}");
        assert!(codes.contains(&IM_TERMINAL), "findings: {codes:?}");
    }

    #[test]
    fn defensive_close_from_closed_is_legal() {
        let mut m = Monitor::new(rules());
        // A stale select arrives on a closed slot; the box answers with
        // a defensive close (auto-response), which must not be flagged.
        m.ingest(0, &recv(0, 3, "select"));
        m.ingest(0, &sent(0, 3, "close"));
        assert!(m.is_clean(), "unexpected findings: {:?}", m.findings());
    }

    #[test]
    fn finding_json_carries_code_and_ladder() {
        let mut m = Monitor::new(rules());
        m.ingest(42, &sent(2, 1, "oack"));
        let json = finding_json(&m.findings()[0]);
        assert!(json.contains("\"invariant_code\":\"IM102\""));
        assert!(json.contains("\"box\":2"));
        assert!(json.contains("\"at_micros\":42"));
        assert!(json.contains("\"ladder\":\""));
    }

    #[test]
    fn rto_forgives_findings_inside_the_budget() {
        let mut m = Monitor::new(rules());
        m.watch_flowlink((0, 0), (1, 0));
        m.ingest(0, &trans(0, 0, "closed", "opening", "goal"));
        m.ingest(0, &sent(0, 0, "open"));
        // Quiescence checked 2 s after the heal: inside the 5 s budget,
        // so the IM201/IM301 findings are transient, not violations.
        let heal = 10_000_000u64;
        m.check_quiescent(heal + 2_000_000);
        assert!(!m.findings().is_empty());
        let rto = RecoveryObjectives::default();
        assert!(m.rto_violations(heal, &rto).is_empty());
    }

    #[test]
    fn rto_flags_findings_past_the_budget() {
        let mut m = Monitor::new(rules());
        m.watch_flowlink((0, 0), (1, 0));
        m.ingest(0, &trans(0, 0, "closed", "opening", "goal"));
        m.ingest(0, &sent(0, 0, "open"));
        let heal = 10_000_000u64;
        m.check_quiescent(heal + 6_000_000); // past the 5 s budget
        let rto = RecoveryObjectives::default();
        let v = m.rto_violations(heal, &rto);
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
        let mut m = Monitor::new(rules());
        m.register_box(0, "end-l");
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
        let rto = RecoveryObjectives::default();
        assert!(m
            .rto_violations(u64::MAX - 1, &rto)
            .iter()
            .any(|f| f.code == IM_UNVERIFIED));
    }

    #[test]
    fn findings_bearing_verdict_says_so_in_the_detail() {
        let mut m = Monitor::new(rules());
        m.flag_unverified(0, 0, 5, "dirty", "aaaaaaaaaaaaaaaa", Some(false));
        assert!(m.findings()[0].detail.contains("analyzed with findings"));
    }

    #[test]
    fn rto_never_forgives_im102() {
        let mut m = Monitor::new(rules());
        // An action on a Closed slot at t=42us, long before any heal.
        m.ingest(42, &sent(2, 1, "oack"));
        let rto = RecoveryObjectives::default();
        let v = m.rto_violations(10_000_000, &rto);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, IM_CLOSED_ACTION);
    }
}
