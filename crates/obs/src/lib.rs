//! # ipmedia-obs
//!
//! The unified observability layer of the workspace: one sans-IO
//! [`Observer`] trait through which every execution substrate — the
//! discrete-event simulator, the tokio runtime, the model checker, and
//! bare `ipmedia-core` state machines — reports protocol activity, plus
//! the machinery that consumes those reports:
//!
//! - [`metrics::Registry`]: lock-free counters and fixed-bucket latency
//!   histograms, safe to share across threads and snapshot at any time;
//! - [`export`]: JSONL structured events, Prometheus-style text, and JSON
//!   snapshots for benchmark artifacts;
//! - [`ladder`]: the Fig.-10-style ASCII signal-ladder renderer shared by
//!   the simulator's trace dump, the model checker's counterexamples and
//!   the invariant monitor's findings.
//!
//! The invariant monitor itself is `ipmedia_core::monitor`: it steps the
//! slot's rule tables, which this crate cannot see.
//!
//! This crate sits *below* `ipmedia-core` in the dependency graph, so all
//! callbacks use plain data (`u32` box ids, `u16` slot ids, `&'static str`
//! protocol names) rather than core types. What can be observed is the
//! one enum [`ObsEvent`]; [`NoopObserver`] drops every event in the empty
//! default [`Observer::observe`], so threaded through core's generic
//! `_obs` entry points it monomorphizes away completely.

#![deny(unsafe_code)]

pub mod clock;
pub mod export;
pub mod ladder;
pub mod metrics;
pub mod trace;

pub use clock::{Clock, ManualClock, WallClock};
pub use export::{
    json_array, json_escape, json_str_array, prometheus_text, snapshot_json, JsonObj,
};
pub use ladder::LadderEvent;
pub use metrics::{CountingObserver, Histogram, HistogramSnapshot, MetricsSnapshot, Registry};
pub use trace::{
    chrome_trace_json, SpanCtx, SpanId, SpanRecord, SpanSink, TraceId, Tracer, TracingObserver,
};

use std::sync::{Arc, Mutex};

/// Sink for protocol-level observations.
///
/// What can be observed is declared once, as the variants of [`ObsEvent`];
/// an implementation consumes them in [`Observer::observe`], whose default
/// drops them, so [`NoopObserver`] costs nothing once inlined. The named
/// hooks (`stimulus`, `signal_sent`, …) are the emitters: each builds its
/// variant and hands it to `observe`, and no implementation overrides them.
///
/// Emission responsibilities are split to avoid double counting:
/// `signal_received`, `slot_transition`, `goal_activated`, `goal_dropped`,
/// `race_resolved`, and `signal_ignored` are emitted by the box layer
/// (`ipmedia-core`); `signal_sent`, `stimulus`, and `meta_signal` are
/// emitted by the environment that routes inputs and transmits outputs
/// (the simulator or the runtime), which is the only place that sees
/// *every* send path, including goal re-annotations injected by test
/// harnesses.
pub trait Observer {
    /// Consume one observation.
    fn observe(&mut self, ev: ObsEvent) {
        let _ = ev;
    }

    /// Emit [`ObsEvent::Stimulus`].
    fn stimulus(&mut self, bx: u32, kind: &'static str) {
        self.observe(ObsEvent::Stimulus { bx, kind });
    }

    /// Emit [`ObsEvent::SignalSent`].
    fn signal_sent(&mut self, bx: u32, slot: u16, kind: &'static str) {
        self.observe(ObsEvent::SignalSent { bx, slot, kind });
    }

    /// Emit [`ObsEvent::SignalReceived`].
    fn signal_received(&mut self, bx: u32, slot: u16, kind: &'static str) {
        self.observe(ObsEvent::SignalReceived { bx, slot, kind });
    }

    /// Emit [`ObsEvent::SlotTransition`].
    fn slot_transition(
        &mut self,
        bx: u32,
        slot: u16,
        from: &'static str,
        to: &'static str,
        cause: &'static str,
    ) {
        let ev = ObsEvent::SlotTransition {
            bx,
            slot,
            from,
            to,
            cause,
        };
        self.observe(ev);
    }

    /// Emit [`ObsEvent::GoalActivated`].
    fn goal_activated(&mut self, bx: u32, slot: u16, kind: &'static str, peer: Option<u16>) {
        let ev = ObsEvent::GoalActivated {
            bx,
            slot,
            kind,
            peer,
        };
        self.observe(ev);
    }

    /// Emit [`ObsEvent::GoalDropped`].
    fn goal_dropped(&mut self, bx: u32, slot: u16, kind: &'static str) {
        self.observe(ObsEvent::GoalDropped { bx, slot, kind });
    }

    /// Emit [`ObsEvent::RaceResolved`].
    fn race_resolved(&mut self, bx: u32, slot: u16, won: bool) {
        self.observe(ObsEvent::RaceResolved { bx, slot, won });
    }

    /// Emit [`ObsEvent::SignalIgnored`].
    fn signal_ignored(&mut self, bx: u32, slot: u16, reason: &'static str) {
        self.observe(ObsEvent::SignalIgnored { bx, slot, reason });
    }

    /// Emit [`ObsEvent::MetaSignal`].
    fn meta_signal(&mut self, bx: u32, channel: u32, kind: &'static str) {
        self.observe(ObsEvent::MetaSignal { bx, channel, kind });
    }

    /// Emit [`ObsEvent::FaultInjected`].
    fn fault_injected(&mut self, bx: u32, kind: &'static str) {
        self.observe(ObsEvent::FaultInjected { bx, kind });
    }

    /// Emit [`ObsEvent::Retransmission`].
    fn retransmission(&mut self, bx: u32, slot: u16, kind: &'static str) {
        self.observe(ObsEvent::Retransmission { bx, slot, kind });
    }

    /// Emit [`ObsEvent::Recovered`].
    fn recovered(&mut self, bx: u32, slot: u16, attempts: u32, elapsed_ms: u64) {
        let ev = ObsEvent::Recovered {
            bx,
            slot,
            attempts,
            elapsed_ms,
        };
        self.observe(ev);
    }
}

/// The zero-cost observer: drops every observation.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl Observer for NoopObserver {}

impl<T: Observer + ?Sized> Observer for Box<T> {
    fn observe(&mut self, ev: ObsEvent) {
        (**self).observe(ev);
    }
}

/// Forward every observation to two observers (metrics + recording, say).
#[derive(Debug, Default)]
pub struct Fanout<A, B>(pub A, pub B);

impl<A: Observer, B: Observer> Observer for Fanout<A, B> {
    fn observe(&mut self, ev: ObsEvent) {
        self.0.observe(ev);
        self.1.observe(ev);
    }
}

/// One observation: the set of these variants is everything an
/// [`Observer`] can be told. Plain data; a recorder attaches the
/// timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsEvent {
    /// A box began processing one stimulus; `kind` names the input class
    /// (`"tunnel"`, `"timer"`, `"meta"`, …).
    Stimulus { bx: u32, kind: &'static str },
    /// A protocol signal left `bx` into the tunnel of `slot`.
    SignalSent {
        bx: u32,
        slot: u16,
        kind: &'static str,
    },
    /// A protocol signal arrived at `bx` from the tunnel of `slot`.
    SignalReceived {
        bx: u32,
        slot: u16,
        kind: &'static str,
    },
    /// A slot's protocol FSM moved `from` → `to` because of `cause` (a
    /// signal kind, `"goal"`, or `"user"`).
    SlotTransition {
        bx: u32,
        slot: u16,
        from: &'static str,
        to: &'static str,
        cause: &'static str,
    },
    /// A goal object of the given kind took control of `slot`; `peer` is
    /// the other slot of a flowlink, `None` for a one-slot goal.
    GoalActivated {
        bx: u32,
        slot: u16,
        kind: &'static str,
        peer: Option<u16>,
    },
    /// The goal controlling `slot` was destroyed (re-annotation or slot
    /// teardown).
    GoalDropped {
        bx: u32,
        slot: u16,
        kind: &'static str,
    },
    /// An open/open race was resolved at `bx`; `won` is true iff this end
    /// kept its own open in flight (§VI-B: the channel initiator wins).
    RaceResolved { bx: u32, slot: u16, won: bool },
    /// A stale or duplicate signal was tolerated and dropped by the
    /// idempotent protocol.
    SignalIgnored {
        bx: u32,
        slot: u16,
        reason: &'static str,
    },
    /// A channel-level meta-signal was processed at `bx`.
    MetaSignal {
        bx: u32,
        channel: u32,
        kind: &'static str,
    },
    /// The environment injected a network fault affecting `bx`. `kind` is
    /// `"drop"`, `"duplicate"`, `"reorder"`, `"partition"`, `"crash"` or
    /// `"restart"` from [`metrics::FAULT_KINDS`], or a name counted in its
    /// `"other"` bucket (a connection lifecycle's `"disconnect"` and
    /// `"reconnect"`, and `rt`'s `"over_cap"`, a refused channel).
    FaultInjected { bx: u32, kind: &'static str },
    /// The reliability layer re-emitted signals for `slot` at `bx`; `kind`
    /// names the retransmitted await (`"open"`, `"close"`, `"refresh"`,
    /// `"reack"`).
    Retransmission {
        bx: u32,
        slot: u16,
        kind: &'static str,
    },
    /// A pending await at `bx`/`slot` resolved after `attempts`
    /// retransmissions, `elapsed_ms` after it first appeared.
    Recovered {
        bx: u32,
        slot: u16,
        attempts: u32,
        elapsed_ms: u64,
    },
}

impl ObsEvent {
    /// The box the observation was made at.
    pub fn bx(&self) -> u32 {
        match *self {
            ObsEvent::Stimulus { bx, .. }
            | ObsEvent::SignalSent { bx, .. }
            | ObsEvent::SignalReceived { bx, .. }
            | ObsEvent::SlotTransition { bx, .. }
            | ObsEvent::GoalActivated { bx, .. }
            | ObsEvent::GoalDropped { bx, .. }
            | ObsEvent::RaceResolved { bx, .. }
            | ObsEvent::SignalIgnored { bx, .. }
            | ObsEvent::MetaSignal { bx, .. }
            | ObsEvent::FaultInjected { bx, .. }
            | ObsEvent::Retransmission { bx, .. }
            | ObsEvent::Recovered { bx, .. } => bx,
        }
    }
}

/// Records every observation with a timestamp from the supplied clock.
/// The event log is behind an `Arc` so the owner of a boxed observer (a
/// simulator, say) and the test inspecting the log can share it.
pub struct RecordingObserver {
    clock: Arc<dyn Clock + Send + Sync>,
    events: Arc<Mutex<Vec<(u64, ObsEvent)>>>,
}

impl RecordingObserver {
    pub fn new(clock: Arc<dyn Clock + Send + Sync>) -> Self {
        Self {
            clock,
            events: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Shared handle to the log, retained across a move of `self` into a
    /// `Box<dyn Observer>`.
    pub fn log(&self) -> Arc<Mutex<Vec<(u64, ObsEvent)>>> {
        self.events.clone()
    }
}

impl Observer for RecordingObserver {
    fn observe(&mut self, ev: ObsEvent) {
        let at = self.clock.now_micros();
        self.events.lock().unwrap().push((at, ev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_observer_logs_in_order_with_timestamps() {
        let clock = Arc::new(ManualClock::new());
        let mut rec = RecordingObserver::new(clock.clone());
        let log = rec.log();

        rec.signal_sent(0, 0, "open");
        clock.set(54_000);
        rec.signal_received(1, 0, "open");
        rec.race_resolved(1, 0, false);

        let events = log.lock().unwrap();
        assert_eq!(
            *events,
            vec![
                (
                    0,
                    ObsEvent::SignalSent {
                        bx: 0,
                        slot: 0,
                        kind: "open"
                    }
                ),
                (
                    54_000,
                    ObsEvent::SignalReceived {
                        bx: 1,
                        slot: 0,
                        kind: "open"
                    }
                ),
                (
                    54_000,
                    ObsEvent::RaceResolved {
                        bx: 1,
                        slot: 0,
                        won: false
                    }
                ),
            ]
        );
    }

    #[test]
    fn an_observation_stays_small() {
        assert!(std::mem::size_of::<ObsEvent>() <= 56);
    }

    #[test]
    fn fanout_reaches_both() {
        let r = Arc::new(Registry::new());
        let mut obs = Fanout(
            CountingObserver::new(r.clone()),
            CountingObserver::new(r.clone()),
        );
        obs.signal_sent(0, 0, "open");
        assert_eq!(r.snapshot().signals_sent_total(), 2);
    }
}
