//! # ipmedia-obs
//!
//! The unified observability layer of the workspace: one sans-IO
//! [`Observer`] trait through which every execution substrate — the
//! discrete-event simulator, the tokio runtime, the model checker, and
//! bare [`ipmedia-core`] state machines — reports protocol activity, plus
//! the machinery that consumes those reports:
//!
//! - [`metrics::Registry`]: lock-free counters and fixed-bucket latency
//!   histograms, safe to share across threads and snapshot at any time;
//! - [`export`]: JSONL structured events, Prometheus-style text, and JSON
//!   snapshots for benchmark artifacts;
//! - [`ladder`]: the Fig.-10-style ASCII signal-ladder renderer shared by
//!   the simulator's trace dump and the model checker's counterexamples.
//!
//! This crate sits *below* `ipmedia-core` in the dependency graph, so all
//! callbacks use plain data (`u32` box ids, `u16` slot ids, `&'static str`
//! protocol names) rather than core types. [`NoopObserver`] implements
//! every hook as an empty default method; threaded through core's generic
//! `_obs` entry points it monomorphizes away completely.

pub mod clock;
pub mod export;
pub mod ladder;
pub mod metrics;
pub mod monitor;
pub mod trace;

pub use clock::{Clock, ManualClock, WallClock};
pub use export::{
    attribution_json, attribution_prometheus_text, json_array, json_escape, json_str_array,
    prometheus_text, snapshot_json, JsonObj,
};
pub use ladder::LadderEvent;
pub use metrics::{CountingObserver, Histogram, HistogramSnapshot, MetricsSnapshot, Registry};
pub use monitor::{
    Finding, Monitor, MonitorRules, RecoveryObjectives, RecvRuleData, SendRuleData,
    VerifiedManifest,
};
pub use trace::{
    attribute, attribution_category, chrome_trace_json, Attribution, SpanCtx, SpanId, SpanRecord,
    SpanSink, TraceId, Tracer, TracingObserver,
};

use std::sync::{Arc, Mutex};

/// Sink for protocol-level observations.
///
/// Every hook has an empty default body, so implementations override only
/// what they consume and [`NoopObserver`] costs nothing once inlined.
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
    /// A box began processing one stimulus; `kind` names the input class
    /// (`"tunnel"`, `"timer"`, `"meta"`, …).
    fn stimulus(&mut self, bx: u32, kind: &'static str) {
        let _ = (bx, kind);
    }

    /// A protocol signal left `bx` into the tunnel of `slot`.
    fn signal_sent(&mut self, bx: u32, slot: u16, kind: &'static str) {
        let _ = (bx, slot, kind);
    }

    /// A protocol signal arrived at `bx` from the tunnel of `slot`.
    fn signal_received(&mut self, bx: u32, slot: u16, kind: &'static str) {
        let _ = (bx, slot, kind);
    }

    /// A slot's protocol FSM moved `from` → `to` because of `cause` (a
    /// signal kind, `"goal"`, or `"user"`).
    fn slot_transition(
        &mut self,
        bx: u32,
        slot: u16,
        from: &'static str,
        to: &'static str,
        cause: &'static str,
    ) {
        let _ = (bx, slot, from, to, cause);
    }

    /// A goal object of the given kind took control of `slot`.
    fn goal_activated(&mut self, bx: u32, slot: u16, kind: &'static str) {
        let _ = (bx, slot, kind);
    }

    /// The goal controlling `slot` was destroyed (re-annotation or slot
    /// teardown).
    fn goal_dropped(&mut self, bx: u32, slot: u16, kind: &'static str) {
        let _ = (bx, slot, kind);
    }

    /// An open/open race was resolved at `bx`; `won` is true iff this end
    /// kept its own open in flight (§VI-B: the channel initiator wins).
    fn race_resolved(&mut self, bx: u32, slot: u16, won: bool) {
        let _ = (bx, slot, won);
    }

    /// A stale or duplicate signal was tolerated and dropped by the
    /// idempotent protocol.
    fn signal_ignored(&mut self, bx: u32, slot: u16, reason: &'static str) {
        let _ = (bx, slot, reason);
    }

    /// A channel-level meta-signal was processed at `bx`.
    fn meta_signal(&mut self, bx: u32, channel: u32, kind: &'static str) {
        let _ = (bx, channel, kind);
    }

    /// The environment injected a network fault affecting `bx` (`kind` is
    /// one of [`metrics::FAULT_KINDS`]: `"drop"`, `"duplicate"`,
    /// `"reorder"`, `"partition"`, `"shed"`, `"crash"`, `"restart"`).
    fn fault_injected(&mut self, bx: u32, kind: &'static str) {
        let _ = (bx, kind);
    }

    /// The reliability layer re-emitted signals for `slot` at `bx`; `kind`
    /// names the retransmitted await (`"open"`, `"close"`, `"refresh"`,
    /// `"reack"`).
    fn retransmission(&mut self, bx: u32, slot: u16, kind: &'static str) {
        let _ = (bx, slot, kind);
    }

    /// A pending await at `bx`/`slot` resolved after `attempts`
    /// retransmissions, `elapsed_ms` after it first appeared.
    fn recovered(&mut self, bx: u32, slot: u16, attempts: u32, elapsed_ms: u64) {
        let _ = (bx, slot, attempts, elapsed_ms);
    }
}

/// The zero-cost observer: every hook is the empty default.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl Observer for NoopObserver {}

impl<T: Observer + ?Sized> Observer for Box<T> {
    fn stimulus(&mut self, bx: u32, kind: &'static str) {
        (**self).stimulus(bx, kind)
    }
    fn signal_sent(&mut self, bx: u32, slot: u16, kind: &'static str) {
        (**self).signal_sent(bx, slot, kind)
    }
    fn signal_received(&mut self, bx: u32, slot: u16, kind: &'static str) {
        (**self).signal_received(bx, slot, kind)
    }
    fn slot_transition(
        &mut self,
        bx: u32,
        slot: u16,
        from: &'static str,
        to: &'static str,
        cause: &'static str,
    ) {
        (**self).slot_transition(bx, slot, from, to, cause)
    }
    fn goal_activated(&mut self, bx: u32, slot: u16, kind: &'static str) {
        (**self).goal_activated(bx, slot, kind)
    }
    fn goal_dropped(&mut self, bx: u32, slot: u16, kind: &'static str) {
        (**self).goal_dropped(bx, slot, kind)
    }
    fn race_resolved(&mut self, bx: u32, slot: u16, won: bool) {
        (**self).race_resolved(bx, slot, won)
    }
    fn signal_ignored(&mut self, bx: u32, slot: u16, reason: &'static str) {
        (**self).signal_ignored(bx, slot, reason)
    }
    fn meta_signal(&mut self, bx: u32, channel: u32, kind: &'static str) {
        (**self).meta_signal(bx, channel, kind)
    }
    fn fault_injected(&mut self, bx: u32, kind: &'static str) {
        (**self).fault_injected(bx, kind)
    }
    fn retransmission(&mut self, bx: u32, slot: u16, kind: &'static str) {
        (**self).retransmission(bx, slot, kind)
    }
    fn recovered(&mut self, bx: u32, slot: u16, attempts: u32, elapsed_ms: u64) {
        (**self).recovered(bx, slot, attempts, elapsed_ms)
    }
}

impl<T: Observer + ?Sized> Observer for &mut T {
    fn stimulus(&mut self, bx: u32, kind: &'static str) {
        (**self).stimulus(bx, kind)
    }
    fn signal_sent(&mut self, bx: u32, slot: u16, kind: &'static str) {
        (**self).signal_sent(bx, slot, kind)
    }
    fn signal_received(&mut self, bx: u32, slot: u16, kind: &'static str) {
        (**self).signal_received(bx, slot, kind)
    }
    fn slot_transition(
        &mut self,
        bx: u32,
        slot: u16,
        from: &'static str,
        to: &'static str,
        cause: &'static str,
    ) {
        (**self).slot_transition(bx, slot, from, to, cause)
    }
    fn goal_activated(&mut self, bx: u32, slot: u16, kind: &'static str) {
        (**self).goal_activated(bx, slot, kind)
    }
    fn goal_dropped(&mut self, bx: u32, slot: u16, kind: &'static str) {
        (**self).goal_dropped(bx, slot, kind)
    }
    fn race_resolved(&mut self, bx: u32, slot: u16, won: bool) {
        (**self).race_resolved(bx, slot, won)
    }
    fn signal_ignored(&mut self, bx: u32, slot: u16, reason: &'static str) {
        (**self).signal_ignored(bx, slot, reason)
    }
    fn meta_signal(&mut self, bx: u32, channel: u32, kind: &'static str) {
        (**self).meta_signal(bx, channel, kind)
    }
    fn fault_injected(&mut self, bx: u32, kind: &'static str) {
        (**self).fault_injected(bx, kind)
    }
    fn retransmission(&mut self, bx: u32, slot: u16, kind: &'static str) {
        (**self).retransmission(bx, slot, kind)
    }
    fn recovered(&mut self, bx: u32, slot: u16, attempts: u32, elapsed_ms: u64) {
        (**self).recovered(bx, slot, attempts, elapsed_ms)
    }
}

/// Forward every observation to two observers (metrics + recording, say).
#[derive(Debug, Default)]
pub struct Fanout<A, B>(pub A, pub B);

impl<A: Observer, B: Observer> Observer for Fanout<A, B> {
    fn stimulus(&mut self, bx: u32, kind: &'static str) {
        self.0.stimulus(bx, kind);
        self.1.stimulus(bx, kind);
    }
    fn signal_sent(&mut self, bx: u32, slot: u16, kind: &'static str) {
        self.0.signal_sent(bx, slot, kind);
        self.1.signal_sent(bx, slot, kind);
    }
    fn signal_received(&mut self, bx: u32, slot: u16, kind: &'static str) {
        self.0.signal_received(bx, slot, kind);
        self.1.signal_received(bx, slot, kind);
    }
    fn slot_transition(
        &mut self,
        bx: u32,
        slot: u16,
        from: &'static str,
        to: &'static str,
        cause: &'static str,
    ) {
        self.0.slot_transition(bx, slot, from, to, cause);
        self.1.slot_transition(bx, slot, from, to, cause);
    }
    fn goal_activated(&mut self, bx: u32, slot: u16, kind: &'static str) {
        self.0.goal_activated(bx, slot, kind);
        self.1.goal_activated(bx, slot, kind);
    }
    fn goal_dropped(&mut self, bx: u32, slot: u16, kind: &'static str) {
        self.0.goal_dropped(bx, slot, kind);
        self.1.goal_dropped(bx, slot, kind);
    }
    fn race_resolved(&mut self, bx: u32, slot: u16, won: bool) {
        self.0.race_resolved(bx, slot, won);
        self.1.race_resolved(bx, slot, won);
    }
    fn signal_ignored(&mut self, bx: u32, slot: u16, reason: &'static str) {
        self.0.signal_ignored(bx, slot, reason);
        self.1.signal_ignored(bx, slot, reason);
    }
    fn meta_signal(&mut self, bx: u32, channel: u32, kind: &'static str) {
        self.0.meta_signal(bx, channel, kind);
        self.1.meta_signal(bx, channel, kind);
    }
    fn fault_injected(&mut self, bx: u32, kind: &'static str) {
        self.0.fault_injected(bx, kind);
        self.1.fault_injected(bx, kind);
    }
    fn retransmission(&mut self, bx: u32, slot: u16, kind: &'static str) {
        self.0.retransmission(bx, slot, kind);
        self.1.retransmission(bx, slot, kind);
    }
    fn recovered(&mut self, bx: u32, slot: u16, attempts: u32, elapsed_ms: u64) {
        self.0.recovered(bx, slot, attempts, elapsed_ms);
        self.1.recovered(bx, slot, attempts, elapsed_ms);
    }
}

/// One recorded observation (plain data, timestamp attached by the
/// recorder's clock).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsEvent {
    Stimulus {
        bx: u32,
        kind: &'static str,
    },
    SignalSent {
        bx: u32,
        slot: u16,
        kind: &'static str,
    },
    SignalReceived {
        bx: u32,
        slot: u16,
        kind: &'static str,
    },
    SlotTransition {
        bx: u32,
        slot: u16,
        from: &'static str,
        to: &'static str,
        cause: &'static str,
    },
    GoalActivated {
        bx: u32,
        slot: u16,
        kind: &'static str,
    },
    GoalDropped {
        bx: u32,
        slot: u16,
        kind: &'static str,
    },
    RaceResolved {
        bx: u32,
        slot: u16,
        won: bool,
    },
    SignalIgnored {
        bx: u32,
        slot: u16,
        reason: &'static str,
    },
    MetaSignal {
        bx: u32,
        channel: u32,
        kind: &'static str,
    },
    FaultInjected {
        bx: u32,
        kind: &'static str,
    },
    Retransmission {
        bx: u32,
        slot: u16,
        kind: &'static str,
    },
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

    fn push(&mut self, ev: ObsEvent) {
        let at = self.clock.now_micros();
        self.events.lock().unwrap().push((at, ev));
    }
}

impl Observer for RecordingObserver {
    fn stimulus(&mut self, bx: u32, kind: &'static str) {
        self.push(ObsEvent::Stimulus { bx, kind });
    }
    fn signal_sent(&mut self, bx: u32, slot: u16, kind: &'static str) {
        self.push(ObsEvent::SignalSent { bx, slot, kind });
    }
    fn signal_received(&mut self, bx: u32, slot: u16, kind: &'static str) {
        self.push(ObsEvent::SignalReceived { bx, slot, kind });
    }
    fn slot_transition(
        &mut self,
        bx: u32,
        slot: u16,
        from: &'static str,
        to: &'static str,
        cause: &'static str,
    ) {
        self.push(ObsEvent::SlotTransition {
            bx,
            slot,
            from,
            to,
            cause,
        });
    }
    fn goal_activated(&mut self, bx: u32, slot: u16, kind: &'static str) {
        self.push(ObsEvent::GoalActivated { bx, slot, kind });
    }
    fn goal_dropped(&mut self, bx: u32, slot: u16, kind: &'static str) {
        self.push(ObsEvent::GoalDropped { bx, slot, kind });
    }
    fn race_resolved(&mut self, bx: u32, slot: u16, won: bool) {
        self.push(ObsEvent::RaceResolved { bx, slot, won });
    }
    fn signal_ignored(&mut self, bx: u32, slot: u16, reason: &'static str) {
        self.push(ObsEvent::SignalIgnored { bx, slot, reason });
    }
    fn meta_signal(&mut self, bx: u32, channel: u32, kind: &'static str) {
        self.push(ObsEvent::MetaSignal { bx, channel, kind });
    }
    fn fault_injected(&mut self, bx: u32, kind: &'static str) {
        self.push(ObsEvent::FaultInjected { bx, kind });
    }
    fn retransmission(&mut self, bx: u32, slot: u16, kind: &'static str) {
        self.push(ObsEvent::Retransmission { bx, slot, kind });
    }
    fn recovered(&mut self, bx: u32, slot: u16, attempts: u32, elapsed_ms: u64) {
        self.push(ObsEvent::Recovered {
            bx,
            slot,
            attempts,
            elapsed_ms,
        });
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
