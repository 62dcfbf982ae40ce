//! Causal call tracing: per-call trace ids, parent-linked spans, and a
//! lock-free sans-IO span sink.
//!
//! A **trace** is one causal episode — everything downstream of a single
//! root stimulus (a user command, a timer firing, an injected signal). A
//! **span** is one timed piece of it: a signal in flight (`"transit"`),
//! a box computing on a stimulus (`"stimulus"`), a channel round-trip
//! (`"tunnel_setup"`), a reliability episode (`"retransmission"`,
//! `"recovery"`), or an instant marker (slot transitions, races, faults).
//!
//! Like the rest of this crate, everything here is plain data and
//! substrate-agnostic: the discrete-event simulator stamps spans with
//! virtual time through its [`crate::ManualClock`], the tokio runtime
//! with wall time, and both lands in the same [`SpanSink`]. A
//! [`SpanCtx`] is the portable causal context — small enough to ride on
//! a scheduled simulator event or a wire frame — that links a receive
//! span to the send that caused it.
//!
//! The sink is append-only and lock-free: a bounded slab of
//! `OnceLock<SpanRecord>` cells claimed by an atomic cursor. Recording
//! never blocks, never allocates after construction (beyond the record
//! itself), and overflow is counted instead of back-pressuring — the
//! zero-perturbation guarantee of PR 1 extends to tracing and is pinned
//! by `bench`'s trace-overhead gate.

use crate::clock::Clock;
use crate::export::{json_array, JsonObj};
use crate::{ObsEvent, Observer};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Identifies one causal episode (one call attempt, one relink, one
/// recovery storm). Zero is reserved for "no trace".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identifies one span within a sink. Zero is reserved for "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// One completed span. Instant events are spans with `end == start`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub trace: TraceId,
    pub id: SpanId,
    /// Causal parent within the same trace; `None` for the root span.
    pub parent: Option<SpanId>,
    /// Box the span is attributed to.
    pub bx: u32,
    /// Sending box for `"transit"` spans (drives ladder arrows).
    pub from: Option<u32>,
    /// Span class; see [`attribution_category`] for the closed set that
    /// the latency-attribution exporters recognize.
    pub kind: &'static str,
    pub label: String,
    pub start_micros: u64,
    pub end_micros: u64,
}

impl SpanRecord {
    pub fn duration_micros(&self) -> u64 {
        self.end_micros.saturating_sub(self.start_micros)
    }
}

/// The closed set of latency-attribution categories, in export order.
pub const ATTRIBUTION_CATEGORIES: [&str; 4] =
    ["signaling", "propagation", "retransmission", "other"];

/// Where a span's duration is attributed when answering "where did the
/// setup time go?". Box compute on stimuli is signaling work; transit
/// spans are wire/virtual-network propagation; retransmission episodes
/// are reliability overhead. Everything else — including envelope spans
/// like `"tunnel_setup"` and `"recovery"` that *contain* other spans —
/// lands in `"other"` so the three primary categories never double
/// count.
pub fn attribution_category(kind: &str) -> &'static str {
    match kind {
        "stimulus" => "signaling",
        "transit" => "propagation",
        "retransmission" => "retransmission",
        _ => "other",
    }
}

/// Portable causal context: what a send attaches to the thing it emits
/// (a scheduled simulator event, a wire frame) so the receive side can
/// parent its spans correctly and measure propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCtx {
    pub trace: TraceId,
    /// Span of the sender-side activation that emitted the carrier.
    pub parent: SpanId,
    /// The box that activation ran on.
    pub bx: u32,
    /// Sender-clock timestamp of the emission, for transit duration.
    pub sent_micros: u64,
}

/// Lock-free, bounded, append-only span storage.
///
/// Writers claim a cell with one `fetch_add` and publish with one
/// uncontended `OnceLock::set`; once the capacity is exhausted further
/// records are dropped and counted. Readers snapshot at any time.
#[derive(Debug)]
pub struct SpanSink {
    slots: Box<[OnceLock<SpanRecord>]>,
    cursor: AtomicUsize,
    next_span: AtomicU64,
    next_trace: AtomicU64,
    dropped: AtomicU64,
}

impl SpanSink {
    pub fn new(capacity: usize) -> Self {
        SpanSink {
            slots: (0..capacity).map(|_| OnceLock::new()).collect(),
            cursor: AtomicUsize::new(0),
            next_span: AtomicU64::new(1),
            next_trace: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn alloc_span(&self) -> SpanId {
        SpanId(self.next_span.fetch_add(1, Ordering::Relaxed))
    }

    pub fn alloc_trace(&self) -> TraceId {
        TraceId(self.next_trace.fetch_add(1, Ordering::Relaxed))
    }

    /// Record one span; lock-free, drops (and counts) on overflow.
    pub fn record(&self, rec: SpanRecord) {
        let idx = self.cursor.fetch_add(1, Ordering::Relaxed);
        match self.slots.get(idx) {
            Some(cell) => {
                let _ = cell.set(rec);
            }
            None => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Spans recorded so far (capped at capacity).
    pub fn len(&self) -> usize {
        self.cursor.load(Ordering::Relaxed).min(self.slots.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records lost to overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copy out every published span, in recording order. A cell claimed
    /// by a racing writer that has not yet published is skipped.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.slots[..self.len()]
            .iter()
            .filter_map(|c| c.get().cloned())
            .collect()
    }
}

/// Cloneable handle that records spans into a shared [`SpanSink`] and
/// carries the *current* causal context — the (trace, span) under which
/// observer callbacks fired during a stimulus should be parented.
///
/// The current context is two atomics rather than a thread-local so the
/// same type works in the single-threaded simulator loop and inside one
/// tokio actor; each execution substrate owns one `Tracer` clone per
/// serial execution context.
#[derive(Clone)]
pub struct Tracer {
    sink: Arc<SpanSink>,
    clock: Arc<dyn Clock + Send + Sync>,
    current: Arc<CurrentCtx>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("spans", &self.sink.len())
            .field("current", &self.current)
            .finish()
    }
}

#[derive(Debug, Default)]
struct CurrentCtx {
    trace: AtomicU64,
    parent: AtomicU64,
}

impl Tracer {
    pub fn new(sink: Arc<SpanSink>, clock: Arc<dyn Clock + Send + Sync>) -> Self {
        Tracer {
            sink,
            clock,
            current: Arc::new(CurrentCtx::default()),
        }
    }

    pub fn sink(&self) -> Arc<SpanSink> {
        self.sink.clone()
    }

    pub fn now_micros(&self) -> u64 {
        self.clock.now_micros()
    }

    /// Start a fresh trace (one causal episode).
    pub fn new_trace(&self) -> TraceId {
        self.sink.alloc_trace()
    }

    /// Record a completed span with explicit timestamps; returns its id
    /// so children can parent to it.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        bx: u32,
        from: Option<u32>,
        kind: &'static str,
        label: impl Into<String>,
        start_micros: u64,
        end_micros: u64,
    ) -> SpanId {
        let id = self.sink.alloc_span();
        self.sink.record(SpanRecord {
            trace,
            id,
            parent,
            bx,
            from,
            kind,
            label: label.into(),
            start_micros,
            end_micros: end_micros.max(start_micros),
        });
        id
    }

    /// Record an instant span under the current context (no-op when no
    /// context is set — e.g. observer callbacks outside any stimulus).
    pub fn instant(&self, bx: u32, kind: &'static str, label: impl Into<String>) {
        if let Some((trace, parent)) = self.current() {
            let at = self.clock.now_micros();
            self.span(trace, Some(parent), bx, None, kind, label, at, at);
        }
    }

    /// Set the causal context for subsequent [`Tracer::instant`] calls.
    pub fn set_current(&self, trace: TraceId, parent: SpanId) {
        self.current.trace.store(trace.0, Ordering::Relaxed);
        self.current.parent.store(parent.0, Ordering::Relaxed);
    }

    pub fn clear_current(&self) {
        self.current.trace.store(0, Ordering::Relaxed);
        self.current.parent.store(0, Ordering::Relaxed);
    }

    pub fn current(&self) -> Option<(TraceId, SpanId)> {
        let t = self.current.trace.load(Ordering::Relaxed);
        if t == 0 {
            return None;
        }
        let p = self.current.parent.load(Ordering::Relaxed);
        Some((TraceId(t), SpanId(p)))
    }

    /// An [`Observer`] that turns box-layer protocol callbacks into
    /// instant (and, for recoveries, retroactive interval) spans under
    /// this tracer's current context.
    pub fn observer(&self) -> TracingObserver {
        TracingObserver {
            tracer: self.clone(),
        }
    }
}

/// Bridges the [`Observer`] hook surface onto span recording: protocol
/// facts observed while a stimulus is executing become child spans of
/// that stimulus. Strictly passive — it changes no behavior of whatever
/// it is fanned out with.
#[derive(Clone, Debug)]
pub struct TracingObserver {
    tracer: Tracer,
}

impl Observer for TracingObserver {
    fn observe(&mut self, ev: ObsEvent) {
        let t = &self.tracer;
        match ev {
            ObsEvent::SlotTransition {
                bx,
                slot,
                from,
                to,
                cause,
            } => t.instant(
                bx,
                "slot_transition",
                format!("s{slot}:{from}->{to} ({cause})"),
            ),
            ObsEvent::RaceResolved { bx, slot, won } => {
                let outcome = if won { "won" } else { "backed off" };
                t.instant(bx, "race", format!("s{slot}: open/open race {outcome}"));
            }
            ObsEvent::SignalIgnored { bx, slot, reason } => {
                t.instant(bx, "ignored", format!("s{slot}: {reason}"));
            }
            ObsEvent::GoalActivated { bx, slot, kind } => {
                t.instant(bx, "goal", format!("s{slot}: +{kind}"));
            }
            ObsEvent::GoalDropped { bx, slot, kind } => {
                t.instant(bx, "goal", format!("s{slot}: -{kind}"));
            }
            ObsEvent::FaultInjected { bx, kind } => t.instant(bx, "fault", kind),
            ObsEvent::Retransmission { bx, slot, kind } => {
                t.instant(bx, "retransmission", format!("s{slot}: resend {kind}"));
            }
            ObsEvent::Recovered {
                bx,
                slot,
                attempts,
                elapsed_ms,
            } => {
                if let Some((trace, parent)) = t.current() {
                    let end = t.now_micros();
                    let start = end.saturating_sub(elapsed_ms.saturating_mul(1_000));
                    let label = format!("s{slot}: recovered after {attempts} resends");
                    t.span(trace, Some(parent), bx, None, "recovery", label, start, end);
                }
            }
            ObsEvent::Stimulus { .. }
            | ObsEvent::SignalSent { .. }
            | ObsEvent::SignalReceived { .. }
            | ObsEvent::MetaSignal { .. } => {}
        }
    }
}

/// Aggregate span durations into the attribution categories (all values
/// in microseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    pub signaling_us: u64,
    pub propagation_us: u64,
    pub retransmission_us: u64,
    pub other_us: u64,
    pub spans: u64,
}

impl Attribution {
    pub fn total_us(&self) -> u64 {
        self.signaling_us + self.propagation_us + self.retransmission_us + self.other_us
    }

    pub fn get(&self, category: &str) -> u64 {
        match category {
            "signaling" => self.signaling_us,
            "propagation" => self.propagation_us,
            "retransmission" => self.retransmission_us,
            _ => self.other_us,
        }
    }
}

/// Attribute every span's duration to its category.
pub fn attribute(spans: &[SpanRecord]) -> Attribution {
    let mut a = Attribution::default();
    for s in spans {
        let d = s.duration_micros();
        match attribution_category(s.kind) {
            "signaling" => a.signaling_us += d,
            "propagation" => a.propagation_us += d,
            "retransmission" => a.retransmission_us += d,
            _ => a.other_us += d,
        }
        a.spans += 1;
    }
    a
}

/// Render spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto).
/// Traces map to pids, boxes to tids, spans to complete (`"X"`) events.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            let mut args = JsonObj::new().num("span_id", s.id.0);
            if let Some(p) = s.parent {
                args = args.num("parent", p.0);
            }
            if let Some(f) = s.from {
                args = args.num("from_box", u64::from(f));
            }
            JsonObj::new()
                .str("ph", "X")
                .str("name", &s.label)
                .str("cat", s.kind)
                .num("ts", s.start_micros)
                .num("dur", s.duration_micros())
                .num("pid", s.trace.0)
                .num("tid", u64::from(s.bx))
                .raw("args", &args.finish())
                .finish()
        })
        .collect();
    JsonObj::new()
        .raw("traceEvents", &json_array(events))
        .str("displayTimeUnit", "ms")
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ManualClock;

    fn tracer() -> (Tracer, Arc<SpanSink>, Arc<ManualClock>) {
        let sink = Arc::new(SpanSink::new(64));
        let clock = Arc::new(ManualClock::new());
        (Tracer::new(sink.clone(), clock.clone()), sink, clock)
    }

    #[test]
    fn spans_link_parent_and_trace() {
        let (t, sink, _) = tracer();
        let trace = t.new_trace();
        let root = t.span(trace, None, 0, None, "stimulus", "user open", 0, 5);
        let child = t.span(trace, Some(root), 1, Some(0), "transit", "open", 5, 54_005);
        let spans = sink.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, root);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].id, child);
        assert_eq!(spans[1].trace, trace);
        assert_eq!(spans[1].from, Some(0));
        assert_eq!(spans[1].duration_micros(), 54_000);
    }

    #[test]
    fn sink_overflow_drops_and_counts() {
        let sink = SpanSink::new(2);
        for i in 0..4 {
            sink.record(SpanRecord {
                trace: TraceId(1),
                id: SpanId(i + 1),
                parent: None,
                bx: 0,
                from: None,
                kind: "stimulus",
                label: String::new(),
                start_micros: 0,
                end_micros: 0,
            });
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 2);
        assert_eq!(sink.snapshot().len(), 2);
    }

    #[test]
    fn instant_requires_current_context() {
        let (t, sink, clock) = tracer();
        t.instant(0, "slot_transition", "dropped: no context");
        assert!(sink.snapshot().is_empty());

        let trace = t.new_trace();
        let root = t.span(trace, None, 0, None, "stimulus", "open", 0, 3);
        clock.set(2);
        t.set_current(trace, root);
        t.instant(0, "slot_transition", "s0:closed->opening (user)");
        t.clear_current();
        t.instant(0, "slot_transition", "dropped again");

        let spans = sink.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].start_micros, 2);
        assert_eq!(spans[1].end_micros, 2);
    }

    #[test]
    fn observer_records_recovery_interval() {
        let (t, sink, clock) = tracer();
        let trace = t.new_trace();
        let root = t.span(trace, None, 0, None, "stimulus", "timer", 0, 1);
        clock.set(450_000);
        t.set_current(trace, root);
        let mut obs = t.observer();
        obs.recovered(0, 1, 2, 450);
        let spans = sink.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].kind, "recovery");
        assert_eq!(spans[1].start_micros, 0);
        assert_eq!(spans[1].end_micros, 450_000);
    }

    #[test]
    fn observer_span_labels_are_pinned() {
        let (t, sink, _) = tracer();
        let trace = t.new_trace();
        let root = t.span(trace, None, 0, None, "stimulus", "root", 0, 0);
        t.set_current(trace, root);
        let mut obs = t.observer();
        // The four observations the tracer does not turn into spans.
        obs.stimulus(1, "tunnel");
        obs.signal_sent(1, 3, "open");
        obs.signal_received(1, 3, "open");
        obs.meta_signal(1, 2, "peer");
        // One of each that it does.
        obs.slot_transition(1, 3, "closed", "opening", "user");
        obs.race_resolved(1, 3, false);
        obs.race_resolved(1, 3, true);
        obs.signal_ignored(1, 3, "stale oack");
        obs.goal_activated(1, 3, "userAgent");
        obs.goal_dropped(1, 3, "userAgent");
        obs.fault_injected(1, "drop");
        obs.retransmission(1, 3, "open");
        obs.recovered(1, 3, 2, 0);
        let spans: Vec<(&str, String)> = sink.snapshot()[1..]
            .iter()
            .map(|s| (s.kind, s.label.clone()))
            .collect();
        let expect = [
            ("slot_transition", "s3:closed->opening (user)"),
            ("race", "s3: open/open race backed off"),
            ("race", "s3: open/open race won"),
            ("ignored", "s3: stale oack"),
            ("goal", "s3: +userAgent"),
            ("goal", "s3: -userAgent"),
            ("fault", "drop"),
            ("retransmission", "s3: resend open"),
            ("recovery", "s3: recovered after 2 resends"),
        ];
        let expect: Vec<(&str, String)> = expect.iter().map(|&(k, l)| (k, l.to_string())).collect();
        assert_eq!(spans, expect);
    }

    #[test]
    fn attribution_buckets_by_kind() {
        let mk = |kind, start, end| SpanRecord {
            trace: TraceId(1),
            id: SpanId(1),
            parent: None,
            bx: 0,
            from: None,
            kind,
            label: String::new(),
            start_micros: start,
            end_micros: end,
        };
        let spans = vec![
            mk("stimulus", 0, 10),
            mk("transit", 10, 54_010),
            mk("retransmission", 0, 7),
            mk("tunnel_setup", 0, 100_000),
            mk("slot_transition", 5, 5),
        ];
        let a = attribute(&spans);
        assert_eq!(a.signaling_us, 10);
        assert_eq!(a.propagation_us, 54_000);
        assert_eq!(a.retransmission_us, 7);
        assert_eq!(a.other_us, 100_000);
        assert_eq!(a.spans, 5);
        assert_eq!(a.total_us(), 154_017);
        let by_get: u64 = ATTRIBUTION_CATEGORIES.iter().map(|c| a.get(c)).sum();
        assert_eq!(by_get, a.total_us());
    }

    #[test]
    fn chrome_trace_json_is_well_formed() {
        let (t, sink, _) = tracer();
        let trace = t.new_trace();
        let root = t.span(trace, None, 0, None, "stimulus", "user \"open\"", 0, 5);
        t.span(trace, Some(root), 1, Some(0), "transit", "open", 5, 54_005);
        let json = chrome_trace_json(&sink.snapshot());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"cat\":\"transit\""));
        assert!(json.contains("\"dur\":54000"));
        assert!(json.contains("user \\\"open\\\""));
        assert!(json.contains("\"parent\":1"));
        assert!(json.ends_with("\"displayTimeUnit\":\"ms\"}"));
    }
}
