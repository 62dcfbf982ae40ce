//! Lock-free metrics: atomic counters keyed by signal kind plus
//! fixed-bucket latency histograms.
//!
//! A [`Registry`] is shared (`Arc`) between the recording side — a
//! [`CountingObserver`] threaded through the protocol engines, and direct
//! `observe_*` calls at the points where latencies close — and any number
//! of reader threads taking [`MetricsSnapshot`]s. All cells are
//! `AtomicU64` with relaxed ordering: counts are independent facts, no
//! cross-cell ordering is needed, and a snapshot taken mid-burst is
//! allowed to be a few events stale.

use crate::{ObsEvent, Observer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The closed set of protocol signal kinds (`Signal::kind()` in
/// `ipmedia-core`), plus a catch-all bucket for forward compatibility.
pub const SIGNAL_KINDS: [&str; 7] = [
    "open", "oack", "close", "closeack", "describe", "select", "other",
];

/// Index of a signal kind in [`SIGNAL_KINDS`]; unknown names map to the
/// final `"other"` bucket instead of being dropped.
pub fn kind_index(kind: &str) -> usize {
    SIGNAL_KINDS
        .iter()
        .position(|k| *k == kind)
        .unwrap_or(SIGNAL_KINDS.len() - 1)
}

/// The closed set of injectable network-fault kinds, plus a catch-all
/// bucket mirroring [`SIGNAL_KINDS`].
pub const FAULT_KINDS: [&str; 9] = [
    "drop",
    "duplicate",
    "reorder",
    "delay",
    "partition",
    // Kept for the exporters' bytes and for readers outside this crate;
    // `rt` waits on a full writer queue and no longer produces it.
    "shed",
    "crash",
    "restart",
    "other",
];

/// Index of a fault kind in [`FAULT_KINDS`]; unknown names map to the
/// final `"other"` bucket.
pub fn fault_index(kind: &str) -> usize {
    FAULT_KINDS
        .iter()
        .position(|k| *k == kind)
        .unwrap_or(FAULT_KINDS.len() - 1)
}

/// A fixed-bucket histogram with Prometheus `le` (upper-inclusive bound)
/// semantics and a trailing overflow bucket.
///
/// `counts` has `bounds.len() + 1` cells; a value `v` lands in the first
/// bucket whose bound satisfies `v <= bound`, or in the last cell if it
/// exceeds every bound.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
}

impl Histogram {
    /// `bounds` must be strictly increasing.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    pub fn observe(&self, value: u64) {
        let idx = self.bounds.partition_point(|b| *b < value);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

impl Histogram {
    /// An empty [`Tally`] over this histogram's buckets.
    pub fn tally(&self) -> Tally {
        Tally {
            bounds: self.bounds.clone(),
            counts: vec![0; self.counts.len()],
            sum: 0,
        }
    }

    /// Add what `tally` observed into the histogram, and empty it.
    pub fn absorb(&self, tally: &mut Tally) {
        debug_assert_eq!(tally.bounds, self.bounds, "a tally of another histogram");
        for (cell, n) in self.counts.iter().zip(&mut tally.counts) {
            if *n > 0 {
                cell.fetch_add(std::mem::take(n), Ordering::Relaxed);
            }
        }
        if tally.sum > 0 {
            self.sum
                .fetch_add(std::mem::take(&mut tally.sum), Ordering::Relaxed);
        }
    }
}

/// Observations one thread keeps for a [`Histogram`] and adds into it in
/// one go ([`Histogram::absorb`]): a plain count per bucket, so an
/// observation costs no atomic operation, and readers of the histogram
/// see the tally's observations only once absorbed.
#[derive(Debug, Clone)]
pub struct Tally {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    sum: u64,
}

impl Tally {
    pub fn observe(&mut self, value: u64) {
        let idx = self.bounds.partition_point(|b| *b < value);
        self.counts[idx] += 1;
        self.sum += value;
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Upper-inclusive bucket bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; one longer than `bounds`, the extra final cell
    /// counting values above the last bound.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    pub fn overflow(&self) -> u64 {
        *self.counts.last().unwrap_or(&0)
    }
}

/// Bucket bounds of `recovery_latency_ms`, exported for harnesses that
/// bucket recovery latencies of their own. One retransmission round trip
/// is ≥ the 200ms backoff base, so buckets span one to several doubling
/// rounds.
pub const RECOVERY_LATENCY_MS_BOUNDS: [u64; 8] = [200, 400, 800, 1600, 3200, 6400, 12_800, 25_600];

/// One metric of a [`MetricsSnapshot`] as an exporter sees it.
#[derive(Debug, Clone, Copy)]
pub struct Metric<'a> {
    /// The field name; the key in [`crate::export::snapshot_json`].
    pub name: &'static str,
    /// The name in [`crate::export::prometheus_text`].
    pub prometheus: &'static str,
    pub value: MetricValue<'a>,
}

/// The three shapes a metric takes.
#[derive(Debug, Clone, Copy)]
pub enum MetricValue<'a> {
    Counter(u64),
    /// One counter per kind name, in the order of the names.
    ByKind(&'static [&'static str], &'a [u64]),
    Histogram(&'a HistogramSnapshot),
}

/// Generates [`Registry`], [`MetricsSnapshot`] and the [`Metric`] list the
/// exporters loop over from one row per metric:
/// `field: kind => "prometheus_name";`, where `kind` is `counter`,
/// `by_kind(KIND_NAMES)` or `histogram(bounds)`. Rows are in JSON export
/// order. A `pub` row lets recording sites reach the cell directly.
macro_rules! metric_table {
    (@cell counter) => { AtomicU64 };
    (@cell by_kind $kinds:expr) => { [AtomicU64; $kinds.len()] };
    (@cell histogram $bounds:expr) => { Histogram };
    (@snap counter) => { u64 };
    (@snap by_kind $kinds:expr) => { [u64; $kinds.len()] };
    (@snap histogram $bounds:expr) => { HistogramSnapshot };
    (@new histogram $bounds:expr) => { Histogram::new(&$bounds) };
    (@new $kind:ident $($kinds:expr)?) => { Default::default() };
    (@load $cell:expr, counter) => { $cell.load(Ordering::Relaxed) };
    (@load $cell:expr, by_kind $kinds:expr) => { $cell.each_ref().map(|c| c.load(Ordering::Relaxed)) };
    (@load $cell:expr, histogram $bounds:expr) => { $cell.snapshot() };
    (@value $v:expr, counter) => { MetricValue::Counter($v) };
    (@value $v:expr, by_kind $kinds:expr) => { MetricValue::ByKind(&$kinds, &$v) };
    (@value $v:expr, histogram $bounds:expr) => { MetricValue::Histogram(&$v) };
    ($($(#[$doc:meta])* $vis:vis $field:ident: $kind:ident $(($arg:expr))? => $prom:literal;)*) => {
        /// All counters and histograms for one node (or one simulation).
        ///
        /// Histogram units are encoded in the field names; the
        /// protocol-latency histograms are in milliseconds (the paper
        /// reports setup/convergence figures in ms) while per-stimulus
        /// compute is in microseconds.
        #[derive(Debug)]
        pub struct Registry {
            $($(#[$doc])* $vis $field: metric_table!(@cell $kind $($arg)?),)*
        }

        impl Registry {
            pub fn new() -> Self {
                Registry { $($field: metric_table!(@new $kind $($arg)?),)* }
            }

            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot { $($field: metric_table!(@load self.$field, $kind $($arg)?),)* }
            }
        }

        /// A point-in-time copy of a [`Registry`], cheap to clone and compare.
        #[derive(Debug, Clone, PartialEq, Eq, Default)]
        pub struct MetricsSnapshot {
            $($(#[$doc])* pub $field: metric_table!(@snap $kind $($arg)?),)*
        }

        impl MetricsSnapshot {
            /// Every metric, in declaration order.
            pub fn metrics(&self) -> Vec<Metric<'_>> {
                vec![$(Metric {
                    name: stringify!($field),
                    prometheus: $prom,
                    value: metric_table!(@value self.$field, $kind $($arg)?),
                },)*]
            }
        }
    };
}

metric_table! {
    /// Signals sent, indexed by [`SIGNAL_KINDS`].
    signals_sent: by_kind(SIGNAL_KINDS) => "ipmedia_signals_sent_total";
    /// Signals received, indexed by [`SIGNAL_KINDS`]; readable live, as a
    /// wait on a count must not allocate.
    pub signals_received: by_kind(SIGNAL_KINDS) => "ipmedia_signals_received_total";
    stimuli: counter => "ipmedia_stimuli_total";
    goal_activations: counter => "ipmedia_goal_activations_total";
    goal_drops: counter => "ipmedia_goal_drops_total";
    races_resolved: counter => "ipmedia_races_resolved_total";
    signals_ignored: counter => "ipmedia_signals_ignored_total";
    meta_signals: counter => "ipmedia_meta_signals_total";
    /// Faults injected by the environment, indexed by [`FAULT_KINDS`].
    faults_injected: by_kind(FAULT_KINDS) => "ipmedia_faults_injected_total";
    retransmissions: counter => "ipmedia_retransmissions_total";
    recoveries: counter => "ipmedia_recoveries_total";
    /// Model-checker seen-set hits (transitions collapsed onto
    /// already-interned states), summed over recorded runs.
    mck_dedup_hits: counter => "ipmedia_mck_dedup_hits_total";
    /// Model-checker transitions executed as local steps — the first of
    /// each `(action, components read)` — rather than looked up.
    mck_local_steps: counter => "ipmedia_mck_local_steps_total";
    /// Model-checker successors rebuilt as whole states to be
    /// canonicalized, their rows not being canonical on their ids.
    mck_canonicalized: counter => "ipmedia_mck_canonicalized_total";
    /// Channel + first-slot setup latency (§V: 2n+3c for a fresh path).
    /// On `rt` it times the channel dial alone, one observation per
    /// answered dial; a call's setup there is `call_setup_us`.
    pub tunnel_setup_ms: histogram([50, 100, 150, 200, 250, 300, 400, 500, 750, 1000])
        => "ipmedia_tunnel_setup_ms";
    /// One call's setup on `rt`, one observation per call: from the slot
    /// entering `opening` (this end sent the open) to its reaching
    /// `flowing`.
    pub call_setup_us: histogram([
        50, 100, 200, 500, 1000, 2000, 5000, 10_000, 50_000, 100_000, 1_000_000,
    ]) => "ipmedia_call_setup_us";
    /// Flow-link reconvergence after a relink (§VII, Fig. 13).
    pub flowlink_convergence_ms: histogram([25, 50, 75, 100, 150, 200, 300, 400, 600, 800])
        => "ipmedia_flowlink_convergence_ms";
    /// Compute time per stimulus, one observation each. On `rt` it is the
    /// actor's whole time per stimulus: from the end of the previous
    /// stimulus of the same wake (or from the wake) to the end of this one,
    /// the box's `handle`, decoding the frame and executing its effects
    /// included, time waiting for writer room (`writer_wait_us`) excluded.
    /// The actor tallies it and adds the tally in at every snapshot
    /// publish.
    pub stimulus_compute_us: histogram([1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 5000])
        => "ipmedia_stimulus_compute_us";
    /// Time an `rt` actor waited for room in a connection's full writer
    /// queue, one observation per wait.
    pub writer_wait_us: histogram([10, 100, 1000, 10_000, 100_000, 1_000_000, 5_000_000])
        => "ipmedia_writer_wait_us";
    /// Time from a pending await first appearing to its resolution, for
    /// awaits that needed at least one retransmission.
    pub recovery_latency_ms: histogram(RECOVERY_LATENCY_MS_BOUNDS)
        => "ipmedia_recovery_latency_ms";
    /// Model-checker expansion throughput, one observation per explored
    /// configuration (states expanded per second of exploration). Rates
    /// span hobby-sized models (kilo states/s with deep cloning) up to
    /// saturated multicore runs.
    pub mck_states_per_sec: histogram([
        1_000, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000, 1_000_000, 2_500_000,
    ]) => "ipmedia_mck_states_per_sec";
}

impl Registry {
    /// Add seen-set hits from one model-checking run.
    pub fn add_mck_dedup_hits(&self, hits: u64) {
        self.mck_dedup_hits.fetch_add(hits, Ordering::Relaxed);
    }

    /// Add how one model-checking run stepped its transitions.
    pub fn add_mck_steps(&self, local_steps: u64, canonicalized: u64) {
        self.mck_local_steps
            .fetch_add(local_steps, Ordering::Relaxed);
        self.mck_canonicalized
            .fetch_add(canonicalized, Ordering::Relaxed);
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsSnapshot {
    pub fn signals_sent_total(&self) -> u64 {
        self.signals_sent.iter().sum()
    }

    pub fn signals_received_total(&self) -> u64 {
        self.signals_received.iter().sum()
    }

    pub fn sent(&self, kind: &str) -> u64 {
        self.signals_sent[kind_index(kind)]
    }

    pub fn received(&self, kind: &str) -> u64 {
        self.signals_received[kind_index(kind)]
    }

    pub fn faults_total(&self) -> u64 {
        self.faults_injected.iter().sum()
    }

    pub fn faults(&self, kind: &str) -> u64 {
        self.faults_injected[fault_index(kind)]
    }
}

/// Observer that increments a shared [`Registry`]. Composable with a
/// structural recorder via [`crate::Fanout`].
#[derive(Debug, Clone)]
pub struct CountingObserver {
    registry: Arc<Registry>,
}

impl CountingObserver {
    pub fn new(registry: Arc<Registry>) -> Self {
        CountingObserver { registry }
    }
}

impl Observer for CountingObserver {
    fn observe(&mut self, ev: ObsEvent) {
        let r = &*self.registry;
        let counter = match ev {
            ObsEvent::Stimulus { .. } => &r.stimuli,
            ObsEvent::SignalSent { kind, .. } => &r.signals_sent[kind_index(kind)],
            ObsEvent::SignalReceived { kind, .. } => &r.signals_received[kind_index(kind)],
            ObsEvent::SlotTransition { .. } => return,
            ObsEvent::GoalActivated { .. } => &r.goal_activations,
            ObsEvent::GoalDropped { .. } => &r.goal_drops,
            ObsEvent::RaceResolved { .. } => &r.races_resolved,
            ObsEvent::SignalIgnored { .. } => &r.signals_ignored,
            ObsEvent::MetaSignal { .. } => &r.meta_signals,
            ObsEvent::FaultInjected { kind, .. } => &r.faults_injected[fault_index(kind)],
            ObsEvent::Retransmission { .. } => &r.retransmissions,
            ObsEvent::Recovered { elapsed_ms, .. } => {
                r.recovery_latency_ms.observe(elapsed_ms);
                &r.recoveries
            }
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries_are_upper_inclusive() {
        let h = Histogram::new(&[10, 20, 50]);
        // Exactly on a bound lands in that bound's bucket (`le` semantics).
        h.observe(0);
        h.observe(10); // le 10
        h.observe(11); // le 20
        h.observe(20); // le 20
        h.observe(21); // le 50
        h.observe(50); // le 50
        let s = h.snapshot();
        assert_eq!(s.bounds, vec![10, 20, 50]);
        assert_eq!(s.counts, vec![2, 2, 2, 0]);
        assert_eq!(s.sum, 112);
        assert_eq!(s.total(), 6);
        assert_eq!(s.overflow(), 0);
    }

    #[test]
    fn histogram_overflow_bucket_catches_values_above_last_bound() {
        let h = Histogram::new(&[10, 20, 50]);
        h.observe(51);
        h.observe(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.counts, vec![0, 0, 0, 2]);
        assert_eq!(s.overflow(), 2);
        assert_eq!(s.sum, 1_000_051);
    }

    /// A tally absorbed reads as the same observations made directly, and
    /// is empty after.
    #[test]
    fn an_absorbed_tally_is_its_observations() {
        let (direct, tallied) = (Histogram::new(&[10, 20]), Histogram::new(&[10, 20]));
        let mut tally = tallied.tally();
        for v in [0, 10, 15, 99] {
            direct.observe(v);
            tally.observe(v);
        }
        assert_eq!(tallied.snapshot().total(), 0, "not absorbed yet");
        tallied.absorb(&mut tally);
        tallied.absorb(&mut tally);
        assert_eq!(tallied.snapshot(), direct.snapshot());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[10, 10, 50]);
    }

    #[test]
    fn kind_index_maps_unknowns_to_other() {
        assert_eq!(kind_index("open"), 0);
        assert_eq!(kind_index("select"), 5);
        assert_eq!(kind_index("frobnicate"), SIGNAL_KINDS.len() - 1);
    }

    #[test]
    fn counting_observer_updates_registry() {
        let r = Arc::new(Registry::new());
        let mut obs = CountingObserver::new(r.clone());
        obs.stimulus(0, "tunnel");
        obs.signal_sent(0, 0, "open");
        obs.signal_sent(0, 0, "open");
        obs.signal_received(1, 0, "oack");
        obs.race_resolved(1, 0, false);
        obs.signal_ignored(1, 0, "close/close race");
        obs.goal_activated(0, 0, "userAgent", None);
        obs.goal_dropped(0, 0, "userAgent");
        obs.meta_signal(0, 3, "peer");

        let s = r.snapshot();
        assert_eq!(s.stimuli, 1);
        assert_eq!(s.sent("open"), 2);
        assert_eq!(s.received("oack"), 1);
        assert_eq!(s.signals_sent_total(), 2);
        assert_eq!(s.signals_received_total(), 1);
        assert_eq!(s.races_resolved, 1);
        assert_eq!(s.signals_ignored, 1);
        assert_eq!(s.goal_activations, 1);
        assert_eq!(s.goal_drops, 1);
        assert_eq!(s.meta_signals, 1);
    }

    #[test]
    fn counting_observer_tracks_faults_and_recovery() {
        let r = Arc::new(Registry::new());
        let mut obs = CountingObserver::new(r.clone());
        obs.fault_injected(0, "drop");
        obs.fault_injected(0, "drop");
        obs.fault_injected(1, "duplicate");
        obs.fault_injected(1, "cosmic-ray");
        obs.retransmission(0, 0, "open");
        obs.retransmission(0, 0, "refresh");
        obs.recovered(0, 0, 2, 450);

        let s = r.snapshot();
        assert_eq!(s.faults("drop"), 2);
        assert_eq!(s.faults("duplicate"), 1);
        assert_eq!(s.faults("other"), 1);
        assert_eq!(s.faults_total(), 4);
        assert_eq!(s.retransmissions, 2);
        assert_eq!(s.recoveries, 1);
        assert_eq!(s.recovery_latency_ms.total(), 1);
        assert_eq!(s.recovery_latency_ms.sum, 450);
        // 450ms lands in the `le 800` bucket.
        assert_eq!(s.recovery_latency_ms.counts[2], 1);
    }

    #[test]
    fn mck_metrics_accumulate() {
        let r = Registry::new();
        r.add_mck_dedup_hits(120_000);
        r.add_mck_dedup_hits(5);
        r.add_mck_steps(14_000, 4_000);
        r.add_mck_steps(393, 688);
        r.mck_states_per_sec.observe(42_000); // le 50_000
        r.mck_states_per_sec.observe(3_000_000); // overflow
        let s = r.snapshot();
        assert_eq!(s.mck_dedup_hits, 120_005);
        assert_eq!((s.mck_local_steps, s.mck_canonicalized), (14_393, 4_688));
        assert_eq!(s.mck_states_per_sec.total(), 2);
        assert_eq!(s.mck_states_per_sec.counts[4], 1);
        assert_eq!(s.mck_states_per_sec.overflow(), 1);
    }

    #[test]
    fn registry_histograms_have_paper_scale_buckets() {
        let r = Registry::new();
        // Fig. 13: a single concurrent relink converges in 128ms.
        r.flowlink_convergence_ms.observe(128);
        // §V fresh setup for k=1: 236ms.
        r.tunnel_setup_ms.observe(236);
        let s = r.snapshot();
        assert_eq!(s.flowlink_convergence_ms.counts[4], 1); // le 150
        assert_eq!(s.flowlink_convergence_ms.total(), 1);
        assert_eq!(s.tunnel_setup_ms.counts[4], 1); // le 250
        assert_eq!(s.tunnel_setup_ms.overflow(), 0);
    }
}
