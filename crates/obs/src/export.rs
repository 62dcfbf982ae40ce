//! Export formats: hand-rolled JSON (the workspace has no serde) and a
//! Prometheus-style text rendering of a [`MetricsSnapshot`].
//!
//! JSONL convention used by the bin targets: one [`JsonObj`] per line on
//! stdout is the machine-readable record; anything meant for a human goes
//! to stderr.

use crate::metrics::{HistogramSnapshot, MetricValue, MetricsSnapshot};
use crate::trace::{Attribution, ATTRIBUTION_CATEGORIES};
use std::fmt::Write as _;

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Minimal ordered JSON-object builder. Fields appear in insertion order;
/// `raw` splices pre-rendered JSON (numbers built elsewhere, nested
/// objects, arrays).
#[derive(Debug, Default)]
pub struct JsonObj {
    body: String,
}

impl JsonObj {
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, k: &str) -> &mut String {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        let _ = write!(self.body, "\"{}\":", json_escape(k));
        &mut self.body
    }

    pub fn str(mut self, k: &str, v: &str) -> Self {
        let escaped = json_escape(v);
        let _ = write!(self.key(k), "\"{escaped}\"");
        self
    }

    pub fn num(mut self, k: &str, v: u64) -> Self {
        let _ = write!(self.key(k), "{v}");
        self
    }

    pub fn float(mut self, k: &str, v: f64) -> Self {
        let _ = write!(self.key(k), "{v}");
        self
    }

    pub fn bool(mut self, k: &str, v: bool) -> Self {
        let _ = write!(self.key(k), "{v}");
        self
    }

    pub fn raw(mut self, k: &str, v: &str) -> Self {
        let _ = write!(self.key(k), "{v}");
        self
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// Render a JSON array of string literals (escaped and quoted).
pub fn json_str_array<'a, I: IntoIterator<Item = &'a str>>(items: I) -> String {
    json_array(items.into_iter().map(|s| format!("\"{}\"", json_escape(s))))
}

/// Render a JSON array from pre-rendered element strings.
pub fn json_array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

fn histogram_json(h: &HistogramSnapshot) -> String {
    JsonObj::new()
        .raw(
            "bounds",
            &json_array(h.bounds.iter().map(|b| b.to_string())),
        )
        .raw(
            "counts",
            &json_array(h.counts.iter().map(|c| c.to_string())),
        )
        .num("sum", h.sum)
        .num("count", h.total())
        .finish()
}

fn kind_counts_json(kinds: &[&str], counts: &[u64]) -> String {
    let mut obj = JsonObj::new();
    for (kind, n) in kinds.iter().zip(counts) {
        obj = obj.num(kind, *n);
    }
    obj.finish()
}

/// One JSON object holding the whole snapshot — the payload written to
/// `BENCH_obs.json` and embedded in JSONL records.
pub fn snapshot_json(s: &MetricsSnapshot) -> String {
    let mut obj = JsonObj::new();
    for m in s.metrics() {
        obj = match m.value {
            MetricValue::Counter(n) => obj.num(m.name, n),
            MetricValue::ByKind(kinds, counts) => obj.raw(m.name, &kind_counts_json(kinds, counts)),
            MetricValue::Histogram(h) => obj.raw(m.name, &histogram_json(h)),
        };
    }
    obj.finish()
}

fn prom_histogram(out: &mut String, name: &str, h: &HistogramSnapshot) {
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    for (bound, count) in h.bounds.iter().zip(&h.counts) {
        cumulative += count;
        let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
    }
    cumulative += h.overflow();
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
    let _ = writeln!(out, "{name}_sum {}", h.sum);
    let _ = writeln!(out, "{name}_count {}", h.total());
}

/// Prometheus text exposition of a snapshot, suitable for serving from a
/// node's debug endpoint or dumping after a run. Families are grouped by
/// shape — per-kind counters, plain counters, histograms — each group in
/// declaration order.
pub fn prometheus_text(s: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let metrics = s.metrics();
    for m in &metrics {
        if let MetricValue::ByKind(kinds, counts) = m.value {
            let _ = writeln!(out, "# TYPE {} counter", m.prometheus);
            for (kind, n) in kinds.iter().zip(counts) {
                let _ = writeln!(out, "{}{{kind=\"{kind}\"}} {n}", m.prometheus);
            }
        }
    }
    for m in &metrics {
        if let MetricValue::Counter(n) = m.value {
            let _ = writeln!(out, "# TYPE {} counter", m.prometheus);
            let _ = writeln!(out, "{} {n}", m.prometheus);
        }
    }
    for m in &metrics {
        if let MetricValue::Histogram(h) = m.value {
            prom_histogram(&mut out, m.prometheus, h);
        }
    }
    out
}

/// Per-span latency attribution as one JSON object — where did the time
/// go: signaling compute, propagation, or retransmission overhead.
pub fn attribution_json(a: &Attribution) -> String {
    let mut obj = JsonObj::new();
    for cat in ATTRIBUTION_CATEGORIES {
        obj = obj.num(&format!("{cat}_us"), a.get(cat));
    }
    obj.num("total_us", a.total_us())
        .num("spans", a.spans)
        .finish()
}

/// Prometheus exposition of per-span latency attribution, labelled by
/// category to match [`crate::trace::attribution_category`].
pub fn attribution_prometheus_text(a: &Attribution) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# TYPE ipmedia_span_latency_us_total counter");
    for cat in ATTRIBUTION_CATEGORIES {
        let _ = writeln!(
            out,
            "ipmedia_span_latency_us_total{{category=\"{cat}\"}} {}",
            a.get(cat)
        );
    }
    let _ = writeln!(out, "# TYPE ipmedia_spans_total counter");
    let _ = writeln!(out, "ipmedia_spans_total {}", a.spans);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{01}"), "\\u0001");
    }

    #[test]
    fn json_obj_builds_ordered_fields() {
        let s = JsonObj::new()
            .str("event", "signal_sent")
            .num("at", 54000)
            .bool("won", false)
            .raw("extra", "[1,2]")
            .finish();
        assert_eq!(
            s,
            r#"{"event":"signal_sent","at":54000,"won":false,"extra":[1,2]}"#
        );
    }

    #[test]
    fn snapshot_json_is_wellformed_and_complete() {
        let r = Registry::new();
        r.tunnel_setup_ms.observe(236);
        let json = snapshot_json(&r.snapshot());
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "signals_sent",
            "signals_received",
            "stimuli",
            "races_resolved",
            "tunnel_setup_ms",
            "flowlink_convergence_ms",
            "stimulus_compute_us",
        ] {
            assert!(
                json.contains(&format!("\"{key}\":")),
                "missing {key} in {json}"
            );
        }
        assert!(json.contains("\"sum\":236"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let r = Registry::new();
        r.tunnel_setup_ms.observe(60); // le 100
        r.tunnel_setup_ms.observe(236); // le 250
        r.tunnel_setup_ms.observe(9999); // +Inf only
        let text = prometheus_text(&r.snapshot());
        assert!(text.contains("ipmedia_tunnel_setup_ms_bucket{le=\"50\"} 0"));
        assert!(text.contains("ipmedia_tunnel_setup_ms_bucket{le=\"100\"} 1"));
        assert!(text.contains("ipmedia_tunnel_setup_ms_bucket{le=\"250\"} 2"));
        assert!(text.contains("ipmedia_tunnel_setup_ms_bucket{le=\"1000\"} 2"));
        assert!(text.contains("ipmedia_tunnel_setup_ms_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("ipmedia_tunnel_setup_ms_count 3"));
    }

    #[test]
    fn attribution_exporters_cover_every_category() {
        let a = Attribution {
            signaling_us: 10,
            propagation_us: 54_000,
            retransmission_us: 7,
            other_us: 3,
            spans: 4,
        };
        let json = attribution_json(&a);
        let prom = attribution_prometheus_text(&a);
        for cat in ATTRIBUTION_CATEGORIES {
            assert!(
                json.contains(&format!("\"{cat}_us\":")),
                "json missing {cat}"
            );
            assert!(
                prom.contains(&format!("category=\"{cat}\"")),
                "prom missing {cat}"
            );
        }
        assert!(json.contains("\"total_us\":54020"));
        assert!(prom.contains("ipmedia_span_latency_us_total{category=\"propagation\"} 54000"));
        assert!(prom.contains("ipmedia_spans_total 4"));
    }
}
