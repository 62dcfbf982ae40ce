//! Spans recorded by the benchmark's own files around calls into each
//! crate's public functions (choosing-metrics §4): name, start, end, the
//! span that caused it, and the repetition it belongs to. Kept in memory,
//! written out when the run ends. `obs::trace` is not reused: it stamps
//! microseconds and allocates a label per span, and a netsim step is ~1 µs.

use ipmedia_obs::{json_array, JsonObj};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Repetition (storm, wave, op, sweep) the span belongs to.
    pub rep: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn ms(&self) -> f64 {
        self.ns() as f64 / 1e6
    }
}

/// Handle returned by [`Spans::enter`]; `None` while recording is off.
pub type Open = Option<u32>;

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    rep: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// A recorder that is off until [`Spans::set_enabled`].
    pub fn new() -> Self {
        Self {
            enabled: false,
            epoch: Instant::now(),
            rep: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans opened from now on belong to repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            rep: self.rep,
            parent: self.stack.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(idx);
        Some(idx)
    }

    /// Close the span `open` names. Spans close innermost first.
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open else { return };
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close innermost first");
        self.spans[idx as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every closed span called `name`.
    pub fn ms_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Per span name: count, total time, and self time — the span's
    /// duration minus the part its child spans cover — in first-seen order.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.ns();
            }
        }
        let mut out: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let own = s.ns().saturating_sub(covered);
            match out.iter_mut().find(|(n, ..)| *n == s.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += s.ns();
                    row.3 += own;
                }
                None => out.push((s.name, 1, s.ns(), own)),
            }
        }
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span, `args` carrying the repetition and the parent.
    pub fn chrome_trace(&self) -> String {
        let events = self.spans.iter().enumerate().map(|(i, s)| {
            let args = JsonObj::new()
                .num("id", i as u64)
                .num("rep", u64::from(s.rep))
                .raw("parent", &s.parent.map_or("null".into(), |p| p.to_string()));
            JsonObj::new()
                .str("name", s.name)
                .str("ph", "X")
                .float("ts", s.start_ns as f64 / 1e3)
                .float("dur", s.ns() as f64 / 1e3)
                .num("pid", 1)
                .num("tid", 1)
                .raw("args", &args.finish())
                .finish()
        });
        JsonObj::new()
            .raw("traceEvents", &json_array(events))
            .str("displayTimeUnit", "ns")
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new();
        let o = s.enter("a");
        s.exit(o);
        assert!(s.all().is_empty());
    }

    #[test]
    fn nesting_gives_parents_and_self_time() {
        let mut s = Spans::new();
        s.set_enabled(true);
        s.set_rep(7);
        let outer = s.enter("outer");
        let inner = s.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.exit(inner);
        s.exit(outer);
        let again = s.enter("inner");
        s.exit(again);
        let all = s.all();
        assert_eq!(all.len(), 3);
        assert_eq!(
            (all[0].parent, all[1].parent, all[2].parent),
            (None, Some(0), None)
        );
        assert!(all.iter().all(|sp| sp.rep == 7));
        let st = s.self_times();
        assert_eq!((st[0].0, st[0].1), ("outer", 1));
        assert_eq!((st[1].0, st[1].1), ("inner", 2));
        // The outer span's self time excludes what the inner one covers.
        assert_eq!(st[0].3, all[0].ns() - all[1].ns());
        assert!(st[0].3 < all[1].ns());
        let parsed = crate::json::parse(&s.chrome_trace()).expect("valid JSON");
        assert_eq!(
            parsed.get("traceEvents").unwrap().as_arr().unwrap().len(),
            3
        );
    }
}
