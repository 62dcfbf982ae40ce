//! Baseline suppression: existing findings can be grandfathered without
//! turning the gate off.
//!
//! A [`Baseline`] is a plain-text file of fingerprints (one per line,
//! `#` comments); [`Baseline::apply`] splits a report into kept and
//! suppressed findings. Fingerprints are `code@location`, so a
//! baseline survives message rewording but not moving a finding.

use crate::diag::Diagnostic;
use std::collections::BTreeSet;

/// A set of suppressed finding fingerprints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    fingerprints: BTreeSet<String>,
}

impl Baseline {
    /// Parse a baseline file: one fingerprint per line, blank lines and
    /// `#` comments ignored.
    pub fn parse(src: &str) -> Self {
        let fingerprints = src
            .lines()
            .filter_map(|l| {
                let l = l.split('#').next().unwrap_or("").trim();
                (!l.is_empty()).then(|| l.to_string())
            })
            .collect();
        Self { fingerprints }
    }

    /// Number of fingerprints in the baseline.
    pub fn len(&self) -> usize {
        self.fingerprints.len()
    }

    /// True iff the baseline suppresses nothing.
    pub fn is_empty(&self) -> bool {
        self.fingerprints.is_empty()
    }

    /// True iff `d`'s fingerprint is suppressed.
    pub fn suppresses(&self, d: &Diagnostic) -> bool {
        self.fingerprints.contains(&d.fingerprint())
    }

    /// Split a report into `(kept, suppressed)`, preserving order.
    pub fn apply(&self, diags: Vec<Diagnostic>) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
        diags.into_iter().partition(|d| !self.suppresses(d))
    }

    /// Fingerprints in the baseline that match none of `diags` — stale
    /// suppressions whose underlying finding was since fixed (or moved).
    /// `diags` must be the full pre-baseline report (kept + suppressed).
    pub fn stale(&self, diags: &[Diagnostic]) -> Vec<String> {
        let live: BTreeSet<String> = diags.iter().map(Diagnostic::fingerprint).collect();
        self.fingerprints
            .iter()
            .filter(|fp| !live.contains(*fp))
            .cloned()
            .collect()
    }

    /// A copy with the stale fingerprints (per [`Baseline::stale`])
    /// removed, for `--prune-baseline`.
    pub fn pruned(&self, diags: &[Diagnostic]) -> Self {
        let live: BTreeSet<String> = diags.iter().map(Diagnostic::fingerprint).collect();
        Self {
            fingerprints: self
                .fingerprints
                .iter()
                .filter(|fp| live.contains(*fp))
                .cloned()
                .collect(),
        }
    }

    /// Render this baseline back as file text (same header and sorted
    /// form as [`Baseline::render`]).
    pub fn to_text(&self) -> String {
        let mut out = String::from(
            "# ipmedia-lint baseline: one suppressed finding fingerprint per line.\n\
             # Fingerprints are code@scenario/program/state; `#` starts a comment.\n",
        );
        for fp in &self.fingerprints {
            out.push_str(fp);
            out.push('\n');
        }
        out
    }

    /// Render a report as baseline-file text (dedup'd, sorted), for
    /// `--write-baseline`.
    pub fn render(diags: &[Diagnostic]) -> String {
        let mut out = String::from(
            "# ipmedia-lint baseline: one suppressed finding fingerprint per line.\n\
             # Fingerprints are code@scenario/program/state; `#` starts a comment.\n",
        );
        let fps: BTreeSet<String> = diags.iter().map(Diagnostic::fingerprint).collect();
        for fp in fps {
            out.push_str(&fp);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic::error("AZ501", "chain cannot converge")
                .in_scenario("s")
                .in_program("p")
                .at_state("q"),
            Diagnostic::warning("AZ602", "close can cross")
                .in_scenario("s")
                .in_program("p2")
                .with_note("add an escape"),
        ]
    }

    #[test]
    fn baseline_round_trips_and_suppresses() {
        let diags = sample();
        let text = Baseline::render(&diags);
        let base = Baseline::parse(&text);
        assert_eq!(base.len(), 2);
        let (kept, suppressed) = base.apply(diags);
        assert!(kept.is_empty(), "{kept:?}");
        assert_eq!(suppressed.len(), 2);
    }

    #[test]
    fn baseline_ignores_comments_and_misses() {
        let base = Baseline::parse("# header\n\nAZ501@s/p/q # old finding\n");
        assert_eq!(base.len(), 1);
        let (kept, suppressed) = base.apply(sample());
        assert_eq!(kept.len(), 1);
        assert_eq!(suppressed.len(), 1);
        assert_eq!(kept[0].code, "AZ602");
    }

    #[test]
    fn stale_fingerprints_are_detected_and_pruned() {
        let diags = sample();
        let base = Baseline::parse("AZ501@s/p/q\nAZ999@gone/away # fixed long ago\n");
        let stale = base.stale(&diags);
        assert_eq!(stale, vec!["AZ999@gone/away".to_string()]);
        let pruned = base.pruned(&diags);
        assert_eq!(pruned.len(), 1);
        assert!(pruned.stale(&diags).is_empty());
        let text = pruned.to_text();
        assert!(text.contains("AZ501@s/p/q"), "{text}");
        assert!(!text.contains("AZ999"), "{text}");
        // to_text/parse round-trips.
        assert_eq!(Baseline::parse(&text), pruned);
    }

    #[test]
    fn empty_baseline_keeps_everything() {
        let base = Baseline::parse("# nothing suppressed\n");
        assert!(base.is_empty());
        let (kept, suppressed) = base.apply(sample());
        assert_eq!(kept.len(), 2);
        assert!(suppressed.is_empty());
    }
}
