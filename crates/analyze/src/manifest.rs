//! Scenario fingerprints and the verified manifest: what the static
//! analyzer tells the runtime monitor about *which exact model text* it
//! verified.
//!
//! A fingerprint is a 64-bit FNV-1a hash (hex, 16 chars) over
//! `"ipm-analyzer-v{ANALYZER_VERSION}\n"` plus [`crate::to_ipm`] of
//! [`ScenarioModel::canonicalized`] (boxes and programs sorted by box
//! name; every other order is analysis-visible and preserved). The
//! version salt makes every fingerprint change when pass behavior
//! changes, so a manifest written by an older analyzer never matches.

use crate::parse::to_ipm;
use ipmedia_core::hash::{fnv1a, fnv1a_extend};
use ipmedia_core::program::model::ScenarioModel;

/// Version salt folded into every fingerprint. Bump whenever any pass's
/// observable output can change, so old manifests stop matching.
pub const ANALYZER_VERSION: u32 = 1;

/// Fingerprint of arbitrary canonical text under the analyzer-version salt.
pub fn fingerprint_text(text: &str) -> String {
    let salt = fnv1a(format!("ipm-analyzer-v{ANALYZER_VERSION}\n").as_bytes());
    format!("{:016x}", fnv1a_extend(salt, text.as_bytes()))
}

/// Whole-scenario fingerprint over the canonical `.ipm` form.
pub fn scenario_fingerprint(sc: &ScenarioModel) -> String {
    fingerprint_text(&to_ipm(&sc.canonicalized()))
}

/// Clean/finding-bearing verdict for one analyzed scenario, keyed by its
/// content fingerprint — one line of the verified manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioVerdict {
    /// Scenario name (informational; the fingerprint is the key).
    pub name: String,
    /// Whole-scenario content fingerprint.
    pub fingerprint: String,
    /// True iff the analyzer found nothing (before baseline suppression).
    pub clean: bool,
}

/// Render verdicts as the plain-text verified manifest consumed by
/// `ipmedia-monitor --verified-manifest`: one `<fingerprint>
/// <clean|findings> <scenario>` line, `#` comments. The header is kept
/// byte for byte as the cached lint path wrote it, flag name included.
pub fn render_manifest(verdicts: &[ScenarioVerdict]) -> String {
    let mut out = String::from(
        "# ipmedia verified manifest: <fingerprint> <clean|findings> <scenario>\n\
         # Written by `ipmedia-lint --incremental --emit-manifest`; consumed by\n\
         # `ipmedia-monitor --verified-manifest`. Fingerprints are salted with\n\
         # the analyzer version, so a stale manifest never matches.\n",
    );
    for v in verdicts {
        out.push_str(&v.fingerprint);
        out.push(' ');
        out.push_str(if v.clean { "clean" } else { "findings" });
        out.push(' ');
        out.push_str(&v.name);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipmedia_core::path::Topology;
    use ipmedia_core::program::model::{ProgramModel, StateModel};

    fn scenario(name: &str) -> ScenarioModel {
        ScenarioModel::new(name)
            .program(
                "a",
                ProgramModel::new("a")
                    .state(StateModel::new("init").final_state())
                    .state(StateModel::new("orphan").final_state()),
            )
            .with_topology(Topology::new().with_box("a"))
    }

    #[test]
    fn fingerprints_are_stable_and_name_sensitive() {
        let sc = scenario("s");
        assert_eq!(scenario_fingerprint(&sc), scenario_fingerprint(&sc));
        assert_ne!(
            scenario_fingerprint(&sc),
            scenario_fingerprint(&scenario("other"))
        );
        assert_eq!(scenario_fingerprint(&sc).len(), 16);
    }

    #[test]
    fn manifest_lists_fingerprint_verdict_and_name() {
        let text = render_manifest(&[
            ScenarioVerdict {
                name: "clean_one".into(),
                fingerprint: "00ff00ff00ff00ff".into(),
                clean: true,
            },
            ScenarioVerdict {
                name: "dirty_one".into(),
                fingerprint: "1122334455667788".into(),
                clean: false,
            },
        ]);
        assert!(
            text.contains("00ff00ff00ff00ff clean clean_one\n"),
            "{text}"
        );
        assert!(
            text.contains("1122334455667788 findings dirty_one\n"),
            "{text}"
        );
    }
}
