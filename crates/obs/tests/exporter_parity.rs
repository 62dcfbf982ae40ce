//! Exporter parity: every metric in a [`MetricsSnapshot`] must appear in
//! both `snapshot_json` and `prometheus_text`. The check is structural —
//! top-level JSON keys are extracted from a fully-populated registry's
//! JSON export and diffed against the Prometheus metric families (and
//! vice versa) — so adding a field to the snapshot without teaching both
//! exporters about it fails here rather than silently dropping data from
//! one surface.

use ipmedia_obs::export::{prometheus_text, snapshot_json};
use ipmedia_obs::metrics::{CountingObserver, Registry, FAULT_KINDS, SIGNAL_KINDS};
use ipmedia_obs::Observer;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Populate every counter and histogram so both exports carry real data.
fn populated() -> Arc<Registry> {
    let registry = Arc::new(Registry::new());
    let mut obs = CountingObserver::new(registry.clone());
    for kind in SIGNAL_KINDS {
        obs.signal_sent(1, 0, kind);
        obs.signal_received(2, 0, kind);
    }
    for kind in FAULT_KINDS {
        obs.fault_injected(1, kind);
    }
    obs.stimulus(1, "user");
    obs.goal_activated(1, 0, "flowlink", Some(1));
    obs.goal_dropped(1, 0, "flowlink");
    obs.race_resolved(1, 0, true);
    obs.signal_ignored(1, 0, "stale");
    obs.meta_signal(1, 0, "peer");
    obs.retransmission(1, 0, "open");
    obs.recovered(1, 0, 2, 350);
    registry.add_mck_dedup_hits(7);
    registry.add_mck_steps(5, 2);
    registry.tunnel_setup_ms.observe(120);
    registry.call_setup_us.observe(900);
    registry.flowlink_convergence_ms.observe(88);
    registry.stimulus_compute_us.observe(15);
    registry.writer_wait_us.observe(700);
    registry.mck_states_per_sec.observe(50_000);
    registry
}

/// Top-level keys of a one-object JSON document (depth-1 scan; the
/// exporter's output is a flat object of scalars, arrays, and nested
/// histogram objects).
fn top_level_keys(json: &str) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut cur = String::new();
    let mut expecting_key = false;
    for c in json.chars() {
        match c {
            '"' if depth == 1 => {
                if in_str {
                    if expecting_key {
                        keys.insert(cur.clone());
                        expecting_key = false;
                    }
                    cur.clear();
                }
                in_str = !in_str;
            }
            _ if in_str && depth == 1 => cur.push(c),
            '{' | '[' => {
                if depth == 1 {
                    expecting_key = false;
                }
                depth += 1;
                if depth == 1 {
                    expecting_key = true;
                }
            }
            '}' | ']' => depth -= 1,
            ',' if depth == 1 => expecting_key = true,
            ':' if depth == 1 => expecting_key = false,
            _ => {}
        }
    }
    keys
}

/// Prometheus metric family names, with the workspace prefix stripped.
fn prom_families(text: &str) -> BTreeSet<String> {
    text.lines()
        .filter_map(|l| l.strip_prefix("# TYPE ipmedia_"))
        .map(|l| {
            let name = l.split_whitespace().next().unwrap();
            name.strip_suffix("_total").unwrap_or(name).to_string()
        })
        .collect()
}

#[test]
fn every_snapshot_metric_appears_in_both_exporters() {
    let snap = populated().snapshot();
    let json_keys = top_level_keys(&snapshot_json(&snap));
    let prom = prom_families(&prometheus_text(&snap));

    assert!(!json_keys.is_empty() && !prom.is_empty());
    let missing_in_prom: Vec<&String> = json_keys.difference(&prom).collect();
    assert!(
        missing_in_prom.is_empty(),
        "snapshot_json keys with no Prometheus family: {missing_in_prom:?}"
    );
    let missing_in_json: Vec<&String> = prom.difference(&json_keys).collect();
    assert!(
        missing_in_json.is_empty(),
        "Prometheus families with no snapshot_json key: {missing_in_json:?}"
    );
}

#[test]
fn populated_values_survive_both_exports() {
    let snap = populated().snapshot();
    let json = snapshot_json(&snap);
    let prom = prometheus_text(&snap);

    // Spot-check real values, not just key names: each signal kind was
    // sent exactly once, and every histogram carries its observation.
    for kind in SIGNAL_KINDS {
        assert!(
            prom.contains(&format!("ipmedia_signals_sent_total{{kind=\"{kind}\"}} 1")),
            "missing sent counter for {kind}"
        );
    }
    for kind in FAULT_KINDS {
        assert!(
            prom.contains(&format!(
                "ipmedia_faults_injected_total{{kind=\"{kind}\"}} 1"
            )),
            "missing fault counter for {kind}"
        );
    }
    assert!(json.contains("\"mck_dedup_hits\":7"));
    assert!(prom.contains("ipmedia_mck_dedup_hits_total 7"));
    assert!(json.contains("\"mck_local_steps\":5,\"mck_canonicalized\":2"));
    assert!(prom.contains("ipmedia_mck_local_steps_total 5"));
    assert!(prom.contains("ipmedia_mck_canonicalized_total 2"));
    for h in [
        "tunnel_setup_ms",
        "call_setup_us",
        "flowlink_convergence_ms",
        "stimulus_compute_us",
        "writer_wait_us",
        "recovery_latency_ms",
        "mck_states_per_sec",
    ] {
        assert!(
            prom.contains(&format!("ipmedia_{h}_count 1")),
            "histogram {h} must have exactly one observation"
        );
        assert!(json.contains(&format!("\"{h}\":")), "json key {h}");
    }
}

/// Both exports of the populated registry, byte for byte as they were
/// before the exporters became loops over the metric table (fixtures
/// captured at that commit): the table may reorder, rename or drop
/// nothing.
#[test]
fn exports_match_the_golden_bytes() {
    let snap = populated().snapshot();
    assert_eq!(
        snapshot_json(&snap),
        include_str!("fixtures/populated_snapshot.json")
    );
    assert_eq!(
        prometheus_text(&snap),
        include_str!("fixtures/populated_prometheus.txt")
    );
}
