//! `ipmedia-monitor`: runtime invariant monitoring over live event
//! streams.
//!
//! Usage: `cargo run --release -p ipmedia-bench --bin ipmedia-monitor
//! [--mutant closed-slot] [scenario...]`
//!
//! For each registry scenario (all of them by default), the monitor runs
//! a deployed chain exercise sized by the scenario's topology on the
//! discrete-event simulator — establish the call through the scenario's
//! box count, hold and re-link a server, tear the call down — while a
//! recording observer captures the event stream. The monitor
//! (`ipmedia_core::monitor`, stepping the slot's own rule tables) then
//! reconstructs per-call ladders and checks the §V path invariants the
//! static analyzer and the model checker verify offline:
//!
//! * `IM101` — slot-protocol conformance against `SEND_RULES`/`RECV_RULES`
//! * `IM102` — no action on a Closed slot
//! * `IM201` — flowlink convergence at quiescence
//! * `IM301` — clean terminal states (closed or flowing only)
//!
//! Any divergence between deployed behavior and the verified model is
//! flagged with its invariant code and a minimized ladder (stderr), and
//! as a JSONL `monitor_finding` record (stdout); the exit code is nonzero.
//!
//! `--mutant closed-slot` plants a deliberate divergence — a box acting
//! on a Closed slot, the bug class the model checker's safety property
//! catches statically — and *requires* the monitor to flag it as `IM102`
//! (exit nonzero if the monitor misses it): the self-test that the gate
//! in `scripts/check.sh` runs.
//!
//! `--verified-manifest FILE` closes the loop with the static analyzer:
//! FILE is the fingerprint → `clean|findings` manifest written by
//! `ipmedia-lint --emit-manifest`. Each scenario's content fingerprint is
//! recomputed here, stamped into the JSONL record (`model_fingerprint` /
//! `verified`), and any live ladder from a model the manifest does not
//! list as verified clean is flagged as `IM401`.

use ipmedia_analyze::scenario_fingerprint;
use ipmedia_bench::monitored_exercise;
use ipmedia_core::monitor::{finding_json, VerifiedManifest, IM_CLOSED_ACTION};
use ipmedia_obs::JsonObj;
use std::process::ExitCode;

const USAGE: &str =
    "usage: ipmedia-monitor [--mutant closed-slot] [--verified-manifest FILE] [scenario...]";

/// Run one monitored exercise; returns (events seen, findings as JSONL,
/// ladders for stderr). `unverified` carries the scenario's content
/// fingerprint and manifest verdict when the verified manifest does
/// *not* list it as clean; the run is then flagged as `IM401`.
fn run_scenario(
    name: &str,
    boxes: usize,
    mutant: bool,
    unverified: Option<(&str, Option<bool>)>,
) -> (u64, Vec<String>, Vec<String>) {
    // Size the chain by the scenario topology: its interior boxes become
    // servers (at least one, capped so big conferences stay fast).
    let k = boxes.saturating_sub(2).clamp(1, 4);
    let (chain, mut monitor) = monitored_exercise(k, mutant);
    if let Some((fp, verdict)) = unverified {
        // The whole event stream came from a model the analyzer never
        // verified clean — the live-side divergence class.
        monitor.flag_unverified(
            chain.l.0,
            chain.l_slot.0,
            chain.net.now().0,
            name,
            fp,
            verdict,
        );
    }

    let findings_json: Vec<String> = monitor.findings().iter().map(finding_json).collect();
    let ladders: Vec<String> = monitor
        .findings()
        .iter()
        .map(|f| {
            format!(
                "[{}] {} box {} slot {} at {}us: {}\n{}",
                f.code, name, f.bx, f.slot, f.at_micros, f.detail, f.ladder
            )
        })
        .collect();
    (monitor.events_seen(), findings_json, ladders)
}

fn main() -> ExitCode {
    let mut flags = ipmedia_core::cli::Flags::from_env(USAGE);
    let mutant_kind: Option<String> = flags.value("--mutant");
    let manifest_path: Option<String> = flags.value("--verified-manifest");
    let mut names = flags.finish();
    if mutant_kind
        .as_deref()
        .is_some_and(|kind| kind != "closed-slot")
    {
        ipmedia_core::cli::usage_error(USAGE, "the only mutant kind is `closed-slot`");
    }
    let mutant = mutant_kind.is_some();
    let manifest = match manifest_path {
        None => None,
        Some(path) => match std::fs::read_to_string(&path) {
            Ok(src) => Some(VerifiedManifest::parse(&src)),
            Err(e) => {
                eprintln!("--verified-manifest {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    if names.is_empty() {
        names = ipmedia_apps::models::EXAMPLE_NAMES
            .iter()
            .map(|s| (*s).to_string())
            .collect();
    }

    let mut failed = false;
    for name in &names {
        let Some(sc) = ipmedia_apps::models::scenario(name) else {
            eprintln!("unknown scenario {name}");
            return ExitCode::FAILURE;
        };
        let boxes = sc.topology.boxes.len();
        let fingerprint = scenario_fingerprint(&sc);
        let verdict = manifest.as_ref().map(|m| m.verdict(&fingerprint));
        let unverified = match verdict {
            Some(v) if v != Some(true) => Some((fingerprint.as_str(), v)),
            _ => None,
        };
        let (events, findings, ladders) = run_scenario(name, boxes, mutant, unverified);

        let expected_mutant_caught = mutant
            && findings
                .iter()
                .any(|f| f.contains(&format!("\"invariant_code\":\"{IM_CLOSED_ACTION}\"")));
        let clean = findings.is_empty();
        let ok = if mutant {
            expected_mutant_caught
        } else {
            clean
        };

        let mut record = JsonObj::new()
            .str("record", "monitor_scenario")
            .str("scenario", name)
            .num("boxes", boxes as u64)
            .num("events", events)
            .num("findings", findings.len() as u64)
            .bool("mutant", mutant)
            .str("model_fingerprint", &fingerprint);
        if let Some(v) = verdict {
            record = record.bool("verified", v == Some(true));
        }
        println!("{}", record.bool("ok", ok).finish());
        for f in &findings {
            println!("{f}");
        }
        for l in &ladders {
            eprintln!("{l}");
        }
        if !ok {
            if mutant {
                eprintln!(
                    "{name}: planted closed-slot divergence was NOT flagged as {IM_CLOSED_ACTION}"
                );
            } else {
                eprintln!("{name}: {} unexpected finding(s)", findings.len());
            }
            failed = true;
        }
    }
    eprintln!(
        "monitor: {} scenario(s){}, {}",
        names.len(),
        if mutant { " (mutant: closed-slot)" } else { "" },
        if failed { "FAIL" } else { "ok" }
    );
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
