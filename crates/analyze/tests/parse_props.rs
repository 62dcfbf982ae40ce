//! The three hand-written decoders that read files from outside the
//! program — `.ipm` scenarios ([`parse_scenario`]), the lint baseline
//! ([`Baseline::parse`]) and the verified manifest
//! ([`VerifiedManifest::parse`]) — return for any text: they never panic.
//!
//! Random text alone dies on the first token, so most cases start from a
//! valid file of each kind and damage it: a byte flipped, a line dropped,
//! a line doubled.

use ipmedia_analyze::{parse_scenario, render_manifest, run, Baseline, ScenarioVerdict};
use ipmedia_obs::monitor::VerifiedManifest;
use proptest::prelude::*;
use std::sync::OnceLock;

/// The committed `.ipm` models.
fn models() -> Vec<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/models");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/models")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "ipm"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty());
    paths
        .iter()
        .map(|path| std::fs::read_to_string(path).expect("a committed model"))
        .collect()
}

/// One valid file of each kind.
struct Corpus {
    models: Vec<String>,
    baseline: String,
    manifest: String,
}

/// Built once for every case: it lints the models to have a baseline.
fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let models = models();
        let scenarios: Vec<_> = models
            .iter()
            .map(|src| parse_scenario(src).expect("a committed model parses"))
            .collect();
        let report = run(&scenarios, 1, &Baseline::default());
        assert!(!report.kept.is_empty(), "the planted models have findings");

        let verdicts: Vec<_> = scenarios
            .iter()
            .enumerate()
            .map(|(i, sc)| ScenarioVerdict {
                name: sc.name.clone(),
                fingerprint: format!("{i:016x}"),
                clean: i % 2 == 0,
            })
            .collect();
        Corpus {
            models,
            baseline: Baseline::render(&report.kept),
            manifest: render_manifest(&verdicts),
        }
    })
}

/// `valid` with each of `edits` applied in turn: `(kind, at, byte)` drops
/// line `at`, doubles it, or replaces byte `at` with `byte`.
fn damaged(valid: &str, edits: &[(u8, u16, u8)]) -> String {
    let mut bytes = valid.as_bytes().to_vec();
    for &(kind, at, byte) in edits {
        if bytes.is_empty() {
            break;
        }
        if kind % 3 == 2 {
            let at = usize::from(at) % bytes.len();
            bytes[at] = byte;
            continue;
        }
        let mut lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
        let at = usize::from(at) % lines.len();
        if kind % 3 == 0 {
            lines.remove(at);
        } else {
            lines.insert(at, lines[at]);
        }
        bytes = lines.concat();
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// What each property feeds its decoder: `bytes` as text, and `valid`
/// damaged by `edits`.
fn inputs(bytes: &[u8], valid: &str, edits: &[(u8, u16, u8)]) -> [String; 2] {
    [
        String::from_utf8_lossy(bytes).into_owned(),
        damaged(valid, edits),
    ]
}

proptest! {
    #[test]
    fn parse_scenario_returns_for_any_text(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        pick in any::<usize>(),
        edits in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u8>()), 1..4),
    ) {
        let models = &corpus().models;
        for text in inputs(&bytes, &models[pick % models.len()], &edits) {
            let _ = parse_scenario(&text);
        }
    }

    #[test]
    fn the_baseline_reader_returns_for_any_text(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        edits in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u8>()), 1..4),
    ) {
        for text in inputs(&bytes, &corpus().baseline, &edits) {
            prop_assert!(Baseline::parse(&text).len() <= text.lines().count());
        }
    }

    #[test]
    fn the_manifest_reader_returns_for_any_text(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        edits in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u8>()), 1..4),
    ) {
        for text in inputs(&bytes, &corpus().manifest, &edits) {
            prop_assert!(VerifiedManifest::parse(&text).len() <= text.lines().count());
        }
    }
}
