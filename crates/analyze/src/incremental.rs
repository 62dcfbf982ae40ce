//! Content-addressed incremental analysis: fingerprint every scenario and
//! program over its canonical `.ipm` form, cache per-pass verdicts in a
//! persistent JSONL file, and re-run only the passes whose inputs changed.
//!
//! # Fingerprint scheme
//!
//! A fingerprint is a 64-bit FNV-1a hash (hex, 16 chars) over
//! `"ipm-analyzer-v{ANALYZER_VERSION}\n"` plus the canonical `.ipm` text
//! of the input:
//!
//! * **scenario fingerprint** — [`crate::to_ipm`] of
//!   [`ScenarioModel::canonicalized`] (boxes and programs sorted by box
//!   name; every other order is analysis-visible and preserved);
//! * **program fingerprint** — [`crate::parse::program_ipm`] of one
//!   program section (covers the box name, so the same model bound to a
//!   different box is a different cache key);
//! * **topology fingerprint** — [`crate::parse::topology_ipm`] of the
//!   canonicalized scenario (`box`/`link`/`bind` lines only).
//!
//! The `ANALYZER_VERSION` salt makes every fingerprint change when pass
//! behavior changes, so a stale cache can never replay outdated verdicts.
//!
//! # Invalidation rules
//!
//! The dependency map is scenario → {topology/binds, programs}. A cached
//! scenario verdict is replayed only when the *whole-scenario* fingerprint
//! hits; cached per-program verdicts are replayed per program fingerprint.
//! Editing one program misses that program's four pass families plus the
//! three cross-box scenario passes; editing topology or bindings misses
//! only the scenario passes (all program entries still hit).
//!
//! # Soundness
//!
//! A cache hit means the canonical `.ipm` text is byte-identical to the
//! text the cached diagnostics were computed from (same analyzer
//! version). Since the canonical form only normalizes orders no pass can
//! observe (pinned by the order-scramble property test), hit ⇔ identical
//! analysis input, and replaying is exactly as sound as re-running.
//! Entries that fail to parse, carry an unknown diagnostic code, or were
//! written by a different `ANALYZER_VERSION` are evicted and counted,
//! never trusted.

use crate::diag::{intern_code, parse_severity, Diagnostic};
use crate::parse::{program_ipm, to_ipm, topology_ipm};
use crate::sarif::Baseline;
use crate::{dataflow, race, runner::RunReport, sort_report, wellformed};
use ipmedia_core::hash::{fnv1a, fnv1a_extend};
use ipmedia_core::program::model::{ProgramModel, ScenarioModel};
use ipmedia_obs::{json_array, JsonObj};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

/// Version salt folded into every fingerprint. Bump whenever any pass's
/// observable output can change, so old caches self-invalidate.
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

/// Per-program fingerprint over one canonical `program` section.
pub fn program_fingerprint(box_name: &str, m: &ProgramModel) -> String {
    fingerprint_text(&program_ipm(box_name, m))
}

/// Topology-and-bindings fingerprint (`box`/`link`/`bind` lines).
pub fn topology_fingerprint(sc: &ScenarioModel) -> String {
    fingerprint_text(&topology_ipm(&sc.canonicalized()))
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
/// <clean|findings> <scenario>` line, `#` comments.
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

/// Counters describing what one incremental run actually executed.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Scenarios analyzed.
    pub scenarios: usize,
    /// Scenarios fully replayed from cache (scenario + all program hits).
    pub full_hits: usize,
    /// Scenarios whose cross-box passes had to re-run.
    pub scenario_misses: usize,
    /// `analyze_program` executions (one per missed program entry).
    pub program_runs: usize,
    /// Individual cross-box pass executions (wellformed, dataflow, race).
    pub scenario_pass_runs: usize,
    /// Individual program-pass-family executions (structural,
    /// conformance, conflict, leak) — four per `analyze_program` run.
    pub program_pass_runs: usize,
    /// Cache entries evicted on load (corrupt, unknown code, or stale
    /// analyzer version); forward to `Registry::add_cache_evictions`.
    pub cache_evictions: u64,
    /// Names of the scenarios whose cross-box passes missed, input order.
    pub missed: Vec<String>,
    /// Per-scenario verdicts, input order, for the verified manifest.
    pub verdicts: Vec<ScenarioVerdict>,
}

impl IncrementalStats {
    /// One-line JSONL summary record (`record: "lint_incremental"`).
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .str("record", "lint_incremental")
            .num("analyzer_version", u64::from(ANALYZER_VERSION))
            .num("scenarios", self.scenarios as u64)
            .num("full_hits", self.full_hits as u64)
            .num("scenario_misses", self.scenario_misses as u64)
            .num("program_runs", self.program_runs as u64)
            .num("scenario_pass_runs", self.scenario_pass_runs as u64)
            .num("program_pass_runs", self.program_pass_runs as u64)
            .num("cache_evictions", self.cache_evictions)
            .raw(
                "missed",
                &ipmedia_obs::json_str_array(self.missed.iter().map(String::as_str)),
            )
            .finish()
    }
}

/// Scenario → inputs dependency record, persisted alongside the entries
/// so a cache can explain *why* a scenario missed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepRecord {
    /// Topology/bindings fingerprint at the time the scenario was cached.
    pub topology_fp: String,
    /// Program fingerprints, scenario program order.
    pub program_fps: Vec<String>,
}

/// The persistent analysis cache: per-fingerprint diagnostic sets plus
/// the dependency map, loaded from and saved to `lint-cache.jsonl`.
#[derive(Debug, Default, Clone)]
pub struct AnalysisCache {
    /// Cross-box pass diagnostics keyed by whole-scenario fingerprint,
    /// stored in generation (pre-sort) order, scenario-tagged.
    scenario_entries: BTreeMap<String, Vec<Diagnostic>>,
    /// Program pass diagnostics keyed by program fingerprint, stored in
    /// generation order, program-tagged but scenario-untagged.
    program_entries: BTreeMap<String, Vec<Diagnostic>>,
    /// Dependency map: scenario fingerprint → input fingerprints.
    deps: BTreeMap<String, DepRecord>,
    /// Entries discarded on load instead of trusted.
    pub evictions: u64,
}

const CACHE_FILE: &str = "lint-cache.jsonl";

impl AnalysisCache {
    /// Number of cached scenario entries.
    pub fn scenario_len(&self) -> usize {
        self.scenario_entries.len()
    }

    /// Number of cached program entries.
    pub fn program_len(&self) -> usize {
        self.program_entries.len()
    }

    /// Dependency record for a cached scenario fingerprint.
    pub fn dep(&self, scenario_fp: &str) -> Option<&DepRecord> {
        self.deps.get(scenario_fp)
    }

    /// Load the cache from `dir/lint-cache.jsonl`. A missing file is an
    /// empty cache.
    pub fn load(dir: &Path) -> Self {
        std::fs::read_to_string(dir.join(CACHE_FILE))
            .map_or_else(|_| Self::default(), |s| Self::parse(&s))
    }

    /// The cache a `lint-cache.jsonl` of this text holds: unparseable
    /// lines, diagnostics with unknown codes, and files written by a
    /// different [`ANALYZER_VERSION`] are evicted (counted in
    /// [`AnalysisCache::evictions`]), never trusted.
    pub fn parse(src: &str) -> Self {
        let mut cache = Self::default();
        let mut version_ok = false;
        for line in src.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Some(json::JVal::Obj(fields)) = json::parse(line) else {
                cache.evictions += 1;
                continue;
            };
            let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
            match get("record").and_then(json::JVal::as_str) {
                Some("lint_cache_meta") => {
                    version_ok = get("analyzer_version").and_then(json::JVal::as_num)
                        == Some(u64::from(ANALYZER_VERSION));
                }
                Some("lint_cache_entry") => {
                    let parsed = (|| {
                        let kind = get("kind").and_then(json::JVal::as_str)?;
                        let fp = get("fp").and_then(json::JVal::as_str)?;
                        let Some(json::JVal::Arr(raw)) = get("diags") else {
                            return None;
                        };
                        let mut diags = Vec::with_capacity(raw.len());
                        for v in raw {
                            diags.push(diag_from_json(v)?);
                        }
                        Some((kind.to_string(), fp.to_string(), diags))
                    })();
                    match parsed {
                        Some((kind, fp, diags)) if kind == "scenario" => {
                            cache.scenario_entries.insert(fp, diags);
                        }
                        Some((kind, fp, diags)) if kind == "program" => {
                            cache.program_entries.insert(fp, diags);
                        }
                        _ => cache.evictions += 1,
                    }
                }
                Some("lint_cache_dep") => {
                    let parsed = (|| {
                        let sfp = get("scenario_fp").and_then(json::JVal::as_str)?;
                        let tfp = get("topology_fp").and_then(json::JVal::as_str)?;
                        let Some(json::JVal::Arr(raw)) = get("program_fps") else {
                            return None;
                        };
                        let mut fps = Vec::with_capacity(raw.len());
                        for v in raw {
                            fps.push(v.as_str()?.to_string());
                        }
                        Some((
                            sfp.to_string(),
                            DepRecord {
                                topology_fp: tfp.to_string(),
                                program_fps: fps,
                            },
                        ))
                    })();
                    match parsed {
                        Some((sfp, dep)) => {
                            cache.deps.insert(sfp, dep);
                        }
                        None => cache.evictions += 1,
                    }
                }
                _ => cache.evictions += 1,
            }
        }
        if !version_ok {
            // Written by a different analyzer version (or no meta line at
            // all): every entry is untrustworthy.
            cache.evictions += (cache.scenario_entries.len() + cache.program_entries.len()) as u64;
            cache.scenario_entries.clear();
            cache.program_entries.clear();
            cache.deps.clear();
        }
        cache
    }

    /// Persist the cache to `dir/lint-cache.jsonl` (atomic: temp file +
    /// rename).
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(format!("{CACHE_FILE}.tmp.{}", std::process::id()));
        {
            let mut f = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
            writeln!(
                f,
                "{}",
                JsonObj::new()
                    .str("record", "lint_cache_meta")
                    .num("analyzer_version", u64::from(ANALYZER_VERSION))
                    .finish()
            )?;
            for (kind, entries) in [
                ("scenario", &self.scenario_entries),
                ("program", &self.program_entries),
            ] {
                for (fp, diags) in entries {
                    writeln!(
                        f,
                        "{}",
                        JsonObj::new()
                            .str("record", "lint_cache_entry")
                            .str("kind", kind)
                            .str("fp", fp)
                            .raw("diags", &json_array(diags.iter().map(Diagnostic::to_json)))
                            .finish()
                    )?;
                }
            }
            for (sfp, dep) in &self.deps {
                writeln!(
                    f,
                    "{}",
                    JsonObj::new()
                        .str("record", "lint_cache_dep")
                        .str("scenario_fp", sfp)
                        .str("topology_fp", &dep.topology_fp)
                        .raw(
                            "program_fps",
                            &ipmedia_obs::json_str_array(
                                dep.program_fps.iter().map(String::as_str),
                            ),
                        )
                        .finish()
                )?;
            }
        }
        std::fs::rename(&tmp, dir.join(CACHE_FILE))
    }
}

/// Rebuild a [`Diagnostic`] from its cached JSON object. `None` (and
/// thus eviction) on unknown code, unknown severity, or missing fields.
fn diag_from_json(v: &json::JVal) -> Option<Diagnostic> {
    let json::JVal::Obj(fields) = v else {
        return None;
    };
    let get = |k: &str| {
        fields
            .iter()
            .find(|(n, _)| n == k)
            .and_then(|(_, v)| v.as_str())
    };
    let code = intern_code(get("code")?)?;
    let severity = parse_severity(get("severity")?)?;
    let mut d = match severity {
        crate::Severity::Error => Diagnostic::error(code, get("message")?),
        crate::Severity::Warning => Diagnostic::warning(code, get("message")?),
    };
    d.scenario = get("scenario").map(str::to_string);
    d.program = get("program").map(str::to_string);
    d.state = get("state").map(str::to_string);
    d.note = get("note").map(str::to_string);
    Some(d)
}

/// Per-program work item computed by a worker.
struct ProgramWork {
    fp: String,
    /// Generation-order diagnostics, program-tagged, scenario-untagged.
    /// `None` means the cache already holds this fingerprint.
    fresh: Option<Vec<Diagnostic>>,
}

/// Per-scenario work item computed by a worker.
struct ScenarioWork {
    scenario_fp: String,
    topology_fp: String,
    /// Cross-box pass diagnostics (generation order, scenario-tagged);
    /// `None` on a scenario-fingerprint hit.
    fresh_scenario: Option<Vec<Diagnostic>>,
    programs: Vec<ProgramWork>,
}

/// Run the cross-box passes exactly as `analyze_scenario` does, with the
/// scenario tag defaulted.
fn run_scenario_passes(sc: &ScenarioModel) -> Vec<Diagnostic> {
    let mut diags = wellformed::analyze(sc);
    diags.extend(dataflow::analyze(sc));
    diags.extend(race::analyze(sc));
    for d in &mut diags {
        if d.scenario.is_none() {
            d.scenario = Some(sc.name.clone());
        }
    }
    diags
}

/// Run the program passes exactly as `analyze_scenario` does, with the
/// program tag defaulted to the box name and the scenario tag left empty
/// (filled in at replay time).
fn run_program_passes(box_name: &str, model: &ProgramModel) -> Vec<Diagnostic> {
    crate::analyze_program(model)
        .into_iter()
        .map(|mut d| {
            if d.program.is_none() {
                d.program = Some(box_name.to_string());
            }
            d
        })
        .collect()
}

fn analyze_one(sc: &ScenarioModel, cache: &AnalysisCache) -> ScenarioWork {
    let scenario_fp = scenario_fingerprint(sc);
    let topology_fp = topology_fingerprint(sc);
    let fresh_scenario = if cache.scenario_entries.contains_key(&scenario_fp) {
        None
    } else {
        Some(run_scenario_passes(sc))
    };
    let programs = sc
        .programs
        .iter()
        .map(|(box_name, model)| {
            let fp = program_fingerprint(box_name, model);
            let fresh = if cache.program_entries.contains_key(&fp) {
                None
            } else {
                Some(run_program_passes(box_name, model))
            };
            ProgramWork { fp, fresh }
        })
        .collect();
    ScenarioWork {
        scenario_fp,
        topology_fp,
        fresh_scenario,
        programs,
    }
}

/// Incremental counterpart of [`crate::runner::run`]: analyze every
/// scenario, replaying cached verdicts for unchanged inputs, re-running
/// only missed passes, and folding fresh results back into `cache`. The
/// report is byte-identical to a cold [`crate::runner::run`] at any
/// thread count (pinned by the cache-correctness tests).
pub fn run_incremental(
    scenarios: &[ScenarioModel],
    threads: usize,
    baseline: &Baseline,
    cache: &mut AnalysisCache,
) -> (RunReport, IncrementalStats) {
    // Phase 1: fingerprint + run misses; results come back in input order
    // so the merge below is deterministic at any thread count.
    let shared: &AnalysisCache = cache;
    let work = ipmedia_core::par::slot_map(threads, scenarios.len(), |i| {
        analyze_one(&scenarios[i], shared)
    });
    // Phase 2: serial merge in input order — update the cache, count
    // what actually ran, and assemble the per-scenario reports exactly
    // as `analyze_scenario` would have.
    let mut stats = IncrementalStats {
        scenarios: scenarios.len(),
        cache_evictions: cache.evictions,
        ..IncrementalStats::default()
    };
    let mut all: Vec<Diagnostic> = Vec::new();
    for (sc, w) in scenarios.iter().zip(work) {
        let mut full_hit = w.fresh_scenario.is_none();
        if let Some(fresh) = w.fresh_scenario {
            stats.scenario_misses += 1;
            stats.scenario_pass_runs += 3;
            stats.missed.push(sc.name.clone());
            cache.scenario_entries.insert(w.scenario_fp.clone(), fresh);
        }
        let mut per_scenario: Vec<Diagnostic> = cache.scenario_entries[&w.scenario_fp].clone();
        for pw in w.programs {
            if let Some(fresh) = pw.fresh {
                full_hit = false;
                stats.program_runs += 1;
                stats.program_pass_runs += 4;
                cache.program_entries.insert(pw.fp.clone(), fresh);
            }
            per_scenario.extend(cache.program_entries[&pw.fp].iter().map(|d| {
                let mut d = d.clone();
                if d.scenario.is_none() {
                    d.scenario = Some(sc.name.clone());
                }
                d
            }));
        }
        cache.deps.insert(
            w.scenario_fp.clone(),
            DepRecord {
                topology_fp: w.topology_fp,
                program_fps: sc
                    .programs
                    .iter()
                    .map(|(b, m)| program_fingerprint(b, m))
                    .collect(),
            },
        );
        if full_hit {
            stats.full_hits += 1;
        }
        sort_report(&mut per_scenario);
        stats.verdicts.push(ScenarioVerdict {
            name: sc.name.clone(),
            fingerprint: w.scenario_fp,
            clean: per_scenario.is_empty(),
        });
        all.extend(per_scenario);
    }
    sort_report(&mut all);
    let (kept, suppressed) = baseline.apply(all);
    (RunReport { kept, suppressed }, stats)
}

/// Minimal recursive-descent JSON reader for the cache file. The cache
/// is written by [`JsonObj`], but load must survive arbitrary corruption,
/// so every failure path is `None` (→ eviction), never a panic.
mod json {
    /// A parsed JSON value (no floats or nulls: the cache never emits
    /// them, and an entry containing one is corrupt anyway).
    #[derive(Debug, PartialEq)]
    pub enum JVal {
        /// String literal.
        S(String),
        /// Non-negative integer.
        N(u64),
        /// Boolean.
        B(bool),
        /// Array.
        Arr(Vec<JVal>),
        /// Object, field order preserved.
        Obj(Vec<(String, JVal)>),
    }

    impl JVal {
        pub fn as_str(&self) -> Option<&str> {
            match self {
                JVal::S(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_num(&self) -> Option<u64> {
            match self {
                JVal::N(n) => Some(*n),
                _ => None,
            }
        }
    }

    /// Arrays and objects nested deeper than this are refused: the cache
    /// writer nests three deep, and the reader recurses once per level of
    /// whatever the file holds.
    const MAX_DEPTH: usize = 16;

    pub fn parse(src: &str) -> Option<JVal> {
        let b = src.as_bytes();
        let mut i = 0;
        let v = value(b, &mut i, 0)?;
        skip_ws(b, &mut i);
        (i == b.len()).then_some(v)
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && (b[*i] == b' ' || b[*i] == b'\t' || b[*i] == b'\r' || b[*i] == b'\n')
        {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize, depth: usize) -> Option<JVal> {
        skip_ws(b, i);
        match b.get(*i)? {
            b'"' => string(b, i).map(JVal::S),
            b'{' | b'[' if depth == MAX_DEPTH => None,
            b'{' => object(b, i, depth + 1),
            b'[' => array(b, i, depth + 1),
            b't' => literal(b, i, "true").then_some(JVal::B(true)),
            b'f' => literal(b, i, "false").then_some(JVal::B(false)),
            b'0'..=b'9' => number(b, i),
            _ => None,
        }
    }

    fn literal(b: &[u8], i: &mut usize, word: &str) -> bool {
        if b[*i..].starts_with(word.as_bytes()) {
            *i += word.len();
            true
        } else {
            false
        }
    }

    fn number(b: &[u8], i: &mut usize) -> Option<JVal> {
        let start = *i;
        while *i < b.len() && b[*i].is_ascii_digit() {
            *i += 1;
        }
        std::str::from_utf8(&b[start..*i])
            .ok()?
            .parse()
            .ok()
            .map(JVal::N)
    }

    fn string(b: &[u8], i: &mut usize) -> Option<String> {
        *i += 1; // opening quote
        let mut out: Vec<u8> = Vec::new();
        loop {
            match *b.get(*i)? {
                b'"' => {
                    *i += 1;
                    return String::from_utf8(out).ok();
                }
                b'\\' => {
                    *i += 1;
                    match *b.get(*i)? {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = b.get(*i + 1..*i + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            let c = char::from_u32(code)?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                            *i += 4;
                        }
                        _ => return None,
                    }
                    *i += 1;
                }
                _ => {
                    out.push(b[*i]);
                    *i += 1;
                }
            }
        }
    }

    fn array(b: &[u8], i: &mut usize, depth: usize) -> Option<JVal> {
        *i += 1; // '['
        let mut items = Vec::new();
        skip_ws(b, i);
        if b.get(*i) == Some(&b']') {
            *i += 1;
            return Some(JVal::Arr(items));
        }
        loop {
            items.push(value(b, i, depth)?);
            skip_ws(b, i);
            match b.get(*i)? {
                b',' => *i += 1,
                b']' => {
                    *i += 1;
                    return Some(JVal::Arr(items));
                }
                _ => return None,
            }
        }
    }

    fn object(b: &[u8], i: &mut usize, depth: usize) -> Option<JVal> {
        *i += 1; // '{'
        let mut fields = Vec::new();
        skip_ws(b, i);
        if b.get(*i) == Some(&b'}') {
            *i += 1;
            return Some(JVal::Obj(fields));
        }
        loop {
            skip_ws(b, i);
            if b.get(*i) != Some(&b'"') {
                return None;
            }
            let k = string(b, i)?;
            skip_ws(b, i);
            if b.get(*i) != Some(&b':') {
                return None;
            }
            *i += 1;
            fields.push((k, value(b, i, depth)?));
            skip_ws(b, i);
            match b.get(*i)? {
                b',' => *i += 1,
                b'}' => {
                    *i += 1;
                    return Some(JVal::Obj(fields));
                }
                _ => return None,
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn parses_nested_objects_arrays_and_escapes() {
            let v = parse(r#"{"a":"x\n\"y\"","n":42,"b":true,"arr":[{"k":"v"},"s"]}"#).unwrap();
            let JVal::Obj(fields) = v else { panic!() };
            assert_eq!(fields[0].1.as_str(), Some("x\n\"y\""));
            assert_eq!(fields[1].1.as_num(), Some(42));
            assert_eq!(fields[2].1, JVal::B(true));
            let JVal::Arr(items) = &fields[3].1 else {
                panic!()
            };
            assert_eq!(items.len(), 2);
        }

        #[test]
        fn rejects_trailing_garbage_and_truncation() {
            assert!(parse(r#"{"a":1} extra"#).is_none());
            assert!(parse(r#"{"a":"#).is_none());
            assert!(parse(r#"{"a" 1}"#).is_none());
            assert!(parse("").is_none());
        }

        #[test]
        fn parses_unicode_escapes() {
            let v = parse(r#""Aé""#).unwrap();
            assert_eq!(v.as_str(), Some("Aé"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipmedia_core::path::Topology;
    use ipmedia_core::program::model::StateModel;

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
    fn cache_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("ipm-inc-rt-{}", std::process::id()));
        let scenarios = vec![scenario("s1"), scenario("s2")];
        let mut cache = AnalysisCache::default();
        let (cold, stats) = run_incremental(&scenarios, 1, &Baseline::default(), &mut cache);
        assert_eq!(stats.scenario_misses, 2);
        cache.save(&dir).unwrap();
        let mut reloaded = AnalysisCache::load(&dir);
        assert_eq!(reloaded.evictions, 0);
        assert_eq!(reloaded.scenario_len(), cache.scenario_len());
        let (warm, warm_stats) =
            run_incremental(&scenarios, 1, &Baseline::default(), &mut reloaded);
        assert_eq!(warm_stats.full_hits, 2);
        assert_eq!(
            warm_stats.scenario_pass_runs + warm_stats.program_pass_runs,
            0
        );
        assert_eq!(cold.render(), warm.render());
        assert_eq!(cold.to_jsonl(), warm.to_jsonl());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_evicts_everything() {
        let dir = std::env::temp_dir().join(format!("ipm-inc-ver-{}", std::process::id()));
        let scenarios = vec![scenario("s")];
        let mut cache = AnalysisCache::default();
        let _ = run_incremental(&scenarios, 1, &Baseline::default(), &mut cache);
        cache.save(&dir).unwrap();
        let path = dir.join(super::CACHE_FILE);
        let doctored = std::fs::read_to_string(&path).unwrap().replace(
            &format!("\"analyzer_version\":{ANALYZER_VERSION}"),
            "\"analyzer_version\":999",
        );
        std::fs::write(&path, doctored).unwrap();
        let reloaded = AnalysisCache::load(&dir);
        assert_eq!(reloaded.scenario_len() + reloaded.program_len(), 0);
        assert!(reloaded.evictions > 0, "evictions must be counted");
        let _ = std::fs::remove_dir_all(&dir);
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
