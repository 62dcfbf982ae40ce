//! `ipmedia-lint` — static analysis CLI over scenario models.
//!
//! ```text
//! ipmedia-lint --all-examples                # lint the built-in registry
//! ipmedia-lint path/to/scenario.ipm ...      # lint serialized scenarios
//! ipmedia-lint --all-examples --deny warnings --jsonl --threads 8
//! ipmedia-lint --all-examples --baseline lint-baseline.txt
//! ipmedia-lint --all-examples --emit-manifest verified.txt
//! ipmedia-lint --fuzz 2000 --jsonl --threads 8 > BENCH_fuzz.json
//! ```
//!
//! Rendered diagnostics and the summary go to stderr; with `--jsonl` each
//! diagnostic (and a final summary record) is emitted as one JSON object
//! per line on stdout, following the workspace observability convention.
//! Output is byte-identical at any `--threads` value.
//!
//! Exit status contract (stable; scripts branch on it):
//!
//! * `0` — clean: no findings at the deny level (suppressed findings and
//!   warnings without `--deny warnings` do not fail the run), or a
//!   `--fuzz` campaign without divergences;
//! * `1` — findings at the deny level, or a `--fuzz` divergence;
//! * `2` — usage error (bad flag, nothing to lint);
//! * `3` — input or internal error (unreadable file, `.ipm` parse error).

use ipmedia_analyze::fuzz::{
    class_label, fuzz_campaign, promote_divergences, FuzzConfig, FuzzReport, MckChecker, Origin,
};
use ipmedia_analyze::runner;
use ipmedia_analyze::{
    parse_scenario, render_manifest, scenario_fingerprint, to_ipm, Baseline, Diagnostic,
    ScenarioVerdict,
};
use ipmedia_core::cli::{usage_error, Flags};
use ipmedia_core::program::model::ScenarioModel;
use ipmedia_obs::{json_str_array, JsonObj};
use std::path::Path;
use std::process::ExitCode;

const EXIT_FINDINGS: u8 = 1;
const EXIT_INPUT: u8 = 3;

struct Options {
    all_examples: bool,
    deny_warnings: bool,
    jsonl: bool,
    threads: usize,
    baseline: Option<String>,
    write_baseline: Option<String>,
    files: Vec<String>,
    fuzz: Option<usize>,
    seed: Option<u64>,
    max_states: Option<usize>,
    emit_manifest: Option<String>,
    prune_baseline: bool,
    promote: Option<String>,
}

const USAGE: &str = "usage: ipmedia-lint [OPTIONS] [FILE.ipm ...]

options:
  --all-examples          lint every scenario in the built-in registry
  --deny warnings         treat warnings as failures (exit 1)
  --jsonl                 one JSON object per finding on stdout
  --threads N             analysis workers (0 = all cores, default 1);
                          output is identical at any thread count
  --baseline FILE         suppress findings whose fingerprints FILE lists
  --write-baseline FILE   write the current findings as a baseline, then
                          exit as if they were suppressed
  --emit-manifest FILE    write the verified manifest (fingerprint ->
                          clean|findings, before the baseline) for
                          ipmedia-monitor --verified-manifest
  --prune-baseline        rewrite --baseline FILE with stale fingerprints
                          (matching no current finding) removed
  --fuzz N                instead of linting inputs, run the differential
                          analyzer<->checker campaign over the registry and
                          N generated scenarios (with --jsonl, the records
                          the CI gate commits as BENCH_fuzz.json) and print
                          any divergence's minimized reproducer
  --seed S                campaign seed for --fuzz (decimal)
  --max-states M          base checker budget for --fuzz
  --promote DIR           with --fuzz, write each divergence's minimized
                          .ipm reproducer plus a triage note into DIR
  -h, --help              this help

exit status:
  0  clean (no findings at the deny level; --fuzz: no divergence)
  1  findings at the deny level (--fuzz: a divergence)
  2  usage error
  3  input or internal error (unreadable file, parse error)";

/// The invocation's options; a usage error or `--help` exits here.
fn parse_args() -> Options {
    let mut flags = Flags::from_env(USAGE);
    let deny: Option<String> = flags.value("--deny");
    let opts = Options {
        threads: flags.value("--threads").unwrap_or(1),
        baseline: flags.value("--baseline"),
        write_baseline: flags.value("--write-baseline"),
        fuzz: flags.value("--fuzz"),
        seed: flags.value("--seed"),
        max_states: flags.value("--max-states"),
        emit_manifest: flags.value("--emit-manifest"),
        promote: flags.value("--promote"),
        all_examples: flags.switch("--all-examples"),
        deny_warnings: deny.is_some(),
        jsonl: flags.switch("--jsonl"),
        prune_baseline: flags.switch("--prune-baseline"),
        files: flags.finish(),
    };
    let problem = if deny.is_some_and(|level| level != "warnings") {
        Some("--deny expects `warnings`")
    } else if !opts.all_examples && opts.files.is_empty() && opts.fuzz.is_none() {
        Some("nothing to lint")
    } else if opts.prune_baseline && opts.baseline.is_none() {
        Some("--prune-baseline requires --baseline FILE")
    } else if opts.promote.is_some() && opts.fuzz.is_none() {
        Some("--promote requires --fuzz")
    } else {
        None
    };
    if let Some(msg) = problem {
        usage_error(USAGE, msg);
    }
    opts
}

fn load_scenarios(opts: &Options) -> Result<Vec<ScenarioModel>, String> {
    let mut scenarios = Vec::new();
    if opts.all_examples {
        scenarios.extend(ipmedia_apps::models::all_scenarios());
    }
    for path in &opts.files {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let sc = parse_scenario(&src).map_err(|e| format!("{path}: {e}"))?;
        scenarios.push(sc);
    }
    Ok(scenarios)
}

/// `--fuzz N`: run the differential analyzer↔checker campaign over the
/// registry and N generated scenarios. With `--jsonl`, stdout carries one
/// record per registry scenario, per code, per checked class and per
/// divergence, then the summary: the file `scripts/check.sh` commits as
/// `BENCH_fuzz.json`. Exit 0 on a clean run, [`EXIT_FINDINGS`] on any
/// divergence.
fn fuzz_mode(opts: &Options, count: usize) -> ExitCode {
    let defaults = FuzzConfig::default();
    let cfg = FuzzConfig {
        scenarios: count,
        seed: opts.seed.unwrap_or(defaults.seed),
        threads: opts.threads,
        max_states: opts.max_states.unwrap_or(defaults.max_states),
        ..defaults
    };
    eprintln!(
        "ipmedia-lint: fuzzing the registry and {} scenario(s), seed {}, base cap {} states",
        cfg.scenarios, cfg.seed, cfg.max_states
    );
    let mut checker = MckChecker::new(cfg.max_states);
    let report = fuzz_campaign(&cfg, &mut checker);
    if opts.jsonl {
        print_fuzz_records(&report);
    }
    for d in &report.divergences {
        eprintln!(
            "ipmedia-lint: DIVERGENCE ({}) {}: {}",
            d.kind.name(),
            d.origin,
            d.detail
        );
        let repro = d.minimized.as_ref().unwrap_or(&d.scenario);
        eprintln!("--- minimized reproducer ---\n{}", to_ipm(repro));
    }
    if let Some(dir) = &opts.promote {
        match promote_divergences(&report, Path::new(dir)) {
            Ok(paths) => {
                for p in &paths {
                    eprintln!("ipmedia-lint: promoted {}", p.display());
                }
            }
            Err(e) => {
                eprintln!("ipmedia-lint: --promote {dir}: {e}");
                return ExitCode::from(EXIT_INPUT);
            }
        }
    }
    eprintln!(
        "ipmedia-lint: {} registry and {} generated scenario(s) fuzzed ({} generated \
         analyzer-clean: {} confirmed, {} unknown), {} class(es) checked ({} exhaustive, \
         {} truncated at the state cap), {} divergence(s){}",
        report.registry.len(),
        report.scenarios,
        report.clean,
        report.clean_confirmed,
        report.clean_unknown,
        report.checked.len(),
        report.classes_exhaustive(),
        report.classes_truncated(),
        report.divergences.len(),
        if report.is_clean_run() {
            " — clean"
        } else {
            ""
        }
    );
    if report.is_clean_run() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_FINDINGS)
    }
}

/// The `--fuzz --jsonl` records. They hold nothing read from a clock or
/// the host, so the same seed gives the same bytes at any `--threads`.
fn print_fuzz_records(report: &FuzzReport) {
    let record = |kind: &str| JsonObj::new().str("record", kind);
    let strs = |xs: &[String]| json_str_array(xs.iter().map(String::as_str));
    for r in &report.registry {
        let classes: Vec<String> = r.classes.iter().map(|k| class_label(*k)).collect();
        println!(
            "{}",
            record("fuzz_registry")
                .str("scenario", &r.scenario.name)
                .bool("clean", r.error_codes.is_empty())
                .raw("codes", &strs(&r.codes))
                .raw("classes", &strs(&classes))
                .finish()
        );
    }
    for (code, count) in &report.code_counts {
        println!(
            "{}",
            record("fuzz_code")
                .str("code", code)
                .num("scenarios", *count as u64)
                .finish()
        );
    }
    for (key, verdict) in &report.checked {
        println!(
            "{}",
            record("fuzz_check")
                .num("links", key.0 as u64)
                .str("class", &class_label(*key))
                .num(
                    "covering_scenarios",
                    report.class_counts.get(key).copied().unwrap_or(0) as u64
                )
                .bool("counterexample", verdict.counterexample)
                .bool("truncated", verdict.truncated)
                .num("expanded", verdict.expanded as u64)
                .finish()
        );
    }
    for d in &report.divergences {
        let obj = record("fuzz_divergence").str("kind", d.kind.name());
        let obj = match &d.origin {
            Origin::Registry(name) => obj.str("scenario", name),
            Origin::Seed(seed) => obj.str("seed", &format!("{seed:#018x}")),
        };
        println!("{}", obj.str("detail", &d.detail).finish());
    }
    let registry_clean = report.registry.iter().filter(|r| r.error_codes.is_empty());
    let counterexamples = report.checked.iter().filter(|(_, v)| v.counterexample);
    println!(
        "{}",
        record("fuzz_summary")
            .num("registry", report.registry.len() as u64)
            .num("registry_clean", registry_clean.count() as u64)
            .num("scenarios", report.scenarios as u64)
            .num("clean", report.clean as u64)
            .num("clean_confirmed", report.clean_confirmed as u64)
            .num("clean_unknown", report.clean_unknown as u64)
            .num("with_findings", report.with_errors as u64)
            .num("roundtrip_failures", report.roundtrip_failures as u64)
            .num("classes", report.checked.len() as u64)
            .num("classes_exhaustive", report.classes_exhaustive() as u64)
            .num("classes_truncated", report.classes_truncated() as u64)
            .num("counterexamples", counterexamples.count() as u64)
            .num("divergences", report.divergences.len() as u64)
            .bool("clean_run", report.is_clean_run())
            .finish()
    );
}

fn main() -> ExitCode {
    let opts = parse_args();
    if let Some(count) = opts.fuzz {
        return fuzz_mode(&opts, count);
    }
    let scenarios = match load_scenarios(&opts) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("ipmedia-lint: {msg}");
            return ExitCode::from(EXIT_INPUT);
        }
    };
    let baseline = match &opts.baseline {
        None => Baseline::default(),
        Some(path) => match std::fs::read_to_string(path) {
            Ok(src) => Baseline::parse(&src),
            Err(e) => {
                eprintln!("ipmedia-lint: {path}: {e}");
                return ExitCode::from(EXIT_INPUT);
            }
        },
    };

    let report = runner::run(&scenarios, opts.threads, &baseline);

    if let Some(path) = &opts.emit_manifest {
        let verdicts: Vec<ScenarioVerdict> = scenarios
            .iter()
            .zip(&report.clean)
            .map(|(sc, &clean)| ScenarioVerdict {
                name: sc.name.clone(),
                fingerprint: scenario_fingerprint(sc),
                clean,
            })
            .collect();
        if let Err(e) = std::fs::write(path, render_manifest(&verdicts)) {
            eprintln!("ipmedia-lint: {path}: {e}");
            return ExitCode::from(EXIT_INPUT);
        }
        eprintln!(
            "ipmedia-lint: wrote verified manifest ({} scenario(s)) to {path}",
            verdicts.len()
        );
    }

    if let Some(path) = &opts.write_baseline {
        if let Err(e) = std::fs::write(path, Baseline::render(&report.kept)) {
            eprintln!("ipmedia-lint: {path}: {e}");
            return ExitCode::from(EXIT_INPUT);
        }
        eprintln!(
            "ipmedia-lint: wrote {} fingerprint(s) to {path}",
            report.kept.len()
        );
        return ExitCode::SUCCESS;
    }

    // Baseline hygiene: a fingerprint that matches no current finding is
    // stale — the suppressed problem was fixed (or moved). Warn (AZ701,
    // never fatal) and optionally rewrite the file without them.
    let stale = {
        let mut all = report.kept.clone();
        all.extend(report.suppressed.iter().cloned());
        baseline.stale(&all)
    };
    for fp in &stale {
        let d = Diagnostic::warning(
            "AZ701",
            format!("baseline fingerprint `{fp}` matches no current finding"),
        )
        .with_note("the suppressed finding was fixed or moved; remove the line or rerun with --prune-baseline");
        eprintln!("{}\n", d.render());
        if opts.jsonl {
            println!("{}", d.to_json());
        }
    }
    if opts.prune_baseline {
        let path = opts.baseline.as_deref().expect("validated in parse_args");
        let mut all = report.kept.clone();
        all.extend(report.suppressed.iter().cloned());
        if let Err(e) = std::fs::write(path, baseline.pruned(&all).to_text()) {
            eprintln!("ipmedia-lint: {path}: {e}");
            return ExitCode::from(EXIT_INPUT);
        }
        eprintln!(
            "ipmedia-lint: pruned {} stale fingerprint(s) from {path}",
            stale.len()
        );
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;
    for d in &report.kept {
        match d.severity {
            ipmedia_analyze::Severity::Error => errors += 1,
            ipmedia_analyze::Severity::Warning => warnings += 1,
        }
        eprintln!("{}\n", d.render());
        if opts.jsonl {
            println!("{}", d.to_json());
        }
    }

    let failed = report.denied(opts.deny_warnings) > 0;
    eprintln!(
        "ipmedia-lint: {} scenario(s), {errors} error(s), {warnings} warning(s), {} suppressed{}",
        scenarios.len(),
        report.suppressed.len(),
        if failed { "" } else { " — clean" }
    );
    if opts.jsonl {
        let names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        println!(
            "{}",
            JsonObj::new()
                .str("type", "lint_summary")
                .raw("scenarios", &json_str_array(names))
                .num("errors", errors as u64)
                .num("warnings", warnings as u64)
                .num("suppressed", report.suppressed.len() as u64)
                .bool("deny_warnings", opts.deny_warnings)
                .bool("failed", failed)
                .finish()
        );
    }
    if failed {
        ExitCode::from(EXIT_FINDINGS)
    } else {
        ExitCode::SUCCESS
    }
}
