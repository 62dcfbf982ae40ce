//! Drives the built benchmark in `--quick` mode: every workload emits
//! exactly the metrics `BENCHMARK.json` declares for its pass, with the
//! declared units; the file mirrors the program's tables; and a set goes
//! through `run` and `compare`. Quick numbers check the plumbing only —
//! nothing here asserts a speed.

use ipmedia_benchmark::json::{self, Json};
use ipmedia_benchmark::metrics::{Decl, END_TO_END, PER_LAYER, RUN_SECONDS};
use ipmedia_benchmark::workloads::{pace, NAMES, WHY};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_ipmedia-benchmark");

fn out_dir(test: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(test)
}

fn bench(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .output()
        .expect("the benchmark binary starts")
}

fn declared() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn names_and_units(declared: &Json, list: &str) -> Vec<(String, String)> {
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
    declared
        .get(list)
        .and_then(Json::as_arr)
        .expect(list)
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// `BENCHMARK.json` and the tables the program prints from cannot drift
/// apart: same keys, workloads, run length, and per metric the same name,
/// unit, direction and bound.
#[test]
fn benchmark_json_mirrors_the_tables() {
    let declared = declared();
    let keys: Vec<&str> = declared
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        declared.get("run_seconds").and_then(Json::as_f64),
        Some(f64::from(RUN_SECONDS))
    );
    let text = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
    let workloads: Vec<(String, String)> = declared
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let ours: Vec<(String, String)> = NAMES
        .iter()
        .zip(WHY)
        .map(|(n, w)| (n.to_string(), w.to_string()))
        .collect();
    assert_eq!(workloads, ours);
    assert!(WHY.iter().all(|w| w.len() <= 200 && !w.contains('\n')));

    let same = |list: &str, table: &[Decl], bounded: bool| {
        let metrics = declared.get(list).and_then(Json::as_arr).expect(list);
        assert_eq!(metrics.len(), table.len(), "{list}");
        for (m, d) in metrics.iter().zip(table) {
            assert_eq!(text(m, "name"), d.name);
            assert_eq!(text(m, "unit"), d.unit, "{}", d.name);
            assert_eq!(text(m, "better"), d.better.name(), "{}", d.name);
            let bound = m.get("bound").and_then(Json::as_f64);
            assert_eq!(bound, bounded.then_some(d.bound), "{}", d.name);
        }
    };
    same("end_to_end", &END_TO_END, true);
    same("per_layer", &PER_LAYER, false);
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let declared = declared();
    let out = out_dir("declared");
    let workloads = declared.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), 4);
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).unwrap();
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let run = bench(&[
                "--workload",
                name,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--quick",
                "--out",
                out.to_str().unwrap(),
            ]);
            let stdout = String::from_utf8(run.stdout).unwrap();
            let line = stdout.lines().last().unwrap_or_default();
            assert!(
                run.status.success(),
                "{name} --trace {trace}: {}",
                run.status
            );
            let result = json::parse(line).unwrap_or_else(|e| panic!("{name}: {e}: {line}"));
            let keys: Vec<&str> = result
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            let emitted: Vec<(String, String)> = result
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap()
                .iter()
                .map(|(k, m)| {
                    let value = m.get("value").and_then(Json::as_f64);
                    assert!(value.is_some_and(f64::is_finite), "{name}: {k} = {value:?}");
                    let unit = m.get("unit").and_then(Json::as_str).unwrap();
                    (k.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(
                emitted,
                names_and_units(&declared, list),
                "{name} --trace {trace}"
            );
            if trace == "0" {
                for (k, m) in result.get("metrics").and_then(Json::as_obj).unwrap() {
                    let v = m.get("value").and_then(Json::as_f64).unwrap();
                    assert!(v > 0.0, "{name}: end-to-end metric {k} must never be 0");
                }
            }
        }
        for file in [
            format!("{name}-seed7-reps.jsonl"),
            "traced-seed7-spans.jsonl".into(),
            "traced-seed7-trace.json".into(),
        ] {
            let path = out.join(file);
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            for line in text.lines().take(3) {
                json::parse(line).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            }
        }
        let reps = std::fs::read_to_string(out.join(format!("{name}-seed7-reps.jsonl"))).unwrap();
        assert_eq!(
            reps.contains("{\"yardstick\":"),
            pace(name).is_some(),
            "{name}: a run takes a yardstick exactly when its workload has a pace"
        );
    }
}

#[test]
fn a_set_reduces_and_compares() {
    let out = out_dir("set");
    let result = out.join("result.json");
    let (out_s, result_s) = (out.to_str().unwrap(), result.to_str().unwrap());
    let run = bench(&["run", "--quick", "--seconds", "1", "--out", out_s]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let file = json::parse(&std::fs::read_to_string(&result).unwrap()).unwrap();
    let provenance = file.get("provenance").unwrap();
    for field in [
        "seed",
        "seconds",
        "size",
        "git_commit",
        "nproc",
        "rustc",
        "profile",
        "untraced_wall_s",
        "traced_wall_s",
    ] {
        assert!(provenance.get(field).is_some(), "provenance lacks {field}");
    }
    // Every declared layer metric is in the file once: with the layers, or
    // with each workload's own readings.
    let count = |at: &Json| at.as_obj().map_or(0, <[_]>::len);
    let own = |w: &str| {
        count(
            file.get("workloads")
                .unwrap()
                .get(w)
                .unwrap()
                .get("traced")
                .unwrap(),
        )
    };
    let layers = count(file.get("per_layer").unwrap());
    for w in NAMES {
        assert_eq!(layers + own(w), PER_LAYER.len(), "{w}");
    }

    let same = bench(&["compare", result_s, result_s]);
    let table = String::from_utf8(same.stdout).unwrap();
    assert!(same.status.success(), "{table}");
    assert!(table.contains("0 worse"), "{table}");
    assert_eq!(
        table.matches("  same").count(),
        4 * (END_TO_END.len() + 1),
        "{table}"
    );

    // A file whose every repetition is 30 % slower must be called worse.
    let slower = out.join("slower.json");
    let text = std::fs::read_to_string(&result).unwrap();
    std::fs::write(&slower, scale_metric(&text, "rep_ms_p50", 1.3)).unwrap();
    let worse = bench(&["compare", result_s, slower.to_str().unwrap()]);
    let table = String::from_utf8(worse.stdout).unwrap();
    assert_eq!(worse.status.code(), Some(1), "{table}");
    assert!(table.contains("4 worse"), "{table}");
}

/// `text` with the value of `metric` multiplied by `by` wherever it occurs.
fn scale_metric(text: &str, metric: &str, by: f64) -> String {
    let key = format!("\"{metric}\":{{\"unit\":\"ms\",\"value\":");
    let mut out = String::new();
    let mut rest = text;
    while let Some(at) = rest.find(&key) {
        let (head, tail) = rest.split_at(at + key.len());
        let end = tail.find('}').unwrap();
        let value: f64 = tail[..end].parse().unwrap();
        out.push_str(head);
        out.push_str(&(value * by).to_string());
        rest = &tail[end..];
    }
    out + rest
}

#[test]
fn a_wrong_command_line_is_an_error_not_a_result() {
    for args in [
        &["--workload", "nonesuch"][..],
        &["--seconds", "1"],
        &["compare", "one.json"],
        &["run", "--runs", "3"],
        &["manifest"],
    ] {
        let run = bench(args);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} printed a result");
    }
}
