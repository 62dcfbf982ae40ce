//! The built `ipmedia-lint` binary, driven through its documented exit
//! status contract: 0 clean, 1 findings at the deny level, 2 usage error,
//! 3 input error. The fleet fixtures are a prefix of the fuzz generator's
//! population, some clean and some finding-bearing.

use ipmedia_analyze::scenario_fingerprint;
use std::process::{Command, Output};

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ipmedia-lint"))
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("ipmedia-lint runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn exit_statuses_follow_the_documented_contract() {
    let table: [(&[&str], i32); 16] = [
        (&["--all-examples"], 0),
        (&["--all-examples", "--deny", "warnings", "--threads=2"], 0),
        (&["examples/fleet/fleet_004.ipm", "--threads", "2"], 0),
        (&["--help"], 0),
        (&["examples/fleet/fleet_000.ipm"], 1),
        (
            &["--jsonl", "examples/fleet/fleet_000.ipm", "--threads=0"],
            1,
        ),
        (&[], 2),
        (&["--all-examples", "--threads", "abc"], 2),
        (&["--all-examples", "--threads"], 2),
        (&["--all-examples", "--threds", "4"], 2),
        (&["--all-examples", "--sarif", "target/lint.sarif"], 2),
        (&["--all-examples", "--incremental"], 2),
        (&["--all-examples", "--cache", "target/lint-cache"], 2),
        (&["--all-examples", "--deny", "errors"], 2),
        (&["--all-examples", "--promote", "target/promoted"], 2),
        (&["examples/fleet/no_such_file.ipm"], 3),
    ];
    for (args, expected) in table {
        let out = lint(args);
        assert_eq!(
            out.status.code(),
            Some(expected),
            "ipmedia-lint {args:?}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn usage_errors_name_the_argument_and_help_goes_to_stdout() {
    let bad = lint(&["--all-examples", "--threads", "abc"]);
    assert!(stderr(&bad).contains("bad value `abc` for --threads"));
    assert!(stderr(&bad).contains("usage: ipmedia-lint"));
    assert!(bad.stdout.is_empty());

    let help = lint(&["--help", "--bogus"]);
    assert!(String::from_utf8_lossy(&help.stdout).starts_with("usage: ipmedia-lint"));
    assert!(help.stderr.is_empty());
}

#[test]
fn emit_manifest_marks_every_registry_model_clean_by_its_fingerprint() {
    let path = std::env::temp_dir().join(format!("ipm-cli-manifest-{}.txt", std::process::id()));
    let out = lint(&["--all-examples", "--emit-manifest", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = std::fs::read_to_string(&path).expect("manifest written");
    let _ = std::fs::remove_file(&path);
    let lines: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
    let expected: Vec<String> = ipmedia_apps::models::all_scenarios()
        .iter()
        .map(|sc| format!("{} clean {}", scenario_fingerprint(sc), sc.name))
        .collect();
    assert_eq!(lines.len(), 11);
    assert_eq!(lines, expected);
}

#[test]
fn jsonl_findings_are_the_same_at_any_thread_count_and_value_syntax() {
    let files = [
        "examples/fleet/fleet_000.ipm",
        "examples/fleet/fleet_001.ipm",
    ];
    let run = |threads: &[&str]| lint(&[&["--jsonl"], threads, &files[..]].concat()).stdout;
    let one = run(&["--threads", "1"]);
    assert!(String::from_utf8_lossy(&one).contains("\"type\":\"lint_summary\""));
    assert_eq!(one, run(&["--threads=8"]));
}

#[test]
fn fuzz_jsonl_leads_with_the_registry_and_ignores_the_thread_count() {
    let run = |threads: &str| {
        let out = lint(&[
            "--fuzz",
            "20",
            "--max-states",
            "12000",
            "--jsonl",
            "--threads",
            threads,
        ]);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        String::from_utf8(out.stdout).expect("utf-8 records")
    };
    let one = run("1");
    assert_eq!(one, run("2"));

    let records: Vec<&str> = one.lines().collect();
    let registry = ipmedia_apps::models::all_scenarios();
    for (line, sc) in records.iter().zip(&registry) {
        let head = format!(
            "{{\"record\":\"fuzz_registry\",\"scenario\":\"{}\",",
            sc.name
        );
        assert!(line.starts_with(&head), "{line}");
    }
    let kind = |k: &str| {
        let head = format!("{{\"record\":\"{k}\",");
        records.iter().filter(|l| l.starts_with(&head)).count()
    };
    assert_eq!(kind("fuzz_registry"), registry.len());
    assert!(kind("fuzz_check") >= 1);
    assert_eq!(kind("fuzz_summary"), 1);
    assert!(records.last().unwrap().contains("\"clean_run\":true"));
}
