//! The whole set: every workload's untraced pass in a fresh child process,
//! then one traced pass, reduced into one result file; `compare` of two such
//! files; and `selfcheck`, which runs the set twice on one build and holds
//! the two against the benchmark's own bounds.

use crate::host;
use crate::json::{self, Json};
use crate::metrics::{Better, Decl, Metrics, END_TO_END, EXACT_REPEAT, PER_LAYER};
use crate::run::{self, Args};
use crate::workloads::{Size, NAMES};
use ipmedia_obs::JsonObj;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// One untraced child run: this executable again with the driver's
/// arguments, its result line parsed. The child has ended when this returns.
fn child(workload: &str, args: &Args) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .arg("--out")
        .arg(&args.out)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.size == Size::Quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    json::parse(line)
        .map_err(|e| format!("{workload} (exit {}) printed no result: {e}", output.status))
}

fn number(result: &Json, key: &str) -> Result<f64, String> {
    result
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("a result line lacks {key}"))
}

/// `{name: {"unit", "value"}}` of the metrics of `table` that `m` holds,
/// each printed by name with its unit on the way.
fn cells(table: &[Decl], m: &Metrics) -> String {
    let mut obj = JsonObj::new();
    for d in table {
        if let Some(v) = m.get(d.name) {
            println!("  {:<28} {v:>14.4} {}", d.name, d.unit);
            let cell = JsonObj::new().str("unit", d.unit).float("value", v);
            obj = obj.raw(d.name, &cell.finish());
        }
    }
    obj.finish()
}

/// Run the whole set and write the reduced result to `result`. An output
/// check that failed anywhere is in the file's `fail_share` and an error.
pub fn run_set(args: &Args, result: &Path) -> Result<(), String> {
    let clock = Instant::now();
    let mut untraced = Vec::new();
    for name in NAMES {
        eprintln!("{name}: untraced pass");
        untraced.push(child(name, args)?);
    }
    let untraced_wall_s = clock.elapsed().as_secs_f64();
    eprintln!("traced pass");
    let traced = run::traced(args)?;
    let traced_wall_s = clock.elapsed().as_secs_f64() - untraced_wall_s;

    let mut failed = traced.failed;
    let mut workloads = JsonObj::new();
    for ((name, r), own) in NAMES.iter().zip(&untraced).zip(&traced.of_workload) {
        let (attempted, bad) = (number(r, "attempted")?, number(r, "failed")?);
        failed += bad as u64;
        let mut e2e = Metrics::new();
        for d in &END_TO_END {
            let value = r.get("metrics").and_then(|m| m.get(d.name));
            e2e.set(d.name, number(value.unwrap_or(&Json::Null), "value")?);
        }
        println!("{name}");
        let e2e = cells(&END_TO_END, &e2e);
        println!(
            "  {:<28} {:>14.4} ratio ({bad} of {attempted} ops failed)",
            "fail_share",
            bad / attempted
        );
        let entry = JsonObj::new()
            .num("attempted", attempted as u64)
            .num("failed", bad as u64)
            .float("fail_share", bad / attempted)
            .raw("end_to_end", &e2e)
            .raw("traced", &cells(&PER_LAYER, own));
        workloads = workloads.raw(name, &entry.finish());
    }
    println!("layers");
    let layers = cells(&PER_LAYER, &traced.layers);
    println!("untraced pass {untraced_wall_s:.1} s, traced pass {traced_wall_s:.1} s");

    let set = JsonObj::new()
        .num("seed", args.seed)
        .float("seconds", args.seconds)
        .str("size", args.size.name())
        .float("untraced_wall_s", untraced_wall_s)
        .float("traced_wall_s", traced_wall_s);
    let text = JsonObj::new()
        .raw("provenance", &host::provenance(set).finish())
        .raw("workloads", &workloads.finish())
        .raw("per_layer", &layers)
        .finish();
    std::fs::write(result, text + "\n")
        .map_err(|e| format!("cannot write {}: {e}", result.display()))?;
    eprintln!("result written to {}", result.display());
    if failed > 0 {
        return Err(format!("{failed} op(s) failed their output checks"));
    }
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
        }
    }
}

/// Hold side B's reading of one metric against side A's. A set is one run a
/// side, so the bound alone decides; telling a change smaller than the bound
/// from noise takes the paired runs the README describes.
pub fn judge(d: &Decl, a: f64, b: f64) -> Verdict {
    let toward_worse = match d.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = toward_worse * (b - a) / a.abs();
    if worse_by > d.bound {
        Verdict::Worse
    } else if -worse_by > d.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn end_to_end(file: &Json, workload: &str, metric: &str) -> Result<f64, String> {
    file.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("no {metric} for {workload}"))
}

fn fail_share(file: &Json, workload: &str) -> Result<f64, String> {
    file.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("fail_share"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("no fail_share for {workload}"))
}

fn layer(file: &Json, metric: &str) -> Option<f64> {
    file.get("per_layer")?.get(metric)?.get("value")?.as_f64()
}

/// What `compare` found.
#[derive(Debug, Default)]
pub struct Comparison {
    pub worse: usize,
    /// Exact-repeat counts that differ between the two files.
    pub counts_changed: Vec<String>,
}

/// Print, per workload and end-to-end metric, both readings, the change
/// with its base, the bound and the verdict; then `fail_share`, where any
/// increase is worse; then the exact-repeat counts.
pub fn compare(a: &Path, b: &Path) -> Result<Comparison, String> {
    let (fa, fb) = (load(a)?, load(b)?);
    let mut found = Comparison::default();
    println!("A = {}\nB = {}", a.display(), b.display());
    println!(
        "{:<12} {:<14} {:>13} {:>13} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "B vs A", "bound"
    );
    for name in NAMES {
        for d in &END_TO_END {
            let (va, vb) = (
                end_to_end(&fa, name, d.name)?,
                end_to_end(&fb, name, d.name)?,
            );
            let verdict = judge(d, va, vb);
            println!(
                "{:<12} {:<14} {:>13.4} {:>13.4} {:>+8.2}% {:>6.1}%  {}  (of A's {:.4} {})",
                name,
                d.name,
                va,
                vb,
                (vb - va) / va.abs() * 100.0,
                d.bound * 100.0,
                verdict.name(),
                va,
                d.unit,
            );
            found.worse += usize::from(verdict == Verdict::Worse);
        }
        let (sa, sb) = (fail_share(&fa, name)?, fail_share(&fb, name)?);
        let verdict = if sb > sa { "worse" } else { "same" };
        println!(
            "{name:<12} {:<14} {sa:>13.4} {sb:>13.4} {:>9} {:>7}  {verdict}",
            "fail_share", "", "none"
        );
        found.worse += usize::from(sb > sa);
    }
    for metric in EXACT_REPEAT {
        if let (Some(x), Some(y)) = (layer(&fa, metric), layer(&fb, metric)) {
            if x != y {
                found.counts_changed.push(format!("{metric}: {x} -> {y}"));
            }
        }
    }
    match found.counts_changed.as_slice() {
        [] => println!("exact-repeat counts: identical"),
        changed => changed.iter().for_each(|c| println!("count changed: {c}")),
    }
    println!(
        "{} worse, {} count(s) changed",
        found.worse,
        found.counts_changed.len()
    );
    Ok(found)
}

/// Run the set twice on this build and compare: there must be no `worse`
/// and the exact-repeat counts must agree.
pub fn selfcheck(args: &Args) -> Result<(), String> {
    let (a, b) = (
        args.out.join("selfcheck-a.json"),
        args.out.join("selfcheck-b.json"),
    );
    run_set(args, &a)?;
    run_set(args, &b)?;
    let found = compare(&a, &b)?;
    if found.worse > 0 || !found.counts_changed.is_empty() {
        return Err(format!(
            "selfcheck: two runs of one build disagree ({} worse, {} count(s) changed)",
            found.worse,
            found.counts_changed.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Decl = Decl {
        name: "ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER: Decl = Decl {
        name: "rate",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let verdict = judge;
        assert_eq!(verdict(&LOWER, 100.0, 100.0), Verdict::Same);
        assert_eq!(verdict(&LOWER, 100.0, 109.0), Verdict::Same);
        assert_eq!(verdict(&LOWER, 100.0, 111.0), Verdict::Worse);
        assert_eq!(verdict(&LOWER, 100.0, 89.0), Verdict::Better);
        assert_eq!(verdict(&HIGHER, 100.0, 115.0), Verdict::Better);
        assert_eq!(verdict(&HIGHER, 100.0, 85.0), Verdict::Worse);
        assert_eq!(verdict(&HIGHER, 100.0, 95.0), Verdict::Same);
    }
}
