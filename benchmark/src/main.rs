//! Command line of the benchmark. `BENCHMARK.json` names the first form;
//! the others are for people.
//!
//! ```text
//! ipmedia-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
//! ipmedia-benchmark run       [--seed N] [--seconds S] [--quick] [--out DIR]
//! ipmedia-benchmark selfcheck [--seed N] [--seconds S] [--quick] [--out DIR]
//! ipmedia-benchmark compare A.json B.json
//! ```

use ipmedia_benchmark::run::{self, Args};
use ipmedia_benchmark::suite;
use ipmedia_benchmark::workloads::{self, Size};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ipmedia-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    let failed = |bad: bool| {
        if bad {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    };
    match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [a, b] => {
                let found = suite::compare(a.as_ref(), b.as_ref())?;
                Ok(failed(found.worse > 0))
            }
            _ => Err("usage: compare A.json B.json".into()),
        },
        Some("run") => {
            let args = set_args(&argv[1..])?;
            suite::run_set(&args, &args.out.join("result.json"))?;
            Ok(ExitCode::SUCCESS)
        }
        Some("selfcheck") => {
            suite::selfcheck(&set_args(&argv[1..])?)?;
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            let (workload, trace, args) = run_args(argv)?;
            let outcome = if trace {
                let which = workloads::index(&workload)?;
                run::traced(&args)?.outcome(which)
            } else {
                run::untraced(&workload, &args)?
            };
            for d in outcome.table() {
                let v = outcome
                    .metrics
                    .get(d.name)
                    .expect("every metric of the pass is set");
                eprintln!("{:<30} {v:>16.4} {}", d.name, d.unit);
            }
            println!("{}", outcome.result_line());
            Ok(failed(!outcome.correct()))
        }
    }
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} {v:?} is not a number"))
}

fn seed(v: &str) -> Result<u64, String> {
    match v.strip_prefix("0x") {
        Some(hex) => {
            u64::from_str_radix(hex, 16).map_err(|_| format!("--seed {v:?} is not a number"))
        }
        None => number("--seed", v),
    }
}

/// Walk `--flag value` pairs (and bare `--flag`s named in `bare`).
fn flags<'a>(
    argv: &'a [String],
    bare: &[&str],
    mut each: impl FnMut(&'a str, &'a str) -> Result<(), String>,
) -> Result<(), String> {
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if bare.contains(&flag.as_str()) {
            each(flag, "")?;
        } else {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            each(flag, value)?;
        }
    }
    Ok(())
}

/// The flags every form but `compare` takes; anything else goes to `other`.
fn common<'a>(
    argv: &'a [String],
    mut other: impl FnMut(&'a str, &'a str) -> Result<(), String>,
) -> Result<Args, String> {
    let mut args = Args::default();
    flags(argv, &["--quick"], |flag, v| {
        match flag {
            "--seed" => args.seed = seed(v)?,
            "--seconds" => args.seconds = number(flag, v)?,
            "--quick" => args.size = Size::Quick,
            "--out" => args.out = PathBuf::from(v),
            _ => other(flag, v)?,
        }
        Ok(())
    })?;
    Ok(args)
}

fn run_args(argv: &[String]) -> Result<(String, bool, Args), String> {
    let (mut workload, mut trace) = (None, false);
    let args = common(argv, |flag, v| {
        match flag {
            "--workload" => workload = Some(v.to_string()),
            "--trace" => trace = number::<u8>(flag, v)? != 0,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
        Ok(())
    })?;
    let workload = workload
        .ok_or("which workload? pass --workload NAME, or a subcommand: run, selfcheck, compare")?;
    Ok((workload, trace, args))
}

fn set_args(argv: &[String]) -> Result<Args, String> {
    common(argv, |flag, _| Err(format!("unknown argument {flag:?}")))
}
