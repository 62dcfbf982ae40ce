//! One pass in this process: the untraced pass of one workload, which
//! measures every end-to-end metric and nothing else, or the traced pass,
//! which records spans and measures every layer of all four workloads. No
//! end-to-end number is ever taken from a traced pass.

use crate::host;
use crate::metrics::{Decl, Metrics, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::probes;
use crate::sampler::{self, sample, Samples, Until};
use crate::spans::Spans;
use crate::stats;
use crate::workloads::{self, Size, DEFAULT_SEED, NAMES};
use crate::yardstick::{Pace, Yardstick};
use ipmedia_obs::JsonObj;
use std::path::PathBuf;
use std::time::Duration;

/// The untraced pass sets its workload up at least this often, tearing each
/// instance down before the next; `setup_s` is the median, so one slow spawn
/// or page-fault storm does not decide it.
const SETUPS: usize = 3;

/// The timed phase runs in stretches this long (a repetition is never cut
/// short, so a sweep of several seconds is a stretch of its own), with the
/// yardstick taken between them: the host's speed wanders within a run.
const STRETCH: Duration = Duration::from_secs(2);

#[derive(Debug, Clone)]
pub struct Args {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub size: Size,
    /// Where raw samples, traces and result files go.
    pub out: PathBuf,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            seed: DEFAULT_SEED,
            seconds: f64::from(RUN_SECONDS),
            size: Size::Full,
            out: PathBuf::from("benchmark/out"),
        }
    }
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    table: &'static [Decl],
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn table(&self) -> &'static [Decl] {
        self.table
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .to_json(self.table)
            .unwrap_or_else(|e| panic!("benchmark bug: {e}"));
        JsonObj::new()
            .bool("correct", self.correct())
            .num("attempted", self.attempted)
            .num("failed", self.failed)
            .raw("metrics", &metrics)
            .finish()
    }
}

fn prepare(args: &Args) -> Result<(), String> {
    if !(args.seconds > 0.0 && args.seconds <= 3_600.0) {
        return Err(format!("--seconds {} is not a run length", args.seconds));
    }
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))
}

/// The untraced pass of `workload`: a sequence of instances, each set up,
/// perhaps run, and torn down, with a yardstick burst after every teardown.
/// A workload that is quiet between repetitions is set up [`SETUPS`] times
/// and the last instance runs the whole timed phase, in stretches of
/// [`STRETCH`] with a burst after each. The rt nodes are not quiet — their
/// readers re-poll at 1 kHz, which takes 0.4 of a core and a quarter of the
/// two-thread yardstick's speed — so a workload paced by [`Pace::TwoCores`]
/// gets a fresh instance for every stretch and its yardstick runs only when
/// none is alive: what the yardstick reads must not depend on the program.
pub fn untraced(workload: &str, args: &Args) -> Result<Outcome, String> {
    prepare(args)?;
    let pace = workloads::pace(workload);
    let fresh_per_stretch = pace == Some(Pace::TwoCores);
    let mut yard = Yardstick::new(pace);
    let mut setup_ms = Vec::new();
    let mut peak_rss_mb = 0.0;
    let mut bad = 0;
    let mut spans = Spans::new();
    let mut timed = Samples::default();
    // Rate of each stretch: the median is reported, so a burst of the
    // host's that hits one stretch does not decide it.
    let mut ops_per_s = Vec::new();
    loop {
        let (w, ms) =
            sampler::time(|| workloads::setup(workload, args.seed, args.size, &mut Spans::new()));
        let mut w = w?;
        if setup_ms.is_empty() {
            // Memory is read here: after a fixed amount of the workload's
            // own work and before any of the yardstick's. The rt nodes grow
            // with every repetition, so at exit it would say how many the
            // host fitted into the run.
            peak_rss_mb = host::peak_rss_mb();
        }
        setup_ms.push(ms);
        let last = setup_ms.len() >= SETUPS;
        if fresh_per_stretch || last {
            while timed.wall_s < args.seconds {
                let stretch = Duration::from_secs_f64(args.seconds - timed.wall_s).min(STRETCH);
                let reps = sample(Until::Elapsed(stretch), |_| w.rep(&mut spans));
                ops_per_s.push(reps.ops_per_s());
                timed.extend(reps);
                if fresh_per_stretch {
                    break;
                }
                yard.burst();
            }
        }
        bad += w.finish();
        yard.burst();
        if last && timed.wall_s >= args.seconds {
            break;
        }
    }
    let slowdown = yard.slowdown();

    let reps = stats::summarize(&timed.ms).expect("a loop runs at least once");
    eprintln!(
        "{workload}: {} repetitions, ms q1 {:.4} median {:.4} q3 {:.4} (spread {:.1} %); \
         {} yardstick measures, times divided by {slowdown:.4}",
        reps.n,
        reps.q1,
        reps.median,
        reps.q3,
        reps.spread() * 100.0,
        yard.ms.len(),
    );
    let mut m = Metrics::new();
    m.set(
        "ops_per_s",
        stats::median(&ops_per_s).expect("a run has at least one stretch") * slowdown,
    );
    m.set("rep_ms_p50", reps.median / slowdown);
    m.set("peak_rss_mb", peak_rss_mb);
    m.set(
        "setup_s",
        stats::median(&setup_ms).expect("at least one set-up") / 1e3 / slowdown,
    );
    write_reps(workload, args, &timed, &yard)?;
    Ok(Outcome {
        attempted: timed.attempted,
        failed: timed.failed + bad,
        metrics: m,
        table: &END_TO_END,
    })
}

/// What a traced pass measured.
pub struct Traced {
    /// The layer metrics that describe a layer, not one workload's loop.
    pub layers: Metrics,
    /// Per workload, in [`NAMES`] order: `rep.*`, `host.spin_ns`,
    /// `host.yardstick_*_ms`, `host.cpu_busy_share`, `host.cpu_ms_per_op` and
    /// `host.trace_overhead_pct`, taken before and over that workload's
    /// repetitions.
    pub of_workload: Vec<Metrics>,
    pub attempted: u64,
    pub failed: u64,
}

impl Traced {
    /// The result of a traced run asked for workload number `which`: every
    /// layer, and that workload's own readings.
    pub fn outcome(&self, which: usize) -> Outcome {
        let mut metrics = Metrics::new();
        metrics.extend(&self.layers);
        metrics.extend(&self.of_workload[which]);
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            table: &PER_LAYER,
        }
    }
}

/// The traced pass: the probes first, then each workload set up, run for a
/// quarter of the run length and asked for its layer metrics. Spans are on
/// in every second repetition only, so that what recording costs is measured
/// between neighbours, not across the host's drift. It does the same work
/// whichever workload a run was asked for.
pub fn traced(args: &Args) -> Result<Traced, String> {
    prepare(args)?;
    let mut layers = Metrics::new();
    let mut spans = Spans::new();
    let mut yards = [
        (
            "host.yardstick_alloc_ms",
            Yardstick::new(Some(Pace::Allocation)),
        ),
        (
            "host.yardstick_chase_ms",
            Yardstick::new(Some(Pace::CacheMisses)),
        ),
        (
            "host.yardstick_pair_ms",
            Yardstick::new(Some(Pace::TwoCores)),
        ),
    ];
    probes::run(args.size, &mut layers);

    let share = Duration::from_secs_f64(args.seconds / NAMES.len() as f64);
    let mut of_workload = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for name in NAMES {
        let mut own = Metrics::new();
        own.set("host.spin_ns", probes::spin_ns());
        for (metric, yard) in &mut yards {
            yard.ms.clear();
            yard.burst();
            own.set(metric, stats::median(&yard.ms).expect("a burst measures"));
        }
        spans.set_enabled(true);
        let mut w = workloads::setup(name, args.seed, args.size, &mut spans)?;
        let reps = sample(Until::Both(share, 2), |rep| {
            spans.set_enabled(rep % 2 == 1);
            spans.set_rep(rep);
            w.rep(&mut spans)
        });
        spans.set_enabled(true);
        w.layers(&mut spans, &mut layers);
        attempted += reps.attempted;
        failed += reps.failed + w.finish();
        own_readings(&reps, &mut own);
        of_workload.push(own);
    }
    layers.set("host.trace_spans", spans.all().len() as f64);
    write_trace(args, &spans)?;
    eprintln!(
        "{:<26} {:>7} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, count, total_ns, self_ns) in spans.self_times() {
        let (total, own) = (total_ns as f64 / 1e6, self_ns as f64 / 1e6);
        eprintln!("{name:<26} {count:>7} {total:>12.3} {own:>12.3}");
    }
    Ok(Traced {
        layers,
        of_workload,
        attempted,
        failed,
    })
}

/// What one workload's repetitions add to a traced pass: tails and support
/// of the span-free ones (the even ones), how busy the loop kept the host,
/// and what recording spans cost the odd ones.
fn own_readings(reps: &Samples, m: &mut Metrics) {
    let every_other =
        |from: usize| -> Vec<f64> { reps.ms.iter().copied().skip(from).step_by(2).collect() };
    let (plain, with_spans) = (every_other(0), every_other(1));
    let s = stats::summarize(&plain).expect("a traced workload runs at least twice");
    m.set("rep.count", s.n as f64);
    for (name, p) in [("rep.ms_p90", 90.0), ("rep.ms_p99", 99.0)] {
        m.set(
            name,
            stats::percentile(&plain, p).expect("summarized above"),
        );
    }
    m.set("rep.ms_max", s.max);
    m.set("rep.ms_mad", s.mad);
    m.set(
        "rep.supported_percentile",
        stats::supported_percentile(s.n).unwrap_or(0.0),
    );
    m.set(
        "host.cpu_busy_share",
        reps.cpu_s / (reps.wall_s * host::nproc() as f64),
    );
    m.set("host.cpu_ms_per_op", reps.cpu_ms_per_op());
    let on = stats::median(&with_spans).expect("a traced workload runs at least twice");
    m.set(
        "host.trace_overhead_pct",
        (on - s.median) / s.median * 100.0,
    );
}

/// First line of every raw file: which pass of what wrote it, and where.
fn provenance(pass: &str, args: &Args) -> String {
    let run = JsonObj::new()
        .str("record", "provenance")
        .str("pass", pass)
        .num("seed", args.seed)
        .float("seconds", args.seconds)
        .str("size", args.size.name());
    host::provenance(run).finish()
}

fn write(path: PathBuf, text: String) -> Result<(), String> {
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Raw samples of the timed phase and of the yardstick, one JSON line each
/// after a provenance line: the reducer's input, as measured, kept so a
/// number can be re-derived.
fn write_reps(
    workload: &str,
    args: &Args,
    timed: &Samples,
    yard: &Yardstick,
) -> Result<(), String> {
    let mut text = provenance(workload, args);
    for (key, all) in [("rep", &timed.ms), ("yardstick", &yard.ms)] {
        for (i, ms) in all.iter().enumerate() {
            text.push('\n');
            text.push_str(&JsonObj::new().num(key, i as u64).float("ms", *ms).finish());
        }
    }
    text.push('\n');
    let name = format!("{workload}-seed{}-reps.jsonl", args.seed);
    write(args.out.join(name), text)
}

fn write_trace(args: &Args, spans: &Spans) -> Result<(), String> {
    let mut text = provenance("traced", args);
    for (i, s) in spans.all().iter().enumerate() {
        text.push('\n');
        let line = JsonObj::new()
            .num("id", i as u64)
            .str("name", s.name)
            .num("rep", u64::from(s.rep))
            .raw("parent", &s.parent.map_or("null".into(), |p| p.to_string()))
            .num("start_ns", s.start_ns)
            .num("end_ns", s.end_ns);
        text.push_str(&line.finish());
    }
    text.push('\n');
    write(
        args.out
            .join(format!("traced-seed{}-spans.jsonl", args.seed)),
        text,
    )?;
    write(
        args.out
            .join(format!("traced-seed{}-trace.json", args.seed)),
        spans.chrome_trace(),
    )
}
