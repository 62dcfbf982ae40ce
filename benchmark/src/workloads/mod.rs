//! The four workloads. Each is a closed loop driven by one generator (the
//! main thread): the next repetition starts when the previous one has
//! completed and been checked, so every workload is also a correctness
//! sweep. Why each exists is recorded in `BENCHMARK.json` and the README.

pub mod mck_explore;
pub mod rt;
pub mod sim_storm;

use crate::metrics::Metrics;
pub use crate::sampler::Rep;
use crate::spans::Spans;
use crate::yardstick::Pace;
use rand::rngs::StdRng;
use rand::RngExt;

/// Workload names, in the order a full set runs them.
pub const NAMES: [&str; 4] = ["sim_storm", "rt_waves", "rt_midcall", "mck_explore"];

/// Why each workload exists, one line each (`BENCHMARK.json` records them).
pub const WHY: [&str; 4] = [
    "10,000-call seeded storm through netsim, back to back: core dispatch and the netsim event loop do all the work, rt and tokio none; the working set exceeds cache",
    "512 calls over 64 loopback channels closed and re-opened in waves: CPU-bound on rt (inbox sharding, writer batching, snapshot publish, wire and frame cost); netsim and mck idle",
    "one mute/unmute at a time through a flowlinking gateway: latency-bound on the tokio stand-in's 1 ms socket poll, so batching that helps rt_waves can only hurt here",
    "model checker at one thread over three fixed configurations: uses core by clone, hash and canonicalize instead of dispatch; netsim and rt idle",
];

/// The seed `BENCH_storm.json` was recorded at; the pinned `sim_storm`
/// digest holds at this seed.
pub const DEFAULT_SEED: u64 = 0x5704_0001;

/// `Quick` shrinks every input so the whole set runs in seconds; its
/// numbers check the plumbing and are not comparable with `Full`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Quick,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Quick => "quick",
        }
    }
}

pub trait Workload {
    /// One closed-loop repetition — a storm, a wave, a mid-call op, a
    /// sweep — with its output check.
    fn rep(&mut self, spans: &mut Spans) -> Rep;

    /// This workload's layer metrics: what its spans say about the
    /// repetitions just run, plus probes of the layers it exercises.
    /// Called once, in a traced run, with recording on.
    fn layers(&mut self, spans: &mut Spans, out: &mut Metrics);

    /// Checks that only make sense once the run is over (frames shed,
    /// retransmissions), then shut down. Returns the failures found.
    fn finish(self: Box<Self>) -> u64 {
        0
    }
}

/// Seeded Fisher–Yates: every workload orders its inputs with this.
pub(crate) fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i as u64) as usize);
    }
}

/// Which part of the host sets the named workload's pace, so that its times
/// are reported at nominal host speed by that yardstick (see
/// [`crate::yardstick`]): the two single-threaded workloads whose working
/// set exceeds the caches, and the one that keeps both cores busy.
/// `rt_midcall` is paced by the runtime's 1 ms timers; no yardstick tracks
/// it and its times are reported as measured.
pub fn pace(name: &str) -> Option<Pace> {
    match name {
        "sim_storm" => Some(Pace::Allocation),
        "rt_waves" => Some(Pace::TwoCores),
        "mck_explore" => Some(Pace::CacheMisses),
        _ => None,
    }
}

fn unknown(name: &str) -> String {
    format!(
        "unknown workload {name:?}; the workloads are {}",
        NAMES.join(", ")
    )
}

/// Where `name` stands in [`NAMES`].
pub fn index(name: &str) -> Result<usize, String> {
    NAMES
        .iter()
        .position(|n| *n == name)
        .ok_or_else(|| unknown(name))
}

/// Build the named workload's inputs from `seed` and warm it up; the
/// returned value is ready for timed repetitions.
pub fn setup(
    name: &str,
    seed: u64,
    size: Size,
    spans: &mut Spans,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "sim_storm" => Box::new(sim_storm::SimStorm::setup(seed, size, spans)),
        "rt_waves" => Box::new(rt::Waves::setup(seed, size, spans)),
        "rt_midcall" => Box::new(rt::Midcall::setup(seed, size, spans)),
        "mck_explore" => Box::new(mck_explore::MckExplore::setup(seed, size, spans)),
        other => return Err(unknown(other)),
    })
}
