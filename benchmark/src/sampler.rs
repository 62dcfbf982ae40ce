//! The one sampler: every timing the benchmark reports was taken here, as
//! one wall-clock sample per repetition of a closed loop (or per calibrated
//! batch of a tight loop), so warm-up, timing and counting mean the same
//! thing in every workload and probe. [`crate::stats`] reduces what this
//! collects.

use crate::host;
use crate::stats;
use std::time::{Duration, Instant};

/// Outcome of one repetition: operations attempted and how many of them
/// failed their output check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rep {
    pub attempted: u64,
    pub failed: u64,
}

/// When a sampling loop stops. Either way it runs at least one repetition
/// and never cuts one short.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Elapsed(Duration),
    Reps(usize),
    /// That long and at least that many repetitions.
    Both(Duration, usize),
}

/// Back-to-back repetitions of one closed loop.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Wall time of each repetition, ms.
    pub ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// First repetition's start to last repetition's end.
    pub wall_s: f64,
    /// CPU (user + system, all threads) the process used meanwhile.
    pub cpu_s: f64,
}

impl Samples {
    pub fn median_ms(&self) -> f64 {
        stats::median(&self.ms).expect("a sampling loop runs at least one repetition")
    }

    /// Operations that passed their check, per second of the whole loop.
    pub fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall_s
    }

    pub fn cpu_ms_per_op(&self) -> f64 {
        self.cpu_s * 1e3 / self.attempted as f64
    }

    /// Count a later stretch of the same loop in: its repetitions follow
    /// these, and whatever ran between the two stretches is in neither's
    /// wall or CPU time.
    pub fn extend(&mut self, later: Samples) {
        self.ms.extend(later.ms);
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.wall_s += later.wall_s;
        self.cpu_s += later.cpu_s;
    }
}

/// Run `rep` back to back until `until`, timing each repetition. `rep` is
/// handed the repetition's index.
pub fn sample(until: Until, mut rep: impl FnMut(u32) -> Rep) -> Samples {
    let mut out = Samples::default();
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    let end = loop {
        let t = Instant::now();
        let r = rep(out.ms.len() as u32);
        let now = Instant::now();
        out.ms.push((now - t).as_secs_f64() * 1e3);
        out.attempted += r.attempted;
        out.failed += r.failed;
        let done = match until {
            Until::Elapsed(d) => now - start >= d,
            Until::Reps(n) => out.ms.len() >= n,
            Until::Both(d, n) => now - start >= d && out.ms.len() >= n,
        };
        if done {
            break now;
        }
    };
    out.wall_s = (end - start).as_secs_f64();
    out.cpu_s = host::cpu_seconds() - cpu0;
    out
}

/// One timing of something that is not a repetition of a loop (a set-up):
/// what `f` built and the milliseconds it took.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let built = f();
    (built, t.elapsed().as_secs_f64() * 1e3)
}

/// Laps of a loop too hot for a [`Samples`] entry each (a simulator step
/// is about a microsecond): nanoseconds from one [`Laps::lap`] to the next.
pub struct Laps {
    last: Instant,
    pub ns: Vec<u32>,
}

impl Laps {
    pub fn new() -> Self {
        Self {
            last: Instant::now(),
            ns: Vec::new(),
        }
    }

    /// Forget the time since the last lap: what follows is a new stretch.
    pub fn resume(&mut self) {
        self.last = Instant::now();
    }

    pub fn lap(&mut self) {
        let now = Instant::now();
        let ns = (now - self.last).as_nanos();
        self.ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
        self.last = now;
    }
}

impl Default for Laps {
    fn default() -> Self {
        Self::new()
    }
}

/// Nanoseconds per iteration of a tight loop. `batch(n, input)` runs the
/// loop body `n` times on what `prepare(n)` built; only `batch` is timed.
/// `n` is doubled until a batch lasts [`BATCH`] (which is also the
/// warm-up), then [`BATCHES`] batches are timed and the median taken.
pub fn ns_per_iter_with<T>(
    mut prepare: impl FnMut(u64) -> T,
    mut batch: impl FnMut(u64, T),
) -> f64 {
    const BATCH: Duration = Duration::from_millis(2);
    const BATCHES: usize = 15;
    let mut ns_per = |n: u64| {
        let input = prepare(n);
        let t = Instant::now();
        batch(n, input);
        t.elapsed().as_nanos() as f64 / n as f64
    };
    let mut n = 1u64;
    while ns_per(n) * (n as f64) < BATCH.as_nanos() as f64 && n < 1 << 30 {
        n *= 2;
    }
    let timed: Vec<f64> = (0..BATCHES).map(|_| ns_per(n)).collect();
    stats::median(&timed).expect("BATCHES > 0")
}

/// [`ns_per_iter_with`] for a loop that needs nothing prepared.
pub fn ns_per_iter(mut batch: impl FnMut(u64)) -> f64 {
    ns_per_iter_with(|_| (), |n, ()| batch(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_loop_runs_at_least_once_and_counts_what_it_ran() {
        let one = Rep {
            attempted: 3,
            failed: 1,
        };
        let s = sample(Until::Elapsed(Duration::ZERO), |_| one);
        assert_eq!((s.ms.len(), s.attempted, s.failed), (1, 3, 1));
        let mut seen = Vec::new();
        let s = sample(Until::Reps(4), |i| {
            seen.push(i);
            one
        });
        assert_eq!(seen, [0, 1, 2, 3]);
        assert_eq!((s.ms.len(), s.attempted, s.failed), (4, 12, 4));
        assert!(s.wall_s * 1e3 >= s.ms.iter().sum::<f64>());
        let (built, ms) = time(|| {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        assert!(built == 7 && ms >= 2.0);
    }

    #[test]
    fn elapsed_loops_stop_at_a_repetition_boundary() {
        let s = sample(Until::Elapsed(Duration::from_millis(20)), |_| {
            std::thread::sleep(Duration::from_millis(3));
            Rep {
                attempted: 1,
                failed: 0,
            }
        });
        assert!(s.wall_s >= 0.020 && s.ms.len() >= 2 && s.ms.len() <= 7);
        assert!(s.ops_per_s() > 100.0 && s.ops_per_s() < 400.0);
    }

    #[test]
    fn stretches_add_up_without_what_ran_between_them() {
        let nap = |_| {
            std::thread::sleep(Duration::from_millis(2));
            Rep {
                attempted: 2,
                failed: 0,
            }
        };
        let mut whole = sample(Until::Reps(3), nap);
        std::thread::sleep(Duration::from_millis(300));
        whole.extend(sample(Until::Reps(2), nap));
        assert_eq!((whole.ms.len(), whole.attempted, whole.failed), (5, 10, 0));
        assert!(whole.wall_s >= 0.010 && whole.wall_s < 0.300);
    }

    #[test]
    fn tight_loops_are_timed_per_iteration() {
        let ns = ns_per_iter(|n| {
            let mut x = std::hint::black_box(1u64);
            for i in 0..n {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
            std::hint::black_box(x);
        });
        assert!(ns > 0.0 && ns < 1_000.0, "{ns} ns per multiply-add");
    }
}
