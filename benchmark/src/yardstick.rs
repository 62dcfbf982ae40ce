//! The host's speed, taken alongside a workload. The guests this runs on
//! share their memory system and their cores with neighbours: the same
//! storm takes 0.3 s in one minute and 0.6 s in another, for minutes at a
//! time, while a register-only loop (`host.spin_ns`) hardly moves. So the
//! benchmark carries a yardstick — fixed work that touches none of the
//! repository's code, in the three kinds of [`Pace`] — and measures it in
//! bursts between stretches of a workload's repetitions. A workload whose
//! pace the host sets reports its times at *nominal* host speed: divided by
//! how much longer than [`NOMINAL_MS`] its yardstick took during that run.
//! The README records how closely each yardstick tracks its workload, and
//! which workload none tracks.

use crate::sampler;
use crate::stats;
use std::collections::HashMap;
use std::hint::black_box;

/// What one measure takes on a host of nominal speed. A convention, like a
/// reference temperature: it only fixes the scale adjusted times are on.
pub const NOMINAL_MS: f64 = 25.0;

/// Measures per burst: enough for a median, short enough (a tenth of a
/// second) to leave the run to the workload.
const BURST: usize = 3;

/// Entries of the table a [`Pace::CacheMisses`] measure chases pointers
/// through: 32 MB, far beyond any cache and TLB reach.
const TABLE: usize = 8 << 20;
const CHASE_STEPS: usize = 200_000;
const RECORDS: usize = 100_000;
/// What each of the two threads of a [`Pace::TwoCores`] measure does.
const PAIR_RECORDS: usize = 50_000;
const PAIR_SPINS: u64 = 8_250_000;

/// Which part of the host sets a workload's pace, and so which work its
/// yardstick does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    /// Building and dropping many small heap objects and the maps that hold
    /// them, as a storm does with its boxes.
    Allocation,
    /// Dependent loads that miss cache and TLB, as walking and interning a
    /// state graph does.
    CacheMisses,
    /// Two threads at once, each allocating as above and then running a
    /// register-only loop, as a runtime that keeps both cores busy does:
    /// slow when the memory system is and when a neighbour takes a core.
    TwoCores,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

pub struct Yardstick {
    /// `None` for a workload no yardstick tracks: bursts measure nothing
    /// and [`Yardstick::slowdown`] is 1.
    pace: Option<Pace>,
    /// One cycle through all of `0..TABLE` in scattered order, for
    /// [`Pace::CacheMisses`] once it has measured; empty otherwise.
    next: Vec<u32>,
    at: u32,
    /// Every measure of this run, ms each.
    pub ms: Vec<f64>,
}

impl Yardstick {
    pub fn new(pace: Option<Pace>) -> Self {
        Self {
            pace,
            next: Vec::new(),
            at: 0,
            ms: Vec::new(),
        }
    }

    /// The table of a [`Pace::CacheMisses`] yardstick, built when first
    /// measured so that the process's memory until then is its workload's.
    fn build_table(&mut self) {
        // Sattolo's shuffle: a single cycle, so a walk never gets caught
        // in a short one that fits a cache.
        self.next = (0..TABLE as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..TABLE).rev() {
            self.next.swap(i, (xorshift(&mut x) % i as u64) as usize);
        }
    }

    /// [`CHASE_STEPS`] dependent loads through the table.
    fn chase(&mut self) {
        for _ in 0..CHASE_STEPS {
            self.at = self.next[self.at as usize];
        }
        black_box(self.at);
    }

    /// Twice: `records` boxed 64-byte records put into a map under
    /// scattered keys, as many look-ups of keys that are not there, and all
    /// of it freed.
    fn allocate(records: usize) {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..2 {
            let mut map: HashMap<u64, Box<[u64; 8]>> = HashMap::new();
            for _ in 0..records {
                let key = xorshift(&mut x);
                map.insert(key, Box::new([key; 8]));
            }
            let mut found = 0u64;
            for _ in 0..records {
                if let Some(record) = map.get(&xorshift(&mut x)) {
                    found += record[0];
                }
            }
            black_box(found);
        }
    }

    /// One thread's half of a [`Pace::TwoCores`] measure.
    fn allocate_and_spin() {
        Self::allocate(PAIR_RECORDS);
        let mut y = black_box(0x9E37_79B9_7F4A_7C15u64);
        for i in 0..PAIR_SPINS {
            y = black_box(y.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
    }

    /// Measure [`BURST`] more times.
    pub fn burst(&mut self) {
        let Some(pace) = self.pace else { return };
        if pace == Pace::CacheMisses && self.next.is_empty() {
            self.build_table();
        }
        for _ in 0..BURST {
            let ((), ms) = sampler::time(|| match pace {
                Pace::Allocation => Self::allocate(RECORDS),
                Pace::CacheMisses => self.chase(),
                Pace::TwoCores => std::thread::scope(|s| {
                    s.spawn(Self::allocate_and_spin);
                    Self::allocate_and_spin();
                }),
            });
            self.ms.push(ms);
        }
    }

    /// How much longer than nominal a measure took, over the whole run:
    /// above 1 on a slow host. A time divided by this, or a rate multiplied
    /// by it, is at nominal host speed.
    pub fn slowdown(&self) -> f64 {
        stats::median(&self.ms).map_or(1.0, |ms| ms / NOMINAL_MS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_burst_measures_real_work() {
        for pace in [Pace::Allocation, Pace::CacheMisses, Pace::TwoCores] {
            let mut y = Yardstick::new(Some(pace));
            assert!(y.next.is_empty());
            y.burst();
            assert_eq!(
                y.next.len(),
                if pace == Pace::CacheMisses { TABLE } else { 0 }
            );
            assert_eq!(y.ms.len(), BURST);
            // A tenth of a millisecond would mean the work was optimised
            // away; seconds, that it is no longer something to afford
            // between stretches.
            assert!(
                y.ms.iter().all(|&ms| ms > 0.1 && ms < 5_000.0),
                "{pace:?}: {:?}",
                y.ms
            );
            assert!(y.slowdown() > 0.0);
        }
    }

    #[test]
    fn no_pace_no_yardstick() {
        let mut y = Yardstick::new(None);
        y.burst();
        assert!(y.ms.is_empty());
        assert_eq!(y.slowdown(), 1.0);
    }
}
