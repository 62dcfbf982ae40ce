//! Applying declarative [`ChaosSchedule`]s to the simulator.
//!
//! [`apply_schedule`] resolves a schedule's box names against a built
//! network and arms every phase in virtual time: partitions and heals
//! become scheduled partition events, bursts become per-channel fault
//! windows (one seeded PRNG stream per channel, derived from the
//! schedule seed and phase index so identical schedules replay
//! identically), and crashes ride the existing crash/restart machinery.

use crate::fault::FaultPlan;
use crate::sim::Network;
use crate::time::{SimDuration, SimTime};
use ipmedia_core::chaos::{ChaosAction, ChaosSchedule};
use ipmedia_core::hash::splitmix64;
use ipmedia_core::BoxId;

/// Where a schedule landed in virtual time.
#[derive(Debug, Clone, Copy)]
pub struct AppliedChaos {
    /// Virtual time of schedule offset zero.
    pub start: SimTime,
    /// Virtual time after which no injected fault is active — the
    /// recovery-time-objective clock starts here. `None` iff some
    /// partition never heals.
    pub settle: Option<SimTime>,
}

/// Derive a per-channel burst seed from the phase's seed and the channel
/// id (splitmix64 finalizer), so every burst window owns an independent,
/// reproducible PRNG stream.
fn burst_seed(phase_seed: u64, ch: u32) -> u64 {
    splitmix64(phase_seed.wrapping_add(u64::from(ch) << 17))
}

/// Arm every phase of `schedule` on `net`, anchored at the current
/// virtual time. Box names are resolved against the network; an unknown
/// name or a burst over a pair with no channel is an error (the schedule
/// does not match the deployment).
pub fn apply_schedule(net: &mut Network, schedule: &ChaosSchedule) -> Result<AppliedChaos, String> {
    let start = net.now();
    let resolve = |net: &Network, name: &str| -> Result<BoxId, String> {
        net.box_id(name)
            .ok_or_else(|| format!("chaos schedule names unknown box {name:?}"))
    };
    for (i, phase) in schedule.phases.iter().enumerate() {
        let at = start + SimDuration::from_millis(phase.at_ms);
        match &phase.action {
            ChaosAction::Partition { a, b, dir } => {
                let (a, b) = (resolve(net, a)?, resolve(net, b)?);
                let (block_ab, block_ba) = dir.blocks();
                net.schedule_partition(at, a, b, block_ab, block_ba);
            }
            ChaosAction::Heal { a, b } => {
                let (a, b) = (resolve(net, a)?, resolve(net, b)?);
                net.schedule_heal(at, a, b);
            }
            ChaosAction::Burst {
                a,
                b,
                drop,
                duplicate,
                reorder,
                max_extra_delay_ms,
                duration_ms,
            } => {
                let (a, b) = (resolve(net, a)?, resolve(net, b)?);
                let channels = net.channels_between(a, b);
                if channels.is_empty() {
                    return Err(format!(
                        "chaos burst targets a pair with no channel (boxes {a} and {b})"
                    ));
                }
                for ch in channels {
                    let plan = FaultPlan::new(burst_seed(schedule.phase_seed(i), ch.0))
                        .with_drop(*drop)
                        .with_duplicate(*duplicate)
                        .with_reorder(*reorder)
                        .with_max_extra_delay(SimDuration::from_millis(*max_extra_delay_ms));
                    net.schedule_burst(at, ch, plan, SimDuration::from_millis(*duration_ms));
                }
            }
            ChaosAction::Crash { bx, down_ms } => {
                let bx = resolve(net, bx)?;
                net.schedule_crash(bx, at, SimDuration::from_millis(*down_ms));
            }
        }
    }
    Ok(AppliedChaos {
        start,
        settle: schedule
            .settle_ms()
            .map(|ms| start + SimDuration::from_millis(ms)),
    })
}
