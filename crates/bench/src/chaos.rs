//! Chaos orchestration harness: generated [`ChaosSchedule`]s applied to
//! the simulator chain and to the deployed tokio runtime, with the
//! runtime invariant monitor attached as the recovery oracle.
//!
//! A run is judged by **recovery-time objectives**, not by the absence
//! of turbulence: findings the monitor raises while faults are active
//! (or within the per-invariant budget after the last heal) are
//! forgiven; anything later — and any `IM102` ever — is a violation.
//! When a run fails, [`minimize_failing_netsim`] delta-debugs the
//! schedule to a minimal phase list that still reproduces the failure,
//! mirroring the model checker's counterexample ladders.

use crate::Chain;
use ipmedia_core::chaos::{ChaosSchedule, ChaosTopology};
use ipmedia_core::endpoint::{CallerLogic, EndpointLogic};
use ipmedia_core::goal::{EndpointPolicy, UserCmd};
use ipmedia_core::monitor::{Finding, Monitor, RecoveryObjectives};
use ipmedia_core::reliable::ReliableConfig;
use ipmedia_core::{BoxCmd, BoxId, MediaAddr, Medium, SlotState};
use ipmedia_netsim::{apply_schedule, SimConfig, SimDuration, SimTime};
use ipmedia_obs::clock::{Clock, WallClock};
use ipmedia_obs::{ObsEvent, RecordingObserver};
use ipmedia_rt::{drive_schedule, spawn_node, ChaosGate, Directory, NodeOptions, ReconnectPolicy};
use std::sync::Arc;
use tokio::time::Duration;

const T_MAX: SimTime = SimTime(3_600_000_000);

/// The chain deployment's chaos-addressable shape: `end-l — s0 — … —
/// s(k-1) — end-r`, matching the box names [`Chain`] registers.
pub fn chain_topology(k: usize) -> ChaosTopology {
    let mut boxes = vec!["end-l".to_string()];
    boxes.extend((0..k).map(|i| format!("s{i}")));
    boxes.push("end-r".to_string());
    let links = boxes
        .windows(2)
        .map(|w| (w[0].clone(), w[1].clone()))
        .collect();
    ChaosTopology { boxes, links }
}

/// The two-box shape the wall-clock runtime harness deploys.
pub fn rt_topology() -> ChaosTopology {
    ChaosTopology {
        boxes: vec!["end-l".to_string(), "end-r".to_string()],
        links: vec![("end-l".to_string(), "end-r".to_string())],
    }
}

/// Outcome of one monitored chaos run on the simulator. Every field is a
/// pure function of `(k, schedule)` — the determinism the campaign's
/// replay check pins down.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRun {
    /// Virtual instant the network went quiescent.
    pub end: SimTime,
    /// Virtual instant of the last heal (`None` iff a partition never
    /// heals — then nothing is forgiven).
    pub settle: Option<SimTime>,
    /// Events the monitor ingested.
    pub events: u64,
    /// Signal deliveries in the network trace.
    pub trace_len: usize,
    /// Total monitor findings, including forgiven in-turbulence ones.
    pub findings: usize,
    /// Findings that survive the recovery-time objectives, rendered.
    pub violations: Vec<String>,
    /// Faults the schedule actually injected (drops, partition
    /// swallows, crashes, …).
    pub faults: u64,
    /// Latency of every §VI recovery (first send to resolution), ms.
    pub recoveries_ms: Vec<u64>,
}

fn render(f: &Finding) -> String {
    format!(
        "{} box {} slot {} at {}us: {}",
        f.code, f.bx, f.slot, f.at_micros, f.detail
    )
}

/// Run one schedule against a converged `k`-server chain with the §VI
/// reliability layer on every box and the invariant monitor recording.
/// Mid-schedule churn (the caller closes the call inside the fault
/// window and re-opens it after the last fault edge) forces real
/// signaling through the turbulence, so recovery is exercised, not just
/// survival. Returns `Err` only if the schedule does not fit the
/// deployment (unknown box name, burst over a missing link).
pub fn run_netsim_chaos(
    k: usize,
    schedule: &ChaosSchedule,
    rto: &RecoveryObjectives,
) -> Result<ChaosRun, String> {
    let (mut chain, log) = Chain::new_recorded(k, SimConfig::paper());
    for id in chain.servers.iter().copied().chain([chain.l, chain.r]) {
        chain.net.enable_reliability(id, ReliableConfig::default());
    }

    let mut monitor = chain.monitor();

    chain.net.trace_enabled = true;
    let applied = apply_schedule(&mut chain.net, schedule)?;

    // Churn inside the fault window: the caller tears the call down just
    // after the first phase fires — the close/closeack exchange (and its
    // retransmissions) must cross whatever the schedule is doing to the
    // links — and re-opens it once the last fault edge has passed, so the
    // end-to-end path is rebuilt through freshly healed links. A close or
    // open wedged by an unhealed cut leaves watched slots in transient
    // states, which is exactly what IM201/IM301 flag at quiescence.
    let first_at = schedule.phases.first().map_or(0, |p| p.at_ms);
    let last_at = schedule.phases.last().map_or(0, |p| p.at_ms);
    let (l, ls) = (chain.l, chain.l_slot);
    let t_close = applied.start + SimDuration::from_millis(first_at + 50);
    chain.net.apply_at(t_close, l, move |pb| {
        pb.media_mut()
            .user(ls, UserCmd::Close)
            .map(|out| out.into_iter().map(BoxCmd::Signal).collect())
            .unwrap_or_default()
    });
    // If the schedule never settles, re-open anyway: the attempt runs
    // into the standing partition and wedges — the failure under test.
    let reopen_ms = schedule.settle_ms().unwrap_or(last_at + 1_000) + 500;
    let t_open = applied.start + SimDuration::from_millis(reopen_ms);
    chain.net.apply_at(t_open, l, move |pb| {
        pb.media_mut()
            .user(ls, UserCmd::Open(Medium::Audio))
            .map(|out| out.into_iter().map(BoxCmd::Signal).collect())
            .unwrap_or_default()
    });

    // Drain everything: chaos edges, retransmission timers (bounded), and
    // the churn's recovery. Quiescence is guaranteed — the reliability
    // layer gives up after its capped retries.
    chain.net.run_until_quiescent(T_MAX);
    let end = chain.net.now();

    let log = log.lock().unwrap();
    if std::env::var("CHAOS_DEBUG").is_ok() {
        for (t, ev) in log.iter() {
            eprintln!("  {t}us {ev:?}");
        }
    }
    monitor.ingest_all(&log);
    monitor.check_quiescent(end.0);

    let mut faults = 0u64;
    let mut recoveries_ms: Vec<u64> = Vec::new();
    for (_, ev) in log.iter() {
        match ev {
            ObsEvent::FaultInjected { .. } => faults += 1,
            ObsEvent::Recovered { elapsed_ms, .. } => recoveries_ms.push(*elapsed_ms),
            _ => {}
        }
    }

    let violations: Vec<String> = match applied.settle {
        Some(heal) => monitor
            .rto_violations(heal.0, rto)
            .iter()
            .map(|f| render(f))
            .collect(),
        // A schedule that never heals forgives nothing.
        None => monitor.findings().iter().map(render).collect(),
    };
    Ok(ChaosRun {
        end,
        settle: applied.settle,
        events: monitor.events_seen(),
        trace_len: chain.net.trace().len(),
        findings: monitor.findings().len(),
        violations,
        faults,
        recoveries_ms,
    })
}

/// Delta-debug a failing `(k, schedule)` pair down to a minimal phase
/// list that still produces violations (or still fails to apply), for
/// the campaign's red-run logs.
pub fn minimize_failing_netsim(
    k: usize,
    schedule: &ChaosSchedule,
    rto: &RecoveryObjectives,
) -> ChaosSchedule {
    ipmedia_core::minimize_schedule(schedule, |s| {
        run_netsim_chaos(k, s, rto).map_or(true, |r| !r.violations.is_empty())
    })
}

/// Outcome of one monitored chaos run on the deployed tokio runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct RtChaosRun {
    /// Events the monitor ingested from both nodes.
    pub events: u64,
    /// Total monitor findings, including forgiven in-turbulence ones.
    pub findings: usize,
    /// Findings that survive the recovery-time objectives, rendered.
    pub violations: Vec<String>,
    /// Gate-cut frames the nodes observed (`partition` fault counter).
    pub partitions: u64,
}

type SharedLog = Arc<std::sync::Mutex<Vec<(u64, ObsEvent)>>>;

fn dump_logs(log_l: &SharedLog, log_r: &SharedLog) {
    if std::env::var("CHAOS_DEBUG").is_err() {
        return;
    }
    let mut log: Vec<(u64, ObsEvent)> = log_l.lock().unwrap().clone();
    log.extend(log_r.lock().unwrap().iter().cloned());
    log.sort_by_key(|(t, _)| *t);
    for (t, ev) in &log {
        eprintln!("  {t}us {ev:?}");
    }
}

fn snap_detail(caller: &ipmedia_rt::NodeHandle, callee: &ipmedia_rt::NodeHandle) -> String {
    let one = |h: &ipmedia_rt::NodeHandle| {
        let s = h.snapshot.borrow();
        let slots: Vec<String> = s
            .slots
            .iter()
            .map(|sl| format!("s{}={:?}", sl.slot.0, sl.state))
            .collect();
        format!(
            "{}: ch={} rec={} [{}]",
            h.name,
            s.channels,
            s.recovering,
            slots.join(" ")
        )
    };
    format!("{}; {}", one(caller), one(callee))
}

fn rt_addr(h: u8) -> MediaAddr {
    MediaAddr::v4(10, 0, 0, h, 4000)
}

fn rt_policy() -> ReconnectPolicy {
    ReconnectPolicy {
        connect_attempts: 5,
        reconnect_attempts: 60,
        base_delay: Duration::from_millis(10),
        max_delay: Duration::from_millis(80),
        send_timeout: Duration::from_secs(2),
    }
}

/// Run one schedule against a live two-node TCP deployment (`end-l`
/// dials `end-r`), with a shared [`ChaosGate`] as the fault plane and
/// schedule time compressed by `compress`. The call must be flowing
/// before the schedule starts and flowing again after it ends; the
/// merged event streams of both nodes are then replayed through the
/// monitor and judged by the same RTO semantics as the simulator runs
/// (heal instant = wall clock when the last fault edge was applied).
pub async fn run_rt_chaos(
    schedule: &ChaosSchedule,
    rto: &RecoveryObjectives,
    compress: u64,
) -> Result<RtChaosRun, String> {
    const WAIT: Duration = Duration::from_secs(20);
    let err = |e: String| -> String { format!("rt chaos: {e}") };

    let dir = Directory::new();
    let gate = ChaosGate::new();
    let clock: Arc<dyn Clock + Send + Sync> = Arc::new(WallClock::new());
    let rec_l = RecordingObserver::new(clock.clone());
    let rec_r = RecordingObserver::new(clock.clone());
    let (log_l, log_r) = (rec_l.log(), rec_r.log());
    let opts = |rec: RecordingObserver| NodeOptions {
        policy: rt_policy(),
        observer: Box::new(rec),
        gate: Some(gate.clone()),
        ..NodeOptions::default()
    };

    let mut callee = spawn_node(
        "end-r",
        BoxId(2),
        Box::new(EndpointLogic::resource(EndpointPolicy::audio(rt_addr(2)))),
        dir.clone(),
        opts(rec_r),
    )
    .await
    .map_err(|e| err(e.to_string()))?;
    let mut caller = spawn_node(
        "end-l",
        BoxId(1),
        Box::new(CallerLogic::new(
            EndpointPolicy::audio(rt_addr(1)),
            "end-r",
            1,
            1,
        )),
        dir.clone(),
        opts(rec_l),
    )
    .await
    .map_err(|e| err(e.to_string()))?;

    let flowing = |s: &ipmedia_rt::NodeSnapshot| {
        s.recovering == 0
            && s.slots
                .iter()
                .any(|sl| sl.state == SlotState::Flowing && sl.tx_route.is_some())
    };
    if !caller.wait_for(WAIT, flowing).await {
        return Err(err("call did not establish before the schedule".into()));
    }
    let slot = {
        let snap = caller.snapshot.borrow();
        snap.slots
            .iter()
            .find(|sl| sl.state == SlotState::Flowing)
            .map(|sl| sl.slot)
            .ok_or_else(|| err("no flowing slot on the caller".into()))?
    };

    // Replay the schedule onto the gate in compressed wall-clock time,
    // on a task of its own; the heal instant for RTO accounting is when
    // the last edge landed.
    let drive = tokio::spawn({
        let (gate, schedule) = (gate.clone(), schedule.clone());
        async move { drive_schedule(&gate, &schedule, compress).await }
    });

    // Churn inside the fault window, as on the simulator: the call is
    // closed just after the first edge lands, so the close/closeack
    // exchange must cross whatever the gate is doing — blocked frames
    // register partition cuts and force connection-level recovery rather
    // than an idle wait-out.
    let first_ms = schedule.phases.first().map_or(0, |p| p.at_ms) / compress.max(1);
    tokio::time::sleep(Duration::from_millis(first_ms + 20)).await;
    caller.user(slot, UserCmd::Close).await;
    drive.await.expect("the schedule driver does not panic");
    let heal_at = clock.now_micros();
    gate.heal_all(); // belt and braces: judge recovery, not lingering cuts

    // The close must complete across the healed links, then the re-open
    // rebuilds the end-to-end path from scratch.
    let closed = |s: &ipmedia_rt::NodeSnapshot| {
        s.recovering == 0 && s.slots.iter().all(|sl| sl.state == SlotState::Closed)
    };
    if !caller.wait_for(WAIT, closed).await {
        let detail = snap_detail(&caller, &callee);
        dump_logs(&log_l, &log_r);
        caller.shutdown().await;
        callee.shutdown().await;
        return Err(err(format!(
            "close did not complete within {WAIT:?} of the last heal (schedule: {}; {detail})",
            schedule.describe()
        )));
    }
    caller.user(slot, UserCmd::Open(Medium::Audio)).await;

    let recovered = caller.wait_for(WAIT, flowing).await && callee.wait_for(WAIT, flowing).await;
    let detail = snap_detail(&caller, &callee);

    let m_l = caller.registry().snapshot();
    let m_r = callee.registry().snapshot();
    caller.shutdown().await;
    callee.shutdown().await;

    if !recovered {
        dump_logs(&log_l, &log_r);
        return Err(err(format!(
            "call did not recover within {WAIT:?} of the last heal (schedule: {}; {detail})",
            schedule.describe()
        )));
    }

    let mut log: Vec<(u64, ObsEvent)> = log_l.lock().unwrap().clone();
    log.extend(log_r.lock().unwrap().iter().cloned());
    log.sort_by_key(|(t, _)| *t);

    let mut monitor = Monitor::new();
    monitor.register_box(1, "end-l");
    monitor.register_box(2, "end-r");
    monitor.ingest_all(&log);

    let violations: Vec<String> = monitor
        .rto_violations(heal_at, rto)
        .iter()
        .map(|f| render(f))
        .collect();
    Ok(RtChaosRun {
        events: monitor.events_seen(),
        findings: monitor.findings().len(),
        violations,
        partitions: m_l.faults("partition") + m_r.faults("partition"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipmedia_core::chaos::{generate, Direction, ScheduleFamily};

    #[test]
    fn healed_partition_recovers_within_rto() {
        let s = ChaosSchedule::new(7)
            .partition(500, "end-l", "s0", Direction::Both)
            .heal(3_000, "end-l", "s0");
        let run = run_netsim_chaos(2, &s, &RecoveryObjectives::default()).unwrap();
        assert!(run.settle.is_some());
        assert!(
            run.violations.is_empty(),
            "healed partition must recover: {:?}",
            run.violations
        );
    }

    #[test]
    fn identical_seeds_yield_identical_outcomes() {
        let topo = chain_topology(2);
        for family in ScheduleFamily::ALL {
            let s = generate(family, 42, &topo);
            let a = run_netsim_chaos(2, &s, &RecoveryObjectives::default()).unwrap();
            let b = run_netsim_chaos(2, &s, &RecoveryObjectives::default()).unwrap();
            assert_eq!(a, b, "{} replay diverged", family.name());
        }
    }

    #[test]
    fn unhealed_partition_is_flagged_and_minimized() {
        // Partition the relink path and never heal: the flowlink cannot
        // reconverge, IM201 must fire, and nothing is forgiven.
        let s = ChaosSchedule::new(3)
            .partition(100, "s0", "s1", Direction::Both)
            .burst(200, "s1", "end-r", 0.2, 0.0, 0.0, 0, 2_000)
            .crash(400, "end-r", 500);
        let rto = RecoveryObjectives::default();
        let run = run_netsim_chaos(2, &s, &rto).unwrap();
        assert_eq!(run.settle, None);
        assert!(
            run.violations.iter().any(|v| v.starts_with("IM201")),
            "no-heal schedule must flag IM201: {:?}",
            run.violations
        );
        // Delta-debugging strips the burst and the crash: the partition
        // alone reproduces the failure.
        let min = minimize_failing_netsim(2, &s, &rto);
        assert_eq!(min.phases.len(), 1, "minimized to: {}", min.describe());
        assert!(min.describe().contains("partition"));
    }

    #[test]
    fn schedule_that_does_not_fit_the_deployment_errors() {
        let s = ChaosSchedule::new(1).partition(0, "end-l", "nonesuch", Direction::Both);
        assert!(run_netsim_chaos(1, &s, &RecoveryObjectives::default()).is_err());
    }
}
