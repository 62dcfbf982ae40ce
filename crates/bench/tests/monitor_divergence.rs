//! The runtime invariant monitor must catch a deployed box diverging
//! from the verified model. The planted divergence is the model checker's
//! no-action-on-Closed class: a server emits a `Select` on a slot that is
//! already Closed. The monitor has to flag it as `IM102` with a minimized
//! ladder — and flag nothing on the very same exercise without the plant.

use ipmedia_bench::chaos::{chain_topology, minimize_failing_netsim, run_netsim_chaos};
use ipmedia_bench::Chain;
use ipmedia_core::chaos::{generate, ChaosSchedule, Direction, ScheduleFamily};
use ipmedia_core::descriptor::{DescTag, Selector};
use ipmedia_core::goal::{Outgoing, UserCmd};
use ipmedia_core::monitor::{
    Monitor, RecoveryObjectives, VerifiedManifest, IM_CLOSED_ACTION, IM_UNVERIFIED,
};
use ipmedia_core::program::BoxCmd;
use ipmedia_core::signal::Signal;
use ipmedia_netsim::{SimConfig, SimDuration, SimTime};

const T_MAX: SimTime = SimTime(3_600_000_000);

fn run(plant: bool) -> Monitor {
    let (mut chain, log) = Chain::new_recorded(2, SimConfig::paper());
    let mut monitor = chain.monitor();

    chain.hold(0);
    chain.net.advance(SimDuration::from_millis(1_000));
    let t0 = chain.net.now();
    chain.relink(0);
    chain.measure_reconvergence(t0);
    chain.net.user(chain.l, chain.l_slot, UserCmd::Close);
    chain.net.run_until_quiescent(T_MAX);

    if plant {
        let srv = chain.servers[0];
        let (slot, _) = chain.server_slots[0];
        chain.net.apply(srv, move |_pb| {
            vec![BoxCmd::Signal(Outgoing {
                slot,
                signal: Signal::Select {
                    sel: Selector::not_sending(DescTag {
                        origin: 0xBAD,
                        generation: 1,
                    }),
                },
            })]
        });
        chain.net.run_until_quiescent(T_MAX);
    }

    let log = log.lock().unwrap();
    monitor.ingest_all(&log);
    monitor.check_quiescent(chain.net.now().0);
    monitor
}

#[test]
fn clean_run_has_no_findings() {
    let monitor = run(false);
    assert!(monitor.events_seen() > 0, "the exercise produced events");
    assert!(
        monitor.is_clean(),
        "clean run must be clean: {:?}",
        monitor.findings()
    );
}

#[test]
fn planted_closed_slot_action_is_flagged_im102_with_ladder() {
    let monitor = run(true);
    let f = monitor
        .findings()
        .iter()
        .find(|f| f.code == IM_CLOSED_ACTION)
        .expect("planted divergence must be flagged as IM102");
    assert!(
        f.detail.contains("select"),
        "finding names the signal: {}",
        f.detail
    );
    assert!(
        f.ladder.contains("!select") && f.ladder.contains("s0"),
        "minimized ladder shows the illegal send:\n{}",
        f.ladder
    );
    // The plant is the only divergence in the run.
    assert_eq!(monitor.findings().len(), 1, "{:?}", monitor.findings());
}

/// The verified-manifest loop: a scenario whose fingerprint the manifest
/// lists as clean runs without findings, while the same stream from a
/// fingerprint the manifest does not know (or knows as finding-bearing)
/// is flagged `IM401` — and `IM401` has no recovery budget, so it is a
/// violation whenever it fires.
#[test]
fn unverified_model_stream_is_flagged_im401() {
    let sc = ipmedia_apps::models::scenario("quickstart").expect("registered scenario");
    let fp = ipmedia_analyze::scenario_fingerprint(&sc);

    let manifest = VerifiedManifest::parse(&format!("{fp} clean quickstart\n"));
    let verified = run(false);
    assert!(manifest.is_clean(&fp));
    assert!(verified.is_clean(), "{:?}", verified.findings());

    for manifest_text in ["", &format!("{fp} findings quickstart\n")] {
        let manifest = VerifiedManifest::parse(manifest_text);
        let mut monitor = run(false);
        let verdict = manifest.verdict(&fp);
        assert_ne!(verdict, Some(true));
        monitor.flag_unverified(0, 0, 1_000, "quickstart", &fp, verdict);
        let f = monitor
            .findings()
            .iter()
            .find(|f| f.code == IM_UNVERIFIED)
            .expect("IM401 finding");
        assert!(f.detail.contains(&fp), "{}", f.detail);
        let rto = RecoveryObjectives::default();
        assert!(
            monitor
                .rto_violations(u64::MAX - 1, &rto)
                .iter()
                .any(|f| f.code == IM_UNVERIFIED),
            "IM401 has no recovery budget"
        );
    }
}

/// Every registry scenario, sized onto the chain exactly as the monitor
/// gate sizes it, survives a generated heal-before-deadline schedule of
/// every family with zero invariant violations surviving the recovery
/// objectives.
#[test]
fn every_registry_scenario_is_clean_under_healed_chaos() {
    let rto = RecoveryObjectives::default();
    for name in ipmedia_apps::models::EXAMPLE_NAMES {
        let sc = ipmedia_apps::models::scenario(name).expect("registered scenario");
        let k = sc.topology.boxes.len().saturating_sub(2).clamp(1, 4);
        let topo = chain_topology(k);
        for family in ScheduleFamily::ALL {
            let schedule = generate(family, 7, &topo);
            let run = run_netsim_chaos(k, &schedule, &rto).expect("schedule fits the chain");
            assert!(
                run.settle.is_some(),
                "generated schedules always heal: {}",
                schedule.describe()
            );
            assert!(
                run.violations.is_empty(),
                "scenario {name} under {}: {:?}\nschedule: {}",
                family.name(),
                run.violations,
                schedule.describe()
            );
        }
    }
}

/// A schedule whose partition never heals must be flagged — the monitor
/// finds the stuck flowlink (`IM201`) at quiescence — and delta-debugging
/// strips the decoy phases down to the one partition that wedges it.
#[test]
fn planted_no_heal_schedule_is_flagged_and_minimized() {
    let schedule = ChaosSchedule::new(11)
        .burst(50, "end-l", "s0", 0.3, 0.0, 0.0, 0, 1_000)
        .partition(100, "s0", "s1", Direction::Both)
        .crash(400, "end-r", 500);
    let rto = RecoveryObjectives::default();
    let run = run_netsim_chaos(2, &schedule, &rto).expect("schedule fits the chain");
    assert_eq!(run.settle, None, "an unhealed partition never settles");
    assert!(
        run.violations.iter().any(|v| v.starts_with("IM201")),
        "stuck flowlink must be flagged: {:?}",
        run.violations
    );
    let min = minimize_failing_netsim(2, &schedule, &rto);
    assert_eq!(
        min.phases.len(),
        1,
        "decoy burst and crash are stripped: {}",
        min.describe()
    );
    assert!(min.describe().contains("partition s0<->s1"));
}
