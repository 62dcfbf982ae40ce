//! The runtime invariant monitor must catch a deployed box diverging
//! from the verified model. The planted divergence is the model checker's
//! no-action-on-Closed class: a server emits a `Select` on a slot that is
//! already Closed. The monitor has to flag it as `IM102` with a minimized
//! ladder — and flag nothing on the very same exercise without the plant.

use ipmedia_bench::chaos::{chain_topology, minimize_failing_netsim, run_netsim_chaos};
use ipmedia_bench::{monitored_exercise, Chain};
use ipmedia_core::chaos::{generate, ChaosSchedule, Direction, ScheduleFamily};
use ipmedia_core::endpoint::{CallerLogic, EndpointLogic, RelayLogic};
use ipmedia_core::goal::{EndpointPolicy, UserCmd};
use ipmedia_core::monitor::{
    Monitor, VerifiedManifest, IM_CLOSED_ACTION, IM_FLOWLINK, IM_UNVERIFIED,
};
use ipmedia_core::{BoxCmd, MediaAddr};
use ipmedia_netsim::{Network, SimConfig, SimTime};
use ipmedia_obs::{ObsEvent, RecordingObserver};

const T_MAX: SimTime = SimTime(3_600_000_000);

fn run(plant: bool) -> Monitor {
    monitored_exercise(2, plant).1
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
        assert!(
            monitor
                .rto_violations(u64::MAX - 1)
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
    for name in ipmedia_apps::models::EXAMPLE_NAMES {
        let sc = ipmedia_apps::models::scenario(name).expect("registered scenario");
        let k = sc.topology.boxes.len().saturating_sub(2).clamp(1, 4);
        let topo = chain_topology(k);
        for family in ScheduleFamily::ALL {
            let schedule = generate(family, 7, &topo);
            let run = run_netsim_chaos(k, &schedule).expect("schedule fits the chain");
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
    let run = run_netsim_chaos(2, &schedule).expect("schedule fits the chain");
    assert_eq!(run.settle, None, "an unhealed partition never settles");
    assert!(
        run.violations.iter().any(|v| v.starts_with("IM201")),
        "stuck flowlink must be flagged: {:?}",
        run.violations
    );
    let min = minimize_failing_netsim(2, &schedule);
    assert_eq!(
        min.phases.len(),
        1,
        "decoy burst and crash are stripped: {}",
        min.describe()
    );
    assert!(min.describe().contains("partition s0<->s1"));
}

fn phone(host: u8) -> EndpointPolicy {
    EndpointPolicy::audio(MediaAddr::v4(10, 0, 0, host, 4000))
}

/// A monitor fed `log` (its `GoalDropped` events only with `drops`) and
/// checked at quiescence at `end`.
fn judged(log: &[(u64, ObsEvent)], end: SimTime, drops: bool) -> Monitor {
    let mut monitor = Monitor::new();
    for (at, ev) in log {
        if drops || !matches!(ev, ObsEvent::GoalDropped { .. }) {
            monitor.ingest(*at, ev);
        }
    }
    monitor.check_quiescent(end.0);
    monitor
}

/// A caller dials a relay, which dials the callee and links the legs;
/// nobody declares the link. With `cut`, the relay's onward leg is
/// partitioned for good before the relay dials it. Returns the relay's
/// box id and the judging monitor.
fn relayed_call(cut: bool) -> (u32, Monitor) {
    let mut net = Network::new(SimConfig::paper());
    let rec = RecordingObserver::new(net.clock());
    let log = rec.log();
    net.set_observer(Box::new(rec));
    let caller = CallerLogic::new(phone(1), "relay", 1, 1);
    net.add_box("caller", Box::new(caller));
    let relay = net.add_box("relay", Box::new(RelayLogic::new("callee")));
    let callee = net.add_box("callee", Box::new(EndpointLogic::resource(phone(2))));
    if cut {
        net.schedule_partition(SimTime::ZERO, relay, callee, true, true);
    }
    net.run_until_quiescent(T_MAX);
    let log = log.lock().unwrap();
    (relay.0, judged(&log, net.now(), true))
}

#[test]
fn a_relay_whose_onward_leg_is_cut_is_im201_on_its_two_slots() {
    let (_, clean) = relayed_call(false);
    assert!(clean.is_clean(), "{:?}", clean.findings());

    let (relay, monitor) = relayed_call(true);
    let codes: Vec<&str> = monitor.findings().iter().map(|f| f.code).collect();
    assert_eq!(codes.iter().filter(|&&c| c == IM_FLOWLINK).count(), 1);
    let f = monitor.findings().iter().find(|f| f.code == IM_FLOWLINK);
    let f = f.expect("IM201");
    // Slot 0 came with the caller's channel, slot 1 with the onward dial.
    assert_eq!((f.bx, f.slot), (relay, 0));
    let ends = [
        format!("box{relay} s0 is opened"),
        format!("box{relay} s1 is opening"),
    ];
    assert!(ends.iter().all(|e| f.detail.contains(e)), "{}", f.detail);
}

/// The run is clean, and it is so because a dropped goal ended the
/// flowlink: a monitor that misses the drops judges it and flags IM201.
fn assert_judged_only_while_linked(log: &[(u64, ObsEvent)], end: SimTime) {
    let monitor = judged(log, end, true);
    assert!(monitor.is_clean(), "{:?}", monitor.findings());
    let blind = judged(log, end, false);
    let codes: Vec<&str> = blind.findings().iter().map(|f| f.code).collect();
    assert_eq!(codes, [IM_FLOWLINK], "{:?}", blind.findings());
}

#[test]
fn a_held_server_is_no_flowlink() {
    // Hold s0 and leave it held; then the caller hangs up. The close
    // ends at s0's left slot, so its two slots end up closed and flowing:
    // a flowlink would be unconverged, but the hold ended it.
    let (mut chain, log) = Chain::new_recorded(2, SimConfig::paper());
    chain.hold(0);
    chain.net.user(chain.l, chain.l_slot, UserCmd::Close);
    chain.net.run_until_quiescent(T_MAX);
    let (a, b) = chain.server_slots[0];
    let s0 = chain.net.media(chain.servers[0]);
    assert!(s0.slot(a).unwrap().is_closed() && s0.slot(b).unwrap().is_flowing());

    assert_judged_only_while_linked(&log.lock().unwrap(), chain.net.now());
}

#[test]
fn a_flowlink_torn_down_with_its_channel_is_not_judged() {
    // L destroys its channel to s0, then R hangs up: s0's right slot
    // closes while its left slot went with the channel, flowing.
    let (mut chain, log) = Chain::new_recorded(1, SimConfig::paper());
    let (s0, (a, b)) = (chain.servers[0], chain.server_slots[0]);
    let ch = chain.net.channels_between(chain.l, s0)[0];
    chain
        .net
        .apply(chain.l, move |_| vec![BoxCmd::CloseChannel(ch)]);
    chain.net.run_until_quiescent(T_MAX);
    chain.net.user(chain.r, chain.r_slot, UserCmd::Close);
    chain.net.run_until_quiescent(T_MAX);
    assert!(chain.net.media(s0).slot(a).is_none());
    assert!(chain.net.media(s0).slot(b).unwrap().is_closed());

    assert_judged_only_while_linked(&log.lock().unwrap(), chain.net.now());
}
