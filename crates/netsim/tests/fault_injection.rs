//! Fault-injection integration tests: the §VI robustness claim under an
//! adversarial network. The protocol is idempotent and unilateral, so with
//! the retransmission layer enabled a run with loss, duplication, and
//! reordering on every channel must converge to the same final slot state
//! as a fault-free run.

use ipmedia_core::boxes::GoalSpec;
use ipmedia_core::endpoint::{CallerLogic, EndpointLogic, NullLogic};
use ipmedia_core::goal::{EndpointPolicy, UserCmd};
use ipmedia_core::path::PathEnds;
use ipmedia_core::{BoxId, MediaAddr, Medium};
use ipmedia_netsim::{FaultPlan, Network, SimConfig, SimDuration, SimTime};
use ipmedia_obs::{CountingObserver, ObsEvent, RecordingObserver, Registry};
use std::sync::Arc;

fn audio_endpoint(host: u8) -> Box<EndpointLogic> {
    Box::new(EndpointLogic::resource(EndpointPolicy::audio(
        MediaAddr::v4(10, 0, 0, host, 4000),
    )))
}

const T_MAX: SimTime = SimTime(120_000_000); // 120 virtual seconds

/// Build L -- srv(flowlink) -- R with reliability on every box, run the
/// call scenario (open, mute excursion, unmute) under the given fault
/// plans, and return the final state of every slot, rendered.
fn flowlinked_call(fault: Option<(u64, f64)>) -> (Vec<String>, Arc<Registry>) {
    let registry = Arc::new(Registry::new());
    let mut net = Network::new(SimConfig::paper());
    net.set_observer(Box::new(CountingObserver::new(registry.clone())));
    let l = net.add_box("phone-l", audio_endpoint(1));
    let srv = net.add_box("server", Box::new(NullLogic));
    let r = net.add_box("phone-r", audio_endpoint(2));
    let (ch_l, sl, srv_l) = net.connect(l, srv, 1);
    let (ch_r, srv_r, sr) = net.connect(srv, r, 1);
    if let Some((seed, loss)) = fault {
        net.set_fault_plan(ch_l, FaultPlan::chaos(seed, loss));
        net.set_fault_plan(ch_r, FaultPlan::chaos(seed ^ 0xBEEF, loss));
    }
    for id in [l, srv, r] {
        net.enable_reliability(id);
    }
    net.run_until_quiescent(T_MAX);

    let (a, b) = (srv_l[0], srv_r[0]);
    net.set_goal(srv, [GoalSpec::Link { a, b }]);
    net.run_until_quiescent(T_MAX);

    net.user(l, sl[0], UserCmd::Open(Medium::Audio));
    net.run_until_quiescent(T_MAX);
    net.user(
        l,
        sl[0],
        UserCmd::Modify {
            mute_in: true,
            mute_out: false,
        },
    );
    net.run_until_quiescent(T_MAX);
    net.user(
        l,
        sl[0],
        UserCmd::Modify {
            mute_in: false,
            mute_out: false,
        },
    );
    net.run_until_quiescent(T_MAX);

    assert!(
        net.all_converged(),
        "all slots must converge (§VI quiescence)"
    );
    for id in [l, srv, r] {
        assert!(net.parked_slots(id).is_empty(), "no slot may park");
    }
    let ends = PathEnds::new(
        net.media(l).slot(sl[0]).unwrap(),
        net.media(r).slot(sr[0]).unwrap(),
    );
    assert!(ends.both_flowing(), "path must converge to bothFlowing");

    let mut state = Vec::new();
    for (bx, name) in [(l, "l"), (srv, "srv"), (r, "r")] {
        let media = net.media(bx);
        for sid in media.slot_ids() {
            state.push(format!("{name}/{sid}: {:?}", media.slot(sid).unwrap()));
        }
    }
    (state, registry)
}

#[test]
fn chaos_run_reaches_fault_free_final_state() {
    // Acceptance criterion: 10% loss + duplication + reordering on every
    // channel; the final slot/flow state must be byte-identical to the
    // fault-free run's.
    let (clean, clean_reg) = flowlinked_call(None);
    let (chaos, chaos_reg) = flowlinked_call(Some((0xC0FFEE, 0.10)));
    assert_eq!(
        clean, chaos,
        "faulty run must converge to the fault-free final state"
    );

    // The fault-free run is genuinely fault-free and retransmission-free.
    let s = clean_reg.snapshot();
    assert_eq!(s.faults_total(), 0);
    assert_eq!(s.retransmissions, 0);

    // The chaos run actually injected faults, and every retransmission
    // recovery is accounted for in the histogram.
    let s = chaos_reg.snapshot();
    assert!(s.faults_total() > 0, "chaos plan must inject faults");
    assert!(s.faults("drop") > 0, "10% loss must drop something");
    if s.retransmissions > 0 {
        assert!(s.recoveries > 0, "retransmissions that mattered recover");
        assert_eq!(s.recovery_latency_ms.total(), s.recoveries);
    }
}

#[test]
fn chaos_runs_are_deterministic() {
    // Same seeds, same schedule: fault injection must not break the
    // simulator's reproducibility guarantee.
    let (a, _) = flowlinked_call(Some((7, 0.10)));
    let (b, _) = flowlinked_call(Some((7, 0.10)));
    assert_eq!(a, b);
}

#[test]
fn chaos_seeds_sweep_direct_call() {
    // A spread of seeds on a direct call: each must converge to a flowing
    // path despite 10% loss + duplication + reordering.
    for seed in 0..6u64 {
        let mut net = Network::new(SimConfig::paper());
        let a = net.add_box("phone-a", audio_endpoint(1));
        let b = net.add_box("phone-b", audio_endpoint(2));
        let (ch, sa, sb) = net.connect(a, b, 1);
        net.set_fault_plan(ch, FaultPlan::chaos(seed, 0.10));
        net.enable_reliability(a);
        net.enable_reliability(b);
        net.run_until_quiescent(T_MAX);

        net.user(a, sa[0], UserCmd::Open(Medium::Audio));
        net.run_until_quiescent(T_MAX);

        let ends = PathEnds::new(
            net.media(a).slot(sa[0]).unwrap(),
            net.media(b).slot(sb[0]).unwrap(),
        );
        assert!(ends.both_flowing(), "seed {seed} failed to converge");
        assert!(net.all_converged(), "seed {seed} left pending awaits");
    }
}

#[test]
fn open_open_race_survives_duplication_and_reordering() {
    // Satellite: the §VI-B open/open race resolution (channel initiator
    // wins) must be invariant to duplicated and reordered signals.
    for seed in 1..=8u64 {
        let mut net = Network::new(SimConfig::paper());
        let a = net.add_box("phone-a", audio_endpoint(1));
        let b = net.add_box("phone-b", audio_endpoint(2));
        let (ch, sa, sb) = net.connect(a, b, 1);
        net.set_fault_plan(
            ch,
            FaultPlan::new(seed).with_duplicate(0.35).with_reorder(0.35),
        );
        net.enable_reliability(a);
        net.enable_reliability(b);
        net.run_until_quiescent(T_MAX);

        // Both ends open the same tunnel simultaneously.
        net.user(a, sa[0], UserCmd::Open(Medium::Audio));
        net.user(b, sb[0], UserCmd::Open(Medium::Audio));
        net.run_until_quiescent(T_MAX);

        let slot_a = net.media(a).slot(sa[0]).unwrap();
        let slot_b = net.media(b).slot(sb[0]).unwrap();
        assert!(
            PathEnds::new(slot_a, slot_b).both_flowing(),
            "seed {seed}: race under dup/reorder failed to converge"
        );
        assert!(net.all_converged(), "seed {seed} left pending awaits");
    }
}

#[test]
fn crash_during_setup_recovers_after_restart() {
    let registry = Arc::new(Registry::new());
    let mut net = Network::new(SimConfig::paper());
    net.set_observer(Box::new(CountingObserver::new(registry.clone())));
    let a = net.add_box("phone-a", audio_endpoint(1));
    let b = net.add_box("phone-b", audio_endpoint(2));
    let (_, sa, sb) = net.connect(a, b, 1);
    net.enable_reliability(a);
    net.enable_reliability(b);
    net.run_until_quiescent(T_MAX);

    // B goes dark for a second just as A opens: the open and the first few
    // retransmissions are lost, then a later retransmission lands.
    let t = net.now();
    net.schedule_crash(b, t, SimDuration::from_millis(1_000));
    net.user(a, sa[0], UserCmd::Open(Medium::Audio));
    net.run_until_quiescent(T_MAX);

    let ends = PathEnds::new(
        net.media(a).slot(sa[0]).unwrap(),
        net.media(b).slot(sb[0]).unwrap(),
    );
    assert!(ends.both_flowing(), "call must establish after restart");
    assert!(net.all_converged());

    let s = registry.snapshot();
    assert_eq!(s.faults("crash"), 1);
    assert_eq!(s.faults("restart"), 1);
    assert!(s.retransmissions >= 1, "recovery needs retransmission");
    assert!(s.recoveries >= 1, "the open await must recover");
    assert!(
        s.recovery_latency_ms.sum >= 800,
        "recovery spans the outage"
    );
}

#[test]
fn unreachable_peer_parks_instead_of_panicking() {
    let mut net = Network::new(SimConfig::paper());
    let a = net.add_box("phone-a", audio_endpoint(1));
    let b = net.add_box("phone-b", audio_endpoint(2));
    let (_, sa, _) = net.connect(a, b, 1);
    net.enable_reliability(a);
    net.run_until_quiescent(T_MAX);

    // B is down for good: A retries, backs off, and parks the slot in a
    // recovering state instead of spinning or panicking. Its twelve
    // retransmissions span some 32 s (200 ms doubling to a 3.2 s cap).
    let t = net.now();
    net.schedule_crash(b, t, SimDuration(T_MAX.0));
    net.user(a, sa[0], UserCmd::Open(Medium::Audio));
    net.run_until_quiescent(SimTime(60_000_000));

    assert_eq!(net.parked_slots(a), vec![sa[0]]);
    assert!(!net.converged(a), "the await is still outstanding");
}

/// A first dial to a box that is down finds nobody, as a re-dial would:
/// the dialer hears its peer is unavailable, and the crashed box gets no
/// channel (its inputs are lost while it is down, so a `ChannelUp` for it
/// would deal slots it never heard of).
#[test]
fn a_first_dial_to_a_crashed_box_finds_it_unavailable() {
    let mut net = Network::new(SimConfig::paper());
    let b = net.add_box("phone-b", audio_endpoint(2));
    net.run_until_quiescent(T_MAX);
    net.schedule_crash(b, net.now(), SimDuration::from_millis(10_000));
    net.run_until_quiescent(net.now()); // the crash, not the restart
    let caller = CallerLogic::new(
        EndpointPolicy::audio(MediaAddr::v4(10, 0, 0, 1, 4000)),
        "phone-b",
        1,
        1,
    );
    let recorder = RecordingObserver::new(net.clock());
    let log = recorder.log();
    net.set_observer(Box::new(recorder));
    let a = net.add_box("phone-a", Box::new(caller));
    net.run_until_quiescent(T_MAX);

    let log = log.lock().unwrap();
    let peer = |bx: BoxId| {
        log.iter()
            .filter_map(|(_, e)| match e {
                ObsEvent::MetaSignal { bx: at, kind, .. }
                    if *at == bx.0 && kind.starts_with("peer_") =>
                {
                    Some(*kind)
                }
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(peer(a), ["peer_unavailable"]);
    assert_eq!(
        net.media(b).slots().count(),
        0,
        "the crashed box got a channel"
    );
    assert_eq!(
        net.media(a).slots().count(),
        1,
        "the dialer's half-open channel"
    );
}

/// The hot delivery path moves the signal payload into the final copy and
/// clones only for fault-injected duplicates. This run forces the clone
/// arm (duplicate probability 1.0) and pins the observable behavior: the
/// rendered ladder is byte-identical across repeated runs, every signal
/// arrives exactly twice, and the duplicated copies are content-identical
/// (the protocol converges as if the channel were clean).
#[test]
fn duplicated_delivery_ladder_is_deterministic() {
    fn run() -> (String, u64, Vec<String>) {
        let registry = Arc::new(Registry::new());
        let mut net = Network::new(SimConfig::paper());
        net.set_observer(Box::new(CountingObserver::new(registry.clone())));
        let a = net.add_box("phone-a", audio_endpoint(1));
        let b = net.add_box("phone-b", audio_endpoint(2));
        let (ch, sa, sb) = net.connect(a, b, 1);
        net.set_fault_plan(ch, FaultPlan::new(7).with_duplicate(1.0));
        net.run_until_quiescent(T_MAX);

        net.trace_enabled = true;
        net.user(a, sa[0], UserCmd::Open(Medium::Audio));
        net.run_until_quiescent(T_MAX);

        let ends = PathEnds::new(
            net.media(a).slot(sa[0]).unwrap(),
            net.media(b).slot(sb[0]).unwrap(),
        );
        assert!(ends.both_flowing(), "duplicates must not break the call");
        let s = registry.snapshot();
        assert!(s.faults("duplicate") > 0, "plan must inject duplicates");
        // Every send is delivered twice: received == 2 * sent, per kind.
        let mut kinds: Vec<String> = Vec::new();
        for kind in ["open", "oack", "select"] {
            if s.sent(kind) > 0 {
                assert_eq!(
                    s.received(kind),
                    2 * s.sent(kind),
                    "every {kind} arrives exactly twice"
                );
                kinds.push(format!("{kind}:{}", s.sent(kind)));
            }
        }
        (net.ladder(), s.faults("duplicate"), kinds)
    }

    let first = run();
    let second = run();
    assert_eq!(first, second, "faulty-run ladder must be byte-identical");
}
