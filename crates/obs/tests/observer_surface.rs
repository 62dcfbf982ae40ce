//! Every named hook reaches every composite observer as its own
//! `ObsEvent` variant: a hook built as the wrong variant, or a composite
//! that drops one, changes a log below.

use ipmedia_obs::{Fanout, ManualClock, ObsEvent, Observer, RecordingObserver};
use std::sync::{Arc, Mutex};

type Log = Arc<Mutex<Vec<(u64, ObsEvent)>>>;

/// Call each of the twelve named hooks once.
fn every_hook(obs: &mut dyn Observer) {
    obs.stimulus(1, "tunnel");
    obs.signal_sent(1, 2, "open");
    obs.signal_received(1, 2, "oack");
    obs.slot_transition(1, 2, "closed", "opening", "user");
    obs.goal_activated(1, 2, "flowLink", Some(3));
    obs.goal_dropped(1, 2, "userAgent");
    obs.race_resolved(1, 2, true);
    obs.signal_ignored(1, 2, "stale oack");
    obs.meta_signal(1, 3, "peer");
    obs.fault_injected(1, "drop");
    obs.retransmission(1, 2, "refresh");
    obs.recovered(1, 2, 4, 450);
}

fn expected() -> Vec<ObsEvent> {
    vec![
        ObsEvent::Stimulus {
            bx: 1,
            kind: "tunnel",
        },
        ObsEvent::SignalSent {
            bx: 1,
            slot: 2,
            kind: "open",
        },
        ObsEvent::SignalReceived {
            bx: 1,
            slot: 2,
            kind: "oack",
        },
        ObsEvent::SlotTransition {
            bx: 1,
            slot: 2,
            from: "closed",
            to: "opening",
            cause: "user",
        },
        ObsEvent::GoalActivated {
            bx: 1,
            slot: 2,
            kind: "flowLink",
            peer: Some(3),
        },
        ObsEvent::GoalDropped {
            bx: 1,
            slot: 2,
            kind: "userAgent",
        },
        ObsEvent::RaceResolved {
            bx: 1,
            slot: 2,
            won: true,
        },
        ObsEvent::SignalIgnored {
            bx: 1,
            slot: 2,
            reason: "stale oack",
        },
        ObsEvent::MetaSignal {
            bx: 1,
            channel: 3,
            kind: "peer",
        },
        ObsEvent::FaultInjected {
            bx: 1,
            kind: "drop",
        },
        ObsEvent::Retransmission {
            bx: 1,
            slot: 2,
            kind: "refresh",
        },
        ObsEvent::Recovered {
            bx: 1,
            slot: 2,
            attempts: 4,
            elapsed_ms: 450,
        },
    ]
}

fn recorder() -> (RecordingObserver, Log) {
    let rec = RecordingObserver::new(Arc::new(ManualClock::new()));
    let log = rec.log();
    (rec, log)
}

fn events(log: &Log) -> Vec<ObsEvent> {
    log.lock().unwrap().iter().map(|&(_, ev)| ev).collect()
}

#[test]
fn a_recorder_logs_each_hook_as_its_variant() {
    let (mut rec, log) = recorder();
    every_hook(&mut rec);
    assert_eq!(events(&log), expected());
}

#[test]
fn a_boxed_observer_forwards_every_hook() {
    let (rec, log) = recorder();
    let mut boxed: Box<dyn Observer> = Box::new(rec);
    every_hook(&mut boxed);
    assert_eq!(events(&log), expected());
}

#[test]
fn a_fanout_forwards_every_hook_to_both_sides() {
    let ((left, left_log), (right, right_log)) = (recorder(), recorder());
    let mut fanout = Fanout(left, right);
    every_hook(&mut fanout);
    assert_eq!(events(&left_log), expected());
    assert_eq!(events(&right_log), expected());
}
