//! A lost connection on the simulator: the channel lifecycle every `rt`
//! node runs ([`ipmedia_core::link::Link`]), run in virtual time. A
//! scheduled disconnect is a TCP reset: the acceptor's channel goes down,
//! the initiator parks its slots and re-dials on the lifecycle's backoff,
//! and every instant it decides on is one the schedule predicts.

use ipmedia_core::endpoint::EndpointLogic;
use ipmedia_core::goal::{EndpointPolicy, UserCmd};
use ipmedia_core::link::{backoff_delays, jitter_seed, ReconnectPolicy};
use ipmedia_core::{BoxId, ChannelId, MediaAddr, Medium, SlotId, SlotState};
use ipmedia_netsim::{Network, SimConfig, SimDuration, SimTime};
use ipmedia_obs::{ObsEvent, RecordingObserver};
use std::sync::{Arc, Mutex};

type Log = Arc<Mutex<Vec<(u64, ObsEvent)>>>;

const T_MAX: SimTime = SimTime(600_000_000);

fn phone(host: u8) -> Box<EndpointLogic> {
    Box::new(EndpointLogic::resource(EndpointPolicy::audio(
        MediaAddr::v4(10, 0, 0, host, 4000),
    )))
}

/// Two phones, "phone-a" initiating their one channel, in a flowing call
/// at a quiet network one second after it settled.
struct Call {
    net: Network,
    log: Log,
    a: BoxId,
    b: BoxId,
    ch: ChannelId,
    slot: SlotId,
}

fn flowing_call(cfg: SimConfig) -> Call {
    let mut net = Network::new(cfg);
    net.trace_enabled = true;
    let rec = RecordingObserver::new(net.clock());
    let log = rec.log();
    net.set_observer(Box::new(rec));
    let a = net.add_box("phone-a", phone(1));
    let b = net.add_box("phone-b", phone(2));
    let (ch, sa, _) = net.connect(a, b, 1);
    net.run_until_quiescent(T_MAX);
    net.user(a, sa[0], UserCmd::Open(Medium::Audio));
    net.run_until_quiescent(T_MAX);
    net.advance(SimDuration::from_millis(1_000));
    Call {
        net,
        log,
        a,
        b,
        ch,
        slot: sa[0],
    }
}

fn us(d: std::time::Duration) -> SimDuration {
    SimDuration::from_micros(u64::try_from(d.as_micros()).unwrap())
}

/// When each re-dial attempt of "phone-a"'s channel `ch` goes after a loss
/// at `t`: attempt `k` waits out delay `k` after the previous attempt's
/// round trip.
fn attempt_instants(ch: ChannelId, t: SimTime, rtt: SimDuration) -> Vec<SimTime> {
    let seed = jitter_seed("phone-a", ch.0);
    let policy = ReconnectPolicy::default();
    let mut at = t;
    let mut instants = Vec::new();
    for d in backoff_delays(&policy, seed, policy.reconnect_attempts) {
        at += us(d);
        instants.push(at);
        at += rtt;
    }
    instants
}

/// The instants of the faults of `kind` observed at `bx`.
fn faults(log: &Log, bx: BoxId, kind: &str) -> Vec<u64> {
    let log = log.lock().unwrap();
    let at = |(at, e): &(u64, ObsEvent)| match e {
        ObsEvent::FaultInjected { bx: b, kind: k } if *b == bx.0 && *k == kind => Some(*at),
        _ => None,
    };
    log.iter().filter_map(at).collect()
}

/// The instants `bx` took a stimulus of `kind`.
fn stimuli(log: &Log, bx: BoxId, kind: &str) -> Vec<u64> {
    let log = log.lock().unwrap();
    let at = |(at, e): &(u64, ObsEvent)| match e {
        ObsEvent::Stimulus { bx: b, kind: k } if *b == bx.0 && *k == kind => Some(*at),
        _ => None,
    };
    log.iter().filter_map(at).collect()
}

/// The states of `bx`'s slots, in slot order.
fn states(net: &Network, bx: BoxId) -> Vec<SlotState> {
    net.media(bx).slots().map(|(_, s)| s.state()).collect()
}

/// A disconnect while the far end is cut off for the first `lands - 1`
/// attempts (forever with `None`); returns the call and the instants of
/// the loss and of every attempt the schedule predicts.
fn outage(lands: Option<usize>) -> (Call, SimTime, Vec<SimTime>) {
    let mut call = flowing_call(SimConfig::paper());
    let n = SimConfig::paper().net_latency;
    let t = call.net.now() + SimDuration::from_millis(10);
    let attempts = attempt_instants(call.ch, t, n + n);
    call.net.schedule_partition(t, call.a, call.b, true, true);
    if let Some(k) = lands {
        // Heal between the attempt before the k-th and the k-th.
        let heal = attempts[k - 2] + SimDuration::from_millis(1);
        assert!(heal < attempts[k - 1]);
        call.net.schedule_heal(heal, call.a, call.b);
    }
    call.net.schedule_disconnect(t, call.ch);
    call.net.run_until_quiescent(T_MAX);
    (call, t, attempts)
}

#[test]
fn a_redial_resyncs_at_the_instant_the_backoff_predicts() {
    let (call, t, attempts) = outage(Some(4));
    let rtt = SimConfig::paper().net_latency + SimConfig::paper().net_latency;
    let n = SimConfig::paper().net_latency;
    let resync = attempts[3] + rtt;
    assert_eq!(faults(&call.log, call.a, "disconnect"), [t.0]);
    assert_eq!(faults(&call.log, call.a, "reconnect"), [resync.0]);
    // The acceptor lost its channel at once, and got it anew one latency
    // after the attempt that landed.
    assert_eq!(stimuli(&call.log, call.b, "channel_down"), [t.0]);
    let ups = stimuli(&call.log, call.b, "channel_up");
    assert_eq!(ups.last(), Some(&(attempts[3] + n).0));
    // The parked slot re-sent its cache, and reports the outage.
    let log = call.log.lock().unwrap();
    let recovered: Vec<_> = log
        .iter()
        .filter_map(|(at, e)| match *e {
            ObsEvent::Recovered {
                bx,
                attempts,
                elapsed_ms,
                ..
            } if bx == call.a.0 => Some((*at, attempts, elapsed_ms)),
            _ => None,
        })
        .collect();
    let elapsed_ms = resync.0 / 1_000 - t.0 / 1_000;
    assert_eq!(recovered, [(resync.0, 4, elapsed_ms)]);
    drop(log);
    // The acceptor's fresh slot never heard of the call: the re-sent
    // cache meets a closed slot, and both ends settle closed (§VI).
    assert_eq!(states(&call.net, call.a), [SlotState::Closed]);
    assert_eq!(states(&call.net, call.b), [SlotState::Closed]);
    assert!(call.net.all_converged());
}

#[test]
fn an_exhausted_redial_gives_up_at_the_instant_the_backoff_predicts() {
    let (call, t, attempts) = outage(None);
    let rtt = SimConfig::paper().net_latency + SimConfig::paper().net_latency;
    let give_up = *attempts.last().unwrap() + rtt;
    assert_eq!(attempts.len(), 8, "the default re-dial budget");
    assert!(faults(&call.log, call.a, "reconnect").is_empty());
    assert_eq!(stimuli(&call.log, call.b, "channel_down"), [t.0]);
    assert_eq!(stimuli(&call.log, call.a, "channel_down"), [give_up.0]);
    assert_eq!(call.net.media(call.a).slots().count(), 0);
    assert_eq!(call.net.media(call.b).slots().count(), 0);
    assert_eq!(call.net.pending_events(), 0);
}

#[test]
fn a_disconnect_replays_byte_for_byte() {
    for lands in [Some(3), None] {
        let (one, ..) = outage(lands);
        let (two, ..) = outage(lands);
        assert_eq!(one.net.ladder(), two.net.ladder());
        let events = |c: &Call| format!("{:?}", c.log.lock().unwrap());
        assert_eq!(events(&one), events(&two));
    }
}

/// The PR-7 flap, on the simulator: news from the dead connection that
/// arrives once its replacement is up must not touch it. The network's
/// latency (100 ms) is longer than any first re-dial delay (at most the
/// 50 ms base), so a frame the initiator sent just before the loss
/// reaches the acceptor after its fresh channel is registered; and a
/// frame the initiator writes to the dead connection while the landing
/// attempt is on its way is reported lost after the resync.
#[test]
fn news_from_a_superseded_connection_is_dropped() {
    let cfg = SimConfig {
        net_latency: SimDuration::from_millis(100),
        compute_cost: SimDuration::from_millis(1),
    };
    let mut call = flowing_call(cfg);
    let (a, b, slot) = (call.a, call.b, call.slot);
    let mute = |on| UserCmd::Modify {
        mute_in: on,
        mute_out: false,
    };
    let now = call.net.now();
    let t = now + SimDuration::from_millis(10);
    call.net.schedule_disconnect(t, call.ch);
    // Leaves at t - 4 ms on connection 0, arrives at t + 96 ms.
    call.net
        .user_at(now + SimDuration::from_millis(5), a, slot, mute(true));
    // Written to the dead connection at t + 61 ms; no acknowledgement by
    // t + 261 ms, when connection 1 has long been up.
    call.net
        .user_at(t + SimDuration::from_millis(60), a, slot, mute(false));
    let first = attempt_instants(call.ch, t, cfg.net_latency + cfg.net_latency)[0];
    assert!(first < t + SimDuration::from_millis(60));
    call.net.run_until_quiescent(T_MAX);

    // One loss, one recovery: the late death notice did not start another.
    assert_eq!(faults(&call.log, a, "disconnect"), [t.0]);
    let resync = first + cfg.net_latency + cfg.net_latency;
    assert_eq!(faults(&call.log, a, "reconnect"), [resync.0]);
    // The acceptor's fresh channel heard nothing before it came up: the
    // late frame was dropped where it arrived.
    let up = (first + cfg.net_latency).0;
    let log = call.log.lock().unwrap();
    let early = log.iter().any(|(at, e)| {
        matches!(e, ObsEvent::SignalReceived { bx, .. } if *bx == b.0) && *at > t.0 && *at < up
    });
    assert!(
        !early,
        "a frame of the dead connection reached its replacement"
    );
    drop(log);
    assert_eq!(states(&call.net, a), [SlotState::Closed]);
    assert_eq!(states(&call.net, b), [SlotState::Closed]);
    assert!(call.net.all_converged());
}

/// Two channels "phone-a" dialed to "phone-b" share one connection, as on
/// `rt`: a disconnect scheduled on either loses both. Each initiator end
/// re-dials on its own channel's backoff and resyncs at the instant it
/// predicts; the acceptor loses both channels at once.
#[test]
fn channels_between_one_pair_share_their_connections_fate() {
    let mut net = Network::new(SimConfig::paper());
    let rec = RecordingObserver::new(net.clock());
    let log = rec.log();
    net.set_observer(Box::new(rec));
    let a = net.add_box("phone-a", phone(1));
    let b = net.add_box("phone-b", phone(2));
    let (ch0, s0, _) = net.connect(a, b, 1);
    let (ch1, s1, _) = net.connect(a, b, 1);
    net.run_until_quiescent(T_MAX);
    for slot in [s0[0], s1[0]] {
        net.user(a, slot, UserCmd::Open(Medium::Audio));
    }
    net.run_until_quiescent(T_MAX);
    net.advance(SimDuration::from_millis(1_000));

    let n = SimConfig::paper().net_latency;
    let t = net.now() + SimDuration::from_millis(10);
    net.schedule_disconnect(t, ch1);
    net.run_until_quiescent(T_MAX);

    // Nothing blocks the first attempts: each lands and resyncs a round
    // trip after it goes.
    let mut resyncs: Vec<u64> = [ch0, ch1]
        .map(|ch| (attempt_instants(ch, t, n + n)[0] + n + n).0)
        .to_vec();
    resyncs.sort_unstable();
    assert_ne!(resyncs[0], resyncs[1], "the channels draw distinct jitter");
    assert_eq!(faults(&log, a, "disconnect"), [t.0, t.0]);
    assert_eq!(faults(&log, a, "reconnect"), resyncs);
    assert_eq!(stimuli(&log, b, "channel_down"), [t.0, t.0]);
    let recovered: Vec<u64> = log
        .lock()
        .unwrap()
        .iter()
        .filter(|(_, e)| matches!(e, ObsEvent::Recovered { bx, .. } if *bx == a.0))
        .map(|(at, _)| *at)
        .collect();
    assert_eq!(recovered, resyncs);
    assert!(net.all_converged());
}
