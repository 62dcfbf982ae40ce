//! Integration tests: the media-control protocol running over the
//! discrete-event simulator, including the paper's latency arithmetic.

use ipmedia_core::boxes::GoalSpec;
use ipmedia_core::endpoint::{CallerLogic, EndpointLogic, NullLogic, RelayLogic};
use ipmedia_core::goal::{AcceptMode, EndpointPolicy, UserCmd};
use ipmedia_core::path::PathEnds;
use ipmedia_core::{BoxId, Codec, MediaAddr, Medium, SlotId};
use ipmedia_netsim::{Network, SimConfig, SimDuration, SimTime};
use ipmedia_obs::Clock;

fn audio_endpoint(host: u8) -> Box<EndpointLogic> {
    Box::new(EndpointLogic::resource(EndpointPolicy::audio(
        MediaAddr::v4(10, 0, 0, host, 4000),
    )))
}

const T_MAX: SimTime = SimTime(60_000_000); // 60 virtual seconds

#[test]
fn direct_call_establishes_two_way_flow() {
    let mut net = Network::new(SimConfig::paper());
    let a = net.add_box("phone-a", audio_endpoint(1));
    let b = net.add_box("phone-b", audio_endpoint(2));
    let (_, sa, sb) = net.connect(a, b, 1);
    net.run_until_quiescent(T_MAX);

    net.user(a, sa[0], UserCmd::Open(Medium::Audio));
    net.run_until_quiescent(T_MAX);

    let slot_a = net.media(a).slot(sa[0]).unwrap();
    let slot_b = net.media(b).slot(sb[0]).unwrap();
    let ends = PathEnds::new(slot_a, slot_b);
    assert!(ends.both_flowing(), "path must converge to bothFlowing");
    assert!(ends.ltr_enabled() && ends.rtl_enabled());
    assert_eq!(slot_a.tx_route().unwrap().1, Codec::G711);
}

#[test]
fn direct_call_latency_is_2n_plus_3c() {
    // §VIII-C: an endpoint can transmit media as soon as it has received a
    // descriptor and sent a corresponding selector. For a direct call the
    // caller's enable takes 2n+3c from the user action; with n=34ms, c=20ms
    // that is 128ms.
    let mut net = Network::new(SimConfig::paper());
    let a = net.add_box("phone-a", audio_endpoint(1));
    let b = net.add_box("phone-b", audio_endpoint(2));
    let (_, sa, sb) = net.connect(a, b, 1);
    net.run_until_quiescent(T_MAX);
    net.advance(SimDuration::from_millis(1_000)); // let boxes go idle

    let t0 = net.now();
    // What a timestamping observer would stamp on anything reported
    // before the next event (`enable_reliability` delivers at once).
    assert_eq!(net.clock().now_micros(), t0.as_micros());
    net.user(a, sa[0], UserCmd::Open(Medium::Audio));
    let ok = net.run_until(T_MAX, |n| {
        n.media(a).slot(sa[0]).unwrap().tx_route().is_some()
            && n.media(b).slot(sb[0]).unwrap().tx_route().is_some()
    });
    assert!(ok);
    // The caller's selector leaves when its box finishes processing the
    // oack: that instant is the box's busy-until time.
    let elapsed = net.busy_until(a).max(net.busy_until(b)) - t0;
    // 2n + 3c = 68 + 60 = 128 ms.
    assert_eq!(elapsed, SimDuration::from_millis(128), "got {elapsed}");
}

/// `L — server — R`, the server flowlinking its two slots, and the call
/// opened from L: the network, the three boxes, and the slots of L, of
/// the server (left, right) and of R.
fn linked_call() -> (Network, [BoxId; 3], [SlotId; 4]) {
    let mut net = Network::new(SimConfig::paper());
    let l = net.add_box("phone-l", audio_endpoint(1));
    let srv = net.add_box("server", Box::new(NullLogic));
    let r = net.add_box("phone-r", audio_endpoint(2));
    let (_, sl, srv_l) = net.connect(l, srv, 1);
    let (_, srv_r, sr) = net.connect(srv, r, 1);
    net.run_until_quiescent(T_MAX);
    let (a, b) = (srv_l[0], srv_r[0]);
    net.set_goal(srv, [GoalSpec::Link { a, b }]);
    net.run_until_quiescent(T_MAX);
    net.user(l, sl[0], UserCmd::Open(Medium::Audio));
    net.run_until_quiescent(T_MAX);
    (net, [l, srv, r], [sl[0], a, b, sr[0]])
}

#[test]
fn call_through_flowlinked_server_is_transparent() {
    // L -- server(flowlink) -- R: the endpoints observe exactly a direct
    // call; media addresses exchanged end-to-end.
    let (net, [l, _, r], [sl, _, _, sr]) = linked_call();

    let slot_l = net.media(l).slot(sl).unwrap();
    let slot_r = net.media(r).slot(sr).unwrap();
    let ends = PathEnds::new(slot_l, slot_r);
    assert!(ends.both_flowing(), "L and R are the path endpoints");

    // Media travels directly between endpoints: L's route targets R's
    // address, not the server's.
    let (to, codec) = slot_l.tx_route().unwrap();
    assert_eq!(to, MediaAddr::v4(10, 0, 0, 2, 4000));
    assert_eq!(codec, Codec::G711);
    let (to, _) = slot_r.tx_route().unwrap();
    assert_eq!(to, MediaAddr::v4(10, 0, 0, 1, 4000));
}

#[test]
fn chain_of_three_flowlinks_still_transparent() {
    // L -- s1 -- s2 -- s3 -- R: a path of 4 tunnels and 3 flowlinks; §V
    // says any number of tunnels and flowlinks must be transparent.
    let mut net = Network::new(SimConfig::paper());
    let l = net.add_box("phone-l", audio_endpoint(1));
    let r = net.add_box("phone-r", audio_endpoint(2));
    let servers: Vec<_> = (0..3)
        .map(|i| net.add_box(format!("srv{i}"), Box::new(NullLogic)))
        .collect();
    let (_, sl, s1l) = net.connect(l, servers[0], 1);
    let (_, s1r, s2l) = net.connect(servers[0], servers[1], 1);
    let (_, s2r, s3l) = net.connect(servers[1], servers[2], 1);
    let (_, s3r, sr) = net.connect(servers[2], r, 1);
    net.run_until_quiescent(T_MAX);

    for (srv, (a, b)) in servers
        .iter()
        .zip([(s1l[0], s1r[0]), (s2l[0], s2r[0]), (s3l[0], s3r[0])])
    {
        let (srv, a, b) = (*srv, a, b);
        net.set_goal(srv, [GoalSpec::Link { a, b }]);
    }
    net.run_until_quiescent(T_MAX);

    net.user(l, sl[0], UserCmd::Open(Medium::Audio));
    net.run_until_quiescent(T_MAX);

    let slot_l = net.media(l).slot(sl[0]).unwrap();
    let slot_r = net.media(r).slot(sr[0]).unwrap();
    assert!(PathEnds::new(slot_l, slot_r).both_flowing());
    assert_eq!(
        slot_l.tx_route().unwrap().0,
        MediaAddr::v4(10, 0, 0, 2, 4000)
    );
    assert_eq!(
        slot_r.tx_route().unwrap().0,
        MediaAddr::v4(10, 0, 0, 1, 4000)
    );
}

#[test]
fn mute_modify_propagates_end_to_end() {
    let (mut net, [l, _, r], [sl, _, _, sr]) = linked_call();
    assert!(net.media(r).slot(sr).unwrap().tx_route().is_some());

    // L mutes inward: R must stop transmitting once the describe/select
    // exchange completes — through the server, end to end.
    net.user(
        l,
        sl,
        UserCmd::Modify {
            mute_in: true,
            mute_out: false,
        },
    );
    net.run_until_quiescent(T_MAX);
    assert!(
        net.media(r).slot(sr).unwrap().tx_route().is_none(),
        "R must stop sending after L mutes in"
    );
    assert!(
        net.media(l).slot(sl).unwrap().tx_route().is_some(),
        "L→R direction unaffected"
    );

    // Unmute: flow recurs (the □◇bothFlowing excursion-and-return).
    net.user(
        l,
        sl,
        UserCmd::Modify {
            mute_in: false,
            mute_out: false,
        },
    );
    net.run_until_quiescent(T_MAX);
    let slot_l = net.media(l).slot(sl).unwrap();
    let slot_r = net.media(r).slot(sr).unwrap();
    assert!(PathEnds::new(slot_l, slot_r).both_flowing());
    assert!(slot_r.tx_route().is_some());
}

#[test]
fn close_tears_down_whole_path() {
    let (mut net, [l, srv, r], [sl, srv_l, srv_r, sr]) = linked_call();

    net.user(l, sl, UserCmd::Close);
    net.run_until_quiescent(T_MAX);
    let slot_l = net.media(l).slot(sl).unwrap();
    let slot_r = net.media(r).slot(sr).unwrap();
    assert!(PathEnds::new(slot_l, slot_r).both_closed());
    assert!(net.media(srv).slot(srv_l).unwrap().is_closed());
    assert!(net.media(srv).slot(srv_r).unwrap().is_closed());
}

#[test]
fn open_channel_to_unavailable_box() {
    struct Caller;
    impl ipmedia_core::AppLogic for Caller {
        fn handle(&mut self, input: &ipmedia_core::BoxInput, ctx: &mut ipmedia_core::Ctx<'_>) {
            match input {
                ipmedia_core::BoxInput::Start => ctx.open_channel("dead-phone", 1, 7),
                ipmedia_core::BoxInput::Meta {
                    channel,
                    meta: ipmedia_core::MetaSignal::Peer(av),
                } => {
                    assert_eq!(*av, ipmedia_core::Availability::Unavailable);
                    ctx.close_channel(*channel);
                    ctx.terminate();
                }
                _ => {}
            }
        }
    }
    let mut net = Network::new(SimConfig::paper());
    let dead = net.add_box("dead-phone", audio_endpoint(9));
    net.set_available(dead, false);
    let _caller = net.add_box("caller", Box::new(Caller));
    net.run_until_quiescent(T_MAX);
    // If the assertion inside Caller didn't fire, the availability
    // round-trip completed; nothing should be pending.
    assert_eq!(net.pending_events(), 0);
}

#[test]
fn timers_fire_and_cancel() {
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    struct TimerBox(Arc<AtomicU32>);
    impl ipmedia_core::AppLogic for TimerBox {
        fn handle(&mut self, input: &ipmedia_core::BoxInput, ctx: &mut ipmedia_core::Ctx<'_>) {
            use ipmedia_core::{BoxInput, TimerId};
            match input {
                BoxInput::Start => {
                    ctx.set_timer(TimerId(1), 100);
                    ctx.set_timer(TimerId(2), 200);
                    ctx.cancel_timer(TimerId(2));
                    // Re-arming a timer supersedes the previous schedule.
                    ctx.set_timer(TimerId(3), 50);
                    ctx.set_timer(TimerId(3), 300);
                }
                BoxInput::Timer(TimerId(1)) => {
                    self.0.fetch_add(1, Ordering::SeqCst);
                }
                BoxInput::Timer(TimerId(2)) => panic!("cancelled timer fired"),
                BoxInput::Timer(TimerId(3)) => {
                    self.0.fetch_add(100, Ordering::SeqCst);
                }
                _ => {}
            }
        }
    }

    let fired = Arc::new(AtomicU32::new(0));
    let mut net = Network::new(SimConfig::paper());
    net.add_box("timers", Box::new(TimerBox(fired.clone())));
    net.run_until_quiescent(T_MAX);
    assert_eq!(fired.load(std::sync::atomic::Ordering::SeqCst), 101);
}

#[test]
fn simulation_is_deterministic() {
    fn run() -> Vec<String> {
        let mut net = Network::new(SimConfig::paper());
        net.trace_enabled = true;
        let a = net.add_box("phone-a", audio_endpoint(1));
        let b = net.add_box("phone-b", audio_endpoint(2));
        let (_, sa, _) = net.connect(a, b, 2);
        net.run_until_quiescent(T_MAX);
        net.user(a, sa[0], UserCmd::Open(Medium::Audio));
        net.user(a, sa[1], UserCmd::Open(Medium::Audio));
        net.run_until_quiescent(T_MAX);
        net.trace()
            .iter()
            .map(|e| format!("{} {} {}", e.at, e.to, e.what))
            .collect()
    }
    assert_eq!(run(), run());
}

#[test]
fn two_tunnels_are_independent() {
    // §IX-B: every tunnel is completely independent; controlling audio and
    // video channels on the same signaling path cannot contend.
    let mut net = Network::new(SimConfig::paper());
    let pol = EndpointPolicy {
        addr: MediaAddr::v4(10, 0, 0, 1, 4000),
        recv_codecs: [Codec::G711, Codec::H263].into(),
        send_codecs: [Codec::G711, Codec::H263].into(),
        mute_in: false,
        mute_out: false,
    };
    let a = net.add_box(
        "dev-a",
        Box::new(EndpointLogic::new(pol.clone(), AcceptMode::Auto)),
    );
    let pol_b = EndpointPolicy {
        addr: MediaAddr::v4(10, 0, 0, 2, 4000),
        ..pol
    };
    let b = net.add_box(
        "dev-b",
        Box::new(EndpointLogic::new(pol_b, AcceptMode::Auto)),
    );
    let (_, sa, sb) = net.connect(a, b, 2);
    net.run_until_quiescent(T_MAX);

    // Open audio one way and video the other way, simultaneously.
    net.user(a, sa[0], UserCmd::Open(Medium::Audio));
    net.user(b, sb[1], UserCmd::Open(Medium::Video));
    net.run_until_quiescent(T_MAX);

    let audio = PathEnds::new(
        net.media(a).slot(sa[0]).unwrap(),
        net.media(b).slot(sb[0]).unwrap(),
    );
    let video = PathEnds::new(
        net.media(a).slot(sa[1]).unwrap(),
        net.media(b).slot(sb[1]).unwrap(),
    );
    assert!(audio.both_flowing());
    assert!(video.both_flowing());
    assert_eq!(
        net.media(a).slot(sa[0]).unwrap().medium(),
        Some(Medium::Audio)
    );
    assert_eq!(
        net.media(a).slot(sa[1]).unwrap().medium(),
        Some(Medium::Video)
    );
}

#[test]
fn a_rejected_user_command_is_observed_and_the_run_goes_on() {
    use ipmedia_obs::{ObsEvent, RecordingObserver};

    let mut net = Network::new(SimConfig::paper());
    let rec = RecordingObserver::new(net.clock());
    let log = rec.log();
    net.set_observer(Box::new(rec));
    let a = net.add_box("phone-a", audio_endpoint(1));
    let b = net.add_box("phone-b", audio_endpoint(2));
    let (_, sa, sb) = net.connect(a, b, 1);
    net.run_until_quiescent(T_MAX);
    net.user(a, sa[0], UserCmd::Open(Medium::Audio));
    net.run_until_quiescent(T_MAX);

    net.advance(SimDuration::from_millis(1_000));

    // The open lands while the close still waits for its closeack.
    let t0 = net.now();
    net.user(a, sa[0], UserCmd::Close);
    net.user(a, sa[0], UserCmd::Open(Medium::Audio));
    let rejected = ObsEvent::SignalIgnored {
        bx: a.0,
        slot: sa[0].0,
        reason: "user_rejected",
    };
    let seen = |_: &Network| log.lock().unwrap().iter().any(|&(_, e)| e == rejected);
    assert!(net.run_until(T_MAX, seen));
    // The box read it all the same: one stimulus, c, after the close's.
    assert_eq!(net.busy_until(a) - t0, SimDuration::from_millis(40));

    // The close completes, and a fresh open reaches the far end.
    net.run_until_quiescent(T_MAX);
    assert!(net.media(a).slot(sa[0]).unwrap().is_closed());
    net.user(a, sa[0], UserCmd::Open(Medium::Audio));
    net.run_until_quiescent(T_MAX);
    assert!(net.media(b).slot(sb[0]).unwrap().is_flowing());
}

#[test]
fn open_open_race_within_one_tunnel_resolves() {
    // Both ends open the same tunnel simultaneously: the channel initiator
    // (side a) wins, the other backs off and accepts (§VI-B).
    let mut net = Network::new(SimConfig::paper());
    let a = net.add_box("phone-a", audio_endpoint(1));
    let b = net.add_box("phone-b", audio_endpoint(2));
    let (_, sa, sb) = net.connect(a, b, 1);
    net.run_until_quiescent(T_MAX);

    net.user(a, sa[0], UserCmd::Open(Medium::Audio));
    net.user(b, sb[0], UserCmd::Open(Medium::Audio));
    net.run_until_quiescent(T_MAX);

    let slot_a = net.media(a).slot(sa[0]).unwrap();
    let slot_b = net.media(b).slot(sb[0]).unwrap();
    assert!(PathEnds::new(slot_a, slot_b).both_flowing());
}

/// Closes its other leg when one leg's channel is destroyed.
#[derive(Default)]
struct HangupRelay {
    legs: Vec<(ipmedia_core::ChannelId, SlotId)>,
}

impl ipmedia_core::AppLogic for HangupRelay {
    fn handle(&mut self, input: &ipmedia_core::BoxInput, ctx: &mut ipmedia_core::Ctx<'_>) {
        use ipmedia_core::BoxInput;
        match input {
            BoxInput::ChannelUp { channel, slots, .. } => self.legs.push((*channel, slots[0])),
            BoxInput::ChannelDown { channel } => {
                self.legs.retain(|(ch, _)| ch != channel);
                for &(_, slot) in &self.legs {
                    ctx.set_goal(GoalSpec::Close { slot });
                }
            }
            _ => {}
        }
    }
}

/// A flowing call `phone-l — relay — phone-r` through a [`HangupRelay`]
/// whose two slots are flowlinked; returns the left phone with its
/// channel to the relay, then the relay with its left and right slots.
fn hangup_relay_call(
    net: &mut Network,
) -> ((BoxId, ipmedia_core::ChannelId), (BoxId, SlotId, SlotId)) {
    let l = net.add_box("phone-l", audio_endpoint(1));
    let relay = net.add_box("relay", Box::<HangupRelay>::default());
    let r = net.add_box("phone-r", audio_endpoint(2));
    let (ch_l, sl, relay_l) = net.connect(l, relay, 1);
    let (_, relay_r, sr) = net.connect(relay, r, 1);
    net.run_until_quiescent(T_MAX);
    let (a, b) = (relay_l[0], relay_r[0]);
    net.set_goal(relay, [GoalSpec::Link { a, b }]);
    net.user(l, sl[0], UserCmd::Open(Medium::Audio));
    net.run_until_quiescent(T_MAX);
    assert!(net.media(r).slot(sr[0]).unwrap().is_flowing());
    ((l, ch_l), (relay, a, b))
}

#[test]
fn far_end_channel_down_is_observed() {
    use ipmedia_core::BoxCmd;
    use ipmedia_obs::{ObsEvent, RecordingObserver};

    let mut net = Network::new(SimConfig::paper());
    let rec = RecordingObserver::new(net.clock());
    let log = rec.log();
    net.set_observer(Box::new(rec));
    let ((l, ch_l), (relay, relay_l, relay_r)) = hangup_relay_call(&mut net);

    // The left phone destroys its channel; the relay hears of it one
    // network latency later and hangs up the right leg.
    let before = log.lock().unwrap().len();
    net.apply(l, move |_| vec![BoxCmd::CloseChannel(ch_l)]);
    net.run_until_quiescent(T_MAX);
    assert!(net.media(relay).slot(relay_l).is_none());
    assert!(net.media(relay).slot(relay_r).unwrap().is_closed());

    let at_relay: Vec<ObsEvent> = log.lock().unwrap()[before..]
        .iter()
        .map(|&(_, e)| e)
        .filter(|e| e.bx() == relay.0)
        .filter(|e| {
            matches!(
                e,
                ObsEvent::Stimulus { .. }
                    | ObsEvent::GoalActivated { .. }
                    | ObsEvent::GoalDropped { .. }
                    | ObsEvent::SlotTransition { .. }
            )
        })
        .collect();
    // The teardown is its own stimulus kind, the flowlink dies with the
    // left slot inside it, and the goal and slot activity the program's
    // reaction causes is visible.
    assert_eq!(
        at_relay[..4],
        [
            ObsEvent::Stimulus {
                bx: relay.0,
                kind: "channel_down"
            },
            ObsEvent::GoalDropped {
                bx: relay.0,
                slot: relay_l.0,
                kind: "flowLink"
            },
            ObsEvent::GoalActivated {
                bx: relay.0,
                slot: relay_r.0,
                kind: "closeSlot",
                peer: None,
            },
            ObsEvent::SlotTransition {
                bx: relay.0,
                slot: relay_r.0,
                from: "flowing",
                to: "closing",
                cause: "goal"
            },
        ],
        "{at_relay:#?}"
    );
}

#[test]
fn goals_dropped_by_a_channel_down_are_traced_under_it() {
    use ipmedia_core::BoxCmd;
    use ipmedia_obs::trace::SpanSink;

    let mut net = Network::new(SimConfig::paper());
    let sink = std::sync::Arc::new(SpanSink::new(4_096));
    net.enable_tracing(sink.clone());
    let ((l, ch_l), (relay, relay_l, _)) = hangup_relay_call(&mut net);
    net.apply(l, move |_| vec![BoxCmd::CloseChannel(ch_l)]);
    net.run_until_quiescent(T_MAX);

    let spans = sink.snapshot();
    let dropped = format!("s{}: -flowLink", relay_l.0);
    let drop = spans
        .iter()
        .find(|s| s.bx == relay.0 && s.label == dropped)
        .unwrap_or_else(|| panic!("no span for the dropped flowlink: {spans:#?}"));
    let parent = spans
        .iter()
        .find(|s| Some(s.id) == drop.parent)
        .expect("the drop has a parent span");
    assert_eq!(parent.bx, relay.0);
    assert_eq!(parent.kind, "stimulus");
    assert!(parent.label.starts_with("channel_down"), "{parent:?}");
}

#[test]
fn a_relay_pairs_each_caller_with_its_own_onward_leg() {
    // Two callers reach the relay at once; each onward dial comes up one
    // round trip (2n) later, after both callers have arrived. Each caller
    // must still be linked to its own leg: a relay holding one "incoming"
    // channel links both legs to the second caller.
    let callee_addr = MediaAddr::v4(10, 0, 0, 3, 4000);
    let caller = |host| {
        let policy = EndpointPolicy::audio(MediaAddr::v4(10, 0, 0, host, 4000));
        Box::new(CallerLogic::new(policy, "relay", 1, 1))
    };
    let mut net = Network::new(SimConfig::paper());
    let callers = [
        net.add_box("phone-1", caller(1)),
        net.add_box("phone-2", caller(2)),
    ];
    let relay = net.add_box("relay", Box::new(RelayLogic::new("callee")));
    net.add_box("callee", audio_endpoint(3));
    net.run_until_quiescent(T_MAX);

    for c in callers {
        let (_, slot) = net.media(c).slots().next().expect("the caller's slot");
        assert!(slot.is_flowing(), "{c:?} flows");
        assert_eq!(slot.tx_route(), Some((callee_addr, Codec::G711)));
    }
    let relay = net.media(relay);
    assert_eq!(relay.slot_ids().count(), 4);
    for s in relay.slot_ids() {
        let goal = relay.goal_of(s).map(|g| g.kind());
        assert_eq!(goal, Some("flowLink"), "relay slot {s}");
    }
}

#[test]
fn a_caller_that_hangs_up_before_the_onward_leg_is_up_costs_the_relay_nothing() {
    // The caller destroys its channel while the relay's onward dial is
    // still on its way: the relay forgets the incoming slot, and closes
    // the onward channel when it comes up with nothing to link it to.
    use ipmedia_core::BoxCmd;

    let policy = EndpointPolicy::audio(MediaAddr::v4(10, 0, 0, 1, 4000));
    let mut net = Network::new(SimConfig::paper());
    let caller = net.add_box("caller", Box::new(CallerLogic::new(policy, "relay", 1, 1)));
    let relay = net.add_box("relay", Box::new(RelayLogic::new("callee")));
    let callee = net.add_box("callee", audio_endpoint(3));
    let holds_incoming = |n: &Network| n.media(relay).slots().len() == 1;
    assert!(net.run_until(T_MAX, holds_incoming));
    let ch = net.channels_between(caller, relay)[0];
    net.apply(caller, move |_| vec![BoxCmd::CloseChannel(ch)]);
    net.run_until_quiescent(T_MAX);

    for bx in [caller, relay, callee] {
        assert_eq!(net.media(bx).slots().len(), 0, "{bx:?} holds a slot");
    }
    assert!(net.channels_between(relay, callee).is_empty());
}

/// caller → relay → resource callee, all flowing: the boxes and the two
/// channels of the call.
fn relayed_call() -> (Network, [BoxId; 3], [ipmedia_core::ChannelId; 2]) {
    let policy = EndpointPolicy::audio(MediaAddr::v4(10, 0, 0, 1, 4000));
    let mut net = Network::new(SimConfig::paper());
    let caller = net.add_box("caller", Box::new(CallerLogic::new(policy, "relay", 1, 1)));
    let relay = net.add_box("relay", Box::new(RelayLogic::new("callee")));
    let callee = net.add_box("callee", audio_endpoint(3));
    net.run_until_quiescent(T_MAX);
    for bx in [caller, relay, callee] {
        let flowing = |s: &ipmedia_core::Slot| s.state() == ipmedia_core::SlotState::Flowing;
        assert!(net.media(bx).slots().all(|(_, s)| flowing(s)), "{bx:?}");
        assert!(net.media(bx).slots().len() > 0, "{bx:?}");
    }
    let legs = [
        net.channels_between(caller, relay)[0],
        net.channels_between(relay, callee)[0],
    ];
    (net, [caller, relay, callee], legs)
}

#[test]
fn a_caller_that_hangs_up_a_flowing_relayed_call_ends_its_onward_leg() {
    use ipmedia_core::BoxCmd;
    let (mut net, [caller, relay, callee], [incoming, _]) = relayed_call();
    net.apply(caller, move |_| vec![BoxCmd::CloseChannel(incoming)]);
    net.run_until_quiescent(T_MAX);
    for bx in [caller, relay, callee] {
        assert_eq!(net.media(bx).slots().len(), 0, "{bx:?} holds a slot");
    }
    assert!(net.channels_between(relay, callee).is_empty());
}

#[test]
fn a_callee_that_hangs_up_a_flowing_relayed_call_ends_its_incoming_leg() {
    use ipmedia_core::BoxCmd;
    let (mut net, [caller, relay, callee], [_, onward]) = relayed_call();
    net.apply(callee, move |_| vec![BoxCmd::CloseChannel(onward)]);
    net.run_until_quiescent(T_MAX);
    for bx in [caller, relay, callee] {
        assert_eq!(net.media(bx).slots().len(), 0, "{bx:?} holds a slot");
    }
    assert!(net.channels_between(caller, relay).is_empty());
}

/// A box holds at most `MAX_SLOTS` slots: a dial of its own over the cap
/// comes back unavailable with nothing dealt, and a target with no room
/// answers as a busy box does, leaving the dialer half-open.
#[test]
fn a_dial_over_the_slot_cap_comes_back_unavailable() {
    use ipmedia_core::host::MAX_SLOTS;
    use ipmedia_core::program::{AppLogic, BoxInput, Ctx};
    use ipmedia_core::{Availability, MetaSignal};
    use std::sync::{Arc, Mutex};

    type Outcomes = Arc<Mutex<Vec<(u32, usize, bool)>>>;
    /// Dials each `(target, tunnels)` at start, tagged by position, and
    /// records each channel's tag, slot count and availability.
    struct Dials(Vec<(&'static str, u16)>, Outcomes);
    impl AppLogic for Dials {
        fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
            match input {
                BoxInput::Start => {
                    for (tag, (to, tunnels)) in (0..).zip(&self.0) {
                        ctx.open_channel(*to, *tunnels, tag);
                    }
                }
                BoxInput::ChannelUp {
                    slots,
                    req: Some(tag),
                    ..
                } => self.1.lock().unwrap().push((*tag, slots.len(), false)),
                BoxInput::Meta {
                    meta: MetaSignal::Peer(Availability::Available),
                    ..
                } => self.1.lock().unwrap().last_mut().unwrap().2 = true,
                _ => {}
            }
        }
    }

    let mut net = Network::new(SimConfig::paper());
    let outcomes = Outcomes::default();
    let full = MAX_SLOTS - 8;
    net.add_box("callee", audio_endpoint(2));
    let big = vec![("callee", full)];
    net.add_box("big", Box::new(Dials(big, Outcomes::default())));
    net.run_until_quiescent(T_MAX);
    let dials = vec![("callee", MAX_SLOTS + 1), ("callee", 16), ("callee", 8)];
    let probe = net.add_box("probe", Box::new(Dials(dials, outcomes.clone())));
    net.run_until_quiescent(T_MAX);
    assert_eq!(
        *outcomes.lock().unwrap(),
        [(0, 0, false), (1, 16, false), (2, 8, true)],
        "over its own cap, over the callee's, and one that fits"
    );
    assert_eq!(net.media(probe).slots().count(), 24);
}

/// `Network::connect` is the harness's own channel, with no one to turn
/// it away: one that does not fit a box is a mistake in the test.
#[test]
#[should_panic(expected = "do not fit")]
fn a_harness_channel_over_the_slot_cap_panics() {
    use ipmedia_core::host::MAX_SLOTS;
    let mut net = Network::new(SimConfig::instant());
    let a = net.add_box("a", audio_endpoint(1));
    let b = net.add_box("b", audio_endpoint(2));
    net.connect(a, b, MAX_SLOTS);
    net.connect(a, b, 1);
}
