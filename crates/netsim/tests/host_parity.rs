//! The substrates add scheduling, not meaning: the same two-box script
//! through the simulator and through two bare [`NodeHost`]s wired back to
//! back with a queue yields the same observer events at each box.

use ipmedia_core::host::{Arrival, Buffers, Effect, Input, NodeHost};
use ipmedia_core::{
    BoxCmd, BoxId, BoxInput, ChannelId, EndpointLogic, EndpointPolicy, MediaAddr, Medium, SlotId,
    UserCmd,
};
use ipmedia_netsim::{Network, SimConfig, SimTime};
use ipmedia_obs::{ManualClock, ObsEvent, RecordingObserver};
use std::collections::VecDeque;
use std::sync::Arc;

fn phone(host: u8) -> Box<EndpointLogic> {
    let policy = EndpointPolicy::audio(MediaAddr::v4(10, 0, 0, host, 4000));
    Box::new(EndpointLogic::resource(policy))
}

/// What the script does to a box, in either substrate.
enum Step {
    User(usize, UserCmd),
    CloseChannel(usize),
}

/// Open, hold, resume, close, then destroy the channel from the far end.
fn script() -> Vec<Step> {
    let hold = |on| UserCmd::Modify {
        mute_in: on,
        mute_out: on,
    };
    vec![
        Step::User(0, UserCmd::Open(Medium::Audio)),
        Step::User(0, hold(true)),
        Step::User(1, hold(true)),
        Step::User(0, hold(false)),
        Step::User(0, UserCmd::Close),
        Step::CloseChannel(1),
    ]
}

fn per_box(events: Vec<(u64, ObsEvent)>) -> [Vec<ObsEvent>; 2] {
    let mut split = [Vec::new(), Vec::new()];
    for (_, e) in events {
        split[e.bx() as usize].push(e);
    }
    split
}

fn through_network() -> [Vec<ObsEvent>; 2] {
    const T_MAX: SimTime = SimTime(60_000_000);
    let mut net = Network::new(SimConfig::paper());
    let rec = RecordingObserver::new(net.clock());
    let log = rec.log();
    net.set_observer(Box::new(rec));
    let ids = [net.add_box("a", phone(1)), net.add_box("b", phone(2))];
    let (ch, ..) = net.connect(ids[0], ids[1], 1);
    net.run_until_quiescent(T_MAX);
    for step in script() {
        match step {
            Step::User(bx, cmd) => net.user(ids[bx], SlotId(0), cmd),
            Step::CloseChannel(bx) => net.apply(ids[bx], move |_| vec![BoxCmd::CloseChannel(ch)]),
        }
        net.run_until_quiescent(T_MAX);
    }
    let events = log.lock().unwrap().clone();
    per_box(events)
}

fn through_wired_hosts() -> [Vec<ObsEvent>; 2] {
    let mut hosts = [
        NodeHost::new(BoxId(0), phone(1)),
        NodeHost::new(BoxId(1), phone(2)),
    ];
    let mut obs = RecordingObserver::new(Arc::new(ManualClock::new()));
    let log = obs.log();
    // The whole substrate: a FIFO of (destination, input).
    let mut wire: VecDeque<(usize, Input)> = VecDeque::new();
    let mut run = |hosts: &mut [NodeHost; 2], wire: &mut VecDeque<(usize, Input)>| {
        let mut bufs = Buffers::default();
        while let Some((to, input)) = wire.pop_front() {
            hosts[to]
                .handle(input, &Arrival::default(), &mut obs, None, &mut bufs)
                .expect("script is legal");
            for effect in bufs.effects.drain(..) {
                match effect {
                    Effect::Send { channel, msg } => {
                        wire.push_back((1 - to, Input::Msg { channel, msg }));
                    }
                    Effect::Hangup { channel } => {
                        wire.push_back((1 - to, Input::ChannelDown { channel }));
                    }
                    other => panic!("unexpected effect {other:?}"),
                }
            }
        }
    };

    let ch = ChannelId(0);
    for to in [0, 1] {
        wire.push_back((to, Input::Inject(BoxInput::Start)));
    }
    for to in [0, 1] {
        hosts[to].register_channel(ch, 1, to == 0);
        let up = Input::ChannelUp {
            channel: ch,
            req: None,
        };
        wire.push_back((to, up));
    }
    run(&mut hosts, &mut wire);
    for step in script() {
        wire.push_back(match step {
            Step::User(bx, cmd) => {
                let slot = SlotId(0);
                (bx, Input::User { slot, cmd })
            }
            Step::CloseChannel(bx) => {
                let close = move |_: &mut _| vec![BoxCmd::CloseChannel(ch)];
                (bx, Input::Apply(Box::new(close)))
            }
        });
        run(&mut hosts, &mut wire);
    }
    let events = log.lock().unwrap().clone();
    per_box(events)
}

#[test]
fn network_and_wired_hosts_observe_the_same_events_per_box() {
    let [net_a, net_b] = through_network();
    let [wired_a, wired_b] = through_wired_hosts();
    assert!(net_a.len() > 20 && net_b.len() > 20, "the script did run");
    assert!(net_a.contains(&ObsEvent::Stimulus {
        bx: 0,
        kind: "channel_down"
    }));
    assert_eq!(net_a, wired_a);
    assert_eq!(net_b, wired_b);
}
