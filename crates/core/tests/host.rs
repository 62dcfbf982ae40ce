//! [`NodeHost`] with no substrate: plain input vectors in, effect lists
//! out. These pin the environment behaviour both `netsim::Network` and
//! `rt::Actor` inherit — channel lifecycle and routing, the dial outcome,
//! timer generations, and the §VI re-ack and resync paths — and check
//! routing against a model of the route table the host used to keep.

use ipmedia_core::hash::splitmix64_next;
use ipmedia_core::host::{Arrival, Buffers, Effect, Input, NodeHost, Outcome};
use ipmedia_core::reliable;
use ipmedia_core::{
    AppLogic, Availability, BoxCmd, BoxId, BoxInput, ChannelId, ChannelMsg, Ctx, EndpointLogic,
    EndpointPolicy, MediaAddr, Medium, MetaSignal, NullLogic, Outgoing, Signal, SlotId, SlotRange,
    TimerId, TunnelId, UserCmd,
};
use ipmedia_obs::{ManualClock, NoopObserver, ObsEvent, Observer, RecordingObserver};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

fn phone(id: u32) -> NodeHost {
    let policy = EndpointPolicy::audio(MediaAddr::v4(10, 0, 0, id as u8, 4000));
    NodeHost::new(BoxId(id), Box::new(EndpointLogic::resource(policy)))
}

/// One input in, the effects and the outcome out.
fn feed_obs(host: &mut NodeHost, input: Input, obs: &mut dyn Observer) -> (Vec<Effect>, Outcome) {
    let mut out = Buffers::default();
    let outcome = host
        .handle(input, &Arrival::default(), obs, None, &mut out)
        .expect("no rejected user command");
    (out.effects, outcome)
}

fn feed(host: &mut NodeHost, input: Input) -> Vec<Effect> {
    feed_obs(host, input, &mut NoopObserver).0
}

/// Register `channel` at both ends (`a` initiates) and tell both boxes.
fn connect(a: &mut NodeHost, b: &mut NodeHost, channel: ChannelId, tunnels: u16) {
    for (host, initiator) in [(a, true), (b, false)] {
        host.register_channel(channel, tunnels, initiator);
        let up = Input::ChannelUp { channel, req: None };
        assert_eq!(feed(host, up), []);
    }
}

/// Carry `effects` of `a` to `b` and the replies back until both fall
/// silent. Timer effects are dropped: nothing is lost here, so no
/// retransmission ever needs to fire.
fn shuttle(a: &mut NodeHost, b: &mut NodeHost, effects: Vec<Effect>) {
    let mut queue: Vec<(bool, Effect)> = effects.into_iter().map(|e| (true, e)).collect();
    while !queue.is_empty() {
        let mut next = Vec::new();
        for (from_a, effect) in queue {
            if let Effect::Send { channel, msg } = effect {
                let to = if from_a { &mut *b } else { &mut *a };
                let replies = feed(to, Input::Msg { channel, msg });
                next.extend(replies.into_iter().map(|e| (!from_a, e)));
            }
        }
        queue = next;
    }
}

fn sends(effects: &[Effect]) -> Vec<&'static str> {
    effects
        .iter()
        .filter_map(|e| match e {
            Effect::Send {
                msg: ChannelMsg::Tunnel { signal, .. },
                ..
            } => Some(signal.kind()),
            _ => None,
        })
        .collect()
}

#[test]
fn channel_up_routes_signals_and_channel_down_removes_them() {
    let mut host = phone(1);
    assert_eq!(feed(&mut host, Input::Inject(BoxInput::Start)), []);

    let ch = ChannelId(7);
    let slots = host.register_channel(ch, 2, true).unwrap().to_vec();
    assert_eq!(slots, [SlotId(0), SlotId(1)]);
    assert_eq!(
        feed(
            &mut host,
            Input::ChannelUp {
                channel: ch,
                req: None
            }
        ),
        []
    );
    assert_eq!(host.route(slots[1]), Some((ch, TunnelId(1))));

    // A signal of the second slot leaves on the channel's second tunnel.
    let cmd = UserCmd::Open(Medium::Audio);
    let out = feed(
        &mut host,
        Input::User {
            slot: slots[1],
            cmd,
        },
    );
    assert!(
        matches!(
            out[..],
            [Effect::Send {
                channel,
                msg: ChannelMsg::Tunnel {
                    tunnel: TunnelId(1),
                    signal: Signal::Open { .. }
                }
            }] if channel == ch
        ),
        "{out:?}"
    );

    // A message for a tunnel the channel does not have is dropped.
    let stray = Input::Msg {
        channel: ch,
        msg: ChannelMsg::Tunnel {
            tunnel: TunnelId(5),
            signal: Signal::Close,
        },
    };
    assert!(!feed_obs(&mut host, stray, &mut NoopObserver).1.activated);

    let (out, outcome) = feed_obs(
        &mut host,
        Input::ChannelDown { channel: ch },
        &mut NoopObserver,
    );
    assert!(outcome.activated && out.is_empty());
    assert_eq!(host.channel_slots(ch), None);
    for slot in slots {
        assert_eq!(host.route(slot), None);
        assert!(host.media().slot(slot).is_none());
    }

    // Whatever was still in flight toward the dead channel goes nowhere,
    // and slot ids are never reused.
    let late = Input::Msg {
        channel: ch,
        msg: ChannelMsg::Tunnel {
            tunnel: TunnelId(1),
            signal: Signal::Close,
        },
    };
    assert!(!feed_obs(&mut host, late, &mut NoopObserver).1.activated);
    assert!(
        !feed_obs(
            &mut host,
            Input::ChannelDown { channel: ch },
            &mut NoopObserver
        )
        .1
        .activated
    );
    assert_eq!(
        host.register_channel(ChannelId(8), 1, false)
            .unwrap()
            .to_vec(),
        [SlotId(2)]
    );
}

#[test]
fn failed_dial_leaves_a_half_open_channel_and_reports_unavailable() {
    /// Dials at start; records what it is told; destroys the channel when
    /// nobody answers (Fig. 6's busy branch).
    struct Caller(Arc<Mutex<Vec<BoxInput>>>);
    impl AppLogic for Caller {
        fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
            match input {
                BoxInput::Start => ctx.open_channel("nobody", 1, 7),
                BoxInput::Meta {
                    channel,
                    meta: MetaSignal::Peer(Availability::Unavailable),
                } => {
                    self.0.lock().unwrap().push(input.clone());
                    ctx.close_channel(*channel);
                    ctx.terminate();
                }
                other => self.0.lock().unwrap().push(other.clone()),
            }
        }
    }

    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut host = NodeHost::new(BoxId(1), Box::new(Caller(seen.clone())));
    assert_eq!(
        feed(&mut host, Input::Inject(BoxInput::Start)),
        [Effect::Dial {
            to: "nobody".into(),
            tunnels: 1,
            req: 7
        }]
    );

    // The substrate found nobody: it registers the channel all the same
    // and reports the outcome as two inputs.
    let ch = ChannelId(0);
    host.register_channel(ch, 1, true);
    let [up, peer] = Input::dial_outcome(ch, 7, false);
    assert_eq!(feed(&mut host, up), []);
    assert_eq!(
        host.channel_slots(ch).map(SlotRange::to_vec),
        Some(vec![SlotId(0)])
    );
    assert_eq!(
        feed(&mut host, peer),
        [Effect::Hangup { channel: ch }, Effect::Terminated]
    );
    assert_eq!(host.channel_slots(ch), None);
    assert!(host.media().slot(SlotId(0)).is_none());
    assert_eq!(
        *seen.lock().unwrap(),
        [
            BoxInput::ChannelUp {
                channel: ch,
                slots: vec![SlotId(0)],
                req: Some(7)
            },
            BoxInput::Meta {
                channel: ch,
                meta: MetaSignal::Peer(Availability::Unavailable)
            },
        ]
    );
}

#[test]
fn stale_timer_generation_is_dropped() {
    /// Arms timer 1 twice (the second supersedes the first) and arms then
    /// cancels timer 2; counts the fires it sees.
    struct Timers(Arc<Mutex<Vec<TimerId>>>);
    impl AppLogic for Timers {
        fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
            match input {
                BoxInput::Start => {
                    ctx.set_timer(TimerId(1), 50);
                    ctx.set_timer(TimerId(1), 300);
                    ctx.set_timer(TimerId(2), 200);
                    ctx.cancel_timer(TimerId(2));
                }
                BoxInput::Timer(id) => self.0.lock().unwrap().push(*id),
                _ => {}
            }
        }
    }

    let fired = Arc::new(Mutex::new(Vec::new()));
    let mut host = NodeHost::new(BoxId(1), Box::new(Timers(fired.clone())));
    let armed = feed(&mut host, Input::Inject(BoxInput::Start));
    let wakeups: Vec<(TimerId, u64, u64)> = armed
        .iter()
        .map(|e| match e {
            Effect::ArmTimer { id, gen, after_ms } => (*id, *gen, *after_ms),
            other => panic!("unexpected effect {other:?}"),
        })
        .collect();
    let after: Vec<u64> = wakeups.iter().map(|w| w.2).collect();
    assert_eq!(after, [50, 300, 200]);
    assert_ne!(wakeups[0].1, wakeups[1].1, "a re-arm is a new generation");

    // A substrate hands every wakeup back; only the live one gets through.
    let activated: Vec<bool> = wakeups
        .iter()
        .map(|&(id, gen, _)| {
            feed_obs(&mut host, Input::TimerFired { id, gen }, &mut NoopObserver)
                .1
                .activated
        })
        .collect();
    assert_eq!(activated, [false, true, false]);
    assert_eq!(*fired.lock().unwrap(), [TimerId(1)]);
}

#[test]
fn duplicate_open_is_reacked_only_with_reliability_on() {
    for reliable in [false, true] {
        let (mut a, mut b) = (phone(1), phone(2));
        if reliable {
            b.enable_reliability();
            assert_eq!(feed(&mut b, Input::Rearm), []);
        }
        let ch = ChannelId(0);
        connect(&mut a, &mut b, ch, 1);
        let cmd = UserCmd::Open(Medium::Audio);
        let opened = feed(
            &mut a,
            Input::User {
                slot: SlotId(0),
                cmd,
            },
        );
        let [Effect::Send { msg: open, .. }] = &opened[..] else {
            panic!("one open expected, got {opened:?}");
        };
        let open = open.clone();
        shuttle(&mut a, &mut b, opened);
        assert!(b.media().slot(SlotId(0)).unwrap().is_flowing());

        // The opener retransmits: its oack or select must have been lost.
        let rec = RecordingObserver::new(Arc::new(ManualClock::new()));
        let log = rec.log();
        let mut obs = rec;
        let dup = Input::Msg {
            channel: ch,
            msg: open,
        };
        let (out, _) = feed_obs(&mut b, dup, &mut obs);
        let reacked = log.lock().unwrap().iter().any(|(_, e)| {
            matches!(
                e,
                ObsEvent::Retransmission {
                    bx: 2,
                    slot: 0,
                    kind: "reack"
                }
            )
        });
        if reliable {
            assert_eq!(sends(&out), ["oack", "select"]);
            assert!(reacked);
        } else {
            assert_eq!(sends(&out), [] as [&str; 0]);
            assert!(!reacked);
        }
    }
}

#[test]
fn resync_reemits_the_cached_signals_of_each_live_slot() {
    let (mut a, mut b) = (phone(1), phone(2));
    let ch = ChannelId(3);
    connect(&mut a, &mut b, ch, 2);
    // Tunnel 1 carries a call; tunnel 0 stays closed.
    let cmd = UserCmd::Open(Medium::Audio);
    let opened = feed(
        &mut a,
        Input::User {
            slot: SlotId(1),
            cmd,
        },
    );
    shuttle(&mut a, &mut b, opened);
    let slot = a.media().slot(SlotId(1)).unwrap();
    assert!(slot.is_flowing());
    let expected: Vec<Effect> = reliable::resend_signals(slot)
        .into_iter()
        .map(|signal| Effect::Send {
            channel: ch,
            msg: ChannelMsg::Tunnel {
                tunnel: TunnelId(1),
                signal,
            },
        })
        .collect();
    assert_eq!(sends(&expected), ["oack", "describe", "select"]);

    let rec = RecordingObserver::new(Arc::new(ManualClock::new()));
    let log = rec.log();
    let mut obs = rec;
    let resync = Input::Resync {
        channel: ch,
        attempts: 2,
        elapsed_ms: 40,
    };
    let (out, outcome) = feed_obs(&mut a, resync, &mut obs);
    assert_eq!(out, expected);
    assert!(!outcome.activated, "a resync is not a stimulus");
    let events: Vec<ObsEvent> = log.lock().unwrap().iter().map(|&(_, e)| e).collect();
    let retransmitted = |kind| ObsEvent::Retransmission {
        bx: 1,
        slot: 1,
        kind,
    };
    let sent = |kind| ObsEvent::SignalSent {
        bx: 1,
        slot: 1,
        kind,
    };
    assert_eq!(
        events,
        [
            retransmitted("oack"),
            retransmitted("describe"),
            retransmitted("select"),
            ObsEvent::Recovered {
                bx: 1,
                slot: 1,
                attempts: 2,
                elapsed_ms: 40
            },
            sent("oack"),
            sent("describe"),
            sent("select"),
        ]
    );
}

#[test]
fn rejected_user_command_is_returned_not_swallowed() {
    let mut host = phone(1);
    let mut out = Buffers::default();
    let cmd = UserCmd::Close;
    let err = host
        .handle(
            Input::User {
                slot: SlotId(9),
                cmd,
            },
            &Arrival::default(),
            &mut NoopObserver,
            None,
            &mut out,
        )
        .expect_err("no such slot");
    assert_eq!(err.slot, SlotId(9));
    assert!(out.effects.is_empty());
}

/// The route table the host kept before its channel table held ranges:
/// every live slot's `(channel, tunnel)`.
type RouteMap = HashMap<SlotId, (ChannelId, TunnelId)>;

/// Everything the host says about routing agrees with `model`: each slot
/// dealt so far (and the next, not yet dealt) routes as the map says,
/// each channel lists the slots the map gives it, a signal of `probe`
/// leaves where the map says or nowhere, and a message for a dead
/// channel is dropped without activating the box.
fn check_routes(
    host: &mut NodeHost,
    model: &RouteMap,
    channels: &[(ChannelId, bool)],
    dealt: u16,
    probe: SlotId,
) {
    for slot in (0..=dealt).map(SlotId) {
        assert_eq!(
            host.route(slot),
            model.get(&slot).copied(),
            "route of {slot}"
        );
    }
    for &(ch, live) in channels {
        let mut slots: Vec<(TunnelId, SlotId)> = model
            .iter()
            .filter(|(_, (c, _))| *c == ch)
            .map(|(slot, (_, t))| (*t, *slot))
            .collect();
        slots.sort_unstable();
        let listed = host.channel_slots(ch).map(SlotRange::to_vec);
        assert_eq!(
            listed,
            live.then(|| slots.into_iter().map(|(_, s)| s).collect()),
            "{ch}"
        );
        if !live {
            for msg in [
                ChannelMsg::Tunnel {
                    tunnel: TunnelId(0),
                    signal: Signal::Close,
                },
                ChannelMsg::Meta(MetaSignal::Peer(Availability::Available)),
            ] {
                let (out, outcome) =
                    feed_obs(host, Input::Msg { channel: ch, msg }, &mut NoopObserver);
                assert!(
                    out.is_empty() && !outcome.activated,
                    "a message for dead {ch}"
                );
            }
        }
    }
    let send = move |_: &mut _| {
        vec![BoxCmd::Signal(Outgoing {
            slot: probe,
            signal: Signal::Close,
        })]
    };
    let expected: Vec<Effect> = model
        .get(&probe)
        .map(|&(channel, tunnel)| Effect::Send {
            channel,
            msg: ChannelMsg::Tunnel {
                tunnel,
                signal: Signal::Close,
            },
        })
        .into_iter()
        .collect();
    assert_eq!(
        feed(host, Input::Apply(Box::new(send))),
        expected,
        "a signal of {probe}"
    );
}

#[test]
fn routes_read_off_the_channel_table_match_the_old_route_map() {
    for seed in 0..6u64 {
        let mut rng = seed;
        let mut next = || splitmix64_next(&mut rng);
        let mut host = NodeHost::new(BoxId(1), Box::new(NullLogic));
        let mut model = RouteMap::new();
        // Every channel registered so far, and whether it is still up.
        let mut channels: Vec<(ChannelId, bool)> = Vec::new();
        let mut dealt = 0u16;
        // Seed 0 is a gateway: 64 channels up before any goes down.
        let gateway = if seed == 0 { 64 } else { 0 };
        for step in 0..160 {
            let r = next();
            let live: Vec<ChannelId> = channels.iter().filter(|c| c.1).map(|c| c.0).collect();
            if step < gateway || live.is_empty() || r % 3 == 0 {
                // Channel ids arrive in no particular order.
                let ch = loop {
                    let ch = ChannelId((next() % 1_000) as u32);
                    if channels.iter().all(|c| c.0 != ch) {
                        break ch;
                    }
                };
                let tunnels = ((r >> 8) % 4) as u16;
                let slots = host.register_channel(ch, tunnels, r & 1 == 0).unwrap();
                // Consecutive, and never an id dealt before.
                assert_eq!(
                    slots.to_vec(),
                    (dealt..dealt + tunnels).map(SlotId).collect::<Vec<_>>()
                );
                for (t, slot) in (0..).zip(slots.iter()) {
                    model.insert(slot, (ch, TunnelId(t)));
                }
                dealt += tunnels;
                channels.push((ch, true));
            } else {
                let ch = live[(r >> 8) as usize % live.len()];
                // The far end hangs up, or the box closes it itself.
                let (input, expected) = if r & 4 == 0 {
                    (Input::ChannelDown { channel: ch }, vec![])
                } else {
                    let close = move |_: &mut _| vec![BoxCmd::CloseChannel(ch)];
                    (
                        Input::Apply(Box::new(close)),
                        vec![Effect::Hangup { channel: ch }],
                    )
                };
                assert_eq!(feed(&mut host, input), expected);
                model.retain(|_, (c, _)| *c != ch);
                channels
                    .iter_mut()
                    .find(|c| c.0 == ch)
                    .expect("registered")
                    .1 = false;
            }
            let probe = SlotId((next() % (u64::from(dealt) + 1)) as u16);
            check_routes(&mut host, &model, &channels, dealt, probe);
        }
        if seed == 0 {
            assert!(channels.len() >= 64 && dealt > 64, "the gateway ran");
        }
    }
}

/// A slot's retransmission timer goes with the slot: a box that takes
/// channel after channel down mid-`open`, reliability on, keeps a timer
/// table the size of its live slots, not of every slot it ever had.
#[test]
fn a_removed_slots_retransmit_timer_is_forgotten() {
    let mut host = phone(1);
    host.enable_reliability();
    feed(&mut host, Input::Rearm);
    let mut after_first = None;
    for c in 0..64 {
        let channel = ChannelId(c);
        let slot = host.register_channel(channel, 1, true).unwrap().to_vec()[0];
        feed(&mut host, Input::ChannelUp { channel, req: None });
        let open = Input::User {
            slot,
            cmd: UserCmd::Open(Medium::Audio),
        };
        let armed = feed(&mut host, open);
        assert!(
            armed.iter().any(|e| matches!(e, Effect::ArmTimer { id, .. }
                if *id == reliable::retransmit_timer(slot))),
            "the open awaits its oack"
        );
        feed(&mut host, Input::ChannelDown { channel });
        let held = host.timers().len();
        let first = *after_first.get_or_insert(held);
        assert!(
            held <= first,
            "channel {c}: {held} timers, {first} after the first"
        );
    }
}
