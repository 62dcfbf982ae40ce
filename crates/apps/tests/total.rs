//! Every app is total over its inputs: a bare `NodeHost` around each of
//! the apps' logics and the core endpoints, fed arbitrary but well-formed
//! inputs, never panics, and every slot its media layer holds keeps a
//! route in the host. The inputs are channels of 1–3 tunnels brought up
//! with and without a request tag (the box's own dials answered or not),
//! any signal on any tunnel in any slot state, messages on unknown
//! channels, `ChannelDown` at any point, any meta-signal, user commands on
//! any slot, and every timer the box armed, fired.

use ipmedia_apps::collab_tv::{CollabPrimaryLogic, CollabSecondaryLogic, MovieServerLogic};
use ipmedia_apps::{
    BridgeLogic, ClickToDialLogic, ConferenceLogic, PbxLogic, PrepaidLogic, VoicemailLogic,
};
use ipmedia_core::endpoint::{CallerLogic, EndpointLogic, RelayLogic};
use ipmedia_core::host::{Arrival, Buffers, Effect, Input, NodeHost};
use ipmedia_core::program::{AppLogic, BoxInput, TimerId};
use ipmedia_core::signal::{AppEvent, ChannelMsg, MetaSignal, MixRow, MovieCommand, Signal};
use ipmedia_core::{
    Availability, BoxId, ChannelId, Codec, DescTag, Descriptor, EndpointPolicy, MediaAddr, Medium,
    Selector, SlotId, TunnelId, UserCmd,
};
use ipmedia_obs::NoopObserver;
use proptest::prelude::*;
use proptest::test_runner::Config;
use proptest::TestRng;

/// Every logic under test, fresh.
fn logics() -> Vec<(&'static str, Box<dyn AppLogic>)> {
    let base = MediaAddr::v4(10, 0, 0, 9, 5000);
    let policy = EndpointPolicy::audio(MediaAddr::v4(10, 0, 0, 1, 4000));
    vec![
        ("prepaid", Box::new(PrepaidLogic::new("callee", "v", 5_000))),
        ("movie_server", Box::new(MovieServerLogic::new(base).0)),
        (
            "collab_primary",
            Box::new(CollabPrimaryLogic::new("server")),
        ),
        (
            "collab_secondary",
            Box::new(CollabSecondaryLogic::new("server")),
        ),
        (
            "voicemail",
            Box::new(VoicemailLogic::new("dev", "rec", 5_000)),
        ),
        (
            "click_to_dial",
            Box::new(ClickToDialLogic::new("u1", "u2", "tone", 5_000)),
        ),
        ("conference", Box::new(ConferenceLogic::new("bridge"))),
        ("bridge", Box::new(BridgeLogic::new(base).0)),
        ("pbx", Box::new(PbxLogic::new("phone"))),
        (
            "endpoint",
            Box::new(EndpointLogic::resource(policy.clone())),
        ),
        ("caller", Box::new(CallerLogic::new(policy, "callee", 2, 2))),
        ("relay", Box::new(RelayLogic::new("callee"))),
    ]
}

/// One input, as drawn. A `channel` index past the live channels names a
/// channel the box never had.
#[derive(Debug, Clone)]
enum Op {
    /// A fresh channel of `tunnels` tunnels, registered and brought up.
    Up {
        tunnels: u16,
        req: Option<u32>,
    },
    /// The oldest dial the box made is answered, or found nobody, or did
    /// not fit the box (`MAX_SLOTS`): then it is registered with no slots,
    /// as `NodeHost::register_dialed` registers it.
    Answer {
        answered: bool,
        room: bool,
    },
    Signal {
        channel: usize,
        tunnel: u16,
        signal: Signal,
    },
    Meta {
        channel: usize,
        meta: MetaSignal,
    },
    Down {
        channel: usize,
    },
    User {
        slot: u16,
        cmd: UserCmd,
    },
    /// The `n`th timer the box armed, modulo how many it did.
    Fire {
        n: usize,
    },
}

fn pick<T: Clone>(rng: &mut TestRng, of: &[T]) -> T {
    of[rng.below(of.len())].clone()
}

fn tag(rng: &mut TestRng) -> DescTag {
    DescTag {
        origin: rng.below(4) as u64,
        generation: rng.below(4) as u32,
    }
}

fn addr(rng: &mut TestRng) -> MediaAddr {
    MediaAddr::v4(10, 0, 0, rng.below(8) as u8, 4000)
}

fn descriptor(rng: &mut TestRng) -> Descriptor {
    if rng.below(4) == 0 {
        return Descriptor::no_media(tag(rng));
    }
    let codecs = [Codec::G711, Codec::G726, Codec::G729, Codec::H261];
    let n = 1 + rng.below(3);
    let list: Vec<Codec> = (0..n).map(|_| pick(rng, &codecs)).collect();
    Descriptor::media(tag(rng), addr(rng), list)
}

fn signal(rng: &mut TestRng) -> Signal {
    let media = [Medium::Audio, Medium::Video, Medium::VideoHd, Medium::Text];
    match rng.below(6) {
        0 => Signal::Open {
            medium: pick(rng, &media),
            desc: descriptor(rng),
        },
        1 => Signal::Oack {
            desc: descriptor(rng),
        },
        2 => Signal::Close,
        3 => Signal::CloseAck,
        4 => Signal::Describe {
            desc: descriptor(rng),
        },
        _ => Signal::Select {
            sel: if rng.below(2) == 0 {
                Selector::not_sending(tag(rng))
            } else {
                Selector::sending(tag(rng), addr(rng), Codec::G711)
            },
        },
    }
}

fn text(rng: &mut TestRng) -> String {
    let words = [
        "",
        "pay",
        "hold",
        "resume",
        "switch",
        "2",
        "x".repeat(40).leak(),
    ];
    (0..rng.below(3)).map(|_| pick(rng, &words)).collect()
}

fn meta(rng: &mut TestRng) -> MetaSignal {
    let av = [Availability::Available, Availability::Unavailable];
    match rng.below(5) {
        0 => MetaSignal::ChannelUp,
        1 => MetaSignal::Peer(pick(rng, &av)),
        2 => MetaSignal::Teardown,
        _ => MetaSignal::App(match rng.below(4) {
            0 => AppEvent::FundsVerified,
            1 => AppEvent::MixMatrix(
                (0..rng.below(4))
                    .map(|_| MixRow {
                        output: rng.below(6) as u16,
                        hears: (0..rng.below(4))
                            .map(|_| (rng.below(6) as u16, rng.below(101) as u8))
                            .collect(),
                    })
                    .collect(),
            ),
            2 => AppEvent::MovieControl(match rng.below(3) {
                0 => MovieCommand::Play,
                1 => MovieCommand::Pause,
                _ => MovieCommand::Seek(rng.below(10_000) as u32),
            }),
            _ => AppEvent::Custom(text(rng)),
        }),
    }
}

fn op(rng: &mut TestRng) -> Op {
    let cmds = [
        UserCmd::Open(Medium::Audio),
        UserCmd::Open(Medium::Video),
        UserCmd::Accept,
        UserCmd::Reject,
        UserCmd::Close,
        UserCmd::Modify {
            mute_in: true,
            mute_out: false,
        },
        UserCmd::Modify {
            mute_in: false,
            mute_out: true,
        },
    ];
    match rng.below(9) {
        0 | 1 => Op::Up {
            tunnels: 1 + rng.below(3) as u16,
            req: (rng.below(2) == 0).then(|| rng.below(4) as u32),
        },
        2 => Op::Answer {
            answered: rng.below(3) > 0,
            room: rng.below(4) > 0,
        },
        3 | 4 => Op::Signal {
            channel: rng.below(6),
            tunnel: rng.below(4) as u16,
            signal: signal(rng),
        },
        5 => Op::Meta {
            channel: rng.below(6),
            meta: meta(rng),
        },
        6 => Op::Down {
            channel: rng.below(6),
        },
        7 => Op::User {
            slot: rng.below(12) as u16,
            cmd: pick(rng, &cmds),
        },
        _ => Op::Fire { n: rng.below(8) },
    }
}

/// Up to 80 inputs.
struct Ops;

impl Strategy for Ops {
    type Value = Vec<Op>;

    fn generate(&self, rng: &mut TestRng) -> Vec<Op> {
        (0..1 + rng.below(80)).map(|_| op(rng)).collect()
    }
}

/// A bare host and what a substrate would remember of its effects.
struct Harness {
    host: NodeHost,
    bufs: Buffers,
    live: Vec<ChannelId>,
    next: u32,
    /// The dials the box made and nobody answered yet: tunnels, tag.
    dials: Vec<(u16, u32)>,
    armed: Vec<(TimerId, u64)>,
}

impl Harness {
    fn new(logic: Box<dyn AppLogic>) -> Self {
        let mut h = Harness {
            host: NodeHost::new(BoxId(1), logic),
            bufs: Buffers::default(),
            live: Vec::new(),
            next: 0,
            dials: Vec::new(),
            armed: Vec::new(),
        };
        h.feed(Input::Inject(BoxInput::Start));
        h
    }

    /// One host call, its effects remembered, then the routing invariant.
    fn feed(&mut self, input: Input) {
        let at = Arrival::default();
        // A rejected user command is an answer, not a fault.
        let _ = self
            .host
            .handle(input, &at, &mut NoopObserver, None, &mut self.bufs);
        for effect in self.bufs.effects.drain(..) {
            match effect {
                Effect::Dial { tunnels, req, .. } => self.dials.push((tunnels, req)),
                Effect::Hangup { channel } => self.live.retain(|c| *c != channel),
                Effect::ArmTimer { id, gen, .. } => self.armed.push((id, gen)),
                Effect::Send { .. } | Effect::Terminated => {}
            }
        }
        for (slot, _) in self.host.media().slots() {
            assert!(self.host.route(slot).is_some(), "{slot} has no route");
        }
    }

    fn channel(&self, i: usize) -> ChannelId {
        self.live.get(i).copied().unwrap_or(ChannelId(999))
    }

    fn fresh(&mut self) -> ChannelId {
        self.next += 1;
        ChannelId(self.next - 1)
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Up { tunnels, req } => {
                let channel = self.fresh();
                if self
                    .host
                    .register_channel(channel, tunnels, req.is_some())
                    .is_some()
                {
                    self.live.push(channel);
                    self.feed(Input::ChannelUp { channel, req });
                }
            }
            Op::Answer { answered, room } => {
                if self.dials.is_empty() {
                    return;
                }
                let (tunnels, req) = self.dials.remove(0);
                let channel = self.fresh();
                let tunnels = if room { tunnels } else { 0 };
                let up = self.host.register_dialed(channel, tunnels) && answered && room;
                self.live.push(channel);
                for input in Input::dial_outcome(channel, req, up) {
                    self.feed(input);
                }
            }
            Op::Signal {
                channel,
                tunnel,
                signal,
            } => {
                let msg = ChannelMsg::Tunnel {
                    tunnel: TunnelId(tunnel),
                    signal,
                };
                let channel = self.channel(channel);
                self.feed(Input::Msg { channel, msg });
            }
            Op::Meta { channel, meta } => {
                let channel = self.channel(channel);
                let msg = ChannelMsg::Meta(meta);
                self.feed(Input::Msg { channel, msg });
            }
            Op::Down { channel } => {
                let channel = self.channel(channel);
                self.live.retain(|c| *c != channel);
                self.feed(Input::ChannelDown { channel });
            }
            Op::User { slot, cmd } => self.feed(Input::User {
                slot: SlotId(slot),
                cmd,
            }),
            Op::Fire { n } => {
                if !self.armed.is_empty() {
                    let (id, gen) = self.armed[n % self.armed.len()];
                    self.feed(Input::TimerFired { id, gen });
                }
            }
        }
    }
}

/// Drive one logic through `ops`.
fn run(logic: Box<dyn AppLogic>, ops: &[Op]) {
    let mut h = Harness::new(logic);
    for op in ops {
        h.apply(op.clone());
    }
}

/// Drive every logic through `ops`, naming the one that panics.
fn drive(ops: &[Op]) {
    for (name, logic) in logics() {
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(logic, ops)));
        assert!(ran.is_ok(), "{name} panicked on {ops:#?}");
    }
}

proptest! {
    #![proptest_config(Config::with_cases(160))]

    #[test]
    fn every_app_is_total_over_its_inputs(ops in Ops) {
        drive(&ops);
    }
}

/// What the property found: a dial of the box's own that did not fit it
/// (`MAX_SLOTS`) comes back with no slot, and each of these logics took
/// the first slot of every channel it dialed. Each case panicked before.
const NO_ROOM: Op = Op::Answer {
    answered: true,
    room: false,
};

/// An incoming channel whose one tunnel carries an open.
fn a_caller_opens() -> [Op; 2] {
    let open = Signal::Open {
        medium: Medium::Audio,
        desc: Descriptor::media(
            DescTag {
                origin: 7,
                generation: 0,
            },
            MediaAddr::v4(10, 0, 0, 2, 4000),
            vec![Codec::G711],
        ),
    };
    [
        Op::Up {
            tunnels: 1,
            req: None,
        },
        Op::Signal {
            channel: 0,
            tunnel: 0,
            signal: open,
        },
    ]
}

#[test]
fn prepaid_survives_a_resource_dial_that_did_not_fit() {
    run(
        Box::new(PrepaidLogic::new("callee", "v", 5_000)),
        &[NO_ROOM],
    );
}

#[test]
fn click_to_dial_survives_a_first_dial_that_did_not_fit() {
    let logic = ClickToDialLogic::new("u1", "u2", "tone", 5_000);
    run(Box::new(logic), &[NO_ROOM]);
}

#[test]
fn pbx_survives_a_phone_dial_that_did_not_fit() {
    run(Box::new(PbxLogic::new("phone")), &[NO_ROOM]);
}

#[test]
fn voicemail_survives_a_device_dial_that_did_not_fit() {
    let [up, open] = a_caller_opens();
    let logic = VoicemailLogic::new("dev", "rec", 5_000);
    run(Box::new(logic), &[up, open, NO_ROOM]);
}

#[test]
fn conference_survives_a_bridge_dial_that_did_not_fit() {
    let join = Op::Up {
        tunnels: 1,
        req: None,
    };
    run(Box::new(ConferenceLogic::new("bridge")), &[join, NO_ROOM]);
}
