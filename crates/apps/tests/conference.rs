//! Experiment E3: the audio conference of Fig. 7, with the partial-muting
//! variants of §IV-B (business, emergency, whisper-coaching) and full
//! muting by goal re-annotation.

use ipmedia_apps::conference::{BridgeLogic, ConferenceLogic};
use ipmedia_apps::MediaNet;
use ipmedia_core::endpoint::EndpointLogic;
use ipmedia_core::goal::{AcceptMode, EndpointPolicy, UserCmd};
use ipmedia_core::ids::{BoxId, ChannelId, SlotId};
use ipmedia_core::signal::{AppEvent, MetaSignal};
use ipmedia_core::{BoxInput, MediaAddr, Medium};
use ipmedia_media::{MixMatrix, SourceKind};
use ipmedia_netsim::{Network, SimConfig, SimTime};

const T_MAX: SimTime = SimTime(600_000_000);

fn addr(h: u8) -> MediaAddr {
    MediaAddr::v4(10, 0, 0, h, 4000)
}

fn bridge_port(i: usize) -> MediaAddr {
    MediaAddr::v4(10, 0, 0, 20, 5000 + i as u16)
}

struct Conf {
    mn: MediaNet,
    conf: BoxId,
    matrix: ipmedia_apps::conference::SharedMatrix,
}

/// Build a 3-party conference with the given per-party sources, fully
/// joined and flowing, bridge registered in the media plane.
fn build(sources: [SourceKind; 3]) -> Conf {
    let mut net = Network::new(SimConfig::paper());
    let parties: Vec<BoxId> = (0..3)
        .map(|i| {
            net.add_box(
                format!("party{i}"),
                Box::new(EndpointLogic::new(
                    EndpointPolicy::audio(addr(1 + i as u8)),
                    AcceptMode::Auto,
                )),
            )
        })
        .collect();
    let (bridge_logic, matrix, port_map) = BridgeLogic::new(bridge_port(0));
    let bridge = net.add_box("bridge", Box::new(bridge_logic));
    let conf = net.add_box("conf-server", Box::new(ConferenceLogic::new("bridge")));
    net.run_until_quiescent(T_MAX);

    // Each party joins: a channel to the server, then an open.
    let mut party_slots = Vec::new();
    for &p in &parties {
        let (_, slots, _) = net.connect(p, conf, 1);
        party_slots.push(slots[0]);
    }
    net.run_until_quiescent(T_MAX);
    for (i, &p) in parties.iter().enumerate() {
        net.user(p, party_slots[i], UserCmd::Open(Medium::Audio));
    }
    net.run_until_quiescent(T_MAX);

    let mut mn = MediaNet::new(net);
    for (i, &p) in parties.iter().enumerate() {
        mn.endpoint(p, addr(1 + i as u8), sources[i].clone());
    }
    // Register the bridge: matrix order = port allocation order.
    let ports = port_map.lock().unwrap().clone();
    assert_eq!(ports.len(), 3, "three bridge ports leased");
    let addrs: Vec<MediaAddr> = ports.iter().map(|(_, a)| *a).collect();
    mn.plane.add_bridge(addrs, MixMatrix::full(3));
    for (i, (slot, a)) in ports.iter().enumerate() {
        mn.port(
            bridge,
            *slot,
            *a,
            SourceKind::MixPort { bridge: 0, port: i },
        );
    }
    Conf { mn, conf, matrix }
}

/// Push a mixing matrix through the server to the bridge, then mirror the
/// bridge's accepted matrix into the media plane (the harness plays the
/// role of the bridge's DSP configuration).
fn apply_matrix(c: &mut Conf, m: &MixMatrix) {
    c.mn.net.inject_input(
        c.conf,
        BoxInput::Meta {
            channel: ChannelId(u32::MAX),
            meta: MetaSignal::App(AppEvent::MixMatrix(m.to_rows())),
        },
    );
    c.mn.net.run_until_quiescent(T_MAX);
    let rows = c.matrix.lock().unwrap().clone();
    assert!(!rows.is_empty(), "bridge received the matrix meta-signal");
    c.mn.plane.set_matrix(0, MixMatrix::from_rows(3, &rows));
}

#[test]
fn everyone_hears_everyone_else() {
    let mut c = build([
        SourceKind::SpeechLike(1),
        SourceKind::SpeechLike(2),
        SourceKind::Silence,
    ]);
    c.mn.settle_and_pump(T_MAX, 10);
    // Twelve flows: each party ↔ its port.
    assert_eq!(c.mn.plane.flows().active_pairs().len(), 6);
    // The silent party 2 hears the mix of 0 and 1.
    assert!(c.mn.plane.last_rx(addr(3)).unwrap().frame.rms() > 0.0);
    // Party 0 hears party 1 (its own voice excluded — verified by muting
    // everyone else below).
    assert!(c.mn.plane.last_rx(addr(1)).unwrap().frame.rms() > 0.0);
}

#[test]
fn own_voice_is_never_mixed_back() {
    // Only party 0 speaks: it must hear silence (its own voice excluded),
    // while the others hear it.
    let mut c = build([
        SourceKind::SpeechLike(1),
        SourceKind::Silence,
        SourceKind::Silence,
    ]);
    c.mn.settle_and_pump(T_MAX, 10);
    assert_eq!(c.mn.plane.last_rx(addr(1)).unwrap().frame.rms(), 0.0);
    assert!(c.mn.plane.last_rx(addr(2)).unwrap().frame.rms() > 0.0);
    assert!(c.mn.plane.last_rx(addr(3)).unwrap().frame.rms() > 0.0);
}

#[test]
fn business_mute_drops_input_keeps_output() {
    // §IV-B: "mute the audio input from nonspeaking participants, so that
    // they can hear the meeting, but background noise at their locations
    // does not degrade overall audio quality".
    let mut c = build([
        SourceKind::Silence,
        SourceKind::SpeechLike(2), // noisy non-speaker, to be muted
        SourceKind::SpeechLike(3), // the presenter
    ]);
    apply_matrix(&mut c, &MixMatrix::business(3, &[1]));
    c.mn.settle_and_pump(T_MAX, 10);
    // Party 1's noise reaches nobody...
    let heard_by_0 = c.mn.plane.last_rx(addr(1)).unwrap().frame.clone();
    // ...but the presenter does reach party 0.
    assert!(heard_by_0.rms() > 0.0, "party 0 hears the presenter");
    // And the muted party still hears the meeting.
    assert!(c.mn.plane.last_rx(addr(2)).unwrap().frame.rms() > 0.0);
    // Cross-check: mute the presenter too; now party 0 hears silence,
    // which proves party 1's input really was dropped.
    apply_matrix(&mut c, &MixMatrix::business(3, &[1, 2]));
    c.mn.settle_and_pump(T_MAX, 10);
    assert_eq!(c.mn.plane.last_rx(addr(1)).unwrap().frame.rms(), 0.0);
}

#[test]
fn emergency_mute_isolates_the_caller_outbound_only() {
    // §IV-B / NENA: retain the caller's audio while muting the conference
    // output to the caller.
    let mut c = build([
        SourceKind::SpeechLike(1), // call-taker
        SourceKind::SpeechLike(2), // the 911 caller
        SourceKind::SpeechLike(3), // responder
    ]);
    apply_matrix(&mut c, &MixMatrix::emergency(3, 1));
    c.mn.settle_and_pump(T_MAX, 10);
    assert_eq!(
        c.mn.plane.last_rx(addr(2)).unwrap().frame.rms(),
        0.0,
        "the caller cannot hear the emergency personnel"
    );
    assert!(
        c.mn.plane.last_rx(addr(1)).unwrap().frame.rms() > 0.0,
        "the call-taker still hears the caller and responder"
    );
}

#[test]
fn whisper_coaching_hides_supervisor_from_customer() {
    // §IV-B training scenario: only the supervisor speaks; the agent hears
    // the whisper, the customer hears nothing.
    let mut c = build([
        SourceKind::Silence,       // agent
        SourceKind::Silence,       // customer
        SourceKind::SpeechLike(3), // supervisor
    ]);
    apply_matrix(&mut c, &MixMatrix::whisper_coach(0, 1, 2));
    c.mn.settle_and_pump(T_MAX, 10);
    assert!(
        c.mn.plane.last_rx(addr(1)).unwrap().frame.rms() > 0.0,
        "agent hears the whispered supervisor"
    );
    assert_eq!(
        c.mn.plane.last_rx(addr(2)).unwrap().frame.rms(),
        0.0,
        "customer must not hear the supervisor"
    );
}

#[test]
fn full_mute_by_goal_reannotation() {
    // Full muting uses the primitives alone: the server temporarily
    // replaces the flowlink by two holdslots (§IV-B).
    let mut c = build([
        SourceKind::SpeechLike(1),
        SourceKind::SpeechLike(2),
        SourceKind::SpeechLike(3),
    ]);
    c.mn.settle_and_pump(T_MAX, 10);
    assert!(c.mn.plane.flows().count(addr(1), bridge_port(0)) > 0);

    c.mn.net.inject_input(
        c.conf,
        BoxInput::Meta {
            channel: ChannelId(u32::MAX),
            meta: MetaSignal::App(AppEvent::Custom("fullmute:0".into())),
        },
    );
    c.mn.settle_and_pump(T_MAX, 10);
    assert_eq!(
        c.mn.plane.flows().count(addr(1), bridge_port(0)),
        0,
        "fully muted party sends nothing"
    );
    assert_eq!(
        c.mn.plane.flows().count(bridge_port(0), addr(1)),
        0,
        "fully muted party receives nothing"
    );
    // Others still confer.
    assert!(c.mn.plane.flows().count(addr(2), bridge_port(1)) > 0);

    // Unmute: the flowlink returns and media resumes.
    c.mn.net.inject_input(
        c.conf,
        BoxInput::Meta {
            channel: ChannelId(u32::MAX),
            meta: MetaSignal::App(AppEvent::Custom("unmute:0".into())),
        },
    );
    c.mn.settle_and_pump(T_MAX, 10);
    assert!(
        c.mn.plane.flows().count(addr(1), bridge_port(0)) > 0,
        "party 0 rejoined after unmute"
    );

    let _ = SlotId(0);
}

fn command(c: &mut Conf, cmd: &str) {
    c.mn.net.inject_input(
        c.conf,
        BoxInput::Meta {
            channel: ChannelId(u32::MAX),
            meta: MetaSignal::App(AppEvent::Custom(cmd.into())),
        },
    );
}

#[test]
fn bad_or_stale_mute_commands_are_ignored() {
    // Mute commands are outside input (they can arrive on the wire): a
    // malformed or out-of-range index changes nothing, and muting a party
    // that has hung up touches none of its removed slots.
    let mut c = build([
        SourceKind::SpeechLike(1),
        SourceKind::SpeechLike(2),
        SourceKind::SpeechLike(3),
    ]);
    for cmd in [
        "fullmute:",
        "fullmute:x",
        "unmute:-1",
        "fullmute:3",
        "unmute:99",
    ] {
        command(&mut c, cmd);
    }
    c.mn.settle_and_pump(T_MAX, 10);
    for i in 0..3 {
        assert!(
            c.mn.plane.flows().count(addr(1 + i as u8), bridge_port(i)) > 0,
            "party {i} still confers"
        );
    }

    // Party 0 hangs up: the server loses its device slot with the channel.
    let party0 = BoxId(0);
    let channel = c.mn.net.channels_between(party0, c.conf)[0];
    c.mn.net.apply(party0, move |_| {
        vec![ipmedia_core::BoxCmd::CloseChannel(channel)]
    });
    c.mn.net.run_until_quiescent(T_MAX);
    command(&mut c, "fullmute:0");
    command(&mut c, "unmute:0");
    c.mn.settle_and_pump(T_MAX, 10);
    assert!(c.mn.plane.flows().count(addr(2), bridge_port(1)) > 0);
}
