//! Experiment E1: the PBX / prepaid-card scenario of Figs. 2–3.
//!
//! Figure 2 shows what goes wrong *without* compositional media control
//! (signals forwarded blindly: V loses C's audio, A gets switched without
//! permission, B transmits into the void). Figure 3 shows the correct
//! behaviour with the goal primitives and "proximity confers priority".
//! This test drives the exact four snapshots and asserts the *correct*
//! media-flow matrix of Fig. 3 at every step — including the two places
//! where Fig. 2's erroneous control would have produced a different
//! matrix.

use ipmedia_apps::{MediaNet, PbxLogic, PrepaidLogic};
use ipmedia_core::endpoint::EndpointLogic;
use ipmedia_core::goal::{AcceptMode, EndpointPolicy, UserCmd};
use ipmedia_core::ids::{ChannelId, SlotId};
use ipmedia_core::signal::{AppEvent, MetaSignal};
use ipmedia_core::{BoxInput, MediaAddr, Medium};
use ipmedia_media::SourceKind;
use ipmedia_netsim::{Network, SimConfig, SimTime};

const T_MAX: SimTime = SimTime(600_000_000);

fn addr(h: u8) -> MediaAddr {
    MediaAddr::v4(10, 0, 0, h, 4000)
}

fn phone(h: u8) -> Box<EndpointLogic> {
    Box::new(EndpointLogic::new(
        EndpointPolicy::audio(addr(h)),
        AcceptMode::Auto,
    ))
}

struct Scenario {
    mn: MediaNet,
    a: ipmedia_core::BoxId,
    c: ipmedia_core::BoxId,
    pbx: ipmedia_core::BoxId,
    pc: ipmedia_core::BoxId,
}

/// Build the deployment and drive it to Snapshot 1 (A talking to C via the
/// prepaid call, B on hold).
fn to_snapshot1() -> Scenario {
    let mut net = Network::new(SimConfig::paper());
    let a = net.add_box("phone-a", phone(1));
    let b = net.add_box("phone-b", phone(2));
    let c = net.add_box("phone-c", phone(3));
    let v = net.add_box("ivr", phone(4));
    let pbx = net.add_box("pbx", Box::new(PbxLogic::new("phone-a")));
    let pc = net.add_box(
        "pc-server",
        Box::new(PrepaidLogic::new("pbx", "ivr", 3_600_000)),
    );
    net.run_until_quiescent(T_MAX);

    let mut mn = MediaNet::new(net);
    mn.endpoint(a, addr(1), SourceKind::SpeechLike(1));
    mn.endpoint(b, addr(2), SourceKind::SpeechLike(2));
    mn.endpoint(c, addr(3), SourceKind::SpeechLike(3));
    mn.endpoint(v, addr(4), SourceKind::SpeechLike(4));

    // A picks up and calls B through the PBX.
    mn.net.user(a, SlotId(0), UserCmd::Open(Medium::Audio));
    mn.net.run_until_quiescent(T_MAX);
    mn.net.inject_input(
        pbx,
        BoxInput::Meta {
            channel: ChannelId(u32::MAX),
            meta: MetaSignal::App(AppEvent::Custom("call:phone-b".into())),
        },
    );
    mn.settle_and_pump(T_MAX, 10);
    mn.plane
        .flows()
        .assert_exactly(&[(addr(1), addr(2)), (addr(2), addr(1))])
        .expect("before the prepaid call: A ↔ B");

    // C uses the prepaid card to call A: C's channel to PC, PC places the
    // onward leg to the PBX (a held call appearance).
    let (_, c_slots, _) = mn.net.connect(c, pc, 1);
    mn.net.run_until_quiescent(T_MAX);
    mn.net.user(c, c_slots[0], UserCmd::Open(Medium::Audio));
    mn.settle_and_pump(T_MAX, 10);
    // Call waiting: A still talks to B only.
    mn.plane
        .flows()
        .assert_exactly(&[(addr(1), addr(2)), (addr(2), addr(1))])
        .expect("incoming prepaid call is held: still A ↔ B");

    // A switches to the incoming call: Snapshot 1.
    mn.net.inject_input(
        pbx,
        BoxInput::Meta {
            channel: ChannelId(u32::MAX),
            meta: MetaSignal::App(AppEvent::Custom("switch:1".into())),
        },
    );
    mn.settle_and_pump(T_MAX, 10);
    mn.plane
        .flows()
        .assert_exactly(&[(addr(1), addr(3)), (addr(3), addr(1))])
        .expect("Snapshot 1: A ↔ C, B on hold");

    Scenario { mn, a, c, pbx, pc }
}

fn expire(s: &mut Scenario) {
    s.mn.net.inject_input(
        s.pc,
        BoxInput::Meta {
            channel: ChannelId(u32::MAX),
            meta: MetaSignal::App(AppEvent::Custom("expire".into())),
        },
    );
}

fn pay(s: &mut Scenario) {
    s.mn.net.inject_input(
        s.pc,
        BoxInput::Meta {
            channel: ChannelId(u32::MAX),
            meta: MetaSignal::App(AppEvent::FundsVerified),
        },
    );
}

fn switch(s: &mut Scenario, idx: usize) {
    s.mn.net.inject_input(
        s.pbx,
        BoxInput::Meta {
            channel: ChannelId(u32::MAX),
            meta: MetaSignal::App(AppEvent::Custom(format!("switch:{idx}"))),
        },
    );
}

#[test]
fn snapshot2_funds_exhausted_connects_c_to_v() {
    let mut s = to_snapshot1();
    expire(&mut s);
    s.mn.settle_and_pump(T_MAX, 10);
    // Snapshot 2: C ↔ V (the refill dialogue); A silent; B still held.
    s.mn.plane
        .flows()
        .assert_exactly(&[(addr(3), addr(4)), (addr(4), addr(3))])
        .expect("Snapshot 2: C ↔ V only");
}

#[test]
fn snapshot3_pbx_switch_does_not_break_refill_dialogue() {
    // The crux of Fig. 2's third error: when A switches back to B, the
    // PBX's stop-media signal must NOT pass through to C — V keeps C's
    // audio. Proximity confers priority: the PBX controls only A.
    let mut s = to_snapshot1();
    expire(&mut s);
    s.mn.net.run_until_quiescent(T_MAX);
    switch(&mut s, 0);
    s.mn.settle_and_pump(T_MAX, 10);
    s.mn.plane
        .flows()
        .assert_exactly(&[
            (addr(1), addr(2)),
            (addr(2), addr(1)),
            (addr(3), addr(4)),
            (addr(4), addr(3)),
        ])
        .expect("Snapshot 3: A ↔ B and C ↔ V, both two-way");
}

#[test]
fn snapshot4_reconnect_waits_for_pbx_permission() {
    // The crux of Fig. 2's fourth error: when PC reconnects C toward A,
    // the switch must not steal A from B, and B must not be left
    // transmitting into the void. A stays with B until A itself switches.
    let mut s = to_snapshot1();
    expire(&mut s);
    s.mn.net.run_until_quiescent(T_MAX);
    switch(&mut s, 0); // A back to B during the refill dialogue
    s.mn.net.run_until_quiescent(T_MAX);
    pay(&mut s); // PC re-links C toward A — but the PBX holds that leg
    s.mn.settle_and_pump(T_MAX, 10);
    s.mn.plane
        .flows()
        .assert_exactly(&[(addr(1), addr(2)), (addr(2), addr(1))])
        .expect("Snapshot 4: A ↔ B only; C waits; nothing transmits into the void");

    // Now A switches to the prepaid call: the full path A—PBX—PC—C lights
    // up again (back to Snapshot 1's matrix).
    switch(&mut s, 1);
    s.mn.settle_and_pump(T_MAX, 10);
    s.mn.plane
        .flows()
        .assert_exactly(&[(addr(1), addr(3)), (addr(3), addr(1))])
        .expect("after A's own switch: A ↔ C again");
}

#[test]
fn full_cycle_returns_to_talking() {
    // Expire → pay while A stays on the prepaid call: Snapshot 1 → 2 → 1.
    let mut s = to_snapshot1();
    expire(&mut s);
    s.mn.settle_and_pump(T_MAX, 10);
    s.mn.plane
        .flows()
        .assert_exactly(&[(addr(3), addr(4)), (addr(4), addr(3))])
        .expect("Snapshot 2");
    pay(&mut s);
    s.mn.settle_and_pump(T_MAX, 10);
    s.mn.plane
        .flows()
        .assert_exactly(&[(addr(1), addr(3)), (addr(3), addr(1))])
        .expect("back to Snapshot 1: A ↔ C");
    let _ = (s.a, s.c);
}

#[test]
fn no_media_is_ever_lost_to_absent_endpoints() {
    // Fig. 2's erroneous control leaves B "transmitting to an endpoint
    // that will throw away the packets". With compositional control, no
    // packet is ever sent to an address that is not listening.
    let mut s = to_snapshot1();
    expire(&mut s);
    s.mn.net.run_until_quiescent(T_MAX);
    switch(&mut s, 0);
    s.mn.net.run_until_quiescent(T_MAX);
    pay(&mut s);
    s.mn.net.run_until_quiescent(T_MAX);
    switch(&mut s, 1);
    s.mn.settle_and_pump(T_MAX, 20);
    for h in [1, 2, 3, 4] {
        assert_eq!(
            s.mn.plane.flows().lost(addr(h)),
            0,
            "no packets lost at endpoint {h}"
        );
    }
}

#[test]
fn malformed_or_out_of_range_switches_are_ignored() {
    // A `switch:` is outside input (it can arrive on the wire): one the
    // PBX cannot act on leaves the media as it was, and a good one after
    // it still works.
    let mut s = to_snapshot1();
    for cmd in [
        "switch:",
        "switch:one",
        "switch:-1",
        "switch:2",
        "switch:99",
    ] {
        s.mn.net.inject_input(
            s.pbx,
            BoxInput::Meta {
                channel: ChannelId(u32::MAX),
                meta: MetaSignal::App(AppEvent::Custom(cmd.into())),
            },
        );
    }
    s.mn.settle_and_pump(T_MAX, 10);
    s.mn.plane
        .flows()
        .assert_exactly(&[(addr(1), addr(3)), (addr(3), addr(1))])
        .expect("still Snapshot 1: A ↔ C");
    switch(&mut s, 0);
    s.mn.settle_and_pump(T_MAX, 10);
    s.mn.plane
        .flows()
        .assert_exactly(&[(addr(1), addr(2)), (addr(2), addr(1))])
        .expect("a good switch still works: A ↔ B");

    // The phone's own channel goes down: the PBX forgets the phone, and a
    // switch after that has no phone slot to link.
    let phone = s.mn.net.channels_between(s.a, s.pbx)[0];
    s.mn.net.apply(s.a, move |_| {
        vec![ipmedia_core::BoxCmd::CloseChannel(phone)]
    });
    s.mn.net.run_until_quiescent(T_MAX);
    switch(&mut s, 1);
    s.mn.net.run_until_quiescent(T_MAX);
    assert!(s.mn.net.media(s.pbx).slot(SlotId(0)).is_none());
}
