//! Property-based tests over the protocol core: randomized schedules,
//! policies, and record contents must never break the §V guarantees.
//!
//! Two tiers share one set of checker bodies. The default tier keeps CI
//! wall time low (small case counts, short schedules); the `#[ignore]`d
//! exhaustive tier re-runs the same properties at ~10× the cases with
//! much longer delivery schedules — run it with `cargo test -- --ignored`.

use ipmedia::core::goal::{
    AcceptMode, CloseSlot, EndpointPolicy, FlowLink, HoldSlot, LinkSide, OpenSlot, Policy,
    UserAgent, UserCmd,
};
use ipmedia::core::path::PathEnds;
use ipmedia::core::{Codec, MediaAddr, Medium, Signal, Slot, SlotState};
use proptest::prelude::*;
use std::collections::VecDeque;

/// A non-empty priority list over every real codec, audio, video and text
/// mixed (a video phone lists all it speaks).
fn arb_codecs() -> impl Strategy<Value = Vec<Codec>> {
    let real: Vec<Codec> = Codec::ALL.into_iter().filter(|c| c.is_real()).collect();
    let all = real.len();
    proptest::sample::subsequence(real, 1..=all)
}

fn arb_policy(host: u8) -> impl Strategy<Value = EndpointPolicy> {
    (arb_codecs(), arb_codecs(), any::<bool>(), any::<bool>()).prop_map(
        move |(recv, send, mute_in, mute_out)| EndpointPolicy {
            addr: MediaAddr::v4(10, 0, 0, host, 4000),
            recv_codecs: recv.into(),
            send_codecs: send.into(),
            mute_in,
            mute_out,
        },
    )
}

/// A two-endpoint world with a flowlink box in the middle and FIFO queues,
/// stepped under an arbitrary delivery schedule.
struct World {
    l_agent: UserAgent,
    l_slot: Slot,
    fl: FlowLink,
    fa: Slot,
    fb: Slot,
    r_agent: UserAgent,
    r_slot: Slot,
    // queues[0]: L→FL.a, [1]: FL.a→L, [2]: FL.b→R, [3]: R→FL.b
    queues: [VecDeque<Signal>; 4],
}

impl World {
    fn new(lp: EndpointPolicy, rp: EndpointPolicy) -> World {
        World {
            l_agent: UserAgent::new(lp, AcceptMode::Auto, 1),
            l_slot: Slot::new(true),
            fl: FlowLink::new(50),
            fa: Slot::new(false),
            fb: Slot::new(true),
            r_agent: UserAgent::new(rp, AcceptMode::Auto, 2),
            r_slot: Slot::new(false),
            queues: Default::default(),
        }
    }

    fn pending(&self) -> Vec<usize> {
        (0..4).filter(|&i| !self.queues[i].is_empty()).collect()
    }

    /// Deliver the head of queue `q`.
    fn deliver(&mut self, q: usize) {
        let Some(sig) = self.queues[q].pop_front() else {
            return;
        };
        match q {
            0 => {
                let (ev, auto) = self.fa.on_signal(sig);
                for s in auto {
                    self.queues[1].push_back(s);
                }
                for (side, s) in self
                    .fl
                    .on_event(LinkSide::A, &ev, &mut self.fa, &mut self.fb)
                {
                    let qi = if side == LinkSide::A { 1 } else { 2 };
                    self.queues[qi].push_back(s);
                }
            }
            1 => {
                let (ev, auto) = self.l_slot.on_signal(sig);
                for s in auto {
                    self.queues[0].push_back(s);
                }
                let (sigs, _) = self.l_agent.on_event(&ev, &mut self.l_slot);
                for s in sigs {
                    self.queues[0].push_back(s);
                }
            }
            2 => {
                let (ev, auto) = self.r_slot.on_signal(sig);
                for s in auto {
                    self.queues[3].push_back(s);
                }
                let (sigs, _) = self.r_agent.on_event(&ev, &mut self.r_slot);
                for s in sigs {
                    self.queues[3].push_back(s);
                }
            }
            3 => {
                let (ev, auto) = self.fb.on_signal(sig);
                for s in auto {
                    self.queues[2].push_back(s);
                }
                for (side, s) in self
                    .fl
                    .on_event(LinkSide::B, &ev, &mut self.fa, &mut self.fb)
                {
                    let qi = if side == LinkSide::A { 1 } else { 2 };
                    self.queues[qi].push_back(s);
                }
            }
            _ => unreachable!(),
        }
    }

    /// Drain all queues under a schedule driven by `picks` (each pick
    /// selects among the currently non-empty queues), then drain
    /// round-robin. Returns delivered-signal count.
    fn drain(&mut self, picks: &[u8]) -> usize {
        let mut delivered = 0;
        for &p in picks {
            let pending = self.pending();
            if pending.is_empty() {
                break;
            }
            self.deliver(pending[p as usize % pending.len()]);
            delivered += 1;
        }
        for _ in 0..10_000 {
            let pending = self.pending();
            if pending.is_empty() {
                return delivered;
            }
            self.deliver(pending[0]);
            delivered += 1;
        }
        panic!("world did not quiesce: runaway signaling loop");
    }
}

/// Under any delivery schedule and any endpoint capabilities with a shared
/// codec, an open–accept path through a flowlink converges to bothFlowing
/// with consistent mute semantics (§V).
fn check_flowlinked_convergence(lp: EndpointPolicy, rp: EndpointPolicy, picks: &[u8]) {
    let mut w = World::new(lp.clone(), rp.clone());
    let opens = w
        .l_agent
        .command(UserCmd::Open(Medium::Audio), &mut w.l_slot)
        .unwrap();
    for s in opens {
        w.queues[0].push_back(s);
    }
    w.drain(picks);

    let ends = PathEnds::new(&w.l_slot, &w.r_slot);
    prop_assert!(
        ends.both_flowing(),
        "path must converge: L={:?} R={:?}",
        w.l_slot.state(),
        w.r_slot.state()
    );
    // Mute semantics: each direction enabled iff sender unmuted-out,
    // receiver unmuted-in, and a shared codec exists.
    let shared_lr = lp.send_codecs.iter().any(|c| rp.recv_codecs.contains(c));
    let shared_rl = rp.send_codecs.iter().any(|c| lp.recv_codecs.contains(c));
    prop_assert_eq!(ends.ltr_enabled(), !lp.mute_out && !rp.mute_in && shared_lr);
    prop_assert_eq!(ends.rtl_enabled(), !rp.mute_out && !lp.mute_in && shared_rl);
}

/// A closeslot on one end always drives the pair to bothClosed, no matter
/// the schedule, even against a holdslot that accepted.
fn check_close_hold_convergence(picks: &[u8]) {
    // Direct tunnel, no flowlink: L holds, R closes, after L's open.
    let mut l = Slot::new(true);
    let mut r = Slot::new(false);
    let mut hold = HoldSlot::with_policy(
        Policy::Endpoint(EndpointPolicy::audio(MediaAddr::v4(10, 0, 0, 1, 4000))),
        1,
    );
    let mut close = CloseSlot::new();
    let mut open_goal = OpenSlot::with_policy(
        Medium::Audio,
        Policy::Endpoint(EndpointPolicy::audio(MediaAddr::v4(10, 0, 0, 1, 4000))),
        2,
    );
    // L first tries to open (as a previous goal), then a closeslot takes
    // over at a schedule-dependent moment.
    let mut q_lr: VecDeque<Signal> = open_goal.attach(&mut l).into();
    let mut q_rl: VecDeque<Signal> = VecDeque::new();
    let mut switched = false;
    for &p in picks {
        if !switched && p % 5 == 0 {
            for s in close.attach(&mut l) {
                q_lr.push_back(s);
            }
            switched = true;
            continue;
        }
        if p % 2 == 0 {
            if let Some(s) = q_lr.pop_front() {
                let (ev, auto) = r.on_signal(s);
                for a in auto {
                    q_rl.push_back(a);
                }
                for a in hold.on_event(&ev, &mut r) {
                    q_rl.push_back(a);
                }
            }
        } else if let Some(s) = q_rl.pop_front() {
            let (ev, auto) = l.on_signal(s);
            for a in auto {
                q_lr.push_back(a);
            }
            let out = if switched {
                close.on_event(&ev, &mut l)
            } else {
                open_goal.on_event(&ev, &mut l)
            };
            for a in out {
                q_lr.push_back(a);
            }
        }
    }
    if !switched {
        for s in close.attach(&mut l) {
            q_lr.push_back(s);
        }
    }
    // Drain to quiescence.
    for _ in 0..1000 {
        if q_lr.is_empty() && q_rl.is_empty() {
            break;
        }
        if let Some(s) = q_lr.pop_front() {
            let (ev, auto) = r.on_signal(s);
            for a in auto {
                q_rl.push_back(a);
            }
            for a in hold.on_event(&ev, &mut r) {
                q_rl.push_back(a);
            }
        }
        if let Some(s) = q_rl.pop_front() {
            let (ev, auto) = l.on_signal(s);
            for a in auto {
                q_lr.push_back(a);
            }
            for a in close.on_event(&ev, &mut l) {
                q_lr.push_back(a);
            }
        }
    }
    prop_assert_eq!(l.state(), SlotState::Closed);
    prop_assert_eq!(r.state(), SlotState::Closed);
}

/// The wire codec is lossless for arbitrary signals (cross-checks the rt
/// crate against core from outside both).
fn check_wire_roundtrip(
    origin: u64,
    generation: u32,
    port: u16,
    host: u8,
    codecs: Vec<Codec>,
    tunnel: u16,
) {
    use ipmedia::core::{ChannelMsg, DescTag, Descriptor, TunnelId};
    use ipmedia::rt::{decode, encode, Frame};
    let desc = Descriptor::media(
        DescTag { origin, generation },
        MediaAddr::v4(10, 0, 0, host, port),
        codecs,
    );
    let frame = Frame::Msg(ChannelMsg::Tunnel {
        tunnel: TunnelId(tunnel),
        signal: Signal::Open {
            medium: Medium::Audio,
            desc,
        },
    });
    let back = decode(encode(&frame)).unwrap();
    prop_assert_eq!(frame, back);
}

// ---------------------------------------------------------------------
// Default tier: CI-sized. Small case counts and short schedules keep the
// whole file cheap while still crossing every queue-interleaving class.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flowlinked_path_converges_under_any_schedule(
        lp in arb_policy(1),
        rp in arb_policy(2),
        picks in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        check_flowlinked_convergence(lp, rp, &picks);
    }

    #[test]
    fn close_hold_converges_to_both_closed(
        picks in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        check_close_hold_convergence(&picks);
    }

    #[test]
    fn wire_roundtrip_arbitrary_descriptors(
        origin in any::<u64>(),
        generation in any::<u32>(),
        port in any::<u16>(),
        host in any::<u8>(),
        codecs in arb_codecs(),
        tunnel in any::<u16>(),
    ) {
        check_wire_roundtrip(origin, generation, port, host, codecs, tunnel);
    }

    /// Truncating or corrupting the version byte never panics the decoder.
    #[test]
    fn wire_decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        use ipmedia::rt::decode;
        let _ = decode(bytes::Bytes::from(bytes)); // must not panic
    }
}

// ---------------------------------------------------------------------
// Exhaustive tier: `cargo test -- --ignored`. Same properties, ~20× the
// cases and schedules long enough to wander far off the convergence
// fast-path before the round-robin drain takes over.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    #[ignore = "exhaustive tier; run with -- --ignored"]
    fn exhaustive_flowlinked_path_converges_under_any_schedule(
        lp in arb_policy(1),
        rp in arb_policy(2),
        picks in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        check_flowlinked_convergence(lp, rp, &picks);
    }

    #[test]
    #[ignore = "exhaustive tier; run with -- --ignored"]
    fn exhaustive_close_hold_converges_to_both_closed(
        picks in proptest::collection::vec(any::<u8>(), 0..192),
    ) {
        check_close_hold_convergence(&picks);
    }

    #[test]
    #[ignore = "exhaustive tier; run with -- --ignored"]
    fn exhaustive_wire_roundtrip_arbitrary_descriptors(
        origin in any::<u64>(),
        generation in any::<u32>(),
        port in any::<u16>(),
        host in any::<u8>(),
        codecs in arb_codecs(),
        tunnel in any::<u16>(),
    ) {
        check_wire_roundtrip(origin, generation, port, host, codecs, tunnel);
    }

    #[test]
    #[ignore = "exhaustive tier; run with -- --ignored"]
    fn exhaustive_wire_decoder_is_total(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        use ipmedia::rt::decode;
        let _ = decode(bytes::Bytes::from(bytes)); // must not panic
    }
}
