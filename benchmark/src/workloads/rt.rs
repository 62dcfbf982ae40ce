//! The two workloads on the tokio runtime, over loopback TCP.
//!
//! `rt_waves` is CPU-bound on `rt`: 512 calls closed and re-opened in
//! bursts, so inbox sharding, writer batching, snapshot publish and
//! wire/frame cost set the pace. `rt_midcall` uses the same layer the
//! opposite way: one mid-call op in flight through a flowlinking gateway,
//! latency-bound and dominated by the shim's 1 ms socket re-poll per hop.
//! Batching that helps the first can only hurt the second.
//!
//! Sizing steps around a cliff: a burst of more than 64 frames on one
//! connection overflows the writer queue, which sheds silently and wedges
//! calls. 8 tunnels per channel keeps every burst under it, and both
//! workloads fail the run if a frame was shed anyway.

use super::{shuffle, Rep, Size, Workload};
use crate::metrics::Metrics;
use crate::sampler::{sample, Until};
use crate::spans::Spans;
use crate::stats;
use ipmedia_core::boxes::GoalSpec;
use ipmedia_core::endpoint::EndpointLogic;
use ipmedia_core::goal::{AcceptMode, EndpointPolicy, UserCmd};
use ipmedia_core::ids::{BoxId, SlotId};
use ipmedia_core::program::{AppLogic, BoxInput, Ctx};
use ipmedia_core::{MediaAddr, Medium, SlotState};
use ipmedia_obs::NoopObserver;
use ipmedia_rt::{
    spawn_node_tuned, Directory, NodeHandle, NodeSnapshot, NodeTuning, ReconnectPolicy,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::future::Future;
use std::time::Duration;

/// An op not observed within this long has failed.
const OP_TIMEOUT: Duration = Duration::from_secs(10);

fn caller_addr() -> MediaAddr {
    MediaAddr::v4(10, 0, 0, 1, 4000)
}

fn callee_addr() -> MediaAddr {
    MediaAddr::v4(10, 0, 0, 2, 4000)
}

/// Drive a future on the generator thread; node tasks run on the shim's
/// worker pool meanwhile.
pub fn block_on<F: Future>(f: F) -> F::Output {
    tokio::runtime::block_on(f)
}

/// Opens `channels` signaling channels of `tunnels` slots each to `target`
/// at start and dials every slot as its channel comes up.
struct Dialer {
    target: &'static str,
    channels: u32,
    tunnels: u16,
}

impl AppLogic for Dialer {
    fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
        match input {
            BoxInput::Start => {
                for c in 0..self.channels {
                    ctx.open_channel(self.target, self.tunnels, c);
                }
            }
            BoxInput::ChannelUp {
                slots,
                req: Some(_),
                ..
            } => {
                for &slot in slots {
                    ctx.set_goal(GoalSpec::User {
                        slot,
                        policy: EndpointPolicy::audio(caller_addr()),
                        mode: AcceptMode::Auto,
                    });
                    ctx.user(slot, UserCmd::Open(Medium::Audio));
                }
            }
            _ => {}
        }
    }
}

/// Dials the callee when a caller's channel arrives and flowlinks the two
/// channels tunnel by tunnel.
struct Gateway {
    incoming: Vec<SlotId>,
}

impl AppLogic for Gateway {
    fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
        match input {
            BoxInput::ChannelUp {
                slots, req: None, ..
            } => {
                self.incoming = slots.clone();
                ctx.open_channel("callee", slots.len() as u16, 9);
            }
            BoxInput::ChannelUp {
                slots,
                req: Some(9),
                ..
            } => {
                for (&a, &b) in self.incoming.iter().zip(slots) {
                    ctx.set_goal(GoalSpec::Link { a, b });
                }
            }
            _ => {}
        }
    }
}

async fn spawn(name: &str, id: u32, logic: Box<dyn AppLogic>, dir: &Directory) -> NodeHandle {
    spawn_node_tuned(
        name,
        BoxId(id),
        logic,
        dir.clone(),
        ReconnectPolicy::default(),
        Box::new(NoopObserver),
        NodeTuning::default(),
    )
    .await
    .unwrap_or_else(|e| panic!("rt: node {name} did not spawn: {e}"))
}

fn callee_logic() -> Box<dyn AppLogic> {
    Box::new(EndpointLogic::resource(
        EndpointPolicy::audio(callee_addr()),
    ))
}

fn count(s: &NodeSnapshot, state: SlotState) -> usize {
    s.slots.iter().filter(|sl| sl.state == state).count()
}

/// (frames shed by a full writer queue, retransmissions) summed over
/// `nodes`. Both must stay zero: either means the run measured a degraded
/// path.
fn degraded<'a>(nodes: impl IntoIterator<Item = &'a NodeHandle>) -> (u64, u64) {
    nodes.into_iter().fold((0, 0), |(shed, again), n| {
        let m = n.registry().snapshot();
        (shed + m.faults("shed"), again + m.retransmissions)
    })
}

// ---------------------------------------------------------------------------
// rt_waves
// ---------------------------------------------------------------------------

pub struct Waves {
    caller: NodeHandle,
    callee: NodeHandle,
    slots: Vec<SlotId>,
    rng: StdRng,
    /// `opens_sent` of the caller after the last wave; each wave must add
    /// exactly one open per call.
    opens_seen: u64,
    /// Registry totals of both nodes and the wave count when warm-up ended.
    base: (u64, u64),
    waves: u64,
}

impl Waves {
    pub fn setup(seed: u64, size: Size, spans: &mut Spans) -> Self {
        let (channels, tunnels, warmup) = match size {
            Size::Full => (64u32, 8u16, 20),
            Size::Quick => (8, 8, 2),
        };
        let calls = channels as usize * tunnels as usize;
        let mut w = block_on(async {
            let dir = Directory::new();
            let open = spans.enter("rt.spawn");
            let callee = spawn("callee", 2, callee_logic(), &dir).await;
            let dialer = Dialer {
                target: "callee",
                channels,
                tunnels,
            };
            let mut caller = spawn("caller", 1, Box::new(dialer), &dir).await;
            spans.exit(open);

            let open = spans.enter("rt.channels_up");
            let up = caller
                .wait_for(OP_TIMEOUT, |s| s.channels == channels as usize)
                .await;
            spans.exit(open);
            assert!(up, "rt_waves: {channels} channels did not come up");

            let open = spans.enter("rt.first_wave");
            let flowing = caller
                .wait_for(OP_TIMEOUT, |s| count(s, SlotState::Flowing) == calls)
                .await;
            spans.exit(open);
            assert!(flowing, "rt_waves: {calls} calls did not all establish");

            let slots: Vec<SlotId> = caller
                .snapshot
                .borrow()
                .slots
                .iter()
                .map(|s| s.slot)
                .collect();
            let opens_seen = caller.registry().snapshot().sent("open");
            assert_eq!(opens_seen, calls as u64, "rt_waves: one open per call");
            Waves {
                caller,
                callee,
                slots,
                rng: StdRng::seed_from_u64(seed),
                opens_seen,
                base: (0, 0),
                waves: 0,
            }
        });
        let open = spans.enter("rt.warmup");
        for _ in 0..warmup {
            let warm = w.rep(&mut Spans::new());
            assert_eq!(warm.failed, 0, "rt_waves: a warm-up wave failed its checks");
        }
        spans.exit(open);
        w.base = w.totals();
        w.waves = 0;
        w
    }

    /// (signals sent, stimuli) summed over both nodes since spawn.
    fn totals(&self) -> (u64, u64) {
        let (a, b) = (
            self.caller.registry().snapshot(),
            self.callee.registry().snapshot(),
        );
        (
            a.signals_sent_total() + b.signals_sent_total(),
            a.stimuli + b.stimuli,
        )
    }

    /// Issue `cmd` on every call, in this wave's seeded order. The time
    /// spent here is time inside `NodeHandle::user().await`, i.e. inbox
    /// back-pressure.
    async fn command_all(&self, cmd: UserCmd, spans: &mut Spans) {
        let open = spans.enter("rt.wave.enqueue");
        for &slot in &self.slots {
            self.caller.user(slot, cmd.clone()).await;
        }
        spans.exit(open);
    }
}

impl Workload for Waves {
    /// One wave: close all → all Closed → open all → all Flowing.
    fn rep(&mut self, spans: &mut Spans) -> Rep {
        let calls = self.slots.len();
        shuffle(&mut self.slots, &mut self.rng);
        let flowing = block_on(async {
            let wave = spans.enter("rt.wave");
            let half = spans.enter("rt.wave.close");
            self.command_all(UserCmd::Close, spans).await;
            self.caller
                .wait_for(OP_TIMEOUT, |s| count(s, SlotState::Closed) == calls)
                .await;
            spans.exit(half);
            let half = spans.enter("rt.wave.open");
            self.command_all(UserCmd::Open(Medium::Audio), spans).await;
            self.caller
                .wait_for(OP_TIMEOUT, |s| count(s, SlotState::Flowing) == calls)
                .await;
            spans.exit(half);
            spans.exit(wave);
            count(&self.caller.snapshot.borrow(), SlotState::Flowing)
        });
        self.waves += 1;
        let opens = self.caller.registry().snapshot().sent("open");
        let grew = opens - self.opens_seen;
        self.opens_seen = opens;
        Rep {
            attempted: calls as u64,
            failed: ((calls - flowing) as u64).max(grew.abs_diff(calls as u64)),
        }
    }

    fn layers(&mut self, spans: &mut Spans, out: &mut Metrics) {
        let first = |name: &str| spans.ms_of(name)[0];
        out.set("rt.spawn_ms", first("rt.spawn"));
        out.set("rt.channels_up_ms", first("rt.channels_up"));
        out.set("rt.first_wave_ms", first("rt.first_wave"));
        let p50 = |name: &str| stats::median(&spans.ms_of(name)).expect("traced waves ran");
        out.set("rt.wave_close_ms_p50", p50("rt.wave.close"));
        out.set("rt.wave_open_ms_p50", p50("rt.wave.open"));
        let calls = self.slots.len() as f64;
        out.set("rt.user_enqueue_us", p50("rt.wave.enqueue") * 1e3 / calls);
        let (signals, stimuli) = self.totals();
        let per_call = self.waves as f64 * calls;
        out.set(
            "rt.signals_per_call",
            (signals - self.base.0) as f64 / per_call,
        );
        out.set(
            "rt.stimuli_per_call",
            (stimuli - self.base.1) as f64 / per_call,
        );
        let (shed, retransmitted) = degraded([&self.caller, &self.callee]);
        out.set("rt.frames_shed", shed as f64);
        out.set("rt.retransmissions", retransmitted as f64);
    }

    fn finish(self: Box<Self>) -> u64 {
        let (shed, retransmitted) = degraded([&self.caller, &self.callee]);
        block_on(async {
            self.caller.shutdown().await;
            self.callee.shutdown().await;
        });
        if shed + retransmitted > 0 {
            eprintln!(
                "rt_waves: {shed} frame(s) shed, {retransmitted} retransmitted; both must be zero"
            );
        }
        shed + retransmitted
    }
}

// ---------------------------------------------------------------------------
// rt_midcall
// ---------------------------------------------------------------------------

pub struct Midcall {
    caller: NodeHandle,
    gateway: Option<NodeHandle>,
    callee: NodeHandle,
    /// Per call: the caller's slot and the callee's slot at the far end.
    pairs: Vec<(SlotId, SlotId)>,
    muted: Vec<bool>,
    /// Seeded visiting order over the calls, walked round-robin.
    order: Vec<usize>,
    next: usize,
    seed: u64,
    size: Size,
}

impl Midcall {
    pub fn setup(seed: u64, size: Size, spans: &mut Spans) -> Self {
        let open = spans.enter("rt.midcall.setup");
        let mut w = Self::build(seed, size, true);
        let warmup = match size {
            Size::Full => 100,
            Size::Quick => 10,
        };
        for _ in 0..warmup {
            let warm = w.rep(&mut Spans::new());
            assert_eq!(warm.failed, 0, "rt_midcall: a warm-up op was not observed");
        }
        spans.exit(open);
        w
    }

    /// caller — gateway — callee (`via_gateway`) or caller — callee, one
    /// channel of 8 tunnels per hop, every call flowing, and the far-end
    /// slot of each call found by muting it once.
    fn build(seed: u64, size: Size, via_gateway: bool) -> Self {
        const TUNNELS: u16 = 8;
        let calls = usize::from(TUNNELS);
        let mut w = block_on(async {
            let dir = Directory::new();
            let mut callee = spawn("callee", 3, callee_logic(), &dir).await;
            let gateway = if via_gateway {
                let logic = Gateway {
                    incoming: Vec::new(),
                };
                Some(spawn("gateway", 2, Box::new(logic), &dir).await)
            } else {
                None
            };
            let dialer = Dialer {
                target: if via_gateway { "gateway" } else { "callee" },
                channels: 1,
                tunnels: TUNNELS,
            };
            let mut caller = spawn("caller", 1, Box::new(dialer), &dir).await;
            let routed =
                |s: &NodeSnapshot| s.slots.iter().filter(|sl| sl.tx_route.is_some()).count();
            let up = caller
                .wait_for(OP_TIMEOUT, |s| count(s, SlotState::Flowing) == calls)
                .await
                && callee.wait_for(OP_TIMEOUT, |s| routed(s) == calls).await;
            assert!(up, "rt_midcall: {calls} calls did not all establish");
            let slots: Vec<SlotId> = caller
                .snapshot
                .borrow()
                .slots
                .iter()
                .map(|s| s.slot)
                .collect();
            Midcall {
                caller,
                gateway,
                callee,
                pairs: slots.iter().map(|&s| (s, s)).collect(),
                muted: vec![false; calls],
                order: (0..calls).collect(),
                next: 0,
                seed,
                size,
            }
        });
        // Find each call's far end: mute it and see which callee route goes.
        for k in 0..calls {
            let before = w.callee.snapshot.borrow().clone();
            let seen = block_on(async {
                w.caller.user(w.pairs[k].0, mute(true)).await;
                w.callee
                    .wait_for(OP_TIMEOUT, |s| {
                        s.slots.iter().filter(|sl| sl.tx_route.is_none()).count() == k + 1
                    })
                    .await
            });
            assert!(seen, "rt_midcall: muting call {k} never reached the callee");
            let after = w.callee.snapshot.borrow().clone();
            let far = after
                .slots
                .iter()
                .zip(&before.slots)
                .find(|(a, b)| a.tx_route != b.tx_route)
                .map(|(a, _)| a.slot)
                .expect("one callee route changed");
            w.pairs[k].1 = far;
            w.muted[k] = true;
        }
        shuffle(&mut w.order, &mut StdRng::seed_from_u64(seed));
        w
    }

    fn shutdown(self) {
        block_on(async {
            self.caller.shutdown().await;
            if let Some(g) = self.gateway {
                g.shutdown().await;
            }
            self.callee.shutdown().await;
        });
    }

    fn degraded(&self) -> u64 {
        let nodes = [
            Some(&self.caller),
            self.gateway.as_ref(),
            Some(&self.callee),
        ];
        let (shed, retransmitted) = degraded(nodes.into_iter().flatten());
        shed + retransmitted
    }
}

fn mute(mute_in: bool) -> UserCmd {
    UserCmd::Modify {
        mute_in,
        mute_out: false,
    }
}

impl Workload for Midcall {
    /// One mid-call op: flip the next call's inbound mute at the caller
    /// and wait until the callee's transmit route for that call flips.
    fn rep(&mut self, spans: &mut Spans) -> Rep {
        let k = self.order[self.next % self.order.len()];
        self.next += 1;
        let want_muted = !self.muted[k];
        let (near, far) = self.pairs[k];
        let seen = block_on(async {
            let op = spans.enter("rt.op");
            self.caller.user(near, mute(want_muted)).await;
            let seen = self
                .callee
                .wait_for(OP_TIMEOUT, |s| {
                    s.slots
                        .iter()
                        .any(|sl| sl.slot == far && sl.tx_route.is_none() == want_muted)
                })
                .await;
            spans.exit(op);
            seen
        });
        self.muted[k] = want_muted;
        Rep {
            attempted: 1,
            failed: u64::from(!seen),
        }
    }

    fn layers(&mut self, spans: &mut Spans, out: &mut Metrics) {
        let via = spans.ms_of("rt.op");
        let p50 = stats::median(&via).expect("traced ops ran");
        out.set("rt.op_ms_p50", p50);
        out.set(
            "rt.op_ms_p99",
            stats::percentile(&via, 99.0).expect("traced ops ran"),
        );
        out.set("rt.op_ms_max", via.iter().copied().fold(0.0, f64::max));

        // The same op on a direct caller — callee pair: one hop fewer.
        let ops = match self.size {
            Size::Full => 400,
            Size::Quick => 20,
        };
        let mut direct = Self::build(self.seed, self.size, false);
        let mut quiet = Spans::new();
        let timed = sample(Until::Reps(ops), |_| direct.rep(&mut quiet));
        assert_eq!(timed.failed, 0, "rt_midcall: a direct op was not observed");
        assert_eq!(
            direct.degraded(),
            0,
            "rt_midcall: the direct pair shed or retransmitted"
        );
        direct.shutdown();
        let direct_p50 = timed.median_ms();
        out.set("rt.direct_op_ms_p50", direct_p50);
        out.set("rt.hop_ms", p50 - direct_p50);
        // Prediction: an op crosses two hops one way, so it should cost
        // about hops × rtt / 2 of the shim's socket. 1.0 means it holds.
        const HOPS: f64 = 2.0;
        let rtt_ms = out
            .get("tokio.tcp_rtt_us_p50")
            .expect("the tokio probes run before the workloads' layers")
            / 1e3;
        out.set("rt.rtt_prediction_ratio", p50 / (HOPS * rtt_ms / 2.0));
    }

    fn finish(self: Box<Self>) -> u64 {
        let bad = self.degraded();
        if bad > 0 {
            eprintln!("rt_midcall: {bad} frame(s) shed or retransmitted; must be zero");
        }
        self.shutdown();
        bad
    }
}
