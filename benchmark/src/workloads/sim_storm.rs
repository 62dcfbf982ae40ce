//! `sim_storm`: the seeded 10,000-call storm through the discrete-event
//! simulator, back to back. `core` dispatch and the `netsim` event loop do
//! all the work; `rt` and tokio do none. The working set (~128 MB) exceeds
//! the caches, so allocation and `HashMap` changes show.

use super::{Rep, Size, Workload, DEFAULT_SEED};
use crate::metrics::Metrics;
use crate::sampler::{sample, Laps, Until};
use crate::spans::Spans;
use crate::stats;
use ipmedia_bench::storm::{
    generate_storm, run_netsim_storm, run_sip_storm, CallPlan, NetsimStormReport, StormSpec,
};
use ipmedia_core::boxes::GoalSpec;
use ipmedia_core::endpoint::{EndpointLogic, NullLogic};
use ipmedia_core::goal::{EndpointPolicy, Policy, UserCmd};
use ipmedia_core::ids::{BoxId, SlotId};
use ipmedia_core::path::EndGoal;
use ipmedia_core::{BoxCmd, MediaAddr, Medium};
use ipmedia_netsim::{Network, SimConfig, SimDuration};
use ipmedia_obs::metrics::{CountingObserver, Registry};
use std::sync::Arc;

/// The storm's deterministic outcome at [`DEFAULT_SEED`] and full size (the
/// counts `BENCH_storm.json` records): a fast wrong answer cannot score.
const PINNED: &str =
    "calls=10000 boxes=26690 established=10000 reconverged=808 signals=121038 stimuli=214796 vt=2396";

/// The counts two executions of one storm must agree on.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Counts {
    calls: usize,
    boxes: usize,
    established: usize,
    reconverged: usize,
    signals: u64,
    stimuli: u64,
    virtual_ms: u64,
}

impl Counts {
    fn of(r: &NetsimStormReport) -> Self {
        Self {
            calls: r.calls,
            boxes: r.boxes,
            established: r.established,
            reconverged: r.reconverged,
            signals: r.signals_sent,
            stimuli: r.stimuli,
            virtual_ms: r.virtual_ms,
        }
    }

    fn digest(&self) -> String {
        format!(
            "calls={} boxes={} established={} reconverged={} signals={} stimuli={} vt={}",
            self.calls,
            self.boxes,
            self.established,
            self.reconverged,
            self.signals,
            self.stimuli,
            self.virtual_ms
        )
    }
}

pub struct SimStorm {
    spec: StormSpec,
    size: Size,
    /// Calls that take the hold + relink excursion; all must reconverge.
    excursions: usize,
    /// Full digest of the first storm; every later one must repeat it.
    first: Option<String>,
    last: Option<Counts>,
}

impl SimStorm {
    pub fn setup(seed: u64, size: Size, spans: &mut Spans) -> Self {
        let calls = match size {
            Size::Full => 10_000,
            Size::Quick => 500,
        };
        // One generator thread: the storm itself is single-threaded, and a
        // second core would only add scheduling noise to the repetitions.
        let spec = StormSpec {
            seed,
            calls,
            threads: 1,
        };
        let open = spans.enter("sim.setup.plan");
        let excursions = generate_storm(&spec)
            .iter()
            .filter(|p| p.measures_flowlink())
            .count();
        spans.exit(open);
        let mut w = Self {
            spec,
            size,
            excursions,
            first: None,
            last: None,
        };
        let open = spans.enter("sim.setup.warmup");
        let warm = w.rep(&mut Spans::new());
        spans.exit(open);
        assert_eq!(warm.failed, 0, "sim_storm: warm-up storm failed its checks");
        w
    }

    fn check(&mut self, r: &NetsimStormReport) -> u64 {
        let counts = Counts::of(r);
        let digest = r.digest();
        let repeats = *self.first.get_or_insert_with(|| digest.clone()) == digest;
        let pinned =
            self.spec.seed != DEFAULT_SEED || self.size != Size::Full || counts.digest() == PINNED;
        let failed = if !repeats || !pinned {
            eprintln!(
                "sim_storm: digest mismatch (repeats first: {repeats}, matches pin: {pinned}): {}",
                counts.digest()
            );
            r.calls
        } else {
            (r.calls - r.established) + r.reconverged.abs_diff(self.excursions)
        };
        self.last = Some(counts);
        failed as u64
    }
}

impl Workload for SimStorm {
    fn rep(&mut self, spans: &mut Spans) -> Rep {
        let open = spans.enter("bench.run_netsim_storm");
        let report = run_netsim_storm(&self.spec);
        spans.exit(open);
        Rep {
            attempted: self.spec.calls as u64,
            failed: self.check(&report),
        }
    }

    fn layers(&mut self, spans: &mut Spans, out: &mut Metrics) {
        let reference = self.last.clone().expect("setup ran a storm");
        let calls = reference.calls as f64;
        out.set("core.signals_per_call", reference.signals as f64 / calls);
        out.set("core.stimuli_per_call", reference.stimuli as f64 / calls);
        out.set("netsim.virtual_ms", reference.virtual_ms as f64);

        // The storm replayed phase by phase. Its counts must equal
        // `run_netsim_storm`'s, or the phases describe a different storm.
        let reps = match self.size {
            Size::Full => 3,
            Size::Quick => 1,
        };
        let mut laps = Laps::new();
        for rep in 0..reps {
            spans.set_rep(rep);
            laps.ns.clear();
            let counts = replay_phases(&self.spec, spans, &mut laps);
            assert_eq!(
                counts, reference,
                "sim_storm: the phase driver ran a different storm than run_netsim_storm"
            );
        }
        let mut phases_ms = 0.0;
        for phase in [
            "generate",
            "build",
            "establish",
            "feature",
            "relink",
            "teardown",
        ] {
            let name = format!("netsim.{phase}");
            let ms = stats::median(&spans.ms_of(&name)).expect("every replay has every phase");
            out.set(&format!("netsim.{phase}_ms"), ms);
            phases_ms += ms;
            if phase == "build" {
                out.set("netsim.build_us_per_box", ms * 1e3 / reference.boxes as f64);
            }
        }
        let steps: Vec<f64> = laps.ns.iter().map(|&n| f64::from(n)).collect();
        let total_ns: f64 = steps.iter().sum();
        out.set("netsim.steps", steps.len() as f64);
        out.set("netsim.step_ns", total_ns / steps.len() as f64);
        out.set(
            "netsim.step_ns_p99",
            stats::percentile(&steps, 99.0).expect("the storm steps"),
        );
        let handle_ns = out
            .get("core.program.handle_ns")
            .expect("the core probes run before the workloads' layers");
        out.set(
            "netsim.step_substrate_share",
            1.0 - reference.stimuli as f64 * handle_ns / total_ns,
        );
        // What of the real storm's wall time the replayed phases do not
        // account for; negative when timing every step costs the replay
        // more than it leaves out.
        let storm_ms =
            stats::median(&spans.ms_of("bench.run_netsim_storm")).expect("traced storms ran");
        out.set("netsim.residual_share", (storm_ms - phases_ms) / storm_ms);

        // The SIP reference, timed by the same sampler on the same host.
        let sip_reps = match self.size {
            Size::Full => 10,
            Size::Quick => 2,
        };
        let mut messages = 0;
        let sip = sample(Until::Reps(sip_reps), |rep| {
            spans.set_rep(rep);
            let open = spans.enter("bench.run_sip_storm");
            let r = run_sip_storm(self.spec.calls, self.spec.seed);
            spans.exit(open);
            messages = r.messages;
            Rep {
                attempted: r.calls as u64,
                failed: (r.calls - r.converged) as u64,
            }
        });
        assert_eq!(sip.failed, 0, "sip storm: a call did not converge");
        let sip_ms = sip.median_ms();
        let sip_rate = calls / (sip_ms / 1e3);
        out.set("sip.calls_per_s", sip_rate);
        out.set("sip.ns_per_message", sip_ms * 1e6 / messages as f64);
        out.set("sip.vs_netsim_ratio", sip_rate / (calls / (storm_ms / 1e3)));
    }
}

/// Drain the event queue one `Network::step` at a time, timing each.
fn drain(net: &mut Network, laps: &mut Laps) {
    laps.resume();
    while net.step() {
        laps.lap();
    }
}

struct Call {
    plan: CallPlan,
    l: BoxId,
    r: BoxId,
    l_slot: SlotId,
    r_slot: SlotId,
    l_addr: MediaAddr,
    r_addr: MediaAddr,
    relays: Vec<(BoxId, SlotId, SlotId)>,
}

fn both_flowing(net: &Network, c: &Call) -> bool {
    let to = |bx, slot| {
        net.media(bx)
            .slot(slot)
            .and_then(|s| s.tx_route())
            .map(|(to, _)| to)
    };
    to(c.l, c.l_slot) == Some(c.r_addr) && to(c.r, c.r_slot) == Some(c.l_addr)
}

fn link(net: &mut Network, srv: BoxId, a: SlotId, b: SlotId) {
    net.apply(srv, move |pb| {
        pb.media_mut()
            .set_goal(GoalSpec::Link { a, b })
            .into_iter()
            .map(BoxCmd::Signal)
            .collect()
    });
}

/// The phases of `run_netsim_storm`, driven from here through
/// `Network::{add_box, connect, user, apply, step}` with one span per
/// phase and every step timed. The caller checks the counts against the
/// real thing.
fn replay_phases(spec: &StormSpec, spans: &mut Spans, laps: &mut Laps) -> Counts {
    let whole = spans.enter("netsim.rep");

    let open = spans.enter("netsim.generate");
    let plans = generate_storm(spec);
    spans.exit(open);

    let open = spans.enter("netsim.build");
    let registry = Arc::new(Registry::new());
    let mut net = Network::new(SimConfig::paper());
    net.set_observer(Box::new(CountingObserver::new(registry.clone())));
    let mut calls: Vec<Call> = Vec::with_capacity(plans.len());
    let mut boxes = 0;
    for plan in plans {
        let i = plan.index;
        let (hi, lo) = ((i >> 8) as u8, (i & 0xFF) as u8);
        let l_addr = MediaAddr::v4(10, hi, lo, 1, 4000);
        let r_addr = MediaAddr::v4(10, hi, lo, 2, 4000);
        let endpoint = |addr| Box::new(EndpointLogic::resource(EndpointPolicy::audio(addr)));
        let l = net.add_box(format!("c{i}-l"), endpoint(l_addr));
        let r = net.add_box(format!("c{i}-r"), endpoint(r_addr));
        let relay_ids: Vec<BoxId> = (0..plan.relays)
            .map(|k| net.add_box(format!("c{i}-s{k}"), Box::new(NullLogic)))
            .collect();
        // Chain L — s0 — … — R; each link yields the slot at either end.
        let chain: Vec<BoxId> = [&[l][..], &relay_ids[..], &[r][..]].concat();
        let links: Vec<(SlotId, SlotId)> = chain
            .windows(2)
            .map(|pair| {
                let (_, left, right) = net.connect(pair[0], pair[1], 1);
                (left[0], right[0])
            })
            .collect();
        let relays = relay_ids
            .iter()
            .enumerate()
            .map(|(k, &srv)| (srv, links[k].1, links[k + 1].0))
            .collect();
        boxes += 2 + plan.relays;
        calls.push(Call {
            plan,
            l,
            r,
            l_slot: links[0].0,
            r_slot: links[links.len() - 1].1,
            l_addr,
            r_addr,
            relays,
        });
    }
    drain(&mut net, laps);
    for c in &calls {
        for &(srv, a, b) in &c.relays {
            link(&mut net, srv, a, b);
        }
    }
    drain(&mut net, laps);
    spans.exit(open);

    let open = spans.enter("netsim.establish");
    for c in &calls {
        net.user(c.l, c.l_slot, UserCmd::Open(Medium::Audio));
    }
    drain(&mut net, laps);
    let established = calls.iter().filter(|c| both_flowing(&net, c)).count();
    spans.exit(open);

    let open = spans.enter("netsim.feature");
    let mute = |mute_in, mute_out| UserCmd::Modify { mute_in, mute_out };
    for c in &calls {
        let (gl, gr) = c.plan.path.ends();
        for (goal, bx, slot, role) in [
            (gl, c.l, c.l_slot, c.plan.caller_role),
            (gr, c.r, c.r_slot, c.plan.callee_role),
        ] {
            match goal {
                // One close suffices; the peer follows the handshake.
                EndGoal::Close if bx == c.l || gl != EndGoal::Close => {
                    net.user(bx, slot, UserCmd::Close);
                }
                EndGoal::Close => {}
                EndGoal::Hold => net.user(bx, slot, mute(false, true)),
                EndGoal::Open if role == "parked" || role == "holder" => {
                    net.user(bx, slot, mute(true, false));
                    net.user(bx, slot, mute(false, false));
                }
                EndGoal::Open => {}
            }
        }
    }
    drain(&mut net, laps);
    spans.exit(open);

    let open = spans.enter("netsim.relink");
    let excursion: Vec<&Call> = calls
        .iter()
        .filter(|c| c.plan.measures_flowlink())
        .collect();
    for c in &excursion {
        let (srv, a, b) = c.relays[0];
        net.apply(srv, move |pb| {
            let hold = |slot| GoalSpec::Hold {
                slot,
                policy: Policy::Server,
            };
            let mut out = pb.media_mut().set_goal(hold(a));
            out.extend(pb.media_mut().set_goal(hold(b)));
            out.into_iter().map(BoxCmd::Signal).collect()
        });
    }
    drain(&mut net, laps);
    net.advance(SimDuration::from_millis(1_000));
    for c in &excursion {
        let (srv, a, b) = c.relays[0];
        link(&mut net, srv, a, b);
    }
    drain(&mut net, laps);
    let reconverged = excursion.iter().filter(|c| both_flowing(&net, c)).count();
    spans.exit(open);

    let open = spans.enter("netsim.teardown");
    let s = registry.snapshot();
    let counts = Counts {
        calls: calls.len(),
        boxes,
        established,
        reconverged,
        signals: s.signals_sent_total(),
        stimuli: s.stimuli,
        virtual_ms: net.now().0 / 1_000,
    };
    drop(calls);
    drop(net);
    spans.exit(open);

    spans.exit(whole);
    counts
}
