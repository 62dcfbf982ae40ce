//! Fleet-scale call-storm harness (§VIII-C at deployment scale).
//!
//! A seeded, deterministic generator ([`generate_storm`]) draws thousands
//! of independent call plans — path shapes from the §V [`PathType`]
//! library, relay counts, and endpoint/relay feature mixes from the same
//! role vocabulary as the fuzzer
//! ([`ipmedia_analyze::fuzz::ENDPOINT_ROLES`] /
//! [`ipmedia_analyze::fuzz::RELAY_ROLES`]) — and two arms execute the
//! same storm:
//!
//! * [`run_netsim_storm`] drives every call concurrently through the
//!   discrete-event simulator with the paper's timing, reporting
//!   tunnel-setup and flowlink-reconvergence latency distributions plus
//!   aggregate signal counts. Deterministic: the same spec yields a
//!   byte-identical [`NetsimStormReport::digest`] at any worker count.
//! * [`run_sip_storm`] runs the same-topology SIP B2BUA baseline
//!   (`A — PBX — PC — C`, the Fig. 14 chain) at the same call count, so
//!   the storm numbers land next to a transactional baseline row.
//!
//! These functions decide counts and virtual-time latencies only; what a
//! storm costs in wall-clock time and memory is measured by `benchmark/`
//! (workload `sim_storm`), which calls them. Calls over real TCP are
//! `ipmedia-rt`'s own tests (`crates/rt/tests/overload.rs`) and
//! `benchmark/`'s `rt_waves`.

use ipmedia_analyze::fuzz::{scenario_seed, ENDPOINT_ROLES, RELAY_ROLES};
use ipmedia_core::boxes::GoalSpec;
use ipmedia_core::endpoint::{EndpointLogic, NullLogic};
use ipmedia_core::goal::{EndpointPolicy, UserCmd};
use ipmedia_core::hash::SplitMix64;
use ipmedia_core::ids::{BoxId, SlotId};
use ipmedia_core::path::{EndGoal, PathType};
use ipmedia_core::{BoxCmd, MediaAddr, Medium};
use ipmedia_netsim::{Network, SimConfig, SimDuration, SimTime};
use ipmedia_obs::metrics::{CountingObserver, Histogram, HistogramSnapshot, Registry};
use ipmedia_sip::b2bua::{B2bua, LEG_LOCAL, LEG_REMOTE};
use ipmedia_sip::ua::SipUa;
use ipmedia_sip::SipNet;
use std::collections::BTreeMap;
use std::sync::Arc;

const T_MAX: SimTime = SimTime(3_600_000_000);

/// Stable label for a path type, used in reports and path-mix counts.
pub fn path_label(p: PathType) -> &'static str {
    match p {
        PathType::CloseClose => "close/close",
        PathType::CloseHold => "close/hold",
        PathType::CloseOpen => "close/open",
        PathType::OpenOpen => "open/open",
        PathType::OpenHold => "open/hold",
        PathType::HoldHold => "hold/hold",
    }
}

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

/// Parameters of a storm.
#[derive(Debug, Clone, Copy)]
pub struct StormSpec {
    /// Campaign seed; call `i` derives its stream via
    /// [`scenario_seed`]`(seed, i)`.
    pub seed: u64,
    /// Number of concurrent calls.
    pub calls: usize,
    /// Worker threads for plan generation (`0` = all cores). Reports are
    /// identical at any value.
    pub threads: usize,
}

impl StormSpec {
    pub fn new(seed: u64, calls: usize) -> Self {
        Self {
            seed,
            calls,
            threads: 0,
        }
    }
}

/// One generated call: topology shape plus feature mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallPlan {
    /// Index within the storm (also its box-naming prefix `c{index}`).
    pub index: usize,
    /// End-goal pair of the call (§V path type).
    pub path: PathType,
    /// Interior boxes between the endpoints (0–2).
    pub relays: usize,
    /// Caller-side feature role, from [`ENDPOINT_ROLES`].
    pub caller_role: &'static str,
    /// Callee-side feature role, from [`ENDPOINT_ROLES`].
    pub callee_role: &'static str,
    /// Per-relay roles, from [`RELAY_ROLES`].
    pub relay_roles: Vec<&'static str>,
}

impl CallPlan {
    /// The storm measures flowlink reconvergence on calls that keep both
    /// ends open and traverse at least one relay.
    pub fn measures_flowlink(&self) -> bool {
        self.path == PathType::OpenOpen && self.relays > 0
    }
}

/// The plan for call `index` of the storm with campaign seed `seed` — a
/// pure function of `(seed, index)`.
// The explicit derefs on the role picks are load-bearing: without them
// inference unifies `pick`'s element type with `str` and rejects the
// array argument, so clippy's auto-deref suggestion does not compile.
#[allow(clippy::explicit_auto_deref)]
pub fn call_plan(seed: u64, index: usize) -> CallPlan {
    let mut rng = SplitMix64::new(scenario_seed(seed, index as u64));
    let path = *rng.pick(&PathType::all());
    // Path-length mix: half direct, a third one relay, the rest two —
    // roughly the deployment shapes of §VIII-C's chains.
    let relays = match rng.range(6) {
        0..=2 => 0,
        3 | 4 => 1,
        _ => 2,
    };
    CallPlan {
        index,
        path,
        relays,
        caller_role: *rng.pick(&ENDPOINT_ROLES),
        callee_role: *rng.pick(&ENDPOINT_ROLES),
        relay_roles: (0..relays).map(|_| *rng.pick(&RELAY_ROLES)).collect(),
    }
}

/// Generate every call plan of the storm, fanned over `spec.threads`
/// workers with the slot-per-index discipline: the output is identical at
/// any thread count.
pub fn generate_storm(spec: &StormSpec) -> Vec<CallPlan> {
    ipmedia_core::par::slot_map(spec.threads, spec.calls, |i| call_plan(spec.seed, i))
}

// ---------------------------------------------------------------------------
// netsim arm
// ---------------------------------------------------------------------------

/// Aggregate outcome of one simulator storm.
#[derive(Debug, Clone)]
pub struct NetsimStormReport {
    pub calls: usize,
    pub boxes: usize,
    /// Calls whose endpoints both reached `Flowing` routes at
    /// establishment.
    pub established: usize,
    /// Flowlink excursion calls that reconverged after the relink.
    pub reconverged: usize,
    /// Per-call open → both-flowing latency (virtual ms).
    pub setup_ms: HistogramSnapshot,
    /// Per-call relink → reconverged latency (virtual ms), over the
    /// [`CallPlan::measures_flowlink`] subset.
    pub flowlink_ms: HistogramSnapshot,
    pub signals_sent: u64,
    pub stimuli: u64,
    /// Final virtual time of the storm (ms).
    pub virtual_ms: u64,
    /// Calls per path type.
    pub path_mix: BTreeMap<&'static str, usize>,
}

impl NetsimStormReport {
    /// Canonical one-line digest of everything deterministic in the
    /// report; the determinism property test compares these bytes across
    /// generation thread counts.
    pub fn digest(&self) -> String {
        format!(
            "calls={} boxes={} established={} reconverged={} \
             setup=({:?},{}) flowlink=({:?},{}) signals={} stimuli={} vt={} mix={:?}",
            self.calls,
            self.boxes,
            self.established,
            self.reconverged,
            self.setup_ms.counts,
            self.setup_ms.sum,
            self.flowlink_ms.counts,
            self.flowlink_ms.sum,
            self.signals_sent,
            self.stimuli,
            self.virtual_ms,
            self.path_mix,
        )
    }
}

/// One built call of the storm: its endpoints, relays and slots.
pub struct NetsimCall {
    plan: CallPlan,
    l: BoxId,
    r: BoxId,
    l_slot: SlotId,
    relays: Vec<(BoxId, SlotId, SlotId)>,
    l_addr: MediaAddr,
    r_addr: MediaAddr,
    r_slot: SlotId,
}

fn both_flowing(net: &Network, c: &NetsimCall) -> bool {
    let sl = net.media(c.l).slot(c.l_slot);
    let sr = net.media(c.r).slot(c.r_slot);
    match (sl, sr) {
        (Some(sl), Some(sr)) => {
            sl.tx_route().map(|(to, _)| to) == Some(c.r_addr)
                && sr.tx_route().map(|(to, _)| to) == Some(c.l_addr)
        }
        _ => false,
    }
}

/// Build every call's private chain (endpoints, relays, channels) and
/// flowlink the relays, leaving the network quiescent and ready for the
/// simultaneous open.
pub fn build_netsim_calls(net: &mut Network, plans: Vec<CallPlan>) -> (Vec<NetsimCall>, usize) {
    let mut calls: Vec<NetsimCall> = Vec::with_capacity(plans.len());
    let mut boxes = 0usize;
    for plan in plans {
        let i = plan.index;
        let (hi, lo) = ((i >> 8) as u8, (i & 0xFF) as u8);
        let l_addr = MediaAddr::v4(10, hi, lo, 1, 4000);
        let r_addr = MediaAddr::v4(10, hi, lo, 2, 4000);
        let l = net.add_box(
            format!("c{i}-l"),
            Box::new(EndpointLogic::resource(EndpointPolicy::audio(l_addr))),
        );
        let r = net.add_box(
            format!("c{i}-r"),
            Box::new(EndpointLogic::resource(EndpointPolicy::audio(r_addr))),
        );
        let relay_ids: Vec<BoxId> = (0..plan.relays)
            .map(|k| net.add_box(format!("c{i}-s{k}"), Box::new(NullLogic)))
            .collect();
        boxes += 2 + relay_ids.len();

        // Chain L — s0 — … — R; remember each relay's slot pair.
        let mut relays: Vec<(BoxId, SlotId, SlotId)> = Vec::with_capacity(relay_ids.len());
        let (l_slot, r_slot) = if relay_ids.is_empty() {
            let (_, sl, sr) = net.connect(l, r, 1);
            (sl[0], sr[0])
        } else {
            let (_, sl, first_left) = net.connect(l, relay_ids[0], 1);
            let mut prev_left = first_left[0];
            for k in 0..relay_ids.len() - 1 {
                let (_, right, next_left) = net.connect(relay_ids[k], relay_ids[k + 1], 1);
                relays.push((relay_ids[k], prev_left, right[0]));
                prev_left = next_left[0];
            }
            let (_, last_right, sr) = net.connect(relay_ids[relay_ids.len() - 1], r, 1);
            relays.push((*relay_ids.last().unwrap(), prev_left, last_right[0]));
            (sl[0], sr[0])
        };
        calls.push(NetsimCall {
            plan,
            l,
            r,
            l_slot,
            relays,
            l_addr,
            r_addr,
            r_slot,
        });
    }
    net.run_until_quiescent(T_MAX);

    // Flowlink every relay so the opens land on ready paths.
    for c in &calls {
        for &(srv, a, b) in &c.relays {
            net.apply(srv, move |pb| {
                pb.media_mut()
                    .set_goal(GoalSpec::Link { a, b })
                    .into_iter()
                    .map(BoxCmd::Signal)
                    .collect()
            });
        }
    }
    net.run_until_quiescent(T_MAX);
    (calls, boxes)
}

/// Establish the first `sample` calls of the storm with the signal trace
/// on and return the rendered ladder diagram — the byte-level witness the
/// determinism property test compares across generation thread counts.
pub fn ladder_sample(spec: &StormSpec, sample: usize) -> String {
    let mut plans = generate_storm(spec);
    plans.truncate(sample);
    let mut net = Network::new(SimConfig::paper());
    let (calls, _) = build_netsim_calls(&mut net, plans);
    net.trace_enabled = true;
    for c in &calls {
        net.user(c.l, c.l_slot, UserCmd::Open(Medium::Audio));
    }
    net.run_until_quiescent(T_MAX);
    for c in &calls {
        assert!(both_flowing(&net, c), "sampled call failed to establish");
    }
    net.ladder()
}

/// Drive the whole storm through the discrete-event simulator: establish
/// every call concurrently at one virtual instant, apply the feature mix
/// (closes and mute excursions per the path's end goals and roles), then
/// run the flowlink excursion (hold + relink) on the
/// [`CallPlan::measures_flowlink`] subset. Panics if establishment or
/// reconvergence fails for any call — a storm is also a correctness
/// sweep.
pub fn run_netsim_storm(spec: &StormSpec) -> NetsimStormReport {
    let plans = generate_storm(spec);
    let registry = Arc::new(Registry::new());
    let mut net = Network::new(SimConfig::paper());
    net.set_observer(Box::new(CountingObserver::new(registry.clone())));
    let (calls, boxes) = build_netsim_calls(&mut net, plans);

    let t0 = net.now();
    for c in &calls {
        net.user(c.l, c.l_slot, UserCmd::Open(Medium::Audio));
    }
    net.run_until_quiescent(T_MAX);

    let mut established = 0usize;
    for c in &calls {
        assert!(
            both_flowing(&net, c),
            "call {} failed to establish ({:?})",
            c.plan.index,
            c.plan
        );
        established += 1;
        let done = net.busy_until(c.l).max(net.busy_until(c.r));
        registry
            .tunnel_setup_ms
            .observe((done - t0).0.div_ceil(1_000));
    }

    // Feature phase: end goals from the path type, flavored by roles.
    for c in &calls {
        let (gl, gr) = c.plan.path.ends();
        for (goal, bx, slot, role) in [
            (gl, c.l, c.l_slot, c.plan.caller_role),
            (gr, c.r, c.r_slot, c.plan.callee_role),
        ] {
            match goal {
                EndGoal::Close => {
                    // One close suffices; the peer follows the handshake.
                    if bx == c.l || gl != EndGoal::Close {
                        net.user(bx, slot, UserCmd::Close);
                    }
                }
                EndGoal::Hold => net.user(
                    bx,
                    slot,
                    UserCmd::Modify {
                        mute_in: false,
                        mute_out: true,
                    },
                ),
                EndGoal::Open => {
                    if role == "parked" || role == "holder" {
                        // A mute excursion that returns to flowing.
                        net.user(
                            bx,
                            slot,
                            UserCmd::Modify {
                                mute_in: true,
                                mute_out: false,
                            },
                        );
                        net.user(
                            bx,
                            slot,
                            UserCmd::Modify {
                                mute_in: false,
                                mute_out: false,
                            },
                        );
                    }
                }
            }
        }
    }
    net.run_until_quiescent(T_MAX);

    // Flowlink excursion on the open/open relay calls: hold one relay,
    // then relink everything at one instant and measure reconvergence.
    let excursion: Vec<&NetsimCall> = calls
        .iter()
        .filter(|c| c.plan.measures_flowlink())
        .collect();
    for c in &excursion {
        let (srv, a, b) = c.relays[0];
        net.apply(srv, move |pb| {
            let mut out: Vec<BoxCmd> = pb
                .media_mut()
                .set_goal(GoalSpec::Hold {
                    slot: a,
                    policy: ipmedia_core::goal::Policy::Server,
                })
                .into_iter()
                .map(BoxCmd::Signal)
                .collect();
            out.extend(
                pb.media_mut()
                    .set_goal(GoalSpec::Hold {
                        slot: b,
                        policy: ipmedia_core::goal::Policy::Server,
                    })
                    .into_iter()
                    .map(BoxCmd::Signal),
            );
            out
        });
    }
    net.run_until_quiescent(T_MAX);
    net.advance(SimDuration::from_millis(1_000));
    let t1 = net.now();
    for c in &excursion {
        let (srv, a, b) = c.relays[0];
        net.apply(srv, move |pb| {
            pb.media_mut()
                .set_goal(GoalSpec::Link { a, b })
                .into_iter()
                .map(BoxCmd::Signal)
                .collect()
        });
    }
    net.run_until_quiescent(T_MAX);

    let mut reconverged = 0usize;
    for c in &excursion {
        assert!(
            both_flowing(&net, c),
            "call {} failed to reconverge after relink",
            c.plan.index
        );
        reconverged += 1;
        let done = net.busy_until(c.l).max(net.busy_until(c.r));
        registry
            .flowlink_convergence_ms
            .observe((done - t1).0.div_ceil(1_000));
    }

    let mut path_mix: BTreeMap<&'static str, usize> = BTreeMap::new();
    for c in &calls {
        *path_mix.entry(path_label(c.plan.path)).or_insert(0) += 1;
    }
    let s = registry.snapshot();
    NetsimStormReport {
        calls: calls.len(),
        boxes,
        established,
        reconverged,
        setup_ms: s.tunnel_setup_ms.clone(),
        flowlink_ms: s.flowlink_convergence_ms.clone(),
        signals_sent: s.signals_sent_total(),
        stimuli: s.stimuli,
        virtual_ms: net.now().0 / 1_000,
        path_mix,
    }
}

// ---------------------------------------------------------------------------
// sip arm
// ---------------------------------------------------------------------------

/// Outcome of the SIP B2BUA baseline storm.
#[derive(Debug, Clone)]
pub struct SipStormReport {
    pub calls: usize,
    /// Calls whose endpoints ended media-ready toward each other with the
    /// measured server's relink completed.
    pub converged: usize,
    /// Total SIP messages delivered.
    pub messages: u64,
    /// Per-call relink completion latency (virtual ms).
    pub relink_ms: HistogramSnapshot,
    /// Final virtual time (ms).
    pub virtual_ms: u64,
}

/// The same-topology transactional baseline: `calls` independent
/// `A — PBX — PC — C` chains (the Fig. 14 shape, two interior boxes like
/// the storm's two-relay calls) in one SIP simulator, every PC re-linking
/// at t = 0 under RFC 3261 §14.1 backoffs. Virtual-time latencies are the
/// baseline row next to the netsim storm's flowlink distribution.
pub fn run_sip_storm(calls: usize, seed: u64) -> SipStormReport {
    let mut net = SipNet::paper(seed);
    let hist = Histogram::new(&[200, 300, 400, 500, 750, 1_000, 2_000, 4_000]);
    let mut worlds = Vec::with_capacity(calls);
    for i in 0..calls {
        let (hi, lo) = ((i >> 8) as u8, (i & 0xFF) as u8);
        let addr_a = MediaAddr::v4(10, hi, lo, 1, 4000);
        let addr_c = MediaAddr::v4(10, hi, lo, 3, 4000);
        let (ua_a_node, ua_a) = SipUa::new(addr_a, vec![ipmedia_core::Codec::G711]);
        let (ua_c_node, ua_c) = SipUa::new(addr_c, vec![ipmedia_core::Codec::G711]);
        let (pbx_node, _pbx_report) = B2bua::new(false, (500, 2_000));
        let (pc_node, pc_report) = B2bua::new(true, (2_100, 4_000));
        let a = net.add_node(Box::new(ua_a_node));
        let pbx = net.add_node(Box::new(pbx_node));
        let pc = net.add_node(Box::new(pc_node));
        let c = net.add_node(Box::new(ua_c_node));
        net.link(a, 0, pbx, LEG_LOCAL);
        net.link(pbx, LEG_REMOTE, pc, LEG_REMOTE);
        net.link(pc, LEG_LOCAL, c, 0);
        worlds.push((ua_a, ua_c, pc_report, addr_a, addr_c));
    }
    net.run_until_quiescent(SimTime(600_000_000));

    let mut converged = 0usize;
    for (ua_a, ua_c, pc_report, addr_a, addr_c) in &worlds {
        let a = ua_a.lock().unwrap();
        let c = ua_c.lock().unwrap();
        let done = pc_report.lock().unwrap().completed_at;
        let ok = a.get(&0).map(|(to, _)| *to) == Some(*addr_c)
            && c.get(&0).map(|(to, _)| *to) == Some(*addr_a)
            && done.is_some();
        if ok {
            converged += 1;
            hist.observe((done.unwrap() - SimTime::ZERO).0.div_ceil(1_000));
        }
    }
    SipStormReport {
        calls,
        converged,
        messages: net.total_messages(),
        relink_ms: hist.snapshot(),
        virtual_ms: net.now().0 / 1_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_a_pure_function_of_the_seed() {
        assert_eq!(call_plan(9, 4), call_plan(9, 4));
        let spec = StormSpec::new(9, 40);
        let serial = generate_storm(&StormSpec { threads: 1, ..spec });
        let fanned = generate_storm(&StormSpec { threads: 4, ..spec });
        assert_eq!(serial, fanned, "generation is thread-count invariant");
        // The mix actually varies: more than one path type and relay count.
        let paths: std::collections::BTreeSet<_> =
            serial.iter().map(|p| path_label(p.path)).collect();
        assert!(paths.len() > 2, "path mix degenerate: {paths:?}");
        assert!(serial.iter().any(|p| p.relays == 0));
        assert!(serial.iter().any(|p| p.relays > 0));
    }

    #[test]
    fn small_netsim_storm_establishes_and_reconverges() {
        let report = run_netsim_storm(&StormSpec::new(3, 60));
        assert_eq!(report.established, 60);
        assert_eq!(report.setup_ms.total(), 60);
        assert!(report.reconverged > 0, "no flowlink excursion calls drawn");
        assert_eq!(report.flowlink_ms.total() as usize, report.reconverged);
        // Setup costs at least the direct-call floor and the storm's
        // virtual span covers the excursion phases.
        assert!(report.signals_sent as usize >= 2 * report.calls);
    }

    #[test]
    fn sip_storm_converges_every_call() {
        let report = run_sip_storm(25, 11);
        assert_eq!(report.converged, 25);
        assert_eq!(report.relink_ms.total(), 25);
        // The common case costs ≈ 7n + 7c = 378 virtual ms per call.
        assert!(report.relink_ms.sum / 25 >= 300);
        assert!(report.messages >= 9 * 25);
    }
}
