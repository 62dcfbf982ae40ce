//! Benchmark scenarios for the paper's evaluation (§VIII-C, §IX-B).
//!
//! Each function builds a deterministic scenario on the discrete-event
//! simulator with the paper's timing (n = 34 ms, c = 20 ms) and returns
//! the measured latency, so that every number in the paper's performance
//! analysis is *measured* here rather than derived.

pub mod chaos;
pub mod storm;

use ipmedia_core::boxes::GoalSpec;
use ipmedia_core::endpoint::{EndpointLogic, NullLogic};
use ipmedia_core::goal::{EndpointPolicy, UserCmd};
use ipmedia_core::ids::{BoxId, SlotId};
use ipmedia_core::monitor::Monitor;
use ipmedia_core::reliable::ReliableConfig;
use ipmedia_core::{BoxCmd, MediaAddr, Medium};
use ipmedia_netsim::{FaultPlan, Network, SimConfig, SimDuration, SimTime};
use ipmedia_obs::clock::Clock;
use ipmedia_obs::metrics::{CountingObserver, Registry};
use ipmedia_obs::trace::SpanSink;
use ipmedia_obs::{NoopObserver, ObsEvent, Observer, RecordingObserver};
use std::sync::{Arc, Mutex};

/// Shared handle to a [`RecordingObserver`]'s event log.
pub type RecordedLog = Arc<Mutex<Vec<(u64, ObsEvent)>>>;

const T_MAX: SimTime = SimTime(3_600_000_000);

fn l_addr() -> MediaAddr {
    MediaAddr::v4(10, 0, 0, 1, 4000)
}

fn r_addr() -> MediaAddr {
    MediaAddr::v4(10, 0, 0, 2, 4000)
}

/// A linear deployment `L — S0 — S1 — … — S(k-1) — R` with every tunnel
/// established end-to-end (all servers flowlinked, L opened the channel).
pub struct Chain {
    pub net: Network,
    pub l: BoxId,
    pub r: BoxId,
    pub servers: Vec<BoxId>,
    /// (left slot, right slot) of each server.
    pub server_slots: Vec<(SlotId, SlotId)>,
    pub l_slot: SlotId,
    pub r_slot: SlotId,
}

impl Chain {
    /// Build and converge the chain with `k ≥ 1` servers.
    pub fn new(k: usize, cfg: SimConfig) -> Chain {
        Chain::new_observed(k, cfg, Box::new(NoopObserver))
    }

    /// [`Chain::new`] with an observer installed before any protocol
    /// activity, so the whole establishment phase is visible to it.
    /// Observers are strictly passive: `tests/obs_overhead.rs` pins down
    /// that traces and latencies are identical with and without one.
    pub fn new_observed(k: usize, cfg: SimConfig, obs: Box<dyn Observer + Send>) -> Chain {
        Chain::build(k, cfg, |_| obs, None)
    }

    /// [`Chain::new`] with a [`RecordingObserver`] timestamped by the
    /// network's virtual-time clock; returns the chain and the shared
    /// event log. The runtime invariant monitor consumes exactly this
    /// stream.
    pub fn new_recorded(k: usize, cfg: SimConfig) -> (Chain, RecordedLog) {
        let mut log = None;
        let chain = Chain::build(
            k,
            cfg,
            |net| {
                let rec = RecordingObserver::new(net.clock() as Arc<dyn Clock + Send + Sync>);
                log = Some(rec.log());
                Box::new(rec)
            },
            None,
        );
        (chain, log.expect("factory ran"))
    }

    /// [`Chain::new_observed`] with causal tracing enabled before any
    /// protocol activity: every activation, delivery, and tunnel setup of
    /// the establishment phase lands in `sink` as parent-linked spans.
    /// Tracing shares the zero-perturbation contract with observers
    /// (`tests/obs_overhead.rs` runs this arm too).
    pub fn new_traced(
        k: usize,
        cfg: SimConfig,
        obs: Box<dyn Observer + Send>,
        sink: Arc<SpanSink>,
    ) -> Chain {
        Chain::build(k, cfg, |_| obs, Some(sink))
    }

    fn build(
        k: usize,
        cfg: SimConfig,
        make_obs: impl FnOnce(&Network) -> Box<dyn Observer + Send>,
        sink: Option<Arc<SpanSink>>,
    ) -> Chain {
        assert!(k >= 1);
        let mut net = Network::new(cfg);
        let obs = make_obs(&net);
        net.set_observer(obs);
        if let Some(sink) = sink {
            net.enable_tracing(sink);
        }
        let l = net.add_box(
            "end-l",
            Box::new(EndpointLogic::resource(EndpointPolicy::audio(l_addr()))),
        );
        let r = net.add_box(
            "end-r",
            Box::new(EndpointLogic::resource(EndpointPolicy::audio(r_addr()))),
        );
        let servers: Vec<BoxId> = (0..k)
            .map(|i| net.add_box(format!("s{i}"), Box::new(NullLogic)))
            .collect();

        let (_, l_slots, s0_left) = net.connect(l, servers[0], 1);
        let mut server_slots: Vec<(SlotId, SlotId)> = Vec::with_capacity(k);
        let mut prev_left = s0_left[0];
        for i in 0..k - 1 {
            let (_, right, next_left) = net.connect(servers[i], servers[i + 1], 1);
            server_slots.push((prev_left, right[0]));
            prev_left = next_left[0];
        }
        let (_, last_right, r_slots) = net.connect(servers[k - 1], r, 1);
        server_slots.push((prev_left, last_right[0]));
        net.run_until_quiescent(T_MAX);

        // Flowlink every server, then establish the call from L.
        for (i, &srv) in servers.iter().enumerate() {
            let (a, b) = server_slots[i];
            net.apply(srv, move |pb| {
                pb.media_mut()
                    .set_goal(GoalSpec::Link { a, b })
                    .into_iter()
                    .map(BoxCmd::Signal)
                    .collect()
            });
        }
        net.run_until_quiescent(T_MAX);
        net.user(l, l_slots[0], UserCmd::Open(Medium::Audio));
        net.run_until_quiescent(T_MAX);

        let chain = Chain {
            net,
            l,
            r,
            servers,
            server_slots,
            l_slot: l_slots[0],
            r_slot: r_slots[0],
        };
        assert!(chain.converged(), "initial establishment must converge");
        chain
    }

    /// An invariant monitor for this chain: its boxes named as the
    /// network names them (`end-l`, `end-r`, `s0`, …) and each server's
    /// flowlink watched, in server order.
    pub fn monitor(&self) -> Monitor {
        let mut monitor = Monitor::new();
        monitor.register_box(self.l.0, "end-l");
        monitor.register_box(self.r.0, "end-r");
        for (i, (srv, (a, b))) in self.servers.iter().zip(&self.server_slots).enumerate() {
            monitor.register_box(srv.0, format!("s{i}"));
            monitor.watch_flowlink((srv.0, a.0), (srv.0, b.0));
        }
        monitor
    }

    /// Both ends transmit at each other's negotiated addresses.
    pub fn converged(&self) -> bool {
        let sl = self.net.media(self.l).slot(self.l_slot).unwrap();
        let sr = self.net.media(self.r).slot(self.r_slot).unwrap();
        sl.tx_route().map(|(to, _)| to) == Some(r_addr())
            && sr.tx_route().map(|(to, _)| to) == Some(l_addr())
    }

    /// Put server `i`'s two slots on hold (the PC Snapshot-2 move): the
    /// path is split and both ends go silent.
    pub fn hold(&mut self, i: usize) {
        let srv = self.servers[i];
        let (a, b) = self.server_slots[i];
        self.net.apply(srv, move |pb| {
            let mut out = pb
                .media_mut()
                .set_goal(GoalSpec::Hold {
                    slot: a,
                    policy: ipmedia_core::goal::Policy::Server,
                })
                .into_iter()
                .map(BoxCmd::Signal)
                .collect::<Vec<_>>();
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
        self.net.run_until_quiescent(T_MAX);
    }

    /// Re-link server `i` (attach a fresh flowlink to its two slots).
    pub fn relink(&mut self, i: usize) {
        let srv = self.servers[i];
        let (a, b) = self.server_slots[i];
        self.net.apply(srv, move |pb| {
            pb.media_mut()
                .set_goal(GoalSpec::Link { a, b })
                .into_iter()
                .map(BoxCmd::Signal)
                .collect()
        });
    }

    /// Run until both ends transmit at each other again; return the
    /// completion instant (end-of-compute of the later endpoint).
    pub fn measure_reconvergence(&mut self, t0: SimTime) -> SimDuration {
        let (l, r, ls, rs) = (self.l, self.r, self.l_slot, self.r_slot);
        let ok = self.net.run_until(T_MAX, |n| {
            let sl = n.media(l).slot(ls).unwrap();
            let sr = n.media(r).slot(rs).unwrap();
            sl.tx_route().map(|(to, _)| to) == Some(r_addr())
                && sr.tx_route().map(|(to, _)| to) == Some(l_addr())
        });
        assert!(ok, "path must reconverge");
        self.net.busy_until(self.l).max(self.net.busy_until(self.r)) - t0
    }
}

/// Fig. 13 (experiment E8): the PBX and PC change state concurrently.
/// Chain `A — S0 — S1 — C`; both servers are holding, then both re-link at
/// the same instant. The paper derives 2n + 3c = 128 ms.
pub fn fig13_concurrent_relink(cfg: SimConfig) -> SimDuration {
    let mut chain = Chain::new(2, cfg);
    chain.hold(0);
    chain.hold(1);
    chain.net.advance(SimDuration::from_millis(1_000));
    let t0 = chain.net.now();
    chain.relink(0);
    chain.relink(1);
    chain.measure_reconvergence(t0)
}

/// §VIII-C general formula (experiment E9): re-link a single flowlink at
/// distance `p` hops from its farther endpoint. Expected `p·n + (p+1)·c`.
/// Here the re-linked server is S0, so `p = k` (the number of tunnels
/// between S0 and the right endpoint).
pub fn relink_latency(k: usize, cfg: SimConfig) -> SimDuration {
    let mut chain = Chain::new(k, cfg);
    chain.hold(0);
    chain.net.advance(SimDuration::from_millis(1_000));
    let t0 = chain.net.now();
    chain.relink(0);
    chain.measure_reconvergence(t0)
}

/// Fresh end-to-end call setup through `k` flowlinked servers, measured
/// from the user's open action, with no cached descriptors anywhere:
/// `2(k+1)·n + (2k+3)·c` (each hop adds a network traversal in each
/// direction plus a compute step). Contrast with [`relink_latency`], where
/// cached descriptors make the same path light up in `k·n + (k+1)·c` —
/// the measurable value of the protocol's cacheable unilateral
/// descriptors (§IX-B).
pub fn fresh_setup_latency(k: usize, cfg: SimConfig) -> SimDuration {
    let mut chain = Chain::new(k, cfg);
    // Tear the call down end-to-end, then re-open and measure.
    chain.net.user(chain.l, chain.l_slot, UserCmd::Close);
    chain.net.run_until_quiescent(T_MAX);
    chain.net.advance(SimDuration::from_millis(1_000));
    let t0 = chain.net.now();
    chain
        .net
        .user(chain.l, chain.l_slot, UserCmd::Open(Medium::Audio));
    chain.measure_reconvergence(t0)
}

/// Outcome of one [`flowlink_convergence_under_loss`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossRun {
    pub loss: f64,
    pub duplicate: f64,
    pub reorder: f64,
    pub seed: u64,
    /// Virtual time from the user's open to an end-to-end flowing path.
    pub converged: SimDuration,
    /// Faults the plans actually injected over the whole run.
    pub faults: u64,
    /// Retransmissions the reliability layer needed.
    pub retransmissions: u64,
}

/// The robustness experiment (E10): a flowlinked call `L — S — R` with a
/// chaotic network on both channels and the §VI retransmission layer on
/// every box. Measures the virtual time from the user's open action to an
/// end-to-end flowing path (both ends transmitting at each other's
/// negotiated addresses). Returns `Err` if the path has not converged
/// within `budget` of virtual time, or if an await is still pending once
/// the network is quiescent — the failure modes the fault-matrix test
/// below exists to catch.
pub fn flowlink_convergence_under_loss(
    loss: f64,
    duplicate: f64,
    reorder: f64,
    seed: u64,
    budget: SimDuration,
) -> Result<LossRun, String> {
    let registry = Arc::new(Registry::new());
    let mut net = Network::new(SimConfig::paper());
    net.set_observer(Box::new(CountingObserver::new(registry.clone())));
    let l = net.add_box(
        "end-l",
        Box::new(EndpointLogic::resource(EndpointPolicy::audio(l_addr()))),
    );
    let srv = net.add_box("server", Box::new(NullLogic));
    let r = net.add_box(
        "end-r",
        Box::new(EndpointLogic::resource(EndpointPolicy::audio(r_addr()))),
    );
    let (ch_l, l_slots, srv_l) = net.connect(l, srv, 1);
    let (ch_r, srv_r, r_slots) = net.connect(srv, r, 1);
    let plan = |s: u64| {
        FaultPlan::new(s)
            .with_drop(loss)
            .with_duplicate(duplicate)
            .with_reorder(reorder)
    };
    net.set_fault_plan(ch_l, plan(seed));
    net.set_fault_plan(ch_r, plan(seed ^ 0x9E37_79B9_7F4A_7C15));
    for id in [l, srv, r] {
        net.enable_reliability(id, ReliableConfig::default());
    }
    net.run_until_quiescent(T_MAX);

    let (a, b) = (srv_l[0], srv_r[0]);
    net.apply(srv, move |pb| {
        pb.media_mut()
            .set_goal(GoalSpec::Link { a, b })
            .into_iter()
            .map(BoxCmd::Signal)
            .collect()
    });
    net.run_until_quiescent(T_MAX);

    let t0 = net.now();
    net.user(l, l_slots[0], UserCmd::Open(Medium::Audio));
    let (ls, rs) = (l_slots[0], r_slots[0]);
    let ok = net.run_until(SimTime(t0.0 + budget.0), |n| {
        let sl = n.media(l).slot(ls).unwrap();
        let sr = n.media(r).slot(rs).unwrap();
        sl.tx_route().map(|(to, _)| to) == Some(r_addr())
            && sr.tx_route().map(|(to, _)| to) == Some(l_addr())
    });
    if !ok {
        return Err(format!(
            "no convergence within {budget} (loss={loss}, dup={duplicate}, \
             reorder={reorder}, seed={seed})"
        ));
    }
    let converged = net.busy_until(l).max(net.busy_until(r)) - t0;
    // Drain the remaining retransmission timers so the counters cover the
    // whole run, then check nothing was left half-recovered.
    net.run_until_quiescent(T_MAX);
    if !net.all_converged() {
        return Err(format!(
            "pending awaits after quiescence (loss={loss}, dup={duplicate}, \
             reorder={reorder}, seed={seed})"
        ));
    }
    let s = registry.snapshot();
    Ok(LossRun {
        loss,
        duplicate,
        reorder,
        seed,
        converged,
        faults: s.faults_total(),
        retransmissions: s.retransmissions,
    })
}

/// Signals delivered during one re-link, for the protocol-cost table.
pub fn count_signals_for_relink(k: usize) -> usize {
    let mut chain = Chain::new(k, SimConfig::paper());
    chain.hold(0);
    chain.net.trace_enabled = true;
    chain.net.advance(SimDuration::from_millis(1_000));
    let t0 = chain.net.now();
    chain.relink(0);
    chain.measure_reconvergence(t0);
    chain.net.run_until_quiescent(T_MAX);
    chain.net.trace().len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13_gives_128ms() {
        let d = fig13_concurrent_relink(SimConfig::paper());
        assert_eq!(d, SimDuration::from_millis(128), "2n+3c, got {d}");
    }

    #[test]
    fn relink_latency_follows_formula() {
        // p·n + (p+1)·c for p = 1..5.
        for k in 1..=5 {
            let d = relink_latency(k, SimConfig::paper());
            let expect = SimDuration::from_millis(34 * k as u64 + 20 * (k as u64 + 1));
            assert_eq!(d, expect, "k={k}: expected {expect}, got {d}");
        }
    }

    #[test]
    fn fresh_setup_costs_per_hop() {
        // 2(k+1)n + (2k+3)c: k=1 → 4n+5c = 236 ms; k=2 → 6n+7c = 344 ms.
        assert_eq!(
            fresh_setup_latency(1, SimConfig::paper()),
            SimDuration::from_millis(236)
        );
        assert_eq!(
            fresh_setup_latency(2, SimConfig::paper()),
            SimDuration::from_millis(344)
        );
    }

    #[test]
    fn lossy_convergence_costs_more_than_clean() {
        // The loss sweep's anchor points: a fault-free run converges in
        // the deterministic fresh-setup time with no retransmissions; a
        // 10% chaos run still converges, but pays for it.
        let budget = SimDuration::from_millis(60_000);
        let clean = flowlink_convergence_under_loss(0.0, 0.0, 0.0, 1, budget).unwrap();
        assert_eq!(clean.faults, 0);
        assert_eq!(clean.retransmissions, 0);
        // Within one compute-step slack of the 4n+5c fresh-setup formula
        // (the reliability layer's bookkeeping adds compute, not latency).
        assert!(
            clean.converged <= SimDuration::from_millis(236 + 2 * 20),
            "clean convergence took {}",
            clean.converged
        );

        let chaos = flowlink_convergence_under_loss(0.10, 0.10, 0.10, 1, budget).unwrap();
        assert!(chaos.faults > 0, "chaos plan must inject faults");
        assert!(
            chaos.converged >= clean.converged,
            "faults cannot make convergence faster: {} vs {}",
            chaos.converged,
            clean.converged
        );
    }

    #[test]
    fn every_fault_matrix_cell_converges_during_setup() {
        // Steady loss × duplication/reordering, three seeds a cell, each
        // fault active while the call is set up. The chaos campaign does
        // not cover these cells: it closes its call inside the fault
        // window and re-opens it only after the window has settled.
        const CELLS: [(f64, f64); 6] = [
            (0.0, 0.0),
            (0.0, 0.10),
            (0.01, 0.0),
            (0.01, 0.10),
            (0.10, 0.0),
            (0.10, 0.10),
        ];
        // About 250× the fault-free setup time: room for deep
        // retransmission backoff, short enough to catch a livelock.
        let budget = SimDuration::from_millis(60_000);
        for (loss, dup_reorder) in CELLS {
            for seed in 0..3 {
                if let Err(e) =
                    flowlink_convergence_under_loss(loss, dup_reorder, dup_reorder, seed, budget)
                {
                    panic!("{e}");
                }
            }
        }
    }

    #[test]
    fn cached_relink_beats_fresh_setup() {
        // The §IX-B caching argument, measured: re-linking with cached
        // descriptors is cheaper than fresh negotiation over the same path.
        let fresh = fresh_setup_latency(2, SimConfig::paper());
        let cached = relink_latency(2, SimConfig::paper());
        assert!(cached < fresh, "cached {cached} vs fresh {fresh}");
    }
}
