//! The Fig. 14 comparison scenarios: two servers re-link media across a
//! shared dialog, concurrently (the glare case, `10n + 11c + d`) or alone
//! (the common case, vs. the paper protocol's `2n + 3c`).

use crate::b2bua::{B2bua, SharedReport, LEG_LOCAL, LEG_REMOTE};
use crate::sim::SipNet;
use crate::ua::{SipUa, UaState};
use ipmedia_core::{Codec, MediaAddr};
use ipmedia_netsim::{SimDuration, SimTime};

/// Addresses of the two endpoints in the comparison.
pub fn addr_a() -> MediaAddr {
    MediaAddr::v4(10, 0, 0, 1, 4000)
}

pub fn addr_c() -> MediaAddr {
    MediaAddr::v4(10, 0, 0, 3, 4000)
}

/// Outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct SipOutcome {
    /// When both endpoints were media-ready toward each other, from t=0.
    pub converged_after: SimDuration,
    /// Completion time of the measured (second-retrying) server's relink.
    pub measured_relink: SimDuration,
    pub glares: u32,
    pub attempts_total: u32,
    pub messages: u64,
}

struct World {
    net: SipNet,
    ua_a: UaState,
    ua_c: UaState,
    pbx_report: SharedReport,
    pc_report: SharedReport,
}

/// Build the Fig. 14 chain `A — PBX — PC — C`.
///
/// Backoffs follow RFC 3261 §14.1: the dialog owner retries after
/// 0–2 s, the other side after 2.1–4 s (expected ≈ 3 s — the paper's `d`).
/// Here the PBX owns the shared dialog, so PC is the measured,
/// later-retrying server, matching the paper's narrative.
fn build(seed: u64, pbx_relinks: bool, pc_relinks: bool) -> World {
    let mut net = SipNet::paper(seed);
    let (ua_a_node, ua_a) = SipUa::new(addr_a(), vec![Codec::G711, Codec::G726]);
    let (ua_c_node, ua_c) = SipUa::new(addr_c(), vec![Codec::G711, Codec::G726]);
    let (pbx_node, pbx_report) = B2bua::new(pbx_relinks, (500, 2_000));
    let (pc_node, pc_report) = B2bua::new(pc_relinks, (2_100, 4_000));

    let a = net.add_node(Box::new(ua_a_node));
    let pbx = net.add_node(Box::new(pbx_node));
    let pc = net.add_node(Box::new(pc_node));
    let c = net.add_node(Box::new(ua_c_node));

    net.link(a, 0, pbx, LEG_LOCAL);
    net.link(pbx, LEG_REMOTE, pc, LEG_REMOTE);
    net.link(pc, LEG_LOCAL, c, 0);

    World {
        net,
        ua_a,
        ua_c,
        pbx_report,
        pc_report,
    }
}

fn converged(w: &World) -> bool {
    let a = w.ua_a.lock().unwrap();
    let c = w.ua_c.lock().unwrap();
    a.get(&0).map(|(to, _)| *to) == Some(addr_c()) && c.get(&0).map(|(to, _)| *to) == Some(addr_a())
}

fn run(mut w: World, max: SimTime) -> Option<SipOutcome> {
    let ua_a = w.ua_a.clone();
    let ua_c = w.ua_c.clone();
    let ok = w.net.run_until(max, || {
        let a = ua_a.lock().unwrap();
        let c = ua_c.lock().unwrap();
        a.get(&0).map(|(to, _)| *to) == Some(addr_c())
            && c.get(&0).map(|(to, _)| *to) == Some(addr_a())
            && w.pc_report.lock().unwrap().completed_at.is_some()
    });
    if !ok || !converged(&w) {
        return None;
    }
    let converged_after = w.net.now() - SimTime::ZERO;
    let pc = w.pc_report.lock().unwrap().clone();
    let pbx = w.pbx_report.lock().unwrap().clone();
    Some(SipOutcome {
        converged_after,
        measured_relink: pc
            .completed_at
            .map(|t| t - SimTime::ZERO)
            .unwrap_or(SimDuration::ZERO),
        glares: pc.glares + pbx.glares,
        attempts_total: pc.attempts + pbx.attempts,
        messages: w.net.total_messages(),
    })
}

/// The glare scenario of Fig. 14: both servers re-link at t = 0.
/// Latency formula: `10n + 11c + d`, ≈ 3560 ms with the paper's numbers.
pub fn glare_scenario(seed: u64) -> Option<SipOutcome> {
    run(build(seed, true, true), SimTime(60_000_000))
}

/// The common (contention-free) case: only PC re-links. Latency formula:
/// `7n + 7c` = 378 ms, vs. the paper protocol's `2n + 3c` = 128 ms.
pub fn common_case(seed: u64) -> Option<SipOutcome> {
    run(build(seed, false, true), SimTime(60_000_000))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_case_converges_without_glare() {
        let out = common_case(7).expect("must converge");
        assert_eq!(out.glares, 0);
        assert_eq!(out.attempts_total, 1);
        // 7n + 7c = 378 ms with n=34, c=20 (§IX-B). The exact message walk
        // may differ by one hop from the paper's; the shape requirement is
        // several times the compositional protocol's 128 ms.
        let ms = out.converged_after.as_millis_f64();
        assert!(
            (250.0..550.0).contains(&ms),
            "common case ≈ 378 ms, got {ms}"
        );
        assert!(ms > 2.0 * 128.0, "clearly slower than the paper protocol");
    }

    #[test]
    fn glare_scenario_costs_seconds() {
        let out = glare_scenario(7).expect("must converge");
        assert!(out.glares >= 2, "both invites collide");
        assert!(out.attempts_total >= 3, "retries happened");
        let ms = out.converged_after.as_millis_f64();
        // 10n + 11c + d with E[d] ≈ 3 s → ≈ 3.5 s; d is random in
        // [2.1 s, 4 s], so accept the corresponding interval.
        assert!(
            (2_400.0..5_000.0).contains(&ms),
            "glare case is seconds, got {ms}"
        );
    }

    #[test]
    fn glare_latency_distribution_matches_formula() {
        // Average over seeds: should land near 10n+11c+E[d] ≈ 3.6 s.
        let mut sum = 0.0;
        let runs = 20;
        for seed in 0..runs {
            let out = glare_scenario(seed).expect("converges for every seed");
            sum += out.converged_after.as_millis_f64();
        }
        let avg = sum / runs as f64;
        assert!(
            (3_000.0..4_200.0).contains(&avg),
            "average glare latency ≈ 3.56 s, got {avg}"
        );
    }

    #[test]
    fn sip_uses_more_messages_than_compositional_protocol() {
        // §IX-B/E12: the transactional baseline needs more signals for the
        // same relink. The compositional path (Fig. 13) uses 2 describes +
        // 2 selects per direction-pair ≈ 4–8 signals; SIP's common case
        // needs 3 transactions of 3 signals each.
        let out = common_case(3).unwrap();
        assert!(
            out.messages >= 9,
            "three 3-message transactions expected, got {}",
            out.messages
        );
    }

    #[test]
    fn glare_outcomes_are_pinned_per_seed() {
        // Written down from a run that ordered events by `(at, seq)` in a
        // binary heap, the order `netsim::EventQueue` must reproduce. The
        // `rand_ms` retry delays put many distinct instants in the queue at
        // once, so a queue that reordered two events would move a latency.
        let converged_us = [
            4_077_000, 4_084_000, 3_991_000, 4_356_000, 4_090_000, 3_508_000, 2_691_000, 3_823_000,
        ];
        for (seed, us) in (1..).zip(converged_us) {
            let out = glare_scenario(seed).expect("converges");
            assert_eq!(out.converged_after, SimDuration(us), "seed {seed}");
            assert_eq!(out.measured_relink, out.converged_after, "seed {seed}");
            assert_eq!(
                (out.glares, out.attempts_total, out.messages),
                (2, 4, 28),
                "seed {seed}"
            );
        }
    }
}
