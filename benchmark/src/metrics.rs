//! The metrics the benchmark declares, once: name, unit, direction and —
//! for end-to-end metrics — the bound. `BENCHMARK.json` mirrors these
//! tables (the smoke test holds them equal); a run may set only declared
//! names and must set all of its pass, so nothing undeclared is printed and
//! nothing declared goes missing.

use ipmedia_obs::JsonObj;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression; 0 for layer metrics (no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Decl {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn hi(name: &'static str, unit: &'static str) -> Decl {
    e2e(name, unit, Better::Higher, 0.0)
}

/// Length of one run's timed phase, in seconds, unless `--seconds` says
/// otherwise (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 18;

/// Layer metrics that are counts of protocol or exploration work: they
/// repeat exactly at a given seed, so any change is a change of behaviour,
/// never noise.
pub const EXACT_REPEAT: [&str; 9] = [
    "core.signals_per_call",
    "core.stimuli_per_call",
    "netsim.virtual_ms",
    "netsim.steps",
    "rt.retransmissions",
    "rt.frames_shed",
    "mck.states",
    "mck.transitions",
    "mck.dedup_hits",
];

/// What a user of the system sees, from every workload. A *repetition* is
/// the unit the closed loop waits on (storm, wave, mid-call op, sweep); an
/// *op* is a call, a call, a mid-call op, a checker state. On the workloads
/// the host paces (`workloads::pace`) every time and rate is at nominal host
/// speed (`crate::yardstick`); on `rt_midcall` it is as measured. The
/// README's baseline shows what runs of one build differ by on the host
/// this was sized on, which is what the bounds sit above. CPU per op is not
/// here: on `rt_midcall` it is what the idle readers' 1 kHz wake-ups cost,
/// which follows the hypervisor and spread by 40 % between runs of one
/// build, so it is the layer metric `host.cpu_ms_per_op`.
pub const END_TO_END: [Decl; 4] = [
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("rep_ms_p50", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Single layers, measured in the traced pass. Every traced pass measures
/// all of them; `rep.*`, `host.spin_ns`, `host.yardstick_*_ms`,
/// `host.cpu_busy_share`, `host.cpu_ms_per_op` and `host.trace_overhead_pct`
/// it measures once per workload, and a result line carries those of the workload it was asked
/// for. Layer metrics are all as measured, never adjusted.
pub const PER_LAYER: [Decl; 78] = [
    // core: tight loops over the sans-IO state machines.
    lo("core.slot.handshake_ns", "ns"),
    lo("core.flowlink.forward_ns", "ns"),
    lo("core.box.on_signal_ns", "ns"),
    lo("core.box.set_goal_ns", "ns"),
    lo("core.program.handle_ns", "ns"),
    // Protocol work per storm call; exact-repeat at a given seed.
    lo("core.signals_per_call", "count"),
    lo("core.stimuli_per_call", "count"),
    lo("netsim.virtual_ms", "count"),
    // netsim: the storm replayed phase by phase through the public API.
    lo("netsim.generate_ms", "ms"),
    lo("netsim.build_ms", "ms"),
    lo("netsim.establish_ms", "ms"),
    lo("netsim.feature_ms", "ms"),
    lo("netsim.relink_ms", "ms"),
    lo("netsim.teardown_ms", "ms"),
    lo("netsim.build_us_per_box", "us"),
    lo("netsim.steps", "count"),
    lo("netsim.step_ns", "ns"),
    lo("netsim.step_ns_p99", "ns"),
    lo("netsim.step_substrate_share", "ratio"),
    lo("netsim.residual_share", "ratio"),
    // sip: the control. If it moves, the host moved.
    hi("sip.calls_per_s", "1/s"),
    lo("sip.ns_per_message", "ns"),
    hi("sip.vs_netsim_ratio", "ratio"),
    // rt: codec and framing.
    lo("rt.wire.encode_ns", "ns"),
    lo("rt.wire.decode_ns", "ns"),
    lo("rt.frame.write_ns", "ns"),
    lo("rt.frame.write_batch32_ns", "ns"),
    lo("rt.frame.read_ns", "ns"),
    // rt: the waves topology.
    lo("rt.spawn_ms", "ms"),
    lo("rt.channels_up_ms", "ms"),
    lo("rt.first_wave_ms", "ms"),
    lo("rt.wave_close_ms_p50", "ms"),
    lo("rt.wave_open_ms_p50", "ms"),
    lo("rt.user_enqueue_us", "us"),
    lo("rt.signals_per_call", "count"),
    lo("rt.stimuli_per_call", "count"),
    lo("rt.retransmissions", "count"),
    lo("rt.frames_shed", "count"),
    // rt: the mid-call op, through the gateway and direct.
    lo("rt.op_ms_p50", "ms"),
    lo("rt.direct_op_ms_p50", "ms"),
    lo("rt.hop_ms", "ms"),
    lo("rt.op_ms_p99", "ms"),
    lo("rt.op_ms_max", "ms"),
    hi("rt.rtt_prediction_ratio", "ratio"),
    // The runtime under rt.
    lo("tokio.tcp_rtt_us_p50", "us"),
    lo("tokio.mpsc_hop_ns", "ns"),
    lo("tokio.spawn_ns", "ns"),
    lo("tokio.sleep_1ms_overshoot_us", "us"),
    // obs: what attaching an observer costs.
    lo("obs.counting_event_ns", "ns"),
    lo("obs.registry_snapshot_us", "us"),
    lo("obs.span_ns", "ns"),
    // mck: explore and property checks apart, counts, per-op costs.
    lo("mck.explore_s", "s"),
    lo("mck.props_s", "s"),
    lo("mck.states", "count"),
    lo("mck.transitions", "count"),
    lo("mck.dedup_hits", "count"),
    hi("mck.states_per_s", "1/s"),
    hi("mck.dedup_hit_ratio", "ratio"),
    lo("mck.apply_ns", "ns"),
    lo("mck.actions_ns", "ns"),
    lo("mck.hash_ns", "ns"),
    lo("mck.seen_insert_ns", "ns"),
    lo("mck.verify_s_t2", "s"),
    hi("mck.t2_speedup", "ratio"),
    // Tails and sample counts of one workload's span-free repetitions.
    lo("rep.count", "count"),
    lo("rep.ms_p90", "ms"),
    lo("rep.ms_p99", "ms"),
    lo("rep.ms_max", "ms"),
    lo("rep.ms_mad", "ms"),
    hi("rep.supported_percentile", "%"),
    // host: calibration only.
    lo("host.spin_ns", "ns"),
    lo("host.yardstick_alloc_ms", "ms"),
    lo("host.yardstick_chase_ms", "ms"),
    lo("host.yardstick_pair_ms", "ms"),
    hi("host.cpu_busy_share", "ratio"),
    lo("host.cpu_ms_per_op", "ms"),
    lo("host.trace_overhead_pct", "%"),
    lo("host.trace_spans", "count"),
];

pub fn declared(name: &str) -> Option<&'static Decl> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

/// The values one pass measured, keyed by declared name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `value` for the declared metric `name`. An undeclared name,
    /// a second value, or a value that is not a finite number is a bug in
    /// the benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let decl = declared(name).unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(value.is_finite(), "metric {name} measured as {value}");
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.values.push((decl.name, value));
    }

    /// Everything `other` measured, added to this.
    pub fn extend(&mut self, other: &Metrics) {
        for (name, value) in &other.values {
            self.set(name, *value);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The `metrics` object of a result line: every metric of `table`, in
    /// table order. Errors name what the pass failed to measure.
    pub fn to_json(&self, table: &[Decl]) -> Result<String, String> {
        let missing: Vec<&str> = table
            .iter()
            .filter(|d| self.get(d.name).is_none())
            .map(|d| d.name)
            .collect();
        if !missing.is_empty() {
            return Err(format!("declared but not measured: {}", missing.join(", ")));
        }
        if let Some((extra, _)) = self
            .values
            .iter()
            .find(|(n, _)| !table.iter().any(|d| d.name == *n))
        {
            return Err(format!("{extra} does not belong to this pass"));
        }
        let mut obj = JsonObj::new();
        for d in table {
            let cell = JsonObj::new()
                .float("value", self.get(d.name).expect("checked above"))
                .str("unit", d.unit);
            obj = obj.raw(d.name, &cell.finish());
        }
        Ok(obj.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<&Decl> = END_TO_END.iter().chain(&PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(
                all[..i].iter().all(|e| e.name != d.name),
                "{} twice",
                d.name
            );
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn a_pass_prints_exactly_its_table() {
        let mut m = Metrics::new();
        for d in END_TO_END.iter().filter(|d| d.name != "setup_s") {
            m.set(d.name, 1.5);
        }
        assert!(m.to_json(&END_TO_END).unwrap_err().contains("setup_s"));
        m.set("setup_s", 0.25);
        let json = crate::json::parse(&m.to_json(&END_TO_END).unwrap()).unwrap();
        assert_eq!(json.as_obj().unwrap().len(), END_TO_END.len());
        assert_eq!(
            json.get("setup_s").unwrap().get("unit").unwrap().as_str(),
            Some("s")
        );
        m.set("host.spin_ns", 1.0);
        assert!(m.to_json(&END_TO_END).unwrap_err().contains("host.spin_ns"));
    }
}
