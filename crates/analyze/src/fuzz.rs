//! Property-based scenario fuzzing with a differential analyzer↔checker
//! oracle.
//!
//! A seeded, deterministic generator ([`generate_scenario`]) produces
//! random valid-by-construction [`ScenarioModel`]s — random tree
//! topologies, random endpoint/relay program mixes built from the same
//! idioms as the `ipmedia_apps::models` registry, random goal
//! annotations, timers, and channel bindings. A campaign
//! ([`fuzz_campaign`]) runs the full static analyzer and the `mck` model
//! checker differentially over the registry's scenarios (its fixed
//! prefix) and then thousands of generated ones, and enforces two oracle
//! directions:
//!
//! 1. **Soundness** — an analyzer-clean scenario (no error-severity
//!    finding) must map onto no checker configuration with a
//!    counterexample. If the checker refutes a class the analyzer said
//!    nothing about, the analyzer missed a real defect.
//! 2. **Completeness** — a checker counterexample on a covered class
//!    must be matched by some `AZ5xx`/`AZ6xx` interprocedural finding;
//!    every miss is recorded as a [`Divergence`] for triage.
//!
//! Because generated scenarios are reduced to *covered classes*
//! (`(links, left goal, right goal)` triples, [`crate::covered_classes`])
//! the checker work is shared: a campaign of thousands of scenarios
//! typically unions to a few dozen unique classes, each checked once
//! under a depth-capped budget ([`ipmedia_mck::depth_capped_states`]).
//!
//! A third, self-checking property rides along: every generated scenario
//! must round-trip through the `.ipm` text form
//! ([`crate::to_ipm`] → [`crate::parse_scenario`]) unchanged.
//!
//! Divergences are delta-minimized by [`shrink_scenario`] into small
//! reproducer scenarios suitable for promotion to `examples/models/`
//! fixtures. Everything here is deterministic: the same campaign seed
//! yields byte-identical reports at any thread count (the same
//! slot-per-item pool discipline as [`crate::runner`]).

use crate::diag::Severity;
use crate::interproc::covered_classes;
use crate::{analyze_scenario, parse_scenario, to_ipm};
use ipmedia_core::hash::{SplitMix64, GOLDEN_GAMMA};
use ipmedia_core::path::{EndGoal, Topology};
use ipmedia_core::program::model::{
    GoalAnnotation, ModelEffect, ModelTrigger, ProgramModel, ScenarioModel, StateModel,
};
use ipmedia_core::GoalKind;
use ipmedia_mck::{budgeted, run_campaign_depth_capped, CheckConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The per-scenario seed for scenario `index` of a campaign: one
/// splitmix64 step off the campaign seed, so scenario streams from
/// different campaign seeds do not overlap trivially.
pub fn scenario_seed(campaign_seed: u64, index: u64) -> u64 {
    SplitMix64::new(campaign_seed.wrapping_add(index.wrapping_mul(GOLDEN_GAMMA))).next_u64()
}

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

/// Endpoint program shapes (attached to degree-1 boxes). Public so other
/// generators — the bench crate's call-storm harness draws its endpoint
/// feature mixes from the same library — stay in sync with the fuzzer's
/// role vocabulary.
pub const ENDPOINT_ROLES: [&str; 7] = [
    "unprogrammed",
    "answerer",
    "dialer",
    "holder",
    "hangup",
    "parked",
    "silent",
];

/// Relay program shapes (attached to interior boxes); public for the same
/// reason as [`ENDPOINT_ROLES`].
pub const RELAY_ROLES: [&str; 4] = ["relay_all", "gated_relay", "dial_through", "hold_relay"];

/// Generate one valid-by-construction scenario from a seed.
///
/// Structure: a random tree of 2–6 boxes (`b0`…) with 1–2 tunnels per
/// link; leaf boxes get endpoint programs (dialer / answerer / holder /
/// hangup / parked-resume / silent / none), interior boxes get relay
/// programs (always-linking, gated, dial-through, hold-relay — the same
/// shapes as the registry's `linking_server`/`dial_through` building
/// blocks). Channels are declared one per neighbor and explicitly bound,
/// so the topology passes are clean by construction: no `AZ001`/`AZ002`
/// structural errors and no `AZ4xx` well-formedness errors. *Semantic*
/// findings (`AZ2xx`/`AZ3xx`/`AZ5xx`/`AZ6xx`) arise naturally from the
/// program mix — silent peers opposite dialers, wedged holds upstream of
/// flowlinks — and that population is exactly what the differential
/// oracle cross-examines against the model checker.
pub fn generate_scenario(seed: u64) -> ScenarioModel {
    let mut rng = SplitMix64::new(seed);
    let n = 2 + rng.range(5); // 2..=6 boxes
    let boxes: Vec<String> = (0..n).map(|i| format!("b{i}")).collect();
    let mut topo = Topology::new();
    for b in &boxes {
        topo = topo.with_box(b.clone());
    }
    for (i, b) in boxes.iter().enumerate().skip(1) {
        let parent = rng.range(i);
        let tunnels = if rng.chance(1, 8) { 2 } else { 1 };
        topo = topo.with_link(boxes[parent].clone(), b.clone(), tunnels);
    }
    let mut sc = ScenarioModel::new(format!("fuzz_{seed:016x}")).with_topology(topo);

    for b in boxes.clone() {
        let neighbors: Vec<String> = sc
            .topology
            .neighbors(&b)
            .into_iter()
            .map(str::to_string)
            .collect();
        let built = if neighbors.len() == 1 {
            endpoint_program(&mut rng)
        } else {
            Some(relay_program(&mut rng, neighbors.len()))
        };
        let Some(program) = built else {
            continue; // unprogrammed pure endpoint: no program, no bindings
        };
        sc = sc.program(b.clone(), program);
        for (i, peer) in neighbors.iter().enumerate() {
            sc = sc.bind(b.clone(), format!("c{i}"), peer.clone());
        }
    }
    sc
}

/// Declare `count` channels `c0…` each carrying one slot `s0…`.
fn with_channels(mut m: ProgramModel, count: usize) -> ProgramModel {
    for i in 0..count {
        m = m
            .channel(format!("c{i}"))
            .slot(format!("s{i}"), Some(&format!("c{i}")));
    }
    m
}

/// One endpoint program (or `None` for an unprogrammed box), built over
/// channel `c0` / slot `s0`.
fn endpoint_program(rng: &mut SplitMix64) -> Option<ProgramModel> {
    let role = *rng.pick(&ENDPOINT_ROLES);
    let m = with_channels(ProgramModel::new(role), 1);
    let s0 = || "s0".to_string();
    match role {
        "unprogrammed" => None,
        "answerer" => {
            let mut linked = StateModel::new("linked")
                .final_state()
                .goal(GoalAnnotation::one(GoalKind::OpenSlot, "s0"));
            let mut m = m;
            let decorated = rng.chance(1, 4);
            if decorated {
                linked = linked.on(ModelTrigger::User("bye".into()), "parting", vec![]);
            }
            m = m
                .state(StateModel::new("idle").on(ModelTrigger::SlotOpened(s0()), "linked", vec![]))
                .state(linked);
            if decorated {
                m = m
                    .state(
                        StateModel::new("parting")
                            .goal(GoalAnnotation::one(GoalKind::CloseSlot, "s0"))
                            .on(ModelTrigger::SlotClosed(s0()), "done", vec![]),
                    )
                    .state(StateModel::new("done").final_state());
            }
            Some(m)
        }
        "dialer" => {
            let timed = rng.chance(1, 4);
            let mut start_effects = vec![ModelEffect::OpenChannel("c0".into())];
            let mut m = m;
            if timed {
                m = m.timer("t0");
                start_effects.push(ModelEffect::SetTimer("t0".into()));
            }
            let mut dialing = StateModel::new("dialing")
                .goal(GoalAnnotation::one(GoalKind::OpenSlot, "s0"))
                .on(ModelTrigger::SlotFlowing(s0()), "linked", vec![]);
            if timed {
                dialing = dialing.on(
                    ModelTrigger::Timer("t0".into()),
                    "gaveup",
                    vec![ModelEffect::CloseChannel("c0".into())],
                );
            }
            m = m
                .state(StateModel::new("idle").on(ModelTrigger::Start, "dialing", start_effects))
                .state(dialing)
                .state(
                    StateModel::new("linked")
                        .final_state()
                        .goal(GoalAnnotation::one(GoalKind::OpenSlot, "s0")),
                );
            if timed {
                m = m.state(StateModel::new("gaveup").final_state());
            }
            Some(m)
        }
        "holder" => Some(
            m.state(StateModel::new("idle").on(ModelTrigger::SlotOpened(s0()), "holding", vec![]))
                .state(
                    StateModel::new("holding")
                        .final_state()
                        .goal(GoalAnnotation::one(GoalKind::HoldSlot, "s0")),
                ),
        ),
        "hangup" => Some(
            m.state(StateModel::new("idle").on(ModelTrigger::SlotOpened(s0()), "closing", vec![]))
                .state(
                    StateModel::new("closing")
                        .goal(GoalAnnotation::one(GoalKind::CloseSlot, "s0"))
                        .on(ModelTrigger::SlotClosed(s0()), "done", vec![]),
                )
                .state(StateModel::new("done").final_state()),
        ),
        "parked" => Some(
            m.state(StateModel::new("idle").on(ModelTrigger::SlotOpened(s0()), "parked", vec![]))
                .state(
                    StateModel::new("parked")
                        .goal(GoalAnnotation::one(GoalKind::HoldSlot, "s0"))
                        .on(ModelTrigger::User("resume".into()), "talking", vec![]),
                )
                .state(
                    StateModel::new("talking")
                        .final_state()
                        .goal(GoalAnnotation::one(GoalKind::OpenSlot, "s0")),
                ),
        ),
        _ => Some(
            // "silent": programmed but never claims its slot.
            m.state(StateModel::new("idle").on(ModelTrigger::Start, "done", vec![]))
                .state(StateModel::new("done").final_state()),
        ),
    }
}

/// One relay program over `degree` channels, flowlinking slots `si`/`sj`
/// for a random distinct pair `(i, j)`. Extra slots (degree > 2) get an
/// `openSlot` claim at rest with probability 1/2 — the box doubles as an
/// endpoint toward those neighbors — and are otherwise left unclaimed.
fn relay_program(rng: &mut SplitMix64, degree: usize) -> ProgramModel {
    let role = *rng.pick(&RELAY_ROLES);
    let i = rng.range(degree);
    let j = (i + 1 + rng.range(degree - 1)) % degree;
    let (si, sj) = (format!("s{i}"), format!("s{j}"));
    let cj = format!("c{j}");
    let m = with_channels(ProgramModel::new(role), degree);
    // Claims for the pass-through slots this relay does not link.
    let extra_claims: Vec<GoalAnnotation> = (0..degree)
        .filter(|k| *k != i && *k != j)
        .filter(|_| rng.chance(1, 2))
        .map(|k| GoalAnnotation::one(GoalKind::OpenSlot, format!("s{k}")))
        .collect();
    let resting = |name: &str| {
        let mut st = StateModel::new(name)
            .final_state()
            .goal(GoalAnnotation::link(si.clone(), sj.clone()));
        for g in &extra_claims {
            st = st.goal(g.clone());
        }
        st
    };
    match role {
        "relay_all" => m.state(resting("linking")),
        "gated_relay" => m
            .state(StateModel::new("idle").on(
                ModelTrigger::SlotOpened(si.clone()),
                "linking",
                vec![ModelEffect::OpenChannel(cj)],
            ))
            .state(resting("linking")),
        "dial_through" => m
            .state(StateModel::new("idle").on(
                ModelTrigger::SlotOpened(si.clone()),
                "dialing",
                vec![ModelEffect::OpenChannel(cj.clone())],
            ))
            .state(
                StateModel::new("dialing")
                    .goal(GoalAnnotation::one(GoalKind::HoldSlot, si.clone()))
                    .on(ModelTrigger::ChannelUp(cj), "linked", vec![]),
            )
            .state(resting("linked")),
        _ => {
            // "hold_relay": parks the upstream slot first. Escapable holds
            // resume into a flowlink; wedged ones rest held forever — the
            // AZ503 population when something downstream wants flow.
            let escapable = rng.chance(3, 4);
            let mut held =
                StateModel::new("held").goal(GoalAnnotation::one(GoalKind::HoldSlot, si.clone()));
            if escapable {
                held = held.on(ModelTrigger::User("resume".into()), "linking", vec![]);
            } else {
                held = held.final_state();
            }
            let mut m = m.state(StateModel::new("idle").on(
                ModelTrigger::SlotOpened(si.clone()),
                "held",
                vec![ModelEffect::OpenChannel(cj)],
            ));
            m = m.state(held);
            if escapable {
                m = m.state(resting("linking"));
            }
            m
        }
    }
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

/// A covered-class key: `(links, left goal, right goal)` — the shape
/// [`crate::covered_classes`] normalizes scenarios onto, and the unit the
/// checker budget is shared across.
pub type ClassKey = (usize, EndGoal, EndGoal);

/// The checker's answer for one class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassVerdict {
    /// A safety or spec counterexample exists (within the explored prefix).
    pub counterexample: bool,
    /// The exploration cap was hit, so a clean result is only
    /// "no counterexample found so far".
    pub truncated: bool,
    /// States expanded.
    pub expanded: usize,
}

/// The oracle's view of the model checker: verdicts per covered class.
/// The mck-backed implementation is [`MckChecker`]; tests substitute
/// fakes to exercise both divergence directions.
pub trait ClassChecker {
    /// Verdict for one class.
    fn check(&mut self, key: ClassKey) -> ClassVerdict;

    /// Warm the checker for a batch of classes (hook for parallel
    /// backends; the default just checks serially).
    fn batch(&mut self, keys: &[ClassKey], _threads: usize) {
        for k in keys {
            self.check(*k);
        }
    }
}

/// The real oracle: each class key maps onto one
/// [`ipmedia_mck::CheckConfig`] (`flowlinks = links − 1`, minimal phase-1
/// budgets) explored under a depth-capped state budget, with verdicts
/// memoized so campaign-scale fan-in and shrinking both reuse results.
pub struct MckChecker {
    base: usize,
    cache: BTreeMap<ClassKey, ClassVerdict>,
}

impl MckChecker {
    /// New checker with a base exploration budget (states) for shallow
    /// classes; deeper classes get [`ipmedia_mck::depth_capped_states`]
    /// fractions of it.
    pub fn new(base: usize) -> Self {
        Self {
            base,
            cache: BTreeMap::new(),
        }
    }

    /// Number of distinct classes checked so far.
    pub fn checked(&self) -> usize {
        self.cache.len()
    }
}

impl ClassChecker for MckChecker {
    fn check(&mut self, key: ClassKey) -> ClassVerdict {
        self.batch(&[key], 1);
        self.cache[&key]
    }

    fn batch(&mut self, keys: &[ClassKey], threads: usize) {
        let missing: Vec<ClassKey> = keys
            .iter()
            .copied()
            .filter(|k| !self.cache.contains_key(k))
            .collect();
        let cfgs: Vec<CheckConfig> = missing
            .iter()
            .map(|k| budgeted(k.0.saturating_sub(1), k.1, k.2, 0))
            .collect();
        let results = run_campaign_depth_capped(&cfgs, self.base, threads);
        for (k, r) in missing.into_iter().zip(results) {
            let verdict = ClassVerdict {
                counterexample: r.verdict_class().is_counterexample(),
                truncated: r.truncated,
                expanded: r.expanded,
            };
            self.cache.insert(k, verdict);
        }
    }
}

/// Human-readable label for a class key, e.g. `links=2 open/hold`.
pub fn class_label(key: ClassKey) -> String {
    let g = |e: EndGoal| match e {
        EndGoal::Open => "open",
        EndGoal::Close => "close",
        EndGoal::Hold => "hold",
    };
    format!("links={} {}/{}", key.0, g(key.1), g(key.2))
}

/// The sorted, deduplicated class keys a scenario covers (up to
/// [`crate::interproc::MAX_COVERED_LINKS`] path length).
pub fn class_keys(sc: &ScenarioModel) -> Vec<ClassKey> {
    let set: BTreeSet<ClassKey> = covered_classes(sc)
        .into_iter()
        .map(|c| (c.links, c.left, c.right))
        .collect();
    set.into_iter().collect()
}

// ---------------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------------

/// Which oracle direction a divergence violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// `to_ipm` → `parse_scenario` did not reproduce the model.
    RoundTrip,
    /// Analyzer-clean scenario, but the checker refuted a covered class.
    Soundness,
    /// Checker counterexample on a covered class, but no `AZ5xx`/`AZ6xx`
    /// finding explains it.
    Completeness,
    /// The analyzer (or generator) panicked on a generated input.
    Panic,
}

impl DivergenceKind {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            DivergenceKind::RoundTrip => "roundtrip",
            DivergenceKind::Soundness => "soundness",
            DivergenceKind::Completeness => "completeness",
            DivergenceKind::Panic => "panic",
        }
    }
}

/// Where a campaign scenario came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Origin {
    /// A built-in registry scenario (the campaign's fixed prefix), by name.
    Registry(String),
    /// A generated scenario, by its seed.
    Seed(u64),
}

impl std::fmt::Display for Origin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Origin::Registry(name) => write!(f, "registry scenario {name}"),
            Origin::Seed(seed) => write!(f, "scenario seed {seed:#018x}"),
        }
    }
}

/// One analyzer↔checker divergence, with its delta-minimized reproducer
/// when shrinking was enabled and succeeded.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Direction violated.
    pub kind: DivergenceKind,
    /// The scenario that produced it.
    pub origin: Origin,
    /// One-line description (class label, codes seen, …).
    pub detail: String,
    /// The offending scenario as generated.
    pub scenario: ScenarioModel,
    /// The shrunken reproducer, if minimization ran.
    pub minimized: Option<ScenarioModel>,
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of scenarios to generate after the registry prefix.
    pub scenarios: usize,
    /// Campaign seed (scenario `i` uses [`scenario_seed`]`(seed, i)`).
    pub seed: u64,
    /// Worker threads for generation/analysis and the checker batch
    /// (`0` = all cores). Results are identical at any value.
    pub threads: usize,
    /// Base checker budget in states (see [`MckChecker::new`]).
    pub max_states: usize,
    /// Delta-minimize at most this many divergences.
    pub shrink_cap: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            scenarios: 2_000,
            seed: 0xF022_DA7A,
            threads: 0,
            max_states: 2_000_000,
            shrink_cap: 8,
        }
    }
}

/// What one scenario contributed to the campaign.
#[derive(Debug, Clone)]
pub struct ScenarioRecord {
    /// Where the scenario came from.
    pub origin: Origin,
    /// The scenario as analyzed (empty if generating it panicked).
    pub scenario: ScenarioModel,
    /// Sorted, deduplicated error-severity codes.
    pub error_codes: Vec<String>,
    /// Sorted, deduplicated codes at any severity.
    pub codes: Vec<String>,
    /// The class keys it covers ([`class_keys`]).
    pub classes: Vec<ClassKey>,
    /// The `.ipm` round trip reproduced it.
    pub roundtrip_ok: bool,
    /// The generator or the analyzer panicked on it.
    pub panicked: bool,
}

/// Campaign outcome: aggregate statistics plus every divergence found.
/// The statistics count the generated scenarios; the registry prefix is
/// reported per scenario in [`FuzzReport::registry`].
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Campaign seed.
    pub campaign_seed: u64,
    /// The registry prefix, one record per scenario in registry order.
    pub registry: Vec<ScenarioRecord>,
    /// Scenarios generated.
    pub scenarios: usize,
    /// Scenarios with no error-severity finding.
    pub clean: usize,
    /// Clean scenarios whose covered classes were all explored to
    /// exhaustion: the checker's agreement is a verdict.
    pub clean_confirmed: usize,
    /// Clean scenarios covering at least one truncated class: the checker
    /// found nothing in a prefix, so agreement is unknown.
    pub clean_unknown: usize,
    /// Scenarios with at least one error-severity finding.
    pub with_errors: usize,
    /// Scenarios failing the `.ipm` round-trip property.
    pub roundtrip_failures: usize,
    /// Scenarios per diagnostic code (counted once per scenario).
    pub code_counts: BTreeMap<String, usize>,
    /// Scenarios covering each class key.
    pub class_counts: BTreeMap<ClassKey, usize>,
    /// Checker verdict per unique class, in key order.
    pub checked: Vec<(ClassKey, ClassVerdict)>,
    /// Every oracle violation, in scenario order.
    pub divergences: Vec<Divergence>,
}

/// Promote every divergence in `report` into `dir` as a committed-fixture
/// candidate: the delta-minimized reproducer (falling back to the
/// as-generated scenario) written as `fuzz_promoted_<kind>_<seed>.ipm`
/// (`<name>` in place of `<seed>` for a registry scenario) with a
/// `#`-comment triage note. Promoted files re-parse with
/// [`parse_scenario`] (comments are ignored), so `planted.rs` can
/// register them directly. Returns the written paths, divergence order.
pub fn promote_divergences(
    report: &FuzzReport,
    dir: &std::path::Path,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    use std::fmt::Write as _;
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::new();
    for d in &report.divergences {
        let repro = d.minimized.as_ref().unwrap_or(&d.scenario);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# fuzz-promoted divergence reproducer ({})",
            d.kind.name()
        );
        let _ = writeln!(
            out,
            "# campaign seed {:#018x}, {}",
            report.campaign_seed, d.origin
        );
        let _ = writeln!(out, "# detail: {}", d.detail.replace('\n', " "));
        let _ = writeln!(
            out,
            "# weight {} -> {} after delta-minimization",
            scenario_weight(&d.scenario),
            scenario_weight(repro)
        );
        out.push_str(&to_ipm(repro));
        let tag = match &d.origin {
            Origin::Registry(name) => name.clone(),
            Origin::Seed(seed) => format!("{seed:016x}"),
        };
        let path = dir.join(format!("fuzz_promoted_{}_{tag}.ipm", d.kind.name()));
        std::fs::write(&path, &out)?;
        paths.push(path);
    }
    Ok(paths)
}

impl FuzzReport {
    /// True iff the campaign found no divergence in either direction.
    pub fn is_clean_run(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Classes whose exploration stopped at its state cap: no
    /// counterexample in the explored prefix, which is less than a pass.
    pub fn classes_truncated(&self) -> usize {
        self.checked.iter().filter(|(_, v)| v.truncated).count()
    }

    /// Classes explored to exhaustion, whose verdict is final.
    pub fn classes_exhaustive(&self) -> usize {
        self.checked.len() - self.classes_truncated()
    }
}

/// Analyze one scenario into its campaign record.
fn record_for(origin: Origin, sc: ScenarioModel) -> ScenarioRecord {
    let diags = analyze_scenario(&sc);
    let mut error_codes: Vec<String> = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.code.to_string())
        .collect();
    error_codes.sort();
    error_codes.dedup();
    let mut codes: Vec<String> = diags.iter().map(|d| d.code.to_string()).collect();
    codes.sort();
    codes.dedup();
    let classes = class_keys(&sc);
    let roundtrip_ok = parse_scenario(&to_ipm(&sc)).is_ok_and(|p| p == sc);
    ScenarioRecord {
        origin,
        scenario: sc,
        error_codes,
        codes,
        classes,
        roundtrip_ok,
        panicked: false,
    }
}

/// Does this record's code set contain an interprocedural finding that
/// could explain a checker counterexample?
fn has_interproc_finding(codes: &[String]) -> bool {
    codes
        .iter()
        .any(|c| c.starts_with("AZ5") || c.starts_with("AZ6"))
}

/// Run a full differential campaign over the registry
/// (`ipmedia_apps::models::all_scenarios()`, always, first) and then
/// [`FuzzConfig::scenarios`] generated scenarios. Phases:
///
/// 1. generate + analyze + round-trip every scenario (parallel,
///    slot-per-index, deterministic),
/// 2. union covered classes and batch-check them once,
/// 3. cross-examine analyzer and checker per scenario,
/// 4. delta-minimize the first [`FuzzConfig::shrink_cap`] divergences.
pub fn fuzz_campaign(cfg: &FuzzConfig, checker: &mut dyn ClassChecker) -> FuzzReport {
    let registry = ipmedia_apps::models::all_scenarios();
    let prefix = registry.len();

    // Phase 1: one record slot per scenario; any panic becomes a
    // divergence rather than tearing the campaign down.
    let mut records = ipmedia_core::par::slot_map(cfg.threads, prefix + cfg.scenarios, |i| {
        let origin = match registry.get(i) {
            Some(sc) => Origin::Registry(sc.name.clone()),
            None => Origin::Seed(scenario_seed(cfg.seed, (i - prefix) as u64)),
        };
        let build = || match &origin {
            Origin::Registry(_) => registry[i].clone(),
            Origin::Seed(seed) => generate_scenario(*seed),
        };
        catch_unwind(AssertUnwindSafe(|| record_for(origin.clone(), build()))).unwrap_or_else(
            |_| ScenarioRecord {
                origin: origin.clone(),
                scenario: ScenarioModel::default(),
                error_codes: Vec::new(),
                codes: Vec::new(),
                classes: Vec::new(),
                roundtrip_ok: true,
                panicked: true,
            },
        )
    });

    // Phase 2: one checker run per unique class.
    let union: BTreeSet<ClassKey> = records.iter().flat_map(|r| r.classes.clone()).collect();
    let keys: Vec<ClassKey> = union.into_iter().collect();
    checker.batch(&keys, cfg.threads);
    let checked: Vec<(ClassKey, ClassVerdict)> =
        keys.iter().map(|k| (*k, checker.check(*k))).collect();
    let verdicts: BTreeMap<ClassKey, ClassVerdict> = checked.iter().copied().collect();

    // Phase 3: cross-examination; the statistics count generated
    // scenarios only.
    let mut divergences = Vec::new();
    let mut report = FuzzReport {
        campaign_seed: cfg.seed,
        registry: Vec::new(),
        scenarios: cfg.scenarios,
        clean: 0,
        clean_confirmed: 0,
        clean_unknown: 0,
        with_errors: 0,
        roundtrip_failures: 0,
        code_counts: BTreeMap::new(),
        class_counts: BTreeMap::new(),
        checked,
        divergences: Vec::new(),
    };
    for rec in &records {
        let mut diverge = |kind, detail: String| {
            divergences.push(Divergence {
                kind,
                origin: rec.origin.clone(),
                detail,
                scenario: rec.scenario.clone(),
                minimized: None,
            });
        };
        if rec.panicked {
            diverge(
                DivergenceKind::Panic,
                "generator or analyzer panicked".into(),
            );
            continue;
        }
        if let Origin::Seed(_) = rec.origin {
            if rec.error_codes.is_empty() {
                report.clean += 1;
                if rec
                    .classes
                    .iter()
                    .any(|k| verdicts.get(k).is_some_and(|v| v.truncated))
                {
                    report.clean_unknown += 1;
                } else {
                    report.clean_confirmed += 1;
                }
            } else {
                report.with_errors += 1;
            }
            for c in &rec.codes {
                *report.code_counts.entry(c.clone()).or_insert(0) += 1;
            }
            for k in &rec.classes {
                *report.class_counts.entry(*k).or_insert(0) += 1;
            }
            report.roundtrip_failures += usize::from(!rec.roundtrip_ok);
        }
        if !rec.roundtrip_ok {
            diverge(
                DivergenceKind::RoundTrip,
                "to_ipm → parse_scenario did not reproduce the model".into(),
            );
        }
        let refuted = rec
            .classes
            .iter()
            .find(|k| verdicts.get(k).is_some_and(|v| v.counterexample));
        if let Some(k) = refuted {
            if rec.error_codes.is_empty() {
                diverge(
                    DivergenceKind::Soundness,
                    format!(
                        "analyzer-clean scenario maps onto refuted class {}",
                        class_label(*k)
                    ),
                );
            } else if !has_interproc_finding(&rec.codes) {
                diverge(
                    DivergenceKind::Completeness,
                    format!(
                        "checker refuted class {} but no AZ5xx/AZ6xx finding explains it (codes: {})",
                        class_label(*k),
                        rec.codes.join(", ")
                    ),
                );
            }
        }
    }

    // Phase 4: shrink the first few divergences to small reproducers.
    for (i, d) in divergences.iter_mut().enumerate() {
        if i >= cfg.shrink_cap || d.kind == DivergenceKind::Panic {
            continue;
        }
        let kind = d.kind;
        let mut pred = |sc: &ScenarioModel| divergence_reproduces(kind, sc, checker);
        d.minimized = Some(shrink_scenario(&d.scenario, &mut pred));
    }
    records.truncate(prefix);
    report.registry = records;
    report.divergences = divergences;
    report
}

/// Does `sc` still exhibit a divergence of the given kind? (The shrink
/// predicate for [`fuzz_campaign`]'s minimization phase.)
pub fn divergence_reproduces(
    kind: DivergenceKind,
    sc: &ScenarioModel,
    checker: &mut dyn ClassChecker,
) -> bool {
    match kind {
        DivergenceKind::RoundTrip => !parse_scenario(&to_ipm(sc)).is_ok_and(|p| p == *sc),
        DivergenceKind::Panic => catch_unwind(AssertUnwindSafe(|| analyze_scenario(sc))).is_err(),
        DivergenceKind::Soundness | DivergenceKind::Completeness => {
            let diags = analyze_scenario(sc);
            let clean = diags.iter().all(|d| d.severity != Severity::Error);
            let codes: Vec<String> = diags.iter().map(|d| d.code.to_string()).collect();
            let refuted = class_keys(sc)
                .into_iter()
                .any(|k| checker.check(k).counterexample);
            if kind == DivergenceKind::Soundness {
                clean && refuted
            } else {
                refuted && !has_interproc_finding(&codes)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shrinker
// ---------------------------------------------------------------------------

/// Structural weight of a scenario: total element count across topology,
/// programs, and bindings. The shrinker only accepts strictly
/// weight-decreasing steps, so it terminates.
pub fn scenario_weight(sc: &ScenarioModel) -> usize {
    let mut w = sc.topology.boxes.len() + sc.topology.links.len() + sc.bindings.len();
    for (_, m) in &sc.programs {
        w += 1 + m.slots.len() + m.channels.len() + m.timers.len();
        for st in &m.states {
            w += 1 + st.goals.len();
            for t in &st.transitions {
                w += 1 + t.effects.len();
            }
        }
    }
    w
}

/// Every single-step reduction of `sc`, in a fixed deterministic order:
/// drop a box, a program, a binding, a state, a transition, a goal, an
/// effect, or an unreferenced declaration.
fn shrink_candidates(sc: &ScenarioModel) -> Vec<ScenarioModel> {
    let mut out = Vec::new();
    for b in &sc.topology.boxes {
        let mut c = sc.clone();
        if c.remove_box(b) {
            out.push(c);
        }
    }
    for (b, _) in &sc.programs {
        let mut c = sc.clone();
        if c.remove_program(b) {
            out.push(c);
        }
    }
    for i in 0..sc.bindings.len() {
        let mut c = sc.clone();
        c.bindings.remove(i);
        out.push(c);
    }
    for (pi, (_, m)) in sc.programs.iter().enumerate() {
        for st in &m.states {
            if st.name == m.initial {
                continue;
            }
            let mut c = sc.clone();
            if c.programs[pi].1.remove_state(&st.name) {
                out.push(c);
            }
        }
        for (si, st) in m.states.iter().enumerate() {
            for ti in 0..st.transitions.len() {
                let mut c = sc.clone();
                c.programs[pi].1.states[si].transitions.remove(ti);
                out.push(c);
            }
            for gi in 0..st.goals.len() {
                let mut c = sc.clone();
                c.programs[pi].1.states[si].goals.remove(gi);
                out.push(c);
            }
            for (ti, t) in st.transitions.iter().enumerate() {
                for ei in 0..t.effects.len() {
                    let mut c = sc.clone();
                    c.programs[pi].1.states[si].transitions[ti]
                        .effects
                        .remove(ei);
                    out.push(c);
                }
            }
        }
        for decl in unreferenced_decls(sc, m) {
            let mut c = sc.clone();
            let p = &mut c.programs[pi].1;
            match decl {
                Decl::Slot(ref s) => p.slots.retain(|d| &d.name != s),
                Decl::Channel(ref ch) => p.channels.retain(|d| d != ch),
                Decl::Timer(ref t) => p.timers.retain(|d| d != t),
            }
            out.push(c);
        }
    }
    out
}

/// A removable declaration.
enum Decl {
    Slot(String),
    Channel(String),
    Timer(String),
}

/// Declarations of `m` (attached to box `_b` in `sc`) that nothing
/// references: no trigger, effect, goal, slot-ride, or binding.
fn unreferenced_decls(sc: &ScenarioModel, m: &ProgramModel) -> Vec<Decl> {
    let mut used_slots = BTreeSet::new();
    let mut used_channels = BTreeSet::new();
    let mut used_timers = BTreeSet::new();
    for st in &m.states {
        for g in &st.goals {
            used_slots.extend(g.slots.iter().cloned());
        }
        for t in &st.transitions {
            if let Some(s) = t.trigger.slot() {
                used_slots.insert(s.to_string());
            }
            if let Some(c) = t.trigger.channel() {
                used_channels.insert(c.to_string());
            }
            if let Some(tm) = t.trigger.timer() {
                used_timers.insert(tm.to_string());
            }
            for e in &t.effects {
                match e {
                    ModelEffect::OpenChannel(c) | ModelEffect::CloseChannel(c) => {
                        used_channels.insert(c.clone());
                    }
                    ModelEffect::UserAction { slot, .. } => {
                        used_slots.insert(slot.clone());
                    }
                    ModelEffect::SetTimer(t) | ModelEffect::CancelTimer(t) => {
                        used_timers.insert(t.clone());
                    }
                    ModelEffect::Terminate => {}
                }
            }
        }
    }
    for s in &m.slots {
        if let Some(c) = &s.channel {
            if used_slots.contains(&s.name) {
                used_channels.insert(c.clone());
            }
        }
    }
    for b in &sc.bindings {
        used_channels.insert(b.channel.clone());
    }
    let mut out = Vec::new();
    for s in &m.slots {
        if !used_slots.contains(&s.name) {
            out.push(Decl::Slot(s.name.clone()));
        }
    }
    for c in &m.channels {
        if !used_channels.contains(c) {
            out.push(Decl::Channel(c.clone()));
        }
    }
    for t in &m.timers {
        if !used_timers.contains(t) {
            out.push(Decl::Timer(t.clone()));
        }
    }
    out
}

/// Greedy deterministic delta-minimization with [`ipmedia_core::shrink`]:
/// the candidates are [`shrink_candidates`] that strictly decrease
/// [`scenario_weight`], in that order. The input is returned unchanged if
/// it is not interesting to begin with.
pub fn shrink_scenario(
    sc: &ScenarioModel,
    interesting: &mut dyn FnMut(&ScenarioModel) -> bool,
) -> ScenarioModel {
    if !interesting(sc) {
        return sc.clone();
    }
    let lighter = |c: &ScenarioModel| {
        let w = scenario_weight(c);
        shrink_candidates(c)
            .into_iter()
            .filter(move |cand| scenario_weight(cand) < w)
    };
    ipmedia_core::shrink(sc.clone(), lighter, interesting)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wellformed;

    #[test]
    fn rng_is_deterministic_and_spread() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let distinct: BTreeSet<u64> = xs.iter().copied().collect();
        assert_eq!(distinct.len(), xs.len());
    }

    #[test]
    fn generated_scenarios_are_valid_by_construction() {
        for i in 0..300 {
            let sc = generate_scenario(scenario_seed(1, i));
            for (b, m) in &sc.programs {
                assert!(
                    m.validate().is_empty(),
                    "seed {i} box {b}: {:?}",
                    m.validate()
                );
                assert!(m.is_deterministic(), "seed {i} box {b}");
            }
            let topo_errors: Vec<_> = wellformed::analyze(&sc)
                .into_iter()
                .filter(|d| d.severity == Severity::Error)
                .collect();
            assert!(topo_errors.is_empty(), "seed {i}: {topo_errors:?}");
        }
    }

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        let s = scenario_seed(42, 3);
        assert_eq!(generate_scenario(s), generate_scenario(s));
        assert_ne!(
            generate_scenario(scenario_seed(42, 3)),
            generate_scenario(scenario_seed(42, 4))
        );
    }

    /// A fake checker with scripted verdicts, for oracle-direction tests.
    struct Scripted {
        refuted: BTreeSet<ClassKey>,
        /// Classes with at least this many flowlinks hit the state cap.
        truncated_from: usize,
    }

    impl ClassChecker for Scripted {
        fn check(&mut self, key: ClassKey) -> ClassVerdict {
            ClassVerdict {
                counterexample: self.refuted.contains(&key),
                truncated: key.0 >= self.truncated_from,
                expanded: 1,
            }
        }
    }

    #[test]
    fn soundness_direction_fires_when_checker_refutes_a_clean_scenario() {
        // Make every class refuted: any clean scenario that covers at
        // least one class must produce a Soundness divergence.
        let mut refuted = BTreeSet::new();
        for links in 1..=4 {
            for l in [EndGoal::Open, EndGoal::Close, EndGoal::Hold] {
                for r in [EndGoal::Open, EndGoal::Close, EndGoal::Hold] {
                    refuted.insert((links, l, r));
                }
            }
        }
        let mut checker = Scripted {
            refuted,
            truncated_from: usize::MAX,
        };
        let cfg = FuzzConfig {
            scenarios: 60,
            seed: 11,
            threads: 1,
            shrink_cap: 0,
            ..FuzzConfig::default()
        };
        let report = fuzz_campaign(&cfg, &mut checker);
        assert!(report.clean > 0, "campaign produced no clean scenarios");
        assert!(
            report
                .divergences
                .iter()
                .any(|d| d.kind == DivergenceKind::Soundness),
            "no soundness divergence despite universally refuting checker"
        );
        // And the dual: findings-bearing scenarios without AZ5xx/AZ6xx
        // explanations surface as completeness misses.
        assert!(report.divergences.iter().all(|d| matches!(
            d.kind,
            DivergenceKind::Soundness | DivergenceKind::Completeness
        )));
    }

    #[test]
    fn honest_checker_yields_no_divergence_on_a_small_campaign() {
        let mut checker = Scripted {
            refuted: BTreeSet::new(),
            truncated_from: 2,
        };
        let cfg = FuzzConfig {
            scenarios: 40,
            seed: 5,
            threads: 1,
            shrink_cap: 0,
            ..FuzzConfig::default()
        };
        let report = fuzz_campaign(&cfg, &mut checker);
        assert!(report.is_clean_run(), "{:?}", report.divergences);
        assert_eq!(report.scenarios, 40);
        assert_eq!(report.clean + report.with_errors, 40);
        assert_eq!(report.roundtrip_failures, 0);
        // A clean run says how much of it was checked to exhaustion.
        let deep = report.checked.iter().filter(|(k, _)| k.0 >= 2).count();
        assert!(0 < deep && deep < report.checked.len());
        assert_eq!(report.classes_truncated(), deep);
        assert_eq!(report.classes_exhaustive(), report.checked.len() - deep);
    }

    #[test]
    fn clean_scenarios_on_truncated_classes_are_unknown() {
        let cfg = FuzzConfig {
            scenarios: 40,
            seed: 5,
            threads: 1,
            shrink_cap: 0,
            ..FuzzConfig::default()
        };
        let run = |truncated_from| {
            let mut checker = Scripted {
                refuted: BTreeSet::new(),
                truncated_from,
            };
            fuzz_campaign(&cfg, &mut checker)
        };
        let exhaustive = run(usize::MAX);
        assert_eq!(exhaustive.clean_confirmed, exhaustive.clean);
        assert_eq!(exhaustive.clean_unknown, 0);

        // Classes of two links or more stop at the cap: a clean scenario
        // covering one of them is unknown, whatever else it covers.
        let capped = run(2);
        assert_eq!(capped.clean, exhaustive.clean);
        assert_eq!(capped.clean_confirmed + capped.clean_unknown, capped.clean);
        let on_truncated = (0..cfg.scenarios as u64)
            .map(|i| generate_scenario(scenario_seed(cfg.seed, i)))
            .filter(|sc| {
                analyze_scenario(sc)
                    .iter()
                    .all(|d| d.severity != Severity::Error)
                    && class_keys(sc).iter().any(|k| k.0 >= 2)
            })
            .count();
        assert!(0 < on_truncated && on_truncated < capped.clean);
        assert_eq!(capped.clean_unknown, on_truncated);
    }

    #[test]
    fn campaign_reports_are_identical_across_thread_counts() {
        let run = |threads| {
            let mut checker = Scripted {
                refuted: BTreeSet::new(),
                truncated_from: usize::MAX,
            };
            let cfg = FuzzConfig {
                scenarios: 50,
                seed: 99,
                threads,
                shrink_cap: 0,
                ..FuzzConfig::default()
            };
            let r = fuzz_campaign(&cfg, &mut checker);
            (r.clean, r.with_errors, r.code_counts, r.class_counts)
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn the_registry_is_the_campaign_prefix_outside_its_counts() {
        let mut checker = Scripted {
            refuted: BTreeSet::new(),
            truncated_from: usize::MAX,
        };
        let cfg = FuzzConfig {
            scenarios: 0,
            threads: 1,
            ..FuzzConfig::default()
        };
        let report = fuzz_campaign(&cfg, &mut checker);
        let origins: Vec<Origin> = report.registry.iter().map(|r| r.origin.clone()).collect();
        let names: Vec<Origin> = ipmedia_apps::models::all_scenarios()
            .into_iter()
            .map(|sc| Origin::Registry(sc.name))
            .collect();
        assert_eq!(origins, names);
        assert!(report.registry.iter().all(|r| !r.classes.is_empty()));
        assert!(!report.checked.is_empty());
        assert_eq!(
            (report.scenarios, report.clean, report.with_errors),
            (0, 0, 0)
        );
        assert!(report.class_counts.is_empty() && report.code_counts.is_empty());
        assert!(report.is_clean_run(), "{:?}", report.divergences);
    }

    #[test]
    fn a_refuted_registry_class_is_a_soundness_divergence_naming_the_scenario() {
        // One flowlink-free open/open path: covered by `verify` alone.
        let mut checker = Scripted {
            refuted: [(1, EndGoal::Open, EndGoal::Open)].into(),
            truncated_from: usize::MAX,
        };
        let cfg = FuzzConfig {
            scenarios: 0,
            threads: 1,
            shrink_cap: 1,
            ..FuzzConfig::default()
        };
        let report = fuzz_campaign(&cfg, &mut checker);
        let [d] = &report.divergences[..] else {
            panic!("{:?}", report.divergences);
        };
        assert_eq!(d.kind, DivergenceKind::Soundness);
        assert_eq!(d.origin, Origin::Registry("verify".into()));
        assert!(d.minimized.is_some());

        let dir = std::env::temp_dir().join(format!("ipm-promote-registry-{}", std::process::id()));
        let paths = promote_divergences(&report, &dir).expect("promote writes");
        let text = std::fs::read_to_string(&paths[0]).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(paths[0].ends_with("fuzz_promoted_soundness_verify.ipm"));
        assert!(
            text.contains("# campaign seed 0x00000000f022da7a, registry scenario verify\n"),
            "{text}"
        );
    }

    #[test]
    fn shrinker_minimizes_to_a_small_reproducer() {
        // Interest: the scenario still has a box with a program whose
        // some state carries a holdSlot goal. The shrinker should strip
        // everything else.
        let sc = generate_scenario(
            (0..1_000)
                .map(|i| scenario_seed(7, i))
                .find(|s| {
                    let sc = generate_scenario(*s);
                    sc.programs.iter().any(|(_, m)| {
                        m.states
                            .iter()
                            .any(|st| st.goals.iter().any(|g| g.kind == GoalKind::HoldSlot))
                    }) && sc.topology.boxes.len() >= 4
                })
                .expect("a holdy scenario exists"),
        );
        let mut pred = |c: &ScenarioModel| {
            c.programs.iter().any(|(_, m)| {
                m.states
                    .iter()
                    .any(|st| st.goals.iter().any(|g| g.kind == GoalKind::HoldSlot))
            })
        };
        let small = shrink_scenario(&sc, &mut pred);
        assert!(pred(&small));
        assert!(scenario_weight(&small) < scenario_weight(&sc));
        // The reproducer keeps exactly what the predicate needs: one box.
        assert_eq!(small.topology.boxes.len(), 1, "{small:?}");
        assert_eq!(small.programs.len(), 1);
    }

    #[test]
    fn shrinker_returns_input_when_not_interesting() {
        let sc = generate_scenario(scenario_seed(1, 0));
        let mut never = |_: &ScenarioModel| false;
        assert_eq!(shrink_scenario(&sc, &mut never), sc);
    }

    #[test]
    fn mck_checker_memoizes_class_verdicts() {
        let mut checker = MckChecker::new(50_000);
        let key = (1, EndGoal::Close, EndGoal::Close);
        let first = checker.check(key);
        assert_eq!(checker.checked(), 1);
        let second = checker.check(key);
        assert_eq!(first, second);
        assert_eq!(checker.checked(), 1);
        assert!(
            !first.counterexample,
            "close/close passes the paper campaign"
        );
    }
}
