//! Run the §VIII-A verification campaign.
//!
//! Usage: `campaign [budget_scale] [max_links] [max_states] [--threads N]`
//!
//! `--threads 0` means one campaign worker per available core. Stdout
//! carries one JSON record per checked configuration (the workspace JSONL
//! convention); the aligned results table goes to stderr. When a check
//! fails, the counterexample trace is minimized and rendered as a
//! Fig.-10-style ladder on stderr. A truncated exploration is surfaced as
//! TRUNCATED (and a non-zero exit) — never as a clean pass.

use ipmedia_mck::{
    campaign_configs, check_path, invariant_code, minimize_counterexample, render_table,
    render_trace, run_campaign,
};
use std::time::Instant;

const USAGE: &str = "usage: campaign [budget_scale] [max_links] [max_states] [--threads N]   \
(--threads 0 = one worker per core; default 1)";

fn main() {
    let mut flags = ipmedia_core::cli::Flags::from_env(USAGE);
    let threads: usize = flags.value("--threads").unwrap_or(1);
    let scale: u8 = flags.positional("budget_scale").unwrap_or(0);
    let max_links: usize = flags.positional("max_links").unwrap_or(1);
    let max_states: usize = flags.positional("max_states").unwrap_or(5_000_000);
    flags.done();

    let cfgs = campaign_configs(scale, max_links, &[0]);
    let start = Instant::now();
    let results = run_campaign(&cfgs, max_states, threads);
    let wall = start.elapsed();

    let mut failures = 0usize;
    for (cfg, res) in cfgs.iter().zip(&results) {
        eprintln!(
            "checked {} links={}: {} states in {:.2}s [{}]",
            res.path_type,
            res.links,
            res.states,
            res.elapsed.as_secs_f64(),
            res.verdict()
        );

        let mut rec = res.record();
        let violation = res.safety.as_ref().err().or(res.spec_result.as_ref().err());
        if let Some(v) = violation {
            let code = invariant_code(res.spec, v);
            rec = rec.str("violation", &v.to_string());
            // The same code the runtime monitor emits for this class of
            // divergence, so static and live findings are diffable.
            rec = rec.str("invariant_code", code);
            // Campaign workers drop their graphs; failures are rare enough
            // that re-exploring just the failed config to reconstruct and
            // minimize its trace is cheaper than keeping every graph alive.
            let (_, g) = check_path(cfg, max_states);
            let trace = minimize_counterexample(cfg, &g, res.spec, v);
            rec = rec.num("counterexample_len", trace.len() as u64);
            eprintln!(
                "[{}] minimal counterexample for {} links={} ({} steps):\n{}",
                code,
                res.path_type,
                res.links,
                trace.len(),
                render_trace(cfg, &trace)
            );
        }
        println!("{}", rec.finish());

        if !res.passed() {
            failures += 1;
        }
    }
    eprintln!("{}", render_table(&results));
    eprintln!(
        "campaign: {} configs in {:.2}s wall ({} worker thread(s))",
        results.len(),
        wall.as_secs_f64(),
        ipmedia_core::par::resolve(threads)
    );
    if failures > 0 {
        eprintln!("{failures} configuration(s) did not pass (failed or truncated)");
        std::process::exit(1);
    }
}
