//! # ipmedia-mck
//!
//! An explicit-state model checker for signaling paths, reproducing the
//! paper's verification campaign (§VIII-A) — but checking the *actual*
//! implementation code rather than a hand-written Promela model. A global
//! state embeds the real [`ipmedia_core::Slot`], goal objects, and
//! flowlinks, plus the FIFO tunnel queues; exploration covers every
//! interleaving of message delivery and every nondeterministic initial
//! phase, and the §V temporal specifications are checked by cycle analysis
//! over the explored graph.

#![deny(unsafe_code)]

pub mod campaign;
pub mod counterexample;
pub mod explore;
pub mod props;
pub mod state;

pub use campaign::{
    budgeted, campaign_configs, check_path, check_path_with, depth_capped_states, fault_campaign,
    paper_campaign, record_campaign_metrics, render_table, run_campaign, run_campaign_depth_capped,
    CheckResult, VerdictClass,
};
pub use counterexample::{
    minimize_counterexample, minimize_trace, render_counterexample, render_trace, replay,
};
pub use explore::{explore, explore_with, ExploreOptions, SeenSet, StateFlags, StateGraph};
pub use props::{check_safety, check_spec, cycle_states, invariant_code, Violation};
pub use state::{Action, CheckConfig, NondetOp, PathState};
