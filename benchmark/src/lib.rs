//! The repository's benchmark: four workloads over the call-control cost
//! stack (`sim_storm`, `rt_waves`, `rt_midcall`, `mck_explore`), one
//! sampler, one reducer, and spans recorded from these files around calls
//! into each crate's public functions. `README.md` says what each number
//! means and how to run, compare and read a trace.

pub mod host;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod sampler;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod workloads;
pub mod yardstick;
