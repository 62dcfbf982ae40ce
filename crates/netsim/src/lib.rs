//! # ipmedia-netsim
//!
//! A deterministic discrete-event simulator for networks of media-control
//! boxes. It models the paper's deployment assumptions (§I, §VIII-C):
//! signaling channels are FIFO and reliable (TCP-like) with a fixed
//! per-signal network latency *n*, and each box takes a compute cost *c*
//! per stimulus, processing stimuli serially. All the paper's latency
//! formulas (2n+3c for Fig. 13, pn+(p+1)c in general) are *measured* on
//! this substrate rather than merely derived.

#![deny(unsafe_code)]

pub mod chaos;
pub mod fault;
pub mod queue;
pub mod sim;
pub mod time;

pub use chaos::{apply_schedule, AppliedChaos};
pub use fault::{FaultPlan, FaultState, SendFate};
pub use queue::EventQueue;
pub use sim::{Network, SimConfig, TraceEntry};
pub use time::{SimDuration, SimTime};
