//! # ipmedia-rt
//!
//! The deployment runtime: media-control boxes as tokio tasks, signaling
//! channels as real TCP connections (FIFO and reliable, exactly the
//! channel model the paper assumes, §I/§III-A) carrying length-prefixed
//! binary frames. The same sans-IO state machines that the discrete-event
//! simulator and the model checker execute are driven here by live
//! sockets; nothing in `ipmedia-core` knows the difference.

#![deny(unsafe_code)]

pub mod chaos;
pub mod frame;
pub mod node;
pub mod wire;

pub use chaos::{drive_schedule, ChaosGate};
pub use frame::{FrameError, Framed, MAX_FRAME};
pub use node::{
    backoff_delays, jitter_seed, spawn_node, spawn_node_tuned, Directory, NodeHandle, NodeOptions,
    NodeSnapshot, NodeTuning, ReconnectPolicy, SlotSnapshot,
};
pub use wire::{decode, encode, Frame, Hello, WireError, WIRE_VERSION};
