//! # ipmedia-rt
//!
//! The deployment runtime: media-control boxes as tokio tasks, signaling
//! channels as real TCP connections (FIFO and reliable, exactly the
//! channel model the paper assumes, §I/§III-A) carrying length-prefixed
//! binary frames. The same sans-IO state machines that the discrete-event
//! simulator and the model checker execute are driven here by live
//! sockets; nothing in `ipmedia-core` knows the difference.

pub mod chaos;
pub mod frame;
pub mod node;
pub mod wire;

pub use chaos::{drive_schedule, ChaosGate};
pub use frame::{FrameError, Framed, MAX_FRAME};
pub use node::{
    backoff_delays, jitter_seed, spawn_node, spawn_node_chaos, spawn_node_obs, spawn_node_traced,
    spawn_node_tuned, spawn_node_with, Directory, NodeHandle, NodeSnapshot, NodeTuning,
    ReconnectPolicy, SlotSnapshot,
};
pub use wire::{decode, encode, Frame, Hello, WireError, WIRE_VERSION};
