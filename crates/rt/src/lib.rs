//! # ipmedia-rt
//!
//! The deployment runtime: media-control boxes as tokio tasks, signaling
//! channels over real TCP connections (FIFO and reliable, exactly the
//! channel model the paper assumes, §I/§III-A) carrying length-prefixed
//! binary frames; every channel a node dials to one peer shares one
//! connection. The same sans-IO state machines that the discrete-event
//! simulator and the model checker execute are driven here by live
//! sockets; nothing in `ipmedia-core` knows the difference.

#![deny(unsafe_code)]

pub mod chaos;
pub mod frame;
pub mod node;
pub mod wire;

pub use chaos::{drive_schedule, ChaosGate};
pub use frame::{frames, put_frame, FrameError, Framed, MAX_FRAME};
pub use ipmedia_core::link::{backoff_delays, jitter_seed, ReconnectPolicy};
pub use node::{
    spawn_node, spawn_node_tuned, Directory, NodeHandle, NodeOptions, NodeSnapshot, NodeTuning,
    SlotSnapshot,
};
pub use wire::{
    decode, decode_tagged, decode_tagged_slice, encode, encode_tagged, encode_tagged_into, Frame,
    Hello, WireError, WIRE_VERSION,
};
