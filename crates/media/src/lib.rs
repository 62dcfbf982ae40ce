//! # ipmedia-media
//!
//! A simulated media plane. The control plane decides who may send what to
//! where; this crate moves RTP-like packets along those routes so that the
//! paper's media-flow figures (the dashed arrows of Figs. 2, 3, 7, 8)
//! become observable, assertable facts: tones reach callers, conference
//! bridges mix with partial-muting matrices (§IV-B), movie streams share a
//! controllable time pointer (Fig. 8), and packets sent to an endpoint
//! that is not listening are counted as lost — the failure the erroneous
//! scenario of Fig. 2 produces.

#![deny(unsafe_code)]

pub mod flow;
pub mod mixer;
pub mod packet;
pub mod plane;
pub mod source;

pub use flow::FlowMatrix;
pub use mixer::{mix_for_port, MixMatrix};
pub use packet::{Frame, MediaPacket, SAMPLES_PER_FRAME};
pub use plane::{Bridge, MediaPlane, Route, TICK_MS};
pub use source::{synth_frame, MovieClock, SourceKind, ToneKind};
