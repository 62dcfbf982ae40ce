//! # ipmedia-core
//!
//! Core implementation of *Compositional Control of IP Media* (Zave &
//! Cheung, `CoNEXT` 2006): the architecture-independent descriptive model,
//! the idempotent unilateral signaling protocol, and the four high-level
//! media-control goal primitives (`openSlot`, `closeSlot`, `holdSlot`,
//! `flowLink`).

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::pedantic)]
// Pedantic allowlist: these lints fight the codebase's established idiom
// (paper-faithful naming, sans-IO event plumbing) without catching bugs.
#![allow(
    clippy::module_name_repetitions,
    clippy::must_use_candidate,
    clippy::missing_errors_doc,
    clippy::missing_panics_doc,
    clippy::return_self_not_must_use,
    clippy::match_same_arms,
    clippy::similar_names,
    clippy::too_many_lines,
    clippy::items_after_statements,
    clippy::struct_excessive_bools,
    clippy::fn_params_excessive_bools,
    clippy::needless_pass_by_value,
    clippy::uninlined_format_args
)]

pub mod boxes;
pub mod chaos;
pub mod cli;
pub mod codec;
pub mod descriptor;
pub mod endpoint;
pub mod error;
pub mod goal;
pub mod hash;
pub mod host;
pub mod ids;
pub mod monitor;
pub mod par;
pub mod path;
mod prefetch;
pub mod program;
pub mod reliable;
pub mod retag;
mod shrink;
pub mod signal;
pub mod slot;

pub use boxes::{BoxNote, GoalId, GoalSpec, MediaBox};
pub use chaos::{
    generate as generate_chaos, minimize_schedule, ChaosAction, ChaosPhase, ChaosSchedule,
    ChaosTopology, Direction, ScheduleFamily,
};
pub use codec::{Codec, CodecList, Medium};
pub use descriptor::{DescTag, Descriptor, MediaAddr, Selector, TagSource};
pub use endpoint::{CallerLogic, EndpointLogic, NullLogic, RelayLogic};
pub use error::ProtocolError;
pub use goal::{
    AcceptMode, CloseSlot, EndpointPolicy, FlowLink, Goal, GoalKind, HoldSlot, LinkSide, OpenSlot,
    Outgoing, Policy, UserAgent, UserCmd, UserNote,
};
pub use ids::{BoxId, ChannelId, SlotId, SlotRange, SlotRef, TunnelId};
pub use path::{ChannelLink, EndGoal, PathEnds, PathSpec, PathType, Topology};
pub use prefetch::prefetch;
pub use program::{
    AppLogic, BoxCmd, BoxInput, Ctx, GoalAnnotation, ModelEffect, ModelTrigger, ProgramBox,
    ProgramModel, ScenarioModel, SlotDecl, StateModel, TimerGenerations, TimerId, TransitionModel,
};
pub use reliable::Reliability;
pub use retag::Retag;
pub use shrink::shrink;
pub use signal::{
    AppEvent, Availability, ChannelMsg, MetaSignal, MixRow, MovieCommand, Signal, SignalKind,
};
pub use slot::{
    RecvRule, SendRule, Slot, SlotAction, SlotEvent, SlotState, RECV_RULES, SEND_RULES,
};
