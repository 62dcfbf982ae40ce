//! # ipmedia-apps
//!
//! The application services the paper uses to motivate and evaluate
//! compositional media control, implemented as state-oriented box programs
//! over the four goal primitives:
//!
//! * [`pbx::PbxLogic`] — the call-switching IP PBX of Figs. 2–3;
//! * [`prepaid::PrepaidLogic`] — the prepaid-card server PC with its
//!   audio-signaling resource V;
//! * [`click_to_dial::ClickToDialLogic`] — the Click-to-Dial program of
//!   Fig. 6, including busy-tone and ringback states;
//! * [`conference::ConferenceLogic`] — the audio conference of Fig. 7 with
//!   the partial-muting matrices of §IV-B;
//! * [`collab_tv`] — collaborative television (Fig. 8);
//! * [`harness::MediaNet`] — glue running the media plane against the
//!   signaling simulator.

#![deny(unsafe_code)]

pub mod click_to_dial;
pub mod collab_tv;
pub mod conference;
pub mod harness;
pub mod models;
pub mod pbx;
pub mod prepaid;
pub mod voicemail;

pub use click_to_dial::{ClickToDialLogic, CtdState};
pub use conference::{BridgeLogic, ConferenceLogic};
pub use harness::MediaNet;
pub use models::{all_scenarios, scenario, EXAMPLE_NAMES};
pub use pbx::PbxLogic;
pub use prepaid::PrepaidLogic;
pub use voicemail::VoicemailLogic;
