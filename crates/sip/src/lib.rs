//! # ipmedia-sip
//!
//! The comparison baseline of the paper's §IX-B: a SIP-like protocol that
//! is *transactional* (three-signal invite transactions that cannot
//! overlap on a dialog, with glare failures and randomized retry),
//! *negotiation-based* (relative offer/answer instead of unilateral
//! descriptors/selectors, so descriptions cannot be cached or re-used),
//! and *bundling* (one body describes every media channel of the dialog).
//! [`scenario`] reproduces Fig. 14 and the common-case comparison against
//! the compositional protocol's Fig. 13.

#![deny(unsafe_code)]

pub mod b2bua;
pub mod msg;
pub mod scenario;
pub mod sdp;
pub mod sim;
pub mod ua;

pub use b2bua::{B2bua, RelinkReport, LEG_LOCAL, LEG_REMOTE};
pub use msg::SipMsg;
pub use scenario::{common_case, glare_scenario, SipOutcome};
pub use sdp::{MLine, Sdp};
pub use sim::{SipCtx, SipNet, SipNode};
pub use ua::SipUa;
