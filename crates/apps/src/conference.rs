//! The audio conference of Fig. 7: a conference server (application
//! server) plus a conference bridge (media resource performing mixing).
//!
//! During the conference the server flowlinks each user device's tunnel to
//! a tunnel leading to the bridge. Toward the bridge each channel carries
//! one user's voice; away from the bridge it carries the mix of everyone
//! else. Full muting of one party is implemented with the primitives alone
//! (the flowlink is replaced by two holdslots); *partial* muting cannot be
//! expressed by the primitives and is delegated to the bridge via a
//! standardized mixing-matrix meta-signal (§IV-B).

use ipmedia_core::boxes::GoalSpec;
use ipmedia_core::goal::{AcceptMode, EndpointPolicy, Policy};
use ipmedia_core::ids::{ChannelId, SlotId};
use ipmedia_core::program::{AppLogic, BoxInput, Ctx};
use ipmedia_core::signal::{AppEvent, MetaSignal, MixRow};
use ipmedia_core::{Codec, MediaAddr};
use std::sync::{Arc, Mutex};

const REQ_BRIDGE_BASE: u32 = 1000;

struct Party {
    device_slot: SlotId,
    bridge_slot: Option<SlotId>,
    fully_muted: bool,
}

/// The conference server: flowlinks each joining device to a bridge port.
///
/// Commands (application meta-signals, `Custom`):
/// * `fullmute:<i>` / `unmute:<i>` — replace party `i`'s flowlink by two
///   holdslots / restore it;
/// * any [`AppEvent::MixMatrix`] is forwarded to the bridge.
///
/// A malformed or out-of-range index is ignored, like an unknown command,
/// and so is a party whose device or bridge channel went down.
pub struct ConferenceLogic {
    bridge_name: String,
    parties: Vec<Party>,
    bridge_channel_of_req: Vec<(u32, usize)>,
    next_req: u32,
    bridge_control: Option<ChannelId>,
}

impl ConferenceLogic {
    pub fn new(bridge_name: impl Into<String>) -> Self {
        Self {
            bridge_name: bridge_name.into(),
            parties: Vec::new(),
            bridge_channel_of_req: Vec::new(),
            next_req: REQ_BRIDGE_BASE,
            bridge_control: None,
        }
    }

    fn relink(&self, idx: usize, ctx: &mut Ctx<'_>) {
        let p = &self.parties[idx];
        let Some(bslot) = p.bridge_slot else { return };
        if [p.device_slot, bslot]
            .iter()
            .any(|s| ctx.media().slot(*s).is_none())
        {
            return;
        }
        if p.fully_muted {
            ctx.set_goal(GoalSpec::Hold {
                slot: p.device_slot,
                policy: Policy::Server,
            });
            ctx.set_goal(GoalSpec::Hold {
                slot: bslot,
                policy: Policy::Server,
            });
        } else {
            ctx.set_goal(GoalSpec::Link {
                a: p.device_slot,
                b: bslot,
            });
        }
    }
}

impl AppLogic for ConferenceLogic {
    fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
        match input {
            // A dial of its own that did not fit the box has no slot.
            BoxInput::ChannelUp {
                channel,
                slots,
                req,
            } if !slots.is_empty() => match req {
                None => {
                    // A device joined: lease a bridge port for it.
                    let req = self.next_req;
                    self.next_req += 1;
                    self.parties.push(Party {
                        device_slot: slots[0],
                        bridge_slot: None,
                        fully_muted: false,
                    });
                    self.bridge_channel_of_req
                        .push((req, self.parties.len() - 1));
                    ctx.open_channel(self.bridge_name.clone(), 1, req);
                }
                Some(r) => {
                    if let Some(&(_, idx)) =
                        self.bridge_channel_of_req.iter().find(|(req, _)| req == r)
                    {
                        self.parties[idx].bridge_slot = Some(slots[0]);
                        if self.bridge_control.is_none() {
                            self.bridge_control = Some(*channel);
                        }
                        self.relink(idx, ctx);
                    }
                }
            },
            BoxInput::Meta {
                meta: MetaSignal::App(ev),
                ..
            } => match ev {
                AppEvent::Custom(cmd) => {
                    let mute = (cmd.strip_prefix("fullmute:").map(|i| (i, true)))
                        .or_else(|| cmd.strip_prefix("unmute:").map(|i| (i, false)));
                    let Some((i, muted)) = mute else { return };
                    let Some(i) = i.parse().ok().filter(|&i: &usize| i < self.parties.len()) else {
                        return;
                    };
                    self.parties[i].fully_muted = muted;
                    self.relink(i, ctx);
                }
                AppEvent::MixMatrix(rows) => {
                    // Forward the partial-muting request to the bridge.
                    if let Some(ch) = self.bridge_control {
                        ctx.send_meta(ch, MetaSignal::App(AppEvent::MixMatrix(rows.clone())));
                    }
                }
                _ => {}
            },
            _ => {}
        }
    }
}

/// Shared handle through which the media harness observes the bridge's
/// current mixing matrix (set by `MixMatrix` meta-signals).
pub type SharedMatrix = Arc<Mutex<Vec<MixRow>>>;

/// The conference bridge: a media resource whose ports auto-accept audio
/// channels, each port with its own media address (base port + index).
pub struct BridgeLogic {
    base: MediaAddr,
    ports: usize,
    matrix: SharedMatrix,
    /// (slot, addr) of each allocated port, shared with the harness.
    port_map: SharedPortMap,
}

/// (slot, addr) of each allocated bridge port, shared with the harness.
pub type SharedPortMap = Arc<Mutex<Vec<(SlotId, MediaAddr)>>>;

impl BridgeLogic {
    pub fn new(base: MediaAddr) -> (Self, SharedMatrix, SharedPortMap) {
        let matrix: SharedMatrix = Arc::new(Mutex::new(Vec::new()));
        let port_map = Arc::new(Mutex::new(Vec::new()));
        (
            Self {
                base,
                ports: 0,
                matrix: matrix.clone(),
                port_map: port_map.clone(),
            },
            matrix,
            port_map,
        )
    }

    fn port_addr(&self, i: usize) -> MediaAddr {
        MediaAddr::new(self.base.ip, self.base.port + i as u16)
    }
}

impl AppLogic for BridgeLogic {
    fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
        match input {
            BoxInput::ChannelUp { slots, .. } => {
                for s in slots {
                    let addr = self.port_addr(self.ports);
                    self.ports += 1;
                    self.port_map.lock().unwrap().push((*s, addr));
                    ctx.set_goal(GoalSpec::User {
                        slot: *s,
                        policy: EndpointPolicy {
                            addr,
                            recv_codecs: [Codec::G711, Codec::G726].into(),
                            send_codecs: [Codec::G711, Codec::G726].into(),
                            mute_in: false,
                            mute_out: false,
                        },
                        mode: AcceptMode::Auto,
                    });
                }
            }
            BoxInput::Meta {
                meta: MetaSignal::App(AppEvent::MixMatrix(rows)),
                ..
            } => {
                *self.matrix.lock().unwrap() = rows.clone();
            }
            _ => {}
        }
    }
}
