//! An IP PBX with call switching (the PBX of Figs. 2–3).
//!
//! The PBX serves one telephone with a permanent signaling channel. All
//! signaling channels connecting the phone to other parties radiate from
//! the PBX, which lets the user switch between multiple outside calls:
//! the active call's slot is flowlinked to the phone's slot, every other
//! call is on hold (`holdSlot`). Because the PBX is the box closest to the
//! phone, *proximity confers priority*: outside servers (like the
//! prepaid-card server) only affect the phone when the PBX links toward
//! them (§II-C, §V).
//!
//! Feature commands arrive as application meta-signals:
//! * `call:<box>` — create a signaling channel toward `<box>` and make it
//!   the active call;
//! * `switch:<idx>` — make outside call `idx` (arrival order) active;
//! * `hangup` — drop the active call link (everything goes on hold).
//!
//! A malformed or out-of-range command is ignored, like an unknown one.

use ipmedia_core::boxes::GoalSpec;
use ipmedia_core::goal::Policy;
use ipmedia_core::ids::{ChannelId, SlotId};
use ipmedia_core::program::{AppLogic, BoxInput, Ctx};
use ipmedia_core::signal::{AppEvent, MetaSignal};

const REQ_PHONE: u32 = 1;
const REQ_CALL_BASE: u32 = 100;

/// One outside call appearance.
#[derive(Debug, Clone, Copy)]
struct Call {
    slot: SlotId,
    channel: ChannelId,
}

pub struct PbxLogic {
    phone_name: String,
    phone_slot: Option<SlotId>,
    calls: Vec<Call>,
    active: Option<usize>,
    next_req: u32,
}

impl PbxLogic {
    pub fn new(phone_name: impl Into<String>) -> Self {
        Self {
            phone_name: phone_name.into(),
            phone_slot: None,
            calls: Vec::new(),
            active: None,
            next_req: REQ_CALL_BASE,
        }
    }

    /// Re-annotate all slots for the current `active` selection.
    fn apply_links(&self, ctx: &mut Ctx<'_>) {
        let Some(phone) = self.phone_slot else {
            return;
        };
        match self.active {
            Some(i) => {
                ctx.set_goal(GoalSpec::Link {
                    a: phone,
                    b: self.calls[i].slot,
                });
            }
            None => {
                ctx.set_goal(GoalSpec::Hold {
                    slot: phone,
                    policy: Policy::Server,
                });
            }
        }
        for (j, call) in self.calls.iter().enumerate() {
            if Some(j) != self.active {
                ctx.set_goal(GoalSpec::Hold {
                    slot: call.slot,
                    policy: Policy::Server,
                });
            }
        }
    }
}

impl AppLogic for PbxLogic {
    fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
        match input {
            BoxInput::Start => {
                ctx.open_channel(self.phone_name.clone(), 1, REQ_PHONE);
            }
            BoxInput::ChannelUp {
                channel,
                slots,
                req,
            } => match req {
                Some(REQ_PHONE) => {
                    self.phone_slot = Some(slots[0]);
                    self.apply_links(ctx);
                }
                Some(_r) => {
                    // An outgoing call we placed: becomes the active call.
                    self.calls.push(Call {
                        slot: slots[0],
                        channel: *channel,
                    });
                    self.active = Some(self.calls.len() - 1);
                    self.apply_links(ctx);
                }
                None => {
                    // An incoming call (e.g. from the prepaid-card server):
                    // a new held call appearance.
                    self.calls.push(Call {
                        slot: slots[0],
                        channel: *channel,
                    });
                    self.apply_links(ctx);
                }
            },
            BoxInput::Meta {
                meta: MetaSignal::App(AppEvent::Custom(cmd)),
                ..
            } => {
                if let Some(name) = cmd.strip_prefix("call:") {
                    let req = self.next_req;
                    self.next_req += 1;
                    ctx.open_channel(name.to_string(), 1, req);
                } else if let Some(idx) = cmd.strip_prefix("switch:") {
                    let idx = idx.parse().ok().filter(|&i: &usize| i < self.calls.len());
                    if idx.is_some() {
                        self.active = idx;
                        self.apply_links(ctx);
                    }
                } else if cmd == "hangup" {
                    self.active = None;
                    self.apply_links(ctx);
                }
            }
            BoxInput::ChannelDown { channel } => {
                // A party's channel died; drop its call appearance (or
                // forget the phone). The slots were already removed by the
                // environment.
                if self
                    .phone_slot
                    .is_some_and(|s| ctx.media().slot(s).is_none())
                {
                    self.phone_slot = None;
                }
                let active_slot = self.active.map(|i| self.calls[i].slot);
                self.calls.retain(|c| c.channel != *channel);
                self.active = active_slot.and_then(|s| self.calls.iter().position(|c| c.slot == s));
                self.apply_links(ctx);
            }
            _ => {}
        }
    }
}
