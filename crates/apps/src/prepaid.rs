//! The prepaid-card server PC of Figs. 2–3, with its audio-signaling
//! resource V.
//!
//! A prepaid caller reaches PC; PC places the call onward (toward the
//! callee's PBX) and flowlinks caller ↔ callee. When the prepaid funds
//! run out (a timer), PC re-links the caller to the resource V, which
//! prompts for more funds over the audio channel while the callee's side
//! is held. When V reports the user has paid (`FundsVerified`), PC links
//! caller ↔ callee again (§II-A, §IV-B, Fig. 3).
//!
//! The program is exactly the two-state machine of §IV-B: one state
//! annotated `flowLink(c,a), holdSlot(v)`, the other `flowLink(c,v),
//! holdSlot(a)`.

use ipmedia_core::boxes::GoalSpec;
use ipmedia_core::goal::Policy;
use ipmedia_core::ids::SlotId;
use ipmedia_core::program::{AppLogic, BoxInput, Ctx, TimerId};
use ipmedia_core::signal::{AppEvent, MetaSignal};
use ipmedia_core::slot::SlotEvent;

const REQ_RESOURCE: u32 = 1;
const REQ_CALLEE: u32 = 2;
const TALK_TIMER: TimerId = TimerId(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Waiting for the caller and the onward call leg.
    Setup,
    /// `flowLink(c, a), holdSlot(v)` — the prepaid call is up.
    Talking,
    /// `flowLink(c, v), holdSlot(a)` — funds exhausted, caller talks to V.
    Refilling,
}

pub struct PrepaidLogic {
    callee_route: String,
    resource_name: String,
    /// Prepaid talk time before the refill prompt, in milliseconds.
    talk_time_ms: u64,
    state: State,
    caller: Option<SlotId>,
    callee: Option<SlotId>,
    resource: Option<SlotId>,
}

impl PrepaidLogic {
    pub fn new(
        callee_route: impl Into<String>,
        resource_name: impl Into<String>,
        talk_time_ms: u64,
    ) -> Self {
        Self {
            callee_route: callee_route.into(),
            resource_name: resource_name.into(),
            talk_time_ms,
            state: State::Setup,
            caller: None,
            callee: None,
            resource: None,
        }
    }

    fn enter_talking(&mut self, ctx: &mut Ctx<'_>) {
        let (Some(c), Some(a)) = (self.caller, self.callee) else {
            return;
        };
        self.state = State::Talking;
        ctx.set_goal(GoalSpec::Link { a: c, b: a });
        if let Some(v) = self.resource {
            ctx.set_goal(GoalSpec::Hold {
                slot: v,
                policy: Policy::Server,
            });
        }
        ctx.set_timer(TALK_TIMER, self.talk_time_ms);
    }

    fn enter_refilling(&mut self, ctx: &mut Ctx<'_>) {
        let (Some(c), Some(v), Some(a)) = (self.caller, self.resource, self.callee) else {
            return;
        };
        self.state = State::Refilling;
        ctx.set_goal(GoalSpec::Link { a: c, b: v });
        ctx.set_goal(GoalSpec::Hold {
            slot: a,
            policy: Policy::Server,
        });
    }
}

impl AppLogic for PrepaidLogic {
    fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
        match input {
            BoxInput::Start => {
                ctx.open_channel(self.resource_name.clone(), 1, REQ_RESOURCE);
            }
            // A dial of its own that did not fit the box has no slot.
            BoxInput::ChannelUp { slots, req, .. } if !slots.is_empty() => match req {
                Some(REQ_RESOURCE) => {
                    self.resource = Some(slots[0]);
                    if self.state == State::Talking {
                        ctx.set_goal(GoalSpec::Hold {
                            slot: slots[0],
                            policy: Policy::Server,
                        });
                    }
                }
                Some(REQ_CALLEE) => {
                    self.callee = Some(slots[0]);
                    self.enter_talking(ctx);
                }
                _ => {
                    // The prepaid caller's channel.
                    self.caller = Some(slots[0]);
                }
            },
            BoxInput::SlotNote {
                slot,
                event: SlotEvent::OpenReceived { .. },
            } if Some(*slot) == self.caller && self.state == State::Setup => {
                // The caller dialed: place the onward call.
                ctx.open_channel(self.callee_route.clone(), 1, REQ_CALLEE);
            }
            BoxInput::Timer(TALK_TIMER) if self.state == State::Talking => {
                self.enter_refilling(ctx);
            }
            BoxInput::Meta {
                meta: MetaSignal::App(AppEvent::FundsVerified),
                ..
            } if self.state == State::Refilling => {
                self.enter_talking(ctx);
            }
            BoxInput::Meta {
                meta: MetaSignal::App(AppEvent::Custom(cmd)),
                ..
            } if cmd == "expire" && self.state == State::Talking => {
                // Test hook: force the prepaid timer to expire now.
                self.enter_refilling(ctx);
            }
            _ => {}
        }
    }
}
