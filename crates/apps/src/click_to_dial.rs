//! The Click-to-Dial box of Fig. 6.
//!
//! A user browsing a web site clicks a "click-to-dial" link; the box calls
//! the user's own phone first, then the clicked party, playing ringback or
//! busy tone from a tone-generator resource in between. The program below
//! is the state machine of Fig. 6 verbatim: states `oneCall`, `twoCalls`,
//! `busyTone`, `ringback`, and the connected end state; the `flowLink`
//! annotations in `busyTone`/`ringback` exploit the state-matching bias
//! (slot `1a` flowing, `Ta` closed → open `Ta`), and the final transition
//! re-links `1a` to `2a`, automatically reconfiguring addresses and codecs.

use ipmedia_core::boxes::GoalSpec;
use ipmedia_core::codec::Medium;
use ipmedia_core::goal::Policy;
use ipmedia_core::ids::{ChannelId, SlotId};
use ipmedia_core::program::{AppLogic, BoxInput, Ctx, TimerId};
use ipmedia_core::signal::{Availability, MetaSignal};
use ipmedia_core::slot::SlotEvent;

const REQ_USER1: u32 = 1;
const REQ_USER2: u32 = 2;
const REQ_TONE: u32 = 3;
const ANSWER_TIMER: TimerId = TimerId(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtdState {
    Init,
    /// Waiting for user 1 to answer: `openSlot(1a, audio)`.
    OneCall,
    /// Reaching user 2: `openSlot(1a)` (same object), `openSlot(2a)`.
    TwoCalls,
    /// User 2 unavailable: `flowLink(1a, Ta)` plays the busy tone.
    BusyTone,
    /// User 2 ringing: `flowLink(1a, Ta)` plays ringback, `openSlot(2a)`.
    Ringback,
    /// `flowLink(1a, 2a)`: the two users talk.
    Connected,
    Done,
}

pub struct ClickToDialLogic {
    user1: String,
    user2: String,
    tone_box: String,
    answer_timeout_ms: u64,
    state: CtdState,
    slot_1a: Option<SlotId>,
    slot_2a: Option<SlotId>,
    slot_ta: Option<SlotId>,
    ch1: Option<ChannelId>,
    ch2: Option<ChannelId>,
    ch_t: Option<ChannelId>,
}

impl ClickToDialLogic {
    pub fn new(
        user1: impl Into<String>,
        user2: impl Into<String>,
        tone_box: impl Into<String>,
        answer_timeout_ms: u64,
    ) -> Self {
        Self {
            user1: user1.into(),
            user2: user2.into(),
            tone_box: tone_box.into(),
            answer_timeout_ms,
            state: CtdState::Init,
            slot_1a: None,
            slot_2a: None,
            slot_ta: None,
            ch1: None,
            ch2: None,
            ch_t: None,
        }
    }

    pub fn state(&self) -> CtdState {
        self.state
    }
}

impl AppLogic for ClickToDialLogic {
    fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
        match (self.state, input) {
            // A dial that did not fit the box has no slot: its unavailable
            // peer, or the answer timer, decides.
            (_, BoxInput::ChannelUp { slots, .. }) if slots.is_empty() => {}
            // The initial transition: the user clicked; call their phone.
            (CtdState::Init, BoxInput::Start) => {
                ctx.open_channel(self.user1.clone(), 1, REQ_USER1);
                ctx.set_timer(ANSWER_TIMER, self.answer_timeout_ms);
                self.state = CtdState::OneCall;
            }
            (
                CtdState::OneCall,
                BoxInput::ChannelUp {
                    channel,
                    slots,
                    req,
                },
            ) if *req == Some(REQ_USER1) => {
                self.ch1 = Some(*channel);
                self.slot_1a = Some(slots[0]);
                ctx.set_goal(GoalSpec::Open {
                    slot: slots[0],
                    medium: Medium::Audio,
                    policy: Policy::Server,
                });
            }
            // isFlowing(1a): user 1 accepted — reach for user 2.
            (
                CtdState::OneCall,
                BoxInput::SlotNote {
                    slot,
                    event: SlotEvent::Oacked,
                },
            ) if Some(*slot) == self.slot_1a => {
                ctx.cancel_timer(ANSWER_TIMER);
                ctx.open_channel(self.user2.clone(), 1, REQ_USER2);
                self.state = CtdState::TwoCalls;
            }
            // User 1 never answered: destroy channel 1 and terminate.
            (CtdState::OneCall, BoxInput::Timer(ANSWER_TIMER)) => {
                if let Some(ch) = self.ch1 {
                    ctx.close_channel(ch);
                }
                self.state = CtdState::Done;
                ctx.terminate();
            }
            (
                CtdState::TwoCalls,
                BoxInput::ChannelUp {
                    channel,
                    slots,
                    req,
                },
            ) if *req == Some(REQ_USER2) => {
                self.ch2 = Some(*channel);
                self.slot_2a = Some(slots[0]);
                // The openSlot(2a) annotation appears in both `twoCalls`
                // and `ringback`, so the same object controls 2a across
                // the transition (§IV-B).
                ctx.set_goal(GoalSpec::Open {
                    slot: slots[0],
                    medium: Medium::Audio,
                    policy: Policy::Server,
                });
            }
            (
                CtdState::TwoCalls,
                BoxInput::Meta {
                    meta: MetaSignal::Peer(av),
                    ..
                },
            ) => match av {
                Availability::Unavailable => {
                    if let Some(ch) = self.ch2 {
                        ctx.close_channel(ch);
                    }
                    ctx.open_channel(self.tone_box.clone(), 1, REQ_TONE);
                    self.state = CtdState::BusyTone;
                }
                Availability::Available => {
                    ctx.open_channel(self.tone_box.clone(), 1, REQ_TONE);
                    self.state = CtdState::Ringback;
                }
            },
            (
                CtdState::BusyTone | CtdState::Ringback,
                BoxInput::ChannelUp {
                    channel,
                    slots,
                    req,
                },
            ) if *req == Some(REQ_TONE) => {
                self.ch_t = Some(*channel);
                self.slot_ta = Some(slots[0]);
                // On entry 1a is flowing and Ta closed: the flowlink's
                // state matching opens Ta, the resource accepts, and user 1
                // hears the tone.
                ctx.set_goal(GoalSpec::Link {
                    a: self.slot_1a.expect("1a exists"),
                    b: slots[0],
                });
            }
            // isFlowing(2a): user 2 answered — connect the users.
            (
                CtdState::Ringback | CtdState::TwoCalls,
                BoxInput::SlotNote {
                    slot,
                    event: SlotEvent::Oacked,
                },
            ) if Some(*slot) == self.slot_2a => {
                if let Some(ch) = self.ch_t.take() {
                    ctx.close_channel(ch);
                }
                self.slot_ta = None;
                ctx.set_goal(GoalSpec::Link {
                    a: self.slot_1a.expect("1a exists"),
                    b: self.slot_2a.expect("2a exists"),
                });
                self.state = CtdState::Connected;
            }
            // The tone channel came up after user 2 already answered:
            // it is no longer needed.
            (CtdState::Connected | CtdState::Done, BoxInput::ChannelUp { channel, req, .. })
                if *req == Some(REQ_TONE) =>
            {
                ctx.close_channel(*channel);
            }
            // User 1 gave up: their channel died; destroy everything.
            (_, BoxInput::ChannelDown { channel }) if Some(*channel) == self.ch1 => {
                for ch in [self.ch2.take(), self.ch_t.take()].into_iter().flatten() {
                    ctx.close_channel(ch);
                }
                self.state = CtdState::Done;
                ctx.terminate();
            }
            _ => {}
        }
    }
}
