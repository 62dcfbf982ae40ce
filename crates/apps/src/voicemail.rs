//! A voicemail service — the paper's first motivating example for
//! application servers ("An application server can provide a persistent
//! network presence, such as voicemail, for handheld devices", §I).
//!
//! The voicemail box sits on the signaling path to its subscriber. An
//! incoming call is forwarded toward the subscriber's device; if the
//! device does not answer within the ring timeout (or is unavailable),
//! the server re-links the caller to a recorder resource that plays the
//! greeting and records the message. The subscriber's device keeps
//! ringing-then-silent semantics purely through goal re-annotation: no
//! media signal is ever composed by this program.

use ipmedia_core::boxes::GoalSpec;
use ipmedia_core::ids::{ChannelId, SlotId};
use ipmedia_core::program::{AppLogic, BoxInput, Ctx, TimerId};
use ipmedia_core::signal::{Availability, MetaSignal};
use ipmedia_core::slot::SlotEvent;

const REQ_DEVICE: u32 = 1;
const REQ_RECORDER: u32 = 2;
const RING_TIMER: TimerId = TimerId(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    /// Caller linked toward the ringing device.
    Ringing,
    /// Device answered: caller ↔ device.
    Connected,
    /// Ring timeout or unavailable: caller ↔ recorder.
    Recording,
}

/// The voicemail box for one subscriber.
pub struct VoicemailLogic {
    device_name: String,
    recorder_name: String,
    ring_timeout_ms: u64,
    state: State,
    caller: Option<SlotId>,
    device: Option<SlotId>,
    device_channel: Option<ChannelId>,
    recorder: Option<SlotId>,
}

impl VoicemailLogic {
    pub fn new(
        device_name: impl Into<String>,
        recorder_name: impl Into<String>,
        ring_timeout_ms: u64,
    ) -> Self {
        Self {
            device_name: device_name.into(),
            recorder_name: recorder_name.into(),
            ring_timeout_ms,
            state: State::Idle,
            caller: None,
            device: None,
            device_channel: None,
            recorder: None,
        }
    }

    fn divert_to_recorder(&mut self, ctx: &mut Ctx<'_>) {
        // Drop the device leg entirely (stops the ringing) and link the
        // caller to the recorder.
        if let Some(ch) = self.device_channel.take() {
            ctx.close_channel(ch);
        }
        self.device = None;
        self.state = State::Recording;
        ctx.open_channel(self.recorder_name.clone(), 1, REQ_RECORDER);
    }
}

impl AppLogic for VoicemailLogic {
    fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
        match input {
            // A dial of its own that did not fit the box has no slot.
            BoxInput::ChannelUp { slots, .. } if slots.is_empty() => {}
            BoxInput::ChannelUp {
                slots, req: None, ..
            } if self.state == State::Idle => {
                // A caller's signaling channel; the call itself starts
                // when the open arrives on its tunnel.
                self.caller = Some(slots[0]);
            }
            BoxInput::SlotNote {
                slot,
                event: SlotEvent::OpenReceived { .. },
            } if Some(*slot) == self.caller && self.state == State::Idle => {
                // The caller dialed: ring the subscriber, start the clock.
                self.state = State::Ringing;
                ctx.open_channel(self.device_name.clone(), 1, REQ_DEVICE);
                ctx.set_timer(RING_TIMER, self.ring_timeout_ms);
            }
            BoxInput::ChannelUp {
                channel,
                slots,
                req: Some(REQ_DEVICE),
                ..
            } => {
                self.device = Some(slots[0]);
                self.device_channel = Some(*channel);
                if let Some(caller) = self.caller {
                    ctx.set_goal(GoalSpec::Link {
                        a: caller,
                        b: slots[0],
                    });
                }
            }
            BoxInput::ChannelUp {
                slots,
                req: Some(REQ_RECORDER),
                ..
            } => {
                self.recorder = Some(slots[0]);
                if let Some(caller) = self.caller {
                    ctx.set_goal(GoalSpec::Link {
                        a: caller,
                        b: slots[0],
                    });
                }
            }
            BoxInput::Meta {
                meta: MetaSignal::Peer(Availability::Unavailable),
                ..
            } if self.state == State::Ringing => {
                // Handheld off the network: straight to voicemail.
                ctx.cancel_timer(RING_TIMER);
                self.divert_to_recorder(ctx);
            }
            BoxInput::SlotNote {
                slot,
                event: SlotEvent::Oacked,
            } if Some(*slot) == self.device && self.state == State::Ringing => {
                // The subscriber answered in time.
                ctx.cancel_timer(RING_TIMER);
                self.state = State::Connected;
            }
            BoxInput::Timer(RING_TIMER) if self.state == State::Ringing => {
                self.divert_to_recorder(ctx);
            }
            BoxInput::SlotNote {
                slot,
                event: SlotEvent::PeerClosed { .. },
            } if Some(*slot) == self.caller => {
                // Caller hung up: release whatever leg is active.
                ctx.cancel_timer(RING_TIMER);
                if let Some(ch) = self.device_channel.take() {
                    ctx.close_channel(ch);
                }
                if let Some(rec) = self.recorder.take() {
                    ctx.set_goal(GoalSpec::Close { slot: rec });
                }
                self.state = State::Idle;
                self.device = None;
            }
            _ => {}
        }
    }
}
