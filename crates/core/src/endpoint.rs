//! Ready-made application logics for common box roles: the device that
//! answers ([`EndpointLogic`]), the device that places a call
//! ([`CallerLogic`]), and the server that dials onward and flowlinks the
//! legs ([`RelayLogic`]).

use crate::boxes::GoalSpec;
use crate::goal::{AcceptMode, EndpointPolicy, UserCmd};
use crate::program::{AppLogic, BoxInput, Ctx};
use crate::{ChannelId, Medium, SlotId};
use std::collections::BTreeMap;

/// A genuine media endpoint (user device or simple media resource): every
/// slot of every channel is controlled by a user agent with this endpoint's
/// policy. User actions are injected externally (by the simulator, the
/// tokio runtime, or a human).
pub struct EndpointLogic {
    policy: EndpointPolicy,
    mode: AcceptMode,
}

impl EndpointLogic {
    /// An endpoint with the given media policy and accept mode.
    pub fn new(policy: EndpointPolicy, mode: AcceptMode) -> Self {
        Self { policy, mode }
    }

    /// An auto-accepting endpoint, like a media resource that always
    /// answers (tone generator, bridge port, announcement player).
    pub fn resource(policy: EndpointPolicy) -> Self {
        Self::new(policy, AcceptMode::Auto)
    }

    /// A device that rings and waits for the user (manual accept).
    pub fn device(policy: EndpointPolicy) -> Self {
        Self::new(policy, AcceptMode::Manual)
    }
}

impl AppLogic for EndpointLogic {
    fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
        if let BoxInput::ChannelUp { slots, .. } = input {
            for s in slots {
                ctx.set_goal(GoalSpec::User {
                    slot: *s,
                    policy: self.policy.clone(),
                    mode: self.mode,
                });
            }
        }
    }
}

/// A box with no autonomous behaviour: goals are assigned externally
/// (tests and benchmarks give it goals through `Network::set_goal`).
#[derive(Default)]
pub struct NullLogic;

impl AppLogic for NullLogic {
    fn handle(&mut self, _input: &BoxInput, _ctx: &mut Ctx<'_>) {}
}

/// A device that places a call (§III, Fig. 5): at start it dials
/// `channels` channels of `tunnels` tunnels to `to`, and it opens audio on
/// every slot of a channel it dialled. Every slot is a user agent of an
/// [`EndpointLogic::resource`] with `policy`.
pub struct CallerLogic {
    endpoint: EndpointLogic,
    to: String,
    channels: u16,
    tunnels: u16,
}

impl CallerLogic {
    /// A caller that dials what [`Ctx::open_channel`] would be given.
    pub fn new(policy: EndpointPolicy, to: impl Into<String>, channels: u16, tunnels: u16) -> Self {
        Self {
            endpoint: EndpointLogic::resource(policy),
            to: to.into(),
            channels,
            tunnels,
        }
    }
}

impl AppLogic for CallerLogic {
    fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
        self.endpoint.handle(input, ctx);
        match input {
            BoxInput::Start => (0..self.channels)
                .for_each(|c| ctx.open_channel(self.to.as_str(), self.tunnels, c.into())),
            // One of its own dials: the endpoint made each slot a user agent.
            BoxInput::ChannelUp { slots, req, .. } if req.is_some() => {
                for &slot in slots {
                    ctx.user(slot, UserCmd::Open(Medium::Audio));
                }
            }
            _ => {}
        }
    }
}

/// A server that dials onward and flowlinks the legs (Fig. 1; the PC
/// server of Figs. 2–3): each incoming channel is answered by a dial to
/// `to` with as many tunnels, tagged with the incoming channel's id, and
/// once that dial is up the two channels are flowlinked tunnel by tunnel.
/// An unanswered dial leaves its incoming channel unlinked, and an onward
/// channel that comes up after its incoming one went down is closed. The
/// two legs of a call live and die together: either one going down
/// closes the other.
pub struct RelayLogic {
    to: String,
    /// The slots of each incoming channel whose onward dial is not up yet,
    /// by channel id: several callers may arrive within one round trip.
    waiting: BTreeMap<u32, Vec<SlotId>>,
    /// Each leg of a linked call → the other leg, both ways.
    legs: BTreeMap<ChannelId, ChannelId>,
}

impl RelayLogic {
    /// A relay that dials `to` for every incoming channel.
    pub fn new(to: impl Into<String>) -> Self {
        Self {
            to: to.into(),
            waiting: BTreeMap::new(),
            legs: BTreeMap::new(),
        }
    }
}

impl AppLogic for RelayLogic {
    fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
        let BoxInput::ChannelUp {
            channel,
            slots,
            req,
        } = input
        else {
            if let BoxInput::ChannelDown { channel } = input {
                self.waiting.remove(&channel.0);
                if let Some(other) = self.legs.remove(channel) {
                    self.legs.remove(&other);
                    ctx.close_channel(other);
                }
            }
            return;
        };
        if let Some(req) = req {
            let Some(incoming) = self.waiting.remove(req) else {
                return ctx.close_channel(*channel);
            };
            for (a, &b) in incoming.into_iter().zip(slots) {
                ctx.set_goal(GoalSpec::Link { a, b });
            }
            let incoming = ChannelId(*req);
            self.legs
                .extend([(incoming, *channel), (*channel, incoming)]);
        } else {
            let tunnels = u16::try_from(slots.len()).expect("a channel's tunnels fit u16");
            ctx.open_channel(self.to.as_str(), tunnels, channel.0);
            self.waiting.insert(channel.0, slots.clone());
        }
    }
}
