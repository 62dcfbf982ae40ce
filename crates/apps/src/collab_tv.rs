//! Collaborative television (Fig. 8).
//!
//! Endpoint A is a large television in the family room, C a laptop in a
//! bedroom, B the headphones of a French-speaking friend. All three share
//! one movie: the signaling channel from A's collaborative-control box to
//! the movie server carries five tunnels (A's video, A's English audio,
//! B's French audio, C's video, C's audio), all bound to the same movie
//! and time pointer. C's device reaches the server *through* A's box, so
//! A's box controls the movie for everyone (proximity confers priority).
//!
//! When the daughter leaves the collaboration, her box opens its own
//! signaling channel to the movie server (same movie, new time pointer),
//! re-links her tunnels to it, and drops the channel between the two
//! collaboration boxes.

use ipmedia_core::boxes::GoalSpec;
use ipmedia_core::goal::{AcceptMode, EndpointPolicy};
use ipmedia_core::ids::{ChannelId, SlotId};
use ipmedia_core::program::{AppLogic, BoxInput, Ctx};
use ipmedia_core::signal::{AppEvent, MetaSignal, MovieCommand};
use ipmedia_core::{Codec, MediaAddr};
use std::sync::{Arc, Mutex};

/// Per-channel state shared with the harness: which movie instance the
/// channel plays and which slot carries which stream.
#[derive(Debug, Clone)]
pub struct ServerChannel {
    pub channel: ChannelId,
    /// Slot and media address per tunnel, in tunnel order.
    pub ports: Vec<(SlotId, MediaAddr)>,
    /// Movie-instance number (0 = first channel's movie, etc.). The
    /// harness maps these to `MediaPlane` movie clocks.
    pub movie: usize,
}

pub type SharedServerState = Arc<Mutex<Vec<ServerChannel>>>;
/// Movie-control commands applied per movie instance, in arrival order.
pub type SharedCommands = Arc<Mutex<Vec<(usize, MovieCommand)>>>;

/// The movie server: each incoming signaling channel is associated with
/// the movie at its own time pointer; each tunnel is a media stream of
/// that movie (auto-accepted). `MovieControl` meta-signals on a channel
/// affect all that channel's tunnels at once (§IV-B).
pub struct MovieServerLogic {
    base: MediaAddr,
    next_port: u16,
    next_movie: usize,
    state: SharedServerState,
    commands: SharedCommands,
}

impl MovieServerLogic {
    pub fn new(base: MediaAddr) -> (Self, SharedServerState, SharedCommands) {
        let state: SharedServerState = Arc::new(Mutex::new(Vec::new()));
        let commands: SharedCommands = Arc::new(Mutex::new(Vec::new()));
        (
            Self {
                base,
                next_port: 0,
                next_movie: 0,
                state: state.clone(),
                commands: commands.clone(),
            },
            state,
            commands,
        )
    }
}

impl AppLogic for MovieServerLogic {
    fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
        match input {
            BoxInput::ChannelUp { channel, slots, .. } => {
                let movie = self.next_movie;
                self.next_movie += 1;
                let mut ports = Vec::new();
                for s in slots {
                    let addr = MediaAddr::new(self.base.ip, self.base.port + self.next_port);
                    self.next_port += 1;
                    ports.push((*s, addr));
                    ctx.set_goal(GoalSpec::User {
                        slot: *s,
                        policy: EndpointPolicy {
                            addr,
                            recv_codecs: [Codec::G711].into(),
                            send_codecs: [Codec::G711, Codec::H263, Codec::H261].into(),
                            mute_in: false,
                            mute_out: false,
                        },
                        mode: AcceptMode::Auto,
                    });
                }
                self.state.lock().unwrap().push(ServerChannel {
                    channel: *channel,
                    ports,
                    movie,
                });
            }
            BoxInput::Meta {
                channel,
                meta: MetaSignal::App(AppEvent::MovieControl(cmd)),
            } => {
                let movie = self
                    .state
                    .lock()
                    .unwrap()
                    .iter()
                    .find(|c| c.channel == *channel)
                    .map(|c| c.movie);
                if let Some(movie) = movie {
                    self.commands.lock().unwrap().push((movie, *cmd));
                }
            }
            _ => {}
        }
    }
}

/// Role of each tunnel on the primary collaboration channel, in order.
pub const TUNNELS_PRIMARY: usize = 5;
pub const T_A_VIDEO: usize = 0;
pub const T_A_AUDIO: usize = 1;
pub const T_B_FRENCH: usize = 2;
pub const T_C_VIDEO: usize = 3;
pub const T_C_AUDIO: usize = 4;

const REQ_SERVER: u32 = 1;

/// The primary collaborative-control box (A's): owns the server channel
/// and the movie controls; flowlinks device tunnels to server tunnels.
///
/// Device tunnels are attached by `link:<slot>:<tunnel>` meta commands
/// from the harness after it connects device channels; movie control
/// arrives as `MovieControl` meta-signals and is forwarded to the server
/// channel. A malformed link, or one naming a slot the box does not have
/// or a tunnel the server channel does not carry, is ignored.
pub struct CollabPrimaryLogic {
    server_name: String,
    server_slots: Vec<SlotId>,
    server_channel: Option<ChannelId>,
    /// (device slot, server tunnel index) pairs to link once possible.
    pending_links: Vec<(SlotId, usize)>,
}

impl CollabPrimaryLogic {
    pub fn new(server_name: impl Into<String>) -> Self {
        Self {
            server_name: server_name.into(),
            server_slots: Vec::new(),
            server_channel: None,
            pending_links: Vec::new(),
        }
    }

    fn try_links(&mut self, ctx: &mut Ctx<'_>) {
        if self.server_slots.is_empty() {
            return;
        }
        for (dev, t) in self.pending_links.drain(..) {
            if let (Some(_), Some(&b)) = (ctx.media().slot(dev), self.server_slots.get(t)) {
                ctx.set_goal(GoalSpec::Link { a: dev, b });
            }
        }
    }
}

impl AppLogic for CollabPrimaryLogic {
    fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
        match input {
            BoxInput::Start => {
                ctx.open_channel(self.server_name.clone(), TUNNELS_PRIMARY as u16, REQ_SERVER);
            }
            BoxInput::ChannelUp {
                channel,
                slots,
                req,
            } if *req == Some(REQ_SERVER) => {
                self.server_channel = Some(*channel);
                self.server_slots = slots.clone();
                self.try_links(ctx);
            }
            BoxInput::Meta {
                meta: MetaSignal::App(AppEvent::Custom(cmd)),
                ..
            } => {
                // "link:<slot>:<tunnel>" — flowlink a device slot (on this
                // box) to server tunnel <tunnel>.
                let link = cmd.strip_prefix("link:").and_then(|rest| {
                    let (slot, tunnel) = rest.split_once(':')?;
                    Some((SlotId(slot.parse().ok()?), tunnel.parse().ok()?))
                });
                if let Some(link) = link {
                    self.pending_links.push(link);
                    self.try_links(ctx);
                }
            }
            BoxInput::Meta {
                meta: MetaSignal::App(AppEvent::MovieControl(cmd)),
                ..
            } => {
                // The control box mediates movie commands: forward to the
                // server on the collaboration channel, affecting all five
                // media channels at once.
                if let Some(ch) = self.server_channel {
                    ctx.send_meta(ch, MetaSignal::App(AppEvent::MovieControl(*cmd)));
                }
            }
            _ => {}
        }
    }
}

/// The secondary collaboration box (C's): initially just a relay — its
/// device-side tunnels are flowlinked pairwise to its tunnels toward the
/// primary box. On `leave`, it opens its own channel to the movie server
/// and re-links the device tunnels to it. A malformed slot list or channel
/// id, or a slot list naming a slot the box does not have, is ignored.
pub struct CollabSecondaryLogic {
    server_name: String,
    /// Device-side slots in stream order (video, audio).
    device_slots: Vec<SlotId>,
    /// Slots toward the primary box, same order.
    uplink_slots: Vec<SlotId>,
    uplink_channel: Option<ChannelId>,
    own_channel: Option<ChannelId>,
    own_channel_slots: Vec<SlotId>,
}

const REQ_OWN_SERVER: u32 = 2;

impl CollabSecondaryLogic {
    pub fn new(server_name: impl Into<String>) -> Self {
        Self {
            server_name: server_name.into(),
            device_slots: Vec::new(),
            uplink_slots: Vec::new(),
            uplink_channel: None,
            own_channel: None,
            own_channel_slots: Vec::new(),
        }
    }

    fn relay_links(&self, ctx: &mut Ctx<'_>) {
        if self.uplink_slots.len() != self.device_slots.len() {
            return;
        }
        for (d, u) in self.device_slots.iter().zip(self.uplink_slots.iter()) {
            ctx.set_goal(GoalSpec::Link { a: *d, b: *u });
        }
    }
}

impl AppLogic for CollabSecondaryLogic {
    fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
        match input {
            BoxInput::Meta {
                meta: MetaSignal::App(AppEvent::Custom(cmd)),
                ..
            } => {
                if let Some(rest) = cmd.strip_prefix("device-slots:") {
                    if let Some(slots) = parse_slots(rest, ctx) {
                        self.device_slots = slots;
                        self.relay_links(ctx);
                    }
                } else if let Some(rest) = cmd.strip_prefix("uplink-slots:") {
                    if let Some(slots) = parse_slots(rest, ctx) {
                        self.uplink_slots = slots;
                        self.relay_links(ctx);
                    }
                } else if let Some(id) = cmd.strip_prefix("uplink-channel:") {
                    if let Ok(id) = id.parse() {
                        self.uplink_channel = Some(ChannelId(id));
                    }
                } else if cmd == "leave" {
                    // Fast-forward to independence: own channel, own time
                    // pointer, drop the collaboration.
                    ctx.open_channel(
                        self.server_name.clone(),
                        self.device_slots.len() as u16,
                        REQ_OWN_SERVER,
                    );
                }
            }
            BoxInput::Meta {
                meta: MetaSignal::App(AppEvent::MovieControl(cmd)),
                ..
            } => {
                // Once independent, this box mediates movie control for
                // its own view of the movie.
                if let Some(ch) = self.own_channel {
                    ctx.send_meta(ch, MetaSignal::App(AppEvent::MovieControl(*cmd)));
                }
            }
            BoxInput::ChannelUp {
                channel,
                slots,
                req,
            } if *req == Some(REQ_OWN_SERVER) => {
                self.own_channel = Some(*channel);
                self.own_channel_slots = slots.clone();
                for (d, s) in self.device_slots.iter().zip(slots.iter()) {
                    ctx.set_goal(GoalSpec::Link { a: *d, b: *s });
                }
                if let Some(ch) = self.uplink_channel.take() {
                    ctx.close_channel(ch);
                }
            }
            _ => {}
        }
    }
}

/// A comma-separated slot list, or `None` if it is malformed or names a
/// slot the box does not have.
fn parse_slots(s: &str, ctx: &Ctx<'_>) -> Option<Vec<SlotId>> {
    s.split(',')
        .filter(|p| !p.is_empty())
        .map(|p| Some(SlotId(p.parse().ok()?)).filter(|&slot| ctx.media().slot(slot).is_some()))
        .collect()
}
