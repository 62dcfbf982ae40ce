//! Experiment E4: collaborative television (Fig. 8).
//!
//! A television (A), French-audio headphones (B), and a laptop (C) share a
//! movie through A's collaborative-control box: five tunnels on one
//! signaling channel, all bound to the same movie and time pointer. Movie
//! control is mediated by A's box. Then the laptop leaves the
//! collaboration and fast-forwards: it gets its own signaling channel to
//! the movie server with an independent time pointer, and the channel
//! between the collaboration boxes disappears.

use ipmedia_apps::collab_tv::{
    CollabPrimaryLogic, CollabSecondaryLogic, MovieServerLogic, T_A_AUDIO, T_A_VIDEO, T_B_FRENCH,
    T_C_AUDIO, T_C_VIDEO,
};
use ipmedia_apps::MediaNet;
use ipmedia_core::endpoint::EndpointLogic;
use ipmedia_core::goal::{AcceptMode, EndpointPolicy, UserCmd};
use ipmedia_core::ids::{BoxId, ChannelId, SlotId};
use ipmedia_core::signal::{AppEvent, MetaSignal, MovieCommand};
use ipmedia_core::{BoxInput, Codec, MediaAddr, Medium};
use ipmedia_media::{Frame, SourceKind};
use ipmedia_netsim::{Network, SimConfig, SimTime};

const T_MAX: SimTime = SimTime(600_000_000);

fn dev_addr(h: u8) -> MediaAddr {
    MediaAddr::v4(10, 0, 0, h, 4000)
}

fn av_policy(h: u8) -> EndpointPolicy {
    EndpointPolicy {
        addr: dev_addr(h),
        recv_codecs: [Codec::G711, Codec::H263].into(),
        send_codecs: [Codec::G711].into(),
        mute_in: false,
        mute_out: false,
    }
}

fn meta(cmd: &str) -> BoxInput {
    BoxInput::Meta {
        channel: ChannelId(u32::MAX),
        meta: MetaSignal::App(AppEvent::Custom(cmd.into())),
    }
}

fn movie_cmd(cmd: MovieCommand) -> BoxInput {
    BoxInput::Meta {
        channel: ChannelId(u32::MAX),
        meta: MetaSignal::App(AppEvent::MovieControl(cmd)),
    }
}

struct World {
    mn: MediaNet,
    tv: BoxId,
    phones: BoxId,
    laptop: BoxId,
    server: BoxId,
    collab_a: BoxId,
    collab_c: BoxId,
    state: ipmedia_apps::collab_tv::SharedServerState,
    commands: ipmedia_apps::collab_tv::SharedCommands,
    registered_channels: usize,
}

impl World {
    /// Register any new server channels with the media plane (one movie
    /// clock per channel) and drain pending movie-control commands.
    fn sync_server(&mut self) {
        let chans = self.state.lock().unwrap().clone();
        for ch in chans.iter().skip(self.registered_channels) {
            let movie = self.mn.plane.add_movie();
            assert_eq!(movie, ch.movie, "movie indices align");
            for (slot, addr) in &ch.ports {
                self.mn
                    .port(self.server, *slot, *addr, SourceKind::MovieVideo { movie });
            }
        }
        self.registered_channels = chans.len();
        for (movie, cmd) in self.commands.lock().unwrap().drain(..) {
            self.mn.plane.movie_mut(movie).apply(cmd);
        }
    }

    fn settle(&mut self) {
        self.mn.net.run_until_quiescent(T_MAX);
        self.sync_server();
    }

    fn pos_at(&self, h: u8) -> Option<u32> {
        match self.mn.plane.last_rx(dev_addr(h)).map(|p| &p.frame) {
            Some(Frame::Video { stream_pos }) => Some(*stream_pos),
            _ => None,
        }
    }
}

fn build() -> World {
    let mut net = Network::new(SimConfig::paper());
    let (server_logic, state, commands) = MovieServerLogic::new(MediaAddr::v4(10, 0, 0, 30, 6000));
    let server = net.add_box("movie-server", Box::new(server_logic));
    let collab_a = net.add_box(
        "collab-a",
        Box::new(CollabPrimaryLogic::new("movie-server")),
    );
    let collab_c = net.add_box(
        "collab-c",
        Box::new(CollabSecondaryLogic::new("movie-server")),
    );
    let tv = net.add_box(
        "tv",
        Box::new(EndpointLogic::new(av_policy(31), AcceptMode::Auto)),
    );
    let phones = net.add_box(
        "headphones",
        Box::new(EndpointLogic::new(av_policy(32), AcceptMode::Auto)),
    );
    let laptop = net.add_box(
        "laptop",
        Box::new(EndpointLogic::new(av_policy(33), AcceptMode::Auto)),
    );
    net.run_until_quiescent(T_MAX);

    // Wire devices to their collaboration boxes.
    let (_, tv_slots, a_tv_slots) = net.connect(tv, collab_a, 2);
    let (_, b_slots, a_b_slots) = net.connect(phones, collab_a, 1);
    let (_, c_slots, cc_dev_slots) = net.connect(laptop, collab_c, 2);
    let (uplink, cc_up_slots, a_cc_slots) = net.connect(collab_c, collab_a, 2);
    net.run_until_quiescent(T_MAX);

    // Tell collab-a which device slot maps to which server tunnel.
    net.inject_input(
        collab_a,
        meta(&format!("link:{}:{}", a_tv_slots[0].0, T_A_VIDEO)),
    );
    net.inject_input(
        collab_a,
        meta(&format!("link:{}:{}", a_tv_slots[1].0, T_A_AUDIO)),
    );
    net.inject_input(
        collab_a,
        meta(&format!("link:{}:{}", a_b_slots[0].0, T_B_FRENCH)),
    );
    net.inject_input(
        collab_a,
        meta(&format!("link:{}:{}", a_cc_slots[0].0, T_C_VIDEO)),
    );
    net.inject_input(
        collab_a,
        meta(&format!("link:{}:{}", a_cc_slots[1].0, T_C_AUDIO)),
    );
    // And collab-c its relay configuration.
    net.inject_input(
        collab_c,
        meta(&format!(
            "device-slots:{},{}",
            cc_dev_slots[0].0, cc_dev_slots[1].0
        )),
    );
    net.inject_input(
        collab_c,
        meta(&format!(
            "uplink-slots:{},{}",
            cc_up_slots[0].0, cc_up_slots[1].0
        )),
    );
    net.inject_input(collab_c, meta(&format!("uplink-channel:{}", uplink.0)));
    net.run_until_quiescent(T_MAX);

    // Devices open their media channels.
    net.user(tv, tv_slots[0], UserCmd::Open(Medium::Video));
    net.user(tv, tv_slots[1], UserCmd::Open(Medium::Audio));
    net.user(phones, b_slots[0], UserCmd::Open(Medium::Audio));
    net.user(laptop, c_slots[0], UserCmd::Open(Medium::Video));
    net.user(laptop, c_slots[1], UserCmd::Open(Medium::Audio));
    net.run_until_quiescent(T_MAX);

    let mut mn = MediaNet::new(net);
    mn.endpoint(tv, dev_addr(31), SourceKind::Silence);
    mn.endpoint(phones, dev_addr(32), SourceKind::Silence);
    mn.endpoint(laptop, dev_addr(33), SourceKind::Silence);

    let mut w = World {
        mn,
        tv,
        phones,
        laptop,
        server,
        collab_a,
        collab_c,
        state,
        commands,
        registered_channels: 0,
    };
    w.sync_server();
    w
}

#[test]
fn shared_movie_plays_in_sync_on_all_devices() {
    let mut w = build();
    // A presses play; the command is mediated by A's control box and
    // affects all five media channels.
    w.mn.net
        .inject_input(w.collab_a, movie_cmd(MovieCommand::Play));
    w.settle();
    w.mn.pump_media(10);

    let tv_pos = w.pos_at(31).expect("TV receives the movie");
    let hp_pos = w.pos_at(32).expect("headphones receive audio");
    let lt_pos = w.pos_at(33).expect("laptop receives the movie");
    assert!(tv_pos > 0, "movie is playing");
    assert_eq!(tv_pos, lt_pos, "TV and laptop share the time point");
    assert_eq!(tv_pos, hp_pos, "French audio is at the same time point");
}

#[test]
fn pause_affects_every_stream() {
    let mut w = build();
    w.mn.net
        .inject_input(w.collab_a, movie_cmd(MovieCommand::Play));
    w.settle();
    w.mn.pump_media(5);
    w.mn.net
        .inject_input(w.collab_a, movie_cmd(MovieCommand::Pause));
    w.settle();
    w.mn.pump_media(3);
    let frozen = w.pos_at(31).unwrap();
    w.mn.pump_media(5);
    assert_eq!(w.pos_at(31).unwrap(), frozen, "TV frozen");
    assert_eq!(w.pos_at(33).unwrap(), frozen, "laptop frozen at same point");
}

#[test]
fn leaving_the_collaboration_forks_the_time_pointer() {
    let mut w = build();
    w.mn.net
        .inject_input(w.collab_a, movie_cmd(MovieCommand::Play));
    w.settle();
    w.mn.pump_media(10);
    let shared = w.pos_at(33).unwrap();
    assert_eq!(w.pos_at(31).unwrap(), shared);

    // The daughter leaves and fast-forwards toward the end of the movie.
    w.mn.net.inject_input(w.collab_c, meta("leave"));
    w.settle();
    assert_eq!(
        w.registered_channels, 2,
        "collab-c now has its own channel to the movie server"
    );
    w.mn.net
        .inject_input(w.collab_c, movie_cmd(MovieCommand::Seek(3_600)));
    w.mn.net
        .inject_input(w.collab_c, movie_cmd(MovieCommand::Play));
    w.settle();
    w.mn.pump_media(10);

    let laptop_pos = w.pos_at(33).unwrap();
    let tv_pos = w.pos_at(31).unwrap();
    assert!(
        laptop_pos >= 3_600 * 50,
        "laptop jumped to the end: {laptop_pos}"
    );
    assert!(
        tv_pos < 3_600 * 50,
        "family room keeps its own time point: {tv_pos}"
    );

    // The movie keeps playing for the family room.
    w.mn.pump_media(5);
    assert!(w.pos_at(31).unwrap() > tv_pos, "movie 0 still advancing");
    let _ = (w.tv, w.phones, w.laptop, w.server);
}

#[test]
fn headphones_carry_audio_stream_of_same_movie() {
    // The French audio channel is a separate tunnel of the same signaling
    // channel — controlled independently, same movie (§IX-B media
    // bundling comparison: our tunnels are independent).
    let mut w = build();
    w.mn.net
        .inject_input(w.collab_a, movie_cmd(MovieCommand::Play));
    w.settle();
    w.mn.pump_media(6);
    let hp = w.pos_at(32).expect("headphones stream flows");
    let tv = w.pos_at(31).expect("tv stream flows");
    assert_eq!(hp, tv);
    // Closing the headphones' channel must not disturb the TV.
    w.mn.net.user(w.phones, SlotId(0), UserCmd::Close);
    w.mn.net.run_until_quiescent(T_MAX);
    w.mn.plane.reset_flows();
    w.mn.pump_media(5);
    assert!(w.pos_at(31).is_some());
    assert_eq!(
        w.mn.plane.flows().count(
            MediaAddr::v4(10, 0, 0, 30, 6000 + T_B_FRENCH as u16),
            dev_addr(32)
        ),
        0,
        "no more French audio after hangup"
    );
}

#[test]
fn bad_collaboration_commands_are_ignored() {
    // The collaboration commands are outside input (they can arrive on
    // the wire): malformed ones, and ones naming a slot the box does not
    // have or a tunnel the server channel does not carry, change nothing.
    let mut w = build();
    for cmd in ["link:", "link:1", "link:x:0", "link:999:0", "link:0:99"] {
        w.mn.net.inject_input(w.collab_a, meta(cmd));
    }
    for cmd in [
        "device-slots:a,b",
        "device-slots:999",
        "uplink-slots:0,zz",
        "uplink-channel:",
        "uplink-channel:x",
    ] {
        w.mn.net.inject_input(w.collab_c, meta(cmd));
    }
    w.mn.net
        .inject_input(w.collab_a, movie_cmd(MovieCommand::Play));
    w.settle();
    w.mn.pump_media(10);
    let tv_pos = w.pos_at(31).expect("TV receives the movie");
    assert!(tv_pos > 0, "movie is playing");
    assert_eq!(
        w.pos_at(33),
        Some(tv_pos),
        "laptop still shares the time point"
    );
}
