//! The published snapshot is folded from the slots an event touched, not
//! rebuilt: these are the cases where a fold can go stale — the slot set
//! growing and shrinking under flowing calls, a connection recovering,
//! one signal moving two slots of a flowlink, and a route that flips
//! with no state transition. Each ends by demanding the whole published
//! value, equal to one written down from what the test set up. (In debug
//! builds every publish of every node also checks itself against a
//! rebuild; see `Actor::publish`.)

use ipmedia_core::endpoint::{CallerLogic, EndpointLogic, RelayLogic};
use ipmedia_core::goal::{EndpointPolicy, UserCmd};
use ipmedia_core::ids::{ChannelId, SlotId};
use ipmedia_core::program::{AppLogic, BoxInput, Ctx, TimerId};
use ipmedia_core::{BoxId, Codec, MediaAddr, SlotState};
use ipmedia_rt::{spawn_node, Directory, NodeHandle, NodeOptions, ReconnectPolicy, SlotSnapshot};
use tokio::time::Duration;

const WAIT: Duration = Duration::from_secs(10);
const DIAL: TimerId = TimerId(1);
const HANGUP: TimerId = TimerId(2);

fn addr(h: u8) -> MediaAddr {
    MediaAddr::v4(10, 0, 0, h, 4000)
}

/// Box 1: a [`CallerLogic`] of two-tunnel channels that dials once more
/// per injected [`DIAL`] and hangs its oldest channel up on [`HANGUP`].
struct Churn {
    target: &'static str,
    caller: CallerLogic,
    up: Vec<ChannelId>,
}

impl AppLogic for Churn {
    fn handle(&mut self, input: &BoxInput, ctx: &mut Ctx<'_>) {
        match input {
            BoxInput::Timer(DIAL) => ctx.open_channel(self.target, 2, 1),
            BoxInput::Timer(HANGUP) => ctx.close_channel(self.up.remove(0)),
            _ => {
                if let BoxInput::ChannelUp {
                    channel,
                    req: Some(_),
                    ..
                } = input
                {
                    self.up.push(*channel);
                }
                self.caller.handle(input, ctx);
            }
        }
    }
}

async fn caller(target: &'static str, channels: u16, dir: &Directory) -> NodeHandle {
    let logic = Churn {
        target,
        caller: CallerLogic::new(EndpointPolicy::audio(addr(1)), target, channels, 2),
        up: Vec::new(),
    };
    let policy = ReconnectPolicy {
        base_delay: Duration::from_millis(20),
        max_delay: Duration::from_millis(100),
        reconnect_attempts: 40,
        ..ReconnectPolicy::default()
    };
    spawn_node(
        "caller",
        BoxId(1),
        Box::new(logic),
        dir.clone(),
        NodeOptions {
            policy,
            ..NodeOptions::default()
        },
    )
    .await
    .unwrap()
}

async fn callee(dir: &Directory) -> NodeHandle {
    let logic = EndpointLogic::resource(EndpointPolicy::audio(addr(3)));
    spawn_node(
        "callee",
        BoxId(3),
        Box::new(logic),
        dir.clone(),
        NodeOptions::default(),
    )
    .await
    .unwrap()
}

/// A slot's entry: a host numbers its slots from zero in the order its
/// channels were registered; `toward` is the box whose address the slot
/// transmits to, if it transmits.
fn entry(slot: u16, state: SlotState, toward: Option<u8>) -> SlotSnapshot {
    SlotSnapshot {
        slot: SlotId(slot),
        state,
        tx_route: toward.map(|h| (addr(h), Codec::G711)),
    }
}

fn flowing(slots: std::ops::Range<u16>, toward: u8) -> Vec<SlotSnapshot> {
    slots
        .map(|s| entry(s, SlotState::Flowing, Some(toward)))
        .collect()
}

/// The node's published snapshot comes to hold exactly this.
async fn publishes(
    node: &mut NodeHandle,
    channels: usize,
    recovering: usize,
    slots: &[SlotSnapshot],
) {
    let settled = node
        .wait_for(WAIT, |s| {
            s.channels == channels && s.recovering == recovering && s.slots == slots
        })
        .await;
    // Cloned out first: a panic under the borrow would poison the watch.
    let held = node.snapshot.borrow().clone();
    assert!(
        settled,
        "{} should publish {channels} channel(s), {recovering} recovering, {slots:?}\nbut holds {} channel(s), {} recovering, {:?}",
        node.name, held.channels, held.recovering, held.slots
    );
}

#[tokio::test]
async fn a_channel_dialled_mid_call_grows_the_snapshot() {
    let dir = Directory::new();
    let mut callee = callee(&dir).await;
    let mut caller = caller("callee", 1, &dir).await;
    publishes(&mut caller, 1, 0, &flowing(0..2, 3)).await;
    publishes(&mut callee, 1, 0, &flowing(0..2, 1)).await;

    caller.inject(BoxInput::Timer(DIAL)).await;
    publishes(&mut caller, 2, 0, &flowing(0..4, 3)).await;
    publishes(&mut callee, 2, 0, &flowing(0..4, 1)).await;
    caller.shutdown().await;
    callee.shutdown().await;
}

#[tokio::test]
async fn close_channel_and_the_peers_bye_shrink_it() {
    let dir = Directory::new();
    let mut callee = callee(&dir).await;
    let mut caller = caller("callee", 2, &dir).await;
    publishes(&mut caller, 2, 0, &flowing(0..4, 3)).await;
    publishes(&mut callee, 2, 0, &flowing(0..4, 1)).await;

    // The caller's own `CloseChannel`; the callee hears the `Bye`.
    caller.inject(BoxInput::Timer(HANGUP)).await;
    publishes(&mut caller, 1, 0, &flowing(2..4, 3)).await;
    publishes(&mut callee, 1, 0, &flowing(2..4, 1)).await;
    // The calls left are live: one closes, at both ends.
    caller.user(SlotId(3), UserCmd::Close).await;
    let left = |toward| {
        [
            entry(2, SlotState::Flowing, Some(toward)),
            entry(3, SlotState::Closed, None),
        ]
    };
    publishes(&mut caller, 1, 0, &left(3)).await;
    publishes(&mut callee, 1, 0, &left(1)).await;
    caller.shutdown().await;
    callee.shutdown().await;
}

#[tokio::test]
async fn crash_redial_and_resync_fold_into_the_parked_slots() {
    let dir = Directory::new();
    let first = callee(&dir).await;
    let mut caller = caller("callee", 1, &dir).await;
    publishes(&mut caller, 1, 0, &flowing(0..2, 3)).await;

    // A frame written at the dead peer collapses the connection: the
    // slots park as they were. (Muting its own inbound leaves the
    // caller's transmit route alone.)
    first.abort();
    let mute_in = UserCmd::Modify {
        mute_in: true,
        mute_out: false,
    };
    caller.user(SlotId(0), mute_in).await;
    publishes(&mut caller, 1, 1, &flowing(0..2, 3)).await;

    // The restarted callee knows neither call and refuses the resync of
    // each with a close: both ends hold two closed slots on one channel.
    let mut second = callee(&dir).await;
    let closed = [0, 1].map(|s| entry(s, SlotState::Closed, None));
    publishes(&mut caller, 1, 0, &closed).await;
    publishes(&mut second, 1, 0, &closed).await;
    caller.shutdown().await;
    second.shutdown().await;
}

#[tokio::test]
async fn one_signal_through_a_flowlink_moves_both_of_its_slots() {
    let dir = Directory::new();
    let mut callee = callee(&dir).await;
    let mut gateway = spawn_node(
        "gateway",
        BoxId(2),
        Box::new(RelayLogic::new("callee")),
        dir.clone(),
        NodeOptions::default(),
    )
    .await
    .unwrap();
    let mut caller = caller("gateway", 1, &dir).await;
    // Slots 0–1 face the caller and carry the callee's selectors, 2–3 the
    // reverse; the endpoints address each other past the gateway.
    let linked = [flowing(0..2, 1), flowing(2..4, 3)].concat();
    publishes(&mut gateway, 2, 0, &linked).await;
    publishes(&mut caller, 1, 0, &flowing(0..2, 3)).await;
    publishes(&mut callee, 1, 0, &flowing(0..2, 1)).await;

    // The caller's close closes gateway slot 1 and, forwarded, slot 3.
    caller.user(SlotId(1), UserCmd::Close).await;
    let mut one_closed = linked.clone();
    one_closed[1] = entry(1, SlotState::Closed, None);
    one_closed[3] = entry(3, SlotState::Closed, None);
    publishes(&mut gateway, 2, 0, &one_closed).await;

    // Muted inbound at the caller: its `noMedia` descriptor takes the
    // route from gateway slot 0 and from the callee, no state changing.
    let mute = |mute_in| UserCmd::Modify {
        mute_in,
        mute_out: false,
    };
    caller.user(SlotId(0), mute(true)).await;
    let mut muted = one_closed.clone();
    muted[0] = entry(0, SlotState::Flowing, None);
    publishes(&mut gateway, 2, 0, &muted).await;
    caller.user(SlotId(0), mute(false)).await;
    publishes(&mut gateway, 2, 0, &one_closed).await;
    for node in [caller, gateway, callee] {
        node.shutdown().await;
    }
}

#[tokio::test]
async fn a_mid_call_modify_flips_the_far_route_and_no_state() {
    let dir = Directory::new();
    let mut callee = callee(&dir).await;
    let mut caller = caller("callee", 1, &dir).await;
    publishes(&mut caller, 1, 0, &flowing(0..2, 3)).await;
    publishes(&mut callee, 1, 0, &flowing(0..2, 1)).await;

    let mute = |mute_in| UserCmd::Modify {
        mute_in,
        mute_out: false,
    };
    caller.user(SlotId(1), mute(true)).await;
    let muted = [
        entry(0, SlotState::Flowing, Some(1)),
        entry(1, SlotState::Flowing, None),
    ];
    publishes(&mut callee, 1, 0, &muted).await;
    publishes(&mut caller, 1, 0, &flowing(0..2, 3)).await;
    caller.user(SlotId(1), mute(false)).await;
    publishes(&mut callee, 1, 0, &flowing(0..2, 1)).await;
    caller.shutdown().await;
    callee.shutdown().await;
}
