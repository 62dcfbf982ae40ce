//! Traced nodes of one process stamp their spans with one clock: a signal
//! in flight between two of them is a `"transit"` span that starts after
//! its cause and ends before its effect, whichever node was spawned first.

use ipmedia_core::endpoint::{CallerLogic, EndpointLogic};
use ipmedia_core::goal::EndpointPolicy;
use ipmedia_core::program::AppLogic;
use ipmedia_core::{BoxId, MediaAddr, SlotState};
use ipmedia_obs::trace::{SpanRecord, SpanSink, Tracer};
use ipmedia_obs::{Clock, WallClock};
use ipmedia_rt::{spawn_node, Directory, NodeHandle, NodeOptions};
use std::sync::Arc;
use tokio::time::{sleep, Duration};

const WAIT: Duration = Duration::from_secs(10);
const SPAWN_GAP: Duration = Duration::from_millis(50);

type SharedClock = Arc<dyn Clock + Send + Sync>;

fn addr(h: u8) -> MediaAddr {
    MediaAddr::v4(10, 0, 0, h, 4000)
}

fn dialer() -> Box<CallerLogic> {
    Box::new(CallerLogic::new(
        EndpointPolicy::audio(addr(1)),
        "callee",
        1,
        1,
    ))
}

async fn traced(
    name: &str,
    id: u32,
    logic: Box<dyn AppLogic>,
    dir: &Directory,
    sink: &Arc<SpanSink>,
    clock: &SharedClock,
) -> NodeHandle {
    spawn_node(
        name,
        BoxId(id),
        logic,
        dir.clone(),
        NodeOptions {
            tracer: Some(Tracer::new(sink.clone(), clock.clone())),
            ..NodeOptions::default()
        },
    )
    .await
    .unwrap()
}

fn callee_logic() -> Box<dyn AppLogic> {
    Box::new(EndpointLogic::resource(EndpointPolicy::audio(addr(2))))
}

async fn established(node: &mut NodeHandle) -> bool {
    let flowing =
        |s: &ipmedia_rt::NodeSnapshot| s.slots.len() == 1 && s.slots[0].state == SlotState::Flowing;
    node.wait_for(WAIT, flowing).await
}

#[tokio::test]
async fn two_traced_nodes_put_a_transit_between_its_cause_and_its_effect() {
    let dir = Directory::new();
    let sink = Arc::new(SpanSink::new(4096));
    let clock: SharedClock = Arc::new(WallClock::new());
    let mut callee = traced("callee", 2, callee_logic(), &dir, &sink, &clock).await;
    sleep(SPAWN_GAP).await;
    let mut caller = traced("caller", 1, dialer(), &dir, &sink, &clock).await;
    assert!(established(&mut caller).await, "caller flowing");
    assert!(established(&mut callee).await, "callee flowing");
    caller.shutdown().await;
    callee.shutdown().await;

    assert_eq!(sink.dropped(), 0);
    let spans = sink.snapshot();
    let transits: Vec<&SpanRecord> = spans.iter().filter(|s| s.kind == "transit").collect();
    for dir in [(1, 2), (2, 1)] {
        assert!(
            transits
                .iter()
                .any(|t| (t.from, t.bx) == (Some(dir.0), dir.1)),
            "no transit {dir:?}"
        );
    }
    for t in transits {
        let cause = spans
            .iter()
            .find(|s| Some(s.id) == t.parent && s.trace == t.trace)
            .unwrap_or_else(|| panic!("parent of {t:?} not recorded"));
        assert_eq!(t.from, Some(cause.bx), "{t:?}");
        let effect = spans
            .iter()
            .find(|s| s.parent == Some(t.id) && s.kind == "stimulus")
            .unwrap_or_else(|| panic!("stimulus under {t:?} not recorded"));
        assert_eq!((effect.bx, effect.trace), (t.bx, t.trace), "{t:?}");
        let timeline = [
            cause.start_micros,
            t.start_micros,
            t.end_micros,
            effect.start_micros,
        ];
        assert!(timeline.is_sorted(), "{timeline:?}: {t:?}");
        assert!(
            t.duration_micros() < SPAWN_GAP.as_micros() as u64,
            "a loopback hop took the spawn gap: {t:?}"
        );
    }
}

#[tokio::test]
async fn a_traced_caller_establishes_against_an_untraced_callee() {
    let dir = Directory::new();
    let sink = Arc::new(SpanSink::new(4096));
    let clock: SharedClock = Arc::new(WallClock::new());
    let mut callee = spawn_node(
        "callee",
        BoxId(2),
        callee_logic(),
        dir.clone(),
        NodeOptions::default(),
    )
    .await
    .unwrap();
    let mut caller = traced("caller", 1, dialer(), &dir, &sink, &clock).await;
    assert!(established(&mut caller).await, "caller flowing");
    assert!(established(&mut callee).await, "callee flowing");
    // Plain frames carry no context back: the caller records its own
    // stimuli and no transit.
    let spans = sink.snapshot();
    assert!(spans.iter().any(|s| s.kind == "stimulus" && s.bx == 1));
    assert!(spans.iter().all(|s| s.kind != "transit" && s.bx == 1));
    caller.shutdown().await;
    callee.shutdown().await;
}
