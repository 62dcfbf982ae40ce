//! An idle node costs no CPU, and neither does one whose handle was
//! dropped. One test, so that the process holds nothing but the pair being
//! measured.

use ipmedia_core::endpoint::{CallerLogic, EndpointLogic};
use ipmedia_core::goal::EndpointPolicy;
use ipmedia_core::{BoxId, MediaAddr, SlotState};
use ipmedia_rt::{spawn_node, Directory, NodeOptions};
use tokio::time::{sleep, Duration};

const CHANNELS: u16 = 64;
const TUNNELS: u16 = 8;

fn addr(h: u8) -> MediaAddr {
    MediaAddr::v4(10, 0, 0, h, 4000)
}

/// User plus system CPU time of this process so far, in clock ticks
/// (fields 14 and 15 of `/proc/self/stat`; the second field, the command
/// name, may itself contain spaces and ends at the last `)`).
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
    let after_comm = &stat[stat.rfind(')').unwrap() + 1..];
    let mut fields = after_comm.split_whitespace().skip(11);
    let mut tick = || fields.next().unwrap().parse::<u64>().unwrap();
    tick() + tick()
}

/// CPU ticks this process uses over the next second.
async fn ticks_in_one_second() -> u64 {
    let before = cpu_ticks();
    sleep(Duration::from_secs(1)).await;
    cpu_ticks() - before
}

#[tokio::test]
async fn an_idle_pair_uses_no_cpu() {
    let dir = Directory::new();
    let logic = EndpointLogic::resource(EndpointPolicy::audio(addr(2)));
    let mut callee = spawn_node(
        "callee",
        BoxId(2),
        Box::new(logic),
        dir.clone(),
        NodeOptions::default(),
    )
    .await
    .unwrap();
    let mut caller = spawn_node(
        "caller",
        BoxId(1),
        Box::new(CallerLogic::new(
            EndpointPolicy::audio(addr(1)),
            "callee",
            CHANNELS,
            TUNNELS,
        )),
        dir,
        NodeOptions::default(),
    )
    .await
    .unwrap();
    let calls = usize::from(CHANNELS * TUNNELS);
    let all_flowing = |s: &ipmedia_rt::NodeSnapshot| {
        s.slots
            .iter()
            .filter(|sl| sl.state == SlotState::Flowing)
            .count()
            == calls
    };
    assert!(caller.wait_for(Duration::from_secs(20), all_flowing).await);
    assert!(callee.wait_for(Duration::from_secs(20), all_flowing).await);

    // 128 connections, each with a parked reader and writer. Ticks are
    // 10 ms: polled at 1 kHz this pair took dozens of them per second.
    sleep(Duration::from_millis(200)).await; // the last frames in flight
    let used = ticks_in_one_second().await;
    assert!(used < 2, "an idle pair used {used} CPU ticks in one second");

    // A dropped handle detaches its node, which keeps its calls up and
    // stays idle: nothing the handle closed may wake it.
    drop(callee);
    let used = ticks_in_one_second().await;
    assert!(
        used < 2,
        "a detached idle node used {used} CPU ticks in one second"
    );
    assert!(all_flowing(&caller.snapshot.borrow()));

    caller.shutdown().await;
}
