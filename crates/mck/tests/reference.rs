//! Reference oracle for the engine's state encoding. The engine stores a
//! state as a row of interned component ids (DESIGN §5.1); this test
//! explores the same spaces with a plain FIFO breadth-first search over a
//! `HashMap<PathState, u32>` — full states, the standard hasher, derived
//! equality, nothing shared with `explore.rs` but `PathState::{initial,
//! actions, apply}` — and requires the identical graph. A row compared by
//! hash only, a stale parent id or a counter packed into the wrong byte
//! would each merge or split states here. So would a local step looked up
//! under too narrow a key (`state::footprint`): the faulty one-flowlink
//! prefix has `Retransmit*` read a flowlink's slot, the two-flowlink one
//! delivers into a box with two out-queues between two others.

use ipmedia_core::path::{EndGoal, PathType};
use ipmedia_mck::{budgeted, explore, Action, CheckConfig, PathState, StateFlags, StateGraph};
use std::collections::{HashMap, VecDeque};

/// The fields of a [`StateGraph`] that do not depend on the clock.
#[derive(Debug, PartialEq)]
struct Reference {
    succ: Vec<Vec<u32>>,
    parent: Vec<Option<(u32, Action)>>,
    terminals: Vec<u32>,
    flags: Vec<StateFlags>,
    transitions: usize,
    dedup_hits: u64,
    /// States were left unexpanded at the cap.
    truncated: bool,
}

impl Reference {
    fn of(g: StateGraph) -> Self {
        let ids = 0..g.states() as u32;
        Reference {
            succ: ids.clone().map(|i| g.succ(i).to_vec()).collect(),
            parent: ids.map(|i| g.parent(i)).collect(),
            terminals: g.terminals,
            flags: g.flags,
            transitions: g.transitions,
            dedup_hits: g.dedup_hits,
            truncated: g.truncated,
        }
    }
}

/// Breadth-first search expanding at most `cap` states, in discovery order.
fn reference(cfg: &CheckConfig, cap: usize) -> Reference {
    let initial = PathState::initial(cfg);
    let mut r = Reference {
        succ: vec![Vec::new()],
        parent: vec![None],
        terminals: Vec::new(),
        flags: vec![StateFlags::of(&initial)],
        transitions: 0,
        dedup_hits: 0,
        truncated: false,
    };
    let mut index: HashMap<PathState, u32> = HashMap::from([(initial.clone(), 0)]);
    let mut frontier = VecDeque::from([initial]);
    for i in 0..cap as u32 {
        let Some(state) = frontier.pop_front() else {
            break;
        };
        let actions = state.actions(cfg);
        if actions.is_empty() {
            r.terminals.push(i);
        }
        for action in actions {
            let next = state.apply(cfg, action);
            r.transitions += 1;
            let id = match index.get(&next) {
                Some(&id) => {
                    r.dedup_hits += 1;
                    id
                }
                None => {
                    let id = r.succ.len() as u32;
                    r.succ.push(Vec::new());
                    r.parent.push(Some((i, action)));
                    r.flags.push(StateFlags::of(&next));
                    index.insert(next.clone(), id);
                    frontier.push_back(next);
                    id
                }
            };
            r.succ[i as usize].push(id);
        }
    }
    r.truncated = !frontier.is_empty();
    r
}

fn assert_same_graph(name: &str, cfg: &CheckConfig, cap: usize) {
    let want = reference(cfg, cap);
    let got = Reference::of(explore(cfg, cap));
    assert_eq!(got.succ.len(), want.succ.len(), "{name}: state count");
    assert!(got == want, "{name}: the explored graph differs");
}

#[test]
fn every_direct_path_type_matches_the_reference() {
    for pt in PathType::all() {
        let (left, right) = pt.ends();
        assert_same_graph(
            &format!("{pt:?}/0"),
            &budgeted(0, left, right, 0),
            usize::MAX,
        );
    }
}

#[test]
fn one_flowlink_prefix_matches_the_reference() {
    let cfg = budgeted(1, EndGoal::Open, EndGoal::Hold, 0);
    assert_same_graph("open-hold/1", &cfg, 20_000);
}

#[test]
fn faulty_one_flowlink_prefix_matches_the_reference() {
    let cfg = budgeted(1, EndGoal::Open, EndGoal::Hold, 0).with_faults(1);
    assert_same_graph("open-hold/1+1fault", &cfg, 20_000);
}

#[test]
fn two_flowlink_prefix_matches_the_reference() {
    let cfg = budgeted(2, EndGoal::Open, EndGoal::Open, 0);
    assert_same_graph("open-open/2", &cfg, 20_000);
}

#[test]
fn faulty_tunnel_matches_the_reference() {
    let cfg = budgeted(0, EndGoal::Open, EndGoal::Hold, 0).with_faults(1);
    assert_same_graph("open-hold/0+1fault", &cfg, usize::MAX);
}

#[test]
fn a_capped_prefix_matches_the_reference() {
    // A cap that stops inside a breadth-first level and one that stops with
    // a level just finished: either way the states the expanded prefix
    // discovered stay, unexpanded, and the graph says it was cut short.
    let cfg = budgeted(0, EndGoal::Open, EndGoal::Hold, 0);
    let full = reference(&cfg, usize::MAX);
    assert!(!full.truncated);
    let mut depth = vec![0u32; full.parent.len()];
    for (i, parent) in full.parent.iter().enumerate() {
        if let Some((p, _)) = parent {
            depth[i] = depth[*p as usize] + 1;
        }
    }
    let mid_level = 500;
    assert_eq!(depth[mid_level - 1], depth[mid_level]);
    let boundary = depth.partition_point(|&d| d <= depth[mid_level]);
    assert!(boundary < depth.len(), "the level after it has states");
    for cap in [mid_level, boundary] {
        assert!(reference(&cfg, cap).truncated, "cap {cap}");
        assert_same_graph(&format!("open-hold/0 capped at {cap}"), &cfg, cap);
    }
}
