//! Temporal-property checking over an explored state graph (§V, §VIII-A).
//!
//! LTL over finite-state systems with terminal states treated as stuttering
//! (a terminal state loops on itself forever):
//!
//! * `A ◇□P` holds iff every state on a (reachable) cycle satisfies `P` and
//!   every terminal state satisfies `P`.
//! * `A □◇P` holds iff the subgraph of `¬P` states is acyclic and every
//!   terminal state satisfies `P`.
//! * `A (◇□C ∨ □◇F)` (hold–hold) holds iff every terminal state satisfies
//!   `C ∨ F` and no cycle both contains a `¬C` state and avoids `F` states
//!   entirely — i.e. in the `¬F` subgraph every state on a cycle satisfies
//!   `C`.

use crate::explore::StateGraph;
use ipmedia_core::monitor::{IM_FLOWLINK, IM_TERMINAL};
use ipmedia_core::path::PathSpec;
use std::fmt;

/// Why a check failed, with the offending state index for trace extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A terminal state breaches the safety condition (slot not closed or
    /// flowing, or a non-empty tunnel).
    DirtyTerminal { state: u32 },
    /// A terminal state fails the spec's required predicate.
    BadTerminal { state: u32 },
    /// A cycle visits a state it must not (for `◇□P`: a `¬P` state on a
    /// cycle; for `□◇P`: a cycle entirely within `¬P`).
    BadCycle { state: u32 },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DirtyTerminal { state } => {
                write!(f, "terminal state {state} is not clean")
            }
            Violation::BadTerminal { state } => {
                write!(f, "terminal state {state} violates the path spec")
            }
            Violation::BadCycle { state } => {
                write!(f, "state {state} lies on a spec-violating cycle")
            }
        }
    }
}

/// Map a violation to the invariant code shared with the runtime monitor
/// (`ipmedia_core::monitor`): static counterexamples and live findings of
/// the same class carry the same code, so the two are directly diffable.
///
/// * `IM201` — flowlink convergence (liveness of `bothFlowing`).
/// * `IM301` — dirty/ill-terminated terminal state.
pub fn invariant_code(spec: PathSpec, v: &Violation) -> &'static str {
    match v {
        Violation::DirtyTerminal { .. } => IM_TERMINAL,
        Violation::BadTerminal { .. } | Violation::BadCycle { .. } => match spec {
            PathSpec::AlwaysEventuallyBothFlowing | PathSpec::EventuallyAlwaysNotBothFlowing => {
                IM_FLOWLINK
            }
            PathSpec::EventuallyAlwaysBothClosed | PathSpec::ClosedOrFlowing => IM_TERMINAL,
        },
    }
}

/// Safety (§VIII-A): every terminal state has each slot closed or flowing
/// and all tunnels empty.
pub fn check_safety(g: &StateGraph) -> Result<(), Violation> {
    for &t in &g.terminals {
        if !g.flags[t as usize].clean {
            return Err(Violation::DirtyTerminal { state: t });
        }
    }
    Ok(())
}

/// Check the §V specification for the path type over the explored graph.
pub fn check_spec(g: &StateGraph, spec: PathSpec) -> Result<(), Violation> {
    let flowing = |i: u32| g.flags[i as usize].both_flowing;
    let closed = |i: u32| g.flags[i as usize].both_closed;
    match spec {
        PathSpec::EventuallyAlwaysBothClosed => {
            check_terminals(g, closed)?;
            // No cycle may contain a ¬bothClosed state.
            let on_cycle = cycle_states(g, |_| true);
            for i in on_cycle {
                if !closed(i) {
                    return Err(Violation::BadCycle { state: i });
                }
            }
            Ok(())
        }
        PathSpec::EventuallyAlwaysNotBothFlowing => {
            check_terminals(g, |i| !flowing(i))?;
            let on_cycle = cycle_states(g, |_| true);
            for i in on_cycle {
                if flowing(i) {
                    return Err(Violation::BadCycle { state: i });
                }
            }
            Ok(())
        }
        PathSpec::AlwaysEventuallyBothFlowing => {
            check_terminals(g, flowing)?;
            // The ¬bothFlowing subgraph must be acyclic.
            let bad = cycle_states(g, |i| !flowing(i));
            if let Some(&i) = bad.first() {
                return Err(Violation::BadCycle { state: i });
            }
            Ok(())
        }
        PathSpec::ClosedOrFlowing => {
            check_terminals(g, |i| closed(i) || flowing(i))?;
            // In the ¬bothFlowing subgraph, every state on a cycle must be
            // bothClosed.
            let on_cycle = cycle_states(g, |i| !flowing(i));
            for i in on_cycle {
                if !closed(i) {
                    return Err(Violation::BadCycle { state: i });
                }
            }
            Ok(())
        }
    }
}

fn check_terminals(g: &StateGraph, pred: impl Fn(u32) -> bool) -> Result<(), Violation> {
    for &t in &g.terminals {
        if !pred(t) {
            return Err(Violation::BadTerminal { state: t });
        }
    }
    Ok(())
}

/// States lying on a cycle of the subgraph induced by `keep`, computed with
/// an iterative Tarjan SCC: a state is on a cycle iff its SCC is nontrivial
/// or it has a self-loop.
pub fn cycle_states(g: &StateGraph, keep: impl Fn(u32) -> bool) -> Vec<u32> {
    let n = g.states();
    let keep_v: Vec<bool> = (0..n as u32).map(&keep).collect();

    // Iterative Tarjan.
    const UNSET: u32 = u32::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut scc_of = vec![UNSET; n];
    let mut scc_size: Vec<u32> = Vec::new();

    // Work stack: (node, child cursor).
    let mut work: Vec<(u32, usize)> = Vec::new();
    for start in 0..n as u32 {
        if !keep_v[start as usize] || index[start as usize] != UNSET {
            continue;
        }
        work.push((start, 0));
        index[start as usize] = next_index;
        low[start as usize] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start as usize] = true;

        while let Some(&mut (v, ref mut cursor)) = work.last_mut() {
            let vs = v as usize;
            if let Some(&w) = g.succ(v).get(*cursor) {
                *cursor += 1;
                let ws = w as usize;
                if !keep_v[ws] {
                    continue;
                }
                if index[ws] == UNSET {
                    index[ws] = next_index;
                    low[ws] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[ws] = true;
                    work.push((w, 0));
                } else if on_stack[ws] {
                    low[vs] = low[vs].min(index[ws]);
                }
            } else {
                work.pop();
                if let Some(&mut (p, _)) = work.last_mut() {
                    let ps = p as usize;
                    low[ps] = low[ps].min(low[vs]);
                }
                if low[vs] == index[vs] {
                    let scc_id = scc_size.len() as u32;
                    let mut size = 0;
                    loop {
                        let w = stack.pop().expect("scc member");
                        on_stack[w as usize] = false;
                        scc_of[w as usize] = scc_id;
                        size += 1;
                        if w == v {
                            break;
                        }
                    }
                    scc_size.push(size);
                }
            }
        }
    }

    let mut out = Vec::new();
    for v in 0..n as u32 {
        let vs = v as usize;
        if !keep_v[vs] || scc_of[vs] == UNSET {
            continue;
        }
        let nontrivial = scc_size[scc_of[vs] as usize] > 1;
        let self_loop = g.succ(v).contains(&v);
        if nontrivial || self_loop {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::StateFlags;
    use std::time::Duration;

    fn graph(succ: Vec<Vec<u32>>, flowing: Vec<bool>, closed: Vec<bool>) -> StateGraph {
        let n = succ.len();
        let terminals = (0..n as u32)
            .filter(|&i| succ[i as usize].is_empty())
            .collect();
        let mut succ_start = vec![0];
        for list in &succ {
            succ_start.push(succ_start[succ_start.len() - 1] + list.len() as u32);
        }
        StateGraph {
            flags: (0..n)
                .map(|i| StateFlags {
                    both_closed: closed[i],
                    both_flowing: flowing[i],
                    clean: true,
                    fully_attached: true,
                })
                .collect(),
            parent: Vec::new(),
            terminals,
            transitions: 0,
            elapsed: Duration::ZERO,
            truncated: false,
            expanded: n,
            dedup_hits: 0,
            local_steps: 0,
            canonicalized: 0,
            rebuilt: 0,
            succ_start,
            succ_to: succ.concat(),
        }
    }

    #[test]
    fn cycle_detection_finds_loop() {
        // 0 → 1 → 2 → 1, 0 → 3(terminal)
        let g = graph(
            vec![vec![1, 3], vec![2], vec![1], vec![]],
            vec![false; 4],
            vec![true; 4],
        );
        let mut c = cycle_states(&g, |_| true);
        c.sort();
        assert_eq!(c, vec![1, 2]);
    }

    #[test]
    fn self_loop_counts_as_cycle() {
        let g = graph(vec![vec![0]], vec![false], vec![false]);
        assert_eq!(cycle_states(&g, |_| true), vec![0]);
    }

    #[test]
    fn eventually_always_closed_rejects_open_cycle() {
        // A cycle containing a non-closed state violates ◇□bothClosed.
        let g = graph(
            vec![vec![1], vec![2], vec![1]],
            vec![false, false, false],
            vec![true, true, false],
        );
        assert!(matches!(
            check_spec(&g, ipmedia_core::PathSpec::EventuallyAlwaysBothClosed),
            Err(Violation::BadCycle { .. })
        ));
    }

    #[test]
    fn always_eventually_flowing_rejects_flow_free_cycle() {
        let g = graph(
            vec![vec![1], vec![2], vec![1]],
            vec![false, false, false],
            vec![false; 3],
        );
        assert!(matches!(
            check_spec(&g, ipmedia_core::PathSpec::AlwaysEventuallyBothFlowing),
            Err(Violation::BadCycle { .. })
        ));
    }

    #[test]
    fn always_eventually_flowing_accepts_cycle_through_flow() {
        // Cycle 1 → 2 → 1 where 2 is flowing: every loop re-visits flowing.
        let g = graph(
            vec![vec![1], vec![2], vec![1]],
            vec![false, false, true],
            vec![false; 3],
        );
        assert!(check_spec(&g, ipmedia_core::PathSpec::AlwaysEventuallyBothFlowing).is_ok());
    }

    #[test]
    fn closed_or_flowing_disjunction() {
        // Terminal flowing: fine. Terminal closed: fine. Terminal neither: bad.
        let ok = graph(vec![vec![]], vec![true], vec![false]);
        assert!(check_spec(&ok, ipmedia_core::PathSpec::ClosedOrFlowing).is_ok());
        let ok2 = graph(vec![vec![]], vec![false], vec![true]);
        assert!(check_spec(&ok2, ipmedia_core::PathSpec::ClosedOrFlowing).is_ok());
        let bad = graph(vec![vec![]], vec![false], vec![false]);
        assert!(check_spec(&bad, ipmedia_core::PathSpec::ClosedOrFlowing).is_err());
    }

    #[test]
    fn bad_terminal_detected() {
        let g = graph(vec![vec![]], vec![false], vec![false]);
        assert!(matches!(
            check_spec(&g, ipmedia_core::PathSpec::EventuallyAlwaysBothClosed),
            Err(Violation::BadTerminal { state: 0 })
        ));
    }

    #[test]
    fn invariant_codes_match_monitor_constants() {
        use ipmedia_core::PathSpec as P;
        let dirty = Violation::DirtyTerminal { state: 0 };
        let term = Violation::BadTerminal { state: 0 };
        let cycle = Violation::BadCycle { state: 0 };
        // Dirty terminals are IM301 regardless of the spec under check.
        for spec in [
            P::EventuallyAlwaysBothClosed,
            P::EventuallyAlwaysNotBothFlowing,
            P::AlwaysEventuallyBothFlowing,
            P::ClosedOrFlowing,
        ] {
            assert_eq!(invariant_code(spec, &dirty), IM_TERMINAL);
        }
        // Flowing-liveness specs map to the flowlink-convergence code.
        assert_eq!(
            invariant_code(P::AlwaysEventuallyBothFlowing, &cycle),
            IM_FLOWLINK
        );
        assert_eq!(
            invariant_code(P::EventuallyAlwaysNotBothFlowing, &term),
            IM_FLOWLINK
        );
        // Teardown/terminal-shape specs map to the terminal code.
        assert_eq!(
            invariant_code(P::EventuallyAlwaysBothClosed, &cycle),
            IM_TERMINAL
        );
        assert_eq!(invariant_code(P::ClosedOrFlowing, &term), IM_TERMINAL);
    }
}
