//! Rendering counterexamples as Fig.-10-style signal ladders.
//!
//! A checker verdict like "bad terminal at state 4711" is useless without
//! the trace behind it. This module replays the BFS action path to a
//! state over the *real* [`PathState`] transition function and renders it
//! through the shared [`ipmedia_obs::ladder`] printer, so a model-checker
//! counterexample reads exactly like a simulator trace: one column per
//! path element, arrows for tunnel deliveries labeled with the signal
//! kind, `*` marks for local nondeterministic and goal-attachment steps.

use crate::explore::StateGraph;
use crate::props::Violation;
use crate::state::{Action, CheckConfig, NondetOp, PathState};
use ipmedia_core::path::PathSpec;
use ipmedia_obs::ladder::{render, LadderEvent};

fn op_name(op: NondetOp) -> &'static str {
    match op {
        NondetOp::Open => "open",
        NondetOp::Accept => "accept",
        NondetOp::Close => "close",
        NondetOp::ToggleMuteIn => "mute-in",
        NondetOp::ToggleMuteOut => "mute-out",
    }
}

/// Render the explored graph's trace to `state` as an ASCII ladder.
pub fn render_counterexample(cfg: &CheckConfig, g: &StateGraph, state: u32) -> String {
    render_trace(cfg, &g.trace_to(state))
}

/// Replay `trace` from the initial state, verifying every action is
/// enabled where it is taken. Returns the final state, or `None` if some
/// action is not enabled (the trace is not a real run).
pub fn replay(cfg: &CheckConfig, trace: &[Action]) -> Option<PathState> {
    let mut state = PathState::initial(cfg);
    for &a in trace {
        if !state.actions(cfg).contains(&a) {
            return None;
        }
        state = state.apply(cfg, a);
    }
    Some(state)
}

/// Greedily shrink a counterexample trace with [`ipmedia_core::shrink`]:
/// each candidate deletes one action, the first action first, and counts
/// only if it still replays to a final state satisfying `keep`. The result
/// is deterministic — the same input trace minimizes to the same ladder
/// however the graph that produced it was explored.
pub fn minimize_trace(
    cfg: &CheckConfig,
    trace: &[Action],
    keep: &dyn Fn(&CheckConfig, &PathState) -> bool,
) -> Vec<Action> {
    let drop_one_action = |t: &Vec<Action>| {
        let t = t.clone();
        (0..t.len()).map(move |i| {
            let mut cand = t.clone();
            cand.remove(i);
            cand
        })
    };
    ipmedia_core::shrink(trace.to_vec(), drop_one_action, |cand| {
        replay(cfg, cand).is_some_and(|fin| keep(cfg, &fin))
    })
}

/// Minimize the graph's counterexample for `violation`. For terminal
/// violations the kept condition is semantic ("still a terminal state
/// breaching the same property"), so whole phase-1 digressions drop out;
/// for cycle violations, membership in a bad cycle is not locally
/// checkable, so the kept condition is "reaches the same state" and only
/// redundant loops are removed.
pub fn minimize_counterexample(
    cfg: &CheckConfig,
    g: &StateGraph,
    spec: PathSpec,
    violation: &Violation,
) -> Vec<Action> {
    let trace = g.trace_to(violation_state(violation));
    match violation {
        Violation::DirtyTerminal { .. } => minimize_trace(cfg, &trace, &|cfg, s| {
            s.actions(cfg).is_empty() && !s.clean()
        }),
        Violation::BadTerminal { .. } => {
            let bad = move |cfg: &CheckConfig, s: &PathState| {
                s.actions(cfg).is_empty() && !terminal_spec_holds(spec, s)
            };
            minimize_trace(cfg, &trace, &bad)
        }
        Violation::BadCycle { .. } => {
            let target = replay(cfg, &trace).expect("graph trace replays");
            minimize_trace(cfg, &trace, &|_, s| *s == target)
        }
    }
}

fn violation_state(v: &Violation) -> u32 {
    match v {
        Violation::DirtyTerminal { state }
        | Violation::BadTerminal { state }
        | Violation::BadCycle { state } => *state,
    }
}

/// The predicate a terminal state must satisfy under `spec` (the terminal
/// half of the §V temporal specifications).
fn terminal_spec_holds(spec: PathSpec, s: &PathState) -> bool {
    match spec {
        PathSpec::EventuallyAlwaysBothClosed => s.both_closed(),
        PathSpec::EventuallyAlwaysNotBothFlowing => !s.both_flowing(),
        PathSpec::AlwaysEventuallyBothFlowing => s.both_flowing(),
        PathSpec::ClosedOrFlowing => s.both_closed() || s.both_flowing(),
    }
}

/// Replay `trace` from [`PathState::initial`] and render it as a ladder.
///
/// The time gutter shows the step number (the checker has no clock, so
/// step `k` is stamped as `k.000ms`). Tunnel deliveries peek the queue
/// head *before* applying the action, which is the only point where the
/// delivered signal's kind is still observable.
pub fn render_trace(cfg: &CheckConfig, trace: &[Action]) -> String {
    let mut names: Vec<String> = vec!["end-l".to_string()];
    for i in 0..cfg.links {
        names.push(format!("link{i}"));
    }
    names.push("end-r".to_string());
    let columns: Vec<&str> = names.iter().map(String::as_str).collect();
    let right_col = cfg.links + 1;
    let end_col = |right: bool| if right { right_col } else { 0 };

    let mut state = PathState::initial(cfg);
    let mut events = Vec::with_capacity(trace.len());
    for (step, &action) in trace.iter().enumerate() {
        let at = (step as u64 + 1) * 1_000;
        let ev = match action {
            Action::DeliverFwd(t) => {
                let kind = state.tunnels[t].fwd.front().expect("enabled action").kind();
                LadderEvent::arrow(at, t, t + 1, kind)
            }
            Action::DeliverBwd(t) => {
                let kind = state.tunnels[t].bwd.front().expect("enabled action").kind();
                LadderEvent::arrow(at, t + 1, t, kind)
            }
            Action::EndNondet { right, op } => {
                LadderEvent::local(at, end_col(right), format!("user:{}", op_name(op)))
            }
            Action::EndAttach { right } => LadderEvent::local(at, end_col(right), "attach goal"),
            Action::EndModify { right, op } => {
                LadderEvent::local(at, end_col(right), format!("modify:{}", op_name(op)))
            }
            Action::LinkNondet { idx, side, op } => {
                LadderEvent::local(at, idx + 1, format!("s{side} user:{}", op_name(op)))
            }
            Action::LinkAttach { idx } => LadderEvent::local(at, idx + 1, "attach flowlink"),
            Action::DropFwd(t) => {
                let kind = state.tunnels[t].fwd.front().expect("enabled action").kind();
                LadderEvent::local(at, t, format!("drop fwd:{kind}"))
            }
            Action::DropBwd(t) => {
                let kind = state.tunnels[t].bwd.front().expect("enabled action").kind();
                LadderEvent::local(at, t + 1, format!("drop bwd:{kind}"))
            }
            Action::DupFwd(t) => {
                let kind = state.tunnels[t].fwd.front().expect("enabled action").kind();
                LadderEvent::local(at, t, format!("dup fwd:{kind}"))
            }
            Action::DupBwd(t) => {
                let kind = state.tunnels[t].bwd.front().expect("enabled action").kind();
                LadderEvent::local(at, t + 1, format!("dup bwd:{kind}"))
            }
            Action::RetransmitFwd(t) => LadderEvent::local(at, t, "retransmit"),
            Action::RetransmitBwd(t) => LadderEvent::local(at, t + 1, "retransmit"),
        };
        events.push(ev);
        state = state.apply(cfg, action);
    }
    render(&columns, &events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::budgeted;
    use crate::explore::explore;
    use ipmedia_core::path::PathType;

    #[test]
    fn terminal_trace_renders_as_a_ladder() {
        let (l, r) = PathType::OpenOpen.ends();
        let cfg = budgeted(0, l, r, 0);
        let g = explore(&cfg, 2_000_000);
        assert!(!g.terminals.is_empty());
        let ladder = render_counterexample(&cfg, &g, g.terminals[0]);
        let lines: Vec<&str> = ladder.lines().collect();
        assert!(lines[0].contains("end-l") && lines[0].contains("end-r"));
        // Reaching any terminal of an open–open path takes protocol work:
        // some arrows, some local steps, all stamped with step numbers.
        assert!(lines.len() > 3, "trace too short:\n{ladder}");
        assert!(ladder.contains('*'), "no local steps:\n{ladder}");
        assert!(
            ladder.contains('>') || ladder.contains('<'),
            "no deliveries:\n{ladder}"
        );
        assert!(lines[1].starts_with("     1.000ms"));
    }

    #[test]
    fn minimized_counterexample_still_violates() {
        // Cross-check a wrong spec (open–open vs ◇□bothClosed): the
        // minimized trace must still reach a violating terminal, and be no
        // longer than the original.
        use crate::props::{check_spec, Violation};
        use ipmedia_core::path::PathSpec;
        let (l, r) = PathType::OpenOpen.ends();
        let cfg = budgeted(0, l, r, 0);
        let g = explore(&cfg, 2_000_000);
        let spec = PathSpec::EventuallyAlwaysBothClosed;
        let Err(v @ Violation::BadTerminal { state }) = check_spec(&g, spec) else {
            panic!("open–open must violate ◇□bothClosed with a bad terminal");
        };
        let full = g.trace_to(state);
        let min = super::minimize_counterexample(&cfg, &g, spec, &v);
        assert!(min.len() <= full.len());
        let fin = super::replay(&cfg, &min).expect("minimized trace replays");
        assert!(fin.actions(&cfg).is_empty(), "still terminal");
        assert!(!fin.both_closed(), "still violating");
        // Minimization is idempotent (a fixpoint of single deletions).
        let again = super::minimize_trace(&cfg, &min, &|cfg, s| {
            s.actions(cfg).is_empty() && !s.both_closed()
        });
        assert_eq!(again, min);
    }

    #[test]
    fn replay_rejects_illegal_traces() {
        let (l, r) = PathType::OpenHold.ends();
        let cfg = budgeted(0, l, r, 0);
        // Delivering from an empty tunnel is not an enabled action.
        assert!(super::replay(&cfg, &[crate::state::Action::DeliverFwd(0)]).is_none());
    }

    #[test]
    fn flowlink_traces_get_one_column_per_element() {
        let (l, r) = PathType::CloseClose.ends();
        let cfg = budgeted(1, l, r, 0);
        let g = explore(&cfg, 2_000_000);
        let ladder = render_counterexample(&cfg, &g, g.terminals[0]);
        let header = ladder.lines().next().unwrap();
        assert!(header.contains("end-l"));
        assert!(header.contains("link0"));
        assert!(header.contains("end-r"));
    }
}
