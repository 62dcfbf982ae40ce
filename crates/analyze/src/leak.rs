//! Pass 3: leak / termination lints (`AZ3xx`).
//!
//! * `AZ301` (warning) — a declared state is unreachable from the initial
//!   state;
//! * `AZ302` (error) — a non-final state has no outgoing transitions: the
//!   program wedges there with no way to make progress;
//! * `AZ303` (warning) — at a resting point (a final state, or a
//!   transition that `Terminate`s) some slot may still be live (`opening`,
//!   `opened` or `flowing`) while no goal in that state claims it: the
//!   media channel leaks, with nothing left responsible for closing it.
//!
//! The liveness facts come from the conformance pass's abstract slot map,
//! so `AZ303` only fires when some execution actually reaches the resting
//! point with the slot possibly open.

use crate::conformance::{AbsMap, AbsState};
use crate::diag::Diagnostic;
use ipmedia_core::program::model::{ModelEffect, ProgramModel, StateModel};
use std::collections::BTreeSet;

fn possibly_live(set: &BTreeSet<AbsState>) -> bool {
    set.iter().any(|abs| match abs {
        AbsState::Unbound => false,
        AbsState::In(s) => s.is_live(),
    })
}

fn claimed_slots(state: &StateModel) -> BTreeSet<&str> {
    state
        .goals
        .iter()
        .flat_map(|g| g.slots.iter().map(String::as_str))
        .collect()
}

fn check_resting_point(
    model: &ProgramModel,
    state: &StateModel,
    abs: &AbsMap,
    how: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(slots) = abs.get(&state.name) else {
        return; // unreachable: AZ301 already covers it
    };
    let claimed = claimed_slots(state);
    for (slot, set) in slots {
        if possibly_live(set) && !claimed.contains(slot.as_str()) {
            let states: Vec<&str> = set.iter().map(|a| a.name()).collect();
            diags.push(
                Diagnostic::warning("AZ303", format!("slot `{slot}` may be left open {how}"))
                    .in_program(&model.name)
                    .at_state(&state.name)
                    .with_note(format!(
                        "possible protocol states: {}; no goal in this state \
                     claims `{slot}`, so nothing will ever close it",
                        states.join(", ")
                    )),
            );
        }
    }
}

/// Run the leak / termination pass. `abs` is the stable abstract slot map
/// produced by [`crate::conformance::analyze`].
pub fn analyze(model: &ProgramModel, abs: &AbsMap) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let reachable = model.reachable_states();
    for st in &model.states {
        if !reachable.contains(st.name.as_str()) {
            diags.push(
                Diagnostic::warning(
                    "AZ301",
                    format!(
                        "state `{}` is unreachable from `{}`",
                        st.name, model.initial
                    ),
                )
                .in_program(&model.name)
                .at_state(&st.name),
            );
            continue;
        }
        if !st.is_final && st.transitions.is_empty() {
            diags.push(
                Diagnostic::error(
                    "AZ302",
                    format!("non-final state `{}` has no outgoing transitions", st.name),
                )
                .in_program(&model.name)
                .at_state(&st.name)
                .with_note(
                    "the program wedges here; mark the state final or add a transition".to_string(),
                ),
            );
        }
        if st.is_final {
            check_resting_point(model, st, abs, "when the program rests here", &mut diags);
        }
    }
    // Terminate leaks: judge the slot map *after* the transition's effects,
    // i.e. at the target state's entry — CloseChannel before Terminate
    // legitimately unbinds.
    for st in &model.states {
        if !reachable.contains(st.name.as_str()) {
            continue;
        }
        for t in &st.transitions {
            if !t.effects.contains(&ModelEffect::Terminate) {
                continue;
            }
            if let Some(target) = model.state_named(&t.to) {
                check_resting_point(
                    model,
                    target,
                    abs,
                    &format!("when the program terminates via `{}`", t.trigger),
                    &mut diags,
                );
            }
        }
    }
    diags.sort_by_key(Diagnostic::render);
    diags.dedup();
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;
    use ipmedia_core::program::model::{GoalAnnotation, ModelTrigger, StateModel};
    use ipmedia_core::GoalKind;

    #[test]
    fn unreachable_state_flagged() {
        let m = ProgramModel::new("p")
            .state(StateModel::new("init").final_state())
            .state(StateModel::new("island").final_state());
        let (_, abs) = conformance::analyze(&m);
        let diags = analyze(&m, &abs);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "AZ301" && d.message.contains("island")),
            "{diags:?}"
        );
    }

    #[test]
    fn dead_end_flagged() {
        let m = ProgramModel::new("p")
            .state(StateModel::new("init").on(ModelTrigger::Start, "stuck", vec![]))
            .state(StateModel::new("stuck"));
        let (_, abs) = conformance::analyze(&m);
        let diags = analyze(&m, &abs);
        assert!(diags.iter().any(|d| d.code == "AZ302"), "{diags:?}");
    }

    /// A slot driven open by a goal, then abandoned in a final state with
    /// no goal claiming it: the channel leaks.
    #[test]
    fn abandoned_live_slot_flagged() {
        let m = ProgramModel::new("p")
            .channel("c")
            .slot("s", Some("c"))
            .state(
                StateModel::new("calling")
                    .goal(GoalAnnotation::one(GoalKind::OpenSlot, "s"))
                    .on(ModelTrigger::SlotFlowing("s".into()), "done", vec![]),
            )
            .state(StateModel::new("done").final_state());
        let (_, abs) = conformance::analyze(&m);
        let diags = analyze(&m, &abs);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "AZ303" && d.message.contains("`s`")),
            "{diags:?}"
        );
    }

    /// Closing the channel before resting is clean: the slot is unbound.
    #[test]
    fn closed_channel_does_not_leak() {
        let m = ProgramModel::new("p")
            .channel("c")
            .slot("s", Some("c"))
            .state(
                StateModel::new("calling")
                    .goal(GoalAnnotation::one(GoalKind::OpenSlot, "s"))
                    .on(
                        ModelTrigger::SlotFlowing("s".into()),
                        "done",
                        vec![
                            ModelEffect::CloseChannel("c".into()),
                            ModelEffect::Terminate,
                        ],
                    ),
            )
            .state(StateModel::new("done").final_state());
        let (_, abs) = conformance::analyze(&m);
        let diags = analyze(&m, &abs);
        assert!(!diags.iter().any(|d| d.code == "AZ303"), "{diags:?}");
    }

    /// A final state whose goals still claim the slot is a legitimate
    /// resting point (e.g. a server dwelling in `linked`).
    #[test]
    fn claimed_slot_at_final_state_is_clean() {
        let m = ProgramModel::new("p")
            .channel("c")
            .slot("s", Some("c"))
            .state(
                StateModel::new("linked")
                    .final_state()
                    .goal(GoalAnnotation::one(GoalKind::OpenSlot, "s")),
            );
        let (_, abs) = conformance::analyze(&m);
        assert!(!analyze(&m, &abs).iter().any(|d| d.code == "AZ303"));
    }
}
