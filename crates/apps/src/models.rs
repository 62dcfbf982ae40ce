//! Declarative [`ScenarioModel`]s mirroring the repository's `examples/`
//! scenarios, keyed by example name.
//!
//! Each model is the §IV-A finite-state rendering of the corresponding
//! example's box programs: states with goal annotations, transitions on
//! meta-events. They are the primary input corpus of `ipmedia-analyze`
//! (the `ipmedia-lint --all-examples` gate runs every model here through
//! all analysis passes) and the fixture set for the `core::program::model`
//! validity tests.

use ipmedia_core::path::Topology;
use ipmedia_core::program::model::{
    GoalAnnotation, ModelEffect, ModelTrigger, ProgramModel, ScenarioModel, StateModel,
};
use ipmedia_core::GoalKind;

/// The registered scenario names, alphabetical. Eight mirror the
/// repository's `examples/` binaries; `call_pickup`, `hotline_bridge`
/// and `relay_chain` are registry-only multi-box chains exercising the
/// interprocedural analyzer.
pub const EXAMPLE_NAMES: [&str; 11] = [
    "call_pickup",
    "click_to_dial",
    "conference",
    "hotline_bridge",
    "observability",
    "prepaid_pbx",
    "quickstart",
    "relay_chain",
    "sip_comparison",
    "tcp_call",
    "verify",
];

/// The scenario model for one example, if registered.
pub fn scenario(name: &str) -> Option<ScenarioModel> {
    match name {
        "call_pickup" => Some(call_pickup()),
        "click_to_dial" => Some(click_to_dial_scenario()),
        "conference" => Some(conference()),
        "hotline_bridge" => Some(hotline_bridge()),
        "observability" => Some(observability()),
        "prepaid_pbx" => Some(prepaid_pbx()),
        "quickstart" => Some(quickstart()),
        "relay_chain" => Some(relay_chain()),
        "sip_comparison" => Some(sip_comparison()),
        "tcp_call" => Some(tcp_call()),
        "verify" => Some(verify()),
        _ => None,
    }
}

/// All registered scenario models, in [`EXAMPLE_NAMES`] order.
pub fn all_scenarios() -> Vec<ScenarioModel> {
    EXAMPLE_NAMES
        .iter()
        .map(|n| scenario(n).expect("registered"))
        .collect()
}

fn open(slot: &str) -> GoalAnnotation {
    GoalAnnotation::one(GoalKind::OpenSlot, slot)
}

fn hold(slot: &str) -> GoalAnnotation {
    GoalAnnotation::one(GoalKind::HoldSlot, slot)
}

fn link(a: &str, b: &str) -> GoalAnnotation {
    GoalAnnotation::link(a, b)
}

/// A server whose whole life is one flowlink over two slots — the
/// `quickstart`/`observability` middle box.
fn linking_server(name: &str) -> ProgramModel {
    ProgramModel::new(name)
        .channel("chA")
        .channel("chB")
        .slot("sa", Some("chA"))
        .slot("sb", Some("chB"))
        .state(
            StateModel::new("linked")
                .final_state()
                .goal(link("sa", "sb")),
        )
}

/// Click-to-Dial (Fig. 6): the flagship third-party-call program, with
/// busy-tone and ringback tones spliced in via flowlinks.
fn click_to_dial() -> ProgramModel {
    ProgramModel::new("click_to_dial")
        .channel("ch1")
        .channel("ch2")
        .channel("chT")
        .slot("s1a", Some("ch1"))
        .slot("s2a", Some("ch2"))
        .slot("sTa", Some("chT"))
        .timer("answer")
        .state(StateModel::new("init").on(
            ModelTrigger::Start,
            "oneCall",
            vec![
                ModelEffect::OpenChannel("ch1".into()),
                ModelEffect::SetTimer("answer".into()),
            ],
        ))
        .state(
            StateModel::new("oneCall")
                .goal(open("s1a"))
                .on(
                    ModelTrigger::SlotFlowing("s1a".into()),
                    "twoCalls",
                    vec![
                        ModelEffect::CancelTimer("answer".into()),
                        ModelEffect::OpenChannel("ch2".into()),
                    ],
                )
                .on(
                    ModelTrigger::Timer("answer".into()),
                    "done",
                    vec![
                        ModelEffect::CloseChannel("ch1".into()),
                        ModelEffect::Terminate,
                    ],
                ),
        )
        .state(
            StateModel::new("twoCalls")
                .goal(open("s1a"))
                .goal(open("s2a"))
                .on(
                    ModelTrigger::PeerUnavailable("ch2".into()),
                    "busyTone",
                    vec![
                        ModelEffect::CloseChannel("ch2".into()),
                        ModelEffect::OpenChannel("chT".into()),
                    ],
                )
                .on(
                    ModelTrigger::PeerAvailable("ch2".into()),
                    "ringback",
                    vec![ModelEffect::OpenChannel("chT".into())],
                )
                .on(ModelTrigger::SlotFlowing("s2a".into()), "connected", vec![]),
        )
        .state(StateModel::new("busyTone").goal(link("s1a", "sTa")).on(
            ModelTrigger::ChannelDown("ch1".into()),
            "done",
            vec![
                ModelEffect::CloseChannel("chT".into()),
                ModelEffect::Terminate,
            ],
        ))
        .state(
            StateModel::new("ringback")
                .goal(link("s1a", "sTa"))
                .goal(open("s2a"))
                .on(
                    ModelTrigger::SlotFlowing("s2a".into()),
                    "connected",
                    vec![ModelEffect::CloseChannel("chT".into())],
                )
                .on(
                    ModelTrigger::ChannelDown("ch1".into()),
                    "done",
                    vec![
                        ModelEffect::CloseChannel("ch2".into()),
                        ModelEffect::CloseChannel("chT".into()),
                        ModelEffect::Terminate,
                    ],
                ),
        )
        .state(StateModel::new("connected").goal(link("s1a", "s2a")).on(
            ModelTrigger::ChannelDown("ch1".into()),
            "done",
            vec![
                ModelEffect::CloseChannel("ch2".into()),
                ModelEffect::Terminate,
            ],
        ))
        .state(StateModel::new("done").final_state())
}

/// The conference controller (Fig. 7): flowlinks each participant to a
/// bridge port once the bridge channel is up.
fn conference_server() -> ProgramModel {
    ProgramModel::new("conf_server")
        .channel("chU1")
        .channel("chU2")
        .channel("chU3")
        .channel("chB")
        .slot("u1", Some("chU1"))
        .slot("u2", Some("chU2"))
        .slot("u3", Some("chU3"))
        .slot("p1", Some("chB"))
        .slot("p2", Some("chB"))
        .slot("p3", Some("chB"))
        .state(StateModel::new("gathering").on(
            ModelTrigger::ChannelUp("chB".into()),
            "mixing",
            vec![],
        ))
        .state(
            StateModel::new("mixing")
                .final_state()
                .goal(link("u1", "p1"))
                .goal(link("u2", "p2"))
                .goal(link("u3", "p3")),
        )
}

/// The call-switching PBX of Figs. 2–3: accept a call leg, place the
/// onward leg, flowlink the two.
fn pbx() -> ProgramModel {
    ProgramModel::new("pbx")
        .channel("chIn")
        .channel("chOut")
        .slot("in", Some("chIn"))
        .slot("out", Some("chOut"))
        .state(StateModel::new("idle").on(
            ModelTrigger::SlotOpened("in".into()),
            "placing",
            vec![ModelEffect::OpenChannel("chOut".into())],
        ))
        .state(StateModel::new("placing").goal(hold("in")).on(
            ModelTrigger::ChannelUp("chOut".into()),
            "connected",
            vec![],
        ))
        .state(
            StateModel::new("connected")
                .final_state()
                .goal(link("in", "out")),
        )
}

/// The prepaid-card server PC (§IV-B, Fig. 3): the two-state machine
/// `flowLink(c,a), holdSlot(v)` ↔ `flowLink(c,v), holdSlot(a)`.
fn prepaid() -> ProgramModel {
    ProgramModel::new("prepaid")
        .channel("chC")
        .channel("chA")
        .channel("chV")
        .slot("c", Some("chC"))
        .slot("a", Some("chA"))
        .slot("v", Some("chV"))
        .timer("talk")
        .state(StateModel::new("boot").on(
            ModelTrigger::Start,
            "setup",
            vec![ModelEffect::OpenChannel("chV".into())],
        ))
        .state(StateModel::new("setup").on(
            ModelTrigger::SlotOpened("c".into()),
            "placing",
            vec![ModelEffect::OpenChannel("chA".into())],
        ))
        .state(StateModel::new("placing").goal(hold("c")).on(
            ModelTrigger::ChannelUp("chA".into()),
            "talking",
            vec![ModelEffect::SetTimer("talk".into())],
        ))
        .state(
            StateModel::new("talking")
                .final_state()
                .goal(link("c", "a"))
                .goal(hold("v"))
                .on(ModelTrigger::Timer("talk".into()), "refilling", vec![]),
        )
        .state(
            StateModel::new("refilling")
                .final_state()
                .goal(link("c", "v"))
                .goal(hold("a"))
                .on(
                    ModelTrigger::App("fundsVerified".into()),
                    "talking",
                    vec![ModelEffect::SetTimer("talk".into())],
                ),
        )
}

/// The tcp_call gateway: waits for the caller's open, places the onward
/// call over real TCP, then flowlinks.
/// Drift, unfixed: `tcp_call.rs`'s `RelayLogic` dials on `ChannelUp` and links at once.
fn tcp_gateway() -> ProgramModel {
    ProgramModel::new("gateway")
        .channel("chIn")
        .channel("chOut")
        .slot("sc", Some("chIn"))
        .slot("se", Some("chOut"))
        .state(StateModel::new("idle").on(
            ModelTrigger::ChannelUp("chIn".into()),
            "haveCaller",
            vec![],
        ))
        .state(StateModel::new("haveCaller").on(
            ModelTrigger::SlotOpened("sc".into()),
            "placing",
            vec![ModelEffect::OpenChannel("chOut".into())],
        ))
        .state(StateModel::new("placing").goal(hold("sc")).on(
            ModelTrigger::ChannelUp("chOut".into()),
            "linked",
            vec![],
        ))
        .state(
            StateModel::new("linked")
                .final_state()
                .goal(link("sc", "se")),
        )
}

/// The tcp_call dialer: opens a channel to the gateway and drives its one
/// slot toward flowing.
/// Drift, unfixed: `tcp_call.rs`'s `CallerLogic` runs a user agent and a user `open`.
fn tcp_dialer() -> ProgramModel {
    ProgramModel::new("dialer")
        .channel("chG")
        .slot("sg", Some("chG"))
        .state(StateModel::new("start").on(
            ModelTrigger::Start,
            "dialing",
            vec![ModelEffect::OpenChannel("chG".into())],
        ))
        .state(StateModel::new("dialing").goal(open("sg")).on(
            ModelTrigger::SlotFlowing("sg".into()),
            "talking",
            vec![],
        ))
        .state(StateModel::new("talking").final_state().goal(open("sg")))
}

fn click_to_dial_scenario() -> ScenarioModel {
    ScenarioModel::new("click_to_dial")
        .program("ctd", click_to_dial())
        .with_topology(
            Topology::new()
                .with_box("ctd")
                .with_box("user1")
                .with_box("user2")
                .with_box("tone")
                .with_link("ctd", "user1", 1)
                .with_link("ctd", "user2", 1)
                .with_link("ctd", "tone", 1),
        )
        .bind("ctd", "ch1", "user1")
        .bind("ctd", "ch2", "user2")
        .bind("ctd", "chT", "tone")
}

fn conference() -> ScenarioModel {
    ScenarioModel::new("conference")
        .program("conf-server", conference_server())
        .with_topology(
            Topology::new()
                .with_box("alice")
                .with_box("bob")
                .with_box("carol")
                .with_box("bridge")
                .with_box("conf-server")
                .with_link("alice", "conf-server", 1)
                .with_link("bob", "conf-server", 1)
                .with_link("carol", "conf-server", 1)
                .with_link("conf-server", "bridge", 3),
        )
        .bind("conf-server", "chU1", "alice")
        .bind("conf-server", "chU2", "bob")
        .bind("conf-server", "chU3", "carol")
        .bind("conf-server", "chB", "bridge")
}

fn observability() -> ScenarioModel {
    ScenarioModel::new("observability")
        .program("server", linking_server("server"))
        .with_topology(two_leg_server())
        .bind("server", "chA", "alice")
        .bind("server", "chB", "bob")
}

fn prepaid_pbx() -> ScenarioModel {
    ScenarioModel::new("prepaid_pbx")
        .program("pbx", pbx())
        .program("pc", prepaid())
        .with_topology(
            Topology::new()
                .with_box("phone-a")
                .with_box("phone-b")
                .with_box("phone-c")
                .with_box("ivr")
                .with_box("pbx")
                .with_box("pc")
                .with_link("phone-b", "pc", 1)
                .with_link("pc", "pbx", 1)
                .with_link("pc", "ivr", 1)
                .with_link("pbx", "phone-a", 1)
                .with_link("phone-c", "pbx", 1),
        )
        .bind("pc", "chC", "phone-b")
        .bind("pc", "chA", "pbx")
        .bind("pc", "chV", "ivr")
        .bind("pbx", "chIn", "pc")
        .bind("pbx", "chOut", "phone-a")
}

fn quickstart() -> ScenarioModel {
    ScenarioModel::new("quickstart")
        .program("server", linking_server("server"))
        .with_topology(two_leg_server())
        .bind("server", "chA", "alice")
        .bind("server", "chB", "bob")
}

/// The SIP-comparison example measures protocol timings over the same
/// two-server re-link configuration (Figs. 13–14).
fn sip_comparison() -> ScenarioModel {
    ScenarioModel::new("sip_comparison")
        .program("server1", linking_server("server1"))
        .program("server2", linking_server("server2"))
        .with_topology(
            Topology::new()
                .with_box("left")
                .with_box("server1")
                .with_box("server2")
                .with_box("right")
                .with_link("left", "server1", 1)
                .with_link("server1", "server2", 1)
                .with_link("server2", "right", 1),
        )
        .bind("server1", "chA", "left")
        .bind("server1", "chB", "server2")
        .bind("server2", "chA", "server1")
        .bind("server2", "chB", "right")
}

fn tcp_call() -> ScenarioModel {
    ScenarioModel::new("tcp_call")
        .program("caller", tcp_dialer())
        .program("gateway", tcp_gateway())
        .with_topology(
            Topology::new()
                .with_box("caller")
                .with_box("gateway")
                .with_box("callee")
                .with_link("caller", "gateway", 1)
                .with_link("gateway", "callee", 1),
        )
        .bind("caller", "chG", "gateway")
        .bind("gateway", "chIn", "caller")
        .bind("gateway", "chOut", "callee")
}

/// The verification campaign explores direct paths between two driven
/// endpoints; no box program is involved.
fn verify() -> ScenarioModel {
    ScenarioModel::new("verify").with_topology(
        Topology::new()
            .with_box("left")
            .with_box("right")
            .with_link("left", "right", 1),
    )
}

/// Two linking servers in series between free endpoints: the minimal
/// multi-box flowlink chain (a path is threaded through *two* programmed
/// interiors), exercising the cross-box dataflow passes on a tunnel
/// whose channel neither program opens (environment-established).
fn relay_chain() -> ScenarioModel {
    ScenarioModel::new("relay_chain")
        .program("relay1", linking_server("relay1"))
        .program("relay2", linking_server("relay2"))
        .with_topology(
            Topology::new()
                .with_box("left")
                .with_box("relay1")
                .with_box("relay2")
                .with_box("right")
                .with_link("left", "relay1", 1)
                .with_link("relay1", "relay2", 1)
                .with_link("relay2", "right", 1),
        )
        .bind("relay1", "chA", "left")
        .bind("relay1", "chB", "relay2")
        .bind("relay2", "chA", "relay1")
        .bind("relay2", "chB", "right")
}

/// A staged dial-out box: waits for its upstream slot to open, then
/// initiates the downstream channel and flowlinks through. Two of these
/// chained give a tunnel with exactly one initiator on each bound link —
/// the Fig.-10-safe shape the race pass certifies.
fn dial_through(name: &str, up: &str, down: &str) -> ProgramModel {
    ProgramModel::new(name)
        .channel(up.to_string())
        .channel(down.to_string())
        .slot("u", Some(up))
        .slot("d", Some(down))
        .state(StateModel::new("idle").on(
            ModelTrigger::SlotOpened("u".into()),
            "dialing",
            vec![ModelEffect::OpenChannel(down.into())],
        ))
        .state(StateModel::new("dialing").goal(hold("u")).on(
            ModelTrigger::ChannelUp(down.into()),
            "linked",
            vec![],
        ))
        .state(StateModel::new("linked").final_state().goal(link("u", "d")))
}

/// Call pickup: a caller reaches the pickup service, which dials the
/// agent dispatcher, which dials an agent — two programmed boxes joined
/// by a link each side of which has a distinct initiator role.
fn call_pickup() -> ScenarioModel {
    ScenarioModel::new("call_pickup")
        .program("pickup", dial_through("pickup", "chC", "chA"))
        .program("agentd", dial_through("agentd", "chP", "chT"))
        .with_topology(
            Topology::new()
                .with_box("caller")
                .with_box("pickup")
                .with_box("agentd")
                .with_box("agent")
                .with_link("caller", "pickup", 1)
                .with_link("pickup", "agentd", 1)
                .with_link("agentd", "agent", 1),
        )
        .bind("pickup", "chC", "caller")
        .bind("pickup", "chA", "agentd")
        .bind("agentd", "chP", "pickup")
        .bind("agentd", "chT", "agent")
}

/// A hotline hub bridging two phones, with full teardown: when the left
/// leg drops, the hub closes the right leg and terminates — the pattern
/// that leaves no slot live at the terminal rest.
fn hotline_hub() -> ProgramModel {
    ProgramModel::new("hub")
        .channel("chL")
        .channel("chR")
        .slot("l", Some("chL"))
        .slot("r", Some("chR"))
        .state(StateModel::new("idle").on(
            ModelTrigger::ChannelUp("chL".into()),
            "bridged",
            vec![ModelEffect::OpenChannel("chR".into())],
        ))
        .state(
            StateModel::new("bridged")
                .final_state()
                .goal(link("l", "r"))
                .on(
                    ModelTrigger::ChannelDown("chL".into()),
                    "done",
                    vec![
                        ModelEffect::CloseChannel("chR".into()),
                        ModelEffect::Terminate,
                    ],
                ),
        )
        .state(StateModel::new("done").final_state())
}

/// The hotline-bridge scenario: one programmed hub between two phones.
fn hotline_bridge() -> ScenarioModel {
    ScenarioModel::new("hotline_bridge")
        .program("hub", hotline_hub())
        .with_topology(
            Topology::new()
                .with_box("phone1")
                .with_box("hub")
                .with_box("phone2")
                .with_link("phone1", "hub", 1)
                .with_link("hub", "phone2", 1),
        )
        .bind("hub", "chL", "phone1")
        .bind("hub", "chR", "phone2")
}

fn two_leg_server() -> Topology {
    Topology::new()
        .with_box("alice")
        .with_box("server")
        .with_box("bob")
        .with_link("alice", "server", 1)
        .with_link("server", "bob", 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite coverage for `core::program`: every registered example
    /// model is structurally valid, deterministic, and has every state
    /// reachable from its initial state.
    #[test]
    fn every_example_model_is_valid_and_fully_reachable() {
        for sc in all_scenarios() {
            for (box_name, model) in &sc.programs {
                let errs = model.validate();
                assert!(
                    errs.is_empty(),
                    "{}/{box_name}: structural errors: {errs:?}",
                    sc.name
                );
                assert!(
                    model.is_deterministic(),
                    "{}/{box_name}: duplicate trigger in a state",
                    sc.name
                );
                let reach = model.reachable_states();
                for st in &model.states {
                    assert!(
                        reach.contains(st.name.as_str()),
                        "{}/{box_name}: state `{}` unreachable",
                        sc.name,
                        st.name
                    );
                }
            }
        }
    }

    /// Transitions are total over each program's declared event alphabet:
    /// every trigger a state handles is drawn from the model's alphabet,
    /// and unhandled triggers are implicit self-loops — so the machine has
    /// a defined response to every declared event in every state.
    #[test]
    fn transitions_total_over_declared_alphabet() {
        for sc in all_scenarios() {
            for (box_name, model) in &sc.programs {
                let alphabet = model.trigger_alphabet();
                for st in &model.states {
                    for t in &st.transitions {
                        assert!(
                            alphabet.contains(&&t.trigger),
                            "{}/{box_name}: trigger {} not in alphabet",
                            sc.name,
                            t.trigger
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_example_has_a_model() {
        for name in EXAMPLE_NAMES {
            assert!(scenario(name).is_some(), "no model for example {name}");
        }
        assert!(scenario("no_such_example").is_none());
    }

    #[test]
    fn topology_boxes_cover_program_attachments() {
        for sc in all_scenarios() {
            for (box_name, _) in &sc.programs {
                assert!(
                    sc.topology.has_box(box_name),
                    "{}: program attached to undeclared box {box_name}",
                    sc.name
                );
            }
        }
    }
}
