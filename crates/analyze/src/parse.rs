//! Parser and emitter for the `.ipm` scenario text format, so
//! `ipmedia-lint` can analyze serialized models as well as the built-in
//! example registry, and the fuzz harness can round-trip generated
//! models ([`to_ipm`] then [`parse_scenario`] is the identity on any
//! scenario with token-safe names).
//!
//! The format is line-oriented; `#` starts a comment. Triggers and
//! effects use the same concrete syntax the model types `Display` with,
//! so diagnostics and sources read alike:
//!
//! ```text
//! scenario demo
//! box ua
//! box peer
//! link ua peer 1
//!
//! program ua
//!   channel c
//!   slot s c
//!   timer t
//!   state init
//!     goal openSlot s
//!     on start -> waiting ! openChannel(c); setTimer(t)
//!   state waiting final
//!     goal flowLink s s2     # (two slot names for flowLink)
//! ```

use ipmedia_core::path::Topology;
use ipmedia_core::program::model::{
    GoalAnnotation, ModelEffect, ModelTrigger, ProgramModel, ScenarioModel, StateModel,
    TransitionModel,
};
use ipmedia_core::{GoalKind, SlotAction};

/// Parse error: line number (1-based) plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line the error is on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Split `name(arg)` into `(name, arg)`; a bare word has an empty arg.
fn call(token: &str) -> (&str, &str) {
    match token.find('(') {
        Some(i) if token.ends_with(')') => (&token[..i], &token[i + 1..token.len() - 1]),
        _ => (token, ""),
    }
}

fn parse_trigger(token: &str, line: usize) -> Result<ModelTrigger, ParseError> {
    let (name, arg) = call(token);
    let need = |what: &str| -> Result<String, ParseError> {
        if arg.is_empty() {
            Err(err(
                line,
                format!("trigger `{name}` needs a {what} argument"),
            ))
        } else {
            Ok(arg.to_string())
        }
    };
    Ok(match name {
        "start" => ModelTrigger::Start,
        "channelUp" => ModelTrigger::ChannelUp(need("channel")?),
        "channelDown" => ModelTrigger::ChannelDown(need("channel")?),
        "peerAvailable" => ModelTrigger::PeerAvailable(need("channel")?),
        "peerUnavailable" => ModelTrigger::PeerUnavailable(need("channel")?),
        "isOpened" => ModelTrigger::SlotOpened(need("slot")?),
        "isFlowing" => ModelTrigger::SlotFlowing(need("slot")?),
        "isClosed" => ModelTrigger::SlotClosed(need("slot")?),
        "timer" => ModelTrigger::Timer(need("timer")?),
        "app" => ModelTrigger::App(need("event")?),
        "user" => ModelTrigger::User(need("event")?),
        other => return Err(err(line, format!("unknown trigger `{other}`"))),
    })
}

fn parse_effect(token: &str, line: usize) -> Result<ModelEffect, ParseError> {
    let (name, arg) = call(token);
    let need = |what: &str| -> Result<String, ParseError> {
        if arg.is_empty() {
            Err(err(
                line,
                format!("effect `{name}` needs a {what} argument"),
            ))
        } else {
            Ok(arg.to_string())
        }
    };
    let action = |a: SlotAction| -> Result<ModelEffect, ParseError> {
        Ok(ModelEffect::UserAction {
            slot: need("slot")?,
            action: a,
        })
    };
    match name {
        "openChannel" => Ok(ModelEffect::OpenChannel(need("channel")?)),
        "closeChannel" => Ok(ModelEffect::CloseChannel(need("channel")?)),
        "setTimer" => Ok(ModelEffect::SetTimer(need("timer")?)),
        "cancelTimer" => Ok(ModelEffect::CancelTimer(need("timer")?)),
        "terminate" => Ok(ModelEffect::Terminate),
        "open" => action(SlotAction::Open),
        "accept" => action(SlotAction::Accept),
        "select" => action(SlotAction::Select),
        "describe" => action(SlotAction::Describe),
        "close" => action(SlotAction::Close),
        other => Err(err(line, format!("unknown effect `{other}`"))),
    }
}

fn parse_goal_kind(token: &str, line: usize) -> Result<GoalKind, ParseError> {
    GoalKind::ALL
        .into_iter()
        .find(|k| k.name() == token)
        .ok_or_else(|| err(line, format!("unknown goal kind `{token}`")))
}

/// Parse a full `.ipm` scenario source.
pub fn parse_scenario(src: &str) -> Result<ScenarioModel, ParseError> {
    let mut scenario = ScenarioModel::new("scenario");
    let mut topology = Topology::new();
    // (box name, program under construction, state under construction)
    let mut program: Option<(String, ProgramModel)> = None;
    let mut state: Option<StateModel> = None;

    let flush_state = |program: &mut Option<(String, ProgramModel)>,
                       state: &mut Option<StateModel>| {
        if let (Some((_, m)), Some(st)) = (program.as_mut(), state.take()) {
            let built = std::mem::take(m);
            *m = built.state(st);
        }
    };
    let flush_program = |scenario: &mut ScenarioModel,
                         program: &mut Option<(String, ProgramModel)>,
                         state: &mut Option<StateModel>| {
        flush_state(program, state);
        if let Some((box_name, m)) = program.take() {
            let built = std::mem::take(scenario);
            *scenario = built.program(box_name, m);
        }
    };

    for (idx, raw) in src.lines().enumerate() {
        let line = idx + 1;
        let text = raw.split('#').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        let mut words = text.split_whitespace();
        let keyword = words.next().unwrap_or("");
        let rest: Vec<&str> = words.collect();
        match keyword {
            "scenario" => {
                let name = rest
                    .first()
                    .ok_or_else(|| err(line, "scenario needs a name"))?;
                scenario.name = (*name).to_string();
            }
            "box" => {
                let name = rest.first().ok_or_else(|| err(line, "box needs a name"))?;
                topology = topology.with_box(*name);
            }
            "link" => {
                let [from, to, tunnels] = rest.as_slice() else {
                    return Err(err(line, "link needs: link <from> <to> <tunnels>"));
                };
                let n: u16 = tunnels
                    .parse()
                    .map_err(|_| err(line, format!("bad tunnel count `{tunnels}`")))?;
                topology = topology.with_link(*from, *to, n);
            }
            "bind" => {
                let [box_name, channel, peer] = rest.as_slice() else {
                    return Err(err(line, "bind needs: bind <box> <channel> <peer>"));
                };
                scenario = scenario.bind(*box_name, *channel, *peer);
            }
            "program" => {
                flush_program(&mut scenario, &mut program, &mut state);
                let box_name = rest
                    .first()
                    .ok_or_else(|| err(line, "program needs a box name"))?;
                // `program <box> [<model-name>]`: the optional second word
                // keeps models whose name differs from their box (the
                // registry's `click_to_dial` on box `ctd`) round-trippable.
                let model_name = rest.get(1).copied().unwrap_or(box_name);
                program = Some(((*box_name).to_string(), ProgramModel::new(model_name)));
            }
            "initial" => {
                let Some((_, m)) = program.as_mut() else {
                    return Err(err(line, "`initial` outside a program"));
                };
                let name = rest
                    .first()
                    .ok_or_else(|| err(line, "initial needs a state name"))?;
                m.initial = (*name).to_string();
            }
            "channel" | "slot" | "timer" => {
                let Some((_, m)) = program.as_mut() else {
                    return Err(err(line, format!("`{keyword}` outside a program")));
                };
                // Declarations must precede states (states are flushed in
                // order, so late declarations would be fine structurally,
                // but the format keeps them grouped for readability).
                let name = rest
                    .first()
                    .ok_or_else(|| err(line, format!("{keyword} needs a name")))?;
                let built = std::mem::take(m);
                *m = match keyword {
                    "channel" => built.channel(*name),
                    "slot" => built.slot(*name, rest.get(1).copied()),
                    _ => built.timer(*name),
                };
            }
            "state" => {
                if program.is_none() {
                    return Err(err(line, "`state` outside a program"));
                }
                flush_state(&mut program, &mut state);
                let name = rest
                    .first()
                    .ok_or_else(|| err(line, "state needs a name"))?;
                let mut st = StateModel::new(*name);
                match rest.get(1) {
                    Some(&"final") => st = st.final_state(),
                    Some(other) => {
                        return Err(err(line, format!("unexpected `{other}` after state name")))
                    }
                    None => {}
                }
                state = Some(st);
            }
            "goal" => {
                let Some(st) = state.as_mut() else {
                    return Err(err(line, "`goal` outside a state"));
                };
                let kind_tok = rest.first().ok_or_else(|| err(line, "goal needs a kind"))?;
                let kind = parse_goal_kind(kind_tok, line)?;
                let slots: Vec<String> = rest[1..].iter().map(|s| (*s).to_string()).collect();
                if slots.is_empty() {
                    return Err(err(line, "goal needs at least one slot"));
                }
                st.goals.push(GoalAnnotation { kind, slots });
            }
            "on" => {
                let Some(st) = state.as_mut() else {
                    return Err(err(line, "`on` outside a state"));
                };
                // on <trigger> -> <target> [! <effect>; <effect>...]
                let arrow = rest
                    .iter()
                    .position(|w| *w == "->")
                    .ok_or_else(|| err(line, "transition needs `->`"))?;
                if arrow != 1 {
                    return Err(err(
                        line,
                        "transition needs exactly one trigger before `->`",
                    ));
                }
                let trigger = parse_trigger(rest[0], line)?;
                let target = rest
                    .get(arrow + 1)
                    .ok_or_else(|| err(line, "transition needs a target state"))?;
                let mut effects = Vec::new();
                match rest.get(arrow + 2) {
                    None => {}
                    Some(&"!") => {
                        let effect_src = rest[arrow + 3..].join(" ");
                        for tok in effect_src.split(';') {
                            let tok = tok.trim();
                            if !tok.is_empty() {
                                effects.push(parse_effect(tok, line)?);
                            }
                        }
                    }
                    Some(other) => {
                        return Err(err(
                            line,
                            format!("expected `!` before effects, got `{other}`"),
                        ))
                    }
                }
                st.transitions.push(TransitionModel {
                    trigger,
                    to: (*target).to_string(),
                    effects,
                });
            }
            other => return Err(err(line, format!("unknown keyword `{other}`"))),
        }
    }
    flush_program(&mut scenario, &mut program, &mut state);
    Ok(scenario.with_topology(topology))
}

/// Serialize a scenario to `.ipm` text, the exact inverse of
/// [`parse_scenario`]: `parse_scenario(&to_ipm(sc)) == Ok(sc)` for every
/// scenario whose names are *token-safe* (no whitespace, `#`, `(`, or
/// `)` — the format has no escaping, so such names are unrepresentable).
/// The fuzz generator only produces token-safe names; the round-trip
/// property test in `tests/fuzz_props.rs` pins the identity.
pub fn to_ipm(sc: &ScenarioModel) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "scenario {}", sc.name);
    out.push_str(&topology_ipm(sc));
    for (box_name, m) in &sc.programs {
        let _ = writeln!(out);
        out.push_str(&program_ipm(box_name, m));
    }
    out
}

/// The topology-and-bindings section of [`to_ipm`]: `box`, `link`, and
/// `bind` lines.
fn topology_ipm(sc: &ScenarioModel) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for b in &sc.topology.boxes {
        let _ = writeln!(out, "box {b}");
    }
    for l in &sc.topology.links {
        let _ = writeln!(out, "link {} {} {}", l.from, l.to, l.tunnels);
    }
    for b in &sc.bindings {
        let _ = writeln!(out, "bind {} {} {}", b.box_name, b.channel, b.peer);
    }
    out
}

/// One `program` section of [`to_ipm`], for the program attached to
/// `box_name`.
fn program_ipm(box_name: &str, m: &ProgramModel) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if m.name == box_name {
        let _ = writeln!(out, "program {box_name}");
    } else {
        let _ = writeln!(out, "program {box_name} {}", m.name);
    }
    for c in &m.channels {
        let _ = writeln!(out, "  channel {c}");
    }
    for s in &m.slots {
        match &s.channel {
            Some(c) => {
                let _ = writeln!(out, "  slot {} {c}", s.name);
            }
            None => {
                let _ = writeln!(out, "  slot {}", s.name);
            }
        }
    }
    for t in &m.timers {
        let _ = writeln!(out, "  timer {t}");
    }
    // The first state parses back as the initial state; an explicit
    // `initial` line is only needed when the model disagrees.
    if m.states.first().is_some_and(|st| st.name != m.initial) {
        let _ = writeln!(out, "  initial {}", m.initial);
    }
    for st in &m.states {
        if st.is_final {
            let _ = writeln!(out, "  state {} final", st.name);
        } else {
            let _ = writeln!(out, "  state {}", st.name);
        }
        for g in &st.goals {
            let _ = writeln!(out, "    goal {} {}", g.kind.name(), g.slots.join(" "));
        }
        for t in &st.transitions {
            let _ = write!(out, "    on {} -> {}", t.trigger, t.to);
            if !t.effects.is_empty() {
                let effects: Vec<String> = t.effects.iter().map(ToString::to_string).collect();
                let _ = write!(out, " ! {}", effects.join("; "));
            }
            let _ = writeln!(out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = "
scenario demo
box ua
box peer
link ua peer 1

program ua
  channel c
  slot s c
  timer t
  state init
    goal openSlot s
    on start -> waiting ! openChannel(c); setTimer(t)
  state waiting final
    on isFlowing(s) -> waiting ! describe(s)
";

    #[test]
    fn parses_demo_scenario() {
        let sc = parse_scenario(DEMO).expect("parse");
        assert_eq!(sc.name, "demo");
        assert!(sc.topology.has_box("ua"));
        assert_eq!(sc.topology.links.len(), 1);
        let m = sc.program_for("ua").expect("program");
        assert_eq!(m.initial, "init");
        assert_eq!(m.states.len(), 2);
        assert!(m.validate().is_empty(), "{:?}", m.validate());
        let waiting = m.state_named("waiting").unwrap();
        assert!(waiting.is_final);
        assert_eq!(
            waiting.transitions[0].effects,
            vec![ModelEffect::UserAction {
                slot: "s".into(),
                action: SlotAction::Describe,
            }]
        );
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let sc = parse_scenario("# hello\n\nscenario x\nbox a # trailing\n").expect("parse");
        assert_eq!(sc.name, "x");
        assert!(sc.topology.has_box("a"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_scenario("scenario x\nbogus y\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn bind_lines_populate_channel_bindings() {
        let sc = parse_scenario(
            "scenario x\nbox a\nbox b\nlink a b 1\nbind a c b\n\nprogram a\n  channel c\n  state i final\n",
        )
        .expect("parse");
        assert_eq!(sc.bindings.len(), 1);
        assert_eq!(sc.bound_peer("a", "c"), Some("b"));
        assert_eq!(sc.channel_toward("a", "b"), Some("c"));
    }

    #[test]
    fn bind_arity_checked() {
        let e = parse_scenario("scenario x\nbind a c\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bind"), "{}", e.message);
    }

    #[test]
    fn goal_outside_state_rejected() {
        assert!(parse_scenario("goal openSlot s\n").is_err());
    }

    #[test]
    fn to_ipm_round_trips_the_demo_scenario() {
        let sc = parse_scenario(DEMO).expect("parse");
        let text = to_ipm(&sc);
        let back = parse_scenario(&text).expect("reparse emitted text");
        assert_eq!(back, sc, "emitted:\n{text}");
    }

    #[test]
    fn to_ipm_round_trips_every_registry_scenario() {
        // The registry has model names that differ from their box
        // (`click_to_dial` on box `ctd`) — the `program <box> <name>`
        // form keeps those representable.
        for sc in ipmedia_apps::models::all_scenarios() {
            let text = to_ipm(&sc);
            let back = parse_scenario(&text).expect(&sc.name);
            assert_eq!(back, sc, "{}:\n{text}", sc.name);
        }
    }

    #[test]
    fn explicit_initial_line_round_trips() {
        let mut m = ProgramModel::new("p")
            .state(StateModel::new("a").final_state())
            .state(StateModel::new("b").final_state());
        m.initial = "b".to_string();
        let sc = ScenarioModel::new("x")
            .program("p", m)
            .with_topology(Topology::new().with_box("p"));
        let text = to_ipm(&sc);
        assert!(text.contains("initial b"), "{text}");
        let back = parse_scenario(&text).expect("reparse");
        assert_eq!(back, sc);
        assert_eq!(back.program_for("p").unwrap().initial, "b");
    }

    #[test]
    fn initial_outside_program_rejected() {
        assert!(parse_scenario("scenario x\ninitial a\n").is_err());
    }

    #[test]
    fn trigger_round_trips_display_syntax() {
        for (src, want) in [
            ("start", ModelTrigger::Start),
            ("channelUp(c)", ModelTrigger::ChannelUp("c".into())),
            ("isOpened(s)", ModelTrigger::SlotOpened("s".into())),
            ("timer(t)", ModelTrigger::Timer("t".into())),
            ("app(go)", ModelTrigger::App("go".into())),
        ] {
            let got = parse_trigger(src, 1).expect(src);
            assert_eq!(got, want);
            assert_eq!(got.to_string(), src, "Display should round-trip");
        }
    }
}
