//! Structured diagnostics: rustc-style rendered text plus the workspace's
//! JSONL convention (one [`JsonObj`] per line on stdout).
//!
//! Diagnostic codes are grouped by pass:
//!
//! * `AZ0xx` — structural model errors (from `ProgramModel::validate`);
//! * `AZ1xx` — slot-protocol conformance against the Fig.-9 send table;
//! * `AZ2xx` — goal-conflict detection;
//! * `AZ3xx` — leak / termination lints;
//! * `AZ4xx` — signaling-path well-formedness;
//! * `AZ5xx` — interprocedural media-flow dataflow;
//! * `AZ6xx` — interprocedural signaling-race analysis.

use ipmedia_obs::JsonObj;
use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but possibly intentional; `--deny warnings` promotes it.
    Warning,
    /// Definitely wrong: the model violates the protocol or the goal
    /// algebra.
    Error,
}

impl Severity {
    /// Lower-case label, as rustc prints it.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`AZ101`, ...), unique per finding class.
    pub code: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// Scenario the finding belongs to, when known.
    pub scenario: Option<String>,
    /// Program (box) the finding is about, if program-scoped.
    pub program: Option<String>,
    /// Program state the finding anchors to, if state-scoped.
    pub state: Option<String>,
    /// One-line description of what is wrong.
    pub message: String,
    /// Optional elaboration (rendered as a `= note:` line).
    pub note: Option<String>,
}

impl Diagnostic {
    /// New error diagnostic with the given code and message.
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Self::new(code, Severity::Error, message)
    }

    /// New warning diagnostic with the given code and message.
    pub fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Self::new(code, Severity::Warning, message)
    }

    fn new(code: &'static str, severity: Severity, message: impl Into<String>) -> Self {
        Self {
            code,
            severity,
            scenario: None,
            program: None,
            state: None,
            message: message.into(),
            note: None,
        }
    }

    /// Scope the diagnostic to a scenario.
    pub fn in_scenario(mut self, name: impl Into<String>) -> Self {
        self.scenario = Some(name.into());
        self
    }

    /// Scope the diagnostic to a program (box).
    pub fn in_program(mut self, name: impl Into<String>) -> Self {
        self.program = Some(name.into());
        self
    }

    /// Anchor the diagnostic to a program state.
    pub fn at_state(mut self, name: impl Into<String>) -> Self {
        self.state = Some(name.into());
        self
    }

    /// Attach an elaborating note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = Some(note.into());
        self
    }

    /// The `scenario/program/state` location path, omitting absent parts.
    pub fn location(&self) -> String {
        let mut parts: Vec<&str> = Vec::new();
        if let Some(s) = &self.scenario {
            parts.push(s);
        }
        if let Some(p) = &self.program {
            parts.push(p);
        }
        if let Some(st) = &self.state {
            parts.push(st);
        }
        parts.join("/")
    }

    /// Stable suppression fingerprint, `code@location`. Baselines match
    /// on this: it survives message rewording but not moving the finding
    /// to a different scenario/program/state.
    pub fn fingerprint(&self) -> String {
        format!("{}@{}", self.code, self.location())
    }

    /// Rustc-style multi-line rendering:
    ///
    /// ```text
    /// error[AZ101]: user action `select` on slot `s` can never be legal
    ///   --> planted/ua/init
    ///   = note: possible protocol states for `s`: closed
    /// ```
    pub fn render(&self) -> String {
        let mut out = format!("{}[{}]: {}", self.severity, self.code, self.message);
        let loc = self.location();
        if !loc.is_empty() {
            let _ = fmt::Write::write_fmt(&mut out, format_args!("\n  --> {loc}"));
        }
        if let Some(note) = &self.note {
            let _ = fmt::Write::write_fmt(&mut out, format_args!("\n  = note: {note}"));
        }
        out
    }

    /// One-line JSON record following the obs JSONL convention.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObj::new()
            .str("type", "diag")
            .str("code", self.code)
            .str("severity", self.severity.name());
        if let Some(s) = &self.scenario {
            obj = obj.str("scenario", s);
        }
        if let Some(p) = &self.program {
            obj = obj.str("program", p);
        }
        if let Some(st) = &self.state {
            obj = obj.str("state", st);
        }
        obj = obj.str("message", &self.message);
        if let Some(n) = &self.note {
            obj = obj.str("note", n);
        }
        obj.finish()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Sort diagnostics errors-first, then by location, for stable output.
pub fn sort_report(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.code.cmp(b.code))
            .then_with(|| a.location().cmp(&b.location()))
            .then_with(|| a.message.cmp(&b.message))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_code_location_and_note() {
        let d = Diagnostic::error(
            "AZ101",
            "user action `select` on slot `s` can never be legal",
        )
        .in_scenario("planted")
        .in_program("ua")
        .at_state("init")
        .with_note("possible protocol states for `s`: closed");
        let r = d.render();
        assert!(r.starts_with("error[AZ101]: user action"), "{r}");
        assert!(r.contains("--> planted/ua/init"), "{r}");
        assert!(r.contains("= note: possible protocol states"), "{r}");
    }

    #[test]
    fn json_record_is_one_line_and_tagged() {
        let d = Diagnostic::warning("AZ301", "state `island` is unreachable").in_program("p");
        let j = d.to_json();
        assert!(!j.contains('\n'));
        assert!(j.contains("\"type\":\"diag\""), "{j}");
        assert!(j.contains("\"code\":\"AZ301\""), "{j}");
        assert!(j.contains("\"severity\":\"warning\""), "{j}");
    }

    #[test]
    fn sort_puts_errors_first() {
        let mut v = vec![
            Diagnostic::warning("AZ301", "w"),
            Diagnostic::error("AZ101", "e"),
        ];
        sort_report(&mut v);
        assert_eq!(v[0].severity, Severity::Error);
    }
}
