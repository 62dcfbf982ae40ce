//! The workspace's one command-line convention, shared by every binary:
//! `--flag value` or `--flag=value`, bare `--switch`es, positionals
//! anywhere between them. Bad input is never a silent default: an
//! unparsable or missing value, or a flag the binary does not take, is a
//! usage error on stderr with exit status 2; `--help` / `-h` prints the
//! binary's usage on stdout and exits 0.
//!
//! [`Flags`] is take-style: each [`Flags::value`], [`Flags::switch`] and
//! [`Flags::positional`] call removes what it matched, and whatever is
//! left when [`Flags::finish`] runs is either a positional or an error.
//! Errors are held until then, so a binary reads all its flags first and
//! starts work only after `finish` (or [`Flags::done`]) has returned.

use std::str::FromStr;

/// Why argument parsing ended without handing the binary its input.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Stop {
    /// `--help` or `-h` was given.
    Help,
    /// Bad input; the message names the offending argument.
    Usage(String),
}

/// The arguments of one invocation, consumed flag by flag.
#[derive(Debug)]
pub struct Flags {
    usage: &'static str,
    args: Vec<String>,
    stop: Option<Stop>,
}

impl Flags {
    /// The process's own arguments; `usage` is the text `--help` prints.
    pub fn from_env(usage: &'static str) -> Self {
        Self::new(usage, std::env::args().skip(1))
    }

    /// Explicit arguments (without the program name).
    fn new(usage: &'static str, args: impl IntoIterator<Item = String>) -> Self {
        let args: Vec<String> = args.into_iter().collect();
        let help = args.iter().any(|a| a == "--help" || a == "-h");
        Flags {
            usage,
            args,
            stop: help.then_some(Stop::Help),
        }
    }

    /// Record a usage error; the first one is the one reported.
    fn reject(&mut self, msg: String) {
        self.stop.get_or_insert(Stop::Usage(msg));
    }

    fn parse<T: FromStr>(&mut self, what: &str, text: &str) -> Option<T> {
        let parsed = text.parse().ok();
        if parsed.is_none() {
            self.reject(format!("bad value `{text}` for {what}"));
        }
        parsed
    }

    /// Take the bare switch `name`; true if it was given.
    pub fn switch(&mut self, name: &str) -> bool {
        let at = self.args.iter().position(|a| a == name);
        at.map(|i| self.args.remove(i)).is_some()
    }

    /// Take `name value` or `name=value`; `None` if the flag is absent
    /// (or its value is missing or unparsable, which `finish` reports).
    pub fn value<T: FromStr>(&mut self, name: &str) -> Option<T> {
        let i = self.args.iter().position(|a| {
            a.strip_prefix(name)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('='))
        })?;
        let text = match self.args.remove(i).split_once('=') {
            Some((_, value)) => value.to_string(),
            None if i < self.args.len() => self.args.remove(i),
            None => {
                self.reject(format!("{name} needs a value"));
                return None;
            }
        };
        self.parse(name, &text)
    }

    /// Take the next positional argument, described as `what` in errors.
    /// Call after every [`Flags::value`], so no flag's value is left to
    /// be mistaken for a positional.
    pub fn positional<T: FromStr>(&mut self, what: &str) -> Option<T> {
        let i = self.args.iter().position(|a| !a.starts_with('-'))?;
        let text = self.args.remove(i);
        self.parse(what, &text)
    }

    /// [`Flags::finish`] without the exit, so tests can see the outcome:
    /// the remaining positionals, or why the binary must not run — any
    /// error recorded so far, or a leftover argument that looks like a
    /// flag (one the binary never took, or took once already).
    fn parsed(mut self) -> Result<Vec<String>, Stop> {
        if let Some(flag) = self.args.iter().find(|a| a.starts_with('-')) {
            let msg = format!("unknown or repeated flag `{flag}`");
            self.reject(msg);
        }
        match self.stop {
            Some(stop) => Err(stop),
            None => Ok(self.args),
        }
    }

    /// The remaining positionals — or, for `--help`, any error recorded
    /// so far or a flag the binary never took, print the usage and exit:
    /// status 0 for `--help`, 2 for an error.
    pub fn finish(self) -> Vec<String> {
        let usage = self.usage;
        match self.parsed() {
            Ok(positionals) => positionals,
            Err(Stop::Help) => {
                println!("{usage}");
                std::process::exit(0)
            }
            Err(Stop::Usage(msg)) => usage_error(usage, &msg),
        }
    }

    /// [`Flags::finish`] for a binary that takes no further positionals:
    /// a leftover argument is a usage error too.
    pub fn done(self) {
        let usage = self.usage;
        if let Some(extra) = self.finish().first() {
            usage_error(usage, &format!("unexpected argument `{extra}`"));
        }
    }
}

/// Report a usage error — `msg`, then the usage text — on stderr and exit
/// with status 2. For the checks a binary makes on its own values.
pub fn usage_error(usage: &str, msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{usage}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a binary taking `--threads N`, `--out FILE`, `--jsonl` and one
    /// typed positional sees for a command line.
    type Seen = (Option<usize>, Option<String>, bool, Option<u8>, Vec<String>);

    fn run(line: &str) -> Result<Seen, Stop> {
        let mut flags = Flags::new("usage", line.split_whitespace().map(String::from));
        let threads = flags.value("--threads");
        let out = flags.value("--out");
        let jsonl = flags.switch("--jsonl");
        let scale = flags.positional("scale");
        flags
            .parsed()
            .map(|rest| (threads, out, jsonl, scale, rest))
    }

    fn usage(msg: &str) -> Result<Seen, Stop> {
        Err(Stop::Usage(msg.to_string()))
    }

    #[test]
    fn command_lines_parse_or_stop_as_documented() {
        let strs = |xs: &[&str]| xs.iter().map(|s| (*s).to_string()).collect::<Vec<_>>();
        let table: Vec<(&str, Result<Seen, Stop>)> = vec![
            ("", Ok((None, None, false, None, vec![]))),
            // Both value syntaxes.
            ("--threads 4", Ok((Some(4), None, false, None, vec![]))),
            ("--threads=4", Ok((Some(4), None, false, None, vec![]))),
            (
                "--out=a=b --jsonl",
                Ok((None, Some("a=b".into()), true, None, vec![])),
            ),
            // Positionals interleaved with flags, in order.
            (
                "0 --threads 2 one.ipm --jsonl two.ipm",
                Ok((Some(2), None, true, Some(0), strs(&["one.ipm", "two.ipm"]))),
            ),
            // Missing and bad values.
            ("--threads", usage("--threads needs a value")),
            ("1 --threads", usage("--threads needs a value")),
            ("--threads abc", usage("bad value `abc` for --threads")),
            ("--threads=", usage("bad value `` for --threads")),
            ("--threads -1", usage("bad value `-1` for --threads")),
            ("abc", usage("bad value `abc` for scale")),
            ("300", usage("bad value `300` for scale")),
            // Unknown, misspelt and repeated flags.
            ("--threds 4", usage("unknown or repeated flag `--threds`")),
            (
                "--threadsx=4",
                usage("unknown or repeated flag `--threadsx=4`"),
            ),
            (
                "--jsonl=yes",
                usage("unknown or repeated flag `--jsonl=yes`"),
            ),
            ("-x", usage("unknown or repeated flag `-x`")),
            (
                "--threads 1 --threads 2",
                usage("unknown or repeated flag `--threads`"),
            ),
            // The first error is the one reported.
            (
                "--threads abc --bogus",
                usage("bad value `abc` for --threads"),
            ),
            // Help wins over everything else on the line.
            ("--help", Err(Stop::Help)),
            ("-h", Err(Stop::Help)),
            ("--threads abc --bogus --help", Err(Stop::Help)),
        ];
        for (line, expected) in table {
            assert_eq!(run(line), expected, "command line: `{line}`");
        }
    }

    #[test]
    fn a_flag_name_that_prefixes_another_does_not_match_it() {
        let mut flags = Flags::new("usage", ["--seeds=5".to_string()]);
        assert_eq!(flags.value::<u64>("--seed"), None);
        assert_eq!(flags.value::<u64>("--seeds"), Some(5));
        assert_eq!(flags.parsed(), Ok(vec![]));
    }
}
