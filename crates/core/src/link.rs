//! The lifecycle of one signaling connection, sans-IO.
//!
//! Every channel a box dials to another rides one connection (a TCP
//! connection on `rt`, an (initiator, target) pair on the simulator), and
//! a [`Link`] decides everything about it that is not the boxes'
//! business: how often to attempt it and after what delay (full-jitter
//! capped doubling, [`backoff_delays`]), which of its incarnations' news
//! still counts (the generation), and when to give up. Only the dialing
//! end holds one: an acceptor never re-dials, and its channels go down
//! with their connection. The channels themselves stay the substrate's:
//! when the connection lands, every channel bound to it says hello again,
//! in tag order, and resyncs, and every first dial waiting on it opens;
//! when it gives up, the bound channels go down and the waiting dials come
//! back half-open. It has no clock, no socket and no `async`: a substrate
//! feeds it [`Event`]s with the time in milliseconds and executes the
//! [`Command`] it returns. The tokio runtime runs it over TCP and the
//! simulator in virtual time, so the reconnect code a test replays on
//! the simulator is the code a deployment runs.
//!
//! ```text
//! (none)   --dial-->           Dialing      Connect at once
//! Dialing  --landed-->         Up(1)        Landed
//! Up(gen)  --lost-->           Lost         Connect after the backoff
//! Up(gen)  --lost, no budget-> Gone         Down
//! Lost     --landed-->         Up(gen + 1)  Landed
//! Dialing  --attempts out-->   Gone         Down
//! Lost     --attempts out-->   Gone         Down
//! ```

use crate::hash::{fnv1a, fnv1a_extend, SplitMix64};
use std::time::Duration;

/// Real-world fault-tolerance knobs: the runtime counterparts of the
/// simulator's retransmission layer. TCP already gives per-channel
/// reliability, so what is left to handle is the connection itself dying
/// — slow peers (send timeout), transient outages (reconnect with capped
/// exponential backoff), and permanent ones (orderly channel teardown
/// after the attempts are exhausted, never a panic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Attempts for the *initial* dial of an outgoing connection.
    pub connect_attempts: u32,
    /// Attempts to re-dial a lost connection before giving up. Zero
    /// disables reconnection: a lost connection tears its channels down
    /// immediately.
    pub reconnect_attempts: u32,
    /// First retry delay; doubled per attempt up to `max_delay`.
    pub base_delay: Duration,
    /// Cap on any one retry delay.
    pub max_delay: Duration,
    /// Bound on any single connect or frame write before the connection
    /// is declared dead.
    pub send_timeout: Duration,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        Self {
            connect_attempts: 3,
            reconnect_attempts: 8,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            send_timeout: Duration::from_secs(5),
        }
    }
}

/// The retry delay sequence a policy yields for `attempts` attempts,
/// seeded for reproducibility. Attempt `i` sleeps a uniform random
/// duration in `[0, min(base · 2^i, max)]` (AWS-style full jitter): the
/// expected spacing is half the capped doubling, and the simultaneous
/// reconnects that follow a partition heal spread out rather than
/// stampede the peer in lockstep. The jitter stream is seeded per
/// connection ([`jitter_seed`]) and thus deterministic in tests.
#[allow(clippy::cast_possible_truncation)]
pub fn backoff_delays(policy: &ReconnectPolicy, seed: u64, attempts: u32) -> Vec<Duration> {
    let mut rng = SplitMix64::new(seed);
    let delay = |i| {
        let cap = policy.base_delay.saturating_mul(2u32.saturating_pow(i));
        let cap_us = cap.min(policy.max_delay).as_micros() as u64;
        if cap_us == 0 {
            return Duration::ZERO;
        }
        // A uniform draw from `0..=cap_us` by widening multiply.
        let x = rng.next_u64();
        let n = cap_us.checked_add(1);
        let us = n.map_or(x, |n| ((u128::from(x) * u128::from(n)) >> 64) as u64);
        Duration::from_micros(us)
    };
    (0..attempts).map(delay).collect()
}

/// Deterministic per-connection jitter seed: FNV-1a over the dialing
/// box's name, a zero byte and the dialed box's name, so two boxes
/// re-dialing one peer, or one box re-dialing two, never share a jitter
/// stream.
pub fn jitter_seed(from: &str, to: &str) -> u64 {
    fnv1a_extend(fnv1a_extend(fnv1a(from.as_bytes()), &[0]), to.as_bytes())
}

/// Where a [`Link`] is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkState {
    /// The first dial is under way.
    Dialing,
    /// The connection is up.
    Up,
    /// The connection died; its channels' slots are parked while it is
    /// re-dialed.
    Lost,
    /// The attempts ran out: the lifecycle is over.
    Gone,
}

/// What a substrate tells a [`Link`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The attempt a [`Command::Connect`] asked for is over: it landed
    /// (`true`) or it failed.
    Dialed(bool),
    /// The connection of this generation died: an end of stream, an
    /// error, a write that timed out.
    Lost(u32),
}

/// What a [`Link`] asks its substrate to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Make one connection attempt `after` from now, for the connection
    /// of generation `gen`, and report it with [`Event::Dialed`].
    Connect {
        /// The delay before the attempt.
        after: Duration,
        /// The generation the connection gets if the attempt lands.
        gen: u32,
    },
    /// An attempt landed: connection `gen` is up. Every channel bound to
    /// the connection says hello on it and re-sends its parked slots'
    /// cached signals (`Input::Resync`), and every first dial waiting on
    /// it opens.
    Landed {
        /// The new connection's generation.
        gen: u32,
        /// Attempts the dial or re-dial took.
        attempts: u32,
        /// Milliseconds from the dial or the loss to this outcome.
        elapsed_ms: u64,
    },
    /// The attempts ran out: every channel bound to the connection goes
    /// down (`Input::ChannelDown`), and every first dial waiting on it
    /// comes back half-open (`Input::dial_outcome`).
    Down,
}

/// The lifecycle of one connection, held by the end that dials it. See
/// the module docs.
#[derive(Debug, Clone)]
pub struct Link {
    policy: ReconnectPolicy,
    seed: u64,
    state: LinkState,
    /// The current connection's generation. Every replacement gets the
    /// next one, so news from a superseded connection — a frame still in
    /// flight, a second death notice — is told from the live one's:
    /// acting on it would tear the replacement down and re-dial, forever,
    /// since each replacement's teardown seeds the next notice.
    gen: u32,
    /// Attempts made in the current dial or re-dial.
    attempts: u32,
    /// When the current dial or outage began.
    since_ms: u64,
}

impl Link {
    /// Start the first dial of a connection. Its first attempt, which
    /// goes at once, comes back with it.
    pub fn dial(policy: ReconnectPolicy, seed: u64, now_ms: u64) -> (Link, Command) {
        let mut link = Link {
            state: LinkState::Dialing,
            since_ms: now_ms,
            ..Link::established(policy, seed)
        };
        let first = link.connect();
        (link, first)
    }

    /// A connection the substrate set up whole: up, on generation 0.
    pub fn established(policy: ReconnectPolicy, seed: u64) -> Link {
        Link {
            policy,
            seed,
            state: LinkState::Up,
            gen: 0,
            attempts: 0,
            since_ms: 0,
        }
    }

    /// Where the lifecycle is.
    pub fn state(&self) -> LinkState {
        self.state
    }

    /// The current connection's generation.
    pub fn gen(&self) -> u32 {
        self.gen
    }

    /// True iff a frame read from connection `gen` still counts: it is
    /// the current one, and the lifecycle is not over. A frame from a
    /// superseded connection is a ghost of a dead one. netsim asks it of
    /// every message that reaches a dialing end on arrival; `rt` frames
    /// carry no generation, since a re-dialed connection there is a new
    /// TCP connection and a frame of the dead one finds no channel.
    pub fn admits(&self, gen: u32) -> bool {
        gen == self.gen && self.state != LinkState::Gone
    }

    /// Apply one event at `now_ms`; at most one command comes back.
    pub fn on(&mut self, event: Event, now_ms: u64) -> Option<Command> {
        let dialing = self.state == LinkState::Dialing;
        match (self.state, event) {
            (LinkState::Up, Event::Lost(gen)) if gen == self.gen => {
                if self.policy.reconnect_attempts == 0 {
                    self.state = LinkState::Gone;
                    return Some(Command::Down);
                }
                (self.state, self.attempts, self.since_ms) = (LinkState::Lost, 0, now_ms);
                Some(self.connect())
            }
            (LinkState::Dialing | LinkState::Lost, Event::Dialed(true)) => {
                self.state = LinkState::Up;
                self.gen += 1;
                Some(Command::Landed {
                    gen: self.gen,
                    attempts: self.attempts,
                    elapsed_ms: now_ms.saturating_sub(self.since_ms),
                })
            }
            (LinkState::Dialing | LinkState::Lost, Event::Dialed(false)) => {
                let budget = if dialing {
                    self.policy.connect_attempts.max(1)
                } else {
                    self.policy.reconnect_attempts
                };
                if self.attempts < budget {
                    return Some(self.connect());
                }
                self.state = LinkState::Gone;
                Some(Command::Down)
            }
            // A stale or second death notice, an outcome nobody asked for.
            _ => None,
        }
    }

    /// The next attempt, after its backoff delay: a first dial tries at
    /// once and backs off before each retry; a re-dial backs off before
    /// its first try too, so the dialers a partition heal releases
    /// together do not all re-dial in the same instant.
    fn connect(&mut self) -> Command {
        let skipped = u32::from(self.state == LinkState::Dialing);
        let delays = backoff_delays(&self.policy, self.seed, self.attempts + 1 - skipped);
        self.attempts += 1;
        Command::Connect {
            after: delays.last().copied().unwrap_or_default(),
            gen: self.gen + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0x5eed;

    fn policy(connect_attempts: u32, reconnect_attempts: u32) -> ReconnectPolicy {
        ReconnectPolicy {
            connect_attempts,
            reconnect_attempts,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(100),
            send_timeout: Duration::from_secs(2),
        }
    }

    fn ms(d: Duration) -> u64 {
        u64::try_from(d.as_millis()).unwrap()
    }

    /// Drive a dial or re-dial to its end in virtual time: every attempt
    /// fails but the `lands`-th (1-based; never when `None`). Returns the
    /// delays the link asked for and its last command, at the instant it
    /// came; each attempt takes `rtt` milliseconds.
    fn run(
        link: &mut Link,
        first: Command,
        mut now: u64,
        rtt: u64,
        lands: Option<u32>,
    ) -> (Vec<Duration>, Command, u64) {
        let mut delays = Vec::new();
        let mut cmd = first;
        while let Command::Connect { after, gen } = cmd {
            assert_eq!(gen, link.gen() + 1, "an attempt is for the next connection");
            delays.push(after);
            now += ms(after) + rtt;
            let ok = lands == Some(u32::try_from(delays.len()).unwrap());
            cmd = link
                .on(Event::Dialed(ok), now)
                .expect("a dial always answers");
        }
        (delays, cmd, now)
    }

    fn up(reconnect_attempts: u32) -> Link {
        Link::established(policy(3, reconnect_attempts), SEED)
    }

    #[test]
    fn a_first_dial_lands_on_its_kth_attempt() {
        for k in 1..=3 {
            let (mut link, first) = Link::dial(policy(3, 8), SEED, 1_000);
            let (delays, last, now) = run(&mut link, first, 1_000, 10, Some(k));
            // At once, then the backoff schedule.
            let mut planned = vec![Duration::ZERO];
            planned.extend(backoff_delays(&policy(3, 8), SEED, k - 1));
            assert_eq!(delays, planned);
            assert_eq!(
                last,
                Command::Landed {
                    gen: 1,
                    attempts: k,
                    elapsed_ms: now - 1_000,
                }
            );
            assert_eq!(link.state(), LinkState::Up);
            assert!(link.admits(1) && !link.admits(0));
        }
    }

    #[test]
    fn a_first_dial_that_never_lands_gives_up() {
        let (mut link, first) = Link::dial(policy(3, 8), SEED, 0);
        let (delays, last, _) = run(&mut link, first, 0, 10, None);
        assert_eq!(delays.len(), 3, "connect_attempts");
        let planned = backoff_delays(&policy(3, 8), SEED, 2);
        assert_eq!(delays[1..], planned[..]);
        assert_eq!(last, Command::Down);
        assert_eq!(link.state(), LinkState::Gone);
        // Zero attempts still makes one.
        let (mut link, first) = Link::dial(policy(0, 8), SEED, 0);
        assert_eq!(run(&mut link, first, 0, 10, None).0.len(), 1);
    }

    #[test]
    fn a_redial_that_lands_resyncs_on_the_next_generation() {
        let mut link = up(8);
        let first = link.on(Event::Lost(0), 500).unwrap();
        assert_eq!(link.state(), LinkState::Lost);
        // Frames of the dead connection still count until it is replaced.
        assert!(link.admits(0));
        let (delays, last, now) = run(&mut link, first, 500, 10, Some(4));
        assert_eq!(delays, backoff_delays(&policy(3, 8), SEED, 4));
        assert_eq!(
            last,
            Command::Landed {
                gen: 1,
                attempts: 4,
                elapsed_ms: now - 500,
            }
        );
        assert_eq!(link.state(), LinkState::Up);
        assert!(link.admits(1) && !link.admits(0));
        // The next outage backs off from the start of the schedule again.
        let again = link.on(Event::Lost(1), now).unwrap();
        let (delays, ..) = run(&mut link, again, now, 10, Some(1));
        assert_eq!(delays, backoff_delays(&policy(3, 8), SEED, 1));
    }

    #[test]
    fn an_exhausted_redial_takes_the_channel_down() {
        let mut link = up(5);
        let first = link.on(Event::Lost(0), 0).unwrap();
        let (delays, last, _) = run(&mut link, first, 0, 10, None);
        assert_eq!(delays, backoff_delays(&policy(3, 5), SEED, 5));
        assert_eq!(last, Command::Down);
        assert_eq!(link.state(), LinkState::Gone);
        assert!(!link.admits(0) && !link.admits(1));
        assert_eq!(link.on(Event::Dialed(true), 99), None);
        // With no re-dial budget, a loss gives up at once.
        let mut link = up(0);
        assert_eq!(link.on(Event::Lost(0), 0), Some(Command::Down));
    }

    /// The PR-7 flap: a superseded connection's death notice must not
    /// touch the live one, nor may its frames reach the box.
    #[test]
    fn news_from_a_superseded_connection_is_dropped() {
        let mut link = up(8);
        let first = link.on(Event::Lost(0), 0).unwrap();
        // The reader and the writer both report the one death.
        assert_eq!(link.on(Event::Lost(0), 1), None);
        let (_, landed, now) = run(&mut link, first, 0, 10, Some(1));
        assert!(matches!(landed, Command::Landed { gen: 1, .. }));
        // The dead socket's late notice and late frame.
        assert_eq!(link.on(Event::Lost(0), now + 1), None);
        assert_eq!(link.state(), LinkState::Up);
        assert!(!link.admits(0));
        assert!(link.admits(1));
        // The live connection's own death still counts.
        assert!(matches!(
            link.on(Event::Lost(1), now + 2),
            Some(Command::Connect { gen: 2, .. })
        ));
    }

    #[test]
    fn delays_stay_under_their_caps_and_differ_per_seed() {
        let p = policy(3, 8);
        let a = backoff_delays(&p, jitter_seed("caller", "callee"), 8);
        for (i, d) in a.iter().enumerate() {
            let cap = (p.base_delay * 2u32.pow(u32::try_from(i).unwrap())).min(p.max_delay);
            assert!(*d <= cap, "attempt {i}: {d:?} over {cap:?}");
        }
        assert_ne!(a, backoff_delays(&p, jitter_seed("caller", "relay"), 8));
        let zero = ReconnectPolicy {
            base_delay: Duration::ZERO,
            ..p
        };
        assert_eq!(backoff_delays(&zero, 1, 3), [Duration::ZERO; 3]);
    }
}
