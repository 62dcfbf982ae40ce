//! The connection lifecycle of one end of a signaling channel, sans-IO.
//!
//! A [`Link`] decides everything about the connection under a channel
//! that is not the box's business: who re-dials a lost connection (only
//! the end that initiated the channel), how often and after what delay
//! (full-jitter capped doubling, [`backoff_delays`]), which connection's
//! news still counts (the generation), and when to give up (the channel
//! goes down). It has no clock, no socket and no `async`: a substrate
//! feeds it [`Event`]s with the time in milliseconds and executes the
//! [`Command`] it returns. The tokio runtime runs it over TCP and the
//! simulator in virtual time, so the reconnect code a test replays on
//! the simulator is the code a deployment runs.
//!
//! ```text
//! (none)   --dial-->           Dialing      Connect at once
//! Dialing  --landed-->         Up(gen)      Opened
//! Dialing  --attempts out-->   HalfOpen     Opened, no connection
//! Up(gen)  --lost, initiator-> Lost(n)      Connect after the backoff
//! Up(gen)  --lost, acceptor--> Gone         Down
//! Lost(n)  --landed-->         Up(gen + 1)  Resync
//! Lost(n)  --attempts out-->   Gone         Down
//! any      --Bye-->            Gone         Down, once registered
//! ```

use crate::hash::{fnv1a, SplitMix64};
use std::time::Duration;

/// Real-world fault-tolerance knobs: the runtime counterparts of the
/// simulator's retransmission layer. TCP already gives per-channel
/// reliability, so what is left to handle is the connection itself dying
/// — slow peers (send timeout), transient outages (reconnect with capped
/// exponential backoff), and permanent ones (orderly channel teardown
/// after the attempts are exhausted, never a panic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Attempts for the *initial* dial of an outgoing channel.
    pub connect_attempts: u32,
    /// Attempts to re-dial a lost channel before giving up. Zero disables
    /// reconnection: a lost connection tears the channel down immediately.
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
/// stampede the peer in lockstep. The jitter stream is seeded per (node,
/// channel) and thus deterministic in tests.
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

/// Deterministic per-(node, channel) jitter seed (FNV-1a over the name,
/// mixed with the channel id) so two nodes — or two channels of one node
/// — never share a jitter stream.
pub fn jitter_seed(name: &str, channel: u32) -> u64 {
    fnv1a(name.as_bytes()) ^ (u64::from(channel) << 32 | u64::from(channel))
}

/// Where a [`Link`] is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkState {
    /// The first dial is under way; the channel is not registered yet.
    Dialing,
    /// A connection carries the channel.
    Up,
    /// The connection died; the channel's slots are parked and this end
    /// re-dials.
    Lost,
    /// The first dial found nobody: the channel exists with no connection
    /// under it, for the box to observe and destroy (Fig. 6).
    HalfOpen,
    /// The channel is over: a `Bye`, or a loss nobody re-dials.
    Gone,
}

/// What a substrate tells a [`Link`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The attempt a [`Command::Connect`] asked for is over: it landed
    /// (`true`) or it failed.
    Dialed(bool),
    /// The connection of this generation died without a `Bye`: an end of
    /// stream, an error, a write that timed out.
    Lost(u32),
    /// The far end said `Bye` on a connection [`Link::admits`] admitted,
    /// or the substrate hung the channel up itself.
    Bye,
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
    /// The first dial is over: register the channel and tell the box
    /// (`Input::dial_outcome`). It rides connection `gen`, or is half-open
    /// when `gen` is `None`.
    Opened {
        /// The box's dial request tag.
        req: u32,
        /// The connection, if anybody answered.
        gen: Option<u32>,
        /// Milliseconds from the dial to this outcome.
        elapsed_ms: u64,
    },
    /// A re-dial landed: connection `gen` replaces the dead one, and the
    /// parked slots re-send their cached signals (`Input::Resync`).
    Resync {
        /// The new connection's generation.
        gen: u32,
        /// Attempts the recovery took.
        attempts: u32,
        /// Milliseconds from the loss to this outcome.
        elapsed_ms: u64,
    },
    /// The channel is gone: tear it down (`Input::ChannelDown`).
    Down,
}

/// One end of a channel's connection lifecycle. See the module docs.
#[derive(Debug, Clone)]
pub struct Link {
    policy: ReconnectPolicy,
    seed: u64,
    state: LinkState,
    /// This end initiated the channel; only the initiator re-dials.
    initiator: bool,
    /// The current connection's generation. Every replacement gets the
    /// next one, so news from a superseded connection — a frame still in
    /// flight, a second death notice — is told from the live one's:
    /// acting on it would tear the replacement down and re-dial, forever,
    /// since each replacement's teardown seeds the next notice.
    gen: u32,
    /// The first dial's request tag.
    req: u32,
    /// Attempts made in the current dial or re-dial.
    attempts: u32,
    /// When the current dial or outage began.
    since_ms: u64,
}

impl Link {
    /// Start the first dial of a channel this end initiates; `req` is the
    /// box's tag to echo. Its first attempt, which goes at once, comes
    /// back with it.
    pub fn dial(policy: ReconnectPolicy, seed: u64, req: u32, now_ms: u64) -> (Link, Command) {
        let mut link = Link {
            state: LinkState::Dialing,
            req,
            since_ms: now_ms,
            ..Link::established(policy, seed, true, 0)
        };
        let first = link.connect();
        (link, first)
    }

    /// A channel already carried by connection `gen`: one the far end
    /// dialed (`initiator` false), or one the substrate set up whole.
    pub fn established(policy: ReconnectPolicy, seed: u64, initiator: bool, gen: u32) -> Link {
        Link {
            policy,
            seed,
            state: LinkState::Up,
            initiator,
            gen,
            req: 0,
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

    /// Attempts made in the current dial or re-dial, the one under way
    /// included.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// True iff a frame read from connection `gen` still counts: it is
    /// the current one, and the channel is not over. A frame from a
    /// superseded connection is a ghost of a dead one.
    pub fn admits(&self, gen: u32) -> bool {
        gen == self.gen && self.state != LinkState::Gone
    }

    /// Apply one event at `now_ms`; at most one command comes back.
    pub fn on(&mut self, event: Event, now_ms: u64) -> Option<Command> {
        let (req, elapsed_ms) = (self.req, now_ms.saturating_sub(self.since_ms));
        let dialing = self.state == LinkState::Dialing;
        match (self.state, event) {
            (LinkState::Gone, _) => None,
            (_, Event::Bye) => {
                self.state = LinkState::Gone;
                (!dialing).then_some(Command::Down)
            }
            (LinkState::Up, Event::Lost(gen)) if gen == self.gen => {
                if !self.initiator || self.policy.reconnect_attempts == 0 {
                    self.state = LinkState::Gone;
                    return Some(Command::Down);
                }
                (self.state, self.attempts, self.since_ms) = (LinkState::Lost, 0, now_ms);
                Some(self.connect())
            }
            (LinkState::Dialing | LinkState::Lost, Event::Dialed(true)) => {
                self.state = LinkState::Up;
                self.gen += 1;
                let (gen, attempts) = (self.gen, self.attempts);
                Some(if dialing {
                    Command::Opened {
                        req,
                        gen: Some(gen),
                        elapsed_ms,
                    }
                } else {
                    Command::Resync {
                        gen,
                        attempts,
                        elapsed_ms,
                    }
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
                // Out of attempts: a first dial leaves the channel
                // half-open, a re-dial takes it down.
                if !dialing {
                    self.state = LinkState::Gone;
                    return Some(Command::Down);
                }
                self.state = LinkState::HalfOpen;
                Some(Command::Opened {
                    req,
                    gen: None,
                    elapsed_ms,
                })
            }
            // A stale or second death notice, an outcome nobody asked for.
            _ => None,
        }
    }

    /// The next attempt, after its backoff delay: a first dial tries at
    /// once and backs off before each retry; a re-dial backs off before
    /// its first try too, so the initiators a partition heal releases
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

    fn up(initiator: bool, reconnect_attempts: u32) -> Link {
        Link::established(policy(3, reconnect_attempts), SEED, initiator, 0)
    }

    #[test]
    fn a_first_dial_lands_on_its_kth_attempt() {
        for k in 1..=3 {
            let (mut link, first) = Link::dial(policy(3, 8), SEED, 7, 1_000);
            let (delays, last, now) = run(&mut link, first, 1_000, 10, Some(k));
            // At once, then the backoff schedule.
            let mut planned = vec![Duration::ZERO];
            planned.extend(backoff_delays(&policy(3, 8), SEED, k - 1));
            assert_eq!(delays, planned);
            assert_eq!(
                last,
                Command::Opened {
                    req: 7,
                    gen: Some(1),
                    elapsed_ms: now - 1_000,
                }
            );
            assert_eq!(link.state(), LinkState::Up);
            assert!(link.admits(1) && !link.admits(0));
        }
    }

    #[test]
    fn a_first_dial_that_never_lands_leaves_the_channel_half_open() {
        let (mut link, first) = Link::dial(policy(3, 8), SEED, 7, 0);
        assert_eq!(link.attempts(), 1, "the first attempt is under way");
        let (delays, last, now) = run(&mut link, first, 0, 10, None);
        assert_eq!(delays.len(), 3, "connect_attempts");
        let planned = backoff_delays(&policy(3, 8), SEED, 2);
        assert_eq!(delays[1..], planned[..]);
        assert_eq!(
            last,
            Command::Opened {
                req: 7,
                gen: None,
                elapsed_ms: now,
            }
        );
        assert_eq!(link.state(), LinkState::HalfOpen);
        // Zero attempts still makes one.
        let (mut link, first) = Link::dial(policy(0, 8), SEED, 7, 0);
        assert_eq!(run(&mut link, first, 0, 10, None).0.len(), 1);
    }

    #[test]
    fn a_redial_that_lands_resyncs_on_the_next_generation() {
        let mut link = up(true, 8);
        let first = link.on(Event::Lost(0), 500).unwrap();
        assert_eq!(link.state(), LinkState::Lost);
        // Frames of the dead connection still count until it is replaced.
        assert!(link.admits(0));
        let (delays, last, now) = run(&mut link, first, 500, 10, Some(4));
        assert_eq!(delays, backoff_delays(&policy(3, 8), SEED, 4));
        assert_eq!(
            last,
            Command::Resync {
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
        let mut link = up(true, 5);
        let first = link.on(Event::Lost(0), 0).unwrap();
        let (delays, last, _) = run(&mut link, first, 0, 10, None);
        assert_eq!(delays, backoff_delays(&policy(3, 5), SEED, 5));
        assert_eq!(last, Command::Down);
        assert_eq!(link.state(), LinkState::Gone);
        assert!(!link.admits(0) && !link.admits(1));
        assert_eq!(link.on(Event::Dialed(true), 99), None);
    }

    #[test]
    fn only_the_initiator_redials() {
        let mut acceptor = up(false, 8);
        assert_eq!(acceptor.on(Event::Lost(0), 0), Some(Command::Down));
        assert_eq!(acceptor.state(), LinkState::Gone);
        // An initiator with no re-dial budget gives up at once too.
        let mut initiator = up(true, 0);
        assert_eq!(initiator.on(Event::Lost(0), 0), Some(Command::Down));
    }

    /// The PR-7 flap: a superseded connection's death notice must not
    /// touch the live one, nor may its frames reach the box.
    #[test]
    fn news_from_a_superseded_connection_is_dropped() {
        let mut link = up(true, 8);
        let first = link.on(Event::Lost(0), 0).unwrap();
        // The reader and the writer both report the one death.
        assert_eq!(link.on(Event::Lost(0), 1), None);
        let (_, resync, now) = run(&mut link, first, 0, 10, Some(1));
        assert!(matches!(resync, Command::Resync { gen: 1, .. }));
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
    fn bye_ends_every_state() {
        let (mut dialing, _) = Link::dial(policy(3, 8), SEED, 1, 0);
        assert_eq!(dialing.on(Event::Bye, 0), None, "nothing registered yet");
        assert_eq!(dialing.state(), LinkState::Gone);
        // The attempt in flight lands on a channel that is over.
        assert_eq!(dialing.on(Event::Dialed(true), 5), None);

        let mut up_link = up(true, 8);
        assert_eq!(up_link.on(Event::Bye, 0), Some(Command::Down));

        let mut lost = up(true, 8);
        lost.on(Event::Lost(0), 0);
        assert_eq!(lost.on(Event::Bye, 1), Some(Command::Down));
        assert_eq!(lost.on(Event::Dialed(true), 2), None, "re-dial dropped");

        let (mut half, first) = Link::dial(policy(1, 8), SEED, 1, 0);
        run(&mut half, first, 0, 10, None);
        assert_eq!(half.state(), LinkState::HalfOpen);
        assert_eq!(half.on(Event::Bye, 0), Some(Command::Down));

        let mut gone = up(false, 8);
        gone.on(Event::Bye, 0);
        assert_eq!(gone.on(Event::Bye, 1), None);
        assert_eq!(gone.state(), LinkState::Gone);
    }

    #[test]
    fn delays_stay_under_their_caps_and_differ_per_seed() {
        let p = policy(3, 8);
        let a = backoff_delays(&p, jitter_seed("caller", 0), 8);
        for (i, d) in a.iter().enumerate() {
            let cap = (p.base_delay * 2u32.pow(u32::try_from(i).unwrap())).min(p.max_delay);
            assert!(*d <= cap, "attempt {i}: {d:?} over {cap:?}");
        }
        assert_ne!(a, backoff_delays(&p, jitter_seed("caller", 1), 8));
        let zero = ReconnectPolicy {
            base_delay: Duration::ZERO,
            ..p
        };
        assert_eq!(backoff_delays(&zero, 1, 3), [Duration::ZERO; 3]);
    }
}
