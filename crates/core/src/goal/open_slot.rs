//! The `openSlot` goal (paper §IV-A).
//!
//! Goal: open a media channel and get it to the *flowing* state, taking
//! every possible opportunity to push the slot toward flowing. If it sends
//! `open` and receives a reject (`close`), it sends `open` again. It emits
//! `open` and `oack` signals and never `close` — in an open/open race it may
//! back off and be the acceptor instead (§VII).

use crate::codec::Medium;
use crate::descriptor::TagSource;
use crate::goal::policy::Policy;
use crate::signal::Signal;
use crate::slot::{Slot, SlotEvent, SlotState};

/// The `openSlot` goal object (§IV): drives its slot toward a flowing
/// media channel of its medium, re-opening whenever the channel closes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OpenSlot {
    medium: Medium,
    policy: Policy,
    tags: TagSource,
}

impl OpenSlot {
    /// Mutable access to this goal's tag source, for state
    /// canonicalization only.
    #[doc(hidden)]
    pub fn tags_mut(&mut self) -> &mut TagSource {
        &mut self.tags
    }

    /// `openSlot(s, m)` with a server (masquerading, both-muted) policy.
    pub fn server(medium: Medium, tag_origin: u64) -> Self {
        Self::with_policy(medium, Policy::Server, tag_origin)
    }

    /// `openSlot(s, m)` with an explicit receiving policy.
    pub fn with_policy(medium: Medium, policy: Policy, tag_origin: u64) -> Self {
        Self {
            medium,
            policy,
            tags: TagSource::new(tag_origin),
        }
    }

    /// The medium this goal opens.
    pub fn medium(&self) -> Medium {
        self.medium
    }

    /// This end's receiving policy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The goal object gains control of its slot. The annotation
    /// `openSlot(s, m)` may appear only in program states entered with `s`
    /// closed (§IV-A), but after a race backoff or goal reshuffling the slot
    /// can be in other states; the object pushes toward flowing from
    /// wherever it is.
    pub fn attach(&mut self, slot: &mut Slot) -> Vec<Signal> {
        match slot.state() {
            SlotState::Closed => {
                let desc = self.policy.descriptor(&mut self.tags);
                vec![slot.send_open(self.medium, desc).expect("open from closed")]
            }
            SlotState::Opened => self.accept(slot),
            // Goal already achieved, but the channel was negotiated by a
            // predecessor goal: assert this goal's own identity so the far
            // end stops using stale descriptors (cf. §VI-C, holdSlot).
            SlotState::Flowing => {
                let desc = self.policy.descriptor(&mut self.tags);
                let mut out = vec![slot.send_describe(desc).expect("describe while flowing")];
                if let Some(peer) = slot.peer_desc().cloned() {
                    let sel = self.policy.selector_for(&peer);
                    out.push(slot.send_select(sel).expect("select while flowing"));
                }
                out
            }
            // Opening: our open (or a predecessor goal's) is in flight; wait.
            // Closing: wait for the closeack, then reopen.
            _ => vec![],
        }
    }

    /// React to a slot event.
    pub fn on_event(&mut self, event: &SlotEvent, slot: &mut Slot) -> Vec<Signal> {
        match event {
            SlotEvent::Oacked => {
                // ?oack / !select (Fig. 9).
                let sel = self
                    .policy
                    .selector_for(slot.peer_desc().expect("oacked slot is described"));
                vec![slot.send_select(sel).expect("select after oack")]
            }
            SlotEvent::OpenReceived { .. } | SlotEvent::RaceBackoff { .. } => self.accept(slot),
            SlotEvent::PeerClosed { .. } | SlotEvent::CloseAcked => {
                // Rejected or closed: try again immediately.
                let desc = self.policy.descriptor(&mut self.tags);
                vec![slot
                    .send_open(self.medium, desc)
                    .expect("reopen from closed")]
            }
            SlotEvent::Described => {
                // The receiver of a new descriptor must respond with a
                // selector, if only to show it was received (§VI-B).
                let sel = self
                    .policy
                    .selector_for(slot.peer_desc().expect("described slot has desc"));
                vec![slot.send_select(sel).expect("select answers describe")]
            }
            SlotEvent::Selected { .. } | SlotEvent::RaceIgnored | SlotEvent::Ignored(_) => vec![],
        }
    }

    /// The user changed a mute flag (or address/codec) — a `modify` event of
    /// Fig. 5. Re-describe and/or re-select in the flowing state.
    pub fn modify(&mut self, policy: Policy, slot: &mut Slot) -> Vec<Signal> {
        self.policy = policy;
        let mut out = Vec::new();
        if slot.state() == SlotState::Flowing {
            let desc = self.policy.descriptor(&mut self.tags);
            out.push(slot.send_describe(desc).expect("describe while flowing"));
            if let Some(peer) = slot.peer_desc().cloned() {
                let sel = self.policy.selector_for(&peer);
                out.push(slot.send_select(sel).expect("select while flowing"));
            }
        }
        out
    }

    fn accept(&mut self, slot: &mut Slot) -> Vec<Signal> {
        let desc = self.policy.descriptor(&mut self.tags);
        let sel = self
            .policy
            .selector_for(slot.peer_desc().expect("opened slot is described"));
        slot.accept(desc, sel).expect("accept pending open").into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::Descriptor;

    fn server_goal() -> OpenSlot {
        OpenSlot::server(Medium::Audio, 100)
    }

    #[test]
    fn attach_on_closed_slot_sends_open() {
        let mut g = server_goal();
        let mut s = Slot::new(true);
        let out = g.attach(&mut s);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0],
            Signal::Open {
                medium: Medium::Audio,
                ..
            }
        ));
        assert_eq!(s.state(), SlotState::Opening);
    }

    #[test]
    fn reopens_after_reject() {
        // §IV-A: "If an openslot sends open and receives reject, then it
        // sends open again."
        let mut g = server_goal();
        let mut s = Slot::new(true);
        g.attach(&mut s);
        let (ev, _) = s.on_signal(Signal::Close); // reject
        let out = g.on_event(&ev, &mut s);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], Signal::Open { .. }));
        assert_eq!(s.state(), SlotState::Opening);
    }

    #[test]
    fn selects_after_oack() {
        let mut g = server_goal();
        let mut s = Slot::new(true);
        g.attach(&mut s);
        let mut peer_tags = TagSource::new(200);
        let (ev, _) = s.on_signal(Signal::Oack {
            desc: Descriptor::no_media(peer_tags.next()),
        });
        let out = g.on_event(&ev, &mut s);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], Signal::Select { .. }));
        assert_eq!(s.state(), SlotState::Flowing);
    }

    #[test]
    fn accepts_incoming_open_when_racing() {
        // A racing openslot that loses backs off and accepts.
        let mut g = server_goal();
        let mut s = Slot::new(false); // not the channel initiator: loses races
        g.attach(&mut s);
        let mut peer_tags = TagSource::new(200);
        let (ev, _) = s.on_signal(Signal::Open {
            medium: Medium::Audio,
            desc: Descriptor::no_media(peer_tags.next()),
        });
        assert!(matches!(ev, SlotEvent::RaceBackoff { .. }));
        let out = g.on_event(&ev, &mut s);
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0], Signal::Oack { .. }));
        assert!(matches!(out[1], Signal::Select { .. }));
        assert_eq!(s.state(), SlotState::Flowing);
    }

    #[test]
    fn reopens_when_peer_closes_flowing_channel() {
        let mut g = server_goal();
        let mut s = Slot::new(true);
        g.attach(&mut s);
        let mut peer_tags = TagSource::new(200);
        let (ev, _) = s.on_signal(Signal::Oack {
            desc: Descriptor::no_media(peer_tags.next()),
        });
        g.on_event(&ev, &mut s);
        assert_eq!(s.state(), SlotState::Flowing);
        let (ev, _) = s.on_signal(Signal::Close);
        let out = g.on_event(&ev, &mut s);
        assert!(matches!(out[0], Signal::Open { .. }));
    }

    #[test]
    fn answers_describe_with_select() {
        let mut g = server_goal();
        let mut s = Slot::new(true);
        g.attach(&mut s);
        let mut peer_tags = TagSource::new(200);
        let (ev, _) = s.on_signal(Signal::Oack {
            desc: Descriptor::no_media(peer_tags.next()),
        });
        g.on_event(&ev, &mut s);
        let new_desc = Descriptor::no_media(peer_tags.next());
        let (ev, _) = s.on_signal(Signal::Describe {
            desc: new_desc.clone(),
        });
        let out = g.on_event(&ev, &mut s);
        assert_eq!(out.len(), 1);
        match &out[0] {
            Signal::Select { sel } => assert_eq!(sel.answers, new_desc.tag),
            other => panic!("expected select, got {other}"),
        }
    }

    #[test]
    fn attach_accepts_pending_open() {
        let mut g = server_goal();
        let mut s = Slot::new(true);
        let mut peer_tags = TagSource::new(200);
        s.on_signal(Signal::Open {
            medium: Medium::Audio,
            desc: Descriptor::no_media(peer_tags.next()),
        });
        let out = g.attach(&mut s);
        assert_eq!(out.len(), 2);
        assert_eq!(s.state(), SlotState::Flowing);
    }
}
