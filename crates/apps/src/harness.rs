//! Glue between the signaling simulator and the media plane: a deployment
//! harness that reads each endpoint slot's negotiated transmit route off
//! the control plane and pumps media packets along it.

use ipmedia_core::ids::{BoxId, SlotId};
use ipmedia_core::MediaAddr;
use ipmedia_media::{MediaPlane, Route, SourceKind};
use ipmedia_netsim::Network;
use std::collections::BTreeMap;

/// Which media address a box (or one specific slot of a box) transmits
/// from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    /// Every slot of the box transmits from one address (a user device).
    WholeBox(BoxId),
    /// One slot has its own address (a bridge port, a movie-server tunnel).
    Port(BoxId, SlotId),
}

/// A simulated deployment: signaling network + media plane + the registry
/// tying media addresses to boxes and slots.
pub struct MediaNet {
    pub net: Network,
    pub plane: MediaPlane,
    registry: BTreeMap<Key, MediaAddr>,
}

impl MediaNet {
    pub fn new(net: Network) -> Self {
        Self {
            net,
            plane: MediaPlane::new(),
            registry: BTreeMap::new(),
        }
    }

    /// Register a single-address media endpoint (a user device): every slot
    /// of `box_id` transmits from `addr`, which transmits `source`.
    pub fn endpoint(&mut self, box_id: BoxId, addr: MediaAddr, source: SourceKind) {
        self.registry.insert(Key::WholeBox(box_id), addr);
        self.plane.register(addr, source);
    }

    /// Register one slot of a box with its own media address (one port of
    /// a bridge or media server).
    pub fn port(&mut self, box_id: BoxId, slot: SlotId, addr: MediaAddr, source: SourceKind) {
        self.registry.insert(Key::Port(box_id, slot), addr);
        self.plane.register(addr, source);
    }

    /// Compute the currently enabled media routes from the control plane.
    pub fn routes(&self) -> Vec<Route> {
        let mut out = Vec::new();
        for (key, &from) in &self.registry {
            let (box_id, only_slot) = match key {
                Key::WholeBox(b) => (*b, None),
                Key::Port(b, s) => (*b, Some(*s)),
            };
            let media = self.net.media(box_id);
            for (slot_id, slot) in media.slots() {
                if only_slot.is_some_and(|only| slot_id != only) {
                    continue;
                }
                if let Some((to, codec)) = slot.tx_route() {
                    out.push(Route { from, to, codec });
                }
            }
        }
        out
    }

    /// Run the media plane for `ticks` 20 ms frames against the current
    /// control-plane state.
    pub fn pump_media(&mut self, ticks: usize) {
        for _ in 0..ticks {
            let routes = self.routes();
            self.plane.tick(&routes);
        }
    }

    /// Let all in-flight signaling settle, then pump media.
    pub fn settle_and_pump(&mut self, max: ipmedia_netsim::SimTime, ticks: usize) {
        self.net.run_until_quiescent(max);
        self.plane.reset_flows();
        self.pump_media(ticks);
    }
}
