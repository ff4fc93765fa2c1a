//! One mesh router: clock, control-plane endpoint and neighbour watch.
//!
//! A [`MeshNode`] owns everything a real node would keep in RAM — its
//! drifting oscillator ([`DriftClock`]), its MSH-DSCH protocol endpoint
//! ([`DschNode`]), the last beacon it accepted, and a liveness watch
//! over its radio neighbours. It never reads another node's state; the
//! [`crate::MeshRuntime`] only feeds it frames that actually survived
//! the fabric.

use std::collections::{BTreeMap, BTreeSet};

use wimesh_emu::DriftClock;
use wimesh_mac80216::protocol::DschNode;
use wimesh_obs::flight::FlightRecorder;
use wimesh_obs::trace::TraceCtx;
use wimesh_sim::SimTime;
use wimesh_topology::NodeId;

/// Events a node's flight recorder retains: enough to reconstruct the
/// control-plane conversation leading up to an anomaly, small enough
/// that the ring stays cache-resident per node.
pub(crate) const FLIGHT_CAPACITY: usize = 64;

/// Per-router state of the distributed runtime.
#[derive(Debug, Clone)]
pub struct MeshNode {
    id: NodeId,
    /// The node's local oscillator.
    pub(crate) clock: DriftClock,
    /// The node's MSH-DSCH reservation endpoint.
    pub(crate) dsch: DschNode,
    /// False while crashed: a dead node neither sends nor receives.
    pub(crate) alive: bool,
    /// Last beacon round this node accepted (cleared by a crash).
    pub(crate) synced_round: Option<u64>,
    /// Tree depth carried by the last accepted beacon.
    pub(crate) sync_depth: u32,
    /// Reference instant at which each neighbour was last heard at all
    /// (any frame counts, not only beacons).
    pub(crate) heard: BTreeMap<NodeId, SimTime>,
    /// Neighbours this node currently believes dead (own detections and
    /// flooded reports).
    pub(crate) known_dead: BTreeSet<NodeId>,
    /// Beacons accepted over this node's lifetime.
    pub(crate) resyncs: u64,
    /// Lamport clock: bumped on every send, raised past the carried
    /// stamp on every receive, so cross-node traces order causally even
    /// under drifting oscillators.
    pub(crate) lamport: u64,
    /// Context of the last MSH-DSCH bundle this node received; the next
    /// *responsive* bundle it sends (grants/confirms/cancels) parents on
    /// it, chaining the three-way handshake into one trace.
    pub(crate) last_dsch_ctx: Option<TraceCtx>,
    /// Ring of recent control-plane events, dumped on anomalies.
    pub(crate) flight: FlightRecorder,
}

impl MeshNode {
    pub(crate) fn new(id: NodeId, drift_ppm: f64) -> Self {
        Self {
            id,
            clock: DriftClock::new(drift_ppm),
            dsch: DschNode::new(id),
            alive: true,
            synced_round: None,
            sync_depth: 0,
            heard: BTreeMap::new(),
            known_dead: BTreeSet::new(),
            resyncs: 0,
            lamport: 0,
            last_dsch_ctx: None,
            flight: FlightRecorder::with_capacity(FLIGHT_CAPACITY),
        }
    }

    /// The router's identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Last beacon round this node accepted, if any since (re)start.
    pub fn synced_round(&self) -> Option<u64> {
        self.synced_round
    }

    /// Beacons accepted over the node's lifetime.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// The node's reservation endpoint (read-only).
    pub fn dsch(&self) -> &DschNode {
        &self.dsch
    }

    /// Neighbours this node currently believes dead.
    pub fn known_dead(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.known_dead.iter().copied()
    }

    /// The node's current Lamport clock.
    pub fn lamport(&self) -> u64 {
        self.lamport
    }

    /// The node's flight recorder (read-only).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Crash: all volatile state is lost; the oscillator keeps running
    /// (hardware clocks do not stop) but its sync correction is gone
    /// with the OS.
    pub(crate) fn crash(&mut self) {
        self.alive = false;
        self.dsch.reset();
        self.synced_round = None;
        self.sync_depth = 0;
        self.heard.clear();
        self.known_dead.clear();
        self.lamport = 0;
        self.last_dsch_ctx = None;
        self.flight.clear();
    }

    /// Restart after a crash: the node boots with empty state and must
    /// reacquire sync from the next beacon it hears.
    pub(crate) fn restart(&mut self) {
        self.alive = true;
    }
}
