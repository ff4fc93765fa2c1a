//! Distributed coordinated scheduling: the MSH-DSCH three-way handshake.
//!
//! Each directed link with demand is reserved by its transmitter:
//!
//! 1. **Request** — the transmitter broadcasts `(link, demand)` together
//!    with its *availability* (the minislots it already knows to be busy)
//!    when it wins a control opportunity.
//! 2. **Grant** — the receiver answers with a minislot range free in its
//!    own local view *and* in the requester's advertised availability;
//!    all of the receiver's neighbours overhear the grant and block those
//!    slots.
//! 3. **Grant-confirm** — the transmitter, if the range is still free in
//!    its view, echoes the grant; all of the transmitter's neighbours
//!    block the slots too. A stale range triggers a fresh request.
//!
//! Grants issued concurrently within the same frame by granters more than
//! two hops apart can still collide. Collisions are detected by whichever
//! endpoint of a reservation hears the competing one, and resolved
//! deterministically — the lower link id keeps the slots, the other side
//! broadcasts a **cancel** and its transmitter re-requests. Experiment E8
//! measures how often this happens and how fast the protocol converges.
//!
//! The per-node state machine lives in [`crate::protocol::DschNode`];
//! [`run_distributed`] is a lossless synchronous driver over one
//! `DschNode` per router (every broadcast reaches every radio neighbour
//! in the same opportunity). The `wimesh-node` runtime drives the same
//! endpoints through a lossy, delayed message fabric.

use std::collections::BTreeMap;

use wimesh_tdma::{Demands, FrameConfig, Schedule, ScheduleError};
use wimesh_topology::{MeshTopology, NodeId};

use crate::election::MeshElection;
use crate::protocol::DschNode;

/// Parameters of a distributed scheduling run.
#[derive(Debug, Clone, Copy)]
pub struct ReservationConfig {
    /// The data subframe being reserved.
    pub frame: FrameConfig,
    /// MSH-DSCH opportunities per mesh frame.
    pub opportunities_per_frame: u32,
    /// Give up after this many frames without convergence.
    pub max_frames: u32,
}

impl Default for ReservationConfig {
    fn default() -> Self {
        Self {
            frame: FrameConfig::new(256, 40),
            opportunities_per_frame: 4,
            max_frames: 500,
        }
    }
}

/// Result of a distributed scheduling run.
#[derive(Debug, Clone)]
pub struct ReservationOutcome {
    /// The converged (or partial, if not converged) schedule.
    pub schedule: Schedule,
    /// Whether every demanded link obtained a confirmed reservation.
    pub converged: bool,
    /// Mesh frames elapsed until convergence (or the budget, if not).
    pub frames_elapsed: u32,
    /// MSH-DSCH messages actually broadcast.
    pub messages_sent: u64,
    /// Handshakes that restarted (stale grants or slot collisions).
    pub retries: u64,
}

/// Runs the distributed three-way-handshake protocol until every demanded
/// link holds a confirmed reservation or the frame budget runs out.
///
/// # Example
///
/// ```
/// use wimesh_mac80216::reservation::{run_distributed, ReservationConfig};
/// use wimesh_tdma::Demands;
/// use wimesh_topology::generators;
///
/// let topo = generators::chain(4);
/// let mut demands = Demands::new();
/// demands.set(topo.link_between(3.into(), 2.into()).unwrap(), 4);
/// demands.set(topo.link_between(2.into(), 1.into()).unwrap(), 4);
/// let out = run_distributed(&topo, &demands, ReservationConfig::default())?;
/// assert!(out.converged);
/// assert_eq!(out.schedule.len(), 2);
/// # Ok::<(), wimesh_tdma::ScheduleError>(())
/// ```
///
/// # Errors
///
/// [`ScheduleError::FrameTooShort`] if any single demand exceeds the data
/// subframe.
///
/// # Panics
///
/// Panics if a demanded link is not in `topo`.
pub fn run_distributed(
    topo: &MeshTopology,
    demands: &Demands,
    config: ReservationConfig,
) -> Result<ReservationOutcome, ScheduleError> {
    let slots = config.frame.slots();
    for (link, d) in demands.iter() {
        if d > slots {
            return Err(ScheduleError::FrameTooShort {
                needed: d,
                available: slots,
            });
        }
        assert!(topo.link(link).is_some(), "demand on unknown link {link}");
    }

    let election = MeshElection::new(topo);
    let mut nodes: Vec<DschNode> = (0..topo.node_count())
        .map(|i| DschNode::new(NodeId(i as u32)))
        .collect();
    for (link, d) in demands.iter() {
        if d == 0 {
            continue;
        }
        let tx = topo.link(link).expect("checked").tx;
        nodes[tx.index()].set_demand(topo, link, d);
    }

    let mut messages_sent = 0u64;
    let mut opportunity = 0u32;
    let budget = config
        .max_frames
        .saturating_mul(config.opportunities_per_frame);

    let converged = loop {
        if nodes.iter().all(DschNode::is_satisfied) {
            break true;
        }
        if opportunity >= budget {
            break false;
        }
        let winners: Vec<NodeId> = election
            .winners(opportunity)
            .into_iter()
            .filter(|n| nodes[n.index()].has_pending_traffic())
            .collect();
        for &sender in &winners {
            let Some(msg) = nodes[sender.index()].poll(topo, slots) else {
                continue;
            };
            messages_sent += 1;
            let hearers: Vec<NodeId> = topo.neighbors(sender).collect();
            for w in hearers {
                nodes[w.index()].receive(topo, &msg, slots);
            }
        }
        opportunity += 1;
    };

    let mut ranges = BTreeMap::new();
    for st in &nodes {
        for (&link, &range) in st.confirmed() {
            ranges.insert(link, range);
        }
    }
    let schedule = Schedule::from_ranges(config.frame, ranges)?;
    let frames_elapsed = opportunity.div_ceil(config.opportunities_per_frame.max(1));
    Ok(ReservationOutcome {
        schedule,
        converged,
        frames_elapsed,
        messages_sent,
        retries: nodes.iter().map(DschNode::retries).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimesh_conflict::{ConflictGraph, InterferenceModel};
    use wimesh_topology::generators;
    use wimesh_topology::routing::GatewayRouting;

    fn uplink_demands(topo: &MeshTopology, gateway: NodeId, per_link: u32) -> Demands {
        let routing = GatewayRouting::new(topo, gateway).unwrap();
        let mut demands = Demands::new();
        for link in routing.uplink_links(topo) {
            demands.set(link, per_link);
        }
        demands
    }

    fn check_converges(topo: &MeshTopology, demands: &Demands, config: ReservationConfig) {
        let out = run_distributed(topo, demands, config).unwrap();
        assert!(
            out.converged,
            "did not converge in {} frames",
            out.frames_elapsed
        );
        for (link, d) in demands.iter() {
            let r = out.schedule.slot_range(link).expect("missing reservation");
            assert_eq!(r.len, d, "wrong grant size on {link}");
        }
        let cg = ConflictGraph::build_for_links(
            topo,
            demands.links().collect(),
            InterferenceModel::protocol_default(),
        );
        if let Err((a, b)) = out.schedule.validate(&cg) {
            panic!("conflicting reservations on {a} and {b}");
        }
    }

    #[test]
    fn single_link() {
        let topo = generators::chain(2);
        let mut demands = Demands::new();
        demands.set(topo.link_between(NodeId(0), NodeId(1)).unwrap(), 4);
        let out = run_distributed(&topo, &demands, ReservationConfig::default()).unwrap();
        assert!(out.converged);
        assert!(out.frames_elapsed <= 5);
        assert_eq!(out.schedule.busy_slots(), 4);
    }

    #[test]
    fn chain_uplink_converges_conflict_free() {
        let topo = generators::chain(6);
        let demands = uplink_demands(&topo, NodeId(0), 8);
        check_converges(&topo, &demands, ReservationConfig::default());
    }

    #[test]
    fn grid_uplink_converges_conflict_free() {
        let topo = generators::grid(3, 3);
        let demands = uplink_demands(&topo, NodeId(0), 4);
        check_converges(&topo, &demands, ReservationConfig::default());
    }

    #[test]
    fn larger_grid_converges_conflict_free() {
        let topo = generators::grid(4, 4);
        let demands = uplink_demands(&topo, NodeId(5), 3);
        check_converges(&topo, &demands, ReservationConfig::default());
    }

    #[test]
    fn star_converges() {
        let topo = generators::star(6);
        let demands = uplink_demands(&topo, NodeId(0), 10);
        check_converges(&topo, &demands, ReservationConfig::default());
    }

    #[test]
    fn binary_tree_converges() {
        let topo = generators::binary_tree(3);
        let demands = uplink_demands(&topo, NodeId(0), 4);
        check_converges(&topo, &demands, ReservationConfig::default());
    }

    #[test]
    fn both_directions_converge() {
        // Uplink and downlink demand on every tree edge.
        let topo = generators::chain(5);
        let routing = GatewayRouting::new(&topo, NodeId(0)).unwrap();
        let mut demands = Demands::new();
        for link in routing.uplink_links(&topo) {
            demands.set(link, 4);
            let l = *topo.link(link).unwrap();
            let rev = topo.link_between(l.rx, l.tx).unwrap();
            demands.set(rev, 4);
        }
        check_converges(&topo, &demands, ReservationConfig::default());
    }

    #[test]
    fn oversized_demand_rejected() {
        let topo = generators::chain(2);
        let mut demands = Demands::new();
        demands.set(topo.link_between(NodeId(0), NodeId(1)).unwrap(), 300);
        let err = run_distributed(&topo, &demands, ReservationConfig::default()).unwrap_err();
        assert!(matches!(err, ScheduleError::FrameTooShort { .. }));
    }

    #[test]
    fn insufficient_capacity_does_not_converge() {
        // A star center must serialize all leaf links: 6 x 100 slots in a
        // 256-slot frame cannot fit.
        let topo = generators::star(6);
        let demands = uplink_demands(&topo, NodeId(0), 100);
        let config = ReservationConfig {
            max_frames: 50,
            ..ReservationConfig::default()
        };
        let out = run_distributed(&topo, &demands, config).unwrap();
        assert!(!out.converged);
        let cg = ConflictGraph::build_for_links(
            &topo,
            demands.links().collect(),
            InterferenceModel::protocol_default(),
        );
        assert!(out.schedule.validate(&cg).is_ok());
    }

    #[test]
    fn empty_demands_converge_immediately() {
        let topo = generators::chain(4);
        let out = run_distributed(&topo, &Demands::new(), ReservationConfig::default()).unwrap();
        assert!(out.converged);
        assert_eq!(out.frames_elapsed, 0);
        assert_eq!(out.messages_sent, 0);
    }

    #[test]
    fn messages_scale_with_links() {
        let topo = generators::chain(5);
        let demands = uplink_demands(&topo, NodeId(0), 2);
        let out = run_distributed(&topo, &demands, ReservationConfig::default()).unwrap();
        // 4 links, each needing request + grant + confirm, possibly
        // bundled into fewer broadcasts.
        assert!(out.messages_sent >= 6, "messages {}", out.messages_sent);
        assert!(out.converged);
    }
}
