//! Schedule repair: closing the failure-detection loop with the
//! incremental admission engine.
//!
//! The gateway runs the mesh's admission controller — a
//! [`QosSession`]. When the distributed runtime's failure detector
//! declares a node dead, the [`RepairController`]:
//!
//! 1. **releases** every admitted flow that terminates at the dead node
//!    (its traffic has nowhere to go — the flow is *displaced* and
//!    remembered for the node's return);
//! 2. **re-routes** every flow that merely *transits* the dead node:
//!    the flow is released and immediately re-admitted via
//!    [`QosSession::admit_via`] on a detour computed by BFS over the
//!    surviving nodes;
//! 3. on a node's **return**, re-admits the displaced flows.
//!
//! Each release/admit updates the session's incremental conflict graph
//! and warm-started search (PR 2), so repair cost scales with the
//! damage, not the mesh. The controller outputs the *desired* per-link
//! minislot demands implied by the session's admitted set; the runtime
//! diffs them against what the distributed handshake currently holds
//! and lets the MSH-DSCH protocol renegotiate the difference over the
//! lossy fabric.

use std::collections::{BTreeMap, BTreeSet};

use wimesh::{FlowSpec, QosSession};
use wimesh_topology::routing::{shortest_path_through, Path};
use wimesh_topology::{LinkId, MeshTopology, NodeId};

use crate::NodeError;

/// What one repair pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Flows released because an endpoint died.
    pub displaced: u64,
    /// Transit flows successfully re-admitted on a detour.
    pub rerouted: u64,
    /// Flows released but not re-admittable right now (no surviving
    /// route, or admission rejected the detour).
    pub stranded: u64,
    /// Displaced flows re-admitted after their endpoint returned.
    pub restored: u64,
}

/// Gateway-side repair logic around a [`QosSession`].
pub struct RepairController {
    session: QosSession,
    /// Nodes currently believed dead.
    down: BTreeSet<NodeId>,
    /// Flows waiting for a dead endpoint (or a failed re-admission) to
    /// become admittable again.
    parked: Vec<FlowSpec>,
    totals: RepairOutcome,
}

impl RepairController {
    /// Wraps an admission session (typically with flows already
    /// admitted).
    pub fn new(session: QosSession) -> Self {
        Self {
            session,
            down: BTreeSet::new(),
            parked: Vec::new(),
            totals: RepairOutcome::default(),
        }
    }

    /// The wrapped session.
    pub fn session(&self) -> &QosSession {
        &self.session
    }

    /// Mutable access to the wrapped session (e.g. to admit the initial
    /// flow set).
    pub fn session_mut(&mut self) -> &mut QosSession {
        &mut self.session
    }

    /// Flows currently parked (displaced or stranded).
    pub fn parked(&self) -> &[FlowSpec] {
        &self.parked
    }

    /// Lifetime repair counters.
    pub fn totals(&self) -> RepairOutcome {
        self.totals
    }

    /// The per-link minislot demands implied by the session's currently
    /// admitted flows — what the distributed handshake should hold.
    pub fn desired_demands(&self) -> BTreeMap<LinkId, u32> {
        let mut out: BTreeMap<LinkId, u32> = BTreeMap::new();
        for flow in self.session.snapshot().admitted() {
            for &l in flow.path.links() {
                *out.entry(l).or_insert(0) += flow.slots_per_link;
            }
        }
        out
    }

    /// Reacts to a node death: releases endpoint flows, re-routes
    /// transit flows around the hole.
    ///
    /// # Errors
    ///
    /// Propagates session errors (admission *rejections* are not errors
    /// — a rejected detour parks the flow instead).
    pub fn on_node_down(
        &mut self,
        topo: &MeshTopology,
        dead: NodeId,
    ) -> Result<RepairOutcome, NodeError> {
        if !self.down.insert(dead) {
            return Ok(RepairOutcome::default());
        }
        let mut outcome = RepairOutcome::default();
        let affected: Vec<FlowSpec> = self
            .session
            .snapshot()
            .admitted()
            .iter()
            .filter(|f| f.path.nodes().contains(&dead))
            .map(|f| f.spec.clone())
            .collect();
        for spec in affected {
            self.session.release(spec.id)?;
            if spec.src == dead || spec.dst == dead {
                outcome.displaced += 1;
                self.parked.push(spec);
                continue;
            }
            // A transit flow: find a detour through the survivors.
            let Some(path) = self.detour(topo, spec.src, spec.dst) else {
                outcome.stranded += 1;
                self.parked.push(spec);
                continue;
            };
            if self.session.admit_via(&spec, path)?.is_admitted() {
                outcome.rerouted += 1;
            } else {
                outcome.stranded += 1;
                self.parked.push(spec);
            }
        }
        self.totals.displaced += outcome.displaced;
        self.totals.rerouted += outcome.rerouted;
        self.totals.stranded += outcome.stranded;
        wimesh_obs::counter_add("node.repair.rerouted", outcome.rerouted);
        Ok(outcome)
    }

    /// Reacts to a node's return: re-admits every parked flow that now
    /// has a surviving route.
    ///
    /// # Errors
    ///
    /// Propagates session errors.
    pub fn on_node_up(
        &mut self,
        topo: &MeshTopology,
        revived: NodeId,
    ) -> Result<RepairOutcome, NodeError> {
        self.down.remove(&revived);
        let mut outcome = RepairOutcome::default();
        let parked = std::mem::take(&mut self.parked);
        for spec in parked {
            if self.down.contains(&spec.src) || self.down.contains(&spec.dst) {
                self.parked.push(spec);
                continue;
            }
            let Some(path) = self.detour(topo, spec.src, spec.dst) else {
                self.parked.push(spec);
                continue;
            };
            if self.session.admit_via(&spec, path)?.is_admitted() {
                outcome.restored += 1;
            } else {
                self.parked.push(spec);
            }
        }
        self.totals.restored += outcome.restored;
        wimesh_obs::counter_add("node.repair.restored", outcome.restored);
        Ok(outcome)
    }

    /// Minimum-hop path from `from` to `to` avoiding every down node.
    fn detour(&self, topo: &MeshTopology, from: NodeId, to: NodeId) -> Option<Path> {
        shortest_path_through(topo, from, to, |n| !self.down.contains(&n)).ok()
    }
}

impl std::fmt::Debug for RepairController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RepairController")
            .field("down", &self.down)
            .field("parked", &self.parked.len())
            .field("totals", &self.totals)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimesh::sim::traffic::VoipCodec;
    use wimesh::{MeshQos, OrderPolicy};
    use wimesh_topology::generators;

    fn controller_on_grid() -> (MeshTopology, RepairController) {
        let topo = generators::grid(3, 3);
        let mesh = MeshQos::builder(topo.clone()).build().unwrap();
        let mut ctl = RepairController::new(mesh.session(OrderPolicy::HopOrder));
        // A flow crossing the grid: 8 -> 0 transits the middle.
        let spec = FlowSpec::voip(0, NodeId(8), NodeId(0), VoipCodec::G729);
        assert!(ctl.session_mut().admit(&spec).unwrap().is_admitted());
        (topo, ctl)
    }

    #[test]
    fn transit_failure_reroutes() {
        let (topo, mut ctl) = controller_on_grid();
        let before = ctl.desired_demands();
        let transited = ctl.session().snapshot().admitted()[0].path.nodes()[1];
        let out = ctl.on_node_down(&topo, transited).unwrap();
        assert_eq!(out.rerouted, 1);
        assert_eq!(out.displaced + out.stranded, 0);
        let after = ctl.desired_demands();
        assert_ne!(before, after, "demands must move off the dead node");
        let path = &ctl.session().snapshot().admitted()[0].path;
        assert!(!path.nodes().contains(&transited));
    }

    #[test]
    fn endpoint_failure_parks_then_restores() {
        let (topo, mut ctl) = controller_on_grid();
        let out = ctl.on_node_down(&topo, NodeId(8)).unwrap();
        assert_eq!(out.displaced, 1);
        assert_eq!(ctl.parked().len(), 1);
        assert!(ctl.desired_demands().is_empty());
        let back = ctl.on_node_up(&topo, NodeId(8)).unwrap();
        assert_eq!(back.restored, 1);
        assert!(ctl.parked().is_empty());
        assert!(!ctl.desired_demands().is_empty());
    }

    #[test]
    fn duplicate_death_reports_are_idempotent() {
        let (topo, mut ctl) = controller_on_grid();
        let transited = ctl.session().snapshot().admitted()[0].path.nodes()[1];
        ctl.on_node_down(&topo, transited).unwrap();
        let second = ctl.on_node_down(&topo, transited).unwrap();
        assert_eq!(second, RepairOutcome::default());
    }

    #[test]
    fn detour_avoids_all_down_nodes() {
        // An edge-centre flow (3 -> 5) has three-neighbour endpoints
        // and detours on both rims; losing a transit node twice must
        // still re-route.
        let topo = generators::grid(3, 3);
        let mesh = MeshQos::builder(topo.clone()).build().unwrap();
        let mut ctl = RepairController::new(mesh.session(OrderPolicy::HopOrder));
        let spec = FlowSpec::voip(0, NodeId(3), NodeId(5), VoipCodec::G729);
        assert!(ctl.session_mut().admit(&spec).unwrap().is_admitted());

        let path1 = ctl.session().snapshot().admitted()[0].path.clone();
        ctl.on_node_down(&topo, path1.nodes()[1]).unwrap();
        let path2 = ctl.session().snapshot().admitted()[0].path.clone();
        ctl.on_node_down(&topo, path2.nodes()[1]).unwrap();
        assert_eq!(ctl.totals().rerouted, 2);
        let final_path = &ctl.session().snapshot().admitted()[0].path;
        assert!(!final_path.nodes().contains(&path1.nodes()[1]));
        assert!(!final_path.nodes().contains(&path2.nodes()[1]));
    }

    #[test]
    fn unroutable_transit_flow_is_stranded_not_lost() {
        // Node 8's only neighbours are 5 and 7; killing both strands
        // the 8 -> 0 flow (parked, not dropped, not an error).
        let (topo, mut ctl) = controller_on_grid();
        ctl.on_node_down(&topo, NodeId(5)).unwrap();
        ctl.on_node_down(&topo, NodeId(7)).unwrap();
        assert!(ctl.session().snapshot().admitted().is_empty());
        assert_eq!(ctl.parked().len(), 1);
        assert_eq!(ctl.totals().rerouted + ctl.totals().stranded, 2);
    }
}
