//! Best-effort service: filling the minislots the guaranteed region left
//! over.
//!
//! Admission can reserve best-effort flows like guaranteed ones (bandwidth
//! without a deadline), but the cheaper 802.16-style alternative is to
//! leave them out of the reservation entirely and hand them whatever
//! minislots remain: [`fill_best_effort`] extends a guaranteed
//! [`Schedule`] with first-fit grants for best-effort links, shrinking
//! grants when a link's conflict neighbourhood is too busy and denying
//! them when nothing is free. Guaranteed reservations are never moved or
//! shrunk — best effort is strictly subordinate.

use std::collections::BTreeMap;

use wimesh_conflict::{ConflictGraph, InterferenceModel};
use wimesh_tdma::{Demands, Schedule, SlotRange};
use wimesh_topology::{LinkId, MeshTopology};

use crate::QosError;

/// Result of a best-effort fill.
#[derive(Debug, Clone)]
pub struct BestEffortAllocation {
    /// The combined schedule: guaranteed reservations plus best-effort
    /// grants.
    pub schedule: Schedule,
    /// The best-effort grants only (possibly shrunk below demand).
    pub granted: BTreeMap<LinkId, SlotRange>,
    /// Best-effort links whose conflict neighbourhood left no free slot.
    pub denied: Vec<LinkId>,
}

impl BestEffortAllocation {
    /// Total best-effort minislots granted.
    pub fn granted_slots(&self) -> u64 {
        self.granted.values().map(|r| r.len as u64).sum()
    }
}

/// Grants best-effort demands from the slots `guaranteed` left free.
///
/// Links are served in descending-demand order (ties by id), each getting
/// the first free run in its conflict neighbourhood, clipped to its
/// demand. A link already present in the guaranteed schedule cannot
/// receive a second grant and is reported as denied.
///
/// # Example
///
/// ```
/// use wimesh::best_effort::fill_best_effort;
/// use wimesh::tdma::Demands;
/// use wimesh::{FlowSpec, MeshQos, OrderPolicy};
/// use wimesh_sim::traffic::VoipCodec;
/// use wimesh_topology::generators;
///
/// let mesh = MeshQos::builder(generators::chain(3)).build()?;
/// let voip = vec![FlowSpec::voip(0, 2.into(), 0.into(), VoipCodec::G729)];
/// let outcome = mesh.admit(&voip, OrderPolicy::HopOrder)?;
///
/// // Bulk download on the reverse direction rides the leftover slots.
/// let mut be = Demands::new();
/// be.set(mesh.topology().link_between(0.into(), 1.into()).unwrap(), 4);
/// let alloc = fill_best_effort(mesh.topology(), mesh.interference(), &outcome.schedule, &be)?;
/// assert_eq!(alloc.granted_slots(), 4);
/// # Ok::<(), wimesh::QosError>(())
/// ```
///
/// # Errors
///
/// [`QosError::Schedule`] if a best-effort link is not in the topology.
pub fn fill_best_effort(
    topo: &MeshTopology,
    interference: InterferenceModel,
    guaranteed: &Schedule,
    be_demands: &Demands,
) -> Result<BestEffortAllocation, QosError> {
    for link in be_demands.links() {
        if topo.link(link).is_none() {
            return Err(QosError::Schedule(
                wimesh_tdma::ScheduleError::LinkNotInGraph(link),
            ));
        }
    }
    // Conflict graph over everything that will hold slots.
    let mut all_links: Vec<LinkId> = guaranteed.links().collect();
    for l in be_demands.links() {
        if !all_links.contains(&l) {
            all_links.push(l);
        }
    }
    let graph = ConflictGraph::build_for_links(topo, all_links, interference);
    let slots = guaranteed.frame().slots();

    // Descending demand, ties by id, so big transfers grab contiguous
    // space before fragmentation sets in.
    let mut order: Vec<(LinkId, u32)> = be_demands.iter().collect();
    order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut placed: BTreeMap<LinkId, SlotRange> = guaranteed.iter().collect();
    let mut granted = BTreeMap::new();
    let mut denied = Vec::new();
    for (link, demand) in order {
        if placed.contains_key(&link) {
            denied.push(link);
            continue;
        }
        let busy: Vec<SlotRange> = placed
            .iter()
            .filter(|(&other, _)| graph.are_in_conflict(link, other))
            .map(|(_, &r)| r)
            .collect();
        match first_free_run(&busy, slots, demand) {
            Some(range) => {
                placed.insert(link, range);
                granted.insert(link, range);
            }
            None => denied.push(link),
        }
    }

    let schedule = Schedule::from_ranges(guaranteed.frame(), placed)?;
    Ok(BestEffortAllocation {
        schedule,
        granted,
        denied,
    })
}

/// First free run among `busy` ranges within `slots`, clipped to
/// `max_len`. Returns `None` when no slot is free or `max_len == 0`.
fn first_free_run(busy: &[SlotRange], slots: u32, max_len: u32) -> Option<SlotRange> {
    if max_len == 0 {
        return None;
    }
    let mut edges: Vec<(u32, u32)> = busy.iter().map(|r| (r.start, r.end())).collect();
    edges.sort_unstable();
    let mut cursor = 0u32;
    for (start, end) in edges {
        if start > cursor {
            let len = (start - cursor).min(max_len);
            return Some(SlotRange::new(cursor, len));
        }
        cursor = cursor.max(end);
    }
    if cursor < slots {
        let len = (slots - cursor).min(max_len);
        Some(SlotRange::new(cursor, len))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowSpec, MeshQos, OrderPolicy};
    use wimesh_sim::traffic::VoipCodec;
    use wimesh_topology::{generators, NodeId};

    fn setup() -> (MeshQos, Schedule) {
        let topo = generators::chain(5);
        let mesh = MeshQos::builder(topo).build().unwrap();
        let flows = vec![
            FlowSpec::voip(0, NodeId(4), NodeId(0), VoipCodec::G711),
            FlowSpec::voip(1, NodeId(3), NodeId(0), VoipCodec::G711),
        ];
        let outcome = mesh.admit(&flows, OrderPolicy::HopOrder).unwrap();
        (mesh, outcome.schedule)
    }

    #[test]
    fn fills_leftover_without_touching_guarantees() {
        let (mesh, guaranteed) = setup();
        // Best-effort downlink on the reverse direction.
        let mut be = Demands::new();
        let topo = mesh.topology();
        be.set(topo.link_between(NodeId(0), NodeId(1)).unwrap(), 6);
        be.set(topo.link_between(NodeId(1), NodeId(2)).unwrap(), 6);

        let alloc = fill_best_effort(topo, mesh.interference(), &guaranteed, &be).unwrap();
        // Guaranteed ranges unchanged.
        for (l, r) in guaranteed.iter() {
            assert_eq!(alloc.schedule.slot_range(l), Some(r));
        }
        // Combined schedule is conflict-free.
        let all: Vec<LinkId> = alloc.schedule.links().collect();
        let graph = ConflictGraph::build_for_links(topo, all, mesh.interference());
        assert!(alloc.schedule.validate(&graph).is_ok());
        assert!(alloc.granted_slots() > 0);
        assert!(alloc.denied.is_empty());
    }

    #[test]
    fn grants_shrink_under_pressure() {
        let (mesh, guaranteed) = setup();
        let topo = mesh.topology();
        let free = guaranteed.frame().slots() - guaranteed.makespan();
        // Ask for far more than the leftover on a (reverse-direction)
        // link conflicting with everything in the middle of the chain.
        let mut be = Demands::new();
        let mid = topo.link_between(NodeId(1), NodeId(2)).unwrap();
        be.set(mid, free * 3);
        let alloc = fill_best_effort(topo, mesh.interference(), &guaranteed, &be).unwrap();
        let got = alloc.granted.get(&mid).copied();
        assert!(got.is_some(), "some leftover must exist");
        assert!(got.unwrap().len <= free * 3);
    }

    #[test]
    fn denies_when_neighborhood_full() {
        // Fill the whole frame with a fat guaranteed reservation, then ask
        // for best effort on a conflicting link.
        let topo = generators::chain(3);
        let mesh = MeshQos::builder(topo).build().unwrap();
        let flows = vec![FlowSpec::guaranteed(
            0,
            NodeId(2),
            NodeId(0),
            3_800_000.0,
            std::time::Duration::from_millis(200),
        )];
        let outcome = mesh.admit(&flows, OrderPolicy::HopOrder).unwrap();
        assert_eq!(outcome.admitted.len(), 1);
        assert_eq!(outcome.best_effort_slots(), 0, "frame must be full");

        let topo = mesh.topology();
        let mut be = Demands::new();
        be.set(topo.link_between(NodeId(0), NodeId(1)).unwrap(), 2);
        let alloc = fill_best_effort(topo, mesh.interference(), &outcome.schedule, &be).unwrap();
        assert!(alloc.granted.is_empty());
        assert_eq!(alloc.denied.len(), 1);
    }

    #[test]
    fn guaranteed_link_cannot_double_dip() {
        let (mesh, guaranteed) = setup();
        let topo = mesh.topology();
        let reserved = guaranteed.links().next().unwrap();
        let mut be = Demands::new();
        be.set(reserved, 2);
        let alloc = fill_best_effort(topo, mesh.interference(), &guaranteed, &be).unwrap();
        assert_eq!(alloc.denied, vec![reserved]);
    }

    #[test]
    fn unknown_link_rejected() {
        let (mesh, guaranteed) = setup();
        let mut be = Demands::new();
        be.set(LinkId(999), 1);
        assert!(matches!(
            fill_best_effort(mesh.topology(), mesh.interference(), &guaranteed, &be),
            Err(QosError::Schedule(_))
        ));
    }

    #[test]
    fn first_free_run_edges() {
        assert_eq!(first_free_run(&[], 8, 3), Some(SlotRange::new(0, 3)));
        assert_eq!(first_free_run(&[], 8, 0), None);
        let busy = vec![SlotRange::new(0, 4), SlotRange::new(6, 2)];
        assert_eq!(first_free_run(&busy, 8, 5), Some(SlotRange::new(4, 2)));
        let full = vec![SlotRange::new(0, 8)];
        assert_eq!(first_free_run(&full, 8, 2), None);
    }
}
