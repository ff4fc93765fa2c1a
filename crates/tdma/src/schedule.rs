//! Conflict-free TDMA schedules and their construction from transmission
//! orders: a topological longest-path sweep, with Bellman–Ford kept for
//! the positive-cycle certificate of a contradictory order.

use std::collections::BTreeMap;

use wimesh_conflict::ConflictGraph;
use wimesh_topology::LinkId;

use crate::{Demands, FrameConfig, ScheduleError, SlotRange, TransmissionOrder};

/// A conflict-free assignment of slot ranges to links within a TDMA frame.
///
/// Produced by [`schedule_from_order`] or by the exact optimizer in
/// [`crate::milp`]. Immutable once built; [`Schedule::validate`] re-checks
/// conflict-freeness against any conflict graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    frame: FrameConfig,
    /// Strictly ascending by link.
    ranges: Vec<(LinkId, SlotRange)>,
}

impl Schedule {
    /// Builds a schedule from explicit ranges, strictly ascending by link,
    /// without checking conflicts.
    ///
    /// Prefer [`schedule_from_order`]; this constructor exists for the
    /// solvers and for restoring a recorded layout.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::RangesNotAscending`] if a link is listed twice or
    /// out of order; [`ScheduleError::FrameTooShort`] if any range exceeds
    /// the frame.
    pub fn from_sorted(
        frame: FrameConfig,
        ranges: Vec<(LinkId, SlotRange)>,
    ) -> Result<Self, ScheduleError> {
        if let Some(w) = ranges.windows(2).find(|w| w[0].0 >= w[1].0) {
            return Err(ScheduleError::RangesNotAscending(w[0].0, w[1].0));
        }
        if let Some((_, range)) = ranges.iter().find(|(_, r)| !r.fits(frame.slots())) {
            return Err(ScheduleError::FrameTooShort {
                needed: range.start.saturating_add(range.len),
                available: frame.slots(),
            });
        }
        Ok(Self { frame, ranges })
    }

    /// [`Schedule::from_sorted`] over a map, ascending by construction.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::FrameTooShort`] if any range exceeds the frame.
    pub fn from_ranges(
        frame: FrameConfig,
        ranges: BTreeMap<LinkId, SlotRange>,
    ) -> Result<Self, ScheduleError> {
        Self::from_sorted(frame, ranges.into_iter().collect())
    }

    /// The frame this schedule is laid out in.
    pub fn frame(&self) -> FrameConfig {
        self.frame
    }

    /// The slot range assigned to `link`, if any.
    pub fn slot_range(&self, link: LinkId) -> Option<SlotRange> {
        let at = self.ranges.binary_search_by_key(&link, |&(l, _)| l).ok()?;
        Some(self.ranges[at].1)
    }

    /// Scheduled links in ascending id order.
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.ranges.iter().map(|&(l, _)| l)
    }

    /// `(link, range)` pairs in ascending link order.
    pub fn iter(&self) -> impl Iterator<Item = (LinkId, SlotRange)> + '_ {
        self.ranges.iter().copied()
    }

    /// Number of scheduled links.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Last occupied slot boundary: the minimum frame length this layout
    /// needs.
    pub fn makespan(&self) -> u32 {
        // Every range fits the frame (checked at construction), so its
        // end is a `u32`.
        let end = |r: &SlotRange| r.start + r.len;
        self.ranges.iter().map(|(_, r)| end(r)).max().unwrap_or(0)
    }

    /// Total scheduled slots (sum of range lengths).
    pub fn busy_slots(&self) -> u64 {
        self.ranges.iter().map(|(_, r)| u64::from(r.len)).sum()
    }

    /// Fraction of the frame's slots that are assigned, counting spatial
    /// reuse (can exceed 1.0 when non-conflicting links share slots).
    pub fn utilization(&self) -> f64 {
        self.busy_slots() as f64 / self.frame.slots() as f64
    }

    /// Checks conflict-freeness against `graph`: no two conflicting links
    /// may overlap in slots.
    ///
    /// # Errors
    ///
    /// Returns the first overlapping conflicting pair.
    pub fn validate(&self, graph: &ConflictGraph) -> Result<(), (LinkId, LinkId)> {
        for (i, &(la, ra)) in self.ranges.iter().enumerate() {
            for &(lb, rb) in &self.ranges[i + 1..] {
                if ra.overlaps(&rb) && graph.are_in_conflict(la, lb) {
                    return Err((la, lb));
                }
            }
        }
        Ok(())
    }
}

/// Internal result of the longest-path pass.
struct StartTimes {
    /// Dense conflict-graph index of each demanded link, in
    /// [`Demands::iter`] order.
    vertices: Vec<usize>,
    /// Earliest start per conflict-graph dense index (only entries with
    /// demand are meaningful).
    sigma: Vec<i64>,
    /// Makespan: max over links of `sigma + demand`.
    makespan: i64,
}

/// Earliest start times under the order-induced difference constraints.
///
/// Constraint per conflict edge `{i, j}` with `i` before `j`:
/// `sigma_j >= sigma_i + d_i`. Longest paths from an implicit source with
/// `sigma >= 0` give the earliest (most compact) feasible start times. A
/// consistent order makes the constraint graph a DAG, so one topological
/// sweep computes them; only when the sweep gets stuck on a cycle does
/// Bellman–Ford run, to certify the contradiction.
fn earliest_starts(
    graph: &ConflictGraph,
    demands: &Demands,
    order: &TransmissionOrder,
) -> Result<StartTimes, ScheduleError> {
    let n = graph.vertex_count();
    let mut demand = vec![0i64; n];
    let mut vertices = Vec::with_capacity(demands.len());
    for (link, d) in demands.iter() {
        let i = graph
            .index_of(link)
            .ok_or(ScheduleError::LinkNotInGraph(link))?;
        demand[i] = d as i64;
        vertices.push(i);
    }

    // Directed constraint edges (from, to, weight).
    let mut edges = Vec::with_capacity(graph.edge_count());
    for ((i, j), bit) in order.edge_bits(graph) {
        if demand[i] == 0 || demand[j] == 0 {
            continue;
        }
        let before = bit.ok_or_else(|| {
            ScheduleError::SolverFailed(format!(
                "order missing for conflicting links {} and {}",
                graph.link_at(i),
                graph.link_at(j)
            ))
        })?;
        if before {
            edges.push((i, j, demand[i]));
        } else {
            edges.push((j, i, demand[j]));
        }
    }

    let sigma = match topological_starts(n, &edges) {
        Some(sigma) => sigma,
        None => bellman_ford_starts(graph, &edges)?,
    };
    let makespan = (0..n).map(|i| sigma[i] + demand[i]).max().unwrap_or(0);
    Ok(StartTimes {
        vertices,
        sigma,
        makespan,
    })
}

/// Longest paths by one Kahn sweep over the constraint graph: `O(V + E)`.
/// `None` when a cycle keeps the sweep from consuming every vertex.
fn topological_starts(n: usize, edges: &[(usize, usize, i64)]) -> Option<Vec<i64>> {
    wimesh_obs::counter_inc("tdma.topo.passes");
    // Out-edges in CSR form: `succ[first[u]..first[u + 1]]`.
    let mut first = vec![0usize; n + 1];
    let mut pending = vec![0usize; n];
    for &(u, v, _) in edges {
        first[u + 1] += 1;
        pending[v] += 1;
    }
    for u in 0..n {
        first[u + 1] += first[u];
    }
    let mut fill = first.clone();
    let mut succ = vec![(0usize, 0i64); edges.len()];
    for &(u, v, w) in edges {
        succ[fill[u]] = (v, w);
        fill[u] += 1;
    }

    let mut sigma = vec![0i64; n];
    let mut ready: Vec<usize> = (0..n).filter(|&v| pending[v] == 0).collect();
    let mut consumed = 0;
    while let Some(u) = ready.pop() {
        consumed += 1;
        for &(v, w) in &succ[first[u]..first[u + 1]] {
            sigma[v] = sigma[v].max(sigma[u] + w);
            pending[v] -= 1;
            if pending[v] == 0 {
                ready.push(v);
            }
        }
    }
    (consumed == n).then_some(sigma)
}

/// Bellman–Ford over the same constraints, run when the topological sweep
/// found the order contradictory: the positive cycle it relaxes forever is
/// the [`ScheduleError::OrderCycle`] certificate.
fn bellman_ford_starts(
    graph: &ConflictGraph,
    edges: &[(usize, usize, i64)],
) -> Result<Vec<i64>, ScheduleError> {
    let n = graph.vertex_count();
    let mut sigma = vec![0i64; n];
    let mut pred: Vec<Option<usize>> = vec![None; n];
    let mut changed_vertex = None;
    let mut rounds = 0u64;
    for round in 0..=n {
        rounds += 1;
        let mut changed = None;
        for &(u, v, w) in edges {
            if sigma[u] + w > sigma[v] {
                sigma[v] = sigma[u] + w;
                pred[v] = Some(u);
                changed = Some(v);
            }
        }
        match changed {
            None => {
                changed_vertex = None;
                break;
            }
            Some(v) if round == n => changed_vertex = Some(v),
            Some(_) => {}
        }
    }
    wimesh_obs::counter_add("tdma.bf.relaxation_rounds", rounds);
    let Some(start) = changed_vertex else {
        return Ok(sigma);
    };
    // Walk predecessors n times to land on the cycle, then collect it.
    let mut v = start;
    #[expect(
        clippy::expect_used,
        reason = "a vertex relaxed in round n has a predecessor by construction"
    )]
    for _ in 0..n {
        v = pred[v].expect("relaxed vertices have predecessors");
    }
    let mut cycle = vec![v];
    #[expect(
        clippy::expect_used,
        reason = "v was reached by a predecessor walk, so pred[v] is set"
    )]
    let mut cur = pred[v].expect("on cycle");
    #[expect(
        clippy::expect_used,
        reason = "every vertex of the positive cycle has a predecessor on it"
    )]
    while cur != v {
        cycle.push(cur);
        cur = pred[cur].expect("on cycle");
    }
    cycle.reverse();
    wimesh_obs::counter_inc("tdma.bf.cycles_detected");
    Err(ScheduleError::OrderCycle {
        cycle: cycle.into_iter().map(|i| graph.link_at(i)).collect(),
    })
}

/// Minimum frame length (in minislots) that `order` needs to schedule
/// `demands` — the makespan of the longest constraint path.
///
/// # Errors
///
/// * [`ScheduleError::OrderCycle`] for contradictory orders.
/// * [`ScheduleError::LinkNotInGraph`] if a demanded link has no vertex.
/// * [`ScheduleError::SolverFailed`] if the order leaves a conflicting
///   pair undecided.
pub fn min_slots_for_order(
    graph: &ConflictGraph,
    demands: &Demands,
    order: &TransmissionOrder,
) -> Result<u32, ScheduleError> {
    let starts = earliest_starts(graph, demands, order)?;
    Ok(starts.makespan as u32)
}

/// Builds the compact conflict-free schedule realising `order` in `frame`.
///
/// Start times are the earliest feasible ones (longest constraint
/// paths), so the schedule occupies slots `[0, makespan)`.
///
/// # Errors
///
/// * [`ScheduleError::OrderCycle`] for contradictory orders.
/// * [`ScheduleError::FrameTooShort`] if the makespan exceeds the frame.
/// * [`ScheduleError::LinkNotInGraph`] if a demanded link has no vertex.
/// * [`ScheduleError::SolverFailed`] if the order leaves a conflicting
///   pair undecided.
pub fn schedule_from_order(
    graph: &ConflictGraph,
    demands: &Demands,
    order: &TransmissionOrder,
    frame: FrameConfig,
) -> Result<Schedule, ScheduleError> {
    let _span = wimesh_obs::span!("tdma.schedule.build");
    let starts = earliest_starts(graph, demands, order)?;
    if starts.makespan > frame.slots() as i64 {
        return Err(ScheduleError::FrameTooShort {
            needed: u32::try_from(starts.makespan).unwrap_or(u32::MAX),
            available: frame.slots(),
        });
    }
    let ranges = demands
        .iter()
        .zip(&starts.vertices)
        .map(|((link, d), &i)| (link, SlotRange::new(starts.sigma[i] as u32, d)))
        .collect();
    Schedule::from_sorted(frame, ranges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::{hop_order, random_order};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wimesh_conflict::InterferenceModel;
    use wimesh_topology::routing::shortest_path;
    use wimesh_topology::{generators, MeshTopology, NodeId};

    fn chain_setup(n: usize, per_link: u32) -> (MeshTopology, ConflictGraph, Demands) {
        let topo = generators::chain(n);
        let path = shortest_path(&topo, NodeId(0), NodeId((n - 1) as u32)).unwrap();
        let mut demands = Demands::new();
        for &l in path.links() {
            demands.set(l, per_link);
        }
        let cg = ConflictGraph::build_for_links(
            &topo,
            demands.links().collect(),
            InterferenceModel::protocol_default(),
        );
        (topo, cg, demands)
    }

    #[test]
    fn chain_hop_order_is_compact_and_valid() {
        let (topo, cg, demands) = chain_setup(5, 2);
        let path = shortest_path(&topo, NodeId(0), NodeId(4)).unwrap();
        let order = hop_order(&cg, std::slice::from_ref(&path));
        let frame = FrameConfig::new(32, 100);
        let sched = schedule_from_order(&cg, &demands, &order, frame).unwrap();
        assert!(sched.validate(&cg).is_ok());
        // On a 4-link chain where every pair within 2 hops conflicts, the
        // hop order packs links back to back: makespan = 4 * 2 = 8.
        assert_eq!(sched.makespan(), 8);
        assert_eq!(sched.busy_slots(), 8);
        assert_eq!(
            min_slots_for_order(&cg, &demands, &order).unwrap(),
            sched.makespan()
        );
    }

    #[test]
    fn frame_too_short_reported_with_makespan() {
        let (topo, cg, demands) = chain_setup(5, 2);
        let path = shortest_path(&topo, NodeId(0), NodeId(4)).unwrap();
        let order = hop_order(&cg, std::slice::from_ref(&path));
        let err = schedule_from_order(&cg, &demands, &order, FrameConfig::new(7, 100)).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::FrameTooShort {
                needed: 8,
                available: 7
            }
        );
    }

    #[test]
    fn order_cycle_detected() {
        // Triangle of mutually conflicting links with a rock-paper-scissors
        // order.
        let topo = generators::star(3);
        let l10 = topo.link_between(NodeId(1), NodeId(0)).unwrap();
        let l20 = topo.link_between(NodeId(2), NodeId(0)).unwrap();
        let l30 = topo.link_between(NodeId(3), NodeId(0)).unwrap();
        let cg = ConflictGraph::build_for_links(
            &topo,
            vec![l10, l20, l30],
            InterferenceModel::protocol_default(),
        );
        let mut demands = Demands::new();
        for l in [l10, l20, l30] {
            demands.set(l, 1);
        }
        let (i, j, k) = (
            cg.index_of(l10).unwrap(),
            cg.index_of(l20).unwrap(),
            cg.index_of(l30).unwrap(),
        );
        let mut order = TransmissionOrder::new();
        order.set(i, j, true);
        order.set(j, k, true);
        order.set(k, i, true);
        let err =
            schedule_from_order(&cg, &demands, &order, FrameConfig::new(16, 100)).unwrap_err();
        match err {
            ScheduleError::OrderCycle { cycle } => {
                assert_eq!(cycle.len(), 3);
            }
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn random_orders_always_validate() {
        let (_, cg, demands) = chain_setup(6, 1);
        let frame = FrameConfig::new(64, 100);
        for seed in 0..20 {
            let order = random_order(&cg, &mut StdRng::seed_from_u64(seed));
            let sched = schedule_from_order(&cg, &demands, &order, frame).unwrap();
            assert!(sched.validate(&cg).is_ok(), "seed {seed}");
            assert!(sched.makespan() <= demands.total() as u32);
        }
    }

    #[test]
    fn spatial_reuse_on_long_chain() {
        // On a 7-node chain with 1-hop interference, links 0->1 and 4->5
        // can share a slot: makespan < total demand.
        let (topo, cg, demands) = chain_setup(7, 1);
        let path = shortest_path(&topo, NodeId(0), NodeId(6)).unwrap();
        let order = hop_order(&cg, std::slice::from_ref(&path));
        let sched = schedule_from_order(&cg, &demands, &order, FrameConfig::new(16, 100)).unwrap();
        assert!(sched.validate(&cg).is_ok());
        assert!(
            sched.makespan() as u64 <= demands.total(),
            "hop order never exceeds serial schedule"
        );
        assert!(sched.utilization() > 0.0);
    }

    #[test]
    fn unknown_demand_link_rejected() {
        let (_, cg, mut demands) = chain_setup(4, 1);
        demands.set(LinkId(999), 1);
        let order = TransmissionOrder::new();
        let err = schedule_from_order(&cg, &demands, &order, FrameConfig::new(8, 100)).unwrap_err();
        assert_eq!(err, ScheduleError::LinkNotInGraph(LinkId(999)));
    }

    #[test]
    fn undecided_pair_rejected() {
        let (_, cg, demands) = chain_setup(4, 1);
        let order = TransmissionOrder::new(); // nothing decided
        let err = schedule_from_order(&cg, &demands, &order, FrameConfig::new(8, 100)).unwrap_err();
        assert!(matches!(err, ScheduleError::SolverFailed(_)));
    }

    #[test]
    fn zero_demand_links_unscheduled() {
        let (topo, _, _) = chain_setup(4, 1);
        // Conflict graph over all links, demand on just one.
        let cg = ConflictGraph::build(&topo, InterferenceModel::protocol_default());
        let l01 = topo.link_between(NodeId(0), NodeId(1)).unwrap();
        let mut demands = Demands::new();
        demands.set(l01, 3);
        let order = TransmissionOrder::new(); // no scheduled pair exists
        let sched = schedule_from_order(&cg, &demands, &order, FrameConfig::new(8, 100)).unwrap();
        assert_eq!(sched.len(), 1);
        assert_eq!(sched.slot_range(l01), Some(SlotRange::new(0, 3)));
    }

    #[test]
    fn empty_demands_empty_schedule() {
        let (_, cg, _) = chain_setup(4, 1);
        let sched = schedule_from_order(
            &cg,
            &Demands::new(),
            &TransmissionOrder::new(),
            FrameConfig::new(8, 100),
        )
        .unwrap();
        assert!(sched.is_empty());
        assert_eq!(sched.makespan(), 0);
        assert_eq!(sched.utilization(), 0.0);
    }

    #[test]
    fn from_ranges_rejects_overflow() {
        let mut ranges = BTreeMap::new();
        ranges.insert(LinkId(0), SlotRange::new(6, 4));
        let err = Schedule::from_ranges(FrameConfig::new(8, 100), ranges).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::FrameTooShort {
                needed: 10,
                available: 8
            }
        );
    }

    #[test]
    fn from_sorted_rejects_a_range_ending_past_u32_max() {
        // u32::MAX - 1 + 4 wraps to 2 in `u32`, which would "fit".
        let ranges = vec![(LinkId(0), SlotRange::new(u32::MAX - 1, 4))];
        let err = Schedule::from_sorted(FrameConfig::new(64, 100), ranges).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::FrameTooShort {
                needed: u32::MAX,
                available: 64
            }
        );
    }

    #[test]
    fn validate_catches_conflicting_overlap() {
        let (topo, cg, _) = chain_setup(3, 1);
        let l01 = topo.link_between(NodeId(0), NodeId(1)).unwrap();
        let l12 = topo.link_between(NodeId(1), NodeId(2)).unwrap();
        let mut ranges = BTreeMap::new();
        ranges.insert(l01, SlotRange::new(0, 2));
        ranges.insert(l12, SlotRange::new(1, 2));
        let sched = Schedule::from_ranges(FrameConfig::new(8, 100), ranges).unwrap();
        let (a, b) = sched.validate(&cg).unwrap_err();
        assert!(
            (a, b) == (l01, l12) || (a, b) == (l12, l01),
            "unexpected pair {a} {b}"
        );
    }
}
