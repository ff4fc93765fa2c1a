//! Admission control: the vocabulary and building blocks of the minislot
//! search over a scheduling feasibility oracle.
//!
//! Guaranteed flows are admitted sequentially. For each candidate the
//! controller:
//!
//! 1. routes it (minimum-hop path),
//! 2. maps its reserved rate to a per-link minislot demand through the
//!    emulation capacity model,
//! 3. converts its wall-clock deadline into a pipeline-delay budget in
//!    minislots (subtracting the worst-case source wait of one mesh frame
//!    and the control subframes the packet can straddle), and
//! 4. asks the scheduling oracle whether *all* accepted flows plus the
//!    candidate fit: for the heuristic order policies the oracle is
//!    one longest-path schedule construction plus a delay check; for
//!    [`OrderPolicy::ExactMilp`] it is a **search for the minimum number
//!    of minislots** whose feasibility test is the integer program of
//!    [`wimesh_tdma::milp`] — the optimization the companion paper
//!    describes.
//!
//! Minislots not claimed by the guaranteed region remain for best-effort
//! traffic.
//!
//! There is one engine, [`crate::QosSession`]: step 4 and the state it
//! runs on live in `session.rs`, and the batch API
//! ([`crate::MeshQos::admit`]) is a fresh session placing its flows in
//! order. This module holds what a decision is made of and reported in:
//! the policies, the verdict and outcome types, flow vetting, the
//! per-link demand formula and the greedy ranking.

use std::time::Duration;

use wimesh_conflict::ConflictGraph;
use wimesh_emu::EmulationModel;
use wimesh_tdma::{Demands, Schedule};
use wimesh_topology::routing::Path;
use wimesh_topology::{LinkId, NodeId};

use crate::{FlowSpec, QosError};

/// How transmission orders are chosen during admission.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum OrderPolicy {
    /// Greedy delay-aware heuristic: links ordered by hop position.
    HopOrder,
    /// Polynomial overlay-tree ordering toward a gateway (optimal for
    /// tree routing).
    TreeOrder {
        /// The tree root.
        gateway: NodeId,
    },
    /// Exact minimum-minislot search with the MILP feasibility oracle.
    ExactMilp,
    /// Approximation mode: candidates are ordered by `key` (cheapest
    /// first) and placed sequentially with the one-pass Bellman–Ford
    /// order revalidation, rejecting on conflict. Before any schedule
    /// attempt the clique lower bound prunes hopeless requests without
    /// touching a solver (counted as
    /// `admission.clique_prunes`). Never calls the MILP; acceptance is
    /// conservative (may reject flows the exact search would fit) but
    /// every accepted schedule is real and validated.
    GreedySequential {
        /// The candidate-ordering key.
        key: GreedyKey,
    },
    /// Approximation mode: solve the LP relaxation of the exact model
    /// with the simplex, round the order variables deterministically at
    /// 0.5, and greedily repair infeasibilities toward the hop-order
    /// heuristic. The LP optimum is a certified lower bound on the
    /// minimal guaranteed region, so every answer carries a true
    /// optimality-gap bound (`SessionStats::approx_gap`). Like the
    /// greedy mode, rejection is conservative and acceptance is exact
    /// (the realised schedule is validated).
    LpRounding,
}

/// The candidate-ordering key of [`OrderPolicy::GreedySequential`].
///
/// Candidates are placed cheapest-first — the knapsack-style greedy that
/// maximizes the number of accepted flows under a shared slot budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum GreedyKey {
    /// Bottleneck clique load: the total demand of the heaviest maximal
    /// clique any of the flow's links belongs to. Flows crossing
    /// lightly-contended airspace place first.
    CliqueLoad,
    /// Hop count: shortest routes place first (they reserve the fewest
    /// links).
    HopCount,
    /// Total minislot demand (`slots_per_link x hops`): smallest
    /// reservations place first.
    Demand,
}

/// Why a flow was not admitted.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RejectReason {
    /// No route between the flow's endpoints.
    NoRoute,
    /// The deadline is smaller than one mesh frame plus fixed overheads —
    /// no schedule could ever meet it.
    DeadlineTooTight,
    /// No conflict-free schedule meets all deadlines with this flow
    /// added.
    Infeasible,
    /// The MILP oracle gave up (limits); the flow is rejected
    /// conservatively.
    SolverLimit(String),
    /// A flow with this id is already admitted (or was accepted earlier
    /// in the same batch): a retried request must not reserve twice.
    /// Release the id first to change its reservation.
    DuplicateFlow,
    /// A request `wimesh-svc` cannot journal (a rate that is not finite and
    /// positive, a deadline past `u64::MAX` ns), answered alone; the
    /// engine itself reports a bad rate as [`crate::QosError::InvalidRate`].
    InvalidRequest(String),
}

/// An admitted flow with its reservation and delay bound.
#[derive(Debug, Clone)]
pub struct AdmittedFlow {
    /// The original request.
    pub spec: FlowSpec,
    /// The route the reservation follows.
    pub path: Path,
    /// Minislots reserved per frame on every link of the path.
    pub slots_per_link: u32,
    /// Hard worst-case end-to-end delay under the final schedule
    /// (source wait + pipeline + control subframes).
    pub worst_case_delay: Duration,
}

/// The result of an admission run.
#[derive(Debug, Clone)]
pub struct AdmissionOutcome {
    /// Flows admitted, with reservations.
    pub admitted: Vec<AdmittedFlow>,
    /// Flows rejected, with reasons. A batch outcome
    /// ([`crate::MeshQos::admit`]) lists every reject of the batch in
    /// input order; [`crate::QosSession::snapshot`] is a log in decision
    /// order, capped at [`crate::QosSession::REJECT_LOG_CAP`] entries.
    pub rejected: Vec<(FlowSpec, RejectReason)>,
    /// The final conflict-free schedule for all admitted flows.
    pub schedule: Schedule,
    /// Minislots consumed by the guaranteed region (the makespan).
    pub guaranteed_slots: u32,
}

impl AdmissionOutcome {
    /// The admitted flows, with reservations and delay bounds.
    pub fn admitted(&self) -> &[AdmittedFlow] {
        &self.admitted
    }

    /// The rejected flows with their reasons (see the field for the
    /// order).
    pub fn rejected(&self) -> &[(FlowSpec, RejectReason)] {
        &self.rejected
    }

    /// Total minislots per data subframe under this outcome's frame
    /// configuration.
    pub fn frame_slots(&self) -> u32 {
        self.schedule.frame().slots()
    }

    /// Minislots per frame left for best-effort traffic.
    ///
    /// `guaranteed_slots` is the makespan of a schedule that was checked
    /// against the frame (the heuristic path rejects `used >
    /// frame.slots()` as `FrameTooShort`; the exact search never probes
    /// beyond `frame.slots()`), so the subtraction cannot underflow.
    pub fn best_effort_slots(&self) -> u32 {
        self.schedule.frame().slots() - self.guaranteed_slots
    }
}

/// Internal working state: a vetted flow with its route and per-link
/// reservation, before the schedule attempt.
#[derive(Debug, Clone)]
pub(crate) struct Accepted {
    pub(crate) spec: FlowSpec,
    pub(crate) path: Path,
    pub(crate) slots_per_link: u32,
}

/// Vets one flow before any schedule attempt: rate validity (an error),
/// route presence and endpoints, deadline headroom, and the per-link
/// reservation size.
pub(crate) fn vet_flow(
    model: &EmulationModel,
    link_payloads: &[u32],
    loss_provisioning: f64,
    spec: &FlowSpec,
    maybe_path: Option<&Path>,
) -> Result<Result<Accepted, RejectReason>, QosError> {
    let frame = model.frame();
    let mesh_frame = model.mesh_frame();
    let ctrl = mesh_frame.ctrl_duration();
    let slot = Duration::from_micros(frame.slot_duration_us());

    // Negated so that NaN fails too.
    if !(spec.rate_bps > 0.0 && spec.rate_bps.is_finite()) {
        return Err(QosError::InvalidRate { flow: spec.id.0 });
    }
    let path = match maybe_path {
        // Routes must actually start and end at the flow's endpoints.
        Some(p) if p.source() == spec.src && p.destination() == spec.dst => p.clone(),
        _ => return Ok(Err(RejectReason::NoRoute)),
    };
    // Deadline budget in pipeline minislots.
    if let Some(deadline) = spec.deadline {
        if pipeline_budget_slots(deadline, &path, mesh_frame.frame_duration(), ctrl, slot).is_none()
        {
            return Ok(Err(RejectReason::DeadlineTooTight));
        }
    }
    // Under rate adaptation the reservation differs per link; report
    // the largest one along the path. Loss provisioning scales the
    // *slot count* by the expected retransmission factor — a failed
    // minislot needs a spare minislot, not spare bytes.
    let slots_per_link = path
        .links()
        .iter()
        .map(|&l| {
            link_demand(
                model,
                link_payloads[l.index()],
                loss_provisioning,
                spec.rate_bps,
                spec.burst_bytes as u64,
            )
        })
        .max()
        .unwrap_or(1);
    Ok(Ok(Accepted {
        spec: spec.clone(),
        path,
        slots_per_link,
    }))
}

/// Pipeline-delay budget in minislots for `deadline`, or `None` when the
/// fixed overheads alone exceed it.
///
/// `deadline >= mesh_frame (source wait) + pipeline*slot + wraps*ctrl`,
/// bounded with `wraps <= hops - 1`.
fn pipeline_budget_slots(
    deadline: Duration,
    path: &Path,
    mesh_frame_duration: Duration,
    ctrl: Duration,
    slot: Duration,
) -> Option<u64> {
    let max_wraps = path.hop_count().saturating_sub(1) as u32;
    let fixed = mesh_frame_duration + ctrl * max_wraps;
    if deadline <= fixed {
        return None;
    }
    let budget = deadline - fixed;
    // A budget past `u64` slots is as good as unbounded.
    Some(u64::try_from(budget.as_nanos() / slot.as_nanos()).unwrap_or(u64::MAX))
}

/// The deadline budget of a vetted flow in pipeline minislots (`None`
/// for best-effort flows).
pub(crate) fn flow_budget(
    model: &EmulationModel,
    deadline: Option<Duration>,
    path: &Path,
) -> Option<u64> {
    let frame = model.frame();
    let mesh_frame = model.mesh_frame();
    let slot = Duration::from_micros(frame.slot_duration_us());
    deadline.and_then(|d| {
        pipeline_budget_slots(
            d,
            path,
            mesh_frame.frame_duration(),
            mesh_frame.ctrl_duration(),
            slot,
        )
    })
}

/// Minislots per frame a link whose minislot carries `payload` bytes
/// needs for the summed `rate_bps` and `burst_bytes` of the flows crossing
/// it. Retransmission headroom is bought in minislots: the slot count is
/// scaled, not the byte load (one lost packet costs a whole slot).
pub(crate) fn link_demand(
    model: &EmulationModel,
    payload: u32,
    loss_provisioning: f64,
    rate_bps: f64,
    burst_bytes: u64,
) -> u32 {
    let base = model.slots_for_load_at(rate_bps, burst_bytes, payload);
    let scale = 1.0 / (1.0 - loss_provisioning);
    (base as f64 * scale).ceil() as u32
}

/// Aggregates the per-link minislot demand of a flow set.
///
/// Rates and bursts are summed per link *before* rounding to minislots:
/// flows sharing a link share its reservation, so the demand is the
/// ceiling of `sum(sigma) + sum(rho) * T` (one tiny flow does not consume
/// a whole minislot on every link it crosses, yet the reservation can
/// absorb a simultaneous burst from every sharer). Retransmission
/// headroom is bought in minislots: the slot count is scaled, not the
/// byte load (one lost packet costs a whole slot).
pub(crate) fn aggregate_demands<'a>(
    model: &EmulationModel,
    link_payloads: &[u32],
    loss_provisioning: f64,
    flows: impl IntoIterator<Item = (&'a FlowSpec, &'a Path)>,
) -> Demands {
    let mut load_per_link: std::collections::BTreeMap<LinkId, (f64, u64)> =
        std::collections::BTreeMap::new();
    for (spec, path) in flows {
        for &l in path.links() {
            let e = load_per_link.entry(l).or_insert((0.0, 0));
            e.0 += spec.rate_bps;
            e.1 += spec.burst_bytes as u64;
        }
    }
    let mut demands = Demands::new();
    for (l, (rate, burst)) in load_per_link {
        let payload = link_payloads[l.index()];
        demands.set(
            l,
            link_demand(model, payload, loss_provisioning, rate, burst),
        );
    }
    demands
}

/// The placement cost of a vetted flow under a [`GreedyKey`] — smaller
/// ranks place first. `CliqueLoad` mines the maximal clique around each
/// path link ([`ConflictGraph::maximal_clique_containing`]) and charges
/// the flow its bottleneck clique's total demand.
pub(crate) fn greedy_rank(
    key: GreedyKey,
    graph: &ConflictGraph,
    demand_of: impl Fn(LinkId) -> u32,
    path: &Path,
    slots_per_link: u32,
) -> u64 {
    match key {
        GreedyKey::CliqueLoad => path
            .links()
            .iter()
            .filter_map(|&l| graph.index_of(l))
            .map(|i| {
                graph
                    .maximal_clique_containing(i)
                    .iter()
                    .map(|&v| demand_of(graph.link_at(v)) as u64)
                    .sum::<u64>()
            })
            .max()
            .unwrap_or(0),
        GreedyKey::HopCount => path.hop_count() as u64,
        GreedyKey::Demand => slots_per_link as u64 * path.hop_count() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MeshQos;
    use wimesh_milp::SolverConfig;
    use wimesh_sim::traffic::VoipCodec;
    use wimesh_tdma::milp::{feasible_order_within, PathRequirement};
    use wimesh_tdma::ScheduleError;
    use wimesh_topology::generators;
    use wimesh_topology::routing::shortest_path;

    fn mesh(n: usize) -> MeshQos {
        MeshQos::builder(generators::chain(n)).build().unwrap()
    }

    #[test]
    fn admits_single_voip_call() {
        let mesh = mesh(4);
        let flows = vec![FlowSpec::voip(0, NodeId(3), NodeId(0), VoipCodec::G711)];
        let out = mesh.admit(&flows, OrderPolicy::HopOrder).unwrap();
        assert_eq!(out.admitted.len(), 1);
        assert!(out.rejected.is_empty());
        assert!(out.guaranteed_slots >= 3);
        assert!(out.best_effort_slots() > 0);
        let f = &out.admitted[0];
        assert!(f.worst_case_delay <= f.spec.deadline.unwrap());
    }

    #[test]
    fn rejects_unroutable_flow() {
        let mut topo = generators::chain(3);
        let isolated = topo.add_node();
        let mesh = MeshQos::builder(topo).build().unwrap();
        let flows = vec![FlowSpec::voip(0, isolated, NodeId(0), VoipCodec::G729)];
        let out = mesh.admit(&flows, OrderPolicy::HopOrder).unwrap();
        assert!(out.admitted.is_empty());
        assert_eq!(out.rejected[0].1, RejectReason::NoRoute);
    }

    #[test]
    fn a_deadline_past_u64_slots_saturates_its_budget() {
        // Budget 2^64 slots: truncated to 64 bits it read as 0 and the
        // loosest deadline there is was refused as infeasible.
        let mesh = mesh(2);
        let (model, slot) = (mesh.model(), mesh.model().frame().slot_duration_us());
        let fixed = model.mesh_frame().frame_duration().as_nanos();
        let ns = fixed + u128::from(slot) * 1_000 * (1 << 64);
        let secs = u64::try_from(ns / 1_000_000_000).unwrap();
        let deadline = Duration::new(secs, (ns % 1_000_000_000) as u32);
        let call = FlowSpec::guaranteed(0, NodeId(1), NodeId(0), 64_000.0, deadline);
        let out = mesh.admit(&[call], OrderPolicy::HopOrder).unwrap();
        assert_eq!(out.admitted.len(), 1, "{:?}", out.rejected);
    }

    #[test]
    fn rejects_impossible_deadline() {
        let mesh = mesh(4);
        let flows = vec![FlowSpec::guaranteed(
            0,
            NodeId(3),
            NodeId(0),
            64_000.0,
            Duration::from_millis(1), // less than one mesh frame
        )];
        let out = mesh.admit(&flows, OrderPolicy::HopOrder).unwrap();
        assert_eq!(out.rejected[0].1, RejectReason::DeadlineTooTight);
    }

    #[test]
    fn capacity_exhaustion_rejects_later_flows() {
        let mesh = mesh(3);
        // Each 2 Mbit/s flow over 2 hops eats many minislots (rate plus
        // burst provisioning); pile them on
        // until the frame is full.
        let flows: Vec<FlowSpec> = (0..12)
            .map(|i| {
                FlowSpec::guaranteed(
                    i,
                    NodeId(2),
                    NodeId(0),
                    2_000_000.0,
                    Duration::from_millis(200),
                )
            })
            .collect();
        let out = mesh.admit(&flows, OrderPolicy::HopOrder).unwrap();
        assert!(!out.admitted.is_empty(), "at least one flow must fit");
        assert!(!out.rejected.is_empty(), "overload must reject something");
        assert!(out
            .rejected
            .iter()
            .all(|(_, r)| *r == RejectReason::Infeasible));
        // The schedule stays valid for the admitted subset.
        assert!(out.guaranteed_slots <= mesh.model().frame().slots());
    }

    #[test]
    fn exact_policy_admits_no_less_than_heuristic() {
        let mesh = mesh(5);
        let flows: Vec<FlowSpec> = (0..3)
            .map(|i| FlowSpec::voip(i, NodeId(4), NodeId(0), VoipCodec::G729))
            .collect();
        let heuristic = mesh.admit(&flows, OrderPolicy::HopOrder).unwrap();
        let exact = mesh.admit(&flows, OrderPolicy::ExactMilp).unwrap();
        assert!(exact.admitted.len() >= heuristic.admitted.len());
        // The exact search never uses more guaranteed slots.
        if exact.admitted.len() == heuristic.admitted.len() {
            assert!(exact.guaranteed_slots <= heuristic.guaranteed_slots);
        }
    }

    #[test]
    fn tree_policy_on_gateway_tree() {
        let topo = generators::binary_tree(2);
        let mesh = MeshQos::builder(topo).build().unwrap();
        let flows: Vec<FlowSpec> = (3..7)
            .map(|i| FlowSpec::voip(i, NodeId(i), NodeId(0), VoipCodec::G729))
            .collect();
        let out = mesh
            .admit(&flows, OrderPolicy::TreeOrder { gateway: NodeId(0) })
            .unwrap();
        assert_eq!(out.admitted.len(), 4, "rejected: {:?}", out.rejected);
        for f in &out.admitted {
            assert!(f.worst_case_delay <= f.spec.deadline.unwrap());
        }
    }

    #[test]
    fn approx_policies_admit_valid_schedules() {
        let mesh = mesh(5);
        let flows: Vec<FlowSpec> = (0..3)
            .map(|i| FlowSpec::voip(i, NodeId(4), NodeId(0), VoipCodec::G729))
            .collect();
        let exact = mesh.admit(&flows, OrderPolicy::ExactMilp).unwrap();
        for policy in [
            OrderPolicy::GreedySequential {
                key: GreedyKey::CliqueLoad,
            },
            OrderPolicy::GreedySequential {
                key: GreedyKey::HopCount,
            },
            OrderPolicy::GreedySequential {
                key: GreedyKey::Demand,
            },
            OrderPolicy::LpRounding,
        ] {
            let out = mesh.admit(&flows, policy).unwrap();
            // Approximation may only reject more, never violate QoS.
            assert!(out.admitted.len() <= exact.admitted.len());
            assert!(out.guaranteed_slots <= mesh.model().frame().slots());
            for f in &out.admitted {
                assert!(f.worst_case_delay <= f.spec.deadline.unwrap());
            }
        }
    }

    #[test]
    fn greedy_overload_rejects_in_input_order() {
        let mesh = mesh(3);
        let flows: Vec<FlowSpec> = (0..12)
            .map(|i| {
                FlowSpec::guaranteed(
                    i,
                    NodeId(2),
                    NodeId(0),
                    2_000_000.0,
                    Duration::from_millis(200),
                )
            })
            .collect();
        let out = mesh
            .admit(
                &flows,
                OrderPolicy::GreedySequential {
                    key: GreedyKey::Demand,
                },
            )
            .unwrap();
        assert!(!out.admitted.is_empty());
        assert!(!out.rejected.is_empty());
        // Rejections are reported in input order even though placement
        // order was greedy.
        let ids: Vec<u32> = out.rejected.iter().map(|(s, _)| s.id.0).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn a_repeated_id_in_one_batch_is_reserved_once() {
        let mesh = mesh(5);
        let flows = vec![
            FlowSpec::voip(7, NodeId(4), NodeId(0), VoipCodec::G711),
            FlowSpec::voip(7, NodeId(3), NodeId(0), VoipCodec::G729),
        ];
        let out = mesh.admit(&flows, OrderPolicy::HopOrder).unwrap();
        assert_eq!(out.admitted.len(), 1);
        assert_eq!(out.admitted[0].spec, flows[0], "the first occurrence won");
        assert_eq!(
            out.rejected,
            [(flows[1].clone(), RejectReason::DuplicateFlow)]
        );
        // Nothing of the second request is reserved.
        let alone = mesh.admit(&flows[..1], OrderPolicy::HopOrder).unwrap();
        assert_eq!(out.schedule, alone.schedule);
    }

    #[test]
    fn batch_admits_around_a_trunk_the_frame_cannot_hold() {
        let mesh = mesh(6);
        // The far call is placed first, the trunk the frame has no room
        // for rolls its own links back, the near call is placed last.
        let trunk = FlowSpec::guaranteed(
            1,
            NodeId(5),
            NodeId(0),
            2_000_000.0,
            Duration::from_millis(200),
        );
        let flows = vec![
            FlowSpec::voip(0, NodeId(5), NodeId(2), VoipCodec::G711),
            trunk.clone(),
            FlowSpec::voip(2, NodeId(3), NodeId(0), VoipCodec::G711),
        ];
        let out = mesh.admit(&flows, OrderPolicy::HopOrder).unwrap();
        assert_eq!(out.rejected, [(trunk, RejectReason::Infeasible)]);
        assert_eq!(out.admitted.len(), 2);
    }

    #[test]
    fn every_reject_of_a_batch_is_reported_in_input_order() {
        let mut topo = generators::chain(3);
        let isolated = topo.add_node();
        let mesh = MeshQos::builder(topo).build().unwrap();
        let flows: Vec<FlowSpec> = (0..300)
            .map(|i| FlowSpec::voip(i, isolated, NodeId(0), VoipCodec::G729))
            .collect();
        assert!(flows.len() > crate::QosSession::REJECT_LOG_CAP);
        let out = mesh.admit(&flows, OrderPolicy::HopOrder).unwrap();
        assert!(out.admitted.is_empty());
        let expected: Vec<_> = flows
            .into_iter()
            .map(|f| (f, RejectReason::NoRoute))
            .collect();
        assert_eq!(out.rejected, expected);
    }

    #[test]
    fn greedy_rank_orders_by_key() {
        let mesh = mesh(5);
        let short = FlowSpec::voip(0, NodeId(1), NodeId(0), VoipCodec::G729);
        let long = FlowSpec::voip(1, NodeId(4), NodeId(0), VoipCodec::G729);
        let vet = |spec: &FlowSpec| {
            let path = shortest_path(mesh.topology(), spec.src, spec.dst).ok();
            match vet_flow(mesh.model(), mesh.link_payloads(), 0.0, spec, path.as_ref()).unwrap() {
                Ok(c) => c,
                Err(r) => panic!("vet failed: {r:?}"),
            }
        };
        let (a, b) = (vet(&short), vet(&long));
        let demands = aggregate_demands(
            mesh.model(),
            mesh.link_payloads(),
            0.0,
            [&a, &b].map(|f| (&f.spec, &f.path)),
        );
        let graph = ConflictGraph::build_for_links(
            mesh.topology(),
            demands.links().collect(),
            mesh.interference(),
        );
        let rank = |key, f: &Accepted| {
            greedy_rank(key, &graph, |l| demands.get(l), &f.path, f.slots_per_link)
        };
        assert!(rank(GreedyKey::HopCount, &a) < rank(GreedyKey::HopCount, &b));
        assert!(rank(GreedyKey::Demand, &a) < rank(GreedyKey::Demand, &b));
        // The long flow crosses every clique the short one does and more.
        assert!(rank(GreedyKey::CliqueLoad, &a) <= rank(GreedyKey::CliqueLoad, &b));
    }

    #[test]
    fn best_effort_flow_gets_bandwidth_but_no_deadline() {
        let mesh = mesh(3);
        let flows = vec![
            FlowSpec::voip(0, NodeId(2), NodeId(0), VoipCodec::G711),
            FlowSpec::best_effort(1, NodeId(0), NodeId(2), 500_000.0),
        ];
        let out = mesh.admit(&flows, OrderPolicy::HopOrder).unwrap();
        assert_eq!(out.admitted.len(), 2);
    }

    #[test]
    fn invalid_rate_is_an_error() {
        let mesh = mesh(3);
        let flows = vec![FlowSpec::best_effort(0, NodeId(0), NodeId(2), 0.0)];
        assert!(matches!(
            mesh.admit(&flows, OrderPolicy::HopOrder),
            Err(QosError::InvalidRate { flow: 0 })
        ));
    }

    #[test]
    fn empty_input_empty_outcome() {
        let mesh = mesh(3);
        let out = mesh.admit(&[], OrderPolicy::HopOrder).unwrap();
        assert!(out.admitted.is_empty());
        assert!(out.rejected.is_empty());
        assert_eq!(out.guaranteed_slots, 0);
        assert_eq!(out.best_effort_slots(), mesh.model().frame().slots());
        assert_eq!(out.frame_slots(), mesh.model().frame().slots());
    }

    #[test]
    fn accessor_methods_mirror_fields() {
        let mesh = mesh(4);
        let flows = vec![
            FlowSpec::voip(0, NodeId(3), NodeId(0), VoipCodec::G711),
            FlowSpec::guaranteed(1, NodeId(3), NodeId(0), 64_000.0, Duration::from_millis(1)),
        ];
        let out = mesh.admit(&flows, OrderPolicy::HopOrder).unwrap();
        assert_eq!(out.admitted().len(), out.admitted.len());
        assert_eq!(out.rejected().len(), out.rejected.len());
        assert_eq!(out.frame_slots(), out.schedule.frame().slots());
        assert_eq!(
            out.best_effort_slots(),
            out.frame_slots() - out.guaranteed_slots
        );
    }

    /// Pins the minimal feasible slot count on a 3-node chain by hand.
    ///
    /// One flow 2 → 1 → 0 demands `d` minislots on each of its two
    /// links. The links share node 1, so they conflict under every
    /// interference model and can never overlap: any feasible schedule
    /// needs at least `2d` minislots, and laying them back-to-back
    /// achieves exactly `2d`. The exact search must return `2d`, one
    /// minislot fewer must be infeasible, and the heuristic hop order is
    /// also optimal on a chain.
    #[test]
    fn chain_minimal_slots_pinned_by_hand() {
        let mesh = mesh(3);
        let flows = vec![FlowSpec::voip(0, NodeId(2), NodeId(0), VoipCodec::G711)];

        let exact = mesh.admit(&flows, OrderPolicy::ExactMilp).unwrap();
        assert_eq!(exact.admitted.len(), 1);
        // No loss provisioning and a single flow: the aggregated demand
        // on each link is exactly the flow's per-link reservation.
        let d = exact.admitted[0].slots_per_link;
        assert!(d >= 1);
        assert_eq!(
            exact.guaranteed_slots,
            2 * d,
            "two mutually conflicting links of demand {d} need exactly 2d slots"
        );

        // The hop-order heuristic is optimal on a chain: same makespan.
        let heuristic = mesh.admit(&flows, OrderPolicy::HopOrder).unwrap();
        assert_eq!(heuristic.guaranteed_slots, 2 * d);

        // Re-check minimality against the MILP oracle directly: 2d - 1
        // minislots are infeasible, 2d are feasible.
        let model = mesh.model();
        let demands = {
            let mut dm = Demands::new();
            for &l in exact.admitted[0].path.links() {
                dm.set(l, d);
            }
            dm
        };
        let graph = ConflictGraph::build_for_links(
            mesh.topology(),
            demands.links().collect(),
            mesh.interference(),
        );
        assert_eq!(graph.vertex_count(), 2);
        let links = exact.admitted[0].path.links();
        assert!(
            graph.are_in_conflict(links[0], links[1]),
            "chain links must conflict"
        );
        let reqs: Vec<PathRequirement> = vec![PathRequirement {
            path: exact.admitted[0].path.clone(),
            deadline_slots: None,
        }];
        let solver = SolverConfig::default();
        assert!(matches!(
            feasible_order_within(&graph, &demands, &reqs, model.frame(), 2 * d - 1, &solver),
            Err(ScheduleError::Infeasible)
        ));
        assert!(
            feasible_order_within(&graph, &demands, &reqs, model.frame(), 2 * d, &solver).is_ok()
        );
    }
}
