//! LP-rounding approximate transmission-order oracle.
//!
//! Maximizing accepted flows in a TDMA ad-hoc network is APX-complete
//! (Bruno/Conan/Rousseau), so the exact branch & bound in [`crate::milp`]
//! cannot be the production admission path at scale. This module trades
//! proven optimality for per-frame speed while keeping *soundness*: every
//! schedule it returns is a real, validated schedule, and every answer
//! carries a certified lower bound on the minimal guaranteed region so the
//! caller can report an optimality gap.
//!
//! The pipeline is:
//!
//! 1. Build the exact oracle's own model ([`crate::milp`]'s order model at
//!    `used = frame.slots()`: start times, big-M order disjunctions, the
//!    wrap chains and deadlines of the undominated requirements), plus a
//!    makespan variable `M >= sigma_e + d_e` minimized.
//! 2. Solve its LP relaxation with the existing simplex
//!    ([`wimesh_milp::Model::solve_relaxed`], which treats every binary
//!    and integer variable as continuous). LP infeasibility proves
//!    integral infeasibility (the relaxed feasible set is a superset), so
//!    a "no" here is a sound rejection. The LP optimum lower-bounds the
//!    minimal feasible guaranteed region: any integral schedule feasible
//!    in `used` slots is an LP point with `M <= used`. Big-M rows are
//!    weak under relaxation (a fractional order variable satisfies both
//!    sides), so callers should combine this bound with the clique bound;
//!    the maximum of the two is still a certified lower bound.
//! 3. Round every order variable deterministically at 0.5 into a
//!    [`TransmissionOrder`].
//! 4. Repair greedily: while the rounded order fails
//!    [`validate_order_within`] (cycle, frame overflow, missed deadline),
//!    flip the least-confident rounded decisions — those with LP values
//!    closest to 0.5 — toward the hop-order heuristic, doubling the batch
//!    each round. After all disagreements are flipped the order *is* the
//!    hop order, which is acyclic by construction, so the loop terminates
//!    in O(log E) rounds and the final failure (if any) is a genuine
//!    rejection.

use std::cmp::Ordering;

use wimesh_conflict::ConflictGraph;
use wimesh_milp::{LinExpr, Sense, SolveError};

use crate::milp::{validate_order_within, OrderModel, OrderSolution, PathRequirement};
use crate::order::hop_order;
use crate::{Demands, FrameConfig, ScheduleError, TransmissionOrder};

/// Result of an LP-rounding solve: the realised integral solution plus the
/// certified LP lower bound that prices its optimality gap.
#[derive(Debug, Clone)]
pub struct LpRoundedSolution {
    /// The repaired integral order and its validated schedule.
    pub solution: OrderSolution,
    /// Certified lower bound (in minislots) on the minimal feasible
    /// guaranteed region for these demands and deadlines: no integral
    /// schedule can fit in fewer slots. `makespan - lp_bound_slots` is
    /// therefore a true upper bound on the optimality gap.
    pub lp_bound_slots: u32,
    /// Rounded order decisions the repair loop flipped toward hop order.
    pub repair_flips: u32,
}

/// Approximate feasibility oracle: solves the LP relaxation, rounds the
/// order variables deterministically, and greedily repairs infeasibilities
/// toward the hop-order heuristic.
///
/// Never branches: cost is one simplex solve plus O(log E) Bellman–Ford
/// realisation passes. The returned schedule is fully validated (conflict
/// freedom, frame and deadlines, by [`validate_order_within`]), so
/// acceptance is exactly as trustworthy as the exact oracle's — only
/// rejection is conservative.
///
/// # Errors
///
/// * [`ScheduleError::Infeasible`] — the LP relaxation is infeasible
///   (a proof that no integral schedule exists), or no repair realises a
///   schedule that fits the frame and meets every deadline.
/// * [`ScheduleError::LinkNotInGraph`] / [`ScheduleError::MissingDemand`] —
///   input validation, as for the exact oracle.
/// * [`ScheduleError::SolverFailed`] — simplex iteration limit.
pub fn lp_rounded_order(
    graph: &ConflictGraph,
    demands: &Demands,
    requirements: &[PathRequirement],
    frame: FrameConfig,
) -> Result<LpRoundedSolution, ScheduleError> {
    let mut m = OrderModel::build(graph, demands, requirements, frame, frame.slots())?;

    // Makespan: M >= sigma_e + d_e for every demanded link. Minimizing M
    // makes the LP optimum a lower bound on the minimal guaranteed region.
    let makespan = m.model.add_var(0.0, frame.slots() as f64, "makespan");
    for (link, d) in demands.iter() {
        m.model
            .add_ge(LinExpr::from(makespan) - m.sigma[&link], d as f64);
    }
    m.model
        .set_objective(Sense::Minimize, LinExpr::from(makespan));

    let relaxed = match m.model.solve_relaxed() {
        Ok(s) => s,
        // LP infeasible => the integral model is infeasible: sound reject.
        Err(SolveError::Infeasible) => return Err(ScheduleError::Infeasible),
        Err(e) => return Err(ScheduleError::SolverFailed(e.to_string())),
    };
    // The optimum of a minimization over integral data is integral-valued
    // only in the integral model; the LP can land strictly between
    // integers, so round *up* with a tolerance to keep the bound sound.
    let lp_bound_slots = ((relaxed.objective() - 1e-6).ceil().max(1.0)) as u32;

    // Deterministic rounding at 0.5, remembering how confident the LP was
    // about each decision and where it disagrees with the hop heuristic.
    let target = hop_order(graph, requirements.iter().map(|r| &r.path));
    let mut order = TransmissionOrder::new();
    let mut disagreements: Vec<(usize, usize, f64)> = Vec::new();
    for &((i, j), var) in &m.order_vars {
        let v = relaxed.value(var);
        let rounded = v > 0.5;
        order.set(i, j, rounded);
        #[expect(
            clippy::expect_used,
            reason = "hop_order ranks every graph vertex (ties broken by LinkId), so every edge is decided"
        )]
        let want = target.before(i, j).expect("hop order decides every edge");
        if want != rounded {
            disagreements.push((i, j, (v - 0.5).abs()));
        }
    }
    // Least-confident decisions flip first; ties by edge for determinism.
    disagreements.sort_by(|a, b| {
        a.2.partial_cmp(&b.2)
            .unwrap_or(Ordering::Equal)
            .then((a.0, a.1).cmp(&(b.0, b.1)))
    });

    let mut flipped = 0usize;
    let mut batch = 1usize;
    loop {
        if let Some(solution) =
            validate_order_within(graph, demands, requirements, frame, frame.slots(), &order)
        {
            wimesh_obs::counter_inc("tdma.approx.lp_rounded");
            return Ok(LpRoundedSolution {
                solution: OrderSolution {
                    nodes_explored: relaxed.nodes_explored(),
                    ..solution
                },
                lp_bound_slots,
                repair_flips: flipped as u32,
            });
        }
        if flipped >= disagreements.len() {
            // The order now agrees with hop order on every demanded
            // edge; if that fails too, reject for real.
            return Err(ScheduleError::Infeasible);
        }
        let take = batch.min(disagreements.len() - flipped);
        for &(i, j, _) in &disagreements[flipped..flipped + take] {
            #[expect(
                clippy::expect_used,
                reason = "same total hop order as above: every edge is decided"
            )]
            let want = target.before(i, j).expect("hop order decides every edge");
            order.set(i, j, want);
        }
        flipped += take;
        batch *= 2;
        wimesh_obs::counter_inc("tdma.approx.repair_rounds");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::path_delay_slots;
    use crate::milp::feasible_order_within;
    use wimesh_conflict::InterferenceModel;
    use wimesh_milp::SolverConfig;
    use wimesh_topology::routing::{shortest_path, Path};
    use wimesh_topology::{generators, MeshTopology, NodeId};

    fn chain_instance(n: usize, per_link: u32) -> (MeshTopology, ConflictGraph, Demands, Path) {
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
        (topo, cg, demands, path)
    }

    fn exact_min_used(
        graph: &ConflictGraph,
        demands: &Demands,
        reqs: &[PathRequirement],
        frame: FrameConfig,
    ) -> Option<u32> {
        (1..=frame.slots()).find(|&used| {
            feasible_order_within(graph, demands, reqs, frame, used, &SolverConfig::default())
                .is_ok()
        })
    }

    #[test]
    fn rounded_schedule_is_valid_and_meets_deadlines() {
        let (_, cg, demands, path) = chain_instance(5, 2);
        let frame = FrameConfig::new(16, 100);
        let req = PathRequirement {
            path: path.clone(),
            deadline_slots: Some(8),
        };
        let rounded = lp_rounded_order(&cg, &demands, std::slice::from_ref(&req), frame).unwrap();
        assert!(rounded.solution.schedule.validate(&cg).is_ok());
        assert!(path_delay_slots(&rounded.solution.schedule, &path).unwrap() <= 8);
        assert_eq!(rounded.solution.nodes_explored, 1);
    }

    #[test]
    fn lp_bound_never_exceeds_exact_minimum() {
        for (n, per_link) in [(4usize, 1u32), (5, 2), (6, 1)] {
            let (_, cg, demands, path) = chain_instance(n, per_link);
            let frame = FrameConfig::new(32, 100);
            let req = PathRequirement {
                path,
                deadline_slots: None,
            };
            let reqs = [req];
            let rounded = lp_rounded_order(&cg, &demands, &reqs, frame).unwrap();
            let exact = exact_min_used(&cg, &demands, &reqs, frame)
                .expect("chain instances are feasible in a 32-slot frame");
            assert!(
                rounded.lp_bound_slots <= exact,
                "LP bound {} exceeds exact minimum {} (chain {n}, d {per_link})",
                rounded.lp_bound_slots,
                exact
            );
            // And the realised schedule is an upper bound on the optimum.
            assert!(rounded.solution.schedule.makespan() >= exact);
        }
    }

    #[test]
    fn lp_infeasibility_rejects_soundly() {
        // Two conflicting links whose joint demand exceeds the frame:
        // d_i + d_j <= horizon is implied even by the relaxed big-M rows.
        let (_, cg, demands, path) = chain_instance(3, 5);
        let frame = FrameConfig::new(8, 100);
        let req = PathRequirement {
            path,
            deadline_slots: None,
        };
        let err = lp_rounded_order(&cg, &demands, &[req], frame).unwrap_err();
        assert!(
            matches!(
                err,
                ScheduleError::Infeasible | ScheduleError::FrameTooShort { .. }
            ),
            "expected a sound rejection, got {err:?}"
        );
    }

    #[test]
    fn impossible_deadline_rejected() {
        let (_, cg, demands, path) = chain_instance(4, 1);
        let frame = FrameConfig::new(8, 100);
        // 3-hop pipeline with unit demands needs >= 3 slots of delay.
        let req = PathRequirement {
            path,
            deadline_slots: Some(2),
        };
        let err = lp_rounded_order(&cg, &demands, &[req], frame).unwrap_err();
        assert_eq!(err, ScheduleError::Infeasible);
    }

    #[test]
    fn crossing_paths_round_and_repair() {
        let topo = generators::chain(5);
        let p1 = shortest_path(&topo, NodeId(0), NodeId(4)).unwrap();
        let p2 = shortest_path(&topo, NodeId(4), NodeId(0)).unwrap();
        let mut demands = Demands::new();
        for &l in p1.links().iter().chain(p2.links()) {
            demands.set(l, 1);
        }
        let cg = ConflictGraph::build_for_links(
            &topo,
            demands.links().collect(),
            InterferenceModel::protocol_default(),
        );
        let frame = FrameConfig::new(16, 100);
        let reqs = [
            PathRequirement {
                path: p1.clone(),
                deadline_slots: None,
            },
            PathRequirement {
                path: p2.clone(),
                deadline_slots: None,
            },
        ];
        let rounded = lp_rounded_order(&cg, &demands, &reqs, frame).unwrap();
        assert!(rounded.solution.schedule.validate(&cg).is_ok());
        assert!(path_delay_slots(&rounded.solution.schedule, &p1).is_some());
        assert!(path_delay_slots(&rounded.solution.schedule, &p2).is_some());
    }
}
