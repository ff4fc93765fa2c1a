//! Exact transmission-order optimization via mixed-integer programming.
//!
//! The min-max delay order problem is NP-complete (reduction from
//! feedback arc set in the original paper), so the exact method is a MILP:
//!
//! * one continuous start time `sigma_e in [0, S - d_e]` per scheduled
//!   link,
//! * one binary order variable per conflict edge, linearising the
//!   "transmit disjointly" disjunction with big-M = S (tight, because
//!   start-time differences are bounded by the frame),
//! * per *undominated* path, integer frame-wrap counters linking
//!   consecutive hops — a path whose route is a contiguous run of another
//!   path's route, with a deadline no tighter, is implied by that other
//!   path and gets no rows of its own (`undominated` below), and
//! * either `minimize Z >= delay(p)` (optimization mode) or
//!   `delay(p) <= deadline(p)` with **no objective** (feasibility mode,
//!   the oracle of the admission controller's slot search): every branch
//!   & bound node then ties at 0, the solver's deeper-first tie-break
//!   dives, and the first integral leaf ends the solve, while a "no"
//!   still has to exhaust the tree.
//!
//! With the binaries fixed, the remaining system is a network of
//! difference constraints (totally unimodular), so LP vertices are
//! integral and the extracted start times can be rounded safely.

use std::collections::BTreeMap;

use wimesh_conflict::ConflictGraph;
use wimesh_milp::{LinExpr, Model, Sense, SolveError, SolverConfig, VarId};
use wimesh_topology::routing::Path;
use wimesh_topology::LinkId;

use crate::{Demands, FrameConfig, Schedule, ScheduleError, SlotRange, TransmissionOrder};

/// A path together with its delay requirement in minislots
/// (`None` = best effort, no deadline).
#[derive(Debug, Clone)]
pub struct PathRequirement {
    /// The route whose delay is constrained.
    pub path: Path,
    /// Maximum allowed [`crate::delay::path_delay_slots`] value.
    pub deadline_slots: Option<u64>,
}

/// Result of an exact order optimization.
#[derive(Debug, Clone)]
pub struct OrderSolution {
    /// The optimized transmission order.
    pub order: TransmissionOrder,
    /// The schedule realising it (start times from the MILP).
    pub schedule: Schedule,
    /// Maximum path pipeline delay in minislots, as optimised/constrained.
    pub max_delay_slots: u64,
    /// Branch & bound nodes the solver explored.
    pub nodes_explored: usize,
}

/// Finds the transmission order minimising the maximum pipeline delay over
/// `paths`, exactly.
///
/// # Errors
///
/// * [`ScheduleError::Infeasible`] — no conflict-free schedule fits the
///   frame at all.
/// * [`ScheduleError::MissingDemand`] — a path link has no demand.
/// * [`ScheduleError::LinkNotInGraph`] — a demanded link has no conflict
///   vertex.
/// * [`ScheduleError::SolverFailed`] — solver node/iteration limits.
pub fn min_max_delay_order(
    graph: &ConflictGraph,
    demands: &Demands,
    paths: &[Path],
    frame: FrameConfig,
    config: &SolverConfig,
) -> Result<OrderSolution, ScheduleError> {
    let reqs: Vec<PathRequirement> = paths
        .iter()
        .map(|p| PathRequirement {
            path: p.clone(),
            deadline_slots: None,
        })
        .collect();
    solve(graph, demands, &reqs, frame, frame.slots(), config, true)
}

/// Decides whether a schedule exists that meets every path's deadline
/// with all guaranteed transmissions inside the first `used_slots`
/// minislots of the frame, and returns one if so.
///
/// This is the oracle of the minislot search: the frame (and hence the
/// wrap cost of a backwards-ordered hop) stays at its full length, while
/// the admission controller shrinks `used_slots` to find the smallest
/// guaranteed-traffic region, leaving the rest of the frame to best
/// effort. The answer is *a feasible point, not the most compact one*:
/// the model carries no objective, so the solve stops at the first
/// schedule that meets every constraint; its makespan is at most
/// `used_slots`, not minimal, and its start times may leave gaps. A
/// caller that wants the tight layout replays the returned order through
/// [`validate_order_within`] (earliest starts of that order).
///
/// # Errors
///
/// Same conditions as [`min_max_delay_order`];
/// [`ScheduleError::Infeasible`] is the expected "no" answer.
///
/// # Panics
///
/// Panics if `used_slots` is zero or exceeds the frame.
pub fn feasible_order_within(
    graph: &ConflictGraph,
    demands: &Demands,
    requirements: &[PathRequirement],
    frame: FrameConfig,
    used_slots: u32,
    config: &SolverConfig,
) -> Result<OrderSolution, ScheduleError> {
    assert!(
        used_slots >= 1 && used_slots <= frame.slots(),
        "used_slots must be within the frame"
    );
    solve(
        graph,
        demands,
        requirements,
        frame,
        used_slots,
        config,
        false,
    )
}

/// Cheap feasibility certificate for a *known* transmission order: checks
/// whether `order` schedules `demands` within the first `used_slots`
/// minislots of `frame` while meeting every requirement — a Bellman–Ford
/// pass instead of a MILP solve.
///
/// This is the warm-start fast path of the admission search: a `Some`
/// answer is exactly as authoritative as a successful
/// [`feasible_order_within`] (the schedule is real and validated), while
/// `None` only means *this order* fails — the MILP oracle may still find
/// another, so callers must fall back to it before declaring infeasibility.
///
/// # Panics
///
/// Panics if `used_slots` is zero or exceeds the frame.
pub fn validate_order_within(
    graph: &ConflictGraph,
    demands: &Demands,
    requirements: &[PathRequirement],
    frame: FrameConfig,
    used_slots: u32,
    order: &TransmissionOrder,
) -> Option<OrderSolution> {
    assert!(
        used_slots >= 1 && used_slots <= frame.slots(),
        "used_slots must be within the frame"
    );
    let scheduled = |i: usize| demands.get(graph.link_at(i)) > 0;
    if !order.covers(graph, scheduled) {
        wimesh_obs::counter_inc("tdma.order.validation_miss");
        return None;
    }
    let schedule = match crate::schedule_from_order(graph, demands, order, frame) {
        Ok(s) => s,
        Err(_) => {
            wimesh_obs::counter_inc("tdma.order.validation_miss");
            return None;
        }
    };
    if schedule.makespan() > used_slots {
        wimesh_obs::counter_inc("tdma.order.validation_miss");
        return None;
    }
    let mut max_delay_slots = 0;
    for req in requirements {
        let Some(delay) = crate::delay::path_delay_slots(&schedule, &req.path) else {
            wimesh_obs::counter_inc("tdma.order.validation_miss");
            return None;
        };
        if req.deadline_slots.is_some_and(|deadline| delay > deadline) {
            wimesh_obs::counter_inc("tdma.order.validation_miss");
            return None;
        }
        max_delay_slots = max_delay_slots.max(delay);
    }
    wimesh_obs::counter_inc("tdma.order.validated");
    Some(OrderSolution {
        order: order.clone(),
        schedule,
        max_delay_slots,
        nodes_explored: 0,
    })
}

/// Indices of the requirements whose delay rows the model needs.
///
/// Requirement `r` is *dominated* by `by` when `r`'s route is a
/// contiguous run of `by`'s route and `by`'s deadline is no looser
/// (`None` being the loosest). Every hop adds a non-negative wait, so the
/// delay along a sub-route never exceeds the delay along the route: any
/// schedule meeting `by` meets `r` (proof in DESIGN §3.4), and in
/// optimization mode `r` cannot be the maximum unless `by` ties it. Of
/// two requirements that dominate each other (same route, same deadline)
/// the first is kept. Domination is transitive, so every dropped
/// requirement is implied by a kept one.
fn undominated(requirements: &[PathRequirement]) -> Vec<usize> {
    let covers = |by: &PathRequirement, r: &PathRequirement| {
        let no_looser = match (by.deadline_slots, r.deadline_slots) {
            (_, None) => true,
            (None, Some(_)) => false,
            (Some(b), Some(d)) => b <= d,
        };
        let (outer, inner) = (by.path.links(), r.path.links());
        no_looser && outer.windows(inner.len()).any(|run| run == inner)
    };
    (0..requirements.len())
        .filter(|&i| {
            let r = &requirements[i];
            !requirements
                .iter()
                .enumerate()
                .any(|(j, by)| j != i && covers(by, r) && (j < i || !covers(r, by)))
        })
        .collect()
}

fn solve(
    graph: &ConflictGraph,
    demands: &Demands,
    requirements: &[PathRequirement],
    frame: FrameConfig,
    used_slots: u32,
    config: &SolverConfig,
    optimize: bool,
) -> Result<OrderSolution, ScheduleError> {
    // Transmissions are confined to the first `used_slots` minislots, but
    // a frame wrap still costs the *whole* frame.
    let horizon = used_slots as f64;
    let wrap = frame.slots() as f64;

    // Scheduled vertices: conflict-graph indices with positive demand.
    for link in demands.links() {
        if graph.index_of(link).is_none() {
            return Err(ScheduleError::LinkNotInGraph(link));
        }
    }
    for req in requirements {
        for &l in req.path.links() {
            if demands.get(l) == 0 {
                return Err(ScheduleError::MissingDemand(l));
            }
        }
    }

    let mut model = Model::new();
    // sigma per demanded link.
    let mut sigma: BTreeMap<LinkId, VarId> = BTreeMap::new();
    for (link, d) in demands.iter() {
        let ub = horizon - d as f64;
        if ub < 0.0 {
            return Err(ScheduleError::Infeasible);
        }
        sigma.insert(link, model.add_var(0.0, ub, "sigma"));
    }

    // Order binaries per conflict edge among demanded links.
    let mut order_vars: Vec<((usize, usize), VarId)> = Vec::new();
    for (i, j) in graph.edges() {
        let (li, lj) = (graph.link_at(i), graph.link_at(j));
        let (di, dj) = (demands.get(li), demands.get(lj));
        if di == 0 || dj == 0 {
            continue;
        }
        let o = model.add_binary_var("o");
        order_vars.push(((i, j), o));
        let (si, sj) = (sigma[&li], sigma[&lj]);
        // o = 1 -> i before j: sigma_j - sigma_i >= d_i  (else relaxed)
        model.add_ge(sj - si + horizon * (1.0 - o), di as f64);
        // o = 0 -> j before i: sigma_i - sigma_j >= d_j  (else relaxed)
        model.add_ge(si - sj + horizon * o, dj as f64);
    }

    // Wrap counters and delay expressions, per undominated path.
    let mut delay_exprs: Vec<LinExpr> = Vec::new();
    for pidx in undominated(requirements) {
        let req = &requirements[pidx];
        let links = req.path.links();
        let hops = links.len();
        let first = sigma[&links[0]];
        let last = sigma[&links[hops - 1]];
        // W_m: total wraps accumulated entering hop m (W_0 = 0 implicit).
        let mut prev_w: Option<VarId> = None;
        for m in 1..hops {
            let w = model.add_integer_var(0.0, hops as f64, "w");
            let (sp, sc) = (sigma[&links[m - 1]], sigma[&links[m]]);
            let d_prev = demands.get(links[m - 1]) as f64;
            // sigma_m + S W_m >= sigma_{m-1} + S W_{m-1} + d_{m-1},
            // with S the full frame length (wrap cost).
            let mut lhs = LinExpr::from(sc) + wrap * w - sp;
            if let Some(pw) = prev_w {
                lhs = lhs - wrap * pw;
            }
            model.add_ge(lhs, d_prev);
            // Wraps never decrease along the path.
            if let Some(pw) = prev_w {
                model.add_ge(w - pw, 0.0);
            }
            prev_w = Some(w);
        }
        let d_last = demands.get(links[hops - 1]) as f64;
        // delay = sigma_last + S W_last + d_last - sigma_first
        let mut delay = LinExpr::from(last) + d_last - first;
        if let Some(w) = prev_w {
            delay = delay + wrap * w;
        }
        if let Some(deadline) = req.deadline_slots {
            model.add_le(delay.clone(), deadline as f64);
        }
        delay_exprs.push(delay);
    }

    // Feasibility mode sets no objective: any point will do, and with
    // every node's bound tied at 0 the search dives to its first integral
    // leaf and stops there.
    if optimize {
        let z = model.add_var(0.0, f64::INFINITY, "z");
        for d in &delay_exprs {
            model.add_ge(LinExpr::from(z) - d.clone(), 0.0);
        }
        model.set_objective(Sense::Minimize, LinExpr::from(z));
    }

    let solution = match model.solve_with(config) {
        Ok(s) => s,
        Err(SolveError::Infeasible) => return Err(ScheduleError::Infeasible),
        Err(e) => return Err(ScheduleError::SolverFailed(e.to_string())),
    };

    // Extract the order and the (integral, by total unimodularity) starts.
    let mut order = TransmissionOrder::new();
    for ((i, j), var) in &order_vars {
        order.set(*i, *j, solution.value(*var) > 0.5);
    }
    let mut ranges = Vec::with_capacity(demands.len());
    for (link, d) in demands.iter() {
        let s = solution.value(sigma[&link]).round();
        debug_assert!(
            (solution.value(sigma[&link]) - s).abs() < 1e-4,
            "start times should be integral"
        );
        ranges.push((link, SlotRange::new(s as u32, d)));
    }
    let schedule = Schedule::from_sorted(frame, ranges)?;
    if let Err((a, b)) = schedule.validate(graph) {
        return Err(ScheduleError::SolverFailed(format!(
            "MILP produced overlapping conflicting links {a} and {b}"
        )));
    }
    let max_delay_slots = requirements
        .iter()
        .filter_map(|r| crate::delay::path_delay_slots(&schedule, &r.path))
        .max()
        .unwrap_or(0);
    Ok(OrderSolution {
        order,
        schedule,
        max_delay_slots,
        nodes_explored: solution.nodes_explored(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::{frame_wraps, path_delay_slots};
    use crate::order::{hop_order, random_order};
    use crate::schedule_from_order;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wimesh_conflict::InterferenceModel;
    use wimesh_topology::routing::shortest_path;
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

    #[test]
    fn exact_matches_hop_order_on_single_chain() {
        let (_, cg, demands, path) = chain_instance(5, 2);
        let frame = FrameConfig::new(16, 100);
        let exact = min_max_delay_order(
            &cg,
            &demands,
            std::slice::from_ref(&path),
            frame,
            &SolverConfig::default(),
        )
        .unwrap();
        // Hop order is optimal on a single chain: delay = 8 slots.
        assert_eq!(exact.max_delay_slots, 8);
        assert_eq!(frame_wraps(&exact.schedule, &path), Some(0));
        assert!(exact.schedule.validate(&cg).is_ok());

        let heuristic = hop_order(&cg, std::slice::from_ref(&path));
        let hsched = schedule_from_order(&cg, &demands, &heuristic, frame).unwrap();
        assert_eq!(
            path_delay_slots(&hsched, &path),
            Some(exact.max_delay_slots)
        );
    }

    #[test]
    fn exact_beats_or_equals_random_orders() {
        let (_, cg, demands, path) = chain_instance(5, 1);
        let frame = FrameConfig::new(12, 100);
        let exact = min_max_delay_order(
            &cg,
            &demands,
            std::slice::from_ref(&path),
            frame,
            &SolverConfig::default(),
        )
        .unwrap();
        for seed in 0..10 {
            let order = random_order(&cg, &mut StdRng::seed_from_u64(seed));
            let sched = schedule_from_order(&cg, &demands, &order, frame).unwrap();
            let d = path_delay_slots(&sched, &path).unwrap();
            assert!(
                d >= exact.max_delay_slots,
                "random order (seed {seed}) beat the exact optimum: {d} < {}",
                exact.max_delay_slots
            );
        }
    }

    #[test]
    fn two_crossing_paths() {
        // Two flows crossing a shared middle link on a chain: the exact
        // solver must find an order serving both with bounded delay.
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
        let exact = min_max_delay_order(
            &cg,
            &demands,
            &[p1.clone(), p2.clone()],
            frame,
            &SolverConfig::default(),
        )
        .unwrap();
        assert!(exact.schedule.validate(&cg).is_ok());
        let d1 = path_delay_slots(&exact.schedule, &p1).unwrap();
        let d2 = path_delay_slots(&exact.schedule, &p2).unwrap();
        assert_eq!(d1.max(d2), exact.max_delay_slots);
        // Both directions cannot be inversion-free simultaneously on a
        // chain, but one frame of slack suffices.
        assert!(exact.max_delay_slots <= 16 + 8);
    }

    #[test]
    fn feasibility_mode_respects_deadlines() {
        let (_, cg, demands, path) = chain_instance(4, 1);
        let frame = FrameConfig::new(8, 100);
        // Pipeline delay on a 3-hop chain with d=1: minimum is 3 slots.
        let tight = PathRequirement {
            path: path.clone(),
            deadline_slots: Some(3),
        };
        let sol = feasible_order_within(
            &cg,
            &demands,
            &[tight],
            frame,
            frame.slots(),
            &SolverConfig::default(),
        )
        .unwrap();
        assert!(path_delay_slots(&sol.schedule, &path).unwrap() <= 3);

        let impossible = PathRequirement {
            path: path.clone(),
            deadline_slots: Some(2),
        };
        let err = feasible_order_within(
            &cg,
            &demands,
            &[impossible],
            frame,
            frame.slots(),
            &SolverConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, ScheduleError::Infeasible);
    }

    #[test]
    fn frame_too_small_is_infeasible() {
        let (_, cg, demands, path) = chain_instance(4, 2);
        // 3 links x 2 slots all mutually conflicting: needs 6 slots.
        let frame = FrameConfig::new(5, 100);
        let err = min_max_delay_order(
            &cg,
            &demands,
            std::slice::from_ref(&path),
            frame,
            &SolverConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, ScheduleError::Infeasible);
    }

    #[test]
    fn validate_order_agrees_with_milp_oracle() {
        let (_, cg, demands, path) = chain_instance(5, 2);
        let frame = FrameConfig::new(16, 100);
        let req = PathRequirement {
            path: path.clone(),
            deadline_slots: Some(8),
        };
        let order = hop_order(&cg, std::slice::from_ref(&path));
        // 4 mutually-interacting 2-slot links need 8 slots: feasible at 8,
        // not at 7 — for this order and for the exact oracle alike.
        let ok = validate_order_within(&cg, &demands, std::slice::from_ref(&req), frame, 8, &order)
            .expect("hop order fits in 8 slots");
        assert_eq!(ok.max_delay_slots, 8);
        assert_eq!(ok.nodes_explored, 0);
        assert!(ok.schedule.validate(&cg).is_ok());
        assert!(
            validate_order_within(&cg, &demands, std::slice::from_ref(&req), frame, 7, &order)
                .is_none()
        );
        assert!(
            feasible_order_within(&cg, &demands, &[req], frame, 7, &SolverConfig::default())
                .is_err()
        );
    }

    #[test]
    fn validate_order_rejects_missed_deadline() {
        let (_, cg, demands, path) = chain_instance(5, 2);
        let frame = FrameConfig::new(16, 100);
        let order = hop_order(&cg, std::slice::from_ref(&path));
        let strict = PathRequirement {
            path,
            deadline_slots: Some(7),
        };
        assert!(validate_order_within(&cg, &demands, &[strict], frame, 16, &order).is_none());
    }

    #[test]
    fn validate_order_rejects_incomplete_order() {
        let (_, cg, demands, path) = chain_instance(4, 1);
        let req = PathRequirement {
            path,
            deadline_slots: None,
        };
        let empty = TransmissionOrder::new();
        assert!(
            validate_order_within(&cg, &demands, &[req], FrameConfig::new(8, 100), 8, &empty)
                .is_none()
        );
    }

    fn req(topo: &MeshTopology, from: u32, to: u32, deadline: Option<u64>) -> PathRequirement {
        PathRequirement {
            path: shortest_path(topo, NodeId(from), NodeId(to)).unwrap(),
            deadline_slots: deadline,
        }
    }

    #[test]
    fn duplicate_route_keeps_the_first() {
        let topo = generators::chain(5);
        let reqs = [
            req(&topo, 4, 0, Some(9)),
            req(&topo, 4, 0, Some(9)),
            req(&topo, 4, 0, Some(9)),
        ];
        assert_eq!(undominated(&reqs), vec![0]);
        // Same route, different deadlines: the tightest one decides.
        let reqs = [
            req(&topo, 4, 0, Some(9)),
            req(&topo, 4, 0, Some(7)),
            req(&topo, 4, 0, None),
        ];
        assert_eq!(undominated(&reqs), vec![1]);
    }

    #[test]
    fn sub_route_dropped_unless_its_deadline_is_tighter() {
        let topo = generators::chain(5);
        // Looser or equal deadline on a head, middle or tail run: implied.
        for (from, to) in [(4, 2), (3, 1), (2, 0)] {
            let reqs = [req(&topo, from, to, Some(12)), req(&topo, 4, 0, Some(12))];
            assert_eq!(undominated(&reqs), vec![1], "{from} -> {to}");
        }
        // Tighter deadline on the sub-route: both constrain.
        let reqs = [req(&topo, 2, 0, Some(5)), req(&topo, 4, 0, Some(12))];
        assert_eq!(undominated(&reqs), vec![0, 1]);
        // Nested chain: only the outermost survives.
        let reqs = [
            req(&topo, 2, 0, Some(12)),
            req(&topo, 4, 0, Some(12)),
            req(&topo, 3, 0, Some(12)),
        ];
        assert_eq!(undominated(&reqs), vec![1]);
    }

    #[test]
    fn best_effort_is_covered_by_any_containing_route() {
        let topo = generators::chain(5);
        let reqs = [req(&topo, 3, 1, None), req(&topo, 4, 0, None)];
        assert_eq!(undominated(&reqs), vec![1]);
        let reqs = [req(&topo, 3, 1, None), req(&topo, 4, 0, Some(20))];
        assert_eq!(undominated(&reqs), vec![1]);
        // The other way round a deadline is not covered by best effort.
        let reqs = [req(&topo, 3, 1, Some(20)), req(&topo, 4, 0, None)];
        assert_eq!(undominated(&reqs), vec![0, 1]);
    }

    #[test]
    fn reversed_or_disjoint_route_is_not_a_sub_route() {
        let topo = generators::chain(5);
        // 0 -> 2 crosses the same nodes as 4 -> 0 over the opposite links.
        let reqs = [req(&topo, 0, 2, Some(12)), req(&topo, 4, 0, Some(12))];
        assert_eq!(undominated(&reqs), vec![0, 1]);
        let reqs = [req(&topo, 4, 2, Some(12)), req(&topo, 2, 0, Some(12))];
        assert_eq!(undominated(&reqs), vec![0, 1]);
    }

    #[test]
    fn max_delay_is_taken_over_every_requirement() {
        // The model carries rows for 4 -> 0 only; the reported maximum
        // still looks at all three routes, dropped ones included.
        let topo = generators::chain(5);
        let reqs = [
            req(&topo, 2, 0, Some(16)),
            req(&topo, 4, 0, Some(16)),
            req(&topo, 4, 0, None),
        ];
        assert_eq!(undominated(&reqs), vec![1]);
        let mut demands = Demands::new();
        for &l in reqs[1].path.links() {
            demands.set(l, 2);
        }
        let cg = ConflictGraph::build_for_links(
            &topo,
            demands.links().collect(),
            InterferenceModel::protocol_default(),
        );
        let frame = FrameConfig::new(16, 100);
        let sol = feasible_order_within(
            &cg,
            &demands,
            &reqs,
            frame,
            frame.slots(),
            &SolverConfig::default(),
        )
        .unwrap();
        let delays: Vec<u64> = reqs
            .iter()
            .map(|r| path_delay_slots(&sol.schedule, &r.path).unwrap())
            .collect();
        assert_eq!(sol.max_delay_slots, *delays.iter().max().unwrap());
        assert!(delays[0] <= delays[1], "a sub-route cannot wait longer");
        assert!(delays[1] <= 16);
    }

    #[test]
    fn missing_demand_rejected() {
        let (_, cg, mut demands, path) = chain_instance(4, 1);
        demands.set(path.links()[1], 0);
        let err = min_max_delay_order(
            &cg,
            &demands,
            std::slice::from_ref(&path),
            FrameConfig::new(8, 100),
            &SolverConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, ScheduleError::MissingDemand(path.links()[1]));
    }
}
