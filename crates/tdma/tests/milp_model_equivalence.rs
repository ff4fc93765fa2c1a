//! The feasibility oracle against the model it replaced, kept here as the
//! reference: one wrap-counter chain and one delay row per requirement
//! (dominated or not) under a minimise-the-sum-of-starts objective.
//! [`feasible_order_within`] now drops dominated requirements and sets no
//! objective; the verdict must not move at any `used_slots`, and every
//! "yes" must come with a real schedule: conflict-free, each link granted
//! its demand, inside the region, every deadline met — the dropped
//! requirements' deadlines included. (That the raw start times are
//! integral before rounding is a `debug_assert!` inside the solve, live
//! in this build.)

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wimesh_conflict::{ConflictGraph, InterferenceModel};
use wimesh_milp::{LinExpr, Model, Sense, SolveError, SolverConfig, VarId};
use wimesh_tdma::delay::path_delay_slots;
use wimesh_tdma::milp::{feasible_order_within, PathRequirement};
use wimesh_tdma::{Demands, FrameConfig, ScheduleError};
use wimesh_topology::routing::shortest_path;
use wimesh_topology::{generators, LinkId, MeshTopology, NodeId};

/// Reference verdict: the feasibility model as it was built before the
/// reduction — every requirement gets its rows, the objective is the sum
/// of the start times.
fn reference_feasible(
    graph: &ConflictGraph,
    demands: &Demands,
    requirements: &[PathRequirement],
    frame: FrameConfig,
    used_slots: u32,
) -> bool {
    let horizon = used_slots as f64;
    let wrap = frame.slots() as f64;
    let mut model = Model::new();
    let mut sigma: BTreeMap<LinkId, VarId> = BTreeMap::new();
    for (link, d) in demands.iter() {
        let ub = horizon - d as f64;
        if ub < 0.0 {
            return false;
        }
        sigma.insert(link, model.add_var(0.0, ub, "sigma"));
    }
    for (i, j) in graph.edges() {
        let (li, lj) = (graph.link_at(i), graph.link_at(j));
        let (di, dj) = (demands.get(li), demands.get(lj));
        if di == 0 || dj == 0 {
            continue;
        }
        let o = model.add_binary_var("o");
        let (si, sj) = (sigma[&li], sigma[&lj]);
        model.add_ge(sj - si + horizon * (1.0 - o), di as f64);
        model.add_ge(si - sj + horizon * o, dj as f64);
    }
    for req in requirements {
        let links = req.path.links();
        let hops = links.len();
        let mut prev_w: Option<VarId> = None;
        for m in 1..hops {
            let w = model.add_integer_var(0.0, hops as f64, "w");
            let (sp, sc) = (sigma[&links[m - 1]], sigma[&links[m]]);
            let mut lhs = LinExpr::from(sc) + wrap * w - sp;
            if let Some(pw) = prev_w {
                lhs = lhs - wrap * pw;
                model.add_ge(w - pw, 0.0);
            }
            model.add_ge(lhs, demands.get(links[m - 1]) as f64);
            prev_w = Some(w);
        }
        let mut delay = LinExpr::from(sigma[&links[hops - 1]])
            + demands.get(links[hops - 1]) as f64
            - sigma[&links[0]];
        if let Some(w) = prev_w {
            delay = delay + wrap * w;
        }
        if let Some(deadline) = req.deadline_slots {
            model.add_le(delay, deadline as f64);
        }
    }
    let mut obj = LinExpr::new();
    for &s in sigma.values() {
        obj.add_term(s, 1.0);
    }
    model.set_objective(Sense::Minimize, obj);
    match model.solve_with(&SolverConfig::default()) {
        Ok(_) => true,
        Err(SolveError::Infeasible) => false,
        Err(e) => panic!("reference solve failed: {e}"),
    }
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    Chain,
    Tree,
    Grid,
}

/// A handful of routed flows on a small mesh: aggregate demands, the
/// conflict graph over the demanded links, and one requirement per flow.
/// Routes toward a common sink nest (the reduction's case); the rest
/// cross. Deadlines are absent, loose, or within a few slots of the
/// route's own transmission time — tight enough to flip verdicts.
fn instance(
    seed: u64,
    shape: Shape,
) -> (ConflictGraph, Demands, Vec<PathRequirement>, FrameConfig) {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo: MeshTopology = match shape {
        Shape::Chain => generators::chain(rng.gen_range(3..7)),
        Shape::Tree => {
            let n = rng.gen_range(4..8);
            generators::random_tree(n, &mut rng)
        }
        Shape::Grid => generators::grid(3, 3),
    };
    let n = topo.node_count() as u32;
    let flows = rng.gen_range(1..=4);
    let mut routes = Vec::new();
    let mut demands = Demands::new();
    for _ in 0..flows {
        let src = NodeId(rng.gen_range(0..n));
        let dst = if rng.gen_bool(0.6) {
            NodeId(0)
        } else {
            NodeId(rng.gen_range(0..n))
        };
        if src == dst {
            continue;
        }
        let path = shortest_path(&topo, src, dst).expect("the mesh is connected");
        // Three hops are enough to nest and to cross. With the grid's
        // four-hop routes let in, exhausting the "no" trees of both
        // models takes this suite from 15 s to 10 min in a debug build.
        if path.links().len() > 3 {
            continue;
        }
        let per_link = rng.gen_range(1..=2);
        for &l in path.links() {
            demands.add(l, per_link);
        }
        routes.push(path);
    }
    let frame = FrameConfig::new(rng.gen_range(8..=12), 100);
    let requirements = routes
        .into_iter()
        .map(|path| {
            let transmit: u64 = path.links().iter().map(|&l| demands.get(l) as u64).sum();
            let deadline_slots = match rng.gen_range(0..4) {
                0 => None,
                1 => Some(transmit + frame.slots() as u64 * path.links().len() as u64),
                _ => Some(transmit + rng.gen_range(0..4)),
            };
            PathRequirement {
                path,
                deadline_slots,
            }
        })
        .collect();
    let graph = ConflictGraph::build_for_links(
        &topo,
        demands.links().collect(),
        InterferenceModel::protocol_default(),
    );
    (graph, demands, requirements, frame)
}

/// Checks every `used_slots` of the frame; returns how many were
/// feasible.
fn check(seed: u64, shape: Shape) -> Result<u32, TestCaseError> {
    let (graph, demands, requirements, frame) = instance(seed, shape);
    let solver = SolverConfig::default();
    let mut feasible = 0;
    for used in 1..=frame.slots() {
        let expected = reference_feasible(&graph, &demands, &requirements, frame, used);
        match feasible_order_within(&graph, &demands, &requirements, frame, used, &solver) {
            Ok(sol) => {
                prop_assert!(expected, "used {}: yes where the reference says no", used);
                feasible += 1;
                prop_assert!(sol.schedule.validate(&graph).is_ok());
                prop_assert!(sol.schedule.makespan() <= used);
                prop_assert_eq!(sol.schedule.len(), demands.len());
                for (link, d) in demands.iter() {
                    let range = sol.schedule.slot_range(link).expect("demanded link");
                    prop_assert_eq!(range.len, d);
                }
                let mut worst = 0;
                for req in &requirements {
                    let delay = path_delay_slots(&sol.schedule, &req.path).expect("scheduled");
                    prop_assert!(
                        req.deadline_slots.is_none_or(|deadline| delay <= deadline),
                        "used {}: delay {} past deadline {:?}",
                        used,
                        delay,
                        req.deadline_slots
                    );
                    worst = worst.max(delay);
                }
                prop_assert_eq!(sol.max_delay_slots, worst);
            }
            Err(ScheduleError::Infeasible) => {
                prop_assert!(!expected, "used {}: no where the reference says yes", used);
            }
            Err(e) => panic!("used {used}: {e}"),
        }
    }
    Ok(feasible)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn chains_match_the_reference_model(seed in any::<u64>()) {
        check(seed, Shape::Chain)?;
    }

    #[test]
    fn trees_match_the_reference_model(seed in any::<u64>()) {
        check(seed, Shape::Tree)?;
    }

    #[test]
    fn grids_match_the_reference_model(seed in any::<u64>()) {
        check(seed, Shape::Grid)?;
    }
}

/// The generator reaches both verdicts, instances no region of the frame
/// satisfies (a deadline nothing can meet), and requirement lists the
/// reduction actually shortens.
#[test]
fn the_generator_reaches_every_case() {
    let (mut yes, mut no, mut never, mut nested) = (0, 0, 0, 0);
    for seed in 0..40u64 {
        for shape in [Shape::Chain, Shape::Tree, Shape::Grid] {
            let (_, _, requirements, frame) = instance(seed, shape);
            let feasible = check(seed, shape).expect("equivalent");
            yes += feasible;
            no += frame.slots() - feasible;
            never += u32::from(feasible == 0 && !requirements.is_empty());
            nested += u32::from(requirements.iter().enumerate().any(|(i, r)| {
                requirements.iter().enumerate().any(|(j, by)| {
                    i != j
                        && by
                            .path
                            .links()
                            .windows(r.path.links().len())
                            .any(|run| run == r.path.links())
                })
            }));
        }
    }
    assert!(yes >= 100 && no >= 100, "{yes} yes, {no} no");
    assert!(never >= 3, "{never} instances infeasible at the full frame");
    assert!(nested >= 20, "{nested} instances with a nested route");
}
