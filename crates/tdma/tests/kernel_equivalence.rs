//! The longest-path kernel behind [`schedule_from_order`] against a
//! reference Bellman–Ford: the lookup-per-edge relaxation loop the kernel
//! replaced, kept here as the oracle. Start times, makespans and errors
//! must be identical on random conflict graphs under random, total and
//! deliberately contradictory orders, and every reported cycle must be a
//! real directed cycle of the order.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use wimesh_conflict::{ConflictGraph, InterferenceModel};
use wimesh_tdma::{
    min_slots_for_order, order, schedule_from_order, Demands, FrameConfig, ScheduleError,
    TransmissionOrder,
};
use wimesh_topology::{generators, LinkId, NodeId};

/// Reference: `n + 1` rounds of relaxation over the order's difference
/// constraints, one `order.before` lookup per conflict edge. Returns the
/// start time of every vertex and the makespan.
fn reference_starts(
    graph: &ConflictGraph,
    demands: &Demands,
    order: &TransmissionOrder,
) -> Result<(Vec<i64>, i64), ScheduleError> {
    for link in demands.links() {
        if graph.index_of(link).is_none() {
            return Err(ScheduleError::LinkNotInGraph(link));
        }
    }
    let n = graph.vertex_count();
    let demand_of = |i: usize| demands.get(graph.link_at(i)) as i64;
    let mut edges = Vec::new();
    for (i, j) in graph.edges() {
        if demand_of(i) == 0 || demand_of(j) == 0 {
            continue;
        }
        let before = order.before(i, j).ok_or_else(|| {
            ScheduleError::SolverFailed(format!(
                "order missing for conflicting links {} and {}",
                graph.link_at(i),
                graph.link_at(j)
            ))
        })?;
        if before {
            edges.push((i, j, demand_of(i)));
        } else {
            edges.push((j, i, demand_of(j)));
        }
    }
    let mut sigma = vec![0i64; n];
    let mut pred: Vec<Option<usize>> = vec![None; n];
    let mut stuck = None;
    for round in 0..=n {
        let mut changed = None;
        for &(u, v, w) in &edges {
            if sigma[u] + w > sigma[v] {
                sigma[v] = sigma[u] + w;
                pred[v] = Some(u);
                changed = Some(v);
            }
        }
        match changed {
            None => break,
            Some(v) if round == n => stuck = Some(v),
            Some(_) => {}
        }
    }
    if let Some(mut v) = stuck {
        for _ in 0..n {
            v = pred[v].expect("relaxed vertices have predecessors");
        }
        let mut cycle = vec![v];
        let mut cur = pred[v].expect("on cycle");
        while cur != v {
            cycle.push(cur);
            cur = pred[cur].expect("on cycle");
        }
        cycle.reverse();
        return Err(ScheduleError::OrderCycle {
            cycle: cycle.into_iter().map(|i| graph.link_at(i)).collect(),
        });
    }
    let makespan = (0..n).map(|i| sigma[i] + demand_of(i)).max().unwrap_or(0);
    Ok((sigma, makespan))
}

/// How the order of an instance is made.
#[derive(Debug, Clone, Copy)]
enum OrderKind {
    /// A random permutation of the links: total, hence acyclic.
    Permutation,
    /// An independent coin per conflict edge: cyclic on most graphs with
    /// a triangle.
    RandomBits,
    /// A permutation order with one triangle turned rock-paper-scissors.
    PlantedCycle,
    /// A permutation order with one decided pair removed.
    MissingBit,
}

/// A conflict graph over a random connected mesh (tree plus chords, or a
/// grid), with demand on a random subset of its links — the rest are
/// zero-demand vertices the kernel must pass over.
fn instance(seed: u64, kind: OrderKind) -> (ConflictGraph, Demands, TransmissionOrder) {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = if rng.gen_bool(0.3) {
        generators::grid(rng.gen_range(2..5), rng.gen_range(2..5))
    } else {
        let n = rng.gen_range(3..12);
        let mut topo = generators::random_tree(n, &mut rng);
        for _ in 0..rng.gen_range(0..4) {
            let a = NodeId(rng.gen_range(0..n as u32));
            let b = NodeId(rng.gen_range(0..n as u32));
            if a != b && topo.link_between(a, b).is_none() {
                topo.add_bidirectional(a, b).expect("checked");
            }
        }
        topo
    };
    let mut links: Vec<LinkId> = topo.link_ids().collect();
    links.shuffle(&mut rng);
    links.truncate(rng.gen_range(1..=links.len()));
    let mut demands = Demands::new();
    for &l in &links {
        if rng.gen_bool(0.8) {
            demands.set(l, rng.gen_range(1..6));
        }
    }
    let graph = ConflictGraph::build_for_links(&topo, links, InterferenceModel::protocol_default());

    let mut ord = order::random_order(&graph, &mut rng);
    match kind {
        OrderKind::Permutation => {}
        OrderKind::RandomBits => {
            ord = TransmissionOrder::new();
            for (i, j) in graph.edges() {
                ord.set(i, j, rng.gen_bool(0.5));
            }
        }
        OrderKind::PlantedCycle => {
            let triangle = graph.edges().find_map(|(i, j)| {
                let k = *graph
                    .neighbors(j)
                    .iter()
                    .find(|&&k| k > j && graph.neighbors(i).binary_search(&k).is_ok())?;
                Some((i, j, k))
            });
            if let Some((i, j, k)) = triangle {
                ord.set(i, j, true);
                ord.set(j, k, true);
                ord.set(k, i, true);
            }
        }
        OrderKind::MissingBit => {
            let decided: Vec<_> = ord.iter().collect();
            if !decided.is_empty() {
                let drop = rng.gen_range(0..decided.len());
                ord = TransmissionOrder::new();
                for (k, &((i, j), bit)) in decided.iter().enumerate() {
                    if k != drop {
                        ord.set(i, j, bit);
                    }
                }
            }
        }
    }
    (graph, demands, ord)
}

/// Asserts that `cycle` is a directed cycle of `order`: consecutive links
/// (and last to first) conflict, with the earlier one ordered first.
fn assert_real_cycle(
    graph: &ConflictGraph,
    order: &TransmissionOrder,
    cycle: &[LinkId],
) -> Result<(), TestCaseError> {
    prop_assert!(cycle.len() >= 3, "a cycle of {} link(s)", cycle.len());
    for (k, &a) in cycle.iter().enumerate() {
        let b = cycle[(k + 1) % cycle.len()];
        prop_assert!(graph.are_in_conflict(a, b), "{a} and {b} do not conflict");
        prop_assert_eq!(order.link_before(graph, a, b), Some(true));
    }
    let mut distinct = cycle.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    prop_assert_eq!(distinct.len(), cycle.len(), "a link repeats on the cycle");
    Ok(())
}

fn check(seed: u64, kind: OrderKind) -> Result<(), TestCaseError> {
    let (graph, demands, ord) = instance(seed, kind);
    let frame = FrameConfig::new((demands.total() as u32).max(1), 100);
    let built = schedule_from_order(&graph, &demands, &ord, frame);
    let needed = min_slots_for_order(&graph, &demands, &ord);
    match reference_starts(&graph, &demands, &ord) {
        Ok((sigma, makespan)) => {
            let schedule = built.expect("the reference found start times");
            prop_assert_eq!(needed, Ok(makespan as u32));
            prop_assert_eq!(schedule.makespan(), makespan as u32);
            prop_assert_eq!(schedule.len(), demands.len());
            for (link, d) in demands.iter() {
                let range = schedule
                    .slot_range(link)
                    .expect("demanded links are scheduled");
                let i = graph.index_of(link).expect("a vertex");
                prop_assert_eq!((range.start as i64, range.len), (sigma[i], d));
            }
            prop_assert!(schedule.validate(&graph).is_ok());
            if makespan > 1 {
                let short = FrameConfig::new(makespan as u32 - 1, 100);
                prop_assert_eq!(
                    schedule_from_order(&graph, &demands, &ord, short),
                    Err(ScheduleError::FrameTooShort {
                        needed: makespan as u32,
                        available: makespan as u32 - 1,
                    })
                );
            }
        }
        Err(expected) => {
            if let ScheduleError::OrderCycle { cycle } = &expected {
                assert_real_cycle(&graph, &ord, cycle)?;
            }
            prop_assert_eq!(built.as_ref().err(), Some(&expected));
            prop_assert_eq!(needed.as_ref().err(), Some(&expected));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn permutation_orders_match_the_reference(seed in any::<u64>()) {
        check(seed, OrderKind::Permutation)?;
    }

    #[test]
    fn random_bit_orders_match_the_reference(seed in any::<u64>()) {
        check(seed, OrderKind::RandomBits)?;
    }

    #[test]
    fn planted_cycles_are_reported_like_the_reference(seed in any::<u64>()) {
        check(seed, OrderKind::PlantedCycle)?;
    }

    #[test]
    fn missing_bits_are_reported_like_the_reference(seed in any::<u64>()) {
        check(seed, OrderKind::MissingBit)?;
    }
}

/// The outcomes the properties above are meant to cover all occur: a
/// generator that only ever produced schedulable orders would prove
/// nothing about the fallback.
#[test]
fn the_generators_reach_every_outcome() {
    // (schedulable, cyclic, missing a bit) over 200 seeds of one kind.
    let tally = |kind| {
        let mut seen = (0, 0, 0);
        for seed in 0..200u64 {
            let (graph, demands, ord) = instance(seed, kind);
            match reference_starts(&graph, &demands, &ord) {
                Ok(_) => seen.0 += 1,
                Err(ScheduleError::OrderCycle { .. }) => seen.1 += 1,
                Err(ScheduleError::SolverFailed(_)) => seen.2 += 1,
                Err(other) => panic!("unexpected reference error: {other:?}"),
            }
        }
        seen
    };
    assert_eq!(tally(OrderKind::Permutation), (200, 0, 0));
    let (fits, cyclic, _) = tally(OrderKind::RandomBits);
    assert!(fits >= 20 && cyclic >= 20, "{fits} fit, {cyclic} cyclic");
    assert!(tally(OrderKind::PlantedCycle).1 >= 50);
    assert!(tally(OrderKind::MissingBit).2 >= 50);
}

#[test]
fn unknown_demand_links_are_reported_like_the_reference() {
    let (graph, mut demands, ord) = instance(7, OrderKind::Permutation);
    demands.set(LinkId(9_999), 2);
    let expected = reference_starts(&graph, &demands, &ord).expect_err("link has no vertex");
    assert_eq!(expected, ScheduleError::LinkNotInGraph(LinkId(9_999)));
    assert_eq!(min_slots_for_order(&graph, &demands, &ord), Err(expected));
}
