//! E9 — scaling of the exact order MILP (solver ablation).
//!
//! The min-max delay order problem is NP-complete; this experiment
//! measures what our from-scratch branch-and-bound pays for the exact
//! optimum as the number of order binaries grows, and how close the
//! polynomial hop-order heuristic stays to it. The optimum (`exact_delay`)
//! is a property of the instance and is asserted against the pinned
//! value; node counts and times are properties of the solver (which
//! optimal vertex each LP relaxation returns decides the next branching
//! variable) and are only reported. The sweep ends at 41 binaries: it
//! says nothing about where the exponential wall is beyond that.

use std::time::Instant;

use wimesh::conflict::{ConflictGraph, InterferenceModel};
use wimesh::milp::SolverConfig;
use wimesh::tdma::milp::min_max_delay_order;
use wimesh::tdma::{delay, order, schedule_from_order, Demands, FrameConfig};
use wimesh_topology::routing::{shortest_path, Path};
use wimesh_topology::{generators, MeshTopology, NodeId};

use crate::{BenchError, Ctx, Table};

/// Builds a multi-flow chain instance: `k` paths crossing a chain in
/// alternating directions.
fn instance(nodes: usize, k: usize) -> (MeshTopology, Vec<Path>, Demands) {
    let topo = generators::chain(nodes);
    let last = (nodes - 1) as u32;
    let mut paths = Vec::new();
    let mut demands = Demands::new();
    for i in 0..k {
        let (a, b) = if i % 2 == 0 { (0, last) } else { (last, 0) };
        let p = shortest_path(&topo, NodeId(a), NodeId(b)).expect("chain is connected");
        for &l in p.links() {
            demands.add(l, 1);
        }
        paths.push(p);
    }
    (topo, paths, demands)
}

/// Runs the experiment: see the module documentation for what it
/// measures and the figure it regenerates.
pub fn run(ctx: &Ctx) -> Result<(), BenchError> {
    // (nodes, flows, the optimum: max pipeline delay in minislots)
    let cases: &[(usize, usize, u64)] = if ctx.quick {
        &[(4, 1, 3), (5, 2, 4), (6, 2, 5)]
    } else {
        &[
            (4, 1, 3),
            (5, 1, 4),
            (6, 1, 5),
            (5, 2, 4),
            (6, 2, 5),
            (7, 2, 6),
            (6, 3, 10),
            (7, 3, 12),
            (8, 3, 14),
            (8, 4, 14),
        ]
    };
    let frame = FrameConfig::new(96, 250);
    let mut table = Table::new(
        "E9: exact order-MILP scaling vs hop-order heuristic (alternating chain flows)",
        &[
            "nodes",
            "flows",
            "binaries",
            "bb_nodes",
            "exact_ms",
            "exact_delay",
            "heur_delay",
            "gap",
        ],
    );
    for &(nodes, k, optimum) in cases {
        let (topo, paths, demands) = instance(nodes, k);
        let graph = ConflictGraph::build_for_links(
            &topo,
            demands.links().collect(),
            InterferenceModel::protocol_default(),
        );
        let binaries = graph
            .edges()
            .filter(|&(i, j)| {
                demands.get(graph.link_at(i)) > 0 && demands.get(graph.link_at(j)) > 0
            })
            .count();

        let config = SolverConfig::with_max_nodes(100_000);
        let start = Instant::now();
        let exact = min_max_delay_order(&graph, &demands, &paths, frame, &config);
        let elapsed = start.elapsed();

        let ord = order::hop_order(&graph, &paths);
        let heur_sched = schedule_from_order(&graph, &demands, &ord, frame)?;
        let heur_delay = paths
            .iter()
            .map(|p| delay::path_delay_slots(&heur_sched, p).expect("scheduled"))
            .max()
            .expect("non-empty");

        // A solve that gives up has no optimum to compare: an error too.
        let sol = exact?;
        if sol.max_delay_slots != optimum {
            return Err(BenchError::Other(format!(
                "E9 chain({nodes}) x {k} flows: exact delay {} is not the pinned optimum {optimum}",
                sol.max_delay_slots
            )));
        }
        let gap = heur_delay as f64 / sol.max_delay_slots.max(1) as f64;
        table.row_strings(vec![
            nodes.to_string(),
            k.to_string(),
            binaries.to_string(),
            sol.nodes_explored.to_string(),
            format!("{:.1}", elapsed.as_secs_f64() * 1e3),
            sol.max_delay_slots.to_string(),
            heur_delay.to_string(),
            format!("{gap:.2}"),
        ]);
    }
    table.print();
    ctx.write_csv("e9", &table)
}
