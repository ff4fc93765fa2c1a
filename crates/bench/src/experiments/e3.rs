//! E3 — minimum guaranteed minislots S* vs number of VoIP flows.
//!
//! The linear-search optimization of the companion paper: for a growing
//! set of guaranteed flows, the smallest number of minislots whose
//! feasibility MILP admits a deadline-respecting schedule, compared with
//! what the greedy hop-order heuristic consumes and with the clique lower
//! bound.
//!
//! Expected shape: S* grows roughly linearly with flows; spatial reuse
//! keeps it below the serial sum; the heuristic tracks the exact optimum
//! within a small gap.

use wimesh::conflict::{greedy_clique_cover, ConflictGraph};
use wimesh::tdma::Demands;
use wimesh::{FlowSpec, MeshQos, OrderPolicy};
use wimesh_sim::traffic::VoipCodec;
use wimesh_topology::{generators, NodeId};

use crate::experiments::common;
use crate::{BenchError, Ctx, Table};

fn lower_bound(mesh: &MeshQos, outcome: &wimesh::AdmissionOutcome) -> u32 {
    // Same rate aggregation the admission controller applies: demand per
    // link is the ceiling of the *summed* rates crossing it.
    let mut load: std::collections::BTreeMap<wimesh_topology::LinkId, (f64, u64)> =
        Default::default();
    for f in &outcome.admitted {
        for &l in f.path.links() {
            let e = load.entry(l).or_insert((0.0, 0));
            e.0 += f.spec.rate_bps;
            e.1 += f.spec.burst_bytes as u64;
        }
    }
    let mut demands = Demands::new();
    for (l, (r, b)) in load {
        demands.set(l, mesh.model().slots_for_load(r, b));
    }
    if demands.is_empty() {
        return 0;
    }
    let graph = ConflictGraph::build_for_links(
        mesh.topology(),
        demands.links().collect(),
        mesh.interference(),
    );
    greedy_clique_cover(&graph)
        .iter()
        .map(|c| {
            c.iter()
                .map(|&v| demands.get(graph.link_at(v)))
                .sum::<u32>()
        })
        .max()
        .unwrap_or(0)
}

/// Runs the experiment: see the module documentation for what it
/// measures and the figure it regenerates.
pub fn run(ctx: &Ctx) -> Result<(), BenchError> {
    let max_flows = if ctx.quick { 4 } else { 10 };
    let mut table = Table::new(
        "E3: minimum guaranteed minislots vs offered VoIP flows (6-node chain, G.711)",
        &[
            "flows",
            "s_exact",
            "s_hop_order",
            "clique_lb",
            "admitted_exact",
        ],
    );
    let n = 6;
    let topo = generators::chain(n);
    let mesh = MeshQos::builder(topo).build()?;
    for k in 1..=max_flows {
        let flows = common::voip_calls_to_gateway(n, NodeId(0), k, VoipCodec::G711);
        let exact = mesh.admit(&flows, OrderPolicy::ExactMilp)?;
        let heur = mesh.admit(&flows, OrderPolicy::HopOrder)?;
        let lb = lower_bound(&mesh, &exact);
        table.row_strings(vec![
            k.to_string(),
            exact.guaranteed_slots.to_string(),
            heur.guaranteed_slots.to_string(),
            lb.to_string(),
            exact.admitted.len().to_string(),
        ]);
    }
    // A grid instance for the spatial-reuse contrast.
    let topo = generators::grid(3, 3);
    let mesh = MeshQos::builder(topo).build()?;
    let mut grid_table = Table::new(
        "E3b: same sweep on a 3x3 grid (gateway at a corner)",
        &[
            "flows",
            "s_exact",
            "s_hop_order",
            "clique_lb",
            "admitted_exact",
        ],
    );
    for k in 1..=max_flows.min(8) {
        let flows: Vec<FlowSpec> = (0..k)
            .map(|i| {
                let srcs = [8u32, 6, 2, 7, 5, 4, 3, 1];
                FlowSpec::voip(
                    i as u32,
                    NodeId(srcs[i % srcs.len()]),
                    NodeId(0),
                    VoipCodec::G711,
                )
            })
            .collect();
        let exact = mesh.admit(&flows, OrderPolicy::ExactMilp)?;
        let heur = mesh.admit(&flows, OrderPolicy::HopOrder)?;
        let lb = lower_bound(&mesh, &exact);
        grid_table.row_strings(vec![
            k.to_string(),
            exact.guaranteed_slots.to_string(),
            heur.guaranteed_slots.to_string(),
            lb.to_string(),
            exact.admitted.len().to_string(),
        ]);
    }
    table.print();
    grid_table.print();
    ctx.write_csv("e3", &table)?;
    ctx.write_csv("e3b", &grid_table)
}
