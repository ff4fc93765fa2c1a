//! E14 (extension) — multi-rate links: what distance-based rate
//! adaptation does to mesh capacity.
//!
//! Real deployments do not run every link at one rate: short links go
//! fast, long ones fall back. This experiment compares the uniform-rate
//! model (the paper's simplification) against distance-adaptive per-link
//! rates on random unit-disk meshes: admitted VoIP calls, guaranteed
//! minislots, and the spread of per-link minislot capacities. Expected
//! shape: adaptation makes short-link-rich meshes cheaper (fast links
//! carry a call in fewer minislots) but long tree edges become the
//! bottleneck — the guaranteed region tracks the *slowest* loaded link.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wimesh::phy80211::RateTable;
use wimesh::{MeshQos, OrderPolicy, RatePolicy};
use wimesh_sim::traffic::VoipCodec;
use wimesh_topology::{generators, NodeId};

use crate::experiments::common;
use crate::{BenchError, Ctx, Table};

/// Runs the experiment: see the module documentation for what it
/// measures and the figure it regenerates.
pub fn run(ctx: &Ctx) -> Result<(), BenchError> {
    let seeds: &[u64] = if ctx.quick { &[1, 2] } else { &[1, 2, 3, 4, 5] };
    let calls = 40;
    let mut table = Table::new(
        "E14: uniform vs distance-adaptive link rates (random 14-node meshes, G.729 to gateway)",
        &[
            "seed",
            "min_payload_B",
            "max_payload_B",
            "uniform_calls",
            "uniform_slots",
            "adaptive_calls",
            "adaptive_slots",
        ],
    );
    for &seed in seeds {
        let mut rng = StdRng::seed_from_u64(2000 + seed);
        let topo = generators::random_unit_disk(
            generators::UnitDiskParams {
                nodes: 14,
                area_m: 1000.0,
                range_m: 380.0,
                max_attempts: 200,
            },
            &mut rng,
        )
        .ok_or_else(|| BenchError::Other("no connected placement".into()))?;
        let flows =
            common::voip_calls_to_gateway(topo.node_count(), NodeId(0), calls, VoipCodec::G729);

        let uniform = MeshQos::builder(topo.clone()).build()?;
        let u_out = uniform.admit(&flows, OrderPolicy::TreeOrder { gateway: NodeId(0) })?;

        let table_rates = RateTable::new(wimesh::phy80211::PhyStandard::Dot11a, 400.0, 3.0);
        let adaptive = MeshQos::builder(topo.clone())
            .rate_policy(RatePolicy::DistanceAdaptive(table_rates))
            .build()?;
        let a_out = adaptive.admit(&flows, OrderPolicy::TreeOrder { gateway: NodeId(0) })?;

        let payloads: Vec<u32> = topo.link_ids().map(|l| adaptive.link_payload(l)).collect();
        table.row_strings(vec![
            seed.to_string(),
            payloads.iter().min().unwrap().to_string(),
            payloads.iter().max().unwrap().to_string(),
            u_out.admitted.len().to_string(),
            u_out.guaranteed_slots.to_string(),
            a_out.admitted.len().to_string(),
            a_out.guaranteed_slots.to_string(),
        ]);
    }
    table.print();
    ctx.write_csv("e14", &table)
}
