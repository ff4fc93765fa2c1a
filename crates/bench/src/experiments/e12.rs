//! E12 (ablation) — burst-aware reservation sizing.
//!
//! The admission controller sizes each link's reservation for
//! `sum(sigma) + sum(rho) * T` (burst plus rate). This ablation re-runs
//! the T10 workload with the burst term removed (`sigma = 0`,
//! average-rate provisioning) and counts the delay-bound violations that
//! reappear in packet simulation — the failure mode that motivated the
//! design (see EXPERIMENTS.md, T10 note). Expected shape: zero violations
//! with bursts provisioned; violations and/or drops appear without, at
//! loads where many phase-aligned sources share a link.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wimesh::{FlowSpec, MeshQos, OrderPolicy};
use wimesh_sim::traffic::VoipCodec;
use wimesh_topology::{generators, NodeId};

use crate::experiments::common;
use crate::{BenchError, Ctx, Table};

fn violations(
    mesh: &MeshQos,
    flows: &[FlowSpec],
    sim_time: Duration,
    seed: u64,
) -> Result<(usize, usize, u32), BenchError> {
    let outcome = mesh.admit(flows, OrderPolicy::HopOrder)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let stats = mesh.simulate_tdma(&outcome, common::voip_source, sim_time, 200, &mut rng)?;
    let bad = outcome
        .admitted
        .iter()
        .zip(&stats)
        .filter(|(f, s)| {
            f.spec.is_guaranteed() && (s.dropped() > 0 || s.max_delay() > f.worst_case_delay)
        })
        .count();
    Ok((outcome.admitted.len(), bad, outcome.guaranteed_slots))
}

/// Runs the experiment: see the module documentation for what it
/// measures and the figure it regenerates.
pub fn run(ctx: &Ctx) -> Result<(), BenchError> {
    let offered: &[usize] = if ctx.quick {
        &[8, 16]
    } else {
        &[4, 8, 12, 16, 20, 24]
    };
    let sim_time = if ctx.quick {
        Duration::from_secs(10)
    } else {
        Duration::from_secs(30)
    };
    let topo = generators::grid(3, 4);
    let node_count = topo.node_count();
    let mesh = MeshQos::builder(topo).build()?;

    let mut table = Table::new(
        "E12: burst-provisioning ablation (3x4 grid, G.711 to gateway, 30 s sims)",
        &[
            "offered",
            "with_burst_slots",
            "with_burst_violations",
            "no_burst_slots",
            "no_burst_violations",
        ],
    );
    let mut any_ablated_violation = false;
    for &k in offered {
        let with_burst = common::voip_calls_to_gateway(node_count, NodeId(0), k, VoipCodec::G711);
        // Ablated: same flows, burst term zeroed (1 byte is the minimum).
        let no_burst: Vec<FlowSpec> = with_burst.iter().map(|f| f.clone().with_burst(1)).collect();
        let (_, v1, s1) = violations(&mesh, &with_burst, sim_time, 12)?;
        let (_, v2, s2) = violations(&mesh, &no_burst, sim_time, 12)?;
        any_ablated_violation |= v2 > 0;
        table.row_strings(vec![
            k.to_string(),
            s1.to_string(),
            v1.to_string(),
            s2.to_string(),
            v2.to_string(),
        ]);
        if v1 > 0 {
            return Err(BenchError::Other(format!(
                "burst-provisioned admission violated its bound at k={k}"
            )));
        }
    }
    table.print();
    if any_ablated_violation {
        println!("  -> average-rate provisioning breaks the guarantee; sigma+rho*T does not");
    } else {
        println!("  -> note: no ablated violation observed at these loads/seeds; the margin");
        println!("     narrows with load (see slots columns) even when no packet crosses it");
    }
    ctx.write_csv("e12", &table)
}
