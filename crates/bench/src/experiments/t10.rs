//! T10 — admission-control summary table on a mixed workload.
//!
//! A 3x4 grid with a corner gateway carries a growing mix of guaranteed
//! VoIP calls and best-effort transfers. The table records offered vs
//! admitted, the guaranteed-region size, the residual best-effort
//! capacity, and — decisive for the paper's claim — the number of
//! deadline violations observed in packet simulation of the admitted set,
//! which must be zero on every row.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wimesh::{FlowSpec, MeshQos, OrderPolicy};
use wimesh_sim::traffic::VoipCodec;
use wimesh_topology::{generators, NodeId};

use crate::experiments::common;
use crate::{BenchError, Ctx, Table};

/// Runs the experiment: see the module documentation for what it
/// measures and the figure it regenerates.
pub fn run(ctx: &Ctx) -> Result<(), BenchError> {
    let offered: &[usize] = if ctx.quick {
        &[2, 6]
    } else {
        &[2, 4, 6, 8, 12, 16, 24]
    };
    let sim_time = if ctx.quick {
        Duration::from_secs(10)
    } else {
        Duration::from_secs(30)
    };
    let topo = generators::grid(3, 4);
    let node_count = topo.node_count();
    let mesh = MeshQos::builder(topo).build()?;
    let gateway = NodeId(0);

    let mut table = Table::new(
        "T10: admission summary, 3x4 grid, mixed G.711 VoIP + best effort",
        &[
            "offered_voip",
            "admitted_voip",
            "offered_be",
            "admitted_be",
            "guaranteed_slots",
            "be_slots",
            "violations",
        ],
    );
    for &k in offered {
        let mut flows = common::voip_calls_to_gateway(node_count, gateway, k, VoipCodec::G711);
        // One best-effort download per 4 calls.
        let be_count = (k / 4).max(1);
        for b in 0..be_count {
            flows.push(FlowSpec::best_effort(
                (1000 + b) as u32,
                gateway,
                NodeId((node_count - 1 - b % 3) as u32),
                400_000.0,
            ));
        }
        let outcome = mesh.admit(&flows, OrderPolicy::HopOrder)?;
        let admitted_voip = outcome
            .admitted
            .iter()
            .filter(|f| f.spec.is_guaranteed())
            .count();
        let admitted_be = outcome.admitted.len() - admitted_voip;

        // Packet-simulate the admitted set and count bound violations.
        let mut rng = StdRng::seed_from_u64(10 + k as u64);
        let stats = mesh.simulate_tdma(&outcome, common::voip_source, sim_time, 200, &mut rng)?;
        let violations = outcome
            .admitted
            .iter()
            .zip(&stats)
            .filter(|(f, s)| {
                f.spec.is_guaranteed() && (s.dropped() > 0 || s.max_delay() > f.worst_case_delay)
            })
            .count();

        table.row_strings(vec![
            k.to_string(),
            admitted_voip.to_string(),
            be_count.to_string(),
            admitted_be.to_string(),
            outcome.guaranteed_slots.to_string(),
            outcome.best_effort_slots().to_string(),
            violations.to_string(),
        ]);
        if violations > 0 {
            return Err(BenchError::Other(format!(
                "T10: {violations} deadline violations at k={k} — guarantee broken"
            )));
        }
    }
    table.print();
    ctx.write_csv("t10", &table)
}
