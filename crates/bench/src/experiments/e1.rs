//! E1 — VoIP capacity vs chain length: emulated TDMA vs native DCF.
//!
//! Reconstruction of the paper's headline figure: the number of VoIP
//! calls a multi-hop chain can carry at toll quality. TDMA capacity is
//! what the admission controller accepts (and is *guaranteed*); DCF
//! capacity is found empirically by loading calls until quality breaks.
//!
//! Expected shape: TDMA capacity degrades gracefully with hop count
//! (spatial reuse caps the per-clique load), while DCF collapses —
//! contention and hidden terminals destroy quality several hops earlier.

use wimesh::{MeshQos, OrderPolicy};
use wimesh_sim::traffic::VoipCodec;
use wimesh_topology::{generators, NodeId};

use crate::experiments::common;
use crate::{BenchError, Ctx, Table};

/// Runs the experiment: see the module documentation for what it
/// measures and the figure it regenerates.
pub fn run(ctx: &Ctx) -> Result<(), BenchError> {
    let lengths: &[usize] = if ctx.quick {
        &[3, 5]
    } else {
        &[3, 4, 5, 6, 7, 8, 9]
    };
    let sim_time = if ctx.quick {
        std::time::Duration::from_secs(5)
    } else {
        std::time::Duration::from_secs(20)
    };
    let max_calls = if ctx.quick { 24 } else { 100 };

    let mut table = Table::new(
        "E1: VoIP capacity vs chain length (G.729, gateway at node 0)",
        &["nodes", "hops", "tdma_calls", "dcf_calls", "tdma/dcf"],
    );
    for (i, &n) in lengths.iter().enumerate() {
        let topo = generators::chain(n);
        let mesh = MeshQos::builder(topo).build()?;
        let flows = common::voip_calls_to_gateway(n, NodeId(0), max_calls, VoipCodec::G729);
        let tdma =
            common::tdma_capacity(&mesh, &flows, OrderPolicy::TreeOrder { gateway: NodeId(0) });
        if i == 0 {
            // Sanity anchor: on the smallest chain the polynomial tree
            // order must match the exact MILP order search (this also
            // exercises the solver when tracing with --trace).
            let k = flows.len().min(8);
            let exact = common::tdma_capacity(&mesh, &flows[..k], OrderPolicy::ExactMilp);
            let tree = common::tdma_capacity(
                &mesh,
                &flows[..k],
                OrderPolicy::TreeOrder { gateway: NodeId(0) },
            );
            if exact != tree {
                return Err(BenchError::Other(format!(
                    "exact MILP capacity {exact} != tree order capacity {tree} on {n}-chain"
                )));
            }
            println!("  (cross-check: exact MILP = tree order = {exact} calls on the {n}-chain)");
        }
        let dcf = common::dcf_capacity(&mesh, &flows, sim_time, 1);
        let ratio = if dcf > 0 {
            format!("{:.2}", tdma as f64 / dcf as f64)
        } else {
            "inf".to_string()
        };
        table.row_strings(vec![
            n.to_string(),
            (n - 1).to_string(),
            tdma.to_string(),
            dcf.to_string(),
            ratio,
        ]);
    }
    table.print();
    ctx.write_csv("e1", &table)
}
