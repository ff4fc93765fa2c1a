//! E2 — end-to-end delay CDF on a loaded chain: TDMA vs DCF.
//!
//! A 6-hop chain carrying several VoIP calls plus, for DCF, the same
//! calls competing with saturating best-effort cross-traffic (the load
//! TDMA simply schedules around). The emulated TDMA CDF is a near-step
//! bounded by the admission-time worst case; the DCF CDF grows a heavy
//! tail that crosses the deadline.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wimesh::phy80211::dcf::DcfConfig;
use wimesh::sim::traffic::{CbrSource, TrafficSource, VoipCodec, VoipSource};
use wimesh::{FlowSpec, MeshQos, OrderPolicy};
use wimesh_topology::{generators, NodeId};

use crate::experiments::common::ms;
use crate::{BenchError, Ctx, Table};

/// Runs the experiment: see the module documentation for what it
/// measures and the figure it regenerates.
pub fn run(ctx: &Ctx) -> Result<(), BenchError> {
    let n = 7; // 6 hops
    let sim_time = if ctx.quick {
        Duration::from_secs(10)
    } else {
        Duration::from_secs(60)
    };
    let topo = generators::chain(n);
    let mesh = MeshQos::builder(topo).build()?;

    // Four G.711 calls from the far end to the gateway.
    let calls: Vec<FlowSpec> = (0..4)
        .map(|i| {
            FlowSpec::voip(
                i,
                NodeId((n - 1 - i as usize % 2) as u32),
                NodeId(0),
                VoipCodec::G711,
            )
        })
        .collect();
    let outcome = mesh.admit(&calls, OrderPolicy::HopOrder)?;
    let bound = outcome
        .admitted
        .iter()
        .map(|f| f.worst_case_delay)
        .max()
        .unwrap_or_default();

    let voip =
        |_: &FlowSpec| -> Box<dyn TrafficSource> { Box::new(VoipSource::new(VoipCodec::G711)) };
    let mut rng = StdRng::seed_from_u64(2);
    let tdma_stats = mesh.simulate_tdma(&outcome, voip, sim_time, 200, &mut rng)?;

    // DCF: same calls plus two saturating 1500-B cross flows.
    let mut dcf_flows = calls.clone();
    dcf_flows.push(FlowSpec::best_effort(
        100,
        NodeId(0),
        NodeId((n - 1) as u32),
        4_000_000.0,
    ));
    dcf_flows.push(FlowSpec::best_effort(
        101,
        NodeId((n - 1) as u32),
        NodeId(0),
        4_000_000.0,
    ));
    let make_source = |spec: &FlowSpec| -> Box<dyn TrafficSource> {
        if spec.id.0 < 100 {
            Box::new(VoipSource::new(VoipCodec::G711))
        } else {
            Box::new(CbrSource::new(Duration::from_millis(3), 1500))
        }
    };
    let mut rng = StdRng::seed_from_u64(2);
    let dcf = mesh.simulate_dcf(
        &dcf_flows,
        make_source,
        DcfConfig {
            queue_capacity: 50,
            ..DcfConfig::default()
        },
        sim_time,
        &mut rng,
    );

    // Merge call histograms into one CDF per MAC.
    let mut table = Table::new(
        "E2: one-way delay CDF, 6-hop chain with 4 G.711 calls (DCF adds saturating cross-traffic)",
        &["delay_ms", "cdf_tdma", "cdf_dcf_voip"],
    );
    let checkpoints_ms: &[u64] = &[
        1, 2, 5, 10, 15, 20, 30, 40, 60, 80, 120, 200, 400, 800, 1500,
    ];
    for &ck in checkpoints_ms {
        let at = Duration::from_millis(ck);
        let cdf_of = |stats: &[&wimesh::sim::FlowStats]| {
            let (mut num, mut den) = (0.0, 0.0);
            for s in stats {
                let count = s.delivered() as f64;
                num += s.histogram().cdf_at(at) * count;
                den += count;
            }
            if den > 0.0 {
                num / den
            } else {
                0.0
            }
        };
        let tdma_refs: Vec<&wimesh::sim::FlowStats> = tdma_stats.iter().collect();
        let dcf_refs: Vec<&wimesh::sim::FlowStats> = dcf
            .iter()
            .filter(|(spec, _)| spec.id.0 < 100)
            .map(|(_, s)| s)
            .collect();
        table.row_strings(vec![
            ck.to_string(),
            format!("{:.4}", cdf_of(&tdma_refs)),
            format!("{:.4}", cdf_of(&dcf_refs)),
        ]);
    }
    table.print();
    println!(
        "  tdma worst-case bound: {} ms (all mass must sit left of it)",
        ms(bound)
    );
    let dcf_loss: f64 = dcf
        .iter()
        .filter(|(spec, _)| spec.id.0 < 100)
        .map(|(_, s)| s.loss_rate())
        .fold(0.0, f64::max);
    println!("  dcf voip worst loss under load: {:.1}%", dcf_loss * 100.0);
    ctx.write_csv("e2", &table)
}
