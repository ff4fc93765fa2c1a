//! VoIP over a gateway tree: the canonical WiMAX-mesh deployment.
//!
//! Builds a binary-tree mesh rooted at an Internet gateway, loads it with
//! VoIP calls from every leaf, admits them with the polynomial tree
//! ordering, and compares the emulated-TDMA service against native 802.11
//! DCF on the very same traffic.
//!
//! ```text
//! cargo run --example voip_gateway
//! ```

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wimesh::{FlowSpec, MeshQos, OrderPolicy};
use wimesh_phy80211::dcf::DcfConfig;
use wimesh_sim::traffic::{TrafficSource, VoipCodec, VoipSource};
use wimesh_topology::generators;
use wimesh_topology::NodeId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 15-node binary tree, gateway at the root.
    let topo = generators::binary_tree(3);
    let gateway = NodeId(0);
    let mesh = MeshQos::builder(topo).build()?;

    // One G.729 call from every leaf (nodes 7..=14) to the gateway.
    let flows: Vec<FlowSpec> = (7u32..=14)
        .map(|n| FlowSpec::voip(n, NodeId(n), gateway, VoipCodec::G729))
        .collect();

    let outcome = mesh.admit(&flows, OrderPolicy::TreeOrder { gateway })?;
    println!(
        "admitted {}/{} leaf calls; guaranteed region {} of {} minislots",
        outcome.admitted.len(),
        flows.len(),
        outcome.guaranteed_slots,
        mesh.model().frame().slots()
    );
    for (spec, why) in &outcome.rejected {
        println!("  rejected flow {}: {why:?}", spec.id);
    }

    let make_source =
        |_: &FlowSpec| -> Box<dyn TrafficSource> { Box::new(VoipSource::new(VoipCodec::G729)) };

    // Emulated TDMA.
    let mut rng = StdRng::seed_from_u64(7);
    let tdma = mesh.simulate_tdma(
        &outcome,
        make_source,
        Duration::from_secs(60),
        200,
        &mut rng,
    )?;

    // Native DCF, same flows and routes.
    let mut rng = StdRng::seed_from_u64(7);
    let dcf = mesh.simulate_dcf(
        &flows,
        make_source,
        DcfConfig::default(),
        Duration::from_secs(60),
        &mut rng,
    );

    println!(
        "\n{:<6} {:>12} {:>12} {:>12} {:>12} {:>9}",
        "flow", "tdma-mean", "tdma-max", "dcf-mean", "dcf-p99", "dcf-loss"
    );
    for (i, f) in outcome.admitted.iter().enumerate() {
        let t = &tdma[i];
        let d = dcf
            .iter()
            .find(|(spec, _)| spec.id == f.spec.id)
            .map(|(_, s)| s);
        let ms = |x: Duration| format!("{:.2} ms", x.as_secs_f64() * 1e3);
        println!(
            "{:<6} {:>12} {:>12} {:>12} {:>12} {:>8.2}%",
            f.spec.id.to_string(),
            ms(t.mean_delay().unwrap_or_default()),
            ms(t.max_delay()),
            d.and_then(|s| s.mean_delay()).map(ms).unwrap_or_default(),
            d.and_then(|s| s.delay_quantile(0.99))
                .map(ms)
                .unwrap_or_default(),
            d.map(|s| s.loss_rate() * 100.0).unwrap_or(0.0),
        );
        assert!(t.max_delay() <= f.worst_case_delay);
    }
    println!("\nemulated TDMA keeps every call within its bound; DCF does not promise anything");
    Ok(())
}
