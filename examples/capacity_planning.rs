//! Capacity planning on one mesh: guarantees, multipath, best effort and
//! the slot map.
//!
//! A ring-of-rings operator walk-through:
//!
//! 1. admit guaranteed VoIP with loss-provisioned reservations,
//! 2. fit a big video flow that no single route can carry by splitting it
//!    over edge-disjoint paths,
//! 3. hand the leftover minislots to best-effort bulk transfer, and
//! 4. print the resulting frame as a slot map.
//!
//! ```text
//! cargo run --example capacity_planning
//! ```

use std::time::Duration;

use wimesh::best_effort::fill_best_effort;
use wimesh::multipath::split_over_disjoint_paths;
use wimesh::tdma::{render, Demands};
use wimesh::{FlowSpec, MeshQos, OrderPolicy};
use wimesh_sim::traffic::VoipCodec;
use wimesh_topology::{generators, NodeId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topo = generators::ring(8);
    // Plan for a 5% lossy channel.
    let mesh = MeshQos::builder(topo).loss_provisioning(0.05).build()?;
    println!(
        "ring of 8 routers; minislot carries {} B; planning with 5% loss headroom",
        mesh.model().slot_payload_bytes()
    );

    // --- guaranteed VoIP -----------------------------------------------
    let voip = vec![
        FlowSpec::voip(0, NodeId(3), NodeId(0), VoipCodec::G711),
        FlowSpec::voip(1, NodeId(5), NodeId(0), VoipCodec::G711),
    ];
    // --- a 1.6 Mbit/s video flow that needs two disjoint routes --------
    let video = FlowSpec::guaranteed(
        2,
        NodeId(0),
        NodeId(4),
        1_600_000.0,
        Duration::from_millis(150),
    );
    let single = mesh.admit(
        &[voip.clone(), vec![video.clone()]].concat(),
        OrderPolicy::HopOrder,
    )?;
    println!(
        "\nsingle-path attempt: {} of 3 flows admitted (video rejected: {})",
        single.admitted.len(),
        single.rejected.iter().any(|(f, _)| f.id.0 == 2)
    );

    let mut routed: Vec<(FlowSpec, Option<_>)> = voip
        .iter()
        .map(|f| {
            let p = wimesh_topology::routing::shortest_path(mesh.topology(), f.src, f.dst).ok();
            (f.clone(), p)
        })
        .collect();
    for (sub, path) in split_over_disjoint_paths(mesh.topology(), &video, 2, 100)? {
        routed.push((sub, Some(path)));
    }
    let outcome = mesh.admit_routed(&routed, OrderPolicy::HopOrder)?;
    println!(
        "multipath attempt: {} of {} subflows admitted; guaranteed region {} of {} minislots",
        outcome.admitted.len(),
        routed.len(),
        outcome.guaranteed_slots,
        mesh.model().frame().slots()
    );
    for f in &outcome.admitted {
        println!(
            "  {}: {} hops, <= {:.1} ms",
            f.spec.id,
            f.path.hop_count(),
            f.worst_case_delay.as_secs_f64() * 1e3
        );
    }

    // --- best effort in the leftover -----------------------------------
    let mut be = Demands::new();
    let bulk_path = wimesh_topology::routing::shortest_path(mesh.topology(), NodeId(6), NodeId(2))?;
    for &l in bulk_path.links() {
        be.add(l, 8);
    }
    let alloc = fill_best_effort(mesh.topology(), mesh.interference(), &outcome.schedule, &be)?;
    println!(
        "\nbest-effort bulk transfer over {} hops: {} minislots granted, {} links denied",
        bulk_path.hop_count(),
        alloc.granted_slots(),
        alloc.denied.len()
    );

    println!("\nfinal frame layout (guaranteed + best effort):");
    print!("{}", render::render_schedule(&alloc.schedule, 64));
    Ok(())
}
