//! Integration: the full pipeline from topology to validated schedule,
//! across topology families and order policies.

use std::time::Duration;

use wimesh::conflict::ConflictGraph;
use wimesh::tdma::{delay, Demands};
use wimesh::{FlowSpec, MeshQos, OrderPolicy, QosError};
use wimesh_emu::EmulationParams;
use wimesh_sim::traffic::VoipCodec;
use wimesh_topology::{generators, MeshTopology, NodeId};

#[path = "../crates/core/tests/support/mod.rs"]
mod support;

fn mesh_of(topo: MeshTopology) -> MeshQos {
    MeshQos::builder(topo)
        .build()
        .expect("default emulation params are valid")
}

/// The admission outcome's schedule must certify and its delay bounds
/// must match a recomputation from scratch.
fn validate_outcome(mesh: &MeshQos, outcome: &wimesh::AdmissionOutcome) {
    if let Err(e) = support::certify(mesh, outcome) {
        panic!("admission published an uncertifiable schedule: {e}");
    }
    for f in &outcome.admitted {
        // The reported worst-case bound is internally consistent.
        let pipeline = delay::path_delay_slots(&outcome.schedule, &f.path).unwrap();
        assert!(
            f.worst_case_delay >= mesh.model().frame().slots_to_duration(pipeline),
            "bound below the pipeline delay"
        );
        if let Some(deadline) = f.spec.deadline {
            assert!(
                f.worst_case_delay <= deadline,
                "deadline violated at admission"
            );
        }
    }
    assert_eq!(outcome.guaranteed_slots, outcome.schedule.makespan());
}

#[test]
fn chain_all_policies() {
    let mesh = mesh_of(generators::chain(6));
    let flows: Vec<FlowSpec> = (0..3)
        .map(|i| FlowSpec::voip(i, NodeId(5 - i), NodeId(0), VoipCodec::G729))
        .collect();
    for policy in [
        OrderPolicy::HopOrder,
        OrderPolicy::TreeOrder { gateway: NodeId(0) },
        OrderPolicy::ExactMilp,
    ] {
        let outcome = mesh.admit(&flows, policy).unwrap();
        assert_eq!(outcome.admitted.len(), 3, "policy {policy:?}");
        validate_outcome(&mesh, &outcome);
    }
}

#[test]
fn grid_cross_traffic() {
    let mesh = mesh_of(generators::grid(3, 3));
    let flows = vec![
        FlowSpec::voip(0, NodeId(6), NodeId(2), VoipCodec::G711),
        FlowSpec::voip(1, NodeId(8), NodeId(0), VoipCodec::G711),
        FlowSpec::voip(2, NodeId(2), NodeId(6), VoipCodec::G729),
        FlowSpec::best_effort(3, NodeId(0), NodeId(8), 200_000.0),
    ];
    let outcome = mesh.admit(&flows, OrderPolicy::HopOrder).unwrap();
    assert!(
        outcome.admitted.len() >= 3,
        "rejected: {:?}",
        outcome.rejected
    );
    validate_outcome(&mesh, &outcome);
}

#[test]
fn random_unit_disk_end_to_end() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(99);
    let topo = generators::random_unit_disk(
        generators::UnitDiskParams {
            nodes: 12,
            area_m: 900.0,
            range_m: 350.0,
            max_attempts: 100,
        },
        &mut rng,
    )
    .expect("connected placement");
    let endpoints = generators::sample_nodes(&topo, 6, &mut rng);
    let mesh = mesh_of(topo);
    let flows: Vec<FlowSpec> = endpoints
        .chunks(2)
        .enumerate()
        .map(|(i, pair)| FlowSpec::voip(i as u32, pair[0], pair[1], VoipCodec::G729))
        .collect();
    let outcome = mesh.admit(&flows, OrderPolicy::HopOrder).unwrap();
    validate_outcome(&mesh, &outcome);
    // On a 12-node mesh at this range a few G.729 calls always fit.
    assert!(!outcome.admitted.is_empty());
}

#[test]
fn exact_never_worse_than_heuristic_on_shared_bottleneck() {
    // Flows crossing in both directions over a chain bottleneck: the
    // exact order search must admit at least as many flows using at most
    // as many guaranteed slots.
    let mesh = mesh_of(generators::chain(5));
    let flows = vec![
        FlowSpec::voip(0, NodeId(4), NodeId(0), VoipCodec::G729),
        FlowSpec::voip(1, NodeId(0), NodeId(4), VoipCodec::G729),
        FlowSpec::voip(2, NodeId(3), NodeId(1), VoipCodec::G729),
    ];
    let heur = mesh.admit(&flows, OrderPolicy::HopOrder).unwrap();
    let exact = mesh.admit(&flows, OrderPolicy::ExactMilp).unwrap();
    validate_outcome(&mesh, &heur);
    validate_outcome(&mesh, &exact);
    assert!(exact.admitted.len() >= heur.admitted.len());
}

#[test]
fn emulation_parameters_flow_through() {
    // A deployment with terrible clocks must reject configurations the
    // default accepts.
    let bad = EmulationParams {
        clock: wimesh_emu::ClockParams {
            drift_ppm: 500.0,
            resync_interval: Duration::from_secs(5),
            timestamp_error: Duration::from_micros(10),
        },
        ..EmulationParams::default()
    };
    match MeshQos::builder(generators::chain(3)).params(bad).build() {
        Err(QosError::Emulation(_)) => {}
        other => panic!("expected emulation error, got {other:?}"),
    }
}

#[test]
fn schedule_survives_roundtrip_through_distributed_protocol() {
    // Demands from admission can also be reserved by the distributed
    // three-way handshake, and the result is conflict-free too.
    let topo = generators::chain(5);
    let mesh = mesh_of(topo.clone());
    let flows: Vec<FlowSpec> = (0..2)
        .map(|i| FlowSpec::voip(i, NodeId(4), NodeId(0), VoipCodec::G729))
        .collect();
    let outcome = mesh.admit(&flows, OrderPolicy::HopOrder).unwrap();

    let mut demands = Demands::new();
    for f in &outcome.admitted {
        for &l in f.path.links() {
            demands.add(l, f.slots_per_link);
        }
    }
    let config = wimesh::mac80216::reservation::ReservationConfig {
        frame: mesh.model().frame(),
        ..Default::default()
    };
    let dist = wimesh::mac80216::reservation::run_distributed(&topo, &demands, config).unwrap();
    assert!(dist.converged);
    let graph =
        ConflictGraph::build_for_links(&topo, demands.links().collect(), mesh.interference());
    assert!(dist.schedule.validate(&graph).is_ok());
}
