//! End-to-end scenario for the distributed runtime: a seeded,
//! fault-injected multi-hop mesh that converges, loses a relay, detects
//! the failure over the air, repairs the schedule through the QoS
//! session and converges again without collisions.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use wimesh::sim::traffic::VoipCodec;
use wimesh::{FlowSpec, MeshQos, OrderPolicy};
use wimesh_emu::{EmulationModel, EmulationParams};
use wimesh_node::{FabricConfig, LossModel, MeshRuntime, RepairController, RuntimeConfig};
use wimesh_obs::sink::MemorySink;
use wimesh_obs::slo::SloStatus;
use wimesh_obs::trace::TraceForest;
use wimesh_topology::{generators, NodeId};

fn model() -> EmulationModel {
    EmulationModel::new(EmulationParams::default()).expect("default model")
}

fn runtime_with_flows(loss: LossModel, seed: u64) -> MeshRuntime {
    let topo = generators::grid(3, 3);
    let mesh = MeshQos::builder(topo.clone()).build().expect("mesh");
    let mut controller = RepairController::new(mesh.session(OrderPolicy::HopOrder));
    for (id, src) in [(0u32, NodeId(8)), (1, NodeId(6))] {
        let spec = FlowSpec::voip(id, src, NodeId(0), VoipCodec::G729);
        assert!(
            controller
                .session_mut()
                .admit(&spec)
                .expect("admission runs")
                .is_admitted(),
            "seed flows must be admittable"
        );
    }
    let config = RuntimeConfig {
        fabric: FabricConfig {
            default_loss: loss,
            ..FabricConfig::default()
        },
        seed,
        ..RuntimeConfig::default()
    };
    let mut rt = MeshRuntime::new(topo, model(), config).expect("runtime");
    rt.attach_controller(controller);
    rt
}

#[test]
fn lossless_mesh_converges_quickly_without_collisions() {
    let mut rt = runtime_with_flows(LossModel::None, 1);
    let seg = rt.run_for(Duration::from_secs(5));
    assert!(seg.converged, "all demands should be confirmed");
    assert!(seg.time_to_sync.is_some(), "all nodes should beacon-sync");
    assert!(
        seg.time_to_converge.is_some(),
        "handshake should finish within the segment"
    );
    assert_eq!(
        seg.collisions, 0,
        "synced nodes within guard time must not collide"
    );
    assert!(
        seg.max_mutual_error <= rt.model().guard_time(),
        "mutual clock error {:?} exceeded the guard time {:?}",
        seg.max_mutual_error,
        rt.model().guard_time()
    );
    assert_eq!(seg.beacons_lost + seg.dsch_lost, 0);
}

#[test]
fn converges_under_bernoulli_loss() {
    let mut rt = runtime_with_flows(LossModel::Bernoulli { p: 0.10 }, 2);
    let seg = rt.run_for(Duration::from_secs(20));
    assert!(seg.converged, "10% loss must only delay convergence");
    assert!(
        seg.beacons_lost > 0,
        "the fabric should actually drop frames"
    );
    assert_eq!(seg.collisions, 0);
}

#[test]
fn crash_is_detected_repaired_and_collision_free() {
    let mut rt = runtime_with_flows(LossModel::Bernoulli { p: 0.05 }, 3);
    let seg = rt.run_for(Duration::from_secs(10));
    assert!(seg.converged, "cold start must converge first");

    // Kill a relay an admitted flow actually transits.
    let relay = rt
        .controller()
        .expect("controller attached")
        .session()
        .snapshot()
        .admitted()[0]
        .path
        .nodes()[1];
    rt.crash(relay);
    let seg = rt.run_for(Duration::from_secs(15));
    assert!(
        seg.failures_detected >= 1,
        "the gateway must learn of the crash over the air"
    );
    let latency = seg.detection_latency.expect("detection latency recorded");
    assert!(
        latency >= Duration::from_millis(500),
        "detection cannot beat the beacon cadence, got {latency:?}"
    );
    assert!(
        latency <= Duration::from_secs(10),
        "detection took implausibly long: {latency:?}"
    );
    assert!(
        seg.reservations_repaired >= 1,
        "transit flows must be re-admitted on a detour"
    );
    assert!(seg.converged, "survivors must re-converge after repair");

    // Steady state after repair: zero collisions while mutual clock
    // error stays within the guard time.
    let seg = rt.run_for(Duration::from_secs(5));
    assert_eq!(
        seg.collisions, 0,
        "post-repair schedule must be conflict-free"
    );
    assert!(seg.max_mutual_error <= rt.model().guard_time());

    // The repaired paths avoid the dead relay entirely.
    let controller = rt.controller().expect("controller attached");
    for flow in controller.session().snapshot().admitted() {
        assert!(
            !flow.path.nodes().contains(&relay),
            "admitted path still transits the dead relay"
        );
    }
}

#[test]
fn restart_resyncs_and_restores_parked_flows() {
    let mut rt = runtime_with_flows(LossModel::None, 4);
    rt.run_for(Duration::from_secs(5));

    // Kill a flow *endpoint*: its flow parks instead of re-routing.
    let endpoint = NodeId(8);
    rt.crash(endpoint);
    let seg = rt.run_for(Duration::from_secs(15));
    assert!(seg.failures_detected >= 1);
    let controller = rt.controller().expect("controller attached");
    assert_eq!(controller.parked().len(), 1, "endpoint flow must be parked");

    // Bring it back: it resyncs from the beacon flood, the mesh floods
    // NodeUp, the gateway re-admits the parked flow, and the handshake
    // re-reserves its slots.
    rt.restart(endpoint);
    let seg = rt.run_for(Duration::from_secs(20));
    assert!(
        seg.recoveries_detected >= 1,
        "gateway must learn of the return"
    );
    assert!(
        seg.time_to_sync.is_some(),
        "the restarted node must reacquire beacon sync"
    );
    let controller = rt.controller().expect("controller attached");
    assert!(
        controller.parked().is_empty(),
        "parked flow must be restored"
    );
    assert_eq!(controller.totals().restored, 1);
    assert!(seg.converged, "restored demands must be re-reserved");
    assert_eq!(seg.collisions, 0);
}

#[test]
fn identical_seeds_replay_identical_runs() {
    let run = |seed: u64| {
        let mut rt = runtime_with_flows(LossModel::Bernoulli { p: 0.08 }, seed);
        let a = rt.run_for(Duration::from_secs(8));
        rt.crash(NodeId(4));
        let b = rt.run_for(Duration::from_secs(8));
        (a, b)
    };
    assert_eq!(
        run(42),
        run(42),
        "same seed must replay message for message"
    );
    assert_ne!(
        run(42).0.beacons_lost,
        run(43).0.beacons_lost,
        "different seeds should draw different loss patterns"
    );
}

/// The observability acceptance scenario: under 5% loss, cutting the
/// fabric links of a relay an admitted flow transits must leave behind
/// (a) a multi-node causal trace of a complete DSCH three-way
/// handshake, (b) a multi-hop `node.down` repair trace, and (c) a
/// non-empty flight-recorder dump from the gateway's re-route. The
/// runtime's SLO ledger must have watched every admitted flow, restarted
/// the rerouted flow's history at the re-route, and judged no flow
/// violated.
///
/// The seed (777) is unique within this binary, so this run's span-id
/// namespace — and therefore its trace ids — cannot collide with
/// concurrently running tests that also emit while the sink is live.
#[test]
fn fault_scenario_reconstructs_traces_and_dumps_the_flight_recorder() {
    let prev = wimesh_obs::finish();
    let sink = Arc::new(MemorySink::default());
    wimesh_obs::install(sink.clone());

    let topo = generators::grid(3, 3);
    let mut rt = runtime_with_flows(LossModel::Bernoulli { p: 0.05 }, 777);
    let seg = rt.run_for(Duration::from_secs(5));
    assert!(seg.converged, "cold start must converge first");

    // Silence a relay's radio: cut every fabric link touching it.
    let relay = rt
        .controller()
        .expect("controller attached")
        .session()
        .snapshot()
        .admitted()[0]
        .path
        .nodes()[1];
    rt.fabric_mut().partition(&topo, &[relay]);
    let seg = rt.run_for(Duration::from_secs(10));

    wimesh_obs::finish();
    if let Some(p) = prev {
        wimesh_obs::install(p);
    }

    assert!(
        seg.reservations_repaired >= 1,
        "the gateway must re-route the transit flow"
    );

    let forest = TraceForest::from_events(&sink.trace_events());
    let handshake = forest
        .find_chain(&["req", "grant", "cnf"])
        .expect("a complete DSCH handshake must reconstruct as one causal chain");
    let handshake_nodes: BTreeSet<u64> = handshake.iter().map(|r| r.node).collect();
    assert!(
        handshake_nodes.len() >= 2,
        "the handshake trace must span multiple nodes, got {handshake_nodes:?}"
    );
    assert!(
        forest.contains_chain(&["node.down", "node.down"]),
        "the repair flood must reconstruct as a multi-hop causal chain"
    );
    assert!(
        sink.flight_dumps()
            .iter()
            .any(|d| d.reason == "flow.reroute" && !d.events.is_empty()),
        "the re-route must dump the gateway's flight recorder with its preceding events"
    );

    let admitted = rt
        .controller()
        .expect("controller attached")
        .session()
        .snapshot()
        .admitted();
    let mut ids: Vec<u64> = admitted.iter().map(|f| u64::from(f.spec.id.0)).collect();
    ids.sort_unstable();
    let verdicts = rt.slo().verdicts();
    assert_eq!(
        verdicts.iter().map(|v| v.flow).collect::<Vec<_>>(),
        ids,
        "the ledger must hold exactly the admitted flows"
    );
    for v in &verdicts {
        assert!(v.frames_observed > 0, "flow {} was never observed", v.flow);
        assert_ne!(v.status, SloStatus::Violated, "flow {} violated", v.flow);
    }
    let frames = |flow: u64| {
        rt.slo()
            .verdict_for(flow)
            .expect("admitted flows are in the ledger")
            .frames_observed
    };
    // Flow 0 transited the silenced relay and was rerouted; flow 1 was
    // untouched, so its history spans both segments.
    assert!(
        frames(0) < frames(1),
        "the rerouted flow's history must restart at the re-route: {} vs {}",
        frames(0),
        frames(1)
    );
}

#[test]
fn partition_stalls_sync_and_heal_recovers_it() {
    let topo = generators::grid(3, 3);
    let config = RuntimeConfig {
        seed: 5,
        ..RuntimeConfig::default()
    };
    let mut rt = MeshRuntime::new(topo.clone(), model(), config).expect("runtime");
    rt.run_for(Duration::from_secs(3));

    // Split the right column (2, 5, 8) off the mesh.
    let island = [NodeId(2), NodeId(5), NodeId(8)];
    rt.fabric_mut().partition(&topo, &island);
    let seg = rt.run_for(Duration::from_secs(5));
    assert!(seg.beacons_sent > 0);
    let blocked_before = rt.fabric_stats().blocked;
    assert!(blocked_before > 0, "the partition must block crossings");

    // Healed, the island rejoins the sync tree within a few beacons.
    rt.fabric_mut().heal_all();
    let seg = rt.run_for(Duration::from_secs(5));
    assert!(
        seg.resyncs > 0,
        "healed island must start accepting beacons again"
    );
    for n in rt.nodes() {
        assert!(n.synced_round().is_some(), "node {} never resynced", n.id());
    }
}
