//! The runtime's SLO ledger does not depend on telemetry: a run with no
//! sink installed judges every flow exactly as the same seeded run with
//! a sink does. A binary of its own, so nothing else installs a sink
//! while the sink-less run plays.

use std::sync::Arc;
use std::time::Duration;

use wimesh::sim::traffic::VoipCodec;
use wimesh::{FlowSpec, MeshQos, OrderPolicy};
use wimesh_emu::{EmulationModel, EmulationParams};
use wimesh_node::{FabricConfig, LossModel, MeshRuntime, RepairController, RuntimeConfig};
use wimesh_obs::sink::MemorySink;
use wimesh_obs::slo::SloVerdict;
use wimesh_topology::{generators, NodeId};

/// Two flows on a 3×3 grid under 5% loss, one relay silenced mid-run.
fn verdicts_of_a_seeded_run() -> Vec<SloVerdict> {
    let topo = generators::grid(3, 3);
    let mesh = MeshQos::builder(topo.clone()).build().expect("mesh");
    let mut controller = RepairController::new(mesh.session(OrderPolicy::HopOrder));
    for (id, src) in [(0u32, NodeId(8)), (1, NodeId(6))] {
        let spec = FlowSpec::voip(id, src, NodeId(0), VoipCodec::G729);
        let admitted = controller
            .session_mut()
            .admit(&spec)
            .expect("admission runs");
        assert!(admitted.is_admitted(), "seed flows must be admittable");
    }
    let config = RuntimeConfig {
        fabric: FabricConfig {
            default_loss: LossModel::Bernoulli { p: 0.05 },
            ..FabricConfig::default()
        },
        seed: 31,
        ..RuntimeConfig::default()
    };
    let model = EmulationModel::new(EmulationParams::default()).expect("default model");
    let mut rt = MeshRuntime::new(topo.clone(), model, config).expect("runtime");
    rt.attach_controller(controller);
    rt.run_for(Duration::from_secs(3));
    let relay = rt
        .controller()
        .expect("controller attached")
        .session()
        .snapshot()
        .admitted()[0]
        .path
        .nodes()[1];
    rt.fabric_mut().partition(&topo, &[relay]);
    rt.run_for(Duration::from_secs(5));
    rt.slo().verdicts()
}

#[test]
fn verdicts_are_the_same_with_and_without_a_sink() {
    assert!(!wimesh_obs::is_enabled());
    let without = verdicts_of_a_seeded_run();

    let sink = Arc::new(MemorySink::default());
    wimesh_obs::install(sink.clone());
    let with = verdicts_of_a_seeded_run();
    wimesh_obs::finish();

    assert_eq!(without.len(), 2, "both admitted flows are audited");
    assert!(without.iter().all(|v| v.frames_observed > 0));
    assert_eq!(without, with);
    assert!(!sink.trace_events().is_empty(), "the second run was traced");
}
