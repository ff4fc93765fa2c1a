//! Shared experiment plumbing: flow builders, acceptability criteria,
//! capacity searches, the distributed runtime's fault scenario.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wimesh::phy80211::dcf::DcfConfig;
use wimesh::sim::traffic::{TrafficSource, VoipCodec, VoipSource};
use wimesh::sim::FlowStats;
use wimesh::{FlowSpec, MeshQos, OrderPolicy};
use wimesh_emu::EmulationModel;
use wimesh_node::{
    FabricConfig, LossModel, MeshRuntime, RepairController, RuntimeConfig, SegmentReport,
};
use wimesh_topology::{generators, MeshTopology, NodeId};

use crate::BenchError;

/// VoIP quality target used throughout: 1% loss, p95 within the mesh
/// delay budget.
pub const VOIP_LOSS_LIMIT: f64 = 0.01;

/// Builds `count` VoIP calls toward `gateway`, cycling sources over the
/// non-gateway nodes farthest-first.
pub fn voip_calls_to_gateway(
    node_count: usize,
    gateway: NodeId,
    count: usize,
    codec: VoipCodec,
) -> Vec<FlowSpec> {
    let mut sources: Vec<NodeId> = (0..node_count as u32)
        .map(NodeId)
        .filter(|&n| n != gateway)
        .collect();
    // Farthest node ids first (chains are laid out in id order).
    sources.reverse();
    (0..count)
        .map(|i| {
            let src = sources[i % sources.len()];
            FlowSpec::voip(i as u32, src, gateway, codec)
        })
        .collect()
}

/// A VoIP source for any spec (codec inferred from the reserved rate).
pub fn voip_source(spec: &FlowSpec) -> Box<dyn TrafficSource> {
    let codec = if spec.rate_bps > 50_000.0 {
        VoipCodec::G711
    } else {
        VoipCodec::G729
    };
    Box::new(VoipSource::new(codec))
}

/// Whether a simulated VoIP call met its quality target.
pub fn call_acceptable(stats: &FlowStats, deadline: Duration) -> bool {
    if stats.sent() == 0 {
        return true; // silent call: no evidence of failure
    }
    if stats.loss_rate() > VOIP_LOSS_LIMIT {
        return false;
    }
    match stats.delay_quantile(0.95) {
        Some(p95) => p95 <= deadline,
        None => true,
    }
}

/// TDMA capacity: how many of the requested calls admission accepts.
pub fn tdma_capacity(mesh: &MeshQos, flows: &[FlowSpec], policy: OrderPolicy) -> usize {
    mesh.admit(flows, policy)
        .map(|o| o.admitted.len())
        .unwrap_or(0)
}

/// DCF capacity: the largest `k` such that simulating the first `k` calls
/// keeps every call acceptable. Linear search from 1 (simulations are the
/// cost driver, so the search stops at the first failure).
pub fn dcf_capacity(mesh: &MeshQos, flows: &[FlowSpec], sim_time: Duration, seed: u64) -> usize {
    let deadline = flows
        .first()
        .and_then(|f| f.deadline)
        .unwrap_or(Duration::from_millis(80));
    let acceptable = |k: usize| -> bool {
        let mut rng = StdRng::seed_from_u64(seed);
        let results = mesh.simulate_dcf(
            &flows[..k],
            voip_source,
            DcfConfig::default(),
            sim_time,
            &mut rng,
        );
        results.iter().all(|(_, s)| call_acceptable(s, deadline))
    };
    // Coarse forward steps, then refine backwards to the exact boundary.
    let step = 4;
    let mut best = 0;
    let mut k = step.min(flows.len());
    let first_fail = loop {
        if acceptable(k) {
            best = k;
            if k == flows.len() {
                return best;
            }
            k = (k + step).min(flows.len());
        } else {
            break k;
        }
    };
    for k in (best + 1..first_fail).rev() {
        if acceptable(k) {
            return k;
        }
    }
    best
}

/// Formats a duration as fractional milliseconds.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// The fault scenario of `runtime_faults` and `slo_audit` after its
/// converged cold start (`cold`): the runtime on a grid whose gateway
/// `NodeId(0)` admitted two G.729 calls from the far corners, the first
/// relay of flow 0, and the reaction and steady phase lengths.
pub struct FaultScenario {
    pub topo: MeshTopology,
    pub rt: MeshRuntime,
    pub cold: SegmentReport,
    pub relay: NodeId,
    pub react: Duration,
    pub steady: Duration,
}

/// Builds the fault scenario at `loss` and runs its cold start: a 3x3
/// grid and 5/10/3 s phases when `quick`, else 4x4 and 10/15/5 s.
pub fn fault_scenario(
    quick: bool,
    loss: f64,
    seed: u64,
    model: &EmulationModel,
) -> Result<FaultScenario, BenchError> {
    let side = if quick { 3 } else { 4 };
    let topo = generators::grid(side, side);

    // The gateway admits VoIP flows from the far corners inward.
    let mesh = MeshQos::builder(topo.clone()).build()?;
    let mut controller = RepairController::new(mesh.session(OrderPolicy::HopOrder));
    let n = topo.node_count() as u32;
    let sources = [n - 1, n - side as u32];
    for (i, src) in sources.into_iter().enumerate() {
        let spec = FlowSpec::voip(i as u32, NodeId(src), NodeId(0), VoipCodec::G729);
        if !controller.session_mut().admit(&spec)?.is_admitted() {
            return Err(BenchError::Other(format!(
                "seed flow {src}->0 was rejected on the {side}x{side} grid"
            )));
        }
    }

    let loss_model = if loss > 0.0 {
        LossModel::Bernoulli { p: loss }
    } else {
        LossModel::None
    };
    let config = RuntimeConfig {
        fabric: FabricConfig {
            default_loss: loss_model,
            ..FabricConfig::default()
        },
        seed,
        ..RuntimeConfig::default()
    };
    let mut rt = MeshRuntime::new(topo.clone(), *model, config)
        .map_err(|e| BenchError::Other(e.to_string()))?;
    rt.attach_controller(controller);

    let secs = |quick_s, full_s| Duration::from_secs(if quick { quick_s } else { full_s });
    let cold = rt.run_for(secs(5, 10));
    if !cold.converged {
        return Err(BenchError::Other(format!(
            "cold start did not converge at loss {loss}"
        )));
    }
    let relay = rt
        .controller()
        .expect("attached")
        .session()
        .snapshot()
        .admitted()[0]
        .path
        .nodes()[1];
    Ok(FaultScenario {
        topo,
        rt,
        cold,
        relay,
        react: secs(10, 15),
        steady: secs(3, 5),
    })
}
