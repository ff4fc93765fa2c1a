//! Determinism regression: admission with a threaded (work-sharing)
//! branch & bound must return the same *answers* as the serial one.
//!
//! Parallelism in this workspace is an optimisation, never a semantic
//! change: pruning only ever discards bound-dominated B&B nodes, so the
//! oracle's verdict at a slot count — and with it the slot search's
//! minimum — cannot depend on the worker count. These properties pin
//! that contract across random topologies and flow sets: serial
//! (`threads = 1`) and parallel (`threads = 4`) admission must agree on
//! the admitted-flow set and the minimal guaranteed slot count, and the
//! underlying MILP solver must agree on objective and verdict.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;
use wimesh::conflict::ConflictGraph;
use wimesh::milp::SolverConfig;
use wimesh::{AdmissionOutcome, FlowSpec, MeshQos, OrderPolicy};
use wimesh_check::{CertParams, Certificate, FlowRequirement};
use wimesh_sim::FlowId;
use wimesh_topology::{generators, MeshTopology, NodeId};

#[derive(Debug, Clone)]
struct Scenario {
    topo: MeshTopology,
    flows: Vec<FlowSpec>,
}

/// Random connected mesh (tree + chords) with random guaranteed /
/// best-effort flows, mirroring `tests/session_equivalence.rs`.
fn arb_scenario(max_nodes: usize, max_flows: usize) -> impl Strategy<Value = Scenario> {
    (
        3usize..max_nodes,
        any::<u64>(),
        0usize..4,
        proptest::collection::vec((0u32..10, 0u32..10, 1u32..30, any::<bool>()), 1..max_flows),
    )
        .prop_map(|(n, seed, extra, flow_specs)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut topo = generators::random_tree(n, &mut rng);
            use rand::Rng;
            for _ in 0..extra {
                let a = NodeId(rng.gen_range(0..n as u32));
                let b = NodeId(rng.gen_range(0..n as u32));
                if a != b && topo.link_between(a, b).is_none() {
                    topo.add_bidirectional(a, b).expect("checked");
                }
            }
            let mut flows: Vec<FlowSpec> = flow_specs
                .into_iter()
                .filter_map(|(a, b, rate_x10k, guaranteed)| {
                    let (src, dst) = (NodeId(a % n as u32), NodeId(b % n as u32));
                    if src == dst {
                        return None;
                    }
                    let rate = rate_x10k as f64 * 10_000.0;
                    Some(if guaranteed {
                        FlowSpec::guaranteed(0, src, dst, rate, Duration::from_millis(150))
                    } else {
                        FlowSpec::best_effort(0, src, dst, rate)
                    })
                })
                .collect();
            for (i, f) in flows.iter_mut().enumerate() {
                f.id = FlowId(i as u32);
            }
            Scenario { topo, flows }
        })
}

fn admitted_ids(outcome: &AdmissionOutcome) -> Vec<u32> {
    let mut ids: Vec<u32> = outcome.admitted().iter().map(|f| f.spec.id.0).collect();
    ids.sort_unstable();
    ids
}

/// Independent certifier gate (`wimesh-check`): serial/parallel
/// *agreement* alone could mask a bug shared by both engines, so every
/// compared schedule must also be provably conflict-free,
/// demand-satisfying and within its delay bounds.
fn certify(mesh: &MeshQos, outcome: &AdmissionOutcome) -> Result<(), TestCaseError> {
    let demands = mesh.demands_for(outcome.admitted());
    let graph = ConflictGraph::build_for_links(
        mesh.topology(),
        outcome.schedule.links().collect(),
        mesh.interference(),
    );
    let flows: Vec<FlowRequirement> = outcome
        .admitted()
        .iter()
        .map(|f| FlowRequirement {
            id: f.spec.id.0 as u64,
            links: f.path.links().to_vec(),
            deadline: f.spec.deadline,
        })
        .collect();
    let params = CertParams::from_emulation(mesh.model());
    if let Err(err) = Certificate::check(&outcome.schedule, &graph, &demands, &flows, &params) {
        return Err(TestCaseError::fail(format!(
            "certifier rejected schedule: {err}"
        )));
    }
    Ok(())
}

fn mesh_with_threads(topo: MeshTopology, threads: usize) -> Option<MeshQos> {
    MeshQos::builder(topo)
        .solver_config(SolverConfig::with_threads(threads))
        .build()
        .ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cold batch admission under the exact MILP policy: 4-thread B&B
    /// inside each oracle call must reproduce the serial admitted set
    /// and minimal slot count exactly.
    #[test]
    fn batch_exact_milp_serial_equals_threads4(scenario in arb_scenario(7, 4)) {
        let Some(serial_mesh) = mesh_with_threads(scenario.topo.clone(), 1) else {
            return Ok(());
        };
        let Some(parallel_mesh) = mesh_with_threads(scenario.topo.clone(), 4) else {
            return Ok(());
        };
        let serial = match serial_mesh.admit(&scenario.flows, OrderPolicy::ExactMilp) {
            Ok(o) => o,
            Err(_) => return Ok(()),
        };
        let parallel = parallel_mesh
            .admit(&scenario.flows, OrderPolicy::ExactMilp)
            .map_err(|e| TestCaseError::fail(format!("parallel admit failed: {e}")))?;
        certify(&serial_mesh, &serial)?;
        certify(&parallel_mesh, &parallel)?;
        prop_assert_eq!(
            admitted_ids(&serial),
            admitted_ids(&parallel),
            "admitted-flow sets diverged"
        );
        prop_assert_eq!(
            serial.guaranteed_slots,
            parallel.guaranteed_slots,
            "minimal slot counts diverged"
        );
    }

    /// Session churn (admit one by one, warm binary slot search) over
    /// 4-thread oracle calls: same admitted set and slot count as the
    /// serial session.
    #[test]
    fn session_exact_milp_serial_equals_threads4(scenario in arb_scenario(6, 4)) {
        let Some(serial_mesh) = mesh_with_threads(scenario.topo.clone(), 1) else {
            return Ok(());
        };
        let Some(parallel_mesh) = mesh_with_threads(scenario.topo.clone(), 4) else {
            return Ok(());
        };
        let mut serial = serial_mesh.session(OrderPolicy::ExactMilp);
        let mut parallel = parallel_mesh.session(OrderPolicy::ExactMilp);
        for f in &scenario.flows {
            let a = serial
                .admit(f)
                .map_err(|e| TestCaseError::fail(format!("serial admit: {e}")))?;
            let b = parallel
                .admit(f)
                .map_err(|e| TestCaseError::fail(format!("parallel admit: {e}")))?;
            prop_assert_eq!(a.is_admitted(), b.is_admitted(), "per-flow verdict diverged");
        }
        let (s, p) = (serial.snapshot(), parallel.snapshot());
        certify(&serial_mesh, s)?;
        certify(&parallel_mesh, p)?;
        prop_assert_eq!(admitted_ids(s), admitted_ids(p), "admitted sets diverged");
        prop_assert_eq!(s.guaranteed_slots, p.guaranteed_slots, "slot counts diverged");
    }

    /// The raw solver layer: random small integer programs solved serial
    /// vs 4-thread must agree on verdict and objective (and both
    /// assignments must be feasible).
    #[test]
    fn solver_objective_and_verdict_match(
        n in 3usize..7,
        coeffs in proptest::collection::vec((0u32..10, 0u32..20), 3..7),
        cap in 5u32..40,
    ) {
        use wimesh::milp::{LinExpr, Model, Sense};
        let n = n.min(coeffs.len());
        let mut m = Model::new();
        let vars: Vec<_> = (0..n).map(|i| m.add_binary_var(&format!("x{i}"))).collect();
        let mut w = LinExpr::new();
        let mut v = LinExpr::new();
        for (i, &(weight, value)) in coeffs.iter().take(n).enumerate() {
            w.add_term(vars[i], weight as f64);
            v.add_term(vars[i], value as f64);
        }
        m.add_le(w, cap as f64);
        m.set_objective(Sense::Maximize, v);
        let serial = m.solve_with(&SolverConfig::default());
        let parallel = m.solve_with(&SolverConfig::with_threads(4));
        match (serial, parallel) {
            (Ok(s), Ok(p)) => {
                prop_assert!(
                    (s.objective() - p.objective()).abs() < 1e-9,
                    "objectives diverged: serial {} vs parallel {}",
                    s.objective(),
                    p.objective()
                );
                prop_assert!(m.is_feasible(p.values(), 1e-6));
            }
            (Err(se), Err(pe)) => prop_assert_eq!(se, pe, "error verdicts diverged"),
            (s, p) => return Err(TestCaseError::fail(format!(
                "verdict mismatch: serial {s:?} vs parallel {p:?}"
            ))),
        }
    }
}
