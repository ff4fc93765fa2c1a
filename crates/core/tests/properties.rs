//! Property tests for the admission controller: schedules are always
//! conflict-free, bounds always respect deadlines, and policy relations
//! hold over random meshes and flow sets.

use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wimesh::tdma::delay;
use wimesh::{FlowSpec, MeshQos, OrderPolicy};
use wimesh_topology::{generators, MeshTopology, NodeId};

mod support;

#[derive(Debug, Clone)]
struct Scenario {
    topo: MeshTopology,
    flows: Vec<FlowSpec>,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        3usize..10,
        any::<u64>(),
        0usize..6,
        proptest::collection::vec((0u32..10, 0u32..10, 1u32..30, any::<bool>()), 1..6),
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
            // Ids must equal positions for the prefix-consistency check.
            for (i, f) in flows.iter_mut().enumerate() {
                f.id = wimesh_sim::FlowId(i as u32);
            }
            Scenario { topo, flows }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn admission_invariants(scenario in arb_scenario()) {
        let mesh = MeshQos::builder(scenario.topo.clone()).build()
            .expect("default params valid");
        let outcome = match mesh.admit(&scenario.flows, OrderPolicy::HopOrder) {
            Ok(o) => o,
            Err(wimesh::QosError::InvalidRate { .. }) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
        };
        // Every input flow is accounted for exactly once.
        prop_assert_eq!(
            outcome.admitted.len() + outcome.rejected.len(),
            scenario.flows.len()
        );
        // The schedule certifies: conflict-free, every demand covered,
        // every delay bound re-derived within its deadline.
        if let Err(e) = support::certify(&mesh, &outcome) {
            return Err(TestCaseError::fail(format!("{e}")));
        }
        prop_assert!(outcome.guaranteed_slots <= mesh.model().frame().slots());
        prop_assert_eq!(outcome.guaranteed_slots, outcome.schedule.makespan());
        for f in &outcome.admitted {
            // Paths fully scheduled; bound consistent and within deadline.
            let pipeline = delay::path_delay_slots(&outcome.schedule, &f.path);
            prop_assert!(pipeline.is_some(), "admitted path not scheduled");
            if let Some(deadline) = f.spec.deadline {
                prop_assert!(
                    f.worst_case_delay <= deadline,
                    "bound {:?} exceeds deadline {:?}",
                    f.worst_case_delay, deadline
                );
            }
            prop_assert!(f.slots_per_link >= 1);
        }
    }

    #[test]
    fn admission_decisions_are_prefix_consistent(scenario in arb_scenario()) {
        // Sequential admission: flow i's accept/reject depends only on
        // flows before it, so running just the first k flows reproduces
        // exactly the full run's decisions on them. (Note the *slot count*
        // is not monotone in the flow set — adding flows changes the
        // heuristic's link ranks — which is why this checks decisions,
        // not slots.)
        let mesh = MeshQos::builder(scenario.topo.clone()).build()
            .expect("default params valid");
        let Ok(full) = mesh.admit(&scenario.flows, OrderPolicy::HopOrder) else {
            return Ok(());
        };
        for k in 0..scenario.flows.len() {
            let Ok(prefix) = mesh.admit(&scenario.flows[..k], OrderPolicy::HopOrder) else {
                continue;
            };
            let ids = |o: &wimesh::AdmissionOutcome| -> Vec<u32> {
                o.admitted.iter().map(|f| f.spec.id.0).collect()
            };
            let full_first_k: Vec<u32> = ids(&full)
                .into_iter()
                .filter(|&id| (id as usize) < k)
                .collect();
            prop_assert_eq!(ids(&prefix), full_first_k, "prefix {} diverged", k);
        }
    }

    #[test]
    fn admission_is_deterministic(scenario in arb_scenario()) {
        let mesh = MeshQos::builder(scenario.topo.clone()).build()
            .expect("default params valid");
        let a = mesh.admit(&scenario.flows, OrderPolicy::HopOrder);
        let b = mesh.admit(&scenario.flows, OrderPolicy::HopOrder);
        match (a, b) {
            (Ok(x), Ok(y)) => {
                prop_assert_eq!(x.admitted.len(), y.admitted.len());
                prop_assert_eq!(x.guaranteed_slots, y.guaranteed_slots);
                prop_assert_eq!(x.schedule, y.schedule);
            }
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "nondeterministic admission outcome"),
        }
    }
}
