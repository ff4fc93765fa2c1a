//! Property tests proving that a session's history does not leak into
//! its verdicts: a churned session equals a fresh one.
//!
//! The contract of [`QosSession`] is that what it carries between
//! decisions (incremental conflict graph and its vertex numbering, warm
//! transmission order, makespan-seeded binary search, kept release
//! orders) is an *optimisation*, never a semantic change: after any
//! admit/release churn the session must hold exactly the verdicts and
//! reservations a controller that had never seen anything but the final
//! flow set would compute. These tests drive random meshes and flow sets
//! through admit → release-all → re-admit and compare against
//! [`MeshQos::admit`] — a fresh session placing the same flows in order —
//! at the end, certifying every schedule either side publishes.
//!
//! Both sides run the one engine, so this suite alone would accept an
//! engine that is wrong the same way twice. The independent references
//! are elsewhere: `session_delta_equivalence.rs` (a from-scratch pipeline
//! for the rank policies, sharing no engine code) and
//! `exact_search_equivalence.rs` (a bound-free linear scan over the MILP
//! oracle for [`OrderPolicy::ExactMilp`]).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;
use wimesh::{AdmissionOutcome, FlowSpec, MeshQos, OrderPolicy, QosSession};
use wimesh_sim::FlowId;
use wimesh_topology::{generators, MeshTopology, NodeId};

mod support;

#[derive(Debug, Clone)]
struct Scenario {
    topo: MeshTopology,
    flows: Vec<FlowSpec>,
}

/// Random connected mesh (tree + chords) with random guaranteed /
/// best-effort flows, mirroring `tests/properties.rs`.
fn arb_scenario(max_nodes: usize, max_flows: usize) -> impl Strategy<Value = Scenario> {
    (
        3usize..max_nodes,
        any::<u64>(),
        0usize..5,
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

/// Drives `admit` for every flow, then releases all, then re-admits all
/// in the original order — the warm path exercising incremental graph
/// updates and order reuse. Returns `None` when the heuristic hits its
/// documented pathological release failure (re-ranking a feasible
/// subset can miss a deadline; `rebalance` is the recovery path, but
/// here we just discard the case).
fn churn_warm(session: &mut QosSession, flows: &[FlowSpec]) -> Result<Option<()>, TestCaseError> {
    for f in flows {
        session
            .admit(f)
            .map_err(|e| TestCaseError::fail(format!("admit: {e}")))?;
        assert_schedule_sane(session)?;
    }
    for f in flows {
        match session.release(f.id) {
            Ok(_) => assert_schedule_sane(session)?,
            Err(_) => return Ok(None),
        }
    }
    prop_assert_eq!(session.snapshot().admitted().len(), 0);
    for f in flows {
        session
            .admit(f)
            .map_err(|e| TestCaseError::fail(format!("re-admit: {e}")))?;
        assert_schedule_sane(session)?;
    }
    Ok(Some(()))
}

/// Mid-churn invariant: the schedule certifies and every admitted flow
/// keeps its deadline after *every* event.
fn assert_schedule_sane(session: &QosSession) -> Result<(), TestCaseError> {
    let snap = session.snapshot();
    prop_assert!(snap.guaranteed_slots <= snap.frame_slots());
    certified(session.mesh(), snap)?;
    for f in snap.admitted() {
        if let Some(deadline) = f.spec.deadline {
            prop_assert!(
                f.worst_case_delay <= deadline,
                "deadline violated mid-churn"
            );
        }
    }
    Ok(())
}

/// The wimesh-check certifier re-derives conflict freedom, demand
/// satisfaction and delay bounds from scratch; it shares no code with
/// the solver.
fn certified(mesh: &MeshQos, outcome: &AdmissionOutcome) -> Result<(), TestCaseError> {
    support::certify(mesh, outcome)
        .map(drop)
        .map_err(|e| TestCaseError::fail(format!("certifier rejected the schedule: {e}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Heuristic policies: after admit → release-all → re-admit the
    /// churned session's outcome is *bit-identical* to a fresh session's
    /// (same verdicts, same slot count, same schedule).
    #[test]
    fn warm_churn_equals_cold_batch_heuristic(
        scenario in arb_scenario(10, 6),
        tree in any::<bool>(),
    ) {
        let mesh = match MeshQos::builder(scenario.topo.clone()).build() {
            Ok(m) => m,
            Err(_) => return Ok(()),
        };
        let policy = if tree {
            OrderPolicy::TreeOrder { gateway: NodeId(0) }
        } else {
            OrderPolicy::HopOrder
        };
        let fresh = match mesh.admit(&scenario.flows, policy) {
            Ok(o) => o,
            Err(_) => return Ok(()),
        };
        certified(&mesh, &fresh)?;
        let mut session = mesh.session(policy);
        if churn_warm(&mut session, &scenario.flows)?.is_none() {
            return Ok(());
        }
        let churned = session.snapshot();
        prop_assert_eq!(admitted_ids(churned), admitted_ids(&fresh), "verdicts diverged");
        prop_assert_eq!(churned.guaranteed_slots, fresh.guaranteed_slots);
        prop_assert_eq!(&churned.schedule, &fresh.schedule, "schedules diverged");
    }

    /// Exact MILP policy: identical verdicts and identical *minimal*
    /// slot counts churned vs fresh. (Alternate optimal schedules are
    /// allowed; the minimum itself is unique.) Smaller instances keep
    /// the branch-and-bound affordable under 48 cases.
    #[test]
    fn warm_churn_equals_cold_batch_exact_milp(scenario in arb_scenario(7, 4)) {
        let mesh = match MeshQos::builder(scenario.topo.clone()).build() {
            Ok(m) => m,
            Err(_) => return Ok(()),
        };
        let fresh = match mesh.admit(&scenario.flows, OrderPolicy::ExactMilp) {
            Ok(o) => o,
            Err(_) => return Ok(()),
        };
        certified(&mesh, &fresh)?;
        let mut session = mesh.session(OrderPolicy::ExactMilp);
        let survived = churn_warm(&mut session, &scenario.flows)?;
        // Releasing a subset of a feasible set is always feasible under
        // the exact oracle — the pathological escape is heuristic-only.
        prop_assert!(survived.is_some(), "exact release must not fail");
        let churned = session.snapshot();
        prop_assert_eq!(admitted_ids(churned), admitted_ids(&fresh), "verdicts diverged");
        prop_assert_eq!(
            churned.guaranteed_slots, fresh.guaranteed_slots,
            "the churned search found a different minimum"
        );
    }
}
