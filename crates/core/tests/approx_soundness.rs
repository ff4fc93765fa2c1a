//! Soundness properties of the approximation-mode admission policies
//! over random topologies and churn:
//!
//! * every schedule a [`OrderPolicy::GreedySequential`] or
//!   [`OrderPolicy::LpRounding`] session produces passes the
//!   independent `wimesh-check` certifier (approximation may reject
//!   more, never violate QoS);
//! * the flow set an approximate policy accepts is admitted by
//!   [`OrderPolicy::ExactMilp`] at no greater slot cost (exact is
//!   optimal on the same set);
//! * [`wimesh::SessionStats::approx_gap`] is a true upper bound on the
//!   optimality gap: `approx_used - exact_used <= approx_gap`.
//!
//! A fixed ring(5) instance pins a case where the policies differ.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wimesh::conflict::InterferenceModel;
use wimesh::sim::traffic::VoipCodec;
use wimesh::sim::FlowId;
use wimesh::{FlowSpec, GreedyKey, MeshQos, OrderPolicy, QosSession};
use wimesh_topology::{generators, MeshTopology, NodeId};

mod support;

#[derive(Debug, Clone)]
struct Scenario {
    topo: MeshTopology,
    flows: Vec<FlowSpec>,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        3usize..8,
        any::<u64>(),
        0usize..4,
        proptest::collection::vec(0u32..16, 1..6),
    )
        .prop_map(|(n, seed, extra, srcs)| {
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
            // VoIP calls toward node 0 from varying sources.
            let flows: Vec<FlowSpec> = srcs
                .into_iter()
                .enumerate()
                .filter_map(|(i, s)| {
                    let src = NodeId(1 + s % (n as u32 - 1).max(1));
                    if src == NodeId(0) {
                        return None;
                    }
                    Some(FlowSpec::voip(i as u32, src, NodeId(0), VoipCodec::G729))
                })
                .collect();
            Scenario { topo, flows }
        })
}

const APPROX_POLICIES: [OrderPolicy; 4] = [
    OrderPolicy::GreedySequential {
        key: GreedyKey::CliqueLoad,
    },
    OrderPolicy::GreedySequential {
        key: GreedyKey::HopCount,
    },
    OrderPolicy::GreedySequential {
        key: GreedyKey::Demand,
    },
    OrderPolicy::LpRounding,
];

/// Re-proves the session's current schedule with the independent
/// certifier.
fn certify(session: &QosSession) -> Result<(), TestCaseError> {
    support::certify(session.mesh(), session.snapshot())
        .map(drop)
        .map_err(|e| TestCaseError::fail(format!("{e}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random topology × churn: every intermediate approximate schedule
    /// certifies, the accepted set re-admits exactly at no greater slot
    /// cost, and the reported gap bounds the true optimality gap.
    #[test]
    fn approx_admission_is_sound(scenario in arb_scenario()) {
        let mesh = match MeshQos::builder(scenario.topo.clone()).build() {
            Ok(m) => m,
            Err(_) => return Ok(()),
        };
        for policy in APPROX_POLICIES {
            let mut session = mesh.session(policy);
            // Admission churn: admit everything, certify after every
            // event, then release the first admitted flow and re-admit
            // it.
            for spec in &scenario.flows {
                match session.admit(spec) {
                    Ok(_) => {}
                    Err(wimesh::QosError::InvalidRate { .. }) => continue,
                    Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                }
                certify(&session)?;
            }
            if let Some(first) = session.snapshot().admitted.first().map(|f| f.spec.clone()) {
                session.release(first.id).expect("release succeeds");
                certify(&session)?;
                session.admit(&first).expect("re-admit solves");
                certify(&session)?;
            }

            let outcome = session.snapshot();
            let approx_used = outcome.guaranteed_slots;
            let accepted: Vec<FlowSpec> =
                outcome.admitted.iter().map(|f| f.spec.clone()).collect();
            if accepted.is_empty() {
                continue;
            }

            // Exact on the approx-accepted set: everything must fit, at
            // no greater slot cost.
            let exact = mesh
                .admit(&accepted, OrderPolicy::ExactMilp)
                .expect("exact re-admission solves");
            prop_assert_eq!(
                exact.admitted.len(),
                accepted.len(),
                "exact rejected a flow the approximation scheduled"
            );
            let exact_used = exact.guaranteed_slots;
            prop_assert!(
                exact_used <= approx_used,
                "exact needs {} slots, approximation {} under {:?}",
                exact_used, approx_used, policy
            );

            // The reported gap is a certified upper bound on the true
            // optimality gap.
            let gap = session.stats().approx_gap;
            prop_assert!(
                u64::from(approx_used - exact_used) <= gap,
                "true gap {} exceeds reported bound {} under {:?}",
                approx_used - exact_used, gap, policy
            );
        }
    }

    /// Batch admission agrees: the approximate policies never admit a
    /// flow set the exact batch admission would refuse outright, and
    /// rejected flows are reported in input order.
    #[test]
    fn approx_batch_never_overcommits(scenario in arb_scenario()) {
        let mesh = match MeshQos::builder(scenario.topo.clone()).build() {
            Ok(m) => m,
            Err(_) => return Ok(()),
        };
        for policy in APPROX_POLICIES {
            let outcome = match mesh.admit(&scenario.flows, policy) {
                Ok(o) => o,
                Err(wimesh::QosError::InvalidRate { .. }) => continue,
                Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
            };
            prop_assert_eq!(
                outcome.admitted.len() + outcome.rejected.len(),
                scenario.flows.len()
            );
            let rejected_ids: Vec<FlowId> =
                outcome.rejected.iter().map(|(f, _)| f.id).collect();
            let mut sorted = rejected_ids.clone();
            sorted.sort_unstable();
            prop_assert_eq!(rejected_ids, sorted, "rejects not in input order");
            if outcome.admitted.is_empty() {
                continue;
            }
            let accepted: Vec<FlowSpec> =
                outcome.admitted.iter().map(|f| f.spec.clone()).collect();
            let exact = mesh
                .admit(&accepted, OrderPolicy::ExactMilp)
                .expect("exact re-admission solves");
            prop_assert_eq!(exact.admitted.len(), accepted.len());
            prop_assert!(exact.guaranteed_slots <= outcome.guaranteed_slots);
        }
    }
}

/// One direction of each edge of ring(5) under primary interference is a
/// 5-cycle of conflicts: its heaviest clique (two links) is below what any
/// schedule needs, so the clique bound does not close the search. With
/// three 600 kb/s one-hop flows per link, admitted one at a time, exact
/// admits all fifteen and `LpRounding` too, while the hop order and every
/// greedy key (the same sweep on single admits) stop at eleven. Every
/// schedule certifies, and every reported gap covers the true one.
#[test]
fn ring5_odd_cycle_separates_the_policies() {
    let mesh = MeshQos::builder(generators::ring(5))
        .interference(InterferenceModel::PrimaryOnly)
        .build()
        .expect("ring mesh");
    let flows: Vec<FlowSpec> = (0..15u32)
        .map(|i| FlowSpec::best_effort(i, NodeId(i % 5), NodeId((i + 1) % 5), 600_000.0))
        .collect();
    let admit_all = |policy: OrderPolicy| {
        let mut session = mesh.session(policy);
        for f in &flows {
            session.admit(f).expect("admission solves");
            certify(&session).expect("certified");
        }
        session
    };
    let admitted = |session: &QosSession| session.snapshot().admitted.len();
    let exact = admit_all(OrderPolicy::ExactMilp);
    assert_eq!(admitted(&exact), 15);
    assert_eq!(admitted(&admit_all(OrderPolicy::HopOrder)), 11);

    for policy in APPROX_POLICIES {
        let session = admit_all(policy);
        let expected = if policy == OrderPolicy::LpRounding {
            15
        } else {
            11
        };
        assert_eq!(admitted(&session), expected, "{policy:?}");
        let outcome = session.snapshot();
        let accepted: Vec<FlowSpec> = outcome.admitted.iter().map(|f| f.spec.clone()).collect();
        let exact = mesh
            .admit(&accepted, OrderPolicy::ExactMilp)
            .expect("exact re-admission solves");
        assert_eq!(exact.admitted.len(), accepted.len(), "{policy:?}");
        let true_gap = outcome.guaranteed_slots - exact.guaranteed_slots;
        assert!(
            u64::from(true_gap) <= session.stats().approx_gap,
            "true gap {true_gap} exceeds the reported {} under {policy:?}",
            session.stats().approx_gap
        );
    }
}
