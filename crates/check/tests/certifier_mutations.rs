//! Mutation tests for the independent certifier.
//!
//! A verification oracle is only trustworthy if it actually rejects bad
//! inputs, so every test here takes a schedule the real admission
//! controller produced, breaks exactly one invariant, and asserts the
//! certifier reports the matching [`Violation::kind`]. The closing
//! property test drives a [`QosSession`] through admit/release churn and
//! certifies the published schedule after every event.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wimesh::conflict::ConflictGraph;
use wimesh::sim::traffic::VoipCodec;
use wimesh::tdma::{Demands, Schedule, SlotRange};
use wimesh::{AdmissionOutcome, FlowSpec, MeshQos, OrderPolicy};
use wimesh_check::{CertParams, Certificate, CertifyError, FlowRequirement};
use wimesh_topology::{generators, LinkId, NodeId};

#[path = "../../core/tests/support/mod.rs"]
mod support;

/// Real admission over a 5-node chain: four VoIP flows 4 → 0, so every
/// path link carries a multi-slot aggregate demand (2 slots per link).
fn base() -> (MeshQos, AdmissionOutcome) {
    let mesh = MeshQos::builder(generators::chain(5)).build().unwrap();
    let flows: Vec<FlowSpec> = (0..4)
        .map(|i| FlowSpec::voip(i, NodeId(4), NodeId(0), VoipCodec::G711))
        .collect();
    let outcome = mesh.admit(&flows, OrderPolicy::HopOrder).unwrap();
    assert_eq!(outcome.admitted.len(), 4, "base scenario must admit all");
    (mesh, outcome)
}

fn flow_requirements(outcome: &AdmissionOutcome) -> Vec<FlowRequirement> {
    outcome
        .admitted
        .iter()
        .map(|f| FlowRequirement {
            id: f.spec.id.0 as u64,
            links: f.path.links().to_vec(),
            deadline: f.spec.deadline,
        })
        .collect()
}

/// Conflict graph over exactly the links the (possibly mutated) schedule
/// uses.
fn graph_for(mesh: &MeshQos, schedule: &Schedule) -> ConflictGraph {
    ConflictGraph::build_for_links(
        mesh.topology(),
        schedule.links().collect(),
        mesh.interference(),
    )
}

/// Rebuilds the outcome's schedule with one edit applied to its ranges.
fn mutated(
    outcome: &AdmissionOutcome,
    edit: impl FnOnce(&mut BTreeMap<LinkId, SlotRange>),
) -> Schedule {
    let mut ranges: BTreeMap<LinkId, SlotRange> = outcome.schedule.iter().collect();
    edit(&mut ranges);
    Schedule::from_ranges(outcome.schedule.frame(), ranges).expect("mutant still fits the frame")
}

/// Runs the certifier with the mesh-derived demands/flows/params unless a
/// caller overrides a piece, and returns the error it must produce.
fn expect_reject(
    mesh: &MeshQos,
    outcome: &AdmissionOutcome,
    schedule: &Schedule,
    demands: Option<Demands>,
    flows: Option<Vec<FlowRequirement>>,
    params: Option<CertParams>,
) -> CertifyError {
    let demands = demands.unwrap_or_else(|| mesh.demands_for(&outcome.admitted));
    let flows = flows.unwrap_or_else(|| flow_requirements(outcome));
    let params = params.unwrap_or_else(|| CertParams::from_emulation(mesh.model()));
    let graph = graph_for(mesh, schedule);
    Certificate::check(schedule, &graph, &demands, &flows, &params)
        .expect_err("mutated schedule must be rejected")
}

/// First two hops of the first admitted flow's path (adjacent links of a
/// chain always conflict under the protocol model).
fn first_two_hops(outcome: &AdmissionOutcome) -> (LinkId, SlotRange, LinkId, SlotRange) {
    let links = outcome.admitted[0].path.links();
    let (a, b) = (links[0], links[1]);
    let ra = outcome.schedule.slot_range(a).unwrap();
    let rb = outcome.schedule.slot_range(b).unwrap();
    (a, ra, b, rb)
}

#[test]
fn unmutated_base_certifies() {
    let (mesh, outcome) = base();
    let demands = mesh.demands_for(&outcome.admitted);
    let flows = flow_requirements(&outcome);
    let params = CertParams::from_emulation(mesh.model());
    let graph = graph_for(&mesh, &outcome.schedule);
    let report = Certificate::check(&outcome.schedule, &graph, &demands, &flows, &params)
        .expect("real admission output certifies");
    assert_eq!(report.flows, 4);
    assert!(report.makespan >= report.reference_makespan);
}

#[test]
fn shifted_range_is_a_slot_collision() {
    let (mesh, outcome) = base();
    let (_, ra, b, rb) = first_two_hops(&outcome);
    let schedule = mutated(&outcome, |ranges| {
        ranges.insert(b, SlotRange::new(ra.start, rb.len));
    });
    let err = expect_reject(&mesh, &outcome, &schedule, None, None, None);
    assert!(err.has_kind("slot-collision"), "{err}");
}

#[test]
fn extended_range_is_a_slot_collision() {
    let (mesh, outcome) = base();
    let (a, ra, _, rb) = first_two_hops(&outcome);
    assert!(rb.start >= ra.start, "hop order lays ranges out forward");
    let schedule = mutated(&outcome, |ranges| {
        ranges.insert(a, SlotRange::new(ra.start, rb.start - ra.start + 1));
    });
    let err = expect_reject(&mesh, &outcome, &schedule, None, None, None);
    assert!(err.has_kind("slot-collision"), "{err}");
}

#[test]
fn shrunk_range_is_under_allocated() {
    let (mesh, outcome) = base();
    let (a, ra, _, _) = first_two_hops(&outcome);
    assert!(
        ra.len >= 2,
        "two aggregated flows demand at least two slots"
    );
    let schedule = mutated(&outcome, |ranges| {
        ranges.insert(a, SlotRange::new(ra.start, ra.len - 1));
    });
    let err = expect_reject(&mesh, &outcome, &schedule, None, None, None);
    assert!(err.has_kind("under-allocated"), "{err}");
}

#[test]
fn inflated_demand_is_under_allocated() {
    let (mesh, outcome) = base();
    let (a, ra, _, _) = first_two_hops(&outcome);
    let mut demands = mesh.demands_for(&outcome.admitted);
    demands.set(a, ra.len + 1);
    let err = expect_reject(
        &mesh,
        &outcome,
        &outcome.schedule,
        Some(demands),
        None,
        None,
    );
    assert!(err.has_kind("under-allocated"), "{err}");
}

#[test]
fn removed_range_is_an_unscheduled_demand() {
    let (mesh, outcome) = base();
    let (a, _, _, _) = first_two_hops(&outcome);
    let schedule = mutated(&outcome, |ranges| {
        ranges.remove(&a);
    });
    let err = expect_reject(&mesh, &outcome, &schedule, None, None, None);
    assert!(err.has_kind("unscheduled-demand"), "{err}");
    // Flows crossing the dropped hop are flagged too.
    assert!(err.has_kind("path-unscheduled"), "{err}");
}

/// A topology link that carries no traffic in the base outcome (the
/// chain's 0 → 1 direction; both flows run 4 → 0).
fn idle_link(mesh: &MeshQos, outcome: &AdmissionOutcome) -> LinkId {
    let scheduled: BTreeSet<LinkId> = outcome.schedule.links().collect();
    let extra = mesh
        .topology()
        .link_between(NodeId(0), NodeId(1))
        .expect("chain link");
    assert!(!scheduled.contains(&extra), "0->1 must be idle in the base");
    extra
}

#[test]
fn demandless_range_is_a_phantom_allocation() {
    let (mesh, outcome) = base();
    let extra = idle_link(&mesh, &outcome);
    let makespan = outcome.schedule.makespan();
    assert!(makespan < outcome.schedule.frame().slots());
    let schedule = mutated(&outcome, |ranges| {
        ranges.insert(extra, SlotRange::new(makespan, 1));
    });
    let err = expect_reject(&mesh, &outcome, &schedule, None, None, None);
    assert!(err.has_kind("phantom-allocation"), "{err}");
}

#[test]
fn link_outside_the_graph_is_unknown() {
    let (mesh, outcome) = base();
    let extra = idle_link(&mesh, &outcome);
    let makespan = outcome.schedule.makespan();
    let schedule = mutated(&outcome, |ranges| {
        ranges.insert(extra, SlotRange::new(makespan, 1));
    });
    // Graph over the *original* links only: the certifier must notice the
    // mutant schedules a link nobody collision-checked.
    let graph = graph_for(&mesh, &outcome.schedule);
    let demands = mesh.demands_for(&outcome.admitted);
    let flows = flow_requirements(&outcome);
    let params = CertParams::from_emulation(mesh.model());
    let err = Certificate::check(&schedule, &graph, &demands, &flows, &params)
        .expect_err("unchecked link must be rejected");
    assert!(err.has_kind("unknown-link"), "{err}");
}

#[test]
fn shrunk_frame_claim_is_an_overflow() {
    let (mesh, outcome) = base();
    let makespan = outcome.schedule.makespan();
    assert!(makespan >= 1);
    let mut params = CertParams::from_emulation(mesh.model());
    params.frame_slots = makespan - 1;
    let err = expect_reject(&mesh, &outcome, &outcome.schedule, None, None, Some(params));
    assert!(err.has_kind("frame-overflow"), "{err}");
}

#[test]
fn wrong_slot_duration_is_a_frame_mismatch() {
    let (mesh, outcome) = base();
    let mut params = CertParams::from_emulation(mesh.model());
    params.slot_duration += Duration::from_micros(1);
    let err = expect_reject(&mesh, &outcome, &outcome.schedule, None, None, Some(params));
    assert!(err.has_kind("frame-mismatch"), "{err}");
}

#[test]
fn delay_rederivation_matches_the_controller_to_the_nanosecond() {
    let (mesh, outcome) = base();
    // Deadline exactly at the claimed worst case: certifies.
    let mut flows = flow_requirements(&outcome);
    for (req, f) in flows.iter_mut().zip(&outcome.admitted) {
        req.deadline = Some(f.worst_case_delay);
    }
    let graph = graph_for(&mesh, &outcome.schedule);
    let demands = mesh.demands_for(&outcome.admitted);
    let params = CertParams::from_emulation(mesh.model());
    Certificate::check(&outcome.schedule, &graph, &demands, &flows, &params)
        .expect("claimed worst case is achievable");
    // One nanosecond tighter: rejected.
    for (req, f) in flows.iter_mut().zip(&outcome.admitted) {
        req.deadline = Some(f.worst_case_delay - Duration::from_nanos(1));
    }
    let err = Certificate::check(&outcome.schedule, &graph, &demands, &flows, &params)
        .expect_err("sub-worst-case deadline must be rejected");
    assert!(err.has_kind("delay-bound-exceeded"), "{err}");
}

#[test]
fn flow_over_an_idle_link_is_path_unscheduled() {
    let (mesh, outcome) = base();
    let extra = idle_link(&mesh, &outcome);
    let mut flows = flow_requirements(&outcome);
    flows.push(FlowRequirement {
        id: 99,
        links: vec![extra],
        deadline: None,
    });
    let err = expect_reject(&mesh, &outcome, &outcome.schedule, None, Some(flows), None);
    assert!(err.has_kind("path-unscheduled"), "{err}");
}

#[test]
fn reduced_guard_is_insufficient() {
    let (mesh, outcome) = base();
    let mut params = CertParams::from_emulation(mesh.model());
    params.guard = params.drift.required_guard() - Duration::from_nanos(1);
    let err = expect_reject(&mesh, &outcome, &outcome.schedule, None, None, Some(params));
    assert!(err.has_kind("guard-insufficient"), "{err}");
}

#[test]
fn doubled_resync_interval_outgrows_the_guard() {
    let (mesh, outcome) = base();
    let mut params = CertParams::from_emulation(mesh.model());
    // The deployed guard was sized for the original beacon cadence; a
    // node resynchronising half as often drifts past it.
    while params.drift.required_guard() <= params.guard {
        params.drift.resync_interval *= 2;
    }
    let err = expect_reject(&mesh, &outcome, &outcome.schedule, None, None, Some(params));
    assert!(err.has_kind("guard-insufficient"), "{err}");
}

#[test]
fn unbounded_stamping_error_is_insufficient_not_a_panic() {
    let (mesh, outcome) = base();
    let mut params = CertParams::from_emulation(mesh.model());
    // Stamping error times sync depth overflows `Duration`.
    params.drift.timestamp_error = Duration::MAX;
    params.drift.max_sync_depth = 2;
    let err = expect_reject(&mesh, &outcome, &outcome.schedule, None, None, Some(params));
    assert!(err.has_kind("guard-insufficient"), "{err}");
}

#[test]
fn nan_drift_is_insufficient_not_zero_drift() {
    let (mesh, outcome) = base();
    let mut params = CertParams::from_emulation(mesh.model());
    // A guard covering stamping and turnaround alone: enough only if the
    // drift term were zero, which is what `NaN as u64` made it.
    let drift = params.drift;
    let stamping = drift.timestamp_error * drift.max_sync_depth.max(1);
    params.guard = 2 * stamping + drift.turnaround;
    params.drift.drift_ppm = f64::NAN;
    let err = expect_reject(&mesh, &outcome, &outcome.schedule, None, None, Some(params));
    assert!(err.has_kind("guard-insufficient"), "{err}");
}

/// Certifies a session snapshot the way the engine's own suites do.
fn certify_session(session: &wimesh::QosSession) -> Result<(), TestCaseError> {
    support::certify(session.mesh(), session.snapshot())
        .map(drop)
        .map_err(|e| TestCaseError::fail(format!("session {e}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Admit/release churn through the stateful session: every published
    /// schedule along the way must certify.
    #[test]
    fn session_churn_always_certifies(
        seed in any::<u64>(),
        n in 4usize..9,
        flow_count in 1usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = generators::random_tree(n, &mut rng);
        let Ok(mesh) = MeshQos::builder(topo).build() else {
            return Ok(());
        };
        let mut flows = Vec::new();
        for i in 0..flow_count {
            let src = NodeId(rng.gen_range(0..n as u32));
            let dst = NodeId(rng.gen_range(0..n as u32));
            if src == dst {
                continue;
            }
            let rate = rng.gen_range(1..30) as f64 * 10_000.0;
            flows.push(if rng.gen_bool(0.5) {
                FlowSpec::guaranteed(i as u32, src, dst, rate, Duration::from_millis(150))
            } else {
                FlowSpec::best_effort(i as u32, src, dst, rate)
            });
        }
        let mut session = mesh.session(OrderPolicy::HopOrder);
        for f in &flows {
            if session.admit(f).is_err() {
                return Ok(());
            }
            certify_session(&session)?;
        }
        // Release every other flow; the heuristic may legitimately fail
        // on release (documented pathological case) — stop there.
        for f in flows.iter().step_by(2) {
            if session.release(f.id).is_err() {
                return Ok(());
            }
            certify_session(&session)?;
        }
        if session.rebalance().is_ok() {
            certify_session(&session)?;
        }
    }
}
