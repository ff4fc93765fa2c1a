//! Integration: the headline claim — admitted flows keep their delay
//! bounds in packet-level simulation of the emulated MAC, while the DCF
//! baseline degrades under the same load.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wimesh::phy80211::dcf::DcfConfig;
use wimesh::sim::traffic::{CbrSource, TrafficSource, VoipCodec, VoipSource};
use wimesh::{AdmissionOutcome, FlowSpec, MeshQos, OrderPolicy};
use wimesh_topology::{generators, NodeId};

#[path = "../crates/core/tests/support/mod.rs"]
mod support;

/// Unconditional gate: every schedule the admission controller publishes
/// must pass the independent certifier in `wimesh-check` — conflict
/// freedom, demand satisfaction, delay bounds and guard sufficiency are
/// re-derived from scratch, not trusted.
fn certify_outcome(mesh: &MeshQos, outcome: &AdmissionOutcome) {
    let report = support::certify(mesh, outcome).expect("published schedule must certify");
    assert_eq!(report.links, outcome.schedule.len());
}

fn voip_source(spec: &FlowSpec) -> Box<dyn TrafficSource> {
    let codec = if spec.rate_bps > 50_000.0 {
        VoipCodec::G711
    } else {
        VoipCodec::G729
    };
    Box::new(VoipSource::new(codec))
}

#[test]
fn guarantees_hold_over_long_runs() {
    let mesh = MeshQos::builder(generators::chain(6)).build().unwrap();
    let flows: Vec<FlowSpec> = (0..4)
        .map(|i| FlowSpec::voip(i, NodeId(5), NodeId(0), VoipCodec::G729))
        .collect();
    let outcome = mesh.admit(&flows, OrderPolicy::HopOrder).unwrap();
    certify_outcome(&mesh, &outcome);
    assert_eq!(
        outcome.admitted.len(),
        4,
        "rejected: {:?}",
        outcome.rejected
    );

    let mut rng = StdRng::seed_from_u64(5);
    let stats = mesh
        .simulate_tdma(
            &outcome,
            voip_source,
            Duration::from_secs(120),
            200,
            &mut rng,
        )
        .unwrap();
    for (f, s) in outcome.admitted.iter().zip(&stats) {
        assert!(
            s.sent() > 500,
            "flow {} barely generated traffic",
            f.spec.id
        );
        assert_eq!(s.dropped(), 0, "guaranteed flow lost packets");
        assert!(
            s.max_delay() <= f.worst_case_delay,
            "flow {}: {:?} > {:?}",
            f.spec.id,
            s.max_delay(),
            f.worst_case_delay
        );
        assert!(s.max_delay() <= f.spec.deadline.unwrap());
    }
}

#[test]
fn guarantees_hold_under_peak_rate_stress() {
    // CBR at the full reserved (talkspurt) rate: the hardest legal load.
    let mesh = MeshQos::builder(generators::chain(5)).build().unwrap();
    let flows: Vec<FlowSpec> = (0..3)
        .map(|i| FlowSpec::voip(i, NodeId(4), NodeId(0), VoipCodec::G711))
        .collect();
    let outcome = mesh.admit(&flows, OrderPolicy::HopOrder).unwrap();
    certify_outcome(&mesh, &outcome);
    assert_eq!(outcome.admitted.len(), 3);

    let peak = |_: &FlowSpec| -> Box<dyn TrafficSource> {
        Box::new(CbrSource::new(Duration::from_millis(20), 200))
    };
    let mut rng = StdRng::seed_from_u64(11);
    let stats = mesh
        .simulate_tdma(&outcome, peak, Duration::from_secs(60), 200, &mut rng)
        .unwrap();
    for (f, s) in outcome.admitted.iter().zip(&stats) {
        assert_eq!(s.dropped(), 0);
        assert!(s.max_delay() <= f.worst_case_delay);
        // Goodput equals offered load: the reservation really carries the
        // peak rate.
        assert!((s.goodput_bps() - 80_000.0).abs() / 80_000.0 < 0.05);
    }
}

#[test]
fn dcf_collapses_where_tdma_does_not() {
    // Saturate a 6-hop chain with bidirectional heavy CBR plus VoIP:
    // DCF loses packets and grows a delay tail; the TDMA reservation for
    // the VoIP flow is unaffected because interfering traffic simply is
    // not admitted into its slots.
    let topo = generators::chain(7);
    let mesh = MeshQos::builder(topo).build().unwrap();

    let voip = FlowSpec::voip(0, NodeId(6), NodeId(0), VoipCodec::G711);
    let outcome = mesh
        .admit(std::slice::from_ref(&voip), OrderPolicy::HopOrder)
        .unwrap();
    certify_outcome(&mesh, &outcome);
    assert_eq!(outcome.admitted.len(), 1);
    let bound = outcome.admitted[0].worst_case_delay;

    let mut rng = StdRng::seed_from_u64(21);
    let tdma_stats = mesh
        .simulate_tdma(
            &outcome,
            voip_source,
            Duration::from_secs(30),
            200,
            &mut rng,
        )
        .unwrap();
    assert!(tdma_stats[0].max_delay() <= bound);
    assert_eq!(tdma_stats[0].dropped(), 0);

    // The same VoIP call under DCF, competing with two saturating flows.
    let dcf_flows = vec![
        voip.clone(),
        FlowSpec::best_effort(1, NodeId(0), NodeId(6), 6_000_000.0),
        FlowSpec::best_effort(2, NodeId(6), NodeId(0), 6_000_000.0),
    ];
    let make_source = |spec: &FlowSpec| -> Box<dyn TrafficSource> {
        if spec.id.0 == 0 {
            Box::new(VoipSource::new(VoipCodec::G711))
        } else {
            Box::new(CbrSource::new(Duration::from_millis(2), 1500))
        }
    };
    let mut rng = StdRng::seed_from_u64(21);
    let dcf = mesh.simulate_dcf(
        &dcf_flows,
        make_source,
        DcfConfig {
            queue_capacity: 50,
            ..DcfConfig::default()
        },
        Duration::from_secs(30),
        &mut rng,
    );
    let voip_dcf = &dcf[0].1;
    let degraded =
        voip_dcf.loss_rate() > 0.01 || voip_dcf.delay_quantile(0.99).is_some_and(|d| d > bound);
    assert!(
        degraded,
        "DCF under saturation should violate the bound: loss {:.3}, p99 {:?}",
        voip_dcf.loss_rate(),
        voip_dcf.delay_quantile(0.99)
    );
}

#[test]
fn jitter_is_bounded_by_frame_structure() {
    // TDMA service is periodic, so consecutive-packet delay differences
    // stay within one frame.
    let mesh = MeshQos::builder(generators::chain(4)).build().unwrap();
    let flows = vec![FlowSpec::voip(0, NodeId(3), NodeId(0), VoipCodec::G711)];
    let outcome = mesh.admit(&flows, OrderPolicy::HopOrder).unwrap();
    certify_outcome(&mesh, &outcome);
    let peak = |_: &FlowSpec| -> Box<dyn TrafficSource> {
        Box::new(CbrSource::new(Duration::from_millis(20), 200))
    };
    let mut rng = StdRng::seed_from_u64(31);
    let stats = mesh
        .simulate_tdma(&outcome, peak, Duration::from_secs(30), 100, &mut rng)
        .unwrap();
    let frame = mesh.model().mesh_frame().frame_duration();
    assert!(stats[0].mean_jitter().unwrap() <= frame);
}
