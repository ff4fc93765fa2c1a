//! Regression guard for run-to-run determinism of the TDMA emulation
//! pipeline. The per-link payload overrides used to flow through a
//! `HashMap`, whose randomized iteration order broke seeded runs; they
//! now travel in a `BTreeMap`, and the root `clippy.toml` bans `HashMap`
//! and `HashSet` in every crate. This test reruns the identical seeded
//! admission + simulation twice in one process — an order leak anywhere
//! on the path shows up as diverging statistics.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wimesh::{FlowSpec, MeshQos, OrderPolicy};
use wimesh_sim::traffic::{TrafficSource, VoipCodec, VoipSource};
use wimesh_sim::FlowStats;
use wimesh_topology::{generators, NodeId};

fn voip_source(_spec: &FlowSpec) -> Box<dyn TrafficSource> {
    Box::new(VoipSource::new(VoipCodec::G711))
}

fn run_once(seed: u64) -> Vec<FlowStats> {
    // A grid gives cross-traffic and multiple scheduled links, so the
    // payload map holds several entries and any order sensitivity in
    // applying them has room to surface.
    let topo = generators::grid(3, 3);
    let mesh = MeshQos::builder(topo).build().unwrap();
    let flows = vec![
        FlowSpec::voip(0, NodeId(8), NodeId(0), VoipCodec::G711),
        FlowSpec::voip(1, NodeId(6), NodeId(2), VoipCodec::G729),
        FlowSpec::voip(2, NodeId(2), NodeId(7), VoipCodec::G711),
    ];
    let outcome = mesh.admit(&flows, OrderPolicy::HopOrder).unwrap();
    assert!(!outcome.admitted.is_empty());
    mesh.simulate_tdma(
        &outcome,
        voip_source,
        Duration::from_secs(10),
        200,
        &mut StdRng::seed_from_u64(seed),
    )
    .unwrap()
}

#[test]
fn identical_seeds_give_identical_statistics() {
    let a = run_once(11);
    let b = run_once(11);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.sent(), y.sent(), "sent counts diverged");
        assert_eq!(x.delivered(), y.delivered(), "delivery counts diverged");
        assert_eq!(x.dropped(), y.dropped(), "drop counts diverged");
        assert_eq!(x.max_delay(), y.max_delay(), "max delay diverged");
        assert_eq!(x.mean_delay(), y.mean_delay(), "mean delay diverged");
        assert_eq!(x.mean_jitter(), y.mean_jitter(), "jitter diverged");
    }
}

#[test]
fn different_seeds_actually_exercise_the_channel() {
    // Sanity check that the equality above is not vacuous: traffic is
    // stochastic, so distinct seeds should produce distinct traces.
    let a = run_once(11);
    let b = run_once(12);
    assert!(
        a.iter()
            .zip(&b)
            .any(|(x, y)| x.sent() != y.sent() || x.mean_delay() != y.mean_delay()),
        "seeded runs look identical across seeds; the RNG is not reaching the sources"
    );
}
