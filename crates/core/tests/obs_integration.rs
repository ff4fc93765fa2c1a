//! Integration: admission control emits the documented spans and metrics
//! through `wimesh-obs` when a sink is installed.
//!
//! Everything lives in one `#[test]` because the obs sink is process
//! global; splitting assertions across tests would race on install/finish.

use std::sync::Arc;

use wimesh::{FlowSpec, MeshQos, OrderPolicy};
use wimesh_obs::sink::MemorySink;
use wimesh_sim::traffic::VoipCodec;
use wimesh_sim::FlowId;
use wimesh_topology::{generators, NodeId};

#[test]
fn admit_emits_expected_spans_and_metrics() {
    let sink = Arc::new(MemorySink::default());
    wimesh_obs::reset();
    wimesh_obs::install(sink.clone());

    // An exact session explains itself: calls toward the gateway of
    // chain(8) leave a gap between clique bound and warm order on some
    // admissions and none on others, and a flow the heaviest clique
    // alone rules out is a counted fast reject.
    let chain8 = MeshQos::builder(generators::chain(8))
        .build()
        .expect("default emulation params are valid");
    let mut session = chain8.session(OrderPolicy::ExactMilp);
    for (id, src) in [3, 7, 1, 5, 2, 6].into_iter().enumerate() {
        let call = FlowSpec::voip(id as u32, NodeId(src), NodeId(0), VoipCodec::G711);
        assert!(session.admit(&call).expect("admit").is_admitted());
    }
    assert!(
        session.stats().oracle_calls >= 1,
        "some gap needed the oracle"
    );
    assert_eq!(session.stats().clique_prunes, 0);
    let mut id = 100;
    while session
        .admit(&FlowSpec::guaranteed(
            id,
            NodeId(1),
            NodeId(0),
            2_000_000.0,
            std::time::Duration::from_millis(200),
        ))
        .expect("admit")
        .is_admitted()
    {
        id += 1;
    }
    let oracle_calls = session.stats().oracle_calls;
    let ranges_moved = session.stats().ranges_moved;
    assert!(
        ranges_moved >= 7,
        "the first call alone gave three links a range, the farthest seven"
    );
    assert_eq!(
        session.stats().clique_prunes,
        1,
        "the clique around link 1 -> 0 outgrew the frame: no solver needed to say no"
    );

    // A `gw_exact_chain8`-shaped episode: ten G.711 calls toward the
    // gateway from every node of chain(8) (three nodes twice), then every
    // call released. Its oracle calls branch, so the child counters move.
    let mut episode = chain8.session(OrderPolicy::ExactMilp);
    for (id, src) in [4, 1, 7, 2, 5, 3, 1, 6, 2, 3].into_iter().enumerate() {
        let call = FlowSpec::voip(id as u32, NodeId(src), NodeId(0), VoipCodec::G711);
        assert!(episode.admit(&call).expect("admit").is_admitted());
    }
    for id in [6, 0, 9, 3, 1, 8, 5, 2, 7, 4] {
        assert!(episode.release(FlowId(id)).expect("release"));
    }
    assert!(episode.stats().oracle_calls >= 1);
    // The counters below are sums over both sessions.
    let oracle_calls = oracle_calls + episode.stats().oracle_calls;
    let ranges_moved = ranges_moved + episode.stats().ranges_moved;

    let mesh = MeshQos::builder(generators::chain(5))
        .build()
        .expect("default emulation params are valid");
    let flows: Vec<FlowSpec> = (0..2)
        .map(|i| FlowSpec::voip(i, NodeId(4 - i), NodeId(0), VoipCodec::G729))
        .collect();
    // The batch API is a fresh session placing the flows in order: one
    // `admission.admit` root per call over the session's own spans. The
    // sessions it runs are not handed out, so each call is mirrored by a
    // session of our own admitting the same flows — same work, same
    // counts — to keep the sums below exact.
    let (mut oracle_calls, mut ranges_moved) = (oracle_calls, ranges_moved);
    for policy in [OrderPolicy::ExactMilp, OrderPolicy::HopOrder] {
        let outcome = mesh
            .admit(&flows, policy)
            .expect("chain admits two voip flows");
        assert_eq!(outcome.admitted.len(), 2);
        let mut mirror = mesh.session(policy);
        for f in &flows {
            assert!(mirror.admit(f).expect("admit").is_admitted());
        }
        oracle_calls += 2 * mirror.stats().oracle_calls;
        ranges_moved += 2 * mirror.stats().ranges_moved;
    }

    assert!(wimesh_obs::finish().is_some());

    // Span names from each instrumented layer must appear in the stream.
    let names = sink.span_names();
    for expected in [
        "admission.admit",
        "session.admit",
        "session.search",
        "milp.simplex.solve",
        "tdma.schedule.build",
    ] {
        assert!(
            names.contains(&expected),
            "missing span {expected}; got {names:?}"
        );
    }

    // A batch call is one tree: its `admission.admit` root closes after
    // the `session.admit` of each of its two flows, which sit under it.
    let events = sink.span_events();
    let first_root = events
        .iter()
        .position(|e| e.name == "admission.admit")
        .unwrap();
    assert_eq!(events[first_root].depth, 0, "admission.admit is a root");
    let placements: Vec<_> = events[..first_root]
        .iter()
        .rev()
        .take_while(|e| e.depth > 0)
        .filter(|e| e.name == "session.admit")
        .collect();
    assert_eq!(placements.len(), 2);
    assert!(placements.iter().all(|e| e.depth == 1));
    assert!(
        events[..first_root]
            .iter()
            .any(|e| e.name == "session.search" && e.depth == 2),
        "the exact batch searches under its placements"
    );

    // finish() flushed one registry snapshot with the admission metrics.
    let snaps = sink.metrics_snapshots();
    assert_eq!(snaps.len(), 1);
    let snap = &snaps[0];
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    };
    assert!(counter("milp.simplex.pivots").unwrap_or(0) >= 1);
    // Branch & bound children re-optimise their parent's tableau: every
    // variable of the order model is bounded, so none is solved cold, and
    // a child is a handful of dual pivots away from its parent.
    let reoptimised = counter("milp.bnb.children_reoptimised").unwrap_or(0);
    assert!(reoptimised > 0);
    assert_eq!(counter("milp.bnb.children_cold").unwrap_or(0), 0);
    let dual_pivots = counter("milp.simplex.dual_pivots").unwrap_or(0);
    assert!(
        dual_pivots <= 8 * reoptimised,
        "{dual_pivots} dual pivots over {reoptimised} re-optimised children"
    );
    assert!(
        snap.histograms
            .iter()
            .any(|(n, h)| n == "session.search.step" && h.count() == oracle_calls),
        "one step duration per oracle call"
    );
    // The session's search: fast reject, gap, and solves the bounds closed.
    assert_eq!(counter("admission.clique_prunes"), Some(1));
    assert_eq!(counter("session.oracle.calls"), Some(oracle_calls));
    // What each published schedule changed, summed: the stat and the
    // counter are the same number.
    assert_eq!(counter("session.ranges_moved"), Some(ranges_moved));
    assert!(counter("session.search.closed_by_bounds").unwrap_or(0) >= 1);
    let gap = snap
        .gauges
        .iter()
        .find(|(n, _)| n == "session.search.gap")
        .map(|(_, g)| g.max);
    assert!(gap.is_some_and(|g| g >= 1.0), "gap gauge: {gap:?}");

    wimesh_obs::reset();
}
