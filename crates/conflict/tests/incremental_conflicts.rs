//! Incremental conflict graphs against the pairwise build.
//!
//! A graph grown and shrunk one vertex at a time — through
//! `insert_vertex(topo, link, model)`, or through `insert_conflicting`
//! with a list `conflicting_links` computed once per link, as a session
//! memoises it — must hold, after every step, exactly the conflicting link
//! pairs `ConflictGraph::build_for_links` finds over the same vertices,
//! and the pairwise test `links_conflict` must answer every link pair as
//! the graph over every link does. Chains, grids and random unit-disk
//! meshes are checked under every interference model.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wimesh_conflict::{conflicting_links, links_conflict, ConflictGraph, InterferenceModel};
use wimesh_topology::generators::{self, UnitDiskParams};
use wimesh_topology::{LinkId, MeshTopology};

const MODELS: [InterferenceModel; 4] = [
    InterferenceModel::PrimaryOnly,
    InterferenceModel::Protocol { hops: 1 },
    InterferenceModel::Protocol { hops: 2 },
    InterferenceModel::Distance { range_m: 500.0 },
];

fn topology(rng: &mut StdRng) -> MeshTopology {
    match rng.gen_range(0..3) {
        0 => generators::chain(rng.gen_range(2..10)),
        1 => generators::grid(rng.gen_range(1..6), rng.gen_range(2..6)),
        _ => {
            let params = UnitDiskParams {
                nodes: rng.gen_range(2..16),
                area_m: 1000.0,
                range_m: 400.0,
                max_attempts: 200,
            };
            generators::random_unit_disk(params, rng).unwrap_or_else(|| generators::chain(3))
        }
    }
}

/// The edge set as link pairs `(smaller id, larger id)`.
fn pairs(graph: &ConflictGraph) -> BTreeSet<(LinkId, LinkId)> {
    graph
        .edges()
        .map(|(i, j)| {
            let (a, b) = (graph.link_at(i), graph.link_at(j));
            (a.min(b), a.max(b))
        })
        .collect()
}

/// `graph` against a pairwise build over its own vertex set.
fn assert_built(
    topo: &MeshTopology,
    model: InterferenceModel,
    graph: &ConflictGraph,
) -> Result<(), TestCaseError> {
    let built = ConflictGraph::build_for_links(topo, graph.links().to_vec(), model);
    prop_assert_eq!(pairs(graph), pairs(&built), "model {:?}", model);
    prop_assert_eq!(graph.edge_count(), built.edge_count());
    Ok(())
}

/// One seeded run: random inserts and removals on a random topology, under
/// each model, on a graph fed by `insert_vertex` and one fed by memoised
/// lists; both must equal the pairwise build after every step, and each
/// other vertex for vertex.
fn churn(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = topology(&mut rng);
    let all: Vec<LinkId> = topo.link_ids().collect();
    for model in MODELS {
        let memo: Vec<Vec<LinkId>> = all
            .iter()
            .map(|&l| conflicting_links(&topo, l, model))
            .collect();
        for (l, list) in all.iter().zip(&memo) {
            prop_assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "list of {} unsorted",
                l
            );
            prop_assert!(!list.contains(l), "{} conflicts with itself", l);
        }
        let mut direct = ConflictGraph::build_for_links(&topo, Vec::new(), model);
        let mut listed = direct.clone();
        for _ in 0..rng.gen_range(1..60) {
            let l = all[rng.gen_range(0..all.len())];
            if direct.index_of(l).is_some() && rng.gen_bool(0.5) {
                prop_assert!(direct.remove_vertex(l));
                prop_assert!(listed.remove_vertex(l));
            } else {
                let fresh = direct.index_of(l).is_none();
                prop_assert_eq!(direct.insert_vertex(&topo, l, model), fresh);
                prop_assert_eq!(listed.insert_conflicting(l, &memo[l.index()]), fresh);
            }
            prop_assert_eq!(direct.links(), listed.links());
            for v in 0..direct.vertex_count() {
                prop_assert_eq!(direct.neighbors(v), listed.neighbors(v));
            }
            assert_built(&topo, model, &direct)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn incremental_graphs_equal_the_pairwise_build(seed in any::<u64>()) {
        churn(seed)?;
    }
}

/// A link's list is exactly its neighbourhood in the graph over every link.
#[test]
fn lists_are_the_neighbourhoods_of_the_whole_topology_graph() {
    for seed in 0..16 {
        let topo = topology(&mut StdRng::seed_from_u64(seed));
        for model in MODELS {
            let whole = ConflictGraph::build(&topo, model);
            for l in topo.link_ids() {
                let mut expected = whole.conflicts_of(l);
                expected.sort_unstable();
                assert_eq!(
                    conflicting_links(&topo, l, model),
                    expected,
                    "{l} under {model:?}"
                );
            }
        }
    }
}

/// The pairwise test answers every pair of distinct links as the graph
/// over every link does; under the 1-hop protocol model that is a shared
/// endpoint, or one link's transmitter at or next to the other's receiver.
#[test]
fn pairwise_test_agrees_with_the_built_edges() {
    for seed in 0..16 {
        let topo = topology(&mut StdRng::seed_from_u64(seed));
        let links = topo.links();
        for model in MODELS {
            let whole = ConflictGraph::build(&topo, model);
            for a in links {
                for b in links.iter().filter(|b| b.id != a.id) {
                    let pairwise = links_conflict(&topo, a, b, model);
                    assert_eq!(
                        pairwise,
                        whole.are_in_conflict(a.id, b.id),
                        "{} and {} under {model:?}",
                        a.id,
                        b.id
                    );
                    if model == InterferenceModel::protocol_default() {
                        let near = |tx, rx| tx == rx || topo.link_between(tx, rx).is_some();
                        let one_hop = a.shares_endpoint(b) || near(a.tx, b.rx) || near(b.tx, a.rx);
                        assert_eq!(pairwise, one_hop, "{} and {}", a.id, b.id);
                    }
                }
            }
        }
    }
}
