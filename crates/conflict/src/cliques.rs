//! Clique helpers for capacity bounds.
//!
//! Every clique of the conflict graph must be served sequentially, so the
//! total slot demand inside any clique lower-bounds the TDMA frame length.
//! A *clique cover* (partition of vertices into cliques) turns per-clique
//! demand sums into a set of necessary frame-length conditions; the
//! admission controller checks the tightest one [`heaviest_clique`] finds
//! before invoking the expensive feasibility MILP.

use crate::ConflictGraph;

/// Shared greedy growth loop: starting from `seed`, repeatedly adds the
/// highest-`rank` admissible neighbor of `seed` that is adjacent to
/// everything already chosen. `admissible` restricts the candidate set
/// (the clique cover uses it to exclude already-covered vertices).
///
/// Returns dense vertex indices, sorted ascending, always containing
/// `seed`.
fn grow_clique(
    graph: &ConflictGraph,
    seed: usize,
    admissible: impl Fn(usize) -> bool,
    rank: impl Fn(usize) -> u64,
) -> Vec<usize> {
    let mut clique = vec![seed];
    let mut candidates: Vec<usize> = graph
        .neighbors(seed)
        .iter()
        .copied()
        .filter(|&v| admissible(v))
        .collect();
    candidates.sort_unstable_by_key(|&v| (std::cmp::Reverse(rank(v)), v));
    for v in candidates {
        if clique
            .iter()
            .all(|&u| graph.neighbors(v).binary_search(&u).is_ok())
        {
            clique.push(v);
        }
    }
    clique.sort_unstable();
    clique
}

/// Grows a maximal clique containing vertex `seed` greedily: repeatedly
/// adds the highest-degree vertex adjacent to everything already chosen.
///
/// Returns dense vertex indices, sorted ascending, always containing
/// `seed`.
///
/// # Panics
///
/// Panics if `seed >= graph.vertex_count()`.
pub fn maximal_clique_containing(graph: &ConflictGraph, seed: usize) -> Vec<usize> {
    assert!(seed < graph.vertex_count(), "seed out of range");
    grow_clique(graph, seed, |_| true, |v| graph.degree(v) as u64)
}

/// Greedy clique cover: partitions the vertex set into disjoint cliques.
///
/// Visits vertices in decreasing-degree order; each uncovered vertex seeds
/// a maximal clique restricted to uncovered vertices. The result is a
/// partition (every vertex appears in exactly one clique). Smaller covers
/// give tighter capacity bounds, but any cover is sound.
pub fn greedy_clique_cover(graph: &ConflictGraph) -> Vec<Vec<usize>> {
    let n = graph.vertex_count();
    let mut covered = vec![false; n];
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| graph.degree(b).cmp(&graph.degree(a)).then(a.cmp(&b)));

    let mut cover = Vec::new();
    for &seed in &order {
        if covered[seed] {
            continue;
        }
        let clique = grow_clique(graph, seed, |v| !covered[v], |v| graph.degree(v) as u64);
        for &v in &clique {
            covered[v] = true;
        }
        cover.push(clique);
    }
    cover
}

/// The heaviest clique greedy growth finds under vertex weights `weight`,
/// with its total weight.
///
/// Grows one maximal clique per positively-weighted vertex, taking the
/// heaviest common neighbor first, and also scores every clique of
/// [`greedy_clique_cover`], so the result is never lighter than the
/// heaviest clique of that partition. The cover alone can miss the
/// binding clique: it is seeded by degree and each vertex lands in one
/// clique only, so a heavy window of links next to a gateway is split
/// between cliques grown from mid-mesh seeds.
///
/// Links of a clique can never share a minislot, so the returned weight
/// (with per-link demands as weights) floors any feasible TDMA horizon —
/// for *any* clique, which is why a heuristic search is sound here: a
/// lighter clique than the true maximum only loosens the bound.
///
/// Returns dense vertex indices, sorted ascending; empty with weight 0
/// when no vertex has positive weight.
pub fn heaviest_clique(graph: &ConflictGraph, weight: impl Fn(usize) -> u64) -> (Vec<usize>, u64) {
    let total = |clique: &[usize]| clique.iter().map(|&v| weight(v)).sum::<u64>();
    let grown = (0..graph.vertex_count())
        .filter(|&seed| weight(seed) > 0)
        .map(|seed| grow_clique(graph, seed, |v| weight(v) > 0, &weight));
    let mut best = (Vec::new(), 0);
    for clique in grown.chain(greedy_clique_cover(graph)) {
        let w = total(&clique);
        if w > best.1 {
            best = (clique, w);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InterferenceModel;
    use wimesh_topology::generators;

    fn is_clique(graph: &ConflictGraph, verts: &[usize]) -> bool {
        for (i, &u) in verts.iter().enumerate() {
            for &v in &verts[i + 1..] {
                if graph.neighbors(u).binary_search(&v).is_err() {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn maximal_clique_is_clique_and_maximal() {
        let topo = generators::grid(3, 3);
        let graph = ConflictGraph::build(&topo, InterferenceModel::protocol_default());
        for seed in 0..graph.vertex_count() {
            let clique = maximal_clique_containing(&graph, seed);
            assert!(clique.contains(&seed));
            assert!(is_clique(&graph, &clique));
            // Maximality: no vertex outside is adjacent to all members.
            for v in 0..graph.vertex_count() {
                if clique.contains(&v) {
                    continue;
                }
                let adjacent_to_all = clique
                    .iter()
                    .all(|&u| graph.neighbors(v).binary_search(&u).is_ok());
                assert!(!adjacent_to_all, "clique from seed {seed} not maximal");
            }
        }
    }

    #[test]
    fn cover_is_partition_of_cliques() {
        let topo = generators::chain(7);
        let graph = ConflictGraph::build(&topo, InterferenceModel::protocol_default());
        let cover = greedy_clique_cover(&graph);
        let mut seen = vec![false; graph.vertex_count()];
        for clique in &cover {
            assert!(is_clique(&graph, clique));
            for &v in clique {
                assert!(!seen[v], "vertex {v} covered twice");
                seen[v] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "not all vertices covered");
    }

    #[test]
    fn star_cover_is_single_clique() {
        let topo = generators::star(5);
        let graph = ConflictGraph::build(&topo, InterferenceModel::PrimaryOnly);
        let cover = greedy_clique_cover(&graph);
        assert_eq!(cover.len(), 1);
        assert_eq!(cover[0].len(), graph.vertex_count());
    }

    #[test]
    fn independent_links_get_singleton_cliques() {
        // Two far-apart hops with primary-only conflicts: independent.
        let mut topo = wimesh_topology::MeshTopology::new();
        let a = topo.add_node();
        let b = topo.add_node();
        let c = topo.add_node();
        let d = topo.add_node();
        topo.add_link(a, b).unwrap();
        topo.add_link(c, d).unwrap();
        let graph = ConflictGraph::build(&topo, InterferenceModel::PrimaryOnly);
        let cover = greedy_clique_cover(&graph);
        assert_eq!(cover.len(), 2);
        assert!(cover.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn graph_methods_delegate_to_free_functions() {
        let topo = generators::grid(3, 3);
        let graph = ConflictGraph::build(&topo, InterferenceModel::protocol_default());
        for seed in 0..graph.vertex_count() {
            assert_eq!(
                graph.maximal_clique_containing(seed),
                maximal_clique_containing(&graph, seed)
            );
        }
        assert_eq!(graph.clique_cover(), greedy_clique_cover(&graph));
    }

    #[test]
    fn heaviest_clique_finds_the_window_the_cover_splits() {
        // One call from every node toward node 0 of chain(8): demand grows
        // toward the gateway, the cover is seeded mid-chain by degree.
        let topo = generators::chain(8);
        let links: Vec<_> = (1..8u32)
            .map(|n| topo.link_between(n.into(), (n - 1).into()).unwrap())
            .collect();
        let graph = ConflictGraph::build_for_links(
            &topo,
            links.clone(),
            InterferenceModel::protocol_default(),
        );
        // Link n -> n-1 carries every call from node n or beyond.
        let weight = |v: usize| {
            let hop = links.iter().position(|&l| l == graph.link_at(v)).unwrap();
            (7 - hop) as u64
        };
        let (clique, w) = heaviest_clique(&graph, weight);
        assert!(is_clique(&graph, &clique));
        assert_eq!(w, clique.iter().map(|&v| weight(v)).sum::<u64>());
        let cover_best = greedy_clique_cover(&graph)
            .iter()
            .map(|c| c.iter().map(|&v| weight(v)).sum::<u64>())
            .max()
            .unwrap();
        assert!(w > cover_best, "heaviest {w}, cover {cover_best}");
    }

    #[test]
    fn heaviest_clique_of_weightless_graph_is_empty() {
        let topo = generators::chain(4);
        let graph = ConflictGraph::build(&topo, InterferenceModel::protocol_default());
        assert_eq!(heaviest_clique(&graph, |_| 0), (Vec::new(), 0));
    }

    #[test]
    fn empty_graph_empty_cover() {
        let topo = wimesh_topology::MeshTopology::new();
        let graph = ConflictGraph::build(&topo, InterferenceModel::PrimaryOnly);
        assert!(greedy_clique_cover(&graph).is_empty());
    }
}
