//! Property tests: conflict graphs are well-formed for arbitrary
//! topologies and interference radii; colorings and clique covers stay
//! structurally valid; the heaviest-clique bound sits between the cover's
//! best clique and the true maximum-weight clique.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wimesh_conflict::{
    greedy_clique_cover, greedy_coloring, heaviest_clique, maximal_clique_containing,
    ConflictGraph, InterferenceModel,
};
use wimesh_topology::{generators, MeshTopology};

fn arb_topology() -> impl Strategy<Value = MeshTopology> {
    (2usize..14, any::<u64>(), 0usize..8).prop_map(|(n, seed, extra)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut topo = generators::random_tree(n, &mut rng);
        use rand::Rng;
        for _ in 0..extra {
            let a = wimesh_topology::NodeId(rng.gen_range(0..n as u32));
            let b = wimesh_topology::NodeId(rng.gen_range(0..n as u32));
            if a != b && topo.link_between(a, b).is_none() {
                topo.add_bidirectional(a, b).expect("checked");
            }
        }
        topo
    })
}

fn arb_model() -> impl Strategy<Value = InterferenceModel> {
    prop_oneof![
        Just(InterferenceModel::PrimaryOnly),
        (1usize..4).prop_map(|hops| InterferenceModel::Protocol { hops }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn graph_is_symmetric_irreflexive((topo, model) in (arb_topology(), arb_model())) {
        let cg = ConflictGraph::build(&topo, model);
        prop_assert_eq!(cg.vertex_count(), topo.link_count());
        for i in 0..cg.vertex_count() {
            prop_assert!(!cg.neighbors(i).contains(&i));
            for &j in cg.neighbors(i) {
                prop_assert!(cg.neighbors(j).contains(&i));
            }
        }
        prop_assert_eq!(cg.edges().count(), cg.edge_count());
    }

    #[test]
    fn primary_conflicts_always_present((topo, model) in (arb_topology(), arb_model())) {
        let cg = ConflictGraph::build(&topo, model);
        // Any two links sharing an endpoint must conflict under every model.
        for a in topo.links() {
            for b in topo.links() {
                if a.id != b.id && a.shares_endpoint(b) {
                    prop_assert!(
                        cg.are_in_conflict(a.id, b.id),
                        "links {} and {} share a node but do not conflict",
                        a.id, b.id
                    );
                }
            }
        }
    }

    #[test]
    fn wider_radius_only_adds_edges(topo in arb_topology()) {
        let h1 = ConflictGraph::build(&topo, InterferenceModel::Protocol { hops: 1 });
        let h2 = ConflictGraph::build(&topo, InterferenceModel::Protocol { hops: 2 });
        prop_assert!(h2.edge_count() >= h1.edge_count());
        for (i, j) in h1.edges() {
            prop_assert!(h2.are_in_conflict(h1.link_at(i), h1.link_at(j)));
        }
    }

    #[test]
    fn coloring_is_proper((topo, model) in (arb_topology(), arb_model())) {
        let cg = ConflictGraph::build(&topo, model);
        let coloring = greedy_coloring(&cg);
        prop_assert!(coloring.is_proper(&cg));
        prop_assert!(coloring.color_count() <= cg.max_degree() + 1);
    }

    #[test]
    fn clique_cover_is_partition_of_cliques((topo, model) in (arb_topology(), arb_model())) {
        let cg = ConflictGraph::build(&topo, model);
        let cover = greedy_clique_cover(&cg);
        let mut seen = vec![false; cg.vertex_count()];
        for clique in &cover {
            for (i, &u) in clique.iter().enumerate() {
                prop_assert!(!seen[u]);
                seen[u] = true;
                for &v in &clique[i + 1..] {
                    prop_assert!(cg.neighbors(u).binary_search(&v).is_ok());
                }
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn maximal_cliques_are_maximal((topo, model) in (arb_topology(), arb_model())) {
        let cg = ConflictGraph::build(&topo, model);
        if cg.vertex_count() == 0 {
            return Ok(());
        }
        let clique = maximal_clique_containing(&cg, 0);
        for v in 0..cg.vertex_count() {
            if clique.contains(&v) {
                continue;
            }
            let adj_all = clique
                .iter()
                .all(|&u| cg.neighbors(v).binary_search(&u).is_ok());
            prop_assert!(!adj_all, "vertex {} extends the 'maximal' clique", v);
        }
    }

    #[test]
    fn heaviest_clique_between_cover_and_brute_force(
        (topo, model, seed) in (arb_topology(), arb_model(), any::<u64>())
    ) {
        use rand::seq::SliceRandom;
        use rand::Rng;
        // At most ten vertices, so every vertex subset can be enumerated.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut links: Vec<_> = topo.link_ids().collect();
        links.shuffle(&mut rng);
        links.truncate(rng.gen_range(1..=links.len().min(10)));
        let cg = ConflictGraph::build_for_links(&topo, links, model);
        let n = cg.vertex_count();
        let weights: Vec<u64> = (0..n)
            .map(|_| if rng.gen_bool(0.2) { 0 } else { rng.gen_range(1..9) })
            .collect();
        let weigh = |verts: &[usize]| verts.iter().map(|&v| weights[v]).sum::<u64>();
        let is_clique = |verts: &[usize]| {
            verts.iter().enumerate().all(|(i, &u)| {
                verts[i + 1..]
                    .iter()
                    .all(|&v| cg.neighbors(u).binary_search(&v).is_ok())
            })
        };

        let (clique, weight) = heaviest_clique(&cg, |v| weights[v]);
        prop_assert!(is_clique(&clique));
        prop_assert_eq!(weight, weigh(&clique));
        for c in greedy_clique_cover(&cg) {
            prop_assert!(weight >= weigh(&c), "cover clique {:?} outweighs {:?}", c, clique);
        }
        let brute = (0u32..1 << n)
            .map(|mask| (0..n).filter(|&v| mask & (1 << v) != 0).collect::<Vec<_>>())
            .filter(|verts| is_clique(verts))
            .map(|verts| weigh(&verts))
            .max()
            .unwrap_or(0);
        prop_assert!(weight <= brute, "bound {} above the maximum-weight clique {}", weight, brute);
    }
}
