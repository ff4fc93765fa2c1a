//! Property tests for graph and routing invariants.

use proptest::prelude::*;
use wimesh_topology::routing::{shortest_path, GatewayRouting};
use wimesh_topology::{generators, Direction, MeshTopology, NodeId};

/// Strategy: a connected random topology built from a random tree plus
/// random extra edges.
fn arb_connected_topology() -> impl Strategy<Value = MeshTopology> {
    (
        2usize..12,
        proptest::collection::vec((0u32..12, 0u32..12), 0..10),
        any::<u64>(),
    )
        .prop_map(|(n, extra, seed)| {
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut topo = generators::random_tree(n, &mut rng);
            for (a, b) in extra {
                let (a, b) = (NodeId(a % n as u32), NodeId(b % n as u32));
                if a != b && topo.link_between(a, b).is_none() {
                    topo.add_bidirectional(a, b)
                        .expect("checked for duplicates");
                }
            }
            topo
        })
}

/// Strategy: random one-way links, so a hop distance and its reverse may
/// differ and some nodes may be unreachable.
fn arb_directed_topology() -> impl Strategy<Value = MeshTopology> {
    (
        2usize..10,
        proptest::collection::vec((0u32..10, 0u32..10), 0..30),
    )
        .prop_map(|(n, links)| {
            let mut topo = MeshTopology::new();
            for _ in 0..n {
                topo.add_node();
            }
            for (a, b) in links {
                let (a, b) = (NodeId(a % n as u32), NodeId(b % n as u32));
                if a != b && topo.link_between(a, b).is_none() {
                    topo.add_link(a, b).expect("checked for duplicates");
                }
            }
            topo
        })
}

proptest! {
    #[test]
    fn links_and_reverses_are_consistent(topo in arb_connected_topology()) {
        for link in topo.links() {
            prop_assert_eq!(topo.link_between(link.tx, link.rx), Some(link.id));
            // Built from bidirectional edges, so every link has a reverse.
            prop_assert!(topo.link_between(link.rx, link.tx).is_some());
        }
    }

    #[test]
    fn hop_distance_is_symmetric_and_triangular(topo in arb_connected_topology()) {
        let ids: Vec<NodeId> = topo.node_ids().collect();
        for &a in &ids {
            for &b in &ids {
                let dab = topo.hop_distance(a, b);
                let dba = topo.hop_distance(b, a);
                prop_assert_eq!(dab, dba, "asymmetric distance {} {}", a, b);
                // Triangle inequality through any third node.
                if let (Some(dab), Some(c)) = (dab, ids.first().copied()) {
                    if let (Some(dac), Some(dcb)) =
                        (topo.hop_distance(a, c), topo.hop_distance(c, b))
                    {
                        prop_assert!(dab <= dac + dcb);
                    }
                }
            }
        }
    }

    #[test]
    fn shortest_path_length_matches_hop_distance(topo in arb_connected_topology()) {
        let ids: Vec<NodeId> = topo.node_ids().collect();
        for &a in &ids {
            for &b in &ids {
                if a == b {
                    continue;
                }
                let path = shortest_path(&topo, a, b).expect("connected");
                prop_assert_eq!(Some(path.hop_count()), topo.hop_distance(a, b));
                prop_assert_eq!(path.source(), a);
                prop_assert_eq!(path.destination(), b);
                // The path is simple: no repeated nodes.
                let mut nodes = path.nodes().to_vec();
                nodes.sort_unstable();
                nodes.dedup();
                prop_assert_eq!(nodes.len(), path.hop_count() + 1);
            }
        }
    }

    #[test]
    fn k_hop_neighborhood_is_monotone(topo in arb_connected_topology()) {
        for node in topo.node_ids() {
            let mut prev = 0;
            for k in 1..topo.node_count() {
                let cur = topo.k_hop_neighborhood(node, k).len();
                prop_assert!(cur >= prev);
                prev = cur;
            }
            // Full-radius neighborhood reaches everyone else (connected).
            prop_assert_eq!(
                topo.k_hop_neighborhood(node, topo.node_count()).len(),
                topo.node_count() - 1
            );
        }
    }

    #[test]
    fn inbound_walk_measures_hops_to_the_source(topo in arb_directed_topology()) {
        for s in topo.node_ids() {
            let hops = topo.bfs(s, Direction::Inbound, None, |_| true, |_| true);
            for v in topo.node_ids() {
                let h = hops[v.index()];
                prop_assert_eq!((h != usize::MAX).then_some(h), topo.hop_distance(v, s));
            }
        }
    }

    #[test]
    fn capped_walk_reaches_exactly_the_nodes_within_the_cap(topo in arb_directed_topology()) {
        for s in topo.node_ids() {
            for k in 0..topo.node_count() {
                let mut reached = Vec::new();
                topo.bfs(s, Direction::Outbound, Some(k), |_| true, |r| {
                    reached.push((r.node, r.hops));
                    true
                });
                reached.sort_unstable();
                let within: Vec<(NodeId, usize)> = topo
                    .node_ids()
                    .filter(|&v| v != s)
                    .filter_map(|v| topo.hop_distance(s, v).map(|d| (v, d)))
                    .filter(|&(_, d)| d <= k)
                    .collect();
                prop_assert_eq!(reached, within, "source {} cap {}", s, k);
            }
        }
    }

    #[test]
    fn gateway_parent_is_a_neighbour_one_hop_closer(topo in arb_connected_topology()) {
        let gw = NodeId(0);
        let routing = GatewayRouting::new(&topo, gw).expect("gateway exists");
        for v in topo.node_ids().filter(|&v| v != gw) {
            let p = routing.parent(v).expect("connected");
            prop_assert!(topo.neighbors(v).any(|n| n == p));
            let dist = |n| topo.hop_distance(n, gw).expect("connected");
            prop_assert_eq!(dist(p) + 1, dist(v));
        }
    }

    #[test]
    fn gateway_routing_depths_decrease_along_uplinks(topo in arb_connected_topology()) {
        let gw = NodeId(0);
        let routing = GatewayRouting::new(&topo, gw).expect("gateway exists");
        for node in topo.node_ids() {
            if node == gw {
                continue;
            }
            let up = routing.uplink(&topo, node).expect("connected");
            prop_assert_eq!(Some(up.hop_count()), routing.depth(node));
            // Depth strictly decreases hop by hop.
            let depths: Vec<usize> = up
                .nodes()
                .iter()
                .map(|&n| routing.depth(n).expect("on tree"))
                .collect();
            for w in depths.windows(2) {
                prop_assert_eq!(w[0], w[1] + 1);
            }
        }
    }
}
