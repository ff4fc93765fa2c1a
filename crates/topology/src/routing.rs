//! Routing: paths, shortest-path computation and gateway (tree) routing.
//!
//! The scheduling layers treat a route as an ordered sequence of *directed
//! links* — the [`Path`] type — because TDMA slot demands, conflict
//! relations and scheduling delay are all per-link quantities.

use crate::{Direction, LinkId, MeshTopology, NodeId, Reached, TopologyError};

/// An ordered sequence of directed links forming a route.
///
/// Invariant (checked at construction): link `i`'s receiver is link
/// `i+1`'s transmitter, and the path is non-empty.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    links: Vec<LinkId>,
    nodes: Vec<NodeId>,
}

impl Path {
    /// Builds a path from consecutive links, validating chain structure.
    ///
    /// # Errors
    ///
    /// * [`TopologyError::EmptyPath`] if `links` is empty.
    /// * [`TopologyError::UnknownLink`] if a link id is not in `topo`.
    /// * [`TopologyError::DisconnectedPath`] if consecutive links do not
    ///   share the intermediate node.
    pub fn new(topo: &MeshTopology, links: Vec<LinkId>) -> Result<Self, TopologyError> {
        if links.is_empty() {
            return Err(TopologyError::EmptyPath);
        }
        let mut nodes = Vec::with_capacity(links.len() + 1);
        for (i, &lid) in links.iter().enumerate() {
            let link = topo.link(lid).ok_or(TopologyError::UnknownLink(lid))?;
            if i == 0 {
                nodes.push(link.tx);
            } else if *nodes.last().expect("pushed above") != link.tx {
                return Err(TopologyError::DisconnectedPath { link: lid });
            }
            nodes.push(link.rx);
        }
        Ok(Self { links, nodes })
    }

    /// The links of the path, in travel order.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// The nodes of the path, in travel order (one more than links).
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of hops (links).
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }

    /// First node of the path.
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// Last node of the path.
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("paths are non-empty")
    }

    /// Consecutive link pairs `(inbound, outbound)` at each relay node.
    ///
    /// These are exactly the pairs whose relative transmission order
    /// determines per-hop scheduling delay.
    pub fn relay_pairs(&self) -> impl Iterator<Item = (LinkId, LinkId)> + '_ {
        self.links.windows(2).map(|w| (w[0], w[1]))
    }
}

/// Computes a minimum-hop path from `from` to `to` using BFS.
///
/// # Errors
///
/// * [`TopologyError::UnknownNode`] if either endpoint does not exist.
/// * [`TopologyError::NoRoute`] if `to` is unreachable or `from == to`
///   (a mesh flow needs at least one link).
pub fn shortest_path(topo: &MeshTopology, from: NodeId, to: NodeId) -> Result<Path, TopologyError> {
    shortest_path_through(topo, from, to, |_| true)
}

/// [`shortest_path`] over only the nodes `usable` accepts, endpoints
/// included (else [`TopologyError::NoRoute`]): the outbound
/// [`MeshTopology::bfs`] walk from `from`, stopped once it discovers `to`,
/// then followed back over each node's discovery link. With every node
/// usable both return the same path.
pub fn shortest_path_through(
    topo: &MeshTopology,
    from: NodeId,
    to: NodeId,
    mut usable: impl FnMut(NodeId) -> bool,
) -> Result<Path, TopologyError> {
    if topo.node(from).is_none() {
        return Err(TopologyError::UnknownNode(from));
    }
    if topo.node(to).is_none() {
        return Err(TopologyError::UnknownNode(to));
    }
    if from == to || !usable(from) {
        return Err(TopologyError::NoRoute(from, to));
    }
    let mut inbound: Vec<Option<LinkId>> = vec![None; topo.node_count()];
    topo.bfs(from, Direction::Outbound, None, usable, |r| {
        inbound[r.node.index()] = Some(r.via);
        r.node != to
    });
    let mut links = Vec::new();
    let mut cursor = to;
    while cursor != from {
        let lid = inbound[cursor.index()].ok_or(TopologyError::NoRoute(from, to))?;
        links.push(lid);
        cursor = topo.link(lid).expect("stored links are valid").tx;
    }
    links.reverse();
    Path::new(topo, links)
}

/// A shortest-path routing tree toward a single gateway node.
///
/// This is the canonical WiMAX-mesh deployment: all traffic flows to/from
/// an Internet gateway over a tree embedded in the mesh. Uplink routes go
/// leaf → gateway; downlink routes are their reverses.
#[derive(Debug, Clone)]
pub struct GatewayRouting {
    gateway: NodeId,
    /// Parent (next hop toward the gateway) per node; `None` for gateway
    /// and unreachable nodes.
    parent: Vec<Option<NodeId>>,
    /// Hops to the gateway per node; `usize::MAX` if unreachable.
    depth: Vec<usize>,
}

impl GatewayRouting {
    /// Builds the BFS tree rooted at `gateway`: each node's parent is the
    /// transmitter of the link the outbound walk from `gateway` first
    /// discovered it over.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownNode`] if the gateway does not exist.
    pub fn new(topo: &MeshTopology, gateway: NodeId) -> Result<Self, TopologyError> {
        if topo.node(gateway).is_none() {
            return Err(TopologyError::UnknownNode(gateway));
        }
        let mut parent = vec![None; topo.node_count()];
        let record_parent = |r: Reached| {
            parent[r.node.index()] = topo.link(r.via).map(|l| l.tx);
            true
        };
        let depth = topo.bfs(gateway, Direction::Outbound, None, |_| true, record_parent);
        Ok(Self {
            gateway,
            parent,
            depth,
        })
    }

    /// The gateway node.
    pub fn gateway(&self) -> NodeId {
        self.gateway
    }

    /// Next hop from `node` toward the gateway (`None` at the gateway or if
    /// unreachable).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parent.get(node.index()).copied().flatten()
    }

    /// Uplink path `node -> gateway`.
    ///
    /// # Errors
    ///
    /// [`TopologyError::NoRoute`] if `node` is the gateway or unreachable.
    pub fn uplink(&self, topo: &MeshTopology, node: NodeId) -> Result<Path, TopologyError> {
        if node == self.gateway {
            return Err(TopologyError::NoRoute(node, self.gateway));
        }
        let mut links = Vec::new();
        let mut cursor = node;
        while cursor != self.gateway {
            let next = self
                .parent(cursor)
                .ok_or(TopologyError::NoRoute(node, self.gateway))?;
            let lid = topo
                .link_between(cursor, next)
                .ok_or(TopologyError::NoRoute(node, self.gateway))?;
            links.push(lid);
            cursor = next;
        }
        Path::new(topo, links)
    }

    /// Downlink path `gateway -> node` (reverse of the uplink).
    ///
    /// # Errors
    ///
    /// Same conditions as [`GatewayRouting::uplink`]; additionally fails if
    /// a reverse link is missing (asymmetric topology).
    pub fn downlink(&self, topo: &MeshTopology, node: NodeId) -> Result<Path, TopologyError> {
        let up = self.uplink(topo, node)?;
        let mut links = Vec::with_capacity(up.hop_count());
        for &lid in up.links().iter().rev() {
            let l = topo.link(lid).expect("uplink links are valid");
            let rev = topo
                .link_between(l.rx, l.tx)
                .ok_or(TopologyError::NoRoute(self.gateway, node))?;
            links.push(rev);
        }
        Path::new(topo, links)
    }

    /// All directed tree links that carry uplink traffic (child → parent),
    /// in child-node-id order.
    pub fn uplink_links(&self, topo: &MeshTopology) -> Vec<LinkId> {
        let mut out = Vec::new();
        for node in topo.node_ids() {
            if let Some(p) = self.parent(node) {
                if let Some(lid) = topo.link_between(node, p) {
                    out.push(lid);
                }
            }
        }
        out
    }

    /// Hop depth of `node` in the tree (`Some(0)` at the gateway, `None`
    /// if unreachable).
    pub fn depth(&self, node: NodeId) -> Option<usize> {
        self.depth
            .get(node.index())
            .copied()
            .filter(|&d| d != usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn shortest_path_on_chain() {
        let t = generators::chain(5);
        let p = shortest_path(&t, NodeId(0), NodeId(4)).unwrap();
        assert_eq!(p.hop_count(), 4);
        assert_eq!(p.source(), NodeId(0));
        assert_eq!(p.destination(), NodeId(4));
        assert_eq!(
            p.nodes(),
            &[NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
    }

    #[test]
    fn shortest_path_is_minimal_on_ring() {
        let t = generators::ring(8);
        let p = shortest_path(&t, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.hop_count(), 3);
        let p = shortest_path(&t, NodeId(0), NodeId(5)).unwrap();
        assert_eq!(p.hop_count(), 3); // goes the short way round
    }

    #[test]
    fn shortest_path_errors() {
        let t = generators::chain(3);
        assert_eq!(
            shortest_path(&t, NodeId(0), NodeId(0)),
            Err(TopologyError::NoRoute(NodeId(0), NodeId(0)))
        );
        assert_eq!(
            shortest_path(&t, NodeId(0), NodeId(9)),
            Err(TopologyError::UnknownNode(NodeId(9)))
        );
        let mut t2 = crate::MeshTopology::new();
        let a = t2.add_node();
        let b = t2.add_node();
        assert_eq!(shortest_path(&t2, a, b), Err(TopologyError::NoRoute(a, b)));
    }

    #[test]
    fn filtered_bfs_with_nothing_excluded_is_shortest_path() {
        use crate::generators::UnitDiskParams;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut topos = vec![generators::chain(6), generators::grid(4, 5)];
        let mut rng = StdRng::seed_from_u64(7);
        let params = UnitDiskParams {
            nodes: 12,
            area_m: 1000.0,
            range_m: 400.0,
            max_attempts: 200,
        };
        topos.extend((0..6).filter_map(|_| generators::random_unit_disk(params, &mut rng)));
        assert!(topos.len() > 2, "no unit-disk mesh was generated");
        for t in &topos {
            for a in t.node_ids() {
                for b in t.node_ids() {
                    assert_eq!(
                        shortest_path_through(t, a, b, |_| true),
                        shortest_path(t, a, b),
                        "{a} -> {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn filtered_bfs_routes_around_an_excluded_relay() {
        let t = generators::grid(3, 3);
        let (from, to, relay) = (NodeId(0), NodeId(2), NodeId(1));
        assert_eq!(shortest_path(&t, from, to).unwrap().nodes()[1], relay);
        let detour = shortest_path_through(&t, from, to, |n| n != relay).unwrap();
        assert!(!detour.nodes().contains(&relay));
        assert_eq!(detour.hop_count(), 4);
        // A chain has no way round.
        let c = generators::chain(4);
        assert_eq!(
            shortest_path_through(&c, NodeId(0), NodeId(3), |n| n != relay),
            Err(TopologyError::NoRoute(NodeId(0), NodeId(3)))
        );
    }

    #[test]
    fn filtered_bfs_finds_no_route_from_or_to_an_excluded_endpoint() {
        let t = generators::grid(3, 3);
        let (from, to) = (NodeId(0), NodeId(8));
        for excluded in [from, to] {
            assert_eq!(
                shortest_path_through(&t, from, to, |n| n != excluded),
                Err(TopologyError::NoRoute(from, to))
            );
        }
    }

    #[test]
    fn path_validation() {
        let t = generators::chain(4);
        // Links 0->1, 1->2 are ids 0 and 2 (bidirectional adds pairs).
        let l01 = t.link_between(NodeId(0), NodeId(1)).unwrap();
        let l12 = t.link_between(NodeId(1), NodeId(2)).unwrap();
        let l23 = t.link_between(NodeId(2), NodeId(3)).unwrap();
        assert!(Path::new(&t, vec![l01, l12, l23]).is_ok());
        assert_eq!(Path::new(&t, vec![]), Err(TopologyError::EmptyPath));
        assert_eq!(
            Path::new(&t, vec![l01, l23]),
            Err(TopologyError::DisconnectedPath { link: l23 })
        );
        assert_eq!(
            Path::new(&t, vec![LinkId(99)]),
            Err(TopologyError::UnknownLink(LinkId(99)))
        );
    }

    #[test]
    fn relay_pairs_cover_interior_nodes() {
        let t = generators::chain(5);
        let p = shortest_path(&t, NodeId(0), NodeId(4)).unwrap();
        let pairs: Vec<_> = p.relay_pairs().collect();
        assert_eq!(pairs.len(), 3);
        for (a, b) in pairs {
            let la = t.link(a).unwrap();
            let lb = t.link(b).unwrap();
            assert_eq!(la.rx, lb.tx);
        }
    }

    #[test]
    fn gateway_routing_chain() {
        let t = generators::chain(4);
        let gw = GatewayRouting::new(&t, NodeId(0)).unwrap();
        assert_eq!(gw.gateway(), NodeId(0));
        assert_eq!(gw.parent(NodeId(3)), Some(NodeId(2)));
        assert_eq!(gw.parent(NodeId(0)), None);
        assert_eq!(gw.depth(NodeId(3)), Some(3));
        assert_eq!(gw.depth(NodeId(0)), Some(0));

        let up = gw.uplink(&t, NodeId(3)).unwrap();
        assert_eq!(up.source(), NodeId(3));
        assert_eq!(up.destination(), NodeId(0));
        assert_eq!(up.hop_count(), 3);

        let down = gw.downlink(&t, NodeId(3)).unwrap();
        assert_eq!(down.source(), NodeId(0));
        assert_eq!(down.destination(), NodeId(3));
        assert_eq!(down.hop_count(), 3);
    }

    #[test]
    fn gateway_routing_star_depths() {
        let t = generators::star(5);
        let gw = GatewayRouting::new(&t, NodeId(0)).unwrap();
        for leaf in 1..=5u32 {
            assert_eq!(gw.depth(NodeId(leaf)), Some(1));
        }
        assert_eq!(gw.uplink_links(&t).len(), 5);
    }

    #[test]
    fn gateway_routing_errors() {
        let t = generators::chain(3);
        assert!(GatewayRouting::new(&t, NodeId(9)).is_err());
        let gw = GatewayRouting::new(&t, NodeId(0)).unwrap();
        assert!(gw.uplink(&t, NodeId(0)).is_err());
    }

    #[test]
    fn gateway_unreachable_node() {
        let mut t = generators::chain(3);
        let isolated = t.add_node();
        let gw = GatewayRouting::new(&t, NodeId(0)).unwrap();
        assert_eq!(gw.depth(isolated), None);
        assert!(gw.uplink(&t, isolated).is_err());
    }

    #[test]
    fn binary_tree_gateway_depth() {
        let t = generators::binary_tree(3);
        let gw = GatewayRouting::new(&t, NodeId(0)).unwrap();
        assert_eq!(gw.depth(NodeId(14)), Some(3));
        let up = gw.uplink(&t, NodeId(14)).unwrap();
        assert_eq!(up.hop_count(), 3);
    }
}
