//! The mesh topology graph.

use std::collections::VecDeque;

use crate::{LinkId, NodeId, TopologyError};

/// A node (mesh router) with an optional planar position.
///
/// Positions are used by the random unit-disk generator and by
/// distance-based interference models; purely combinatorial topologies leave
/// them at the origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Node {
    /// This node's identifier.
    pub id: NodeId,
    /// Planar x coordinate in meters.
    pub x: f64,
    /// Planar y coordinate in meters.
    pub y: f64,
}

impl Node {
    /// Euclidean distance to another node in meters.
    pub fn distance_to(&self, other: &Node) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// A *directed* radio link between two distinct nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    /// This link's identifier.
    pub id: LinkId,
    /// Transmitting node.
    pub tx: NodeId,
    /// Receiving node.
    pub rx: NodeId,
}

impl Link {
    /// Returns `true` if this link shares an endpoint with `other`.
    ///
    /// Two links sharing an endpoint can never be active in the same TDMA
    /// slot (a half-duplex radio cannot transmit and receive, or do either
    /// twice, simultaneously) — the *primary conflict* of the conflict-graph
    /// crate.
    pub fn shares_endpoint(&self, other: &Link) -> bool {
        self.tx == other.tx || self.tx == other.rx || self.rx == other.tx || self.rx == other.rx
    }
}

/// The connectivity graph of a wireless mesh network.
///
/// Nodes and directed links have dense ids suitable for vector indexing.
/// The structure is append-only: links and nodes cannot be removed, which
/// keeps ids stable for the lifetime of the topology (schedules, conflict
/// graphs and routes all index into it).
///
/// # Example
///
/// ```
/// use wimesh_topology::MeshTopology;
///
/// let mut topo = MeshTopology::new();
/// let a = topo.add_node_at(0.0, 0.0);
/// let b = topo.add_node_at(100.0, 0.0);
/// let (ab, ba) = topo.add_bidirectional(a, b)?;
/// assert_eq!(topo.link(ab).unwrap().rx, b);
/// assert_eq!(topo.link(ba).unwrap().rx, a);
/// # Ok::<(), wimesh_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct MeshTopology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Outgoing link ids per node.
    out_links: Vec<Vec<LinkId>>,
    /// Incoming link ids per node.
    in_links: Vec<Vec<LinkId>>,
}

impl MeshTopology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node at the origin and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.add_node_at(0.0, 0.0)
    }

    /// Adds a node at planar position `(x, y)` (meters) and returns its id.
    pub fn add_node_at(&mut self, x: f64, y: f64) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { id, x, y });
        self.out_links.push(Vec::new());
        self.in_links.push(Vec::new());
        id
    }

    /// Adds a directed link `tx -> rx` and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownNode`] if either endpoint does not
    /// exist, [`TopologyError::SelfLoop`] if `tx == rx`, and
    /// [`TopologyError::DuplicateLink`] if the directed link already exists.
    pub fn add_link(&mut self, tx: NodeId, rx: NodeId) -> Result<LinkId, TopologyError> {
        self.check_node(tx)?;
        self.check_node(rx)?;
        if tx == rx {
            return Err(TopologyError::SelfLoop(tx));
        }
        if self.link_between(tx, rx).is_some() {
            return Err(TopologyError::DuplicateLink(tx, rx));
        }
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link { id, tx, rx });
        self.out_links[tx.index()].push(id);
        self.in_links[rx.index()].push(id);
        Ok(id)
    }

    /// Adds both directions between `a` and `b`, returning `(a->b, b->a)`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MeshTopology::add_link`] for either direction.
    pub fn add_bidirectional(
        &mut self,
        a: NodeId,
        b: NodeId,
    ) -> Result<(LinkId, LinkId), TopologyError> {
        let ab = self.add_link(a, b)?;
        let ba = self.add_link(b, a)?;
        Ok((ab, ba))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Looks up a node.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.index())
    }

    /// Looks up a link.
    pub fn link(&self, id: LinkId) -> Option<&Link> {
        self.links.get(id.index())
    }

    /// All nodes in id order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All directed links in id order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over all link ids.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len() as u32).map(LinkId)
    }

    /// Outgoing links of `node` (empty if the node is unknown).
    pub fn out_links(&self, node: NodeId) -> &[LinkId] {
        self.out_links
            .get(node.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Incoming links of `node` (empty if the node is unknown).
    pub fn in_links(&self, node: NodeId) -> &[LinkId] {
        self.in_links
            .get(node.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The directed link `tx -> rx`, if present.
    pub fn link_between(&self, tx: NodeId, rx: NodeId) -> Option<LinkId> {
        self.out_links
            .get(tx.index())?
            .iter()
            .copied()
            .find(|&l| self.links[l.index()].rx == rx)
    }

    /// Neighbors reachable over one outgoing link, in link-insertion order.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_links(node)
            .iter()
            .map(move |&l| self.links[l.index()].rx)
    }

    /// Walks breadth-first from `source` over links in `direction`: the
    /// one hop search of the workspace. It expands no node `cap` or more
    /// hops away and discovers only the nodes `accept` takes. Each node it
    /// discovers but the source goes to `visit`, in discovery order (by
    /// hops, then by the link order of the node it was discovered from),
    /// and the walk stops at the first `false`, as [`Iterator::all`] does.
    /// Following [`Reached::via`] back retraces a shortest path.
    ///
    /// Returns each node's hops, indexed by [`NodeId::index`]: `usize::MAX`
    /// where the walk did not reach (everywhere, for an unknown `source`).
    pub fn bfs(
        &self,
        source: NodeId,
        direction: Direction,
        cap: Option<usize>,
        mut accept: impl FnMut(NodeId) -> bool,
        mut visit: impl FnMut(Reached) -> bool,
    ) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.nodes.len()];
        let Some(at_source) = dist.get_mut(source.index()) else {
            return dist;
        };
        *at_source = 0;
        let mut queue = VecDeque::from([source]);
        while let Some(u) = queue.pop_front() {
            let d = dist[u.index()];
            if cap.is_some_and(|cap| d >= cap) {
                continue;
            }
            let links = match direction {
                Direction::Outbound => self.out_links(u),
                Direction::Inbound => self.in_links(u),
            };
            for &via in links {
                let link = &self.links[via.index()];
                let v = if link.tx == u { link.rx } else { link.tx };
                if dist[v.index()] == usize::MAX && accept(v) {
                    let hops = d + 1;
                    dist[v.index()] = hops;
                    if !visit(Reached { node: v, hops, via }) {
                        return dist;
                    }
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Hop distance (number of links on a shortest path) between two nodes,
    /// or `None` if unreachable. Distance to self is `Some(0)`.
    pub fn hop_distance(&self, from: NodeId, to: NodeId) -> Option<usize> {
        if from == to {
            return self.node(from).map(|_| 0);
        }
        let dist = self.bfs(from, Direction::Outbound, None, |_| true, |r| r.node != to);
        dist.get(to.index()).copied().filter(|&d| d != usize::MAX)
    }

    /// Node ids within `k` hops of `node` (excluding `node` itself).
    pub fn k_hop_neighborhood(&self, node: NodeId, k: usize) -> Vec<NodeId> {
        let dist = self.bfs(node, Direction::Outbound, Some(k), |_| true, |_| true);
        self.node_ids()
            .filter(|v| (1..=k).contains(&dist[v.index()]))
            .collect()
    }

    /// Returns `true` if every node can reach every other node.
    ///
    /// An empty topology and a single node are both connected.
    pub fn is_connected(&self) -> bool {
        let dist = self.bfs(NodeId(0), Direction::Outbound, None, |_| true, |_| true);
        dist.iter().all(|&d| d != usize::MAX)
    }

    fn check_node(&self, id: NodeId) -> Result<(), TopologyError> {
        if self.node(id).is_some() {
            Ok(())
        } else {
            Err(TopologyError::UnknownNode(id))
        }
    }
}

/// Which way [`MeshTopology::bfs`] crosses each directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// From transmitter to receiver: hops *from* the source.
    Outbound,
    /// From receiver to transmitter: hops *to* the source.
    Inbound,
}

/// One node [`MeshTopology::bfs`] discovers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reached {
    /// The discovered node.
    pub node: NodeId,
    /// Its hop distance from (or, inbound, to) the source.
    pub hops: usize,
    /// The link it was first discovered over.
    pub via: LinkId,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> MeshTopology {
        let mut t = MeshTopology::new();
        let a = t.add_node();
        let b = t.add_node();
        let c = t.add_node();
        t.add_bidirectional(a, b).unwrap();
        t.add_bidirectional(b, c).unwrap();
        t.add_bidirectional(c, a).unwrap();
        t
    }

    #[test]
    fn add_nodes_and_links() {
        let t = triangle();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 6);
        assert!(t.is_connected());
    }

    #[test]
    fn self_loop_rejected() {
        let mut t = MeshTopology::new();
        let a = t.add_node();
        assert_eq!(t.add_link(a, a), Err(TopologyError::SelfLoop(a)));
    }

    #[test]
    fn duplicate_link_rejected() {
        let mut t = MeshTopology::new();
        let a = t.add_node();
        let b = t.add_node();
        t.add_link(a, b).unwrap();
        assert_eq!(t.add_link(a, b), Err(TopologyError::DuplicateLink(a, b)));
        // Reverse direction is fine.
        assert!(t.add_link(b, a).is_ok());
    }

    #[test]
    fn unknown_node_rejected() {
        let mut t = MeshTopology::new();
        let a = t.add_node();
        let ghost = NodeId(42);
        assert_eq!(t.add_link(a, ghost), Err(TopologyError::UnknownNode(ghost)));
        assert_eq!(t.add_link(ghost, a), Err(TopologyError::UnknownNode(ghost)));
    }

    #[test]
    fn link_between_finds_direction() {
        let mut t = MeshTopology::new();
        let a = t.add_node();
        let b = t.add_node();
        let (ab, ba) = t.add_bidirectional(a, b).unwrap();
        assert_eq!(t.link_between(a, b), Some(ab));
        assert_eq!(t.link_between(b, a), Some(ba));
        assert_eq!(t.link_between(a, a), None);
    }

    #[test]
    fn hop_distance_on_chain() {
        let mut t = MeshTopology::new();
        let ids: Vec<_> = (0..5).map(|_| t.add_node()).collect();
        for w in ids.windows(2) {
            t.add_bidirectional(w[0], w[1]).unwrap();
        }
        assert_eq!(t.hop_distance(ids[0], ids[4]), Some(4));
        assert_eq!(t.hop_distance(ids[0], ids[0]), Some(0));
        assert_eq!(t.hop_distance(ids[4], ids[1]), Some(3));
    }

    #[test]
    fn hop_distance_unreachable() {
        let mut t = MeshTopology::new();
        let a = t.add_node();
        let b = t.add_node();
        assert_eq!(t.hop_distance(a, b), None);
        assert!(!t.is_connected());
    }

    #[test]
    fn k_hop_neighborhood_grows() {
        let mut t = MeshTopology::new();
        let ids: Vec<_> = (0..6).map(|_| t.add_node()).collect();
        for w in ids.windows(2) {
            t.add_bidirectional(w[0], w[1]).unwrap();
        }
        assert_eq!(t.k_hop_neighborhood(ids[0], 1), vec![ids[1]]);
        assert_eq!(t.k_hop_neighborhood(ids[0], 2), vec![ids[1], ids[2]]);
        assert_eq!(
            t.k_hop_neighborhood(ids[2], 2),
            vec![ids[0], ids[1], ids[3], ids[4]]
        );
        assert!(t.k_hop_neighborhood(ids[0], 0).is_empty());
    }

    #[test]
    fn shares_endpoint_and_reverse() {
        let t = triangle();
        let links = t.links();
        let ab = links[0];
        let ba = links[1];
        assert!(ab.shares_endpoint(&ba));
        // Find a link disjoint from ab in a bigger topology.
        let mut t2 = MeshTopology::new();
        let n: Vec<_> = (0..4).map(|_| t2.add_node()).collect();
        let l01 = t2.add_link(n[0], n[1]).unwrap();
        let l23 = t2.add_link(n[2], n[3]).unwrap();
        let l01 = *t2.link(l01).unwrap();
        let l23 = *t2.link(l23).unwrap();
        assert!(!l01.shares_endpoint(&l23));
    }

    #[test]
    fn node_distance() {
        let mut t = MeshTopology::new();
        let a = t.add_node_at(0.0, 0.0);
        let b = t.add_node_at(3.0, 4.0);
        let (a, b) = (*t.node(a).unwrap(), *t.node(b).unwrap());
        assert!((a.distance_to(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_topology_is_connected() {
        assert!(MeshTopology::new().is_connected());
        let mut t = MeshTopology::new();
        t.add_node();
        assert!(t.is_connected());
    }
}
