//! Transmission orders: who transmits earlier in the frame.
//!
//! A transmission order assigns, to every conflicting pair of scheduled
//! links, a bit saying which of the two transmits earlier within the TDMA
//! frame. The order fully determines the scheduling delay structure of the
//! frame: consecutive path hops ordered "forward" hand a packet over within
//! the same frame, hops ordered "backward" cost one full extra frame.
//!
//! Orders derived from a *total* ranking of links ([`hop_order`],
//! [`tree_order`], [`random_order`]) are always acyclic and therefore
//! always schedulable (given enough slots); the exact MILP optimizer in
//! [`crate::milp`] searches over arbitrary bit combinations instead.

use std::collections::BTreeMap;

use rand::seq::SliceRandom;
use rand::Rng;
use wimesh_conflict::ConflictGraph;
use wimesh_topology::routing::{GatewayRouting, Path};
use wimesh_topology::{LinkId, MeshTopology};

/// The relative transmission order of conflicting links.
///
/// Stored per conflict edge of the [`ConflictGraph`] it was built against,
/// keyed by the graph's dense vertex indices `(i, j)` with `i < j`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransmissionOrder {
    /// `((i, j), i_before_j)`, sorted by key with every key unique — the
    /// sequence [`ConflictGraph::edges`] yields, so an order pairs with
    /// its graph's edges in one merge walk and equal orders compare equal.
    bits: Vec<((usize, usize), bool)>,
}

impl TransmissionOrder {
    /// An empty order (no pairs decided).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an order from a total ranking: lower rank transmits first,
    /// ties broken by link id.
    ///
    /// Every conflict edge of `graph` gets a bit, so the result is always
    /// complete and acyclic.
    pub fn from_ranks(graph: &ConflictGraph, rank: impl Fn(LinkId) -> u64) -> Self {
        let keys: Vec<(u64, LinkId)> = graph.links().iter().map(|&l| (rank(l), l)).collect();
        Self::from_vertex_keys(graph, &keys)
    }

    /// [`TransmissionOrder::from_ranks`] with the `(rank, link)` key of
    /// every vertex already laid out by dense index.
    fn from_vertex_keys(graph: &ConflictGraph, keys: &[(u64, LinkId)]) -> Self {
        // `edges()` cannot tell its length: reserve instead of growing.
        let mut bits = Vec::with_capacity(graph.edge_count());
        bits.extend(graph.edges().map(|(i, j)| ((i, j), keys[i] < keys[j])));
        Self { bits }
    }

    /// Builds an order from an explicit permutation of (at least) the
    /// graph's links: earlier in the slice transmits first.
    ///
    /// Links absent from `permutation` rank after all present ones.
    pub fn from_permutation(graph: &ConflictGraph, permutation: &[LinkId]) -> Self {
        let pos: BTreeMap<LinkId, u64> = permutation
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, i as u64))
            .collect();
        Self::from_ranks(graph, |l| pos.get(&l).copied().unwrap_or(u64::MAX))
    }

    /// Sets the bit for conflict edge `(i, j)` (dense indices, any order).
    ///
    /// `before` is interpreted for the *smaller* index: calling
    /// `set(j, i, x)` stores `!x` under `(i, j)`.
    pub fn set(&mut self, i: usize, j: usize, before: bool) {
        debug_assert_ne!(i, j, "no order between a link and itself");
        let (key, bit) = if i < j {
            ((i, j), before)
        } else {
            ((j, i), !before)
        };
        match self.position(key) {
            Ok(k) => self.bits[k].1 = bit,
            Err(k) => self.bits.insert(k, (key, bit)),
        }
    }

    fn position(&self, key: (usize, usize)) -> Result<usize, usize> {
        self.bits.binary_search_by_key(&key, |&(k, _)| k)
    }

    /// Whether the vertex at dense index `i` transmits before `j`, if the
    /// pair has been decided.
    pub fn before(&self, i: usize, j: usize) -> Option<bool> {
        if i < j {
            self.position((i, j)).ok().map(|k| self.bits[k].1)
        } else {
            self.position((j, i)).ok().map(|k| !self.bits[k].1)
        }
    }

    /// Whether link `a` transmits before link `b`, if both are vertices of
    /// `graph` and the pair is decided.
    pub fn link_before(&self, graph: &ConflictGraph, a: LinkId, b: LinkId) -> Option<bool> {
        let i = graph.index_of(a)?;
        let j = graph.index_of(b)?;
        self.before(i, j)
    }

    /// Number of decided pairs.
    pub fn decided_count(&self) -> usize {
        self.bits.len()
    }

    /// True when every conflict edge of `graph` among `scheduled`
    /// (dense-index predicate) is decided.
    pub fn covers(&self, graph: &ConflictGraph, scheduled: impl Fn(usize) -> bool) -> bool {
        self.edge_bits(graph)
            .filter(|&((i, j), _)| scheduled(i) && scheduled(j))
            .all(|(_, bit)| bit.is_some())
    }

    /// Every conflict edge of `graph`, ascending, with its bit if decided:
    /// one merge walk over the two sorted sequences instead of a lookup
    /// per edge.
    pub(crate) fn edge_bits<'a>(
        &'a self,
        graph: &'a ConflictGraph,
    ) -> impl Iterator<Item = ((usize, usize), Option<bool>)> + 'a {
        let mut rest = self.bits.as_slice();
        graph.edges().map(move |edge| {
            let skip = rest.iter().take_while(|&&(k, _)| k < edge).count();
            rest = &rest[skip..];
            let bit = rest.first().filter(|&&(k, _)| k == edge).map(|&(_, b)| b);
            (edge, bit)
        })
    }

    /// Iterates `((i, j), i_before_j)` over decided pairs, ascending.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, usize), bool)> + '_ {
        self.bits.iter().copied()
    }

    /// Extracts the decided pairs as `(earlier, later)` link ids — a form
    /// independent of `graph`'s dense indexing, which survives incremental
    /// vertex insertion/removal (and the resulting reindexing) where the
    /// raw `(i, j)` bits would silently refer to different links.
    ///
    /// Round-trips through [`TransmissionOrder::from_link_pairs`].
    pub fn link_pairs(&self, graph: &ConflictGraph) -> Vec<(LinkId, LinkId)> {
        self.bits
            .iter()
            .map(|&((i, j), before)| {
                let (li, lj) = (graph.link_at(i), graph.link_at(j));
                if before {
                    (li, lj)
                } else {
                    (lj, li)
                }
            })
            .collect()
    }

    /// Rebuilds an order from [`TransmissionOrder::link_pairs`] output
    /// against a (possibly reindexed) graph.
    ///
    /// Pairs whose links are no longer both vertices of `graph` are
    /// dropped; conflict edges of `graph` not covered by `pairs` stay
    /// undecided — check [`TransmissionOrder::covers`] before scheduling.
    pub fn from_link_pairs(graph: &ConflictGraph, pairs: &[(LinkId, LinkId)]) -> Self {
        let mut bits: Vec<((usize, usize), bool)> = pairs
            .iter()
            .filter_map(|&(earlier, later)| {
                let (i, j) = (graph.index_of(earlier)?, graph.index_of(later)?);
                Some(if i < j {
                    ((i, j), true)
                } else {
                    ((j, i), false)
                })
            })
            .collect();
        // Stable sort, then the last pair naming an edge wins, as it would
        // through repeated `set` calls.
        bits.sort_by_key(|&(key, _)| key);
        bits.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = later.1;
            }
            same
        });
        Self { bits }
    }
}

/// Random-permutation baseline: a uniformly random total order of the
/// graph's links.
///
/// This is the delay-*oblivious* scheduler the papers compare against: it
/// produces valid conflict-free schedules but scatters consecutive path
/// hops arbitrarily through the frame, accumulating roughly half a frame
/// of delay per hop on average.
pub fn random_order<R: Rng + ?Sized>(graph: &ConflictGraph, rng: &mut R) -> TransmissionOrder {
    let mut perm: Vec<LinkId> = graph.links().to_vec();
    perm.shuffle(rng);
    TransmissionOrder::from_permutation(graph, &perm)
}

/// Greedy delay-aware heuristic: rank each link by its *latest* hop
/// position across the given paths, so that every path's links transmit
/// in path order whenever the ranking permits.
///
/// On a single path this is delay-optimal (zero extra frames). Taking the
/// maximum position keeps rankings consistent for path sets that share
/// suffixes — the gateway-traffic case, where every path `j -> gw` is a
/// suffix of the longest one (a min-position rule would rank every link 0
/// there, since each is some shorter path's first hop, and tie-breaking
/// would order them arbitrarily). Genuinely crossing paths can still
/// force inversions; the exact MILP ([`crate::milp`]) closes that gap.
pub fn hop_order<'a>(
    graph: &ConflictGraph,
    paths: impl IntoIterator<Item = &'a Path>,
) -> TransmissionOrder {
    // Links on no path rank last.
    let mut keys: Vec<(u64, LinkId)> = graph.links().iter().map(|&l| (u64::MAX, l)).collect();
    for path in paths {
        for (pos, &link) in path.links().iter().enumerate() {
            if let Some(i) = graph.index_of(link) {
                let rank = &mut keys[i].0;
                *rank = if *rank == u64::MAX {
                    pos as u64
                } else {
                    (*rank).max(pos as u64)
                };
            }
        }
    }
    TransmissionOrder::from_vertex_keys(graph, &keys)
}

/// Polynomial delay-optimal order for gateway-tree routing.
///
/// Uplink links (child → parent) are ranked deepest-first, downlink links
/// (parent → child) shallowest-first, and all uplinks precede all
/// downlinks. Any uplink path then traverses links in strictly increasing
/// rank, as does any downlink path, so no path suffers an extra-frame
/// inversion — the overlay-tree optimality result of the delay-aware
/// scheduling paper.
pub fn tree_order(
    topo: &MeshTopology,
    routing: &GatewayRouting,
    graph: &ConflictGraph,
) -> TransmissionOrder {
    let ranks = tree_ranks(topo, routing);
    TransmissionOrder::from_ranks(graph, |l| ranks.get(l.index()).copied().unwrap_or(u64::MAX))
}

/// The rank [`tree_order`] gives every link of `topo`, indexed by
/// [`LinkId::index`]: a property of the routing tree alone, so a caller
/// that schedules on one tree many times computes it once.
pub fn tree_ranks(topo: &MeshTopology, routing: &GatewayRouting) -> Vec<u64> {
    let max_depth = topo
        .node_ids()
        .filter_map(|n| routing.depth(n))
        .max()
        .unwrap_or(0) as u64;
    topo.links()
        .iter()
        .enumerate()
        .map(|(index, link)| {
            // Uplink: tx is the child (parent(tx) == rx). Downlink: rx is
            // the child. Other links are not tree links.
            if routing.parent(link.tx) == Some(link.rx) {
                let d = routing.depth(link.tx).unwrap_or(0) as u64;
                // depth d in [1, max]: rank 0 for deepest.
                max_depth - d
            } else if routing.parent(link.rx) == Some(link.tx) {
                let d = routing.depth(link.rx).unwrap_or(0) as u64;
                // Downlinks after all uplinks, shallow first.
                max_depth + d
            } else {
                2 * max_depth + 1 + index as u64
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wimesh_conflict::InterferenceModel;
    use wimesh_topology::routing::shortest_path;
    use wimesh_topology::{generators, NodeId};

    fn chain_graph(n: usize) -> (MeshTopology, ConflictGraph) {
        let topo = generators::chain(n);
        let cg = ConflictGraph::build(&topo, InterferenceModel::protocol_default());
        (topo, cg)
    }

    #[test]
    fn from_ranks_covers_all_edges() {
        let (_, cg) = chain_graph(5);
        let order = TransmissionOrder::from_ranks(&cg, |l| u64::from(u32::from(l)));
        assert!(order.covers(&cg, |_| true));
        assert_eq!(order.decided_count(), cg.edge_count());
    }

    #[test]
    fn from_ranks_equals_shuffled_sets() {
        let topo = generators::grid(4, 4);
        let cg = ConflictGraph::build(&topo, InterferenceModel::protocol_default());
        let rank = |l: LinkId| u64::from(u32::from(l)) * 7 % 5;
        let direct = TransmissionOrder::from_ranks(&cg, rank);

        let mut edges: Vec<(usize, usize)> = cg.edges().collect();
        edges.shuffle(&mut StdRng::seed_from_u64(11));
        let mut built = TransmissionOrder::new();
        for (k, &(i, j)) in edges.iter().enumerate() {
            let (li, lj) = (cg.link_at(i), cg.link_at(j));
            let before = (rank(li), li) < (rank(lj), lj);
            // Either orientation of the pair stores the same bit.
            if k % 2 == 0 {
                built.set(i, j, before);
            } else {
                built.set(j, i, !before);
            }
        }
        assert_eq!(built, direct);
        assert_eq!(built.decided_count(), cg.edge_count());
        assert!(built.iter().map(|(key, _)| key).eq(cg.edges()));
        assert!(direct.iter().map(|(key, _)| key).eq(cg.edges()));
    }

    #[test]
    fn set_and_before_symmetry() {
        let mut o = TransmissionOrder::new();
        o.set(3, 1, true); // vertex 3 before vertex 1
        assert_eq!(o.before(3, 1), Some(true));
        assert_eq!(o.before(1, 3), Some(false));
        o.set(1, 3, true);
        assert_eq!(o.before(3, 1), Some(false));
        assert_eq!(o.before(0, 9), None);
    }

    #[test]
    fn permutation_order_respects_positions() {
        let (topo, cg) = chain_graph(4);
        let l01 = topo.link_between(NodeId(0), NodeId(1)).unwrap();
        let l12 = topo.link_between(NodeId(1), NodeId(2)).unwrap();
        let order = TransmissionOrder::from_permutation(&cg, &[l12, l01]);
        assert_eq!(order.link_before(&cg, l12, l01), Some(true));
        assert_eq!(order.link_before(&cg, l01, l12), Some(false));
    }

    #[test]
    fn hop_order_follows_path() {
        let (topo, cg) = chain_graph(5);
        let path = shortest_path(&topo, NodeId(0), NodeId(4)).unwrap();
        let order = hop_order(&cg, std::slice::from_ref(&path));
        for (a, b) in path.relay_pairs() {
            // Consecutive hops conflict on a chain, so the pair is decided
            // and must be in path order.
            assert_eq!(order.link_before(&cg, a, b), Some(true));
        }
    }

    #[test]
    fn random_order_is_complete_and_deterministic() {
        let (_, cg) = chain_graph(6);
        let o1 = random_order(&cg, &mut StdRng::seed_from_u64(9));
        let o2 = random_order(&cg, &mut StdRng::seed_from_u64(9));
        assert_eq!(o1, o2);
        assert!(o1.covers(&cg, |_| true));
    }

    #[test]
    fn tree_order_uplinks_deep_first() {
        let topo = generators::binary_tree(2); // 7 nodes
        let routing = GatewayRouting::new(&topo, NodeId(0)).unwrap();
        let cg = ConflictGraph::build(&topo, InterferenceModel::protocol_default());
        let order = tree_order(&topo, &routing, &cg);
        // Uplink path from leaf 3: 3->1->0. Check path-order bits.
        let up = routing.uplink(&topo, NodeId(3)).unwrap();
        for (a, b) in up.relay_pairs() {
            assert_eq!(order.link_before(&cg, a, b), Some(true), "uplink inversion");
        }
        // Downlink path to leaf 6: 0->2->6.
        let down = routing.downlink(&topo, NodeId(6)).unwrap();
        for (a, b) in down.relay_pairs() {
            assert_eq!(
                order.link_before(&cg, a, b),
                Some(true),
                "downlink inversion"
            );
        }
        // Uplinks precede downlinks where they conflict.
        let l10 = topo.link_between(NodeId(1), NodeId(0)).unwrap();
        let l02 = topo.link_between(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(order.link_before(&cg, l10, l02), Some(true));
    }

    #[test]
    fn link_pairs_round_trip_survives_reindexing() {
        let (topo, cg) = chain_graph(6);
        let path = shortest_path(&topo, NodeId(0), NodeId(5)).unwrap();
        let order = hop_order(&cg, std::slice::from_ref(&path));
        let pairs = order.link_pairs(&cg);
        assert_eq!(pairs.len(), order.decided_count());

        // A graph over the same links built in reverse order: every dense
        // index changes, but the link-level order must be preserved.
        let mut rev: Vec<LinkId> = cg.links().to_vec();
        rev.reverse();
        let cg2 = ConflictGraph::build_for_links(&topo, rev, InterferenceModel::protocol_default());
        let restored = TransmissionOrder::from_link_pairs(&cg2, &pairs);
        assert!(restored.covers(&cg2, |_| true));
        for (i, j) in cg.edges() {
            let (a, b) = (cg.link_at(i), cg.link_at(j));
            assert_eq!(
                order.link_before(&cg, a, b),
                restored.link_before(&cg2, a, b),
                "order flipped for {a} vs {b}"
            );
        }
    }

    #[test]
    fn from_link_pairs_drops_unknown_links() {
        let (topo, cg) = chain_graph(4);
        let l01 = topo.link_between(NodeId(0), NodeId(1)).unwrap();
        let l12 = topo.link_between(NodeId(1), NodeId(2)).unwrap();
        let order = TransmissionOrder::from_link_pairs(&cg, &[(l01, l12), (LinkId(999), l01)]);
        assert_eq!(order.decided_count(), 1);
        assert_eq!(order.link_before(&cg, l01, l12), Some(true));
    }

    #[test]
    fn covers_respects_predicate() {
        let (_, cg) = chain_graph(4);
        let empty = TransmissionOrder::new();
        assert!(!empty.covers(&cg, |_| true));
        assert!(empty.covers(&cg, |_| false));
    }
}
