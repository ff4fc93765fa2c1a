//! Conflict graph construction.

use wimesh_topology::{Direction, Link, LinkId, MeshTopology, NodeId};

/// How secondary (interference) conflicts are decided.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum InterferenceModel {
    /// Protocol model in hops: a transmission at node `t` corrupts
    /// reception at node `r` whenever `hop_distance(t, r) <= hops`.
    ///
    /// `hops = 1` is the standard hidden-terminal rule (and the
    /// coordination assumption of the 802.16 mesh election); `hops = 2`
    /// is the conservative "two-hop interference" variant.
    Protocol {
        /// Interference radius in hops (`>= 1`).
        hops: usize,
    },
    /// Distance model: a transmission at `t` corrupts reception at `r`
    /// whenever their Euclidean distance is at most `range_m` meters.
    /// Requires meaningful node positions.
    Distance {
        /// Interference radius in meters.
        range_m: f64,
    },
    /// Only primary conflicts (shared endpoints). Appropriate when links
    /// use orthogonal channels or directional antennas.
    PrimaryOnly,
}

impl InterferenceModel {
    /// The default protocol model (`hops = 1`).
    pub fn protocol_default() -> Self {
        InterferenceModel::Protocol { hops: 1 }
    }
}

/// The conflict graph over a set of directed links.
///
/// Vertices are links (either all links of a topology, via
/// [`ConflictGraph::build`], or an explicit active subset, via
/// [`ConflictGraph::build_for_links`]); edges join links that cannot share
/// a TDMA slot. The graph is symmetric and irreflexive by construction.
///
/// Adjacency is one neighbour list per vertex, over dense indices and
/// sorted ascending, so membership is a binary search.
#[derive(Debug, Clone)]
pub struct ConflictGraph {
    /// The vertex set, in insertion order.
    links: Vec<LinkId>,
    /// Dense index of each vertex, at its `LinkId::index()`; `None` for a
    /// link that is not a vertex.
    index: Vec<Option<usize>>,
    /// Adjacency over dense indices, each list sorted ascending.
    adj: Vec<Vec<usize>>,
    edge_count: usize,
}

impl ConflictGraph {
    /// Builds the conflict graph over *all* links of `topo`.
    pub fn build(topo: &MeshTopology, model: InterferenceModel) -> Self {
        Self::build_for_links(topo, topo.link_ids().collect(), model)
    }

    /// Builds the conflict graph over an explicit set of active links.
    ///
    /// Only links that actually carry scheduled demand need vertices;
    /// restricting the vertex set keeps the downstream order-optimization
    /// MILP small.
    ///
    /// # Panics
    ///
    /// Panics if `links` contains an id not present in `topo` or a
    /// duplicate id.
    pub fn build_for_links(
        topo: &MeshTopology,
        links: Vec<LinkId>,
        model: InterferenceModel,
    ) -> Self {
        let mut index = vec![None; topo.link_count()];
        let mut ends = Vec::with_capacity(links.len());
        for (i, &l) in links.iter().enumerate() {
            let Some(&link) = topo.link(l) else {
                panic!("link {l} not in topology");
            };
            ends.push(link);
            let prev = index[l.index()].replace(i);
            assert!(prev.is_none(), "duplicate link {l} in active set");
        }
        // Precompute pairwise hop distances between link endpoints, exact up
        // to the radius, when the protocol model needs them.
        let hop_dist: Vec<Vec<usize>> = match model {
            InterferenceModel::Protocol { hops } => topo
                .node_ids()
                .map(|src| hop_row(topo, src, Direction::Outbound, hops))
                .collect(),
            _ => Vec::new(),
        };
        let d = |t: NodeId, r: NodeId| hop_dist[t.index()][r.index()];
        let mut edges = Vec::new();
        let mut degree = vec![0; links.len()];
        for (i, a) in ends.iter().enumerate() {
            for (j, b) in ends.iter().enumerate().skip(i + 1) {
                if conflicts(topo, a, b, model, |_| (d(a.tx, b.rx), d(b.tx, a.rx))) {
                    edges.push((i, j));
                    degree[i] += 1;
                    degree[j] += 1;
                }
            }
        }
        // Edges are ordered by ascending `i`, then ascending `j`, so each
        // vertex receives its smaller neighbours before its larger ones,
        // both in ascending order: every list comes out sorted. Sizing
        // each list first allocates it once.
        let mut adj: Vec<Vec<usize>> = degree.into_iter().map(Vec::with_capacity).collect();
        for &(i, j) in &edges {
            adj[i].push(j);
            adj[j].push(i);
        }
        Self {
            links,
            index,
            adj,
            edge_count: edges.len(),
        }
    }

    /// The vertex set: the active links, in insertion order.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.links.len()
    }

    /// Number of conflict edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Dense index of a link, if it is a vertex of this graph.
    pub fn index_of(&self, link: LinkId) -> Option<usize> {
        self.index.get(link.index()).copied().flatten()
    }

    /// Link at dense index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= vertex_count()`.
    pub fn link_at(&self, i: usize) -> LinkId {
        self.links[i]
    }

    /// Links conflicting with `link` (empty if `link` is not a vertex).
    pub fn conflicts_of(&self, link: LinkId) -> Vec<LinkId> {
        match self.index_of(link) {
            Some(i) => self.adj[i].iter().map(|&j| self.links[j]).collect(),
            None => Vec::new(),
        }
    }

    /// Adjacency (dense indices) of vertex `i`, sorted ascending.
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.adj[i]
    }

    /// Whether two links conflict. Links not in the graph never conflict.
    pub fn are_in_conflict(&self, a: LinkId, b: LinkId) -> bool {
        match (self.index_of(a), self.index_of(b)) {
            (Some(i), Some(j)) => self.adj[i].binary_search(&j).is_ok(),
            _ => false,
        }
    }

    /// Degree of vertex `i`.
    pub fn degree(&self, i: usize) -> usize {
        self.adj[i].len()
    }

    /// Maximum vertex degree (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// All conflict edges as dense index pairs `(i, j)` with `i < j`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(i, nbrs)| nbrs.iter().filter(move |&&j| i < j).map(move |&j| (i, j)))
    }

    /// Adds `link` as a new vertex with the conflicts [`conflicting_links`]
    /// finds for it ([`ConflictGraph::insert_conflicting`]): two bounded
    /// BFS runs and one scan of the topology's links, instead of the
    /// `O(V^2)` full rebuild. `topo` and `model` must be the ones the graph
    /// was built with; mixing models yields a graph neither describes.
    ///
    /// # Panics
    ///
    /// Panics if `link` is not in `topo`.
    pub fn insert_vertex(
        &mut self,
        topo: &MeshTopology,
        link: LinkId,
        model: InterferenceModel,
    ) -> bool {
        self.index_of(link).is_none()
            && self.insert_conflicting(link, &conflicting_links(topo, link, model))
    }

    /// Adds `link` as a new vertex joined to the vertices among
    /// `conflicting`: the list [`conflicting_links`] returns for `link`
    /// (ascending by id) over the topology and model the graph was built
    /// with. A caller that inserts the same link many times computes the
    /// list once; the insert is then one scan of the vertex set.
    ///
    /// The new vertex gets the highest dense index. Returns `false`
    /// (leaving the graph untouched) when `link` is already a vertex.
    pub fn insert_conflicting(&mut self, link: LinkId, conflicting: &[LinkId]) -> bool {
        if self.index_of(link).is_some() {
            return false;
        }
        let i = self.links.len();
        let mut nbrs = Vec::new();
        for (j, lj) in self.links.iter().enumerate() {
            if conflicting.binary_search(lj).is_ok() {
                self.adj[j].push(i); // i is the largest index: stays sorted
                nbrs.push(j);
            }
        }
        self.edge_count += nbrs.len();
        self.links.push(link);
        self.set_index(link, Some(i));
        self.adj.push(nbrs); // ascending by construction
        true
    }

    /// Removes the vertex for `link` (swap-remove: the last vertex takes
    /// over the freed dense index, so indices of other vertices may
    /// change). Returns `false` when `link` is not a vertex.
    pub fn remove_vertex(&mut self, link: LinkId) -> bool {
        let Some(i) = self.index_of(link) else {
            return false;
        };
        self.set_index(link, None);
        let last = self.links.len() - 1;
        // Drop edges incident to i.
        let nbrs = std::mem::take(&mut self.adj[i]);
        self.edge_count -= nbrs.len();
        for j in nbrs {
            remove_sorted(&mut self.adj[j], i);
        }
        // Move the last vertex into slot i (its list moves with it) and
        // relabel `last` -> `i` in every adjacency list it appears in.
        self.links.swap_remove(i);
        self.adj.swap_remove(i);
        if i != last {
            self.set_index(self.links[i], Some(i));
            for k in 0..self.adj[i].len() {
                let j = self.adj[i][k];
                let list = &mut self.adj[j];
                remove_sorted(list, last);
                list.insert(list.partition_point(|&v| v < i), i);
            }
        }
        true
    }

    fn set_index(&mut self, link: LinkId, i: Option<usize>) {
        if self.index.len() <= link.index() {
            self.index.resize(link.index() + 1, None);
        }
        self.index[link.index()] = i;
    }

    /// Mines the maximal clique containing vertex `seed` (greedy growth:
    /// highest-degree admissible neighbor first).
    ///
    /// Every clique must be served sequentially in TDMA, so the total
    /// slot demand inside the returned clique lower-bounds any feasible
    /// frame length that schedules all its links. Returns dense vertex
    /// indices, sorted ascending, always containing `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `seed >= vertex_count()`.
    pub fn maximal_clique_containing(&self, seed: usize) -> Vec<usize> {
        crate::cliques::maximal_clique_containing(self, seed)
    }

    /// Mines a greedy clique cover: a partition of the vertex set into
    /// disjoint cliques (every vertex appears in exactly one clique).
    ///
    /// Each clique's demand sum is a necessary frame-length condition;
    /// the heaviest clique gives the admission controller a sound lower
    /// bound on required slots without invoking any solver. Smaller
    /// covers give tighter bounds, but any cover is sound.
    pub fn clique_cover(&self) -> Vec<Vec<usize>> {
        crate::cliques::greedy_clique_cover(self)
    }
}

/// Removes `v` from the sorted neighbour list `list`.
fn remove_sorted(list: &mut Vec<usize>, v: usize) {
    #[expect(
        clippy::expect_used,
        reason = "adjacency is symmetric: v is in j's list iff j is in v's"
    )]
    let pos = list.binary_search(&v).expect("symmetric edge");
    list.remove(pos);
}

/// Every link of `topo` that conflicts with `link` under `model`,
/// ascending by id (`link` itself excluded): the neighbourhood a vertex
/// for `link` has in any conflict graph over `topo` and `model`,
/// restricted to that graph's vertices. It depends on the topology and the
/// model alone, so a caller inserting one link many times computes it once
/// ([`ConflictGraph::insert_conflicting`]). The cost is two BFS runs
/// bounded at the protocol radius and one scan of the topology's links.
///
/// # Panics
///
/// Panics if `link` is not in `topo`.
pub fn conflicting_links(
    topo: &MeshTopology,
    link: LinkId,
    model: InterferenceModel,
) -> Vec<LinkId> {
    let Some(&new) = topo.link(link) else {
        panic!("link {link} not in topology");
    };
    // The protocol test needs `hop_distance(new.tx, other.rx)` and
    // `hop_distance(other.tx, new.rx)` for every other link: one BFS out
    // of `new.tx`, one into `new.rx`.
    let (from_tx, to_rx) = match model {
        InterferenceModel::Protocol { hops } => (
            hop_row(topo, new.tx, Direction::Outbound, hops),
            hop_row(topo, new.rx, Direction::Inbound, hops),
        ),
        _ => Default::default(),
    };
    topo.links()
        .iter()
        .filter(|other| {
            other.id != link
                && conflicts(topo, &new, other, model, |_| {
                    (from_tx[other.rx.index()], to_rx[other.tx.index()])
                })
        })
        .map(|other| other.id)
        .collect()
}

/// Whether two distinct links of `topo` conflict under `model`, at the
/// cost of two BFS bounded at the protocol radius; for many pairs, build
/// a [`ConflictGraph`] once and ask [`ConflictGraph::are_in_conflict`].
pub fn links_conflict(topo: &MeshTopology, a: &Link, b: &Link, model: InterferenceModel) -> bool {
    conflicts(topo, a, b, model, |radius| {
        let to_rx =
            |tx: NodeId, rx: NodeId| hop_row(topo, tx, Direction::Outbound, radius)[rx.index()];
        (to_rx(a.tx, b.rx), to_rx(b.tx, a.rx))
    })
}

/// Decides whether two distinct links conflict under `model` — the one
/// place the conflict rules are written. `hops(radius)` gives the hop
/// distances `a.tx -> b.rx` and `b.tx -> a.rx`, exact up to `radius`;
/// only the protocol model asks.
fn conflicts(
    topo: &MeshTopology,
    a: &Link,
    b: &Link,
    model: InterferenceModel,
    hops: impl FnOnce(usize) -> (usize, usize),
) -> bool {
    if a.shares_endpoint(b) {
        return true;
    }
    match model {
        InterferenceModel::PrimaryOnly => false,
        InterferenceModel::Protocol { hops: radius } => {
            let (a_to_b, b_to_a) = hops(radius);
            a_to_b <= radius || b_to_a <= radius
        }
        InterferenceModel::Distance { range_m } => {
            #[expect(
                clippy::expect_used,
                reason = "link endpoints are nodes of the same topology"
            )]
            let node = |id: NodeId| *topo.node(id).expect("links reference valid nodes");
            node(a.tx).distance_to(&node(b.rx)) <= range_m
                || node(b.tx).distance_to(&node(a.rx)) <= range_m
        }
    }
}

/// Hops from (or, inbound, to) `src`, exact up to `cap`; `usize::MAX` beyond.
fn hop_row(topo: &MeshTopology, src: NodeId, direction: Direction, cap: usize) -> Vec<usize> {
    topo.bfs(src, direction, Some(cap), |_| true, |_| true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimesh_topology::generators;

    fn link(topo: &MeshTopology, a: u32, b: u32) -> LinkId {
        topo.link_between(NodeId(a), NodeId(b))
            .expect("link exists")
    }

    #[test]
    fn chain_primary_conflicts() {
        let topo = generators::chain(3);
        let cg = ConflictGraph::build(&topo, InterferenceModel::PrimaryOnly);
        let l01 = link(&topo, 0, 1);
        let l10 = link(&topo, 1, 0);
        let l12 = link(&topo, 1, 2);
        assert!(cg.are_in_conflict(l01, l10));
        assert!(cg.are_in_conflict(l01, l12));
        assert_eq!(cg.vertex_count(), 4);
        // All 4 links share node 1, so the graph is complete: C(4,2)=6 edges.
        assert_eq!(cg.edge_count(), 6);
    }

    #[test]
    fn chain_secondary_conflicts() {
        let topo = generators::chain(5);
        let cg = ConflictGraph::build(&topo, InterferenceModel::protocol_default());
        let l01 = link(&topo, 0, 1);
        let l23 = link(&topo, 2, 3);
        let l34 = link(&topo, 3, 4);
        let l43 = link(&topo, 4, 3);
        // tx=2 of l23 is 1 hop from rx=1 of l01: secondary conflict.
        assert!(cg.are_in_conflict(l01, l23));
        // l34: tx=3 is 2 hops from rx=1; l01: tx=0 is 3 hops from rx=4. No conflict.
        assert!(!cg.are_in_conflict(l01, l34));
        // l43: tx 4 is 3 hops from rx 1 of l01; tx 0 of l01 is 3 hops from rx 3. OK together.
        assert!(!cg.are_in_conflict(l01, l43));
    }

    #[test]
    fn symmetric_and_irreflexive() {
        let topo = generators::grid(3, 3);
        let cg = ConflictGraph::build(&topo, InterferenceModel::protocol_default());
        for i in 0..cg.vertex_count() {
            assert!(!cg.neighbors(i).contains(&i), "self-conflict at {i}");
            for &j in cg.neighbors(i) {
                assert!(cg.neighbors(j).contains(&i), "asymmetric edge {i}-{j}");
            }
        }
    }

    #[test]
    fn edge_count_matches_edges_iter() {
        let topo = generators::grid(3, 2);
        let cg = ConflictGraph::build(&topo, InterferenceModel::protocol_default());
        assert_eq!(cg.edges().count(), cg.edge_count());
    }

    #[test]
    fn subset_restriction() {
        let topo = generators::chain(5);
        let l01 = link(&topo, 0, 1);
        let l12 = link(&topo, 1, 2);
        let l34 = link(&topo, 3, 4);
        let cg = ConflictGraph::build_for_links(
            &topo,
            vec![l01, l12, l34],
            InterferenceModel::protocol_default(),
        );
        assert_eq!(cg.vertex_count(), 3);
        assert!(cg.are_in_conflict(l01, l12));
        assert!(!cg.are_in_conflict(l01, l34));
        // Links outside the subset report no conflicts.
        let l23 = link(&topo, 2, 3);
        assert!(cg.conflicts_of(l23).is_empty());
        assert!(!cg.are_in_conflict(l01, l23));
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn duplicate_active_link_panics() {
        let topo = generators::chain(3);
        let l01 = link(&topo, 0, 1);
        let _ =
            ConflictGraph::build_for_links(&topo, vec![l01, l01], InterferenceModel::PrimaryOnly);
    }

    #[test]
    fn distance_model_uses_positions() {
        // Two parallel hops 1000 m apart: no secondary conflict at 300 m
        // interference range, conflict at 2000 m.
        let mut topo = MeshTopology::new();
        let a = topo.add_node_at(0.0, 0.0);
        let b = topo.add_node_at(200.0, 0.0);
        let c = topo.add_node_at(0.0, 1000.0);
        let d = topo.add_node_at(200.0, 1000.0);
        let ab = topo.add_link(a, b).unwrap();
        let cd = topo.add_link(c, d).unwrap();
        let near = ConflictGraph::build(&topo, InterferenceModel::Distance { range_m: 300.0 });
        assert!(!near.are_in_conflict(ab, cd));
        let far = ConflictGraph::build(&topo, InterferenceModel::Distance { range_m: 2000.0 });
        assert!(far.are_in_conflict(ab, cd));
    }

    #[test]
    fn wider_protocol_radius_adds_conflicts() {
        let topo = generators::chain(6);
        let h1 = ConflictGraph::build(&topo, InterferenceModel::Protocol { hops: 1 });
        let h2 = ConflictGraph::build(&topo, InterferenceModel::Protocol { hops: 2 });
        assert!(h2.edge_count() > h1.edge_count());
        // Every h1 conflict is also an h2 conflict (monotonicity).
        for (i, j) in h1.edges() {
            assert!(h2.are_in_conflict(h1.link_at(i), h1.link_at(j)));
        }
    }

    #[test]
    fn disjoint_star_arms_conflict_through_center() {
        let topo = generators::star(4);
        let cg = ConflictGraph::build(&topo, InterferenceModel::protocol_default());
        let l10 = link(&topo, 1, 0);
        let l20 = link(&topo, 2, 0);
        // Both arms terminate at the center: primary conflict.
        assert!(cg.are_in_conflict(l10, l20));
        // Leaf-to-leaf "parallel" transmissions 1->0 and 0->2 share node 0.
        let l02 = link(&topo, 0, 2);
        assert!(cg.are_in_conflict(l10, l02));
    }

    /// Two graphs are the same up to vertex relabelling when they have the
    /// same vertex set and the same conflicting link pairs.
    fn same_conflicts(a: &ConflictGraph, b: &ConflictGraph) -> bool {
        let mut la: Vec<LinkId> = a.links().to_vec();
        let mut lb: Vec<LinkId> = b.links().to_vec();
        la.sort_unstable();
        lb.sort_unstable();
        if la != lb || a.edge_count() != b.edge_count() {
            return false;
        }
        a.edges()
            .all(|(i, j)| b.are_in_conflict(a.link_at(i), a.link_at(j)))
    }

    #[test]
    fn insert_vertex_matches_full_rebuild() {
        for model in [
            InterferenceModel::PrimaryOnly,
            InterferenceModel::protocol_default(),
            InterferenceModel::Protocol { hops: 2 },
        ] {
            let topo = generators::grid(3, 3);
            let all: Vec<LinkId> = topo.link_ids().collect();
            // Grow incrementally from the first link, in an order different
            // from id order.
            let mut cg = ConflictGraph::build_for_links(&topo, vec![all[0]], model);
            for &l in all.iter().skip(1).rev() {
                assert!(cg.insert_vertex(&topo, l, model));
            }
            let full = ConflictGraph::build(&topo, model);
            assert!(same_conflicts(&cg, &full), "model {model:?} diverged");
        }
    }

    #[test]
    fn insert_existing_vertex_is_noop() {
        let topo = generators::chain(3);
        let l01 = link(&topo, 0, 1);
        let mut cg = ConflictGraph::build(&topo, InterferenceModel::protocol_default());
        let edges = cg.edge_count();
        assert!(!cg.insert_vertex(&topo, l01, InterferenceModel::protocol_default()));
        assert_eq!(cg.edge_count(), edges);
    }

    #[test]
    fn remove_vertex_matches_restricted_rebuild() {
        let topo = generators::grid(3, 3);
        let model = InterferenceModel::protocol_default();
        let mut cg = ConflictGraph::build(&topo, model);
        let all: Vec<LinkId> = topo.link_ids().collect();
        // Remove a third of the links, scattered through the index range.
        let removed: Vec<LinkId> = all.iter().copied().step_by(3).collect();
        for &l in &removed {
            assert!(cg.remove_vertex(l));
            assert!(!cg.remove_vertex(l), "double remove must be a no-op");
        }
        let kept: Vec<LinkId> = all
            .iter()
            .copied()
            .filter(|l| !removed.contains(l))
            .collect();
        let full = ConflictGraph::build_for_links(&topo, kept, model);
        assert!(same_conflicts(&cg, &full));
        // Dense indices stay consistent after the swap-removes.
        for (i, &l) in cg.links().to_vec().iter().enumerate() {
            assert_eq!(cg.index_of(l), Some(i));
            assert_eq!(cg.link_at(i), l);
        }
        for i in 0..cg.vertex_count() {
            for &j in cg.neighbors(i) {
                assert!(j < cg.vertex_count(), "dangling index after remove");
                assert!(cg.neighbors(j).contains(&i), "asymmetry after remove");
            }
        }
    }

    #[test]
    fn insert_after_remove_round_trips() {
        let topo = generators::chain(5);
        let model = InterferenceModel::protocol_default();
        let mut cg = ConflictGraph::build(&topo, model);
        let l = link(&topo, 2, 3);
        assert!(cg.remove_vertex(l));
        assert!(cg.insert_vertex(&topo, l, model));
        let full = ConflictGraph::build(&topo, model);
        assert!(same_conflicts(&cg, &full));
    }

    /// Exhaustive adjacency invariants: indices in bounds, lists sorted,
    /// symmetric, irreflexive, edge count consistent.
    fn assert_adjacency_invariants(cg: &ConflictGraph) {
        let n = cg.vertex_count();
        let mut edges = 0;
        for i in 0..n {
            let nbrs = cg.neighbors(i);
            assert!(
                nbrs.windows(2).all(|w| w[0] < w[1]),
                "unsorted neighbors at {i}: {nbrs:?}"
            );
            for &j in nbrs {
                assert!(j < n, "dangling index {j} at vertex {i}");
                assert_ne!(j, i, "self-loop at {i}");
                assert!(cg.neighbors(j).binary_search(&i).is_ok(), "asymmetric edge");
            }
            edges += nbrs.len();
        }
        assert_eq!(edges, 2 * cg.edge_count(), "edge count drifted");
    }

    #[test]
    fn heavy_insert_remove_churn_keeps_lists_sorted_and_symmetric() {
        let topo = generators::grid(4, 4);
        let model = InterferenceModel::protocol_default();
        let all: Vec<LinkId> = topo.link_ids().collect();
        let mut cg = ConflictGraph::build(&topo, model);
        // Deterministic LCG drives interleaved removals and re-inserts.
        let mut state = 0x5eed_cafe_u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut absent: Vec<LinkId> = Vec::new();
        for _ in 0..400 {
            if absent.is_empty() || (rng() % 2 == 0 && cg.vertex_count() > 1) {
                let l = cg.links()[rng() % cg.vertex_count()];
                assert!(cg.remove_vertex(l));
                absent.push(l);
            } else {
                let l = absent.swap_remove(rng() % absent.len());
                assert!(cg.insert_vertex(&topo, l, model));
            }
            assert_adjacency_invariants(&cg);
        }
        // Restore everything and compare against a fresh rebuild.
        for &l in &absent {
            assert!(cg.insert_vertex(&topo, l, model));
        }
        assert_adjacency_invariants(&cg);
        assert_eq!(cg.vertex_count(), all.len());
        let full = ConflictGraph::build(&topo, model);
        assert!(same_conflicts(&cg, &full));
    }

    #[test]
    fn max_degree_reasonable() {
        let topo = generators::chain(4);
        let cg = ConflictGraph::build(&topo, InterferenceModel::PrimaryOnly);
        // Each link conflicts with at most all links at its two endpoints.
        assert!(cg.max_degree() < cg.vertex_count());
        assert!(cg.max_degree() >= 1);
    }
}
