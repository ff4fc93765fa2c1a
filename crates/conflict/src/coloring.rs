//! Greedy vertex coloring of conflict graphs.
//!
//! A proper coloring of the conflict graph is a conflict-free slot
//! assignment in which every link gets one color (slot class); the number
//! of colors bounds the TDMA frame length needed when every link demands
//! one slot. Greedy Welsh–Powell coloring is the classical baseline that
//! delay-aware scheduling is compared against: it minimises (approximately)
//! the number of slots while ignoring per-path transmission order, and so
//! incurs large scheduling delay.

use crate::ConflictGraph;

/// A proper vertex coloring of a [`ConflictGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    /// Color of each vertex, indexed densely like the graph.
    colors: Vec<usize>,
    /// Number of distinct colors used.
    color_count: usize,
}

impl Coloring {
    /// Color of the vertex at dense index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn color_of_index(&self, i: usize) -> usize {
        self.colors[i]
    }

    /// Number of colors used.
    pub fn color_count(&self) -> usize {
        self.color_count
    }

    /// Colors as a dense slice parallel to `graph.links()`.
    pub fn colors(&self) -> &[usize] {
        &self.colors
    }

    /// Verifies that no conflict edge is monochromatic.
    pub fn is_proper(&self, graph: &ConflictGraph) -> bool {
        graph.edges().all(|(i, j)| self.colors[i] != self.colors[j])
    }
}

/// Welsh–Powell greedy coloring: visit vertices in order of decreasing
/// degree, assigning the smallest color unused by already-colored
/// neighbors.
///
/// Uses at most `max_degree + 1` colors. Returns an empty coloring for an
/// empty graph.
pub fn greedy_coloring(graph: &ConflictGraph) -> Coloring {
    let n = graph.vertex_count();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| graph.degree(b).cmp(&graph.degree(a)).then(a.cmp(&b)));

    let mut colors = vec![usize::MAX; n];
    let mut color_count = 0;
    let mut used = Vec::new();
    for &v in &order {
        used.clear();
        used.resize(graph.degree(v) + 1, false);
        for &u in graph.neighbors(v) {
            let c = colors[u];
            if c != usize::MAX && c < used.len() {
                used[c] = true;
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "pigeonhole: degree(v)+1 candidates, at most degree(v) taken"
        )]
        let c = used
            .iter()
            .position(|&taken| !taken)
            .expect("degree+1 colors always suffice");
        colors[v] = c;
        color_count = color_count.max(c + 1);
    }
    Coloring {
        colors,
        color_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InterferenceModel;
    use wimesh_topology::generators;

    #[test]
    fn coloring_is_proper_on_chain() {
        let topo = generators::chain(6);
        let cg = ConflictGraph::build(&topo, InterferenceModel::protocol_default());
        let coloring = greedy_coloring(&cg);
        assert!(coloring.is_proper(&cg));
        assert!(coloring.color_count() >= 1);
        assert!(coloring.color_count() <= cg.max_degree() + 1);
    }

    #[test]
    fn coloring_is_proper_on_grid() {
        let topo = generators::grid(4, 3);
        let cg = ConflictGraph::build(&topo, InterferenceModel::protocol_default());
        let coloring = greedy_coloring(&cg);
        assert!(coloring.is_proper(&cg));
    }

    #[test]
    fn complete_conflict_graph_needs_all_colors() {
        // A 2-node topology: both directions conflict (shared endpoints).
        let topo = generators::chain(2);
        let cg = ConflictGraph::build(&topo, InterferenceModel::PrimaryOnly);
        let coloring = greedy_coloring(&cg);
        assert_eq!(coloring.color_count(), 2);
    }

    #[test]
    fn star_center_serializes_all_links() {
        // Every link of a star touches the center: the conflict graph is
        // complete, so colors == links.
        let topo = generators::star(4);
        let cg = ConflictGraph::build(&topo, InterferenceModel::PrimaryOnly);
        let coloring = greedy_coloring(&cg);
        assert_eq!(coloring.color_count(), cg.vertex_count());
    }

    #[test]
    fn empty_graph() {
        let topo = wimesh_topology::MeshTopology::new();
        let cg = ConflictGraph::build(&topo, InterferenceModel::PrimaryOnly);
        let coloring = greedy_coloring(&cg);
        assert_eq!(coloring.color_count(), 0);
        assert!(coloring.is_proper(&cg));
    }
}
