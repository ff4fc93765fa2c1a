//! Link conflict graphs for TDMA mesh scheduling.
//!
//! Two directed links *conflict* when they cannot be active in the same TDMA
//! slot. The conflict graph — one vertex per scheduled link, one edge per
//! conflicting pair — is the central combinatorial object of the
//! Djukic–Valaee scheduling theory: transmission orders are chosen per
//! conflict edge, schedules are difference-constraint systems over the
//! conflict graph, and scheduling delay is a cost accumulated over its
//! cycles.
//!
//! # Conflict rules
//!
//! * **Primary conflict**: the links share a node. A half-duplex radio can
//!   neither transmit and receive simultaneously nor serve two links at
//!   once.
//! * **Secondary conflict** (protocol interference model): the transmitter
//!   of one link is within interference range of the receiver of the other.
//!   Range is expressed in hops ([`InterferenceModel::Protocol`], the
//!   classic "k-hop" model; `hops = 1` reproduces the hidden-terminal rule
//!   and matches 802.16 mesh's two-hop coordination neighbourhood) or in
//!   meters ([`InterferenceModel::Distance`], using node positions).
//!
//! # Example
//!
//! ```
//! use wimesh_topology::generators;
//! use wimesh_conflict::{ConflictGraph, InterferenceModel};
//!
//! let topo = generators::chain(4);
//! let cg = ConflictGraph::build(&topo, InterferenceModel::protocol_default());
//! // On a chain nearby links conflict; the two outermost link directions
//! // are far enough apart to be scheduled together.
//! let a = topo.link_between(0.into(), 1.into()).unwrap();
//! let b = topo.link_between(3.into(), 2.into()).unwrap();
//! assert!(!cg.are_in_conflict(a, b));
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

mod cliques;
mod coloring;
mod graph;

pub use cliques::{greedy_clique_cover, heaviest_clique, maximal_clique_containing};
pub use coloring::{greedy_coloring, Coloring};
pub use graph::{conflicting_links, ConflictGraph, InterferenceModel};
