//! Mesh network topologies for the wimesh workspace.
//!
//! This crate models the *physical* layer-2 connectivity of a wireless mesh
//! network: which nodes exist, where they are, and which ordered pairs of
//! nodes can exchange frames. Everything above it (conflict graphs, TDMA
//! schedules, the WiMAX-over-WiFi emulation) consumes the [`MeshTopology`]
//! type defined here.
//!
//! # Overview
//!
//! * [`MeshTopology`] — the network graph. Nodes are created with
//!   [`MeshTopology::add_node`]; radio connectivity is added per *directed*
//!   link with [`MeshTopology::add_link`] or per symmetric pair with
//!   [`MeshTopology::add_bidirectional`]. Every hop question goes through
//!   one breadth-first walk, [`MeshTopology::bfs`].
//! * [`generators`] — deterministic and random topology factories (chain,
//!   ring, grid, star, random unit-disk, random overlay trees).
//! * [`routing`] — breadth-first shortest-path routing, gateway (tree)
//!   routing and the [`routing::Path`] type used by the scheduling layers.
//!
//! # Example
//!
//! ```
//! use wimesh_topology::{generators, routing};
//!
//! // A 4-node chain: 0 - 1 - 2 - 3
//! let topo = generators::chain(4);
//! assert_eq!(topo.node_count(), 4);
//! // 3 bidirectional hops = 6 directed links.
//! assert_eq!(topo.link_count(), 6);
//!
//! let path = routing::shortest_path(&topo, 0.into(), 3.into()).unwrap();
//! assert_eq!(path.hop_count(), 3);
//! ```

#![warn(missing_docs)]

mod error;
mod graph;
mod ids;

pub mod generators;
pub mod routing;

pub use error::TopologyError;
pub use graph::{Direction, Link, MeshTopology, Node, Reached};
pub use ids::{LinkId, NodeId};
