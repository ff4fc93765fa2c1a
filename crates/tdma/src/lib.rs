//! Delay-aware TDMA link scheduling.
//!
//! This crate implements the scheduling theory of the Djukic–Valaee line of
//! work that the WiMAX-over-WiFi system builds on:
//!
//! 1. Every link `e` of a mesh carries a *demand* `d_e` of minislots per
//!    TDMA frame ([`Demands`]).
//! 2. For each pair of conflicting links a *transmission order* bit decides
//!    who transmits earlier in the frame ([`TransmissionOrder`]).
//! 3. Given an order, feasible start times are the solution of a system of
//!    difference constraints over the conflict graph
//!    ([`schedule_from_order`]): longest paths of the order's DAG, with
//!    **Bellman–Ford** certifying the cycle of a contradictory order; the
//!    makespan of the longest path is the minimum frame length for that
//!    order ([`min_slots_for_order`]).
//! 4. The end-to-end *scheduling delay* of a multi-hop path is determined
//!    by the order: each consecutive hop pair scheduled "backwards" costs a
//!    full extra frame ([`delay`]).
//! 5. Choosing the order that minimises the maximum path delay is
//!    NP-complete; this crate provides the exact MILP formulation
//!    ([`milp::min_max_delay_order`]), the polynomial algorithm for
//!    gateway-tree routing ([`order::tree_order`]), a greedy hop-order
//!    heuristic ([`order::hop_order`]) and a random-permutation baseline
//!    ([`order::random_order`]).
//!
//! # Example: delay-aware vs naive scheduling on a chain
//!
//! ```
//! use wimesh_topology::{generators, routing};
//! use wimesh_conflict::{ConflictGraph, InterferenceModel};
//! use wimesh_tdma::{order, schedule_from_order, Demands, FrameConfig, delay};
//!
//! let topo = generators::chain(5);
//! let path = routing::shortest_path(&topo, 0.into(), 4.into())?;
//! let mut demands = Demands::new();
//! for &l in path.links() {
//!     demands.set(l, 2);
//! }
//! let cg = ConflictGraph::build_for_links(
//!     &topo, demands.links().collect(), InterferenceModel::protocol_default());
//! let frame = FrameConfig::new(32, 250);
//!
//! // Order links along the path: zero extra frames of delay.
//! let good = order::hop_order(&cg, std::slice::from_ref(&path));
//! let sched = schedule_from_order(&cg, &demands, &good, frame)?;
//! let d = delay::path_delay_slots(&sched, &path).unwrap();
//! assert_eq!(d, 8); // 4 hops x 2 slots, back to back
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

mod demand;
mod error;
mod frame;
mod schedule;

pub mod approx;
pub mod delay;
pub mod milp;
pub mod order;
pub mod render;

pub use demand::Demands;
pub use error::ScheduleError;
pub use frame::{FrameConfig, SlotRange};
pub use order::TransmissionOrder;
pub use schedule::{min_slots_for_order, schedule_from_order, Schedule};
