//! # wimesh — guaranteed QoS in mesh networks by emulating the WiMAX mesh
//! MAC over WiFi hardware
//!
//! A Rust reproduction of *Djukic & Valaee, "Towards Guaranteed QoS in
//! Mesh Networks: Emulating WiMAX Mesh over WiFi Hardware" (ICDCS 2007)*
//! and the delay-aware TDMA scheduling theory behind it.
//!
//! 802.11 DCF cannot bound end-to-end delay over multiple mesh hops. The
//! system reproduced here gets hard bounds on commodity WiFi hardware by
//! running the 802.16 mesh TDMA MAC *in software*: network-wide time
//! synchronisation plus guard times turn the WiFi channel into minislots,
//! delay-aware transmission-order scheduling turns minislots into
//! end-to-end delay guarantees, and an admission controller decides — via
//! a search over an integer-programming feasibility oracle (the paper's
//! linear scan, run here as a binary search between two bounds) — how few
//! minislots the guaranteed flows need.
//!
//! This crate is the façade over the workspace:
//!
//! | Piece | Crate |
//! |---|---|
//! | Topologies, routing | [`wimesh_topology`] |
//! | Conflict graphs | [`wimesh_conflict`] |
//! | MILP solver | [`wimesh_milp`] |
//! | Delay-aware scheduling | [`wimesh_tdma`] |
//! | 802.11 PHY + DCF baseline | [`wimesh_phy80211`] |
//! | 802.16 mesh MAC | [`wimesh_mac80216`] |
//! | Emulation (sync, guard, capacity) | [`wimesh_emu`] |
//! | Discrete-event engine | [`wimesh_sim`] |
//!
//! # Quickstart
//!
//! ```
//! use wimesh::{FlowSpec, MeshQos, OrderPolicy};
//! use wimesh_sim::traffic::VoipCodec;
//! use wimesh_topology::generators;
//!
//! // A 5-router chain with node 0 as the gateway.
//! let topo = generators::chain(5);
//! let mesh = MeshQos::builder(topo).build()?;
//!
//! // Two VoIP calls from the edge to the gateway, admitted one at a
//! // time through a stateful session (incremental conflict-graph
//! // updates, warm-started feasibility search).
//! let mut session = mesh.session(OrderPolicy::HopOrder);
//! for spec in [
//!     FlowSpec::voip(0, 4.into(), 0.into(), VoipCodec::G711),
//!     FlowSpec::voip(1, 3.into(), 0.into(), VoipCodec::G711),
//! ] {
//!     assert!(session.admit(&spec)?.is_admitted());
//! }
//! let outcome = session.snapshot();
//! assert_eq!(outcome.admitted().len(), 2);
//! // Every admitted flow has a hard worst-case delay.
//! for f in outcome.admitted() {
//!     assert!(f.worst_case_delay <= f.spec.deadline.unwrap());
//! }
//! # Ok::<(), wimesh::QosError>(())
//! ```
//!
//! There is one admission engine, [`QosSession`]. Batch admission over a
//! whole flow set ([`MeshQos::admit`]) is a fresh session placing the
//! flows in order; [`QosSession::release`] and [`QosSession::rebalance`]
//! complete the churn lifecycle. There is one way to build a mesh,
//! [`MeshQos::builder`], and one build of the crate: it declares no cargo
//! features.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

mod admission;
mod builder;
mod error;
mod flow;
mod network;
mod session;

pub use admission::{AdmissionOutcome, AdmittedFlow, GreedyKey, OrderPolicy, RejectReason};
pub use builder::MeshQosBuilder;
pub use error::QosError;
pub use flow::FlowSpec;
pub use network::{MeshQos, RatePolicy};
pub use session::{FlowAdmission, FlowState, QosSession, SessionState, SessionStats};

// Re-export the workspace crates so downstream users need one dependency.
pub use wimesh_conflict as conflict;
pub use wimesh_emu as emu;
pub use wimesh_mac80216 as mac80216;
pub use wimesh_milp as milp;
pub use wimesh_phy80211 as phy80211;
pub use wimesh_sim as sim;
pub use wimesh_tdma as tdma;
pub use wimesh_topology as topology;
