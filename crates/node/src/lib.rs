//! wimesh-node — a per-node distributed mesh runtime with a
//! fault-injecting message fabric.
//!
//! The rest of the workspace studies the WiMAX-mesh-over-WiFi system
//! from a bird's-eye view: the solver sees the whole conflict graph,
//! the emulation layer samples closed-form clock-error bounds. This
//! crate drops that omniscience. Every router becomes an actor
//! ([`MeshNode`]) that owns a drifting clock and an MSH-DSCH protocol
//! endpoint, and *only acts on what it hears over the air*:
//!
//! * the **fabric** ([`Fabric`]) is the air between the nodes — a
//!   deterministic, seeded message layer with per-link Bernoulli or
//!   Gilbert–Elliott loss, delay jitter, link cuts and partitions;
//! * the **runtime** ([`MeshRuntime`]) drives beacon-flood clock sync,
//!   802.16 mesh-election control slots, the three-way MSH-DSCH
//!   reservation handshake and a TDMA data plane off a single
//!   [`wimesh_sim::EventQueue`];
//! * the **repair controller** ([`RepairController`]) closes the loop
//!   with admission control: when survivors detect a crashed node by
//!   its silence, the gateway releases the dead node's flows from its
//!   `QosSession`, re-routes transit flows around the hole and lets the
//!   distributed handshake renegotiate the slots.
//!
//! Everything is deterministic for a fixed [`RuntimeConfig::seed`]:
//! run-to-run, a scenario replays message for message.
//!
//! ```
//! use std::time::Duration;
//! use wimesh_emu::{EmulationModel, EmulationParams};
//! use wimesh_node::{MeshRuntime, RuntimeConfig};
//! use wimesh_topology::generators;
//!
//! let topo = generators::grid(3, 3);
//! let model = EmulationModel::new(EmulationParams::default()).unwrap();
//! let mut rt = MeshRuntime::new(topo, model, RuntimeConfig::default()).unwrap();
//! let seg = rt.run_for(Duration::from_secs(2));
//! // Every node acquired sync from the gateway's beacon flood.
//! assert!(seg.time_to_sync.is_some());
//! ```

#![deny(missing_docs)]

pub mod error;
pub mod fabric;
pub mod node;
pub mod repair;
pub mod runtime;

pub use error::NodeError;
pub use fabric::{Fabric, FabricConfig, FabricStats, LossModel};
pub use node::MeshNode;
pub use repair::{RepairController, RepairOutcome};
pub use runtime::{MeshRuntime, RuntimeConfig, SegmentReport};
