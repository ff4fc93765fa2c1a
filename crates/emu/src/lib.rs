//! The WiMAX-mesh-over-WiFi emulation layer — the paper's core
//! engineering contribution.
//!
//! Commodity 802.11 hardware has no TDMA mode: slot boundaries must be
//! enforced in *software*, which works only if every node agrees on where
//! the boundaries are. This crate models everything that agreement costs:
//!
//! * [`clock`] — per-node oscillators with parts-per-million drift.
//! * [`sync`] — beacon-based time synchronisation along the mesh tree and
//!   the residual error bound it achieves between resyncs.
//! * [`EmulationModel`] — guard-time sizing (worst-case mutual clock
//!   error plus turnaround), per-minislot 802.11 framing overhead, and
//!   the resulting effective capacity of an emulated minislot/frame.
//! * [`tdma`] — a packet-level simulation of the emulated TDMA MAC
//!   driving any conflict-free [`wimesh_tdma::Schedule`] over the 802.11
//!   PHY timing, with per-flow delay/loss statistics comparable to the
//!   DCF baseline in `wimesh-phy80211`.
//!
//! # Example: how much capacity survives the emulation?
//!
//! ```
//! use std::time::Duration;
//! use wimesh_emu::{ClockParams, EmulationModel, EmulationParams};
//!
//! let params = EmulationParams::default();
//! let model = EmulationModel::new(params)?;
//! // An emulated minislot still moves most of the nominal rate.
//! assert!(model.efficiency() > 0.3);
//! assert!(model.guard_time() < Duration::from_millis(1));
//! # Ok::<(), wimesh_emu::EmuError>(())
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod sync;
pub mod tdma;

mod error;
mod model;

pub use clock::DriftClock;
pub use error::EmuError;
pub use model::{ClockParams, EmulationModel, EmulationParams};
