//! The 802.16 (WiMAX) mesh MAC: the protocol machinery the
//! WiMAX-over-WiFi system emulates in software.
//!
//! Three pieces:
//!
//! * **Frame structure** ([`MeshFrameConfig`]): each mesh frame opens with
//!   a schedule-control subframe of MSH-DSCH transmission opportunities,
//!   followed by a data subframe of minislots (the
//!   [`wimesh_tdma::FrameConfig`] the scheduling theory works in).
//! * **Mesh election** ([`election`]): the pseudo-random, collision-free
//!   competition by which nodes win control-subframe opportunities within
//!   their 2-hop neighbourhood, using the standard's mixing ("smearing")
//!   hash.
//! * **Distributed coordinated scheduling** ([`reservation`]): the
//!   three-way MSH-DSCH handshake (request → grant → grant-confirm) that
//!   reserves data minislots hop by hop and converges to a conflict-free
//!   TDMA schedule without a central scheduler. The per-node protocol
//!   endpoint it drives, [`protocol::DschNode`], is public so runtimes
//!   with real message loss (`wimesh-node`) can run the same state
//!   machines over their own fabric.
//! * **Centralized coordinated scheduling** ([`csch`]): the MSH-CSCH
//!   request/grant cycle over the routing tree, with the schedule derived
//!   deterministically at every node.
//! * **Network entry** ([`entry`]): scan, sponsor selection and the NENT
//!   handshake by which a cold mesh wakes up in waves from the gateway.

#![warn(missing_docs)]

pub mod csch;
pub mod election;
pub mod entry;
pub mod protocol;
pub mod reservation;

mod dsch;
mod frame;

pub use dsch::{DschMessage, GrantFix, ScheduleEntry};
pub use frame::MeshFrameConfig;
