//! 802.11 PHY timing and the DCF baseline MAC.
//!
//! Two roles in the workspace:
//!
//! 1. **The "WiFi hardware" abstraction** the WiMAX-mesh emulation runs
//!    on: PHY standards with their slot/SIFS/preamble timing and rate sets
//!    ([`PhyStandard`], [`airtime`]), used by the emulation layer to size
//!    TDMA minislots and compute per-slot framing overhead.
//! 2. **The comparison baseline**: a packet-level slot-synchronous
//!    CSMA/CA (DCF) simulation ([`dcf`]) exhibiting the contention
//!    collapse over multiple hops that motivates TDMA scheduling.
//!
//! The DCF model is the standard slot-synchronous approximation (as in
//! Bianchi-style analyses): time advances in PHY slots, carrier sense sees
//! 1-hop neighbours, reception fails when any other transmitter is within
//! interference range of the receiver during the frame — which reproduces
//! collisions, binary exponential backoff and hidden terminals.

#![warn(missing_docs)]

pub mod airtime;
pub mod dcf;
mod phy;
pub mod rate_adaptation;

pub use phy::{PhyStandard, PhyTiming};
pub use rate_adaptation::RateTable;
