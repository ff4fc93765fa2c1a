//! Discrete-event network simulation engine.
//!
//! The substrate under the packet-level experiments of the workspace: a
//! nanosecond-resolution virtual clock and event queue ([`EventQueue`]),
//! standard traffic models ([`traffic`], including the ITU-style on/off
//! VoIP source the companion papers simulate with), bounded FIFO queues
//! ([`FifoQueue`]) and per-flow delay/jitter/loss statistics
//! ([`FlowStats`]).
//!
//! The engine is deliberately MAC-agnostic: the 802.11 DCF baseline, the
//! emulated 802.16 TDMA MAC and the distributed reservation protocol are
//! all written as ordinary event loops over [`EventQueue`].
//!
//! # Example: a minimal M/D/1 queue
//!
//! ```
//! use wimesh_sim::{EventQueue, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Arrival(u64), Departure }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_micros(10), Ev::Arrival(1));
//! q.schedule(SimTime::from_micros(5), Ev::Arrival(0));
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(t, SimTime::from_micros(5));
//! assert!(matches!(ev, Ev::Arrival(0)));
//! ```

#![warn(missing_docs)]

mod engine;
mod packet;
mod queue;
mod stats;
mod time;

pub mod traffic;

pub use engine::EventQueue;
pub use packet::{FlowId, Packet};
pub use queue::FifoQueue;
pub use stats::{FlowStats, Histogram};
pub use time::SimTime;
