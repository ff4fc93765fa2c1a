//! `wimesh-svc`: a long-running admission gateway over
//! [`wimesh::QosSession`] with batched solves, a write-ahead journal,
//! and certified crash recovery.
//!
//! The crate is the service layer the paper's gateway node would run:
//! admission control as a daemon rather than a library call, built from
//! four pieces —
//!
//! * [`AdmissionGateway`] / [`GatewayClient`] — a bounded request queue
//!   in front of one journaled session, with no thread of its own: a
//!   caller waiting on its [`Ticket`] takes the session under one lock
//!   and serves the queue in batches until its own request is answered.
//!   Runs of admissions in a batch coalesce into a single incremental
//!   solve (one journal record, one certification) and every requester
//!   gets a typed [`Reply`]. A full queue rejects with
//!   [`SvcError::Overloaded`] instead of queueing without bound.
//! * [`JournaledSession`] — the write-ahead discipline: every mutation
//!   is appended to a JSONL journal (same line format as the
//!   `wimesh-obs` sinks) and flushed *before* it is applied, plus
//!   periodic [state snapshots](JournalRecord::Snapshot). The session
//!   is reachable for mutation only through the append, so the order
//!   is checked by the compiler.
//! * [`recover`] — snapshot + replay rebuilds the exact pre-crash
//!   state: the last snapshot is restored verbatim (no solver run) and
//!   the journaled tail is re-applied with the same batch grouping.
//!   Torn tails from a crash mid-append are detected and dropped;
//!   anything else malformed is a typed [`RecoveryError`], never a
//!   silently wrong schedule. Every recovery ends with `wimesh-check`
//!   certification, including the recovered-region claim.
//! * [`EpochCell`] / [`SnapshotReader`] — epoch-versioned read-only
//!   [`ScheduleView`]s, so data-plane readers poll the live schedule
//!   wait-free in the steady state while a batch solves.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

mod error;
mod journal;
mod journaled;
mod recovery;
mod service;
mod snapshot;

pub use error::SvcError;
pub use journal::{parse_journal, JournalLog, JournalRecord, JournalWriter};
pub use journaled::JournaledSession;
pub use recovery::{recover, recover_file, recover_recorded, Recovered, RecoveryError};
pub use service::{
    AdmissionGateway, GatewayClient, GatewayConfig, GatewayReport, Reply, Request, ServiceStats,
    Ticket,
};
pub use snapshot::{EpochCell, ScheduleView, SnapshotReader};
