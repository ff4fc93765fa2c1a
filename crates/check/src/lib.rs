//! The independent schedule certifier for the wimesh workspace: the
//! paper's *guaranteed* QoS must not rest on "the optimizer said so".
//!
//! [`Certificate::check`] is a deliberately simple re-verification of
//! every schedule the admission controller emits: conflict-freedom slot
//! by slot, demand satisfaction, per-flow delay bounds re-derived hop by
//! hop, guard-time sufficiency against the drift model, and a
//! from-scratch Bellman–Ford cross-check of the makespan. It shares no
//! code with `crates/tdma`, so the optimised solver and the oracle can
//! only agree by both being right. The engine it checks never calls it:
//! `wimesh-svc` does on every recovery ([`Certificate::check_recovery`]),
//! and the engine's suites hand it every outcome they see.
//!
//! The code disciplines the certifier's guarantee also rests on are the
//! compiler's, not a lint of this crate's (DESIGN §3.10): the root
//! `clippy.toml` bans the random-order hash types and raw
//! `Mutex::lock`, `wimesh_obs::sync::lock` checks the lock order in debug
//! builds, and `wimesh-svc`'s session is reachable for mutation only
//! through its journal append.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod certify;

pub use certify::{
    CertParams, Certificate, CertificateReport, CertifyError, DriftModel, FlowRequirement,
    Violation,
};
