//! Static analysis and independent verification for the wimesh workspace.
//!
//! Two engines, one goal: the paper's *guaranteed* QoS must not rest on
//! "the optimizer said so".
//!
//! * [`lint`] — one workspace lint pass built on a handwritten Rust lexer
//!   ([`lexer`]) and skeleton parser ([`parse`]); each file is parsed
//!   once and every rule reads that parse through a per-crate call
//!   graph. Three rules check what no per-file lint can: every path to a
//!   session mutator in the gateway passes a journal append first, lock
//!   acquisition order is globally consistent, and no hash-map iteration
//!   feeds an order-sensitive result in the deterministic crates. Run it
//!   with `cargo run -p wimesh-check -- lint --workspace`. Token-level
//!   discipline (no `unsafe`, no unwrap in library code, no printing, no
//!   wall clock in model code, reasoned suppressions) is rustc's and
//!   clippy's, configured in the root manifest's `[workspace.lints]`.
//! * [`certify`] — a deliberately-simple re-verification of every schedule
//!   the admission controller emits: conflict-freedom slot by slot, demand
//!   satisfaction, per-flow delay bounds re-derived hop by hop, guard-time
//!   sufficiency against the drift model, and a from-scratch Bellman–Ford
//!   cross-check of the makespan. It shares no code with `crates/tdma`, so
//!   the optimised solver and the oracle can only agree by both being
//!   right. `wimesh` calls it behind the `checked` cargo feature on every
//!   session admit/release/rebalance, and the integration suites gate on
//!   it unconditionally.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

mod analyze;
mod callgraph;
pub mod certify;
pub mod error;
pub mod lexer;
pub mod lint;
pub mod parse;

pub use certify::{
    CertParams, Certificate, CertificateReport, CertifyError, DriftModel, FlowRequirement,
    Violation,
};
pub use error::CheckError;
pub use lint::{
    lint_crate, lint_workspace, AllowDirective, Diagnostic, LintConfig, LintReport, Rule,
};
