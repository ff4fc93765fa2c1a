//! The three call-graph rules of the lint pass.
//!
//! Each reads the function skeletons of a whole crate ([`crate::parse`])
//! through a per-crate call graph (the private `callgraph` module) —
//! properties no per-file token lint, rustc's or clippy's included, can
//! decide:
//!
//! * `journal-precedes-mutation` — every call-graph path reaching a raw
//!   session mutator in a journaled crate passes a journal append first.
//! * `lock-order-consistency` — lock acquisition order is globally
//!   consistent; cycles are reported with both sites.
//! * `deterministic-iteration` — no `HashMap`/`HashSet` iteration feeds
//!   an order-sensitive result in deterministic crates.

mod determinism;
mod journal;
mod locks;

use crate::callgraph::CallGraph;
use crate::lint::{CrateAst, Diagnostic, LintConfig};

/// Runs the three call-graph rules over one parsed crate.
pub(crate) fn check(krate: &CrateAst, config: &LintConfig, out: &mut Vec<Diagnostic>) {
    let graph = CallGraph::build(&krate.files);
    journal::check(krate, &graph, config, out);
    locks::check(&graph, out);
    determinism::check(krate, config, out);
}
