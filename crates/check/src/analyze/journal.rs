//! `journal-precedes-mutation`: every call-graph path that reaches a raw
//! session mutator must pass through a write-ahead journal append first.
//!
//! This is the property the recovery proof needs: at every mutator call
//! site, either an append happens earlier in the same body, or **every**
//! caller chain that can reach the site performs an append before the
//! call. Deleting the append fires at the exact mutator line no matter
//! which file it lives in.
//!
//! "Earlier in the same body" counts calls to functions that append
//! transitively (`self.journal(..)` wrapping `w.append(..)`): that call
//! really does run first. Climbing to callers counts only a direct
//! append. Events are in source order, not execution order, so in a
//! caller that dispatches on a request (`Admit => admit_flows(..)`,
//! `Release => release_flow(..)`) an earlier match arm that appends
//! transitively never runs before the later arm's call; accepting it
//! would let the first arm guard every later one.

use std::collections::{BTreeSet, VecDeque};

use crate::callgraph::{CallGraph, FnId};
use crate::lint::{push, CrateAst, Diagnostic, LintConfig, Rule};
use crate::parse::{Event, EventKind};

pub(crate) fn check(
    krate: &CrateAst,
    graph: &CallGraph<'_>,
    config: &LintConfig,
    out: &mut Vec<Diagnostic>,
) {
    if !config.journaled.contains(&krate.name) {
        return;
    }
    let append_names: Vec<&str> = config.journal_appends.iter().map(String::as_str).collect();
    // Functions that (transitively) perform a journal append somewhere in
    // their body: calling one of these counts as appending.
    let appending = graph.transitive_callers_of_names(&append_names);

    let is_direct_append =
        |e: &Event| matches!(&e.kind, EventKind::Call(c) if append_names.contains(&c.name()));
    let is_append = |e: &Event| -> bool {
        is_direct_append(e) || graph.resolve(e).iter().any(|t| appending.contains(t))
    };

    for id in graph.all_fns() {
        let def = graph.def(id);
        for (mi, event) in def.events.iter().enumerate() {
            let EventKind::Call(callee) = &event.kind else {
                continue;
            };
            let name = callee.name();
            if !config.mutators.iter().any(|m| m == name) {
                continue;
            }
            // Guarded directly: an append strictly earlier in this body.
            if def.events[..mi].iter().any(is_append) {
                continue;
            }
            // Otherwise climb the inverse call graph: every caller chain
            // must append before the call site that leads here.
            if let Some(entry) = unguarded_entry(graph, id, &is_direct_append) {
                let entry_desc = if entry == id {
                    format!("`{}`", def.name)
                } else {
                    format!("`{}` via `{}`", graph.def(entry).name, def.name)
                };
                push(
                    out,
                    Rule::JournalPrecedesMutation,
                    graph.file(id),
                    event.line,
                    format!(
                        ".{name}() reachable from {entry_desc} without a prior journal \
                         append; the mutation escapes crash recovery"
                    ),
                );
            }
        }
    }
}

/// Walks callers of `id` breadth-first. A caller chain is guarded when an
/// append event precedes the call site in the caller's body. Returns the
/// first function with an unguarded path and no further callers (a crate
/// entry point), or `None` when every path is guarded.
fn unguarded_entry(
    graph: &CallGraph<'_>,
    id: FnId,
    is_append: &dyn Fn(&Event) -> bool,
) -> Option<FnId> {
    let mut visited = BTreeSet::new();
    let mut queue = VecDeque::new();
    visited.insert(id);
    queue.push_back(id);
    while let Some(f) = queue.pop_front() {
        let callers = graph.callers(f);
        if callers.is_empty() {
            // Unguarded all the way up to a function nothing in the crate
            // calls: an entry point (public API, spawn closure, CLI).
            return Some(f);
        }
        for (caller, ei) in callers {
            let cdef = graph.def(*caller);
            if cdef.events[..*ei].iter().any(is_append) {
                continue; // this chain appends before calling down
            }
            if visited.insert(*caller) {
                queue.push_back(*caller);
            }
        }
    }
    None
}
