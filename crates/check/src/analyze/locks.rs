//! `lock-order-consistency`: mutex acquisition order must be globally
//! consistent within a crate — if lock `a` is ever held while taking `b`
//! AND `b` is ever held while taking `a`, two threads interleaving those
//! paths deadlock. Cycles are reported at every participating edge so
//! both sites surface, and re-locking a mutex already held (a guaranteed
//! self-deadlock with `std::sync::Mutex`) is flagged directly.
//!
//! Acquisitions are `.lock()` / `.try_lock()` events keyed by the mutex
//! field name (`RwLock` `.read()` / `.write()` are not tracked); a guard
//! is modelled as held until its enclosing block closes. Two indirections
//! are resolved: calls to `lock_*` helper functions that return a guard
//! count as acquisitions at the call site, and calling a function that
//! itself locks (one call level deep) while holding a guard contributes
//! an ordering edge.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use crate::callgraph::{CallGraph, FnId};
use crate::lint::{push, Diagnostic, Rule};
use crate::parse::{guard_scope_end, EventKind};

/// One acquisition inside a function body: a direct lock event or a call
/// to a guard-returning `lock_*` helper.
struct Acq {
    key: String,
    line: u32,
    tok: usize,
    scope_end: usize,
}

pub(crate) fn check(graph: &CallGraph<'_>, out: &mut Vec<Diagnostic>) {
    // Guard-returning helpers: `lock`-prefixed functions containing
    // exactly one lock event. A call to one is an acquisition that
    // outlives the helper's own body.
    let mut helper_keys: BTreeMap<&str, &str> = BTreeMap::new();
    for id in graph.all_fns() {
        let def = graph.def(id);
        if !def.name.starts_with("lock") {
            continue;
        }
        let keys: Vec<&str> = def
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Lock { key, .. } => Some(key.as_str()),
                _ => None,
            })
            .collect();
        if let [key] = keys.as_slice() {
            helper_keys.insert(def.name.as_str(), key);
        }
    }

    // Lock keys acquired inside a function, one call level deep — used
    // for "calls f while holding g" edges.
    let mut inner_keys: BTreeMap<FnId, BTreeSet<&str>> = BTreeMap::new();
    for id in graph.all_fns() {
        let mut keys = direct_keys(graph, id);
        for callee in graph.callees(id) {
            keys.extend(direct_keys(graph, callee));
        }
        inner_keys.insert(id, keys);
    }

    // Ordering edges `held → taken`, first witness site of each.
    let mut edges: BTreeMap<(String, String), (PathBuf, u32)> = BTreeMap::new();
    for id in graph.all_fns() {
        let def = graph.def(id);
        let file = graph.file(id);
        let mut acqs: Vec<Acq> = Vec::new();
        for e in &def.events {
            match &e.kind {
                EventKind::Lock { key, scope_end } => acqs.push(Acq {
                    key: key.clone(),
                    line: e.line,
                    tok: e.tok,
                    scope_end: *scope_end,
                }),
                EventKind::Call(c) => {
                    if let Some(key) = helper_keys.get(c.name()) {
                        acqs.push(Acq {
                            key: (*key).to_string(),
                            line: e.line,
                            tok: e.tok,
                            scope_end: guard_scope_end(&file.tokens, e.tok),
                        });
                    }
                }
                _ => {}
            }
        }
        for (i, held) in acqs.iter().enumerate() {
            // Another acquisition inside this guard's scope.
            for taken in &acqs[i + 1..] {
                if taken.tok >= held.scope_end {
                    continue;
                }
                if taken.key == held.key {
                    push(
                        out,
                        Rule::LockOrderConsistency,
                        file,
                        taken.line,
                        format!(
                            "`{}` locked while already held (acquired on line {}); \
                             std::sync::Mutex self-deadlocks on re-entry",
                            taken.key, held.line
                        ),
                    );
                } else {
                    edges
                        .entry((held.key.clone(), taken.key.clone()))
                        .or_insert_with(|| (file.path.clone(), taken.line));
                }
            }
            // A call made inside this guard's scope to a function that
            // locks something else.
            for e in &def.events {
                if e.tok <= held.tok || e.tok >= held.scope_end {
                    continue;
                }
                let EventKind::Call(_) = &e.kind else {
                    continue;
                };
                for callee in graph.resolve(e) {
                    for key in inner_keys.get(&callee).into_iter().flatten() {
                        if *key != held.key {
                            edges
                                .entry((held.key.clone(), (*key).to_string()))
                                .or_insert_with(|| (file.path.clone(), e.line));
                        }
                    }
                }
            }
        }
    }

    // Any edge whose reverse direction is also reachable sits on a cycle.
    let reach = transitive_closure(&edges);
    for ((held, taken), (path, line)) in &edges {
        let reverse_reaches = reach
            .get(taken.as_str())
            .is_some_and(|set| set.contains(held.as_str()));
        if !reverse_reaches {
            continue;
        }
        let other = edges
            .get(&(taken.clone(), held.clone()))
            .map(|(p, l)| format!(" (reverse order at {}:{})", p.display(), l))
            .unwrap_or_else(|| format!(" (a reverse path from `{taken}` to `{held}` exists)"));
        out.push(Diagnostic {
            rule: Rule::LockOrderConsistency,
            path: path.clone(),
            line: *line,
            message: format!(
                "`{taken}` acquired while holding `{held}`, but the opposite order also \
                 occurs{other}; two threads interleaving these paths deadlock"
            ),
        });
    }
}

fn direct_keys<'a>(graph: &CallGraph<'a>, id: FnId) -> BTreeSet<&'a str> {
    graph
        .def(id)
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Lock { key, .. } => Some(key.as_str()),
            _ => None,
        })
        .collect()
}

/// Key → every key reachable from it through the ordering edges.
fn transitive_closure(
    edges: &BTreeMap<(String, String), (PathBuf, u32)>,
) -> BTreeMap<&str, BTreeSet<&str>> {
    let mut direct: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (held, taken) in edges.keys() {
        direct
            .entry(held.as_str())
            .or_default()
            .insert(taken.as_str());
    }
    let mut reach = direct.clone();
    loop {
        let mut grew = false;
        let snapshot: Vec<(&str, Vec<&str>)> = reach
            .iter()
            .map(|(k, v)| (*k, v.iter().copied().collect()))
            .collect();
        for (from, mids) in snapshot {
            for mid in mids {
                if let Some(next) = direct.get(mid) {
                    let entry = reach.entry(from).or_default();
                    for n in next {
                        grew |= entry.insert(n);
                    }
                }
            }
        }
        if !grew {
            return reach;
        }
    }
}
