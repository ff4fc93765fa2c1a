//! `deterministic-iteration`: iterating a `HashMap`/`HashSet` yields a
//! different order every process run (`RandomState` seeding), so any such
//! iteration whose order can reach solver branching, slot assignment or a
//! serialised artefact breaks the workspace's bit-for-bit reproducibility
//! guarantees. In the deterministic crates this rule flags:
//!
//! * `for .. in <hash binding>` loops — the body runs in random order;
//! * iterator-method chains rooted at a hash binding (`.iter()`,
//!   `.keys()`, …) **unless** the chain terminates in an order-insensitive
//!   reduction (`count`, `sum`, `min`/`max`, `all`/`any`, …) or collects
//!   into an order-free container (a `BTree*`/`Hash*` turbofish).
//!
//! Hash-typed bindings are recognised per file from type ascriptions and
//! `HashMap::new()`-style initialisers; lookups (`get`, `insert`,
//! `contains_key`) never iterate and are untouched.

use crate::lint::{push, CrateAst, Diagnostic, LintConfig, Rule};
use crate::parse::{ident, match_brace, punct, skip_angles, Callee, EventKind, FileAst};

/// Iterator sources on hash containers.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
];

/// Chain terminals whose result does not depend on visit order. (`sum`
/// over floats is technically order-sensitive, but the workspace keeps
/// money-critical accumulations integral; see DESIGN §3.10.)
const ORDER_FREE_TERMINALS: &[&str] = &[
    "count",
    "len",
    "sum",
    "product",
    "min",
    "max",
    "min_by",
    "min_by_key",
    "max_by",
    "max_by_key",
    "all",
    "any",
    "contains",
    "is_empty",
];

pub(crate) fn check(krate: &CrateAst, config: &LintConfig, out: &mut Vec<Diagnostic>) {
    if !config.deterministic_order.contains(&krate.name) {
        return;
    }
    for file in &krate.files {
        if file.hash_names.is_empty() {
            continue;
        }
        for f in &file.fns {
            for e in &f.events {
                match &e.kind {
                    EventKind::ForIter { name } if file.hash_names.contains(name) => {
                        push(
                            out,
                            Rule::DeterministicIteration,
                            file,
                            e.line,
                            format!(
                                "for-loop over hash container `{name}`; iteration order \
                                 is random per process — use a BTree container or sort \
                                 first"
                            ),
                        );
                    }
                    EventKind::Call(Callee::Method { name, recv })
                        if ITER_METHODS.contains(&name.as_str())
                            && recv.last().is_some_and(|r| file.hash_names.contains(r)) =>
                    {
                        if chain_is_order_insensitive(file, e.tok) {
                            continue;
                        }
                        push(
                            out,
                            Rule::DeterministicIteration,
                            file,
                            e.line,
                            format!(
                                ".{name}() on hash container `{}` feeds an \
                                 order-sensitive result; use a BTree container, sort, \
                                 or finish with an order-free reduction",
                                recv.last().map_or("?", String::as_str)
                            ),
                        );
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Walks the method chain starting at the iterator call's name token and
/// decides whether its terminal operation is order-insensitive.
fn chain_is_order_insensitive(file: &FileAst, mut idx: usize) -> bool {
    let tokens = &file.tokens;
    loop {
        let Some(name) = ident(tokens, idx) else {
            return false;
        };
        // Optional turbofish, then the argument list.
        let mut j = idx + 1;
        let mut turbofish = (j, j);
        if punct(tokens, j, ':') && punct(tokens, j + 1, ':') && punct(tokens, j + 2, '<') {
            let end = skip_angles(tokens, j + 2);
            turbofish = (j + 2, end);
            j = end;
        }
        if !punct(tokens, j, '(') {
            return false;
        }
        let close = match_brace(tokens, j);
        // Chain continues?
        if punct(tokens, close + 1, '.') && ident(tokens, close + 2).is_some() {
            idx = close + 2;
            continue;
        }
        // `name` is the terminal operation.
        if ORDER_FREE_TERMINALS.contains(&name) {
            return true;
        }
        if name == "collect" {
            let (lo, hi) = turbofish;
            for k in lo..hi {
                if let Some(ty) = ident(tokens, k) {
                    if ty.starts_with("BTree") || ty.starts_with("Hash") {
                        return true;
                    }
                }
            }
        }
        return false;
    }
}
