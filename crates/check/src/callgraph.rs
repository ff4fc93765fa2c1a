//! A name-resolved call graph over parsed crate skeletons.
//!
//! Resolution is deliberately conservative and name-based: a call event
//! `x.foo(..)` or `a::b::foo(..)` resolves to **every** function named
//! `foo` in the resolution scope (one crate). Over-approximation is the
//! safe direction for the rules built on top (a false edge can only add
//! findings, which a reasoned allow can then document), and names that
//! resolve to nothing — `std`, other crates, trait methods from vendored
//! stand-ins — simply contribute no edges.

use std::collections::{BTreeMap, BTreeSet};

use crate::parse::{Callee, Event, EventKind, FileAst, FnDef};

/// A function's position inside a crate's file list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FnId {
    /// Index into the crate's `files`.
    pub file: usize,
    /// Index into that file's `fns`.
    pub func: usize,
}

/// Call graph over one crate's parsed files.
pub struct CallGraph<'a> {
    files: &'a [FileAst],
    /// Function name → every definition with that name.
    by_name: BTreeMap<&'a str, Vec<FnId>>,
    /// Caller → callees (deduplicated).
    edges: BTreeMap<FnId, BTreeSet<FnId>>,
    /// Callee → callers, with the call-site event index in the caller.
    redges: BTreeMap<FnId, Vec<(FnId, usize)>>,
}

impl<'a> CallGraph<'a> {
    /// Builds the graph for one crate: every call event whose name matches
    /// a function defined in the crate becomes an edge.
    pub fn build(files: &'a [FileAst]) -> CallGraph<'a> {
        let mut by_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                by_name
                    .entry(f.name.as_str())
                    .or_default()
                    .push(FnId { file: fi, func: gi });
            }
        }
        let mut graph = CallGraph {
            files,
            by_name,
            edges: BTreeMap::new(),
            redges: BTreeMap::new(),
        };
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                let caller = FnId { file: fi, func: gi };
                for (ei, event) in f.events.iter().enumerate() {
                    for callee in graph.resolve(event) {
                        graph.edges.entry(caller).or_default().insert(callee);
                        graph.redges.entry(callee).or_default().push((caller, ei));
                    }
                }
            }
        }
        graph
    }

    /// The function definition behind an id.
    pub fn def(&self, id: FnId) -> &'a FnDef {
        &self.files[id.file].fns[id.func]
    }

    /// The file a function lives in.
    pub fn file(&self, id: FnId) -> &'a FileAst {
        &self.files[id.file]
    }

    /// Every function id in the crate, in file order.
    pub fn all_fns(&self) -> Vec<FnId> {
        let mut out = Vec::new();
        for (fi, file) in self.files.iter().enumerate() {
            for gi in 0..file.fns.len() {
                out.push(FnId { file: fi, func: gi });
            }
        }
        out
    }

    /// Resolves a call event to same-crate definitions. Non-call events
    /// and names defined nowhere in the crate resolve to nothing.
    pub fn resolve(&self, event: &Event) -> Vec<FnId> {
        let EventKind::Call(callee) = &event.kind else {
            return Vec::new();
        };
        let name = match callee {
            Callee::Method { name, .. } => name.as_str(),
            Callee::Path { segments } => match segments.last() {
                Some(last) => last.as_str(),
                None => return Vec::new(),
            },
            // Macro bodies are opaque; macros do not create edges.
            Callee::Macro { .. } => return Vec::new(),
        };
        let candidates = match self.by_name.get(name) {
            Some(c) => c,
            None => return Vec::new(),
        };
        // Method-call syntax can only invoke inherent or trait methods,
        // never a free function that happens to share the name — so
        // `guard.clear()` does not resolve to a free `fn clear()`.
        if matches!(callee, Callee::Method { .. }) {
            return candidates
                .iter()
                .copied()
                .filter(|id| self.def(*id).self_ty.is_some())
                .collect();
        }
        // A path call qualified by a type (`Foo::bar(..)`) narrows to
        // definitions on that self type when any exist.
        if let Callee::Path { segments } = callee {
            if segments.len() >= 2 {
                let qualifier = &segments[segments.len() - 2];
                let narrowed: Vec<FnId> = candidates
                    .iter()
                    .copied()
                    .filter(|id| self.def(*id).self_ty.as_deref() == Some(qualifier.as_str()))
                    .collect();
                if !narrowed.is_empty() {
                    return narrowed;
                }
            }
        }
        candidates.clone()
    }

    /// Direct callees of `id`.
    pub fn callees(&self, id: FnId) -> impl Iterator<Item = FnId> + '_ {
        self.edges.get(&id).into_iter().flatten().copied()
    }

    /// Direct callers of `id` with the call-site event index.
    pub fn callers(&self, id: FnId) -> &[(FnId, usize)] {
        self.redges.get(&id).map_or(&[], Vec::as_slice)
    }

    /// Fixpoint of "functions that call one of `names`, directly or
    /// through other functions in the set". Used for "does a journal
    /// append happen inside this call" style queries.
    pub fn transitive_callers_of_names(&self, names: &[&str]) -> BTreeSet<FnId> {
        let mut set: BTreeSet<FnId> = BTreeSet::new();
        loop {
            let mut grew = false;
            for id in self.all_fns() {
                if set.contains(&id) {
                    continue;
                }
                let hits = self.def(id).events.iter().any(|e| match &e.kind {
                    EventKind::Call(c) => {
                        names.contains(&c.name()) || self.resolve(e).iter().any(|t| set.contains(t))
                    }
                    _ => false,
                });
                if hits {
                    set.insert(id);
                    grew = true;
                }
            }
            if !grew {
                return set;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn files(srcs: &[&str]) -> Vec<FileAst> {
        srcs.iter()
            .enumerate()
            .map(|(i, s)| FileAst::parse(Path::new(&format!("f{i}.rs")), s))
            .collect()
    }

    fn id_of(graph: &CallGraph<'_>, name: &str) -> FnId {
        graph
            .all_fns()
            .into_iter()
            .find(|&id| graph.def(id).name == name)
            .unwrap_or_else(|| panic!("no fn {name}"))
    }

    #[test]
    fn edges_and_reachability() {
        let fs = files(&[
            "pub fn a() { b(); }\npub fn b() { helper::c(); }\n",
            "pub mod helper { pub fn c() { } }\npub fn island() { }\n",
        ]);
        let g = CallGraph::build(&fs);
        let a = id_of(&g, "a");
        let b = id_of(&g, "b");
        let c = id_of(&g, "c");
        let island = id_of(&g, "island");
        // a → b → c across files; island is on no edge.
        assert_eq!(g.callees(a).collect::<Vec<_>>(), vec![b]);
        assert_eq!(g.callees(b).collect::<Vec<_>>(), vec![c]);
        assert_eq!(g.callers(c), &[(b, 0)]);
        assert!(g.callers(island).is_empty() && g.callees(island).next().is_none());
    }

    #[test]
    fn type_qualified_paths_narrow() {
        let fs = files(
            &["impl Foo { pub fn go() {} }\nimpl Bar { pub fn go() {} }\n\
             pub fn call() { Foo::go(); }"],
        );
        let g = CallGraph::build(&fs);
        let call = id_of(&g, "call");
        let targets: Vec<_> = g.callees(call).collect();
        assert_eq!(targets.len(), 1);
        assert_eq!(g.def(targets[0]).self_ty.as_deref(), Some("Foo"));
    }

    #[test]
    fn transitive_callers_of_names_fixpoint() {
        let fs = files(&["pub fn writes(w: &mut W) { w.append(1); }\n\
             pub fn wraps(w: &mut W) { writes(w); }\n\
             pub fn clean() { }"]);
        let g = CallGraph::build(&fs);
        let set = g.transitive_callers_of_names(&["append"]);
        assert!(set.contains(&id_of(&g, "writes")));
        assert!(set.contains(&id_of(&g, "wraps")));
        assert!(!set.contains(&id_of(&g, "clean")));
    }
}
