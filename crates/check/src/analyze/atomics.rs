//! `atomic-ordering-pairing`: per atomic field, `Release` stores must have
//! matching `Acquire` loads and vice versa, and a field both written and
//! read with only `Relaxed` orderings is flagged as unsynchronised
//! cross-thread publication.
//!
//! Events are grouped by receiver field name within one crate (the
//! `EpochCell.epoch` counter, a metrics gauge, a stop flag). A
//! read-modify-write counts on both sides of a pairing. Fields that are
//! only ever read, or only ever written, with `Relaxed` are skipped —
//! a monotonic stats counter nobody loads is not a publication bug.

use std::collections::BTreeMap;

use crate::lint::{Diagnostic, Rule};
use crate::parse::{AtomicEvent, AtomicOp, EventKind, FileAst};

use super::{push, CrateAst};

struct Site<'a> {
    file: &'a FileAst,
    line: u32,
    ev: &'a AtomicEvent,
}

impl Site<'_> {
    fn is_store(&self) -> bool {
        matches!(self.ev.op, AtomicOp::Store | AtomicOp::Rmw)
    }

    fn is_load(&self) -> bool {
        matches!(self.ev.op, AtomicOp::Load | AtomicOp::Rmw)
    }

    fn releases(&self) -> bool {
        self.is_store() && self.ev.orderings.iter().any(|o| o.releases())
    }

    fn acquires(&self) -> bool {
        self.is_load() && self.ev.orderings.iter().any(|o| o.acquires())
    }

    fn relaxed_only(&self) -> bool {
        self.ev
            .orderings
            .iter()
            .all(|o| !o.acquires() && !o.releases())
    }
}

pub(crate) fn check(krate: &CrateAst, out: &mut Vec<Diagnostic>) {
    // Group every atomic event in the crate by field name.
    let mut fields: BTreeMap<&str, Vec<Site<'_>>> = BTreeMap::new();
    for file in &krate.files {
        for f in &file.fns {
            for e in &f.events {
                if let EventKind::Atomic(ev) = &e.kind {
                    fields.entry(ev.field.as_str()).or_default().push(Site {
                        file,
                        line: e.line,
                        ev,
                    });
                }
            }
        }
    }

    for (field, sites) in fields {
        let has_release_store = sites.iter().any(Site::releases);
        let has_acquire_load = sites.iter().any(Site::acquires);

        if has_release_store || has_acquire_load {
            for s in &sites {
                if s.releases() && !has_acquire_load {
                    push(
                        out,
                        Rule::AtomicOrderingPairing,
                        s.file,
                        s.line,
                        format!(
                            "Release store of `{field}` has no Acquire load of the same \
                             field anywhere in the crate; nothing synchronises with it"
                        ),
                    );
                }
                if s.acquires() && !has_release_store {
                    push(
                        out,
                        Rule::AtomicOrderingPairing,
                        s.file,
                        s.line,
                        format!(
                            "Acquire load of `{field}` has no Release store of the same \
                             field anywhere in the crate; there is nothing to acquire"
                        ),
                    );
                }
                // Mixed discipline: an ordered side paired with a Relaxed
                // counterpart silently drops the happens-before edge.
                if has_release_store && s.is_load() && s.relaxed_only() {
                    push(
                        out,
                        Rule::AtomicOrderingPairing,
                        s.file,
                        s.line,
                        format!(
                            "Relaxed load of `{field}`, whose stores publish with \
                             Release; the load does not synchronise with them"
                        ),
                    );
                }
                if has_acquire_load && s.is_store() && s.relaxed_only() {
                    push(
                        out,
                        Rule::AtomicOrderingPairing,
                        s.file,
                        s.line,
                        format!(
                            "Relaxed store of `{field}`, which is read with Acquire; \
                             the store publishes nothing"
                        ),
                    );
                }
            }
            continue;
        }

        // Every ordering on this field is Relaxed. Written AND read means
        // cross-thread publication with no synchronisation at all: flag
        // once, at the first store site.
        let has_store = sites.iter().any(Site::is_store);
        let has_load = sites.iter().any(Site::is_load);
        if has_store && has_load {
            if let Some(s) = sites.iter().find(|s| s.is_store()) {
                push(
                    out,
                    Rule::AtomicOrderingPairing,
                    s.file,
                    s.line,
                    format!(
                        "`{field}` is written and read with only Relaxed orderings; \
                         cross-thread publication without synchronisation (add \
                         Release/Acquire, or allow with the reason the value \
                         tolerates staleness)"
                    ),
                );
            }
        }
    }
}
