//! Causal cross-node tracing: contexts carried on fabric messages,
//! trace events, JSONL round-tripping and tree reconstruction.
//!
//! A [`TraceCtx`] travels with every distributed control-plane message.
//! The sender mints a fresh span id per transmission; a message caused
//! by an earlier one (a beacon relay, a DSCH grant answering a request)
//! carries the earlier span as `parent_span`, so one beacon flood, one
//! MSH-DSCH three-way handshake or one failure-repair sequence becomes
//! one tree rooted at the originating transmission. Lamport clocks give
//! a defensible partial order even when the per-node `DriftClock`s
//! disagree about wall time: every edge of the tree is guaranteed
//! `parent.lamport < child.lamport`, while sibling order is merely a
//! deterministic tie-break.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Object;
use crate::reader::{Cursor, JsonlReader};

/// Causal context attached to one distributed message.
///
/// `parent_span == 0` marks a root: the message that started its trace
/// (`trace_id == span_id` in that case). Span ids are minted from a
/// per-process counter namespaced by the run seed, so ids never collide
/// across concurrently traced runtimes in one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceCtx {
    /// Identifier shared by every message in one causal tree.
    pub trace_id: u64,
    /// This message's own span id (unique per process run).
    pub span_id: u64,
    /// Span id of the message that caused this one; `0` for roots.
    pub parent_span: u64,
    /// Sender's Lamport clock at transmission time.
    pub lamport: u64,
}

impl TraceCtx {
    /// A root context: starts a new trace named after its own span.
    pub fn root(span_id: u64, lamport: u64) -> Self {
        TraceCtx {
            trace_id: span_id,
            span_id,
            parent_span: 0,
            lamport,
        }
    }

    /// A child context: same trace, parented on `self`.
    pub fn child(&self, span_id: u64, lamport: u64) -> Self {
        TraceCtx {
            trace_id: self.trace_id,
            span_id,
            parent_span: self.span_id,
            lamport,
        }
    }

    /// Whether this context starts its trace.
    pub fn is_root(&self) -> bool {
        self.parent_span == 0
    }
}

/// One emitted trace event: a context plus what/where/when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The causal context carried by the message.
    pub ctx: TraceCtx,
    /// Event kind, e.g. `"beacon"`, `"dsch.req"`, `"node.down"`.
    pub kind: &'static str,
    /// Raw id of the node that sent the message.
    pub node: u64,
    /// Virtual send time in nanoseconds since simulation start.
    pub t_ns: u64,
}

impl TraceEvent {
    /// Renders the event as one JSONL line (no trailing newline),
    /// exactly the shape [`crate::sink::JsonlSink`] writes.
    pub fn to_jsonl(&self) -> String {
        let mut line = String::with_capacity(128);
        Object::record(&mut line, "trace")
            .int("trace", self.ctx.trace_id)
            .int("span", self.ctx.span_id)
            .int("parent", self.ctx.parent_span)
            .int("lamport", self.ctx.lamport)
            .str("kind", self.kind)
            .int("node", self.node)
            .int("t_ns", self.t_ns);
        line
    }
}

/// Emits a trace event to the installed sink (no-op while disabled).
#[inline]
pub fn emit(event: &TraceEvent) {
    if !crate::is_enabled() {
        return;
    }
    crate::with_sink(|s| s.on_trace(event));
}

/// A trace event parsed back from JSONL (owned `kind`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// The causal context carried by the message.
    pub ctx: TraceCtx,
    /// Event kind.
    pub kind: String,
    /// Raw id of the sending node.
    pub node: u64,
    /// Virtual send time in nanoseconds.
    pub t_ns: u64,
}

impl TraceRecord {
    /// Parses one JSONL line of the `{"t":"trace",...}` shape, as
    /// [`TraceEvent::to_jsonl`] writes it.
    ///
    /// Returns `None` for lines of any other type (or malformed ones:
    /// anything the [`Cursor`] rejects), so callers can feed a mixed
    /// JSONL stream straight through.
    pub fn parse_jsonl(line: &str) -> Option<TraceRecord> {
        let mut fields = Cursor::new(line).ok()?;
        if fields.tag().ok()? != "trace" {
            return None;
        }
        let record = TraceRecord {
            ctx: TraceCtx {
                trace_id: fields.u64("trace").ok()?,
                span_id: fields.u64("span").ok()?,
                parent_span: fields.u64("parent").ok()?,
                lamport: fields.u64("lamport").ok()?,
            },
            kind: fields.str("kind").ok()?.into_owned(),
            node: fields.u64("node").ok()?,
            t_ns: fields.u64("t_ns").ok()?,
        };
        fields.end().ok()?;
        Some(record)
    }
}

impl From<&TraceEvent> for TraceRecord {
    fn from(e: &TraceEvent) -> Self {
        TraceRecord {
            ctx: e.ctx,
            kind: e.kind.to_string(),
            node: e.node,
            t_ns: e.t_ns,
        }
    }
}

/// A forest of reconstructed traces, grouped by `trace_id`.
///
/// Within a trace, records are kept sorted by `(lamport, span_id)`: the
/// Lamport component is the defensible causal order (every parent sorts
/// before its children), the span id a deterministic tie-break between
/// concurrent events.
#[derive(Debug, Clone, Default)]
pub struct TraceForest {
    traces: BTreeMap<u64, Vec<TraceRecord>>,
}

impl TraceForest {
    /// Builds a forest from parsed records.
    pub fn from_records(records: impl IntoIterator<Item = TraceRecord>) -> Self {
        let mut traces: BTreeMap<u64, Vec<TraceRecord>> = BTreeMap::new();
        for r in records {
            traces.entry(r.ctx.trace_id).or_default().push(r);
        }
        for list in traces.values_mut() {
            list.sort_by_key(|r| (r.ctx.lamport, r.ctx.span_id));
        }
        TraceForest { traces }
    }

    /// Builds a forest from in-memory events (e.g. a
    /// [`crate::sink::MemorySink`] capture).
    pub fn from_events(events: &[TraceEvent]) -> Self {
        Self::from_records(events.iter().map(TraceRecord::from))
    }

    /// Builds a forest from a mixed JSONL stream, ignoring every line
    /// that is not a trace record.
    pub fn from_jsonl(text: &str) -> Self {
        Self::from_records(JsonlReader::new(text).filter_map(|l| TraceRecord::parse_jsonl(l.raw)))
    }

    /// Number of distinct traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether the forest holds no traces at all.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Records of one trace, sorted by `(lamport, span_id)`.
    pub fn records(&self, trace_id: u64) -> &[TraceRecord] {
        self.traces.get(&trace_id).map_or(&[], Vec::as_slice)
    }

    /// Distinct sending nodes appearing in one trace.
    pub fn trace_nodes(&self, trace_id: u64) -> usize {
        let mut nodes: Vec<u64> = self.records(trace_id).iter().map(|r| r.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    }

    /// Finds a root-to-descendant chain whose event kinds contain the
    /// given needles in order along consecutive parent→child edges, and
    /// returns the records along the first such chain (by trace id,
    /// then causal order). `None` if no trace contains one.
    pub fn find_chain(&self, needles: &[&str]) -> Option<Vec<TraceRecord>> {
        if needles.is_empty() {
            return None;
        }
        for records in self.traces.values() {
            // parent span -> indices of its children, in causal order.
            let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
            for (i, r) in records.iter().enumerate() {
                children.entry(r.ctx.parent_span).or_default().push(i);
            }
            for (start, r) in records.iter().enumerate() {
                if !r.kind.contains(needles[0]) {
                    continue;
                }
                let mut path = vec![start];
                if extend_chain(records, &children, &mut path, needles, 1) {
                    return Some(path.iter().map(|&i| records[i].clone()).collect());
                }
            }
        }
        None
    }

    /// Whether any trace contains the given parent→child kind chain.
    pub fn contains_chain(&self, needles: &[&str]) -> bool {
        self.find_chain(needles).is_some()
    }

    /// Renders every trace as an ASCII tree.
    pub fn render(&self) -> String {
        self.render_limited(usize::MAX)
    }

    /// Renders at most `max_traces` traces (ascending trace id), noting
    /// how many were omitted.
    pub fn render_limited(&self, max_traces: usize) -> String {
        let mut out = String::new();
        for (&id, records) in self.traces.iter().take(max_traces) {
            let _ = writeln!(out, "trace {id} \u{b7} {} event(s)", records.len());
            // parent span -> child indices; roots are events whose
            // parent is absent from the capture (includes parent 0).
            let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
            let mut present: Vec<u64> = records.iter().map(|r| r.ctx.span_id).collect();
            present.sort_unstable();
            for (i, r) in records.iter().enumerate() {
                let parent = if present.binary_search(&r.ctx.parent_span).is_ok() {
                    r.ctx.parent_span
                } else {
                    0 // orphan: render at the top level
                };
                children.entry(parent).or_default().push(i);
            }
            let roots = children.get(&0).cloned().unwrap_or_default();
            let mut prefix = String::new();
            for (pos, &root) in roots.iter().enumerate() {
                render_node(
                    &mut out,
                    records,
                    &children,
                    root,
                    &mut prefix,
                    pos + 1 == roots.len(),
                );
            }
        }
        if self.traces.len() > max_traces {
            let _ = writeln!(
                out,
                "... {} more trace(s) omitted",
                self.traces.len() - max_traces
            );
        }
        out
    }
}

/// Depth-first search continuing a kind chain along child edges.
fn extend_chain(
    records: &[TraceRecord],
    children: &BTreeMap<u64, Vec<usize>>,
    path: &mut Vec<usize>,
    needles: &[&str],
    next: usize,
) -> bool {
    if next == needles.len() {
        return true;
    }
    let span = records[path[path.len() - 1]].ctx.span_id;
    if let Some(kids) = children.get(&span) {
        for &k in kids {
            if records[k].kind.contains(needles[next]) {
                path.push(k);
                if extend_chain(records, children, path, needles, next + 1) {
                    return true;
                }
                path.pop();
            }
        }
    }
    false
}

/// Renders one tree node and its subtree with box-drawing guides.
fn render_node(
    out: &mut String,
    records: &[TraceRecord],
    children: &BTreeMap<u64, Vec<usize>>,
    index: usize,
    prefix: &mut String,
    last: bool,
) {
    let r = &records[index];
    let _ = writeln!(
        out,
        "{prefix}{}{} n{} L{} t={}ns span={}",
        if last {
            "\u{2514}\u{2500} "
        } else {
            "\u{251c}\u{2500} "
        },
        r.kind,
        r.node,
        r.ctx.lamport,
        r.t_ns,
        r.ctx.span_id,
    );
    let kids = children.get(&r.ctx.span_id).cloned().unwrap_or_default();
    let saved = prefix.len();
    prefix.push_str(if last { "   " } else { "\u{2502}  " });
    for (pos, &k) in kids.iter().enumerate() {
        render_node(out, records, children, k, prefix, pos + 1 == kids.len());
    }
    prefix.truncate(saved);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ctx: TraceCtx, kind: &'static str, node: u64, t_ns: u64) -> TraceEvent {
        TraceEvent {
            ctx,
            kind,
            node,
            t_ns,
        }
    }

    #[test]
    fn ctx_root_and_child_link_correctly() {
        let root = TraceCtx::root(10, 1);
        assert!(root.is_root());
        assert_eq!(root.trace_id, 10);
        let child = root.child(11, 2);
        assert!(!child.is_root());
        assert_eq!(child.trace_id, 10);
        assert_eq!(child.parent_span, 10);
        let grand = child.child(12, 3);
        assert_eq!(grand.trace_id, 10);
        assert_eq!(grand.parent_span, 11);
    }

    #[test]
    fn jsonl_roundtrip_preserves_every_field() {
        let event = ev(
            TraceCtx::root(7, 3).child(8, 4),
            "dsch.req+grant",
            5,
            120_000,
        );
        let line = event.to_jsonl();
        let parsed = TraceRecord::parse_jsonl(&line).expect("line parses");
        assert_eq!(parsed, TraceRecord::from(&event));
        // Non-trace lines are ignored, not errors.
        assert!(
            TraceRecord::parse_jsonl("{\"t\":\"counter\",\"name\":\"x\",\"value\":1}").is_none()
        );
        assert!(TraceRecord::parse_jsonl("not json at all").is_none());
    }

    #[test]
    fn lines_that_are_not_one_flat_object_are_skipped() {
        let line = ev(TraceCtx::root(7, 3), "beacon", 5, 9).to_jsonl();
        assert!(TraceRecord::parse_jsonl(&line).is_some());
        let inner = &line[1..line.len() - 1];
        for bad in [
            format!("garbage {inner} trailing"),          // no braces
            format!("{{{inner}"),                         // never closed
            format!("{line} x"),                          // bytes after `}`
            format!("{{{inner},\"span\":8}}"),            // duplicate key
            format!("{{{inner},\"why\":\"cut}}"),         // unterminated string
            format!("{{{inner},\"ctx\":{{\"a\":1}}}}"),   // nested value
            line.replace("\"node\":5", "\"node\":\"5\""), // wrong type
            line.replace("\"node\":5,", ""),              // missing field
        ] {
            assert!(TraceRecord::parse_jsonl(&bad).is_none(), "parsed {bad:?}");
        }
    }

    #[test]
    fn forest_reconstructs_tree_and_orders_by_lamport() {
        let root = TraceCtx::root(1, 1);
        let a = root.child(2, 5);
        let b = root.child(3, 2);
        // Delivered out of order on purpose.
        let forest = TraceForest::from_events(&[
            ev(a, "beacon", 2, 300),
            ev(root, "beacon", 0, 0),
            ev(b, "beacon", 1, 100),
        ]);
        assert_eq!(forest.len(), 1);
        let records = forest.records(1);
        assert_eq!(records[0].ctx.span_id, 1); // root sorts first (lamport 1)
        assert_eq!(records[1].ctx.span_id, 3); // lamport 2
        assert_eq!(records[2].ctx.span_id, 2); // lamport 5
        assert_eq!(forest.trace_nodes(1), 3);
        let text = forest.render();
        assert!(text.contains("trace 1"));
        assert!(text.contains("beacon n0"));
        assert!(text.contains("beacon n2"));
    }

    #[test]
    fn chain_matching_follows_parent_child_edges_only() {
        let req = TraceCtx::root(1, 1);
        let grant = req.child(2, 2);
        let cnf = grant.child(3, 3);
        let stray = TraceCtx::root(9, 1); // a confirm in another trace
        let forest = TraceForest::from_events(&[
            ev(req, "dsch.req", 4, 0),
            ev(grant, "dsch.grant", 0, 100),
            ev(cnf, "dsch.req+cnf", 4, 200),
            ev(stray, "dsch.cnf", 7, 50),
        ]);
        let chain = forest
            .find_chain(&["req", "grant", "cnf"])
            .expect("handshake present");
        assert_eq!(chain.len(), 3);
        assert_eq!(chain[0].node, 4);
        assert_eq!(chain[1].node, 0);
        // No confirm has a grant child, and the stray confirm is in
        // another trace entirely: no such chain.
        assert!(!forest.contains_chain(&["cnf", "grant"]));
        assert!(!forest.contains_chain(&[]));
    }

    #[test]
    fn render_limited_notes_omissions_and_orphans_surface() {
        let t1 = TraceCtx::root(1, 1);
        // Orphan: parent span 99 never captured.
        let orphan = TraceCtx {
            trace_id: 2,
            span_id: 5,
            parent_span: 99,
            lamport: 4,
        };
        let forest =
            TraceForest::from_events(&[ev(t1, "beacon", 0, 0), ev(orphan, "dsch.req", 3, 10)]);
        let text = forest.render_limited(1);
        assert!(text.contains("trace 1"));
        assert!(text.contains("1 more trace(s) omitted"));
        let full = forest.render();
        assert!(full.contains("dsch.req n3")); // orphan rendered at top level
    }
}
