//! The write-ahead journal: JSONL records appended *before* each
//! mutation is applied, parsed back for replay after a crash.
//!
//! # Record format
//!
//! The journal reuses the one-line JSON shape of the `wimesh-obs` sinks
//! (every line is `{"t":"<tag>",...}`), so the same [`JsonlReader`] and
//! [`Cursor`] read both: each line is decoded once, its fields taken in
//! the order shown here, and a line that is anything else — not one
//! object of scalars and arrays of unsigned integers only, a field
//! missing, unknown, repeated or out of order, an id that does not fit
//! its type — is corrupt. Four record kinds, three of them mutations:
//!
//! ```text
//! {"t":"svc.batch","n":2}                  // admission batch header
//! {"t":"svc.admit","id":7,"src":4,"dst":0,"rate_bps":8000,"burst":20,"deadline_ns":80000000}
//! {"t":"svc.admit","id":8,...}             // exactly n member lines
//! {"t":"svc.release","flow":7}
//! {"t":"svc.rebalance"}
//! ```
//!
//! plus the non-mutating policy declaration the gateway appends at
//! start-up, so recovery can prove it is replaying under the same
//! admission policy the journal was written under:
//!
//! ```text
//! {"t":"svc.policy","policy":"greedy:clique"}
//! ```
//!
//! and the periodic snapshot, a group of `flows + 4` lines however large
//! the conflict graph: its header, one line per flow, the order pairs and
//! the slot ranges as columns of one line each, and a terminator line:
//!
//! ```text
//! {"t":"svc.snap","policy":"exact","flows":1,"warm":2,"ranges":3,"slots":5}
//! {"t":"svc.snap.flow","id":8,...,"slots_per_link":1,"path":[4,3,2,0]}
//! {"t":"svc.snap.warm","a":[3,3],"b":[5,7]}   // pair i is (a[i], b[i])
//! {"t":"svc.snap.range","link":[3,5,7],"start":[0,2,4],"len":[2,2,1]}
//! {"t":"svc.snap.end"}
//! ```
//!
//! The header's `warm` and `ranges` are the lengths of those columns; a
//! column of any other length is corrupt, and so is an empty path or a
//! range that is empty or ends past `u32::MAX`. Every array element reads
//! with the grammar of every other id. A snapshot in the format before
//! (one line per pair and per range, the path a `"4-3-0"` string) is
//! corrupt at its first member line — or, when it ends the text with
//! fewer than `flows + 3` member lines, a torn tail, as any short group.
//!
//! `deadline_ns` is omitted for best-effort flows. The batch grouping
//! is itself part of the record — replaying the same grouping through
//! [`wimesh::QosSession::admit_batch`] is what makes recovery
//! bit-identical even where a different grouping could pick an
//! alternate optimum.
//!
//! # Torn tails vs corruption
//!
//! The writer appends every line of a record and flushes before the
//! mutation is applied, so a crash can only lose the *suffix* of the
//! stream; after a failed write it appends nothing more, so a write
//! error can only leave a partial record at the end of the stream, as a
//! crash does. The parser therefore treats exactly two shapes as a torn
//! tail (dropped, `torn_tail = true`): a final line without its
//! newline, and a trailing group with fewer member lines than its
//! header promises. Anything malformed *before* complete later lines
//! cannot be explained by a crash and is reported as a typed error
//! carrying the offending line number.

use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::time::Duration;

use wimesh::tdma::SlotRange;
use wimesh::{FlowSpec, FlowState, GreedyKey, OrderPolicy, SessionState};
use wimesh_obs::json::Object;
use wimesh_obs::reader::{Cursor, JsonlError, JsonlLine, JsonlReader};
use wimesh_sim::FlowId;
use wimesh_topology::{LinkId, NodeId};

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum JournalRecord {
    /// A coalesced admission batch (a single-spec batch is a plain
    /// admit). The grouping is replayed verbatim on recovery.
    AdmitBatch(Vec<FlowSpec>),
    /// Release of one flow.
    Release(FlowId),
    /// A full rebalance.
    Rebalance,
    /// A state snapshot; replay restarts from the last complete one.
    Snapshot(SessionState),
    /// A declaration of the admission policy the service is running
    /// under, appended by the gateway at start-up. Not a mutation —
    /// replay skips it — but recovery cross-checks it against the
    /// requested policy and fails with a state mismatch on
    /// disagreement.
    Policy(OrderPolicy),
}

/// Appends journal records to a byte stream, flushing each record
/// before the caller applies its mutation (write-ahead discipline).
///
/// The writer is fail-stop: once a write or flush has failed, the stream
/// may end in part of a record, and a record written after it would turn
/// that torn tail into corruption mid-journal. So every later append is
/// refused before it writes a byte, and the stream holds complete records
/// and at most one torn record, at its end.
pub struct JournalWriter {
    out: Box<dyn Write + Send>,
    /// The record being appended, encoded in full before any of it is
    /// written; kept between appends for its capacity.
    buf: String,
    /// Whether a write or flush has failed.
    failed: bool,
}

impl fmt::Debug for JournalWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JournalWriter").finish_non_exhaustive()
    }
}

impl JournalWriter {
    /// Creates (truncating) a journal file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(Self::from_writer(Box::new(File::create(path)?)))
    }

    /// Wraps an arbitrary writer (tests, `io::sink()`, sockets).
    pub fn from_writer(out: Box<dyn Write + Send>) -> Self {
        JournalWriter {
            out,
            buf: String::with_capacity(256),
            failed: false,
        }
    }

    /// Appends every line of `record` and flushes. The record is handed
    /// to the OS in full before this returns, so the caller may apply
    /// the mutation afterwards.
    ///
    /// # Errors
    ///
    /// The I/O error; the caller must *not* apply the mutation then. A
    /// record the reader would refuse is an `InvalidInput` error and
    /// writes nothing. After a failed write or flush, this append and
    /// every later one fail before writing a byte.
    pub fn append(&mut self, record: &JournalRecord) -> io::Result<()> {
        if self.failed {
            return Err(io::Error::other(
                "an earlier append failed; the journal takes no more records",
            ));
        }
        self.buf.clear();
        encode_record(record, &mut self.buf)?;
        let written = self
            .out
            .write_all(self.buf.as_bytes())
            .and_then(|()| self.out.flush());
        self.failed = written.is_err();
        written
    }
}

/// A parsed journal: the complete records, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalLog {
    /// Every complete record, oldest first.
    pub records: Vec<JournalRecord>,
    /// Whether a torn tail (unterminated final line or incomplete
    /// trailing group) was dropped.
    pub torn_tail: bool,
}

impl JournalLog {
    /// Index just past the last [`JournalRecord::Snapshot`], and the
    /// snapshot itself — replay starts there.
    pub fn replay_point(&self) -> (usize, Option<&SessionState>) {
        for (i, r) in self.records.iter().enumerate().rev() {
            if let JournalRecord::Snapshot(s) = r {
                return (i + 1, Some(s));
            }
        }
        (0, None)
    }
}

/// Parses a journal text back into records.
///
/// # Errors
///
/// [`JsonlError`] with the offending line number for any malformation
/// that a crash cannot explain; an unterminated final line or a record
/// group cut off by the end of input is instead dropped as a torn tail
/// ([`JournalLog::torn_tail`]).
pub fn parse_journal(text: &str) -> Result<JournalLog, JsonlError> {
    let mut stream = RecordStream::new(text);
    let mut records = Vec::new();
    while let Some(record) = stream.next_record(|| ()) {
        records.push(record?);
    }
    Ok(JournalLog {
        records,
        torn_tail: stream.torn_tail(),
    })
}

/// A journal text decoded record by record, each line once.
///
/// The member lines of a group are gathered before any of them is
/// decoded, so a group that runs off the end of the text is a torn
/// tail whatever its members contain, and nothing is allocated for a
/// count the text does not back with lines.
pub(crate) struct RecordStream<'a> {
    lines: JsonlReader<'a>,
    group: Vec<JsonlLine<'a>>,
    torn_tail: bool,
}

impl<'a> RecordStream<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        RecordStream {
            lines: JsonlReader::new(text),
            group: Vec::new(),
            torn_tail: false,
        }
    }

    /// Whether the text ended in a torn tail. Final once
    /// [`Self::next_record`] has returned `None`.
    pub(crate) fn torn_tail(&self) -> bool {
        self.torn_tail
    }

    /// The next complete record, `None` at the end of the text or at its
    /// torn tail. `superseded` is called when a complete snapshot group
    /// has been gathered, before it is decoded: a consumer that keeps
    /// only the latest snapshot lets go of the previous one there. After
    /// an error the stream is not to be read further.
    pub(crate) fn next_record(
        &mut self,
        superseded: impl FnOnce(),
    ) -> Option<Result<JournalRecord, JsonlError>> {
        let line = self.next_line()?;
        self.decode(line, superseded).transpose()
    }

    /// The next newline-terminated line. A line cut mid-write is the
    /// last of the text: even if its prefix happens to parse, its values
    /// cannot be trusted, so it is dropped as the torn tail.
    fn next_line(&mut self) -> Option<JsonlLine<'a>> {
        let line = self.lines.next()?;
        if !line.terminated {
            self.torn_tail = true;
            return None;
        }
        Some(line)
    }

    /// Gathers the `n` member lines of a group into `self.group`, or
    /// reports the group as running off the end of the text.
    fn gather(&mut self, n: u64) -> bool {
        self.group.clear();
        while (self.group.len() as u64) < n {
            match self.next_line() {
                Some(line) => self.group.push(line),
                None => {
                    self.torn_tail = true;
                    return false;
                }
            }
        }
        true
    }

    /// Decodes the record that `line` starts; `Ok(None)` at a torn tail.
    fn decode(
        &mut self,
        line: JsonlLine<'a>,
        superseded: impl FnOnce(),
    ) -> Result<Option<JournalRecord>, JsonlError> {
        let mut head = line.cursor()?;
        let record = match head.tag()? {
            "svc.batch" => {
                let n = head.u64("n")?;
                head.end()?;
                if n == 0 {
                    return Err(line.error("empty admission batch"));
                }
                if !self.gather(n) {
                    return Ok(None);
                }
                JournalRecord::AdmitBatch(decode_all(&self.group, "svc.admit", decode_spec)?)
            }
            "svc.admit" => {
                return Err(line.error("svc.admit outside an svc.batch group"));
            }
            "svc.release" => {
                let flow = FlowId(head.u32("flow")?);
                head.end()?;
                JournalRecord::Release(flow)
            }
            "svc.rebalance" => {
                head.end()?;
                JournalRecord::Rebalance
            }
            "svc.policy" => {
                let policy = decode_policy(&mut head)?;
                head.end()?;
                JournalRecord::Policy(policy)
            }
            "svc.snap" => {
                let policy = decode_policy(&mut head)?;
                let nf = head.u64("flows")?;
                let nw = head.u64("warm")?;
                let nr = head.u64("ranges")?;
                let guaranteed_slots = head.u32("slots")?;
                head.end()?;
                // The flow lines, then the pairs, the ranges and
                // svc.snap.end. A count past u64::MAX is in any case more
                // lines than a text can hold.
                if !self.gather(nf.saturating_add(3)) {
                    return Ok(None);
                }
                superseded();
                // `nf + 3` lines are in hand, so `nf` fits usize.
                let (flows, rest) = self.group.split_at(nf as usize);
                let state = SessionState {
                    policy,
                    flows: decode_all(flows, "svc.snap.flow", decode_snap_flow)?,
                    warm_pairs: decode_member(&rest[0], "svc.snap.warm", |fields| {
                        decode_snap_pairs(fields, nw)
                    })?,
                    ranges: decode_member(&rest[1], "svc.snap.range", |fields| {
                        decode_snap_ranges(fields, nr)
                    })?,
                    guaranteed_slots,
                };
                decode_member(&rest[2], "svc.snap.end", |_| Ok(()))?;
                JournalRecord::Snapshot(state)
            }
            other => {
                return Err(line.error(format!("unknown journal record type \"{other}\"")));
            }
        };
        Ok(Some(record))
    }
}

/// Decodes each of `lines` in order as a `tag` record whose fields
/// `decode` reads, stopping at the first error. The result is sized by
/// the lines in hand, never by a count from the text.
fn decode_all<'a, T>(
    lines: &[JsonlLine<'a>],
    tag: &str,
    decode: impl Fn(&mut Cursor<'a>) -> Result<T, JsonlError>,
) -> Result<Vec<T>, JsonlError> {
    let mut out = Vec::with_capacity(lines.len());
    for line in lines {
        out.push(decode_member(line, tag, &decode)?);
    }
    Ok(out)
}

/// Decodes `line` as a `tag` record whose fields `decode` reads.
fn decode_member<'a, T>(
    line: &JsonlLine<'a>,
    tag: &str,
    decode: impl FnOnce(&mut Cursor<'a>) -> Result<T, JsonlError>,
) -> Result<T, JsonlError> {
    let mut fields = line.cursor()?;
    let found = fields.tag()?;
    if found != tag {
        return Err(line.error(format!("expected {tag}, found {found}")));
    }
    let value = decode(&mut fields)?;
    fields.end()?;
    Ok(value)
}

/// The next field, the snapshot column `key`, which must hold the `count`
/// values its header promised. The result is sized by the line, not by
/// `count`.
fn column(fields: &mut Cursor<'_>, key: &str, count: u64) -> Result<Vec<u32>, JsonlError> {
    let mut values = Vec::new();
    fields.u32_array(key, |v| values.push(v))?;
    if values.len() as u64 != count {
        let found = values.len();
        return Err(fields.error(format!(
            "column \"{key}\" holds {found} values, its header promises {count}"
        )));
    }
    Ok(values)
}

fn decode_spec(fields: &mut Cursor<'_>) -> Result<FlowSpec, JsonlError> {
    Ok(FlowSpec {
        id: FlowId(fields.u32("id")?),
        src: NodeId(fields.u32("src")?),
        dst: NodeId(fields.u32("dst")?),
        rate_bps: fields.f64("rate_bps")?,
        burst_bytes: fields.u32("burst")?,
        deadline: fields
            .optional_u64("deadline_ns")?
            .map(Duration::from_nanos),
    })
}

fn decode_snap_flow(fields: &mut Cursor<'_>) -> Result<FlowState, JsonlError> {
    let spec = decode_spec(fields)?;
    let slots_per_link = fields.u32("slots_per_link")?;
    let mut path = Vec::new();
    fields.u32_array("path", |node| path.push(NodeId(node)))?;
    if path.is_empty() {
        return Err(fields.error("empty path"));
    }
    Ok(FlowState {
        spec,
        path,
        slots_per_link,
    })
}

fn decode_snap_pairs(
    fields: &mut Cursor<'_>,
    count: u64,
) -> Result<Vec<(LinkId, LinkId)>, JsonlError> {
    let a = column(fields, "a", count)?;
    let b = column(fields, "b", count)?;
    Ok(a.into_iter()
        .zip(b)
        .map(|(a, b)| (LinkId(a), LinkId(b)))
        .collect())
}

fn decode_snap_ranges(
    fields: &mut Cursor<'_>,
    count: u64,
) -> Result<Vec<(LinkId, SlotRange)>, JsonlError> {
    let links = column(fields, "link", count)?;
    let starts = column(fields, "start", count)?;
    let lens = column(fields, "len", count)?;
    let ranges = links.into_iter().zip(starts).zip(lens);
    ranges
        .map(|((link, start), len)| {
            if len == 0 || start.checked_add(len).is_none() {
                return Err(fields.error(format!(
                    "link {link}: slot range is empty or ends past u32::MAX"
                )));
            }
            Ok((LinkId(link), SlotRange::new(start, len)))
        })
        .collect()
}

/// The journal name of every policy but `TreeOrder`, which is
/// `tree:<gateway>`. None holds a character JSON would escape.
const POLICY_NAMES: [(OrderPolicy, &str); 6] = [
    (OrderPolicy::HopOrder, "hop"),
    (OrderPolicy::ExactMilp, "exact"),
    (OrderPolicy::LpRounding, "lp"),
    (greedy(GreedyKey::CliqueLoad), "greedy:clique"),
    (greedy(GreedyKey::HopCount), "greedy:hop"),
    (greedy(GreedyKey::Demand), "greedy:demand"),
];

const fn greedy(key: GreedyKey) -> OrderPolicy {
    OrderPolicy::GreedySequential { key }
}

fn decode_policy(fields: &mut Cursor<'_>) -> Result<OrderPolicy, JsonlError> {
    let s = fields.str("policy")?;
    if let Some(&(policy, _)) = POLICY_NAMES.iter().find(|(_, name)| *name == s) {
        return Ok(policy);
    }
    match s.strip_prefix("tree:").map(str::parse) {
        Some(Ok(gateway)) => Ok(OrderPolicy::TreeOrder {
            gateway: NodeId(gateway),
        }),
        _ => Err(fields.error(format!("unknown order policy \"{s}\""))),
    }
}

/// Why `spec` cannot be journaled, if it cannot: a rate that is not finite
/// and positive (replay would fail on it) or a deadline past `u64::MAX`
/// nanoseconds (the reader refuses it).
pub(crate) fn unjournalable(spec: &FlowSpec) -> Option<String> {
    let deadline_ns = spec.deadline.map(|d| d.as_nanos());
    let why = if !(spec.rate_bps > 0.0 && spec.rate_bps.is_finite()) {
        "rate is not finite and positive"
    } else if deadline_ns > Some(u128::from(u64::MAX)) {
        "deadline is past u64::MAX nanoseconds"
    } else {
        return None;
    };
    Some(format!("flow {}: {why}", spec.id.0))
}

/// Refuses a record its reader would refuse, before any of it is written.
fn refuse(why: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, why.into())
}

/// Starts a line of a record, ending the line before it if need be.
fn line<'a>(out: &'a mut String, tag: &str) -> Object<'a> {
    if !out.is_empty() && !out.ends_with('\n') {
        out.push('\n');
    }
    Object::record(out, tag)
}

/// Writes `get` of every one of `rows` as the elements of `array`.
fn ints<T>(array: &mut Object<'_>, rows: &[T], get: impl Fn(&T) -> u32) {
    for row in rows {
        array.int("", get(row));
    }
}

fn encode_record(record: &JournalRecord, out: &mut String) -> io::Result<()> {
    match record {
        JournalRecord::AdmitBatch(specs) => {
            if specs.is_empty() {
                return Err(refuse("refusing to journal an empty batch"));
            }
            line(out, "svc.batch").int("n", specs.len() as u64);
            for spec in specs {
                encode_spec(&mut line(out, "svc.admit"), spec)?;
            }
        }
        JournalRecord::Release(flow) => {
            line(out, "svc.release").int("flow", flow.0);
        }
        JournalRecord::Rebalance => drop(line(out, "svc.rebalance")),
        JournalRecord::Policy(policy) => {
            line(out, "svc.policy").str("policy", &policy_name(*policy)?);
        }
        JournalRecord::Snapshot(state) => {
            line(out, "svc.snap")
                .str("policy", &policy_name(state.policy)?)
                .int("flows", state.flows.len() as u64)
                .int("warm", state.warm_pairs.len() as u64)
                .int("ranges", state.ranges.len() as u64)
                .int("slots", state.guaranteed_slots);
            for f in &state.flows {
                if f.path.is_empty() {
                    return Err(refuse(format!("flow {}: empty path", f.spec.id.0)));
                }
                let mut flow = line(out, "svc.snap.flow");
                encode_spec(&mut flow, &f.spec)?;
                flow.int("slots_per_link", f.slots_per_link)
                    .arr("path", |a| ints(a, &f.path, |node| node.0));
            }
            let pairs = &state.warm_pairs;
            line(out, "svc.snap.warm")
                .arr("a", |a| ints(a, pairs, |(a, _)| a.0))
                .arr("b", |a| ints(a, pairs, |(_, b)| b.0));
            let ranges = &state.ranges;
            if let Some((l, _)) = ranges
                .iter()
                .find(|(_, r)| r.len == 0 || r.start.checked_add(r.len).is_none())
            {
                return Err(refuse(format!("link {}: empty or overflowing range", l.0)));
            }
            line(out, "svc.snap.range")
                .arr("link", |a| ints(a, ranges, |(l, _)| l.0))
                .arr("start", |a| ints(a, ranges, |(_, r)| r.start))
                .arr("len", |a| ints(a, ranges, |(_, r)| r.len));
            drop(line(out, "svc.snap.end"));
        }
    }
    out.push('\n');
    Ok(())
}

/// The fields every admit and snapshot-flow line starts with.
fn encode_spec(line: &mut Object<'_>, spec: &FlowSpec) -> io::Result<()> {
    if let Some(why) = unjournalable(spec) {
        return Err(refuse(why));
    }
    line.int("id", spec.id.0)
        .int("src", spec.src.0)
        .int("dst", spec.dst.0)
        .f64("rate_bps", spec.rate_bps)
        .int("burst", spec.burst_bytes);
    if let Some(d) = spec.deadline {
        // `unjournalable` refused a deadline past u64::MAX ns.
        line.int("deadline_ns", d.as_nanos() as u64);
    }
    Ok(())
}

/// The policy's journal name. A policy without one (`OrderPolicy` and
/// `GreedyKey` are non-exhaustive) is refused.
fn policy_name(policy: OrderPolicy) -> io::Result<String> {
    if let OrderPolicy::TreeOrder { gateway } = policy {
        return Ok(format!("tree:{}", gateway.0));
    }
    let named = POLICY_NAMES.iter().find(|(p, _)| *p == policy);
    named
        .map(|&(_, name)| name.to_owned())
        .ok_or_else(|| refuse("order policy has no journal encoding"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimesh_sim::traffic::VoipCodec;

    fn specs() -> Vec<FlowSpec> {
        vec![
            FlowSpec::voip(1, NodeId(4), NodeId(0), VoipCodec::G729),
            FlowSpec::best_effort(2, NodeId(3), NodeId(0), 64_000.0),
        ]
    }

    fn sample_state() -> SessionState {
        SessionState {
            policy: OrderPolicy::TreeOrder { gateway: NodeId(0) },
            flows: vec![FlowState {
                spec: specs().remove(0),
                path: vec![NodeId(4), NodeId(3), NodeId(0)],
                slots_per_link: 2,
            }],
            warm_pairs: vec![(LinkId(3), LinkId(5))],
            ranges: vec![
                (LinkId(3), SlotRange::new(0, 2)),
                (LinkId(5), SlotRange::new(2, 2)),
            ],
            guaranteed_slots: 4,
        }
    }

    fn roundtrip(records: &[JournalRecord]) -> String {
        let mut text = String::new();
        for r in records {
            encode_record(r, &mut text).expect("encodes");
        }
        text
    }

    #[test]
    fn records_roundtrip_bit_exact() {
        let records = vec![
            JournalRecord::AdmitBatch(specs()),
            JournalRecord::Release(FlowId(1)),
            JournalRecord::Rebalance,
            JournalRecord::Snapshot(sample_state()),
            JournalRecord::AdmitBatch(vec![specs().remove(1)]),
        ];
        let text = roundtrip(&records);
        let log = parse_journal(&text).expect("parses");
        assert!(!log.torn_tail);
        assert_eq!(log.records, records);
        let (at, snap) = log.replay_point();
        assert_eq!(at, 4);
        assert_eq!(snap, Some(&sample_state()));
    }

    #[test]
    fn policy_records_roundtrip_for_every_encodable_policy() {
        let policies = vec![
            OrderPolicy::HopOrder,
            OrderPolicy::ExactMilp,
            OrderPolicy::TreeOrder { gateway: NodeId(2) },
            OrderPolicy::LpRounding,
            OrderPolicy::GreedySequential {
                key: GreedyKey::CliqueLoad,
            },
            OrderPolicy::GreedySequential {
                key: GreedyKey::HopCount,
            },
            OrderPolicy::GreedySequential {
                key: GreedyKey::Demand,
            },
        ];
        let records: Vec<JournalRecord> = policies.into_iter().map(JournalRecord::Policy).collect();
        let text = roundtrip(&records);
        let log = parse_journal(&text).expect("parses");
        assert!(!log.torn_tail);
        assert_eq!(log.records, records);
        // Policy records never move the replay point.
        assert_eq!(log.replay_point(), (0, None));
    }

    #[test]
    fn unknown_policy_strings_are_corruption() {
        for bad in [
            "{\"t\":\"svc.policy\",\"policy\":\"greedy:bogus\"}\n",
            "{\"t\":\"svc.policy\",\"policy\":\"simulated-annealing\"}\n",
        ] {
            let err = parse_journal(bad).expect_err("unknown policy is corrupt");
            assert_eq!(err.line, 1);
        }
    }

    #[test]
    fn approx_policies_snapshot_roundtrip() {
        let mut state = sample_state();
        state.policy = OrderPolicy::GreedySequential {
            key: GreedyKey::Demand,
        };
        let records = vec![JournalRecord::Snapshot(state)];
        let text = roundtrip(&records);
        let log = parse_journal(&text).expect("parses");
        assert_eq!(log.records, records);
    }

    #[test]
    fn unterminated_final_line_is_a_torn_tail() {
        let full = roundtrip(&[JournalRecord::Release(FlowId(9)), JournalRecord::Rebalance]);
        let cut = &full[..full.len() - 3]; // mid-line, no newline
        let log = parse_journal(cut).expect("prefix parses");
        assert!(log.torn_tail);
        assert_eq!(log.records, vec![JournalRecord::Release(FlowId(9))]);
    }

    #[test]
    fn incomplete_trailing_group_is_a_torn_tail() {
        let full = roundtrip(&[JournalRecord::Rebalance, JournalRecord::AdmitBatch(specs())]);
        // Cut after the batch header line: the group promises 2 members.
        let keep = full.lines().take(2).collect::<Vec<_>>().join("\n") + "\n";
        let log = parse_journal(&keep).expect("prefix parses");
        assert!(log.torn_tail);
        assert_eq!(log.records, vec![JournalRecord::Rebalance]);
    }

    #[test]
    fn malformation_before_complete_lines_is_corruption() {
        let full = roundtrip(&[JournalRecord::AdmitBatch(specs())]);
        // A stray member line without its group header.
        let stray = full.lines().nth(1).map(|l| format!("{l}\n")).expect("line");
        let err = parse_journal(&stray).expect_err("stray member is corrupt");
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("svc.batch"));

        // An unknown record type mid-stream.
        let text = "{\"t\":\"svc.bogus\"}\n{\"t\":\"svc.rebalance\"}\n";
        let err = parse_journal(text).expect_err("unknown tag is corrupt");
        assert_eq!(err.line, 1);
    }

    #[test]
    fn every_line_boundary_truncation_parses_or_errors_without_panic() {
        let full = roundtrip(&[
            JournalRecord::AdmitBatch(specs()),
            JournalRecord::Snapshot(sample_state()),
            JournalRecord::Release(FlowId(2)),
        ]);
        let lines: Vec<&str> = full.lines().collect();
        for keep in 0..=lines.len() {
            let text = lines[..keep]
                .iter()
                .map(|l| format!("{l}\n"))
                .collect::<String>();
            // Complete-line prefixes of a well-formed journal always
            // parse; whether the tail is torn depends on group bounds.
            let log = parse_journal(&text).expect("line-boundary prefix parses");
            assert!(log.records.len() <= 3);
        }
    }

    fn corrupt_at(text: &str) -> u32 {
        parse_journal(text).expect_err("corrupt").line
    }

    #[test]
    fn ids_past_their_type_are_corruption_not_truncation() {
        // 2^32 + 7 used to parse as FlowId(7).
        let err = parse_journal(
            "{\"t\":\"svc.rebalance\"}\n{\"t\":\"svc.release\",\"flow\":4294967303}\n",
        )
        .expect_err("does not fit u32");
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("\"flow\""), "{err}");
        // One past u64::MAX, where a count is read as u64.
        assert_eq!(
            corrupt_at("{\"t\":\"svc.batch\",\"n\":18446744073709551616}\n"),
            1
        );
        // Every narrowed field of every record kind.
        let wide = "4294967296";
        let good = roundtrip(&[
            JournalRecord::AdmitBatch(specs()),
            JournalRecord::Snapshot(sample_state()),
        ]);
        for (line, field) in [
            (2, "\"id\":1"),
            (2, "\"src\":4"),
            (2, "\"dst\":0"),
            (2, "\"burst\":60"),
            (4, "\"slots\":4"),
            (5, "\"slots_per_link\":2"),
            (5, "\"path\":[4"),
            (5, "[4,3"),
            (6, "\"a\":[3"),
            (6, "\"b\":[5"),
            (7, "\"link\":[3"),
            (7, "[3,5"),
            (7, "\"start\":[0"),
            (7, "\"len\":[2"),
        ] {
            let (name, _) = field.rsplit_once([':', '[', ',']).expect("a value");
            let sep = &field[name.len()..=name.len()];
            let bad = good.replacen(field, &format!("{name}{sep}{wide}"), 1);
            assert_ne!(bad, good, "{field} not found");
            assert_eq!(corrupt_at(&bad), line, "{field}");
        }
        // A range may not end past u32::MAX either.
        let bad = good.replacen("\"start\":[0", "\"start\":[4294967295", 1);
        assert_eq!(corrupt_at(&bad), 7);
        // Path nodes read as every other id does: no sign, no leading
        // zero, no whitespace, and never from a string.
        for path in [
            "\"4-+3-0\"",
            "\"4-03-0\"",
            "\"+4-3-0\"",
            "\"4-3-0\"",
            "[4,+3,0]",
            "[4,03,0]",
            "[4, 3,0]",
            "[]",
        ] {
            let bad = good.replacen("\"path\":[4,3,0]", &format!("\"path\":{path}"), 1);
            assert_ne!(bad, good);
            assert_eq!(corrupt_at(&bad), 5, "{path}");
        }
    }

    #[test]
    fn snapshot_columns_must_hold_what_their_header_counts() {
        let good = roundtrip(&[JournalRecord::Snapshot(sample_state())]);
        assert!(good.contains("\"a\":[3],\"b\":[5]"), "{good}");
        // Lines: header, one flow, pairs (3), ranges (4), end.
        for (line, from, to) in [
            (3, "\"a\":[3]", "\"a\":[]"),
            (3, "\"a\":[3],\"b\":[5]", "\"a\":[3,4],\"b\":[5,6]"),
            (3, "\"b\":[5]", "\"b\":[5,6]"),
            (3, "\"b\":[5]", "\"b\":[]"),
            (3, "\"warm\":1", "\"warm\":2"),
            (4, "\"link\":[3,5]", "\"link\":[3]"),
            (4, "\"start\":[0,2]", "\"start\":[0,2,4]"),
            (4, "\"len\":[2,2]", "\"len\":[2]"),
            (4, "\"len\":[2,2]", "\"len\":[2,0]"),
            (4, "\"ranges\":2", "\"ranges\":1"),
        ] {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good, "{from}");
            let err = parse_journal(&bad).expect_err(to);
            assert_eq!(err.line, line, "{to}: {err}");
        }
    }

    #[test]
    fn the_per_pair_format_before_is_corruption() {
        // The golden text of the format before.
        let old = "\
{\"t\":\"svc.policy\",\"policy\":\"tree:12\"}
{\"t\":\"svc.policy\",\"policy\":\"greedy:clique\"}
{\"t\":\"svc.batch\",\"n\":2}
{\"t\":\"svc.admit\",\"id\":1,\"src\":4,\"dst\":0,\"rate_bps\":24000,\"burst\":60,\"deadline_ns\":80000000}
{\"t\":\"svc.admit\",\"id\":2,\"src\":3,\"dst\":0,\"rate_bps\":64000,\"burst\":160}
{\"t\":\"svc.release\",\"flow\":7}
{\"t\":\"svc.rebalance\"}
{\"t\":\"svc.snap\",\"policy\":\"tree:0\",\"flows\":2,\"warm\":1,\"ranges\":2,\"slots\":4}
{\"t\":\"svc.snap.flow\",\"id\":1,\"src\":4,\"dst\":0,\"rate_bps\":24000,\"burst\":60,\"deadline_ns\":80000000,\"slots_per_link\":2,\"path\":\"4-3-0\"}
{\"t\":\"svc.snap.flow\",\"id\":2,\"src\":3,\"dst\":0,\"rate_bps\":64000,\"burst\":160,\"slots_per_link\":1,\"path\":\"3\"}
{\"t\":\"svc.snap.warm\",\"a\":3,\"b\":5}
{\"t\":\"svc.snap.range\",\"link\":3,\"start\":0,\"len\":2}
{\"t\":\"svc.snap.range\",\"link\":5,\"start\":2,\"len\":2}
{\"t\":\"svc.snap.end\"}
";
        // Its first flow line holds a string path.
        let err = parse_journal(old).expect_err("a string path");
        assert_eq!(err.line, 9, "{err}");
        assert!(err.reason.contains("\"path\""), "{err}");
        // With its paths as arrays, its first pair line is refused.
        let old =
            old.replacen("\"4-3-0\"", "[4,3,0]", 1)
                .replacen("\"path\":\"3\"", "\"path\":[3]", 1);
        let err = parse_journal(&old).expect_err("a scalar pair");
        assert_eq!(err.line, 11, "{err}");
        assert!(err.reason.contains("\"a\""), "{err}");
    }

    #[test]
    fn hostile_group_counts_are_a_torn_tail_never_a_panic() {
        let max = u64::MAX;
        for head in [
            format!("{{\"t\":\"svc.snap\",\"policy\":\"hop\",\"flows\":{max},\"warm\":1,\"ranges\":0,\"slots\":1}}"),
            format!("{{\"t\":\"svc.snap\",\"policy\":\"hop\",\"flows\":1,\"warm\":{max},\"ranges\":{max},\"slots\":1}}"),
            format!("{{\"t\":\"svc.snap\",\"policy\":\"hop\",\"flows\":0,\"warm\":0,\"ranges\":{max},\"slots\":1}}"),
            format!("{{\"t\":\"svc.batch\",\"n\":{max}}}"),
            String::from("{\"t\":\"svc.batch\",\"n\":3}"),
        ] {
            let text = format!("{{\"t\":\"svc.rebalance\"}}\n{head}\nany line\n{{\"t\":\"svc.rebalance\"}}\n");
            let log = parse_journal(&text).expect("a torn group is not corruption");
            assert!(log.torn_tail, "{head}");
            assert_eq!(log.records, vec![JournalRecord::Rebalance], "{head}");
        }
        // With the promised lines present, the members do get decoded.
        let text = "{\"t\":\"svc.batch\",\"n\":2}\nany line\n{\"t\":\"svc.rebalance\"}\n";
        assert_eq!(corrupt_at(text), 2);
        // A column is sized by its line, never by its header's count.
        let text = format!(
            "{{\"t\":\"svc.snap\",\"policy\":\"hop\",\"flows\":0,\"warm\":{max},\"ranges\":{max},\"slots\":1}}\n\
             {{\"t\":\"svc.snap.warm\",\"a\":[1],\"b\":[2]}}\n\
             {{\"t\":\"svc.snap.range\",\"link\":[],\"start\":[],\"len\":[]}}\n{{\"t\":\"svc.snap.end\"}}\n"
        );
        assert_eq!(corrupt_at(&text), 2);
        let text = text.replacen("\"a\":[1],\"b\":[2]", "\"a\":[],\"b\":[]", 1);
        let text = text.replacen(&format!("\"warm\":{max}"), "\"warm\":0", 1);
        assert_eq!(corrupt_at(&text), 3);
    }

    #[test]
    fn lines_that_are_not_one_flat_object_are_corruption() {
        let ok = "{\"t\":\"svc.rebalance\"}\n";
        for bad in [
            "garbage \"t\":\"svc.rebalance\" trailing", // used to parse
            "\"t\":\"svc.rebalance\"}",
            "{\"t\":\"svc.rebalance\"",
            "{\"t\":\"svc.rebalance\"} x",
            "{\"t\":\"svc.rebalance\"}}",
            "{\"t\":\"svc.rebalance\",\"t\":\"svc.rebalance\"}",
            "{\"t\":\"svc.release\",\"flow\":1,\"flow\":1}",
            "{\"t\":\"svc.release\",\"flow\":{\"id\":1}}",
            "{\"t\":\"svc.release\",\"flow\":[1]}",
            "{\"t\":\"svc.release\",\"flow\":1,\"extra\":2}",
            "{\"flow\":1,\"t\":\"svc.release\"}",
            "{\"t\":\"svc.policy\",\"policy\":\"hop}",
            "{\"t\":\"svc.policy\",\"policy\":\"h\\op\"}",
            "{\"t\":\"svc.batch\",\"n\":1 }",
        ] {
            let text = format!("{ok}{bad}\n{ok}");
            assert_eq!(corrupt_at(&text), 2, "{bad:?}");
            // The same line as the unterminated last one is a torn tail.
            let log = parse_journal(&format!("{ok}{bad}")).expect("torn, not corrupt");
            assert!(log.torn_tail);
            assert_eq!(log.records, vec![JournalRecord::Rebalance]);
        }
        // Inside a group, the member's own line is named.
        let full = roundtrip(&[JournalRecord::Snapshot(sample_state())]);
        let lines: Vec<&str> = full.lines().collect();
        for at in 1..lines.len() {
            let mut cut = lines.clone();
            let bad = format!("{} ", lines[at]);
            cut[at] = &bad;
            let text = cut.join("\n") + "\n";
            assert_eq!(corrupt_at(&text), at as u32 + 1);
        }
        // A deadline that is present must be a number.
        let full = roundtrip(&[JournalRecord::AdmitBatch(specs())]);
        let bad = full.replacen("\"deadline_ns\":", "\"deadline_ns\":\"soon\",\"was\":", 1);
        assert_eq!(corrupt_at(&bad), 2);
    }

    #[test]
    fn writer_bytes_are_pinned_for_every_record_kind() {
        let mut state = sample_state();
        state.flows.push(FlowState {
            spec: specs().remove(1),
            path: vec![NodeId(3)],
            slots_per_link: 1,
        });
        let records = [
            JournalRecord::Policy(OrderPolicy::TreeOrder {
                gateway: NodeId(12),
            }),
            JournalRecord::Policy(OrderPolicy::GreedySequential {
                key: GreedyKey::CliqueLoad,
            }),
            JournalRecord::AdmitBatch(specs()),
            JournalRecord::Release(FlowId(7)),
            JournalRecord::Rebalance,
            JournalRecord::Snapshot(state),
            JournalRecord::Snapshot(SessionState {
                policy: OrderPolicy::HopOrder,
                flows: Vec::new(),
                warm_pairs: Vec::new(),
                ranges: Vec::new(),
                guaranteed_slots: 0,
            }),
        ];
        let golden = "\
{\"t\":\"svc.policy\",\"policy\":\"tree:12\"}
{\"t\":\"svc.policy\",\"policy\":\"greedy:clique\"}
{\"t\":\"svc.batch\",\"n\":2}
{\"t\":\"svc.admit\",\"id\":1,\"src\":4,\"dst\":0,\"rate_bps\":24000,\"burst\":60,\"deadline_ns\":80000000}
{\"t\":\"svc.admit\",\"id\":2,\"src\":3,\"dst\":0,\"rate_bps\":64000,\"burst\":160}
{\"t\":\"svc.release\",\"flow\":7}
{\"t\":\"svc.rebalance\"}
{\"t\":\"svc.snap\",\"policy\":\"tree:0\",\"flows\":2,\"warm\":1,\"ranges\":2,\"slots\":4}
{\"t\":\"svc.snap.flow\",\"id\":1,\"src\":4,\"dst\":0,\"rate_bps\":24000,\"burst\":60,\"deadline_ns\":80000000,\"slots_per_link\":2,\"path\":[4,3,0]}
{\"t\":\"svc.snap.flow\",\"id\":2,\"src\":3,\"dst\":0,\"rate_bps\":64000,\"burst\":160,\"slots_per_link\":1,\"path\":[3]}
{\"t\":\"svc.snap.warm\",\"a\":[3],\"b\":[5]}
{\"t\":\"svc.snap.range\",\"link\":[3,5],\"start\":[0,2],\"len\":[2,2]}
{\"t\":\"svc.snap.end\"}
{\"t\":\"svc.snap\",\"policy\":\"hop\",\"flows\":0,\"warm\":0,\"ranges\":0,\"slots\":0}
{\"t\":\"svc.snap.warm\",\"a\":[],\"b\":[]}
{\"t\":\"svc.snap.range\",\"link\":[],\"start\":[],\"len\":[]}
{\"t\":\"svc.snap.end\"}
";
        // Through the writer itself, whose buffer is reused across appends.
        let path = std::env::temp_dir().join(format!("wimesh_golden_{}.jsonl", std::process::id()));
        let mut writer = JournalWriter::create(&path).expect("creates");
        for record in &records {
            writer.append(record).expect("appends");
        }
        let written = std::fs::read_to_string(&path).expect("reads back");
        let _ = std::fs::remove_file(&path);
        assert_eq!(written, golden);
        assert_eq!(parse_journal(golden).expect("parses").records, records);
    }
}
