//! The journal decoder against its predecessor, against garbage, and
//! against its own history.
//!
//! (a) Equivalence: the single-pass cursor decoder yields what the old
//! substring-search decoder (kept below as a test-only reference) yields
//! — the same `JournalLog` or an error at the same line — for journals
//! the real [`JournalWriter`] wrote, cut at every line boundary and at
//! random bytes, and with whole lines swapped, repeated and deleted.
//! (b) Fuzz: arbitrary text, and real journals with random byte and
//! line edits, make `parse_journal`, `recover` and `recover_recorded`
//! return `Ok` or a typed error, never panic, and every `Ok` recovery
//! carries a certificate that matches its schedule. (c) Recovery is
//! blind to what precedes the last snapshot, and every snapshot is
//! decoded into one reused set of rows: a smaller snapshot after a
//! larger one keeps nothing of it, and is still refused where it is
//! corrupt.

use std::io::Write;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use proptest::prelude::*;
use wimesh::tdma::SlotRange;
use wimesh::{FlowSpec, FlowState, GreedyKey, MeshQos, OrderPolicy, QosError, SessionState};
use wimesh_sim::traffic::VoipCodec;
use wimesh_sim::FlowId;
use wimesh_svc::{
    parse_journal, recover, recover_recorded, JournalLog, JournalRecord, JournalWriter,
    JournaledSession, Recovered, RecoveryError,
};
use wimesh_topology::{generators, LinkId, NodeId};

/// The decoder as it was before the cursor: one `format!`ed pattern and
/// one substring search from the start of the line per field, every line
/// indexed first, taught the snapshot's integer arrays in the same
/// style. Kept only as the reference for (a); an error is its 1-based
/// line.
mod old {
    use super::*;

    #[derive(Clone, Copy)]
    struct Line<'a> {
        number: u32,
        raw: &'a str,
        terminated: bool,
    }

    fn lines(text: &str) -> Vec<Line<'_>> {
        let mut out = Vec::new();
        let mut rest = text;
        let mut number = 0;
        while !rest.is_empty() {
            number += 1;
            let (raw, terminated) = match rest.find('\n') {
                Some(i) => {
                    let line = &rest[..i];
                    rest = &rest[i + 1..];
                    (line.strip_suffix('\r').unwrap_or(line), true)
                }
                None => (std::mem::take(&mut rest), false),
            };
            if !raw.trim().is_empty() {
                out.push(Line {
                    number,
                    raw,
                    terminated,
                });
            }
        }
        out
    }

    fn field_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let pat = format!("\"{key}\":");
        let i = line.find(&pat)? + pat.len();
        Some(&line[i..])
    }

    impl<'a> Line<'a> {
        fn tag(&self) -> Option<&'a str> {
            let rest = field_value(self.raw, "t")?.strip_prefix('"')?;
            let tag = &rest[..rest.find('"')?];
            (!tag.contains('\\')).then_some(tag)
        }

        fn u64_field(&self, key: &str) -> Option<u64> {
            let rest = field_value(self.raw, key)?;
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        }

        fn u64(&self, key: &str) -> Result<u64, u32> {
            self.u64_field(key).ok_or(self.number)
        }

        fn f64(&self, key: &str) -> Result<f64, u32> {
            let rest = field_value(self.raw, key).ok_or(self.number)?;
            let end = rest
                .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
                .unwrap_or(rest.len());
            rest[..end].parse().map_err(|_| self.number)
        }

        /// The integers between `"key":[` and the next `]`.
        fn u32s(&self, key: &str) -> Result<Vec<u32>, u32> {
            let rest = field_value(self.raw, key)
                .and_then(|v| v.strip_prefix('['))
                .ok_or(self.number)?;
            let body = &rest[..rest.find(']').ok_or(self.number)?];
            if body.is_empty() {
                return Ok(Vec::new());
            }
            body.split(',')
                .map(|v| v.parse().map_err(|_| self.number))
                .collect()
        }

        /// [`Self::u32s`], holding `len` values.
        fn column(&self, key: &str, len: usize) -> Result<Vec<u32>, u32> {
            let values = self.u32s(key)?;
            if values.len() == len {
                Ok(values)
            } else {
                Err(self.number)
            }
        }

        fn str(&self, key: &str) -> Result<String, u32> {
            let rest = field_value(self.raw, key)
                .and_then(|v| v.strip_prefix('"'))
                .ok_or(self.number)?;
            let mut out = String::new();
            let mut chars = rest.chars();
            while let Some(c) = chars.next() {
                match c {
                    '"' => return Ok(out),
                    '\\' => match chars.next().ok_or(self.number)? {
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        other => out.push(other),
                    },
                    other => out.push(other),
                }
            }
            Err(self.number)
        }

        fn expect_tag(&self, want: &str) -> Result<(), u32> {
            if self.tag() == Some(want) {
                Ok(())
            } else {
                Err(self.number)
            }
        }

        fn spec(&self) -> Result<FlowSpec, u32> {
            Ok(FlowSpec {
                id: FlowId(self.u64("id")? as u32),
                src: NodeId(self.u64("src")? as u32),
                dst: NodeId(self.u64("dst")? as u32),
                rate_bps: self.f64("rate_bps")?,
                burst_bytes: self.u64("burst")? as u32,
                deadline: self.u64_field("deadline_ns").map(Duration::from_nanos),
            })
        }

        fn policy(&self) -> Result<OrderPolicy, u32> {
            let s = self.str("policy")?;
            let greedy = |key| OrderPolicy::GreedySequential { key };
            Ok(match s.as_str() {
                "hop" => OrderPolicy::HopOrder,
                "exact" => OrderPolicy::ExactMilp,
                "lp" => OrderPolicy::LpRounding,
                "greedy:clique" => greedy(GreedyKey::CliqueLoad),
                "greedy:hop" => greedy(GreedyKey::HopCount),
                "greedy:demand" => greedy(GreedyKey::Demand),
                other => {
                    let gateway = other.strip_prefix("tree:").ok_or(self.number)?;
                    OrderPolicy::TreeOrder {
                        gateway: NodeId(gateway.parse().map_err(|_| self.number)?),
                    }
                }
            })
        }
    }

    pub fn parse_journal(text: &str) -> Result<JournalLog, u32> {
        let mut lines = lines(text);
        let mut torn_tail = false;
        if lines.last().is_some_and(|l| !l.terminated) {
            torn_tail = true;
            lines.pop();
        }
        let mut records = Vec::new();
        let mut i = 0;
        while i < lines.len() {
            let line = &lines[i];
            match line.tag().ok_or(line.number)? {
                "svc.batch" => {
                    let n = line.u64("n")? as usize;
                    if n == 0 {
                        return Err(line.number);
                    }
                    if i + n >= lines.len() {
                        torn_tail = true;
                        break;
                    }
                    let mut specs = Vec::new();
                    for member in &lines[i + 1..=i + n] {
                        member.expect_tag("svc.admit")?;
                        specs.push(member.spec()?);
                    }
                    records.push(JournalRecord::AdmitBatch(specs));
                    i += 1 + n;
                }
                "svc.release" => {
                    records.push(JournalRecord::Release(FlowId(line.u64("flow")? as u32)));
                    i += 1;
                }
                "svc.rebalance" => {
                    records.push(JournalRecord::Rebalance);
                    i += 1;
                }
                "svc.policy" => {
                    records.push(JournalRecord::Policy(line.policy()?));
                    i += 1;
                }
                "svc.snap" => {
                    let policy = line.policy()?;
                    let nf = line.u64("flows")? as usize;
                    let nw = line.u64("warm")? as usize;
                    let nr = line.u64("ranges")? as usize;
                    let guaranteed_slots = line.u64("slots")? as u32;
                    // The flows, the pair line, the range line, the end.
                    let members = nf + 3;
                    if i + members >= lines.len() {
                        torn_tail = true;
                        break;
                    }
                    let mut flows = Vec::new();
                    for l in &lines[i + 1..][..nf] {
                        l.expect_tag("svc.snap.flow")?;
                        let spec = l.spec()?;
                        let slots_per_link = l.u64("slots_per_link")? as u32;
                        let path: Vec<NodeId> = l.u32s("path")?.into_iter().map(NodeId).collect();
                        if path.is_empty() {
                            return Err(l.number);
                        }
                        flows.push(FlowState {
                            spec,
                            path,
                            slots_per_link,
                        });
                    }
                    let l = &lines[i + 1 + nf];
                    l.expect_tag("svc.snap.warm")?;
                    let warm_pairs = l
                        .column("a", nw)?
                        .into_iter()
                        .zip(l.column("b", nw)?)
                        .map(|(a, b)| (LinkId(a), LinkId(b)))
                        .collect();
                    let l = &lines[i + 2 + nf];
                    l.expect_tag("svc.snap.range")?;
                    let mut ranges = Vec::new();
                    let links = l.column("link", nr)?;
                    let starts = l.column("start", nr)?;
                    for (k, len) in l.column("len", nr)?.into_iter().enumerate() {
                        if len == 0 {
                            return Err(l.number);
                        }
                        ranges.push((LinkId(links[k]), SlotRange::new(starts[k], len)));
                    }
                    lines[i + members].expect_tag("svc.snap.end")?;
                    records.push(JournalRecord::Snapshot(SessionState {
                        policy,
                        flows,
                        warm_pairs,
                        ranges,
                        guaranteed_slots,
                    }));
                    i += members + 1;
                }
                _ => return Err(line.number), // svc.admit alone, unknown
            }
        }
        Ok(JournalLog { records, torn_tail })
    }
}

/// A `Write` handing the test a view of everything journaled so far.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn text(&self) -> String {
        let bytes = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        String::from_utf8(bytes.clone()).expect("journals are UTF-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// SplitMix64: the cases below are functions of one drawn seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Small values, the extremes, and anything between.
    fn id(&mut self) -> u32 {
        match self.below(4) {
            0 => self.below(10) as u32,
            1 => u32::MAX - self.below(2) as u32,
            _ => self.next() as u32,
        }
    }

    fn policy(&mut self) -> OrderPolicy {
        let greedy = |key| OrderPolicy::GreedySequential { key };
        match self.below(7) {
            0 => OrderPolicy::HopOrder,
            1 => OrderPolicy::ExactMilp,
            2 => OrderPolicy::LpRounding,
            3 => OrderPolicy::TreeOrder {
                gateway: NodeId(self.id()),
            },
            4 => greedy(GreedyKey::CliqueLoad),
            5 => greedy(GreedyKey::HopCount),
            _ => greedy(GreedyKey::Demand),
        }
    }

    fn spec(&mut self) -> FlowSpec {
        let (id, src, dst) = (self.id(), NodeId(self.id()), NodeId(self.id()));
        match self.below(3) {
            0 => FlowSpec::voip(id, src, dst, VoipCodec::G729),
            // Best effort: no `deadline_ns` on the line.
            1 => FlowSpec::best_effort(id, src, dst, self.below(1 << 20) as f64 / 8.0),
            _ => FlowSpec {
                id: FlowId(id),
                src,
                dst,
                rate_bps: f64::from_bits(self.next()).abs().min(1e300),
                burst_bytes: self.id(),
                deadline: Some(Duration::from_nanos(self.next())),
            },
        }
    }

    fn record(&mut self) -> JournalRecord {
        match self.below(6) {
            0 | 1 => {
                JournalRecord::AdmitBatch((0..1 + self.below(4)).map(|_| self.spec()).collect())
            }
            2 => JournalRecord::Release(FlowId(self.id())),
            3 => JournalRecord::Rebalance,
            4 => JournalRecord::Policy(self.policy()),
            _ => JournalRecord::Snapshot(SessionState {
                policy: self.policy(),
                flows: (0..self.below(4))
                    .map(|_| FlowState {
                        spec: self.spec(),
                        path: (0..1 + self.below(5)).map(|_| NodeId(self.id())).collect(),
                        slots_per_link: self.id(),
                    })
                    .collect(),
                warm_pairs: (0..self.below(6))
                    .map(|_| (LinkId(self.id()), LinkId(self.id())))
                    .collect(),
                ranges: (0..self.below(4))
                    .map(|_| {
                        let start = self.id() / 2;
                        (LinkId(self.id()), SlotRange::new(start, 1 + self.id() / 2))
                    })
                    .collect(),
                guaranteed_slots: self.id(),
            }),
        }
    }

    /// A journal of arbitrary (not mutually consistent) records, through
    /// the real writer.
    fn journal(&mut self) -> (Vec<JournalRecord>, String) {
        let buf = SharedBuf::default();
        let mut writer = JournalWriter::from_writer(Box::new(buf.clone()));
        let records: Vec<JournalRecord> = (0..1 + self.below(10)).map(|_| self.record()).collect();
        for record in &records {
            writer.append(record).expect("appends");
        }
        (records, buf.text())
    }

    /// One edit of an ASCII journal: lines swapped, repeated or dropped,
    /// a number replaced by another (the line stays well-formed and
    /// means something else), or bytes overwritten.
    fn edit(&mut self, text: &str) -> String {
        let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
        if lines.is_empty() {
            return String::new();
        }
        let at = self.below(lines.len());
        match self.below(6) {
            0 => {
                let with = self.below(lines.len());
                lines.swap(at, with);
            }
            1 => lines.insert(at, lines[at]),
            2 => drop(lines.remove(at)),
            3 | 4 => {
                let digit = |c: char| c.is_ascii_digit();
                let numbers: Vec<usize> = text
                    .match_indices(digit)
                    .map(|(i, _)| i)
                    .filter(|&i| i == 0 || !text[..i].ends_with(digit))
                    .collect();
                if numbers.is_empty() {
                    return text.to_string();
                }
                let from = numbers[self.below(numbers.len())];
                let len = text[from..]
                    .find(|c| !digit(c))
                    .unwrap_or(text.len() - from);
                let number = match self.below(3) {
                    0 => u64::from(self.id()),
                    1 => self.below(12) as u64,
                    _ => self.next(),
                };
                return format!("{}{number}{}", &text[..from], &text[from + len..]);
            }
            _ => {
                const BYTES: &[u8] = b"0123456789{}[]\",:-.eE\\\n tsx";
                let mut bytes = text.as_bytes().to_vec();
                for _ in 0..1 + self.below(3) {
                    let at = self.below(bytes.len());
                    bytes[at] = BYTES[self.below(BYTES.len())];
                }
                return String::from_utf8(bytes).expect("ASCII in, ASCII out");
            }
        }
        lines.concat()
    }
}

fn assert_same_decoding(text: &str) -> Result<(), TestCaseError> {
    let new = parse_journal(text).map_err(|e| e.line);
    prop_assert_eq!(new, old::parse_journal(text), "on {:?}", text);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// (a) On what the writer wrote — whole, cut anywhere, or with lines
    /// moved, repeated or dropped — the cursor decoder and the substring
    /// decoder agree record for record and error line for error line.
    #[test]
    fn cursor_decoder_agrees_with_the_substring_decoder(seed in any::<u64>()) {
        let mut gen = Gen(seed);
        let (records, text) = gen.journal();
        let log = parse_journal(&text).expect("the writer's own journal parses");
        prop_assert!(!log.torn_tail);
        prop_assert_eq!(&log.records, &records);
        assert_same_decoding(&text)?;
        for (at, _) in text.match_indices('\n') {
            assert_same_decoding(&text[..=at])?;
        }
        for _ in 0..8 {
            assert_same_decoding(&text[..gen.below(text.len() + 1)])?;
        }
        for _ in 0..8 {
            let mut edited = text.clone();
            for _ in 0..1 + gen.below(2) {
                // Whole lines only: each stays a line the writer wrote.
                let mut lines: Vec<&str> = edited.split_inclusive('\n').collect();
                if lines.is_empty() {
                    break;
                }
                let at = gen.below(lines.len());
                match gen.below(3) {
                    0 => {
                        let with = gen.below(lines.len());
                        lines.swap(at, with);
                    }
                    1 => lines.insert(at, lines[at]),
                    _ => drop(lines.remove(at)),
                }
                edited = lines.concat();
            }
            assert_same_decoding(&edited)?;
        }
    }
}

fn mesh() -> MeshQos {
    MeshQos::builder(generators::grid(3, 3))
        .build()
        .expect("grid mesh")
}

/// A real journal: seeded churn through a journaled session that
/// declares its policy and snapshots every `snapshot_every` mutations.
fn churn_journal(gen: &mut Gen, mesh: &MeshQos, snapshot_every: u64, ops: usize) -> String {
    let buf = SharedBuf::default();
    let mut writer = JournalWriter::from_writer(Box::new(buf.clone()));
    writer
        .append(&JournalRecord::Policy(OrderPolicy::HopOrder))
        .expect("declares");
    let mut journaled =
        JournaledSession::new(mesh.session(OrderPolicy::HopOrder), writer, snapshot_every);
    let mut next_id = 0;
    for _ in 0..ops {
        match gen.below(6) {
            0..=2 => {
                let specs: Vec<FlowSpec> = (0..1 + gen.below(3))
                    .map(|_| {
                        next_id += 1;
                        let (src, dst) = (gen.below(9) as u32, gen.below(9) as u32);
                        if gen.below(4) == 0 {
                            FlowSpec::best_effort(next_id, NodeId(src), NodeId(dst), 32_000.0)
                        } else {
                            FlowSpec::voip(next_id, NodeId(src), NodeId(dst), VoipCodec::G729)
                        }
                    })
                    .collect();
                journaled.admit_flows(&specs).expect("admit");
            }
            3 | 4 => {
                if let Some(f) = journaled.session().export_state().flows.first() {
                    // A release near capacity may be refused; it is then
                    // not applied, and replay refuses it again.
                    let _ = journaled.release_flow(f.spec.id);
                }
            }
            _ => journaled.rebalance_flows().expect("rebalance"),
        }
    }
    buf.text()
}

/// The recovery's certificate speaks of the schedule it returned.
fn assert_certified(recovered: &Recovered) -> Result<(), TestCaseError> {
    let outcome = recovered.session.snapshot();
    prop_assert_eq!(recovered.report.makespan, outcome.guaranteed_slots);
    prop_assert_eq!(recovered.report.flows, outcome.admitted.len());
    Ok(())
}

/// Every entry point on one text: none may panic, errors are typed.
fn assert_decodes_or_fails_typed(mesh: &MeshQos, text: &str) -> Result<(), TestCaseError> {
    let parsed = parse_journal(text);
    for result in [
        recover(mesh, OrderPolicy::HopOrder, text),
        recover_recorded(mesh, text),
    ] {
        match result {
            Ok(recovered) => {
                prop_assert!(parsed.is_ok(), "recovered what does not parse: {:?}", text);
                assert_certified(&recovered)?;
            }
            Err(RecoveryError::Corrupt { line, .. }) => {
                prop_assert_eq!(parsed.as_ref().err().map(|e| e.line), Some(line));
            }
            Err(
                RecoveryError::StateMismatch(_)
                | RecoveryError::Qos(_)
                | RecoveryError::Uncertified(_),
            ) => prop_assert!(parsed.is_ok(), "corruption takes precedence: {:?}", text),
            Err(other) => prop_assert!(false, "unexpected error {other}"),
        }
    }
    Ok(())
}

/// A snapshot edited to list one link's range twice, or two links out of
/// order, parses — the decoder reads columns, not layouts — but restoring
/// it is a typed refusal: the restored session would not export the state
/// it came from.
#[test]
fn a_snapshot_with_repeated_or_unsorted_ranges_recovers_as_a_typed_error() {
    let mesh = mesh();
    let buf = SharedBuf::default();
    let writer = JournalWriter::from_writer(Box::new(buf.clone()));
    let mut journaled = JournaledSession::new(mesh.session(OrderPolicy::HopOrder), writer, 1);
    let call = FlowSpec::voip(1, NodeId(8), NodeId(0), VoipCodec::G711);
    journaled.admit_flows(&[call]).expect("admit");
    let text = buf.text();
    let snapshot = &text[text.rfind("{\"t\":\"svc.snap\",").expect("snapshots")..];
    recover(&mesh, OrderPolicy::HopOrder, snapshot).expect("the unedited snapshot recovers");

    let Some(JournalRecord::Snapshot(state)) =
        parse_journal(snapshot).expect("parses").records.pop()
    else {
        panic!("not a snapshot: {snapshot}");
    };
    assert!(state.ranges.len() >= 2, "{snapshot}");
    let mut swapped = state.clone();
    swapped.ranges.swap(0, 1);
    let mut repeated = state.clone();
    repeated.ranges.insert(1, state.ranges[0]);
    for edited in [swapped, repeated] {
        let buf = SharedBuf::default();
        JournalWriter::from_writer(Box::new(buf.clone()))
            .append(&JournalRecord::Snapshot(edited))
            .expect("the writer does not check layouts");
        let edited = buf.text();
        assert!(parse_journal(&edited).is_ok(), "{edited}");
        match recover(&mesh, OrderPolicy::HopOrder, &edited) {
            Err(RecoveryError::Qos(QosError::Config(why))) => {
                assert!(why.contains("listed after"), "{why}")
            }
            Err(other) => panic!("expected a config error, got {other}"),
            Ok(_) => panic!("recovered a snapshot whose ranges are not ascending:\n{edited}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6000))]

    /// (b) Arbitrary text: mostly JSON-ish noise, sometimes nearly a
    /// record.
    #[test]
    fn arbitrary_text_never_panics(seed in any::<u64>()) {
        const PIECES: &[&str] = &[
            "{", "}", "\"", ":", ",", "\n", "\r\n", "\\", "\\u00", "[", "]", " ", "-", ".", "e",
            "0", "1", "7", "9", "18446744073709551615", "4294967296", "null", "true", "é", "\u{1}",
            "\"t\":", "\"svc.batch\"", "\"svc.admit\"", "\"svc.snap\"", "\"svc.snap.end\"",
            "\"svc.release\"", "\"svc.rebalance\"", "\"svc.policy\"", "\"policy\":\"hop\"",
            "\"n\":", "\"flow\":", "\"flows\":", "\"warm\":", "\"ranges\":", "\"slots\":",
            "\"a\":[", "\"path\":[",
            "{\"t\":\"svc.rebalance\"}\n", "{\"t\":\"svc.batch\",\"n\":1}\n",
            "{\"t\":\"svc.snap\",\"policy\":\"hop\",\"flows\":0,\"warm\":0,\"ranges\":0,\"slots\":0}\n",
            "{\"t\":\"svc.snap.warm\",\"a\":[],\"b\":[]}\n{\"t\":\"svc.snap.range\",\"link\":[],\"start\":[],\"len\":[]}\n",
            "{\"t\":\"svc.snap.end\"}\n", "{\"t\":\"svc.release\",\"flow\":3}\n",
            "{\"t\":\"svc.admit\",\"id\":1,\"src\":4,\"dst\":0,\"rate_bps\":24000,\"burst\":60}\n",
        ];
        let mut gen = Gen(seed);
        let text: String = (0..gen.below(40)).map(|_| PIECES[gen.below(PIECES.len())]).collect();
        assert_decodes_or_fails_typed(&mesh(), &text)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// (b) Real journals, ten edits each: bytes replaced, lines swapped,
    /// repeated and deleted.
    #[test]
    fn edited_journals_never_panic(seed in any::<u64>()) {
        let mut gen = Gen(seed);
        let mesh = mesh();
        let ops = 1 + gen.below(12);
        let journal = churn_journal(&mut gen, &mesh, 4, ops);
        let whole = recover(&mesh, OrderPolicy::HopOrder, &journal).expect("recovers");
        assert_certified(&whole)?;
        for _ in 0..10 {
            let mut edited = gen.edit(&journal);
            if gen.below(3) == 0 {
                edited = gen.edit(&edited);
            }
            assert_decodes_or_fails_typed(&mesh, &edited)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (c) Whatever precedes the last snapshot — here, several earlier
    /// snapshots and the churn between them, or a snapshot after every
    /// mutation — changes nothing.
    #[test]
    fn recovery_depends_only_on_the_last_snapshot_and_its_tail(
        seed in any::<u64>(),
        snapshot_every in prop_oneof![Just(3u64), Just(1u64)],
    ) {
        let mut gen = Gen(seed);
        let mesh = mesh();
        let ops = 10 + gen.below(12);
        let journal = churn_journal(&mut gen, &mesh, snapshot_every, ops);
        prop_assume!(journal.matches("{\"t\":\"svc.snap\",").count() >= 3);
        let last = journal.rfind("{\"t\":\"svc.snap\",").expect("counted above");
        let whole = recover(&mesh, OrderPolicy::HopOrder, &journal).expect("recovers");
        let suffix = recover(&mesh, OrderPolicy::HopOrder, &journal[last..]).expect("recovers");
        prop_assert_eq!(whole.session.export_state(), suffix.session.export_state());
        prop_assert_eq!(whole.replayed, suffix.replayed);
        prop_assert!(whole.snapshot_used && suffix.snapshot_used);
        prop_assert_eq!(whole.report, suffix.report);
        // The policy the suffix no longer declares is in its snapshot.
        let recorded = recover_recorded(&mesh, &journal[last..]).expect("recovers");
        prop_assert_eq!(recorded.session.export_state(), whole.session.export_state());
    }
}

/// `journal` with its 1-based line `number` replaced by `line`.
fn with_line(journal: &str, number: usize, line: &str) -> String {
    let mut lines: Vec<&str> = journal.lines().collect();
    lines[number - 1] = line;
    lines.join("\n") + "\n"
}

/// (c) Snapshot A (five flows, its slot 0 on a 4-node path) and then a
/// snapshot B smaller in flows, pairs and ranges, whose slot 0 has a
/// shorter path, then a tail: recovery decodes B into A's rows, and must
/// keep nothing of A, and refuse a corrupt member line of B at its line.
#[test]
fn a_smaller_snapshot_after_a_larger_one_keeps_no_stale_rows() {
    let mesh = mesh();
    let buf = SharedBuf::default();
    let writer = JournalWriter::from_writer(Box::new(buf.clone()));
    let mut journaled = JournaledSession::new(mesh.session(OrderPolicy::HopOrder), writer, 0);
    let call = |id, src| FlowSpec::voip(id, NodeId(src), NodeId(0), VoipCodec::G729);
    let calls = [call(1, 7), call(2, 1), call(3, 8), call(4, 3), call(5, 5)];
    journaled.admit_flows(&calls).expect("admit");
    let a = journaled.session().export_state();
    journaled.snapshot_now().expect("snapshot A");
    for id in [1, 3, 5] {
        assert!(journaled.release_flow(FlowId(id)).expect("release"));
    }
    let b = journaled.session().export_state();
    let b_at = buf.text().len();
    journaled.snapshot_now().expect("snapshot B");
    journaled.admit_flows(&[call(6, 6)]).expect("admit");
    journaled.release_flow(FlowId(2)).expect("release");
    let journal = buf.text();

    assert_eq!(a.flows.len(), 5, "{journal}");
    assert_eq!(a.flows[0].path.len(), 4, "{journal}");
    assert!(b.flows[0].path.len() < a.flows[0].path.len(), "{journal}");
    assert!(b.flows.len() < a.flows.len(), "{journal}");
    assert!(b.warm_pairs.len() < a.warm_pairs.len(), "{journal}");
    assert!(b.ranges.len() < a.ranges.len(), "{journal}");
    assert!(
        !b.warm_pairs.is_empty() && !b.ranges.is_empty(),
        "{journal}"
    );

    let log = parse_journal(&journal).expect("parses");
    let snapshots: Vec<&JournalRecord> = log
        .records
        .iter()
        .filter(|r| matches!(r, JournalRecord::Snapshot(_)))
        .collect();
    assert_eq!(
        snapshots,
        [
            &JournalRecord::Snapshot(a),
            &JournalRecord::Snapshot(b.clone())
        ]
    );
    assert_eq!(log.replay_point().1, Some(&b));

    let whole = recover(&mesh, OrderPolicy::HopOrder, &journal).expect("recovers");
    let suffix = recover(&mesh, OrderPolicy::HopOrder, &journal[b_at..]).expect("recovers");
    assert_eq!(whole.session.export_state(), suffix.session.export_state());
    assert_eq!(
        whole.session.export_state(),
        journaled.session().export_state()
    );
    assert_eq!((whole.replayed, suffix.replayed), (2, 2));
    assert!(whole.snapshot_used && suffix.snapshot_used);
    assert_eq!(whole.report, suffix.report);

    // B's lines: its header, one line per flow, the pairs, the ranges.
    let header = journal[..b_at].lines().count() + 1;
    let slot0 = header + 1;
    let ranges = header + b.flows.len() + 2;
    let line = |number: usize| journal.lines().nth(number - 1).expect("a line");
    assert!(
        line(header).starts_with("{\"t\":\"svc.snap\","),
        "{journal}"
    );
    assert!(
        line(ranges).starts_with("{\"t\":\"svc.snap.range\","),
        "{journal}"
    );
    let path_at = line(slot0).find("\"path\":[").expect("a path");
    let empty_path = format!("{}\"path\":[]}}", &line(slot0)[..path_at]);
    let last_comma = line(ranges).rfind(',').expect("two ranges at least");
    let len_short = format!("{}]}}", &line(ranges)[..last_comma]);
    assert!(len_short.contains("\"len\":["), "{len_short}");
    for (number, bad) in [(slot0, empty_path), (ranges, len_short)] {
        let corrupt = with_line(&journal, number, &bad);
        assert_eq!(
            parse_journal(&corrupt).map_err(|e| e.line),
            Err(number as u32)
        );
        match recover(&mesh, OrderPolicy::HopOrder, &corrupt) {
            Err(RecoveryError::Corrupt { line, .. }) => assert_eq!(line, number as u32, "{bad}"),
            Err(other) => panic!("expected corruption at line {number}, got {other}"),
            Ok(_) => panic!("recovered a corrupt snapshot:\n{corrupt}"),
        }
    }
}
