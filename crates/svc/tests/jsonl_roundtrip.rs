//! Every line a writer emits, the reader reads back: seeded random
//! journal records of every kind, trace lines and sink lines are written
//! through `wimesh_obs::json::Object` and decoded again through
//! `wimesh_obs::reader::Cursor`, field by field, into the original.
//!
//! The values are chosen to stress the format: strings with quotes,
//! backslashes, control characters and non-ASCII text; `u32`/`u64`
//! extremes; and finite `f64`s that are negative, subnormal or past
//! `1e300`. The literal bytes of each line kind stay pinned by the unit
//! tests beside the writers (`journal.rs`, `sink.rs`).

use std::borrow::Cow;
use std::io::Write;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use proptest::prelude::*;
use wimesh::tdma::SlotRange;
use wimesh::{FlowSpec, FlowState, GreedyKey, OrderPolicy, SessionState};
use wimesh_obs::flight::{FlightDump, FlightEvent};
use wimesh_obs::hist::FixedHistogram;
use wimesh_obs::metrics::{GaugeState, MetricsSnapshot, SpanAgg};
use wimesh_obs::reader::{Cursor, JsonlError, JsonlReader};
use wimesh_obs::sink::{JsonlSink, Sink};
use wimesh_obs::slo::{SloStatus, SloVerdict};
use wimesh_obs::span::SpanEvent;
use wimesh_obs::trace::{TraceCtx, TraceEvent, TraceRecord};
use wimesh_sim::FlowId;
use wimesh_svc::{parse_journal, JournalRecord, JournalWriter};
use wimesh_topology::{LinkId, NodeId};

/// SplitMix64: every value of a case derives from the case's seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn u64(&mut self) -> u64 {
        match self.below(4) {
            0 => [0, 1, u64::MAX - 1, u64::MAX][self.below(4) as usize],
            1 => self.below(1000),
            _ => self.next(),
        }
    }

    fn u32(&mut self) -> u32 {
        match self.below(4) {
            0 => [0, 1, u32::MAX - 1, u32::MAX][self.below(4) as usize],
            1 => self.below(1000) as u32,
            _ => self.next() as u32,
        }
    }

    /// A finite, strictly positive `f64`: subnormal, huge, ordinary, or
    /// any bit pattern that is one.
    fn positive_f64(&mut self) -> f64 {
        let v = match self.below(5) {
            0 => f64::from_bits(1 + self.below(1 << 52)),
            1 => 1e300 * (1.0 + self.below(1000) as f64 / 10.0),
            2 => f64::MAX,
            3 => (1 + self.below(1_000_000)) as f64 / 3.0,
            _ => f64::from_bits(self.next() >> 1),
        };
        if v.is_finite() && v > 0.0 {
            v
        } else {
            f64::MIN_POSITIVE
        }
    }

    /// Any finite `f64`, negative ones included.
    fn finite_f64(&mut self) -> f64 {
        let v = match self.below(4) {
            0 => -self.positive_f64(),
            1 => [0.0, -0.0, f64::MIN, -f64::MIN_POSITIVE][self.below(4) as usize],
            2 => self.positive_f64(),
            _ => f64::from_bits(self.next()),
        };
        if v.is_finite() {
            v
        } else {
            -1.5
        }
    }

    fn string(&mut self) -> String {
        const PIECES: [&str; 16] = [
            "\"",
            "\\",
            "\n",
            "\r",
            "\t",
            "\u{0}",
            "\u{1f}",
            "\u{7f}",
            "\u{8}",
            "\u{c}",
            "é",
            "😀",
            "\u{2028}",
            "/",
            "a",
            "span.name",
        ];
        (0..self.below(8))
            .map(|_| PIECES[self.below(PIECES.len() as u64) as usize])
            .collect()
    }

    fn static_str(&mut self) -> &'static str {
        Box::leak(self.string().into_boxed_str())
    }

    fn spec(&mut self) -> FlowSpec {
        let deadline = (self.below(3) > 0).then(|| Duration::from_nanos(self.u64()));
        FlowSpec {
            id: FlowId(self.u32()),
            src: NodeId(self.u32()),
            dst: NodeId(self.u32()),
            rate_bps: self.positive_f64(),
            burst_bytes: self.u32(),
            deadline,
        }
    }

    fn policy(&mut self) -> OrderPolicy {
        let key = [
            GreedyKey::CliqueLoad,
            GreedyKey::HopCount,
            GreedyKey::Demand,
        ][self.below(3) as usize];
        match self.below(5) {
            0 => OrderPolicy::HopOrder,
            1 => OrderPolicy::ExactMilp,
            2 => OrderPolicy::LpRounding,
            3 => OrderPolicy::TreeOrder {
                gateway: NodeId(self.u32()),
            },
            _ => OrderPolicy::GreedySequential { key },
        }
    }

    fn record(&mut self) -> JournalRecord {
        match self.below(5) {
            0 => JournalRecord::AdmitBatch((0..1 + self.below(4)).map(|_| self.spec()).collect()),
            1 => JournalRecord::Release(FlowId(self.u32())),
            2 => JournalRecord::Rebalance,
            3 => JournalRecord::Policy(self.policy()),
            _ => JournalRecord::Snapshot(self.state()),
        }
    }

    fn state(&mut self) -> SessionState {
        let flows = (0..self.below(4))
            .map(|_| FlowState {
                spec: self.spec(),
                path: (0..1 + self.below(6)).map(|_| NodeId(self.u32())).collect(),
                slots_per_link: self.u32(),
            })
            .collect();
        let warm_pairs = (0..self.below(5))
            .map(|_| (LinkId(self.u32()), LinkId(self.u32())))
            .collect();
        let ranges = (0..self.below(5))
            .map(|_| {
                let len = 1 + self.u32() / 2;
                let start = self.u32().min(u32::MAX - len);
                (LinkId(self.u32()), SlotRange::new(start, len))
            })
            .collect();
        let mut state = SessionState {
            policy: self.policy(),
            flows,
            warm_pairs,
            ranges,
            guaranteed_slots: self.u32(),
        };
        match self.below(4) {
            // The pair and range columns empty.
            0 => {
                state.warm_pairs.clear();
                state.ranges.clear();
            }
            // Every node and link id at u32::MAX, every range ending there.
            1 => {
                let max = u32::MAX;
                for f in &mut state.flows {
                    f.path.fill(NodeId(max));
                }
                state.warm_pairs.fill((LinkId(max), LinkId(max)));
                state.ranges.fill((LinkId(max), SlotRange::new(max - 1, 1)));
                state.ranges.push((LinkId(max), SlotRange::new(0, max)));
            }
            _ => {}
        }
        state
    }
}

/// A `Write` handing the test a view of everything written so far.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn text(&self) -> String {
        let bytes = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        String::from_utf8(bytes.clone()).expect("the writers write UTF-8")
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

/// Everything a sink receives in one case, in the order it is written.
struct SinkInput {
    span: SpanEvent,
    metrics: MetricsSnapshot,
    trace: TraceEvent,
    flight: FlightDump,
    slo: SloVerdict,
}

fn sink_input(g: &mut Gen) -> SinkInput {
    let mut hist = FixedHistogram::new(1 + g.below(1000), 1 + g.below(64) as usize);
    for _ in 0..g.below(6) {
        hist.record(g.u64());
    }
    SinkInput {
        span: SpanEvent {
            name: g.static_str(),
            start_us: g.u64(),
            dur_ns: g.u64(),
            depth: g.u32(),
        },
        metrics: MetricsSnapshot {
            counters: vec![(g.string(), g.u64())],
            gauges: vec![(
                g.string(),
                GaugeState {
                    last: g.finite_f64(),
                    max: g.finite_f64(),
                },
            )],
            histograms: vec![(g.string(), hist)],
            spans: vec![(
                g.string(),
                SpanAgg {
                    count: g.u64(),
                    total_ns: g.u64(),
                    max_ns: g.u64(),
                },
            )],
        },
        trace: trace_event(g),
        flight: FlightDump {
            node: g.u64(),
            reason: g.string(),
            events: (0..g.below(3))
                .map(|_| FlightEvent {
                    t_ns: g.u64(),
                    lamport: g.u64(),
                    kind: g.static_str(),
                    a: g.u64(),
                    b: g.u64(),
                })
                .collect(),
            t_ns: g.u64(),
        },
        slo: SloVerdict {
            flow: g.u64(),
            status: [SloStatus::Met, SloStatus::Degraded, SloStatus::Violated][g.below(3) as usize],
            promised_slots: g.u32(),
            bound_ns: (g.below(2) == 0).then(|| g.u64()),
            max_delay_ns: g.u64(),
            margin_ns: g.next() as i64,
            delivered: g.u64(),
            dropped: g.u64(),
            frames_observed: g.u64(),
            frames_short: g.u64(),
        },
    }
}

fn trace_event(g: &mut Gen) -> TraceEvent {
    TraceEvent {
        ctx: TraceCtx {
            trace_id: g.u64(),
            span_id: g.u64(),
            parent_span: g.u64(),
            lamport: g.u64(),
        },
        kind: g.static_str(),
        node: g.u64(),
        t_ns: g.u64(),
    }
}

/// Opens `raw` and checks its tag.
fn open<'a>(raw: &'a str, tag: &str) -> Result<Cursor<'a>, JsonlError> {
    let mut c = Cursor::new(raw)?;
    let found = c.tag()?;
    if found != tag {
        return Err(c.error(format!("expected {tag}, found {found}")));
    }
    Ok(c)
}

/// Reads the sink's lines back and compares every field with `input`.
fn check_sink_lines(text: &str, input: &SinkInput) -> Result<(), JsonlError> {
    let lines: Vec<&str> = JsonlReader::new(text).map(|l| l.raw).collect();
    let expected_lines = 6 + 1 + input.flight.events.len() + 1;
    assert_eq!(lines.len(), expected_lines, "{text}");
    let same = |a: Cow<'_, str>, b: &str| assert_eq!(a, b);

    let mut c = open(lines[0], "span")?;
    same(c.str("name")?, input.span.name);
    assert_eq!(c.u64("start_us")?, input.span.start_us);
    assert_eq!(c.u64("dur_ns")?, input.span.dur_ns);
    assert_eq!(c.u32("depth")?, input.span.depth);
    c.end()?;

    let m = &input.metrics;
    let mut c = open(lines[1], "counter")?;
    same(c.str("name")?, &m.counters[0].0);
    assert_eq!(c.u64("value")?, m.counters[0].1);
    c.end()?;

    let (name, g) = &m.gauges[0];
    let mut c = open(lines[2], "gauge")?;
    same(c.str("name")?, name);
    assert_eq!(c.f64("last")?.to_bits(), g.last.to_bits());
    assert_eq!(c.f64("max")?.to_bits(), g.max.to_bits());
    c.end()?;

    let (name, h) = &m.histograms[0];
    let mut c = open(lines[3], "hist")?;
    same(c.str("name")?, name);
    assert_eq!(c.u64("count")?, h.count());
    assert_eq!(c.f64("mean_ns")?, h.mean().unwrap_or(0.0));
    assert_eq!(c.u64("p50_ns")?, h.quantile(0.5).unwrap_or(0));
    assert_eq!(c.u64("p99_ns")?, h.quantile(0.99).unwrap_or(0));
    assert_eq!(c.u64("max_ns")?, h.max_value());
    assert_eq!(c.u64("overflow")?, h.overflow_count());
    c.end()?;

    let (name, agg) = &m.spans[0];
    let mut c = open(lines[4], "span_agg")?;
    same(c.str("name")?, name);
    assert_eq!(c.u64("count")?, agg.count);
    assert_eq!(c.u64("total_ns")?, agg.total_ns);
    assert_eq!(c.u64("max_ns")?, agg.max_ns);
    c.end()?;

    let parsed = TraceRecord::parse_jsonl(lines[5]).expect("the trace line reads back");
    assert_eq!(parsed, TraceRecord::from(&input.trace));

    let f = &input.flight;
    let mut c = open(lines[6], "flight")?;
    assert_eq!(c.u64("node")?, f.node);
    same(c.str("reason")?, &f.reason);
    assert_eq!(c.u64("t_ns")?, f.t_ns);
    assert_eq!(c.u64("events")?, f.events.len() as u64);
    c.end()?;
    for (i, e) in f.events.iter().enumerate() {
        let mut c = open(lines[7 + i], "flight_ev")?;
        assert_eq!(c.u64("node")?, f.node);
        assert_eq!(c.u64("i")?, i as u64);
        assert_eq!(c.u64("t_ns")?, e.t_ns);
        assert_eq!(c.u64("lamport")?, e.lamport);
        same(c.str("kind")?, e.kind);
        assert_eq!(c.u64("a")?, e.a);
        assert_eq!(c.u64("b")?, e.b);
        c.end()?;
    }

    let v = &input.slo;
    let mut c = open(lines[expected_lines - 1], "slo")?;
    assert_eq!(c.u64("flow")?, v.flow);
    same(c.str("status")?, &v.status.to_string());
    assert_eq!(c.u32("promised_slots")?, v.promised_slots);
    assert_eq!(c.optional_u64("bound_ns")?, v.bound_ns);
    assert_eq!(c.u64("max_delay_ns")?, v.max_delay_ns);
    // The reader has no signed integers: as a number, the margin rounds
    // exactly as the integer does.
    assert_eq!(c.f64("margin_ns")?, v.margin_ns as f64);
    assert_eq!(c.u64("delivered")?, v.delivered);
    assert_eq!(c.u64("dropped")?, v.dropped);
    assert_eq!(c.u64("frames_observed")?, v.frames_observed);
    assert_eq!(c.u64("frames_short")?, v.frames_short);
    c.end()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A journal of random records of every kind parses back into the
    /// same records, with the rates bit for bit.
    #[test]
    fn journal_records_read_back_as_written(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let records: Vec<JournalRecord> = (0..1 + g.below(6)).map(|_| g.record()).collect();
        let buf = SharedBuf::default();
        let mut writer = JournalWriter::from_writer(Box::new(buf.clone()));
        for record in &records {
            writer.append(record).expect("a readable record is written");
        }
        let text = buf.text();
        let log = parse_journal(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        prop_assert!(!log.torn_tail);
        prop_assert_eq!(&log.records, &records);
        let rates = |records: &[JournalRecord]| -> Vec<u64> {
            records
                .iter()
                .flat_map(|r| match r {
                    JournalRecord::AdmitBatch(specs) => specs.iter().collect::<Vec<_>>(),
                    JournalRecord::Snapshot(s) => s.flows.iter().map(|f| &f.spec).collect(),
                    _ => Vec::new(),
                })
                .map(|s| s.rate_bps.to_bits())
                .collect()
        };
        prop_assert_eq!(rates(&log.records), rates(&records));
    }

    /// A trace line reads back into the event it was written from.
    #[test]
    fn trace_lines_read_back_as_written(seed in any::<u64>()) {
        let event = trace_event(&mut Gen(seed));
        let parsed = TraceRecord::parse_jsonl(&event.to_jsonl());
        prop_assert_eq!(parsed, Some(TraceRecord::from(&event)));
    }

    /// Every line kind a `JsonlSink` writes reads back field by field.
    #[test]
    fn sink_lines_read_back_as_written(seed in any::<u64>()) {
        let input = sink_input(&mut Gen(seed));
        let buf = SharedBuf::default();
        let sink = JsonlSink::from_writer(Box::new(buf.clone()));
        sink.on_span(&input.span);
        sink.on_metrics(&input.metrics);
        sink.on_trace(&input.trace);
        sink.on_flight(&input.flight);
        sink.on_slo(&input.slo);
        sink.flush();
        let text = buf.text();
        check_sink_lines(&text, &input).unwrap_or_else(|e| panic!("{e}\n{text}"));
    }
}
