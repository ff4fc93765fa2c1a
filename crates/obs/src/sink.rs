//! Event sinks: where spans and metrics snapshots go.
//!
//! Three implementations cover the workspace's needs: [`NoopSink`]
//! (explicitly discard), [`MemorySink`] (test assertions), and
//! [`JsonlSink`] (one JSON object per line, written by
//! [`crate::json::Object`]).

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::flight::FlightDump;
use crate::json::Object;
use crate::metrics::MetricsSnapshot;
use crate::slo::SloVerdict;
use crate::span::SpanEvent;
use crate::sync::lock;
use crate::trace::TraceEvent;

/// Destination for instrumentation events.
///
/// Implementations must be `Send + Sync`; handlers run on whichever
/// thread closes a span. Handlers must not install or remove sinks.
pub trait Sink: Send + Sync {
    /// Called once per closed span, in close order per thread.
    fn on_span(&self, event: &SpanEvent);

    /// Called with the final registry snapshot by [`crate::finish`].
    fn on_metrics(&self, snapshot: &MetricsSnapshot);

    /// Called once per emitted causal trace event (default: ignored).
    fn on_trace(&self, _event: &TraceEvent) {}

    /// Called once per flight-recorder dump (default: ignored).
    fn on_flight(&self, _dump: &FlightDump) {}

    /// Called once per emitted SLO verdict (default: ignored).
    fn on_slo(&self, _verdict: &SloVerdict) {}

    /// Flushes buffered output (default: nothing to flush).
    fn flush(&self) {}
}

/// Discards everything.
///
/// Installing this sink keeps the recording machinery on (registry
/// updates still happen) while producing no output; leaving no sink
/// installed at all is cheaper still (see the crate-level overhead
/// policy).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn on_span(&self, _event: &SpanEvent) {}
    fn on_metrics(&self, _snapshot: &MetricsSnapshot) {}
}

/// Buffers every event in memory for test assertions.
#[derive(Debug, Default)]
pub struct MemorySink {
    spans: Mutex<Vec<SpanEvent>>,
    snapshots: Mutex<Vec<MetricsSnapshot>>,
    traces: Mutex<Vec<TraceEvent>>,
    flights: Mutex<Vec<FlightDump>>,
}

impl MemorySink {
    /// All span events received so far, in arrival order.
    pub fn span_events(&self) -> Vec<SpanEvent> {
        lock(&self.spans).clone()
    }

    /// The names of all received spans, in arrival order.
    pub fn span_names(&self) -> Vec<&'static str> {
        self.span_events().iter().map(|e| e.name).collect()
    }

    /// All metrics snapshots received so far.
    pub fn metrics_snapshots(&self) -> Vec<MetricsSnapshot> {
        lock(&self.snapshots).clone()
    }

    /// All causal trace events received so far, in arrival order.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        lock(&self.traces).clone()
    }

    /// All flight-recorder dumps received so far.
    pub fn flight_dumps(&self) -> Vec<FlightDump> {
        lock(&self.flights).clone()
    }
}

impl Sink for MemorySink {
    fn on_span(&self, event: &SpanEvent) {
        lock(&self.spans).push(*event);
    }

    fn on_metrics(&self, snapshot: &MetricsSnapshot) {
        lock(&self.snapshots).push(snapshot.clone());
    }

    fn on_trace(&self, event: &TraceEvent) {
        lock(&self.traces).push(*event);
    }

    fn on_flight(&self, dump: &FlightDump) {
        lock(&self.flights).push(dump.clone());
    }
}

/// Streams events as JSON Lines to a writer (typically a file).
///
/// Line shapes:
///
/// ```text
/// {"t":"span","name":"...","start_us":N,"dur_ns":N,"depth":N}
/// {"t":"counter","name":"...","value":N}
/// {"t":"gauge","name":"...","last":X,"max":X}
/// {"t":"hist","name":"...","count":N,"mean_ns":X,"p50_ns":N,"p99_ns":N,"max_ns":N,"overflow":N}
/// {"t":"span_agg","name":"...","count":N,"total_ns":N,"max_ns":N}
/// {"t":"trace","trace":N,"span":N,"parent":N,"lamport":N,"kind":"...","node":N,"t_ns":N}
/// {"t":"flight","node":N,"reason":"...","t_ns":N,"events":K}
/// {"t":"flight_ev","node":N,"i":N,"t_ns":N,"lamport":N,"kind":"...","a":N,"b":N}
/// {"t":"slo","flow":N,"status":"...","promised_slots":N,"bound_ns":N,"max_delay_ns":N,"margin_ns":N,"delivered":N,"dropped":N,"frames_observed":N,"frames_short":N}
/// ```
///
/// Each line is one [`Object::record`]. An `slo` line for a flow promised
/// no bound has no `bound_ns` (once `null`, which a `Cursor` refuses;
/// absent is what [`crate::reader::Cursor::optional_u64`] reads).
///
/// The sink flushes on drop, so a short-lived process that never calls
/// [`crate::finish`] still gets its final buffered records on disk.
pub struct JsonlSink {
    writer: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl JsonlSink {
    /// Creates (truncating) the trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::from_writer(Box::new(file)))
    }

    /// Wraps an arbitrary writer (used by tests with `Vec<u8>`-backed
    /// writers).
    pub fn from_writer(writer: Box<dyn Write + Send>) -> Self {
        Self {
            writer: Mutex::new(BufWriter::new(writer)),
        }
    }

    fn write_line(&self, line: &str) {
        let mut w = lock(&self.writer);
        // A failed trace write must never abort the traced program.
        let _ = writeln!(w, "{line}");
    }

    /// Writes one line: the record `tag`, then the fields `fill` writes.
    fn write_record(&self, tag: &str, fill: impl FnOnce(&mut Object<'_>)) {
        let mut line = String::with_capacity(128);
        fill(&mut Object::record(&mut line, tag));
        self.write_line(&line);
    }
}

impl Sink for JsonlSink {
    fn on_span(&self, event: &SpanEvent) {
        self.write_record("span", |o| {
            o.str("name", event.name)
                .int("start_us", event.start_us)
                .int("dur_ns", event.dur_ns)
                .int("depth", event.depth);
        });
    }

    fn on_metrics(&self, snapshot: &MetricsSnapshot) {
        for (name, value) in &snapshot.counters {
            self.write_record("counter", |o| {
                o.str("name", name).int("value", *value);
            });
        }
        for (name, g) in &snapshot.gauges {
            self.write_record("gauge", |o| {
                o.str("name", name).f64("last", g.last).f64("max", g.max);
            });
        }
        for (name, h) in &snapshot.histograms {
            self.write_record("hist", |o| {
                o.str("name", name)
                    .int("count", h.count())
                    .f64("mean_ns", h.mean().unwrap_or(0.0))
                    .int("p50_ns", h.quantile(0.5).unwrap_or(0))
                    .int("p99_ns", h.quantile(0.99).unwrap_or(0))
                    .int("max_ns", h.max_value())
                    .int("overflow", h.overflow_count());
            });
        }
        for (name, agg) in &snapshot.spans {
            self.write_record("span_agg", |o| {
                o.str("name", name)
                    .int("count", agg.count)
                    .int("total_ns", agg.total_ns)
                    .int("max_ns", agg.max_ns);
            });
        }
    }

    fn on_trace(&self, event: &TraceEvent) {
        self.write_line(&event.to_jsonl());
    }

    fn on_flight(&self, dump: &FlightDump) {
        self.write_record("flight", |o| {
            o.int("node", dump.node)
                .str("reason", &dump.reason)
                .int("t_ns", dump.t_ns)
                .int("events", dump.events.len() as u64);
        });
        for (i, e) in dump.events.iter().enumerate() {
            self.write_record("flight_ev", |o| {
                o.int("node", dump.node)
                    .int("i", i as u64)
                    .int("t_ns", e.t_ns)
                    .int("lamport", e.lamport)
                    .str("kind", e.kind)
                    .int("a", e.a)
                    .int("b", e.b);
            });
        }
    }

    fn on_slo(&self, verdict: &SloVerdict) {
        self.write_record("slo", |o| {
            o.int("flow", verdict.flow)
                .str("status", &verdict.status.to_string())
                .int("promised_slots", verdict.promised_slots);
            if let Some(bound) = verdict.bound_ns {
                o.int("bound_ns", bound);
            }
            o.int("max_delay_ns", verdict.max_delay_ns)
                .int("margin_ns", verdict.margin_ns)
                .int("delivered", verdict.delivered)
                .int("dropped", verdict.dropped)
                .int("frames_observed", verdict.frames_observed)
                .int("frames_short", verdict.frames_short);
        });
    }

    fn flush(&self) {
        let _ = lock(&self.writer).flush();
    }
}

impl Drop for JsonlSink {
    /// Flush-on-drop guard: short-lived processes (examples, `--quick`
    /// bench runs) that exit without calling [`crate::finish`] must
    /// never truncate the final buffered record.
    fn drop(&mut self) {
        Sink::flush(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{GaugeState, SpanAgg};
    use std::sync::Arc;

    /// A Write that appends into a shared buffer.
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn sample_snapshot() -> MetricsSnapshot {
        let mut hist = crate::hist::FixedHistogram::new(1_000, 100);
        hist.record(5_000);
        hist.record(500_000); // overflow
        MetricsSnapshot {
            counters: vec![("c.one".into(), 7)],
            gauges: vec![(
                "g.two".into(),
                GaugeState {
                    last: 1.5,
                    max: 9.0,
                },
            )],
            histograms: vec![("h.three".into(), hist)],
            spans: vec![(
                "s.four".into(),
                SpanAgg {
                    count: 2,
                    total_ns: 300,
                    max_ns: 200,
                },
            )],
        }
    }

    #[test]
    fn jsonl_lines_have_expected_shape() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = JsonlSink::from_writer(Box::new(SharedBuf(buf.clone())));
        sink.on_span(&SpanEvent {
            name: "quote\"d",
            start_us: 12,
            dur_ns: 345,
            depth: 1,
        });
        sink.on_metrics(&sample_snapshot());
        sink.flush();

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(
            lines[0],
            r#"{"t":"span","name":"quote\"d","start_us":12,"dur_ns":345,"depth":1}"#
        );
        assert_eq!(lines[1], r#"{"t":"counter","name":"c.one","value":7}"#);
        assert_eq!(
            lines[2],
            r#"{"t":"gauge","name":"g.two","last":1.5,"max":9}"#
        );
        assert!(lines[3].starts_with(r#"{"t":"hist","name":"h.three","count":2"#));
        assert!(lines[3].contains("\"overflow\":1"));
        assert_eq!(
            lines[4],
            r#"{"t":"span_agg","name":"s.four","count":2,"total_ns":300,"max_ns":200}"#
        );
        // Every line is balanced-brace, minimal JSON-object sanity.
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "balanced braces in {line}"
            );
        }
    }

    #[test]
    fn memory_sink_records_in_order() {
        let sink = MemorySink::default();
        for (i, name) in ["a", "b", "c"].iter().enumerate() {
            sink.on_span(&SpanEvent {
                name,
                start_us: i as u64,
                dur_ns: 1,
                depth: 0,
            });
        }
        assert_eq!(sink.span_names(), vec!["a", "b", "c"]);
        sink.on_metrics(&sample_snapshot());
        assert_eq!(sink.metrics_snapshots().len(), 1);
    }

    #[test]
    fn jsonl_writes_trace_flight_and_slo_lines() {
        use crate::flight::{FlightDump, FlightEvent};
        use crate::slo::{SloStatus, SloVerdict};
        use crate::trace::{TraceCtx, TraceRecord};

        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = JsonlSink::from_writer(Box::new(SharedBuf(buf.clone())));
        let event = crate::trace::TraceEvent {
            ctx: TraceCtx::root(3, 1).child(4, 2),
            kind: "dsch.grant",
            node: 6,
            t_ns: 1_000,
        };
        sink.on_trace(&event);
        sink.on_flight(&FlightDump {
            node: 6,
            reason: "collision".to_string(),
            events: vec![FlightEvent {
                t_ns: 900,
                lamport: 1,
                kind: "rx.dsch",
                a: 2,
                b: 3,
            }],
            t_ns: 1_000,
        });
        sink.on_slo(&SloVerdict {
            flow: 1,
            status: SloStatus::Met,
            promised_slots: 4,
            bound_ns: Some(80_000_000),
            max_delay_ns: 2_000_000,
            margin_ns: 78_000_000,
            delivered: 10,
            dropped: 0,
            frames_observed: 5,
            frames_short: 0,
        });
        sink.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // The trace line round-trips through the parser.
        assert_eq!(
            TraceRecord::parse_jsonl(lines[0]).expect("trace line parses"),
            TraceRecord::from(&event)
        );
        assert_eq!(
            lines[1],
            r#"{"t":"flight","node":6,"reason":"collision","t_ns":1000,"events":1}"#
        );
        assert_eq!(
            lines[2],
            r#"{"t":"flight_ev","node":6,"i":0,"t_ns":900,"lamport":1,"kind":"rx.dsch","a":2,"b":3}"#
        );
        assert_eq!(
            lines[3],
            r#"{"t":"slo","flow":1,"status":"met","promised_slots":4,"bound_ns":80000000,"max_delay_ns":2000000,"margin_ns":78000000,"delivered":10,"dropped":0,"frames_observed":5,"frames_short":0}"#
        );
    }

    #[test]
    fn jsonl_flushes_on_drop() {
        // Satellite fix: a sink dropped without finish()/flush() must
        // still land its buffered lines in the writer.
        let buf = Arc::new(Mutex::new(Vec::new()));
        {
            let sink = JsonlSink::from_writer(Box::new(SharedBuf(buf.clone())));
            sink.on_span(&SpanEvent {
                name: "short.lived",
                start_us: 0,
                dur_ns: 10,
                depth: 0,
            });
            // No flush, no finish: the Drop impl must save the line.
        }
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(text.contains("short.lived"));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn noop_sink_accepts_everything() {
        let sink = NoopSink;
        sink.on_span(&SpanEvent {
            name: "x",
            start_us: 0,
            dur_ns: 0,
            depth: 0,
        });
        sink.on_metrics(&sample_snapshot());
        sink.flush();
    }
}
