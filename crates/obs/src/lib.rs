//! wimesh-obs: zero-dependency tracing, metrics and JSONL
//! instrumentation for the wimesh workspace.
//!
//! The crate provides three layers:
//!
//! * **Spans** — [`span!`] opens a named, monotonic-clock-timed region
//!   closed by an RAII guard. Spans nest per thread (each event carries
//!   its nesting depth) and are streamed to the installed sink as they
//!   close.
//! * **Metrics** — a process-global registry, one mutex over plain maps,
//!   of named counters, gauges (last value + high-water mark), duration
//!   histograms backed by the fixed-width [`hist::FixedHistogram`] and
//!   span aggregates. Hot paths record local aggregates and publish once
//!   per call, not once per inner-loop iteration.
//! * **Sinks** — [`sink::Sink`] implementations decide where events go:
//!   [`sink::MemorySink`] for test assertions, [`sink::JsonlSink`] for
//!   machine-readable traces (written by [`json::Object`], read back by
//!   [`reader::Cursor`]; no serde), or nothing at all.
//!
//! Three distributed-observability layers build on the same sink
//! plumbing:
//!
//! * **Causal traces** — a [`trace::TraceCtx`] rides on every fabric
//!   message of the node runtime; [`trace::TraceForest`] rebuilds and
//!   renders the cross-node tree (beacon floods, MSH-DSCH handshakes,
//!   repair sequences) from memory or JSONL.
//! * **Flight recorder** — [`flight::FlightRecorder`] keeps each
//!   node's last-N control-plane events in a fixed ring and ships them
//!   only when an anomaly trips (collision, guard breach, re-route).
//! * **SLO audit** — [`slo::FlowSloTracker`] compares admission-time
//!   promises (slots, delay bound) against observed delivery and returns
//!   typed [`slo::SloVerdict`]s. It is a value its auditor owns (the
//!   node runtime keeps one), not process-global state; a caller that
//!   wants verdicts in the sink passes them to [`sink::Sink::on_slo`].
//!
//! [`sync::lock`] is how every workspace crate takes a `Mutex`, and
//! [`sync::lock_outer`] how it takes the one lock others may nest under:
//! both recover from poison and, in debug builds, panic on any other
//! nesting.
//!
//! # Overhead policy
//!
//! With no sink installed (the default) every instrumentation call —
//! [`span!`], [`counter_add`], [`gauge_set`], [`record_duration`] — is
//! one relaxed atomic load plus a branch: no allocation, no lock, no
//! clock read. Instrumentation is therefore safe to leave in release
//! binaries and benchmark kernels.
//!
//! # Typical lifecycle
//!
//! ```
//! use std::sync::Arc;
//!
//! let sink = Arc::new(wimesh_obs::sink::MemorySink::default());
//! wimesh_obs::install(sink.clone());
//! {
//!     let _outer = wimesh_obs::span!("demo.outer");
//!     let _inner = wimesh_obs::span!("demo.inner");
//!     wimesh_obs::counter_add("demo.widgets", 3);
//! }
//! let report = wimesh_obs::summary();
//! assert!(report.contains("demo.widgets"));
//! wimesh_obs::finish();
//! # assert!(sink.span_names().contains(&"demo.inner"));
//! ```

#![warn(missing_docs)]

pub mod flight;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod reader;
pub mod report;
pub mod sink;
pub mod slo;
pub mod span;
pub mod sync;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};

use sink::Sink;

/// Fast-path switch: `true` only while a sink is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed sink. Guarded by its own lock so the hot path never
/// touches it unless [`ENABLED`] says instrumentation is on.
static SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);

/// Process epoch for span timestamps (fixed on first use).
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Whether a sink is currently installed.
///
/// Every recording entry point checks this first; when it is `false`
/// the call returns immediately (one relaxed atomic load + branch).
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The instant all span timestamps are measured from.
pub(crate) fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Installs `sink` as the process-global event destination and enables
/// instrumentation. Replaces any previously installed sink.
pub fn install(sink: Arc<dyn Sink>) {
    epoch(); // pin the time origin no later than installation
    *SINK.write().expect("obs sink lock poisoned") = Some(sink);
    // Relaxed: enable flag guards only the sink RwLock read; a stale false merely skips one event.
    ENABLED.store(true, Ordering::Relaxed);
}

/// Flushes a final metrics snapshot to the sink, disables
/// instrumentation and removes the sink, returning it.
///
/// Returns `None` if no sink was installed. The registry keeps its
/// contents (call [`reset`] to clear between runs).
pub fn finish() -> Option<Arc<dyn Sink>> {
    let snap = metrics::snapshot();
    with_sink(|s| {
        s.on_metrics(&snap);
        s.flush();
    });
    ENABLED.store(false, Ordering::Relaxed);
    SINK.write().expect("obs sink lock poisoned").take()
}

/// Clears every counter, gauge, histogram and span aggregate.
pub fn reset() {
    metrics::clear();
}

/// Renders the current registry contents as a human-readable report.
pub fn summary() -> String {
    report::render(&metrics::snapshot())
}

/// Runs `f` against the installed sink, if any.
///
/// The sink read-lock is held for the duration of `f`; sinks must not
/// call [`install`]/[`finish`] from their event handlers.
pub(crate) fn with_sink(f: impl FnOnce(&dyn Sink)) {
    if let Some(sink) = &*SINK.read().expect("obs sink lock poisoned") {
        f(&**sink);
    }
}

/// Adds `delta` to the named counter (no-op while disabled).
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    metrics::counter_add(name, delta);
}

/// Increments the named counter by one (no-op while disabled).
#[inline]
pub fn counter_inc(name: &'static str) {
    counter_add(name, 1);
}

/// Sets the named gauge, updating its high-water mark (no-op while
/// disabled).
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if !is_enabled() {
        return;
    }
    metrics::gauge_set(name, value);
}

/// Records one duration sample into the named histogram (no-op while
/// disabled).
#[inline]
pub fn record_duration(name: &'static str, d: Duration) {
    if !is_enabled() {
        return;
    }
    metrics::record_duration(name, d);
}

/// Opens a timed span; returns an RAII guard that closes it.
///
/// ```
/// fn solve() {
///     let _span = wimesh_obs::span!("milp.solve");
///     // ... work measured until `_span` drops ...
/// }
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard};

    /// Serializes tests that install the process-global sink.
    static LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sink::MemorySink;

    #[test]
    fn disabled_calls_are_noops() {
        let _guard = test_lock::hold();
        assert!(!is_enabled());
        counter_add("lib.disabled", 5);
        gauge_set("lib.disabled", 1.0);
        record_duration("lib.disabled", Duration::from_millis(1));
        let _span = span!("lib.disabled");
        drop(_span);
        // Nothing must have reached the registry.
        let snap = metrics::snapshot();
        assert!(snap.counters.iter().all(|(n, _)| n != "lib.disabled"));
        assert!(snap.spans.iter().all(|(n, _)| n != "lib.disabled"));
    }

    #[test]
    fn install_finish_roundtrip() {
        let _guard = test_lock::hold();
        reset();
        let sink = Arc::new(MemorySink::default());
        install(sink.clone());
        assert!(is_enabled());
        counter_add("lib.roundtrip", 2);
        {
            let _s = span!("lib.roundtrip.span");
        }
        let got = finish();
        assert!(got.is_some());
        assert!(!is_enabled());
        assert!(sink.span_names().contains(&"lib.roundtrip.span"));
        let snaps = sink.metrics_snapshots();
        assert_eq!(snaps.len(), 1);
        assert!(snaps[0]
            .counters
            .iter()
            .any(|(n, v)| n == "lib.roundtrip" && *v == 2));
        reset();
    }

    #[test]
    fn summary_mentions_recorded_metrics() {
        let _guard = test_lock::hold();
        reset();
        install(Arc::new(MemorySink::default()));
        counter_add("lib.summary.counter", 7);
        gauge_set("lib.summary.gauge", 3.5);
        record_duration("lib.summary.hist", Duration::from_micros(120));
        let text = summary();
        finish();
        reset();
        assert!(text.contains("lib.summary.counter"));
        assert!(text.contains("lib.summary.gauge"));
        assert!(text.contains("lib.summary.hist"));
    }
}
