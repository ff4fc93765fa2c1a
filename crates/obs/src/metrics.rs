//! The process-global metrics registry: counters, gauges, duration
//! histograms and per-span aggregates.
//!
//! Names are `&'static str` (dotted paths like `"milp.simplex.pivots"`)
//! so recording never allocates past a name's first use. The registry
//! is one mutex over plain name-sorted maps, taken through
//! [`crate::sync::lock`] once per recording call. Instrumented code
//! keeps hot-loop tallies in locals and publishes once per call, so the
//! lock is taken at call granularity, and only while a sink is
//! installed.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

use crate::hist::FixedHistogram;
use crate::sync::lock;

/// Default duration histogram geometry: 20 µs bins spanning 40 ms.
/// Overflow samples keep exact mean/max via [`FixedHistogram`].
const DURATION_BIN_WIDTH_NS: u64 = 20_000;
const DURATION_BINS: usize = 2_000;

/// A gauge's observed state: the most recent value and the largest value
/// ever set (the high-water mark).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeState {
    /// Most recently set value.
    pub last: f64,
    /// Largest value ever set.
    pub max: f64,
}

/// Aggregate over all closed spans of one name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanAgg {
    /// Spans closed.
    pub count: u64,
    /// Total time spent inside, nanoseconds.
    pub total_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
}

/// A point-in-time copy of the whole registry, sorted by name within
/// each section.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, state)` for every gauge.
    pub gauges: Vec<(String, GaugeState)>,
    /// `(name, histogram)` for every duration histogram (nanoseconds).
    pub histograms: Vec<(String, FixedHistogram)>,
    /// `(name, aggregate)` for every span name seen.
    pub spans: Vec<(String, SpanAgg)>,
}

impl MetricsSnapshot {
    /// True when nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }
}

struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, GaugeState>,
    histograms: BTreeMap<&'static str, FixedHistogram>,
    spans: BTreeMap<&'static str, SpanAgg>,
}

impl Registry {
    const EMPTY: Registry = Registry {
        counters: BTreeMap::new(),
        gauges: BTreeMap::new(),
        histograms: BTreeMap::new(),
        spans: BTreeMap::new(),
    };
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry::EMPTY);

pub(crate) fn counter_add(name: &'static str, delta: u64) {
    let mut reg = lock(&REGISTRY);
    let count = reg.counters.entry(name).or_insert(0);
    *count = count.wrapping_add(delta);
}

pub(crate) fn gauge_set(name: &'static str, value: f64) {
    let mut reg = lock(&REGISTRY);
    // The first set is both last and max; a NaN never raises the max.
    let gauge = reg.gauges.entry(name).or_insert(GaugeState {
        last: value,
        max: value,
    });
    gauge.last = value;
    if value > gauge.max {
        gauge.max = value;
    }
}

pub(crate) fn record_duration(name: &'static str, d: Duration) {
    let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    lock(&REGISTRY)
        .histograms
        .entry(name)
        .or_insert_with(|| FixedHistogram::new(DURATION_BIN_WIDTH_NS, DURATION_BINS))
        .record(ns);
}

pub(crate) fn span_closed(name: &'static str, dur: Duration) {
    let ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
    let mut reg = lock(&REGISTRY);
    let agg = reg.spans.entry(name).or_default();
    agg.count += 1;
    agg.total_ns = agg.total_ns.saturating_add(ns);
    agg.max_ns = agg.max_ns.max(ns);
}

/// Copies the registry into a snapshot, sorted by name. One lock covers
/// all four sections, so they agree with each other.
pub fn snapshot() -> MetricsSnapshot {
    fn copy<T: Clone>(map: &BTreeMap<&'static str, T>) -> Vec<(String, T)> {
        map.iter()
            .map(|(n, v)| (n.to_string(), v.clone()))
            .collect()
    }
    let reg = lock(&REGISTRY);
    MetricsSnapshot {
        counters: copy(&reg.counters),
        gauges: copy(&reg.gauges),
        histograms: copy(&reg.histograms),
        spans: copy(&reg.spans),
    }
}

/// Empties the registry.
pub(crate) fn clear() {
    *lock(&REGISTRY) = Registry::EMPTY;
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests bypass the enabled-check by calling the crate-private
    // recording functions directly, so they need no installed sink and
    // use unique names to stay independent of other tests.

    #[test]
    fn counters_accumulate() {
        let _guard = crate::test_lock::hold();
        counter_add("metrics.test.counter", 2);
        counter_add("metrics.test.counter", 3);
        let snap = snapshot();
        let (_, v) = snap
            .counters
            .iter()
            .find(|(n, _)| n == "metrics.test.counter")
            .expect("counter present");
        assert_eq!(*v, 5);
    }

    #[test]
    fn gauges_track_last_and_high_water() {
        let _guard = crate::test_lock::hold();
        gauge_set("metrics.test.gauge", 4.0);
        gauge_set("metrics.test.gauge", 9.0);
        gauge_set("metrics.test.gauge", 2.0);
        let snap = snapshot();
        let (_, g) = snap
            .gauges
            .iter()
            .find(|(n, _)| n == "metrics.test.gauge")
            .expect("gauge present");
        assert_eq!(g.last, 2.0);
        assert_eq!(g.max, 9.0);
    }

    #[test]
    fn counters_wrap_and_a_nan_never_raises_a_gauge() {
        let _guard = crate::test_lock::hold();
        counter_add("metrics.test.wrap", u64::MAX);
        counter_add("metrics.test.wrap", 2);
        gauge_set("metrics.test.nan_later", 1.0);
        gauge_set("metrics.test.nan_later", f64::NAN);
        gauge_set("metrics.test.nan_first", f64::NAN);
        gauge_set("metrics.test.nan_first", 5.0);
        let snap = snapshot();
        let counter = |name| snap.counters.iter().find(|(n, _)| n == name).map(|c| c.1);
        let gauge = |name| snap.gauges.iter().find(|(n, _)| n == name).map(|g| g.1);
        assert_eq!(counter("metrics.test.wrap"), Some(1));
        let later = gauge("metrics.test.nan_later").expect("gauge present");
        assert!(later.last.is_nan());
        assert_eq!(later.max, 1.0);
        // The first set is the max, even a NaN, and nothing compares above it.
        let first = gauge("metrics.test.nan_first").expect("gauge present");
        assert_eq!(first.last, 5.0);
        assert!(first.max.is_nan());
    }

    #[test]
    fn durations_feed_histograms() {
        let _guard = crate::test_lock::hold();
        record_duration("metrics.test.hist", Duration::from_micros(30));
        record_duration("metrics.test.hist", Duration::from_micros(70));
        let snap = snapshot();
        let (_, h) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "metrics.test.hist")
            .expect("histogram present");
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean(), Some(50_000.0));
        assert_eq!(h.max_value(), 70_000);
    }

    #[test]
    fn span_aggregates_roll_up() {
        let _guard = crate::test_lock::hold();
        span_closed("metrics.test.span", Duration::from_micros(10));
        span_closed("metrics.test.span", Duration::from_micros(30));
        let snap = snapshot();
        let (_, agg) = snap
            .spans
            .iter()
            .find(|(n, _)| n == "metrics.test.span")
            .expect("span agg present");
        assert_eq!(agg.count, 2);
        assert_eq!(agg.total_ns, 40_000);
        assert_eq!(agg.max_ns, 30_000);
    }

    #[test]
    fn snapshot_is_sorted() {
        let _guard = crate::test_lock::hold();
        counter_add("metrics.test.zz", 1);
        counter_add("metrics.test.aa", 1);
        let snap = snapshot();
        let names: Vec<_> = snap.counters.iter().map(|(n, _)| n.clone()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn concurrent_counter_increments_are_lossless() {
        let _guard = crate::test_lock::hold();
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..PER_THREAD {
                        counter_add("metrics.test.concurrent", 1);
                    }
                });
            }
        });
        let snap = snapshot();
        let (_, v) = snap
            .counters
            .iter()
            .find(|(n, _)| n == "metrics.test.concurrent")
            .expect("counter present");
        assert_eq!(*v, THREADS as u64 * PER_THREAD);
    }

    #[test]
    fn concurrent_gauge_high_water_is_exact() {
        let _guard = crate::test_lock::hold();
        std::thread::scope(|s| {
            for t in 0..8u32 {
                s.spawn(move || {
                    for i in 0..1_000u32 {
                        gauge_set("metrics.test.gauge.concurrent", f64::from(t * 1_000 + i));
                    }
                });
            }
        });
        let snap = snapshot();
        let (_, g) = snap
            .gauges
            .iter()
            .find(|(n, _)| n == "metrics.test.gauge.concurrent")
            .expect("gauge present");
        assert_eq!(g.max, 7_999.0);
    }
}
