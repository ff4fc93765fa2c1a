//! The process-global metrics registry: counters, gauges, duration
//! histograms and per-span aggregates.
//!
//! Names are `&'static str` (dotted paths like `"milp.simplex.pivots"`)
//! so recording never allocates. Counters and gauges are lock-free on
//! the hot path: each name maps to an `Arc`'d atomic cell, and a
//! recording call takes a brief read lock only to look the cell up
//! (a write lock once, on first registration), then updates it with
//! relaxed atomics. That keeps concurrent recording — the gateway's
//! worker thread next to the thread that drives the process — from
//! serializing on a registry mutex. Histograms and span aggregates
//! mutate multiple words per record, so they stay behind a mutex;
//! instrumented code keeps hot-loop tallies in locals and publishes
//! once per call, so those locks are taken at call granularity.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, RwLock};
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

/// Live storage for one gauge: `f64` bit patterns in atomics so
/// concurrent `gauge_set` calls need no lock. `last` is a plain store
/// (whichever thread writes last wins — exactly the serial semantics
/// under any interleaving); `max` is a compare-and-swap raise loop, so
/// the high-water mark is exact regardless of write order.
struct GaugeCell {
    last: AtomicU64,
    max: AtomicU64,
}

impl GaugeCell {
    fn new(value: f64) -> Self {
        let bits = value.to_bits();
        Self {
            last: AtomicU64::new(bits),
            max: AtomicU64::new(bits),
        }
    }

    fn set(&self, value: f64) {
        // Relaxed: gauge cell; readers tolerate a stale last value, no data is published through it.
        self.last.store(value.to_bits(), Ordering::Relaxed);
        let mut cur = self.max.load(Ordering::Relaxed);
        while value > f64::from_bits(cur) {
            // Relaxed: monotonic max raised by CAS; readers tolerate a momentarily stale max.
            match self.max.compare_exchange_weak(
                cur,
                value.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(observed) => cur = observed,
            }
        }
    }

    fn load(&self) -> GaugeState {
        GaugeState {
            last: f64::from_bits(self.last.load(Ordering::Relaxed)),
            max: f64::from_bits(self.max.load(Ordering::Relaxed)),
        }
    }
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

/// Why two snapshots could not be merged: a histogram shared by name
/// between them has mismatched bin geometry, so a bin-wise sum would
/// silently misattribute samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMergeError {
    /// Name of the offending histogram.
    pub name: String,
    /// The underlying geometry mismatch.
    pub source: crate::hist::MergeError,
}

// `?` and `Box<dyn Error>` need it: a missing impl fails here with E0277.
const _: fn(&SnapshotMergeError) -> &dyn std::error::Error = |e| e;

impl fmt::Display for SnapshotMergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "snapshot merge: histogram {:?}: {}",
            self.name, self.source
        )
    }
}

impl Error for SnapshotMergeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.source)
    }
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

    /// Folds `other` into `self`, name by name, preserving sorted order.
    ///
    /// Used by the parallel experiment runner to fuse the per-worker
    /// snapshots captured at join into one report. Per section:
    ///
    /// * counters — summed;
    /// * gauges — high-water marks take the max of both sides; `last`
    ///   takes `other`'s value when the name appears there (merge order
    ///   stands in for write order, which is unobservable across
    ///   workers);
    /// * histograms — bin-wise sums via [`FixedHistogram::merge`]
    ///   (all registry histograms share one geometry);
    /// * spans — counts and totals summed, max of maxima.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotMergeError`] — leaving `self` completely
    /// untouched — when a histogram shared by name has mismatched bin
    /// geometry. Snapshots taken from the registry always share one
    /// geometry; hand-built snapshots may not, and used to be merged
    /// silently wrong.
    pub fn merge(&mut self, other: &MetricsSnapshot) -> Result<(), SnapshotMergeError> {
        // Validate every shared histogram before mutating anything, so
        // a failed merge cannot leave a half-combined snapshot behind.
        for (name, rhs) in &other.histograms {
            if let Ok(i) = self
                .histograms
                .binary_search_by(|(n, _)| n.as_str().cmp(name))
            {
                self.histograms[i]
                    .1
                    .check_geometry(rhs)
                    .map_err(|source| SnapshotMergeError {
                        name: name.clone(),
                        source,
                    })?;
            }
        }
        fn fold<T: Clone>(
            dst: &mut Vec<(String, T)>,
            src: &[(String, T)],
            combine: impl Fn(&mut T, &T),
        ) {
            for (name, rhs) in src {
                match dst.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                    Ok(i) => combine(&mut dst[i].1, rhs),
                    Err(i) => dst.insert(i, (name.clone(), rhs.clone())),
                }
            }
        }
        fold(&mut self.counters, &other.counters, |a, b| *a += b);
        fold(&mut self.gauges, &other.gauges, |a, b| {
            a.last = b.last;
            a.max = a.max.max(b.max);
        });
        fold(&mut self.histograms, &other.histograms, |a, b| {
            // Geometry was pre-validated above; a mismatch here is
            // unreachable, and ignoring the Ok(()) keeps fold generic.
            let _ = a.merge(b);
        });
        fold(&mut self.spans, &other.spans, |a, b| {
            a.count += b.count;
            a.total_ns = a.total_ns.saturating_add(b.total_ns);
            a.max_ns = a.max_ns.max(b.max_ns);
        });
        Ok(())
    }
}

#[derive(Default)]
struct Registry {
    counters: RwLock<BTreeMap<&'static str, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<&'static str, Arc<GaugeCell>>>,
    histograms: Mutex<BTreeMap<&'static str, FixedHistogram>>,
    spans: Mutex<BTreeMap<&'static str, SpanAgg>>,
}

static REGISTRY: LazyLock<Registry> = LazyLock::new(Registry::default);

/// Looks up (or registers) the named cell in a `RwLock`'d map and
/// returns a clone of its `Arc`, so the atomic update itself happens
/// outside any lock.
fn cell<T>(
    map: &RwLock<BTreeMap<&'static str, Arc<T>>>,
    name: &'static str,
    init: impl FnOnce() -> T,
) -> Arc<T> {
    if let Some(c) = map
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .get(name)
        .cloned()
    {
        return c;
    }
    map.write()
        .unwrap_or_else(|e| e.into_inner())
        .entry(name)
        .or_insert_with(|| Arc::new(init()))
        .clone()
}

pub(crate) fn counter_add(name: &'static str, delta: u64) {
    // Relaxed: stats counter; snapshot readers tolerate slightly stale totals.
    cell(&REGISTRY.counters, name, || AtomicU64::new(0)).fetch_add(delta, Ordering::Relaxed);
}

pub(crate) fn gauge_set(name: &'static str, value: f64) {
    // First registration records `value` as both last and max; the
    // `set` after is then a no-op raise, keeping the fast path uniform.
    cell(&REGISTRY.gauges, name, || GaugeCell::new(value)).set(value);
}

pub(crate) fn record_duration(name: &'static str, d: Duration) {
    let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    lock(&REGISTRY.histograms)
        .entry(name)
        .or_insert_with(|| FixedHistogram::new(DURATION_BIN_WIDTH_NS, DURATION_BINS))
        .record(ns);
}

pub(crate) fn span_closed(name: &'static str, dur: Duration) {
    let ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
    let mut spans = lock(&REGISTRY.spans);
    let agg = spans.entry(name).or_default();
    agg.count += 1;
    agg.total_ns = agg.total_ns.saturating_add(ns);
    agg.max_ns = agg.max_ns.max(ns);
}

/// Copies the registry into a snapshot, sorted by name.
pub fn snapshot() -> MetricsSnapshot {
    // One statement per map: a guard lives to the end of its statement,
    // and this thread may hold one registry mutex at a time.
    let counters = REGISTRY
        .counters
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(n, v)| (n.to_string(), v.load(Ordering::Relaxed)))
        .collect();
    let gauges = REGISTRY
        .gauges
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(n, g)| (n.to_string(), g.load()))
        .collect();
    let histograms = lock(&REGISTRY.histograms)
        .iter()
        .map(|(n, h)| (n.to_string(), h.clone()))
        .collect();
    let spans = lock(&REGISTRY.spans)
        .iter()
        .map(|(n, a)| (n.to_string(), *a))
        .collect();
    MetricsSnapshot {
        counters,
        gauges,
        histograms,
        spans,
    }
}

/// Empties the registry.
pub(crate) fn clear() {
    REGISTRY
        .counters
        .write()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
    REGISTRY
        .gauges
        .write()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
    lock(&REGISTRY.histograms).clear();
    lock(&REGISTRY.spans).clear();
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

    #[test]
    fn snapshot_merge_combines_sections() {
        let mut a = MetricsSnapshot {
            counters: vec![("c.only_a".into(), 1), ("c.shared".into(), 10)],
            gauges: vec![(
                "g.shared".into(),
                GaugeState {
                    last: 3.0,
                    max: 8.0,
                },
            )],
            histograms: Vec::new(),
            spans: vec![(
                "s.shared".into(),
                SpanAgg {
                    count: 2,
                    total_ns: 100,
                    max_ns: 60,
                },
            )],
        };
        let mut h = FixedHistogram::new(10, 4);
        h.record(5);
        let b = MetricsSnapshot {
            counters: vec![("c.only_b".into(), 7), ("c.shared".into(), 5)],
            gauges: vec![(
                "g.shared".into(),
                GaugeState {
                    last: 4.0,
                    max: 6.0,
                },
            )],
            histograms: vec![("h.only_b".into(), h)],
            spans: vec![(
                "s.shared".into(),
                SpanAgg {
                    count: 1,
                    total_ns: 90,
                    max_ns: 90,
                },
            )],
        };
        a.merge(&b).expect("shared geometry merges");
        assert_eq!(
            a.counters,
            vec![
                ("c.only_a".to_string(), 1),
                ("c.only_b".to_string(), 7),
                ("c.shared".to_string(), 15),
            ]
        );
        assert_eq!(a.gauges[0].1.last, 4.0);
        assert_eq!(a.gauges[0].1.max, 8.0);
        assert_eq!(a.histograms.len(), 1);
        assert_eq!(a.histograms[0].1.count(), 1);
        let s = a.spans[0].1;
        assert_eq!((s.count, s.total_ns, s.max_ns), (3, 190, 90));
    }

    #[test]
    fn snapshot_merge_rejects_mismatched_histograms_untouched() {
        // Regression: hand-built snapshots with same-named histograms
        // of different geometry used to merge silently wrong (or die on
        // an assert deep inside the histogram). The merge must now fail
        // with a typed error naming the histogram and leave the
        // destination byte-for-byte intact — including sections that
        // would have merged before the offending name.
        let mut narrow = FixedHistogram::new(10, 4);
        narrow.record(5);
        let mut wide = FixedHistogram::new(20, 4);
        wide.record(5);
        let mut a = MetricsSnapshot {
            counters: vec![("c.shared".into(), 1)],
            gauges: Vec::new(),
            histograms: vec![("h.shared".into(), narrow.clone())],
            spans: Vec::new(),
        };
        let b = MetricsSnapshot {
            counters: vec![("c.shared".into(), 5)],
            gauges: Vec::new(),
            histograms: vec![("h.shared".into(), wide)],
            spans: Vec::new(),
        };
        let before = (a.counters.clone(), a.histograms.clone());
        let err = a.merge(&b).expect_err("geometry mismatch must fail");
        assert_eq!(err.name, "h.shared");
        assert!(err.to_string().contains("h.shared"));
        assert!(std::error::Error::source(&err).is_some());
        assert_eq!((a.counters.clone(), a.histograms.clone()), before);
        // Disjoint histogram names never conflict, whatever the shape.
        let c = MetricsSnapshot {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: vec![("h.other".into(), FixedHistogram::new(999, 2))],
            spans: Vec::new(),
        };
        a.merge(&c).expect("disjoint names merge");
        assert_eq!(a.histograms.len(), 2);
    }
}
