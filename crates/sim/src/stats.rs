//! Per-flow statistics: delay distribution, jitter, loss, throughput.

use std::time::Duration;

use crate::SimTime;

/// A fixed-width histogram over durations, used for delay percentiles.
///
/// Bins are `bin_width` wide starting at zero; values beyond the last bin
/// land in an overflow bin whose midpoint is reported pessimistically.
/// The binning itself is delegated to [`wimesh_obs::hist::FixedHistogram`]
/// (nanosecond units) so the simulator and the observability layer share
/// one implementation.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: wimesh_obs::hist::FixedHistogram,
}

/// Converts a duration to histogram units (nanoseconds), saturating.
fn to_ns(value: Duration) -> u64 {
    u64::try_from(value.as_nanos()).unwrap_or(u64::MAX)
}

impl Histogram {
    /// Creates a histogram with `bins` bins of `bin_width` each.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`, `bin_width` is zero, or `bin_width` does
    /// not fit in 64-bit nanoseconds.
    pub fn new(bin_width: Duration, bins: usize) -> Self {
        let width_ns =
            u64::try_from(bin_width.as_nanos()).expect("bin width must fit in u64 nanoseconds");
        assert!(width_ns > 0, "histogram needs positive bin width");
        Self {
            inner: wimesh_obs::hist::FixedHistogram::new(width_ns, bins),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: Duration) {
        self.inner.record(to_ns(value));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    /// Samples that exceeded the histogram range.
    pub fn overflow_count(&self) -> u64 {
        self.inner.overflow_count()
    }

    /// The `q`-quantile (0.0..=1.0) as the upper edge of the bin where the
    /// quantile falls; overflow reports the histogram's full range.
    ///
    /// Returns `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        self.inner.quantile(q).map(Duration::from_nanos)
    }

    /// Fraction of samples at or below `value` (empirical CDF, bin
    /// resolution). Queries at or beyond the binned range include
    /// overflow samples, so `cdf_at(large)` converges to 1.0.
    pub fn cdf_at(&self, value: Duration) -> f64 {
        self.inner.cdf_at(to_ns(value))
    }
}

/// Running statistics for one traffic flow.
///
/// Created by the simulation harnesses; read by the experiment drivers
/// and, after a run, by SLO audits (`delivered`, `dropped`,
/// `max_delay`).
#[derive(Debug, Clone)]
pub struct FlowStats {
    sent: u64,
    delivered: u64,
    dropped: u64,
    bytes_delivered: u64,
    delay_sum: Duration,
    delay_max: Duration,
    /// Mean absolute delay difference between consecutive deliveries
    /// (RFC 3550-style jitter accumulator).
    jitter_sum: Duration,
    last_delay: Option<Duration>,
    histogram: Histogram,
    first_delivery: Option<SimTime>,
    last_delivery: Option<SimTime>,
}

impl FlowStats {
    /// Creates empty statistics with a delay histogram of `bins` bins of
    /// `bin_width` each.
    pub fn new(bin_width: Duration, bins: usize) -> Self {
        Self {
            sent: 0,
            delivered: 0,
            dropped: 0,
            bytes_delivered: 0,
            delay_sum: Duration::ZERO,
            delay_max: Duration::ZERO,
            jitter_sum: Duration::ZERO,
            last_delay: None,
            histogram: Histogram::new(bin_width, bins),
            first_delivery: None,
            last_delivery: None,
        }
    }

    /// Default configuration for VoIP-scale delays: 1 ms bins up to 2 s.
    pub fn for_voip() -> Self {
        Self::new(Duration::from_millis(1), 2000)
    }

    /// Records a packet entering the network.
    pub fn record_sent(&mut self) {
        self.sent += 1;
    }

    /// Records a packet dropped anywhere along its path.
    pub fn record_dropped(&mut self) {
        self.dropped += 1;
    }

    /// Records an end-to-end delivery at time `now` with one-way delay
    /// `delay` and `bytes` payload bytes.
    pub fn record_delivered(&mut self, now: SimTime, delay: Duration, bytes: u32) {
        self.delivered += 1;
        self.bytes_delivered += bytes as u64;
        self.delay_sum += delay;
        self.delay_max = self.delay_max.max(delay);
        self.histogram.record(delay);
        if let Some(prev) = self.last_delay {
            let diff = delay.abs_diff(prev);
            self.jitter_sum += diff;
        }
        self.last_delay = Some(delay);
        if self.first_delivery.is_none() {
            self.first_delivery = Some(now);
        }
        self.last_delivery = Some(now);
    }

    /// Packets sent.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Packets delivered end to end.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Packets dropped.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Loss fraction among packets whose fate is known.
    pub fn loss_rate(&self) -> f64 {
        let settled = self.delivered + self.dropped;
        if settled == 0 {
            0.0
        } else {
            self.dropped as f64 / settled as f64
        }
    }

    /// Mean one-way delay, `None` before the first delivery.
    pub fn mean_delay(&self) -> Option<Duration> {
        if self.delivered == 0 {
            None
        } else {
            Some(self.delay_sum / self.delivered as u32)
        }
    }

    /// Maximum observed one-way delay.
    pub fn max_delay(&self) -> Duration {
        self.delay_max
    }

    /// Delay quantile from the histogram (`None` before the first
    /// delivery).
    pub fn delay_quantile(&self, q: f64) -> Option<Duration> {
        self.histogram.quantile(q)
    }

    /// Mean absolute difference between consecutive delays.
    pub fn mean_jitter(&self) -> Option<Duration> {
        if self.delivered < 2 {
            None
        } else {
            Some(self.jitter_sum / (self.delivered - 1) as u32)
        }
    }

    /// Delivered goodput in bits per second over the delivery window.
    pub fn goodput_bps(&self) -> f64 {
        match (self.first_delivery, self.last_delivery) {
            (Some(a), Some(b)) if b > a => {
                self.bytes_delivered as f64 * 8.0 / (b - a).as_secs_f64()
            }
            _ => 0.0,
        }
    }

    /// The underlying delay histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.histogram
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(Duration::from_millis(1), 100);
        for ms in 1..=100u64 {
            h.record(Duration::from_micros(ms * 1000 - 500)); // mid-bin
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.5), Some(Duration::from_millis(50)));
        assert_eq!(h.quantile(0.99), Some(Duration::from_millis(99)));
        assert_eq!(h.quantile(1.0), Some(Duration::from_millis(100)));
        assert!(h.quantile(0.0).unwrap() <= Duration::from_millis(1));
    }

    #[test]
    fn histogram_overflow() {
        let mut h = Histogram::new(Duration::from_millis(1), 10);
        h.record(Duration::from_secs(5));
        assert_eq!(h.overflow_count(), 1);
        assert_eq!(h.quantile(0.5), Some(Duration::from_millis(10)));
    }

    #[test]
    fn histogram_cdf() {
        let mut h = Histogram::new(Duration::from_millis(1), 10);
        h.record(Duration::from_micros(500));
        h.record(Duration::from_micros(2500));
        assert!((h.cdf_at(Duration::from_millis(1)) - 0.5).abs() < 1e-9);
        assert!((h.cdf_at(Duration::from_millis(5)) - 1.0).abs() < 1e-9);
        let empty = Histogram::new(Duration::from_millis(1), 10);
        assert_eq!(empty.cdf_at(Duration::from_millis(1)), 0.0);
    }

    #[test]
    fn cdf_includes_overflow_beyond_range() {
        // Regression: overflow samples were never counted by cdf_at, so
        // the CDF of a histogram with overflow could not reach 1.0 even
        // for queries far beyond the binned range.
        let mut h = Histogram::new(Duration::from_millis(1), 10); // range 10 ms
        h.record(Duration::from_micros(500));
        h.record(Duration::from_secs(5)); // overflow
        assert_eq!(h.overflow_count(), 1);
        assert!((h.cdf_at(Duration::from_millis(9)) - 0.5).abs() < 1e-9);
        assert!((h.cdf_at(Duration::from_millis(10)) - 1.0).abs() < 1e-9);
        assert!((h.cdf_at(Duration::from_secs(60)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn flow_stats_basics() {
        let mut s = FlowStats::for_voip();
        s.record_sent();
        s.record_sent();
        s.record_sent();
        s.record_delivered(SimTime::from_millis(10), Duration::from_millis(5), 200);
        s.record_delivered(SimTime::from_millis(30), Duration::from_millis(7), 200);
        s.record_dropped();
        assert_eq!(s.sent(), 3);
        assert_eq!(s.delivered(), 2);
        assert_eq!(s.dropped(), 1);
        assert!((s.loss_rate() - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.mean_delay(), Some(Duration::from_millis(6)));
        assert_eq!(s.max_delay(), Duration::from_millis(7));
        assert_eq!(s.mean_jitter(), Some(Duration::from_millis(2)));
        // 400 bytes over 20 ms = 160 kbit/s.
        assert!((s.goodput_bps() - 160_000.0).abs() < 1.0);
    }

    #[test]
    fn empty_stats() {
        let s = FlowStats::for_voip();
        assert_eq!(s.mean_delay(), None);
        assert_eq!(s.mean_jitter(), None);
        assert_eq!(s.loss_rate(), 0.0);
        assert_eq!(s.goodput_bps(), 0.0);
        assert_eq!(s.delay_quantile(0.5), None);
    }
}
