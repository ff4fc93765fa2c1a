//! A fixed-width histogram over unitless `u64` samples.
//!
//! The metrics registry's duration histograms and the simulator's delay
//! statistics share this one implementation; both record nanoseconds.

/// A histogram with `bins` equal-width bins starting at zero.
///
/// Samples at or beyond `bin_width * bins` land in a dedicated overflow
/// bin; exact `sum` and `max` are tracked separately so means and maxima
/// stay accurate even when samples overflow the binned range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedHistogram {
    bin_width: u64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
    sum: u128,
    max: u64,
}

impl FixedHistogram {
    /// Creates a histogram with `bins` bins of `bin_width` units each.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `bin_width == 0`.
    pub fn new(bin_width: u64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs bins");
        assert!(bin_width > 0, "histogram needs positive bin width");
        Self {
            bin_width,
            counts: vec![0; bins],
            overflow: 0,
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = (value / self.bin_width) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.total += 1;
        self.sum += u128::from(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Samples that exceeded the binned range.
    pub fn overflow_count(&self) -> u64 {
        self.overflow
    }

    /// Width of one bin, in sample units.
    pub fn bin_width(&self) -> u64 {
        self.bin_width
    }

    /// Number of regular (non-overflow) bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max_value(&self) -> u64 {
        self.max
    }

    /// Exact mean of all recorded samples, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            None
        } else {
            Some(self.sum as f64 / self.total as f64)
        }
    }

    /// The `q`-quantile (0.0..=1.0) as the upper edge of the bin where
    /// the quantile falls; quantiles landing in the overflow bin report
    /// the histogram's full binned range.
    ///
    /// Returns `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.total == 0 {
            return None;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(self.bin_width * (i as u64 + 1));
            }
        }
        Some(self.bin_width * self.counts.len() as u64)
    }

    /// Fraction of samples at or below `value` (empirical CDF, bin
    /// resolution). Queries at or beyond the binned range include the
    /// overflow bin.
    pub fn cdf_at(&self, value: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let idx = (value / self.bin_width) as usize;
        let mut below: u64 = self.counts.iter().take(idx + 1).sum();
        if idx >= self.counts.len() {
            below += self.overflow;
        }
        below as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_counts() {
        let mut h = FixedHistogram::new(10, 5);
        h.record(0);
        h.record(9);
        h.record(10);
        h.record(49);
        h.record(50); // overflow
        assert_eq!(h.count(), 5);
        assert_eq!(h.overflow_count(), 1);
        assert_eq!(h.max_value(), 50);
        assert_eq!(h.mean(), Some((9 + 10 + 49 + 50) as f64 / 5.0));
    }

    #[test]
    fn quantile_upper_edges() {
        let mut h = FixedHistogram::new(1, 100);
        for v in 0..100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(0.99), Some(99));
        assert_eq!(h.quantile(1.0), Some(100));
    }

    #[test]
    fn quantile_in_overflow_reports_full_range() {
        let mut h = FixedHistogram::new(1, 10);
        h.record(1_000);
        assert_eq!(h.quantile(0.5), Some(10));
    }

    #[test]
    fn cdf_counts_overflow_at_and_beyond_range() {
        let mut h = FixedHistogram::new(10, 10); // range [0, 100)
        h.record(5);
        h.record(95);
        h.record(1_000); // overflow
        assert!((h.cdf_at(9) - 1.0 / 3.0).abs() < 1e-9);
        assert!((h.cdf_at(99) - 2.0 / 3.0).abs() < 1e-9);
        // At the range boundary and beyond, overflow samples count.
        assert!((h.cdf_at(100) - 1.0).abs() < 1e-9);
        assert!((h.cdf_at(u64::MAX / 2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram() {
        let h = FixedHistogram::new(10, 10);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.cdf_at(50), 0.0);
        assert_eq!(h.mean(), None);
        assert_eq!(h.max_value(), 0);
    }

    #[test]
    #[should_panic(expected = "bins")]
    fn zero_bins_rejected() {
        FixedHistogram::new(10, 0);
    }
}
