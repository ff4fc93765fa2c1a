//! Order statistics over latency samples.

/// Percentiles the benchmark may report as a tail, ascending, each with
/// the samples per thousand that lie beyond it.
const TAILS: [(f64, usize); 5] = [(75.0, 250), (90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1)];

/// Samples a percentile needs beyond it before it is trusted.
const MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAILS`] that leaves at least ten of `n`
/// samples beyond it (`None` below 40 samples, where not even p75 does).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .filter(|(_, beyond)| n * beyond >= MIN_BEYOND * 1000)
        .map(|&(p, _)| p)
        .next_back()
}

/// Nearest-rank percentile of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted floats (mean of the middle two for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A latency distribution: median, and the tail percentile actually
/// used (p99 when the sample supports it, else the highest that does).
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    pub samples: usize,
    pub p50_ns: u64,
    pub tail_ns: u64,
    pub tail_percentile: f64,
}

/// Summarises `samples` (sorted in place), capping the tail at p99 so
/// the metric keeps one meaning across workloads.
pub fn summarize(samples: &mut [u64]) -> Option<LatencySummary> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let tail_percentile = highest_supported_percentile(samples.len())
        .unwrap_or(50.0)
        .min(99.0);
    Some(LatencySummary {
        samples: samples.len(),
        p50_ns: percentile(samples, 50.0),
        tail_ns: percentile(samples, tail_percentile),
        tail_percentile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(39), None);
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(60), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn summary_caps_the_tail_at_p99() {
        let mut v: Vec<u64> = (1..=20_000).rev().collect();
        let s = summarize(&mut v).expect("samples");
        assert_eq!(s.tail_percentile, 99.0);
        assert_eq!(s.p50_ns, 10_000);
        assert_eq!(s.tail_ns, 19_800);
        let mut few: Vec<u64> = (1..=60).collect();
        assert_eq!(summarize(&mut few).expect("samples").tail_percentile, 75.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
