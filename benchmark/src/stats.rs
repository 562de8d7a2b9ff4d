//! Exact order statistics over the harness's own per-op samples.

/// The percentiles a tail may be reported at, lowest first, each with
/// the divisor that gives the number of samples beyond it.
const TAILS: [(f64, usize); 4] = [
    (99.0, 100),
    (99.9, 1_000),
    (99.99, 10_000),
    (99.999, 100_000),
];

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    // The epsilon keeps binary fractions such as 99.9 from rounding an
    // exact rank up by one.
    let rank = (p * sorted.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest percentile of [`TAILS`] that still has at least ten
/// samples beyond it in a population of `n`, or `None` when even p99
/// does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .rfind(|(_, beyond_one_in)| n / beyond_one_in >= 10)
        .map(|(p, _)| *p)
}

/// Median of unsorted floats (mean of the middle pair when even).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Latency summary of one op type on one workload, in microseconds,
/// over the harness's exact per-operation samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencySummary {
    /// Samples in the timed window.
    pub count: usize,
    /// Median.
    pub p50_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// `(percentile, value)` of the highest percentile with at least
    /// ten samples beyond it.
    pub top: Option<(f64, f64)>,
    /// Largest sample.
    pub max_us: f64,
}

/// Summarises nanosecond samples (sorted in place).
pub fn summarize_ns(samples: &mut [u32]) -> Option<LatencySummary> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let us = |ns: u32| f64::from(ns) / 1000.0;
    let at = |p: f64| us(percentile(samples, p).expect("non-empty"));
    Some(LatencySummary {
        count: samples.len(),
        p50_us: at(50.0),
        p99_us: at(99.0),
        top: highest_supported_percentile(samples.len()).map(|p| (p, at(p))),
        max_us: us(*samples.last().expect("non-empty")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile::<u32>(&[], 50.0), None);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(999), None);
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
        assert_eq!(highest_supported_percentile(50_000_000), Some(99.999));
    }

    #[test]
    fn summary_reports_the_highest_supported_tail() {
        let mut ns: Vec<u32> = (1..=10_000).map(|i| i * 1_000).collect();
        let s = summarize_ns(&mut ns).unwrap();
        assert_eq!((s.count, s.p50_us, s.p99_us), (10_000, 5_000.0, 9_900.0));
        assert_eq!(s.top, Some((99.9, 9_990.0)));
        assert_eq!(s.max_us, 10_000.0);
        assert_eq!(summarize_ns(&mut []), None);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
