//! Log-bucketed latency histogram for the evaluation harness.
//!
//! The paper reports 90th-percentile latencies (Figures 5b and 6b).
//! This histogram uses 16 sub-buckets per power of two, bounding the
//! relative quantile error at 1/16 ≈ 6.25%, with O(1) recording and no
//! allocation after construction. Histograms are kept per worker thread
//! and merged after the run, so recording needs no synchronization.

/// Values below this are stored in exact unit buckets.
const LINEAR_LIMIT: u64 = 16;
/// Sub-buckets per power of two above the linear range.
const SUB_BUCKETS: usize = 16;
/// Highest representable exponent (2^40 ns ≈ 18 minutes).
const MAX_EXPONENT: u32 = 40;
/// Total bucket count. Shared with `metrics::ConcurrentHistogram`,
/// whose stripes use the same bucket layout so they fold losslessly
/// into a [`Histogram`].
pub(crate) const NUM_BUCKETS: usize =
    LINEAR_LIMIT as usize + (MAX_EXPONENT as usize - 4) * SUB_BUCKETS;

/// A fixed-size logarithmic histogram of `u64` samples (typically
/// nanoseconds).
///
/// # Examples
///
/// ```
/// let mut h = clsm_util::histogram::Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.percentile(50.0);
/// assert!((450..=560).contains(&p50), "p50 = {p50}");
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    pub(crate) fn bucket_index(value: u64) -> usize {
        if value < LINEAR_LIMIT {
            return value as usize;
        }
        // `g` = number of significant bits, ≥ 5 here.
        let g = 64 - value.leading_zeros();
        let g = g.min(MAX_EXPONENT);
        let shifted = (value >> (g - 5)) as usize & (SUB_BUCKETS - 1);
        LINEAR_LIMIT as usize + (g as usize - 5) * SUB_BUCKETS + shifted
    }

    /// Upper bound of the bucket at `index` (used as the reported
    /// quantile value, making percentiles conservative).
    fn bucket_upper_bound(index: usize) -> u64 {
        if index < LINEAR_LIMIT as usize {
            return index as u64;
        }
        let rel = index - LINEAR_LIMIT as usize;
        let g = (rel / SUB_BUCKETS) as u32 + 5;
        let sub = (rel % SUB_BUCKETS) as u64;
        let low = (1u64 << (g - 1)) + (sub << (g - 5));
        low + (1u64 << (g - 5)) - 1
    }

    /// Rebuilds a histogram from raw parts (a `ConcurrentHistogram`
    /// stripe fold). `buckets` must use this type's bucket layout.
    pub(crate) fn from_raw(buckets: Vec<u64>, count: u64, sum: u64, min: u64, max: u64) -> Self {
        debug_assert_eq!(buckets.len(), NUM_BUCKETS);
        Histogram {
            buckets,
            count,
            sum,
            min,
            max,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (saturating).
    pub(crate) fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of the recorded samples (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at percentile `p` (e.g. `90.0`), conservative upward.
    ///
    /// Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let threshold = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= threshold {
                return Self::bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_benign() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(90.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn exact_in_linear_range() {
        let mut h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.1), 0);
        assert_eq!(h.percentile(100.0), 15);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
    }

    #[test]
    fn bounded_relative_error() {
        let mut h = Histogram::new();
        let value = 1_000_000u64;
        for _ in 0..100 {
            h.record(value);
        }
        let p = h.percentile(50.0);
        assert!(p >= value, "conservative upward: {p}");
        assert!((p - value) as f64 / value as f64 <= 1.0 / 16.0 + 1e-9);
    }

    #[test]
    fn percentiles_are_ordered() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 7);
        }
        let p50 = h.percentile(50.0);
        let p90 = h.percentile(90.0);
        let p99 = h.percentile(99.0);
        assert!(p50 <= p90 && p90 <= p99);
        assert!(p99 <= h.max());
    }

    #[test]
    fn merge_equals_union() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in 1..1000u64 {
            if v % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        for p in [10.0, 50.0, 90.0, 99.0] {
            assert_eq!(a.percentile(p), whole.percentile(p));
        }
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn giant_values_saturate_gracefully() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(1);
        assert_eq!(h.count(), 2);
        assert!(h.percentile(100.0) >= 1);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn bucket_bounds_are_monotone() {
        let mut last = 0;
        for i in 0..NUM_BUCKETS {
            let ub = Histogram::bucket_upper_bound(i);
            assert!(ub >= last, "bucket {i}: {ub} < {last}");
            last = ub;
        }
    }

    #[test]
    fn index_maps_value_into_its_bucket_bounds() {
        for v in [0u64, 1, 15, 16, 17, 100, 1023, 1024, 1_000_000, 1 << 39] {
            let i = Histogram::bucket_index(v);
            let ub = Histogram::bucket_upper_bound(i);
            assert!(v <= ub, "v={v} i={i} ub={ub}");
        }
    }
}
