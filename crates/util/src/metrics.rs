//! Lock-free observability primitives: counters, gauges, and
//! thread-striped concurrent histograms behind a [`MetricsRegistry`].
//!
//! The store's hot paths (get/put on every thread) record latencies and
//! counts with **no locks and no shared cache-line contention**:
//!
//! - [`Counter`] and [`Gauge`] are single relaxed atomics — adequate
//!   for values bumped rarely or from one thread (flush counts, stall
//!   time).
//! - [`ConcurrentHistogram`] is the hot-path workhorse: samples land in
//!   one of [`STRIPES`] independent bucket arrays chosen per thread, so
//!   concurrent recorders on different threads touch disjoint cache
//!   lines. Recording is a handful of relaxed `fetch_add`s into the
//!   same log-bucket layout as [`Histogram`], and a snapshot folds all
//!   stripes into an ordinary [`Histogram`] for percentile queries.
//!
//! Registration happens once at startup (it takes a mutex); the
//! returned `Arc`'d primitives are then recorded through directly —
//! the registry is never touched on an operation path. Snapshots
//! ([`MetricsRegistry::snapshot`]) are read-only and render to
//! human-readable text or JSON.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::histogram::{Histogram, NUM_BUCKETS};

/// Number of independent bucket arrays in a [`ConcurrentHistogram`].
///
/// Threads are assigned stripes round-robin; with more threads than
/// stripes, distinct threads share a stripe and contend only on its
/// relaxed atomics. 16 covers the paper's thread counts without
/// sharing.
pub const STRIPES: usize = 16;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// An instantaneous level that can move both ways (queue depths,
/// active-set occupancy).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a gauge at zero.
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Relaxed);
    }

    /// Moves the level up.
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Moves the level down.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Relaxed)
    }
}

/// One stripe's bucket array plus summary atomics. Separate heap
/// allocations per stripe keep recorders on different stripes off each
/// other's cache lines.
struct Stripe {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Stripe {
    fn new() -> Self {
        Stripe {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Returns this thread's stripe slot, assigned round-robin on first
/// use.
fn stripe_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Relaxed) % STRIPES;
    }
    SLOT.try_with(|s| *s).unwrap_or(0)
}

/// A histogram safe to record into from any number of threads
/// concurrently, with the same bucket layout (and thus the same
/// quantile error bound) as [`Histogram`].
///
/// # Examples
///
/// ```
/// use clsm_util::metrics::ConcurrentHistogram;
///
/// let h = ConcurrentHistogram::new();
/// h.record(250);
/// h.record(750);
/// let snap = h.snapshot();
/// assert_eq!(snap.count(), 2);
/// assert!(snap.percentile(99.0) >= 750);
/// ```
pub struct ConcurrentHistogram {
    stripes: Vec<Stripe>,
}

impl Default for ConcurrentHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        ConcurrentHistogram {
            stripes: (0..STRIPES).map(|_| Stripe::new()).collect(),
        }
    }

    /// Records one sample. Lock-free: a few relaxed atomic adds on this
    /// thread's stripe.
    pub fn record(&self, value: u64) {
        let stripe = &self.stripes[stripe_index()];
        stripe.buckets[Histogram::bucket_index(value)].fetch_add(1, Relaxed);
        stripe.count.fetch_add(1, Relaxed);
        stripe.sum.fetch_add(value, Relaxed);
        stripe.min.fetch_min(value, Relaxed);
        stripe.max.fetch_max(value, Relaxed);
    }

    /// Records a duration as nanoseconds (saturating).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Folds all stripes into a plain [`Histogram`] for querying.
    ///
    /// Concurrent recorders may land on either side of the fold; the
    /// result is a consistent-enough point-in-time view (each sample is
    /// counted exactly once across successive snapshots of a quiescent
    /// histogram).
    pub fn snapshot(&self) -> Histogram {
        let mut buckets = vec![0u64; NUM_BUCKETS];
        let mut count = 0u64;
        let mut sum = 0u64;
        let mut min = u64::MAX;
        let mut max = 0u64;
        for stripe in &self.stripes {
            for (acc, b) in buckets.iter_mut().zip(&stripe.buckets) {
                *acc += b.load(Relaxed);
            }
            count += stripe.count.load(Relaxed);
            sum = sum.saturating_add(stripe.sum.load(Relaxed));
            min = min.min(stripe.min.load(Relaxed));
            max = max.max(stripe.max.load(Relaxed));
        }
        Histogram::from_raw(buckets, count, sum, min, max)
    }

    /// Total samples recorded so far.
    pub fn count(&self) -> u64 {
        self.stripes.iter().map(|s| s.count.load(Relaxed)).sum()
    }
}

impl std::fmt::Debug for ConcurrentHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentHistogram")
            .field("count", &self.count())
            .finish()
    }
}

/// A gauge whose level is computed on demand (e.g. derived from oracle
/// state rather than maintained incrementally).
type GaugeFn = Box<dyn Fn() -> i64 + Send + Sync>;

enum GaugeSource {
    Stored(Arc<Gauge>),
    Computed(GaugeFn),
}

/// Named registry of metrics primitives.
///
/// Register once at startup, record through the returned `Arc`s (the
/// registry itself is never on a hot path), snapshot on demand.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, GaugeSource>,
    histograms: BTreeMap<String, Arc<ConcurrentHistogram>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers (or fetches, if the name exists) a counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(
            self.lock()
                .counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Registers (or fetches) a stored gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.lock();
        match inner
            .gauges
            .entry(name.to_string())
            .or_insert_with(|| GaugeSource::Stored(Arc::new(Gauge::new())))
        {
            GaugeSource::Stored(g) => Arc::clone(g),
            GaugeSource::Computed(_) => {
                panic!("metric {name:?} already registered as a computed gauge")
            }
        }
    }

    /// Registers a gauge computed by `f` at snapshot time. Replaces any
    /// previous computed gauge of the same name.
    pub fn gauge_fn(&self, name: &str, f: impl Fn() -> i64 + Send + Sync + 'static) {
        self.lock()
            .gauges
            .insert(name.to_string(), GaugeSource::Computed(Box::new(f)));
    }

    /// Registers (or fetches) a concurrent histogram.
    pub fn histogram(&self, name: &str) -> Arc<ConcurrentHistogram> {
        Arc::clone(
            self.lock()
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(ConcurrentHistogram::new())),
        )
    }

    /// Reads every metric into an immutable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| {
                    let level = match v {
                        GaugeSource::Stored(g) => g.get(),
                        GaugeSource::Computed(f) => f(),
                    };
                    (k.clone(), level)
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), HistogramSummary::from_histogram(&v.snapshot())))
                .collect(),
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("MetricsRegistry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

/// Summary statistics of one histogram at snapshot time. Values are in
/// the histogram's native unit (nanoseconds for latency histograms).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples (saturating). Lets consumers compute exact
    /// aggregate time spent per stage (`mean * count` loses precision).
    pub sum: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile (the paper's headline latency metric).
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

impl HistogramSummary {
    /// Summarizes a folded histogram.
    pub fn from_histogram(h: &Histogram) -> Self {
        HistogramSummary {
            count: h.count(),
            sum: h.sum(),
            mean: h.mean(),
            min: h.min(),
            max: h.max(),
            p50: h.percentile(50.0),
            p90: h.percentile(90.0),
            p99: h.percentile(99.0),
            p999: h.percentile(99.9),
        }
    }
}

/// Point-in-time view of every registered metric, renderable as text
/// or JSON.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` the way JSON expects (no NaN/Inf, which can't
/// appear here: means of non-negative u64 samples).
fn json_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

impl MetricsSnapshot {
    /// Renders a human-readable table.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<40} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name:<40} {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms (ns):\n");
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "  {name:<40} count={} mean={:.0} min={} p50={} p90={} p99={} p999={} max={}\n",
                    h.count, h.mean, h.min, h.p50, h.p90, h.p99, h.p999, h.max
                ));
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics registered)\n");
        }
        out
    }

    /// Renders a single JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    pub fn to_json(&self) -> String {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", json_escape(k), v))
            .collect::<Vec<_>>()
            .join(",");
        let gauges = self
            .gauges
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", json_escape(k), v))
            .collect::<Vec<_>>()
            .join(",");
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                format!(
                    "\"{}\":{{\"count\":{},\"sum\":{},\"mean\":{},\"min\":{},\"max\":{},\
                     \"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}",
                    json_escape(k),
                    h.count,
                    h.sum,
                    json_f64(h.mean),
                    h.min,
                    h.max,
                    h.p50,
                    h.p90,
                    h.p99,
                    h.p999
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\"histograms\":{{{histograms}}}}}"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.set(10);
        g.add(5);
        g.sub(3);
        assert_eq!(g.get(), 12);
    }

    #[test]
    fn concurrent_histogram_matches_sequential() {
        let ch = ConcurrentHistogram::new();
        let mut reference = Histogram::new();
        for v in 1..=10_000u64 {
            ch.record(v);
            reference.record(v);
        }
        let snap = ch.snapshot();
        assert_eq!(snap.count(), reference.count());
        assert_eq!(snap.min(), reference.min());
        assert_eq!(snap.max(), reference.max());
        for p in [50.0, 90.0, 99.0] {
            assert_eq!(snap.percentile(p), reference.percentile(p));
        }
    }

    #[test]
    fn registry_snapshot_and_renderers() {
        let reg = MetricsRegistry::new();
        let ops = reg.counter("db.ops");
        ops.add(7);
        let depth = reg.gauge("queue.depth");
        depth.set(3);
        reg.gauge_fn("answer", || 42);
        let lat = reg.histogram("op.get.latency");
        lat.record(100);
        lat.record(200);

        let snap = reg.snapshot();
        assert_eq!(snap.counters["db.ops"], 7);
        assert_eq!(snap.gauges["queue.depth"], 3);
        assert_eq!(snap.gauges["answer"], 42);
        assert_eq!(snap.histograms["op.get.latency"].count, 2);

        let text = snap.to_text();
        assert!(text.contains("db.ops"));
        assert!(text.contains("count=2"));
        assert!(text.contains("p999="));
        assert!(text.contains("max=200"));

        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"db.ops\":7"));
        assert!(json.contains("\"answer\":42"));
        assert!(json.contains("\"count\":2"));
        assert!(json.contains("\"p999\":"));
        assert!(json.contains("\"max\":200"));
    }

    #[test]
    fn tail_columns_capture_outliers() {
        // A skewed distribution: p99 must miss the single huge outlier,
        // p999 and max must see it — that separation is the whole point
        // of the extra tail columns.
        let reg = MetricsRegistry::new();
        let lat = reg.histogram("op.tail.latency");
        for _ in 0..998 {
            lat.record(100);
        }
        lat.record(1_000_000);
        lat.record(1_000_000);

        let snap = reg.snapshot();
        let h = &snap.histograms["op.tail.latency"];
        assert_eq!(h.count, 1_000);
        assert!(h.p99 < h.p999, "p99 {} should miss the outlier", h.p99);
        assert!(h.p999 >= 1_000_000 / 2, "p999 should see the outlier");
        assert!(h.max >= h.p999);

        let text = snap.to_text();
        let line = text
            .lines()
            .find(|l| l.contains("op.tail.latency"))
            .expect("histogram line");
        assert!(line.contains("p999="), "missing p999 column: {line}");
        assert!(line.contains("max="), "missing max column: {line}");
        // Columns render in tail order on one line: p99 ≤ p999 ≤ max.
        let p99_at = line.find("p99=").unwrap();
        let p999_at = line.find("p999=").unwrap();
        let max_at = line.find("max=").unwrap();
        assert!(p99_at < p999_at && p999_at < max_at);

        let json = snap.to_json();
        assert!(json.contains(&format!("\"max\":{}", h.max)));
        assert!(json.contains(&format!("\"p999\":{}", h.p999)));
    }

    #[test]
    fn registered_names_are_shared() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("same");
        let b = reg.counter("same");
        a.inc();
        b.inc();
        assert_eq!(reg.snapshot().counters["same"], 2);
    }

    #[test]
    fn empty_snapshot_renders() {
        let snap = MetricsRegistry::new().snapshot();
        assert!(snap.to_text().contains("no metrics"));
        assert_eq!(
            snap.to_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
    }
}
