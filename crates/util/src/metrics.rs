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
//!   one of `STRIPES` independent bucket arrays chosen per thread, so
//!   concurrent recorders on different threads touch disjoint cache
//!   lines. Recording is a handful of relaxed `fetch_add`s into the
//!   same log-bucket layout as [`Histogram`], and a snapshot folds all
//!   stripes into an ordinary [`Histogram`] for percentile queries.
//!
//! Registration happens once at startup (it takes a mutex); the
//! returned `Arc`'d primitives are then recorded through directly —
//! the registry is never touched on an operation path. Snapshots
//! ([`MetricsRegistry::snapshot`]) are read-only and render to one
//! text exposition ([`MetricsSnapshot::to_text`]).
//!
//! Each measurement is recorded once. A number that can be worked out
//! from records already kept (an operation count from its latency
//! histogram, a total from a merge of histograms) is registered with
//! [`MetricsRegistry::counter_fn`], [`MetricsRegistry::gauge_fn`] or
//! [`MetricsRegistry::histogram_fn`] and computed when a snapshot is
//! taken, so the operation path never pays for it.

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
pub(crate) const STRIPES: usize = 16;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
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
    /// Moves the level up.
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Moves the level down.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Relaxed);
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

/// A primitive the registry can read at snapshot time.
trait Metric: Default {
    /// What a snapshot holds of it.
    type Value;
    fn read(&self) -> Self::Value;
}

impl Metric for Counter {
    type Value = u64;
    fn read(&self) -> u64 {
        self.get()
    }
}

impl Metric for Gauge {
    type Value = i64;
    fn read(&self) -> i64 {
        self.0.load(Relaxed)
    }
}

impl Metric for ConcurrentHistogram {
    type Value = Histogram;
    fn read(&self) -> Histogram {
        self.snapshot()
    }
}

/// Where a registered name's value comes from: a primitive recorded
/// into directly, or a function that works it out from other records
/// (an operation count from its latency histograms, a level from
/// oracle state) when a snapshot is taken.
enum Source<M: Metric> {
    Stored(Arc<M>),
    Computed(Box<dyn Fn() -> M::Value + Send + Sync>),
}

type Sources<M> = BTreeMap<String, Source<M>>;

/// Fetches the stored primitive under `name`, registering it first if
/// the name is new.
fn stored<M: Metric>(sources: &mut Sources<M>, name: &str) -> Arc<M> {
    match sources
        .entry(name.to_string())
        .or_insert_with(|| Source::Stored(Arc::default()))
    {
        Source::Stored(m) => Arc::clone(m),
        Source::Computed(_) => panic!("metric {name:?} already registered as a computed one"),
    }
}

/// Named registry of metrics primitives.
///
/// Register once at startup, record through the returned `Arc`s (the
/// registry itself is never on a hot path), snapshot on demand. A
/// `*_fn` name is worked out at snapshot time instead of recorded.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

#[derive(Default)]
struct RegistryInner {
    counters: Sources<Counter>,
    gauges: Sources<Gauge>,
    histograms: Sources<ConcurrentHistogram>,
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
        stored(&mut self.lock().counters, name)
    }

    /// Registers a counter computed by `f` at snapshot time. Replaces
    /// any previous counter of the same name.
    pub fn counter_fn(&self, name: &str, f: impl Fn() -> u64 + Send + Sync + 'static) {
        let computed = Source::Computed(Box::new(f));
        self.lock().counters.insert(name.to_string(), computed);
    }

    /// Registers (or fetches) a stored gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        stored(&mut self.lock().gauges, name)
    }

    /// Registers a gauge computed by `f` at snapshot time. Replaces any
    /// previous gauge of the same name.
    pub fn gauge_fn(&self, name: &str, f: impl Fn() -> i64 + Send + Sync + 'static) {
        let computed = Source::Computed(Box::new(f));
        self.lock().gauges.insert(name.to_string(), computed);
    }

    /// Registers (or fetches) a concurrent histogram.
    pub fn histogram(&self, name: &str) -> Arc<ConcurrentHistogram> {
        stored(&mut self.lock().histograms, name)
    }

    /// Registers a histogram computed by `f` at snapshot time (say, the
    /// merge of others). Replaces any previous histogram of the same
    /// name.
    pub fn histogram_fn(&self, name: &str, f: impl Fn() -> Histogram + Send + Sync + 'static) {
        let computed = Source::Computed(Box::new(f));
        self.lock().histograms.insert(name.to_string(), computed);
    }

    /// Reads every metric into an immutable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: read_all(&inner.counters, |v| v),
            gauges: read_all(&inner.gauges, |v| v),
            histograms: read_all(&inner.histograms, |h| HistogramSummary::from_histogram(&h)),
        }
    }
}

/// Reads every source in `sources` into what a snapshot keeps of it.
fn read_all<M: Metric, V>(sources: &Sources<M>, keep: fn(M::Value) -> V) -> BTreeMap<String, V> {
    let read = |source: &Source<M>| match source {
        Source::Stored(m) => m.read(),
        Source::Computed(f) => f(),
    };
    sources
        .iter()
        .map(|(name, source)| (name.clone(), keep(read(source))))
        .collect()
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
    pub(crate) fn from_histogram(h: &Histogram) -> Self {
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

/// Point-in-time view of every registered metric, rendered by
/// [`MetricsSnapshot::to_text`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsSnapshot {
    /// Renders one `name value` row per metric, under a `counters:`,
    /// `gauges:` and `histograms (ns):` title; a histogram's value is
    /// its `count=`, `sum=`, `mean=`, `min=`, percentile and `max=`
    /// columns. The Stats opcode, `clsm-doctor --connect` and the figure
    /// binaries' `*.metrics.txt` all carry this text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        text_section(&mut out, "counters:", &self.counters, u64::to_string);
        text_section(&mut out, "gauges:", &self.gauges, i64::to_string);
        text_section(&mut out, "histograms (ns):", &self.histograms, |h| {
            format!(
                "count={} sum={} mean={:.0} min={} p50={} p90={} p99={} p999={} max={}",
                h.count, h.sum, h.mean, h.min, h.p50, h.p90, h.p99, h.p999, h.max
            )
        });
        if out.is_empty() {
            out.push_str("(no metrics registered)\n");
        }
        out
    }
}

/// Appends `title` and one `name value` line per row, when there are
/// rows.
fn text_section<V>(
    out: &mut String,
    title: &str,
    rows: &BTreeMap<String, V>,
    value: fn(&V) -> String,
) {
    if !rows.is_empty() {
        out.push_str(title);
        out.push('\n');
        for (name, v) in rows {
            out.push_str(&format!("  {name:<40} {}\n", value(v)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::default();
        g.add(10);
        g.add(5);
        g.sub(3);
        assert_eq!(g.read(), 12);
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
        depth.add(3);
        reg.gauge_fn("answer", || 42);
        let lat = reg.histogram("op.get.latency");
        lat.record(100);
        lat.record(200);
        let counted = Arc::clone(&lat);
        reg.counter_fn("db.gets", move || counted.count());
        let merged = Arc::clone(&lat);
        reg.histogram_fn("op.twice", move || {
            let mut h = merged.snapshot();
            h.merge(&merged.snapshot());
            h
        });

        let snap = reg.snapshot();
        assert_eq!(snap.counters["db.ops"], 7);
        assert_eq!(snap.gauges["queue.depth"], 3);
        assert_eq!(snap.gauges["answer"], 42);
        assert_eq!(snap.histograms["op.get.latency"].count, 2);
        assert_eq!(snap.counters["db.gets"], 2);
        assert_eq!(snap.histograms["op.twice"].count, 4);
        assert_eq!(snap.histograms["op.twice"].max, 200);

        let text = snap.to_text();
        let row = |name: &str| {
            let line = text
                .lines()
                .find(|l| l.split_whitespace().next() == Some(name));
            line.unwrap_or_else(|| panic!("no {name} row: {text}"))
                .to_string()
        };
        assert!(row("db.ops").ends_with(" 7"));
        assert!(row("answer").ends_with(" 42"));
        let latency = row("op.get.latency");
        assert!(latency.contains("count=2 sum=300 "), "{latency}");
        assert!(latency.contains("p999="));
        assert!(latency.contains("max=200"));
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
        assert!(line.contains(&format!("max={}", h.max)));
        assert!(line.contains(&format!("p999={}", h.p999)));
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
        assert_eq!(snap.to_text(), "(no metrics registered)\n");
    }
}
