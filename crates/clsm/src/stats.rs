//! The database's observability layer: counters and latency histograms
//! registered in a [`MetricsRegistry`].
//!
//! Every handle here is pre-registered at `Db::open` and recorded
//! through directly on the hot paths — no locks, no registry lookups,
//! just relaxed atomics (see `clsm_util::metrics`). The full registry
//! (including the storage layer's `storage.*` metrics and the oracle
//! pressure gauges) is exposed via `Db::metrics()`.
//!
//! Each number is recorded once. The operation counts (`db.puts`,
//! `db.deletes`, `db.gets`, `db.rmw_ops`, `db.snapshots`) are the
//! sample counts of their `op.*` latency histograms, `db.flushes` that
//! of `storage.flush_ns`, `db.compactions` that of
//! `storage.compaction_ns` (background and manual alike), and
//! `write_path.total_ns` is the merge of the three write kinds'
//! latencies; all eight are worked out when a snapshot is taken.
//!
//! So is every gauge [`register_gauges`] registers: the tree's shape,
//! the WAL, oracle and memtable state, the exclusive hold in progress
//! and write admission. Each is read from the store when a snapshot is
//! taken, so `clsm-doctor` and the Stats opcode print one set of
//! numbers and no operation path records any of them.

use std::sync::Arc;

use clsm_util::histogram::Histogram;
use clsm_util::metrics::{ConcurrentHistogram, Counter, MetricsRegistry};

use crate::db::DbInner;

/// Pre-registered metrics handles of one open database.
///
/// Counter names carry the `db.` prefix, per-operation latency
/// histograms the `op.` prefix, storage-layer metrics (registered by
/// the store against the same registry) the `storage.` prefix, and
/// oracle pressure gauges the `oracle.` prefix.
#[derive(Debug)]
pub(crate) struct DbMetrics {
    /// The registry behind `Db::metrics()`; shared with the store.
    pub(crate) registry: Arc<MetricsRegistry>,

    // -- event counters --
    pub(crate) rmw_conflicts: Arc<Counter>,
    /// Writes that hit the §5.3 hard stall (memtable full with a flush
    /// in flight). Zero while pacing keeps up.
    pub(crate) write_stalls: Arc<Counter>,

    // -- per-operation latency histograms (nanoseconds); their counts
    // are the operation counts --
    pub(crate) put_latency: Arc<ConcurrentHistogram>,
    pub(crate) get_latency: Arc<ConcurrentHistogram>,
    pub(crate) delete_latency: Arc<ConcurrentHistogram>,
    pub(crate) write_batch_latency: Arc<ConcurrentHistogram>,
    pub(crate) rmw_latency: Arc<ConcurrentHistogram>,
    pub(crate) snapshot_latency: Arc<ConcurrentHistogram>,
    pub(crate) scan_latency: Arc<ConcurrentHistogram>,

    /// Total nanoseconds writers spent stalled on a full memtable.
    pub(crate) write_stall_ns: Arc<Counter>,

    // -- write admission (pacing before the hard stall) --
    /// Writes that slept for their pacing slot.
    pub(crate) admission_delayed_writes: Arc<Counter>,
    /// Total pacing sleep, in nanoseconds.
    pub(crate) admission_delay_ns: Arc<Counter>,

    /// Write-path latency attribution (stage histograms).
    pub(crate) write_path: WritePathMetrics,
}

/// Registers the gauges (and the counters) read from the store
/// behind `inner` at snapshot time. A leaked `Snapshot` shows in
/// `oracle.oldest_snapshot_age`, a leaked iterator in
/// `storage.retired_table_bytes`, a hung merge hook in
/// `db.exclusive_hold_in_progress_ns`.
pub(crate) fn register_gauges(inner: &Arc<DbInner>) {
    let registry = &inner.metrics.registry;
    type Read = fn(&DbInner) -> i64;
    let gauges: [(&str, Read); 19] = [
        ("oracle.live_snapshots", |i| i.snapshots.len() as i64),
        // In timestamps, that is, in writes; 0 with none live.
        ("oracle.oldest_snapshot_age", |i| {
            let oldest = i.snapshots.oldest();
            oldest.map_or(0, |ts| i.oracle.current_time().saturating_sub(ts)) as i64
        }),
        // The version-GC watermark; 0 with none live.
        ("oracle.oldest_snapshot_ts", |i| {
            i.snapshots.oldest().unwrap_or(0) as i64
        }),
        ("oracle.time_counter", |i| i.oracle.current_time() as i64),
        ("oracle.active_writes", |i| i.oracle.active().len() as i64),
        // The `Active` set's real size: whole cache-line stripes.
        ("oracle.active_slots", |i| {
            i.oracle.active().capacity() as i64
        }),
        ("oracle.snap_time", |i| i.oracle.snap_time() as i64),
        ("storage.retired_table_bytes", |i| {
            i.store.retired_table_bytes() as i64
        }),
        ("storage.l0_runs", |i| {
            i.store.current_version().l0_runs().len() as i64
        }),
        ("storage.wal_number", |i| {
            i.store.current_wal_number() as i64
        }),
        // Persistently past one batch: writers outpace the log.
        ("storage.wal_queue_bytes", |i| {
            i.store.wal_queue_bytes() as i64
        }),
        ("db.memtable_bytes", |i| {
            i.components.pm().memory_usage() as i64
        }),
        ("db.memtable_capacity", |i| i.opts.memtable_bytes as i64),
        // 1 while a `P'm` awaits or undergoes its merge.
        ("db.immutable_pending", |i| {
            i64::from(i.components.pm_prev().is_some())
        }),
        ("db.read_only", |i| i64::from(i.store.poisoned().is_some())),
        // A hold is a stall event only once it ends.
        ("db.exclusive_hold_in_progress_ns", |i| {
            let held = i.lock.exclusive_held_for().unwrap_or_default();
            held.as_nanos().try_into().unwrap_or(i64::MAX)
        }),
        // The binding stage's `behind` bit: 0 none, 1 flush, 2 L0.
        ("admission.stage", |i| i64::from(i.admission_binding().0)),
        // 0 with nothing behind, no rate measured, or pacing off.
        ("admission.paced_bytes_per_sec", |i| {
            i64::try_from(i.admission_binding().1).unwrap_or(i64::MAX)
        }),
        // 1 while writers are in §5.3's hard stall: `Pm` full behind a
        // merging `P'm`.
        ("admission.stalled", |i| {
            let components = &i.components;
            i64::from(components.write_waits() && components.pm_prev().is_some())
        }),
    ];
    for (name, read) in gauges {
        registry.gauge_fn(name, computed(inner, read));
    }
    for level in 0..inner.opts.store.num_levels {
        let name = |what: &str| format!("storage.level.{level}.{what}");
        let files = move |i: &DbInner| i.store.current_version().num_files(level) as i64;
        let bytes = move |i: &DbInner| i.store.current_version().level_bytes(level) as i64;
        registry.gauge_fn(&name("files"), computed(inner, files));
        registry.gauge_fn(&name("bytes"), computed(inner, bytes));
    }
    let rollbacks = computed(inner, |i| i.oracle.rollbacks());
    registry.counter_fn("oracle.getts_rollbacks", rollbacks);
    // Counted in the job state, which the baselines share.
    let failed_jobs = computed(inner, |i| i.jobs.state.lock().errors);
    registry.counter_fn("db.background_errors", failed_jobs);
    if inner.store.cache_stats().is_some() {
        let hits = computed(inner, |i| i.store.cache_stats().map_or(0, |(hits, _)| hits));
        let misses = computed(inner, |i| {
            i.store.cache_stats().map_or(0, |(_, misses)| misses)
        });
        registry.counter_fn("storage.cache_hits", hits);
        registry.counter_fn("storage.cache_misses", misses);
    }
}

/// `read` of the store behind `inner`, as a function the registry
/// calls at snapshot time. It holds a `Weak` (the registry is owned by
/// `DbInner`, so an `Arc` would be a cycle) and reads the default once
/// the store is gone.
fn computed<T: Default>(
    inner: &Arc<DbInner>,
    read: impl Fn(&DbInner) -> T + Send + Sync + 'static,
) -> impl Fn() -> T + Send + Sync + 'static {
    let weak = Arc::downgrade(inner);
    move || weak.upgrade().map_or_else(T::default, |i| read(&i))
}

fn stage_metric(stage: &str) -> String {
    format!("write_path.{stage}_ns")
}

/// Pre-registered write-path attribution handles: stage `s` records
/// into the `write_path.{s}_ns` histogram. A write visits a subset:
/// `admission` only when it slept for a pacing slot or hard-stalled,
/// `durable` only when it is a sync write. `write_path.total_ns`, which
/// spans `Db::write` entry to return, is the merge of the put, delete
/// and batch latencies.
///
/// Every write records its stage histograms: a handful of monotonic
/// clock reads plus thread-striped histogram updates, no locks.
#[derive(Debug)]
pub(crate) struct WritePathMetrics {
    /// Admission hold (pacing sleep + any hard stall) before the write
    /// takes the lock. Writes that neither slept nor stalled are not
    /// recorded, so the count doubles as "writes held by admission".
    pub(crate) admission: Arc<ConcurrentHistogram>,
    /// Timestamp acquisition: the first `getTS` of a single op, or
    /// the batch's one block. A restamp after an insert conflict is not
    /// here: it counts in `memtable`. Stamp, memtable, WAL enqueue and
    /// publish tile the write's time under the lock, each stage
    /// starting at the clock read that ended the one before.
    pub(crate) stamp: Arc<ConcurrentHistogram>,
    /// Memtable insert pass, including any restamp after a conflict on
    /// the single-op path (the abandoned stamp's publish and the next
    /// `getTS`).
    pub(crate) memtable: Arc<ConcurrentHistogram>,
    /// WAL record encode into the logging queue (`Store::log_writes`).
    pub(crate) wal_enqueue: Arc<ConcurrentHistogram>,
    /// Oracle publish (makes stamped writes visible to snapshots).
    pub(crate) publish: Arc<ConcurrentHistogram>,
    /// Sync-wait start → covering fsync completion (sync writes
    /// only; uses the WAL durable-ack timestamp, so cross-thread wake
    /// latency is excluded).
    pub(crate) durable: Arc<ConcurrentHistogram>,
}

impl DbMetrics {
    /// Creates a fresh registry with every database metric registered.
    pub(crate) fn new() -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let op = |name: &str| registry.histogram(&format!("op.{name}.latency_ns"));
        let stage = |name: &str| registry.histogram(&stage_metric(name));
        let metrics = DbMetrics {
            rmw_conflicts: registry.counter("db.rmw_conflicts"),
            write_stalls: registry.counter("db.write_stalls"),
            put_latency: op("put"),
            get_latency: op("get"),
            delete_latency: op("delete"),
            write_batch_latency: op("write_batch"),
            rmw_latency: op("rmw"),
            snapshot_latency: op("snapshot"),
            scan_latency: op("scan"),
            write_stall_ns: registry.counter("db.write_stall_ns"),
            admission_delayed_writes: registry.counter("admission.delayed_writes"),
            admission_delay_ns: registry.counter("admission.delay_ns"),
            write_path: WritePathMetrics {
                admission: stage("admission"),
                stamp: stage("stamp"),
                memtable: stage("memtable"),
                wal_enqueue: stage("wal_enqueue"),
                publish: stage("publish"),
                durable: stage("durable"),
            },
            registry: Arc::clone(&registry),
        };
        // Worked out at snapshot time from the histograms above, so an
        // operation records each number once. A batch counts as one
        // put, the historical semantics of `db.puts`; a flush or a
        // compaction is one sample of the duration the store records
        // when it attaches.
        let m = &metrics;
        let flush_ns = registry.histogram("storage.flush_ns");
        let compaction_ns = registry.histogram("storage.compaction_ns");
        let counts = [
            ("db.flushes", vec![&flush_ns]),
            ("db.compactions", vec![&compaction_ns]),
            ("db.puts", vec![&m.put_latency, &m.write_batch_latency]),
            ("db.deletes", vec![&m.delete_latency]),
            ("db.gets", vec![&m.get_latency]),
            ("db.rmw_ops", vec![&m.rmw_latency]),
            ("db.snapshots", vec![&m.snapshot_latency]),
        ];
        for (name, parts) in counts {
            let parts: Vec<_> = parts.into_iter().map(Arc::clone).collect();
            registry.counter_fn(name, move || parts.iter().map(|h| h.count()).sum());
        }
        let writes = [&m.put_latency, &m.delete_latency, &m.write_batch_latency].map(Arc::clone);
        registry.histogram_fn(&stage_metric("total"), move || {
            let mut total = Histogram::new();
            for h in &writes {
                total.merge(&h.snapshot());
            }
            total
        });
        metrics
    }
}
