//! The database's observability layer: counters and latency histograms
//! registered in a [`MetricsRegistry`], plus the legacy
//! [`StatsSnapshot`] counter view.
//!
//! Every handle here is pre-registered at `Db::open` and recorded
//! through directly on the hot paths — no locks, no registry lookups,
//! just relaxed atomics (see `clsm_util::metrics`). The full registry
//! (including the storage layer's `storage.*` metrics and the oracle
//! pressure gauges) is exposed via `Db::metrics()`.

use std::sync::Arc;

use clsm_util::metrics::{ConcurrentHistogram, Counter, MetricsRegistry};
use clsm_util::trace::TraceId;

/// Flight-recorder instants mirroring the write-path stage histograms
/// (argument = stage duration in ns), so a Perfetto trace and the
/// `write_path.*` histograms tell the same story. Each emission is one
/// relaxed load + branch when tracing is disabled.
mod stage_trace {
    use super::TraceId;

    pub static ADMISSION: TraceId = TraceId::new("clsm.write.admission");
    pub static STAMP: TraceId = TraceId::new("clsm.write.stamp");
    pub static MEMTABLE: TraceId = TraceId::new("clsm.write.memtable");
    pub static WAL_ENQUEUE: TraceId = TraceId::new("clsm.write.wal_enqueue");
    pub static PUBLISH: TraceId = TraceId::new("clsm.write.publish");
    pub static DURABLE: TraceId = TraceId::new("clsm.write.durable");
    pub static TOTAL: TraceId = TraceId::new("clsm.write.total");
}

/// Pre-registered metrics handles of one open database.
///
/// Counter names carry the `db.` prefix, per-operation latency
/// histograms the `op.` prefix, storage-layer metrics (registered by
/// the store against the same registry) the `storage.` prefix, and
/// oracle pressure gauges the `oracle.` prefix.
#[derive(Debug)]
pub(crate) struct DbMetrics {
    /// The registry behind `Db::metrics()`; shared with the store.
    pub registry: Arc<MetricsRegistry>,

    // -- operation counters (the legacy `StatsSnapshot` view) --
    pub puts: Arc<Counter>,
    pub gets: Arc<Counter>,
    pub deletes: Arc<Counter>,
    pub rmw_ops: Arc<Counter>,
    pub rmw_conflicts: Arc<Counter>,
    pub snapshots: Arc<Counter>,
    pub flushes: Arc<Counter>,
    pub compactions: Arc<Counter>,
    pub write_stalls: Arc<Counter>,

    // -- per-operation latency histograms (nanoseconds) --
    pub put_latency: Arc<ConcurrentHistogram>,
    pub get_latency: Arc<ConcurrentHistogram>,
    pub delete_latency: Arc<ConcurrentHistogram>,
    pub write_batch_latency: Arc<ConcurrentHistogram>,
    pub rmw_latency: Arc<ConcurrentHistogram>,
    pub snapshot_latency: Arc<ConcurrentHistogram>,
    pub scan_latency: Arc<ConcurrentHistogram>,

    /// Total nanoseconds writers spent stalled on a full memtable.
    pub write_stall_ns: Arc<Counter>,

    // -- write admission (pacing before the hard stall) --
    /// Writes that slept for their pacing slot.
    pub admission_delayed_writes: Arc<Counter>,
    /// Total pacing sleep, in nanoseconds.
    pub admission_delay_ns: Arc<Counter>,
    /// Writes that still hit the §5.3 hard stall (memtable full with a
    /// flush in flight). Zero while pacing keeps up.
    pub admission_hard_stalls: Arc<Counter>,

    /// Write-path latency attribution (stage histograms).
    pub write_path: WritePathMetrics,
}

/// Pre-registered write-path attribution handles.
///
/// The stage histograms (`write_path.*_ns`) are recorded only when
/// `Options::write_path_attribution` is on — the disabled path is a
/// single branch with no clock reads.
///
/// Stage boundaries, in commit order (a write visits a subset):
/// admitted (`admission`, delayed writes only) → stamped (`stamp`) →
/// memtable-done (`memtable`) → WAL-enqueued (`wal_enqueue`) →
/// published (`publish`) → durable fsync (`durable`, sync writes only).
/// `total` spans `Db::write` entry to return.
#[derive(Debug)]
pub(crate) struct WritePathMetrics {
    /// Admission hold (pacing sleep + any hard stall) before the write
    /// takes the lock. Writes that neither slept nor stalled are not
    /// recorded, so the count doubles as "writes held by admission".
    pub admission: Arc<ConcurrentHistogram>,
    /// Timestamp acquisition (`getTS`, or one block per batch).
    pub stamp: Arc<ConcurrentHistogram>,
    /// Memtable insert pass (includes restamp retries on the
    /// single-op path).
    pub memtable: Arc<ConcurrentHistogram>,
    /// WAL record encode + logging-queue enqueue (`Store::log`).
    pub wal_enqueue: Arc<ConcurrentHistogram>,
    /// Oracle publish (makes stamped writes visible to snapshots).
    pub publish: Arc<ConcurrentHistogram>,
    /// Sync-wait start → logger-thread fsync completion (sync writes
    /// only; uses the WAL durable-ack timestamp, so cross-thread wake
    /// latency is excluded).
    pub durable: Arc<ConcurrentHistogram>,
    /// `Db::write` entry → return (every write).
    pub total: Arc<ConcurrentHistogram>,
}

impl WritePathMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        WritePathMetrics {
            admission: registry.histogram("write_path.admission_ns"),
            stamp: registry.histogram("write_path.stamp_ns"),
            memtable: registry.histogram("write_path.memtable_ns"),
            wal_enqueue: registry.histogram("write_path.wal_enqueue_ns"),
            publish: registry.histogram("write_path.publish_ns"),
            durable: registry.histogram("write_path.durable_ns"),
            total: registry.histogram("write_path.total_ns"),
        }
    }

    /// Records one stage sample and mirrors it to the flight recorder.
    pub fn rec_admission(&self, ns: u64) {
        self.admission.record(ns);
        stage_trace::ADMISSION.instant(ns);
    }

    /// See [`rec_admission`](Self::rec_admission).
    pub fn rec_stamp(&self, ns: u64) {
        self.stamp.record(ns);
        stage_trace::STAMP.instant(ns);
    }

    /// See [`rec_admission`](Self::rec_admission).
    pub fn rec_memtable(&self, ns: u64) {
        self.memtable.record(ns);
        stage_trace::MEMTABLE.instant(ns);
    }

    /// See [`rec_admission`](Self::rec_admission).
    pub fn rec_wal_enqueue(&self, ns: u64) {
        self.wal_enqueue.record(ns);
        stage_trace::WAL_ENQUEUE.instant(ns);
    }

    /// See [`rec_admission`](Self::rec_admission).
    pub fn rec_publish(&self, ns: u64) {
        self.publish.record(ns);
        stage_trace::PUBLISH.instant(ns);
    }

    /// See [`rec_admission`](Self::rec_admission).
    pub fn rec_durable(&self, ns: u64) {
        self.durable.record(ns);
        stage_trace::DURABLE.instant(ns);
    }

    /// See [`rec_admission`](Self::rec_admission).
    pub fn rec_total(&self, ns: u64) {
        self.total.record(ns);
        stage_trace::TOTAL.instant(ns);
    }
}

impl DbMetrics {
    /// Creates a fresh registry with every database metric registered.
    pub fn new() -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        DbMetrics {
            puts: registry.counter("db.puts"),
            gets: registry.counter("db.gets"),
            deletes: registry.counter("db.deletes"),
            rmw_ops: registry.counter("db.rmw_ops"),
            rmw_conflicts: registry.counter("db.rmw_conflicts"),
            snapshots: registry.counter("db.snapshots"),
            flushes: registry.counter("db.flushes"),
            compactions: registry.counter("db.compactions"),
            write_stalls: registry.counter("db.write_stalls"),
            put_latency: registry.histogram("op.put.latency_ns"),
            get_latency: registry.histogram("op.get.latency_ns"),
            delete_latency: registry.histogram("op.delete.latency_ns"),
            write_batch_latency: registry.histogram("op.write_batch.latency_ns"),
            rmw_latency: registry.histogram("op.rmw.latency_ns"),
            snapshot_latency: registry.histogram("op.snapshot.latency_ns"),
            scan_latency: registry.histogram("op.scan.latency_ns"),
            write_stall_ns: registry.counter("db.write_stall_ns"),
            admission_delayed_writes: registry.counter("admission.delayed_writes"),
            admission_delay_ns: registry.counter("admission.delay_ns"),
            admission_hard_stalls: registry.counter("admission.hard_stalls"),
            write_path: WritePathMetrics::new(&registry),
            registry,
        }
    }

    /// The legacy counter view (`Db::stats()`).
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            puts: self.puts.get(),
            gets: self.gets.get(),
            deletes: self.deletes.get(),
            rmw_ops: self.rmw_ops.get(),
            rmw_conflicts: self.rmw_conflicts.get(),
            snapshots: self.snapshots.get(),
            flushes: self.flushes.get(),
            compactions: self.compactions.get(),
            write_stalls: self.write_stalls.get(),
        }
    }
}

impl Default for DbMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time copy of the operation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Completed put operations.
    pub puts: u64,
    /// Completed get operations.
    pub gets: u64,
    /// Completed delete operations.
    pub deletes: u64,
    /// Completed read-modify-write operations.
    pub rmw_ops: u64,
    /// RMW retries due to conflicts (Algorithm 3).
    pub rmw_conflicts: u64,
    /// Snapshots created.
    pub snapshots: u64,
    /// Memtable flushes performed.
    pub flushes: u64,
    /// Disk compactions performed.
    pub compactions: u64,
    /// Puts that stalled waiting for a flush.
    pub write_stalls: u64,
}
