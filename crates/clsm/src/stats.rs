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
//! of `storage.flush_ns`, and `write_path.total_ns` is the merge of
//! the three write kinds' latencies; all seven are worked out when a
//! snapshot is taken.

use std::fmt::Write;
use std::sync::Arc;

use clsm_util::histogram::Histogram;
use clsm_util::metrics::{ConcurrentHistogram, Counter, MetricsRegistry, MetricsSnapshot};

/// Background jobs that failed (see `DbInner::run_job`).
pub(crate) const BACKGROUND_ERRORS: &str = "db.background_errors";

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
    pub(crate) compactions: Arc<Counter>,
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

/// The write-path stages in commit order; stage `s` reads from the
/// `write_path.{s}_ns` histogram. A write visits a subset: `admission`
/// only when it slept for a pacing slot or hard-stalled, `durable` only
/// when it is a sync write. `total` spans `Db::write` entry to return:
/// it is the merge of the put, delete and batch latencies.
const WRITE_PATH_STAGES: [&str; 7] = [
    "admission",
    "stamp",
    "memtable",
    "wal_enqueue",
    "publish",
    "durable",
    "total",
];

fn stage_metric(stage: &str) -> String {
    format!("write_path.{stage}_ns")
}

/// Renders the write-path stage histograms of `snap` in commit order,
/// under a `write path stages (ns):` header: the block `clsm-doctor`
/// and the `fig*` binaries print. `None` when no write recorded into
/// them (a baseline's snapshot, or a store nothing was written to).
pub fn render_write_path(snap: &MetricsSnapshot) -> Option<String> {
    let rows: Vec<_> = WRITE_PATH_STAGES
        .iter()
        .filter_map(|&stage| Some((stage, snap.histograms.get(&stage_metric(stage))?)))
        .collect();
    if rows.iter().all(|(_, h)| h.count == 0) {
        return None;
    }
    let mut out = String::from("write path stages (ns):\n");
    for (stage, h) in rows {
        let _ = writeln!(
            out,
            "  {stage:<12} count={} mean={:.0} p50={} p90={} p99={} p999={} max={}",
            h.count, h.mean, h.p50, h.p90, h.p99, h.p999, h.max
        );
    }
    Some(out)
}

/// Pre-registered write-path attribution handles, one per recorded
/// entry of [`WRITE_PATH_STAGES`].
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
            compactions: registry.counter("db.compactions"),
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
        // put, the historical semantics of `db.puts`; a flush is one
        // sample of the duration the store records when it attaches.
        let m = &metrics;
        let flush_ns = registry.histogram("storage.flush_ns");
        let counts = [
            ("db.flushes", vec![&flush_ns]),
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
        // No field: `DbInner` embeds this struct, and one more field
        // would move its hot atomics onto other cache lines. Failed
        // background jobs are rare; `run_job` counts them by name.
        registry.counter(BACKGROUND_ERRORS);
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_path_rows_come_in_commit_order() {
        let metrics = DbMetrics::new();
        metrics.write_path.memtable.record(200);
        metrics.write_path.stamp.record(100);
        metrics.put_latency.record(400);
        let text = render_write_path(&metrics.registry.snapshot()).unwrap();
        let stages: Vec<_> = text
            .lines()
            .skip(1)
            .filter_map(|row| row.split_whitespace().next())
            .collect();
        assert_eq!(stages, WRITE_PATH_STAGES);
        assert!(text.starts_with("write path stages (ns):\n"), "{text}");
        assert!(text.contains("  total        count=1 "), "{text}");
    }

    #[test]
    fn a_snapshot_without_writes_renders_no_write_path() {
        assert!(render_write_path(&DbMetrics::new().registry.snapshot()).is_none());
        assert!(render_write_path(&MetricsSnapshot::default()).is_none());
    }
}
