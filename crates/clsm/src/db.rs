//! The cLSM database: Algorithms 1 and 2 plus background maintenance.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use clsm_util::env::Env;
use clsm_util::error::{Error, Result};
use clsm_util::metrics::MetricsSnapshot;
use clsm_util::oracle::{SnapshotRegistry, TimestampOracle};
use clsm_util::rcu::RcuCell;
use clsm_util::shared_lock::SharedExclusiveLock;
use clsm_util::trace::{now_ns, TraceId};

use clsm_kv::{WriteBatch, WriteOptions};
use lsm_storage::format::{ValueKind, WriteRecord};
use lsm_storage::store::RecoveryReport;
use lsm_storage::wal::SyncMode;
use lsm_storage::Store;

use crate::admission::{AdmissionState, FlowControl, FLUSH_BEHIND, L0_BEHIND};
use crate::memtable::Memtable;
use crate::options::Options;
use crate::snapshot::Snapshot;
use crate::stats::{DbMetrics, StatsSnapshot};
use crate::watchdog::Watchdog;

/// Flight-recorder spans for the layers Algorithm 1/2 say matter: the
/// put critical section (shared lock → getTS → log → insert →
/// publish), the lock-free get, snapshot creation, the write stall,
/// and the merge hooks' exclusive-lock holds.
static T_PUT: TraceId = TraceId::new("clsm.put.critical");
static T_WRITE_BATCH: TraceId = TraceId::new("clsm.write_batch.exclusive");
static T_GET: TraceId = TraceId::new("clsm.get");
static T_GET_SNAP: TraceId = TraceId::new("clsm.getSnap");
static T_WRITE_STALL: TraceId = TraceId::new("clsm.write_stall");
static T_BEFORE_MERGE: TraceId = TraceId::new("clsm.beforeMerge.exclusive");
static T_AFTER_MERGE: TraceId = TraceId::new("clsm.afterMerge.exclusive");
static T_MEMTABLE_ROTATE: TraceId = TraceId::new("clsm.memtable_rotate");

/// Latest version of a key: `(ts, value-or-tombstone)`, plus whether
/// it was found in the mutable memtable (the RMW conflict scope).
pub(crate) type VersionedRead = (Option<(u64, Option<Vec<u8>>)>, bool);

/// Shared state of an open database.
pub(crate) struct DbInner {
    pub(crate) opts: Options,
    pub(crate) store: Store,
    /// Algorithm 1's shared-exclusive lock: shared by puts/RMW/getSnap,
    /// exclusive in the merge hooks and for atomic write batches.
    pub(crate) lock: SharedExclusiveLock,
    /// Algorithm 2's timestamp oracle.
    pub(crate) oracle: TimestampOracle,
    /// Live snapshot handles (version-GC watermark).
    pub(crate) snapshots: SnapshotRegistry,
    /// `Pm`: the mutable memory component.
    pub(crate) pm: RcuCell<Arc<Memtable>>,
    /// `P'm`: the immutable memory component being merged, if any.
    pub(crate) pm_prev: RcuCell<Option<Arc<Memtable>>>,
    /// Counters and latency histograms (see [`crate::stats`]).
    pub(crate) metrics: DbMetrics,
    /// Stall-event sink fed by the watchdog sampler (see
    /// [`crate::watchdog`]).
    pub(crate) watchdog: Watchdog,
    /// Write admission: which merge stages are behind, their drain
    /// rates and the pacing clock (see [`crate::admission`]).
    pub(crate) flow: FlowControl,

    pub(crate) shutdown: AtomicBool,
    /// Set while a flush is scheduled or running.
    flush_pending: AtomicBool,
    /// Wakes background workers; also signalled when a flush finishes
    /// (unblocking stalled writers).
    work_mutex: Mutex<()>,
    work_cv: Condvar,
}

/// A concurrent log-structured data store (the paper's cLSM).
///
/// Cheap to share: internally reference-counted. All operations take
/// `&self` and are safe to call from any number of threads.
pub struct Db {
    pub(crate) inner: Arc<DbInner>,
    workers: Vec<JoinHandle<()>>,
}

impl Db {
    /// Opens (or creates) a database at `path`, replaying any WAL left
    /// by a previous incarnation (§4: out-of-order log records are
    /// sorted by timestamp on recovery).
    ///
    /// Accepts anything convertible into [`Options`] — a finished
    /// `Options` value or an [`crate::OptionsBuilder`] directly; the
    /// configuration is validated either way.
    ///
    /// A directory holding a `SHARDS` manifest is the root of a
    /// range-sharded layout earlier versions wrote; it is refused with
    /// [`Error::InvalidArgument`] rather than given a fresh empty store
    /// beside its data. Each `shard-NNN/` under it is a complete store
    /// and opens on its own.
    pub fn open(path: &Path, opts: impl Into<Options>) -> Result<Db> {
        let opts: Options = opts.into();
        opts.validate()?;
        refuse_sharded_root(opts.store.env.as_ref(), path)?;
        let (store, recovered) = Store::open(path, opts.store.clone())?;

        let pm = Arc::new(Memtable::new());
        for rec in &recovered.records {
            let value = match rec.kind {
                ValueKind::Put => Some(rec.value.as_slice()),
                ValueKind::Delete => None,
            };
            pm.insert(&rec.key, rec.ts, value);
        }

        let metrics = DbMetrics::new();
        let watchdog = Watchdog::new(&metrics.registry);
        let inner = Arc::new(DbInner {
            oracle: TimestampOracle::recovered_at(recovered.last_ts, opts.active_slots),
            opts,
            store,
            lock: SharedExclusiveLock::new(),
            snapshots: SnapshotRegistry::new(),
            pm: RcuCell::new(pm),
            pm_prev: RcuCell::new(None),
            metrics,
            watchdog,
            flow: FlowControl::default(),
            shutdown: AtomicBool::new(false),
            flush_pending: AtomicBool::new(false),
            work_mutex: Mutex::new(()),
            work_cv: Condvar::new(),
        });

        // One registry for the whole stack: the storage layer records
        // its flush/compaction/WAL metrics into the same registry the
        // DB-level counters live in, and the oracle-pressure gauges
        // read derived state on demand. `Weak` avoids a cycle — the
        // registry is owned by `DbInner`.
        inner.store.attach_metrics(&inner.metrics.registry);
        let weak = Arc::downgrade(&inner);
        inner.metrics.registry.gauge_fn("oracle.live_snapshots", {
            let weak = weak.clone();
            move || weak.upgrade().map_or(0, |i| i.snapshots.len() as i64)
        });
        inner.metrics.registry.gauge_fn("oracle.active_writes", {
            let weak = weak.clone();
            move || weak.upgrade().map_or(0, |i| i.oracle.active().len() as i64)
        });
        inner.metrics.registry.gauge_fn("oracle.snap_time", {
            let weak = weak.clone();
            move || weak.upgrade().map_or(0, |i| i.oracle.snap_time() as i64)
        });
        inner.metrics.registry.gauge_fn("db.memtable_bytes", {
            let weak = weak.clone();
            move || {
                weak.upgrade()
                    .map_or(0, |i| i.pm.load().memory_usage() as i64)
            }
        });

        // A recovered tree may already be behind.
        inner.note_version();

        let mut workers = Vec::new();
        // Flush worker (the paper's single maintenance thread), plus
        // optional extra compaction threads (RocksDB-style, §5.3).
        {
            let inner = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name("clsm-flush".into())
                    .spawn(move || flush_worker(inner))
                    .expect("spawn flush worker"),
            );
        }
        for i in 0..inner.opts.compaction_threads {
            let inner = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("clsm-compact-{i}"))
                    .spawn(move || compaction_worker(inner))
                    .expect("spawn compaction worker"),
            );
        }
        if inner.opts.watchdog.enabled {
            let inner = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name("clsm-watchdog".into())
                    .spawn(move || crate::watchdog::watchdog_worker(inner))
                    .expect("spawn watchdog"),
            );
        }

        Ok(Db { inner, workers })
    }

    /// Applies a [`WriteBatch`] under the given [`WriteOptions`] — the
    /// single mutation entry point every other write API desugars to.
    ///
    /// A single op runs Algorithm 2's `put` (shared lock → `getTS` →
    /// insert-as-newest → log → publish), concurrently with every
    /// other writer. A multi-op batch takes the lock in exclusive mode
    /// (§4) and stamps all entries from one timestamp block. Fsync
    /// batching for `sync` writes lives below this layer, in the WAL's
    /// logging queue.
    ///
    /// An empty batch is a no-op. Multi-op batches are atomic: no
    /// snapshot ever observes a strict subset, and recovery replays
    /// them all-or-nothing.
    pub fn write(&self, batch: WriteBatch, opts: &WriteOptions) -> Result<()> {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::Acquire) {
            return Err(Error::ShuttingDown);
        }
        opts.validate()?;
        if batch.is_empty() {
            return Ok(());
        }
        if batch.iter().any(|(key, _)| key.is_empty()) {
            // WAL replay drops empty-key records (a legacy `shard-NNN/`
            // directory carries batch-commit markers under that key),
            // so an acked write to it would vanish at the next recovery.
            return Err(Error::invalid_argument("empty keys are not supported"));
        }
        let began = Instant::now();
        let sync = opts.sync || (inner.opts.sync_writes && !opts.disable_wal);
        let (count, latency) = if let [(key, value)] = batch.ops() {
            self.write_one(key, value.as_deref(), sync, opts.disable_wal)?;
            if value.is_some() {
                (&inner.metrics.puts, &inner.metrics.put_latency)
            } else {
                (&inner.metrics.deletes, &inner.metrics.delete_latency)
            }
        } else {
            self.write_batch_exclusive(batch.into_ops(), sync, opts.disable_wal)?;
            // One bump per batch, matching the historical counter
            // semantics.
            (&inner.metrics.puts, &inner.metrics.write_batch_latency)
        };
        let elapsed = began.elapsed();
        if let Some(wp) = inner.write_path() {
            wp.rec_total(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
        }
        count.inc();
        latency.record_duration(elapsed);
        Ok(())
    }

    /// Stores `value` under `key` (Algorithm 2's `put`).
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.write(WriteBatch::single_put(key, value), &WriteOptions::new())
    }

    /// Deletes `key` by storing a deletion marker (the paper's ⊥).
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        self.write(WriteBatch::single_delete(key), &WriteOptions::new())
    }

    /// Algorithm 2's `put`, for one put or delete.
    fn write_one(
        &self,
        key: &[u8],
        value: Option<&[u8]>,
        sync: bool,
        disable_wal: bool,
    ) -> Result<()> {
        let inner = &self.inner;
        inner.admit_write((key.len() + value.map_or(0, <[u8]>::len)) as u64);
        let wp = inner.write_path();

        {
            // Algorithm 2, put: shared lock → getTS → insert → log →
            // Active.remove. The WAL enqueue is non-blocking (logging
            // queue); the insert is lock-free.
            //
            // The insert must land as the key's *newest* version: a
            // concurrent RMW can read the current latest, obtain a
            // later timestamp, and link first — a plain insert would
            // then slide below it, silently shadowed, retroactively
            // invalidating the RMW's observed "latest" (a lost
            // update). On conflict the abandoned stamp is published
            // (so snapshot creation keeps moving) and the write
            // re-stamps; the conflicting writer has already made
            // progress, so the loop is non-blocking. The WAL record
            // carries the final timestamp — recovery orders replay by
            // timestamp, not log position, so logging after the insert
            // leaves the recovered image unchanged.
            let _span = T_PUT.span_with(key.len() as u64);
            let _shared = inner.lock.lock_shared();
            // Attribution: accumulated `get_ts` time is the stamp
            // stage; the rest of the loop (inserts, plus the rare
            // abandoned-stamp publish on conflict) is the memtable
            // stage.
            let loop_start = if wp.is_some() { now_ns() } else { 0 };
            let mut stamp_ns = 0u64;
            let stamp = loop {
                let t0 = if wp.is_some() { now_ns() } else { 0 };
                let stamp = inner.oracle.get_ts();
                if wp.is_some() {
                    stamp_ns += now_ns().saturating_sub(t0);
                }
                match inner.pm.load().insert_as_newest(key, stamp.ts, value) {
                    Ok(()) => break stamp,
                    Err(_conflict) => inner.oracle.publish(stamp),
                }
            };
            if let Some(wp) = wp {
                let loop_ns = now_ns().saturating_sub(loop_start);
                wp.rec_stamp(stamp_ns);
                wp.rec_memtable(loop_ns.saturating_sub(stamp_ns));
            }
            let logged = if disable_wal {
                Ok(())
            } else {
                let record = match value {
                    Some(v) => WriteRecord::put(stamp.ts, key, v),
                    None => WriteRecord::delete(stamp.ts, key),
                };
                let wal_start = if wp.is_some() { now_ns() } else { 0 };
                let r = inner.store.log(&[record], SyncMode::Async);
                if let Some(wp) = wp {
                    wp.rec_wal_enqueue(now_ns().saturating_sub(wal_start));
                }
                r
            };
            let publish_start = if wp.is_some() { now_ns() } else { 0 };
            inner.oracle.publish(stamp);
            if let Some(wp) = wp {
                wp.rec_publish(now_ns().saturating_sub(publish_start));
            }
            logged?;
        }
        if sync {
            inner.wait_durable()?;
        }
        inner.maybe_schedule_flush();
        Ok(())
    }

    /// The coarse-grained batch path (§4): the shared-exclusive lock in
    /// *exclusive* mode, which excludes every other writer and RMW, so
    /// plain inserts suffice and no entry ever restamps. The whole
    /// batch draws one timestamp block — one `Active` slot however many
    /// entries it has — and becomes visible to snapshots at the single
    /// block publish.
    fn write_batch_exclusive(
        &self,
        batch: Vec<(Vec<u8>, Option<Vec<u8>>)>,
        sync: bool,
        disable_wal: bool,
    ) -> Result<()> {
        let inner = &self.inner;
        let bytes = batch
            .iter()
            .map(|(key, value)| key.len() + value.as_ref().map_or(0, Vec::len))
            .sum::<usize>();
        inner.admit_write(bytes as u64);
        let wp = inner.write_path();
        let logged;
        {
            let _span = T_WRITE_BATCH.span_with(batch.len() as u64);
            let _excl = inner.lock.lock_exclusive();
            let stamp_start = if wp.is_some() { now_ns() } else { 0 };
            let block = inner.oracle.get_ts_block(batch.len() as u64);
            let mem_start = if let Some(wp) = wp {
                let t = now_ns();
                wp.rec_stamp(t.saturating_sub(stamp_start));
                t
            } else {
                0
            };
            let pm = inner.pm.load();
            for (ts, (key, value)) in (block.base..).zip(&batch) {
                pm.insert(key, ts, value.as_deref());
            }
            if let Some(wp) = wp {
                wp.rec_memtable(now_ns().saturating_sub(mem_start));
            }
            // One log payload for the whole batch, so a torn WAL tail
            // drops it atomically.
            logged = if disable_wal {
                Ok(())
            } else {
                let wal_start = if wp.is_some() { now_ns() } else { 0 };
                let records: Vec<WriteRecord> = (block.base..)
                    .zip(batch)
                    .map(|(ts, (key, value))| match value {
                        Some(v) => WriteRecord::put(ts, key, v),
                        None => WriteRecord::delete(ts, key),
                    })
                    .collect();
                let r = inner.store.log(&records, SyncMode::Async);
                if let Some(wp) = wp {
                    wp.rec_wal_enqueue(now_ns().saturating_sub(wal_start));
                }
                r
            };
            // Publish even when the log append failed: an unpublished
            // stamp would wedge snapshot creation forever, and recovery
            // never depends on an unlogged record.
            let publish_start = if wp.is_some() { now_ns() } else { 0 };
            inner.oracle.publish_block(block);
            if let Some(wp) = wp {
                wp.rec_publish(now_ns().saturating_sub(publish_start));
            }
        }
        logged?;
        if sync {
            inner.wait_durable()?;
        }
        inner.maybe_schedule_flush();
        Ok(())
    }

    /// Returns the latest value of `key`, or `None` if absent/deleted.
    ///
    /// Never blocks (Algorithm 1): component pointers are read through
    /// RCU in data-flow order `Pm → P'm → Pd`, the opposite of the
    /// order the merge hooks update them, so a concurrent swing is
    /// harmless.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let began = Instant::now();
        let _span = T_GET.span();
        let result = self.inner.get_at(key, lsm_storage::format::MAX_TS);
        self.inner.metrics.gets.inc();
        self.inner
            .metrics
            .get_latency
            .record_duration(began.elapsed());
        result
    }

    /// Scans all live pairs from an implicit fresh snapshot
    /// (convenience over [`Db::snapshot`] + iterate). The snapshot
    /// handle lives inside the iterator.
    pub fn iter(&self) -> Result<crate::snapshot::SnapshotIter> {
        let began = Instant::now();
        let it = self.snapshot()?.into_iter_owned()?;
        self.inner
            .metrics
            .scan_latency
            .record_duration(began.elapsed());
        Ok(it)
    }

    /// Range query over an implicit fresh snapshot, accepting any
    /// standard range expression over byte-vector keys. The snapshot
    /// handle lives inside the iterator.
    ///
    /// ```no_run
    /// # use clsm::{Db, Options};
    /// # let db = Db::open(std::path::Path::new("x"), Options::default()).unwrap();
    /// let from_b = db.range(b"b".to_vec()..).unwrap();
    /// let b_to_d = db.range(b"b".to_vec()..b"d".to_vec()).unwrap();
    /// let everything = db.range(..).unwrap();
    /// ```
    pub fn range<R>(&self, range: R) -> Result<crate::snapshot::SnapshotIter>
    where
        R: std::ops::RangeBounds<Vec<u8>>,
    {
        let began = Instant::now();
        let it = self.snapshot()?.into_range_bounds_owned(range)?;
        self.inner
            .metrics
            .scan_latency
            .record_duration(began.elapsed());
        Ok(it)
    }

    /// Creates a consistent snapshot (Algorithm 2's `getSnap`).
    pub fn snapshot(&self) -> Result<Snapshot> {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::Acquire) {
            return Err(Error::ShuttingDown);
        }
        let began = Instant::now();
        let ts = {
            // The registry is read by `beforeMerge` under the exclusive
            // lock; registering under shared mode closes the race
            // between installing a handle and the merge observing it.
            // The span covers the `Active`-min wait inside `get_snap`
            // (which also records its own `oracle.getSnap.active_wait`
            // sub-span when it actually waits).
            let _span = T_GET_SNAP.span();
            let _shared = inner.lock.lock_shared();
            let ts = if inner.opts.linearizable_snapshots {
                inner.oracle.get_snap_linearizable()
            } else {
                inner.oracle.get_snap()
            };
            inner.snapshots.register(ts);
            ts
        };
        inner.metrics.snapshots.inc();
        inner
            .metrics
            .snapshot_latency
            .record_duration(began.elapsed());
        Ok(Snapshot::new(Arc::clone(inner), ts))
    }

    /// Current operation counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.metrics.stats()
    }

    /// A point-in-time view of every registered metric: operation
    /// counters (`db.*`), per-operation latency histograms (`op.*`),
    /// storage-layer flush/compaction/WAL metrics (`storage.*`), and
    /// oracle pressure gauges (`oracle.*`). Render with
    /// [`MetricsSnapshot::to_text`] or [`MetricsSnapshot::to_json`].
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.registry.snapshot()
    }

    /// Write-path latency attribution: the per-stage histograms
    /// (admission → stamp → memtable → WAL-enqueue → publish →
    /// durable), extracted from [`Db::metrics`]. Empty unless
    /// [`Options::write_path_attribution`] is on.
    pub fn write_path_report(&self) -> crate::WritePathReport {
        crate::WritePathReport::from_snapshot(&self.metrics())
    }

    /// Blocks until the memtable is flushed, no L0 table overlaps a
    /// deeper level and no compaction is due (test/benchmark hook; not
    /// part of the paper's API).
    ///
    /// Once L0 has been merged down, its table count cycles between 0
    /// and the trigger, so how many superseded versions a quiescent
    /// store would keep there depends on where in that cycle the last
    /// write landed — and with it the store's size on disk. L0 is
    /// therefore merged into L1 below its trigger when one of its tables
    /// overlaps a deeper level. Before the first merge (nothing below
    /// L0) and for tables that overlap nothing below (a sequential
    /// load's), L0 stays as it is: its shape follows from the bytes
    /// written alone, and merging would only rewrite it.
    ///
    /// Waits on the workers' condvar — flush and compaction workers
    /// signal it whenever they finish a unit of work — so the caller
    /// wakes as soon as progress happens rather than on a poll tick.
    /// The timed wait is only a backstop against a missed edge.
    pub fn compact_to_quiescence(&self) -> Result<()> {
        let inner = &self.inner;
        loop {
            // Only a non-empty `Pm` needs a flush: re-raising
            // `flush_pending` for an empty one just before `is_busy`
            // reads it would let the loop exit only when the worker
            // happened to clear the flag in between.
            if !inner.pm.load().is_empty() {
                inner.maybe_schedule_flush_force();
            }
            if let Some(e) = inner.store.wal_poisoned() {
                return Err(e);
            }
            if !inner.is_busy() {
                let version = inner.store.current_version();
                if l0_shadows_deeper_levels(&version) {
                    let largest = version.levels[0]
                        .iter()
                        .map(|f| f.largest_user_key())
                        .max()
                        .unwrap_or_default();
                    inner
                        .store
                        .compact_level_range(0, &[], largest, inner.gc_watermark())?;
                    inner.note_version();
                    // L1 may now be over its budget.
                    continue;
                }
                // A compaction stops counting as busy when it publishes
                // its version, before it deletes its inputs.
                inner.store.wait_for_obsolete_deletion();
                return Ok(());
            }
            let mut guard = inner.work_mutex.lock();
            // Re-check under the lock so a completion signalled between
            // the check above and this wait is not missed.
            if inner.is_busy() {
                inner
                    .work_cv
                    .wait_for(&mut guard, std::time::Duration::from_millis(25));
            }
        }
    }

    /// Per-level file counts (diagnostics).
    pub fn level_file_counts(&self) -> Vec<usize> {
        self.inner.store.level_file_counts()
    }

    /// Approximate bytes in the mutable memtable.
    pub fn memtable_bytes(&self) -> usize {
        self.inner.pm.load().memory_usage()
    }

    /// Manually compacts the key range `[start, end]` down to the
    /// bottom level (flushes the memtable first so everything in the
    /// range participates).
    pub fn compact_range(&self, start: &[u8], end: &[u8]) -> Result<()> {
        self.compact_to_quiescence()?;
        let result = self
            .inner
            .store
            .compact_range(start, end, self.inner.gc_watermark());
        self.inner.note_version();
        result
    }

    /// Walks every on-disk table verifying checksums and key order;
    /// returns the number of entries checked (offline verification
    /// hook).
    pub fn verify_integrity(&self) -> Result<u64> {
        self.inner.store.verify_integrity()
    }

    /// Block-cache `(hits, misses)`, if a cache is configured.
    pub fn cache_stats(&self) -> Option<(u64, u64)> {
        self.inner.store.cache_stats()
    }

    /// Write-amplification counters (bytes flushed vs. rewritten by
    /// compaction) — useful when analyzing compaction-bound workloads
    /// like Figure 11's.
    pub fn write_amp(&self) -> lsm_storage::store::WriteAmp {
        self.inner.store.write_amp()
    }

    /// What the opening recovery pass saw: WALs replayed, records
    /// recovered, torn tails tolerated (see `clsm-doctor
    /// --crash-audit`).
    pub fn recovery_report(&self) -> &RecoveryReport {
        self.inner.store.recovery_report()
    }

    /// Approximate bytes stored for keys in `[start, end]`: on-disk
    /// share plus the in-memory components (LevelDB's
    /// `GetApproximateSizes` analogue; coarse, for capacity planning).
    pub fn approximate_size(&self, start: &[u8], end: &[u8]) -> u64 {
        let disk = self.inner.store.approximate_range_bytes(start, end);
        // Memory components are not range-indexed; charge them whole.
        let mem = self.inner.pm.load().memory_usage()
            + self.inner.pm_prev.load().map_or(0, |m| m.memory_usage());
        disk + mem as u64
    }

    /// Force-releases snapshot handles older than `ttl`, unblocking
    /// version GC when an application leaks handles (the paper's
    /// TTL-based snapshot removal, §3.2.1). Returns how many were
    /// reclaimed. Reads through a reclaimed handle may subsequently
    /// miss versions — by contract, expired handles must not be used.
    pub fn expire_snapshots(&self, ttl: std::time::Duration) -> usize {
        self.inner.snapshots.expire_older_than(ttl)
    }

    pub(crate) fn inner(&self) -> &Arc<DbInner> {
        &self.inner
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        {
            let _g = self.inner.work_mutex.lock();
            self.inner.work_cv.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Unflushed memtable data stays recoverable via the WAL; make
        // sure the logging queue has pushed it to the OS.
        let _ = self.inner.store.sync_wal();
    }
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db")
            .field("memtable_bytes", &self.memtable_bytes())
            .field("levels", &self.level_file_counts())
            .finish()
    }
}

impl DbInner {
    /// Waits for the WAL's group-committed fsync covering everything
    /// this thread has logged. Called outside the critical section so
    /// it never blocks the merge hooks.
    fn wait_durable(&self) -> Result<()> {
        if let Some(wp) = self.write_path() {
            // The durable-ack timestamp is taken on the logger thread
            // right after the fsync, so the stage excludes the time it
            // took to wake this writer back up.
            let sync_start = now_ns();
            let durable_ns = self.store.sync_wal_timed()?;
            wp.rec_durable(durable_ns.saturating_sub(sync_start));
            Ok(())
        } else {
            self.store.sync_wal()
        }
    }

    /// The write-path attribution handles, or `None` when
    /// `Options::write_path_attribution` is off — this single branch is
    /// all a disabled stage-recording site costs.
    #[inline]
    pub(crate) fn write_path(&self) -> Option<&crate::stats::WritePathMetrics> {
        if self.opts.write_path_attribution {
            Some(&self.metrics.write_path)
        } else {
            None
        }
    }

    /// Read at a snapshot time: `Pm → P'm → Pd` (Algorithm 1's get).
    pub(crate) fn get_at(&self, key: &[u8], max_ts: u64) -> Result<Option<Vec<u8>>> {
        let pm = self.pm.load();
        if let Some((_, value)) = pm.get_latest(key, max_ts) {
            return Ok(value.map(<[u8]>::to_vec));
        }
        if let Some(prev) = self.pm_prev.load() {
            if let Some((_, value)) = prev.get_latest(key, max_ts) {
                return Ok(value.map(<[u8]>::to_vec));
            }
        }
        match self.store.get(key, max_ts)? {
            Some((_, ValueKind::Put, value)) => Ok(Some(value)),
            Some((_, ValueKind::Delete, _)) | None => Ok(None),
        }
    }

    /// Latest version's `(ts, value)` of `key` across all components
    /// (the read step of Algorithm 3). The boolean is `true` when the
    /// version lives in the *mutable* memtable.
    pub(crate) fn read_latest_versioned(&self, key: &[u8]) -> Result<VersionedRead> {
        let max_ts = lsm_storage::format::MAX_TS;
        let pm = self.pm.load();
        if let Some((ts, value)) = pm.get_latest(key, max_ts) {
            return Ok((Some((ts, value.map(<[u8]>::to_vec))), true));
        }
        if let Some(prev) = self.pm_prev.load() {
            if let Some((ts, value)) = prev.get_latest(key, max_ts) {
                return Ok((Some((ts, value.map(<[u8]>::to_vec))), false));
            }
        }
        match self.store.get(key, max_ts)? {
            Some((ts, ValueKind::Put, value)) => Ok((Some((ts, Some(value))), false)),
            Some((ts, ValueKind::Delete, _)) => Ok((Some((ts, None)), false)),
            None => Ok((None, false)),
        }
    }

    /// Write admission's current rung plus its lifetime counters, for
    /// `clsm-doctor` and the watchdog.
    pub(crate) fn admission_state(&self) -> AdmissionState {
        let behind = self.flow.behind();
        let (behind, paced_bytes_per_sec) = self.flow.binding(behind, self.pm_fill(behind));
        AdmissionState {
            enabled: self.opts.admission.enabled,
            behind,
            paced_bytes_per_sec,
            stalled: self.write_stalled(),
            delayed_writes: self.metrics.admission_delayed_writes.get(),
            delay_ns: self.metrics.admission_delay_ns.get(),
            hard_stalls: self.metrics.admission_hard_stalls.get(),
        }
    }

    /// Write admission (see [`crate::admission`]): the gate every write
    /// passes once per call, before it takes the lock, charged `bytes`.
    ///
    /// With no merge stage behind this is one relaxed load. Otherwise
    /// the write takes a slot on the pacing clock at the binding stage's
    /// drain rate and sleeps until it, then — while a flush is behind —
    /// passes §5.3's hard stall.
    #[inline]
    pub(crate) fn admit_write(&self, bytes: u64) {
        let behind = self.flow.behind();
        if behind != 0 {
            self.admit_behind(behind, bytes);
        }
    }

    #[cold]
    fn admit_behind(&self, behind: u8, bytes: u64) {
        let began = Instant::now();
        let mut held = false;
        if self.opts.admission.enabled {
            let wait = self.flow.reserve(behind, self.pm_fill(behind), bytes);
            if !wait.is_zero() {
                self.flow.wait_for_slot(wait);
                self.metrics.admission_delayed_writes.inc();
                self.metrics
                    .admission_delay_ns
                    .add(u64::try_from(began.elapsed().as_nanos()).unwrap_or(u64::MAX));
                held = true;
            }
        }
        if behind & FLUSH_BEHIND != 0 {
            held |= self.stall_if_needed();
        }
        if let (true, Some(wp)) = (held, self.write_path()) {
            wp.rec_admission(u64::try_from(began.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Charges the pacing clock for bytes a write learns only once it
    /// has committed (an RMW's new value). A write's bytes push back
    /// the slot of the writes after it, never its own, so charging them
    /// late paces the same.
    pub(crate) fn charge_committed(&self, bytes: u64) {
        let behind = self.flow.behind();
        if behind != 0 && self.opts.admission.enabled {
            self.flow.reserve(behind, self.pm_fill(behind), bytes);
        }
    }

    /// `Pm`'s bytes over its capacity while a flush is behind (the
    /// flush stage's rate depends on it), else 0 without a load.
    fn pm_fill(&self, behind: u8) -> f64 {
        if behind & FLUSH_BEHIND == 0 {
            return 0.0;
        }
        self.pm.load().memory_usage() as f64 / self.opts.memtable_bytes as f64
    }

    /// Re-evaluates the L0-behind bit from the current version. Called
    /// after every version install (flush, compaction, manual range
    /// compaction) and at open. Two installers racing can leave the bit
    /// one install stale; the next install corrects it.
    fn note_version(&self) {
        let l0_files = self.store.current_version().num_files(0);
        let limit = 2 * self.opts.store.l0_compaction_trigger;
        self.flow.set(L0_BEHIND, l0_files >= limit);
    }

    /// Bookkeeping after a background compaction that started from
    /// `before` and ran for `elapsed`: an L0→L1 merge (one that took L0
    /// tables out of the tree — flushes only ever add them) stores the
    /// L0 drain rate, then the L0-behind bit is re-evaluated.
    fn compaction_retired(&self, before: &lsm_storage::version::Version, elapsed: Duration) {
        let after = self.store.current_version();
        let l0_retired: u64 = before.levels[0]
            .iter()
            .filter(|f| !after.levels[0].iter().any(|g| g.number == f.number))
            .map(|f| f.file_size)
            .sum();
        if l0_retired > 0 {
            self.flow.l0_drained(l0_retired, elapsed);
        }
        self.note_version();
    }

    /// §5.3's stall condition: `Pm` is full while `P'm` is still being
    /// merged. Inside `beforeMerge` both pointers briefly name the same
    /// memtable (`P'm` is published before `Pm` is replaced); that is a
    /// rotation under way, not a stall — a writer that waited on it
    /// would sleep through the whole flush.
    pub(crate) fn write_stalled(&self) -> bool {
        let pm = self.pm.load();
        pm.memory_usage() >= self.opts.memtable_bytes
            && self
                .pm_prev
                .load()
                .is_some_and(|prev| !Arc::ptr_eq(&prev, &pm))
    }

    /// Write stall (§5.3): when `Cm` is full while `C'm` is still being
    /// merged, client writes wait for the merge to finish. The ladder's
    /// last rung — with pacing on, a write should rarely get here.
    /// Returns whether the write stalled.
    fn stall_if_needed(&self) -> bool {
        let mut stalled_at: Option<Instant> = None;
        let mut stall_span = None;
        loop {
            if !self.write_stalled() {
                break;
            }
            if stalled_at.is_none() {
                stalled_at = Some(Instant::now());
                stall_span = Some(T_WRITE_STALL.span());
                self.metrics.write_stalls.inc();
                self.metrics.admission_hard_stalls.inc();
            }
            let mut guard = self.work_mutex.lock();
            // Re-check under the lock to avoid missing the wakeup: the
            // flush worker notifies `work_cv` under `work_mutex` after
            // every flush attempt (success or error), and `Drop` sets
            // `shutdown` before notifying under the same mutex — so a
            // plain wait (no timed backstop) cannot hang.
            if self.write_stalled() && !self.shutdown.load(Ordering::Acquire) {
                self.work_cv.wait(&mut guard);
            }
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
        }
        drop(stall_span);
        if let Some(began) = stalled_at {
            self.metrics
                .write_stall_ns
                .add(u64::try_from(began.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        stalled_at.is_some()
    }

    /// Whether any background work is pending or in flight (the
    /// quiescence condition, inverted).
    fn is_busy(&self) -> bool {
        self.flush_pending.load(Ordering::Acquire)
            || !self.pm.load().is_empty()
            || self.pm_prev.load().is_some()
            || self.store.needs_compaction()
    }

    pub(crate) fn maybe_schedule_flush(&self) {
        if self.pm.load().memory_usage() >= self.opts.memtable_bytes {
            // A full `Pm` is a flush that is due, not one about to be:
            // behind from here until `afterMerge`. (A writer that read
            // a `Pm` whose flush has since finished sets the bit late;
            // the next `afterMerge` clears it.)
            if self.flow.behind() & FLUSH_BEHIND == 0 {
                self.flow.set(FLUSH_BEHIND, true);
            }
            self.maybe_schedule_flush_force();
        }
    }

    fn maybe_schedule_flush_force(&self) {
        if !self.flush_pending.swap(true, Ordering::AcqRel) {
            let _g = self.work_mutex.lock();
            self.work_cv.notify_all();
        }
    }

    /// The snapshot-GC watermark: the oldest live snapshot, or "now"
    /// when none exists (future snapshots always exceed the current
    /// counter).
    pub(crate) fn gc_watermark(&self) -> u64 {
        self.snapshots
            .oldest()
            .unwrap_or_else(|| self.oracle.current_time())
    }

    /// The merge of `C'm` into `Cd` with its beforeMerge/afterMerge
    /// hooks (Algorithm 1 lines 8–17).
    fn flush_once(&self) -> Result<bool> {
        // --- beforeMerge: swing the memory pointers under the
        // exclusive lock. Order matters for lock-free readers:
        // P'm must point at the old data before Pm stops doing so.
        let (imm, new_wal, watermark) = {
            // The span brackets both the wait for readers to drain and
            // the hold itself — together they are the merge's write-path
            // interference, the quantity §3.1 argues must stay tiny.
            let _span = T_BEFORE_MERGE.span();
            let _excl = self.lock.lock_exclusive();
            let old = self.pm.load();
            if old.is_empty() {
                return Ok(false);
            }
            let _rotate = T_MEMTABLE_ROTATE.span_with(old.memory_usage() as u64);
            self.pm_prev.store(Some(Arc::clone(&old)));
            self.flow.flush_started(old.memory_usage() as u64);
            self.pm.store(Arc::new(Memtable::new()));
            // New WAL: records of the immutable memtable live only in
            // older logs, which die when the flush commits.
            let new_wal = self.store.rotate_wal()?;
            // Read the snapshot list under the exclusive lock (§3.2.1).
            let watermark = self.gc_watermark();
            (old, new_wal, watermark)
        };

        // --- merge (no locks held): stream C'm into L0.
        let mut iter = imm.internal_iter();
        let max_ts = imm.max_ts();
        let began = Instant::now();
        self.store
            .flush_memtable(&mut iter, watermark, max_ts, new_wal)?;
        self.flow
            .flush_drained(imm.memory_usage() as u64, began.elapsed());
        self.note_version();

        // --- afterMerge: Pd was already swung inside the store (data
        // is reachable via the disk pointer); dropping P'm last keeps
        // the read order `Pm → P'm → Pd` gap-free throughout.
        {
            let _span = T_AFTER_MERGE.span();
            let _excl = self.lock.lock_exclusive();
            self.pm_prev.store(None);
            self.flow.set(FLUSH_BEHIND, false);
        }
        self.metrics.flushes.inc();
        Ok(true)
    }
}

/// Fails when `path` is the root of a sharded layout (see [`Db::open`]).
fn refuse_sharded_root(env: &dyn Env, path: &Path) -> Result<()> {
    if !env.exists(&path.join("SHARDS")) {
        return Ok(());
    }
    let mut shards: Vec<String> = env
        .list(path)?
        .into_iter()
        .filter(|name| name.starts_with("shard-"))
        .map(|name| name + "/")
        .collect();
    shards.sort();
    Err(Error::invalid_argument(format!(
        "{} holds a SHARDS manifest: it is the root of a range-sharded layout, not a store; \
         each subdirectory is a complete standalone store, open one of: {}",
        path.display(),
        shards.join(", "),
    )))
}

/// Background flush worker: waits for a scheduled flush, runs the
/// merge, then wakes stalled writers.
fn flush_worker(inner: Arc<DbInner>) {
    loop {
        {
            let mut guard = inner.work_mutex.lock();
            while !inner.flush_pending.load(Ordering::Acquire)
                && !inner.shutdown.load(Ordering::Acquire)
            {
                inner
                    .work_cv
                    .wait_for(&mut guard, std::time::Duration::from_millis(50));
            }
        }
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        match inner.flush_once() {
            Ok(_) => {}
            Err(_e) => {
                // The store records WAL poisoning; surface via
                // `compact_to_quiescence` / next sync. Back off to
                // avoid a hot error loop.
                std::thread::sleep(std::time::Duration::from_millis(10));
                // A mid-flush failure can leave `P'm` parked. Stalled
                // writers wait (untimed) for that flush to finish, so
                // keep retrying rather than going back to sleep with
                // `flush_pending` cleared.
                if inner.pm_prev.load().is_some() && !inner.shutdown.load(Ordering::Acquire) {
                    continue;
                }
            }
        }
        inner.flush_pending.store(false, Ordering::Release);
        let _g = inner.work_mutex.lock();
        inner.work_cv.notify_all();
    }
}

/// Whether some L0 table's key range overlaps a table in a deeper
/// level, so that it may hold versions superseding ones merged below.
fn l0_shadows_deeper_levels(version: &lsm_storage::version::Version) -> bool {
    version.levels[0].iter().any(|f| {
        (1..version.levels.len()).any(|level| {
            !version
                .overlapping_files(level, f.smallest_user_key(), f.largest_user_key())
                .is_empty()
        })
    })
}

/// Background compaction worker. Several may run concurrently (the
/// RocksDB-style configuration of §5.3); disjoint input claims keep
/// them from colliding.
fn compaction_worker(inner: Arc<DbInner>) {
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        let did_work = if inner.store.needs_compaction() {
            let before = inner.store.current_version();
            let began = Instant::now();
            match inner.store.maybe_compact(inner.gc_watermark()) {
                Ok(ran) => {
                    if ran {
                        inner.metrics.compactions.inc();
                        inner.compaction_retired(&before, began.elapsed());
                    }
                    ran
                }
                Err(_) => false,
            }
        } else {
            false
        };
        if did_work {
            // Quiescence waiters watch `needs_compaction`; tell them a
            // compaction just retired.
            let _g = inner.work_mutex.lock();
            inner.work_cv.notify_all();
        } else {
            let mut guard = inner.work_mutex.lock();
            if !inner.shutdown.load(Ordering::Acquire) {
                inner
                    .work_cv
                    .wait_for(&mut guard, std::time::Duration::from_millis(20));
            }
        }
    }
}
