//! The cLSM database: Algorithms 1 and 2 plus background maintenance.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clsm_util::clock::now_ns;
use clsm_util::env::Env;
use clsm_util::error::{Error, Result};
use clsm_util::metrics::{ConcurrentHistogram, MetricsSnapshot};
use clsm_util::oracle::{SnapshotRegistry, TimestampOracle};
use clsm_util::shared_lock::SharedExclusiveLock;

use clsm_kv::{WriteBatch, WriteOptions};
use lsm_storage::compaction;
use lsm_storage::store::RecoveryReport;
use lsm_storage::wal::SyncMode;
use lsm_storage::Store;

use crate::admission::{stage_name, FlowControl, FLUSH_BEHIND, L0_BEHIND};
use crate::components::Components;
use crate::jobs::{wait_idle, Job, JobHost, Jobs, Workers};
use crate::memtable::Memtable;
use crate::options::Options;
use crate::snapshot::Snapshot;
use crate::stats::{register_gauges, DbMetrics};
use crate::watchdog::{StallKind, Watchdog};

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
    /// `Pm` and `P'm` (see [`crate::components`]).
    pub(crate) components: Components,
    /// Counters and latency histograms (see [`crate::stats`]).
    pub(crate) metrics: DbMetrics,
    /// Stall-event sink the event sites report into (see
    /// [`crate::watchdog`]).
    pub(crate) watchdog: Watchdog,
    /// Write admission: which merge stages are behind, their drain
    /// rates and the pacing clock (see [`crate::admission`]).
    pub(crate) flow: FlowControl,
    /// Set by the first writer to stall behind the current `P'm`, which
    /// reports the episode; cleared when `beforeMerge` makes a new one.
    write_stall_reported: AtomicBool,

    /// Rejects writes once `Drop` has begun.
    pub(crate) shutdown: AtomicBool,
    /// The background threads' wake state (see [`crate::jobs`]).
    pub(crate) jobs: Jobs,
}

/// A concurrent log-structured data store (the paper's cLSM).
///
/// Cheap to share: internally reference-counted. All operations take
/// `&self` and are safe to call from any number of threads.
pub struct Db {
    pub(crate) inner: Arc<DbInner>,
    workers: Workers<DbInner>,
}

impl Db {
    /// Opens (or creates) a database at `path`, replaying any WAL left
    /// by a previous incarnation (§4: out-of-order log records are
    /// sorted by timestamp on recovery).
    ///
    /// An invalid configuration (a memtable under 4 KiB, no compaction
    /// thread, or a `StoreOptions` that `StoreOptions::validate`
    /// rejects) fails with [`Error::InvalidArgument`] before anything
    /// is opened.
    ///
    /// A directory holding a `SHARDS` manifest is the root of a
    /// range-sharded layout earlier versions wrote; it is refused with
    /// [`Error::InvalidArgument`] rather than given a fresh empty store
    /// beside its data. Each `shard-NNN/` under it is a complete store
    /// and opens on its own.
    pub fn open(path: &Path, opts: Options) -> Result<Db> {
        let mut db = Db::open_stepped(path, opts)?;
        // On a failed spawn, dropping `db` stops and joins the threads
        // that did start.
        db.workers.start(db.inner.opts.compaction_threads)?;
        Ok(db)
    }

    /// Test hook: opens like [`Db::open`] but starts no thread, not
    /// even the WAL logger. Nothing flushes, compacts or writes async
    /// records to the WAL until the caller runs the jobs
    /// [`Db::due_jobs`] lists through [`Db::run_job`], so a test fixes
    /// the order of background work. Never use this on a production
    /// path.
    ///
    /// A writer that finds `Pm` full waits until some thread runs the
    /// flush that swaps it, and [`Db::compact_to_quiescence`] waits for
    /// jobs some other thread runs.
    #[doc(hidden)]
    pub fn open_stepped(path: &Path, opts: Options) -> Result<Db> {
        opts.validate()?;
        refuse_sharded_root(opts.store.env.as_ref(), path)?;
        let (store, recovered) = Store::open(path, opts.store.clone())?;
        let metrics = DbMetrics::new();
        let watchdog = Watchdog::new(&metrics.registry);
        let inner = Arc::new(DbInner {
            oracle: TimestampOracle::recovered_at(recovered.last_ts),
            components: Components::recovered(&recovered.records, opts.memtable_bytes),
            opts,
            store,
            lock: SharedExclusiveLock::new(),
            snapshots: SnapshotRegistry::new(),
            metrics,
            watchdog,
            flow: FlowControl::default(),
            write_stall_reported: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            jobs: Jobs::default(),
        });

        // One registry for the whole stack: the storage layer records
        // its flush/compaction/WAL metrics into the registry the
        // DB-level ones live in, beside the gauges every number the
        // doctor prints comes from.
        inner.store.attach_metrics(&inner.metrics.registry);
        register_gauges(&inner);

        // A recovered tree may already be behind.
        inner.note_version();
        Ok(Db {
            workers: Workers::new(&inner),
            inner,
        })
    }

    /// The stepped scheduler's hook: see [`Workers::due_jobs`].
    #[doc(hidden)]
    pub fn due_jobs(&self) -> Vec<Job> {
        self.workers.due_jobs()
    }

    /// The stepped scheduler's hook: see [`Workers::run_job`].
    #[doc(hidden)]
    pub fn run_job(&self, job: Job) -> Result<bool> {
        self.workers.run_job(job)
    }

    /// Applies a [`WriteBatch`] under the given [`WriteOptions`].
    ///
    /// A single op runs Algorithm 2's `put` (shared lock → `getTS` →
    /// insert-as-newest → log → publish), concurrently with every
    /// other writer; [`Db::put`] and [`Db::delete`] take that path on
    /// the caller's bytes, without building a batch. A multi-op batch
    /// takes the lock in exclusive mode (§4) and stamps all entries
    /// from one timestamp block. Fsync batching for `sync` writes lives
    /// below this layer, in the WAL's logging queue.
    ///
    /// An empty batch is a no-op. Multi-op batches are atomic: no
    /// snapshot ever observes a strict subset, and recovery replays
    /// them all-or-nothing. Once a manifest or WAL write has failed,
    /// every write fails with that error (`Store::poisoned`).
    pub fn write(&self, batch: WriteBatch, opts: &WriteOptions) -> Result<()> {
        if let [(key, value)] = batch.ops() {
            return self.write_one(key, value.as_deref(), opts);
        }
        let ops = batch.into_ops();
        if ops.is_empty() {
            return Ok(());
        }
        let keys = ops.iter().map(|(key, _)| key.as_slice());
        let latency = &self.inner.metrics.write_batch_latency;
        self.commit(keys, opts, latency, || self.write_batch_exclusive(&ops))
    }

    /// Stores `value` under `key` (Algorithm 2's `put`).
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.write_one(key, Some(value), &WriteOptions::new())
    }

    /// Deletes `key` by storing a deletion marker (the paper's ⊥).
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        self.write_one(key, None, &WriteOptions::new())
    }

    /// What every write does around its commit: refuse it once the
    /// store is shutting down or when a key is empty, run `apply`, wait
    /// for the WAL fsync when `opts` or the store asks for one, ask for
    /// a flush when `Pm` is full, and record the call's latency.
    fn commit<'k>(
        &self,
        mut keys: impl Iterator<Item = &'k [u8]>,
        opts: &WriteOptions,
        latency: &ConcurrentHistogram,
        apply: impl FnOnce() -> Result<()>,
    ) -> Result<()> {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::Relaxed) {
            return Err(Error::ShuttingDown);
        }
        if keys.any(<[u8]>::is_empty) {
            // WAL replay drops empty-key records (a legacy `shard-NNN/`
            // directory carries batch-commit markers under that key),
            // so an acked write to it would vanish at the next recovery.
            return Err(Error::invalid_argument("empty keys are not supported"));
        }
        let began = now_ns();
        apply()?;
        if opts.sync || inner.opts.sync_writes {
            inner.wait_durable()?;
        }
        inner.maybe_schedule_flush();
        latency.record(now_ns().saturating_sub(began));
        Ok(())
    }

    /// Algorithm 2's `put`, for one put or delete, on borrowed bytes.
    fn write_one(&self, key: &[u8], value: Option<&[u8]>, opts: &WriteOptions) -> Result<()> {
        let inner = &self.inner;
        let latency = match value {
            Some(_) => &inner.metrics.put_latency,
            None => &inner.metrics.delete_latency,
        };
        self.commit(std::iter::once(key), opts, latency, || {
            inner.admit_write((key.len() + value.map_or(0, <[u8]>::len)) as u64)?;
            let wp = &inner.metrics.write_path;
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
            let _shared = inner.lock.lock_shared();
            // Attribution: one clock read per stage boundary. The
            // first `get_ts` is the stamp stage; a restamp after a
            // conflict (the abandoned stamp's publish and the next
            // `get_ts`) counts in the memtable stage.
            let locked = now_ns();
            let mut stamp = inner.oracle.get_ts();
            let stamped = now_ns();
            let pm = inner.components.pm();
            while let Err(_conflict) = pm.insert_as_newest(key, stamp.ts, value) {
                inner.oracle.publish(stamp);
                stamp = inner.oracle.get_ts();
            }
            let inserted = now_ns();
            let logged = inner
                .store
                .log_writes([(stamp.ts, key, value)], SyncMode::Async);
            let enqueued = now_ns();
            inner.oracle.publish(stamp);
            let published = now_ns();
            wp.stamp.record(stamped.saturating_sub(locked));
            wp.memtable.record(inserted.saturating_sub(stamped));
            wp.wal_enqueue.record(enqueued.saturating_sub(inserted));
            wp.publish.record(published.saturating_sub(enqueued));
            logged
        })
    }

    /// The coarse-grained batch path (§4): the shared-exclusive lock in
    /// *exclusive* mode, which excludes every other writer and RMW, so
    /// plain inserts suffice and no entry ever restamps. The whole
    /// batch draws one timestamp block — one `Active` slot however many
    /// entries it has — and becomes visible to snapshots at the single
    /// block publish.
    fn write_batch_exclusive(&self, batch: &[(Vec<u8>, Option<Vec<u8>>)]) -> Result<()> {
        let inner = &self.inner;
        let bytes = batch
            .iter()
            .map(|(key, value)| key.len() + value.as_ref().map_or(0, Vec::len))
            .sum::<usize>();
        inner.admit_write(bytes as u64)?;
        let wp = &inner.metrics.write_path;
        let logged;
        {
            let _excl = inner.lock_exclusive();
            // Attribution: one clock read per stage boundary.
            let locked = now_ns();
            let block = inner.oracle.get_ts_block(batch.len() as u64);
            let stamped = now_ns();
            let pm = inner.components.pm();
            for (ts, (key, value)) in (block.base..).zip(batch) {
                pm.insert(key, ts, value.as_deref());
            }
            let inserted = now_ns();
            // One log payload for the whole batch, so a torn WAL tail
            // drops it atomically.
            let writes = (block.base..)
                .zip(batch)
                .map(|(ts, (key, value))| (ts, key.as_slice(), value.as_deref()));
            logged = inner.store.log_writes(writes, SyncMode::Async);
            let enqueued = now_ns();
            // Publish even when the log append failed: an unpublished
            // stamp would wedge snapshot creation forever, and recovery
            // never depends on an unlogged record.
            inner.oracle.publish_block(block);
            let published = now_ns();
            wp.stamp.record(stamped.saturating_sub(locked));
            wp.memtable.record(inserted.saturating_sub(stamped));
            wp.wal_enqueue.record(enqueued.saturating_sub(inserted));
            wp.publish.record(published.saturating_sub(enqueued));
        }
        logged
    }

    /// Returns the latest value of `key`, or `None` if absent/deleted.
    ///
    /// Never blocks (Algorithm 1): component pointers are read through
    /// RCU in data-flow order `Pm → P'm → Pd`, the opposite of the
    /// order the merge hooks update them, so a concurrent swing is
    /// harmless.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let began = Instant::now();
        let result = self.inner.get_at(key, lsm_storage::format::MAX_TS);
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
        self.range(..)
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
        if inner.shutdown.load(Ordering::Relaxed) {
            return Err(Error::ShuttingDown);
        }
        let began = Instant::now();
        let ts = {
            // The registry is read by `beforeMerge` under the exclusive
            // lock; registering under shared mode closes the race
            // between installing a handle and the merge observing it.
            let _shared = inner.lock.lock_shared();
            let ts = inner.oracle.get_snap();
            inner.snapshots.register(ts);
            ts
        };
        inner
            .metrics
            .snapshot_latency
            .record_duration(began.elapsed());
        Ok(Snapshot::new(Arc::clone(inner), ts))
    }

    /// A point-in-time view of every registered metric: operation
    /// counters (`db.*`), per-operation latency histograms (`op.*`),
    /// storage-layer flush/compaction/WAL metrics and the tree's shape
    /// (`storage.*`, `storage.level.<n>.{files,bytes}`), oracle state
    /// (`oracle.*`) and write admission (`admission.*`). Render with
    /// [`MetricsSnapshot::to_text`].
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.registry.snapshot()
    }

    /// Blocks until the memtable found at the call is flushed, no L0
    /// table overlaps a deeper level and no compaction is due
    /// (test/benchmark hook; not part of the paper's API).
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
    /// A writer that keeps putting does not hold it up: what it writes
    /// after the call need not be flushed. The wait is untimed (see
    /// `jobs::wait_idle`).
    pub fn compact_to_quiescence(&self) -> Result<()> {
        let inner = &self.inner;
        let entry = inner.components.pm();
        loop {
            wait_idle(&**inner, &entry)?;
            match inner
                .store
                .compact_l0_if_it_shadows_deeper_levels(inner.gc_watermark())
            {
                Ok(false) => {}
                compacted => {
                    // Its claims are released either way: wake
                    // threads that found the level claimed.
                    inner.note_version();
                    compacted?;
                    // L1 may now be over its budget.
                    continue;
                }
            }
            // Readers of replaced versions may have let go since the
            // last job's removal pass: remove what they held.
            inner.store.remove_obsolete_files();
            return Ok(());
        }
    }

    /// Per-level file counts (diagnostics).
    pub fn level_file_counts(&self) -> Vec<usize> {
        self.inner.store.level_file_counts()
    }

    /// The error that made the store read-only (`Store::poisoned`), if
    /// one did: reads and snapshots work, every write and
    /// [`Db::compact_range`] fails with it; reopening recovers.
    pub fn read_only(&self) -> Option<Error> {
        self.inner.store.poisoned()
    }

    /// Approximate bytes in the mutable memtable.
    pub fn memtable_bytes(&self) -> usize {
        self.inner.components.pm().memory_usage()
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
        let components = &self.inner.components;
        let mem =
            components.pm().memory_usage() + components.pm_prev().map_or(0, |m| m.memory_usage());
        disk + mem as u64
    }
}

impl Drop for Db {
    /// Rejects later writes; dropping `workers` then stops and joins the
    /// background threads and pushes the WAL to the OS.
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
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
    /// Waits for (or issues) the group-committed WAL fsync covering
    /// everything this thread has logged. Called outside the critical
    /// section so it never blocks the merge hooks.
    fn wait_durable(&self) -> Result<()> {
        // The durable-ack timestamp is taken right after the covering
        // fsync, by whichever writer issued it, so the stage excludes
        // the time it took to wake this writer back up.
        let sync_start = now_ns();
        let durable_ns = self.store.sync_wal_timed()?;
        self.metrics
            .write_path
            .durable
            .record(durable_ns.saturating_sub(sync_start));
        Ok(())
    }

    /// Read at a snapshot time (Algorithm 1's get).
    pub(crate) fn get_at(&self, key: &[u8], max_ts: u64) -> Result<Option<Vec<u8>>> {
        let (found, _) = self.components.lookup(&self.store, key, max_ts)?;
        Ok(found.and_then(|(_, value)| value))
    }

    /// The admission stage whose rate binds right now (see
    /// [`FlowControl::binding`]) and the rate writes are paced at, 0
    /// with pacing off: the `admission.*` gauges.
    pub(crate) fn admission_binding(&self) -> (u8, u64) {
        let behind = self.flow.behind();
        let (stage, rate) = self.flow.binding(behind, self.components.fill());
        (stage, rate * u64::from(self.opts.admission.enabled))
    }

    /// Write admission (see [`crate::admission`]): the gate every write
    /// passes once per call, before it takes the lock, charged `bytes`.
    ///
    /// A poisoned store (see `Store::poisoned`) fails the write here,
    /// before it touches a memtable. With no merge stage behind the
    /// rest is one relaxed load. Otherwise the write takes a slot on
    /// the pacing clock at the binding stage's drain rate and sleeps
    /// until it, then — while a flush is behind — passes §5.3's hard
    /// stall, which a poisoned store also fails.
    #[inline]
    pub(crate) fn admit_write(&self, bytes: u64) -> Result<()> {
        if let Some(e) = self.store.poisoned() {
            return Err(e);
        }
        let behind = self.flow.behind();
        if behind != 0 {
            self.admit_behind(behind, bytes)?;
        }
        Ok(())
    }

    #[cold]
    fn admit_behind(&self, behind: u8, bytes: u64) -> Result<()> {
        let began = now_ns();
        let mut held = false;
        if self.opts.admission.enabled {
            let wait = self.flow.reserve(behind, self.components.fill(), bytes);
            if !wait.is_zero() {
                self.flow.wait_for_slot(wait);
                let delay_ns = now_ns().saturating_sub(began);
                self.metrics.admission_delayed_writes.inc();
                self.metrics.admission_delay_ns.add(delay_ns);
                if let Some((age, charged_ns)) = self.flow.charge_delay(delay_ns) {
                    self.report_slowdown(behind, age, charged_ns);
                }
                held = true;
            }
        }
        if behind & FLUSH_BEHIND != 0 {
            held |= self.stall_if_needed()?;
        }
        if held {
            let held_ns = now_ns().saturating_sub(began);
            self.metrics.write_path.admission.record(held_ns);
        }
        Ok(())
    }

    /// Reports a behind period `age` old, with `charged_ns` of pacing
    /// delay charged in it, as a sustained slowdown.
    #[cold]
    fn report_slowdown(&self, behind: u8, age: Duration, charged_ns: u64) {
        let (stage, rate) = self.flow.binding(behind, self.components.fill());
        self.watchdog.report(
            StallKind::SustainedSlowdown,
            charged_ns,
            format!(
                "admission pacing writers behind {} at {rate} B/s for {age:.1?} \
                 ({:.1?} of delay charged)",
                stage_name(stage),
                Duration::from_nanos(charged_ns),
            ),
        );
    }

    /// Charges the pacing clock for bytes a write learns only once it
    /// has committed (an RMW's new value). A write's bytes push back
    /// the slot of the writes after it, never its own, so charging them
    /// late paces the same.
    pub(crate) fn charge_committed(&self, bytes: u64) {
        let behind = self.flow.behind();
        if behind != 0 && self.opts.admission.enabled {
            self.flow.reserve(behind, self.components.fill(), bytes);
        }
    }

    /// Re-evaluates the L0-behind bit from the current version and
    /// wakes everyone waiting on the tree to change. Called after every
    /// version install (flush, compaction, manual range compaction) and
    /// at open. Two installers racing can leave the bit one install
    /// stale; the next install corrects it.
    pub(crate) fn note_version(&self) {
        let behind = compaction::l0_is_behind(&self.store.current_version());
        self.flow.set(L0_BEHIND, behind);
        self.jobs.note_install();
    }

    /// The wait for room ([`Components::write_waits`]), the ladder's last
    /// rung: with pacing on, a write should rarely get here. Returns
    /// whether the write waited, or the store's poison if the flush it
    /// waited for failed for good.
    ///
    /// Behind a `P'm` still merging it is §5.3's stall (`Cm` full while
    /// `C'm` merges): counted in `db.write_stalls`, timed in
    /// `db.write_stall_ns` and reported once per `P'm`. A write that
    /// waits only for the flush job to swap its full `Pm` is none of
    /// those; its time shows in `write_path.admission_ns` alone.
    fn stall_if_needed(&self) -> Result<bool> {
        if !self.components.write_waits() {
            return Ok(false);
        }
        let behind_merge = self.components.pm_prev().is_some();
        let began = now_ns();
        if behind_merge {
            self.metrics.write_stalls.inc();
            if !self.write_stall_reported.swap(true, Ordering::Relaxed) {
                self.report_write_stall();
            }
        }
        let waited = self.jobs.wait_for_room(&self.store, &self.components);
        if behind_merge {
            let stalled_ns = now_ns().saturating_sub(began);
            self.metrics.write_stall_ns.add(stalled_ns);
        }
        waited.map(|()| true)
    }

    /// Reports the stall behind the current `P'm`, sized by `Pm`.
    #[cold]
    fn report_write_stall(&self) {
        let memtable_bytes = self.components.pm().memory_usage();
        self.watchdog.report(
            StallKind::WriteStall,
            memtable_bytes as u64,
            format!(
                "writes stalled behind flush (memtable {memtable_bytes} / {} bytes, \
                 immutable memtable still merging)",
                self.opts.memtable_bytes
            ),
        );
    }

    pub(crate) fn maybe_schedule_flush(&self) {
        if self.components.full() {
            // A full `Pm` is a flush that is due, not one about to be:
            // behind from here until `afterMerge`. (A writer that read
            // a `Pm` whose flush has since finished sets the bit late;
            // the next `afterMerge` clears it.)
            if self.flow.behind() & FLUSH_BEHIND == 0 {
                self.flow.set(FLUSH_BEHIND, true);
            }
            self.jobs.request_flush();
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
}

impl JobHost for DbInner {
    fn store(&self) -> &Store {
        &self.store
    }

    fn jobs(&self) -> &Jobs {
        &self.jobs
    }

    fn components(&self) -> &Components {
        &self.components
    }

    /// Algorithm 1's lock in exclusive mode. The hold is the merge's
    /// write-path interference, the quantity §3.1 argues must stay tiny:
    /// `db.exclusive_hold_ns`.
    fn exclusively<R>(&self, f: impl FnOnce() -> R) -> R {
        let _excl = self.lock_exclusive();
        f()
    }

    fn gc_watermark(&self) -> u64 {
        DbInner::gc_watermark(self)
    }

    /// A new `P'm`, a new stall episode and a flush behind. The episode
    /// flag is cleared before the (sequentially consistent) store that
    /// publishes `P'm`, so a writer that loads it and stalls sees the
    /// flag clear; a writer late to report the last episode cannot
    /// swallow this one.
    fn before_swing(&self, old: &Memtable) {
        self.write_stall_reported.store(false, Ordering::Relaxed);
        self.flow.flush_started(old.memory_usage() as u64);
    }

    fn merged(&self, imm: &Memtable, took: Duration) {
        self.flow.flush_drained(imm.memory_usage() as u64, took);
        self.note_version();
    }

    /// A flush stays behind while the `Pm` that filled during the merge
    /// is full: a writer that finds the bit clear skips the stall.
    fn after_merge(&self) {
        self.flow.set(FLUSH_BEHIND, self.components.full());
    }

    /// An L0→L1 merge (one that took L0 tables out of the tree —
    /// flushes only ever add them) also stores the L0 drain rate.
    fn compact_once(&self) -> Result<bool> {
        // Only L0's numbers and sizes: holding the version itself would
        // pin the compaction's inputs past its removal pass, leaving
        // them on disk until the next job.
        let l0_before: Vec<(u64, u64)> = self.store.current_version().levels[0]
            .iter()
            .map(|f| (f.number, f.file_size))
            .collect();
        let began = Instant::now();
        if !self.store.maybe_compact(self.gc_watermark())? {
            return Ok(false);
        }
        let after = self.store.current_version();
        let l0_retired: u64 = l0_before
            .iter()
            .filter(|&&(number, _)| !after.levels[0].iter().any(|g| g.number == number))
            .map(|&(_, size)| size)
            .sum();
        if l0_retired > 0 {
            self.flow.l0_drained(l0_retired, began.elapsed());
        }
        self.note_version();
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
