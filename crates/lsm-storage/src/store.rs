//! The disk component facade: everything below the memory components.
//!
//! A [`Store`] owns the directory, WAL (through the logging queue), the
//! version set + manifest, the table/block caches, and the compaction
//! machinery. It corresponds to the paper's `Cd` plus LevelDB's
//! infrastructure modules, with one cLSM-specific property: **reads
//! never block** — the current version is published through an RCU
//! cell, so `get` and iterator creation take no lock (the paper's `Pd`
//! pointer).

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

use clsm_util::env::{Env, RealEnv};
use clsm_util::error::{Error, Result};
use clsm_util::metrics::{ConcurrentHistogram, Counter, MetricsRegistry};
use clsm_util::ratelimit::{IoPriority, IoRateLimiter};
use clsm_util::rcu::RcuCell;
use clsm_util::trace::TraceId;

/// Flight-recorder spans of the disk substrate. The flush span and the
/// per-stage compaction spans (argument = input level) are what makes
/// a flush→compaction causal chain visible in a merged trace; the WAL
/// spans time the logging queue from the writer's side.
static T_FLUSH: TraceId = TraceId::new("storage.flush");
static T_COMPACTION: TraceId = TraceId::new("storage.compaction");
static T_WAL_APPEND: TraceId = TraceId::new("storage.wal.append");
static T_WAL_SYNC: TraceId = TraceId::new("storage.wal.sync");

/// Bytes charged (at [`IoPriority::High`]) against the shared I/O
/// budget when a new WAL file is created — the cost the OS pays
/// allocating and zeroing the log head before appends can stream.
const WAL_PREALLOC_CHARGE: u64 = 64 * 1024;

use crate::cache::{BlockCache, TableCache};
use crate::compaction::{self, CompactionPolicy, CompactionPolicyKind};
use crate::filenames;
use crate::format::{ValueKind, WriteRecord};
use crate::iter::{BoxedIterator, InternalIterator};
use crate::version::ClaimSignal;
use crate::version::{Version, VersionEdit, VersionSet};
use crate::wal::{LogQueue, LogReader, LogWriter, SyncMode};
use crate::NUM_LEVELS;

/// Tunables of the disk substrate.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Target uncompressed size of one data block.
    pub block_size: usize,
    /// Bloom-filter budget per key.
    pub bloom_bits_per_key: usize,
    /// Target size of one table file.
    pub table_file_size: u64,
    /// Byte budget of the block cache (0 disables it).
    pub block_cache_bytes: usize,
    /// Number of L0 files that triggers a compaction.
    pub l0_compaction_trigger: usize,
    /// Byte budget of L1; deeper levels get `level_multiplier`× more.
    pub base_level_bytes: u64,
    /// Growth factor between level budgets.
    pub level_multiplier: u64,
    /// Number of levels (≤ [`NUM_LEVELS`]).
    pub num_levels: usize,
    /// Maximum simultaneously open table readers.
    pub max_open_tables: usize,
    /// The storage environment every byte goes through. Defaults to
    /// [`RealEnv`]; tests inject `clsm_util::env::FaultEnv` for
    /// deterministic crash injection.
    pub env: Arc<dyn Env>,
    /// Which [`CompactionPolicy`] schedules background merges.
    pub compaction_policy: CompactionPolicyKind,
    /// Shared background-I/O budget charged by flushes, compactions,
    /// and WAL pre-allocation at the [`Env`] write seam. `None` (the
    /// default) means unlimited. An `Arc` because every flush and
    /// compaction output file (`RateLimitedFile`) holds a handle to the
    /// same bucket the store charges WAL rotations to.
    pub io_rate_limiter: Option<Arc<IoRateLimiter>>,
}

impl StoreOptions {
    /// Installs a fresh token-bucket limiter (`bytes_per_sec` refill,
    /// `burst_bytes` capacity; 0 bytes/sec removes the limit).
    pub fn with_rate_limit(mut self, bytes_per_sec: u64, burst_bytes: u64) -> StoreOptions {
        self.io_rate_limiter =
            (bytes_per_sec > 0).then(|| Arc::new(IoRateLimiter::new(bytes_per_sec, burst_bytes)));
        self
    }
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            block_size: 4 * 1024,
            bloom_bits_per_key: 10,
            table_file_size: 2 * 1024 * 1024,
            block_cache_bytes: 8 * 1024 * 1024,
            l0_compaction_trigger: 4,
            base_level_bytes: 10 * 1024 * 1024,
            level_multiplier: 10,
            num_levels: NUM_LEVELS,
            max_open_tables: 500,
            env: Arc::new(RealEnv),
            compaction_policy: CompactionPolicyKind::default(),
            io_rate_limiter: None,
        }
    }
}

/// State recovered from a previous incarnation.
#[derive(Debug)]
pub struct Recovered {
    /// Unflushed writes from live WALs, sorted by `(timestamp, key)`
    /// and deduplicated (the cLSM out-of-order-logging recovery rule,
    /// §4).
    pub records: Vec<WriteRecord>,
    /// Highest timestamp ever issued (resume the oracle above this).
    pub last_ts: u64,
    /// What recovery saw: WALs replayed, torn tails tolerated.
    pub report: RecoveryReport,
}

/// A summary of one recovery pass, for `clsm-doctor --crash-audit`.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// WAL file numbers replayed, in replay order.
    pub wals_replayed: Vec<u64>,
    /// Write records recovered from those WALs (after deduplication).
    pub records_recovered: usize,
    /// Torn WAL tails tolerated: `(wal number, byte offset)` where
    /// damage began. Data before each offset was recovered intact.
    pub torn_tails: Vec<(u64, u64)>,
    /// Byte offset where the manifest was found torn, if it was.
    pub manifest_torn_at: Option<u64>,
}

/// The disk component.
pub struct Store {
    dir: PathBuf,
    opts: StoreOptions,
    cache: Arc<TableCache>,
    versions: Mutex<VersionSet>,
    /// Lock-free snapshot of the current version (the `Pd` pointer).
    current: RcuCell<Arc<Version>>,
    /// The logging queue (§4): one file, one logger thread.
    wal: LogQueue,
    /// Number of the WAL currently receiving appends — the
    /// retire/replay boundary. Every record in the live memtable sits
    /// in a WAL numbered at or above this.
    wal_number: AtomicU64,
    /// Output files of in-flight flushes/compactions: written to disk
    /// but not yet committed to a version. Obsolete-file GC must spare
    /// them (LevelDB's `pending_outputs_`).
    pending_outputs: Mutex<HashSet<u64>>,
    /// Bytes written by memtable flushes.
    bytes_flushed: AtomicU64,
    /// Bytes written by compactions (rewrites).
    bytes_compacted: AtomicU64,
    /// Observability hooks, attached at most once (see
    /// [`Store::attach_metrics`]). Absent in standalone/test use; all
    /// recording sites are no-ops then.
    metrics: OnceLock<StoreMetrics>,
    /// Signalled whenever a compaction claim is released (every claim
    /// carries it via `attach_release_signal`, so error unwinds notify
    /// too); `compact_range` waits here for claimed overlapping files
    /// with a plain `wait` — no timed-poll backstop needed.
    claims: Arc<ClaimSignal>,
    /// The scheduling policy picking background compactions
    /// ([`StoreOptions::compaction_policy`], built at open).
    policy: Box<dyn CompactionPolicy>,
    /// What the opening recovery pass saw (for `--crash-audit`).
    recovery_report: RecoveryReport,
}

/// The store's registered metrics handles. Recording through these is
/// lock-free; only registration (once, at attach time) takes a lock.
struct StoreMetrics {
    /// Duration of each group-committed WAL fsync wait.
    wal_sync_ns: Arc<ConcurrentHistogram>,
    /// Duration of each memtable flush (merge of `C'm` into L0).
    flush_ns: Arc<ConcurrentHistogram>,
    /// Duration of each compaction (background or manual).
    compaction_ns: Arc<ConcurrentHistogram>,
    /// Bytes written by flushes (mirror of the write-amp counter).
    bytes_flushed: Arc<Counter>,
    /// Bytes written by compactions.
    bytes_compacted: Arc<Counter>,
}

/// Write-amplification accounting: bytes written by flushes vs. bytes
/// rewritten by compactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WriteAmp {
    /// Bytes first written by memtable flushes (the logical ingest).
    pub flushed: u64,
    /// Bytes rewritten by compactions on top of that.
    pub compacted: u64,
}

impl WriteAmp {
    /// Total device writes divided by logical ingest (≥ 1.0).
    pub fn factor(&self) -> f64 {
        if self.flushed == 0 {
            1.0
        } else {
            (self.flushed + self.compacted) as f64 / self.flushed as f64
        }
    }
}

/// RAII registration of in-flight output file numbers; deregisters on
/// drop so failed flushes/compactions release their claims.
struct PendingGuard<'a> {
    store: &'a Store,
    numbers: Arc<Mutex<Vec<u64>>>,
}

impl<'a> PendingGuard<'a> {
    fn new(store: &'a Store) -> Self {
        PendingGuard {
            store,
            numbers: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// An allocator of output file numbers that registers each one as
    /// pending (shared with the guard for release on drop).
    fn allocator(&self) -> impl FnMut() -> u64 + '_ {
        let numbers = Arc::clone(&self.numbers);
        move || {
            let n = self.store.versions.lock().new_file_number();
            self.store.pending_outputs.lock().insert(n);
            numbers.lock().push(n);
            n
        }
    }
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        let mut pending = self.store.pending_outputs.lock();
        for n in self.numbers.lock().iter() {
            pending.remove(n);
        }
    }
}

impl Store {
    /// Opens (or creates) a store in `dir` and replays its WALs.
    pub fn open(dir: &Path, opts: StoreOptions) -> Result<(Store, Recovered)> {
        assert!(opts.num_levels >= 2 && opts.num_levels <= NUM_LEVELS);
        let env = Arc::clone(&opts.env);
        env.create_dir_all(dir)?;
        let (mut versions, manifest_state) = VersionSet::open(Arc::clone(&env), dir)?;
        let mut report = RecoveryReport {
            manifest_torn_at: manifest_state.manifest_torn_at,
            ..Default::default()
        };

        // Replay every WAL at/above the manifest's boundary.
        let mut wal_numbers: Vec<u64> = Vec::new();
        for name in env.list(dir)? {
            if let Some(filenames::FileKind::Wal(n)) = filenames::parse_file_name(&name) {
                if n >= manifest_state.log_number {
                    wal_numbers.push(n);
                }
            }
        }
        wal_numbers.sort_unstable();
        // The fresh WAL below must not reuse (and truncate) a live one.
        if let Some(&newest) = wal_numbers.last() {
            versions.mark_file_number_used(newest);
        }
        let mut records: Vec<WriteRecord> = Vec::new();
        for n in &wal_numbers {
            let path = filenames::wal_path(dir, *n);
            let mut reader = LogReader::with_path(env.open_read(&path)?, &path);
            loop {
                match reader.read_record() {
                    Ok(Some(payload)) => records.extend(WriteRecord::decode_batch(&payload)?),
                    Ok(None) => break,
                    Err(Error::WalTruncated { offset, .. }) => {
                        // A torn tail is the expected signature of a
                        // crash: everything before `offset` was intact,
                        // everything after was never acked. Tolerate it
                        // and record where replay stopped.
                        report.torn_tails.push((*n, offset));
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        report.wals_replayed = wal_numbers;

        // An empty-key record is not a user write (`Db::write` rejects
        // the empty key): it is a batch-commit marker left in a
        // `shard-NNN/` directory by the removed sharded composition. It
        // shares its timestamp with the entries logged beside it, so
        // dropping it loses nothing `last_ts` needs.
        records.retain(|r| !r.key.is_empty());
        // cLSM WALs are written out of timestamp order; restore order
        // and drop duplicates (a record may coexist with its flushed
        // copy, or appear twice across a rotation race). Entries such a
        // legacy cross-shard batch wrote share one timestamp, so the
        // dedup key is the (ts, key) pair — never the timestamp alone.
        records.sort_by(|a, b| a.ts.cmp(&b.ts).then_with(|| a.key.cmp(&b.key)));
        records.dedup_by(|a, b| a.ts == b.ts && a.key == b.key);
        report.records_recovered = records.len();
        let last_ts = records
            .last()
            .map(|r| r.ts)
            .unwrap_or(0)
            .max(manifest_state.last_ts);

        let cache = Arc::new(TableCache::new(
            Arc::clone(&env),
            dir.to_path_buf(),
            opts.bloom_bits_per_key,
            (opts.block_cache_bytes > 0).then(|| Arc::new(BlockCache::new(opts.block_cache_bytes))),
            opts.max_open_tables,
        ));

        // Fresh WAL for the new incarnation. The recovered records stay
        // covered by the old WALs (numbers ≥ log_number), which are
        // retired only after the next flush.
        let wal_number = versions.new_file_number();
        let wal_file = env.open_write(&filenames::wal_path(dir, wal_number))?;
        let wal = LogQueue::start(LogWriter::new(wal_file));

        let current = RcuCell::new(versions.current());
        let opts_policy = opts.compaction_policy;
        let store = Store {
            dir: dir.to_path_buf(),
            opts,
            cache,
            versions: Mutex::new(versions),
            current,
            wal,
            wal_number: AtomicU64::new(wal_number),
            pending_outputs: Mutex::new(HashSet::new()),
            bytes_flushed: AtomicU64::new(0),
            bytes_compacted: AtomicU64::new(0),
            metrics: OnceLock::new(),
            claims: Arc::new(ClaimSignal::default()),
            policy: opts_policy.build(),
            recovery_report: report.clone(),
        };
        Ok((
            store,
            Recovered {
                records,
                last_ts,
                report,
            },
        ))
    }

    /// The store's options.
    pub fn options(&self) -> &StoreOptions {
        &self.opts
    }

    /// The storage environment this store runs on.
    pub fn env(&self) -> &Arc<dyn Env> {
        &self.opts.env
    }

    /// What the opening recovery pass saw.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery_report
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The shared table cache.
    pub fn table_cache(&self) -> &Arc<TableCache> {
        &self.cache
    }

    /// Appends a batch of writes to the WAL as one record, so a crash
    /// tears whole batches, never fractions of one.
    pub fn log(&self, batch: &[WriteRecord], mode: SyncMode) -> Result<()> {
        let mut payload =
            Vec::with_capacity(batch.iter().map(|r| r.key.len() + r.value.len() + 16).sum());
        for r in batch {
            r.encode_to(&mut payload);
        }
        let _span = T_WAL_APPEND.span_with(payload.len() as u64);
        self.wal.append(payload, mode)
    }

    /// Registers the store's metrics (WAL sync latency, flush and
    /// compaction durations, bytes written) in `registry` under the
    /// `storage.` prefix. Call at most once, before serving traffic;
    /// later calls are ignored. Without an attached registry every
    /// recording site is a no-op.
    pub fn attach_metrics(&self, registry: &MetricsRegistry) {
        let _ = self.metrics.set(StoreMetrics {
            wal_sync_ns: registry.histogram("storage.wal_sync_ns"),
            flush_ns: registry.histogram("storage.flush_ns"),
            compaction_ns: registry.histogram("storage.compaction_ns"),
            bytes_flushed: registry.counter("storage.bytes_flushed"),
            bytes_compacted: registry.counter("storage.bytes_compacted"),
        });
    }

    /// Forces everything logged so far to disk.
    pub fn sync_wal(&self) -> Result<()> {
        self.sync_wal_timed().map(|_durable_ns| ())
    }

    /// Like [`sync_wal`](Self::sync_wal), but returns the logger
    /// thread's `trace::now_ns()` reading taken right after the
    /// covering fsync — the instant durability was reached, before any
    /// cross-thread wake-up latency. Write-path attribution uses it to
    /// bound the durable stage by actual fsync completion.
    pub fn sync_wal_timed(&self) -> Result<u64> {
        let _span = T_WAL_SYNC.span();
        let start = self.metrics.get().map(|_| Instant::now());
        let result = self.wal.sync_timed();
        if let (Some(m), Some(start)) = (self.metrics.get(), start) {
            m.wal_sync_ns.record_duration(start.elapsed());
        }
        result
    }

    /// Lock-free snapshot of the current disk component.
    pub fn current_version(&self) -> Arc<Version> {
        self.current.load()
    }

    /// Point lookup: newest version of `user_key` with ts `<= max_ts`.
    pub fn get(&self, user_key: &[u8], max_ts: u64) -> Result<Option<(u64, ValueKind, Vec<u8>)>> {
        self.current_version().get(&self.cache, user_key, max_ts)
    }

    /// Iterators over the current version (for merging with memtables).
    pub fn iterators(&self) -> Result<Vec<BoxedIterator>> {
        self.current_version().iterators(&self.cache)
    }

    /// Like [`Store::iterators`], but also returns the version the
    /// iterators read. Long-lived scans must hold the `Arc<Version>`:
    /// it is what protects the underlying files from deletion by a
    /// concurrent compaction (the paper's component reference counts).
    pub fn version_iterators(&self) -> Result<(Arc<Version>, Vec<BoxedIterator>)> {
        let version = self.current_version();
        let iters = version.iterators(&self.cache)?;
        Ok((version, iters))
    }

    /// Starts a new WAL file; subsequent appends go to it. Returns the
    /// new WAL's number. Called by `beforeMerge` when the memtable is
    /// swapped, so each memtable maps to a WAL prefix: every
    /// pre-rotation WAL is numbered strictly below the return value,
    /// the retire/replay boundary for the memtable being flushed.
    pub fn rotate_wal(&self) -> Result<u64> {
        let number = self.versions.lock().new_file_number();
        // Charge the new log's pre-allocation against the shared I/O
        // budget at high priority: the rotation sits on the flush
        // path, so it must outrank compaction traffic, never wait
        // behind it.
        if let Some(limiter) = &self.opts.io_rate_limiter {
            limiter.acquire(WAL_PREALLOC_CHARGE, IoPriority::High);
        }
        let file = self
            .opts
            .env
            .open_write(&filenames::wal_path(&self.dir, number))?;
        self.wal.rotate(LogWriter::new(file))?;
        self.wal_number.store(number, Ordering::SeqCst);
        Ok(number)
    }

    /// The WAL number currently receiving appends.
    pub fn current_wal_number(&self) -> u64 {
        self.wal_number.load(Ordering::SeqCst)
    }

    /// Backlog of the logging queue (records enqueued, not yet handed
    /// to the logger thread). Racy diagnostic sample.
    pub fn wal_queue_depth(&self) -> usize {
        self.wal.depth()
    }

    /// Flushes a sorted memtable stream into level-0 tables.
    ///
    /// `watermark` is the oldest live snapshot; `max_ts` the highest
    /// timestamp in the stream; `retire_wals_below` the WAL number the
    /// flushed data predates (those logs become garbage).
    pub fn flush_memtable(
        &self,
        it: &mut dyn InternalIterator,
        watermark: u64,
        max_ts: u64,
        retire_wals_below: u64,
    ) -> Result<()> {
        it.seek_to_first();
        let _span = T_FLUSH.span_with(max_ts);
        let start = Instant::now();
        let guard = PendingGuard::new(self);
        let new_files = {
            let mut alloc = guard.allocator();
            compaction::write_merged_tables(
                it, &self.dir, &self.opts, 0, watermark, false, &mut alloc,
            )?
        };
        let flushed_bytes = new_files.iter().map(|f| f.file_size).sum::<u64>();
        self.bytes_flushed
            .fetch_add(flushed_bytes, Ordering::Relaxed);
        let edit = VersionEdit {
            log_number: Some(retire_wals_below),
            last_ts: Some(max_ts),
            new_files,
            ..Default::default()
        };
        let mut versions = self.versions.lock();
        let new_version = versions.log_and_apply(edit)?;
        self.current.store(new_version);
        self.delete_obsolete_locked(&mut versions)?;
        drop(versions);
        drop(guard);
        if let Some(m) = self.metrics.get() {
            m.bytes_flushed.add(flushed_bytes);
            m.flush_ns.record_duration(start.elapsed());
        }
        Ok(())
    }

    /// Returns `true` if some level's score is at or past its budget
    /// under the configured [`CompactionPolicy`].
    pub fn needs_compaction(&self) -> bool {
        let v = self.current_version();
        self.policy.needs_compaction(&v, &self.opts)
    }

    /// The configured compaction scheduling policy.
    pub fn compaction_policy(&self) -> CompactionPolicyKind {
        self.policy.kind()
    }

    /// The shared background-I/O limiter, when one is configured.
    pub fn io_rate_limiter(&self) -> Option<&Arc<IoRateLimiter>> {
        self.opts.io_rate_limiter.as_ref()
    }

    /// Picks (via the configured policy) and runs one compaction if
    /// any level needs it.
    ///
    /// Safe to call from several threads: file claims make concurrent
    /// compactions work on disjoint inputs (this is how the RocksDB
    /// baseline's multi-threaded compaction is modeled, §5.3).
    pub fn maybe_compact(&self, watermark: u64) -> Result<bool> {
        let version = self.current_version();
        let Some(mut task) = self.policy.pick(&version, &self.opts) else {
            return Ok(false);
        };
        task.attach_release_signal(Arc::clone(&self.claims));
        let _span = T_COMPACTION.span_with(task.level as u64);
        let start = Instant::now();
        let guard = PendingGuard::new(self);
        let edit = {
            let mut alloc = guard.allocator();
            compaction::run(
                &task,
                &self.dir,
                &self.cache,
                &self.opts,
                watermark,
                &mut alloc,
            )?
        };
        let written = edit.new_files.iter().map(|f| f.file_size).sum::<u64>();
        self.bytes_compacted.fetch_add(written, Ordering::Relaxed);
        let mut versions = self.versions.lock();
        let new_version = versions.log_and_apply(edit)?;
        self.current.store(new_version);
        self.delete_obsolete_locked(&mut versions)?;
        drop(versions);
        drop(guard);
        drop(task); // claim Drop notifies `claims`
        if let Some(m) = self.metrics.get() {
            m.bytes_compacted.add(written);
            m.compaction_ns.record_duration(start.elapsed());
        }
        Ok(true)
    }

    /// Blocks until every flush or compaction that has published its
    /// version has also deleted the files it made obsolete. Both steps
    /// happen under the version-set lock, so passing through the lock
    /// is the wait; afterwards the directory is as settled as the
    /// current version.
    pub fn wait_for_obsolete_deletion(&self) {
        drop(self.versions.lock());
    }

    /// Runs obsolete-file deletion, sparing in-flight pending outputs.
    fn delete_obsolete_locked(&self, versions: &mut VersionSet) -> Result<()> {
        let pending: HashSet<u64> = self.pending_outputs.lock().clone();
        versions.delete_obsolete_files(&self.cache, &pending)?;
        Ok(())
    }

    /// Per-level file counts (diagnostics).
    pub fn level_file_counts(&self) -> Vec<usize> {
        let v = self.current_version();
        (0..self.opts.num_levels).map(|l| v.num_files(l)).collect()
    }

    /// Per-level byte totals (diagnostics).
    pub fn level_byte_sizes(&self) -> Vec<u64> {
        let v = self.current_version();
        (0..self.opts.num_levels)
            .map(|l| v.level_bytes(l))
            .collect()
    }

    /// First WAL I/O error, if the logger thread hit one.
    pub fn wal_poisoned(&self) -> Option<clsm_util::error::Error> {
        self.wal.poisoned()
    }

    /// Manually compacts every file overlapping `[start, end]` (user
    /// keys) down to the bottom level, level by level — LevelDB's
    /// `CompactRange` admin operation. Blocks until done; safe to run
    /// concurrently with background compactions (claims serialize).
    pub fn compact_range(&self, start: &[u8], end: &[u8], watermark: u64) -> Result<()> {
        for level in 0..self.opts.num_levels - 1 {
            self.compact_level_range(level, start, end, watermark)?;
        }
        Ok(())
    }

    /// Merges every file of `level` overlapping `[start, end]` (all of
    /// L0 when any L0 file does) with its overlap one level down, in
    /// one manual compaction. Blocks until done; a background
    /// compaction holding one of the inputs is waited out. The last
    /// level has nowhere to go: a no-op.
    pub fn compact_level_range(
        &self,
        level: usize,
        start: &[u8],
        end: &[u8],
        watermark: u64,
    ) -> Result<()> {
        if level + 1 >= self.opts.num_levels {
            return Ok(());
        }
        let mut task = loop {
            let version = self.current_version();
            if let Some(task) =
                compaction::pick_level_range(&version, &self.opts, level, start, end)
            {
                break task;
            }
            // Nothing overlapping at this level, or claimed by a
            // background compaction: if the level still has overlapping
            // files we must wait and retry, else there is nothing to do.
            if version.overlapping_files(level, start, end).is_empty() {
                return Ok(());
            }
            // A background compaction holds the claim. Every claim
            // release notifies `claims` under its lock (RAII, including
            // error unwinds), so re-check under that same lock and then
            // wait untimed — a release between our failed pick above and
            // the lock acquisition cannot be missed.
            let mut guard = self.claims.lock();
            let version = self.current_version();
            if let Some(task) =
                compaction::pick_level_range(&version, &self.opts, level, start, end)
            {
                break task;
            }
            if version.overlapping_files(level, start, end).is_empty() {
                return Ok(());
            }
            self.claims.wait(&mut guard);
        };
        task.attach_release_signal(Arc::clone(&self.claims));
        let _span = T_COMPACTION.span_with(task.level as u64);
        let start = Instant::now();
        let guard = PendingGuard::new(self);
        let edit = {
            let mut alloc = guard.allocator();
            compaction::run(
                &task,
                &self.dir,
                &self.cache,
                &self.opts,
                watermark,
                &mut alloc,
            )?
        };
        let written = edit.new_files.iter().map(|f| f.file_size).sum::<u64>();
        self.bytes_compacted.fetch_add(written, Ordering::Relaxed);
        let mut versions = self.versions.lock();
        let new_version = versions.log_and_apply(edit)?;
        self.current.store(new_version);
        self.delete_obsolete_locked(&mut versions)?;
        drop(versions);
        drop(guard);
        drop(task); // claim Drop notifies `claims`
        if let Some(m) = self.metrics.get() {
            m.bytes_compacted.add(written);
            m.compaction_ns.record_duration(start.elapsed());
        }
        Ok(())
    }

    /// Full integrity scan: walks every table in the current version
    /// end-to-end, validating per-block checksums and internal key
    /// order. Returns the number of entries checked.
    ///
    /// Intended for offline verification tools and tests; it reads
    /// every byte of every table, so it is proportional to store size.
    pub fn verify_integrity(&self) -> Result<u64> {
        let version = self.current_version();
        let mut checked = 0u64;
        for level in &version.levels {
            for file in level {
                let table = self.cache.table(file.number)?;
                let mut it = table.iter();
                it.seek_to_first();
                let mut prev: Option<(Vec<u8>, u64)> = None;
                while it.valid() {
                    if let Some((pk, pts)) = &prev {
                        let ord = pk.as_slice().cmp(it.user_key());
                        let in_order = ord == std::cmp::Ordering::Less
                            || (ord == std::cmp::Ordering::Equal && it.ts() < *pts);
                        if !in_order {
                            return Err(clsm_util::error::Error::corruption(format!(
                                "table {:06} has out-of-order keys",
                                file.number
                            )));
                        }
                    }
                    prev = Some((it.user_key().to_vec(), it.ts()));
                    checked += 1;
                    it.next();
                }
                it.status()?;
            }
        }
        Ok(checked)
    }

    /// Block-cache hit/miss counters, if a cache is configured.
    pub fn cache_stats(&self) -> Option<(u64, u64)> {
        self.cache.block_cache().map(|c| c.stats())
    }

    /// Write-amplification counters (flush vs. compaction bytes).
    pub fn write_amp(&self) -> WriteAmp {
        WriteAmp {
            flushed: self.bytes_flushed.load(Ordering::Relaxed),
            compacted: self.bytes_compacted.load(Ordering::Relaxed),
        }
    }

    /// Approximate on-disk bytes attributable to user keys in
    /// `[start, end]` (LevelDB's `GetApproximateSizes`): whole files
    /// fully inside the range count entirely, boundary files count
    /// proportionally by key-range position.
    pub fn approximate_range_bytes(&self, start: &[u8], end: &[u8]) -> u64 {
        let version = self.current_version();
        let mut total = 0u64;
        for level in &version.levels {
            for file in level {
                let lo = file.smallest_user_key();
                let hi = file.largest_user_key();
                if hi < start || lo > end {
                    continue;
                }
                if lo >= start && hi <= end {
                    total += file.file_size;
                } else {
                    // Boundary overlap: charge half as a coarse estimate
                    // (no per-block index probing; good enough for
                    // capacity planning, the API's intended use).
                    total += file.file_size / 2;
                }
            }
        }
        total
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("levels", &self.level_file_counts())
            .finish()
    }
}

#[cfg(test)]
mod tests;
