//! The disk component facade: everything below the memory components.
//!
//! A [`Store`] owns the directory, WAL (through the logging queue), the
//! version set + manifest, the block cache, and the compaction
//! machinery. It corresponds to the paper's `Cd` plus LevelDB's
//! infrastructure modules, with one cLSM-specific property: **reads
//! never block** — the current version is published through an RCU
//! cell, so `get` and iterator creation take no lock (the paper's `Pd`
//! pointer).

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

use clsm_util::env::{Env, RealEnv};
use clsm_util::epoch;
use clsm_util::error::{Error, Result};
use clsm_util::metrics::{ConcurrentHistogram, Counter, MetricsRegistry};
use clsm_util::rcu::RcuCell;

use crate::cache::BlockCache;
use crate::compaction::{self, CompactionTask};
use crate::filenames::{self, FileKind};
use crate::format::{self, ValueKind, WriteRecord};
use crate::iter::{BoxedIterator, InternalIterator};
use crate::version::{ClaimSignal, ObsoleteFiles, TableOpener, Version, VersionEdit, VersionSet};
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
    /// Byte budget of L1; deeper levels get `level_multiplier`× more.
    pub base_level_bytes: u64,
    /// Growth factor between level budgets.
    pub level_multiplier: u64,
    /// Number of levels (≤ `NUM_LEVELS`).
    pub num_levels: usize,
    /// The storage environment every byte goes through. Defaults to
    /// [`RealEnv`]; tests inject `clsm_util::env::FaultEnv` for
    /// deterministic crash injection.
    pub env: Arc<dyn Env>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            block_size: 4 * 1024,
            bloom_bits_per_key: 10,
            table_file_size: 2 * 1024 * 1024,
            block_cache_bytes: 8 * 1024 * 1024,
            base_level_bytes: 10 * 1024 * 1024,
            level_multiplier: 10,
            num_levels: NUM_LEVELS,
            env: Arc::new(RealEnv),
        }
    }
}

impl StoreOptions {
    /// Checks the invariants [`Store::open`] relies on. A zero budget
    /// would divide `level_score` by zero, so the compaction thread
    /// never rests; a zero table size closes one table per entry.
    pub fn validate(&self) -> Result<()> {
        let rule = if !(2..=NUM_LEVELS).contains(&self.num_levels) {
            "num_levels must be within 2..=NUM_LEVELS"
        } else if self.level_multiplier < 2 {
            "level_multiplier must be at least 2"
        } else if self.block_size < 64 {
            "block_size must be at least 64 bytes"
        } else if self.base_level_bytes == 0 {
            "base_level_bytes must be nonzero"
        } else if self.table_file_size == 0 {
            "table_file_size must be nonzero"
        } else {
            return Ok(());
        };
        Err(Error::invalid_argument(format!("StoreOptions: {rule}")))
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

/// A WAL file created ahead of the memtable switch that starts it
/// ([`Store::prepare_wal`]); [`Store::cut_wal`] switches to it.
#[derive(Debug)]
pub struct NextWal {
    number: u64,
    writer: LogWriter,
}

/// The disk component.
pub struct Store {
    opts: StoreOptions,
    /// The store directory and how every table in it opens; each open
    /// reader belongs to the `FileMeta` naming its table.
    tables: Arc<TableOpener>,
    versions: Mutex<VersionSet>,
    /// Lock-free snapshot of the current version (the `Pd` pointer).
    current: RcuCell<Arc<Version>>,
    /// The logging queue (§4): one file at a time.
    wal: LogQueue,
    /// Number of the WAL currently receiving appends — the
    /// retire/replay boundary. Every record in the live memtable sits
    /// in a WAL numbered at or above this.
    wal_number: AtomicU64,
    /// WALs not yet retired, by number: a committed flush lists those
    /// below its boundary as obsolete.
    wals: Mutex<Vec<u64>>,
    /// Files no version names any more; each job ends by removing them.
    obsolete: Arc<ObsoleteFiles>,
    /// The store's first fatal error but the WAL's: the version set's
    /// first manifest write error, or the one [`Store::poison`] set.
    /// Shared with the version set, so no edit commits after it.
    fatal: Arc<OnceLock<Error>>,
    /// Bytes written by memtable flushes (`storage.bytes_flushed`).
    bytes_flushed: Arc<Counter>,
    /// Bytes written by compactions, rewrites only
    /// (`storage.bytes_compacted`).
    bytes_compacted: Arc<Counter>,
    /// Observability hooks, attached at most once (see
    /// [`Store::attach_metrics`]). Absent in standalone/test use; all
    /// recording sites are no-ops then.
    metrics: OnceLock<StoreMetrics>,
    /// Signalled whenever a compaction claim is released (every claim
    /// carries it via `attach_release_signal`, so error unwinds notify
    /// too); `compact_range` waits here for claimed overlapping files
    /// with a plain `wait` — no timed-poll backstop needed.
    claims: Arc<ClaimSignal>,
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

/// What one background compaction merged ([`Store::maybe_compact`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Compacted {
    /// The level its base inputs left.
    pub level: usize,
    /// The base inputs' bytes: what left `level`, whether merged into
    /// `level + 1` or moved there whole.
    pub base_bytes: u64,
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

impl Store {
    /// Opens (or creates) a store in `dir` and replays its WALs.
    pub fn open(dir: &Path, opts: StoreOptions) -> Result<(Store, Recovered)> {
        opts.validate()?;
        let env = Arc::clone(&opts.env);
        env.create_dir_all(dir)?;
        let (mut versions, manifest_state) = VersionSet::open(Arc::clone(&env), dir)?;
        let mut report = RecoveryReport {
            manifest_torn_at: manifest_state.manifest_torn_at,
            ..Default::default()
        };

        // The one listing of the directory: replay every WAL at/above
        // the manifest's boundary; sweep older WALs, temp files and the
        // tables the recovered version does not name.
        let named = versions.current();
        let mut wal_numbers: Vec<u64> = Vec::new();
        let mut sweep = Vec::new();
        for name in env.list(dir)? {
            let Some(kind @ (FileKind::Wal(n) | FileKind::Table(n) | FileKind::Temp(n))) =
                filenames::parse_file_name(&name)
            else {
                continue;
            };
            // No number on disk is handed out again, not even one whose
            // file failed to go and stays listed.
            versions.mark_file_number_used(n);
            match kind {
                FileKind::Wal(n) if n >= manifest_state.log_number => wal_numbers.push(n),
                FileKind::Table(n) if named.levels.iter().flatten().any(|f| f.number == n) => {}
                _ => sweep.push(kind),
            }
        }
        wal_numbers.sort_unstable();
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
        report.wals_replayed = wal_numbers.clone();

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

        let tables = Arc::new(TableOpener {
            env: Arc::clone(&env),
            dir: dir.to_path_buf(),
            bloom_bits_per_key: opts.bloom_bits_per_key,
            block_cache: (opts.block_cache_bytes > 0)
                .then(|| Arc::new(BlockCache::new(opts.block_cache_bytes))),
        });

        // Fresh WAL for the new incarnation. The recovered records stay
        // covered by the old WALs (numbers ≥ log_number), which are
        // retired only after the next flush.
        let wal_number = versions.new_file_number();
        let wal_file = env.open_write(&filenames::wal_path(dir, wal_number))?;
        let wal = LogQueue::new(LogWriter::new(wal_file));

        let obsolete = Arc::clone(versions.obsolete_files());
        let fatal = Arc::clone(versions.manifest_error());
        obsolete.files.lock().extend(sweep);
        wal_numbers.push(wal_number);
        let current = RcuCell::new(versions.current());
        let store = Store {
            opts,
            tables,
            versions: Mutex::new(versions),
            current,
            wal,
            wal_number: AtomicU64::new(wal_number),
            wals: Mutex::new(wal_numbers),
            obsolete,
            fatal,
            bytes_flushed: Arc::default(),
            bytes_compacted: Arc::default(),
            metrics: OnceLock::new(),
            claims: Arc::new(ClaimSignal::default()),
            recovery_report: report.clone(),
        };
        store.remove_obsolete_files();
        Ok((
            store,
            Recovered {
                records,
                last_ts,
                report,
            },
        ))
    }

    /// The storage environment this store runs on.
    pub(crate) fn env(&self) -> &Arc<dyn Env> {
        &self.opts.env
    }

    /// What the opening recovery pass saw.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery_report
    }

    /// The store directory.
    pub(crate) fn dir(&self) -> &Path {
        &self.tables.dir
    }

    /// The shared block cache, if one is configured.
    pub fn block_cache(&self) -> Option<&Arc<BlockCache>> {
        self.tables.block_cache.as_ref()
    }

    /// Appends a batch of writes to the WAL as one record, so a crash
    /// tears whole batches, never fractions of one.
    pub fn log(&self, batch: &[WriteRecord], mode: SyncMode) -> Result<()> {
        self.wal.append_with(
            |dst| {
                for r in batch {
                    r.encode_to(dst);
                }
            },
            mode,
        )
    }

    /// Appends writes given as `(ts, key, value)` to the WAL as one
    /// record, like [`Store::log`], encoding each straight into the
    /// logging queue's buffer: no [`WriteRecord`] and no payload
    /// allocation. A `None` value logs a deletion.
    pub fn log_writes<'a>(
        &self,
        writes: impl IntoIterator<Item = (u64, &'a [u8], Option<&'a [u8]>)>,
        mode: SyncMode,
    ) -> Result<()> {
        self.wal.append_with(
            |dst| {
                for (ts, key, value) in writes {
                    format::encode_write(dst, ts, key, value);
                }
            },
            mode,
        )
    }

    /// Registers the store's metrics (WAL sync latency, flush and
    /// compaction durations, bytes written) in `registry` under the
    /// `storage.` prefix, and the process-wide [`RealEnv`] syscall
    /// counts as `env.real.{write,read,sync}_calls` gauges. Call at
    /// most once, before serving traffic; later calls are ignored.
    /// Without an attached registry every recording site is a no-op.
    pub fn attach_metrics(&self, registry: &MetricsRegistry) {
        registry.gauge_fn("env.real.write_calls", || {
            RealEnv::syscall_counts().write as i64
        });
        registry.gauge_fn("env.real.read_calls", || {
            RealEnv::syscall_counts().read as i64
        });
        registry.gauge_fn("env.real.sync_calls", || {
            RealEnv::syscall_counts().sync as i64
        });
        let _ = self.metrics.set(StoreMetrics {
            wal_sync_ns: registry.histogram("storage.wal_sync_ns"),
            flush_ns: registry.histogram("storage.flush_ns"),
            compaction_ns: registry.histogram("storage.compaction_ns"),
        });
        let bytes = [
            ("storage.bytes_flushed", &self.bytes_flushed),
            ("storage.bytes_compacted", &self.bytes_compacted),
        ];
        for (name, counter) in bytes {
            let counter = Arc::clone(counter);
            registry.counter_fn(name, move || counter.get());
        }
    }

    /// Starts the WAL's logger thread, which the owner starts like its
    /// flush and compaction threads; without it, records wait for
    /// [`Store::flush_wal`], a sync or the drop.
    pub fn start_logger(&self) -> Result<()> {
        self.wal.start_logger()
    }

    /// Writes the logging queue's records to the WAL file without an
    /// fsync: the logger thread's step, on the calling thread. Finishes
    /// a [`cut_wal`](Self::cut_wal) first, with the old WAL's fsync.
    pub fn flush_wal(&self) -> Result<()> {
        self.wal.flush()
    }

    /// Forces everything logged so far to disk.
    pub fn sync_wal(&self) -> Result<()> {
        self.sync_wal_timed().map(|_durable_ns| ())
    }

    /// Like [`sync_wal`](Self::sync_wal), but returns the
    /// [`now_ns`](clsm_util::clock::now_ns) reading taken right after
    /// the covering fsync, on whichever thread issued it — the instant
    /// durability was reached. Write-path attribution uses it to bound the durable
    /// stage by actual fsync completion.
    pub fn sync_wal_timed(&self) -> Result<u64> {
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
        self.current_version().get(&self.tables, user_key, max_ts)
    }

    /// Iterators over the current version (for merging with memtables).
    pub fn iterators(&self) -> Result<Vec<BoxedIterator>> {
        self.current_version().iterators(&self.tables)
    }

    /// Like [`Store::iterators`], but also returns the version the
    /// iterators read. Long-lived scans must hold the `Arc<Version>`:
    /// it is what protects the underlying files from deletion by a
    /// concurrent compaction (the paper's component reference counts).
    pub fn version_iterators(&self) -> Result<(Arc<Version>, Vec<BoxedIterator>)> {
        let version = self.current_version();
        let iters = version.iterators(&self.tables)?;
        Ok((version, iters))
    }

    /// Starts a new WAL file; subsequent appends go to it. Returns the
    /// new WAL's number: every earlier WAL is numbered strictly below
    /// it, the retire/replay boundary for what was logged before. The
    /// three steps `beforeMerge` splits around its hold
    /// ([`prepare_wal`](Self::prepare_wal), [`cut_wal`](Self::cut_wal),
    /// [`flush_wal`](Self::flush_wal)), run back to back.
    pub fn rotate_wal(&self) -> Result<u64> {
        let number = self.cut_wal(self.prepare_wal()?)?;
        self.flush_wal()?;
        Ok(number)
    }

    /// A rotation's file I/O, done before the switch: numbers the next
    /// WAL and creates it.
    pub fn prepare_wal(&self) -> Result<NextWal> {
        let number = self.versions.lock().new_file_number();
        let file = self
            .opts
            .env
            .open_write(&filenames::wal_path(self.dir(), number))?;
        Ok(NextWal {
            number,
            writer: LogWriter::new(file),
        })
    }

    /// Switches appends to `next` without file I/O (see
    /// [`LogQueue::cut`]) and returns its number. Called by
    /// `beforeMerge` as it swaps the memtable, so each memtable maps to
    /// a WAL prefix. The next [`flush_wal`](Self::flush_wal), sync, log
    /// step or drop writes the old WAL's tail and fsyncs it before
    /// anything reaches `next`. The caller runs one rotation at a time.
    pub fn cut_wal(&self, next: NextWal) -> Result<u64> {
        self.wal.cut(next.writer)?;
        self.wals.lock().push(next.number);
        self.wal_number.store(next.number, Ordering::SeqCst);
        Ok(next.number)
    }

    /// The WAL number currently receiving appends.
    pub fn current_wal_number(&self) -> u64 {
        self.wal_number.load(Ordering::SeqCst)
    }

    /// Backlog of the logging queue: bytes enqueued, not yet written to
    /// the WAL file. Racy diagnostic sample.
    pub fn wal_queue_bytes(&self) -> usize {
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
        let start = Instant::now();
        let committed = self.commit(|alloc| {
            let new_files = compaction::write_merged_tables(
                it,
                self.dir(),
                &self.opts,
                0,
                watermark,
                false,
                alloc,
            )?;
            self.bytes_flushed
                .add(new_files.iter().map(|f| f.file_size).sum());
            Ok(VersionEdit {
                log_number: Some(retire_wals_below),
                last_ts: Some(max_ts),
                new_files,
                ..Default::default()
            })
        });
        self.remove_obsolete_files();
        committed?;
        if let Some(m) = self.metrics.get() {
            m.flush_ns.record_duration(start.elapsed());
        }
        Ok(())
    }

    /// Returns `true` if some level's score is at or past its budget.
    pub fn needs_compaction(&self) -> bool {
        compaction::needs_compaction(&self.current_version(), &self.opts)
    }

    /// Picks and runs one compaction if any level needs it, and says
    /// what it merged.
    ///
    /// Safe to call from several threads: file claims make concurrent
    /// compactions work on disjoint inputs (this is how the RocksDB
    /// baseline's multi-threaded compaction is modeled, §5.3).
    pub fn maybe_compact(&self, watermark: u64) -> Result<Option<Compacted>> {
        loop {
            let Some(task) = compaction::pick(&self.current_version(), &self.opts) else {
                return Ok(None);
            };
            let compacted = Compacted {
                level: task.level,
                base_bytes: task.base.iter().flatten().map(|f| f.file_size).sum(),
            };
            if self.run_task(task, watermark)? {
                return Ok(Some(compacted));
            }
        }
    }

    /// Runs a claimed compaction, installs its version and accounts its
    /// bytes — the one tail of background and manual compactions alike.
    /// Returns `false`, running nothing, when an input is no longer at
    /// the level the pick found it at: the pick read a version another
    /// job has since replaced, so pick again.
    fn run_task(&self, mut task: CompactionTask, watermark: u64) -> Result<bool> {
        task.attach_release_signal(Arc::clone(&self.claims));
        if !task.inputs_are_in(&self.current_version()) {
            return Ok(false);
        }
        let start = Instant::now();
        let committed = self.commit(|alloc| {
            let edit = compaction::run(&task, &self.tables, &self.opts, watermark, alloc)?;
            // Both byte counts move before the version is visible, so a
            // reader that sees the version sees them agree. A table the
            // edit only moves down wrote no byte.
            let moved = |number| edit.deleted_files.iter().any(|&(_, n)| n == number);
            let written = edit
                .new_files
                .iter()
                .filter(|f| !moved(f.number))
                .map(|f| f.file_size)
                .sum::<u64>();
            self.bytes_compacted.add(written);
            Ok(edit)
        });
        drop(task); // claim Drop notifies `claims`; the inputs may go
        self.remove_obsolete_files();
        committed?;
        if let Some(m) = self.metrics.get() {
            m.compaction_ns.record_duration(start.elapsed());
        }
        Ok(true)
    }

    /// Writes a job's tables through `write`, which numbers each one
    /// with the allocator it is given, then commits the edit `write`
    /// returns and lists the WALs that edit retired. A job that fails
    /// lists the tables it wrote instead, unless the manifest failed:
    /// its record may still name them.
    fn commit(
        &self,
        write: impl FnOnce(&mut dyn FnMut() -> u64) -> Result<VersionEdit>,
    ) -> Result<()> {
        let mut outputs = Vec::new();
        let committed = write(&mut || {
            let n = self.versions.lock().new_file_number();
            outputs.push(n);
            n
        })
        .and_then(|edit| {
            let retire_wals_below = edit.log_number.unwrap_or(0);
            // Installed under the version-set lock: in commit order.
            self.current
                .store(self.versions.lock().log_and_apply(edit)?);
            let mut wals = self.wals.lock();
            let retired = wals.extract_if(.., |n| *n < retire_wals_below);
            self.obsolete
                .files
                .lock()
                .extend(retired.map(FileKind::Wal));
            Ok(())
        });
        if committed.is_err() && self.fatal.get().is_none() {
            let outputs = outputs.into_iter().map(FileKind::Table);
            self.obsolete.files.lock().extend(outputs);
        }
        committed
    }

    /// Removes the listed obsolete files, holding no lock, once the
    /// epoch collector has dropped every version replaced so far; evicts
    /// removed tables' blocks. A file that fails to go stays listed.
    /// Every flush and compaction ends with this pass. A poisoned store
    /// removes nothing: after a failed manifest write, what the tree on
    /// disk names is unknown until the next open reads it.
    pub fn remove_obsolete_files(&self) {
        if self.poisoned().is_some() {
            return;
        }
        epoch::synchronize();
        let listed = std::mem::take(&mut *self.obsolete.files.lock());
        let (dir, env) = (self.dir(), self.env());
        let failed: Vec<FileKind> = listed
            .into_iter()
            .filter(|&kind| {
                let path = match kind {
                    FileKind::Table(n) => {
                        if let Some(cache) = self.block_cache() {
                            cache.evict_table(n);
                        }
                        filenames::table_path(dir, n)
                    }
                    FileKind::Wal(n) => filenames::wal_path(dir, n),
                    FileKind::Temp(n) => filenames::temp_path(dir, n),
                    FileKind::Manifest(_) | FileKind::Current => unreachable!("never listed"),
                };
                env.remove(&path).is_err() && env.exists(&path)
            })
            .collect();
        self.obsolete.files.lock().extend(failed);
    }

    /// Per-level file counts (diagnostics).
    pub fn level_file_counts(&self) -> Vec<usize> {
        let v = self.current_version();
        (0..self.opts.num_levels).map(|l| v.num_files(l)).collect()
    }

    /// Bytes of tables the current version no longer names but an
    /// older one, held by a reader, still pins on disk.
    pub fn retired_table_bytes(&self) -> u64 {
        self.obsolete.retired_table_bytes.load(Ordering::Relaxed)
    }

    /// The store's first fatal error, if it hit one: a failed manifest
    /// append or sync, the WAL's first I/O error, or the error the
    /// store was poisoned with. Either way no later write or commit can
    /// succeed; reopening the store recovers what was acknowledged.
    /// Takes no lock.
    pub fn poisoned(&self) -> Option<Error> {
        self.fatal.get().cloned().or_else(|| self.wal.poisoned())
    }

    /// Makes the store read-only with `error`, unless it already is,
    /// as a failed manifest write does: for an owner whose background
    /// work keeps failing.
    pub fn poison(&self, error: Error) {
        let _ = self.fatal.set(error);
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
        loop {
            let task = loop {
                // Every claim release notifies `claims` under its lock
                // (RAII, including error unwinds), so picking under that
                // lock and then waiting untimed cannot miss a release.
                let mut guard = self.claims.lock();
                let version = self.current_version();
                if let Some(task) =
                    compaction::pick_level_range(&version, &self.opts, level, start, end)
                {
                    break task;
                }
                // No overlapping files at this level: nothing to do. Else
                // a background compaction holds one of them: wait it out.
                if version.overlapping_files(level, start, end).is_empty() {
                    return Ok(());
                }
                self.claims.wait(&mut guard);
            };
            if self.run_task(task, watermark)? {
                return Ok(());
            }
        }
    }

    /// Merges all of L0 into L1 when one of its tables overlaps a deeper
    /// level (`Version::l0_shadows_deeper_levels`); returns whether it
    /// merged. Blocks like [`Store::compact_level_range`].
    pub fn compact_l0_if_it_shadows_deeper_levels(&self, watermark: u64) -> Result<bool> {
        let version = self.current_version();
        if !version.l0_shadows_deeper_levels() {
            return Ok(false);
        }
        let largest = version.levels[0]
            .iter()
            .map(|f| f.largest_user_key())
            .max()
            .unwrap_or_default();
        self.compact_level_range(0, &[], largest, watermark)?;
        Ok(true)
    }

    /// Full integrity scan: checks the version's layout
    /// ([`Version::check_invariants`]), then walks every table in it
    /// end-to-end, validating per-block checksums and internal key
    /// order. Returns the number of entries checked.
    ///
    /// Intended for offline verification tools and tests; it reads
    /// every byte of every table, so it is proportional to store size.
    /// Tables are read one pass each, in sequential chunks that bypass
    /// the block cache, so a scan neither evicts nor warms what gets use.
    pub fn verify_integrity(&self) -> Result<u64> {
        let version = self.current_version();
        version.check_invariants()?;
        let mut checked = 0u64;
        for level in &version.levels {
            for file in level {
                let mut it = file.table(&self.tables)?.one_pass_iter();
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
        self.block_cache().map(|c| c.stats())
    }

    /// Write-amplification counters (flush vs. compaction bytes).
    pub fn write_amp(&self) -> WriteAmp {
        WriteAmp {
            flushed: self.bytes_flushed.get(),
            compacted: self.bytes_compacted.get(),
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
            .field("dir", &self.dir())
            .field("levels", &self.level_file_counts())
            .finish()
    }
}

#[cfg(test)]
mod tests;
