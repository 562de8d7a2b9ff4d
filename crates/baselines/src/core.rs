//! The storage stack under every baseline, and what it shares with
//! cLSM.
//!
//! Shared with `clsm::Db`, so that benchmark differences come from the
//! concurrency control alone:
//! - the `lsm-storage` substrate: table format, block cache, WAL and
//!   its logging queue, compaction picks;
//! - the memory components, `clsm::Components`: `Pm` and `P'm`, the
//!   recovery replay into `Pm`, reads in `Pm → P'm → Pd` order, the
//!   children a scan merges, and the one stall condition: a write that
//!   finds `Pm` full waits, untimed on the job state, for the flush to
//!   swap it (LevelDB's `MakeRoomForWrite`), so `Pm` stays bounded;
//! - the background job runtime, `clsm::jobs`, with its one flush:
//!   flushes and compactions run as jobs on the same threads, with the
//!   same untimed wake-ups. A failed flush leaves its immutable
//!   memtable parked and is retried; eight failures in a row make the
//!   store read-only, which fails every later write with its error; the
//!   WAL rotates prepare → cut → flush around the memtable swap, so no
//!   fsync runs inside it. The swap and the drop of `P'm` run under
//!   `swap_lock`'s write side, and the GC watermark is the visible
//!   sequence, read inside the swap.
//!
//! A store opened without threads is a stepped store
//! ([`Baseline::open_stepped`]), whose jobs a test runs.
//!
//! Each model (a [`Model`]) owns only what the paper compares: how
//! writers get and publish sequence numbers (global mutex, ordered
//! commit, writer queue…), the read point, and bLSM's gear.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use clsm::{wait_idle, Components, JobHost, Jobs, Options, SnapshotIter, Workers};
use clsm_kv::{KvSnapshot, KvStore, RmwDecision, RmwResult, ScanRange, WriteBatch, WriteOptions};
use clsm_util::error::{Error, Result};
use lsm_storage::wal::SyncMode;
use lsm_storage::Store;

/// What sets one baseline apart from the others: the concurrency
/// control the paper compares. [`Baseline`] supplies the rest.
#[doc(hidden)]
pub trait Model: Send + Sync + 'static {
    /// The modeled system's name ([`KvStore::name`]).
    const NAME: &'static str;

    /// The model's state over a freshly opened `core`.
    fn new(core: &BaselineCore) -> Self;

    /// The sequence number a get, snapshot or scan reads at.
    fn read_point(&self, core: &BaselineCore) -> u64;

    /// Commits and publishes one write of a batch.
    fn write_one(&self, core: &BaselineCore, key: &[u8], value: Option<&[u8]>) -> Result<()>;

    /// [`KvStore::read_modify_write`], which a model without an atomic
    /// one refuses.
    fn read_modify_write(
        &self,
        core: &BaselineCore,
        key: &[u8],
        f: &mut dyn FnMut(Option<&[u8]>) -> RmwDecision,
    ) -> Result<RmwResult> {
        let _ = (core, key, f);
        Err(Error::invalid_argument(format!(
            "{} does not support atomic read_modify_write",
            Self::NAME
        )))
    }

    /// [`KvStore::put_if_absent`]: by default a read-modify-write.
    fn put_if_absent(&self, core: &BaselineCore, key: &[u8], value: &[u8]) -> Result<bool> {
        let mut absent = |current: Option<&[u8]>| match current {
            Some(_) => RmwDecision::Abort,
            None => RmwDecision::Update(value.to_vec()),
        };
        Ok(self.read_modify_write(core, key, &mut absent)?.committed)
    }
}

/// A baseline store: model `M`'s concurrency control over the storage
/// stack every baseline shares with `clsm::Db`.
pub struct Baseline<M> {
    core: Arc<BaselineCore>,
    model: M,
    /// Stops the background threads when dropped.
    workers: Workers<BaselineCore>,
}

impl<M: Model> Baseline<M> {
    /// Opens (or creates) a store at `path`.
    pub fn open(path: &Path, opts: Options) -> Result<Self> {
        Self::opened(path, &opts, true)
    }

    /// Test hook, as `clsm::Db::open_stepped`: opens like
    /// [`open`](Self::open) but starts no thread, not even the WAL
    /// logger, so nothing flushes, compacts or logs until the caller
    /// runs the jobs of `workers()`. Never use this on a production
    /// path.
    #[doc(hidden)]
    pub fn open_stepped(path: &Path, opts: Options) -> Result<Self> {
        Self::opened(path, &opts, false)
    }

    /// The store's job runtime, whose due jobs a stepped store's test
    /// runs.
    #[doc(hidden)]
    pub fn workers(&self) -> &Workers<BaselineCore> {
        &self.workers
    }

    /// Opens the stack and replays the WAL; with `threads`, starts the
    /// background threads too (dropping the store stops them). A failed
    /// spawn is returned as the error, once the threads already started
    /// are stopped and joined.
    fn opened(dir: &Path, opts: &Options, threads: bool) -> Result<Self> {
        let (store, recovered) = Store::open(dir, opts.store.clone())?;
        let core = Arc::new(BaselineCore {
            store,
            components: Components::recovered(&recovered.records, opts.memtable_bytes),
            next_seq: AtomicU64::new(recovered.last_ts),
            visible_seq: AtomicU64::new(recovered.last_ts),
            sync_writes: opts.sync_writes,
            jobs: Jobs::default(),
            swap_lock: RwLock::new(()),
        });
        let mut workers = Workers::new(&core);
        if threads {
            workers.start(opts.compaction_threads)?;
        }
        let model = M::new(&core);
        Ok(Baseline {
            core,
            model,
            workers,
        })
    }
}

impl<M: Model> KvStore for Baseline<M> {
    fn write(&self, batch: WriteBatch, opts: &WriteOptions) -> Result<()> {
        // Each operation commits on its own: a batch is not atomic.
        for (key, value) in batch.iter() {
            self.model.write_one(&self.core, key, value.as_deref())?;
        }
        // `after_write` already synced when every write syncs.
        if opts.sync && !self.core.sync_writes {
            self.core.store.sync_wal()?;
        }
        Ok(())
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.core.get_at(key, self.model.read_point(&self.core))
    }

    fn snapshot(&self) -> Result<Box<dyn KvSnapshot>> {
        let seq = self.model.read_point(&self.core);
        Ok(Box::new(CoreSnapshot {
            core: Arc::clone(&self.core),
            seq,
        }))
    }

    fn scan(&self, range: ScanRange, limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let seq = self.model.read_point(&self.core);
        self.core.scan_at(&range, limit, seq)
    }

    fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool> {
        self.model.put_if_absent(&self.core, key, value)
    }

    fn read_modify_write(
        &self,
        key: &[u8],
        f: &mut dyn FnMut(Option<&[u8]>) -> RmwDecision,
    ) -> Result<RmwResult> {
        self.model.read_modify_write(&self.core, key, f)
    }

    /// Blocks until the memtable found at the call is flushed and no
    /// flush or compaction is due or running.
    fn quiesce(&self) -> Result<()> {
        wait_idle(&*self.core, &self.core.components.pm())
    }

    fn name(&self) -> &'static str {
        M::NAME
    }

    fn write_amp(&self) -> Option<lsm_storage::store::WriteAmp> {
        Some(self.core.store.write_amp())
    }
}

/// The storage stack under a baseline's concurrency control.
#[doc(hidden)]
pub struct BaselineCore {
    store: Store,
    pub(crate) components: Components,
    /// Next sequence number to assign (LevelDB-style).
    pub(crate) next_seq: AtomicU64,
    /// Highest sequence number whose write is visible to reads.
    visible_seq: AtomicU64,
    sync_writes: bool,
    /// The background threads' wake state (see `clsm::jobs`).
    jobs: Jobs,
    /// Writers hold this shared during inserts; `beforeMerge` and
    /// `afterMerge` take it exclusively (the role of cLSM's
    /// shared-exclusive lock, but an ordinary lock, as in the modeled
    /// systems).
    swap_lock: RwLock<()>,
}

impl BaselineCore {
    /// What every write passes before it takes a sequence number: a
    /// read-only store fails it with its error, and a full `Pm` holds
    /// it, untimed, until the flush swaps it.
    pub(crate) fn admit(&self) -> Result<()> {
        if let Some(e) = self.store.poisoned() {
            return Err(e);
        }
        if !self.components.write_waits() {
            return Ok(());
        }
        self.jobs.wait_for_room(&self.store, &self.components)
    }

    /// Logs and inserts one write at `seq`, logging the caller's bytes.
    /// The caller is responsible for writer-side synchronization and for
    /// publishing visibility.
    pub(crate) fn apply_write(&self, key: &[u8], value: Option<&[u8]>, seq: u64) -> Result<()> {
        if key.is_empty() {
            return Err(Error::invalid_argument("empty keys are not supported"));
        }
        let _swap = self.swap_lock.read();
        self.store
            .log_writes([(seq, key, value)], SyncMode::Async)?;
        self.components.pm().insert(key, seq, value);
        Ok(())
    }

    /// The single-writer models' commit (LevelDB's global mutex,
    /// RocksDB's writer queue, bLSM's one writer): admission, `op` under
    /// `writer`, then what follows every write.
    pub(crate) fn serialized<T>(
        &self,
        writer: &Mutex<()>,
        op: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        self.admit()?;
        let done = {
            let _writer = writer.lock();
            op()?
        };
        self.after_write()?;
        Ok(done)
    }

    /// Under the caller's writer lock: logs and inserts one write at the
    /// next sequence number and publishes it.
    pub(crate) fn write_next(&self, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        let seq = self.next_seq.fetch_add(1, Ordering::SeqCst) + 1;
        self.apply_write(key, value, seq)?;
        self.publish(seq);
        Ok(())
    }

    /// Under the caller's writer lock: reads `key`'s visible value, lets
    /// `f` decide, and writes the decision with
    /// [`write_next`](Self::write_next).
    pub(crate) fn rmw_next(
        &self,
        key: &[u8],
        f: &mut dyn FnMut(Option<&[u8]>) -> RmwDecision,
    ) -> Result<RmwResult> {
        let previous = self.get_at(key, self.visible())?;
        let value = match f(previous.as_deref()) {
            RmwDecision::Abort => {
                return Ok(RmwResult {
                    committed: false,
                    previous,
                })
            }
            RmwDecision::Update(v) => Some(v),
            RmwDecision::Delete => None,
        };
        self.write_next(key, value.as_deref())?;
        Ok(RmwResult {
            committed: true,
            previous,
        })
    }

    /// What follows every write's commit: the WAL sync when every write
    /// syncs, and a flush request once the memtable is full.
    pub(crate) fn after_write(&self) -> Result<()> {
        if self.sync_writes {
            self.store.sync_wal()?;
        }
        if self.components.full() {
            self.jobs.request_flush();
        }
        Ok(())
    }

    /// Marks everything up to `seq` visible (caller guarantees all
    /// writes `<= seq` are inserted).
    pub(crate) fn publish(&self, seq: u64) {
        self.visible_seq.fetch_max(seq, Ordering::Release);
    }

    /// Reads `key` at `seq` through `Pm → P'm → Pd`.
    pub(crate) fn get_at(&self, key: &[u8], seq: u64) -> Result<Option<Vec<u8>>> {
        let (found, _) = self.components.lookup(&self.store, key, seq)?;
        Ok(found.and_then(|(_, value)| value))
    }

    /// The currently visible sequence number.
    pub(crate) fn visible(&self) -> u64 {
        self.visible_seq.load(Ordering::Acquire)
    }

    /// Consistent scan at `seq`: up to `limit` live pairs in `range`.
    pub(crate) fn scan_at(
        &self,
        range: &ScanRange,
        limit: usize,
        seq: u64,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let (start, end) = range.as_keys();
        SnapshotIter::over(
            &self.components,
            &self.store,
            seq,
            start.as_deref(),
            end.as_deref(),
        )?
        .take(limit)
        .collect()
    }
}

impl JobHost for BaselineCore {
    fn store(&self) -> &Store {
        &self.store
    }

    fn jobs(&self) -> &Jobs {
        &self.jobs
    }

    fn components(&self) -> &Components {
        &self.components
    }

    fn exclusively<R>(&self, f: impl FnOnce() -> R) -> R {
        let _swap = self.swap_lock.write();
        f()
    }

    /// Baselines hold no snapshot registry: the watermark is the
    /// current visible sequence (short scans pin components directly).
    fn gc_watermark(&self) -> u64 {
        self.visible()
    }

    fn compact_once(&self) -> Result<bool> {
        let compacted = self.store.maybe_compact(self.visible())?;
        if compacted {
            self.jobs.note_install();
        }
        Ok(compacted)
    }
}

/// A baseline snapshot: a visible sequence number captured at creation
/// plus a handle on the core.
///
/// Reads through it see exactly the writes visible at capture time.
/// Unlike cLSM's snapshots there is no version pinning — the baselines'
/// GC watermark is the *current* visible sequence — so a long-lived
/// handle may lose old versions to compaction, matching the modeled
/// systems' short-read-point behavior.
struct CoreSnapshot {
    core: Arc<BaselineCore>,
    seq: u64,
}

impl KvSnapshot for CoreSnapshot {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.core.get_at(key, self.seq)
    }

    fn scan(&self, range: ScanRange, limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.core.scan_at(&range, limit, self.seq)
    }
}
