//! The storage stack under every baseline, and what it shares with
//! cLSM.
//!
//! Shared with `clsm::Db`, so that benchmark differences come from the
//! concurrency control alone:
//! - the `lsm-storage` substrate: table format, block cache, WAL and
//!   its logging queue, compaction picks;
//! - the memtable, and reads in `mem → imm → disk` order;
//! - the background job runtime, `clsm::jobs`: flushes and compactions
//!   run as jobs on the same threads, with the same untimed wake-ups.
//!   A failed flush leaves its immutable memtable parked and is
//!   retried; eight failures in a row make the store read-only, which
//!   fails every later write with its error; the WAL rotates prepare →
//!   cut → flush around the memtable swap, so no fsync runs inside it;
//! - §5.3's hard stall, which waits on the job state untimed.
//!
//! Each model (the front-ends) owns only what the paper compares: how
//! writers get and publish sequence numbers (global mutex, ordered
//! commit, writer queue…), the read point, and bLSM's gear.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use clsm::{wait_idle, JobHost, Jobs, Memtable, Options, Workers};
use clsm_kv::{RmwDecision, RmwResult};
use clsm_util::error::{Error, Result};
use clsm_util::rcu::RcuCell;
use lsm_storage::format::ValueKind;
use lsm_storage::iter::{InternalIterator, MergingIterator};
use lsm_storage::wal::SyncMode;
use lsm_storage::Store;

/// The storage stack under a baseline's concurrency control.
pub(crate) struct BaselineCore {
    store: Store,
    mem: RcuCell<Arc<Memtable>>,
    imm: RcuCell<Option<Arc<Memtable>>>,
    /// Next sequence number to assign (LevelDB-style).
    pub(crate) next_seq: AtomicU64,
    /// Highest sequence number whose write is visible to reads.
    visible_seq: AtomicU64,
    memtable_bytes: usize,
    sync_writes: bool,
    /// The background threads' wake state (see `clsm::jobs`).
    jobs: Jobs,
    /// Writers hold this shared during inserts; the flush swap takes it
    /// exclusively (same role as cLSM's shared-exclusive lock, but here
    /// it is ordinary and not the contended path).
    swap_lock: RwLock<()>,
}

impl BaselineCore {
    /// Opens the stack, replays the WAL, and starts the background
    /// threads; dropping the returned [`Workers`] stops them. A failed
    /// spawn is returned as the error, once the threads already started
    /// are stopped and joined.
    pub(crate) fn open(dir: &Path, opts: &Options) -> Result<(Arc<Self>, Workers<Self>)> {
        let (store, recovered) = Store::open(dir, opts.store.clone())?;
        let mem = Arc::new(Memtable::new());
        for rec in &recovered.records {
            let value = match rec.kind {
                ValueKind::Put => Some(rec.value.as_slice()),
                ValueKind::Delete => None,
            };
            mem.insert(&rec.key, rec.ts, value);
        }
        let core = Arc::new(BaselineCore {
            store,
            mem: RcuCell::new(mem),
            imm: RcuCell::new(None),
            next_seq: AtomicU64::new(recovered.last_ts),
            visible_seq: AtomicU64::new(recovered.last_ts),
            memtable_bytes: opts.memtable_bytes,
            sync_writes: opts.sync_writes,
            jobs: Jobs::default(),
            swap_lock: RwLock::new(()),
        });
        let mut workers = Workers::new(&core);
        workers.start(opts.compaction_threads)?;
        Ok((core, workers))
    }

    /// What every write passes before it takes a sequence number: a
    /// read-only store fails it with its error, and §5.3's stall (the
    /// memtable full while the immutable one still merges) holds it,
    /// untimed, until the flush ends.
    pub(crate) fn admit(&self) -> Result<()> {
        if let Some(e) = self.store.poisoned() {
            return Err(e);
        }
        if !self.write_stalled() {
            return Ok(());
        }
        self.jobs.wait_while(&self.store, || self.write_stalled())
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
        self.mem.load().insert(key, seq, value);
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
        if self.mem.load().memory_usage() >= self.memtable_bytes {
            self.jobs.request_flush();
        }
        Ok(())
    }

    /// Durability wait for an explicit `WriteOptions::sync` request,
    /// on top of whatever `after_write` already did.
    pub(crate) fn sync_if_requested(&self, opts: &clsm_kv::WriteOptions) -> Result<()> {
        if opts.sync && !self.sync_writes {
            self.store.sync_wal()?;
        }
        Ok(())
    }

    /// Marks everything up to `seq` visible (caller guarantees all
    /// writes `<= seq` are inserted).
    pub(crate) fn publish(&self, seq: u64) {
        self.visible_seq.fetch_max(seq, Ordering::Release);
    }

    /// Reads `key` at `seq` through `mem → imm → disk`.
    pub(crate) fn get_at(&self, key: &[u8], seq: u64) -> Result<Option<Vec<u8>>> {
        if let Some((_, v)) = self.mem.load().get_latest(key, seq) {
            return Ok(v.map(<[u8]>::to_vec));
        }
        if let Some(imm) = self.imm.load() {
            if let Some((_, v)) = imm.get_latest(key, seq) {
                return Ok(v.map(<[u8]>::to_vec));
            }
        }
        match self.store.get(key, seq)? {
            Some((_, ValueKind::Put, v)) => Ok(Some(v)),
            _ => Ok(None),
        }
    }

    /// The currently visible sequence number.
    pub(crate) fn visible(&self) -> u64 {
        self.visible_seq.load(Ordering::Acquire)
    }

    /// Consistent scan at `seq`: up to `limit` live pairs in `range`.
    pub(crate) fn scan_at(
        &self,
        range: &clsm_kv::ScanRange,
        limit: usize,
        seq: u64,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let (start, end) = range.as_keys();
        let mut children: Vec<Box<dyn InternalIterator>> = Vec::new();
        children.push(Box::new(self.mem.load().internal_iter()));
        if let Some(imm) = self.imm.load() {
            children.push(Box::new(imm.internal_iter()));
        }
        let (_version, disk) = self.store.version_iterators()?;
        children.extend(disk);
        let mut merged = MergingIterator::new(children);
        merged.seek(start.as_deref().unwrap_or_default(), seq);

        let mut out = Vec::with_capacity(limit.min(1024));
        let mut last_key: Option<Vec<u8>> = None;
        while merged.valid() && out.len() < limit {
            if let Some(end) = &end {
                if merged.user_key() >= end.as_slice() {
                    break;
                }
            }
            if merged.ts() > seq || last_key.as_deref() == Some(merged.user_key()) {
                merged.next();
                continue;
            }
            last_key = Some(merged.user_key().to_vec());
            if merged.kind() == ValueKind::Put {
                out.push((merged.user_key().to_vec(), merged.value().to_vec()));
            }
            merged.next();
        }
        merged.status()?;
        Ok(out)
    }

    /// Fraction of the memtable budget used (for bLSM's gear
    /// throttling).
    pub(crate) fn fill_fraction(&self) -> f64 {
        self.mem.load().memory_usage() as f64 / self.memtable_bytes as f64
    }

    /// §5.3's stall condition: the memtable is full while the immutable
    /// one is still being merged. Inside the swap both pointers briefly
    /// name the same memtable; that is a rotation under way, not a
    /// stall.
    fn write_stalled(&self) -> bool {
        let mem = self.mem.load();
        mem.memory_usage() >= self.memtable_bytes
            && self.imm.load().is_some_and(|imm| !Arc::ptr_eq(&imm, &mem))
    }

    /// Blocks until the memtable found at the call is flushed and no
    /// flush or compaction is due or running (bench hook).
    pub(crate) fn quiesce(&self) -> Result<()> {
        let entry = self.mem.load();
        wait_idle(self, || {
            !entry.is_empty() && Arc::ptr_eq(&self.mem.load(), &entry)
        })
    }

    /// Write-amplification counters from the shared store.
    pub(crate) fn write_amp(&self) -> lsm_storage::store::WriteAmp {
        self.store.write_amp()
    }

    /// Boxes a [`CoreSnapshot`] at `seq` (front-ends pick the read
    /// point according to their concurrency model).
    pub(crate) fn snapshot_at(self: &Arc<Self>, seq: u64) -> Box<dyn clsm_kv::KvSnapshot> {
        Box::new(CoreSnapshot {
            core: Arc::clone(self),
            seq,
        })
    }
}

impl JobHost for BaselineCore {
    fn store(&self) -> &Store {
        &self.store
    }

    fn jobs(&self) -> &Jobs {
        &self.jobs
    }

    /// `clsm::Db`'s flush without its admission and watchdog
    /// bookkeeping: the new WAL and memtable are made before the swap
    /// and the old WAL's tail is synced after it. Preparing ahead is
    /// safe because only this job swings `mem` and `imm`, one at a
    /// time.
    fn flush_once(&self) -> Result<bool> {
        let fresh = match self.imm.load() {
            Some(_) => None,
            None if self.mem.load().is_empty() => return Ok(false),
            None => Some((self.store.prepare_wal()?, Arc::new(Memtable::new()))),
        };
        let cut = fresh.is_some();
        let (imm, new_wal) = {
            let _excl = self.swap_lock.write();
            let imm = match fresh {
                None => self
                    .imm
                    .load()
                    .expect("only a flush clears a parked memtable"),
                Some((next_wal, mem)) => {
                    // `imm` names the old data before `mem` stops
                    // doing so: readers go `mem → imm → disk`.
                    let old = self.mem.load();
                    self.imm.store(Some(Arc::clone(&old)));
                    self.mem.store(mem);
                    self.store.cut_wal(next_wal)?;
                    old
                }
            };
            (imm, self.store.current_wal_number())
        };
        if cut {
            self.store.flush_wal()?;
        }
        let mut iter = imm.internal_iter();
        // Baselines hold no snapshot registry: the watermark is the
        // current visible sequence (short scans pin components
        // directly).
        let watermark = self.visible();
        self.store
            .flush_memtable(&mut iter, watermark, imm.max_ts(), new_wal)?;
        self.jobs.note_install();
        self.imm.store(None);
        Ok(true)
    }

    fn flush_parked(&self) -> bool {
        self.imm.load().is_some()
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
pub(crate) struct CoreSnapshot {
    core: Arc<BaselineCore>,
    seq: u64,
}

impl clsm_kv::KvSnapshot for CoreSnapshot {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.core.get_at(key, self.seq)
    }

    fn scan(&self, range: clsm_kv::ScanRange, limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.core.scan_at(&range, limit, self.seq)
    }
}
