//! Shared machinery for all baselines: memtable/WAL/flush/compaction
//! plumbing identical to cLSM's, minus cLSM's concurrency control.
//!
//! Each baseline front-end decides *how writers synchronize* (global
//! mutex, ordered commit, striped locks…); this core provides the
//! sequence-numbered storage stack they synchronize over, so that
//! benchmark differences come from the concurrency control alone.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex, RwLock};

use clsm::{Memtable, Options};
use clsm_util::error::{Error, Result};
use clsm_util::rcu::RcuCell;
use lsm_storage::format::{ValueKind, WriteRecord};
use lsm_storage::iter::{InternalIterator, MergingIterator};
use lsm_storage::wal::SyncMode;
use lsm_storage::Store;

/// The storage stack under a baseline's concurrency control.
pub(crate) struct BaselineCore {
    pub(crate) store: Store,
    pub(crate) mem: RcuCell<Arc<Memtable>>,
    pub(crate) imm: RcuCell<Option<Arc<Memtable>>>,
    /// Next sequence number to assign (LevelDB-style).
    pub(crate) next_seq: AtomicU64,
    /// Highest sequence number whose write is visible to reads.
    pub(crate) visible_seq: AtomicU64,
    pub(crate) memtable_bytes: usize,
    sync_writes: bool,
    flush_pending: AtomicBool,
    shutdown: AtomicBool,
    work_mutex: Mutex<()>,
    work_cv: Condvar,
    /// Writers hold this shared during inserts; the flush swap takes it
    /// exclusively (same role as cLSM's shared-exclusive lock, but here
    /// it is ordinary and not the contended path).
    swap_lock: RwLock<()>,
}

impl BaselineCore {
    /// Opens the stack, replays the WAL, and spawns maintenance
    /// threads. A failed spawn is returned as the error, once the
    /// threads already started are stopped and joined.
    pub(crate) fn open(dir: &Path, opts: &Options) -> Result<(Arc<Self>, Vec<JoinHandle<()>>)> {
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
            flush_pending: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            work_mutex: Mutex::new(()),
            work_cv: Condvar::new(),
            swap_lock: RwLock::new(()),
        });

        core.store.start_logger()?;
        let compactors = (0..opts.compaction_threads).map(|i| {
            (
                format!("baseline-compact-{i}"),
                compaction_worker as fn(Arc<Self>),
            )
        });
        let threads = std::iter::once(("baseline-flush".to_owned(), flush_worker as fn(_)));
        let mut workers = Vec::new();
        for (name, work) in threads.chain(compactors) {
            let worker = Arc::clone(&core);
            match std::thread::Builder::new()
                .name(name)
                .spawn(move || work(worker))
            {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Stop and join the threads that did start.
                    core.shutdown_and_join(&mut workers);
                    return Err(e.into());
                }
            }
        }
        Ok((core, workers))
    }

    /// Logs and inserts one write at `seq`. The caller is responsible
    /// for writer-side synchronization and for publishing visibility.
    pub(crate) fn apply_write(&self, key: &[u8], value: Option<&[u8]>, seq: u64) -> Result<()> {
        if key.is_empty() {
            return Err(Error::invalid_argument("empty keys are not supported"));
        }
        let record = match value {
            Some(v) => WriteRecord::put(seq, key, v),
            None => WriteRecord::delete(seq, key),
        };
        let _swap = self.swap_lock.read();
        self.store.log(&[record], SyncMode::Async)?;
        self.mem.load().insert(key, seq, value);
        Ok(())
    }

    /// Waits for durability when configured.
    pub(crate) fn maybe_sync(&self) -> Result<()> {
        if self.sync_writes {
            self.store.sync_wal()?;
        }
        Ok(())
    }

    /// Durability wait for an explicit `WriteOptions::sync` request,
    /// on top of whatever `maybe_sync` already did.
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

    /// Returns `true` when the immutable memtable is still being
    /// flushed while the mutable one is full (hard stall condition).
    pub(crate) fn should_stall(&self) -> bool {
        self.mem.load().memory_usage() >= self.memtable_bytes && self.imm.load().is_some()
    }

    /// Blocks while [`BaselineCore::should_stall`] holds.
    pub(crate) fn stall_if_needed(&self) {
        while self.should_stall() && !self.shutdown.load(Ordering::Acquire) {
            let mut g = self.work_mutex.lock();
            if self.should_stall() {
                self.work_cv
                    .wait_for(&mut g, std::time::Duration::from_millis(50));
            }
        }
    }

    /// Schedules a flush if the memtable crossed its budget.
    pub(crate) fn maybe_schedule_flush(&self) {
        if self.mem.load().memory_usage() >= self.memtable_bytes {
            self.schedule_flush();
        }
    }

    pub(crate) fn schedule_flush(&self) {
        if !self.flush_pending.swap(true, Ordering::AcqRel) {
            let _g = self.work_mutex.lock();
            self.work_cv.notify_all();
        }
    }

    /// Blocks until flush and compaction queues drain (bench hook).
    pub(crate) fn quiesce(&self) -> Result<()> {
        loop {
            // Only a non-empty memtable needs a flush. Scheduling one
            // regardless re-raises `flush_pending` just before reading
            // it, so the loop could exit only if the worker cleared the
            // flag in between — a livelock that lasted minutes when the
            // worker ran on the other core.
            if !self.mem.load().is_empty() {
                self.schedule_flush();
            }
            let busy = self.flush_pending.load(Ordering::Acquire)
                || !self.mem.load().is_empty()
                || self.imm.load().is_some()
                || self.store.needs_compaction();
            if let Some(e) = self.store.poisoned() {
                return Err(e);
            }
            if !busy {
                return Ok(());
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
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

    /// Stops maintenance threads (front-ends call from `Drop`).
    pub(crate) fn shutdown_and_join(&self, workers: &mut Vec<JoinHandle<()>>) {
        self.shutdown.store(true, Ordering::Release);
        {
            let _g = self.work_mutex.lock();
            self.work_cv.notify_all();
        }
        for h in workers.drain(..) {
            let _ = h.join();
        }
        let _ = self.store.sync_wal();
    }

    fn flush_once(&self) -> Result<bool> {
        let (imm, new_wal) = {
            let _excl = self.swap_lock.write();
            let old = self.mem.load();
            if old.is_empty() {
                return Ok(false);
            }
            self.imm.store(Some(Arc::clone(&old)));
            self.mem.store(Arc::new(Memtable::new()));
            let new_wal = self.store.rotate_wal()?;
            (old, new_wal)
        };
        let mut iter = imm.internal_iter();
        // Baselines hold no snapshot registry: the watermark is the
        // current visible sequence (short scans pin components
        // directly).
        let watermark = self.visible();
        self.store
            .flush_memtable(&mut iter, watermark, imm.max_ts(), new_wal)?;
        self.imm.store(None);
        Ok(true)
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

fn flush_worker(core: Arc<BaselineCore>) {
    loop {
        {
            let mut g = core.work_mutex.lock();
            while !core.flush_pending.load(Ordering::Acquire)
                && !core.shutdown.load(Ordering::Acquire)
            {
                core.work_cv
                    .wait_for(&mut g, std::time::Duration::from_millis(50));
            }
        }
        if core.shutdown.load(Ordering::Acquire) {
            return;
        }
        if core.flush_once().is_err() {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        core.flush_pending.store(false, Ordering::Release);
        let _g = core.work_mutex.lock();
        core.work_cv.notify_all();
    }
}

fn compaction_worker(core: Arc<BaselineCore>) {
    loop {
        if core.shutdown.load(Ordering::Acquire) {
            return;
        }
        let did_work = core.store.needs_compaction()
            && core.store.maybe_compact(core.visible()).unwrap_or(false);
        if !did_work {
            let mut g = core.work_mutex.lock();
            if !core.shutdown.load(Ordering::Acquire) {
                core.work_cv
                    .wait_for(&mut g, std::time::Duration::from_millis(20));
            }
        }
    }
}
