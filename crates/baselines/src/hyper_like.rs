//! HyperLevelDB's concurrency model: fine-grained locking with
//! in-order commit.
//!
//! HyperLevelDB "improves on LevelDB … by using fine-grained locking to
//! increase concurrency" (§6). Writers overlap on the memtable insert,
//! but each write becomes visible in sequence order: a writer spins
//! until every earlier sequence number has committed. That pipeline
//! scales for a few threads and then degrades — the behavior Figure 5
//! measures (peaks around 4 threads).

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clsm::{Options, Workers};
use clsm_kv::{KvSnapshot, KvStore, ScanRange, WriteBatch, WriteOptions};
use clsm_util::error::Result;

use crate::core::BaselineCore;

/// A HyperLevelDB-style store: parallel inserts, ordered commit.
pub struct HyperLike {
    core: Arc<BaselineCore>,
    /// Highest sequence number whose writer finished committing; a
    /// writer with sequence `s` waits for `s - 1`.
    committed: AtomicU64,
    /// Stops the background threads when dropped.
    _workers: Workers<BaselineCore>,
}

impl HyperLike {
    /// Opens (or creates) a store at `path`.
    pub fn open(path: &Path, opts: Options) -> Result<HyperLike> {
        let (core, workers) = BaselineCore::open(path, &opts)?;
        let committed = AtomicU64::new(core.visible());
        Ok(HyperLike {
            core,
            committed,
            _workers: workers,
        })
    }

    fn write_one(&self, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        self.core.admit()?;
        let seq = self.core.next_seq.fetch_add(1, Ordering::SeqCst) + 1;
        // The insert itself runs in parallel with other writers.
        let applied = self.core.apply_write(key, value, seq);
        // Ordered commit: wait for all earlier writers, then publish.
        // The counter advances even on error, or later writers would
        // spin forever behind a failed sequence number.
        let mut spins = 0u32;
        while self.committed.load(Ordering::Acquire) != seq - 1 {
            if spins < 64 {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        if applied.is_ok() {
            self.core.publish(seq);
        }
        self.committed.store(seq, Ordering::Release);
        applied?;
        self.core.after_write()
    }
}

impl KvStore for HyperLike {
    fn write(&self, batch: WriteBatch, opts: &WriteOptions) -> Result<()> {
        // Each operation rides the ordered-commit pipeline on its own.
        for (key, value) in batch.iter() {
            self.write_one(key, value.as_deref())?;
        }
        self.core.sync_if_requested(opts)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        // Reads briefly synchronize on the commit counter (analogous to
        // LevelDB's brief mutex hold, but cheaper).
        let seq = self.committed.load(Ordering::Acquire);
        self.core.get_at(key, seq)
    }

    fn snapshot(&self) -> Result<Box<dyn KvSnapshot>> {
        Ok(self
            .core
            .snapshot_at(self.committed.load(Ordering::Acquire)))
    }

    fn scan(&self, range: ScanRange, limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let seq = self.committed.load(Ordering::Acquire);
        self.core.scan_at(&range, limit, seq)
    }

    fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool> {
        // HyperLevelDB has no native RMW; emulate with a writer-side
        // critical section over the commit counter (coarse).
        self.core.admit()?;
        let seq = self.committed.load(Ordering::Acquire);
        if self.core.get_at(key, seq)?.is_some() {
            return Ok(false);
        }
        self.write_one(key, Some(value))?;
        Ok(true)
    }

    fn quiesce(&self) -> Result<()> {
        self.core.quiesce()
    }

    fn name(&self) -> &'static str {
        "HyperLevelDB"
    }

    fn write_amp(&self) -> Option<lsm_storage::store::WriteAmp> {
        Some(self.core.write_amp())
    }
}
