//! RocksDB's (2014-era) concurrency model: single writer queue,
//! lock-free reads, multi-threaded compaction.
//!
//! "Much effort is done in order to reduce critical sections in the
//! memory component … readers avoid locks by caching metadata in their
//! thread local storage" (§6), while writes still funnel through a
//! single-writer queue with group commit. Configure
//! `Options::compaction_threads > 1` to reproduce the §5.3 setup where
//! "the merge process of disk components is executed by multiple
//! threads concurrently".

use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;

use clsm::{Options, Workers};
use clsm_kv::{KvSnapshot, KvStore, RmwDecision, RmwResult, ScanRange, WriteBatch, WriteOptions};
use clsm_util::error::Result;

use crate::core::BaselineCore;

/// A RocksDB-style store: serialized writes, lock-free reads.
pub struct RocksLike {
    core: Arc<BaselineCore>,
    /// The writers queue (we model the leader/follower group-commit
    /// protocol as one mutex: same serialization, simpler mechanics).
    writer_queue: Mutex<()>,
    /// Stops the background threads when dropped.
    _workers: Workers<BaselineCore>,
}

impl RocksLike {
    /// Opens (or creates) a store at `path`.
    pub fn open(path: &Path, opts: Options) -> Result<RocksLike> {
        let (core, workers) = BaselineCore::open(path, &opts)?;
        Ok(RocksLike {
            core,
            writer_queue: Mutex::new(()),
            _workers: workers,
        })
    }

    fn write_one(&self, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        self.core
            .serialized(&self.writer_queue, || self.core.write_next(key, value))
    }
}

impl KvStore for RocksLike {
    fn write(&self, batch: WriteBatch, opts: &WriteOptions) -> Result<()> {
        // Writes funnel through the writer queue one at a time.
        for (key, value) in batch.iter() {
            self.write_one(key, value.as_deref())?;
        }
        self.core.sync_if_requested(opts)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        // Lock-free read: the visible sequence and the super-version
        // (our RCU component pointers) are read without any mutex.
        self.core.get_at(key, self.core.visible())
    }

    fn snapshot(&self) -> Result<Box<dyn KvSnapshot>> {
        Ok(self.core.snapshot_at(self.core.visible()))
    }

    fn scan(&self, range: ScanRange, limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.core.scan_at(&range, limit, self.core.visible())
    }

    fn read_modify_write(
        &self,
        key: &[u8],
        f: &mut dyn FnMut(Option<&[u8]>) -> RmwDecision,
    ) -> Result<RmwResult> {
        // Modeled on RocksDB's merge-operator discipline: the whole
        // read-decide-write (and the default `put_if_absent` over it)
        // runs inside the writer queue.
        self.core
            .serialized(&self.writer_queue, || self.core.rmw_next(key, f))
    }

    fn quiesce(&self) -> Result<()> {
        self.core.quiesce()
    }

    fn name(&self) -> &'static str {
        "RocksDB"
    }

    fn write_amp(&self) -> Option<lsm_storage::store::WriteAmp> {
        Some(self.core.write_amp())
    }
}
