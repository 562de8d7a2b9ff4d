//! LevelDB's concurrency model: coarse-grained synchronization.
//!
//! "The original LevelDB acquires a global exclusive lock to protect
//! critical sections at the beginning and the end of each read and
//! write. The bulk of the code is guarded by a mechanism that allows a
//! single writer thread and multiple reader threads" (§4). We model
//! that faithfully:
//!
//! - every **write** holds one global mutex end-to-end (single writer);
//! - every **read** takes the same mutex briefly to capture the
//!   sequence number and component references, then reads without it.

use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;

use clsm::{Options, Workers};
use clsm_kv::{KvSnapshot, KvStore, RmwDecision, RmwResult, ScanRange, WriteBatch, WriteOptions};
use clsm_util::error::Result;

use crate::core::BaselineCore;

/// A LevelDB-style store: globally locked writes, briefly locked reads.
pub struct LevelDbLike {
    core: Arc<BaselineCore>,
    /// The global mutex of LevelDB's `DBImpl::mutex_`.
    global: Mutex<()>,
    /// Stops the background threads when dropped.
    _workers: Workers<BaselineCore>,
}

impl LevelDbLike {
    /// Opens (or creates) a store at `path`.
    pub fn open(path: &Path, opts: Options) -> Result<LevelDbLike> {
        let (core, workers) = BaselineCore::open(path, &opts)?;
        Ok(LevelDbLike {
            core,
            global: Mutex::new(()),
            _workers: workers,
        })
    }

    fn write_one(&self, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        // Single writer: the entire write path is serialized.
        self.core
            .serialized(&self.global, || self.core.write_next(key, value))
    }

    /// Captures a consistent read point the way LevelDB does: under the
    /// global mutex.
    fn read_point(&self) -> u64 {
        let _g = self.global.lock();
        self.core.visible()
    }
}

impl KvStore for LevelDbLike {
    fn write(&self, batch: WriteBatch, opts: &WriteOptions) -> Result<()> {
        // LevelDB-style writes funnel one at a time through the global
        // mutex.
        for (key, value) in batch.iter() {
            self.write_one(key, value.as_deref())?;
        }
        self.core.sync_if_requested(opts)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let seq = self.read_point();
        self.core.get_at(key, seq)
    }

    fn snapshot(&self) -> Result<Box<dyn KvSnapshot>> {
        Ok(self.core.snapshot_at(self.read_point()))
    }

    fn scan(&self, range: ScanRange, limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let seq = self.read_point();
        self.core.scan_at(&range, limit, seq)
    }

    fn read_modify_write(
        &self,
        key: &[u8],
        f: &mut dyn FnMut(Option<&[u8]>) -> RmwDecision,
    ) -> Result<RmwResult> {
        // LevelDB-style conditional writes (and the default
        // `put_if_absent` over this) ride the single-writer mutex end to
        // end: read, decide, write, all serialized.
        self.core
            .serialized(&self.global, || self.core.rmw_next(key, f))
    }

    fn quiesce(&self) -> Result<()> {
        self.core.quiesce()
    }

    fn name(&self) -> &'static str {
        "LevelDB"
    }

    fn write_amp(&self) -> Option<lsm_storage::store::WriteAmp> {
        Some(self.core.write_amp())
    }
}
