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

use parking_lot::Mutex;

use clsm_kv::{RmwDecision, RmwResult};
use clsm_util::error::Result;

use crate::core::{Baseline, BaselineCore, Model};

/// A RocksDB-style store: serialized writes, lock-free reads.
pub type RocksLike = Baseline<RocksModel>;

/// RocksDB's model: the writers queue (the leader/follower group-commit
/// protocol modeled as one mutex: same serialization, simpler
/// mechanics).
#[doc(hidden)]
pub struct RocksModel {
    writer_queue: Mutex<()>,
}

impl Model for RocksModel {
    const NAME: &'static str = "RocksDB";

    fn new(_core: &BaselineCore) -> Self {
        let writer_queue = Mutex::new(());
        RocksModel { writer_queue }
    }

    /// Lock-free read: the visible sequence and the super-version (our
    /// RCU component pointers) are read without any mutex.
    fn read_point(&self, core: &BaselineCore) -> u64 {
        core.visible()
    }

    /// Writes funnel through the writer queue one at a time.
    fn write_one(&self, core: &BaselineCore, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        core.serialized(&self.writer_queue, || core.write_next(key, value))
    }

    /// Modeled on RocksDB's merge-operator discipline: the whole
    /// read-decide-write (and `put_if_absent` over it) runs inside the
    /// writer queue.
    fn read_modify_write(
        &self,
        core: &BaselineCore,
        key: &[u8],
        f: &mut dyn FnMut(Option<&[u8]>) -> RmwDecision,
    ) -> Result<RmwResult> {
        core.serialized(&self.writer_queue, || core.rmw_next(key, f))
    }
}
