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

use parking_lot::Mutex;

use clsm_kv::{RmwDecision, RmwResult};
use clsm_util::error::Result;

use crate::core::{Baseline, BaselineCore, Model};

/// A LevelDB-style store: globally locked writes, briefly locked reads.
pub type LevelDbLike = Baseline<LevelDbModel>;

/// LevelDB's model: the global mutex of its `DBImpl::mutex_`.
#[doc(hidden)]
pub struct LevelDbModel {
    global: Mutex<()>,
}

impl Model for LevelDbModel {
    const NAME: &'static str = "LevelDB";

    fn new(_core: &BaselineCore) -> Self {
        let global = Mutex::new(());
        LevelDbModel { global }
    }

    /// Captures a consistent read point the way LevelDB does: under the
    /// global mutex.
    fn read_point(&self, core: &BaselineCore) -> u64 {
        let _g = self.global.lock();
        core.visible()
    }

    /// Single writer: the entire write path is serialized.
    fn write_one(&self, core: &BaselineCore, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        core.serialized(&self.global, || core.write_next(key, value))
    }

    /// LevelDB-style conditional writes (and `put_if_absent` over this)
    /// ride the single-writer mutex end to end: read, decide, write, all
    /// serialized.
    fn read_modify_write(
        &self,
        core: &BaselineCore,
        key: &[u8],
        f: &mut dyn FnMut(Option<&[u8]>) -> RmwDecision,
    ) -> Result<RmwResult> {
        core.serialized(&self.global, || core.rmw_next(key, f))
    }
}
