//! HyperLevelDB's concurrency model: fine-grained locking with
//! in-order commit.
//!
//! HyperLevelDB "improves on LevelDB … by using fine-grained locking to
//! increase concurrency" (§6). Writers overlap on the memtable insert,
//! but each write becomes visible in sequence order: a writer spins
//! until every earlier sequence number has committed. That pipeline
//! scales for a few threads and then degrades — the behavior Figure 5
//! measures (peaks around 4 threads).

use std::sync::atomic::{AtomicU64, Ordering};

use clsm_util::error::Result;

use crate::core::{Baseline, BaselineCore, Model};

/// A HyperLevelDB-style store: parallel inserts, ordered commit.
pub type HyperLike = Baseline<HyperModel>;

/// HyperLevelDB's model: the ordered-commit counter.
#[doc(hidden)]
pub struct HyperModel {
    /// Highest sequence number whose writer finished committing; a
    /// writer with sequence `s` waits for `s - 1`.
    committed: AtomicU64,
}

impl Model for HyperModel {
    const NAME: &'static str = "HyperLevelDB";

    fn new(core: &BaselineCore) -> Self {
        let committed = AtomicU64::new(core.visible());
        HyperModel { committed }
    }

    /// Reads briefly synchronize on the commit counter (analogous to
    /// LevelDB's brief mutex hold, but cheaper).
    fn read_point(&self, _core: &BaselineCore) -> u64 {
        self.committed.load(Ordering::Acquire)
    }

    /// Each operation rides the ordered-commit pipeline on its own.
    fn write_one(&self, core: &BaselineCore, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        core.admit()?;
        let seq = core.next_seq.fetch_add(1, Ordering::SeqCst) + 1;
        // The insert itself runs in parallel with other writers.
        let applied = core.apply_write(key, value, seq);
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
            core.publish(seq);
        }
        self.committed.store(seq, Ordering::Release);
        applied?;
        core.after_write()
    }

    /// HyperLevelDB has no native RMW (so none here either); emulate
    /// put-if-absent with a writer-side check over the commit counter
    /// (coarse, and not atomic).
    fn put_if_absent(&self, core: &BaselineCore, key: &[u8], value: &[u8]) -> Result<bool> {
        core.admit()?;
        if core.get_at(key, self.read_point(core))?.is_some() {
            return Ok(false);
        }
        self.write_one(core, key, Some(value))?;
        Ok(true)
    }
}
