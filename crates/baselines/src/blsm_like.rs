//! bLSM's concurrency model: single writer with a spring-and-gear
//! merge scheduler.
//!
//! bLSM is "a single-writer prototype that capitalizes on careful
//! scheduling of merges" (§5): instead of letting the memtable fill and
//! then stalling writes hard, its merge scheduler *throttles* writers
//! smoothly so the merge keeps pace ("bounds the time a merge can block
//! write operations", §6). We model that as a per-write delay that
//! grows with the memtable fill fraction once flushing falls behind.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use clsm::{Options, Workers};
use clsm_kv::{KvSnapshot, KvStore, RmwDecision, RmwResult, ScanRange, WriteBatch, WriteOptions};
use clsm_util::error::Result;

use crate::core::BaselineCore;

/// A bLSM-style store: single writer, gear-throttled against merges.
pub struct BlsmLike {
    core: Arc<BaselineCore>,
    global: Mutex<()>,
    /// Stops the background threads when dropped.
    _workers: Workers<BaselineCore>,
}

impl BlsmLike {
    /// Opens (or creates) a store at `path`.
    pub fn open(path: &Path, opts: Options) -> Result<BlsmLike> {
        let (core, workers) = BaselineCore::open(path, &opts)?;
        Ok(BlsmLike {
            core,
            global: Mutex::new(()),
            _workers: workers,
        })
    }

    /// Spring-and-gear: no delay below 70% fill; once the memtable
    /// outpaces the merge, delay writes proportionally instead of
    /// letting them hit the hard stall.
    fn gear_throttle(&self) {
        let fill = self.core.fill_fraction();
        if fill > 0.7 {
            let over = (fill - 0.7) / 0.3;
            let micros = (over.clamp(0.0, 1.0) * 200.0) as u64;
            if micros > 0 {
                std::thread::sleep(Duration::from_micros(micros));
            }
        }
    }

    fn write_one(&self, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        self.gear_throttle();
        self.core
            .serialized(&self.global, || self.core.write_next(key, value))
    }
}

impl KvStore for BlsmLike {
    fn write(&self, batch: WriteBatch, opts: &WriteOptions) -> Result<()> {
        // Single-writer, gear-throttled per operation.
        for (key, value) in batch.iter() {
            self.write_one(key, value.as_deref())?;
        }
        self.core.sync_if_requested(opts)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        // Single-writer design: reads synchronize like LevelDB's.
        let seq = {
            let _g = self.global.lock();
            self.core.visible()
        };
        self.core.get_at(key, seq)
    }

    fn snapshot(&self) -> Result<Box<dyn KvSnapshot>> {
        Ok(self.core.snapshot_at(self.core.visible()))
    }

    fn scan(&self, range: ScanRange, limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        // bLSM "does not directly support consistent scans" (§5.1); we
        // provide a best-effort scan at the current visible sequence so
        // the trait is total, but benchmarks exclude it as the paper
        // does.
        let seq = self.core.visible();
        self.core.scan_at(&range, limit, seq)
    }

    fn read_modify_write(
        &self,
        key: &[u8],
        f: &mut dyn FnMut(Option<&[u8]>) -> RmwDecision,
    ) -> Result<RmwResult> {
        // Single-writer design: the whole read-decide-write (and the
        // default `put_if_absent` over it) holds the global mutex, same
        // as every other write.
        self.gear_throttle();
        self.core
            .serialized(&self.global, || self.core.rmw_next(key, f))
    }

    fn quiesce(&self) -> Result<()> {
        self.core.quiesce()
    }

    fn name(&self) -> &'static str {
        "bLSM"
    }

    fn write_amp(&self) -> Option<lsm_storage::store::WriteAmp> {
        Some(self.core.write_amp())
    }
}
