//! bLSM's concurrency model: single writer with a spring-and-gear
//! merge scheduler.
//!
//! bLSM is "a single-writer prototype that capitalizes on careful
//! scheduling of merges" (§5): instead of letting the memtable fill and
//! then stalling writes hard, its merge scheduler *throttles* writers
//! smoothly so the merge keeps pace ("bounds the time a merge can block
//! write operations", §6). We model that as a per-write delay that
//! grows with the memtable fill fraction once flushing falls behind.
//!
//! bLSM "does not directly support consistent scans" (§5.1); a scan
//! here is a best-effort one at the read point, so the trait is total,
//! but benchmarks exclude it as the paper does.

use std::time::Duration;

use parking_lot::Mutex;

use clsm_kv::{RmwDecision, RmwResult};
use clsm_util::error::Result;

use crate::core::{Baseline, BaselineCore, Model};

/// A bLSM-style store: single writer, gear-throttled against merges.
pub type BlsmLike = Baseline<BlsmModel>;

/// bLSM's model: its one writer's mutex, and the gear.
#[doc(hidden)]
pub struct BlsmModel {
    global: Mutex<()>,
}

/// Spring-and-gear: no delay below 70% fill; once the memtable outpaces
/// the merge, delay writes proportionally instead of letting them hit
/// the hard stall.
fn gear_throttle(core: &BaselineCore) {
    let fill = core.components.fill();
    if fill > 0.7 {
        let over = (fill - 0.7) / 0.3;
        let micros = (over.clamp(0.0, 1.0) * 200.0) as u64;
        if micros > 0 {
            std::thread::sleep(Duration::from_micros(micros));
        }
    }
}

impl Model for BlsmModel {
    const NAME: &'static str = "bLSM";

    fn new(_core: &BaselineCore) -> Self {
        let global = Mutex::new(());
        BlsmModel { global }
    }

    /// Single-writer design: reads synchronize like LevelDB's.
    fn read_point(&self, core: &BaselineCore) -> u64 {
        let _g = self.global.lock();
        core.visible()
    }

    /// Single-writer, gear-throttled per operation.
    fn write_one(&self, core: &BaselineCore, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        gear_throttle(core);
        core.serialized(&self.global, || core.write_next(key, value))
    }

    /// The whole read-decide-write (and `put_if_absent` over it) holds
    /// the global mutex, same as every other write.
    fn read_modify_write(
        &self,
        core: &BaselineCore,
        key: &[u8],
        f: &mut dyn FnMut(Option<&[u8]>) -> RmwDecision,
    ) -> Result<RmwResult> {
        gear_throttle(core);
        core.serialized(&self.global, || core.rmw_next(key, f))
    }
}
