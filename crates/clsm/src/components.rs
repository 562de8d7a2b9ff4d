//! The memory components every store shares, cLSM's and the
//! baselines': `Pm`, `P'm` and `Pm`'s capacity. Readers load them
//! through RCU in data-flow order `Pm → P'm → Pd`, the opposite of the
//! order the merge (`clsm::jobs`) swings them.

use std::sync::Arc;

use clsm_util::error::Result;
use clsm_util::rcu::RcuCell;
use lsm_storage::format::{ValueKind, WriteRecord};
use lsm_storage::Store;

use crate::memtable::Memtable;

/// The newest version of a key visible at a read time: `(ts,
/// value-or-tombstone)`, plus whether it was found in `Pm` (Algorithm
/// 3's conflict scope).
#[doc(hidden)]
pub type VersionedRead = (Option<(u64, Option<Vec<u8>>)>, bool);

/// A store's memory components.
#[doc(hidden)]
pub struct Components {
    /// `Pm`: the mutable memory component.
    pm: RcuCell<Arc<Memtable>>,
    /// `P'm`: the immutable memory component being merged, if any.
    pm_prev: RcuCell<Option<Arc<Memtable>>>,
    /// `Pm`'s capacity in bytes (`Options::memtable_bytes`).
    capacity: usize,
}

impl Components {
    /// `Pm` holding the records recovery replayed, and no `P'm`.
    pub fn recovered(records: &[WriteRecord], capacity: usize) -> Self {
        let pm = Memtable::new();
        for rec in records {
            let value = match rec.kind {
                ValueKind::Put => Some(rec.value.as_slice()),
                ValueKind::Delete => None,
            };
            pm.insert(&rec.key, rec.ts, value);
        }
        Components {
            pm: RcuCell::new(Arc::new(pm)),
            pm_prev: RcuCell::new(None),
            capacity,
        }
    }

    /// `Pm`.
    pub fn pm(&self) -> Arc<Memtable> {
        self.pm.load()
    }

    /// `P'm`, while one awaits or undergoes its merge.
    pub fn pm_prev(&self) -> Option<Arc<Memtable>> {
        self.pm_prev.load()
    }

    /// `beforeMerge`'s swing: `P'm` names the old data before `Pm`
    /// stops doing so. Returns the old `Pm`.
    pub(crate) fn swing(&self, fresh: Arc<Memtable>) -> Arc<Memtable> {
        let old = self.pm.load();
        self.pm_prev.store(Some(Arc::clone(&old)));
        self.pm.store(fresh);
        old
    }

    /// `afterMerge`'s drop of `P'm`, once `Pd` holds its data.
    pub(crate) fn clear_prev(&self) {
        self.pm_prev.store(None);
    }

    /// The newest version of `key` at or below `max_ts`, searched
    /// `Pm → P'm → Pd`.
    pub fn lookup(&self, store: &Store, key: &[u8], max_ts: u64) -> Result<VersionedRead> {
        let owned = |(ts, value): (u64, Option<&[u8]>)| Some((ts, value.map(<[u8]>::to_vec)));
        if let Some(found) = self.pm.load().get_latest(key, max_ts) {
            return Ok((owned(found), true));
        }
        if let Some(prev) = self.pm_prev.load() {
            if let Some(found) = prev.get_latest(key, max_ts) {
                return Ok((owned(found), false));
            }
        }
        let found = store
            .get(key, max_ts)?
            .map(|(ts, kind, value)| (ts, (kind == ValueKind::Put).then_some(value)));
        Ok((found, false))
    }

    /// `Pm`'s bytes over its capacity.
    pub fn fill(&self) -> f64 {
        self.pm.load().memory_usage() as f64 / self.capacity as f64
    }

    /// Whether `Pm` is at capacity: a flush is due.
    pub fn full(&self) -> bool {
        self.pm.load().memory_usage() >= self.capacity
    }

    /// The one stall condition (§5.3, as LevelDB's `MakeRoomForWrite`):
    /// `Pm` is at capacity and no swap of it is under way, so a write
    /// waits for the flush job to swap it. Mid-swap both pointers name
    /// the same memtable; a writer that waited on that would sleep
    /// through the whole flush.
    pub fn write_waits(&self) -> bool {
        let pm = self.pm.load();
        pm.memory_usage() >= self.capacity
            && !self
                .pm_prev
                .load()
                .is_some_and(|prev| Arc::ptr_eq(&prev, &pm))
    }
}
