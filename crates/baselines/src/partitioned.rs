//! Range-partitioned composition of stores (the Figure 1 setup).
//!
//! Figure 1 compares one big cLSM partition against several small
//! LevelDB/HyperLevelDB partitions. [`Partitioned`] routes operations
//! to per-range child stores. Cross-partition scans are *not*
//! consistent — precisely the drawback the paper cites for
//! partitioning ("the data store's consistent snapshot scans do not
//! span multiple partitions", §2.2).

use clsm_kv::{KvSnapshot, KvStore, RmwDecision, RmwResult, ScanRange, WriteBatch, WriteOptions};
use clsm_util::error::Result;

/// N stores, each owning a contiguous key range.
pub struct Partitioned<S: KvStore> {
    parts: Vec<S>,
    /// Exclusive upper boundary of each partition except the last.
    boundaries: Vec<Vec<u8>>,
}

impl<S: KvStore> Partitioned<S> {
    /// Composes `parts`; `boundaries[i]` is the exclusive upper key
    /// bound of `parts[i]` (so `boundaries.len() == parts.len() - 1`
    /// and boundaries are strictly increasing).
    pub fn new(parts: Vec<S>, boundaries: Vec<Vec<u8>>) -> Partitioned<S> {
        assert_eq!(boundaries.len() + 1, parts.len());
        debug_assert!(boundaries.windows(2).all(|w| w[0] < w[1]));
        Partitioned { parts, boundaries }
    }

    /// Index of the partition owning `key`.
    pub fn partition_of(&self, key: &[u8]) -> usize {
        self.boundaries.partition_point(|b| b.as_slice() <= key)
    }
}

impl<S: KvStore> KvStore for Partitioned<S> {
    fn write(&self, batch: WriteBatch, opts: &WriteOptions) -> Result<()> {
        // One sub-batch per touched partition, keeping whatever batch
        // atomicity the child provides *within* a partition. A batch
        // that spans partitions is not atomic as a whole — the §2.2
        // drawback partitioning is cited for.
        let mut per: std::collections::BTreeMap<usize, WriteBatch> =
            std::collections::BTreeMap::new();
        for (key, value) in batch {
            let sub = per.entry(self.partition_of(&key)).or_default();
            match value {
                Some(v) => sub.put(key, v),
                None => sub.delete(key),
            };
        }
        for (part, sub) in per {
            self.parts[part].write(sub, opts)?;
        }
        Ok(())
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.parts[self.partition_of(key)].get(key)
    }

    fn snapshot(&self) -> Result<Box<dyn KvSnapshot>> {
        // One child snapshot per partition. Each partition is
        // internally consistent; the union is not — "the data store's
        // consistent snapshot scans do not span multiple partitions"
        // (§2.2), which is exactly what Figure 1 demonstrates.
        let parts = self
            .parts
            .iter()
            .map(KvStore::snapshot)
            .collect::<Result<Vec<_>>>()?;
        Ok(Box::new(PartitionedSnapshot {
            parts,
            boundaries: self.boundaries.clone(),
        }))
    }

    fn scan(&self, range: ScanRange, limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        // Stitches per-partition scans; each partition is internally
        // consistent, the union is not (Figure 1's caveat).
        let (start, end) = range.as_keys();
        let mut out = Vec::with_capacity(limit);
        let mut from = start.unwrap_or_default();
        let mut part = self.partition_of(&from);
        while out.len() < limit && part < self.parts.len() {
            let sub = ScanRange {
                start: std::ops::Bound::Included(from.clone()),
                end: end
                    .clone()
                    .map_or(std::ops::Bound::Unbounded, std::ops::Bound::Excluded),
            };
            let got = self.parts[part].scan(sub, limit - out.len())?;
            out.extend(got);
            part += 1;
            if part <= self.boundaries.len() && part > 0 {
                from = self.boundaries[part - 1].clone();
            }
        }
        Ok(out)
    }

    fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool> {
        self.parts[self.partition_of(key)].put_if_absent(key, value)
    }

    fn read_modify_write(
        &self,
        key: &[u8],
        f: &mut dyn FnMut(Option<&[u8]>) -> RmwDecision,
    ) -> Result<RmwResult> {
        // Single-key, so routing preserves whatever atomicity the
        // owning partition provides.
        self.parts[self.partition_of(key)].read_modify_write(key, f)
    }

    fn quiesce(&self) -> Result<()> {
        for p in &self.parts {
            p.quiesce()?;
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "partitioned"
    }
}

/// Per-partition child snapshots stitched behind one [`KvSnapshot`].
struct PartitionedSnapshot {
    parts: Vec<Box<dyn KvSnapshot>>,
    boundaries: Vec<Vec<u8>>,
}

impl PartitionedSnapshot {
    fn partition_of(&self, key: &[u8]) -> usize {
        self.boundaries.partition_point(|b| b.as_slice() <= key)
    }
}

impl KvSnapshot for PartitionedSnapshot {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.parts[self.partition_of(key)].get(key)
    }

    fn scan(&self, range: ScanRange, limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let (start, end) = range.as_keys();
        let mut out = Vec::with_capacity(limit);
        let mut from = start.unwrap_or_default();
        let mut part = self.partition_of(&from);
        while out.len() < limit && part < self.parts.len() {
            let sub = ScanRange {
                start: std::ops::Bound::Included(from.clone()),
                end: end
                    .clone()
                    .map_or(std::ops::Bound::Unbounded, std::ops::Bound::Excluded),
            };
            let got = self.parts[part].scan(sub, limit - out.len())?;
            out.extend(got);
            part += 1;
            if part <= self.boundaries.len() && part > 0 {
                from = self.boundaries[part - 1].clone();
            }
        }
        Ok(out)
    }
}
