//! Consistent snapshots, scans, and range queries (§3.2).

use std::sync::Arc;

use clsm_util::error::Result;

use lsm_storage::format::ValueKind;
use lsm_storage::iter::{InternalIterator, MergingIterator};
use lsm_storage::version::Version;

use crate::db::DbInner;

/// A consistent read-only view of the database at one point in time.
///
/// A snapshot handle is "simply a timestamp" (§3.2.1): reads through it
/// return, for every key, the newest version written at or before that
/// time. While the handle is live, the merge process keeps every
/// version a read at this time could need; dropping the handle releases
/// them for garbage collection.
pub struct Snapshot {
    inner: Arc<DbInner>,
    ts: u64,
}

impl Snapshot {
    pub(crate) fn new(inner: Arc<DbInner>, ts: u64) -> Snapshot {
        Snapshot { inner, ts }
    }

    /// The snapshot's timestamp.
    pub fn timestamp(&self) -> u64 {
        self.ts
    }

    /// Reads `key` as of this snapshot ("snapshot read", §3.2.2).
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.inner.get_at(key, self.ts)
    }

    /// Iterates every live key-value pair in key order.
    pub fn iter(&self) -> Result<SnapshotIter> {
        self.scan_from(None, None)
    }

    /// Range query over `[start, end)` in key order (§3.2.2). Pass
    /// `end = None` for an unbounded upper end.
    pub fn range(&self, start: &[u8], end: Option<&[u8]>) -> Result<SnapshotIter> {
        self.scan_from(Some(start), end)
    }

    /// Range query driven by any standard range expression over
    /// byte-vector keys (`a..b`, `a..=b`, `a..`, `..b`, `..`).
    ///
    /// Bounds are normalized to the `[start, end)` form the merging
    /// iterator understands: an excluded start and an included end both
    /// shift by the key's immediate lexicographic successor (`key ++
    /// 0x00`).
    pub fn range_bounds<R>(&self, range: R) -> Result<SnapshotIter>
    where
        R: std::ops::RangeBounds<Vec<u8>>,
    {
        let (start, end) = bounds_to_keys(&range);
        self.scan_from(start.as_deref(), end.as_deref())
    }

    /// Returns up to `limit` live pairs with keys in `range`, in key
    /// order (the evaluation harness's scan shape, Figure 7b). Accepts
    /// any standard range expression or a [`clsm_kv::ScanRange`].
    pub fn scan<R>(&self, range: R, limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>>
    where
        R: std::ops::RangeBounds<Vec<u8>>,
    {
        let mut out = Vec::with_capacity(limit.min(1024));
        for item in self.range_bounds(range)? {
            // Check before pushing so `limit = 0` yields nothing.
            if out.len() >= limit {
                break;
            }
            out.push(item?);
        }
        Ok(out)
    }

    fn scan_from(&self, start: Option<&[u8]>, end: Option<&[u8]>) -> Result<SnapshotIter> {
        // Gather component iterators newest-first: Pm, P'm, then the
        // disk levels. Each child holds its component alive (`Arc`s on
        // memtables, the pinned `Version` for the files) — the paper's
        // per-component reference counts.
        let mut children: Vec<Box<dyn InternalIterator>> = Vec::new();
        children.push(Box::new(self.inner.pm.load().internal_iter()));
        if let Some(prev) = self.inner.pm_prev.load() {
            children.push(Box::new(prev.internal_iter()));
        }
        let (version, disk_iters) = self.inner.store.version_iterators()?;
        children.extend(disk_iters);

        let mut merged = MergingIterator::new(children);
        match start {
            Some(key) => merged.seek(key, self.ts),
            None => merged.seek_to_first(),
        }
        Ok(SnapshotIter {
            merged,
            snap_ts: self.ts,
            end: end.map(<[u8]>::to_vec),
            _version: version,
            _snapshot: None,
            last_key: None,
            finished: false,
        })
    }

    /// Consumes the snapshot into a full-scan iterator that keeps the
    /// handle (and thus the GC registration) alive for its duration.
    pub fn into_iter_owned(self) -> Result<SnapshotIter> {
        let mut it = self.iter()?;
        it._snapshot = Some(self);
        Ok(it)
    }

    /// Consumes the snapshot into a [`Snapshot::range_bounds`] iterator
    /// that keeps the handle alive for its duration (see
    /// [`Snapshot::into_iter_owned`]).
    pub fn into_range_bounds_owned<R>(self, range: R) -> Result<SnapshotIter>
    where
        R: std::ops::RangeBounds<Vec<u8>>,
    {
        let mut it = self.range_bounds(range)?;
        it._snapshot = Some(self);
        Ok(it)
    }
}

/// Normalizes a `RangeBounds` expression to the internal
/// `(inclusive start, exclusive end)` pair. Byte strings have an exact
/// immediate successor under lexicographic order — `key ++ 0x00` — so
/// excluded starts and included ends are representable without loss.
fn bounds_to_keys<R>(range: &R) -> (Option<Vec<u8>>, Option<Vec<u8>>)
where
    R: std::ops::RangeBounds<Vec<u8>>,
{
    use std::ops::Bound;
    fn successor(key: &[u8]) -> Vec<u8> {
        let mut s = Vec::with_capacity(key.len() + 1);
        s.extend_from_slice(key);
        s.push(0);
        s
    }
    let start = match range.start_bound() {
        Bound::Included(k) => Some(k.clone()),
        Bound::Excluded(k) => Some(successor(k)),
        Bound::Unbounded => None,
    };
    let end = match range.end_bound() {
        Bound::Included(k) => Some(successor(k)),
        Bound::Excluded(k) => Some(k.clone()),
        Bound::Unbounded => None,
    };
    (start, end)
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.inner.snapshots.unregister(self.ts);
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot").field("ts", &self.ts).finish()
    }
}

/// Iterator over a snapshot's live key-value pairs.
///
/// Implements the `next` filtering of §3.2.1: versions newer than the
/// snapshot time are skipped, only the newest remaining version of each
/// key is surfaced, and deletion markers hide their key.
///
/// # Semantics
///
/// - **Consistency**: every pair yielded is the newest version of its
///   key at the snapshot's timestamp. Writes committed after the
///   snapshot was taken are never visible, no matter how long the
///   iteration runs or how much flushing/compaction happens meanwhile.
/// - **Order**: keys come out in strictly increasing lexicographic
///   byte order; each key appears at most once.
/// - **Liveness**: the iterator never blocks writers — it reads the
///   memory components through RCU pointers and pins the on-disk file
///   set (a `Version`) for its whole lifetime. Holding an iterator
///   therefore also holds disk space: dropped files are only reclaimed
///   once the last iterator over them goes away.
/// - **GC interaction**: when the iterator owns its snapshot handle
///   (`Db::iter` / `Db::range`), the handle stays registered until the
///   iterator is dropped, so the versions it may still need survive
///   merges. An expired handle (see `Db::expire_snapshots`) voids this
///   guarantee.
/// - **Errors**: I/O or corruption surfaces as an `Err` item; after
///   the first `Err` (or the end of the range) the iterator is fused.
pub struct SnapshotIter {
    merged: MergingIterator,
    snap_ts: u64,
    end: Option<Vec<u8>>,
    /// Pins the disk files the child iterators read.
    _version: Arc<Version>,
    /// Keeps the snapshot handle registered while iterating, when the
    /// iterator owns its snapshot (see [`Snapshot::into_iter_owned`]).
    _snapshot: Option<Snapshot>,
    /// Last key whose newest visible version was already processed;
    /// persists across `next` calls so older versions never resurface.
    last_key: Option<Vec<u8>>,
    finished: bool,
}

impl Iterator for SnapshotIter {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        while self.merged.valid() {
            let ts = self.merged.ts();
            let key = self.merged.user_key();

            if let Some(end) = &self.end {
                if key >= end.as_slice() {
                    break;
                }
            }
            if ts > self.snap_ts || self.last_key.as_deref() == Some(key) {
                // Invisible at this snapshot, or an older version of a
                // key already decided.
                self.merged.next();
                continue;
            }
            // Newest visible version of this key.
            self.last_key = Some(key.to_vec());
            match self.merged.kind() {
                ValueKind::Put => {
                    let pair = (key.to_vec(), self.merged.value().to_vec());
                    self.merged.next();
                    return Some(Ok(pair));
                }
                ValueKind::Delete => {
                    // Tombstone: the key is dead at this snapshot; keep
                    // scanning (older versions are now skipped via
                    // `last_key`).
                    self.merged.next();
                }
            }
        }
        self.finished = true;
        if let Err(e) = self.merged.status() {
            return Some(Err(e));
        }
        None
    }
}

impl SnapshotIter {
    /// Surfaces any I/O or corruption error hit during iteration.
    pub fn status(&self) -> Result<()> {
        self.merged.status()
    }
}
