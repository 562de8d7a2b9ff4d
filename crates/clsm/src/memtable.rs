//! The memory component: a lock-free skip list plus bookkeeping.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clsm_skiplist::{Conflict, OwnedCursor, SkipList};
use lsm_storage::format::ValueKind;
use lsm_storage::iter::InternalIterator;

/// A memory component (`Cm` or `C'm` in the paper): entries live in an
/// arena-backed lock-free skip list and are multi-versioned by
/// timestamp.
pub struct Memtable {
    list: Arc<SkipList>,
    /// Highest timestamp inserted (for the flush edit's `last_ts`).
    max_ts: AtomicU64,
}

impl Default for Memtable {
    fn default() -> Self {
        Self::new()
    }
}

impl Memtable {
    /// Creates an empty memtable.
    pub fn new() -> Self {
        Memtable {
            list: Arc::new(SkipList::new()),
            max_ts: AtomicU64::new(0),
        }
    }

    /// Inserts a versioned entry (`None` value = deletion marker).
    pub fn insert(&self, key: &[u8], ts: u64, value: Option<&[u8]>) {
        self.list.insert(key, ts, value);
        self.max_ts.fetch_max(ts, Ordering::Relaxed);
    }

    /// Inserts iff no newer version of `key` exists (see
    /// [`SkipList::insert_as_newest`]); writers that stamp before
    /// inserting use this and re-stamp on conflict.
    pub(crate) fn insert_as_newest(
        &self,
        key: &[u8],
        ts: u64,
        value: Option<&[u8]>,
    ) -> Result<(), Conflict> {
        let r = self.list.insert_as_newest(key, ts, value);
        if r.is_ok() {
            self.max_ts.fetch_max(ts, Ordering::Relaxed);
        }
        r
    }

    /// Algorithm 3's conditional insert (see
    /// [`SkipList::insert_if_latest`]).
    pub(crate) fn insert_if_latest(
        &self,
        key: &[u8],
        ts: u64,
        value: Option<&[u8]>,
        expected_latest: Option<u64>,
    ) -> Result<(), Conflict> {
        let r = self.list.insert_if_latest(key, ts, value, expected_latest);
        if r.is_ok() {
            self.max_ts.fetch_max(ts, Ordering::Relaxed);
        }
        r
    }

    /// Newest version of `key` with timestamp ≤ `max_ts`:
    /// `Some((ts, None))` is a tombstone, outer `None` means absent.
    pub fn get_latest(&self, key: &[u8], max_ts: u64) -> Option<(u64, Option<&[u8]>)> {
        self.list.get_latest(key, max_ts)
    }

    /// Approximate bytes consumed.
    pub fn memory_usage(&self) -> usize {
        self.list.memory_usage()
    }

    /// Returns `true` when nothing was inserted.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Number of entries (versions).
    pub(crate) fn len(&self) -> usize {
        self.list.len()
    }

    /// Highest timestamp inserted so far.
    pub fn max_ts(&self) -> u64 {
        self.max_ts.load(Ordering::Relaxed)
    }

    /// An [`InternalIterator`] over the memtable, holding it alive.
    pub fn internal_iter(self: &Arc<Self>) -> MemtableIter {
        MemtableIter {
            cursor: self.list.owned_cursor(),
            _table: Arc::clone(self),
        }
    }
}

impl std::fmt::Debug for Memtable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memtable")
            .field("entries", &self.len())
            .field("bytes", &self.memory_usage())
            .finish()
    }
}

/// Iterator adapter: skip-list cursor → [`InternalIterator`].
///
/// Holds an `Arc` to both the list (via the cursor) and the memtable,
/// which is the paper's per-component reference count keeping `C'm`
/// alive while scans read it.
pub struct MemtableIter {
    cursor: OwnedCursor,
    _table: Arc<Memtable>,
}

impl InternalIterator for MemtableIter {
    fn valid(&self) -> bool {
        self.cursor.valid()
    }

    fn seek_to_first(&mut self) {
        self.cursor.seek_to_first();
    }

    fn seek(&mut self, user_key: &[u8], ts: u64) {
        self.cursor.seek(user_key, ts);
    }

    fn next(&mut self) {
        self.cursor.advance();
    }

    fn user_key(&self) -> &[u8] {
        self.cursor.key()
    }

    fn ts(&self) -> u64 {
        self.cursor.ts()
    }

    fn kind(&self) -> ValueKind {
        match self.cursor.value() {
            Some(_) => ValueKind::Put,
            None => ValueKind::Delete,
        }
    }

    fn value(&self) -> &[u8] {
        self.cursor.value().unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The §3 memory-component contract: a sorted multi-version map
    /// with ordered iteration.
    #[test]
    fn skiplist_component_contract() {
        let mt = Arc::new(Memtable::new());
        assert!(mt.is_empty());
        mt.insert(b"b", 2, Some(b"vb"));
        mt.insert(b"a", 1, Some(b"va"));
        mt.insert(b"a", 3, None); // delete
        assert!(!mt.is_empty());
        assert_eq!(mt.len(), 3);
        assert_eq!(mt.max_ts(), 3);
        assert!(mt.memory_usage() > 0);
        assert_eq!(mt.get_latest(b"a", 10), Some((3, None)));
        assert_eq!(mt.get_latest(b"a", 2), Some((1, Some(&b"va"[..]))));
        assert_eq!(mt.get_latest(b"zz", 10), None);

        let mut it = mt.internal_iter();
        it.seek_to_first();
        let mut got = Vec::new();
        while it.valid() {
            got.push((it.user_key().to_vec(), it.ts(), it.kind()));
            it.next();
        }
        assert_eq!(
            got,
            vec![
                (b"a".to_vec(), 3, ValueKind::Delete),
                (b"a".to_vec(), 1, ValueKind::Put),
                (b"b".to_vec(), 2, ValueKind::Put),
            ]
        );
    }

    #[test]
    fn insert_as_newest_rejects_older_stamps() {
        let mt = Memtable::new();
        mt.insert_as_newest(b"k", 5, Some(b"v5")).unwrap();
        assert_eq!(mt.insert_as_newest(b"k", 3, Some(b"x")), Err(Conflict));
        mt.insert_as_newest(b"k", 7, None).unwrap();
        mt.insert_as_newest(b"other", 1, Some(b"vo")).unwrap();
        assert_eq!(mt.get_latest(b"k", u64::MAX >> 1), Some((7, None)));
        assert_eq!(mt.get_latest(b"k", 6), Some((5, Some(&b"v5"[..]))));
        assert_eq!(mt.max_ts(), 7);
    }

    /// §3.3: the skip list supports Algorithm 3's conditional insert.
    #[test]
    fn insert_if_latest_detects_a_newer_version() {
        let mt = Memtable::new();
        mt.insert_if_latest(b"k", 1, Some(b"v"), None).unwrap();
        assert_eq!(
            mt.insert_if_latest(b"k", 3, Some(b"x"), None),
            Err(Conflict),
            "a version appeared since the read"
        );
        mt.insert_if_latest(b"k", 3, Some(b"w"), Some(1)).unwrap();
        assert_eq!(mt.max_ts(), 3);
    }

    #[test]
    fn iter_keeps_memtable_alive() {
        let mt = Arc::new(Memtable::new());
        mt.insert(b"k", 1, Some(b"v"));
        let mut it = mt.internal_iter();
        drop(mt);
        it.seek_to_first();
        assert!(it.valid());
        assert_eq!(it.value(), b"v");
    }
}
