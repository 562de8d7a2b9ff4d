//! The unified mutation types: [`WriteBatch`] + [`WriteOptions`].
//!
//! Every mutation in the workspace — a single put, a delete, or a
//! multi-key atomic batch — is expressed as a [`WriteBatch`] handed to
//! [`KvStore::write`](crate::KvStore::write) together with per-call
//! [`WriteOptions`]. They live in this crate (not `clsm`) so that the
//! trait, the baselines, and the cLSM implementation all share one
//! vocabulary without a dependency cycle.

use crate::{Error, Result};

/// An ordered set of mutations applied as one logical write.
///
/// Entries are `(key, Some(value))` for puts and `(key, None)` for
/// deletes, applied in insertion order; when the same key appears more
/// than once, the last entry wins.
///
/// ```
/// use clsm_kv::WriteBatch;
///
/// let mut batch = WriteBatch::new();
/// batch.put(b"k1", b"v1");
/// batch.delete(b"k2");
/// assert_eq!(batch.len(), 2);
/// let also: WriteBatch = vec![(b"k1".to_vec(), Some(b"v1".to_vec()))]
///     .into_iter()
///     .collect();
/// assert_eq!(also.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteBatch {
    ops: Vec<(Vec<u8>, Option<Vec<u8>>)>,
}

impl WriteBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        WriteBatch::default()
    }

    /// A batch holding one put — the shape `KvStore::put` desugars to.
    pub fn single_put(key: &[u8], value: &[u8]) -> Self {
        WriteBatch {
            ops: vec![(key.to_vec(), Some(value.to_vec()))],
        }
    }

    /// A batch holding one delete.
    pub fn single_delete(key: &[u8]) -> Self {
        WriteBatch {
            ops: vec![(key.to_vec(), None)],
        }
    }

    /// Appends a put of `value` under `key`.
    pub fn put(&mut self, key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) -> &mut Self {
        self.ops.push((key.into(), Some(value.into())));
        self
    }

    /// Appends a deletion of `key`.
    pub fn delete(&mut self, key: impl Into<Vec<u8>>) -> &mut Self {
        self.ops.push((key.into(), None));
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total payload bytes queued (key + value lengths).
    pub fn size_bytes(&self) -> usize {
        self.ops
            .iter()
            .map(|(k, v)| k.len() + v.as_ref().map_or(0, Vec::len))
            .sum()
    }

    /// Discards all queued operations, keeping the allocation.
    pub fn clear(&mut self) {
        self.ops.clear();
    }

    /// The queued operations in insertion order.
    pub fn ops(&self) -> &[(Vec<u8>, Option<Vec<u8>>)] {
        &self.ops
    }

    /// Consumes the batch, yielding the operations in insertion order.
    pub fn into_ops(self) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
        self.ops
    }

    /// Iterates over `(key, value)` pairs (`None` value = delete).
    pub fn iter(&self) -> std::slice::Iter<'_, (Vec<u8>, Option<Vec<u8>>)> {
        self.ops.iter()
    }
}

impl FromIterator<(Vec<u8>, Option<Vec<u8>>)> for WriteBatch {
    fn from_iter<I: IntoIterator<Item = (Vec<u8>, Option<Vec<u8>>)>>(iter: I) -> Self {
        WriteBatch {
            ops: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for WriteBatch {
    type Item = (Vec<u8>, Option<Vec<u8>>);
    type IntoIter = std::vec::IntoIter<Self::Item>;

    fn into_iter(self) -> Self::IntoIter {
        self.ops.into_iter()
    }
}

impl<'a> IntoIterator for &'a WriteBatch {
    type Item = &'a (Vec<u8>, Option<Vec<u8>>);
    type IntoIter = std::slice::Iter<'a, (Vec<u8>, Option<Vec<u8>>)>;

    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter()
    }
}

impl From<&[(Vec<u8>, Option<Vec<u8>>)]> for WriteBatch {
    fn from(ops: &[(Vec<u8>, Option<Vec<u8>>)]) -> Self {
        WriteBatch { ops: ops.to_vec() }
    }
}

/// Per-call durability knobs for [`KvStore::write`](crate::KvStore::write).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteOptions {
    /// Wait until the write is fsync'd before returning (group-committed
    /// with concurrent syncing writers). Defaults to `false`; a store
    /// opened in always-sync mode syncs regardless.
    pub sync: bool,
    /// Skip the write-ahead log entirely: the write is lost on a crash
    /// until the memtable flushes. Incompatible with `sync`.
    pub disable_wal: bool,
}

impl WriteOptions {
    /// The default options (asynchronous, logged).
    pub fn new() -> Self {
        WriteOptions::default()
    }

    /// Options requesting a durable (fsync'd) write.
    pub fn durable() -> Self {
        WriteOptions {
            sync: true,
            disable_wal: false,
        }
    }

    /// Rejects contradictory combinations (`sync` + `disable_wal`).
    pub fn validate(&self) -> Result<()> {
        if self.sync && self.disable_wal {
            return Err(Error::invalid_argument(
                "WriteOptions: sync requires the WAL (disable_wal must be false)",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_builder_accumulates() {
        let mut b = WriteBatch::new();
        assert!(b.is_empty());
        b.put(b"a".to_vec(), b"1".to_vec()).delete(b"b".to_vec());
        assert_eq!(b.len(), 2);
        assert_eq!(b.size_bytes(), 3);
        assert_eq!(b.ops()[0], (b"a".to_vec(), Some(b"1".to_vec())));
        assert_eq!(b.ops()[1], (b"b".to_vec(), None));
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn batch_from_iterator_and_back() {
        let entries = vec![(b"x".to_vec(), Some(b"1".to_vec())), (b"y".to_vec(), None)];
        let batch: WriteBatch = entries.clone().into_iter().collect();
        assert_eq!(batch.iter().count(), 2);
        assert_eq!((&batch).into_iter().count(), 2);
        assert_eq!(batch.clone().into_ops(), entries);
        let roundtrip: Vec<_> = batch.into_iter().collect();
        assert_eq!(roundtrip, entries);
    }

    #[test]
    fn batch_from_slice() {
        let batch = WriteBatch::single_put(b"k", b"v");
        let from_slice: WriteBatch = batch.ops().into();
        assert_eq!(from_slice, batch);
    }

    #[test]
    fn single_op_constructors() {
        let p = WriteBatch::single_put(b"k", b"v");
        assert_eq!(p.ops(), &[(b"k".to_vec(), Some(b"v".to_vec()))]);
        let d = WriteBatch::single_delete(b"k");
        assert_eq!(d.ops(), &[(b"k".to_vec(), None)]);
    }

    #[test]
    fn write_options_validation() {
        assert!(WriteOptions::new().validate().is_ok());
        assert!(WriteOptions::durable().validate().is_ok());
        assert!(WriteOptions {
            sync: false,
            disable_wal: true
        }
        .validate()
        .is_ok());
        assert!(WriteOptions {
            sync: true,
            disable_wal: true
        }
        .validate()
        .is_err());
    }
}
