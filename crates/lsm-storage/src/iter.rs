//! Iterator abstraction shared by memory and disk components.
//!
//! The cLSM scan algorithm (§3.2) iterates over "all live components
//! (one or two memory components and the disk component)" through a
//! merging iterator and filters versions per snapshot. This module
//! defines the common iterator contract and the merging combinator;
//! the memtable, SSTables, and levels each implement
//! [`InternalIterator`].

use clsm_util::error::Result;

use crate::format::ValueKind;

/// A cursor over `(user_key, ts, kind, value)` entries in internal
/// order (user key ascending, timestamp descending).
///
/// Iterators start out invalid; position them with `seek_to_first` or
/// `seek`. Accessors must only be called while `valid()`.
pub trait InternalIterator: Send {
    /// Returns `true` when positioned on an entry.
    fn valid(&self) -> bool;

    /// Positions on the first entry.
    fn seek_to_first(&mut self);

    /// Positions on the first entry `>= (user_key, ts)` in internal
    /// order — i.e. on the newest version of `user_key` that is visible
    /// at time `ts`, or on a later key.
    fn seek(&mut self, user_key: &[u8], ts: u64);

    /// Advances to the next entry.
    fn next(&mut self);

    /// The current entry's user key.
    fn user_key(&self) -> &[u8];

    /// The current entry's timestamp.
    fn ts(&self) -> u64;

    /// The current entry's kind (put or deletion marker).
    fn kind(&self) -> ValueKind;

    /// The current entry's value bytes (empty for deletions).
    fn value(&self) -> &[u8];

    /// First error encountered, if any. An iterator that hits an error
    /// becomes invalid; callers distinguish exhaustion from failure by
    /// checking this.
    fn status(&self) -> Result<()> {
        Ok(())
    }
}

/// A heap-allocated, dynamically typed internal iterator.
pub(crate) type BoxedIterator = Box<dyn InternalIterator>;

impl<T: InternalIterator + ?Sized> InternalIterator for Box<T> {
    fn valid(&self) -> bool {
        (**self).valid()
    }

    fn seek_to_first(&mut self) {
        (**self).seek_to_first()
    }

    fn seek(&mut self, user_key: &[u8], ts: u64) {
        (**self).seek(user_key, ts)
    }

    fn next(&mut self) {
        (**self).next()
    }

    fn user_key(&self) -> &[u8] {
        (**self).user_key()
    }

    fn ts(&self) -> u64 {
        (**self).ts()
    }

    fn kind(&self) -> ValueKind {
        (**self).kind()
    }

    fn value(&self) -> &[u8] {
        (**self).value()
    }

    fn status(&self) -> Result<()> {
        (**self).status()
    }
}

/// Merges several [`InternalIterator`]s into one ordered stream.
///
/// Ties on `(user_key, ts)` — possible when a WAL replay duplicated an
/// entry across components — are broken by child index, so children
/// should be supplied newest-component-first.
pub struct MergingIterator {
    children: Vec<Box<dyn InternalIterator>>,
    /// Index of the child currently holding the smallest entry.
    current: Option<usize>,
}

impl MergingIterator {
    /// Builds a merging iterator over `children` (newest first).
    pub fn new(children: Vec<Box<dyn InternalIterator>>) -> Self {
        MergingIterator {
            children,
            current: None,
        }
    }

    /// Number of merged children: the fan-in every emitted entry is
    /// chosen from.
    pub fn num_children(&self) -> usize {
        self.children.len()
    }

    fn find_smallest(&mut self) {
        let mut best: Option<usize> = None;
        for (i, child) in self.children.iter().enumerate() {
            if !child.valid() {
                continue;
            }
            best = match best {
                None => Some(i),
                Some(b) => {
                    let bc = &self.children[b];
                    let ord = child
                        .user_key()
                        .cmp(bc.user_key())
                        .then(bc.ts().cmp(&child.ts()));
                    // Strictly-less wins; ties keep the earlier child.
                    if ord == std::cmp::Ordering::Less {
                        Some(i)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        self.current = best;
    }

    fn current_child(&self) -> &dyn InternalIterator {
        let i = self.current.expect("iterator must be valid");
        self.children[i].as_ref()
    }
}

impl InternalIterator for MergingIterator {
    fn valid(&self) -> bool {
        self.current.is_some()
    }

    fn seek_to_first(&mut self) {
        for child in &mut self.children {
            child.seek_to_first();
        }
        self.find_smallest();
    }

    fn seek(&mut self, user_key: &[u8], ts: u64) {
        for child in &mut self.children {
            child.seek(user_key, ts);
        }
        self.find_smallest();
    }

    fn next(&mut self) {
        let i = self.current.expect("next on invalid iterator");
        self.children[i].next();
        self.find_smallest();
    }

    fn user_key(&self) -> &[u8] {
        self.current_child().user_key()
    }

    fn ts(&self) -> u64 {
        self.current_child().ts()
    }

    fn kind(&self) -> ValueKind {
        self.current_child().kind()
    }

    fn value(&self) -> &[u8] {
        self.current_child().value()
    }

    fn status(&self) -> Result<()> {
        for child in &self.children {
            child.status()?;
        }
        Ok(())
    }
}

/// An iterator over an in-memory list of owned entries. Used in tests
/// and by the flush path to adapt collected entries.
#[derive(Debug, Default)]
pub struct VecIterator {
    /// `(user_key, ts, kind, value)` in internal order.
    entries: Vec<(Vec<u8>, u64, ValueKind, Vec<u8>)>,
    pos: usize,
    started: bool,
}

impl VecIterator {
    /// Builds an iterator; `entries` must already be internally sorted.
    pub fn new(entries: Vec<(Vec<u8>, u64, ValueKind, Vec<u8>)>) -> Self {
        debug_assert!(entries
            .windows(2)
            .all(|w| { w[0].0.cmp(&w[1].0).then(w[1].1.cmp(&w[0].1)).is_lt() }));
        VecIterator {
            entries,
            pos: 0,
            started: false,
        }
    }
}

impl InternalIterator for VecIterator {
    fn valid(&self) -> bool {
        self.started && self.pos < self.entries.len()
    }

    fn seek_to_first(&mut self) {
        self.started = true;
        self.pos = 0;
    }

    fn seek(&mut self, user_key: &[u8], ts: u64) {
        self.started = true;
        self.pos = self.entries.partition_point(|(k, t, _, _)| {
            k.as_slice().cmp(user_key).then(ts.cmp(t)) == std::cmp::Ordering::Less
        });
    }

    fn next(&mut self) {
        debug_assert!(self.valid());
        self.pos += 1;
    }

    fn user_key(&self) -> &[u8] {
        &self.entries[self.pos].0
    }

    fn ts(&self) -> u64 {
        self.entries[self.pos].1
    }

    fn kind(&self) -> ValueKind {
        self.entries[self.pos].2
    }

    fn value(&self) -> &[u8] {
        &self.entries[self.pos].3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(k: &str, ts: u64, v: &str) -> (Vec<u8>, u64, ValueKind, Vec<u8>) {
        (
            k.as_bytes().to_vec(),
            ts,
            ValueKind::Put,
            v.as_bytes().to_vec(),
        )
    }

    fn drain(it: &mut dyn InternalIterator) -> Vec<(Vec<u8>, u64)> {
        let mut out = Vec::new();
        while it.valid() {
            out.push((it.user_key().to_vec(), it.ts()));
            it.next();
        }
        out
    }

    #[test]
    fn vec_iterator_basics() {
        let mut it = VecIterator::new(vec![
            entry("a", 2, "x"),
            entry("a", 1, "y"),
            entry("b", 3, "z"),
        ]);
        assert!(!it.valid());
        it.seek_to_first();
        assert_eq!(
            drain(&mut it),
            vec![(b"a".to_vec(), 2), (b"a".to_vec(), 1), (b"b".to_vec(), 3)]
        );
        it.seek(b"a", 1);
        assert_eq!((it.user_key(), it.ts()), (&b"a"[..], 1));
        it.seek(b"a", 0);
        assert_eq!((it.user_key(), it.ts()), (&b"b"[..], 3));
        it.seek(b"c", u64::MAX);
        assert!(!it.valid());
    }

    #[test]
    fn merge_interleaves_in_order() {
        let a = VecIterator::new(vec![entry("a", 5, "1"), entry("c", 3, "2")]);
        let b = VecIterator::new(vec![
            entry("a", 7, "3"),
            entry("b", 1, "4"),
            entry("c", 9, "5"),
        ]);
        let mut m = MergingIterator::new(vec![Box::new(a), Box::new(b)]);
        m.seek_to_first();
        assert_eq!(
            drain(&mut m),
            vec![
                (b"a".to_vec(), 7),
                (b"a".to_vec(), 5),
                (b"b".to_vec(), 1),
                (b"c".to_vec(), 9),
                (b"c".to_vec(), 3),
            ]
        );
    }

    #[test]
    fn merge_with_empty_children() {
        let a = VecIterator::new(vec![]);
        let b = VecIterator::new(vec![entry("x", 1, "v")]);
        let c = VecIterator::new(vec![]);
        let mut m = MergingIterator::new(vec![Box::new(a), Box::new(b), Box::new(c)]);
        m.seek_to_first();
        assert_eq!(drain(&mut m), vec![(b"x".to_vec(), 1)]);
        m.seek_to_first();
        m.seek(b"y", u64::MAX);
        assert!(!m.valid());
    }

    #[test]
    fn merge_seek_lands_on_smallest_qualifying() {
        let a = VecIterator::new(vec![entry("k", 8, "old")]);
        let b = VecIterator::new(vec![entry("k", 4, "older")]);
        let mut m = MergingIterator::new(vec![Box::new(a), Box::new(b)]);
        m.seek(b"k", 6);
        assert_eq!((it_key(&m), m.ts()), (b"k".to_vec(), 4));
        m.seek(b"k", 9);
        assert_eq!((it_key(&m), m.ts()), (b"k".to_vec(), 8));
    }

    fn it_key(m: &MergingIterator) -> Vec<u8> {
        m.user_key().to_vec()
    }

    #[test]
    fn merge_duplicate_ties_prefer_earlier_child() {
        // Identical (key, ts) in two components: the newest component
        // (earlier child) must win.
        let a = VecIterator::new(vec![entry("k", 5, "new")]);
        let b = VecIterator::new(vec![entry("k", 5, "stale")]);
        let mut m = MergingIterator::new(vec![Box::new(a), Box::new(b)]);
        m.seek_to_first();
        assert_eq!(m.value(), b"new");
        m.next();
        assert_eq!(m.value(), b"stale");
        m.next();
        assert!(!m.valid());
    }
}
