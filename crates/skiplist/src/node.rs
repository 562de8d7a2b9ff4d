//! Skip-list node layout over the arena.
//!
//! A node is a fixed header followed by a variable-height "tower" of
//! forward pointers, allocated in one arena block. Keys and values are
//! separate arena allocations referenced by pointer, so nodes stay
//! compact and the header layout is independent of key size.

use std::sync::atomic::AtomicPtr;

use clsm_util::arena::Arena;

use crate::EntryKind;

/// Maximum tower height. With branching factor 4 this comfortably
/// supports tens of millions of entries (LevelDB uses 12 as well).
pub(crate) const MAX_HEIGHT: usize = 12;

/// Node header; the tower of `height` forward pointers follows
/// immediately in memory.
#[repr(C)]
pub(crate) struct Node {
    /// Version timestamp.
    pub(crate) ts: u64,
    key_ptr: *const u8,
    value_ptr: *const u8,
    key_len: u32,
    value_len: u32,
    kind: u8,
    /// Tower height; `next(level)` is valid for `level < height`.
    pub(crate) height: u8,
    _pad: [u8; 6],
}

impl Node {
    /// Allocates and initializes a node in `arena`, copying `key` and
    /// `value` in. Returns a pointer valid for the arena's lifetime.
    pub(crate) fn alloc(
        arena: &Arena,
        key: &[u8],
        ts: u64,
        value: &[u8],
        kind: EntryKind,
        height: usize,
    ) -> *const Node {
        debug_assert!((1..=MAX_HEIGHT).contains(&height));
        let size = std::mem::size_of::<Node>() + height * std::mem::size_of::<AtomicPtr<Node>>();
        let mem = arena.alloc(size) as *mut Node;
        let key_copy = arena.alloc_bytes(key);
        let value_copy = arena.alloc_bytes(value);
        // SAFETY: `mem` is a fresh, 8-aligned allocation of at least
        // `size` bytes, exclusively owned by this thread until the node
        // is published by a CAS in the list.
        unsafe {
            mem.write(Node {
                ts,
                key_ptr: key_copy.as_ptr(),
                value_ptr: value_copy.as_ptr(),
                key_len: key.len() as u32,
                value_len: value.len() as u32,
                kind: kind as u8,
                height: height as u8,
                _pad: [0; 6],
            });
            // The arena zero-initializes memory, which is a valid null
            // AtomicPtr representation, but write the tower explicitly
            // for clarity and independence from the arena contract.
            let tower = mem.add(1) as *mut AtomicPtr<Node>;
            for level in 0..height {
                tower.add(level).write(AtomicPtr::new(std::ptr::null_mut()));
            }
        }
        mem
    }

    /// Allocates the sentinel head node (full height, empty key).
    pub(crate) fn alloc_head(arena: &Arena) -> *const Node {
        Node::alloc(arena, &[], 0, &[], EntryKind::Put, MAX_HEIGHT)
    }

    /// The forward pointer at `level`.
    pub(crate) fn next(&self, level: usize) -> &AtomicPtr<Node> {
        debug_assert!(level < self.height as usize);
        // SAFETY: `alloc` reserved `height` AtomicPtr slots directly
        // after the header, and `level < height` was asserted.
        unsafe {
            let tower = (self as *const Node).add(1) as *const AtomicPtr<Node>;
            &*tower.add(level)
        }
    }

    /// The node's key, borrowed for the lifetime of `&self`.
    pub(crate) fn key(&self) -> &[u8] {
        // SAFETY: `key_ptr`/`key_len` were produced by `alloc_bytes` on
        // the owning arena, which outlives every node reference.
        unsafe { std::slice::from_raw_parts(self.key_ptr, self.key_len as usize) }
    }

    /// The node's key with a caller-chosen lifetime.
    ///
    /// # Safety
    ///
    /// The caller must ensure the arena that owns the node outlives
    /// `'any` (e.g. via the `SkipList` borrow or an `Arc` to it).
    pub(crate) unsafe fn key_slice<'any>(&self) -> &'any [u8] {
        // SAFETY: contract delegated to the caller; the pointed-to data
        // is valid as long as the arena lives.
        unsafe { std::slice::from_raw_parts(self.key_ptr, self.key_len as usize) }
    }

    /// The node's value (`None` = tombstone) with a caller-chosen
    /// lifetime.
    ///
    /// # Safety
    ///
    /// Same contract as [`Node::key_slice`].
    pub(crate) unsafe fn value_slice<'any>(&self) -> Option<&'any [u8]> {
        if self.kind == EntryKind::Delete as u8 {
            return None;
        }
        // SAFETY: as in `key_slice`.
        Some(unsafe { std::slice::from_raw_parts(self.value_ptr, self.value_len as usize) })
    }

    /// The node's value bounded by `&self` (`None` = tombstone).
    #[cfg(test)]
    pub(crate) fn value(&self) -> Option<&[u8]> {
        // SAFETY: bounded by `&self`, which the arena outlives.
        unsafe { self.value_slice() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_is_compact_and_aligned() {
        assert_eq!(std::mem::size_of::<Node>() % 8, 0);
        assert!(std::mem::align_of::<Node>() <= 8);
    }

    #[test]
    fn alloc_roundtrips_fields() {
        let arena = Arena::new();
        let n = Node::alloc(&arena, b"key", 42, b"value", EntryKind::Put, 3);
        // SAFETY: freshly allocated node, arena alive.
        let n = unsafe { &*n };
        assert_eq!(n.key(), b"key");
        assert_eq!(n.ts, 42);
        assert_eq!(n.value(), Some(&b"value"[..]));
        assert_eq!(n.height, 3);
        for level in 0..3 {
            assert!(n
                .next(level)
                .load(std::sync::atomic::Ordering::Relaxed)
                .is_null());
        }
    }

    #[test]
    fn tombstone_has_no_value() {
        let arena = Arena::new();
        let n = Node::alloc(&arena, b"k", 7, &[], EntryKind::Delete, 1);
        // SAFETY: as above.
        let n = unsafe { &*n };
        assert_eq!(n.value(), None);
        assert_eq!(n.key(), b"k");
    }

    #[test]
    fn empty_key_and_value_are_fine() {
        let arena = Arena::new();
        let n = Node::alloc(&arena, &[], 1, &[], EntryKind::Put, MAX_HEIGHT);
        // SAFETY: as above.
        let n = unsafe { &*n };
        assert!(n.key().is_empty());
        assert_eq!(n.value(), Some(&[][..]));
    }
}
