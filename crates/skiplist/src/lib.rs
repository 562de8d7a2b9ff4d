//! Arena-backed lock-free multi-versioned skip list — the cLSM
//! in-memory component.
//!
//! Entries are `(key, timestamp, value)` triples ordered by key
//! ascending and timestamp *descending*, so the first entry for a key
//! is its newest version (§3.2: "the underlying map is sorted in
//! lexicographical order of the key-timestamp pair"). Values are either
//! user bytes or a deletion marker (the paper's ⊥).
//!
//! Concurrency properties required by the paper and provided here:
//!
//! - **Non-blocking, thread-safe insert and find** (§3.1): inserts link
//!   nodes bottom-up with CAS; finds are wait-free traversals.
//! - **Weakly consistent iterators** (§3.2): entries are never removed,
//!   so any entry present for the whole duration of a scan is returned
//!   by the scan.
//! - **RMW conflict detection** (§3.3, Algorithm 3):
//!   [`SkipList::insert_if_latest`] detects, at the linked-list level,
//!   whether a newer version of the key raced in between the caller's
//!   read and its insertion, using the predecessor/successor checks of
//!   Algorithm 3 lines 6, 8 and 12.
//!
//! Nodes and their keys/values live in a lock-free [`Arena`]; nothing
//! is freed until the whole list (i.e. the memory component) is
//! dropped after its merge into the disk component.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use clsm_util::arena::Arena;

mod node;
use node::Node;
pub(crate) use node::MAX_HEIGHT;

/// The kind of a stored entry: a user value or a deletion marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EntryKind {
    /// A live value.
    Put,
    /// A tombstone (the paper's ⊥ deletion marker).
    Delete,
}

/// A borrowed view of one `(key, ts, value)` entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry<'a> {
    /// User key.
    pub key: &'a [u8],
    /// Version timestamp (cLSM time, unique per write).
    pub ts: u64,
    /// `Some(bytes)` for a put, `None` for a deletion marker.
    pub value: Option<&'a [u8]>,
}

/// Error returned by [`SkipList::insert_if_latest`] when a conflicting
/// write to the same key was detected (Algorithm 3's "conflict").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conflict;

/// What [`SkipList::link_node`] verifies before each bottom-level CAS.
#[derive(Clone, Copy)]
enum LinkCheck {
    /// Unconditional (recovery replay, component merges): any timestamp
    /// order is legitimate.
    Plain,
    /// Fail if a newer version of the key is already linked
    /// ([`SkipList::insert_as_newest`]).
    Newest,
    /// Algorithm 3: fail unless the key's current latest version
    /// matches ([`SkipList::insert_if_latest`]).
    IfLatest(Option<u64>),
}

impl std::fmt::Display for Conflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "read-modify-write conflict: a newer version of the key exists"
        )
    }
}

impl std::error::Error for Conflict {}

/// A concurrent, insert-only, multi-versioned skip list.
///
/// # Examples
///
/// ```
/// use clsm_skiplist::SkipList;
///
/// let list = SkipList::new();
/// list.insert(b"k", 1, Some(b"v1"));
/// list.insert(b"k", 2, Some(b"v2"));
/// // Newest version at or below ts=2:
/// let (ts, v) = list.get_latest(b"k", 2).unwrap();
/// assert_eq!((ts, v), (2, Some(&b"v2"[..])));
/// // Snapshot read at ts=1 sees the older version:
/// let (ts, v) = list.get_latest(b"k", 1).unwrap();
/// assert_eq!((ts, v), (1, Some(&b"v1"[..])));
/// ```
pub struct SkipList {
    arena: Arena,
    head: *const Node,
    max_height: AtomicUsize,
    len: AtomicUsize,
    rng_state: AtomicU64,
}

// SAFETY: the raw `head` pointer refers into `arena`, which `SkipList`
// owns; all shared-state mutation goes through atomics. Concurrent
// inserts and reads are synchronized by the CAS/Acquire protocol in
// `link_node` / `find`.
unsafe impl Send for SkipList {}
// SAFETY: as above; `&SkipList` only exposes atomically synchronized
// operations.
unsafe impl Sync for SkipList {}

impl Default for SkipList {
    fn default() -> Self {
        Self::new()
    }
}

impl SkipList {
    /// Creates an empty list with the default arena chunk size.
    pub fn new() -> Self {
        Self::with_arena(Arena::new())
    }

    /// Creates an empty list over the given arena.
    pub(crate) fn with_arena(arena: Arena) -> Self {
        let head = Node::alloc_head(&arena);
        SkipList {
            arena,
            head,
            max_height: AtomicUsize::new(1),
            len: AtomicUsize::new(0),
            rng_state: AtomicU64::new(0x853c_49e6_748f_ea9b),
        }
    }

    /// Number of entries (versions, not distinct keys).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Returns `true` when no entries have been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes consumed by entries (arena accounting).
    pub fn memory_usage(&self) -> usize {
        self.arena.memory_usage()
    }

    /// Orders `node` relative to the search target `(key, ts)`:
    /// key ascending, timestamp descending.
    fn cmp_node(node: &Node, key: &[u8], ts: u64) -> std::cmp::Ordering {
        node.key().cmp(key).then(ts.cmp(&node.ts))
    }

    /// Finds, at every level, the rightmost node ordered before
    /// `(key, ts)` (`prev`) and its successor (`succ`). Returns the
    /// bottom-level successor: the first node `>= (key, ts)`.
    fn find(
        &self,
        key: &[u8],
        ts: u64,
        prev: &mut [*const Node; MAX_HEIGHT],
        succ: &mut [*const Node; MAX_HEIGHT],
    ) -> *const Node {
        let mut level = self.max_height.load(Ordering::Relaxed) - 1;
        // Levels above the current max trivially have head → null.
        for l in level + 1..MAX_HEIGHT {
            prev[l] = self.head;
            succ[l] = std::ptr::null();
        }
        let mut x = self.head;
        loop {
            // SAFETY: `x` is the head or a node reached via next
            // pointers; nodes are arena-allocated and never freed while
            // `&self` is alive.
            let next = unsafe { (*x).next(level) }.load(Ordering::Acquire);
            let advance = !next.is_null() && {
                // SAFETY: non-null next pointers reference live nodes.
                let n = unsafe { &*next };
                Self::cmp_node(n, key, ts) == std::cmp::Ordering::Less
            };
            if advance {
                x = next;
            } else {
                prev[level] = x;
                succ[level] = next;
                if level == 0 {
                    return next;
                }
                level -= 1;
            }
        }
    }

    /// Returns the first node `>= (key, ts)` without recording paths.
    fn find_ge(&self, key: &[u8], ts: u64) -> *const Node {
        let mut x = self.head;
        let mut level = self.max_height.load(Ordering::Relaxed) - 1;
        loop {
            // SAFETY: as in `find`.
            let next = unsafe { (*x).next(level) }.load(Ordering::Acquire);
            let advance = !next.is_null() && {
                // SAFETY: as in `find`.
                let n = unsafe { &*next };
                Self::cmp_node(n, key, ts) == std::cmp::Ordering::Less
            };
            if advance {
                x = next;
            } else if level == 0 {
                return next;
            } else {
                level -= 1;
            }
        }
    }

    /// Draws a random tower height with branching factor 4.
    fn random_height(&self) -> usize {
        // SplitMix64 over a wait-free fetch_add'd state: cheap,
        // contention-free, and well distributed.
        let mut z = self
            .rng_state
            .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let mut height = 1;
        while height < MAX_HEIGHT && z & 3 == 0 {
            height += 1;
            z >>= 2;
        }
        height
    }

    /// Inserts `(key, ts, value)`; `value = None` stores a tombstone.
    ///
    /// Timestamps must be unique per key (the cLSM oracle guarantees
    /// this globally); inserting a duplicate `(key, ts)` is a logic
    /// error and debug-asserts.
    pub fn insert(&self, key: &[u8], ts: u64, value: Option<&[u8]>) {
        let node = self.make_node(key, ts, value);
        self.link_node(node, key, ts, LinkCheck::Plain)
            .expect("plain insert cannot conflict");
    }

    /// Inserts `(key, ts, value)` **iff** no version of `key` newer
    /// than `ts` is already linked; otherwise inserts nothing and
    /// returns [`Conflict`].
    ///
    /// Writers that acquire their timestamp before inserting (put,
    /// delete) need this rather than [`SkipList::insert`]: a racing
    /// conditional writer may read the current latest version, obtain a
    /// *later* timestamp, and link before we do — a plain insert would
    /// then slide into the past below it, silently shadowed, and the
    /// conditional writer's observed "latest" would be wrong. On
    /// [`Conflict`] the caller re-stamps and retries; the conflicting
    /// writer has already made progress, so the retry is non-blocking
    /// in the lock-free sense.
    pub fn insert_as_newest(
        &self,
        key: &[u8],
        ts: u64,
        value: Option<&[u8]>,
    ) -> Result<(), Conflict> {
        let node = self.make_node(key, ts, value);
        // On Err the node is abandoned in the arena, as in
        // `insert_if_latest`.
        self.link_node(node, key, ts, LinkCheck::Newest)
    }

    /// Algorithm 3's conditional insert: installs `(key, ts, value)` as
    /// the new latest version of `key` **iff** the latest version
    /// currently in this list still matches `expected_latest`
    /// (`None` = the key has no version in this list).
    ///
    /// The caller must pass a `ts` greater than every timestamp it has
    /// observed for `key`. Benign CAS failures caused by unrelated keys
    /// are retried internally; a genuine conflicting write to `key`
    /// returns [`Conflict`] and inserts nothing.
    pub fn insert_if_latest(
        &self,
        key: &[u8],
        ts: u64,
        value: Option<&[u8]>,
        expected_latest: Option<u64>,
    ) -> Result<(), Conflict> {
        let node = self.make_node(key, ts, value);
        // On Err the node is abandoned in the arena: the paper's
        // algorithm similarly discards the speculative node; arena
        // memory is reclaimed when the component is merged.
        self.link_node(node, key, ts, LinkCheck::IfLatest(expected_latest))
    }

    /// Copies key and value into the arena and builds an unlinked node.
    fn make_node(&self, key: &[u8], ts: u64, value: Option<&[u8]>) -> *const Node {
        let height = self.random_height();
        let kind = if value.is_some() {
            EntryKind::Put
        } else {
            EntryKind::Delete
        };
        Node::alloc(&self.arena, key, ts, value.unwrap_or(&[]), kind, height)
    }

    /// Links `node` into the list, applying `check` before every
    /// bottom-level CAS attempt.
    fn link_node(
        &self,
        node: *const Node,
        key: &[u8],
        ts: u64,
        check: LinkCheck,
    ) -> Result<(), Conflict> {
        // SAFETY: `node` was just allocated by `make_node` and is not
        // yet visible to other threads.
        let height = unsafe { (*node).height as usize };

        // Keep the list's search height in sync (CAS-raise).
        let mut cur_max = self.max_height.load(Ordering::Relaxed);
        while height > cur_max {
            match self.max_height.compare_exchange_weak(
                cur_max,
                height,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(v) => cur_max = v,
            }
        }

        let mut prev = [std::ptr::null::<Node>(); MAX_HEIGHT];
        let mut succ = [std::ptr::null::<Node>(); MAX_HEIGHT];

        // Bottom-level link: only this CAS makes the node reachable, so
        // only it needs conflict detection (Algorithm 3 line 12).
        loop {
            self.find(key, ts, &mut prev, &mut succ);

            match check {
                LinkCheck::Plain => {
                    debug_assert!(
                        {
                            let s = succ[0];
                            // SAFETY: `succ[0]` is null or a live node.
                            s.is_null()
                                || unsafe { Self::cmp_node(&*s, key, ts) }
                                    != std::cmp::Ordering::Equal
                        },
                        "duplicate (key, ts) insertion"
                    );
                }
                LinkCheck::Newest => {
                    // Same-key versions sort newest-first, so a newer
                    // version exists iff the node just before our
                    // insertion point holds `key`. A newer version
                    // linked concurrently after this check shares our
                    // `prev[0]`, fails our bottom-level CAS, and is
                    // seen on the retry — the same argument that makes
                    // `check_conflict` sound.
                    if prev[0] != self.head {
                        // SAFETY: `prev[0]` is a live node (head
                        // excluded above).
                        let p = unsafe { &*prev[0] };
                        if p.key() == key {
                            debug_assert!(p.ts > ts);
                            return Err(Conflict);
                        }
                    }
                }
                LinkCheck::IfLatest(expected) => {
                    self.check_conflict(key, ts, prev[0], succ[0], expected)?;
                }
            }

            for (level, &s) in succ.iter().enumerate().take(height) {
                // SAFETY: `node` is still private to this thread.
                unsafe { (*node).next(level) }.store(s as *mut Node, Ordering::Relaxed);
            }
            // SAFETY: `prev[0]` is the head or a live node.
            let link = unsafe { (*prev[0]).next(0) };
            // Release publishes the node's contents and its tower.
            if link
                .compare_exchange(
                    succ[0] as *mut Node,
                    node as *mut Node,
                    Ordering::Release,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                break;
            }
        }

        // Upper-level links: pure performance, no conflict checks
        // needed (§3.3: "with no need for a new timestamp or conflict
        // detection").
        for level in 1..height {
            loop {
                // SAFETY: `prev[level]` is the head or a live node.
                let link = unsafe { (*prev[level]).next(level) };
                if link
                    .compare_exchange(
                        succ[level] as *mut Node,
                        node as *mut Node,
                        Ordering::Release,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    break;
                }
                // Path changed beneath us: recompute and refresh the
                // node's forward pointer at this level. Storing is safe
                // because the node is unreachable at `level` until the
                // CAS above succeeds.
                self.find(key, ts, &mut prev, &mut succ);
                // SAFETY: node is live; see the visibility argument
                // above.
                unsafe { (*node).next(level) }.store(succ[level] as *mut Node, Ordering::Relaxed);
            }
        }

        self.len.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Algorithm 3 lines 6 and 8: detect a conflicting newer version.
    fn check_conflict(
        &self,
        key: &[u8],
        ts: u64,
        prev: *const Node,
        succ: *const Node,
        expected: Option<u64>,
    ) -> Result<(), Conflict> {
        // Line 6 analogue: a node for `key` ordered *before* our
        // insertion point means a version with timestamp > ts raced in.
        if prev != self.head {
            // SAFETY: `prev` is a live node (head was excluded above).
            let p = unsafe { &*prev };
            if p.key() == key {
                debug_assert!(p.ts > ts);
                return Err(Conflict);
            }
        }
        // Line 8 analogue: the first node at-or-after our insertion
        // point holds `key`'s current latest version; it must match
        // what the caller read.
        let current_latest = if succ.is_null() {
            None
        } else {
            // SAFETY: non-null successor is a live node.
            let s = unsafe { &*succ };
            (s.key() == key).then_some(s.ts)
        };
        if current_latest != expected {
            return Err(Conflict);
        }
        Ok(())
    }

    /// Returns the newest version of `key` with timestamp `<= max_ts`,
    /// as `(ts, value)` where `value = None` marks a tombstone.
    pub fn get_latest(&self, key: &[u8], max_ts: u64) -> Option<(u64, Option<&[u8]>)> {
        let node = self.find_ge(key, max_ts);
        if node.is_null() {
            return None;
        }
        // SAFETY: `find_ge` returns null or a live node; the returned
        // slices are bounded by `&self`, which owns the arena.
        let n = unsafe { &*node };
        (n.key() == key).then(|| {
            // SAFETY: `value_slice` needs the node's arena to outlive the
            // slice; the return type ties the slice to `&self`, and the
            // list owns that arena.
            (n.ts, unsafe { n.value_slice() })
        })
    }

    /// Creates a cursor positioned before the first entry.
    pub fn cursor(&self) -> Cursor<'_> {
        Cursor {
            list: self,
            node: std::ptr::null(),
        }
    }

    /// Creates an iterator over all entries in order.
    pub fn iter(&self) -> Iter<'_> {
        let mut c = self.cursor();
        c.seek_to_first();
        Iter {
            cursor: c,
            first: true,
        }
    }

    /// Creates an owning cursor that keeps the list alive via `Arc`
    /// (used by cross-component merging iterators; the `Arc` refcount
    /// plays the role of the paper's per-component reference counter).
    pub fn owned_cursor(self: &Arc<Self>) -> OwnedCursor {
        OwnedCursor {
            list: Arc::clone(self),
            node: std::ptr::null(),
        }
    }

    fn first_node(&self) -> *const Node {
        // SAFETY: head is always valid.
        unsafe { (*self.head).next(0) }.load(Ordering::Acquire)
    }

    fn next_node(&self, node: *const Node) -> *const Node {
        // SAFETY: caller passes a live node obtained from this list.
        unsafe { (*node).next(0) }.load(Ordering::Acquire)
    }
}

impl std::fmt::Debug for SkipList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SkipList")
            .field("len", &self.len())
            .field("memory_usage", &self.memory_usage())
            .finish()
    }
}

/// A movable position within a [`SkipList`].
///
/// Iteration is weakly consistent: entries inserted during the scan may
/// or may not be observed, but entries present for the whole scan are
/// always observed, and order is always respected.
pub struct Cursor<'a> {
    list: &'a SkipList,
    node: *const Node,
}

impl<'a> Cursor<'a> {
    /// Returns `true` when positioned on an entry.
    pub fn valid(&self) -> bool {
        !self.node.is_null()
    }

    /// Positions on the first entry (or invalidates if empty).
    pub fn seek_to_first(&mut self) {
        self.node = self.list.first_node();
    }

    /// Positions on the first entry `>= (key, ts)` in list order.
    ///
    /// Use `ts = u64::MAX` to land on the newest version of `key`.
    pub fn seek(&mut self, key: &[u8], ts: u64) {
        self.node = self.list.find_ge(key, ts);
    }

    /// Advances to the next entry.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the cursor is invalid.
    pub fn advance(&mut self) {
        debug_assert!(self.valid());
        self.node = self.list.next_node(self.node);
    }

    /// The current entry's key.
    pub fn key(&self) -> &'a [u8] {
        debug_assert!(self.valid());
        // SAFETY: `valid()` implies `node` is a live node whose data
        // lives in the arena for at least `'a`.
        unsafe { (*self.node).key_slice() }
    }

    /// The current entry's timestamp.
    pub fn ts(&self) -> u64 {
        debug_assert!(self.valid());
        // SAFETY: as in `key`.
        unsafe { (*self.node).ts }
    }

    /// The current entry's value (`None` = tombstone).
    pub(crate) fn value(&self) -> Option<&'a [u8]> {
        debug_assert!(self.valid());
        // SAFETY: as in `key`.
        unsafe { (*self.node).value_slice() }
    }

    /// The current entry as an [`Entry`].
    pub(crate) fn entry(&self) -> Entry<'a> {
        Entry {
            key: self.key(),
            ts: self.ts(),
            value: self.value(),
        }
    }
}

/// Iterator adapter over a [`Cursor`].
pub struct Iter<'a> {
    cursor: Cursor<'a>,
    first: bool,
}

impl<'a> Iterator for Iter<'a> {
    type Item = Entry<'a>;

    fn next(&mut self) -> Option<Entry<'a>> {
        if self.first {
            self.first = false;
        } else if self.cursor.valid() {
            self.cursor.advance();
        }
        self.cursor.valid().then(|| self.cursor.entry())
    }
}

/// A cursor that owns a reference to its list, so it can outlive the
/// borrow scope (needed by the DB-level merging iterators, which hold
/// components via `Arc` — the paper's per-component reference counts).
pub struct OwnedCursor {
    list: Arc<SkipList>,
    node: *const Node,
}

// SAFETY: `node` points into the arena owned by `list`, which the Arc
// keeps alive; all list accesses are the same synchronized operations
// as through `Cursor`.
unsafe impl Send for OwnedCursor {}

impl OwnedCursor {
    /// Returns `true` when positioned on an entry.
    pub fn valid(&self) -> bool {
        !self.node.is_null()
    }

    /// Positions on the first entry.
    pub fn seek_to_first(&mut self) {
        self.node = self.list.first_node();
    }

    /// Positions on the first entry `>= (key, ts)`.
    pub fn seek(&mut self, key: &[u8], ts: u64) {
        self.node = self.list.find_ge(key, ts);
    }

    /// Advances to the next entry.
    pub fn advance(&mut self) {
        debug_assert!(self.valid());
        self.node = self.list.next_node(self.node);
    }

    /// The current entry's key.
    pub fn key(&self) -> &[u8] {
        debug_assert!(self.valid());
        // SAFETY: `valid()` implies a live node; data outlives `self`
        // because `self.list` keeps the arena alive.
        unsafe { (*self.node).key_slice() }
    }

    /// The current entry's timestamp.
    pub fn ts(&self) -> u64 {
        debug_assert!(self.valid());
        // SAFETY: as in `key`.
        unsafe { (*self.node).ts }
    }

    /// The current entry's value (`None` = tombstone).
    pub fn value(&self) -> Option<&[u8]> {
        debug_assert!(self.valid());
        // SAFETY: as in `key`.
        unsafe { (*self.node).value_slice() }
    }
}

#[cfg(test)]
mod tests;
