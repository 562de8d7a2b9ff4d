//! Lock-free bump allocator backing in-memory components.
//!
//! The paper implements "a non-blocking memory allocator" (§4, citing
//! Michael '04) for skip-list nodes. Ours is a chunked bump allocator
//! with **thread-local chunks**: each allocating thread bumps a plain
//! (non-atomic) offset into a chunk it alone fills, so the hot path
//! touches no shared cache line at all. Only the cold path that
//! installs a new chunk takes a mutex, and the byte accounting behind
//! [`Arena::memory_usage`] goes to cache-line-padded per-thread
//! stripes.
//!
//! # Thread-local chunk lifecycle
//!
//! A thread's cached chunk is keyed by the owning arena's globally
//! unique, never-reused id. When a memtable rotates and its arena is
//! dropped, stale cache entries for the dead arena are left behind but
//! can never be dereferenced again: a pointer is only used when its
//! entry's id matches the id of the arena the caller holds a live
//! reference to. This gives the reclaim-on-rotation safety of an epoch
//! scheme without any epoch bookkeeping on the allocation path.
//!
//! Allocations are never freed individually — the entire arena is
//! reclaimed when the owning component (memtable) is dropped after its
//! merge into the disk component, exactly matching the paper's component
//! lifecycle ("old versions ... exist at least until the component is
//! discarded following its merge into disk", §3.2.1).

use std::cell::RefCell;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

/// Default chunk size: 1 MiB of 8-byte words.
const DEFAULT_CHUNK_BYTES: usize = 1 << 20;

/// Stripes for the `allocated` byte accounting; padded so concurrent
/// writers on different threads never share a counter cache line.
const ALLOC_STRIPES: usize = 16;

/// Per-thread cache entries kept before evicting the oldest (a thread
/// usually touches one or two live arenas: `Pm` and, briefly, `P'm`).
const TL_CACHE_ENTRIES: usize = 4;

/// One allocation chunk; `data` is 8-byte aligned storage.
struct Chunk {
    data: Box<[u64]>,
    /// Next free byte offset within `data`. Only used on the shared
    /// fallback path; thread-private chunks track their offset in
    /// thread-local storage instead. May transiently exceed the
    /// capacity when concurrent allocations race past the end.
    pos: AtomicUsize,
}

impl Chunk {
    // Boxing is load-bearing: chunk pointers escape into thread-local
    // caches and `Arena::shared`, so chunks need stable heap addresses.
    #[allow(clippy::unnecessary_box_returns)]
    fn new(bytes: usize) -> Box<Chunk> {
        let words = bytes.div_ceil(8);
        Box::new(Chunk {
            data: vec![0u64; words].into_boxed_slice(),
            pos: AtomicUsize::new(0),
        })
    }

    fn capacity(&self) -> usize {
        self.data.len() * 8
    }

    fn base(&self) -> *mut u8 {
        self.data.as_ptr() as *mut u8
    }
}

/// A cache-line-padded byte counter (one `allocated` stripe).
#[repr(align(64))]
#[derive(Default)]
struct PaddedCounter(AtomicUsize);

/// One thread's bump cursor into a chunk of one arena.
struct TlChunk {
    /// Id of the arena the chunk belongs to (never-reused global id).
    arena_id: u64,
    base: *mut u8,
    /// Next free byte offset — plain, because the chunk is filled by
    /// this thread alone. (Readers of *allocated bytes* synchronize
    /// through the data structure built on top, e.g. skip-list links.)
    pos: usize,
    cap: usize,
}

thread_local! {
    /// This thread's chunk cursors, most recently used last.
    static TL_CHUNKS: RefCell<Vec<TlChunk>> = const { RefCell::new(Vec::new()) };
}

/// Source of never-reused arena ids.
static NEXT_ARENA_ID: AtomicU64 = AtomicU64::new(1);

/// A concurrent, grow-only bump allocator with thread-local chunks.
///
/// All returned pointers remain valid (and their contents stable unless
/// the caller mutates them) until the arena is dropped.
///
/// # Examples
///
/// ```
/// let arena = clsm_util::arena::Arena::new();
/// let s = arena.alloc_bytes(b"hello");
/// assert_eq!(s, b"hello");
/// ```
pub struct Arena {
    /// Globally unique, never reused; keys thread-local chunk caches.
    id: u64,
    /// Shared fallback chunk, for allocations made while thread-local
    /// storage is unavailable (thread teardown); points into `chunks`.
    shared: AtomicPtr<Chunk>,
    /// All chunks ever allocated; boxes give the chunks stable
    /// addresses even as the vector reallocates.
    #[allow(clippy::vec_box)]
    chunks: Mutex<Vec<Box<Chunk>>>,
    /// Total bytes handed out (for memtable size accounting), striped
    /// by thread so the hot path never contends on one counter line.
    allocated: Box<[PaddedCounter]>,
    chunk_bytes: usize,
}

impl Arena {
    /// Creates an arena with the default 1 MiB chunk size.
    pub fn new() -> Self {
        Self::with_chunk_size(DEFAULT_CHUNK_BYTES)
    }

    /// Creates an arena with a custom chunk size (rounded up to 8 bytes).
    pub(crate) fn with_chunk_size(chunk_bytes: usize) -> Self {
        let chunk_bytes = chunk_bytes.max(64);
        let first = Chunk::new(chunk_bytes);
        let ptr = &*first as *const Chunk as *mut Chunk;
        Arena {
            id: NEXT_ARENA_ID.fetch_add(1, Ordering::Relaxed),
            shared: AtomicPtr::new(ptr),
            chunks: Mutex::new(vec![first]),
            allocated: (0..ALLOC_STRIPES)
                .map(|_| PaddedCounter::default())
                .collect(),
            chunk_bytes,
        }
    }

    /// Allocates `size` bytes aligned to 8, returning a pointer valid for
    /// the arena's lifetime. The memory is zero-initialized.
    ///
    /// Never returns null; grows the arena as needed.
    pub fn alloc(&self, size: usize) -> *mut u8 {
        let aligned = size.div_ceil(8) * 8;
        self.charge(aligned);
        if aligned > self.chunk_bytes {
            // Oversized: a dedicated chunk, never cached.
            return self.install_chunk(aligned);
        }
        TL_CHUNKS
            .try_with(|cache| self.alloc_thread_local(&mut cache.borrow_mut(), aligned))
            .unwrap_or_else(|_| self.alloc_shared(aligned))
    }

    /// The contention-free hot path: bump this thread's private cursor.
    fn alloc_thread_local(&self, cache: &mut Vec<TlChunk>, aligned: usize) -> *mut u8 {
        if let Some(entry) = cache.iter_mut().find(|e| e.arena_id == self.id) {
            if entry.pos + aligned <= entry.cap {
                // SAFETY: `entry.base` points at a chunk of `entry.cap`
                // bytes that `self.chunks` owns (the entry's id is this
                // arena's, so the chunk lives as long as `self`), and
                // `entry.pos + aligned <= entry.cap` here, so the offset
                // stays within that allocation.
                let p = unsafe { entry.base.add(entry.pos) };
                entry.pos += aligned;
                return p;
            }
        }
        // Miss or full: carve a fresh private chunk (cold path, one
        // mutex acquisition per chunk_bytes of allocation per thread).
        let base = self.install_chunk(self.chunk_bytes);
        cache.retain(|e| e.arena_id != self.id);
        if cache.len() >= TL_CACHE_ENTRIES {
            // Evict the least recently installed entry. Entries for
            // dropped arenas die here too, eventually.
            cache.remove(0);
        }
        cache.push(TlChunk {
            arena_id: self.id,
            base,
            pos: aligned,
            cap: self.chunk_bytes,
        });
        base
    }

    /// Fallback used when thread-local storage is gone (thread
    /// teardown): the pre-striping shared-chunk path.
    fn alloc_shared(&self, aligned: usize) -> *mut u8 {
        loop {
            // SAFETY: `shared` always points at a chunk owned by
            // `self.chunks`, which only grows and is dropped with `self`.
            let chunk = unsafe { &*self.shared.load(Ordering::Acquire) };
            let offset = chunk.pos.fetch_add(aligned, Ordering::Relaxed);
            if offset + aligned <= chunk.capacity() {
                // SAFETY: `[offset, offset + aligned)` is in bounds and,
                // because the bump offset is claimed atomically, disjoint
                // from every other allocation.
                return unsafe { chunk.base().add(offset) };
            }
            self.grow_shared(aligned);
        }
    }

    /// Registers a new chunk of at least `bytes` and returns its base.
    /// The chunk is private to the caller: nothing else sees it.
    fn install_chunk(&self, bytes: usize) -> *mut u8 {
        let chunk = Chunk::new(bytes);
        let base = chunk.base();
        self.chunks.lock().push(chunk);
        base
    }

    /// Cold path of [`Arena::alloc_shared`]: installs a new shared
    /// chunk big enough for `size` bytes.
    fn grow_shared(&self, size: usize) {
        let mut chunks = self.chunks.lock();
        // Another thread may have already grown while we waited.
        // SAFETY: same invariant as in `alloc_shared`.
        let cur = unsafe { &*self.shared.load(Ordering::Acquire) };
        if cur.pos.load(Ordering::Relaxed) + size <= cur.capacity() {
            return;
        }
        let new = Chunk::new(self.chunk_bytes.max(size));
        let ptr = &*new as *const Chunk as *mut Chunk;
        chunks.push(new);
        self.shared.store(ptr, Ordering::Release);
    }

    /// Adds `bytes` to this thread's accounting stripe.
    fn charge(&self, bytes: usize) {
        let stripe = crate::tid::thread_index() % self.allocated.len();
        self.allocated[stripe].0.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Copies `data` into the arena and returns the stable copy.
    pub fn alloc_bytes(&self, data: &[u8]) -> &[u8] {
        if data.is_empty() {
            return &[];
        }
        let dst = self.alloc(data.len());
        // SAFETY: `dst` is a fresh, disjoint allocation of `data.len()`
        // bytes; the source and destination cannot overlap.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), dst, data.len());
            std::slice::from_raw_parts(dst, data.len())
        }
    }

    /// Approximate number of bytes handed out so far.
    pub fn memory_usage(&self) -> usize {
        self.allocated
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl Default for Arena {
    fn default() -> Self {
        Arena::new()
    }
}

impl std::fmt::Debug for Arena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arena")
            .field("id", &self.id)
            .field("allocated", &self.memory_usage())
            .field("chunks", &self.chunks.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn alloc_returns_aligned_zeroed_memory() {
        let arena = Arena::new();
        for size in [1usize, 7, 8, 9, 63, 64, 1024] {
            let p = arena.alloc(size);
            assert_eq!(p as usize % 8, 0, "size={size}");
            // SAFETY: freshly allocated `size` bytes, zeroed by the chunk.
            let s = unsafe { std::slice::from_raw_parts(p, size) };
            assert!(s.iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn alloc_bytes_roundtrips() {
        let arena = Arena::new();
        let a = arena.alloc_bytes(b"foo");
        let b = arena.alloc_bytes(b"barbaz");
        let empty = arena.alloc_bytes(b"");
        assert_eq!(a, b"foo");
        assert_eq!(b, b"barbaz");
        assert!(empty.is_empty());
    }

    #[test]
    fn grows_past_chunk_boundary() {
        let arena = Arena::with_chunk_size(128);
        let mut ptrs = Vec::new();
        for i in 0..100u8 {
            let data = vec![i; 40];
            ptrs.push((arena.alloc_bytes(&data), i));
        }
        for (slice, i) in ptrs {
            assert!(slice.iter().all(|&b| b == i));
        }
        assert!(arena.memory_usage() >= 100 * 40);
    }

    #[test]
    fn oversized_allocation_gets_dedicated_chunk() {
        let arena = Arena::with_chunk_size(64);
        let big = vec![0xabu8; 10_000];
        let copy = arena.alloc_bytes(&big);
        assert_eq!(copy, big.as_slice());
    }

    #[test]
    fn concurrent_allocations_are_disjoint() {
        let arena = Arc::new(Arena::with_chunk_size(4096));
        let mut handles = Vec::new();
        for t in 0..8u8 {
            let arena = Arc::clone(&arena);
            handles.push(std::thread::spawn(move || {
                let mut slices = Vec::new();
                for i in 0..500usize {
                    let val = t.wrapping_mul(31).wrapping_add(i as u8);
                    let data = vec![val; 1 + (i % 57)];
                    let s = arena.alloc_bytes(&data);
                    slices.push((s.as_ptr() as usize, s.len(), val));
                }
                slices
            }));
        }
        let mut all: Vec<(usize, usize, u8)> = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        // No two allocations overlap.
        all.sort_unstable();
        for w in all.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlap: {:?} {:?}", w[0], w[1]);
        }
        // And every allocation still holds its pattern.
        for (ptr, len, val) in all {
            // SAFETY: pointers were produced by `alloc_bytes` on an arena
            // that is still alive.
            let s = unsafe { std::slice::from_raw_parts(ptr as *const u8, len) };
            assert!(s.iter().all(|&b| b == val));
        }
    }

    #[test]
    fn one_thread_many_arenas_cache_rollover() {
        // More live arenas than the thread-local cache holds: every
        // allocation must still land correctly as entries churn.
        let arenas: Vec<Arena> = (0..TL_CACHE_ENTRIES + 3)
            .map(|_| Arena::with_chunk_size(256))
            .collect();
        for round in 0..50u8 {
            for (i, arena) in arenas.iter().enumerate() {
                let data = vec![round.wrapping_add(i as u8); 24];
                assert_eq!(arena.alloc_bytes(&data), data.as_slice());
            }
        }
        for arena in &arenas {
            assert!(arena.memory_usage() >= 50 * 24);
        }
    }

    #[test]
    fn dropped_arena_entries_never_resurrect() {
        // Interleave allocations with arena drops on one thread: new
        // arenas must never be served from a dead arena's cached chunk
        // (ids are never reused, so a hit implies a live chunk).
        let mut stable: Vec<(Arena, Vec<u8>)> = Vec::new();
        for i in 0..20u8 {
            let arena = Arena::with_chunk_size(512);
            let data = vec![i; 100];
            let slice = arena.alloc_bytes(&data).to_vec();
            assert_eq!(slice, data);
            if i % 3 == 0 {
                stable.push((arena, data));
            } // else: dropped here
        }
        for (arena, data) in &stable {
            // Old allocations still intact, and the arena still serves.
            assert_eq!(arena.alloc_bytes(data), data.as_slice());
        }
    }
}
