//! A counting allocator for the cost-budget tests. Each test binary
//! that declares `mod common;` installs it as its global allocator.
//! Not every binary uses every helper.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Counts allocations made by threads that opted in, each on its own
/// counter, so background threads and other tests do not disturb it;
/// and, while switched on, every thread's allocations on one
/// process-wide counter.
struct ThreadCountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

static COUNTING_ALL: AtomicBool = AtomicBool::new(false);
static ALL_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn note_allocation() {
    if COUNTING_ALL.load(Relaxed) {
        ALL_ALLOCATIONS.fetch_add(1, Relaxed);
    }
    // `try_with`: allocations during thread teardown find the slots gone.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: forwards every call unchanged to the system allocator; the
// bookkeeping touches only const-initialised thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: ThreadCountingAlloc = ThreadCountingAlloc;

/// Allocations the calling thread makes inside `f`.
pub fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

/// Allocations every thread in the process makes while `f` runs: for
/// work that hands part of itself to threads of its own. Hold
/// [`one_at_a_time`] around it, or the binary's other tests count too.
pub fn process_allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALL_ALLOCATIONS.store(0, Relaxed);
    COUNTING_ALL.store(true, Relaxed);
    let out = f();
    COUNTING_ALL.store(false, Relaxed);
    (out, ALL_ALLOCATIONS.load(Relaxed))
}

/// Serializes a binary's tests, for counters that are process-wide.
pub fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}
