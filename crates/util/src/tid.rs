//! Cheap, dense per-thread indices for striped data structures.
//!
//! Two hot-path structures (the oracle's striped `Active` set and the
//! arena's byte counters) want to spread threads across independent
//! cache lines. `std::thread::ThreadId` is neither dense nor cheap to
//! hash, so this module hands every thread a small integer on first
//! use, assigned from a global counter. Indices are never reused, but consumers only ever take
//! them modulo a stripe count, so monotone growth is harmless.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Returns a small index unique to the calling thread, assigned on
/// first use. Stable for the thread's lifetime; never reused.
///
/// During thread destruction (when thread-local storage is already
/// gone) this falls back to 0 — acceptable for its consumers, which
/// only use the index to *pick* a stripe, never for exclusion.
///
/// # Examples
///
/// ```
/// let a = clsm_util::tid::thread_index();
/// assert_eq!(a, clsm_util::tid::thread_index());
/// ```
pub fn thread_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static INDEX: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    INDEX.try_with(|i| *i).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_stable_and_distinct() {
        let mine = thread_index();
        assert_eq!(mine, thread_index());
        let handles: Vec<_> = (0..4).map(|_| std::thread::spawn(thread_index)).collect();
        let mut seen: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        seen.push(mine);
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 5, "indices must be distinct across threads");
    }
}
