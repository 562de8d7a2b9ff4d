//! Epoch-protected pointer cell for the global component pointers.
//!
//! The paper (§3.1) uses reference counters per component plus "an
//! RCU-like mechanism to protect the pointers to memory components from
//! being switched while an operation is in the middle of the (short)
//! critical section in which the pointer is read and its reference
//! counter is increased".
//!
//! [`RcuCell`] is that mechanism: readers pin an epoch (see
//! [`crate::epoch`]), dereference the current value and clone it (for
//! `Arc` payloads, the clone *is* the reference-count increment);
//! writers swap in a new value and defer destruction of the old one
//! until all readers have moved past it. Loads never block and never
//! take a lock, which is what makes cLSM's `get` entirely non-blocking.

use std::sync::atomic::{AtomicPtr, Ordering::SeqCst};

use crate::epoch;

/// A read-copy-update cell holding a cheaply cloneable value
/// (typically `Arc<T>` or `Option<Arc<T>>`).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use clsm_util::rcu::RcuCell;
///
/// let cell = RcuCell::new(Arc::new(1u32));
/// assert_eq!(*cell.load(), 1);
/// cell.store(Arc::new(2));
/// assert_eq!(*cell.load(), 2);
/// ```
pub struct RcuCell<V> {
    /// Always non-null: set in `new`, swapped (never nulled) in `store`
    /// and `update`, nulled only in `drop`.
    inner: AtomicPtr<V>,
}

impl<V: Clone + Send + Sync + 'static> RcuCell<V> {
    /// Creates a cell holding `value`.
    pub fn new(value: V) -> Self {
        RcuCell {
            inner: AtomicPtr::new(Box::into_raw(Box::new(value))),
        }
    }

    /// Returns a clone of the current value.
    ///
    /// Wait-free apart from the epoch pin; never blocks on writers.
    pub fn load(&self) -> V {
        let _guard = epoch::pin();
        let ptr = self.inner.load(SeqCst);
        // SAFETY: the cell is never null while the cell is alive, and
        // the pointee cannot be freed while `_guard` pins the epoch —
        // writers defer destruction past all pinned readers.
        unsafe { &*ptr }.clone()
    }

    /// Replaces the current value, deferring destruction of the old one
    /// until all in-flight readers have finished.
    pub fn store(&self, value: V) {
        let _guard = epoch::pin();
        let old = self.inner.swap(Box::into_raw(Box::new(value)), SeqCst);
        // SAFETY: `old` was just unlinked and can no longer be reached
        // by new readers; epoch reclamation waits out existing ones.
        let boxed = unsafe { Box::from_raw(old) };
        epoch::defer(move || drop(boxed));
    }
}

impl<V> Drop for RcuCell<V> {
    fn drop(&mut self) {
        let ptr = self.inner.swap(std::ptr::null_mut(), SeqCst);
        if !ptr.is_null() {
            // SAFETY: `&mut self` proves no concurrent readers exist, so
            // the current value can be reclaimed immediately.
            drop(unsafe { Box::from_raw(ptr) });
        }
    }
}

impl<V: Clone + Send + Sync + std::fmt::Debug + 'static> std::fmt::Debug for RcuCell<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("RcuCell").field(&self.load()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::Arc;

    #[test]
    fn load_store_roundtrip() {
        let cell = RcuCell::new(Arc::new(41u64));
        assert_eq!(*cell.load(), 41);
        cell.store(Arc::new(42));
        assert_eq!(*cell.load(), 42);
    }

    #[test]
    fn holds_option_payloads() {
        let cell: RcuCell<Option<Arc<String>>> = RcuCell::new(None);
        assert!(cell.load().is_none());
        cell.store(Some(Arc::new("x".to_string())));
        assert_eq!(cell.load().unwrap().as_str(), "x");
        cell.store(None);
        assert!(cell.load().is_none());
    }

    #[test]
    fn old_values_survive_while_held() {
        let cell = RcuCell::new(Arc::new(vec![1u8, 2, 3]));
        let held = cell.load();
        cell.store(Arc::new(vec![9]));
        // The old Arc keeps its data alive independently of the cell.
        assert_eq!(*held, vec![1, 2, 3]);
        assert_eq!(*cell.load(), vec![9]);
    }

    #[test]
    fn concurrent_readers_never_observe_teardown() {
        struct Canary(Arc<AtomicUsize>);
        impl Drop for Canary {
            fn drop(&mut self) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
        }

        let drops = Arc::new(AtomicUsize::new(0));
        let cell = Arc::new(RcuCell::new(Arc::new(Canary(Arc::clone(&drops)))));
        let stop = Arc::new(AtomicBool::new(false));

        let mut handles = Vec::new();
        for _ in 0..3 {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let v = cell.load();
                    // Touch the payload; UAF here would crash or trip MIRI.
                    let _ = Arc::strong_count(&v);
                }
            }));
        }
        for _ in 0..500 {
            cell.store(Arc::new(Canary(Arc::clone(&drops))));
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        drop(cell);
        // Not all drops may have been flushed by the epoch collector yet,
        // but none may exceed the number of stored values (500 + 1).
        assert!(drops.load(std::sync::atomic::Ordering::SeqCst) <= 501);
    }
}
