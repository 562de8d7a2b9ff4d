//! Writer-preferring shared-exclusive spin lock (Algorithm 1's `Lock`).
//!
//! The cLSM algorithm synchronizes `put` operations with the merge
//! process through a shared-exclusive lock: puts hold it in shared mode
//! for the duration of a memtable insert, while the `beforeMerge` /
//! `afterMerge` hooks take it in exclusive mode for a few pointer
//! swings. The paper requires that "the lock implementation should
//! prefer exclusive locking over shared locking" so the merge process
//! cannot starve (§3.1).
//!
//! This implementation packs everything into one atomic word:
//! bit 63 is the exclusive-intent flag, bits 0..63 count shared holders.
//! A shared acquire spins while the intent flag is set (so a waiting
//! exclusive locker blocks *new* readers); an exclusive acquire claims
//! the flag and then drains existing readers.

use std::sync::atomic::{AtomicU64, Ordering};

/// Exclusive-intent flag in the high bit of the state word.
const EXCL: u64 = 1 << 63;
/// Mask of the shared-holder count.
const COUNT: u64 = EXCL - 1;

/// Spin iterations before yielding to the OS scheduler.
const SPINS_BEFORE_YIELD: u32 = 64;

/// A writer-preferring shared-exclusive lock.
///
/// # Examples
///
/// ```
/// use clsm_util::shared_lock::SharedExclusiveLock;
///
/// let lock = SharedExclusiveLock::new();
/// {
///     let _a = lock.lock_shared();
///     let _b = lock.lock_shared(); // shared mode is reentrant across holders
/// }
/// let _x = lock.lock_exclusive();
/// ```
#[derive(Debug, Default)]
pub struct SharedExclusiveLock {
    state: AtomicU64,
    /// [`now_ns`](crate::clock::now_ns) nanoseconds at which the current exclusive hold
    /// began, or 0 while not exclusively held. Read when a hold ends, to
    /// report a long one, and on demand by diagnostics; written only by
    /// exclusive lockers, so two relaxed stores per (rare) exclusive
    /// acquisition.
    excl_since_ns: AtomicU64,
}

/// RAII guard for shared mode; releases on drop.
#[must_use = "the lock is released when the guard is dropped"]
#[derive(Debug)]
pub struct SharedGuard<'a> {
    lock: &'a SharedExclusiveLock,
}

/// RAII guard for exclusive mode; releases on drop.
#[must_use = "the lock is released when the guard is dropped"]
#[derive(Debug)]
pub struct ExclusiveGuard<'a> {
    lock: &'a SharedExclusiveLock,
}

impl SharedExclusiveLock {
    /// Creates an unlocked lock.
    pub const fn new() -> Self {
        SharedExclusiveLock {
            state: AtomicU64::new(0),
            excl_since_ns: AtomicU64::new(0),
        }
    }

    /// Acquires the lock in shared mode, spinning while an exclusive
    /// locker holds or awaits the lock.
    pub fn lock_shared(&self) -> SharedGuard<'_> {
        let mut spins = 0u32;
        loop {
            let cur = self.state.load(Ordering::Relaxed);
            if cur & EXCL == 0 {
                // No exclusive intent: try to join the readers.
                if self
                    .state
                    .compare_exchange_weak(cur, cur + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    return SharedGuard { lock: self };
                }
            }
            backoff(&mut spins);
        }
    }

    /// Acquires the lock in exclusive mode.
    ///
    /// Sets the intent flag first — immediately blocking new shared
    /// acquisitions — and then waits for current readers to drain, which
    /// is what gives exclusive lockers preference.
    pub fn lock_exclusive(&self) -> ExclusiveGuard<'_> {
        let mut spins = 0u32;
        // Claim the intent flag; contend with other exclusive lockers.
        loop {
            let prev = self.state.fetch_or(EXCL, Ordering::Acquire);
            if prev & EXCL == 0 {
                break;
            }
            while self.state.load(Ordering::Relaxed) & EXCL != 0 {
                backoff(&mut spins);
            }
        }
        // Drain existing shared holders.
        while self.state.load(Ordering::Acquire) & COUNT != 0 {
            backoff(&mut spins);
        }
        self.excl_since_ns
            .store(crate::clock::now_ns(), Ordering::Relaxed);
        ExclusiveGuard { lock: self }
    }

    /// How long the current exclusive hold has lasted, or `None` when
    /// the lock is not exclusively held. Racy by design: a concurrent
    /// release may make the result momentarily stale, which is fine for
    /// its consumer (a diagnostic report of a hold still in progress).
    pub fn exclusive_held_for(&self) -> Option<std::time::Duration> {
        self.exclusive_held_since_ns().map(|since| {
            std::time::Duration::from_nanos(crate::clock::now_ns().saturating_sub(since))
        })
    }

    /// [`now_ns`](crate::clock::now_ns) nanoseconds at which the current exclusive hold
    /// began, or `None` when not exclusively held. The value is stable
    /// for the duration of one hold, so its holder can read it just
    /// before releasing to learn how long the hold lasted.
    pub fn exclusive_held_since_ns(&self) -> Option<u64> {
        match self.excl_since_ns.load(Ordering::Relaxed) {
            0 => None,
            since => Some(since),
        }
    }
}

/// Spin/yield backoff suitable for both many-core and single-core hosts.
#[inline]
fn backoff(spins: &mut u32) {
    if *spins < SPINS_BEFORE_YIELD {
        *spins += 1;
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

impl Drop for SharedGuard<'_> {
    fn drop(&mut self) {
        self.lock.state.fetch_sub(1, Ordering::Release);
    }
}

impl Drop for ExclusiveGuard<'_> {
    fn drop(&mut self) {
        self.lock.excl_since_ns.store(0, Ordering::Relaxed);
        self.lock.state.fetch_and(!EXCL, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn shared_is_concurrent() {
        let lock = SharedExclusiveLock::new();
        let a = lock.lock_shared();
        let b = lock.lock_shared();
        assert_eq!(lock.state.load(Ordering::Relaxed), 2);
        drop(a);
        drop(b);
        assert_eq!(lock.state.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn exclusive_excludes_everything() {
        let lock = Arc::new(SharedExclusiveLock::new());
        let counter = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    let _g = lock.lock_exclusive();
                    // Non-atomic-style increment: load then store. Any
                    // mutual-exclusion failure loses increments.
                    let v = counter.load(Ordering::Relaxed);
                    std::hint::spin_loop();
                    counter.store(v + 1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 4000);
    }

    #[test]
    fn readers_and_writer_interleave_safely() {
        let lock = Arc::new(SharedExclusiveLock::new());
        let shared_value = Arc::new(AtomicU32::new(0));
        let stop = Arc::new(AtomicU32::new(0));

        let mut handles = Vec::new();
        for _ in 0..3 {
            let lock = Arc::clone(&lock);
            let value = Arc::clone(&shared_value);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                while stop.load(Ordering::Relaxed) == 0 {
                    let _g = lock.lock_shared();
                    // Writers always keep the value even; readers must
                    // never observe an odd value.
                    assert_eq!(value.load(Ordering::Relaxed) % 2, 0);
                }
            }));
        }
        {
            let lock = Arc::clone(&lock);
            let value = Arc::clone(&shared_value);
            handles.push(std::thread::spawn(move || {
                for _ in 0..2000 {
                    let _g = lock.lock_exclusive();
                    value.fetch_add(1, Ordering::Relaxed);
                    value.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        std::thread::sleep(Duration::from_millis(50));
        stop.store(1, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared_value.load(Ordering::Relaxed), 4000);
    }

    #[test]
    fn exclusive_hold_duration_is_tracked() {
        let lock = SharedExclusiveLock::new();
        assert!(lock.exclusive_held_for().is_none());
        {
            let _g = lock.lock_exclusive();
            std::thread::sleep(Duration::from_millis(5));
            let held = lock.exclusive_held_for().expect("exclusively held");
            assert!(held >= Duration::from_millis(4));
        }
        assert!(lock.exclusive_held_for().is_none());
        // Shared holds are not exclusive holds.
        let _s = lock.lock_shared();
        assert!(lock.exclusive_held_for().is_none());
    }

    #[test]
    fn writer_preference_blocks_new_readers() {
        // With a reader inside, a waiting writer must gate the next
        // reader: it sets the intent flag before the reader leaves.
        let lock = Arc::new(SharedExclusiveLock::new());
        let g = lock.lock_shared();
        let l2 = Arc::clone(&lock);
        let writer = std::thread::spawn(move || {
            let _g = l2.lock_exclusive();
        });
        // Wait until the writer has registered intent.
        while lock.state.load(Ordering::Relaxed) & EXCL == 0 {
            std::thread::yield_now();
        }
        drop(g);
        writer.join().unwrap();
        assert_eq!(lock.state.load(Ordering::Relaxed), 0);
    }
}
