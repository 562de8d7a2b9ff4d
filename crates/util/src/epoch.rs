//! Homegrown epoch-based memory reclamation.
//!
//! Replaces `crossbeam-epoch` for the one pattern this workspace needs:
//! readers pin an epoch around a short critical section (load a shared
//! pointer, clone the `Arc` behind it), writers unlink a pointer and
//! `defer` its destruction until every reader that might still see it
//! has unpinned.
//!
//! Scheme: a global epoch counter, a registry of per-thread
//! participants, and a garbage list tagged with retirement epochs.
//! Pinning publishes the observed global epoch with a `SeqCst` store
//! followed by a `SeqCst` fence (the fence orders the publication
//! before the critical section's pointer loads — the classic
//! store→load hazard). The epoch advances only when every pinned
//! participant has caught up to the current epoch, and garbage retired
//! at epoch `e` is freed once the global epoch reaches `e + 2`, at
//! which point no participant pinned at `e` (or earlier) can remain.
//!
//! Pinning is lock-free: registration takes a mutex once per thread,
//! after which `pin` touches only the thread's own slot. Collection
//! runs on the *deferral* (writer) side, keeping readers undisturbed.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex, OnceLock};

/// Slot value meaning "this participant is not in a critical section".
const NOT_PINNED: u64 = u64::MAX;

/// How much garbage accumulates before a deferral triggers collection.
const COLLECT_THRESHOLD: usize = 32;

/// One registered thread's published epoch.
struct Slot {
    /// Epoch the thread is pinned at, or [`NOT_PINNED`].
    epoch: AtomicU64,
    /// Set when the owning thread exits; the sweeper unregisters it.
    retired: AtomicBool,
}

type Garbage = Box<dyn FnOnce() + Send>;

struct Global {
    epoch: AtomicU64,
    slots: Mutex<Vec<Arc<Slot>>>,
    garbage: Mutex<Vec<(u64, Garbage)>>,
}

fn global() -> &'static Global {
    static GLOBAL: OnceLock<Global> = OnceLock::new();
    GLOBAL.get_or_init(|| Global {
        epoch: AtomicU64::new(0),
        slots: Mutex::new(Vec::new()),
        garbage: Mutex::new(Vec::new()),
    })
}

/// Per-thread participant handle, registered on first pin.
struct Handle {
    slot: Arc<Slot>,
    /// Pin nesting depth; only the outermost pin/unpin publishes.
    depth: Cell<usize>,
}

impl Drop for Handle {
    fn drop(&mut self) {
        self.slot.epoch.store(NOT_PINNED, SeqCst);
        self.slot.retired.store(true, SeqCst);
    }
}

thread_local! {
    static HANDLE: Handle = {
        let slot = Arc::new(Slot {
            epoch: AtomicU64::new(NOT_PINNED),
            retired: AtomicBool::new(false),
        });
        global()
            .slots
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(Arc::clone(&slot));
        Handle { slot, depth: Cell::new(0) }
    };
}

/// Keeps the calling thread pinned while alive. `!Send`: must drop on
/// the thread that pinned.
pub(crate) struct Guard {
    _not_send: PhantomData<*mut ()>,
}

/// Pins the current thread, blocking epoch advance past its published
/// epoch until the returned [`Guard`] drops. Reentrant; lock-free after
/// the thread's first call.
pub(crate) fn pin() -> Guard {
    HANDLE.with(|h| {
        if h.depth.get() == 0 {
            let e = global().epoch.load(SeqCst);
            h.slot.epoch.store(e, SeqCst);
            // Order the publication before any pointer load inside the
            // critical section; without this a reclaimer could miss us.
            fence(SeqCst);
        }
        h.depth.set(h.depth.get() + 1);
    });
    Guard {
        _not_send: PhantomData,
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        // try_with: a Guard may legally drop during thread teardown
        // after the TLS handle is gone (the handle's own Drop already
        // unpinned the slot).
        let _ = HANDLE.try_with(|h| {
            let d = h.depth.get() - 1;
            h.depth.set(d);
            if d == 0 {
                h.slot.epoch.store(NOT_PINNED, SeqCst);
            }
        });
    }
}

/// Defers `f` (typically a destructor) until every thread pinned at the
/// current epoch has unpinned. May run earlier deferrals inline.
pub(crate) fn defer(f: impl FnOnce() + Send + 'static) {
    let g = global();
    let e = g.epoch.load(SeqCst);
    let run_collect = {
        let mut garbage = g
            .garbage
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        garbage.push((e, Box::new(f)));
        garbage.len() >= COLLECT_THRESHOLD
    };
    if run_collect {
        collect();
    }
}

/// Tries to advance the epoch and frees all garbage that is provably
/// unreachable. Called automatically from [`defer`]; exposed for tests
/// and shutdown paths that want reclamation flushed promptly.
pub(crate) fn collect() {
    let g = global();
    {
        let mut slots = g
            .slots
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        slots.retain(|s| !s.retired.load(SeqCst));
        let cur = g.epoch.load(SeqCst);
        let all_caught_up = slots.iter().all(|s| {
            let e = s.epoch.load(SeqCst);
            e == NOT_PINNED || e == cur
        });
        if all_caught_up {
            g.epoch.store(cur + 1, SeqCst);
        }
    }
    let cur = g.epoch.load(SeqCst);
    let freed: Vec<Garbage> = {
        let mut garbage = g
            .garbage
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut freed = Vec::new();
        garbage.retain_mut(|(e, f)| {
            if *e + 2 <= cur {
                // Replace with a no-op so retain can move the real
                // closure out.
                freed.push(std::mem::replace(f, Box::new(|| ())));
                false
            } else {
                true
            }
        });
        freed
    };
    // Run destructors outside the garbage lock: they may defer more.
    for f in freed {
        f();
    }
}

/// Collects until every deferral made before this call has run (or is
/// running on another collecting thread). Must not be called while
/// pinned: the epoch could never advance past the caller.
pub fn synchronize() {
    let done = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&done);
    defer(move || flag.store(true, SeqCst));
    while !done.load(SeqCst) {
        collect();
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn pin_is_reentrant() {
        let a = pin();
        let b = pin();
        drop(a);
        drop(b);
    }

    /// Collects until `done` holds; other tests' transient pins can
    /// block any single advance, so retry.
    fn collect_until(done: impl Fn() -> bool) {
        for _ in 0..10_000 {
            if done() {
                return;
            }
            collect();
            std::thread::yield_now();
        }
        panic!("reclamation never converged");
    }

    #[test]
    fn deferred_work_eventually_runs() {
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 * COLLECT_THRESHOLD {
            let hits = Arc::clone(&hits);
            defer(move || {
                hits.fetch_add(1, SeqCst);
            });
        }
        let hits2 = Arc::clone(&hits);
        collect_until(move || hits2.load(SeqCst) > 0);
    }

    #[test]
    fn pinned_reader_blocks_reclamation() {
        let freed = Arc::new(AtomicUsize::new(0));
        let guard = pin();
        let pinned_at = global().epoch.load(SeqCst);
        {
            let freed = Arc::clone(&freed);
            defer(move || {
                freed.fetch_add(1, SeqCst);
            });
        }
        // While pinned, the epoch cannot advance two steps past us, so
        // our deferral must stay queued.
        collect();
        collect();
        assert!(global().epoch.load(SeqCst) <= pinned_at + 1);
        assert_eq!(freed.load(SeqCst), 0);
        drop(guard);
        let freed2 = Arc::clone(&freed);
        collect_until(move || freed2.load(SeqCst) == 1);
    }

    #[test]
    fn synchronize_runs_every_earlier_deferral() {
        let freed = Arc::new(AtomicUsize::new(0));
        for _ in 0..3 {
            let freed = Arc::clone(&freed);
            defer(move || {
                freed.fetch_add(1, SeqCst);
            });
        }
        synchronize();
        assert_eq!(freed.load(SeqCst), 3);
    }

    #[test]
    fn exiting_threads_unregister() {
        std::thread::spawn(|| {
            let _g = pin();
        })
        .join()
        .unwrap();
        // The exited thread must not block advance forever.
        let before = global().epoch.load(SeqCst);
        collect_until(|| global().epoch.load(SeqCst) > before);
    }
}
