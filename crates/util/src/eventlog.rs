//! Per-thread buffered event logs with a shared logical clock.
//!
//! The correctness checker (`clsm-check`) records an invoke/response
//! event pair around every store operation. The recorder must not
//! perturb the interleavings it observes, so the hot path is a plain
//! `Vec::push` into a buffer owned by the recording thread — no locks,
//! no shared cache lines beyond the tick counter. Buffers drain into
//! the shared log when a handle is dropped (or flushed explicitly),
//! which is outside the measured window.
//!
//! The logical clock is one `fetch_add(1)` counter. Ticks are totally
//! ordered and consistent with real time: if operation A's response
//! tick is smaller than operation B's invoke tick, A really did
//! complete before B began — exactly the precedence relation a
//! linearizability checker needs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// A shared event log: one logical clock plus the buffers every
/// [`EventLogHandle`] has flushed so far.
#[derive(Debug)]
pub struct EventLog<T> {
    ticks: AtomicU64,
    collected: Mutex<Vec<Vec<T>>>,
}

impl<T> Default for EventLog<T> {
    fn default() -> Self {
        EventLog::new()
    }
}

impl<T> EventLog<T> {
    /// Creates an empty log with the clock at zero.
    pub fn new() -> EventLog<T> {
        EventLog {
            ticks: AtomicU64::new(0),
            collected: Mutex::new(Vec::new()),
        }
    }

    /// Advances the logical clock and returns the new tick (> 0).
    pub(crate) fn tick(&self) -> u64 {
        self.ticks.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// The current clock value without advancing it.
    pub fn now(&self) -> u64 {
        self.ticks.load(Ordering::Acquire)
    }

    /// Creates a per-thread recording handle.
    pub fn handle(self: &Arc<Self>) -> EventLogHandle<T> {
        EventLogHandle {
            log: Arc::clone(self),
            buf: Vec::new(),
        }
    }

    /// Removes and returns every flushed event. Events recorded through
    /// handles that have not yet flushed are not included — drop (or
    /// flush) all handles first.
    pub fn drain(&self) -> Vec<T> {
        let mut bufs = std::mem::take(&mut *self.collected.lock());
        let total = bufs.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for buf in &mut bufs {
            out.append(buf);
        }
        out
    }

    fn absorb(&self, buf: Vec<T>) {
        if !buf.is_empty() {
            self.collected.lock().push(buf);
        }
    }
}

/// A single-thread buffer feeding an [`EventLog`].
///
/// Not `Sync` by design: each worker thread records into its own
/// handle, so pushes never contend. The buffer flushes into the shared
/// log on drop.
#[derive(Debug)]
pub struct EventLogHandle<T> {
    log: Arc<EventLog<T>>,
    buf: Vec<T>,
}

impl<T> EventLogHandle<T> {
    /// Advances the shared logical clock (see `EventLog::tick`).
    pub fn tick(&self) -> u64 {
        self.log.tick()
    }

    /// Appends one event to the thread-local buffer.
    pub fn push(&mut self, event: T) {
        self.buf.push(event);
    }

    /// Number of events buffered locally (not yet flushed).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Moves the buffered events into the shared log early.
    pub(crate) fn flush(&mut self) {
        self.log.absorb(std::mem::take(&mut self.buf));
    }
}

impl<T> Drop for EventLogHandle<T> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_unique_and_monotone_across_threads() {
        let log: Arc<EventLog<u64>> = Arc::new(EventLog::new());
        let mut joins = Vec::new();
        for _ in 0..8 {
            let log = Arc::clone(&log);
            joins.push(std::thread::spawn(move || {
                let mut handle = log.handle();
                for _ in 0..1000 {
                    let t = handle.tick();
                    handle.push(t);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let mut ticks = log.drain();
        assert_eq!(ticks.len(), 8000);
        ticks.sort_unstable();
        ticks.dedup();
        assert_eq!(ticks.len(), 8000, "duplicate ticks");
        assert_eq!(*ticks.last().unwrap(), 8000);
    }

    #[test]
    fn drain_misses_unflushed_then_sees_flushed() {
        let log: Arc<EventLog<u32>> = Arc::new(EventLog::new());
        let mut h = log.handle();
        h.push(1);
        assert_eq!(h.buffered(), 1);
        assert!(log.drain().is_empty());
        h.flush();
        assert_eq!(log.drain(), vec![1]);
        h.push(2);
        drop(h);
        assert_eq!(log.drain(), vec![2]);
    }
}
