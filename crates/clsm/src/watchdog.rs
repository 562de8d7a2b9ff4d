//! Stall reporting: the write-path pathologies the paper's evaluation
//! warns about, surfaced as structured events by the code that causes
//! or ends them.
//!
//! Three kinds of episode, each reported once, where it happens:
//!
//! - **Write stall** (§5.3): `Pm` is full while `P'm` is still being
//!   merged, so client writes block behind the flush. The first writer
//!   to block behind a given `P'm` reports it; one episode is one flush
//!   that writers stalled behind. The stalled writes themselves are
//!   counted once each, in `db.write_stalls`.
//! - **Sustained slowdown**: write admission (see
//!   [`crate::AdmissionOptions`]) has paced writers through a behind
//!   period at least 30 ms old. The first paced write to find its
//!   period that old reports it. Deliberately distinct from the stall:
//!   a slowdown episode means backpressure is *working* (writers paced,
//!   no cliff), a stall episode means it wasn't enough.
//! - **Exclusive hold**: the shared-exclusive lock was held in
//!   exclusive mode for 5 ms or more. `beforeMerge`/`afterMerge` are
//!   supposed to be "a few pointer swings" (§3.1); a long hold means
//!   something is wrong (or a test injected one). Every exclusive hold
//!   goes through [`DbInner::lock_exclusive`], whose guard reports the
//!   hold when it ends. A hold still in progress, such as a hung hook,
//!   is what [`Db::doctor`] reads on demand.
//!
//! Events land in three places: monotonic counters in the metrics
//! registry (`watchdog.*`), instant events in the flight recorder
//! (`watchdog.*`), and a small in-memory ring readable via
//! [`Db::stall_events`] — which is what `clsm-doctor` prints as its
//! verdicts. An event is in the ring by the time the call that caused
//! it returns.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use clsm_util::metrics::{Counter, MetricsRegistry};
use clsm_util::shared_lock::ExclusiveGuard;
use clsm_util::trace::{self, TraceId};

use crate::db::{Db, DbInner};

/// Flight-recorder instants, one per kind in [`StallKind`] order; the
/// argument carries the episode magnitude (memtable bytes, ns of delay,
/// ns held).
static TRACES: [TraceId; 3] = [
    TraceId::new("watchdog.write_stall"),
    TraceId::new("watchdog.sustained_slowdown"),
    TraceId::new("watchdog.exclusive_hold"),
];

/// Which kind of episode was reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallKind {
    /// Writes stalled: memtable full while the previous one was still
    /// being merged (§5.3).
    WriteStall,
    /// Admission paced writers (slept them for their slots) through a
    /// behind period at least 30 ms old.
    SustainedSlowdown,
    /// The shared-exclusive lock was held exclusively for 5 ms or more.
    ExclusiveHold,
}

impl std::fmt::Display for StallKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            StallKind::WriteStall => "write-stall",
            StallKind::SustainedSlowdown => "sustained-slowdown",
            StallKind::ExclusiveHold => "exclusive-hold",
        };
        f.write_str(s)
    }
}

/// One reported stall episode.
#[derive(Debug, Clone)]
pub struct StallEvent {
    /// Which kind of episode.
    pub kind: StallKind,
    /// Trace-clock nanoseconds at the report (same clock as the flight
    /// recorder, so events line up with trace spans).
    pub at_ns: u64,
    /// Kind-dependent magnitude: memtable bytes (`WriteStall`),
    /// nanoseconds of pacing delay charged in the period
    /// (`SustainedSlowdown`), or nanoseconds held (`ExclusiveHold`).
    pub magnitude: u64,
    /// Human-readable one-liner for reports.
    pub detail: String,
}

/// How many recent events [`Db::stall_events`] retains.
const HISTORY: usize = 64;

/// Exclusive holds at least this long become
/// [`StallKind::ExclusiveHold`] events; one in progress this long makes
/// the doctor's verdict unhealthy.
pub(crate) const EXCLUSIVE_HOLD_THRESHOLD: Duration = Duration::from_millis(5);

/// Whether an exclusive hold that has lasted `held` is a long one: an
/// episode once it ends, an unhealthy verdict while it lasts.
pub(crate) fn is_long_hold(held: Duration) -> bool {
    held >= EXCLUSIVE_HOLD_THRESHOLD
}

/// Shared sink the event sites report into; owned by `DbInner`.
#[derive(Debug)]
pub(crate) struct Watchdog {
    recent: Mutex<VecDeque<StallEvent>>,
    /// `watchdog.{kind}_events`, in [`StallKind`] order.
    counts: [Arc<Counter>; 3],
}

impl Watchdog {
    /// Registers the watchdog counters and builds the event sink.
    /// `watchdog.stall_events`, all kinds combined, is their sum.
    pub(crate) fn new(registry: &MetricsRegistry) -> Watchdog {
        let counts = ["write_stall", "sustained_slowdown", "exclusive_hold"]
            .map(|kind| registry.counter(&format!("watchdog.{kind}_events")));
        let all = counts.clone();
        registry.counter_fn("watchdog.stall_events", move || {
            all.iter().map(|c| c.get()).sum()
        });
        Watchdog {
            recent: Mutex::new(VecDeque::with_capacity(HISTORY)),
            counts,
        }
    }

    /// Records one episode in all three sinks (metrics, trace, ring).
    #[cold]
    pub(crate) fn report(&self, kind: StallKind, magnitude: u64, detail: String) {
        self.counts[kind as usize].inc();
        TRACES[kind as usize].instant(magnitude);
        let event = StallEvent {
            kind,
            at_ns: trace::now_ns(),
            magnitude,
            detail,
        };
        let mut recent = self.recent.lock();
        if recent.len() >= HISTORY {
            recent.pop_front();
        }
        recent.push_back(event);
    }

    /// Copy of the retained event ring, oldest first.
    pub(crate) fn recent(&self) -> Vec<StallEvent> {
        self.recent.lock().iter().cloned().collect()
    }
}

/// An exclusive hold of the database's lock, from
/// [`DbInner::lock_exclusive`]. Releases the lock on drop, after
/// reporting the hold if it lasted [`EXCLUSIVE_HOLD_THRESHOLD`] or more.
#[must_use = "the lock is released when the guard is dropped"]
pub(crate) struct ExclusiveHold<'a> {
    inner: &'a DbInner,
    _guard: ExclusiveGuard<'a>,
}

impl Drop for ExclusiveHold<'_> {
    fn drop(&mut self) {
        // `_guard` releases after this body, so the start stamp the lock
        // keeps is still this hold's.
        let Some(since) = self.inner.lock.exclusive_held_since_ns() else {
            return;
        };
        let held_ns = trace::now_ns().saturating_sub(since);
        let held = Duration::from_nanos(held_ns);
        if is_long_hold(held) {
            self.inner.watchdog.report(
                StallKind::ExclusiveHold,
                held_ns,
                format!(
                    "exclusive lock held {held:.1?} (threshold {EXCLUSIVE_HOLD_THRESHOLD:.1?})"
                ),
            );
        }
    }
}

impl DbInner {
    /// Takes Algorithm 1's lock exclusively — the merge hooks, atomic
    /// batches and test injection all come through here, so every long
    /// hold is reported when it ends.
    pub(crate) fn lock_exclusive(&self) -> ExclusiveHold<'_> {
        ExclusiveHold {
            inner: self,
            _guard: self.lock.lock_exclusive(),
        }
    }
}

impl Db {
    /// Recent stall episodes, oldest first.
    ///
    /// Each is recorded by the call that caused or ended it, before
    /// that call returns. Empty while nothing pathological has
    /// happened. The ring keeps the last 64 events.
    pub fn stall_events(&self) -> Vec<StallEvent> {
        self.inner.watchdog.recent()
    }

    /// Test-only fault injection: holds the database's shared-exclusive
    /// lock exclusively for `hold`, blocking writers and the merge
    /// hooks. It takes the lock the way the hooks do, so a hold of 5 ms
    /// or more is reported as a [`StallKind::ExclusiveHold`] when it
    /// ends. Never call this on a production path.
    #[doc(hidden)]
    pub fn inject_exclusive_hold(&self, hold: Duration) {
        let _hold = self.inner.lock_exclusive();
        std::thread::sleep(hold);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_hold_under_the_threshold_is_no_episode() {
        let nanosecond = Duration::from_nanos(1);
        assert!(!is_long_hold(Duration::ZERO));
        assert!(!is_long_hold(EXCLUSIVE_HOLD_THRESHOLD - nanosecond));
        assert!(is_long_hold(EXCLUSIVE_HOLD_THRESHOLD));
        assert!(is_long_hold(EXCLUSIVE_HOLD_THRESHOLD + nanosecond));
    }
}
