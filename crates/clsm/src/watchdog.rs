//! Stall watchdog: a sampling thread that watches for the write-path
//! pathologies the paper's evaluation warns about and surfaces them as
//! structured events.
//!
//! Four detectors run on every sample:
//!
//! - **Write stall** (§5.3): `Pm` is full while `P'm` is still being
//!   merged, so client writes are blocked behind the flush.
//! - **Sustained slowdown**: write admission (see
//!   [`crate::AdmissionOptions`]) has been pacing writers behind a
//!   merge stage for several consecutive samples. Deliberately distinct
//!   from the stall detector: a slowdown episode means backpressure is
//!   *working* (writers paced, no cliff), a stall episode means it
//!   wasn't enough.
//! - **Exclusive hold**: the shared-exclusive lock has been held in
//!   exclusive mode longer than a threshold. `beforeMerge`/`afterMerge`
//!   are supposed to be "a few pointer swings" (§3.1); a long hold
//!   means something is wrong (or a test injected one).
//! - **Active-set pressure**: the oracle's `Active` set is close to its
//!   slot capacity, i.e. `getSnap`'s min-scan is about to get expensive
//!   and `getTS` may soon fail to find a free slot.
//!
//! Each detector is *episode-deduplicated*: one event per continuous
//! episode, not one per sample, so a 2-second stall produces a single
//! [`StallEvent`] rather than two hundred. Events land in three places:
//! monotonic counters in the metrics registry (`watchdog.*`), instant
//! events in the flight recorder (`watchdog.*`), and a small in-memory
//! ring readable via [`Db::stall_events`] — which is what
//! `clsm-doctor` prints as its verdicts.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use clsm_util::metrics::{Counter, MetricsRegistry};
use clsm_util::trace::{self, TraceId};

use crate::db::{Db, DbInner};

/// Flight-recorder instants, one per detector; the argument carries the
/// episode magnitude (ns held, memtable bytes, Active-set size).
static T_WRITE_STALL: TraceId = TraceId::new("watchdog.write_stall");
static T_SUSTAINED_SLOWDOWN: TraceId = TraceId::new("watchdog.sustained_slowdown");
static T_EXCL_HOLD: TraceId = TraceId::new("watchdog.exclusive_hold");
static T_ACTIVE_PRESSURE: TraceId = TraceId::new("watchdog.active_set_pressure");

/// Which detector fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallKind {
    /// Writes are stalled: memtable full while the previous one is
    /// still being merged (§5.3).
    WriteStall,
    /// Admission paced writers (slept them for their slots) across
    /// three consecutive 10 ms samples.
    SustainedSlowdown,
    /// The shared-exclusive lock was held exclusively for 5 ms or more.
    ExclusiveHold,
    /// The oracle's `Active` set reached ¾ of its slot capacity.
    ActiveSetPressure,
}

impl std::fmt::Display for StallKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            StallKind::WriteStall => "write-stall",
            StallKind::SustainedSlowdown => "sustained-slowdown",
            StallKind::ExclusiveHold => "exclusive-hold",
            StallKind::ActiveSetPressure => "active-set-pressure",
        };
        f.write_str(s)
    }
}

/// One detected stall episode.
#[derive(Debug, Clone)]
pub struct StallEvent {
    /// Which detector fired.
    pub kind: StallKind,
    /// Trace-clock nanoseconds at detection (same clock as the flight
    /// recorder, so events line up with trace spans).
    pub at_ns: u64,
    /// Kind-dependent magnitude: nanoseconds held (`ExclusiveHold`),
    /// memtable bytes (`WriteStall`), or set size
    /// (`ActiveSetPressure`).
    pub magnitude: u64,
    /// Human-readable one-liner for reports.
    pub detail: String,
}

/// Configuration of the stall watchdog (field of [`crate::Options`]).
#[derive(Debug, Clone)]
pub struct WatchdogOptions {
    /// Run the sampling thread (default `true`; the thread is idle
    /// ~100% of the time on a healthy database).
    pub enabled: bool,
}

impl Default for WatchdogOptions {
    fn default() -> Self {
        WatchdogOptions { enabled: true }
    }
}

/// How many recent events [`Db::stall_events`] retains.
const HISTORY: usize = 64;

/// Sampling cadence; episodes shorter than one interval can be missed
/// — that is the deal with sampling.
const INTERVAL: Duration = Duration::from_millis(10);

/// Exclusive holds at least this long become
/// [`StallKind::ExclusiveHold`] events.
const EXCLUSIVE_HOLD_THRESHOLD: Duration = Duration::from_millis(5);

/// Consecutive samples with pacing-delay growth that make a
/// [`StallKind::SustainedSlowdown`] episode: admission has been pacing
/// writers for at least 30 ms.
const SLOWDOWN_WINDOWS: usize = 3;

/// Shared sink the sampler reports into; owned by `DbInner`.
#[derive(Debug)]
pub(crate) struct Watchdog {
    recent: Mutex<VecDeque<StallEvent>>,
    /// `watchdog.stall_events` — all kinds combined.
    total: Arc<Counter>,
    write_stalls: Arc<Counter>,
    sustained_slowdowns: Arc<Counter>,
    exclusive_holds: Arc<Counter>,
    active_pressure: Arc<Counter>,
}

impl Watchdog {
    /// Registers the watchdog counters and builds the event sink.
    pub(crate) fn new(registry: &MetricsRegistry) -> Watchdog {
        Watchdog {
            recent: Mutex::new(VecDeque::with_capacity(HISTORY)),
            total: registry.counter("watchdog.stall_events"),
            write_stalls: registry.counter("watchdog.write_stall_events"),
            sustained_slowdowns: registry.counter("watchdog.sustained_slowdown_events"),
            exclusive_holds: registry.counter("watchdog.exclusive_hold_events"),
            active_pressure: registry.counter("watchdog.active_set_pressure_events"),
        }
    }

    /// Records one episode in all three sinks (metrics, trace, ring).
    fn report(&self, kind: StallKind, magnitude: u64, detail: String) {
        self.total.inc();
        match kind {
            StallKind::WriteStall => {
                self.write_stalls.inc();
                T_WRITE_STALL.instant(magnitude);
            }
            StallKind::SustainedSlowdown => {
                self.sustained_slowdowns.inc();
                T_SUSTAINED_SLOWDOWN.instant(magnitude);
            }
            StallKind::ExclusiveHold => {
                self.exclusive_holds.inc();
                T_EXCL_HOLD.instant(magnitude);
            }
            StallKind::ActiveSetPressure => {
                self.active_pressure.inc();
                T_ACTIVE_PRESSURE.instant(magnitude);
            }
        }
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

/// Per-thread detector state: one flag/baseline per detector so each
/// continuous episode reports exactly once.
#[derive(Debug, Default)]
struct DetectorState {
    /// `excl_since_ns` of the last hold already reported (a new hold
    /// gets a new start stamp, resetting the dedup).
    reported_excl_since: u64,
    /// The write-stall condition held at the previous sample.
    write_stall_active: bool,
    /// Baseline of the `db.write_stalls` counter, to catch stalls that
    /// begin and end between two samples.
    write_stalls_seen: u64,
    /// The pressure condition held at the previous sample.
    active_pressure_active: bool,
    /// Baseline of `admission.delay_ns` at the previous sample.
    admission_delay_seen: u64,
    /// `admission.delay_ns` where the current slowdown run began.
    slowdown_episode_base: u64,
    /// Consecutive samples (so far) with pacing-delay growth.
    slowdown_samples: usize,
    /// The current slowdown run was already reported.
    slowdown_active: bool,
}

/// The sampling loop; runs on the `clsm-watchdog` thread until
/// shutdown. Checks the shutdown flag once per interval, so `Db::drop`
/// never waits more than ~10 ms for the join.
pub(crate) fn watchdog_worker(inner: Arc<DbInner>) {
    let mut state = DetectorState {
        write_stalls_seen: inner.metrics.write_stalls.get(),
        admission_delay_seen: inner.metrics.admission_delay_ns.get(),
        ..DetectorState::default()
    };
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        std::thread::sleep(INTERVAL);
        sample(&inner, &mut state);
    }
}

/// One watchdog sample: run all four detectors.
fn sample(inner: &DbInner, state: &mut DetectorState) {
    let wd = &inner.watchdog;

    // Detector 1: long exclusive holds. Keyed by the hold's start stamp
    // so one long hold reports once even across many samples, while a
    // fresh hold re-arms the detector.
    if let Some(since) = inner.lock.exclusive_held_since_ns() {
        let held_ns = trace::now_ns().saturating_sub(since);
        if held_ns >= EXCLUSIVE_HOLD_THRESHOLD.as_nanos() as u64
            && since != state.reported_excl_since
        {
            state.reported_excl_since = since;
            wd.report(
                StallKind::ExclusiveHold,
                held_ns,
                format!(
                    "exclusive lock held {:.1?} so far (threshold {EXCLUSIVE_HOLD_THRESHOLD:.1?})",
                    Duration::from_nanos(held_ns),
                ),
            );
        }
    }

    // Detector 2: writes stalled behind the flush. Two signals: the
    // stall condition itself (memtable full + merge in flight), and the
    // `db.write_stalls` counter for episodes shorter than one interval.
    let memtable_bytes = inner.pm.load().memory_usage();
    let condition = inner.write_stalled();
    let stalls_now = inner.metrics.write_stalls.get();
    if (condition || stalls_now > state.write_stalls_seen) && !state.write_stall_active {
        let detail = if condition {
            format!(
                "writes stalled behind flush (memtable {memtable_bytes} / {} bytes, \
                 immutable memtable still merging)",
                inner.opts.memtable_bytes
            )
        } else {
            format!(
                "writes stalled behind flush ({} stall(s) since last sample, already resolved)",
                stalls_now - state.write_stalls_seen
            )
        };
        wd.report(StallKind::WriteStall, memtable_bytes as u64, detail);
    }
    state.write_stall_active = condition;
    state.write_stalls_seen = stalls_now;

    // Detector 3: sustained slowdown — admission paced writers across
    // several consecutive samples. Fed by the `admission.delay_ns`
    // counter rather than the instantaneous stage, so a steady trickle
    // of paced writes is what triggers it (a single delayed write
    // between two samples is not an episode).
    let delay_ns_now = inner.metrics.admission_delay_ns.get();
    if delay_ns_now > state.admission_delay_seen {
        if state.slowdown_samples == 0 {
            state.slowdown_episode_base = state.admission_delay_seen;
        }
        state.slowdown_samples += 1;
    } else {
        state.slowdown_samples = 0;
        state.slowdown_active = false;
    }
    state.admission_delay_seen = delay_ns_now;
    if state.slowdown_samples >= SLOWDOWN_WINDOWS && !state.slowdown_active {
        state.slowdown_active = true;
        let charged_ns = delay_ns_now - state.slowdown_episode_base;
        let admission = inner.admission_state();
        wd.report(
            StallKind::SustainedSlowdown,
            charged_ns,
            format!(
                "admission pacing writers behind {} at {} B/s for {} consecutive samples \
                 ({:.1?} of delay charged)",
                admission.behind,
                admission.paced_bytes_per_sec,
                state.slowdown_samples,
                Duration::from_nanos(charged_ns),
            ),
        );
    }

    // Detector 4: Active-set growth (stuck or very slow writers make
    // `getSnap` wait on an old minimum, §3.2).
    // ¾ of the slots (rounded up, so never 0) is the alarm line.
    let active = inner.oracle.active();
    let active_len = active.len();
    let slots = active.capacity();
    let threshold = (slots * 3).div_ceil(4);
    let pressure = active_len >= threshold;
    if pressure && !state.active_pressure_active {
        wd.report(
            StallKind::ActiveSetPressure,
            active_len as u64,
            format!(
                "oracle Active set at {active_len} entries (threshold {threshold}, slots {slots})"
            ),
        );
    }
    state.active_pressure_active = pressure;
}

impl Db {
    /// Recent stall episodes flagged by the watchdog, oldest first.
    ///
    /// Empty when the watchdog is disabled or nothing pathological has
    /// happened. The ring keeps the last 64 events.
    pub fn stall_events(&self) -> Vec<StallEvent> {
        self.inner.watchdog.recent()
    }

    /// Test-only fault injection: holds the database's shared-exclusive
    /// lock exclusively for `hold`, blocking writers and the merge
    /// hooks, so the watchdog's exclusive-hold detector can be
    /// exercised deterministically (see
    /// `SharedExclusiveLock::hold_exclusive_for`). Never call this on a
    /// production path.
    #[doc(hidden)]
    pub fn inject_exclusive_hold(&self, hold: Duration) {
        self.inner.lock.hold_exclusive_for(hold);
    }
}
