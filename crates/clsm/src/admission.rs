//! Write admission: writes are paced only while a merge stage is
//! behind, at the rate that stage last drained.
//!
//! The paper's only write back-pressure is §5.3's stall: a writer
//! waits when `Pm` is full while `P'm` is still being merged. "On
//! Performance Stability in LSM-based Storage Systems" (Luo & Carey)
//! shows that this cliff alone turns into throughput sawtooths and
//! latency spikes, and that the cure is to admit writes at the rate the
//! tree actually drains — and only while a merge is behind.
//!
//! **Debt is a stage that is behind, never one about to start.** There
//! are two stages:
//!
//! - *flush behind*: `P'm` is present, or `Pm` is full and its flush
//!   has not started yet — a flush that is due, not one about to be.
//!   The first write to find `Pm` full (or `beforeMerge`) sets the bit;
//!   `afterMerge` clears it. Without the second half, writers on a busy
//!   host overfill `Pm` several times over while the flush worker waits
//!   for a CPU, and the flush of that oversized `P'm` outlasts every
//!   headroom.
//! - *L0 behind*: L0 holds at least twice
//!   `StoreOptions::l0_compaction_trigger` files (8 by default).
//!   Every version install re-evaluates the bit.
//!
//! A filling `Pm` with no flush in flight is never delayed: the flush
//! it will need has not started, so there is nothing to be behind.
//!
//! **Drain rate.** While a stage is behind, every write passes a
//! lock-free [`PacingClock`] at that stage's measured rate; with both
//! behind, the slower one binds. The workers store the rate when each
//! job ends:
//!
//! - flush: memtable bytes ÷ flush wall time;
//! - L0: L0 input bytes ÷ wall time of the L0→L1 compaction.
//!
//! Nothing is configured. Until a stage has finished one job it has no
//! rate, and writes behind it alone are not paced. While a flush runs,
//! its own bytes over the time it has run so far also bound the flush
//! rate, so a flush slower than the last is caught while it runs.
//!
//! The flush stage alone has a cliff behind it — `Pm` filling before
//! `P'm` has drained — so its rate is scaled by the room left in `Pm`:
//! `2 × (1 − fill)` times the drain rate. `Pm` then fills toward full
//! exponentially instead of linearly into it: it is 1 − e⁻² ≈ 86 %
//! full when a flush as slow as the last one ends, and only a flush
//! more than twice as slow meets the stall. Paced at exactly the drain
//! rate, every flush a little slower than the last would end in one.
//!
//! **The ladder.** `open` (no stage behind: one relaxed load, no clock
//! read) → `paced` (one clock reservation and one wait per write call,
//! before the shared lock; the wait ends early once nothing is behind)
//! → `stall`, §5.3's hard stall, unchanged: a full `Pm` with `P'm`
//! still merging cannot take writes. `admission.hard_stalls` counts how
//! often pacing was not enough.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Configuration of write admission (field of [`crate::Options`]).
#[derive(Debug, Clone)]
pub struct AdmissionOptions {
    /// Pace writes while a merge stage is behind (default `true`). Off,
    /// only the §5.3 hard stall remains — the ablation baseline, and
    /// what the admission kill-test runs to reproduce the cliff.
    pub enabled: bool,
}

impl Default for AdmissionOptions {
    fn default() -> Self {
        AdmissionOptions { enabled: true }
    }
}

/// The merge stage that is behind, as the doctor reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Nothing is behind: writes are admitted unpaced.
    None,
    /// `P'm` is still being merged into L0.
    Flush,
    /// L0 holds at least twice the compaction trigger's files.
    L0,
}

impl Stage {
    /// Stable lower-case name (`none` / `flush` / `l0`).
    pub fn name(self) -> &'static str {
        match self {
            Stage::None => "none",
            Stage::Flush => "flush",
            Stage::L0 => "l0",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Bit of [`FlowControl::behind`] set while a flush is behind: `P'm` is
/// present, or `Pm` is full and its flush has not started.
pub(crate) const FLUSH_BEHIND: u8 = 1;
/// Bit of [`FlowControl::behind`] set while L0 is too deep.
pub(crate) const L0_BEHIND: u8 = 2;

/// Gain on `Pm`'s free fraction in the flush stage's rate (see the
/// module documentation).
const HEADROOM_GAIN: f64 = 2.0;

/// Floor of the flush stage's rate, as a fraction of its drain rate.
/// The headroom share falls to zero as `Pm` fills; without a floor the
/// last writes before the stall would each push the clock out by
/// seconds.
const MIN_FLUSH_SHARE: f64 = 1.0 / 8.0;

/// How far the pacing clock may trail real time. A writer that
/// oversleeps its slot (a `sleep` overshoots by tens of µs, often more
/// than one write's share) leaves the clock behind; the writes after it
/// pass unslept until it catches up, so the paced rate is the measured
/// one, not the rate the sleep granularity allows. It is also the
/// largest burst a stage admits after it falls behind.
const CATCH_UP_NS: u64 = 1_000_000;

/// Longest single sleep of a paced write. A slot further out than this
/// (a large batch, or a rate measured off a slow job) is slept in naps,
/// re-checking between them whether the stage is still behind.
const MAX_NAP: Duration = Duration::from_millis(10);

/// The shared pacing clock: one word holding the next admission time.
///
/// A write of `b` bytes at `r` B/s takes the slot the word holds (or
/// `now − CATCH_UP_NS`, whichever is later), moves the word `b / r`
/// past it, and sleeps until its slot. So bytes admitted through the
/// clock over any interval longer than the catch-up window never exceed
/// the rate, and no lock or queue is involved: one CAS loop per write.
#[derive(Debug, Default)]
pub(crate) struct PacingClock {
    next_ns: AtomicU64,
}

impl PacingClock {
    /// Reserves a slot for `bytes` at `rate` bytes/s (nonzero) and
    /// returns how long after `now_ns` the slot opens.
    pub(crate) fn reserve(&self, now_ns: u64, bytes: u64, rate: u64) -> Duration {
        let cost =
            u64::try_from(u128::from(bytes) * 1_000_000_000 / u128::from(rate)).unwrap_or(u64::MAX);
        let floor = now_ns.saturating_sub(CATCH_UP_NS);
        let advance = |next: u64| Some(next.max(floor).saturating_add(cost));
        let prev = match self
            .next_ns
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, advance)
        {
            Ok(prev) | Err(prev) => prev,
        };
        Duration::from_nanos(prev.max(floor).saturating_sub(now_ns))
    }
}

/// Which stages are behind, how fast each last drained, and the clock
/// writes are paced through. Owned by `DbInner`.
///
/// Every field is accessed `Relaxed`: each is a hint that publishes no
/// other data. A stale `behind` bit can only pace writes that need not
/// be, or let through writes that should be; the §5.3 stall re-reads
/// `Pm` and `P'm` (sequentially consistent `RcuCell` loads) before it
/// blocks anyone.
#[derive(Debug, Default)]
pub(crate) struct FlowControl {
    /// [`FLUSH_BEHIND`] | [`L0_BEHIND`]; the open rung reads only this.
    behind: AtomicU8,
    /// Last flush's drain rate in bytes/s (0: none finished yet).
    flush_rate: AtomicU64,
    /// Bytes of the `P'm` being flushed (0: no flush in flight) and
    /// when its flush started, in `trace::now_ns` time.
    flush_bytes: AtomicU64,
    flush_started_ns: AtomicU64,
    /// Last L0→L1 compaction's drain rate in bytes/s (0: none yet).
    l0_rate: AtomicU64,
    clock: PacingClock,
}

impl FlowControl {
    /// The stages behind right now — the whole cost of the open rung.
    #[inline]
    pub(crate) fn behind(&self) -> u8 {
        self.behind.load(Ordering::Relaxed)
    }

    /// Sets or clears one `behind` bit. Clearing the last one voids the
    /// slots reserved at the old rate, so the next stage to fall behind
    /// starts its clock from now.
    pub(crate) fn set(&self, bit: u8, on: bool) {
        if on {
            self.behind.fetch_or(bit, Ordering::Relaxed);
        } else if self.behind.fetch_and(!bit, Ordering::Relaxed) == bit {
            self.clock.next_ns.store(0, Ordering::Relaxed);
        }
    }

    /// `beforeMerge` made a `P'm` of `bytes`: the flush is behind until
    /// `afterMerge`.
    pub(crate) fn flush_started(&self, bytes: u64) {
        self.flush_started_ns
            .store(clsm_util::trace::now_ns(), Ordering::Relaxed);
        self.flush_bytes.store(bytes, Ordering::Relaxed);
        self.set(FLUSH_BEHIND, true);
    }

    /// Records that a flush drained `bytes` of memtable in `elapsed`.
    pub(crate) fn flush_drained(&self, bytes: u64, elapsed: Duration) {
        self.flush_bytes.store(0, Ordering::Relaxed);
        self.flush_rate
            .store(rate_of(bytes, elapsed), Ordering::Relaxed);
    }

    /// The flush stage's drain rate: the last flush's, or — when the
    /// flush in flight has already run longer than that rate implies —
    /// its bytes over the time it has run so far, so a flush slower
    /// than the last is caught while it runs. 0 until a flush finishes.
    fn flush_drain_rate(&self) -> u64 {
        let last = self.flush_rate.load(Ordering::Relaxed);
        let bytes = self.flush_bytes.load(Ordering::Relaxed);
        if last == 0 || bytes == 0 {
            return last;
        }
        let started = self.flush_started_ns.load(Ordering::Relaxed);
        let ran = clsm_util::trace::now_ns().saturating_sub(started);
        last.min(rate_of(bytes, Duration::from_nanos(ran)))
    }

    /// Records that an L0→L1 compaction retired `bytes` of L0 in
    /// `elapsed`.
    pub(crate) fn l0_drained(&self, bytes: u64, elapsed: Duration) {
        self.l0_rate
            .store(rate_of(bytes, elapsed), Ordering::Relaxed);
    }

    /// The stage whose rate binds under `behind`, and that rate in
    /// bytes/s (0 when the stages behind have no measurement yet).
    /// `pm_fill` is `Pm`'s bytes over its capacity; it scales the
    /// flush stage's rate.
    pub(crate) fn binding(&self, behind: u8, pm_fill: f64) -> (Stage, u64) {
        let flush = (behind & FLUSH_BEHIND != 0).then(|| {
            let share = (HEADROOM_GAIN * (1.0 - pm_fill)).max(MIN_FLUSH_SHARE);
            let rate = match self.flush_drain_rate() {
                0 => 0,
                drained => ((drained as f64 * share) as u64).max(1),
            };
            (Stage::Flush, rate)
        });
        let l0 =
            (behind & L0_BEHIND != 0).then(|| (Stage::L0, self.l0_rate.load(Ordering::Relaxed)));
        match (flush, l0) {
            (Some(f), Some(l)) if l.1 != 0 && (f.1 == 0 || l.1 < f.1) => l,
            (Some(f), _) => f,
            (None, Some(l)) => l,
            (None, None) => (Stage::None, 0),
        }
    }

    /// Reserves a pacing slot for a write of `bytes` under `behind`
    /// (and `pm_fill`, as for [`Self::binding`]); returns how long to
    /// sleep before taking the lock — zero when the binding stage has
    /// no rate yet.
    pub(crate) fn reserve(&self, behind: u8, pm_fill: f64, bytes: u64) -> Duration {
        match self.binding(behind, pm_fill) {
            (_, 0) => Duration::ZERO,
            (_, rate) => self.clock.reserve(clsm_util::trace::now_ns(), bytes, rate),
        }
    }

    /// Sleeps `wait` for a reserved slot, in naps of at most
    /// [`MAX_NAP`], and stops early once no stage is behind: a write is
    /// never delayed toward work that is no longer behind.
    pub(crate) fn wait_for_slot(&self, wait: Duration) {
        let until = Instant::now() + wait;
        loop {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() || self.behind() == 0 {
                return;
            }
            std::thread::sleep(left.min(MAX_NAP));
        }
    }
}

/// `bytes / elapsed` in bytes/s, at least 1 so a measured stage is
/// never mistaken for an unmeasured one.
fn rate_of(bytes: u64, elapsed: Duration) -> u64 {
    let ns = elapsed.as_nanos().max(1);
    u64::try_from(u128::from(bytes) * 1_000_000_000 / ns)
        .unwrap_or(u64::MAX)
        .max(1)
}

/// A point-in-time view of write admission, for `clsm-doctor`.
#[derive(Debug, Clone)]
pub struct AdmissionState {
    /// Whether pacing is on ([`AdmissionOptions::enabled`]).
    pub enabled: bool,
    /// The stage behind whose rate binds (`none` when nothing is).
    pub behind: Stage,
    /// The rate writes are paced at, in bytes/s: that stage's measured
    /// drain rate, scaled by `Pm`'s headroom for the flush stage (0:
    /// nothing behind, or no job of the stage finished yet).
    pub paced_bytes_per_sec: u64,
    /// `Pm` is full while `P'm` is still merging: writes are in the
    /// §5.3 hard stall.
    pub stalled: bool,
    /// Writes that slept for their pacing slot so far
    /// (`admission.delayed_writes`).
    pub delayed_writes: u64,
    /// Total pacing sleep so far (`admission.delay_ns`).
    pub delay_ns: u64,
    /// Writes that hit the §5.3 hard stall (`admission.hard_stalls`).
    pub hard_stalls: u64,
}

impl AdmissionState {
    /// The rung of the ladder writes are on: `open`, `paced` or `stall`.
    pub fn ladder_rung(&self) -> &'static str {
        if self.stalled {
            "stall"
        } else if self.enabled && self.paced_bytes_per_sec != 0 {
            "paced"
        } else {
            "open"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Admits `total` bytes in `write`-byte calls through a fresh clock
    /// at `rate`, each writer sleeping its wait plus `oversleep_ns`, on
    /// a simulated clock; returns the simulated seconds it took.
    fn admit(total: u64, write: u64, rate: u64, oversleep_ns: u64) -> f64 {
        let clock = PacingClock::default();
        let start = 10_000_000_000u64;
        let mut now = start;
        let mut admitted = 0;
        while admitted < total {
            let wait = clock.reserve(now, write, rate);
            if !wait.is_zero() {
                now += wait.as_nanos() as u64 + oversleep_ns;
            }
            admitted += write;
        }
        (now - start) as f64 / 1e9
    }

    #[test]
    fn pacing_clock_admits_n_bytes_at_rate_r_in_n_over_r() {
        // 8 MiB at 16 MiB/s: half a second, less the catch-up burst.
        let secs = admit(8 << 20, 1040, 16 << 20, 0);
        assert!((secs - 0.5).abs() < 0.5 * 0.01, "took {secs} s, want 0.5 s");
    }

    #[test]
    fn oversleeping_writers_are_paid_back_by_the_catch_up_window() {
        // Each sleep overshoots by 80 µs, more than a write's 62 µs
        // share: without the catch-up window the rate would halve.
        let secs = admit(8 << 20, 1040, 16 << 20, 80_000);
        assert!((secs - 0.5).abs() < 0.5 * 0.02, "took {secs} s, want 0.5 s");
    }

    #[test]
    fn concurrent_writers_share_one_rate() {
        // Four threads admit 4 MiB together at 32 MiB/s with real
        // sleeps: never faster than the rate (less the burst), and not
        // much slower either.
        let clock = std::sync::Arc::new(PacingClock::default());
        let began = std::time::Instant::now();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let clock = std::sync::Arc::clone(&clock);
                std::thread::spawn(move || {
                    for _ in 0..1024 {
                        let wait = clock.reserve(clsm_util::trace::now_ns(), 1024, 32 << 20);
                        std::thread::sleep(wait);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let secs = began.elapsed().as_secs_f64();
        assert!(
            secs >= 0.125 - 0.002,
            "admitted 4 MiB in {secs} s at 32 MiB/s"
        );
        assert!(secs < 0.125 * 4.0, "took {secs} s for 0.125 s of budget");
    }

    #[test]
    fn binding_stage_is_the_slower_measured_one() {
        let flow = FlowControl::default();
        assert_eq!(flow.binding(0, 0.0), (Stage::None, 0));
        // Behind but unmeasured: named, not paced.
        assert_eq!(flow.binding(FLUSH_BEHIND, 0.5), (Stage::Flush, 0));
        assert_eq!(flow.reserve(FLUSH_BEHIND, 0.5, 1 << 20), Duration::ZERO);
        flow.flush_drained(100 << 20, Duration::from_secs(1));
        flow.l0_drained(10 << 20, Duration::from_secs(1));
        assert_eq!(flow.binding(L0_BEHIND, 0.5), (Stage::L0, 10 << 20));
        assert_eq!(
            flow.binding(FLUSH_BEHIND | L0_BEHIND, 0.5),
            (Stage::L0, 10 << 20)
        );
        flow.set(L0_BEHIND, true);
        flow.set(FLUSH_BEHIND, true);
        flow.set(L0_BEHIND, false);
        assert_eq!(flow.behind(), FLUSH_BEHIND);
    }

    #[test]
    fn a_paced_write_stops_waiting_once_nothing_is_behind() {
        let flow = std::sync::Arc::new(FlowControl::default());
        flow.set(L0_BEHIND, true);
        flow.l0_drained(1, Duration::from_secs(1));
        // Behind a megabyte at 1 B/s: a slot twelve days out.
        flow.reserve(L0_BEHIND, 0.0, 1 << 20);
        let wait = flow.reserve(L0_BEHIND, 0.0, 1);
        assert!(wait > Duration::from_secs(1_000_000));
        let clearer = {
            let flow = std::sync::Arc::clone(&flow);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                flow.set(L0_BEHIND, false);
            })
        };
        let began = Instant::now();
        flow.wait_for_slot(wait);
        assert!(
            began.elapsed() < Duration::from_secs(5),
            "{:?}",
            began.elapsed()
        );
        clearer.join().unwrap();
        // The stale slot is void: the next stage behind starts from now.
        flow.set(L0_BEHIND, true);
        flow.l0_drained(1 << 30, Duration::from_secs(1));
        assert_eq!(flow.reserve(L0_BEHIND, 0.0, 1), Duration::ZERO);
    }

    #[test]
    fn a_flush_in_flight_bounds_the_rate_by_its_progress_so_far() {
        let flow = FlowControl::default();
        // The first flush: no finished job, so no rate yet.
        flow.flush_started(1 << 30);
        assert_eq!(flow.binding(FLUSH_BEHIND, 0.5), (Stage::Flush, 0));
        // A fast last flush does not lift the bound of a slow one.
        flow.flush_drained(1 << 20, Duration::from_nanos(1));
        flow.flush_started(1 << 20);
        std::thread::sleep(Duration::from_millis(20));
        assert!(flow.binding(FLUSH_BEHIND, 0.5).1 <= 50 << 20);
    }

    #[test]
    fn flush_stage_rate_shrinks_with_the_room_left_in_pm() {
        let flow = FlowControl::default();
        flow.flush_drained(64 << 20, Duration::from_secs(1));
        let rate = |fill: f64| flow.binding(FLUSH_BEHIND, fill).1;
        assert_eq!(
            rate(0.0),
            128 << 20,
            "an empty Pm takes twice the drain rate"
        );
        assert_eq!(rate(0.5), 64 << 20, "half full: the drain rate");
        assert_eq!(rate(0.75), 32 << 20);
        // Nearly full or past it: slowed to the floor, never stopped.
        assert_eq!(rate(1.0), 8 << 20);
        assert_eq!(rate(1.5), 8 << 20);
    }

    #[test]
    fn ladder_rungs() {
        let mk = |paced: u64, stalled: bool, enabled: bool| AdmissionState {
            enabled,
            behind: if paced == 0 { Stage::None } else { Stage::L0 },
            paced_bytes_per_sec: paced,
            stalled,
            delayed_writes: 0,
            delay_ns: 0,
            hard_stalls: 0,
        };
        assert_eq!(mk(0, false, true).ladder_rung(), "open");
        assert_eq!(mk(1 << 20, false, true).ladder_rung(), "paced");
        assert_eq!(mk(1 << 20, false, false).ladder_rung(), "open");
        assert_eq!(mk(1 << 20, true, true).ladder_rung(), "stall");
        assert_eq!(mk(0, true, false).ladder_rung(), "stall");
    }
}
