//! Database introspection: one structured snapshot of everything an
//! operator asks first ("is the memtable full? how deep is L0? who is
//! holding snapshots open?"), renderable as a text report.
//!
//! [`Db::doctor`] gathers the state; [`DoctorReport::render`] prints
//! it. The `clsm-doctor` binary (in the bench crate) is a thin CLI
//! over this.

use std::time::Duration;

use clsm_util::env::{RealEnv, SyscallCounts};
use clsm_util::metrics::MetricsSnapshot;

use crate::admission::AdmissionState;
use crate::db::Db;
use crate::watchdog::{StallEvent, StallKind, EXCLUSIVE_HOLD_THRESHOLD};
use crate::write_report::WritePathReport;

/// One level's shape in the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelGeometry {
    /// Level index (0 = freshest).
    pub level: usize,
    /// Number of table files in the level.
    pub files: usize,
    /// Total bytes across those files.
    pub bytes: u64,
}

/// A point-in-time health snapshot of an open database.
///
/// Everything here is sampled racily (the database keeps running), so
/// treat it as a diagnostic picture, not a consistent cut.
#[derive(Debug, Clone)]
pub struct DoctorReport {
    /// Approximate bytes in the mutable memtable `Pm`.
    pub memtable_bytes: usize,
    /// Flush threshold ([`crate::Options::memtable_bytes`]).
    pub memtable_capacity: usize,
    /// `true` while an immutable memtable `P'm` awaits/undergoes merge.
    pub immutable_pending: bool,
    /// Per-level file counts and byte totals.
    pub levels: Vec<LevelGeometry>,
    /// Live snapshot handles (each pins versions from GC).
    pub live_snapshots: usize,
    /// Timestamp of the oldest live snapshot — the version-GC
    /// watermark — if any snapshot is open.
    pub oldest_snapshot_ts: Option<u64>,
    /// The oracle's `timeCounter`.
    pub time_counter: u64,
    /// The oracle's `snapTime` (highest snapshot time handed out).
    pub snap_time: u64,
    /// In-flight writes currently in the oracle's `Active` set.
    pub active_writes: usize,
    /// Slot capacity of the `Active` set (its real size, a whole number
    /// of cache-line stripes).
    pub active_slots: usize,
    /// How long the exclusive hold in progress has lasted, if the lock
    /// is exclusively held right now. A hold is reported as a stall
    /// event only when it ends; a hung merge hook shows here.
    pub exclusive_held_for: Option<Duration>,
    /// Flush vs. compaction byte counters.
    pub write_amp: lsm_storage::store::WriteAmp,
    /// Block-cache `(hits, misses)`, when a cache is configured.
    pub cache: Option<(u64, u64)>,
    /// Current WAL file number.
    pub wal_number: u64,
    /// Bytes in the logging queue at sampling time (persistently past
    /// one batch means writers outpace the log device).
    pub wal_queue_bytes: usize,
    /// Process-wide syscalls issued by `RealEnv` file handles.
    pub syscalls: SyscallCounts,
    /// Recent watchdog verdicts, oldest first.
    pub stall_events: Vec<StallEvent>,
    /// Write admission: the stage behind, the paced rate, the rung and
    /// lifetime counters.
    pub admission: AdmissionState,
    /// The error of the last background job (flush or compaction) that
    /// failed, if any did; `db.background_errors` counts them.
    pub last_background_error: Option<String>,
    /// Per-stage write latency, extracted from the metrics snapshot.
    pub write_path: WritePathReport,
    /// The CRC32C implementation this CPU runs
    /// ([`clsm_util::crc::implementation`]): `"portable"` pays about
    /// 25× more per checksummed byte than `"sse4.2"`.
    pub checksum: &'static str,
}

impl Db {
    /// Gathers a [`DoctorReport`] from the running database.
    pub fn doctor(&self) -> DoctorReport {
        let inner = &self.inner;
        let files = inner.store.level_file_counts();
        let bytes = inner.store.level_byte_sizes();
        let levels = files
            .iter()
            .zip(&bytes)
            .enumerate()
            .map(|(level, (&files, &bytes))| LevelGeometry {
                level,
                files,
                bytes,
            })
            .collect();
        DoctorReport {
            memtable_bytes: inner.pm.load().memory_usage(),
            memtable_capacity: inner.opts.memtable_bytes,
            immutable_pending: inner.pm_prev.load().is_some(),
            levels,
            live_snapshots: inner.snapshots.len(),
            oldest_snapshot_ts: inner.snapshots.oldest(),
            time_counter: inner.oracle.current_time(),
            snap_time: inner.oracle.snap_time(),
            active_writes: inner.oracle.active().len(),
            active_slots: inner.oracle.active().capacity(),
            exclusive_held_for: inner.lock.exclusive_held_for(),
            write_amp: inner.store.write_amp(),
            cache: inner.store.cache_stats(),
            wal_number: inner.store.current_wal_number(),
            wal_queue_bytes: inner.store.wal_queue_bytes(),
            syscalls: RealEnv::syscall_counts(),
            stall_events: self.stall_events(),
            admission: inner.admission_state(),
            last_background_error: inner.jobs.lock().last_error.clone(),
            write_path: WritePathReport::from_snapshot(&self.metrics()),
            checksum: clsm_util::crc::implementation(),
        }
    }
}

impl DoctorReport {
    /// Renders the report as the text `clsm-doctor` prints.
    ///
    /// Line formats are stable enough to grep: level lines match
    /// `L<n>: <files> files, <bytes> bytes`.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let pct = if self.memtable_capacity == 0 {
            0.0
        } else {
            100.0 * self.memtable_bytes as f64 / self.memtable_capacity as f64
        };
        let _ = writeln!(out, "== clsm-doctor ==");
        let _ = writeln!(
            out,
            "memtable: {} / {} bytes ({:.1}% full), immutable pending: {}",
            self.memtable_bytes,
            self.memtable_capacity,
            pct,
            if self.immutable_pending { "yes" } else { "no" }
        );
        let _ = writeln!(
            out,
            "level geometry (wal #{}, logging queue {} bytes):",
            self.wal_number, self.wal_queue_bytes
        );
        for l in &self.levels {
            let _ = writeln!(out, "  L{}: {} files, {} bytes", l.level, l.files, l.bytes);
        }
        match self.oldest_snapshot_ts {
            Some(ts) => {
                let _ = writeln!(
                    out,
                    "snapshots: {} live, oldest ts {} (GC watermark)",
                    self.live_snapshots, ts
                );
            }
            None => {
                let _ = writeln!(out, "snapshots: 0 live (GC unconstrained)");
            }
        }
        let _ = writeln!(
            out,
            "oracle: timeCounter={} snapTime={} activeWrites={}/{}",
            self.time_counter, self.snap_time, self.active_writes, self.active_slots
        );
        if self.active_set_pressure() {
            let _ = writeln!(
                out,
                "active-set pressure: {} of {} slots in use (alarm at 3/4): \
                 getSnap's min-scan is expensive and getTS may soon find no free slot",
                self.active_writes, self.active_slots
            );
        }
        if let Some(held) = self.long_exclusive_hold() {
            let _ = writeln!(
                out,
                "exclusive-hold in progress: lock held {held:.1?} so far \
                 (threshold {EXCLUSIVE_HOLD_THRESHOLD:.1?})"
            );
        }
        let _ = writeln!(
            out,
            "write amp: flushed={} compacted={} factor={:.2}",
            self.write_amp.flushed,
            self.write_amp.compacted,
            self.write_amp.factor()
        );
        if let Some((hits, misses)) = self.cache {
            let total = hits + misses;
            let rate = if total == 0 {
                0.0
            } else {
                100.0 * hits as f64 / total as f64
            };
            let _ = writeln!(
                out,
                "block cache: {hits} hits / {misses} misses ({rate:.1}% hit rate)"
            );
        }
        let _ = writeln!(out, "checksum: crc32c ({})", self.checksum);
        let _ = writeln!(
            out,
            "syscalls (env.real): write={} read={} sync={}",
            self.syscalls.write, self.syscalls.read, self.syscalls.sync
        );
        let a = &self.admission;
        let _ = writeln!(
            out,
            "admission: {} (behind {}, paced {} B/s) delayed={} delay={:.1?} hard stalls={}",
            a.ladder_rung(),
            a.behind,
            a.paced_bytes_per_sec,
            a.delayed_writes,
            Duration::from_nanos(a.delay_ns),
            a.hard_stalls
        );
        if let Some(last) = &self.last_background_error {
            let _ = writeln!(out, "background jobs: last failure: {last}");
        }
        out.push_str(&self.write_path.render());
        if self.stall_events.is_empty() {
            let _ = writeln!(out, "watchdog: no stall events");
        } else {
            let _ = writeln!(out, "watchdog: {} stall event(s)", self.stall_events.len());
            for e in &self.stall_events {
                let _ = writeln!(
                    out,
                    "  [{:>10.3?}] {}: {}",
                    Duration::from_nanos(e.at_ns),
                    e.kind,
                    e.detail
                );
            }
        }
        out
    }

    /// `true` when a stall episode was reported, or an Active-set
    /// pressure or a long exclusive hold is under way — the doctor's
    /// one-bit verdict.
    pub fn unhealthy(&self) -> bool {
        !self.stall_events.is_empty()
            || self.active_set_pressure()
            || self.long_exclusive_hold().is_some()
    }

    /// The oracle's `Active` set is at ¾ of its slots or more (rounded
    /// up, so never 0): slow or stuck writers make `getSnap` wait on an
    /// old minimum (§3.2).
    fn active_set_pressure(&self) -> bool {
        self.active_writes >= (self.active_slots * 3).div_ceil(4)
    }

    /// The exclusive hold in progress, if it has already lasted
    /// [`EXCLUSIVE_HOLD_THRESHOLD`] or more.
    fn long_exclusive_hold(&self) -> Option<Duration> {
        self.exclusive_held_for
            .filter(|held| *held >= EXCLUSIVE_HOLD_THRESHOLD)
    }

    /// Convenience: events of one kind, for tests and tools.
    pub fn events_of(&self, kind: StallKind) -> usize {
        self.stall_events.iter().filter(|e| e.kind == kind).count()
    }
}

/// Column header for the `clsm-doctor --watch` live dashboard
/// (pairs with [`watch_dashboard_line`]).
pub fn watch_dashboard_header() -> String {
    format!(
        "{:>10} {:>10} {:>9} {:>9} {:>12} {:>11} {:>6} {:>8}",
        "puts/s",
        "gets/s",
        "delayed/s",
        "hstalls/s",
        "p99-wr(us)",
        "p99-rd(us)",
        "flush",
        "compact"
    )
}

/// One `--watch` dashboard line from two metric snapshots taken
/// `interval` apart.
///
/// Counter columns (`puts/s`, `gets/s`, `delayed/s`, `hstalls/s`,
/// `flush`, `compact`) are deltas between the snapshots — per-second
/// rates except the last two, which are raw per-interval counts.
/// The p99 columns (`write_path.total_ns` / `op.get.latency_ns`) are
/// cumulative since open: snapshots carry histogram *summaries*,
/// which cannot be subtracted.
pub fn watch_dashboard_line(
    prev: &MetricsSnapshot,
    cur: &MetricsSnapshot,
    interval: Duration,
) -> String {
    let secs = interval.as_secs_f64().max(1e-9);
    let counter =
        |snap: &MetricsSnapshot, name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let delta = |name: &str| counter(cur, name).saturating_sub(counter(prev, name));
    let rate = |name: &str| delta(name) as f64 / secs;
    let p99_us = |name: &str| {
        cur.histograms
            .get(name)
            .map(|h| h.p99 as f64 / 1000.0)
            .unwrap_or(0.0)
    };
    format!(
        "{:>10.0} {:>10.0} {:>9.0} {:>9.0} {:>12.1} {:>11.1} {:>6} {:>8}",
        rate("db.puts"),
        rate("db.gets"),
        rate("admission.delayed_writes"),
        rate("admission.hard_stalls"),
        p99_us("write_path.total_ns"),
        p99_us("op.get.latency_ns"),
        delta("db.flushes"),
        delta("db.compactions")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(puts: u64, gets: u64, delayed: u64) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        s.counters.insert("db.puts".into(), puts);
        s.counters.insert("db.gets".into(), gets);
        s.counters
            .insert("admission.delayed_writes".into(), delayed);
        s
    }

    fn columns(line: &str) -> Vec<f64> {
        line.split_whitespace()
            .map(|c| c.parse::<f64>().expect("numeric column"))
            .collect()
    }

    #[test]
    fn watch_line_rates_divide_by_the_interval_actually_covered() {
        let prev = snap(1_000, 500, 10);
        let cur = snap(3_000, 1_500, 30);
        // The same deltas over a 2 s window must show half the rate of
        // a 1 s window: a caller passing the nominal tick instead of
        // the measured elapsed time inflates every rate column.
        let one_sec = columns(&watch_dashboard_line(&prev, &cur, Duration::from_secs(1)));
        let two_sec = columns(&watch_dashboard_line(&prev, &cur, Duration::from_secs(2)));
        assert_eq!(one_sec[0], 2000.0, "puts/s over 1s");
        assert_eq!(two_sec[0], 1000.0, "puts/s over 2s");
        assert_eq!(one_sec[1], 1000.0, "gets/s over 1s");
        assert_eq!(two_sec[1], 500.0, "gets/s over 2s");
        assert_eq!(one_sec[2], 20.0, "delayed/s over 1s");
        assert_eq!(two_sec[2], 10.0, "delayed/s over 2s");
        assert_eq!(
            watch_dashboard_header().split_whitespace().count(),
            one_sec.len(),
            "one header per column"
        );
    }

    #[test]
    fn render_flags_active_set_pressure() {
        let dir = std::env::temp_dir().join(format!("clsm-doctor-pressure-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Db::open(&dir, crate::Options::small_for_tests()).unwrap();
        let healthy = db.doctor();
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(!healthy.unhealthy(), "{}", healthy.render());
        assert!(!healthy.render().contains("active-set pressure"));

        let pressed = DoctorReport {
            active_writes: 192,
            active_slots: 256,
            ..healthy.clone()
        };
        assert!(pressed.unhealthy());
        assert!(
            pressed
                .render()
                .contains("active-set pressure: 192 of 256 slots in use"),
            "{}",
            pressed.render()
        );
        let below = DoctorReport {
            active_writes: 191,
            ..pressed
        };
        assert!(!below.unhealthy());
    }

    #[test]
    fn watch_line_deltas_ignore_absolute_counter_levels() {
        // Same window shifted by a large base: identical line.
        let a = watch_dashboard_line(&snap(0, 0, 0), &snap(100, 200, 4), Duration::from_secs(1));
        let b = watch_dashboard_line(
            &snap(1 << 40, 1 << 41, 1 << 20),
            &snap((1 << 40) + 100, (1 << 41) + 200, (1 << 20) + 4),
            Duration::from_secs(1),
        );
        assert_eq!(a, b);
        // A counter that went backwards (reopened store) clamps to 0
        // instead of underflowing.
        let line = watch_dashboard_line(&snap(500, 0, 0), &snap(100, 0, 0), Duration::from_secs(1));
        assert_eq!(columns(&line)[0], 0.0);
    }
}
