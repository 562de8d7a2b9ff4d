//! Database introspection: one snapshot of everything an operator asks
//! first ("is the memtable full? how deep is L0? who is holding
//! snapshots open?"), renderable as a text report.
//!
//! [`Db::doctor`] gathers the state; [`DoctorReport::render`] prints
//! it. Every number it prints is a registered metric, so the Stats
//! opcode carries the same numbers. The `clsm-doctor` binary (in the
//! bench crate) is a thin CLI over this.

use std::time::Duration;

use clsm_util::metrics::MetricsSnapshot;
use lsm_storage::store::WriteAmp;

use crate::admission::stage_name;
use crate::db::Db;
use crate::stats::render_write_path;
use crate::watchdog::{is_long_hold, StallEvent, EXCLUSIVE_HOLD_THRESHOLD};

/// A point-in-time health snapshot of an open database.
///
/// Everything here is sampled racily (the database keeps running), so
/// treat it as a diagnostic picture, not a consistent cut. Every number
/// — memtable fill, level shape, the WAL, oracle state, the exclusive
/// hold in progress, write admission, cache counts — is a metric of
/// [`DoctorReport::metrics`]; the report keeps beside it only what is
/// not a number.
#[derive(Debug, Clone)]
pub struct DoctorReport {
    /// Every registered metric ([`Db::metrics`]): the report's lines
    /// render from it.
    pub metrics: MetricsSnapshot,
    /// Recent watchdog verdicts, oldest first.
    pub stall_events: Vec<StallEvent>,
    /// The error of the last background job (flush or compaction) that
    /// failed, if any did; `db.background_errors` counts them.
    pub last_background_error: Option<String>,
    /// The error that made the store read-only ([`Db::read_only`]).
    pub read_only: Option<clsm_util::error::Error>,
}

impl Db {
    /// Gathers a [`DoctorReport`] from the running database.
    pub fn doctor(&self) -> DoctorReport {
        DoctorReport {
            metrics: self.metrics(),
            stall_events: self.stall_events(),
            last_background_error: self.inner.jobs.lock().last_error.clone(),
            read_only: self.read_only(),
        }
    }
}

impl DoctorReport {
    /// Renders the report as the text `clsm-doctor` prints.
    ///
    /// Line formats are stable enough to grep: level lines match
    /// `L<n>: <files> files, <bytes> bytes`, and L0's reads
    /// `L0: <files> files in <runs> runs, <bytes> bytes`.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let memtable_bytes = self.gauge("db.memtable_bytes");
        let capacity = self.gauge("db.memtable_capacity");
        let pct = 100.0 * memtable_bytes as f64 / capacity.max(1) as f64;
        let _ = writeln!(out, "== clsm-doctor ==");
        if let Some(e) = &self.read_only {
            let _ = writeln!(
                out,
                "mode: read-only ({e}): reads and snapshots work, every write fails with it; \
                 reopen to recover"
            );
        }
        let pending = if self.gauge("db.immutable_pending") != 0 {
            "yes"
        } else {
            "no"
        };
        let _ = writeln!(
            out,
            "memtable: {memtable_bytes} / {capacity} bytes ({pct:.1}% full), \
             immutable pending: {pending}"
        );
        let _ = writeln!(
            out,
            "level geometry (wal #{}, logging queue {} bytes):",
            self.gauge("storage.wal_number"),
            self.gauge("storage.wal_queue_bytes")
        );
        for level in 0.. {
            let Some(&files) = self
                .metrics
                .gauges
                .get(&format!("storage.level.{level}.files"))
            else {
                break;
            };
            let runs = match level {
                0 => format!(" in {} runs", self.gauge("storage.l0_runs")),
                _ => String::new(),
            };
            let bytes = self.gauge(&format!("storage.level.{level}.bytes"));
            let _ = writeln!(out, "  L{level}: {files} files{runs}, {bytes} bytes");
        }
        match self.gauge("oracle.live_snapshots") {
            0 => {
                let _ = writeln!(out, "snapshots: 0 live (GC unconstrained)");
            }
            live => {
                let _ = writeln!(
                    out,
                    "snapshots: {live} live, oldest ts {} (GC watermark), {} writes old",
                    self.gauge("oracle.oldest_snapshot_ts"),
                    self.gauge("oracle.oldest_snapshot_age")
                );
            }
        }
        let retired = self.gauge("storage.retired_table_bytes");
        if retired > 0 {
            let _ = writeln!(
                out,
                "retired tables: {retired} bytes pinned by older versions (held iterators)"
            );
        }
        let _ = writeln!(
            out,
            "oracle: timeCounter={} snapTime={} activeWrites={}/{}",
            self.gauge("oracle.time_counter"),
            self.gauge("oracle.snap_time"),
            self.active_writes(),
            self.active_slots()
        );
        if self.active_set_pressure() {
            let _ = writeln!(
                out,
                "active-set pressure: {} of {} slots in use (alarm at 3/4): \
                 getSnap's min-scan is expensive and getTS may soon find no free slot",
                self.active_writes(),
                self.active_slots()
            );
        }
        if let Some(held) = self.long_exclusive_hold() {
            let _ = writeln!(
                out,
                "exclusive-hold in progress: lock held {held:.1?} so far \
                 (threshold {EXCLUSIVE_HOLD_THRESHOLD:.1?})"
            );
        }
        let flushed = self.counter("storage.bytes_flushed");
        let compacted = self.counter("storage.bytes_compacted");
        let factor = WriteAmp { flushed, compacted }.factor();
        let _ = writeln!(
            out,
            "write amp: flushed={flushed} compacted={compacted} factor={factor:.2}"
        );
        if self.metrics.counters.contains_key("storage.cache_hits") {
            let hits = self.counter("storage.cache_hits");
            let misses = self.counter("storage.cache_misses");
            let rate = 100.0 * hits as f64 / (hits + misses).max(1) as f64;
            let _ = writeln!(
                out,
                "block cache: {hits} hits / {misses} misses ({rate:.1}% hit rate)"
            );
        }
        let _ = writeln!(
            out,
            "checksum: crc32c ({})",
            clsm_util::crc::implementation()
        );
        let _ = writeln!(
            out,
            "syscalls (env.real): write={} read={} sync={}",
            self.gauge("env.real.write_calls"),
            self.gauge("env.real.read_calls"),
            self.gauge("env.real.sync_calls")
        );
        let paced = self.gauge("admission.paced_bytes_per_sec");
        let stage = u8::try_from(self.gauge("admission.stage")).unwrap_or(0);
        let _ = writeln!(
            out,
            "admission: {} (behind {}, paced {paced} B/s) delayed={} delay={:.1?} hard stalls={}",
            ladder_rung(self.gauge("admission.stalled") != 0, paced),
            stage_name(stage),
            self.counter("admission.delayed_writes"),
            Duration::from_nanos(self.counter("admission.delay_ns")),
            self.counter("db.write_stalls")
        );
        if let Some(last) = &self.last_background_error {
            let _ = writeln!(out, "background jobs: last failure: {last}");
        }
        if let Some(rows) = render_write_path(&self.metrics) {
            out.push_str(&rows);
        }
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

    /// `true` when the store is read-only, a stall episode was
    /// reported, or an Active-set pressure or a long exclusive hold is
    /// under way — the doctor's one-bit verdict.
    pub fn unhealthy(&self) -> bool {
        self.read_only.is_some()
            || !self.stall_events.is_empty()
            || self.active_set_pressure()
            || self.long_exclusive_hold().is_some()
    }

    /// The oracle's `Active` set is at ¾ of its slots or more (rounded
    /// up, so never 0): slow or stuck writers make `getSnap` wait on an
    /// old minimum (§3.2).
    fn active_set_pressure(&self) -> bool {
        self.active_writes() >= (self.active_slots() * 3).div_ceil(4)
    }

    /// In-flight writes in the oracle's `Active` set
    /// (`oracle.active_writes`).
    fn active_writes(&self) -> usize {
        self.gauge("oracle.active_writes") as usize
    }

    /// Slot capacity of the `Active` set (`oracle.active_slots`).
    fn active_slots(&self) -> usize {
        self.gauge("oracle.active_slots") as usize
    }

    /// A gauge of [`DoctorReport::metrics`], 0 if it is not registered.
    fn gauge(&self, name: &str) -> i64 {
        self.metrics.gauges.get(name).copied().unwrap_or(0)
    }

    /// A counter of [`DoctorReport::metrics`], 0 if it is not registered.
    fn counter(&self, name: &str) -> u64 {
        self.metrics.counters.get(name).copied().unwrap_or(0)
    }

    /// The exclusive hold in progress
    /// (`db.exclusive_hold_in_progress_ns`), if it has already lasted
    /// [`EXCLUSIVE_HOLD_THRESHOLD`] or more.
    fn long_exclusive_hold(&self) -> Option<Duration> {
        let held = self.gauge("db.exclusive_hold_in_progress_ns");
        Some(Duration::from_nanos(held.max(0) as u64)).filter(|&held| is_long_hold(held))
    }
}

/// The rung of the admission ladder writes are on: `stall` while they
/// are in §5.3's hard stall, `paced` while a stage behind paces them at
/// `paced` bytes/s, else `open`.
fn ladder_rung(stalled: bool, paced: i64) -> &'static str {
    if stalled {
        "stall"
    } else if paced != 0 {
        "paced"
    } else {
        "open"
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
        rate("db.write_stalls"),
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

        let mut pressed = healthy.clone();
        let gauges = &mut pressed.metrics.gauges;
        gauges.insert("oracle.active_slots".into(), 256);
        let active = "oracle.active_writes".to_string();
        gauges.insert(active.clone(), 192);
        assert!(pressed.unhealthy());
        assert!(
            pressed
                .render()
                .contains("active-set pressure: 192 of 256 slots in use"),
            "{}",
            pressed.render()
        );
        let mut below = pressed;
        below.metrics.gauges.insert(active, 191);
        assert!(!below.unhealthy());
    }

    #[test]
    fn ladder_rungs() {
        assert_eq!(ladder_rung(false, 0), "open");
        assert_eq!(ladder_rung(false, 1 << 20), "paced");
        assert_eq!(ladder_rung(true, 1 << 20), "stall");
        assert_eq!(ladder_rung(true, 0), "stall");
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
