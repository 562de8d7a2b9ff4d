//! Runs one workload from set-up to read-back and returns everything
//! that was measured. The phases are the same for all four workloads:
//! set-up (×3) → warm-up → timed window → compact to quiescence →
//! amplification → close → reopen → read-back → (traced) layer probes.

use std::sync::Arc;
use std::time::Instant;

use clsm::{Db, MetricsSnapshot, WriteBatch, WriteOptions};

use crate::config::{self, Sizes};
use crate::counting_env::EnvSnapshot;
use crate::harness::{
    self, dir_bytes, Bench, Ctl, ReadBack, Recorder, Result, RunArgs, Tick, Versions,
};
use crate::net_open::NetOpen;
use crate::probes::{self, ProbeResults};
use crate::workloads::{self, IngestThread, ProdMixThread, ScanRmwThread};

/// The four workload names, in running order.
pub const WORKLOADS: [&str; 4] = ["ingest", "prod-mix", "scan-rmw", "net-open"];

/// CPU seconds of this process, from `/proc/self/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTimes {
    /// User-mode seconds.
    pub user_s: f64,
    /// Kernel-mode seconds.
    pub sys_s: f64,
}

impl CpuTimes {
    /// The whole process, every thread it ever ran (zero when `/proc`
    /// is unavailable).
    pub fn now() -> CpuTimes {
        Self::read("/proc/self/stat")
    }

    /// The calling thread alone.
    pub fn of_this_thread() -> CpuTimes {
        Self::read("/proc/thread-self/stat")
    }

    /// User plus kernel seconds.
    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    fn read(path: &str) -> CpuTimes {
        let stat = std::fs::read_to_string(path).unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime
        // are the 14th and 15th of the line, in 100 Hz ticks.
        let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let mut fields = rest.split_whitespace().skip(11);
        let mut ticks = || {
            fields
                .next()
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        CpuTimes {
            user_s: ticks() / 100.0,
            sys_s: ticks() / 100.0,
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Public-accessor readings at one instant of a traced run.
#[derive(Debug, Clone, Default)]
pub struct Reading {
    /// `Db::metrics()`.
    pub metrics: MetricsSnapshot,
    /// `CountingEnv` counters.
    pub env: EnvSnapshot,
    /// `Db::cache_stats()`.
    pub cache: (u64, u64),
}

/// Watches the timed window of a traced run through the store's public
/// accessors: a full reading at its start and end, level shape at 1 Hz.
#[derive(Debug, Default)]
pub struct Observer {
    enabled: bool,
    /// Reading when the window opened.
    pub start: Reading,
    /// Reading when the load was told to stop.
    pub end: Reading,
    /// Largest L0 file count seen.
    pub l0_files_max: usize,
    /// Process CPU times when the window opened and when the load was
    /// told to stop (every run).
    pub cpu: (CpuTimes, CpuTimes),
}

impl Observer {
    /// An observer that only looks when `enabled` (the traced run).
    pub fn new(enabled: bool) -> Observer {
        Observer {
            enabled,
            ..Observer::default()
        }
    }

    fn reading(bench: &Bench) -> Reading {
        Reading {
            metrics: bench.db.metrics(),
            env: bench.env.snapshot(),
            cache: bench.db.cache_stats().unwrap_or_default(),
        }
    }

    /// Reacts to one moment of the window.
    pub fn tick(&mut self, bench: &Bench, tick: Tick) {
        match tick {
            Tick::Start => self.cpu.0 = CpuTimes::now(),
            Tick::End => self.cpu.1 = CpuTimes::now(),
            Tick::Second => {}
        }
        if !self.enabled {
            return;
        }
        match tick {
            Tick::Start => self.start = Self::reading(bench),
            Tick::End => self.end = Self::reading(bench),
            Tick::Second => {}
        }
        let l0 = bench.db.level_file_counts().first().copied().unwrap_or(0);
        self.l0_files_max = self.l0_files_max.max(l0);
    }
}

/// What differs between the workloads.
pub trait Workload {
    /// Frozen sizes.
    fn sizes(&self) -> Sizes;

    /// Fills a fresh store before the warm-up; returns user bytes
    /// written.
    fn fill(&self, db: &Db) -> Result<u64> {
        harness::prefill(db, &self.sizes())
    }

    /// Live user bytes beyond the data keys (e.g. RMW counters).
    fn extra_live_bytes(&self) -> u64 {
        0
    }

    /// Warm-up plus timed window against `bench`; returns the load
    /// threads' recorders and the window's exact length in seconds.
    fn load(
        &mut self,
        bench: &Bench,
        args: &RunArgs,
        ctl: &Arc<Ctl>,
        versions: &Arc<Versions>,
        observer: &mut Observer,
    ) -> Result<(Vec<Recorder>, f64)>;

    /// Checks workload invariants on the reopened store; returns
    /// `(attempted, failure messages)`.
    fn final_check(&mut self, _db: &Db) -> (u64, Vec<String>) {
        (0, Vec::new())
    }

    /// Workload-specific per-layer metrics as `(name, value)`.
    fn layer_metrics(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// CPU seconds of the timed window spent by threads that only
    /// generate load (the open loop's sender); left out of
    /// `cpu_us_per_op`.
    fn generator_cpu_s(&self) -> f64 {
        0.0
    }
}

fn closed_loop<T: harness::LoadThread>(
    bench: &Bench,
    args: &RunArgs,
    ctl: &Arc<Ctl>,
    observer: &mut Observer,
    threads: &mut [T],
) -> (Vec<Recorder>, f64) {
    harness::run_closed_loop(&bench.db, args, ctl, threads, |tick| {
        observer.tick(bench, tick)
    })
}

struct Ingest;

impl Workload for Ingest {
    fn sizes(&self) -> Sizes {
        config::INGEST
    }

    fn load(
        &mut self,
        bench: &Bench,
        args: &RunArgs,
        ctl: &Arc<Ctl>,
        versions: &Arc<Versions>,
        observer: &mut Observer,
    ) -> Result<(Vec<Recorder>, f64)> {
        let mut threads = IngestThread::all(args.seed, versions);
        Ok(closed_loop(bench, args, ctl, observer, &mut threads))
    }
}

struct ProdMix;

impl Workload for ProdMix {
    fn sizes(&self) -> Sizes {
        config::PROD_MIX
    }

    fn load(
        &mut self,
        bench: &Bench,
        args: &RunArgs,
        ctl: &Arc<Ctl>,
        versions: &Arc<Versions>,
        observer: &mut Observer,
    ) -> Result<(Vec<Recorder>, f64)> {
        let mut threads = ProdMixThread::all(args.seed, versions);
        Ok(closed_loop(bench, args, ctl, observer, &mut threads))
    }
}

#[derive(Default)]
struct ScanRmw {
    closure_calls: u64,
    committed: u64,
}

impl Workload for ScanRmw {
    fn sizes(&self) -> Sizes {
        config::SCAN_RMW
    }

    fn fill(&self, db: &Db) -> Result<u64> {
        let mut bytes = harness::prefill(db, &self.sizes())?;
        // In batches no larger than the prefill's: a batch holds one
        // Active-set slot per entry until it commits, and one of more
        // entries than `Options::active_slots` (256) never returns.
        let counters: Vec<u64> = (0..config::RMW_COUNTERS).collect();
        for chunk in counters.chunks(config::PREFILL_BATCH as usize) {
            let mut batch = WriteBatch::new();
            for counter in chunk {
                let key = workloads::counter_key(*counter);
                bytes += key.len() as u64 + 8;
                batch.put(key, 0u64.to_le_bytes().to_vec());
            }
            db.write(batch, &WriteOptions::new())
                .map_err(|e| format!("prefill counters: {e}"))?;
        }
        Ok(bytes)
    }

    fn extra_live_bytes(&self) -> u64 {
        config::RMW_COUNTERS * (16 + 8)
    }

    fn load(
        &mut self,
        bench: &Bench,
        args: &RunArgs,
        ctl: &Arc<Ctl>,
        versions: &Arc<Versions>,
        observer: &mut Observer,
    ) -> Result<(Vec<Recorder>, f64)> {
        let mut threads = ScanRmwThread::all(args.seed, versions);
        let out = closed_loop(bench, args, ctl, observer, &mut threads);
        self.closure_calls = threads.iter().map(|t| t.closure_calls).sum();
        self.committed = threads.iter().map(|t| t.committed).sum();
        Ok(out)
    }

    /// Σ counters must equal the RMWs that committed.
    fn final_check(&mut self, db: &Db) -> (u64, Vec<String>) {
        let failures = match workloads::counter_sum(db) {
            Ok(sum) if sum == self.committed => Vec::new(),
            Ok(sum) => vec![format!(
                "counters sum to {sum}, but {} RMWs committed",
                self.committed
            )],
            Err(e) => vec![e],
        };
        (1, failures)
    }

    fn layer_metrics(&self) -> Vec<(&'static str, f64)> {
        vec![(
            "clsm.rmw.attempts_per_op",
            self.closure_calls as f64 / self.committed.max(1) as f64,
        )]
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Median set-up time.
    pub setup_s: f64,
    /// Exact length of the timed window.
    pub window_s: f64,
    /// One recorder per load thread.
    pub recorders: Vec<Recorder>,
    /// Window readings of the traced run.
    pub observer: Observer,
    /// Final `compact_to_quiescence()` time.
    pub quiesce_s: f64,
    /// Device bytes written ÷ user bytes, whole run, after quiescence.
    pub write_amp: f64,
    /// (Referenced table bytes + WAL + manifest) ÷ live user bytes,
    /// after quiescence.
    pub space_amp: f64,
    /// Share of the directory's bytes in tables no version references,
    /// after quiescence.
    pub garbage_frac: f64,
    /// Process CPU seconds of the timed window, without threads that
    /// only generate load.
    pub cpu_s: f64,
    /// User bytes of every acknowledged write including the prefill.
    pub user_bytes: u64,
    /// Device counters of the whole run, after quiescence.
    pub env_total: EnvSnapshot,
    /// `Db::level_file_counts()` after quiescence.
    pub level_files: Vec<usize>,
    /// Close → reopen → read-back.
    pub read_back: ReadBack,
    /// Workload invariant checks: `(attempted, failure messages)`.
    pub final_check: (u64, Vec<String>),
    /// Workload-specific per-layer metrics.
    pub workload_layers: Vec<(&'static str, f64)>,
    /// `VmHWM` before the probes ran.
    pub peak_rss_mib: f64,
    /// Layer probes (traced run only).
    pub probes: Option<ProbeResults>,
}

/// Runs the workload named in `args`.
pub fn run(args: &RunArgs) -> Result<Outcome> {
    match args.workload.as_str() {
        "ingest" => run_workload(&mut Ingest, args),
        "prod-mix" => run_workload(&mut ProdMix, args),
        "scan-rmw" => run_workload(&mut ScanRmw::default(), args),
        "net-open" => run_workload(&mut NetOpen::new(args), args),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

fn run_workload(workload: &mut dyn Workload, args: &RunArgs) -> Result<Outcome> {
    let sizes = workload.sizes();
    let versions = Arc::new(Versions::new(&sizes));
    let bench = harness::setup(args, |db| workload.fill(db))?;
    let ctl = Ctl::new();
    let mut observer = Observer::new(args.trace);

    let (recorders, window_s) = workload.load(&bench, args, &ctl, &versions, &mut observer)?;
    let Bench {
        db,
        env,
        dir,
        setup_s,
        prefill_bytes,
    } = bench;

    let began = Instant::now();
    db.compact_to_quiescence()
        .map_err(|e| format!("final quiesce: {e}"))?;
    let quiesce_s = began.elapsed().as_secs_f64();
    let env_total = env.snapshot();
    let user_bytes = prefill_bytes + recorders.iter().map(|r| r.user_bytes).sum::<u64>();
    let live_bytes =
        versions.written_keys().len() as u64 * sizes.pair_bytes() + workload.extra_live_bytes();
    let write_amp = env_total.write_bytes() as f64 / user_bytes.max(1) as f64;
    // Tables the current version references. Tables it no longer does
    // stay in the directory until the flush or compaction after their
    // epoch-deferred old versions drop; how many is a race, so they
    // are reported on their own and kept out of `space_amp`. The store
    // is quiescent: the memory share of `approximate_size` is the
    // empty memtable's arena.
    let whole_key_range = (&[][..], &[0xff; 64][..]);
    let live_tables = db
        .approximate_size(whole_key_range.0, whole_key_range.1)
        .saturating_sub(db.memtable_bytes() as u64);
    let (dir_tables, dir_other) = dir_bytes(&dir)?;
    let space_amp = (live_tables + dir_other) as f64 / live_bytes.max(1) as f64;
    let garbage_frac =
        dir_tables.saturating_sub(live_tables) as f64 / (dir_tables + dir_other).max(1) as f64;
    let level_files = db.level_file_counts();

    // Close: the load has stopped, so this is the last handle.
    drop(Arc::try_unwrap(db).map_err(|_| "store still shared after the load stopped")?);
    let (db, read_back) = harness::reopen_and_read_back(&dir, &env, &sizes, &versions, args.seed)?;
    let final_check = workload.final_check(&db);
    let peak_rss_mib = peak_rss_mib();

    let probes = if args.trace {
        Some(probes::run(db, &env, &dir, &sizes, &recorders, &read_back)?)
    } else {
        drop(db);
        None
    };
    harness::remove_dir(&dir)?;

    let cpu_s = observer.cpu.1.total_s() - observer.cpu.0.total_s() - workload.generator_cpu_s();
    Ok(Outcome {
        setup_s,
        window_s,
        workload_layers: workload.layer_metrics(),
        recorders,
        observer,
        quiesce_s,
        write_amp,
        space_amp,
        garbage_frac,
        cpu_s,
        user_bytes,
        env_total,
        level_files,
        read_back,
        final_check,
        peak_rss_mib,
        probes,
    })
}
