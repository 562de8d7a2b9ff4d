//! Shared sweep driver and CLI parsing for the figure binaries.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use clsm::Options;
use clsm_baselines::KvStore;
use clsm_util::error::Result;
use clsm_workloads::{run_workload, Prefill, RunConfig, RunResult, WorkloadSpec};

use crate::report::Table;
use crate::systems::System;

/// Command-line arguments shared by all figure binaries.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Quick mode (default): small dataset, short cells — finishes in
    /// a couple of minutes. `--full` scales everything up.
    pub quick: bool,
    /// Seconds per measured cell.
    pub seconds: f64,
    /// Worker-thread sweep.
    pub threads: Vec<usize>,
    /// Where result CSVs go.
    pub out_dir: PathBuf,
    /// Scratch directory for store files.
    pub data_dir: PathBuf,
    /// RNG seed.
    pub seed: u64,
    /// Repetitions per measured cell (`--repeat N`); binaries that
    /// honor it report the median rep, which tames scheduler noise on
    /// small machines.
    pub repeat: usize,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            quick: true,
            seconds: 1.0,
            threads: vec![1, 2, 4, 8, 16],
            out_dir: PathBuf::from("bench-results"),
            data_dir: std::env::temp_dir().join(format!("clsm-bench-{}", std::process::id())),
            seed: 0xc15a,
            repeat: 1,
        }
    }
}

/// Parses `std::env::args()`; exits with usage on error.
pub fn parse_args() -> BenchArgs {
    let mut args = BenchArgs::default();
    let mut iter = std::env::args().skip(1);
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--full" => {
                args.quick = false;
                args.seconds = args.seconds.max(3.0);
            }
            "--seconds" => {
                args.seconds = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seconds needs a number"));
            }
            "--threads" => {
                let spec = iter
                    .next()
                    .unwrap_or_else(|| usage("--threads needs a list"));
                args.threads = spec
                    .split(',')
                    .map(|t| t.parse().unwrap_or_else(|_| usage("bad thread count")))
                    .collect();
            }
            "--out" => {
                args.out_dir =
                    PathBuf::from(iter.next().unwrap_or_else(|| usage("--out needs a path")));
            }
            "--seed" => {
                args.seed = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
            }
            "--repeat" => {
                args.repeat = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--repeat needs a count >= 1"));
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    args
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: fig* [--quick|--full] [--seconds N] [--threads 1,2,4,...] [--out DIR] [--seed N] \
         [--repeat N]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

impl BenchArgs {
    /// Key-space size scaled by mode.
    pub fn key_space(&self) -> u64 {
        if self.quick {
            60_000
        } else {
            1_000_000
        }
    }

    /// Duration of one measured cell.
    pub fn cell(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Store options scaled for benchmarking (memtable per the paper's
    /// 128 MiB default, scaled down in quick mode).
    pub fn store_options(&self) -> Options {
        let mut opts = Options::default();
        if self.quick {
            // Sized so a quick-mode measurement cell stays
            // memtable-resident, as the paper's 128 MiB default does for
            // full-length runs. A smaller memtable makes every quick cell
            // flush-bound, and on a box with few cores the flush thread's
            // CPU share shrinks as writer threads are added — the sweep
            // then measures flush starvation, not the write path. The
            // flush/compaction-bound regimes are measured by fig8, fig11,
            // and ablate_compaction_threads, which set their own sizes.
            opts.memtable_bytes = 16 * 1024 * 1024;
            opts.store.table_file_size = 2 * 1024 * 1024;
            opts.store.base_level_bytes = 16 * 1024 * 1024;
            opts.store.block_cache_bytes = 64 * 1024 * 1024;
        } else {
            opts.memtable_bytes = 128 * 1024 * 1024;
            opts.store.block_cache_bytes = 512 * 1024 * 1024;
        }
        opts
    }

    /// A fresh scratch subdirectory.
    pub fn scratch(&self, name: &str) -> Result<PathBuf> {
        let p = self.data_dir.join(name);
        if p.exists() {
            std::fs::remove_dir_all(&p)?;
        }
        std::fs::create_dir_all(&p)?;
        Ok(p)
    }
}

/// Measured value to plot per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Operations per second (× 10³ — the paper's usual axis).
    KopsPerSec,
    /// Keys per second (× 10³ — Figure 7b's axis).
    KkeysPerSec,
    /// 90th-percentile latency (µs) — Figures 5b/6b.
    P90LatencyUs,
}

impl Metric {
    /// Extracts the metric from a run result.
    pub fn extract(&self, r: &RunResult) -> f64 {
        match self {
            Metric::KopsPerSec => r.ops_per_sec() / 1000.0,
            Metric::KkeysPerSec => r.keys_per_sec() / 1000.0,
            Metric::P90LatencyUs => r.p90_latency_us(),
        }
    }
}

/// Sweeps `threads` for each system: opens each system once, prefills
/// once, then measures every thread count on the same store (as the
/// paper does — the dataset persists across the sweep).
pub fn sweep_threads(
    args: &BenchArgs,
    figure: &str,
    systems: &[&'static dyn System],
    spec: &WorkloadSpec,
    metrics: &[(Metric, &str)],
) -> Result<Vec<Table>> {
    let columns: Vec<String> = args.threads.iter().map(|t| t.to_string()).collect();
    let mut tables: Vec<Table> = metrics
        .iter()
        .map(|(_, label)| Table::new(&format!("{figure} — {label}"), "threads", columns.clone()))
        .collect();

    for &sys in systems {
        let dir = args.scratch(&format!("{}-{}", figure_slug(figure), sys.name()))?;
        let store = sys.open(&dir, args.store_options())?;
        eprintln!(
            "[{}] prefilling {} ({} keys)…",
            figure,
            sys.name(),
            spec.prefill
        );
        clsm_workloads::runner::prefill_store(store.as_ref(), spec)?;
        for (col, &threads) in args.threads.iter().enumerate() {
            let cfg = RunConfig {
                threads,
                duration: args.cell(),
                seed: args.seed,
            };
            let r = run_one(&store, spec, &cfg)?;
            eprintln!(
                "[{}] {:<18} threads={:<3} {:>10.1} ops/s  p90={:.1}µs",
                figure,
                sys.name(),
                threads,
                r.ops_per_sec(),
                r.p90_latency_us()
            );
            for (t, (metric, _)) in tables.iter_mut().zip(metrics) {
                t.set(sys.name(), col, metric.extract(&r));
            }
        }
        store.quiesce()?;
        emit_metrics(args, figure, store.as_ref())?;
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    Ok(tables)
}

/// Prints a system's metrics snapshot and persists its text as
/// `<figure>-<system>.metrics.txt` next to the CSV artifacts. Systems
/// without a metrics registry (the baselines) are skipped silently.
pub(crate) fn emit_metrics(args: &BenchArgs, figure: &str, store: &dyn KvStore) -> Result<()> {
    let snapshot = store.stats();
    if snapshot.counters.is_empty() && snapshot.histograms.is_empty() {
        return Ok(());
    }
    let text = snapshot.to_text();
    eprintln!("[{}] {} metrics:\n{}", figure, store.name(), text);
    let name = format!("{}-{}", figure_slug(figure), figure_slug(store.name()));
    std::fs::create_dir_all(&args.out_dir)?;
    let path = args.out_dir.join(format!("{name}.metrics.txt"));
    std::fs::write(&path, text)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Runs one measured cell (no prefill — done by the sweep).
pub fn run_one(
    store: &Arc<dyn KvStore>,
    spec: &WorkloadSpec,
    cfg: &RunConfig,
) -> Result<RunResult> {
    run_workload(store, spec, cfg, Prefill::Skip)
}

fn figure_slug(figure: &str) -> String {
    figure
        .chars()
        .map(|c| {
            if c.is_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

/// Prints and persists a set of tables.
pub fn emit(args: &BenchArgs, tables: &[Table]) -> Result<()> {
    for t in tables {
        t.print();
        let path = t.to_csv(&args.out_dir)?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}
