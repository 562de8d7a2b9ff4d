//! The canonical perf suite behind the `bench-suite` binary:
//! a fixed matrix of measured cells emitted as one machine-readable
//! `BENCH_<label>.json`, plus the comparator that turns two such files
//! into per-metric deltas and a pass/fail regression verdict.
//!
//! The JSON schema is versioned ([`SCHEMA_VERSION`]); the comparator
//! refuses to diff files written under a different version, so a
//! schema change can never silently report "no regression". Everything
//! is hand-rolled — the workspace has no serde, and the subset of JSON
//! the suite needs (objects, arrays, strings, numbers, bools) fits in
//! the small recursive-descent parser at the bottom of this module.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use clsm::{Options, WritePathReport};
use clsm_baselines::KvStore;
use clsm_util::error::{Error, Result};
use clsm_workloads::runner::prefill_store;
use clsm_workloads::{run_workload, Prefill, RunConfig, RunResult, WorkloadSpec};

use crate::stability::StabilityResult;

/// Version stamp written into every `BENCH_*.json`. Bump on any field
/// change; [`compare`] rejects mismatched versions outright.
///
/// History: 1 = the original matrix-only schema; 2 added the
/// `stability` section (per-window time series + variance summary);
/// 3 added the `net` section (client-observed loopback TCP cells);
/// 4 dropped the commit-pipeline axis (`gc-on`/`gc-off` in cell ids,
/// the per-cell pipeline flag and the `commit` mode counters);
/// 5 dropped the shard axis (`.sN` in cell ids, the per-cell `shards`
/// field).
pub const SCHEMA_VERSION: u32 = 5;

/// One cell of the canonical matrix: a workload at a fixed
/// configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSpec {
    /// Workload name (`write-100` or `mixed-50-50`).
    pub workload: &'static str,
    /// Worker threads driving the store.
    pub threads: usize,
}

impl CellSpec {
    /// Stable cell identifier; [`compare`] matches cells by this.
    pub fn id(&self) -> String {
        format!("{}.t{}", self.workload, self.threads)
    }
}

/// The canonical matrix. `smoke` is the CI-sized subset: write-only at
/// 1–2 threads plus one mixed cell. The full matrix sweeps both
/// workloads 1→8 threads.
pub fn canonical_matrix(smoke: bool) -> Vec<CellSpec> {
    let write_threads: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let mixed_threads: &[usize] = if smoke { &[2] } else { &[1, 2, 4, 8] };
    let mut cells = Vec::new();
    for (workload, threads) in [("write-100", write_threads), ("mixed-50-50", mixed_threads)] {
        cells.extend(
            threads
                .iter()
                .map(|&threads| CellSpec { workload, threads }),
        );
    }
    cells
}

/// Suite-wide knobs resolved from the CLI.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// CI-sized matrix and durations.
    pub smoke: bool,
    /// Label baked into the artifact name and JSON.
    pub label: String,
    /// Seconds per measured cell.
    pub seconds: f64,
    /// RNG seed for the workload drivers.
    pub seed: u64,
    /// Distinct keys per cell.
    pub key_space: u64,
    /// Also measure the networked (loopback TCP) cells.
    pub net: bool,
    /// Ensure the write-scaling cells ([`scaling_cells`]) are in the
    /// matrix (the full matrix already contains them; smoke only has
    /// the 1- and 2-thread points).
    pub scaling: bool,
}

impl SuiteConfig {
    /// Defaults for the given mode (`--seconds` can override).
    pub fn new(smoke: bool, label: &str) -> SuiteConfig {
        SuiteConfig {
            smoke,
            label: label.to_string(),
            seconds: if smoke { 0.2 } else { 1.0 },
            seed: 0xc15a,
            key_space: if smoke { 20_000 } else { 60_000 },
            net: false,
            scaling: false,
        }
    }
}

/// The write-scaling cells: write-only, 1→8 threads. `--scaling`
/// appends whichever of these the matrix is
/// missing and the summary gate reads the resulting curve.
pub fn scaling_cells() -> Vec<CellSpec> {
    [1usize, 2, 4, 8]
        .iter()
        .map(|&threads| CellSpec {
            workload: "write-100",
            threads,
        })
        .collect()
}

/// Scaling-gate tolerance: each step up in threads (through 4) may
/// lose at most this fraction of the previous point's throughput.
/// Extra writer threads cannot speed anything up on a small CI box,
/// but they must not collide on the write path either — the
/// serialization bugs this gate exists for (a hot Active-set lock, a
/// shared arena mutex, one WAL queue) cost well over 10%.
pub const SCALING_TOLERANCE: f64 = 0.9;

/// The write-scaling curve pulled out of a report, plus the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingSummary {
    /// `(threads, kops_per_sec)` sorted by thread count.
    pub points: Vec<(usize, f64)>,
    /// Whether every step through 4 threads kept at least
    /// [`SCALING_TOLERANCE`] of the previous point's throughput.
    pub passed: bool,
}

/// Reads the [`scaling_cells`] measurements out of `report`. Returns
/// `None` when fewer than two scaling cells are present (nothing to
/// gate — e.g. a smoke run without `--scaling`).
pub fn scaling_summary(report: &SuiteReport) -> Option<ScalingSummary> {
    let mut points: Vec<(usize, f64)> = scaling_cells()
        .iter()
        .filter_map(|spec| {
            let id = spec.id();
            report
                .cells
                .iter()
                .find(|c| c.id == id)
                .map(|c| (spec.threads, c.kops_per_sec))
        })
        .collect();
    points.sort_by_key(|&(t, _)| t);
    if points.len() < 2 {
        return None;
    }
    let passed = points
        .windows(2)
        .filter(|w| w[1].0 <= 4)
        .all(|w| w[1].1 >= SCALING_TOLERANCE * w[0].1);
    Some(ScalingSummary { points, passed })
}

impl ScalingSummary {
    /// Human-readable block: one line per point with its ratio to the
    /// single-thread baseline, then the verdict. The 8-thread ratio is
    /// reported but never gated — a genuine 8-way speedup needs more
    /// cores than CI guarantees.
    pub fn text(&self) -> String {
        let mut out = String::from("write scaling (write-100):\n");
        let base = self.points.first().map_or(0.0, |&(_, k)| k);
        for &(threads, kops) in &self.points {
            let _ = writeln!(
                out,
                "  t{threads}: {kops:>8.1} kops/s  ({:.2}x t{})",
                if base > 0.0 { kops / base } else { 0.0 },
                self.points[0].0
            );
        }
        let _ = writeln!(
            out,
            "scaling gate (each step through t4 >= {SCALING_TOLERANCE}x previous): {}",
            if self.passed { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// One networked cell: the same store behind `clsm-server` on
/// loopback, driven through the pipelined client, so every latency in
/// the histogram is **client-observed** (client queueing + wire +
/// server dispatch + store).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetCellSpec {
    /// Workload name (`write-100` or `mixed-50-50`).
    pub workload: &'static str,
    /// Client worker threads driving the remote store.
    pub threads: usize,
    /// TCP connections in the client pool.
    pub connections: usize,
    /// Per-connection pipeline depth.
    pub pipeline_depth: usize,
}

impl NetCellSpec {
    /// Stable cell identifier; [`compare`] matches net cells by this.
    pub fn id(&self) -> String {
        format!(
            "net.{}.t{}.c{}.d{}",
            self.workload, self.threads, self.connections, self.pipeline_depth
        )
    }
}

/// The networked matrix. Smoke keeps one write and one mixed cell;
/// the full matrix sweeps client threads on both workloads.
pub fn net_matrix(smoke: bool) -> Vec<NetCellSpec> {
    let threads: &[usize] = if smoke { &[4] } else { &[1, 2, 4, 8] };
    let mut cells = Vec::new();
    for &workload in &["write-100", "mixed-50-50"] {
        for &t in threads {
            cells.push(NetCellSpec {
                workload,
                threads: t,
                connections: if smoke { 2 } else { 4 },
                pipeline_depth: if smoke { 32 } else { 64 },
            });
        }
    }
    cells
}

/// One measured networked cell.
#[derive(Debug, Clone, PartialEq)]
pub struct NetCellResult {
    /// Stable cell id ([`NetCellSpec::id`]).
    pub id: String,
    /// Workload name.
    pub workload: String,
    /// Client worker threads.
    pub threads: usize,
    /// TCP connections in the pool.
    pub connections: usize,
    /// Per-connection pipeline depth.
    pub pipeline_depth: usize,
    /// Completed operations.
    pub ops: u64,
    /// Measured wall-clock seconds.
    pub elapsed_s: f64,
    /// Client-observed throughput, thousands of ops per second.
    pub kops_per_sec: f64,
    /// Client-observed median latency, microseconds.
    pub p50_us: f64,
    /// Client-observed 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Client-observed 99.9th-percentile latency, microseconds.
    pub p999_us: f64,
}

impl NetCellResult {
    /// Builds a net cell result from a finished run.
    pub fn new(spec: &NetCellSpec, run: &RunResult) -> NetCellResult {
        NetCellResult {
            id: spec.id(),
            workload: spec.workload.to_string(),
            threads: spec.threads,
            connections: spec.connections,
            pipeline_depth: spec.pipeline_depth,
            ops: run.ops,
            elapsed_s: run.elapsed.as_secs_f64(),
            kops_per_sec: run.ops_per_sec() / 1000.0,
            p50_us: run.latency.percentile(50.0) as f64 / 1000.0,
            p99_us: run.latency.percentile(99.0) as f64 / 1000.0,
            p999_us: run.latency.percentile(99.9) as f64 / 1000.0,
        }
    }
}

/// One write-path stage's summary inside a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// Stage name (`admission` … `durable`, plus `total`).
    pub name: String,
    /// Samples recorded during the cell.
    pub count: u64,
    /// Aggregate nanoseconds spent in the stage.
    pub sum_ns: u64,
    /// Mean nanoseconds per sample.
    pub mean_ns: f64,
    /// Median nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile nanoseconds.
    pub p99_ns: u64,
}

/// One measured cell's results.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Stable cell id ([`CellSpec::id`]).
    pub id: String,
    /// Workload name.
    pub workload: String,
    /// Worker threads.
    pub threads: usize,
    /// Completed operations.
    pub ops: u64,
    /// Measured wall-clock seconds.
    pub elapsed_s: f64,
    /// Throughput in thousands of operations per second.
    pub kops_per_sec: f64,
    /// Median operation latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile operation latency, microseconds.
    pub p99_us: f64,
    /// 99.9th-percentile operation latency, microseconds.
    pub p999_us: f64,
    /// Per-stage write-path breakdown (empty when attribution is off).
    pub stages: Vec<StageRow>,
}

impl CellResult {
    /// Builds a cell result from the run and the store's metrics
    /// snapshot taken right after it.
    pub fn new(
        spec: &CellSpec,
        run: &RunResult,
        snapshot: &clsm_util::metrics::MetricsSnapshot,
    ) -> CellResult {
        let wp = WritePathReport::from_snapshot(snapshot);
        let mut stages: Vec<StageRow> = wp
            .stages
            .iter()
            .map(|s| StageRow {
                name: s.name.to_string(),
                count: s.summary.count,
                sum_ns: s.summary.sum,
                mean_ns: s.summary.mean,
                p50_ns: s.summary.p50,
                p99_ns: s.summary.p99,
            })
            .collect();
        if let Some(total) = &wp.total {
            stages.push(StageRow {
                name: "total".to_string(),
                count: total.count,
                sum_ns: total.sum,
                mean_ns: total.mean,
                p50_ns: total.p50,
                p99_ns: total.p99,
            });
        }
        CellResult {
            id: spec.id(),
            workload: spec.workload.to_string(),
            threads: spec.threads,
            ops: run.ops,
            elapsed_s: run.elapsed.as_secs_f64(),
            kops_per_sec: run.ops_per_sec() / 1000.0,
            p50_us: run.latency.percentile(50.0) as f64 / 1000.0,
            p99_us: run.latency.percentile(99.0) as f64 / 1000.0,
            p999_us: run.latency.percentile(99.9) as f64 / 1000.0,
            stages,
        }
    }
}

/// Environment fingerprint written into the artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvFingerprint {
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Available parallelism at run time.
    pub cpus: usize,
    /// `true` for a debug (unoptimized) build.
    pub debug: bool,
}

impl EnvFingerprint {
    /// Samples the current process's environment.
    pub fn current() -> EnvFingerprint {
        EnvFingerprint {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism().map_or(1, usize::from),
            debug: cfg!(debug_assertions),
        }
    }
}

/// A whole suite run: everything `BENCH_<label>.json` holds.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteReport {
    /// Artifact label (`BENCH_<label>.json`).
    pub label: String,
    /// `smoke` or `full`.
    pub mode: String,
    /// Seconds per measured cell.
    pub seconds: f64,
    /// Distinct keys per cell.
    pub key_space: u64,
    /// Where the run happened.
    pub env: EnvFingerprint,
    /// The measured cells, in matrix order.
    pub cells: Vec<CellResult>,
    /// Networked (loopback TCP) cells (`--net`); empty when the run
    /// measured only the in-process matrix.
    pub net: Vec<NetCellResult>,
    /// Long-run stability cells (`--stability`); empty when the run
    /// measured only the matrix.
    pub stability: Vec<StabilityResult>,
}

/// Runs one cell on a fresh store under `data_dir` (removed
/// afterwards), returning its measurements plus stage breakdown.
pub fn run_cell(spec: &CellSpec, cfg: &SuiteConfig, data_dir: &Path) -> Result<CellResult> {
    let dir = data_dir.join(spec.id());
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    let store: Arc<dyn KvStore> = Arc::new(clsm::Db::open(&dir, suite_store_options())?);
    let workload = match spec.workload {
        "mixed-50-50" => WorkloadSpec::mixed(cfg.key_space),
        _ => WorkloadSpec::write_only(cfg.key_space),
    };
    prefill_store(store.as_ref(), &workload)?;
    let run = run_workload(
        &store,
        &workload,
        &RunConfig {
            threads: spec.threads,
            duration: Duration::from_secs_f64(cfg.seconds),
            seed: cfg.seed,
        },
        Prefill::Skip,
    )?;
    // A fresh store per cell keeps the cumulative counters scoped to
    // this cell (plus its prefill).
    let snapshot = store.stats();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(CellResult::new(spec, &run, &snapshot))
}

/// Runs one networked cell: a fresh store behind an embedded loopback
/// server, prefilled locally (the wire measures the workload, not the
/// prefill), then driven through the pipelined client.
pub fn run_net_cell(
    spec: &NetCellSpec,
    cfg: &SuiteConfig,
    data_dir: &Path,
) -> Result<NetCellResult> {
    let dir = data_dir.join(spec.id());
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    let db: Arc<dyn KvStore> = Arc::new(clsm::Db::open(&dir, suite_store_options())?);
    let workload = match spec.workload {
        "mixed-50-50" => WorkloadSpec::mixed(cfg.key_space),
        _ => WorkloadSpec::write_only(cfg.key_space),
    };
    prefill_store(db.as_ref(), &workload)?;
    let net = clsm_net::NetOptions::builder()
        .addr("127.0.0.1:0")
        .workers(2)
        .connections(spec.connections)
        .pipeline_depth(spec.pipeline_depth)
        .build()?;
    let remote: Arc<dyn KvStore> = Arc::new(clsm_net::RemoteStore::with_embedded_server(db, &net)?);
    let run = run_workload(
        &remote,
        &workload,
        &RunConfig {
            threads: spec.threads,
            duration: Duration::from_secs_f64(cfg.seconds),
            seed: cfg.seed,
        },
        Prefill::Skip,
    )?;
    drop(remote);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(NetCellResult::new(spec, &run))
}

/// Runs the whole matrix, with progress on stderr.
pub fn run_suite(cfg: &SuiteConfig, data_dir: &Path) -> Result<SuiteReport> {
    let mut matrix = canonical_matrix(cfg.smoke);
    if cfg.scaling {
        for spec in scaling_cells() {
            if !matrix.contains(&spec) {
                matrix.push(spec);
            }
        }
    }
    let mut cells = Vec::with_capacity(matrix.len());
    for (i, spec) in matrix.iter().enumerate() {
        eprintln!(
            "[bench-suite] cell {}/{}: {}",
            i + 1,
            matrix.len(),
            spec.id()
        );
        let cell = run_cell(spec, cfg, data_dir)?;
        eprintln!(
            "[bench-suite]   {:.1} kops/s  p99={:.1}µs",
            cell.kops_per_sec, cell.p99_us
        );
        cells.push(cell);
    }
    let mut net = Vec::new();
    if cfg.net {
        let net_cells = net_matrix(cfg.smoke);
        for (i, spec) in net_cells.iter().enumerate() {
            eprintln!(
                "[bench-suite] net cell {}/{}: {}",
                i + 1,
                net_cells.len(),
                spec.id()
            );
            let cell = run_net_cell(spec, cfg, data_dir)?;
            eprintln!(
                "[bench-suite]   {:.1} kops/s  p50={:.1}µs p999={:.1}µs (client-observed)",
                cell.kops_per_sec, cell.p50_us, cell.p999_us
            );
            net.push(cell);
        }
    }
    Ok(SuiteReport {
        label: cfg.label.clone(),
        mode: if cfg.smoke { "smoke" } else { "full" }.to_string(),
        seconds: cfg.seconds,
        key_space: cfg.key_space,
        env: EnvFingerprint::current(),
        cells,
        net,
        stability: Vec::new(),
    })
}

/// Store options for suite cells: the quick-mode bench sizes, so a
/// smoke cell stays memtable-resident instead of flush-bound.
fn suite_store_options() -> Options {
    let mut opts = Options {
        memtable_bytes: 16 * 1024 * 1024,
        ..Options::default()
    };
    opts.store.table_file_size = 2 * 1024 * 1024;
    opts.store.base_level_bytes = 16 * 1024 * 1024;
    opts.store.block_cache_bytes = 64 * 1024 * 1024;
    opts
}

impl SuiteReport {
    /// Serializes the report (the `BENCH_<label>.json` contents).
    /// Scalar fields sit one per line so line tools (`grep`, `sed`)
    /// can read and rewrite individual metrics.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {},", SCHEMA_VERSION);
        let _ = writeln!(out, "  \"label\": {},", json_str(&self.label));
        let _ = writeln!(out, "  \"mode\": {},", json_str(&self.mode));
        let _ = writeln!(out, "  \"seconds\": {},", json_f64(self.seconds));
        let _ = writeln!(out, "  \"key_space\": {},", self.key_space);
        out.push_str("  \"env\": {\n");
        let _ = writeln!(out, "    \"os\": {},", json_str(&self.env.os));
        let _ = writeln!(out, "    \"arch\": {},", json_str(&self.env.arch));
        let _ = writeln!(out, "    \"cpus\": {},", self.env.cpus);
        let _ = writeln!(out, "    \"debug\": {}", self.env.debug);
        out.push_str("  },\n");
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"id\": {},", json_str(&c.id));
            let _ = writeln!(out, "      \"workload\": {},", json_str(&c.workload));
            let _ = writeln!(out, "      \"threads\": {},", c.threads);
            let _ = writeln!(out, "      \"ops\": {},", c.ops);
            let _ = writeln!(out, "      \"elapsed_s\": {},", json_f64(c.elapsed_s));
            let _ = writeln!(out, "      \"kops_per_sec\": {},", json_f64(c.kops_per_sec));
            let _ = writeln!(out, "      \"p50_us\": {},", json_f64(c.p50_us));
            let _ = writeln!(out, "      \"p99_us\": {},", json_f64(c.p99_us));
            let _ = writeln!(out, "      \"p999_us\": {},", json_f64(c.p999_us));
            out.push_str("      \"stages\": [\n");
            for (j, s) in c.stages.iter().enumerate() {
                let _ = write!(
                    out,
                    "        {{\"name\": {}, \"count\": {}, \"sum_ns\": {}, \
                     \"mean_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}}}",
                    json_str(&s.name),
                    s.count,
                    s.sum_ns,
                    json_f64(s.mean_ns),
                    s.p50_ns,
                    s.p99_ns
                );
                out.push_str(if j + 1 < c.stages.len() { ",\n" } else { "\n" });
            }
            out.push_str("      ]\n");
            out.push_str("    }");
            out.push_str(if i + 1 < self.cells.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"net\": [\n");
        for (i, n) in self.net.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"id\": {},", json_str(&n.id));
            let _ = writeln!(out, "      \"workload\": {},", json_str(&n.workload));
            let _ = writeln!(out, "      \"threads\": {},", n.threads);
            let _ = writeln!(out, "      \"connections\": {},", n.connections);
            let _ = writeln!(out, "      \"pipeline_depth\": {},", n.pipeline_depth);
            let _ = writeln!(out, "      \"ops\": {},", n.ops);
            let _ = writeln!(out, "      \"elapsed_s\": {},", json_f64(n.elapsed_s));
            let _ = writeln!(out, "      \"kops_per_sec\": {},", json_f64(n.kops_per_sec));
            let _ = writeln!(out, "      \"p50_us\": {},", json_f64(n.p50_us));
            let _ = writeln!(out, "      \"p99_us\": {},", json_f64(n.p99_us));
            let _ = writeln!(out, "      \"p999_us\": {}", json_f64(n.p999_us));
            out.push_str("    }");
            out.push_str(if i + 1 < self.net.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"stability\": [\n");
        for (i, s) in self.stability.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"id\": {},", json_str(&s.id));
            let _ = writeln!(out, "      \"admission\": {},", s.admission);
            let _ = writeln!(out, "      \"seconds\": {},", json_f64(s.seconds));
            let _ = writeln!(out, "      \"ops\": {},", s.ops);
            let _ = writeln!(out, "      \"kops_per_sec\": {},", json_f64(s.kops_per_sec));
            let _ = writeln!(
                out,
                "      \"throughput_kops\": [{}],",
                s.throughput_kops
                    .iter()
                    .map(|v| json_f64(*v))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            let _ = writeln!(
                out,
                "      \"p999_us\": [{}],",
                s.p999_us
                    .iter()
                    .map(|v| json_f64(*v))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            let _ = writeln!(
                out,
                "      \"throughput_cv\": {},",
                json_f64(s.throughput_cv)
            );
            let _ = writeln!(
                out,
                "      \"worst_window_frac\": {},",
                json_f64(s.worst_window_frac)
            );
            let _ = writeln!(out, "      \"p999_max_us\": {},", json_f64(s.p999_max_us));
            let _ = writeln!(out, "      \"hard_stalls\": {},", s.hard_stalls);
            let _ = writeln!(out, "      \"delayed_writes\": {},", s.delayed_writes);
            let _ = writeln!(out, "      \"write_stalls\": {},", s.write_stalls);
            let _ = writeln!(out, "      \"stall_events\": {},", s.stall_events);
            let _ = writeln!(
                out,
                "      \"sustained_slowdowns\": {}",
                s.sustained_slowdowns
            );
            out.push_str("    }");
            out.push_str(if i + 1 < self.stability.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a `BENCH_*.json`, rejecting unknown schema versions.
    pub fn from_json(text: &str) -> Result<SuiteReport> {
        let root = json::parse(text).map_err(|e| Error::invalid_argument(&e))?;
        let version = root
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or_else(|| Error::invalid_argument("missing schema_version"))?;
        if version != u64::from(SCHEMA_VERSION) {
            return Err(Error::invalid_argument(format!(
                "schema_version {version} != supported {SCHEMA_VERSION}; \
                 re-baseline instead of comparing across schemas"
            )));
        }
        let str_of = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| Error::invalid_argument(format!("missing field {key}")))
        };
        let num_of = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| Error::invalid_argument(format!("missing field {key}")))
        };
        let env = root
            .get("env")
            .ok_or_else(|| Error::invalid_argument("missing env"))?;
        let mut cells = Vec::new();
        for cell in root
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or_else(|| Error::invalid_argument("missing cells"))?
        {
            let mut stages = Vec::new();
            for s in cell.get("stages").and_then(Json::as_arr).unwrap_or(&[]) {
                stages.push(StageRow {
                    name: str_of(s, "name")?,
                    count: num_of(s, "count")? as u64,
                    sum_ns: num_of(s, "sum_ns")? as u64,
                    mean_ns: num_of(s, "mean_ns")?,
                    p50_ns: num_of(s, "p50_ns")? as u64,
                    p99_ns: num_of(s, "p99_ns")? as u64,
                });
            }
            cells.push(CellResult {
                id: str_of(cell, "id")?,
                workload: str_of(cell, "workload")?,
                threads: num_of(cell, "threads")? as usize,
                ops: num_of(cell, "ops")? as u64,
                elapsed_s: num_of(cell, "elapsed_s")?,
                kops_per_sec: num_of(cell, "kops_per_sec")?,
                p50_us: num_of(cell, "p50_us")?,
                p99_us: num_of(cell, "p99_us")?,
                p999_us: num_of(cell, "p999_us")?,
                stages,
            });
        }
        let mut net = Vec::new();
        for n in root.get("net").and_then(Json::as_arr).unwrap_or(&[]) {
            net.push(NetCellResult {
                id: str_of(n, "id")?,
                workload: str_of(n, "workload")?,
                threads: num_of(n, "threads")? as usize,
                connections: num_of(n, "connections")? as usize,
                pipeline_depth: num_of(n, "pipeline_depth")? as usize,
                ops: num_of(n, "ops")? as u64,
                elapsed_s: num_of(n, "elapsed_s")?,
                kops_per_sec: num_of(n, "kops_per_sec")?,
                p50_us: num_of(n, "p50_us")?,
                p99_us: num_of(n, "p99_us")?,
                p999_us: num_of(n, "p999_us")?,
            });
        }
        let series_of = |j: &Json, key: &str| -> Vec<f64> {
            j.get(key)
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(Json::as_f64)
                .collect()
        };
        let mut stability = Vec::new();
        for s in root.get("stability").and_then(Json::as_arr).unwrap_or(&[]) {
            stability.push(StabilityResult {
                id: str_of(s, "id")?,
                admission: s.get("admission").and_then(Json::as_bool) == Some(true),
                seconds: num_of(s, "seconds")?,
                ops: num_of(s, "ops")? as u64,
                kops_per_sec: num_of(s, "kops_per_sec")?,
                throughput_kops: series_of(s, "throughput_kops"),
                p999_us: series_of(s, "p999_us"),
                throughput_cv: num_of(s, "throughput_cv")?,
                worst_window_frac: num_of(s, "worst_window_frac")?,
                p999_max_us: num_of(s, "p999_max_us")?,
                hard_stalls: num_of(s, "hard_stalls")? as u64,
                delayed_writes: num_of(s, "delayed_writes")? as u64,
                write_stalls: num_of(s, "write_stalls")? as u64,
                stall_events: num_of(s, "stall_events")? as u64,
                sustained_slowdowns: num_of(s, "sustained_slowdowns")? as u64,
            });
        }
        Ok(SuiteReport {
            label: str_of(&root, "label")?,
            mode: str_of(&root, "mode")?,
            seconds: num_of(&root, "seconds")?,
            key_space: num_of(&root, "key_space")? as u64,
            env: EnvFingerprint {
                os: str_of(env, "os")?,
                arch: str_of(env, "arch")?,
                cpus: num_of(env, "cpus")? as usize,
                debug: env.get("debug").and_then(Json::as_bool) == Some(true),
            },
            cells,
            net,
            stability,
        })
    }
}

/// Outcome of comparing two suite reports.
#[derive(Debug)]
pub struct CompareOutcome {
    /// Full per-metric delta listing.
    pub text: String,
    /// Metric comparisons performed.
    pub compared: usize,
    /// Comparisons beyond the threshold.
    pub regressions: usize,
    /// Cells present in only one report.
    pub unmatched: usize,
}

impl CompareOutcome {
    /// `true` when the new report is acceptable.
    pub fn passed(&self) -> bool {
        self.regressions == 0
    }
}

/// Compares `new` against the `old` baseline, cell by cell (matched on
/// id). `threshold` is the allowed *fractional* worsening: 1.0 lets a
/// metric get up to 2x worse before it counts as a regression.
/// Throughput regresses downward; latency percentiles regress upward.
pub fn compare(old: &SuiteReport, new: &SuiteReport, threshold: f64) -> CompareOutcome {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "== bench-suite compare: old '{}' ({}) vs new '{}' ({}), threshold {:.2}x ==",
        old.label,
        old.mode,
        new.label,
        new.mode,
        1.0 + threshold
    );
    if old.mode != new.mode {
        let _ = writeln!(
            text,
            "warning: comparing different modes ({} vs {})",
            old.mode, new.mode
        );
    }
    let new_by_id: BTreeMap<&str, &CellResult> =
        new.cells.iter().map(|c| (c.id.as_str(), c)).collect();
    let mut compared = 0;
    let mut regressions = 0;
    let mut unmatched = 0;
    for old_cell in &old.cells {
        let Some(new_cell) = new_by_id.get(old_cell.id.as_str()) else {
            let _ = writeln!(text, "cell {}: missing from new report", old_cell.id);
            unmatched += 1;
            continue;
        };
        let _ = writeln!(text, "cell {}", old_cell.id);
        // (name, old, new, higher_is_better)
        let metrics = [
            (
                "kops_per_sec",
                old_cell.kops_per_sec,
                new_cell.kops_per_sec,
                true,
            ),
            ("p50_us", old_cell.p50_us, new_cell.p50_us, false),
            ("p99_us", old_cell.p99_us, new_cell.p99_us, false),
        ];
        compare_metrics(
            &mut text,
            &mut compared,
            &mut regressions,
            threshold,
            &metrics,
        );
    }
    let new_net: BTreeMap<&str, &NetCellResult> =
        new.net.iter().map(|n| (n.id.as_str(), n)).collect();
    for old_n in &old.net {
        let Some(new_n) = new_net.get(old_n.id.as_str()) else {
            let _ = writeln!(text, "net {}: missing from new report", old_n.id);
            unmatched += 1;
            continue;
        };
        let _ = writeln!(text, "net {}", old_n.id);
        // Client-observed latencies ride the loopback stack and are
        // noisier than in-process ones; gate on the same trio the
        // matrix uses (p999 is reported but not gated).
        let metrics = [
            ("kops_per_sec", old_n.kops_per_sec, new_n.kops_per_sec, true),
            ("p50_us", old_n.p50_us, new_n.p50_us, false),
            ("p99_us", old_n.p99_us, new_n.p99_us, false),
        ];
        compare_metrics(
            &mut text,
            &mut compared,
            &mut regressions,
            threshold,
            &metrics,
        );
    }
    let new_stab: BTreeMap<&str, &StabilityResult> =
        new.stability.iter().map(|s| (s.id.as_str(), s)).collect();
    for old_s in &old.stability {
        let Some(new_s) = new_stab.get(old_s.id.as_str()) else {
            let _ = writeln!(text, "stability {}: missing from new report", old_s.id);
            unmatched += 1;
            continue;
        };
        let _ = writeln!(text, "stability {}", old_s.id);
        // The variance metrics carry noise floors: values below the
        // floor compare as equal, so run-to-run wiggle on a healthy
        // series (CV in the 0.2s on a short smoke window, a 40–60 ms
        // p999 wobble, a stray stall) cannot flip a ratio past the
        // threshold. A stall cliff lands far above every floor — the
        // measured ablation shows p999 spikes of ~500 ms and dozens of
        // hard stalls against 0 — which is what this section gates on.
        let metrics = [
            ("kops_per_sec", old_s.kops_per_sec, new_s.kops_per_sec, true),
            (
                "throughput_cv",
                old_s.throughput_cv.max(0.35),
                new_s.throughput_cv.max(0.35),
                false,
            ),
            (
                "p999_max_us",
                old_s.p999_max_us.max(100_000.0),
                new_s.p999_max_us.max(100_000.0),
                false,
            ),
            (
                "hard_stalls",
                (old_s.hard_stalls as f64).max(2.0),
                (new_s.hard_stalls as f64).max(2.0),
                false,
            ),
        ];
        compare_metrics(
            &mut text,
            &mut compared,
            &mut regressions,
            threshold,
            &metrics,
        );
    }
    let new_ids: std::collections::BTreeSet<&str> =
        new.cells.iter().map(|c| c.id.as_str()).collect();
    let old_ids: std::collections::BTreeSet<&str> =
        old.cells.iter().map(|c| c.id.as_str()).collect();
    for extra in new_ids.difference(&old_ids) {
        let _ = writeln!(text, "cell {extra}: new (no baseline)");
        unmatched += 1;
    }
    let old_net_ids: std::collections::BTreeSet<&str> =
        old.net.iter().map(|n| n.id.as_str()).collect();
    for n in &new.net {
        if !old_net_ids.contains(n.id.as_str()) {
            let _ = writeln!(text, "net {}: new (no baseline)", n.id);
            unmatched += 1;
        }
    }
    let old_stab_ids: std::collections::BTreeSet<&str> =
        old.stability.iter().map(|s| s.id.as_str()).collect();
    for s in &new.stability {
        if !old_stab_ids.contains(s.id.as_str()) {
            let _ = writeln!(text, "stability {}: new (no baseline)", s.id);
            unmatched += 1;
        }
    }
    let _ = writeln!(
        text,
        "bench-suite compare: {} regression(s) / {} comparison(s), {} unmatched cell(s): {}",
        regressions,
        compared,
        unmatched,
        if regressions == 0 { "PASS" } else { "FAIL" }
    );
    CompareOutcome {
        text,
        compared,
        regressions,
        unmatched,
    }
}

/// Diffs one row of `(name, old, new, higher_is_better)` metrics,
/// appending a line per metric and bumping the counters. Shared by the
/// per-cell and stability sections of [`compare`].
fn compare_metrics(
    text: &mut String,
    compared: &mut usize,
    regressions: &mut usize,
    threshold: f64,
    metrics: &[(&str, f64, f64, bool)],
) {
    for &(name, old_v, new_v, higher_better) in metrics {
        if old_v <= 0.0 && new_v <= 0.0 {
            continue;
        }
        *compared += 1;
        // Worsening factor: >1 means new is worse.
        let factor = if higher_better {
            if new_v <= 0.0 {
                f64::INFINITY
            } else {
                old_v / new_v
            }
        } else if old_v <= 0.0 {
            f64::INFINITY
        } else {
            new_v / old_v
        };
        let delta_pct = if old_v > 0.0 {
            (new_v - old_v) / old_v * 100.0
        } else {
            f64::INFINITY
        };
        let verdict = if factor > 1.0 + threshold {
            *regressions += 1;
            "REGRESSION"
        } else {
            "ok"
        };
        let _ = writeln!(
            text,
            "  {name:<14} old={old_v:<12.2} new={new_v:<12.2} delta={delta_pct:+.1}% {verdict}"
        );
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` as a JSON number (JSON has no NaN/Inf).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Bare integers are valid JSON numbers, but keep a decimal
        // point so the field reads as what it is.
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".to_string()
    }
}

use json::Json;

/// Minimal recursive-descent JSON parser — just enough for
/// `BENCH_*.json` (no serde in the workspace, by design).
mod json {
    use std::collections::BTreeMap;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any number (parsed as `f64`).
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Json>),
        /// An object.
        Obj(BTreeMap<String, Json>),
    }

    impl Json {
        /// Object field lookup.
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(m) => m.get(key),
                _ => None,
            }
        }

        /// The value as a float, if it is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// The value as a non-negative integer, if it is one.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
                _ => None,
            }
        }

        /// The value as a string slice.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The value as an array slice.
        pub fn as_arr(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(v) => Some(v),
                _ => None,
            }
        }

        /// The value as a bool.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Json::Bool(b) => Some(*b),
                _ => None,
            }
        }
    }

    /// Parses one JSON document; trailing garbage is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, *pos))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => parse_obj(b, pos),
            Some(b'[') => parse_arr(b, pos),
            Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
            Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
            Some(b'n') => parse_lit(b, pos, "null", Json::Null),
            Some(_) => parse_num(b, pos),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", *pos))
        }
    }

    fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        while *pos < b.len() {
            match b[*pos] {
                b'"' => {
                    *pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    *pos += 1;
                    let esc = *b.get(*pos).ok_or("unterminated escape")?;
                    *pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = b
                                .get(*pos..*pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            *pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                _ => {
                    // Multi-byte UTF-8 sequences pass through intact.
                    let s = &b[*pos..];
                    let len = match s[0] {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = s.get(..len).ok_or("truncated utf-8")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|_| "bad utf-8")?);
                    *pos += len;
                }
            }
        }
        Err("unterminated string".to_string())
    }

    fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        expect(b, pos, b'{')?;
        let mut map = BTreeMap::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            skip_ws(b, pos);
            let key = parse_string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            let value = parse_value(b, pos)?;
            map.insert(key, value);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
            }
        }
    }

    fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        expect(b, pos, b'[')?;
        let mut arr = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Json::Arr(arr));
        }
        loop {
            arr.push(parse_value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Json::Arr(arr));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> SuiteReport {
        SuiteReport {
            label: "seed".to_string(),
            mode: "smoke".to_string(),
            seconds: 0.2,
            key_space: 20_000,
            env: EnvFingerprint {
                os: "linux".to_string(),
                arch: "x86_64".to_string(),
                cpus: 8,
                debug: false,
            },
            cells: vec![CellResult {
                id: "write-100.t1".to_string(),
                workload: "write-100".to_string(),
                threads: 1,
                ops: 100_000,
                elapsed_s: 0.2,
                kops_per_sec: 500.0,
                p50_us: 1.5,
                p99_us: 9.0,
                p999_us: 30.0,
                stages: vec![StageRow {
                    name: "stamp".to_string(),
                    count: 100_000,
                    sum_ns: 5_000_000,
                    mean_ns: 50.0,
                    p50_ns: 48,
                    p99_ns: 90,
                }],
            }],
            net: vec![NetCellResult {
                id: "net.mixed-50-50.t4.c2.d32".to_string(),
                workload: "mixed-50-50".to_string(),
                threads: 4,
                connections: 2,
                pipeline_depth: 32,
                ops: 50_000,
                elapsed_s: 0.2,
                kops_per_sec: 250.0,
                p50_us: 40.0,
                p99_us: 250.0,
                p999_us: 900.0,
            }],
            stability: vec![StabilityResult {
                id: "stability.write-100.t4.admission-on".to_string(),
                admission: true,
                seconds: 3.0,
                ops: 30_000,
                kops_per_sec: 10.0,
                throughput_kops: vec![10.5, 9.8, 9.7],
                p999_us: vec![800.0, 950.0, 900.0],
                throughput_cv: 0.04,
                worst_window_frac: 0.97,
                p999_max_us: 950.0,
                hard_stalls: 0,
                delayed_writes: 1500,
                write_stalls: 0,
                stall_events: 0,
                sustained_slowdowns: 2,
            }],
        }
    }

    fn scaling_cell(threads: usize, kops: f64) -> CellResult {
        CellResult {
            id: format!("write-100.t{threads}"),
            workload: "write-100".to_string(),
            threads,
            ops: (kops * 1000.0 * 0.2) as u64,
            elapsed_s: 0.2,
            kops_per_sec: kops,
            p50_us: 2.0,
            p99_us: 10.0,
            p999_us: 40.0,
            stages: Vec::new(),
        }
    }

    fn scaling_report(curve: &[(usize, f64)]) -> SuiteReport {
        let mut report = sample_report();
        report.cells = curve.iter().map(|&(t, k)| scaling_cell(t, k)).collect();
        report
    }

    #[test]
    fn scaling_summary_reads_the_curve_and_passes_flat_or_rising() {
        let report = scaling_report(&[(1, 100.0), (2, 104.0), (4, 103.0), (8, 110.0)]);
        let summary = scaling_summary(&report).unwrap();
        assert_eq!(
            summary.points,
            vec![(1, 100.0), (2, 104.0), (4, 103.0), (8, 110.0)]
        );
        assert!(summary.passed);
        assert!(summary.text().contains("PASS"));
        assert!(summary.text().contains("t8"));
    }

    #[test]
    fn scaling_gate_flags_a_collapse_through_four_threads() {
        // t4 at 60% of t2: the serialization signature the gate exists
        // for.
        let report = scaling_report(&[(1, 100.0), (2, 104.0), (4, 62.0), (8, 110.0)]);
        let summary = scaling_summary(&report).unwrap();
        assert!(!summary.passed);
        assert!(summary.text().contains("FAIL"));
    }

    #[test]
    fn scaling_gate_tolerates_noise_and_ignores_the_t8_point() {
        // 8% dips stay inside the 0.9x tolerance; a t8 drop is
        // reported but not gated (CI may not have 8 cores).
        let report = scaling_report(&[(1, 100.0), (2, 92.5), (4, 86.0), (8, 20.0)]);
        let summary = scaling_summary(&report).unwrap();
        assert!(summary.passed);
    }

    #[test]
    fn scaling_summary_needs_at_least_two_points() {
        let report = scaling_report(&[(1, 100.0)]);
        assert!(scaling_summary(&report).is_none());
        // The sample report's only cell happens to be a scaling cell;
        // one point is still not a curve.
        assert!(scaling_summary(&sample_report()).is_none());
    }

    #[test]
    fn scaling_cells_extend_the_smoke_matrix_without_duplicates() {
        let mut matrix = canonical_matrix(true);
        let before = matrix.len();
        for spec in scaling_cells() {
            if !matrix.contains(&spec) {
                matrix.push(spec);
            }
        }
        // Smoke already holds the t1/t2 points; only t4/t8 are new.
        assert_eq!(matrix.len(), before + 2);
        let mut ids: Vec<String> = matrix.iter().map(CellSpec::id).collect();
        let total = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), total);
        for t in [1, 2, 4, 8] {
            assert!(ids.contains(&format!("write-100.t{t}")));
        }
    }

    #[test]
    fn json_roundtrip_preserves_report() {
        let report = sample_report();
        let parsed = SuiteReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn from_json_rejects_other_schema_versions() {
        let current = format!("\"schema_version\": {SCHEMA_VERSION}");
        // Older artifacts (pre-stability, pre-net, with the gc axis)
        // are rejected like unknown future ones: re-baseline, never
        // silently compare across schemas.
        for other in ["1", "2", "3", "999"] {
            let text = sample_report()
                .to_json()
                .replace(&current, &format!("\"schema_version\": {other}"));
            let err = SuiteReport::from_json(&text).unwrap_err();
            assert!(err.to_string().contains("schema_version"));
        }
    }

    #[test]
    fn compare_passes_identical_reports() {
        let report = sample_report();
        let outcome = compare(&report, &report, 1.0);
        assert!(outcome.passed());
        assert_eq!(outcome.regressions, 0);
        assert!(outcome.compared >= 3);
        assert!(outcome.text.contains("PASS"));
    }

    #[test]
    fn compare_flags_injected_regression() {
        let old = sample_report();
        let mut new = old.clone();
        // 4x throughput collapse: beyond the 2x threshold.
        new.cells[0].kops_per_sec /= 4.0;
        let outcome = compare(&old, &new, 1.0);
        assert!(!outcome.passed());
        assert_eq!(outcome.regressions, 1);
        assert!(outcome.text.contains("REGRESSION"));
        assert!(outcome.text.contains("FAIL"));

        // A latency blow-up is caught too.
        let mut slow = old.clone();
        slow.cells[0].p99_us *= 3.0;
        assert!(!compare(&old, &slow, 1.0).passed());

        // Within threshold: a 30% dip passes at 2x.
        let mut dip = old.clone();
        dip.cells[0].kops_per_sec *= 0.7;
        assert!(compare(&old, &dip, 1.0).passed());
    }

    #[test]
    fn compare_gates_on_net_cells() {
        let old = sample_report();

        // A networked-throughput collapse fails the gate even when the
        // in-process matrix is unchanged.
        let mut slow = old.clone();
        slow.net[0].kops_per_sec /= 4.0;
        let outcome = compare(&old, &slow, 1.0);
        assert!(!outcome.passed(), "{}", outcome.text);
        assert!(outcome.text.contains("net net.mixed-50-50.t4.c2.d32"));

        // Client-observed p99 blow-ups are caught too.
        let mut spiky = old.clone();
        spiky.net[0].p99_us *= 3.0;
        assert!(!compare(&old, &spiky, 1.0).passed());

        // A report without the net section still compares: the old
        // entry is unmatched, not a failure.
        let mut bare = old.clone();
        bare.net.clear();
        let outcome = compare(&old, &bare, 1.0);
        assert!(outcome.passed());
        assert!(outcome
            .text
            .contains("net net.mixed-50-50.t4.c2.d32: missing"));

        // The smoke net matrix covers both workloads with >= 4 client
        // threads and unique ids.
        let matrix = net_matrix(true);
        assert!(matrix.iter().any(|c| c.workload == "write-100"));
        assert!(matrix.iter().any(|c| c.workload == "mixed-50-50"));
        assert!(matrix.iter().all(|c| c.threads >= 4));
        let ids: std::collections::BTreeSet<String> = matrix.iter().map(NetCellSpec::id).collect();
        assert_eq!(ids.len(), matrix.len());
    }

    #[test]
    fn compare_gates_on_stability_variance_and_stalls() {
        let old = sample_report();

        // A stall cliff appearing in the stability cell fails the gate
        // even when every matrix cell is unchanged.
        let mut cliff = old.clone();
        cliff.stability[0].hard_stalls = 40;
        let outcome = compare(&old, &cliff, 1.0);
        assert!(!outcome.passed(), "{}", outcome.text);
        assert!(outcome.text.contains("hard_stalls"));

        // So does a throughput-variance blow-up...
        let mut choppy = old.clone();
        choppy.stability[0].throughput_cv = 0.9;
        assert!(!compare(&old, &choppy, 1.0).passed());

        // ...and a cliff-sized p999 spike (the ablation measures
        // ~500 ms against the ramp's ~50 ms).
        let mut spiky = old.clone();
        spiky.stability[0].p999_max_us = 500_000.0;
        assert!(!compare(&old, &spiky, 1.0).passed());

        // Noise floors: wiggles below them compare as equal.
        let mut wiggle = old.clone();
        wiggle.stability[0].throughput_cv = 0.30;
        wiggle.stability[0].hard_stalls = 2;
        wiggle.stability[0].p999_max_us = 60_000.0;
        let outcome = compare(&old, &wiggle, 1.0);
        assert!(outcome.passed(), "{}", outcome.text);

        // A report without the stability section still compares (the
        // old entry shows up as unmatched, which is not a failure).
        let mut bare = old.clone();
        bare.stability.clear();
        let outcome = compare(&old, &bare, 1.0);
        assert!(outcome.passed());
        assert_eq!(outcome.unmatched, 1);
        assert!(outcome.text.contains("stability"));
    }

    #[test]
    fn compare_reports_unmatched_cells() {
        let old = sample_report();
        let mut new = old.clone();
        new.cells[0].id = "write-100.t2".to_string();
        let outcome = compare(&old, &new, 1.0);
        assert_eq!(outcome.unmatched, 2); // one missing + one new
        assert!(outcome.text.contains("missing from new report"));
    }

    #[test]
    fn smoke_matrix_covers_acceptance_grid() {
        let matrix = canonical_matrix(true);
        assert!(matrix.iter().any(|c| c.workload == "write-100"));
        assert!(matrix.iter().any(|c| c.workload == "mixed-50-50"));
        // Ids are unique — compare() matches on them.
        let ids: std::collections::BTreeSet<String> = matrix.iter().map(CellSpec::id).collect();
        assert_eq!(ids.len(), matrix.len());
        // The full matrix sweeps to 8 threads.
        assert!(canonical_matrix(false)
            .iter()
            .any(|c| c.threads == 8 && c.workload == "mixed-50-50"));
    }
}
