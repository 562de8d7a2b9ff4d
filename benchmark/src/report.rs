//! Turns what a run measured into named metrics, prints them as
//! `name value unit` lines, and renders the result files and the one
//! JSON line the driver contract asks for.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::catalog::{self, Metric};
use crate::harness::{latency_summary, OpKind, RunArgs};
use crate::runner::Outcome;
use crate::stats::{self, LatencySummary};
use crate::trace::{self, Kind, Tracer};

/// A finished run, ready to print.
#[derive(Debug)]
pub struct Report {
    /// Gated end-to-end metrics, in catalogue order.
    pub end_to_end: Vec<(&'static Metric, f64)>,
    /// Per-layer metrics (traced run), in catalogue order.
    pub per_layer: Vec<(&'static Metric, f64)>,
    /// Further readings printed for the operator, never gated:
    /// `(name, value, unit)`.
    pub info: Vec<(String, f64, &'static str)>,
    /// Operations attempted, all phases and final checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// First few failure messages.
    pub failures: Vec<String>,
}

impl Report {
    /// Whether every output was correct and every metric present.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }
}

fn metric(name: &str) -> &'static Metric {
    catalog::find(name).unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Builds the report of one run.
pub fn build(args: &RunArgs, outcome: &Outcome) -> Report {
    let recorders = &outcome.recorders;
    let mut failures: Vec<String> = recorders
        .iter()
        .flat_map(|r| r.failures.iter().cloned())
        .chain(outcome.read_back.failures.iter().cloned())
        .chain(outcome.final_check.1.iter().cloned())
        .collect();
    let attempted = recorders.iter().map(|r| r.attempted).sum::<u64>()
        + outcome.read_back.attempted
        + outcome.final_check.0;
    let failed = recorders.iter().map(|r| r.failed).sum::<u64>()
        + outcome.read_back.failed
        + outcome.final_check.1.len() as u64;

    let mut summaries: [Option<LatencySummary>; 4] =
        OpKind::ALL.map(|op| latency_summary(recorders, op));
    if summaries[OpKind::Get as usize].is_none() {
        // A write-only window: gets are the read-back after reopen.
        let mut ns = outcome.read_back.get_ns.clone();
        summaries[OpKind::Get as usize] = stats::summarize_ns(&mut ns);
    }
    let completed: u64 = recorders.iter().map(|r| r.completed_timed).sum();
    let ops_per_s = ratio(completed as f64, outcome.window_s);

    let mut info = vec![("window_s".to_string(), outcome.window_s, "s")];
    for op in OpKind::ALL {
        if let Some(s) = &summaries[op as usize] {
            let name = op.name();
            info.push((format!("{name}_samples"), s.count as f64, "count"));
            if let Some((p, value)) = s.top.filter(|(p, _)| *p > 99.0) {
                info.push((format!("{name}_p{p}_us"), value, "us"));
            }
            info.push((format!("{name}_max_us"), s.max_us, "us"));
        }
    }

    let e2e_values = [
        ("setup_s", outcome.setup_s),
        ("ops_per_s", ops_per_s),
        ("write_amp", outcome.write_amp),
        ("space_amp", outcome.space_amp),
    ];
    let end_to_end: Vec<(&'static Metric, f64)> = e2e_values
        .iter()
        .map(|(name, value)| (metric(name), *value))
        .collect();
    for (m, value) in &end_to_end {
        if !(value.is_finite() && *value > 0.0) {
            failures.push(format!("end-to-end metric {} was not measured", m.name));
        }
    }

    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (op, p50, p99) in [
        (OpKind::Get, "get_p50_us", "get_p99_us"),
        (OpKind::Put, "put_p50_us", "put_p99_us"),
        (OpKind::Scan, "scan_p50_us", "scan_p99_us"),
        (OpKind::Rmw, "rmw_p50_us", "rmw_p99_us"),
    ] {
        let summary = summaries[op as usize].clone().unwrap_or_default();
        layers.insert(p50, summary.p50_us);
        layers.insert(p99, summary.p99_us);
    }
    layers.insert(
        "cpu_us_per_op",
        ratio(outcome.cpu_s * 1e6, completed as f64),
    );
    layers.insert("peak_rss_mib", outcome.peak_rss_mib);
    layers.insert("failed_frac", ratio(failed as f64, attempted as f64));
    if args.trace {
        layer_values(args, outcome, ops_per_s, completed, &mut layers);
    }
    let per_layer = catalog::per_layer()
        .map(|m| {
            let value = layers.get(m.name).copied().unwrap_or(0.0);
            (m, if value.is_finite() { value } else { 0.0 })
        })
        .collect();

    Report {
        end_to_end,
        per_layer,
        info,
        attempted,
        failed,
        failures,
    }
}

fn span_total(outcome: &Outcome, kind: Kind) -> trace::Total {
    trace::total_of(outcome.recorders.iter().map(|r| &r.tracer), kind)
}

const WRITE_STAGES: [&str; 8] = [
    "admission",
    "queue_wait",
    "stamp",
    "memtable",
    "wal_enqueue",
    "publish",
    "durable",
    "wake",
];

fn layer_values(
    args: &RunArgs,
    outcome: &Outcome,
    ops_per_s: f64,
    completed: u64,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    let (start, end) = (&outcome.observer.start, &outcome.observer.end);
    let counter = |name: &str| {
        let at = |r: &crate::runner::Reading| r.metrics.counters.get(name).copied().unwrap_or(0);
        at(end).saturating_sub(at(start)) as f64
    };
    // (Δcount, Δsum) of a histogram over the window.
    let histogram = |name: &str| {
        let at = |r: &crate::runner::Reading| {
            r.metrics
                .histograms
                .get(name)
                .map_or((0, 0), |h| (h.count, h.sum))
        };
        let (c1, s1) = at(end);
        let (c0, s0) = at(start);
        (c1.saturating_sub(c0) as f64, s1.saturating_sub(s0) as f64)
    };
    let mean = |name: &str| {
        let (count, sum) = histogram(name);
        ratio(sum, count)
    };
    let window_ns = outcome.window_s * 1e9;

    let gen = span_total(outcome, Kind::Gen);
    layers.insert("gen.ns_per_op", ratio(gen.ns as f64, gen.count as f64));

    let (puts_staged, _) = histogram("write_path.total_ns");
    let mut stage_sum = 0.0;
    for stage in WRITE_STAGES {
        let (_, sum) = histogram(&format!("write_path.{stage}_ns"));
        stage_sum += sum;
        let name = catalog::find(&format!("clsm.write.{stage}_ns"))
            .expect("write stage in catalogue")
            .name;
        layers.insert(name, ratio(sum, puts_staged));
    }
    // RMWs pass through write admission too, so their time belongs to
    // the denominator wherever they run.
    let harness_write_ns =
        (span_total(outcome, Kind::Put).ns + span_total(outcome, Kind::Rmw).ns) as f64;
    if harness_write_ns > 0.0 {
        layers.insert(
            "clsm.write.unattributed_frac",
            1.0 - stage_sum / harness_write_ns,
        );
    }

    let writes = counter("db.puts") + counter("db.rmw_ops");
    layers.insert(
        "clsm.admission.delayed_frac",
        ratio(counter("admission.delayed_writes"), writes),
    );
    layers.insert(
        "clsm.admission.delay_s",
        counter("admission.delay_ns") / 1e9,
    );
    layers.insert(
        "clsm.stall.count",
        counter("db.write_stalls") + counter("admission.hard_stalls"),
    );
    layers.insert("clsm.stall_s", counter("db.write_stall_ns") / 1e9);
    layers.insert(
        "clsm.commit.group_size_mean",
        ratio(
            counter("db.commit.group_requests"),
            counter("db.commit.groups"),
        ),
    );
    layers.insert("clsm.gets", counter("db.gets"));
    layers.insert("clsm.puts", counter("db.puts"));
    layers.insert("clsm.snapshot.create_ns", mean("op.snapshot.latency_ns"));
    layers.insert(
        "clsm.rmw.conflict_ratio",
        ratio(counter("db.rmw_conflicts"), counter("db.rmw_ops")),
    );

    layers.insert(
        "wal.bytes_per_user_byte",
        ratio(
            outcome.env_total.wal.write_bytes as f64,
            outcome.user_bytes as f64,
        ),
    );
    let hits = end.cache.0.saturating_sub(start.cache.0) as f64;
    let misses = end.cache.1.saturating_sub(start.cache.1) as f64;
    layers.insert("cache.hit_ratio", ratio(hits, hits + misses));
    layers.insert(
        "store.levels_files_final",
        outcome.level_files.iter().sum::<usize>() as f64,
    );
    layers.insert("store.l0_files_max", outcome.observer.l0_files_max as f64);
    layers.insert("store.garbage_frac", outcome.garbage_frac);

    layers.insert("flush.count", counter("db.flushes"));
    layers.insert("flush.ns_mean", mean("storage.flush_ns"));
    layers.insert("flush.bytes", counter("storage.bytes_flushed"));
    layers.insert("compaction.count", counter("db.compactions"));
    layers.insert(
        "compaction.busy_frac",
        ratio(histogram("storage.compaction_ns").1, window_ns),
    );
    layers.insert("compaction.bytes", counter("storage.bytes_compacted"));
    layers.insert("clsm.quiesce_s", outcome.quiesce_s);

    let env = end.env.since(&start.env);
    layers.insert("env.wal.write_bytes", env.wal.write_bytes as f64);
    layers.insert("env.wal.sync_count", env.wal.sync_count as f64);
    layers.insert("env.sst.write_bytes", env.sst.write_bytes as f64);
    layers.insert("env.sst.read_count", env.sst.read_count as f64);
    layers.insert("env.sst.read_bytes", env.sst.read_bytes as f64);
    layers.insert(
        "env.sst.read_ns_mean",
        ratio(env.sst.read_ns as f64, env.sst.read_count as f64),
    );
    let file_syncs = env.wal.sync_count + env.sst.sync_count + env.meta.sync_count;
    layers.insert(
        "env.sync_ns_mean",
        ratio(
            (env.wal.sync_ns + env.sst.sync_ns + env.meta.sync_ns) as f64,
            file_syncs as f64,
        ),
    );
    layers.insert("env.manifest.sync_count", env.meta.sync_count as f64);
    layers.insert(
        "env.syncs_per_kop",
        ratio(env.syncs() as f64, completed as f64 / 1e3),
    );
    let user_bytes_timed: u64 = outcome.recorders.iter().map(|r| r.user_bytes_timed).sum();
    layers.insert(
        "env.write_bytes_per_user_byte",
        ratio(env.write_bytes() as f64, user_bytes_timed as f64),
    );

    if let Some(baseline) = read_baseline(args) {
        layers.insert("trace.overhead_frac", 1.0 - ratio(ops_per_s, baseline));
    }
    layers.insert("clsm.reopen_ms", outcome.read_back.reopen_ms);
    let (cpu_start, cpu_end) = outcome.observer.cpu;
    layers.insert("host.cpu_user_s", cpu_end.user_s - cpu_start.user_s);
    layers.insert("host.cpu_sys_s", cpu_end.sys_s - cpu_start.sys_s);

    for (name, value) in outcome
        .workload_layers
        .iter()
        .chain(outcome.probes.iter().flatten())
    {
        layers.insert(name, *value);
    }
}

fn baseline_path(args: &RunArgs) -> std::path::PathBuf {
    args.out_dir
        .join(format!("{}.{}.ops_per_s", args.workload, args.repeat))
}

/// `ops_per_s` of the untraced run this traced run is paired with.
fn read_baseline(args: &RunArgs) -> Option<f64> {
    std::fs::read_to_string(baseline_path(args))
        .ok()?
        .trim()
        .parse()
        .ok()
}

/// Environment the numbers were taken in; results from different
/// fingerprints are never compared.
pub fn fingerprint(out_dir: &Path, rustc: &str) -> Vec<(&'static str, String)> {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let target = std::fs::canonicalize(out_dir).unwrap_or_else(|_| out_dir.to_path_buf());
    // The mount whose mount point is the longest prefix of the data
    // directory; mountinfo fields: ... mount-point ... - fstype source.
    let filesystem = read("/proc/self/mountinfo")
        .lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split(' ').nth(4)?;
            let fstype = right.split(' ').next()?;
            target
                .starts_with(mount_point)
                .then(|| (mount_point.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs);
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        (
            "kernel",
            read("/proc/sys/kernel/osrelease").trim().to_string(),
        ),
        ("filesystem", filesystem),
        ("rustc", rustc.to_string()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
    ]
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[(&'static Metric, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, value)| {
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_string(m.name),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

impl Report {
    /// The metrics the contract asks for in this mode.
    fn contract_metrics(&self, trace: bool) -> &[(&'static Metric, f64)] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The one line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn contract_line(&self, trace: bool) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics_json(self.contract_metrics(trace))
        )
    }

    /// The per-layer metrics this run reports: all of them when traced;
    /// untraced, the ungated end-to-end metrics, which every run
    /// measures, where the workload has the operation.
    fn reported_layers(&self, trace: bool) -> Vec<(&'static Metric, f64)> {
        self.per_layer
            .iter()
            .filter(|(m, value)| {
                let demoted = catalog::DEMOTED.iter().any(|d| d.name == m.name);
                trace || (demoted && (*value > 0.0 || m.name == "failed_frac"))
            })
            .copied()
            .collect()
    }

    /// Prints every metric as `name value unit`, then the failures.
    pub fn print(&self, args: &RunArgs) {
        println!(
            "# {} seed={} seconds={} trace={}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        for (m, value) in &self.end_to_end {
            println!("{} {value} {}", m.name, m.unit);
        }
        for (name, value, unit) in &self.info {
            println!("{name} {value} {unit}");
        }
        for (m, value) in self.reported_layers(args.trace) {
            println!("{} {value} {}", m.name, m.unit);
        }
        println!("attempted {} count", self.attempted);
        println!("failed {} count", self.failed);
        for failure in &self.failures {
            println!("# FAILED: {failure}");
        }
    }

    /// The full result file of this run.
    pub fn result_json(&self, args: &RunArgs, rustc: &str) -> String {
        let fingerprint: Vec<String> = fingerprint(&args.out_dir, rustc)
            .iter()
            .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
            .collect();
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}:{{\"value\":{value},\"unit\":{}}}",
                    json_string(name),
                    json_string(unit)
                )
            })
            .collect();
        let failures: Vec<String> = self.failures.iter().map(|f| json_string(f)).collect();
        format!(
            "{{\"workload\":{},\"repeat\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"fingerprint\":{{{}}},\"correct\":{},\"attempted\":{},\"failed\":{},\"end_to_end\":{},\"per_layer\":{},\"info\":{{{}}},\"failures\":[{}]}}\n",
            json_string(&args.workload),
            args.repeat,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            fingerprint.join(","),
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(&self.end_to_end),
            metrics_json(&self.reported_layers(args.trace)),
            info.join(","),
            failures.join(",")
        )
    }

    /// Writes the result file (and, untraced, the `ops_per_s` baseline
    /// a later traced run measures its overhead against).
    pub fn write_files(&self, args: &RunArgs, rustc: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(&args.out_dir)?;
        let kind = if args.trace { "layers" } else { "e2e" };
        std::fs::write(
            args.out_dir
                .join(format!("{}.{}.{kind}.json", args.workload, args.repeat)),
            self.result_json(args, rustc),
        )?;
        if !args.trace {
            let ops = self
                .end_to_end
                .iter()
                .find(|(m, _)| m.name == "ops_per_s")
                .map_or(0.0, |(_, v)| *v);
            std::fs::write(baseline_path(args), ops.to_string())?;
        }
        Ok(())
    }
}

/// Renders the span file of a traced run.
pub fn span_file(workload: &str, outcome: Outcome) -> String {
    let tracers: Vec<Tracer> = outcome.recorders.into_iter().map(|r| r.tracer).collect();
    trace::to_json(workload, &tracers)
}
