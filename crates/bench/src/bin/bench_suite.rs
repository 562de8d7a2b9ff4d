//! `bench-suite` — the canonical perf matrix as one machine-readable
//! artifact, with a built-in regression gate.
//!
//! ```text
//! bench-suite [--smoke] [--net] [--scaling] [--label NAME] [--out DIR]
//!             [--data DIR] [--seconds F] [--seed N] [--stability]
//!             [--stability-ablation]
//!             [--compare OLD.json] [--threshold F]
//! bench-suite --compare-only OLD.json NEW.json [--threshold F]
//! ```
//!
//! A run measures every cell of the canonical matrix (write-only
//! thread sweep and mixed 50/50; `--smoke` is the CI-sized subset)
//! and writes
//! `BENCH_<label>.json` into `--out`: throughput, latency percentiles,
//! the per-stage write-path breakdown, and an environment
//! fingerprint, under a versioned schema.
//!
//! `--net` appends the networked cells: the same store behind an
//! embedded loopback `clsm-server`, driven through the pipelined
//! client, so the reported throughput and latency percentiles are
//! client-observed over TCP.
//!
//! `--scaling` ensures the write-scaling cells (write-only, 1→8
//! threads) are measured, prints the throughput curve, and folds the
//! scaling gate — each step through
//! 4 threads must keep ≥0.9x of the previous point — into the exit
//! code. The 8-thread ratio is reported but not gated.
//!
//! `--stability` appends the long-run stability cell to the artifact:
//! per-window throughput and p999 time series against an undersized,
//! I/O-rate-limited store, plus the variance/spike summary the
//! comparator gates on. `--stability-ablation` also runs the
//! admission-off shim (the pre-ramp stall cliff) for side-by-side
//! numbers; ablation cells are printed but carry no baseline.
//!
//! `--compare OLD.json` additionally diffs the fresh run against a
//! baseline file and exits nonzero when any metric worsened beyond
//! `--threshold` (fractional: the default 1.0 tolerates up to 2x).
//! `--compare-only` diffs two existing files without running anything
//! — the CI gate.

use std::path::PathBuf;

use bench::stability::{run_stability, StabilityConfig};
use bench::suite::{compare, run_suite, scaling_summary, SuiteConfig, SuiteReport};
use clsm_util::error::Result;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&argv) {
        Ok(passed) => i32::from(!passed),
        Err(e) => {
            eprintln!("bench-suite: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Returns `Ok(true)` when the run (and any comparison) passed.
fn run(argv: &[String]) -> Result<bool> {
    let mut smoke = false;
    let mut label = "run".to_string();
    let mut out_dir = PathBuf::from("bench-results");
    let mut data_dir = std::env::temp_dir().join(format!("bench-suite-{}", std::process::id()));
    let mut seconds: Option<f64> = None;
    let mut seed: Option<u64> = None;
    let mut compare_to: Option<PathBuf> = None;
    let mut compare_only: Option<(PathBuf, PathBuf)> = None;
    let mut threshold = 1.0f64;
    let mut stability = false;
    let mut stability_ablation = false;
    let mut net = false;
    let mut scaling = false;

    let mut iter = argv.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--full" => smoke = false,
            "--net" => net = true,
            "--scaling" => scaling = true,
            "--stability" => stability = true,
            "--stability-ablation" => {
                stability = true;
                stability_ablation = true;
            }
            "--label" => {
                label = iter
                    .next()
                    .cloned()
                    .unwrap_or_else(|| usage("--label needs a name"));
            }
            "--out" => {
                out_dir = PathBuf::from(iter.next().unwrap_or_else(|| usage("--out needs a path")));
            }
            "--data" => {
                data_dir =
                    PathBuf::from(iter.next().unwrap_or_else(|| usage("--data needs a path")));
            }
            "--seconds" => {
                seconds = Some(
                    iter.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&s| s > 0.0)
                        .unwrap_or_else(|| usage("--seconds needs a positive number")),
                );
            }
            "--seed" => {
                seed = Some(
                    iter.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs a number")),
                );
            }
            "--compare" => {
                compare_to = Some(PathBuf::from(
                    iter.next()
                        .unwrap_or_else(|| usage("--compare needs a baseline json")),
                ));
            }
            "--compare-only" => {
                let old = iter
                    .next()
                    .unwrap_or_else(|| usage("--compare-only needs OLD.json NEW.json"));
                let new = iter
                    .next()
                    .unwrap_or_else(|| usage("--compare-only needs OLD.json NEW.json"));
                compare_only = Some((PathBuf::from(old), PathBuf::from(new)));
            }
            "--threshold" => {
                threshold = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&t: &f64| t >= 0.0)
                    .unwrap_or_else(|| usage("--threshold needs a non-negative number"));
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other}")),
        }
    }

    // File-vs-file gate: no measurement, just the verdict.
    if let Some((old_path, new_path)) = compare_only {
        let old = SuiteReport::from_json(&std::fs::read_to_string(&old_path)?)?;
        let new = SuiteReport::from_json(&std::fs::read_to_string(&new_path)?)?;
        let outcome = compare(&old, &new, threshold);
        print!("{}", outcome.text);
        return Ok(outcome.passed());
    }

    let mut cfg = SuiteConfig::new(smoke, &label);
    cfg.net = net;
    cfg.scaling = scaling;
    if let Some(s) = seconds {
        cfg.seconds = s;
    }
    if let Some(s) = seed {
        cfg.seed = s;
    }
    eprintln!(
        "[bench-suite] mode={} label={} seconds/cell={} key_space={}",
        if smoke { "smoke" } else { "full" },
        cfg.label,
        cfg.seconds,
        cfg.key_space
    );
    let mut report = run_suite(&cfg, &data_dir)?;
    if stability {
        let mut variants = vec![true];
        if stability_ablation {
            variants.push(false);
        }
        for admission in variants {
            let scfg = StabilityConfig::new(smoke, admission);
            eprintln!("[bench-suite] stability cell: {}", scfg.id());
            let cell = run_stability(&scfg, &data_dir)?;
            eprintln!(
                "[bench-suite]   {:.1} kops/s  cv={:.3} p999max={:.0}µs hard_stalls={}",
                cell.kops_per_sec, cell.throughput_cv, cell.p999_max_us, cell.hard_stalls
            );
            report.stability.push(cell);
        }
    }
    let _ = std::fs::remove_dir_all(&data_dir);

    std::fs::create_dir_all(&out_dir)?;
    let path = out_dir.join(format!("BENCH_{label}.json"));
    std::fs::write(&path, report.to_json())?;
    println!("wrote {}", path.display());
    for cell in &report.cells {
        println!(
            "  {:<28} {:>9.1} kops/s  p50={:<8.1} p99={:<8.1} p999={:.1} µs",
            cell.id, cell.kops_per_sec, cell.p50_us, cell.p99_us, cell.p999_us
        );
    }
    for n in &report.net {
        println!(
            "  {:<28} {:>9.1} kops/s  p50={:<8.1} p99={:<8.1} p999={:.1} µs (client-observed)",
            n.id, n.kops_per_sec, n.p50_us, n.p99_us, n.p999_us
        );
    }
    for s in &report.stability {
        println!(
            "  {:<36} {:>7.1} kops/s  cv={:.3} worst={:.2} p999max={:.0}µs \
             stalls={} delayed={} slowdowns={}",
            s.id,
            s.kops_per_sec,
            s.throughput_cv,
            s.worst_window_frac,
            s.p999_max_us,
            s.hard_stalls,
            s.delayed_writes,
            s.sustained_slowdowns
        );
    }

    let mut passed = true;
    if scaling {
        match scaling_summary(&report) {
            Some(summary) => {
                print!("{}", summary.text());
                passed &= summary.passed;
            }
            None => {
                eprintln!("bench-suite: --scaling set but no scaling cells measured");
                passed = false;
            }
        }
    }

    if let Some(old_path) = compare_to {
        let old = SuiteReport::from_json(&std::fs::read_to_string(&old_path)?)?;
        let outcome = compare(&old, &report, threshold);
        print!("{}", outcome.text);
        passed &= outcome.passed();
    }
    Ok(passed)
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: bench-suite [--smoke|--full] [--net] [--scaling] [--label NAME] [--out DIR] \
         [--data DIR] [--seconds F] [--seed N] [--stability] [--stability-ablation] \
         [--compare OLD.json] [--threshold F]"
    );
    eprintln!("       bench-suite --compare-only OLD.json NEW.json [--threshold F]");
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}
