//! The write-scaling lock-in test: a write-only 1→8 thread sweep over
//! the suite configuration (memtable-resident store) must not lose
//! throughput as writer threads are added.
//!
//! On a small CI box extra writers cannot make the store faster, so
//! the assertion is the suite's scaling gate: 4-thread throughput must
//! keep at least 0.9x of single-thread. The serialization bugs this
//! test exists to catch — a hot Active-set lock, a shared memtable
//! arena mutex — cost far more than 10% and fail every attempt, so a
//! best-of-3 retry absorbs scheduler noise without masking a real
//! collapse. The 8-thread point is measured and printed
//! for the record but never asserted.

use std::path::{Path, PathBuf};

use bench::suite::{run_cell, scaling_cells, SuiteConfig, SCALING_TOLERANCE};

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("write-scaling-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the scaling cells once, returning `(threads, kops_per_sec)`.
fn sweep(cfg: &SuiteConfig, dir: &Path) -> Vec<(usize, f64)> {
    scaling_cells()
        .iter()
        .map(|spec| {
            let cell = run_cell(spec, cfg, dir).unwrap();
            (spec.threads, cell.kops_per_sec)
        })
        .collect()
}

fn point(curve: &[(usize, f64)], threads: usize) -> f64 {
    curve
        .iter()
        .find(|&&(t, _)| t == threads)
        .map(|&(_, k)| k)
        .unwrap()
}

#[test]
fn adding_writer_threads_does_not_lose_throughput() {
    let dir = scratch();
    let mut cfg = SuiteConfig::new(true, "write-scaling");
    cfg.seconds = 0.4;

    let mut failures = Vec::new();
    for attempt in 1..=3 {
        let curve = sweep(&cfg, &dir);
        let (t1, t4, t8) = (point(&curve, 1), point(&curve, 4), point(&curve, 8));
        eprintln!(
            "[write-scaling] attempt {attempt}: t1={t1:.1} t4={t4:.1} t8={t8:.1} kops/s \
             (t4/t1={:.2}, t8/t1={:.2})",
            t4 / t1,
            t8 / t1
        );
        if t4 >= SCALING_TOLERANCE * t1 {
            let _ = std::fs::remove_dir_all(&dir);
            return;
        }
        failures.push(curve);
    }
    let _ = std::fs::remove_dir_all(&dir);
    panic!(
        "4-thread write throughput stayed below {SCALING_TOLERANCE}x single-thread \
         across all attempts — the write path is serializing: {failures:?}"
    );
}
