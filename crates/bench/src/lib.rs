//! Benchmark harness regenerating every figure of the cLSM paper.
//!
//! Each `src/bin/figN_*.rs` binary reproduces one figure of the
//! evaluation (§5): it builds the systems under test, generates the
//! figure's workload, sweeps the independent variable (worker threads,
//! memtable size, …), and prints the same series the paper plots,
//! plus CSV files under `bench-results/`.
//!
//! Absolute numbers will differ from the paper's 16-hw-thread Xeon +
//! SSD testbed; the *shape* — which system wins, scaling trends,
//! crossover points — is the reproduction target (see EXPERIMENTS.md).
//! The figures are ungated reproductions: every gated performance
//! number comes from the standalone `benchmark/` crate.
//!
//! The same crate ships two operator tools, `clsm-doctor` (live and
//! offline store inspection) and `clsm-check` (recorded-history
//! correctness checker).

#![warn(missing_docs)]

pub mod driver;
pub mod report;
pub mod systems;

pub use driver::{parse_args, BenchArgs};
pub use report::{write_csv, Table};
pub use systems::{all_systems, no_blsm_systems, registry, system_by_name, System};
