//! The repo benchmark: four workloads against one `clsm::Db`, nine gated
//! end-to-end metrics, and per-layer attribution measured from outside
//! the store — by timing calls into public functions, reading the
//! public accessors, and plugging a counting `Env` into the
//! `StoreOptions::env` seam. See `README.md` for the design and
//! `../BENCHMARK.json` for the contract with the driver.

#![warn(missing_docs)]

pub mod catalog;
pub mod config;
pub mod counting_env;
pub mod harness;
pub mod net_open;
pub mod probes;
pub mod report;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod values;
pub mod workloads;
