//! Concurrency and encoding utilities shared by every crate in the cLSM
//! reproduction.
//!
//! The paper ("Scaling Concurrent Log-Structured Data Stores", EuroSys
//! 2015, §4) implements "multiple custom tools based on atomic hardware
//! instructions: a shared-exclusive lock, and a non-blocking memory
//! allocator", plus an RCU-like pointer-protection scheme and the
//! timestamp machinery of Algorithm 2. This crate is our from-scratch
//! equivalent of that toolbox:
//!
//! - [`arena`] — a lock-free bump allocator backing the in-memory
//!   component (the paper's non-blocking allocator, cf. Michael '04).
//! - [`shared_lock`] — a writer-preferring shared-exclusive spin lock
//!   built on a single atomic word (Algorithm 1's `Lock`).
//! - [`rcu`] — an epoch-protected pointer cell used for the global
//!   component pointers `Pm`, `P'm`, `Pd` (the paper's "RCU-like
//!   mechanism" plus per-component reference counts).
//! - [`oracle`] — the `timeCounter` / `Active` set / `snapTime`
//!   timestamp oracle of Algorithm 2.
//! - [`epoch`] — the epoch-based reclamation scheme underneath [`rcu`]
//!   (readers pin, writers defer destruction).
//! - [`mod@env`] — the injectable storage environment ([`env::RealEnv`] for
//!   production, [`env::FaultEnv`] for deterministic crash injection).
//! - [`clock`] — `now_ns`, the one clock every timestamp and stage
//!   timing of the observability layer reads.
//! - [`bloom`], [`coding`], [`crc`] — encoding substrates for the disk
//!   component (Bloom filters, varints, CRC32C).
//! - [`histogram`] — latency histograms for the evaluation harness.
//! - [`json`] — the one JSON string escaper of every hand-rendered report.
//! - [`metrics`] — lock-free counters, gauges, and thread-striped
//!   concurrent histograms behind the store's observability layer.
//! - [`eventlog`] — per-thread buffered event logs with a shared
//!   logical clock, the substrate of the `clsm-check` history recorder.

#![warn(missing_docs)]

pub mod arena;
pub mod bloom;
pub mod clock;
pub mod coding;
pub mod crc;
pub mod env;
pub mod epoch;
pub mod error;
pub mod eventlog;
pub mod histogram;
pub mod json;
pub mod metrics;
pub mod oracle;
pub mod rcu;
pub mod shared_lock;
mod tid;

pub use error::{Error, Result};
