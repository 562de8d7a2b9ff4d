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
//! - [`channel`] — the MPMC queue feeding the WAL logger thread (the
//!   paper's non-blocking logging queue, §4).
//! - [`mod@env`] — the injectable storage environment ([`env::RealEnv`] for
//!   production, [`env::FaultEnv`] for deterministic crash injection).
//! - [`bloom`], [`coding`], [`crc`] — encoding substrates for the disk
//!   component (Bloom filters, varints, CRC32C).
//! - [`histogram`] — latency histograms for the evaluation harness.
//! - [`metrics`] — lock-free counters, gauges, and thread-striped
//!   concurrent histograms behind the store's observability layer.
//! - [`trace`] — the flight recorder: per-thread lock-free event rings
//!   merged into a globally ordered stream, exportable as Chrome trace
//!   JSON for `chrome://tracing` / Perfetto.
//! - [`eventlog`] — per-thread buffered event logs with a shared
//!   logical clock, the substrate of the `clsm-check` history recorder.

#![warn(missing_docs)]

pub mod arena;
pub mod bloom;
pub mod channel;
pub mod coding;
pub mod crc;
pub mod env;
pub mod epoch;
pub mod error;
pub mod eventlog;
pub mod histogram;
pub mod metrics;
pub mod oracle;
pub mod ratelimit;
pub mod rcu;
pub mod shared_lock;
pub mod tid;
pub mod trace;

pub use error::{Error, Result};
