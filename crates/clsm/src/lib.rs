//! cLSM: scalable concurrency for log-structured data stores.
//!
//! This crate is a from-scratch Rust implementation of the algorithm in
//! *Scaling Concurrent Log-Structured Data Stores* (Golan-Gueta,
//! Bortnikov, Hillel, Keidar — EuroSys 2015). It layers the paper's
//! concurrency control over the [`lsm_storage`] disk substrate:
//!
//! - **Non-blocking gets** ([`Db::get`]): reads traverse the mutable
//!   memtable `Pm`, the immutable memtable `P'm`, and the disk
//!   component `Pd` through RCU-protected pointers; no lock, ever.
//! - **Mostly non-blocking puts** ([`Db::put`]): writes hold a
//!   writer-preferring shared-exclusive lock in *shared* mode while
//!   they insert into the lock-free memtable; the lock is taken
//!   exclusively only in the short `beforeMerge`/`afterMerge` hooks
//!   around a memtable flush (Algorithm 1).
//! - **Serializable snapshot scans** ([`Db::snapshot`]): Algorithm 2's
//!   timestamp oracle (`timeCounter`, `Active` set, `snapTime`) gives
//!   every snapshot a time below every in-flight write.
//! - **Non-blocking read-modify-write** ([`Db::read_modify_write`]):
//!   Algorithm 3's optimistic conflict detection in the skip list.
//! - **One write entry point** ([`Db::write`]): every mutation is a
//!   [`WriteBatch`] applied under [`WriteOptions`]; a single op runs
//!   Algorithm 2's `put` under the shared lock, a multi-op batch commits
//!   atomically under the exclusive lock with one timestamp block.
//!
//! # Examples
//!
//! ```
//! use clsm::{Db, Options};
//!
//! let dir = std::env::temp_dir().join(format!("clsm-doc-{}", std::process::id()));
//! let db = Db::open(&dir, Options::small_for_tests()).unwrap();
//! db.put(b"user:1", b"alice").unwrap();
//! assert_eq!(db.get(b"user:1").unwrap(), Some(b"alice".to_vec()));
//!
//! let snap = db.snapshot().unwrap();
//! db.put(b"user:1", b"bob").unwrap();
//! // The snapshot still sees the old state.
//! assert_eq!(snap.get(b"user:1").unwrap(), Some(b"alice".to_vec()));
//! assert_eq!(db.get(b"user:1").unwrap(), Some(b"bob".to_vec()));
//! drop(db);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs, unreachable_pub)]

mod admission;
mod batch;
mod components;
mod db;
mod doctor;
mod jobs;
mod kv_impl;
mod memtable;
mod options;
mod rmw;
mod snapshot;
mod stats;
mod watchdog;

pub use admission::AdmissionOptions;
pub use batch::{WriteBatch, WriteOptions};
#[doc(hidden)]
pub use components::{Components, VersionedRead};
pub use db::Db;
pub use doctor::{watch_dashboard_header, watch_dashboard_line, DoctorReport};
#[doc(hidden)]
pub use jobs::{wait_idle, Job, JobHost, Jobs, Workers};
pub use memtable::Memtable;
pub use options::Options;
pub use rmw::{RmwDecision, RmwResult};
pub use snapshot::{Snapshot, SnapshotIter};
pub use watchdog::{StallEvent, StallKind};

pub use clsm_kv::{KvSnapshot, KvStore, ScanRange};
pub use clsm_util::error::{Error, Result};
pub use clsm_util::metrics::{HistogramSummary, MetricsSnapshot};
pub use lsm_storage::store::RecoveryReport;
