//! Concurrency-control baselines for the cLSM evaluation (§5).
//!
//! The paper compares cLSM against LevelDB, HyperLevelDB, RocksDB, and
//! bLSM. Rather than binding to those C++ codebases, this crate
//! reimplements each system's **concurrency-control model** on the same
//! `lsm-storage` substrate the cLSM crate uses. That isolates exactly
//! the variable the paper studies — in-memory synchronization — with
//! the disk format, caches, WAL, and compaction held equal.
//!
//! Shared with `clsm::Db`: the substrate; the memory components
//! (`clsm::Components`: `Pm`, `P'm`, recovery replay, reads, scan
//! children and the one stall condition, so a full `Pm` holds every
//! writer until its swap); and the background job runtime
//! (`clsm::jobs`) with its one flush, so flushes and compactions run on
//! the same threads with the same retry, read-only and WAL rotation
//! rules. Every front-end is a [`Baseline`] over its `Model`: the
//! `KvStore` surface, the open and the stepped open (no thread, for
//! seeded schedules) are `Baseline`'s, and each model owns only how
//! writers get and publish sequence numbers, the read point, and
//! (bLSM) the gear:
//!
//! - [`LevelDbLike`] — a global mutex serializes writers end-to-end and
//!   is briefly taken by every read (LevelDB's design: "coarse-grained
//!   synchronization that forces all puts to be executed sequentially").
//! - [`HyperLike`] — writers get sequence numbers under a short lock,
//!   insert in parallel, but *commit in order* (HyperLevelDB's
//!   fine-grained locking; scales to a few threads, then degrades).
//! - [`RocksLike`] — single-writer with lock-free reads (RocksDB's
//!   cached super-version) and optionally multi-threaded compaction.
//! - [`BlsmLike`] — single-writer with a spring-and-gear merge
//!   scheduler that throttles writes smoothly instead of stalling.
//! - [`StripedRmw`] — the §5.1 read-modify-write baseline: lock
//!   striping over a LevelDB-style store.
//! - [`Partitioned`] — the Figure 1 configuration: several stores, each
//!   owning a key-range shard.
//!
//! All baselines and `clsm::Db` implement [`KvStore`], so the workload
//! driver treats them uniformly.

#![warn(missing_docs)]

mod blsm_like;
mod core;
mod hyper_like;
mod leveldb_like;
mod partitioned;
mod rocks_like;
mod striped_rmw;

pub use blsm_like::{BlsmLike, BlsmModel};
pub use core::Baseline;
#[doc(hidden)]
pub use core::{BaselineCore, Model};
pub use hyper_like::{HyperLike, HyperModel};
pub use leveldb_like::{LevelDbLike, LevelDbModel};
pub use partitioned::Partitioned;
pub use rocks_like::{RocksLike, RocksModel};
pub use striped_rmw::StripedRmw;

pub use clsm_kv::{KvStore, ScanRange};
