//! LSM disk substrate: WAL, SSTables, leveled versions, compaction and
//! recovery.
//!
//! This crate is the from-scratch equivalent of the LevelDB modules the
//! cLSM paper inherits ("disk component, cache, merge function, etc.",
//! §4). It deliberately contains **no concurrency-control policy** for
//! client operations — that is the contribution of the `clsm` crate and
//! of the baselines; this substrate only guarantees that its own
//! internals (version installation, table building, the block cache)
//! are thread-safe so that different concurrency schemes can share it.
//!
//! Layout of a store directory:
//!
//! ```text
//! CURRENT            → name of the live manifest
//! MANIFEST-000001    → log of version edits
//! 000003.log         → write-ahead log of the active memtable
//! 000005.sst         → sorted string tables, organised in levels
//! ```

#![warn(missing_docs, unreachable_pub)]

pub mod cache;
pub mod compaction;
pub mod filenames;
pub mod format;
pub mod iter;
pub mod sstable;
pub mod store;
pub mod version;
pub mod wal;

pub use format::{InternalKey, ValueKind, WriteRecord};
pub use iter::{InternalIterator, MergingIterator};
pub use store::{Store, StoreOptions};

/// Number of on-disk levels (L0 .. L6), as in LevelDB.
pub(crate) const NUM_LEVELS: usize = 7;
