//! The uniform key-value store interface of the cLSM evaluation.
//!
//! Every evaluated system — `clsm::Db` and each concurrency-control
//! baseline — implements [`KvStore`], so the workload driver, the
//! history checker and the benchmark harness treat them as
//! interchangeable trait objects. The trait lives in its own crate so that both the `clsm`
//! crate (which implements it for `Db`) and the baselines crate can
//! depend on it without a cycle.
//!
//! Design notes:
//!
//! - [`KvStore::write`] is the single real mutation entry point: a
//!   [`WriteBatch`] (one or many puts/deletes) plus per-call
//!   [`WriteOptions`]. `put`/`delete` are provided shims over it, so
//!   workloads written against the point API automatically route
//!   through each system's one write path. Whether a multi-entry
//!   batch applies *atomically* is a per-system capability, not a
//!   trait guarantee.
//! - [`KvStore::snapshot`] returns a boxed [`KvSnapshot`] — a
//!   consistent read-only view. For cLSM this is a real multi-version
//!   snapshot; baselines capture their visible sequence number, which
//!   gives the same read-your-writes consistency their C++ models
//!   provide.
//! - [`KvStore::stats`] surfaces the system's metrics registry as a
//!   [`MetricsSnapshot`]; systems without one return an empty snapshot.

#![warn(missing_docs)]

use std::ops::{Bound, RangeBounds};

pub use clsm_util::error::{Error, Result};
pub use clsm_util::metrics::MetricsSnapshot;

pub mod api;
pub mod record;
mod write;

pub use write::{WriteBatch, WriteOptions};

/// What a read-modify-write function wants done with the key.
///
/// Defined here (rather than in the `clsm` crate, where the paper's
/// Algorithm 3 lives) so that [`KvStore::read_modify_write`] can be
/// exercised black-box against every evaluated system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RmwDecision {
    /// Store this value as the new version.
    Update(Vec<u8>),
    /// Store a deletion marker.
    Delete,
    /// Leave the key untouched (e.g. put-if-absent finding a value).
    Abort,
}

/// Outcome of a read-modify-write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RmwResult {
    /// `true` if a new version was written; `false` on `Abort`.
    pub committed: bool,
    /// The value the *final, successful* attempt observed (the input
    /// to the decision that was applied).
    pub previous: Option<Vec<u8>>,
}

/// An owned key range for [`KvSnapshot::scan`] / [`KvStore::scan`].
///
/// `RangeBounds` itself is not object-safe as a method parameter of a
/// trait-object store, so the scan API takes this concrete struct
/// instead; every standard range expression converts into it:
///
/// ```
/// use clsm_kv::ScanRange;
///
/// let everything: ScanRange = (..).into();
/// let from_b: ScanRange = (b"b".to_vec()..).into();
/// let b_to_d: ScanRange = (b"b".to_vec()..b"d".to_vec()).into();
/// let through_d: ScanRange = (..=b"d".to_vec()).into();
/// assert!(b_to_d.contains_key(b"c"));
/// assert!(!b_to_d.contains_key(b"d"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanRange {
    /// Lower bound on keys.
    pub start: Bound<Vec<u8>>,
    /// Upper bound on keys.
    pub end: Bound<Vec<u8>>,
}

impl Default for ScanRange {
    fn default() -> Self {
        ScanRange::all()
    }
}

impl ScanRange {
    /// The unbounded range (every key).
    pub fn all() -> Self {
        ScanRange {
            start: Bound::Unbounded,
            end: Bound::Unbounded,
        }
    }

    /// Keys `>= start`, unbounded above — the historical
    /// `scan(start, limit)` shape.
    pub fn from_start(start: impl Into<Vec<u8>>) -> Self {
        ScanRange {
            start: Bound::Included(start.into()),
            end: Bound::Unbounded,
        }
    }

    /// Copies any standard range expression into an owned `ScanRange`.
    pub fn new(range: impl RangeBounds<Vec<u8>>) -> Self {
        ScanRange {
            start: range.start_bound().cloned(),
            end: range.end_bound().cloned(),
        }
    }

    /// Whether `key` lies within the range.
    pub fn contains_key(&self, key: &[u8]) -> bool {
        (match &self.start {
            Bound::Included(s) => key >= s.as_slice(),
            Bound::Excluded(s) => key > s.as_slice(),
            Bound::Unbounded => true,
        }) && (match &self.end {
            Bound::Included(e) => key <= e.as_slice(),
            Bound::Excluded(e) => key < e.as_slice(),
            Bound::Unbounded => true,
        })
    }

    /// Normalizes to the `(inclusive start, exclusive end)` key pair
    /// iterators understand. Byte strings have an exact immediate
    /// lexicographic successor — `key ++ 0x00` — so an excluded start
    /// and an included end are both representable without loss.
    pub fn as_keys(&self) -> (Option<Vec<u8>>, Option<Vec<u8>>) {
        fn successor(key: &[u8]) -> Vec<u8> {
            let mut s = Vec::with_capacity(key.len() + 1);
            s.extend_from_slice(key);
            s.push(0);
            s
        }
        let start = match &self.start {
            Bound::Included(k) => Some(k.clone()),
            Bound::Excluded(k) => Some(successor(k)),
            Bound::Unbounded => None,
        };
        let end = match &self.end {
            Bound::Included(k) => Some(successor(k)),
            Bound::Excluded(k) => Some(k.clone()),
            Bound::Unbounded => None,
        };
        (start, end)
    }
}

impl RangeBounds<Vec<u8>> for ScanRange {
    fn start_bound(&self) -> Bound<&Vec<u8>> {
        self.start.as_ref()
    }

    fn end_bound(&self) -> Bound<&Vec<u8>> {
        self.end.as_ref()
    }
}

impl From<std::ops::Range<Vec<u8>>> for ScanRange {
    fn from(r: std::ops::Range<Vec<u8>>) -> Self {
        ScanRange {
            start: Bound::Included(r.start),
            end: Bound::Excluded(r.end),
        }
    }
}

impl From<std::ops::RangeFrom<Vec<u8>>> for ScanRange {
    fn from(r: std::ops::RangeFrom<Vec<u8>>) -> Self {
        ScanRange {
            start: Bound::Included(r.start),
            end: Bound::Unbounded,
        }
    }
}

impl From<std::ops::RangeFull> for ScanRange {
    fn from(_: std::ops::RangeFull) -> Self {
        ScanRange::all()
    }
}

impl From<std::ops::RangeTo<Vec<u8>>> for ScanRange {
    fn from(r: std::ops::RangeTo<Vec<u8>>) -> Self {
        ScanRange {
            start: Bound::Unbounded,
            end: Bound::Excluded(r.end),
        }
    }
}

impl From<std::ops::RangeInclusive<Vec<u8>>> for ScanRange {
    fn from(r: std::ops::RangeInclusive<Vec<u8>>) -> Self {
        let (start, end) = r.into_inner();
        ScanRange {
            start: Bound::Included(start),
            end: Bound::Included(end),
        }
    }
}

impl From<std::ops::RangeToInclusive<Vec<u8>>> for ScanRange {
    fn from(r: std::ops::RangeToInclusive<Vec<u8>>) -> Self {
        ScanRange {
            start: Bound::Unbounded,
            end: Bound::Included(r.end),
        }
    }
}

impl From<(Bound<Vec<u8>>, Bound<Vec<u8>>)> for ScanRange {
    fn from((start, end): (Bound<Vec<u8>>, Bound<Vec<u8>>)) -> Self {
        ScanRange { start, end }
    }
}

/// A consistent read-only view of a store at one point in time.
pub trait KvSnapshot: Send + Sync {
    /// Reads `key` as of this snapshot.
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>>;

    /// Returns up to `limit` live pairs with keys in `range`, in key
    /// order, as of this snapshot.
    fn scan(&self, range: ScanRange, limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>>;
}

/// The operations every evaluated system supports.
///
/// `scan` corresponds to the paper's range queries (Figure 7b);
/// `put_if_absent` to the RMW benchmark (Figure 9).
pub trait KvStore: Send + Sync {
    /// Applies `batch` — the **single real mutation entry point**.
    ///
    /// Every other mutator (`put`, `delete`) is a thin shim over this
    /// method. Whether a
    /// multi-entry batch applies atomically is a per-system capability:
    /// cLSM batches are atomic (one stamp block, one WAL record);
    /// baselines apply entries one at a time under their own writer
    /// synchronization.
    fn write(&self, batch: WriteBatch, opts: &WriteOptions) -> Result<()>;

    /// Stores `value` under `key` (shim over [`KvStore::write`]).
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.write(WriteBatch::single_put(key, value), &WriteOptions::new())
    }

    /// Returns the latest value of `key`.
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>>;

    /// Deletes `key` (shim over [`KvStore::write`]).
    fn delete(&self, key: &[u8]) -> Result<()> {
        self.write(WriteBatch::single_delete(key), &WriteOptions::new())
    }

    /// Creates a consistent read-only view of the store.
    fn snapshot(&self) -> Result<Box<dyn KvSnapshot>>;

    /// Returns up to `limit` live pairs with keys in `range`, in
    /// order, from a consistent view.
    fn scan(&self, range: ScanRange, limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.snapshot()?.scan(range, limit)
    }

    /// Atomically stores `value` if `key` is absent; returns `true` if
    /// stored.
    ///
    /// Default shim over [`KvStore::read_modify_write`]; systems whose
    /// conditional-put protocol differs from their RMW path (or that
    /// have no atomic RMW at all) override it.
    fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool> {
        let result = self.read_modify_write(key, &mut |current| match current {
            Some(_) => RmwDecision::Abort,
            None => RmwDecision::Update(value.to_vec()),
        })?;
        Ok(result.committed)
    }

    /// Atomically applies `f` to the current value of `key` (the
    /// paper's Algorithm 3 for cLSM; baselines use whatever writer
    /// synchronization their model prescribes).
    ///
    /// `f` may run several times (once per conflict retry); it must be
    /// a pure function of its input. Systems without an atomic RMW
    /// path (e.g. the HyperLevelDB model, whose pipeline cannot hold a
    /// key stable across read-and-write) return
    /// [`Error::InvalidArgument`] from the default implementation.
    fn read_modify_write(
        &self,
        key: &[u8],
        f: &mut dyn FnMut(Option<&[u8]>) -> RmwDecision,
    ) -> Result<RmwResult> {
        let _ = (key, f);
        Err(Error::invalid_argument(format!(
            "{} does not support atomic read_modify_write",
            self.name()
        )))
    }

    /// Benchmark warm-up/teardown hook, one contract for every store:
    /// flushes the `Pm` (mutable memtable) found at the call, runs the
    /// flushes and compactions that are due, merges L0 into L1 when an
    /// L0 table overlaps a deeper level, and removes obsolete files.
    /// Writes made after the call need not be flushed.
    fn quiesce(&self) -> Result<()>;

    /// Short system name for reports (e.g. `"cLSM"`, `"LevelDB"`).
    fn name(&self) -> &'static str;

    /// The system's metrics, when it maintains a registry. Systems
    /// without one return an empty snapshot.
    fn stats(&self) -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// Write-amplification counters, when the system tracks them.
    fn write_amp(&self) -> Option<lsm_storage::store::WriteAmp> {
        None
    }
}
