//! Database configuration.

use lsm_storage::StoreOptions;

use crate::admission::AdmissionOptions;

/// Configuration of a [`crate::Db`].
///
/// # Opening a database
///
/// ```no_run
/// use clsm::{Db, Options};
///
/// let opts = Options {
///     memtable_bytes: 8 * 1024 * 1024,
///     sync_writes: true,
///     ..Options::default()
/// };
/// let db = Db::open("/tmp/db".as_ref(), opts).unwrap();
/// # drop(db);
/// ```
///
/// # Injection points
///
/// Everything a test harness can substitute threads through this one
/// struct:
///
/// - **Storage environment** — `store.env` (an `Arc<dyn Env>`) routes
///   every durability-relevant file operation: WAL appends and syncs,
///   SSTable writes, manifest renames, and directory fsyncs. The
///   default [`clsm_util::env::RealEnv`] hits the real filesystem with
///   zero overhead; [`clsm_util::env::FaultEnv`] adds deterministic
///   crash failpoints and torn-tail simulation for the
///   crash-consistency harness.
#[derive(Debug, Clone)]
pub struct Options {
    /// Memtable size that triggers a flush (the paper's default,
    /// inherited from HBase practice, is 128 MiB; scale it down for
    /// small experiments).
    pub memtable_bytes: usize,
    /// `true` → every write waits for an fsync (the paper's synchronous
    /// logging). `false` (default, as in LevelDB) → writes only enqueue
    /// the log record on the logging queue.
    pub sync_writes: bool,
    /// Number of background compaction threads. The paper's cLSM uses a
    /// single compaction thread (§5); the RocksDB comparison (§5.3)
    /// raises this.
    pub compaction_threads: usize,
    /// Write admission: pacing at the measured drain rate while a merge
    /// stage is behind, ahead of the §5.3 stall (see
    /// [`crate::AdmissionOptions`]).
    pub admission: AdmissionOptions,
    /// Disk substrate tuning.
    pub store: StoreOptions,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            memtable_bytes: 128 * 1024 * 1024,
            sync_writes: false,
            compaction_threads: 1,
            admission: AdmissionOptions::default(),
            store: StoreOptions::default(),
        }
    }
}

impl Options {
    /// Checks configuration invariants; called by `Db::open`.
    pub(crate) fn validate(&self) -> clsm_util::error::Result<()> {
        use clsm_util::error::Error;
        if self.memtable_bytes < 4 * 1024 {
            return Err(Error::invalid_argument(
                "memtable_bytes must be at least 4 KiB",
            ));
        }
        if self.compaction_threads == 0 {
            return Err(Error::invalid_argument(
                "compaction_threads must be at least 1 (the paper's maintenance thread)",
            ));
        }
        self.store.validate()
    }

    /// A configuration scaled down for unit tests and examples: tiny
    /// memtable and tables so flushes and compactions happen quickly.
    ///
    /// The `CLSM_TEST_COMPACTION_THREADS` environment variable, when
    /// set to a positive integer, overrides the compaction thread
    /// count — CI uses it to run the whole test suite against the
    /// multi-threaded compaction path without a code change.
    pub fn small_for_tests() -> Self {
        let compaction_threads = std::env::var("CLSM_TEST_COMPACTION_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&n: &usize| n >= 1)
            .unwrap_or(1);
        Options {
            memtable_bytes: 64 * 1024,
            compaction_threads,
            store: StoreOptions {
                table_file_size: 64 * 1024,
                base_level_bytes: 256 * 1024,
                level_multiplier: 4,
                block_size: 4096,
                block_cache_bytes: 1 << 20,
                ..StoreOptions::default()
            },
            ..Options::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_invalid_configurations() {
        assert!(Options::default().validate().is_ok());
        for bad in [
            Options {
                memtable_bytes: 16,
                ..Options::default()
            },
            Options {
                compaction_threads: 0,
                ..Options::default()
            },
            Options {
                store: StoreOptions {
                    base_level_bytes: 0,
                    ..StoreOptions::default()
                },
                ..Options::default()
            },
            Options {
                store: StoreOptions {
                    table_file_size: 0,
                    ..StoreOptions::default()
                },
                ..Options::default()
            },
        ] {
            assert!(bad.validate().is_err());
        }
    }
}
