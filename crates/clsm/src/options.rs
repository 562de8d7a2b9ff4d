//! Database configuration.

use std::path::Path;
use std::sync::Arc;

use clsm_util::env::Env;
use clsm_util::ratelimit::IoRateLimiter;
use lsm_storage::compaction::CompactionPolicyKind;
use lsm_storage::StoreOptions;

use crate::admission::AdmissionOptions;
use crate::watchdog::WatchdogOptions;

/// Configuration of a [`crate::Db`].
///
/// # Opening a database
///
/// [`Options::open`] and [`crate::Db::open`] are the same call.
///
/// ```no_run
/// use clsm::Options;
///
/// let db = Options::small_for_tests().open("/tmp/db".as_ref()).unwrap();
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
///   crash-consistency harness. Set it with
///   [`OptionsBuilder::env`].
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
    /// `true` → snapshots are linearizable (never "read in the past");
    /// `false` (default) → serializable, as in the paper's Algorithm 2.
    pub linearizable_snapshots: bool,
    /// `true` (default) → each write records per-stage latencies
    /// (admission, stamp, memtable, WAL enqueue, publish, durable)
    /// into the `write_path.*` histograms behind
    /// `Db::write_path_report()`. The cost is a handful of monotonic
    /// clock reads plus thread-striped histogram updates per write — no
    /// locks. `false` → the stage recording sites reduce to a single
    /// branch.
    pub write_path_attribution: bool,
    /// Number of background compaction threads. The paper's cLSM uses a
    /// single compaction thread (§5); the RocksDB comparison (§5.3)
    /// raises this.
    pub compaction_threads: usize,
    /// Slot count of the oracle's `Active` set; must exceed the number
    /// of concurrent writer threads.
    pub active_slots: usize,
    /// Stall-watchdog configuration (sampling thread flagging write
    /// stalls, long exclusive-lock holds, and Active-set pressure).
    pub watchdog: WatchdogOptions,
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
            linearizable_snapshots: false,
            write_path_attribution: true,
            compaction_threads: 1,
            active_slots: 256,
            watchdog: WatchdogOptions::default(),
            admission: AdmissionOptions::default(),
            store: StoreOptions::default(),
        }
    }
}

impl Options {
    /// Checks configuration invariants; called by `Db::open`.
    pub fn validate(&self) -> clsm_util::error::Result<()> {
        use clsm_util::error::Error;
        if self.memtable_bytes < 4 * 1024 {
            return Err(Error::invalid_argument(
                "memtable_bytes must be at least 4 KiB",
            ));
        }
        if self.active_slots == 0 {
            return Err(Error::invalid_argument("active_slots must be nonzero"));
        }
        if self.compaction_threads == 0 {
            return Err(Error::invalid_argument(
                "compaction_threads must be at least 1 (the paper's maintenance thread)",
            ));
        }
        if self.store.num_levels < 2 || self.store.num_levels > lsm_storage::NUM_LEVELS {
            return Err(Error::invalid_argument(format!(
                "num_levels must be within 2..={}",
                lsm_storage::NUM_LEVELS
            )));
        }
        if self.store.level_multiplier < 2 {
            return Err(Error::invalid_argument(
                "level_multiplier must be at least 2",
            ));
        }
        if self.store.block_size < 64 {
            return Err(Error::invalid_argument(
                "block_size must be at least 64 bytes",
            ));
        }
        // A zero trigger or budget divides `level_score` by zero, so the
        // compaction thread never rests; a zero table size closes one
        // table per entry.
        if self.store.l0_compaction_trigger == 0 {
            return Err(Error::invalid_argument(
                "store.l0_compaction_trigger must be at least 1",
            ));
        }
        if self.store.base_level_bytes == 0 {
            return Err(Error::invalid_argument(
                "store.base_level_bytes must be nonzero",
            ));
        }
        if self.store.table_file_size == 0 {
            return Err(Error::invalid_argument(
                "store.table_file_size must be nonzero",
            ));
        }
        Ok(())
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
                l0_compaction_trigger: 4,
                block_size: 4096,
                block_cache_bytes: 1 << 20,
                ..StoreOptions::default()
            },
            ..Options::default()
        }
    }

    /// Starts a validating [`OptionsBuilder`] from the defaults.
    ///
    /// ```
    /// use clsm::Options;
    ///
    /// let opts = Options::builder()
    ///     .memtable_bytes(8 * 1024 * 1024)
    ///     .sync_writes(true)
    ///     .compaction_threads(2)
    ///     .build()
    ///     .unwrap();
    /// assert!(opts.sync_writes);
    /// ```
    pub fn builder() -> OptionsBuilder {
        OptionsBuilder {
            opts: Options::default(),
        }
    }

    /// Opens (or creates) a [`crate::Db`] at `path` with this
    /// configuration.
    pub fn open(self, path: &Path) -> clsm_util::error::Result<crate::Db> {
        crate::Db::open(path, self)
    }
}

/// Fluent, validating constructor for [`Options`].
///
/// Every setter returns `self`; [`OptionsBuilder::build`] runs
/// [`Options::validate`], so an invalid combination fails at
/// construction rather than inside `Db::open`. The builder converts
/// into `Options` wherever `impl Into<Options>` is accepted (e.g.
/// `Db::open`), in which case validation is deferred to `open`.
#[derive(Debug, Clone)]
pub struct OptionsBuilder {
    opts: Options,
}

impl OptionsBuilder {
    /// Starts from an existing configuration instead of the defaults.
    pub fn from_options(opts: Options) -> Self {
        OptionsBuilder { opts }
    }

    /// Memtable size that triggers a flush.
    pub fn memtable_bytes(mut self, bytes: usize) -> Self {
        self.opts.memtable_bytes = bytes;
        self
    }

    /// Whether every write waits for an fsync.
    pub fn sync_writes(mut self, sync: bool) -> Self {
        self.opts.sync_writes = sync;
        self
    }

    /// Whether snapshots are linearizable rather than serializable.
    pub fn linearizable_snapshots(mut self, linearizable: bool) -> Self {
        self.opts.linearizable_snapshots = linearizable;
        self
    }

    /// Whether writes record per-stage latency attribution (see
    /// [`Options::write_path_attribution`]).
    pub fn write_path_attribution(mut self, enabled: bool) -> Self {
        self.opts.write_path_attribution = enabled;
        self
    }

    /// Number of background compaction threads.
    pub fn compaction_threads(mut self, threads: usize) -> Self {
        self.opts.compaction_threads = threads;
        self
    }

    /// Slot count of the oracle's `Active` set.
    pub fn active_slots(mut self, slots: usize) -> Self {
        self.opts.active_slots = slots;
        self
    }

    /// Stall-watchdog configuration.
    pub fn watchdog(mut self, watchdog: WatchdogOptions) -> Self {
        self.opts.watchdog = watchdog;
        self
    }

    /// Write-admission configuration (pacing while a merge stage is
    /// behind, ahead of the §5.3 stall).
    pub fn admission(mut self, admission: AdmissionOptions) -> Self {
        self.opts.admission = admission;
        self
    }

    /// Disk substrate tuning.
    pub fn store(mut self, store: StoreOptions) -> Self {
        self.opts.store = store;
        self
    }

    /// Compaction scheduling policy of the disk substrate (leveled or
    /// hybrid-partial; see
    /// [`lsm_storage::compaction::CompactionPolicyKind`]).
    pub fn compaction_policy(mut self, kind: CompactionPolicyKind) -> Self {
        self.opts.store.compaction_policy = kind;
        self
    }

    /// Caps background + foreground file-write bandwidth with a shared
    /// token bucket (`bytes_per_sec`, refilled up to `burst_bytes`;
    /// flush and WAL traffic outranks compaction). `0` bytes/sec
    /// removes the limit.
    pub fn io_rate_limit(mut self, bytes_per_sec: u64, burst_bytes: u64) -> Self {
        self.opts.store.io_rate_limiter = if bytes_per_sec == 0 {
            None
        } else {
            Some(Arc::new(IoRateLimiter::new(bytes_per_sec, burst_bytes)))
        };
        self
    }

    /// Storage environment every file operation is routed through
    /// (see the "Injection points" section of [`Options`]).
    pub fn env(mut self, env: Arc<dyn Env>) -> Self {
        self.opts.store.env = env;
        self
    }

    /// Validates and returns the finished configuration.
    pub fn build(self) -> clsm_util::error::Result<Options> {
        self.opts.validate()?;
        Ok(self.opts)
    }
}

impl From<OptionsBuilder> for Options {
    /// Unvalidated conversion, for passing a builder straight to
    /// `Db::open` (which validates on entry).
    fn from(b: OptionsBuilder) -> Options {
        b.opts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrips_every_field() {
        let opts = Options::builder()
            .memtable_bytes(1 << 20)
            .sync_writes(true)
            .linearizable_snapshots(true)
            .write_path_attribution(false)
            .compaction_threads(3)
            .active_slots(64)
            .store(StoreOptions {
                block_size: 1024,
                ..StoreOptions::default()
            })
            .build()
            .unwrap();
        assert_eq!(opts.memtable_bytes, 1 << 20);
        assert!(opts.sync_writes);
        assert!(opts.linearizable_snapshots);
        assert!(!opts.write_path_attribution);
        assert_eq!(opts.compaction_threads, 3);
        assert_eq!(opts.active_slots, 64);
        assert_eq!(opts.store.block_size, 1024);
    }

    #[test]
    fn builder_rejects_invalid_configurations() {
        assert!(Options::builder().memtable_bytes(16).build().is_err());
        assert!(Options::builder().active_slots(0).build().is_err());
        assert!(Options::builder().compaction_threads(0).build().is_err());
        for zeroed in [
            StoreOptions {
                l0_compaction_trigger: 0,
                ..StoreOptions::default()
            },
            StoreOptions {
                base_level_bytes: 0,
                ..StoreOptions::default()
            },
            StoreOptions {
                table_file_size: 0,
                ..StoreOptions::default()
            },
        ] {
            assert!(Options::builder().store(zeroed).build().is_err());
        }
    }

    #[test]
    fn builder_selects_policy_admission_and_rate_limit() {
        let opts = Options::builder()
            .compaction_policy(CompactionPolicyKind::HybridPartial)
            .io_rate_limit(8 << 20, 1 << 20)
            .admission(AdmissionOptions { enabled: false })
            .build()
            .unwrap();
        assert_eq!(
            opts.store.compaction_policy,
            CompactionPolicyKind::HybridPartial
        );
        let limiter = opts.store.io_rate_limiter.as_ref().unwrap();
        assert_eq!(limiter.bytes_per_sec(), 8 << 20);
        assert!(!opts.admission.enabled);

        // Zero bytes/sec removes the limit.
        let opts = Options::builder()
            .io_rate_limit(8 << 20, 0)
            .io_rate_limit(0, 0)
            .build()
            .unwrap();
        assert!(opts.store.io_rate_limiter.is_none());
    }

    #[test]
    fn options_open_is_db_open() {
        let dir = std::env::temp_dir().join(format!(
            "options-open-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let db = Options::small_for_tests().open(&dir).unwrap();
        db.put(b"k", b"v").unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn builder_from_options_preserves_base() {
        let base = Options::small_for_tests();
        let opts = OptionsBuilder::from_options(base.clone())
            .sync_writes(true)
            .build()
            .unwrap();
        assert_eq!(opts.memtable_bytes, base.memtable_bytes);
        assert!(opts.sync_writes);
    }
}
