//! Frozen benchmark configuration: the store under test, the four
//! workloads' sizes, and the open-loop rate. Changing anything here
//! changes what the numbers mean; re-calibrate (`calibrate.sh`) and say
//! so in `CHANGES.md`.

use std::sync::Arc;

use clsm::Options;
use clsm_util::env::Env;
use lsm_storage::StoreOptions;

/// Load threads of the closed-loop workloads (the host has 2 cores).
pub const THREADS: usize = 2;

/// Load threads of `ingest`: one. A second writer phase-locks with the
/// first around the group-commit leader flag while both sleep in the
/// admission ramp, and a run settles into one of two throughputs a
/// fifth apart (README, "Found on the way").
pub const INGEST_THREADS: usize = 1;

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 0xc15a;

/// Entries per prefill `WriteBatch`.
pub const PREFILL_BATCH: u64 = 256;

/// Times set-up is repeated in a run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Keys read back after close and reopen at the end of every workload.
pub const VERIFY_SAMPLE: u64 = 10_000;

/// `net-open` request rate in requests per second; frozen from the
/// testing phase recorded in README.md, never re-derived per run.
pub const NET_RATE: u64 = 2_000;

/// Counter keys of `scan-rmw` (paper Fig 9).
pub const RMW_COUNTERS: u64 = 1_024;

/// Sizes of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Distinct keys the generator draws from.
    pub key_space: u64,
    /// Keys `0..prefill` are written before the warm-up.
    pub prefill: u64,
    /// Key length in bytes.
    pub key_len: usize,
    /// Value length in bytes.
    pub value_len: usize,
}

impl Sizes {
    /// User bytes of one key-value pair.
    pub fn pair_bytes(&self) -> u64 {
        (self.key_len + self.value_len) as u64
    }
}

/// `ingest`: 100 000 keys of 16 B / 1 KiB = 104 MB, all prefilled, so
/// the tree keeps its size while every key is overwritten about twice
/// in a window.
pub const INGEST: Sizes = Sizes {
    key_space: 100_000,
    prefill: 100_000,
    key_len: 16,
    value_len: 1024,
};

/// `prod-mix`: 130 000 keys of 40 B / 1 KiB ≈ 138 MB, 8.2× the block
/// cache (the "larger than the program's cache" workload).
pub const PROD_MIX: Sizes = Sizes {
    key_space: 130_000,
    prefill: 130_000,
    key_len: 40,
    value_len: 1024,
};

/// `scan-rmw`: 50 000 keys of 16 B / 256 B ≈ 13.6 MB, inside the
/// 16 MiB block cache (the "fits" workload).
pub const SCAN_RMW: Sizes = Sizes {
    key_space: 50_000,
    prefill: 50_000,
    key_len: 16,
    value_len: 256,
};

/// `net-open`: 50 000 keys of 16 B / 64 B = 4 MB, memtable-resident.
pub const NET_OPEN: Sizes = Sizes {
    key_space: 50_000,
    prefill: 50_000,
    key_len: 16,
    value_len: 64,
};

/// The store under test: `Options::default()` — group commit and
/// write-path attribution on, one WAL stripe, leveled compaction,
/// default admission and watchdog, one compaction thread, asynchronous
/// logging (`sync_writes = false`, the flush policy of every workload)
/// — with only the sizes scaled to the 2-core host.
pub fn store_options(env: Arc<dyn Env>) -> Options {
    let defaults = Options::default();
    Options {
        memtable_bytes: 8 << 20,
        store: StoreOptions {
            block_cache_bytes: 16 << 20,
            table_file_size: 2 << 20,
            base_level_bytes: 16 << 20,
            env,
            ..defaults.store
        },
        ..defaults
    }
}
