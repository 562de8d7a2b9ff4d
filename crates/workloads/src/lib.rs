//! Workload generators and the multi-threaded driver for the cLSM
//! evaluation (§5).
//!
//! Three workload families from the paper:
//!
//! - **Synthetic** (§5.1): 8-byte keys / 256-byte values; uniform
//!   writes, skewed reads (90% of operations on "popular" blocks
//!   covering 10% of the database), 1:1 mixes, scan/write mixes, and
//!   put-if-absent RMW.
//! - **Production** (§5.2): 40-byte keys / 1 KiB values, 85–96% reads,
//!   heavy-tail key popularity (top 10% of keys ≈ 75%+ of requests,
//!   top 1–2% ≈ 50%, ~10% of keys seen once), drawn from a
//!   heavy-tail key distribution with those published aggregate
//!   properties.
//! - **Disk-bound** (§5.3): sequential fill followed by uniform
//!   updates, 10-byte keys / 400-byte values.
//!
//! [`runner`] drives any [`clsm_baselines::KvStore`] with a fixed
//! thread count and records throughput plus latency percentiles.

#![warn(missing_docs)]

pub mod keygen;
pub mod runner;
pub(crate) mod spec;
pub mod zipf;

pub use keygen::{KeyDistribution, KeyGen};
pub use runner::{run_workload, Prefill, RunConfig, RunResult};
pub use spec::{production_dataset, OpMix, WorkloadSpec};
pub use zipf::Zipf;
