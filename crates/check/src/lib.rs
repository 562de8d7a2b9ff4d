//! `clsm-check`: history-based correctness checking for every store in
//! the workspace.
//!
//! The paper's concurrency claims are exactly the kind that unit tests
//! miss: linearizable point operations (gets may read
//! inserted-but-unpublished versions, RMW retries on conflict) and
//! serializable — deliberately *not* linearizable — snapshot scans
//! (Algorithm 2). This crate checks real concurrent executions against
//! those claims, black-box, through the [`clsm_kv::KvStore`] trait:
//!
//! - [`driver`] runs seeded adversarial schedules, recording every
//!   operation through [`clsm_kv::record`];
//! - `lin` checks point ops for per-key linearizability (Wing–Gong
//!   search with memoization);
//! - [`snapcheck`] checks snapshots and scans for serializability,
//!   batch atomicity, and cross-snapshot monotonicity — with a
//!   `Linearizable` mode that demonstrates the paper's documented
//!   get/scan anomaly;
//! - [`sut`] opens any system in the workspace for checking, including
//!   crash-reopen runs over a [`clsm_util::env::FaultEnv`];
//! - [`mutations`] re-introduces classic bugs so the suite can prove
//!   the checker catches them;
//! - [`history`] serializes failing runs for `clsm-check --replay`;
//! - [`check_history`] turns check results into JSON verdicts with minimized
//!   counterexamples.

#![warn(missing_docs)]

pub mod driver;
pub mod history;
mod lin;
pub mod mutations;
pub mod snapcheck;
pub mod sut;
mod verdict;

pub use driver::{run_schedule, ScheduleCfg, SutCaps};
pub use snapcheck::{CheckMode, RecoveredState};
pub use verdict::{check_history, Verdict};
