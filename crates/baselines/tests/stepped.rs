//! Every baseline on the stepped scheduler: `Baseline::open_stepped`
//! starts no thread, and the test runs its due jobs in an order a seed
//! picks, with the driver `clsm::Db`'s suite uses. Seeded schedules
//! match a `BTreeMap` model, a seed replays the same file operations,
//! and writers that find the memtable full are held until the flush
//! swaps it.

#[path = "../../clsm/tests/common/mod.rs"]
mod common;

use std::path::Path;

use clsm::{Job, Options};
use clsm_baselines::{Baseline, BlsmLike, HyperLike, LevelDbLike, Model, RocksLike};
use clsm_util::error::Result;
use common::SteppedStore;

impl<M: Model> SteppedStore for Baseline<M> {
    const SNAPSHOTS_PIN: bool = false;

    fn open_stepped(dir: &Path, opts: Options) -> Result<Self> {
        Baseline::open_stepped(dir, opts)
    }

    fn due_jobs(&self) -> Vec<Job> {
        self.workers().due_jobs()
    }

    fn run_job(&self, job: Job) -> Result<bool> {
        self.workers().run_job(job)
    }
}

macro_rules! front_end {
    ($module:ident, $store:ty) => {
        mod $module {
            use super::*;

            #[test]
            fn seeded_stepped_schedules_match_a_model() {
                common::seeded_stepped_schedules_match_a_model::<$store>();
            }

            #[test]
            fn a_seed_replays_the_same_file_operations() {
                common::a_seed_replays_the_same_file_operations::<$store>();
            }

            #[test]
            fn a_full_memtable_holds_its_writers_until_the_flush() {
                common::a_full_memtable_holds_its_writers_until_the_flush::<$store>(concat!(
                    "held-",
                    stringify!($module)
                ));
            }
        }
    };
}

front_end!(leveldb, LevelDbLike);
front_end!(hyper, HyperLike);
front_end!(rocks, RocksLike);
front_end!(blsm, BlsmLike);
