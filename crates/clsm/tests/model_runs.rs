//! Model runs: exact cost counts from a seeded, stepped schedule, so a
//! read-path claim does not have to outvote a noisy host.
//!
//! A stepped `Db` (no threads) on an in-memory `FaultEnv` is loaded at
//! the `prod-mix` benchmark's geometry ÷ 32: a 256 KiB memtable, 64 KiB
//! tables, a 512 KiB block cache, 40-byte keys and 1 KiB values, data
//! about 8× the cache. It then serves 20 000 heavy-tail gets (θ = 0.99,
//! ranks scattered as `clsm_workloads::keygen` scatters them) and
//! counts, per get, the table `pread`s, the block-cache hits and misses
//! and the allocations of the calling thread. Two runs of one seed must
//! count the same, and every count must stay at or under its budget.
//!
//! Run it in release (`cargo test --release -p clsm --test model_runs
//! -- --nocapture` prints the table).

#[path = "../../../tests/common/mod.rs"]
mod counting;

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use clsm::{Db, Options};
use clsm_util::env::{Env, FaultEnv, RandomAccessFile, WritableFile};
use clsm_util::error::Result;
use clsm_workloads::keygen::{format_key, value_for, KeyDistribution, KeyGen};
use lsm_storage::StoreOptions;
use rand::rngs::StdRng;
use rand::SeedableRng;

const KEY_LEN: usize = 40;
const VALUE_LEN: usize = 1024;
/// `prod-mix`'s 130 000 keys ÷ 32.
const KEYS: u64 = 130_000 / 32;
const GETS: u64 = 20_000;
const SEED: u64 = 0xc15a;

/// A [`FaultEnv`] that counts reads of table files.
#[derive(Debug, Clone)]
struct CountingReads {
    fault: FaultEnv,
    reads: Arc<AtomicU64>,
}

struct CountedFile {
    inner: Box<dyn RandomAccessFile>,
    reads: Arc<AtomicU64>,
}

impl RandomAccessFile for CountedFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        self.reads.fetch_add(1, Relaxed);
        self.inner.read_at(offset, buf)
    }

    fn len(&self) -> Result<u64> {
        self.inner.len()
    }
}

impl Env for CountingReads {
    fn open_write(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        self.fault.open_write(path)
    }

    fn open_read(&self, path: &Path) -> Result<Box<dyn RandomAccessFile>> {
        let inner = self.fault.open_read(path)?;
        if path.extension().is_some_and(|ext| ext == "sst") {
            return Ok(Box::new(CountedFile {
                inner,
                reads: Arc::clone(&self.reads),
            }));
        }
        Ok(inner)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        self.fault.rename(from, to)
    }

    fn remove(&self, path: &Path) -> Result<()> {
        self.fault.remove(path)
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>> {
        self.fault.list(dir)
    }

    fn sync_dir(&self, dir: &Path) -> Result<()> {
        self.fault.sync_dir(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> Result<()> {
        self.fault.create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        self.fault.exists(path)
    }
}

/// Totals over the read phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct ReadCounts {
    gets: u64,
    found: u64,
    preads: u64,
    cache_hits: u64,
    cache_misses: u64,
    allocations: u64,
    /// Gets that reached a table and found every block they wanted in
    /// the cache, and their allocations.
    cache_hit_gets: u64,
    cache_hit_get_allocations: u64,
}

fn run_all_due_jobs(db: &Db) {
    loop {
        let due = db.due_jobs();
        if due.is_empty() {
            return;
        }
        for job in due {
            db.run_job(job).unwrap();
        }
    }
}

/// Loads the store and serves the gets, on a thread of its own so no
/// thread-local cache carries over from an earlier run.
fn read_run(seed: u64) -> ReadCounts {
    std::thread::spawn(move || {
        let env = CountingReads {
            fault: FaultEnv::new(seed),
            reads: Arc::new(AtomicU64::new(0)),
        };
        let opts = Options {
            memtable_bytes: 256 << 10,
            store: StoreOptions {
                block_cache_bytes: 512 << 10,
                table_file_size: 64 << 10,
                base_level_bytes: 512 << 10,
                env: Arc::new(env.clone()),
                ..StoreOptions::default()
            },
            ..Options::default()
        };
        let db = Db::open_stepped(Path::new("/model-read"), opts).unwrap();
        for i in 0..KEYS {
            db.put(&format_key(i, KEY_LEN), &value_for(i, VALUE_LEN))
                .unwrap();
            if i % 64 == 63 {
                run_all_due_jobs(&db);
            }
        }
        run_all_due_jobs(&db);

        let mut keys = KeyGen::new(KEYS, KEY_LEN, KeyDistribution::HeavyTail { theta: 0.99 });
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = ReadCounts::default();
        let cache = || db.cache_stats().expect("a block cache");
        let (hits_before, misses_before) = cache();
        let preads_before = env.reads.load(Relaxed);
        for _ in 0..GETS {
            let key = keys.next_key(&mut rng);
            let (hits, misses) = cache();
            let (found, allocations) = counting::allocations_in(|| db.get(&key).unwrap());
            let (hits_after, misses_after) = cache();
            counts.gets += 1;
            counts.found += u64::from(found.is_some());
            counts.allocations += allocations;
            if hits_after > hits && misses_after == misses {
                counts.cache_hit_gets += 1;
                counts.cache_hit_get_allocations += allocations;
            }
        }
        let (hits, misses) = cache();
        counts.cache_hits = hits - hits_before;
        counts.cache_misses = misses - misses_before;
        counts.preads = env.reads.load(Relaxed) - preads_before;
        counts
    })
    .join()
    .unwrap()
}

/// One printed count: its total over the read phase, the most a change
/// may spend (`None`: reported only), and the total at the parent of
/// the change that last moved the budget.
struct Row {
    name: &'static str,
    value: u64,
    budget: Option<u64>,
    parent: u64,
}

/// Budgets at or under the read phase of the change that decoded each
/// table's index once and made the block cache sharded CLOCK; the
/// parent column is the run before it.
fn rows(c: &ReadCounts) -> [Row; 6] {
    let row = |name, value, budget, parent| Row {
        name,
        value,
        budget,
        parent,
    };
    [
        row("preads", c.preads, Some(8_616), 8_634),
        row("cache hits", c.cache_hits, None, 10_806),
        row("cache misses", c.cache_misses, Some(8_391), 8_409),
        row("allocations", c.allocations, Some(46_353), 76_258),
        row("cache-hit disk gets", c.cache_hit_gets, None, 10_806),
        // One allocation each: the value returned.
        row(
            "allocations in cache-hit disk gets",
            c.cache_hit_get_allocations,
            Some(c.cache_hit_gets),
            32_418,
        ),
    ]
}

#[test]
fn a_heavy_tail_read_phase_costs_what_its_budget_says() {
    // The first run in a process also grows the epoch collector's
    // process-wide garbage list, a few allocations that later runs do
    // not make; the runs compared and counted are the next two.
    read_run(SEED);
    let counts = read_run(SEED);
    assert_eq!(read_run(SEED), counts, "one seed, two different runs");
    assert_eq!(counts.found, counts.gets, "every loaded key is found");

    println!("read phase, {GETS} heavy-tail gets over {KEYS} keys (seed {SEED:#x}):");
    println!(
        "{:<36} {:>9} {:>9} {:>9} {:>9}",
        "count", "total", "per get", "budget", "parent"
    );
    for row in rows(&counts) {
        let budget = row.budget.map_or("-".to_string(), |b| b.to_string());
        println!(
            "{:<36} {:>9} {:>9.3} {budget:>9} {:>9}",
            row.name,
            row.value,
            row.value as f64 / GETS as f64,
            row.parent
        );
    }
    let hits = counts.cache_hits as f64;
    println!(
        "cache hit ratio {:.3}",
        hits / (hits + counts.cache_misses as f64)
    );
    for row in rows(&counts) {
        if let Some(budget) = row.budget {
            assert!(
                row.value <= budget,
                "{}: {} is over its budget of {budget}",
                row.name,
                row.value
            );
        }
    }
}
