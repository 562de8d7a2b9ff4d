//! Model runs: exact cost counts from a seeded, stepped schedule, so a
//! claim does not have to outvote a noisy host.
//!
//! A stepped `Db` (no threads) on an in-memory `FaultEnv` is loaded at
//! a benchmark workload's geometry ÷ 32: a 256 KiB memtable, 64 KiB
//! tables, a 512 KiB block cache and L1 budget.
//!
//! - The read phase, at `prod-mix`'s 40-byte keys and 1 KiB values,
//!   data about 8× the cache, serves 20 000 heavy-tail gets (θ = 0.99,
//!   ranks scattered as `clsm_workloads::keygen` scatters them) and
//!   counts, per get, the table `pread`s, the block-cache hits and
//!   misses and the allocations of the calling thread.
//! - The ingest phase, at `ingest`'s 16-byte keys and 1 KiB values, all
//!   prefilled, overwrites every key about twice with uniform puts and
//!   runs at most *d* compactions after each flush: *d* = 1 lags the
//!   way `ingest`'s one compaction thread does, *d* = 8 keeps up. It
//!   counts the bytes written through the env over user bytes
//!   (`write_amp`), WAL and table fsyncs per put, and the L0 runs each
//!   flush lands on.
//!
//! Two runs of one seed must count the same, and every count must stay
//! at or under its budget. Run it in release (`cargo test --release -p
//! clsm --test model_runs -- --nocapture` prints the tables).

mod common;
#[path = "../../../tests/common/mod.rs"]
mod counting;

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use clsm::{Db, Job, Options, WriteBatch, WriteOptions};
use clsm_util::env::{Env, FaultEnv, RandomAccessFile, WritableFile};
use clsm_util::error::Result;
use clsm_workloads::keygen::{format_key, value_for, KeyDistribution, KeyGen};
use common::replayed_ops;
use lsm_storage::StoreOptions;
use rand::rngs::StdRng;
use rand::SeedableRng;

const KEY_LEN: usize = 40;
const VALUE_LEN: usize = 1024;
/// `prod-mix`'s 130 000 keys ÷ 32.
const KEYS: u64 = 130_000 / 32;
const GETS: u64 = 20_000;
const SEED: u64 = 0xc15a;

/// A [`FaultEnv`] that counts reads of table files, bytes written to
/// any file, and syncs of WAL and of table files.
#[derive(Debug, Clone)]
struct Counting {
    fault: FaultEnv,
    reads: Arc<AtomicU64>,
    written: Arc<AtomicU64>,
    wal_syncs: Arc<AtomicU64>,
    table_syncs: Arc<AtomicU64>,
}

impl Counting {
    fn new(seed: u64) -> Self {
        Counting {
            fault: FaultEnv::new(seed),
            reads: Arc::default(),
            written: Arc::default(),
            wal_syncs: Arc::default(),
            table_syncs: Arc::default(),
        }
    }
}

struct CountedWrite {
    inner: Box<dyn WritableFile>,
    written: Arc<AtomicU64>,
    /// The counter of this kind of file's syncs, if it has one.
    syncs: Option<Arc<AtomicU64>>,
}

impl WritableFile for CountedWrite {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.written.fetch_add(data.len() as u64, Relaxed);
        self.inner.append(data)
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }

    fn sync(&mut self) -> Result<()> {
        if let Some(syncs) = &self.syncs {
            syncs.fetch_add(1, Relaxed);
        }
        self.inner.sync()
    }
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

impl Env for Counting {
    fn open_write(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        let syncs = match path.extension().and_then(|ext| ext.to_str()) {
            Some("log") => Some(Arc::clone(&self.wal_syncs)),
            Some("sst") => Some(Arc::clone(&self.table_syncs)),
            _ => None,
        };
        Ok(Box::new(CountedWrite {
            inner: self.fault.open_write(path)?,
            written: Arc::clone(&self.written),
            syncs,
        }))
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
        let env = Counting::new(seed);
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
        // 64 keys a batch, then the due jobs: a batch is admitted while
        // `Pm` has room and lands whole, so every flush takes four
        // batches, 256 keys, and no write waits for a swap.
        for base in (0..KEYS).step_by(64) {
            let batch: WriteBatch = (base..KEYS.min(base + 64))
                .map(|i| (format_key(i, KEY_LEN), Some(value_for(i, VALUE_LEN))))
                .collect();
            db.write(batch, &WriteOptions::new()).unwrap();
            run_all_due_jobs(&db);
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

/// `ingest`'s 100 000 keys ÷ 32.
const INGEST_KEYS: u64 = 100_000 / 32;
/// Uniform puts after the prefill: every key overwritten about twice.
const INGEST_PUTS: u64 = 2 * INGEST_KEYS;
const INGEST_KEY_LEN: usize = 16;

/// Totals over the ingest phase, the closing quiescence included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct WriteCounts {
    user_bytes: u64,
    written: u64,
    wal_syncs: u64,
    table_syncs: u64,
    flushes: u64,
    /// L0 runs right after each flush commits, summed and at most.
    l0_runs_sum: u64,
    l0_runs_max: u64,
}

/// Runs the due flush, then at most `compactions` due compactions,
/// recording the L0 runs the flush landed on. Returns whether it
/// flushed.
fn flush_then_compact(db: &Db, compactions: u32, counts: &mut WriteCounts) -> bool {
    if !db.run_job(Job::Flush).unwrap() {
        return false;
    }
    let runs = db.metrics().gauges["storage.l0_runs"] as u64;
    counts.flushes += 1;
    counts.l0_runs_sum += runs;
    counts.l0_runs_max = counts.l0_runs_max.max(runs);
    for _ in 0..compactions {
        if !db.due_jobs().contains(&Job::Compact) || !db.run_job(Job::Compact).unwrap() {
            break;
        }
    }
    true
}

/// The ingest phase's geometry, on `env`.
fn ingest_options(env: Arc<dyn Env>) -> Options {
    Options {
        memtable_bytes: 256 << 10,
        store: StoreOptions {
            block_cache_bytes: 512 << 10,
            table_file_size: 64 << 10,
            base_level_bytes: 512 << 10,
            env,
            ..StoreOptions::default()
        },
        ..Options::default()
    }
}

/// Writes every key once, in 256-entry batches, then runs jobs until
/// none is due.
fn prefill(db: &Db) {
    for base in (0..INGEST_KEYS).step_by(256) {
        let batch: WriteBatch = (base..INGEST_KEYS.min(base + 256))
            .map(|i| {
                let key = format_key(i, INGEST_KEY_LEN);
                (key, Some(value_for(i, VALUE_LEN)))
            })
            .collect();
        db.write(batch, &WriteOptions::new()).unwrap();
        run_all_due_jobs(db);
    }
    let mut prefill = WriteCounts::default();
    while flush_then_compact(db, u32::MAX, &mut prefill) || !db.due_jobs().is_empty() {
        run_all_due_jobs(db);
    }
}

/// Prefills the store, then counts the ingest phase with at most
/// `compactions` compactions after each flush.
fn ingest_run(seed: u64, compactions: u32) -> WriteCounts {
    let env = Counting::new(seed);
    let db = Db::open_stepped(
        Path::new("/model-ingest"),
        ingest_options(Arc::new(env.clone())),
    )
    .unwrap();
    prefill(&db);

    let before = [&env.written, &env.wal_syncs, &env.table_syncs].map(|c| c.load(Relaxed));
    let mut keys = KeyGen::new(INGEST_KEYS, INGEST_KEY_LEN, KeyDistribution::Uniform);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts = WriteCounts::default();
    for i in 0..INGEST_PUTS {
        let index = keys.next_index(&mut rng);
        let value = value_for(index ^ i, VALUE_LEN);
        db.put(&format_key(index, INGEST_KEY_LEN), &value).unwrap();
        counts.user_bytes += (INGEST_KEY_LEN + VALUE_LEN) as u64;
        // The logger's step, about as often as its batching window
        // closes under one writer.
        if i % 64 == 63 && db.due_jobs().contains(&Job::Log) {
            db.run_job(Job::Log).unwrap();
        }
        if db.due_jobs().contains(&Job::Flush) {
            flush_then_compact(&db, compactions, &mut counts);
        }
    }
    while flush_then_compact(&db, u32::MAX, &mut counts) || !db.due_jobs().is_empty() {
        run_all_due_jobs(&db);
    }
    let after = [&env.written, &env.wal_syncs, &env.table_syncs].map(|c| c.load(Relaxed));
    [counts.written, counts.wal_syncs, counts.table_syncs] =
        [0, 1, 2].map(|k| after[k] - before[k]);
    counts
}

/// Budgets, by the most compactions after a flush: bytes written, WAL
/// fsyncs, table fsyncs, and the L0 runs at flushes, summed and at
/// most. They are the counts of the change that took the WAL
/// rotation's file I/O out of `beforeMerge`'s hold, which moved none of
/// them: a stepped run has no timing.
fn ingest_budget(compactions: u32) -> [u64; 5] {
    match compactions {
        1 => [31_756_222, 26, 404, 94, 8],
        _ => [49_101_535, 26, 671, 53, 3],
    }
}

#[test]
fn an_ingest_phase_writes_what_its_budget_says() {
    const DEPTHS: [u32; 2] = [1, 8];
    let counts = DEPTHS.map(|d| ingest_run(SEED, d));
    assert_eq!(
        DEPTHS.map(|d| ingest_run(SEED, d)),
        counts,
        "one seed, two different runs"
    );
    println!(
        "ingest phase, {INGEST_PUTS} uniform puts over {INGEST_KEYS} prefilled keys \
         (seed {SEED:#x}), d compactions at most after each flush:"
    );
    println!("{:<28} {:>12} {:>12}", "count", "d = 1", "d = 8");
    let row = |name: &str, [one, eight]: [String; 2]| {
        println!("{name:<28} {one:>12} {eight:>12}");
    };
    let per_put = |n: u64| format!("{:.4}", n as f64 / INGEST_PUTS as f64);
    row(
        "write_amp",
        counts.map(|c| format!("{:.4}", c.written as f64 / c.user_bytes as f64)),
    );
    row("bytes written", counts.map(|c| c.written.to_string()));
    row("WAL fsyncs per put", counts.map(|c| per_put(c.wal_syncs)));
    row(
        "table fsyncs per put",
        counts.map(|c| per_put(c.table_syncs)),
    );
    row("flushes", counts.map(|c| c.flushes.to_string()));
    row(
        "L0 runs at flushes, summed",
        counts.map(|c| c.l0_runs_sum.to_string()),
    );
    row(
        "L0 runs at a flush, max",
        counts.map(|c| c.l0_runs_max.to_string()),
    );
    for (d, c) in DEPTHS.iter().zip(&counts) {
        let names = [
            "bytes written",
            "WAL fsyncs",
            "table fsyncs",
            "L0 runs at flushes, summed",
            "L0 runs at a flush, max",
        ];
        let values = [
            c.written,
            c.wal_syncs,
            c.table_syncs,
            c.l0_runs_sum,
            c.l0_runs_max,
        ];
        for ((name, value), budget) in names.into_iter().zip(values).zip(ingest_budget(*d)) {
            assert!(
                value <= budget,
                "d = {d}: {name}: {value} is over its budget of {budget}"
            );
        }
    }
}

/// Crash cycles in the ingest shape; each ends in power loss.
const CRASH_CYCLES: u64 = 3;

/// Repeated crashes (ROADMAP item 10(c)) in the ingest shape at *d* = 1:
/// after the prefill, [`CRASH_CYCLES`] cycles of `INGEST_PUTS /
/// CRASH_CYCLES` uniform sync puts, each put followed by the due flush
/// and one compaction. A cycle ends in power loss: the next durable
/// operation dies, then what was not synced goes, keeping a seeded torn
/// tail. Each reopen must read every acknowledged put back and pass
/// `verify_integrity`. Returns the env, whose history the seed fixes.
fn crash_cycles_run(seed: u64) -> FaultEnv {
    let dir = Path::new("/model-crash-cycles");
    let fault = FaultEnv::new(seed);
    let opts = ingest_options(Arc::new(fault.clone()));
    let mut db = Db::open_stepped(dir, opts.clone()).unwrap();
    prefill(&db);
    let mut acked: Vec<Vec<u8>> = (0..INGEST_KEYS).map(|i| value_for(i, VALUE_LEN)).collect();
    let mut keys = KeyGen::new(INGEST_KEYS, INGEST_KEY_LEN, KeyDistribution::Uniform);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts = WriteCounts::default();
    for cycle in 0..CRASH_CYCLES {
        for i in 0..INGEST_PUTS / CRASH_CYCLES {
            let index = keys.next_index(&mut rng);
            let value = value_for(index ^ (cycle << 32 | i), VALUE_LEN);
            let put = WriteBatch::single_put(&format_key(index, INGEST_KEY_LEN), &value);
            db.write(put, &WriteOptions::durable()).unwrap();
            acked[index as usize] = value;
            if db.due_jobs().contains(&Job::Flush) {
                flush_then_compact(&db, 1, &mut counts);
            }
        }
        fault.crash_after(1);
        drop(db);
        fault.power_loss();
        db = Db::open_stepped(dir, opts.clone()).unwrap();
        let lost = (0..INGEST_KEYS)
            .filter(|&i| {
                db.get(&format_key(i, INGEST_KEY_LEN)).unwrap().as_ref() != Some(&acked[i as usize])
            })
            .count();
        assert_eq!(
            lost, 0,
            "seed {seed:#x}, reopen {cycle}: acknowledged puts lost"
        );
        db.verify_integrity()
            .unwrap_or_else(|e| panic!("seed {seed:#x}, reopen {cycle}: {e}"));
    }
    fault
}

#[test]
fn repeated_power_loss_in_the_ingest_shape_keeps_every_sync_put() {
    let history = replayed_ops(&crash_cycles_run(SEED));
    assert!(
        replayed_ops(&crash_cycles_run(SEED)) == history,
        "one seed, two different operation histories"
    );
}
