//! Layer probes of the traced run: after the timed window, each layer
//! below the store is exercised on its own through its public
//! functions, with keys and values shaped like the workload's (its key
//! and value lengths, the key indices it recorded), so a per-layer cost
//! can be set against the end-to-end latency it is part of.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use clsm::Db;
use clsm_skiplist::SkipList;
use clsm_util::bloom::BloomFilterPolicy;
use clsm_util::env::{Env, RealEnv};
use clsm_util::oracle::TimestampOracle;
use clsm_workloads::keygen::format_key;
use lsm_storage::cache::BlockCache;
use lsm_storage::format::{InternalKey, ValueKind, WriteRecord, MAX_TS};
use lsm_storage::sstable::{Block, BlockBuilder, Table, TableBuilder};
use lsm_storage::wal::{LogQueue, LogWriter, SyncMode};
use lsm_storage::{InternalIterator, Store};

use crate::config::{self, Sizes, THREADS};
use crate::counting_env::CountingEnv;
use crate::harness::{OpKind, ReadBack, Recorder, Result};
use crate::stats;
use crate::values;

/// `(metric name, value)` pairs measured by the probes.
pub type ProbeResults = Vec<(&'static str, f64)>;

/// Iterations of the oracle probes.
const ORACLE_ITERS: usize = 200_000;
/// Most entries of the skiplist and table probes.
const MAX_ENTRIES: usize = 200_000;
/// Byte budget that scales the entry count down for large values.
const ENTRY_BUDGET_BYTES: usize = 48 << 20;
/// Keys replayed through `Table::get` and `Store::get`.
const LOOKUPS: usize = 20_000;

fn per_iter_ns(iters: usize, began: Instant) -> f64 {
    began.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

fn io<E: std::fmt::Display>(context: &'static str) -> impl Fn(E) -> String {
    move |e| format!("probe {context}: {e}")
}

/// Key indices the workload touched: `primary` ops first, the
/// read-back sample when it recorded none.
fn recorded_keys(recorders: &[Recorder], read_back: &ReadBack, primary: OpKind) -> Vec<u64> {
    let mut keys: Vec<u64> = recorders
        .iter()
        .flat_map(|r| r.keys[primary as usize].iter())
        .map(|k| u64::from(*k))
        .collect();
    if keys.is_empty() {
        keys = read_back.keys.iter().map(|k| u64::from(*k)).collect();
    }
    keys
}

/// Runs every probe. Consumes the reopened store: the disk component
/// is probed by opening its directory as a bare `Store`.
pub fn run(
    db: Db,
    env: &Arc<CountingEnv>,
    dir: &Path,
    sizes: &Sizes,
    recorders: &[Recorder],
    read_back: &ReadBack,
) -> Result<ProbeResults> {
    let write_keys = recorded_keys(recorders, read_back, OpKind::Put);
    let read_keys = recorded_keys(recorders, read_back, OpKind::Get);
    if write_keys.is_empty() || read_keys.is_empty() {
        return Err("the run recorded no keys to shape the probes with".to_string());
    }
    let entries = MAX_ENTRIES.min(ENTRY_BUDGET_BYTES / sizes.pair_bytes() as usize);
    let value = values::encode(0, 1, sizes.value_len);

    let mut out = ProbeResults::new();
    oracle(&mut out);
    skiplist(&mut out, sizes, &write_keys, entries, &value);
    wal(
        &mut out,
        dir,
        sizes,
        &write_keys,
        entries.min(50_000),
        &value,
    )?;
    sstable_and_bloom(&mut out, dir, sizes, entries, &value)?;
    cache(&mut out)?;
    drop(db);
    store(&mut out, env, dir, sizes, &read_keys)?;
    Ok(out)
}

fn oracle(out: &mut ProbeResults) {
    let oracle = TimestampOracle::new(256);
    let began = Instant::now();
    for _ in 0..ORACLE_ITERS {
        let stamp = oracle.get_ts();
        oracle.publish(stamp);
    }
    out.push(("oracle.get_ts_publish_ns", per_iter_ns(ORACLE_ITERS, began)));
    let began = Instant::now();
    for _ in 0..ORACLE_ITERS {
        let block = oracle.get_ts_block(16);
        oracle.publish_block(block);
    }
    out.push(("oracle.get_ts_block_ns", per_iter_ns(ORACLE_ITERS, began)));
    let began = Instant::now();
    for _ in 0..ORACLE_ITERS {
        std::hint::black_box(oracle.get_snap());
    }
    out.push(("oracle.get_snap_ns", per_iter_ns(ORACLE_ITERS, began)));
}

fn skiplist(out: &mut ProbeResults, sizes: &Sizes, keys: &[u64], entries: usize, value: &[u8]) {
    let names: Vec<Vec<u8>> = (0..entries)
        .map(|i| format_key(keys[i % keys.len()], sizes.key_len))
        .collect();
    let list = SkipList::new();
    let began = Instant::now();
    for (i, name) in names.iter().enumerate() {
        list.insert(name, i as u64 + 1, Some(value));
    }
    out.push(("skiplist.insert_ns", per_iter_ns(entries, began)));
    let began = Instant::now();
    for name in &names {
        std::hint::black_box(list.get_latest(name, MAX_TS));
    }
    out.push(("skiplist.get_ns", per_iter_ns(entries, began)));
    let mut cursor = list.cursor();
    let mut walked = 0usize;
    let began = Instant::now();
    cursor.seek_to_first();
    while cursor.valid() {
        std::hint::black_box(cursor.key());
        cursor.advance();
        walked += 1;
    }
    out.push(("skiplist.next_ns_per_key", per_iter_ns(walked, began)));
    out.push((
        "skiplist.bytes_per_entry",
        list.memory_usage() as f64 / list.len().max(1) as f64,
    ));
}

fn wal(
    out: &mut ProbeResults,
    dir: &Path,
    sizes: &Sizes,
    keys: &[u64],
    records: usize,
    value: &[u8],
) -> Result<()> {
    let path = dir.join("probe-wal.log");
    let file = RealEnv.open_write(&path).map_err(io("wal create"))?;
    let queue = LogQueue::start(LogWriter::new(file));
    let payloads: Vec<Vec<u8>> = (0..records)
        .map(|i| {
            let key = format_key(keys[i % keys.len()], sizes.key_len);
            let mut payload = Vec::new();
            WriteRecord::put(i as u64 + 1, key, value).encode_to(&mut payload);
            payload
        })
        .collect();
    let began = Instant::now();
    for payload in payloads {
        queue
            .append(payload, SyncMode::Async)
            .map_err(io("wal append"))?;
    }
    out.push(("wal.append_ns", per_iter_ns(records, began)));
    queue.sync().map_err(io("wal drain"))?;
    let syncs = 20;
    let began = Instant::now();
    for _ in 0..syncs {
        queue
            .append(b"probe".to_vec(), SyncMode::Async)
            .map_err(io("wal append"))?;
        queue.sync_timed().map_err(io("wal sync"))?;
    }
    out.push(("wal.sync_ns", per_iter_ns(syncs, began)));
    drop(queue);
    std::fs::remove_file(&path).map_err(io("wal remove"))
}

fn sstable_and_bloom(
    out: &mut ProbeResults,
    dir: &Path,
    sizes: &Sizes,
    entries: usize,
    value: &[u8],
) -> Result<()> {
    // Ascending indices give ascending keys; indices past `entries`
    // are absent from the table.
    let names: Vec<Vec<u8>> = (0..2 * entries as u64)
        .map(|i| format_key(i, sizes.key_len))
        .collect();
    let (present, absent) = names.split_at(entries);

    let path = dir.join("probe-table.sst");
    let store_opts = config::store_options(Arc::new(RealEnv)).store;
    let file = RealEnv.open_write(&path).map_err(io("table create"))?;
    let began = Instant::now();
    let mut builder = TableBuilder::new(file, store_opts.block_size, store_opts.bloom_bits_per_key);
    for (i, name) in present.iter().enumerate() {
        let key = InternalKey::new(name, i as u64 + 1, ValueKind::Put);
        builder.add(key.encoded(), value).map_err(io("table add"))?;
    }
    builder.finish().map_err(io("table finish"))?;
    out.push(("sstable.build_ns_per_entry", per_iter_ns(entries, began)));

    let cache = Arc::new(BlockCache::new(2 * ENTRY_BUDGET_BYTES));
    let table = Arc::new(
        Table::open(
            &RealEnv,
            &path,
            1,
            store_opts.bloom_bits_per_key,
            Some(cache),
        )
        .map_err(io("table open"))?,
    );
    let step = (entries / LOOKUPS).max(1);
    let sample = |names: &[Vec<u8>]| -> Result<(usize, usize)> {
        let mut found = 0;
        let mut looked = 0;
        for name in names.iter().step_by(step) {
            found += usize::from(table.get(name, MAX_TS).map_err(io("table get"))?.is_some());
            looked += 1;
        }
        Ok((found, looked))
    };
    sample(present)?; // fill the block cache
    let began = Instant::now();
    let (found, looked) = sample(present)?;
    out.push(("sstable.get_hit_ns", per_iter_ns(looked, began)));
    if found != looked {
        return Err(format!("probe table lost {} keys", looked - found));
    }
    let began = Instant::now();
    let (found, looked) = sample(absent)?;
    out.push(("sstable.get_absent_ns", per_iter_ns(looked, began)));
    if found != 0 {
        return Err(format!("probe table invented {found} keys"));
    }
    let mut iter = table.iter();
    let mut walked = 0usize;
    let began = Instant::now();
    iter.seek_to_first();
    while iter.valid() {
        std::hint::black_box(iter.value());
        iter.next();
        walked += 1;
    }
    out.push(("sstable.iter_ns_per_entry", per_iter_ns(walked, began)));
    iter.status().map_err(io("table iterate"))?;
    drop((iter, table));
    std::fs::remove_file(&path).map_err(io("table remove"))?;

    let policy = BloomFilterPolicy::new(store_opts.bloom_bits_per_key);
    let refs: Vec<&[u8]> = present.iter().map(Vec::as_slice).collect();
    let filter = policy.create_filter(&refs);
    let began = Instant::now();
    for name in present {
        std::hint::black_box(policy.key_may_match(name, &filter));
    }
    out.push(("bloom.probe_ns", per_iter_ns(entries, began)));
    let false_positives = absent
        .iter()
        .filter(|name| policy.key_may_match(name, &filter))
        .count();
    out.push((
        "bloom.fp_ratio",
        false_positives as f64 / entries.max(1) as f64,
    ));
    Ok(())
}

fn cache(out: &mut ProbeResults) -> Result<()> {
    const BLOCKS_PER_THREAD: u64 = 1_000;
    const ROUNDS: u64 = 10;
    let store_opts = config::store_options(Arc::new(RealEnv)).store;
    let mut builder = BlockBuilder::default();
    let filler = vec![0x5a; 240];
    let mut i = 0u64;
    while builder.size_estimate() < store_opts.block_size {
        let key = InternalKey::new(&format_key(i, 16), 1, ValueKind::Put);
        builder.add(key.encoded(), &filler);
        i += 1;
    }
    let block = Arc::new(Block::parse(builder.finish()).map_err(io("cache block"))?);
    let cache = BlockCache::new(store_opts.block_cache_bytes);
    let run = |work: &(dyn Fn(u64) + Sync)| -> f64 {
        let began = Instant::now();
        std::thread::scope(|scope| {
            for thread in 0..THREADS as u64 {
                scope.spawn(move || work(thread));
            }
        });
        began.elapsed().as_nanos() as f64
    };
    // The cache picks a shard from the table number, so give every
    // block its own table, as many tables of a real store would.
    let table = |thread: u64, i: u64| i * THREADS as u64 + thread;
    let offset = |i: u64| (i % 512) * store_opts.block_size as u64;
    let insert_ns = run(&|thread| {
        for i in 0..BLOCKS_PER_THREAD {
            cache.insert(table(thread, i), offset(i), Arc::clone(&block));
        }
    });
    // Threads run side by side, so wall time ÷ per-thread ops is the
    // cost one caller sees.
    out.push(("cache.miss_insert_ns", insert_ns / BLOCKS_PER_THREAD as f64));
    let hit_ns = run(&|thread| {
        for _ in 0..ROUNDS {
            for i in 0..BLOCKS_PER_THREAD {
                std::hint::black_box(cache.get(table(thread, i), offset(i)));
            }
        }
    });
    out.push(("cache.hit_ns", hit_ns / (ROUNDS * BLOCKS_PER_THREAD) as f64));
    let (hits, misses) = cache.stats();
    if misses != 0 || hits != THREADS as u64 * ROUNDS * BLOCKS_PER_THREAD {
        return Err(format!("cache probe saw {hits} hits and {misses} misses"));
    }
    Ok(())
}

fn store(
    out: &mut ProbeResults,
    env: &Arc<CountingEnv>,
    dir: &Path,
    sizes: &Sizes,
    keys: &[u64],
) -> Result<()> {
    let opts = config::store_options(env.clone()).store;
    let (store, _recovered) = Store::open(dir, opts).map_err(io("store open"))?;
    let names: Vec<Vec<u8>> = keys
        .iter()
        .take(LOOKUPS)
        .map(|k| format_key(*k, sizes.key_len))
        .collect();
    for name in &names {
        store.get(name, MAX_TS).map_err(io("store get"))?; // warm the block cache
    }
    let before = env.snapshot();
    let mut samples = Vec::with_capacity(names.len());
    for name in &names {
        let began = Instant::now();
        std::hint::black_box(store.get(name, MAX_TS).map_err(io("store get"))?);
        samples.push(began.elapsed().as_nanos() as u32);
    }
    let reads = env.snapshot().since(&before).sst.read_count;
    samples.sort_unstable();
    let at = |p| stats::percentile(&samples, p).map_or(0.0, f64::from);
    out.push(("store.get_ns_p50", at(50.0)));
    out.push(("store.get_ns_p99", at(99.0)));
    out.push((
        "store.reads_per_get",
        reads as f64 / names.len().max(1) as f64,
    ));
    Ok(())
}
