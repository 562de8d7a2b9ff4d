//! Cost budget of the merge path, in hardware-independent counts.
//!
//! - Building tables allocates per block, not per entry: the flush and
//!   compaction writer stays at or under 0.75 allocations per entry for
//!   1 KiB values (four entries to a 4 KiB block). It counts every
//!   thread, the one that finishes each table included, so the tests
//!   here take turns.
//! - Compaction reads each input front to back in large sequential
//!   chunks: a ~2 MiB table takes at most 16 `read_at` calls, where a
//!   block-at-a-time reader needs one per 4 KiB block.
//! - Compaction reads bypass the block cache: its hits, misses and
//!   charged bytes do not move, while a later `get` still fills it.

mod common;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use clsm_repro::storage::compaction::write_merged_tables;
use clsm_repro::storage::iter::VecIterator;
use clsm_repro::storage::{InternalIterator, Store, StoreOptions, ValueKind};
use clsm_repro::util::env::{Env, RandomAccessFile, RealEnv, WritableFile};
use clsm_repro::util::error::Result;
use common::{one_at_a_time, process_allocations_in};

/// A [`RealEnv`] that counts `read_at` calls on table files.
#[derive(Debug, Default)]
struct CountingEnv {
    table_reads: Arc<AtomicU64>,
}

struct CountingFile {
    inner: Box<dyn RandomAccessFile>,
    reads: Option<Arc<AtomicU64>>,
}

impl RandomAccessFile for CountingFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        if let Some(reads) = &self.reads {
            reads.fetch_add(1, Relaxed);
        }
        self.inner.read_at(offset, buf)
    }

    fn len(&self) -> Result<u64> {
        self.inner.len()
    }
}

impl Env for CountingEnv {
    fn open_write(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        RealEnv.open_write(path)
    }

    fn open_read(&self, path: &Path) -> Result<Box<dyn RandomAccessFile>> {
        let is_table = path.extension().is_some_and(|e| e == "sst");
        Ok(Box::new(CountingFile {
            inner: RealEnv.open_read(path)?,
            reads: is_table.then(|| Arc::clone(&self.table_reads)),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        RealEnv.rename(from, to)
    }

    fn remove(&self, path: &Path) -> Result<()> {
        RealEnv.remove(path)
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>> {
        RealEnv.list(dir)
    }

    fn sync_dir(&self, dir: &Path) -> Result<()> {
        RealEnv.sync_dir(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> Result<()> {
        RealEnv.create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        RealEnv.exists(path)
    }
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("compaction-costs-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `n` puts of 16-byte keys and 1 KiB values, in internal order.
fn entries(n: u64) -> Vec<(Vec<u8>, u64, ValueKind, Vec<u8>)> {
    (0..n)
        .map(|i| {
            let key = format!("key.{i:012}").into_bytes();
            let value = (0..1024).map(|j| (i as usize * 7 + j) as u8).collect();
            (key, i + 1, ValueKind::Put, value)
        })
        .collect()
}

#[test]
fn building_tables_allocates_per_block_not_per_entry() {
    const N: u64 = 20_000;
    let _turn = one_at_a_time();
    let dir = tmpdir("alloc");
    let opts = StoreOptions::default();
    let mut it = VecIterator::new(entries(N));
    it.seek_to_first();
    let mut next_number = 0u64;
    let mut alloc_number = || {
        next_number += 1;
        next_number
    };
    let (files, allocations) = process_allocations_in(|| {
        write_merged_tables(&mut it, &dir, &opts, 1, 0, false, &mut alloc_number).unwrap()
    });
    assert!(files.len() > 1, "the stream rolls over several tables");
    let per_entry = allocations as f64 / N as f64;
    assert!(
        per_entry <= 0.75,
        "{allocations} allocations for {N} entries = {per_entry:.2} per entry"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compaction_reads_in_chunks_and_leaves_the_block_cache_alone() {
    let _turn = one_at_a_time();
    let dir = tmpdir("reads");
    let env = Arc::new(CountingEnv::default());
    let reads = Arc::clone(&env.table_reads);
    let opts = StoreOptions {
        env,
        // Two levels: L0 → L1 is the bottom, so the one table is
        // rewritten rather than moved.
        num_levels: 2,
        table_file_size: 4 << 20,
        ..StoreOptions::default()
    };
    let (store, _) = Store::open(&dir, opts).unwrap();
    let wal = store.rotate_wal().unwrap();
    let mut it = VecIterator::new(entries(2000));
    store.flush_memtable(&mut it, 0, 2000, wal).unwrap();
    let l0_bytes = store.current_version().level_bytes(0);
    assert!(
        (1 << 20..4 << 20).contains(&l0_bytes),
        "a ~2 MiB L0 table: {l0_bytes} bytes"
    );

    let cache = store.block_cache().expect("block cache").clone();
    let before = (cache.stats(), cache.used_bytes());
    reads.store(0, Relaxed);
    store.compact_level_range(0, b"", b"\xff", 1).unwrap();
    let compaction_reads = reads.load(Relaxed);
    assert_eq!(store.level_file_counts(), vec![0, 1]);
    assert!(
        compaction_reads <= 16,
        "compacting a {l0_bytes}-byte table took {compaction_reads} reads"
    );
    assert_eq!(
        (cache.stats(), cache.used_bytes()),
        before,
        "compaction touched the block cache"
    );

    let (ts, _, value) = store.get(b"key.000000001234", 1 << 40).unwrap().unwrap();
    assert_eq!(ts, 1235);
    assert_eq!(value.len(), 1024);
    let ((hits, misses), used) = (cache.stats(), cache.used_bytes());
    assert_eq!(
        (hits, misses),
        (before.0 .0, before.0 .1 + 1),
        "a get misses once"
    );
    assert!(used > before.1, "the get filled the cache");
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
