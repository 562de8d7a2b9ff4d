//! Cost budget of the write side, in hardware-independent counts.
//!
//! - An async put encodes its record straight into the logging queue's
//!   buffer: at most 0.01 allocations per put on the calling thread,
//!   where building a record and a payload per put costs three.
//! - The logger batches records and hands each batch to the file with
//!   one `write`: at most 0.05 `write` calls per async 1 KiB put.
//! - Files are written in 256 KiB appends: a ~2 MiB table takes at most
//!   16 `write` calls, where an 8 KiB buffer needs about 500 (one per
//!   4 KiB block: the next block never fits in what is left).
//!
//! The `write` counts come from [`RealEnv::syscall_counts`], which is
//! process-wide, so the tests here take turns.

mod common;

use std::path::PathBuf;

use clsm_repro::storage::compaction::write_merged_tables;
use clsm_repro::storage::iter::VecIterator;
use clsm_repro::storage::wal::SyncMode;
use clsm_repro::storage::{InternalIterator, Store, StoreOptions, ValueKind};
use clsm_repro::util::env::RealEnv;
use common::{allocations_in, one_at_a_time};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wal-costs-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `i` into the last twelve bytes of `key` as decimal digits,
/// without allocating.
fn set_key(key: &mut [u8; 16], mut i: u64) {
    for digit in key[4..].iter_mut().rev() {
        *digit = b'0' + (i % 10) as u8;
        i /= 10;
    }
}

/// `n` async puts of 16-byte keys and 1 KiB values into `store`'s WAL.
fn log_puts(store: &Store, n: u64) {
    let value = [7u8; 1024];
    let mut key = *b"key.000000000000";
    for i in 0..n {
        set_key(&mut key, i);
        store
            .log_writes([(i + 1, &key[..], Some(&value[..]))], SyncMode::Async)
            .unwrap();
    }
}

#[test]
fn an_async_put_allocates_nothing_on_the_calling_thread() {
    const PUTS: u64 = 10_000;
    let _turn = one_at_a_time();
    let dir = tmpdir("alloc");
    let (store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
    let ((), allocations) = allocations_in(|| log_puts(&store, PUTS));
    store.sync_wal().unwrap();
    let per_put = allocations as f64 / PUTS as f64;
    assert!(
        per_put <= 0.01,
        "{allocations} allocations for {PUTS} async puts = {per_put:.3} per put"
    );
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn async_puts_reach_the_file_in_batches() {
    const PUTS: u64 = 20_000;
    let _turn = one_at_a_time();
    let dir = tmpdir("batches");
    let (store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
    // Without the logger, the final sync would write everything at once.
    store.start_logger().unwrap();
    let before = RealEnv::syscall_counts();
    log_puts(&store, PUTS);
    store.sync_wal().unwrap();
    let after = RealEnv::syscall_counts();
    let writes = after.write - before.write;
    let per_put = writes as f64 / PUTS as f64;
    assert!(
        per_put <= 0.05,
        "{writes} write calls for {PUTS} async puts = {per_put:.3} per put"
    );
    assert!(after.sync > before.sync, "the sync reached the file");
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_table_is_written_in_large_appends() {
    let _turn = one_at_a_time();
    let dir = tmpdir("table");
    let opts = StoreOptions {
        table_file_size: 4 << 20,
        ..StoreOptions::default()
    };
    let entries: Vec<_> = (0..2000u64)
        .map(|i| {
            let key = format!("key.{i:012}").into_bytes();
            let value = (0..1024).map(|j| (i as usize * 7 + j) as u8).collect();
            (key, i + 1, ValueKind::Put, value)
        })
        .collect();
    let mut it = VecIterator::new(entries);
    it.seek_to_first();
    let mut next_number = 0u64;
    let mut alloc_number = || {
        next_number += 1;
        next_number
    };
    let before = RealEnv::syscall_counts().write;
    let files = write_merged_tables(&mut it, &dir, &opts, 1, 0, false, &mut alloc_number).unwrap();
    let writes = RealEnv::syscall_counts().write - before;
    assert_eq!(files.len(), 1);
    let size = files[0].file_size;
    assert!((1 << 20..4 << 20).contains(&size), "a ~2 MiB table: {size}");
    assert!(
        writes <= 16,
        "a {size}-byte table took {writes} write calls"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
