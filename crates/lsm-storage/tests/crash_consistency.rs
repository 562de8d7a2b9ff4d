//! Crash-consistency sweep at the storage layer.
//!
//! A deterministic workload runs against a [`FaultEnv`] that crashes at
//! the N-th durability-relevant operation, for every N the clean run
//! performs. After each crash the env simulates power loss (un-synced
//! suffixes torn away, possibly leaving a bit-flipped tail) and the
//! store is reopened on the surviving bytes. Recovery must:
//!
//! - never fail or panic, whatever the failpoint;
//! - retain every record that was sync-acknowledged before the crash;
//! - report torn WAL tails in the [`RecoveryReport`] instead of
//!   surfacing garbage records.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

use clsm_util::env::{Env, FaultEnv, FaultOp};
use lsm_storage::filenames::{self, FileKind};
use lsm_storage::store::Store;
use lsm_storage::wal::SyncMode;
use lsm_storage::{StoreOptions, WriteRecord};

fn test_opts(env: &FaultEnv) -> StoreOptions {
    StoreOptions {
        env: Arc::new(env.clone()),
        table_file_size: 16 * 1024,
        block_size: 1024,
        ..StoreOptions::default()
    }
}

fn record(i: u64) -> WriteRecord {
    WriteRecord::put(
        i + 1,
        format!("key{i:04}").into_bytes(),
        vec![b'a' + (i % 26) as u8; 512],
    )
}

const OPS: u64 = 40;

/// Runs the workload; returns the timestamps acknowledged as durable
/// before an injected crash stopped the run (all of them on a clean
/// run).
///
/// In `Sync` mode every successful `log` call is an ack. In `Async`
/// mode only records covered by a later successful `sync_wal` are.
fn run_workload(store: &Store, mode: SyncMode) -> Vec<u64> {
    let mut acked = Vec::new();
    let mut pending = Vec::new();
    for i in 0..OPS {
        let rec = record(i);
        let ts = rec.ts;
        if store.log(&[rec], mode).is_err() {
            return acked;
        }
        match mode {
            SyncMode::Sync => acked.push(ts),
            SyncMode::Async => {
                pending.push(ts);
                // Periodic explicit sync: the only async durability ack.
                if i % 8 == 7 {
                    if store.sync_wal().is_err() {
                        return acked;
                    }
                    acked.append(&mut pending);
                }
            }
        }
    }
    if mode == SyncMode::Async && store.sync_wal().is_ok() {
        acked.append(&mut pending);
    }
    acked
}

fn sweep(mode: SyncMode) {
    let dir = Path::new("/db");
    let seed = 0xD15C0 + mode as u64;

    // Clean run: count the durability ops the workload performs.
    let clean = FaultEnv::new(seed);
    let (store, recovered) = Store::open(dir, test_opts(&clean)).unwrap();
    assert!(recovered.records.is_empty());
    let all_acked = run_workload(&store, mode);
    assert_eq!(all_acked.len() as u64, OPS);
    drop(store);
    let total_ops = clean.op_count();
    assert!(total_ops > 0);

    for crash_at in 1..=total_ops {
        let fault = FaultEnv::new(seed);
        let (store, _) = Store::open(dir, test_opts(&fault)).unwrap();
        fault.crash_after(crash_at);
        let acked = run_workload(&store, mode);
        drop(store);

        fault.power_loss();
        let env: Arc<dyn Env> = Arc::new(fault.clone());
        let (reopened, recovered) = Store::open(
            dir,
            StoreOptions {
                env,
                ..test_opts(&fault)
            },
        )
        .unwrap_or_else(|e| panic!("recovery failed at failpoint {crash_at}: {e}"));

        let recovered_ts: std::collections::BTreeSet<u64> =
            recovered.records.iter().map(|r| r.ts).collect();
        for ts in &acked {
            assert!(
                recovered_ts.contains(ts),
                "failpoint {crash_at} ({mode:?}): sync-acked ts {ts} lost; \
                 recovered {recovered_ts:?}, report {:?}",
                reopened.recovery_report()
            );
        }
        // Recovered records must be byte-identical to what was written,
        // not torn-tail garbage that happened to pass the CRC.
        for r in &recovered.records {
            assert_eq!(*r, record(r.ts - 1), "failpoint {crash_at} ({mode:?})");
        }
        drop(reopened);
    }
}

#[test]
fn sync_logging_failpoint_sweep() {
    sweep(SyncMode::Sync);
}

#[test]
fn async_logging_failpoint_sweep() {
    sweep(SyncMode::Async);
}

/// Crashing while the manifest is being rewritten must leave a store
/// that recovers to the last durable version.
#[test]
fn wal_rotation_failpoints_keep_manifest_consistent() {
    let dir = Path::new("/db");
    let seed = 0xA11CE;

    // Clean run with a rotation in the middle.
    let clean = FaultEnv::new(seed);
    let (store, _) = Store::open(dir, test_opts(&clean)).unwrap();
    for i in 0..10 {
        store.log(&[record(i)], SyncMode::Sync).unwrap();
    }
    store.rotate_wal().unwrap();
    for i in 10..20 {
        store.log(&[record(i)], SyncMode::Sync).unwrap();
    }
    drop(store);
    let total_ops = clean.op_count();

    for crash_at in 1..=total_ops {
        let fault = FaultEnv::new(seed);
        let (store, _) = Store::open(dir, test_opts(&fault)).unwrap();
        fault.crash_after(crash_at);
        let mut acked: Vec<u64> = Vec::new();
        let mut run = || -> Result<(), clsm_util::Error> {
            for i in 0..10 {
                store.log(&[record(i)], SyncMode::Sync)?;
                acked.push(i + 1);
            }
            store.rotate_wal()?;
            for i in 10..20 {
                store.log(&[record(i)], SyncMode::Sync)?;
                acked.push(i + 1);
            }
            Ok(())
        };
        let _ = run();
        drop(store);

        fault.power_loss();
        let (_reopened, recovered) = Store::open(dir, test_opts(&fault))
            .unwrap_or_else(|e| panic!("recovery failed at failpoint {crash_at}: {e}"));
        let recovered_ts: std::collections::BTreeSet<u64> =
            recovered.records.iter().map(|r| r.ts).collect();
        for ts in &acked {
            assert!(
                recovered_ts.contains(ts),
                "failpoint {crash_at}: acked ts {ts} lost across rotation"
            );
        }
    }
}

/// A flush that crashes after writing its tables, before its manifest
/// record is durable, leaves tables no version names. Reopening removes
/// exactly those: the directory's tables are the recovered version's,
/// and every acknowledged record reads back.
#[test]
fn reopen_sweeps_the_tables_of_a_flush_that_never_committed() {
    let dir = Path::new("/db");
    let flush = |store: &Store, keys: std::ops::Range<u64>| {
        let wal = store.rotate_wal().unwrap();
        let entries = keys.clone().map(|i| {
            let r = record(i);
            (r.key, r.ts, r.kind, r.value)
        });
        let mut it = lsm_storage::iter::VecIterator::new(entries.collect());
        store.flush_memtable(&mut it, 0, keys.end, wal)
    };
    // Flush A commits; flush B runs with `crash_at` armed, if given.
    // Returns how many crash points B passed before its manifest
    // append, and whether B failed.
    let run = |fault: &FaultEnv, crash_at: Option<u64>| {
        let (store, _) = Store::open(dir, test_opts(fault)).unwrap();
        let log = |keys: std::ops::Range<u64>| {
            for i in keys {
                store.log(&[record(i)], SyncMode::Sync).unwrap();
            }
        };
        log(0..OPS / 2);
        flush(&store, 0..OPS / 2).unwrap();
        log(OPS / 2..OPS);
        let history_len = fault.history().len();
        if let Some(n) = crash_at {
            fault.crash_after(n);
        }
        let failed = flush(&store, OPS / 2..OPS).is_err();
        let ops: Vec<_> = fault.history()[history_len..]
            .iter()
            .filter(|op| !matches!(op, FaultOp::Remove(_)))
            .cloned()
            .collect();
        let manifest_append = ops.iter().position(
            |op| matches!(op, FaultOp::Write(p, _) if p.to_string_lossy().contains("MANIFEST")),
        );
        (manifest_append.unwrap() as u64, failed)
    };

    let tables_on_disk = |fault: &FaultEnv| -> BTreeSet<u64> {
        let names = fault.list(dir).unwrap();
        let kinds = names
            .iter()
            .filter_map(|name| filenames::parse_file_name(name));
        kinds
            .filter_map(|kind| match kind {
                FileKind::Table(n) => Some(n),
                _ => None,
            })
            .collect()
    };

    let (manifest_append, failed) = run(&FaultEnv::new(0x5ee9), None);
    assert!(!failed);
    let fault = FaultEnv::new(0x5ee9);
    assert!(
        run(&fault, Some(manifest_append + 1)).1,
        "flush B committed"
    );
    fault.power_loss();
    let left_behind = tables_on_disk(&fault);

    let (store, recovered) = Store::open(dir, test_opts(&fault)).unwrap();
    let named: BTreeSet<u64> = store
        .current_version()
        .levels
        .iter()
        .flatten()
        .map(|f| f.number)
        .collect();
    assert!(!named.is_empty() && left_behind.is_superset(&named));
    assert!(left_behind.len() > named.len(), "flush B wrote no table");
    assert_eq!(tables_on_disk(&fault), named);
    let replayed: BTreeSet<u64> = recovered.records.iter().map(|r| r.ts).collect();
    for i in 0..OPS {
        let r = record(i);
        let flushed = store.get(&r.key, u64::MAX >> 1).unwrap();
        assert!(
            flushed.is_some_and(|(ts, _, v)| ts == r.ts && v == r.value)
                || replayed.contains(&r.ts),
            "acked record {i} lost"
        );
    }
}
