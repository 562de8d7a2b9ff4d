//! Liveness regression: a `WriteBatch` with more entries than the
//! oracle's `active_slots` must commit — one stamp block takes one
//! `Active` slot however many entries the batch has. (When every entry
//! took its own slot, `ActiveSet::add` spun forever on the full set
//! while holding the exclusive lock.) The batch must also stay atomic:
//! a concurrent snapshot sees all of it or none, and so does recovery.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use clsm_repro::clsm::{Db, KvStore, Options, ScanRange, WriteBatch, WriteOptions};
use clsm_repro::util::env::FaultEnv;
use clsm_repro::util::error::Result;

const ENTRIES: usize = 1000;
/// Generous: the batch takes about a millisecond.
const BOUND: Duration = Duration::from_secs(30);

fn open(dir: &Path, fault: &FaultEnv) -> Result<Arc<dyn KvStore>> {
    let mut opts = Options::small_for_tests();
    opts.active_slots = 4;
    opts.watchdog.enabled = false;
    opts.store.env = Arc::new(fault.clone());
    Ok(Arc::new(Db::open(dir, opts)?))
}

fn key(i: usize) -> Vec<u8> {
    format!("big{i:04}").into_bytes()
}

fn batch(version: u8) -> WriteBatch {
    (0..ENTRIES)
        .map(|i| (key(i), Some(vec![version])))
        .collect()
}

/// Runs the write on its own thread so a hang fails the test instead
/// of wedging the whole run.
fn write_within_bound(
    store: &Arc<dyn KvStore>,
    batch: WriteBatch,
    opts: WriteOptions,
) -> Result<()> {
    let (tx, rx) = mpsc::channel();
    let writer = {
        let store = Arc::clone(store);
        std::thread::spawn(move || {
            let _ = tx.send(store.write(batch, &opts));
        })
    };
    let result = rx
        .recv_timeout(BOUND)
        .expect("oversized batch did not return within the bound");
    writer.join().unwrap();
    result
}

#[test]
fn oversized_batch_returns_and_is_atomic_to_snapshots() {
    let fault = FaultEnv::new(0xb16);
    let store = open(Path::new("/oversized"), &fault).unwrap();
    let versions = 20u8;

    let start = Arc::new(Barrier::new(2));
    let done = Arc::new(AtomicBool::new(false));
    let observer = {
        let (store, start, done) = (Arc::clone(&store), Arc::clone(&start), Arc::clone(&done));
        std::thread::spawn(move || {
            start.wait();
            while !done.load(Ordering::Acquire) {
                let seen = store
                    .snapshot()
                    .unwrap()
                    .scan(ScanRange::from_start("big"), ENTRIES + 1)
                    .unwrap();
                assert!(
                    seen.is_empty() || seen.len() == ENTRIES,
                    "snapshot saw {} of {ENTRIES} entries",
                    seen.len()
                );
                if let Some((_, first)) = seen.first() {
                    assert!(
                        seen.iter().all(|(_, v)| v == first),
                        "snapshot saw two versions of one batch"
                    );
                }
            }
        })
    };
    start.wait();
    for version in 1..=versions {
        write_within_bound(&store, batch(version), WriteOptions::new()).unwrap();
    }
    done.store(true, Ordering::Release);
    observer.join().unwrap();
    assert_eq!(store.get(&key(ENTRIES - 1)).unwrap(), Some(vec![versions]));
}

#[test]
fn oversized_batch_recovers_all_or_nothing() {
    let dir = Path::new("/oversized-crash");
    let seed = 0xb17;
    let clean = FaultEnv::new(seed);
    let store = open(dir, &clean).unwrap();
    let opened_ops = clean.op_count();
    write_within_bound(&store, batch(1), WriteOptions::durable()).unwrap();
    drop(store);
    let write_ops = clean.op_count() - opened_ops;
    assert!(write_ops > 0);

    for crash_at in 1..=write_ops {
        let fault = FaultEnv::new(seed);
        let store = open(dir, &fault).unwrap();
        fault.crash_after(crash_at);
        let acked = write_within_bound(&store, batch(1), WriteOptions::durable()).is_ok();
        drop(store);

        fault.power_loss();
        let store = open(dir, &fault).unwrap();
        let present = (0..ENTRIES)
            .filter(|&i| store.get(&key(i)).unwrap().is_some())
            .count();
        assert!(
            present == 0 || present == ENTRIES,
            "failpoint {crash_at}/{write_ops}: recovered {present} of {ENTRIES}"
        );
        if acked {
            assert_eq!(
                present, ENTRIES,
                "failpoint {crash_at}/{write_ops}: sync-acked batch lost"
            );
        }
    }
}
