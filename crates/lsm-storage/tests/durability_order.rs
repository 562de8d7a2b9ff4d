//! The durability order of flush and compaction outputs.
//!
//! A job merges on its own thread and hands each full output table to
//! a finisher thread, which writes the table's tail and syncs it while
//! the merge goes on. What keeps that safe is one rule: no manifest
//! record names a table before the table is durable. The tests here run
//! flushes and compactions that roll over several outputs on the
//! test's thread, over a [`FaultEnv`], and check the rule three ways:
//! in the env's operation history, in which thread synced what, and in
//! what survives power loss.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use clsm_util::env::{Env, FaultEnv, FaultOp, RandomAccessFile, WritableFile};
use clsm_util::error::Result;
use clsm_util::trace;
use lsm_storage::iter::VecIterator;
use lsm_storage::store::Store;
use lsm_storage::wal::SyncMode;
use lsm_storage::{StoreOptions, WriteRecord};

/// Every `sync` the store issued: the thread that issued it, and the
/// file.
type SyncLog = Arc<Mutex<Vec<(ThreadId, PathBuf)>>>;

/// A [`FaultEnv`] that notes which thread syncs each file.
#[derive(Debug, Clone)]
struct SyncThreadEnv {
    fault: FaultEnv,
    syncs: SyncLog,
}

struct NotedFile {
    inner: Box<dyn WritableFile>,
    path: PathBuf,
    syncs: SyncLog,
}

impl WritableFile for NotedFile {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.inner.append(data)
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }

    fn sync(&mut self) -> Result<()> {
        let thread = std::thread::current().id();
        self.syncs.lock().unwrap().push((thread, self.path.clone()));
        self.inner.sync()
    }
}

impl Env for SyncThreadEnv {
    fn open_write(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        Ok(Box::new(NotedFile {
            inner: self.fault.open_write(path)?,
            path: path.to_path_buf(),
            syncs: Arc::clone(&self.syncs),
        }))
    }

    fn open_read(&self, path: &Path) -> Result<Box<dyn RandomAccessFile>> {
        self.fault.open_read(path)
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

const KEYS: u64 = 60;

/// Small tables, so every flush of [`KEYS`] records rolls over several.
fn opts(env: Arc<dyn Env>) -> StoreOptions {
    StoreOptions {
        env,
        table_file_size: 4 * 1024,
        block_size: 1024,
        ..StoreOptions::default()
    }
}

/// Round `round`'s record for key `i`: every round overwrites every key.
fn record(round: u64, i: u64) -> WriteRecord {
    WriteRecord::put(
        round * KEYS + i + 1,
        format!("key{i:04}").into_bytes(),
        vec![b'a' + (round % 26) as u8; 256],
    )
}

/// Logs round `round` synchronously, so each record is acknowledged,
/// then flushes it into L0.
fn log_and_flush(store: &Store, round: u64) {
    for i in 0..KEYS {
        store.log(&[record(round, i)], SyncMode::Sync).unwrap();
    }
    let wal = store.rotate_wal().unwrap();
    let entries = (0..KEYS).map(|i| {
        let r = record(round, i);
        (r.key, r.ts, r.kind, r.value)
    });
    let mut it = VecIterator::new(entries.collect());
    store
        .flush_memtable(&mut it, 0, (round + 1) * KEYS, wal)
        .unwrap();
}

/// Merges all of L0 into L1.
fn compact_l0(store: &Store) {
    store
        .compact_level_range(0, b"", b"\xff", u64::MAX >> 1)
        .unwrap();
}

/// One flush or compaction, run on the calling thread.
type Job = fn(&Store);

fn table_numbers(store: &Store) -> BTreeSet<u64> {
    let version = store.current_version();
    version.levels.iter().flatten().map(|f| f.number).collect()
}

fn is_table(path: &Path, number: u64) -> bool {
    path.file_name().unwrap().to_str().unwrap() == format!("{number:06}.sst")
}

fn is_wal(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "log")
}

fn is_manifest(path: &Path) -> bool {
    path.file_name()
        .unwrap()
        .to_str()
        .unwrap()
        .starts_with("MANIFEST-")
}

#[test]
fn no_manifest_record_names_an_unsynced_table() {
    let fault = FaultEnv::new(0xd0_0d);
    let syncs = SyncLog::default();
    let env = SyncThreadEnv {
        fault: fault.clone(),
        syncs: Arc::clone(&syncs),
    };
    let (store, _) = Store::open(Path::new("/db"), opts(Arc::new(env))).unwrap();
    let me = std::thread::current().id();
    let jobs: [(&str, Job); 5] = [
        ("flush 0", |s| log_and_flush(s, 0)),
        ("flush 1", |s| log_and_flush(s, 1)),
        ("compaction into an empty L1", compact_l0),
        ("flush 2", |s| log_and_flush(s, 2)),
        ("compaction into a full L1", compact_l0),
    ];
    for (name, job) in jobs {
        let tables_before = table_numbers(&store);
        let (history_before, syncs_before) = (fault.history().len(), syncs.lock().unwrap().len());
        job(&store);
        let history = fault.history();
        let job_syncs = syncs.lock().unwrap()[syncs_before..].to_vec();
        let outputs: Vec<u64> = table_numbers(&store)
            .difference(&tables_before)
            .copied()
            .collect();
        assert!(outputs.len() > 1, "{name}: {} outputs", outputs.len());

        // The sync that made this job's manifest record durable is the
        // job's last manifest sync.
        let manifest_sync = history
            .iter()
            .rposition(|op| matches!(op, FaultOp::Sync(p) if is_manifest(p)))
            .filter(|&at| at >= history_before)
            .unwrap_or_else(|| panic!("{name}: no manifest sync"));
        for &n in &outputs {
            let table_syncs: Vec<usize> = (0..history.len())
                .filter(|&at| matches!(&history[at], FaultOp::Sync(p) if is_table(p, n)))
                .collect();
            assert_eq!(
                table_syncs.len(),
                1,
                "{name}: table {n} synced {table_syncs:?}"
            );
            let synced_at = table_syncs[0];
            assert!(
                (history_before..manifest_sync).contains(&synced_at),
                "{name}: table {n} synced at op {synced_at}, the manifest at {manifest_sync}"
            );
            let written_after = history[synced_at..]
                .iter()
                .any(|op| matches!(op, FaultOp::Write(p, _) if is_table(p, n)));
            assert!(!written_after, "{name}: table {n} grew after its sync");
        }

        // The job's thread syncs the manifest and the WAL (a sync write
        // and a rotation do their own fsync), never a table; each output
        // is synced once, by another thread.
        let (mine, others): (Vec<_>, Vec<_>) =
            job_syncs.iter().partition(|(thread, _)| *thread == me);
        assert!(
            mine.iter().all(|(_, p)| is_manifest(p) || is_wal(p))
                && mine.iter().any(|(_, p)| is_manifest(p)),
            "{name}: the job's thread synced {mine:?}"
        );
        let tables_synced: Vec<&PathBuf> = others
            .iter()
            .map(|(_, p)| p)
            .filter(|p| !is_manifest(p) && p.extension().is_some_and(|e| e == "sst"))
            .collect();
        assert_eq!(
            tables_synced.len(),
            outputs.len(),
            "{name}: {tables_synced:?}"
        );
    }
}

/// Cuts the power right after the last job: every operation from here
/// on fails, then whatever was not synced is lost.
fn cut_power(fault: &FaultEnv, store: Store) {
    fault.crash_after(1);
    drop(store);
    fault.power_loss();
}

/// Reopens after power loss: every table checks out, and the last
/// acknowledged round reads back for every key.
fn reopen_and_check(fault: &FaultEnv, last_round: u64, ctx: &str) -> Store {
    let env: Arc<dyn Env> = Arc::new(fault.clone());
    let (store, _) = Store::open(Path::new("/db"), opts(env)).unwrap();
    store
        .verify_integrity()
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    for i in 0..KEYS {
        let r = record(last_round, i);
        let (ts, _, value) = store
            .get(&r.key, u64::MAX >> 1)
            .unwrap()
            .unwrap_or_else(|| panic!("{ctx}: key {i} lost"));
        assert_eq!((ts, value), (r.ts, r.value), "{ctx}: key {i}");
    }
    store
}

#[test]
fn power_loss_after_a_flush_or_a_compaction_keeps_every_acked_key() {
    let fault = FaultEnv::new(0xb1ac);
    let (store, _) = Store::open(Path::new("/db"), opts(Arc::new(fault.clone()))).unwrap();
    log_and_flush(&store, 0);
    cut_power(&fault, store);
    let store = reopen_and_check(&fault, 0, "after a flush");

    log_and_flush(&store, 1);
    compact_l0(&store);
    assert_eq!(store.level_file_counts()[0], 0);
    cut_power(&fault, store);
    let store = reopen_and_check(&fault, 1, "after a compaction");
    assert_eq!(store.level_file_counts()[0], 0);
    assert!(store.level_file_counts()[1] > 1);
}

/// The finisher is one short-lived thread per job, and the flight
/// recorder keeps a ring for every thread that ever recorded an event:
/// a finisher that recorded one would leak a ring per job.
#[test]
fn finishers_record_no_trace_events() {
    trace::enable_default();
    let (store, _) = Store::open(Path::new("/db"), opts(Arc::new(FaultEnv::new(0x7ace)))).unwrap();
    log_and_flush(&store, 0);
    log_and_flush(&store, 1);
    compact_l0(&store);
    let threads = trace::drain().threads;
    assert!(
        threads.iter().any(|t| t.recorded > 0),
        "the jobs recorded nothing"
    );
    let finishers = threads.iter().filter(|t| t.name == "clsm-finisher");
    assert_eq!(finishers.count(), 0, "{threads:?}");
}
