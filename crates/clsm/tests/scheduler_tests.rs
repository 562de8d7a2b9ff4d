//! Background work as jobs: the stepped scheduler, quiescence beside a
//! writer, and the error policy of a failed job.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use clsm::{Db, Job, Options, RmwDecision, WriteBatch, WriteOptions};
use clsm_util::env::{Env, FaultEnv, RandomAccessFile, WritableFile};
use clsm_util::error::{Error, Result};
use lsm_storage::compaction::L0_COMPACTION_TRIGGER;

mod common;
use common::{replayed_ops, FailTableWrites};

/// xorshift64*: the seeded choices of one schedule.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
    }
}

fn stepped_options(env: &FaultEnv) -> Options {
    let mut opts = Options::small_for_tests();
    opts.memtable_bytes = 4 * 1024;
    opts.store.table_file_size = 4 * 1024;
    opts.store.base_level_bytes = 16 * 1024;
    // Nothing drains while the test runs no job, so pacing would only
    // sleep.
    opts.admission.enabled = false;
    opts.store.env = Arc::new(env.clone());
    opts
}

fn key(k: u64) -> Vec<u8> {
    format!("key{k:04}").into_bytes()
}

/// Whether a `P'm` is parked awaiting its merge
/// (`db.immutable_pending`).
fn pm_parked(db: &Db) -> bool {
    db.metrics().gauges["db.immutable_pending"] != 0
}

/// Every live pair of `db`, in key order.
fn contents(db: &Db) -> Vec<(Vec<u8>, Vec<u8>)> {
    db.iter().unwrap().map(|pair| pair.unwrap()).collect()
}

fn model_contents(model: &BTreeMap<Vec<u8>, Vec<u8>>) -> Vec<(Vec<u8>, Vec<u8>)> {
    model.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
}

/// One seeded schedule: puts, deletes and reads interleaved with the
/// jobs that are due, log steps included, in an order the seed picks,
/// all on this thread. Every read, a snapshot held across jobs, the
/// final scan and the reopened store must match a `BTreeMap` model.
/// Returns how many compactions ran, and the env the schedule ran on.
fn run_stepped_schedule(seed: u64) -> (u64, FaultEnv) {
    let ctx = format!("seed {seed}");
    let env = FaultEnv::new(seed);
    let dir = Path::new("/stepped");
    let db = Db::open_stepped(dir, stepped_options(&env)).unwrap();
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut model = BTreeMap::new();
    let mut pinned = None;
    let mut jobs_run = 0;
    for step in 0..600u64 {
        let k = key(rng.below(160));
        match rng.below(100) {
            0..=49 => {
                let mut v = format!("{seed}/{step}/").into_bytes();
                v.resize(16 + rng.below(120) as usize, b'v');
                db.put(&k, &v).unwrap();
                model.insert(k, v);
            }
            50..=64 => {
                db.delete(&k).unwrap();
                model.remove(&k);
            }
            65..=79 => assert_eq!(
                db.get(&k).unwrap(),
                model.get(&k).cloned(),
                "{ctx} step {step}"
            ),
            80..=81 => pinned = Some((db.snapshot().unwrap(), model.clone())),
            82..=83 => {
                if let Some((snap, then)) = pinned.take() {
                    let seen: Vec<_> = snap.iter().unwrap().map(|pair| pair.unwrap()).collect();
                    assert_eq!(seen, model_contents(&then), "{ctx} step {step}: snapshot");
                }
            }
            _ => {
                let due = db.due_jobs();
                if !due.is_empty() {
                    let job = due[rng.below(due.len() as u64) as usize];
                    db.run_job(job)
                        .unwrap_or_else(|e| panic!("{ctx} step {step}: {job:?}: {e}"));
                    jobs_run += 1;
                }
            }
        }
    }
    drop(pinned);
    while let Some(&job) = db.due_jobs().first() {
        db.run_job(job).unwrap();
        jobs_run += 1;
    }
    assert!(jobs_run > 0, "{ctx}: no job ran");
    for k in (0..160).map(key) {
        assert_eq!(
            db.get(&k).unwrap(),
            model.get(&k).cloned(),
            "{ctx}: final read"
        );
    }
    assert_eq!(contents(&db), model_contents(&model), "{ctx}: final scan");
    db.verify_integrity().unwrap();
    let compactions = db.metrics().counters["db.compactions"];
    drop(db);

    let db = Db::open_stepped(dir, stepped_options(&env)).unwrap();
    assert_eq!(contents(&db), model_contents(&model), "{ctx}: after reopen");
    drop(db);
    (compactions, env)
}

#[test]
fn seeded_stepped_schedules_match_a_model() {
    let compactions: u64 = (0..100).map(|seed| run_stepped_schedule(seed).0).sum();
    assert!(compactions > 0, "no schedule compacted");
}

/// A stepped store has no thread between steps, so a seed fixes its
/// file operations: the WAL is written by the log steps, syncs and
/// rotations the schedule runs, never on a logger's timer.
#[test]
fn a_seed_replays_the_same_file_operations() {
    let differing: Vec<u64> = (0..100)
        .filter(|&seed| {
            let first = replayed_ops(&run_stepped_schedule(seed).1);
            first != replayed_ops(&run_stepped_schedule(seed).1)
        })
        .collect();
    assert!(differing.is_empty(), "seeds {differing:?} did not replay");
}

#[test]
fn quiescence_returns_beside_a_writer() {
    const MEMTABLE_BYTES: usize = 8 << 20;
    let dir = std::env::temp_dir().join(format!("clsm-quiesce-writer-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = Options::small_for_tests();
    opts.memtable_bytes = MEMTABLE_BYTES;
    let db = Arc::new(Db::open(&dir, opts).unwrap());
    for i in 0..2_000u32 {
        db.put(format!("pre{i:05}").as_bytes(), &[7; 64]).unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let puts = Arc::new(AtomicU64::new(0));
    let writer = std::thread::spawn({
        let (db, stop, puts) = (Arc::clone(&db), Arc::clone(&stop), Arc::clone(&puts));
        move || {
            while !stop.load(SeqCst) {
                // Stay below the flush trigger: this writer never asks
                // for a flush of its own.
                if db.memtable_bytes() < MEMTABLE_BYTES / 2 {
                    let n = puts.fetch_add(1, SeqCst);
                    db.put(format!("w{:04}", n % 1000).as_bytes(), &n.to_le_bytes())
                        .unwrap();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    });
    while puts.load(SeqCst) < 100 {
        std::thread::yield_now();
    }

    let (done_tx, done) = mpsc::channel();
    let quiescer = std::thread::spawn({
        let db = Arc::clone(&db);
        move || done_tx.send(db.compact_to_quiescence()).unwrap()
    });
    let quiesced = done.recv_timeout(Duration::from_secs(30));
    let written_meanwhile = puts.load(SeqCst);
    stop.store(true, SeqCst);
    writer.join().unwrap();
    quiesced
        .expect("compact_to_quiescence did not return beside a writer")
        .unwrap();
    quiescer.join().unwrap();
    assert!(written_meanwhile > 100);
    // What was written before the call has reached the disk component.
    assert!(db.level_file_counts().iter().sum::<usize>() > 0);
    assert_eq!(db.get(b"pre01999").unwrap(), Some(vec![7; 64]));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fails unless every table file in `dir` is one the current version
/// names: no failed job left an output behind. The version names one
/// file per table `level_file_counts` counts, and `verify_integrity`
/// reads each of them.
fn assert_no_orphan_tables(db: &Db, env: &dyn Env, dir: &Path) {
    let on_disk: Vec<String> = env
        .list(dir)
        .unwrap()
        .into_iter()
        .filter(|name| name.ends_with(".sst"))
        .collect();
    let named: usize = db.level_file_counts().iter().sum();
    assert_eq!(on_disk.len(), named, "table files on disk: {on_disk:?}");
    db.verify_integrity().unwrap();
}

/// The first flush fails on its table write with `P'm` parked: the
/// failure is counted and shown by the doctor, the flush thread retries
/// it after the back-off, no table is left behind, and no acked write
/// is lost.
#[test]
fn a_failed_flush_is_counted_and_retried() {
    let env = FailTableWrites::new(0xfa11, 1);
    let dir = Path::new("/failed-flush");
    let mut opts = Options::small_for_tests();
    opts.memtable_bytes = 8 * 1024;
    opts.store.env = Arc::new(env.clone());
    let db = Db::open(dir, opts.clone()).unwrap();
    let value = |i: u32| format!("value-{i:05}-").into_bytes().repeat(4);
    for i in 0..400u32 {
        db.put(format!("k{i:05}").as_bytes(), &value(i)).unwrap();
    }
    db.compact_to_quiescence().unwrap();

    assert_eq!(
        env.remaining.load(SeqCst),
        0,
        "no table write was attempted"
    );
    let metrics = db.metrics();
    assert!(metrics.counters["db.background_errors"] >= 1, "{metrics:?}");
    assert!(metrics.counters["db.flushes"] >= 1, "{metrics:?}");
    let report = db.doctor();
    assert!(
        report.render().contains("injected table write failure"),
        "{}",
        report.render()
    );
    for i in 0..400u32 {
        assert_eq!(
            db.get(format!("k{i:05}").as_bytes()).unwrap(),
            Some(value(i)),
            "key {i}"
        );
    }
    assert_no_orphan_tables(&db, &env, dir);
    drop(db);

    let db = Db::open(dir, opts).unwrap();
    for i in 0..400u32 {
        assert_eq!(
            db.get(format!("k{i:05}").as_bytes()).unwrap(),
            Some(value(i)),
            "reopened key {i}"
        );
    }
}

/// A compaction whose first table write fails: the job returns the
/// error, the store stays writable, the failed job's outputs are gone,
/// the next compaction succeeds, and no acked write is lost.
#[test]
fn a_failed_compaction_leaves_nothing_behind_and_is_retried() {
    let env = FailTableWrites::new(0xc0_fa11, 0);
    let dir = Path::new("/failed-compaction");
    let mut opts = stepped_options(&env.fault);
    opts.store.env = Arc::new(env.clone());
    let db = Db::open_stepped(dir, opts.clone()).unwrap();
    // Each flush spreads over the whole key range, so the L0 runs
    // overlap and the compaction merges them instead of moving them.
    let mut acked = BTreeMap::new();
    for i in 0.. {
        if db.due_jobs().contains(&Job::Compact) {
            break;
        }
        assert!(i < 10_000, "no compaction came due");
        let k = key(i * 37 % 300);
        let v = format!("value-{i:05}-").into_bytes().repeat(4);
        db.put(&k, &v).unwrap();
        acked.insert(k, v);
        for job in db.due_jobs() {
            if job != Job::Compact {
                db.run_job(job).unwrap();
            }
        }
    }
    let check = |db: &Db, ctx: &str| {
        for (k, v) in &acked {
            assert_eq!(db.get(k).unwrap().as_ref(), Some(v), "{ctx}");
        }
        assert_eq!(contents(db), model_contents(&acked), "{ctx}");
    };

    env.remaining.store(1, SeqCst);
    let error = db.run_job(Job::Compact).unwrap_err().to_string();
    assert!(error.contains("injected table write failure"), "{error}");
    assert_eq!(env.remaining.load(SeqCst), 0, "no table write failed");
    assert!(db.read_only().is_none(), "{:?}", db.read_only());
    assert_eq!(db.metrics().counters["db.background_errors"], 1);
    assert_no_orphan_tables(&db, &env, dir);
    check(&db, "after the failed compaction");

    assert!(db.due_jobs().contains(&Job::Compact));
    assert!(db.run_job(Job::Compact).unwrap());
    assert_eq!(db.metrics().counters["db.compactions"], 1);
    assert_no_orphan_tables(&db, &env, dir);
    check(&db, "after the retry");
    drop(db);

    let db = Db::open_stepped(dir, opts).unwrap();
    check(&db, "reopened");
    db.verify_integrity().unwrap();
}

/// A flush that fails every time, with a writer stalled behind its
/// parked `P'm`: a bounded number of failures in a row make the store
/// read-only with the flush's error, which wakes the stalled writer.
/// No flush is due after that, and no acked write is lost.
#[test]
fn a_flush_that_keeps_failing_makes_the_store_read_only() {
    let env = FailTableWrites::new(0xbad_f1a5, u64::MAX);
    let dir = Path::new("/failing-flush");
    let mut opts = stepped_options(&env.fault);
    opts.store.env = Arc::new(env.clone());
    let db = Arc::new(Db::open_stepped(dir, opts.clone()).unwrap());
    let value = |i: u64| format!("value-{i:05}-").into_bytes().repeat(4);
    let mut acked: Vec<u64> = Vec::new();
    while !db.due_jobs().contains(&Job::Flush) {
        let i = acked.len() as u64;
        db.put(&key(i), &value(i)).unwrap();
        acked.push(i);
    }
    let error = db.run_job(Job::Flush).unwrap_err().to_string();
    assert!(error.contains("injected table write failure"), "{error}");
    assert!(
        db.read_only().is_none(),
        "one failure made the store read-only"
    );

    // A writer fills the next `Pm` and stalls behind the parked `P'm`.
    let writer = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            let mut written = Vec::new();
            for i in 1_000_000.. {
                match db.put(&key(i), &value(i)) {
                    Ok(()) => written.push(i),
                    Err(e) => return (written, e),
                }
            }
            unreachable!()
        })
    };
    let stalls = |db: &Db| db.metrics().counters["db.write_stalls"];
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while stalls(&db) == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "the writer never stalled"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut failures = 1;
    while db.read_only().is_none() {
        assert!(
            failures < 100,
            "{failures} failed flushes left the store writable"
        );
        let retry = db.run_job(Job::Flush).unwrap_err().to_string();
        assert_eq!(retry, error);
        failures += 1;
    }
    assert!(failures > 1, "one failure made the store read-only");
    let (written, stalled) = writer.join().unwrap();
    assert_eq!(stalled.to_string(), error, "the stalled writer");
    assert_eq!(db.read_only().map(|e| e.to_string()), Some(error.clone()));
    assert_eq!(stalls(&db), 1);
    assert_eq!(db.metrics().counters["db.background_errors"], failures);
    assert!(!db.due_jobs().contains(&Job::Flush));
    db.put(b"late", b"x").unwrap_err();
    acked.extend(written);
    drop(db);

    env.remaining.store(0, SeqCst);
    let db = Db::open_stepped(dir, opts).unwrap();
    for &i in &acked {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i)), "key {i}");
    }
    assert_eq!(contents(&db).len(), acked.len());
}

/// A [`FaultEnv`] whose every `remove` fails.
#[derive(Debug, Clone)]
struct FailEveryRemove(FaultEnv);

impl Env for FailEveryRemove {
    fn open_write(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        self.0.open_write(path)
    }

    fn open_read(&self, path: &Path) -> Result<Box<dyn RandomAccessFile>> {
        self.0.open_read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        self.0.rename(from, to)
    }

    fn remove(&self, path: &Path) -> Result<()> {
        Err(Error::from(std::io::Error::other(format!(
            "injected remove failure: {}",
            path.display()
        ))))
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>> {
        self.0.list(dir)
    }

    fn sync_dir(&self, dir: &Path) -> Result<()> {
        self.0.sync_dir(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> Result<()> {
        self.0.create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        self.0.exists(path)
    }
}

/// A flush whose version is committed succeeds even when no garbage
/// can be removed: `P'm` is cleared, no background error is counted,
/// and no memtable is merged into L0 twice.
#[test]
fn a_committed_flush_does_not_fail_on_garbage_removal() {
    let env = FailEveryRemove(FaultEnv::new(0x7e30));
    let mut opts = Options::small_for_tests();
    opts.admission.enabled = false;
    opts.store.env = Arc::new(env);
    let db = Db::open_stepped(Path::new("/failing-remove"), opts).unwrap();
    let flush = |round: u64| {
        for k in 0..20 {
            db.put(&key(k), format!("round {round}").as_bytes())
                .unwrap();
        }
        db.run_job(Job::Flush)
    };

    let due = L0_COMPACTION_TRIGGER as u64;
    for round in 0..due {
        assert!(flush(round).unwrap());
    }
    assert!(db.run_job(Job::Compact).unwrap());
    assert_eq!(db.level_file_counts()[0], 0);
    assert!(flush(due).unwrap());
    assert!(flush(due + 1).unwrap());

    assert!(!pm_parked(&db), "P'm still parked");
    assert!(
        !db.run_job(Job::Flush).unwrap(),
        "a flush with nothing to merge ran"
    );
    assert_eq!(db.metrics().counters["db.background_errors"], 0);
    assert_eq!(db.level_file_counts()[0], 2, "a memtable was merged twice");
    let last = format!("round {}", due + 1);
    for k in 0..20 {
        assert_eq!(db.get(&key(k)).unwrap(), Some(last.clone().into_bytes()));
    }
}

/// What [`FailFirstTableSync`] saw, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TableEvent {
    /// A table opened for writing.
    Opened(u64),
    /// The injected failure of a table's sync.
    SyncFailed(u64),
}

/// A [`FaultEnv`] whose first table `sync` fails, once, without
/// poisoning anything else. It notes every table it opens for writing
/// and the failed sync in order, counts each file's removals, and
/// counts the read handles open on each table.
#[derive(Debug, Clone)]
struct FailFirstTableSync {
    fault: FaultEnv,
    armed: Arc<AtomicBool>,
    events: Arc<Mutex<Vec<TableEvent>>>,
    removes: Arc<Mutex<HashMap<PathBuf, u64>>>,
    read_handles: Arc<Mutex<HashMap<u64, u64>>>,
}

impl FailFirstTableSync {
    fn new(seed: u64) -> Self {
        FailFirstTableSync {
            fault: FaultEnv::new(seed),
            armed: Arc::new(AtomicBool::new(true)),
            events: Arc::default(),
            removes: Arc::default(),
            read_handles: Arc::default(),
        }
    }
}

fn table_number(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    name.strip_suffix(".sst")?.parse().ok()
}

struct FailingSyncTable {
    inner: Box<dyn WritableFile>,
    number: u64,
    env: FailFirstTableSync,
}

impl WritableFile for FailingSyncTable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.inner.append(data)
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }

    fn sync(&mut self) -> Result<()> {
        if self.env.armed.swap(false, SeqCst) {
            let failed = TableEvent::SyncFailed(self.number);
            self.env.events.lock().unwrap().push(failed);
            return Err(Error::from(std::io::Error::other(
                "injected table sync failure",
            )));
        }
        self.inner.sync()
    }
}

struct CountedReadHandle {
    inner: Box<dyn RandomAccessFile>,
    number: u64,
    read_handles: Arc<Mutex<HashMap<u64, u64>>>,
}

impl RandomAccessFile for CountedReadHandle {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        self.inner.read_at(offset, buf)
    }

    fn len(&self) -> Result<u64> {
        self.inner.len()
    }
}

impl Drop for CountedReadHandle {
    fn drop(&mut self) {
        *self
            .read_handles
            .lock()
            .unwrap()
            .get_mut(&self.number)
            .unwrap() -= 1;
    }
}

impl Env for FailFirstTableSync {
    fn open_write(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        let inner = self.fault.open_write(path)?;
        let Some(number) = table_number(path) else {
            return Ok(inner);
        };
        self.events.lock().unwrap().push(TableEvent::Opened(number));
        Ok(Box::new(FailingSyncTable {
            inner,
            number,
            env: self.clone(),
        }))
    }

    fn open_read(&self, path: &Path) -> Result<Box<dyn RandomAccessFile>> {
        let inner = self.fault.open_read(path)?;
        let Some(number) = table_number(path) else {
            return Ok(inner);
        };
        *self.read_handles.lock().unwrap().entry(number).or_default() += 1;
        Ok(Box::new(CountedReadHandle {
            inner,
            number,
            read_handles: Arc::clone(&self.read_handles),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        self.fault.rename(from, to)
    }

    fn remove(&self, path: &Path) -> Result<()> {
        *self
            .removes
            .lock()
            .unwrap()
            .entry(path.to_path_buf())
            .or_default() += 1;
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

/// A flush whose first output fails to sync, while the merge is still
/// writing the outputs after it: the job fails and `P'm` stays parked;
/// the merge stops within one table of the failure; the failed job's
/// tables are removed once, by its own removal pass, and none is left
/// open; the retry merges the same `P'm` and loses no acked write.
#[test]
fn a_failed_table_sync_fails_the_flush_and_leaves_nothing_behind() {
    let env = FailFirstTableSync::new(0x5eed);
    let dir = Path::new("/failed-sync");
    let mut opts = stepped_options(&env.fault);
    opts.memtable_bytes = 64 * 1024;
    opts.store.env = Arc::new(env.clone());
    let db = Db::open_stepped(dir, opts.clone()).unwrap();
    let value = |i: u64| format!("value-{i:05}-").into_bytes().repeat(8);
    let mut acked = 0;
    while !db.due_jobs().contains(&Job::Flush) {
        db.put(&key(acked), &value(acked)).unwrap();
        acked += 1;
    }

    db.run_job(Job::Flush).unwrap_err();
    assert!(pm_parked(&db), "P'm was not kept");
    assert_eq!(db.level_file_counts()[0], 0);
    assert_eq!(db.metrics().counters["db.background_errors"], 1);
    let events = env.events.lock().unwrap().clone();
    let outputs: Vec<u64> = events
        .iter()
        .filter_map(|e| match *e {
            TableEvent::Opened(n) => Some(n),
            TableEvent::SyncFailed(_) => None,
        })
        .collect();
    let failed_at = events
        .iter()
        .position(|e| matches!(e, TableEvent::SyncFailed(_)))
        .expect("no table sync failed");
    assert!(outputs.len() > 1, "the merge went on past the first table");
    assert_eq!(events[failed_at], TableEvent::SyncFailed(outputs[0]));
    let opened_after = events.len() - failed_at - 1;
    assert!(
        opened_after <= 1,
        "{opened_after} tables opened after the failed sync: {events:?}"
    );
    let removed = |n: u64| {
        let path = dir.join(format!("{n:06}.sst"));
        env.removes.lock().unwrap().get(&path).copied().unwrap_or(0)
    };
    let read_handles = |n: u64| {
        let handles = env.read_handles.lock().unwrap();
        handles.get(&n).copied().unwrap_or(0)
    };
    for &n in &outputs {
        assert_eq!(removed(n), 1, "table {n} of the failed flush");
        assert_eq!(read_handles(n), 0, "table {n} of the failed flush");
        assert!(!env.fault.exists(&dir.join(format!("{n:06}.sst"))));
    }

    assert!(db.run_job(Job::Flush).unwrap());
    assert!(!pm_parked(&db), "P'm still parked");
    assert!(db.level_file_counts()[0] > 0);
    for &n in &outputs {
        assert_eq!(removed(n), 1, "table {n} of the failed flush");
    }
    for i in 0..acked {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i)), "key {i}");
    }
    db.verify_integrity().unwrap();
    drop(db);

    let db = Db::open_stepped(dir, opts).unwrap();
    for i in 0..acked {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i)), "reopened key {i}");
    }
}

/// L0 is counted in sorted runs: a flush of several tables is one run,
/// and the doctor, the `storage.l0_runs` gauge and the compaction
/// trigger all count it once.
#[test]
fn a_flush_is_one_l0_run_however_many_tables_it_writes() {
    let env = FaultEnv::new(0x10_4a5);
    let mut opts = stepped_options(&env);
    opts.memtable_bytes = 16 * 1024;
    opts.store.base_level_bytes = 1 << 20;
    let db = Db::open_stepped(Path::new("/l0-runs"), opts).unwrap();
    let flush = |db: &Db| {
        for k in 0..200 {
            db.put(&key(k), &[7; 64]).unwrap();
        }
        assert!(db.run_job(Job::Flush).unwrap());
    };
    let l0 = |db: &Db| {
        let gauges = db.doctor().metrics.gauges;
        let files = gauges["storage.level.0.files"] as usize;
        assert_eq!(files, db.level_file_counts()[0]);
        (files, gauges["storage.l0_runs"] as usize)
    };

    flush(&db);
    let (files, runs) = l0(&db);
    assert!(files > 1, "a flush of {files} table(s)");
    assert_eq!(runs, 1);
    assert!(
        db.doctor()
            .render()
            .contains(&format!("L0: {files} files in 1 runs")),
        "{}",
        db.doctor().render()
    );
    // Three more flushes of the same keys make four runs: the trigger.
    for n in 2..=3 {
        flush(&db);
        assert_eq!(l0(&db).1, n);
        assert!(
            !db.run_job(Job::Compact).unwrap(),
            "compacted below the trigger"
        );
    }
    flush(&db);
    assert_eq!(l0(&db).1, 4);
    assert!(db.run_job(Job::Compact).unwrap());
    assert_eq!(l0(&db), (0, 0));
}

/// L0 is behind, and writes are paced against it, at twice the
/// compaction trigger in sorted runs: one run short of that is merely
/// due, and one compaction ends it.
#[test]
fn l0_is_behind_at_twice_the_compaction_trigger() {
    let env = FaultEnv::new(0xb3_41d);
    let mut opts = stepped_options(&env);
    opts.store.base_level_bytes = 1 << 20;
    let db = Db::open_stepped(Path::new("/l0-behind"), opts).unwrap();
    // `admission.stage`: 0 nothing behind, 1 a flush, 2 L0.
    let (none, l0) = (0, 2);
    let behind = |db: &Db| {
        let report = db.doctor();
        let gauges = &report.metrics.gauges;
        let stage = gauges["admission.stage"];
        let name = ["none", "flush", "l0"][stage as usize];
        let text = report.render();
        assert!(text.contains(&format!("(behind {name},")), "{text}");
        (gauges["storage.l0_runs"] as usize, stage)
    };

    let limit = 2 * L0_COMPACTION_TRIGGER;
    for run in 1..=limit {
        // The same keys every time: each flush overlaps every run
        // before it.
        for k in 0..20 {
            db.put(&key(k), format!("run {run}").as_bytes()).unwrap();
        }
        assert!(db.run_job(Job::Flush).unwrap());
        let expected = if run < limit { none } else { l0 };
        assert_eq!(behind(&db), (run, expected), "after {run} runs");
    }
    assert!(db.run_job(Job::Compact).unwrap());
    assert_eq!(behind(&db), (0, none));
}

/// A [`FaultEnv`] whose first `MANIFEST` sync after it is armed fails,
/// once, after the record's bytes were written. It notes every file it
/// is asked to remove.
#[derive(Debug, Clone)]
struct FailManifestSync {
    fault: FaultEnv,
    armed: Arc<AtomicBool>,
    removed: Arc<Mutex<Vec<PathBuf>>>,
}

struct FailingSyncManifest {
    inner: Box<dyn WritableFile>,
    armed: Arc<AtomicBool>,
}

impl WritableFile for FailingSyncManifest {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.inner.append(data)
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }

    fn sync(&mut self) -> Result<()> {
        if self.armed.swap(false, SeqCst) {
            return Err(Error::from(std::io::Error::other(
                "injected manifest sync failure",
            )));
        }
        self.inner.sync()
    }
}

fn is_manifest(path: &Path) -> bool {
    path.file_name()
        .and_then(|name| name.to_str())
        .is_some_and(|name| name.starts_with("MANIFEST-"))
}

impl Env for FailManifestSync {
    fn open_write(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        let inner = self.fault.open_write(path)?;
        if !is_manifest(path) {
            return Ok(inner);
        }
        Ok(Box::new(FailingSyncManifest {
            inner,
            armed: Arc::clone(&self.armed),
        }))
    }

    fn open_read(&self, path: &Path) -> Result<Box<dyn RandomAccessFile>> {
        self.fault.open_read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        self.fault.rename(from, to)
    }

    fn remove(&self, path: &Path) -> Result<()> {
        self.removed.lock().unwrap().push(path.to_path_buf());
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

/// A flush whose manifest record was written but failed to sync
/// poisons the store. The record may still reach disk and name the
/// flush's tables, so none of them is removed, and no later edit is
/// written after it: the retry fails without touching the manifest,
/// writes fail, and nothing is due. Reopening, after a clean drop or a
/// power loss, reads back every acked write.
#[test]
fn a_failed_manifest_sync_poisons_the_store_and_loses_no_acked_write() {
    for power_loss in [false, true] {
        let ctx = format!("power loss: {power_loss}");
        let env = FailManifestSync {
            fault: FaultEnv::new(0x3a1f),
            armed: Arc::default(),
            removed: Arc::default(),
        };
        let dir = Path::new("/manifest-fail");
        let mut opts = stepped_options(&env.fault);
        opts.memtable_bytes = 64 * 1024;
        opts.store.env = Arc::new(env.clone());
        let db = Db::open_stepped(dir, opts.clone()).unwrap();
        let value = |i: u64| format!("value-{i:05}-").into_bytes().repeat(8);
        let mut acked = 0;
        while !db.due_jobs().contains(&Job::Flush) {
            db.put(&key(acked), &value(acked)).unwrap();
            acked += 1;
        }
        // The last put syncs every one before it.
        let durable = WriteBatch::single_put(&key(acked), &value(acked));
        db.write(durable, &WriteOptions::durable()).unwrap();
        acked += 1;
        let manifest = env
            .fault
            .list(dir)
            .unwrap()
            .into_iter()
            .map(|name| dir.join(name))
            .find(|path| is_manifest(path))
            .unwrap();
        let manifest_len = || env.fault.file_state(&manifest).unwrap().0;

        env.armed.store(true, SeqCst);
        let before = manifest_len();
        db.run_job(Job::Flush).unwrap_err();
        let after = manifest_len();
        assert!(after > before, "{ctx}: the failed record was not written");
        db.run_job(Job::Flush).unwrap_err();
        assert_eq!(manifest_len(), after, "{ctx}: the retry wrote an edit");
        db.put(b"late", b"x").unwrap_err();
        // No log step is due either: the durable put and the flush's
        // rotation wrote the logging queue out, and the late put failed
        // before it logged.
        assert!(
            db.due_jobs().is_empty(),
            "{ctx}: a poisoned store has due jobs"
        );
        let removed = env.removed.lock().unwrap().clone();
        assert!(
            !removed.iter().any(|path| table_number(path).is_some()),
            "{ctx}: removed {removed:?}"
        );
        drop(db);

        if power_loss {
            env.fault.power_loss();
        }
        let db = Db::open_stepped(dir, opts).unwrap();
        for i in 0..acked {
            assert_eq!(db.get(&key(i)).unwrap(), Some(value(i)), "{ctx}: key {i}");
        }
        assert_eq!(contents(&db).len() as u64, acked, "{ctx}");
        db.verify_integrity().unwrap();
    }
}

/// A store poisoned by a failed manifest sync is read-only: reads,
/// scans and snapshots, old and new, still work; every write and
/// `compact_range` returns the poison; and the error, the doctor and
/// the `db.read_only` gauge all say so.
#[test]
fn a_poisoned_store_is_read_only() {
    let env = FailManifestSync {
        fault: FaultEnv::new(0x3a21),
        armed: Arc::default(),
        removed: Arc::default(),
    };
    let mut opts = stepped_options(&env.fault);
    opts.memtable_bytes = 64 * 1024;
    opts.store.env = Arc::new(env.clone());
    let db = Db::open_stepped(Path::new("/read-only"), opts).unwrap();
    let gauge = |db: &Db| db.metrics().gauges["db.read_only"];
    assert!(db.read_only().is_none());
    assert_eq!(gauge(&db), 0);
    let healthy = db.doctor();
    assert!(healthy.read_only.is_none());
    assert!(
        !healthy.render().contains("read-only"),
        "{}",
        healthy.render()
    );

    let value = |i: u64| format!("value-{i:05}-").into_bytes().repeat(8);
    let mut acked = 0;
    while !db.due_jobs().contains(&Job::Flush) {
        db.put(&key(acked), &value(acked)).unwrap();
        acked += 1;
    }
    let before = db.snapshot().unwrap();
    env.armed.store(true, SeqCst);
    let poison = db.run_job(Job::Flush).unwrap_err().to_string();
    assert!(
        poison.contains("injected manifest sync failure"),
        "{poison}"
    );
    assert_eq!(db.read_only().map(|e| e.to_string()), Some(poison.clone()));

    for i in 0..acked {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i)), "key {i}");
    }
    assert_eq!(contents(&db).len() as u64, acked);
    let after = db.snapshot().unwrap();
    for snap in [&before, &after] {
        assert_eq!(snap.iter().unwrap().count() as u64, acked);
        assert_eq!(snap.scan(key(0)..key(10), 100).unwrap().len(), 10);
    }

    let fails = |what: &str, result: Result<()>| {
        let e = result.expect_err(what).to_string();
        assert_eq!(e, poison, "{what}");
    };
    fails("a put", db.put(b"late", b"x"));
    let mut batch = WriteBatch::new();
    batch.put(b"late-a", b"x");
    batch.put(b"late-b", b"y");
    fails("a batch", db.write(batch, &WriteOptions::new()));
    let rmw = db.read_modify_write(&key(0), |_| RmwDecision::Update(b"x".to_vec()));
    fails("an RMW", rmw.map(drop));
    fails("compact_range", db.compact_range(b"", b"\xff"));

    let report = db.doctor();
    assert!(report.unhealthy());
    let expected = format!(
        "mode: read-only ({poison}): reads and snapshots work, every write fails with it; \
         reopen to recover"
    );
    assert!(report.render().contains(&expected), "{}", report.render());
    assert_eq!(gauge(&db), 1);
}

/// Writers racing a flush whose manifest sync fails all end with the
/// store's error, and none hangs: not one in flight, and not one parked
/// in the §5.3 stall behind the flush that failed.
#[test]
fn every_writer_fails_once_a_manifest_sync_fails() {
    let env = FailManifestSync {
        fault: FaultEnv::new(0x3a20),
        armed: Arc::default(),
        removed: Arc::default(),
    };
    let mut opts = Options::small_for_tests();
    opts.memtable_bytes = 16 * 1024;
    // Unpaced writers fill `Pm` behind the flush, into the stall.
    opts.admission.enabled = false;
    opts.store.env = Arc::new(env.clone());
    let db = Arc::new(Db::open(Path::new("/manifest-fail-writers"), opts).unwrap());
    env.armed.store(true, SeqCst);
    let (tx, rx) = mpsc::channel();
    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            let (db, tx) = (Arc::clone(&db), tx.clone());
            std::thread::spawn(move || {
                for i in 0.. {
                    if let Err(e) = db.put(&key(w * 1_000_000 + i), &[w as u8; 100]) {
                        tx.send(e).unwrap();
                        return;
                    }
                }
            })
        })
        .collect();
    for _ in &writers {
        let err = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("a writer still runs after the manifest failed");
        assert!(
            err.to_string().contains("injected manifest sync failure"),
            "{err}"
        );
    }
    for writer in writers {
        writer.join().unwrap();
    }
}
