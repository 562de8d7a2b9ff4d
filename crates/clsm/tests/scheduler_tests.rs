//! Background work as jobs: the stepped scheduler, quiescence beside a
//! writer, and the error policy of a failed job.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use clsm::{Db, Options};
use clsm_util::env::{Env, FaultEnv, RandomAccessFile, WritableFile};
use clsm_util::error::{Error, Result};

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

/// Every live pair of `db`, in key order.
fn contents(db: &Db) -> Vec<(Vec<u8>, Vec<u8>)> {
    db.iter().unwrap().map(|pair| pair.unwrap()).collect()
}

fn model_contents(model: &BTreeMap<Vec<u8>, Vec<u8>>) -> Vec<(Vec<u8>, Vec<u8>)> {
    model.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
}

/// One seeded schedule: puts, deletes and reads interleaved with the
/// jobs that are due, in an order the seed picks, all on this thread.
/// Every read, a snapshot held across jobs, the final scan and the
/// reopened store must match a `BTreeMap` model. Returns how many
/// compactions ran.
fn run_stepped_schedule(seed: u64) -> u64 {
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
    compactions
}

#[test]
fn seeded_stepped_schedules_match_a_model() {
    let compactions: u64 = (0..100).map(run_stepped_schedule).sum();
    assert!(compactions > 0, "no schedule compacted");
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

/// A [`FaultEnv`] whose first append to a table file fails, once,
/// without poisoning anything else.
#[derive(Debug, Clone)]
struct FailOneTableWrite {
    fault: FaultEnv,
    armed: Arc<AtomicBool>,
}

struct FailingTable {
    inner: Box<dyn WritableFile>,
    armed: Arc<AtomicBool>,
}

impl WritableFile for FailingTable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        if self.armed.swap(false, SeqCst) {
            return Err(Error::from(std::io::Error::other(
                "injected table write failure",
            )));
        }
        self.inner.append(data)
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }

    fn sync(&mut self) -> Result<()> {
        self.inner.sync()
    }
}

impl Env for FailOneTableWrite {
    fn open_write(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        let inner = self.fault.open_write(path)?;
        if path.extension().is_some_and(|ext| ext == "sst") {
            return Ok(Box::new(FailingTable {
                inner,
                armed: Arc::clone(&self.armed),
            }));
        }
        Ok(inner)
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

/// The first flush fails on its table write with `P'm` parked: the
/// failure is counted and shown by the doctor, the flush thread retries
/// it after the back-off, and no acked write is lost.
#[test]
fn a_failed_flush_is_counted_and_retried() {
    let env = FailOneTableWrite {
        fault: FaultEnv::new(0xfa11),
        armed: Arc::new(AtomicBool::new(true)),
    };
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

    assert!(!env.armed.load(SeqCst), "no table write was attempted");
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
    db.verify_integrity().unwrap();
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
