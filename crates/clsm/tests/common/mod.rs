//! What the stepped-scheduler suites share, `clsm::Db`'s and the
//! baselines' alike: a fault-injecting `Env`, the seeded-schedule
//! driver, the replayable part of a `FaultEnv` history and the
//! full-memtable writer check. Each suite uses some.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clsm::{Db, Job, KvStore, Options, ScanRange};
use clsm_util::env::{Env, FaultEnv, FaultOp, RandomAccessFile, WritableFile};
use clsm_util::error::{Error, Result};

/// A store opened stepped, with no thread: its jobs run only when a
/// test runs them. `clsm::Db`'s here; the baselines' where their suite
/// includes this module.
pub trait SteppedStore: KvStore + Sized {
    /// Whether a snapshot pins the versions it reads. A baseline's does
    /// not — its GC watermark is the visible sequence — so a flush or a
    /// compaction may drop what a held one reads (the modeled systems'
    /// short read points).
    const SNAPSHOTS_PIN: bool;

    fn open_stepped(dir: &Path, opts: Options) -> Result<Self>;

    /// The jobs a background thread would run now, flush first.
    fn due_jobs(&self) -> Vec<Job>;

    /// Runs `job` on the calling thread; whether it did any work.
    fn run_job(&self, job: Job) -> Result<bool>;

    /// What the store checks of itself once a schedule is done.
    fn verify(&self) {}
}

impl SteppedStore for Db {
    const SNAPSHOTS_PIN: bool = true;

    fn open_stepped(dir: &Path, opts: Options) -> Result<Self> {
        Db::open_stepped(dir, opts)
    }

    fn due_jobs(&self) -> Vec<Job> {
        Db::due_jobs(self)
    }

    fn run_job(&self, job: Job) -> Result<bool> {
        Db::run_job(self, job)
    }

    fn verify(&self) {
        self.verify_integrity().unwrap();
    }
}

/// xorshift64*: the seeded choices of one schedule.
pub struct Rng(pub u64);

impl Rng {
    pub fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
    }
}

/// A 4 KiB memtable and small tables, on `env`.
pub fn stepped_options(env: &FaultEnv) -> Options {
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

pub fn key(k: u64) -> Vec<u8> {
    format!("key{k:04}").into_bytes()
}

/// Every live pair of `store`, in key order.
pub fn contents(store: &dyn KvStore) -> Vec<(Vec<u8>, Vec<u8>)> {
    store.scan(ScanRange::all(), usize::MAX).unwrap()
}

pub fn model_contents(model: &BTreeMap<Vec<u8>, Vec<u8>>) -> Vec<(Vec<u8>, Vec<u8>)> {
    model.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
}

/// One seeded schedule: puts, deletes and reads interleaved with the
/// jobs that are due, log steps included, in an order the seed picks,
/// all on this thread. A write that finds `Pm` full (its flush due)
/// would wait for the swap, so the flush runs first. Every read, a
/// snapshot held across jobs, the final scan and the reopened store
/// must match a `BTreeMap` model; a snapshot that pins nothing is
/// checked only while no job that installs a version has run since it
/// was taken. Returns how many compactions ran, and the env the
/// schedule ran on.
pub fn run_stepped_schedule<S: SteppedStore>(seed: u64) -> (u64, FaultEnv) {
    let env = FaultEnv::new(seed);
    let dir = Path::new("/stepped");
    let store = S::open_stepped(dir, stepped_options(&env)).unwrap();
    let ctx = format!("{} seed {seed}", store.name());
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut model = BTreeMap::new();
    let mut pinned = None;
    let (mut jobs_run, mut compactions) = (0, 0);
    let mut run = |job: Job, pinned: &mut Option<_>| {
        let ran = store
            .run_job(job)
            .unwrap_or_else(|e| panic!("{ctx}: {job:?}: {e}"));
        if ran && job != Job::Log && !S::SNAPSHOTS_PIN {
            *pinned = None;
        }
        jobs_run += 1;
        compactions += u64::from(ran && job == Job::Compact);
        ran
    };
    for step in 0..600u64 {
        let k = key(rng.below(160));
        let roll = rng.below(100);
        if roll < 65 && store.due_jobs().contains(&Job::Flush) {
            assert!(run(Job::Flush, &mut pinned), "{ctx} step {step}");
        }
        match roll {
            0..=49 => {
                let mut v = format!("{seed}/{step}/").into_bytes();
                v.resize(16 + rng.below(120) as usize, b'v');
                store.put(&k, &v).unwrap();
                model.insert(k, v);
            }
            50..=64 => {
                store.delete(&k).unwrap();
                model.remove(&k);
            }
            65..=79 => assert_eq!(
                store.get(&k).unwrap(),
                model.get(&k).cloned(),
                "{ctx} step {step}"
            ),
            80..=81 => pinned = Some((store.snapshot().unwrap(), model.clone())),
            82..=83 => {
                if let Some((snap, then)) = pinned.take() {
                    let seen = snap.scan(ScanRange::all(), usize::MAX).unwrap();
                    assert_eq!(seen, model_contents(&then), "{ctx} step {step}: snapshot");
                }
            }
            _ => {
                let due = store.due_jobs();
                if !due.is_empty() {
                    run(due[rng.below(due.len() as u64) as usize], &mut pinned);
                }
            }
        }
    }
    drop(pinned.take());
    while let Some(&job) = store.due_jobs().first() {
        run(job, &mut pinned);
    }
    assert!(jobs_run > 0, "{ctx}: no job ran");
    for k in (0..160).map(key) {
        assert_eq!(
            store.get(&k).unwrap(),
            model.get(&k).cloned(),
            "{ctx}: final read"
        );
    }
    assert_eq!(
        contents(&store),
        model_contents(&model),
        "{ctx}: final scan"
    );
    store.verify();
    drop(store);

    let store = S::open_stepped(dir, stepped_options(&env)).unwrap();
    assert_eq!(
        contents(&store),
        model_contents(&model),
        "{ctx}: after reopen"
    );
    drop(store);
    (compactions, env)
}

/// 100 seeded schedules match their models, and some compacted.
pub fn seeded_stepped_schedules_match_a_model<S: SteppedStore>() {
    let compactions: u64 = (0..100).map(|seed| run_stepped_schedule::<S>(seed).0).sum();
    assert!(compactions > 0, "no schedule compacted");
}

/// A stepped store has no thread between steps, so a seed fixes its
/// file operations: the WAL is written by the log steps, syncs and
/// rotations the schedule runs, never on a logger's timer.
pub fn a_seed_replays_the_same_file_operations<S: SteppedStore>() {
    let differing: Vec<u64> = (0..100)
        .filter(|&seed| {
            let first = replayed_ops(&run_stepped_schedule::<S>(seed).1);
            first != replayed_ops(&run_stepped_schedule::<S>(seed).1)
        })
        .collect();
    assert!(differing.is_empty(), "seeds {differing:?} did not replay");
}

/// Nothing bounds `Pm` but its swap: with no job run, writers that find
/// it full are held until the test runs the flush, each time, whether
/// one writer puts or two do, each on a fresh store.
pub fn a_full_memtable_holds_its_writers_until_the_flush<S: SteppedStore + 'static>(name: &str) {
    for writers in 1..=2 {
        let env = FaultEnv::new(0xf0_11 + writers);
        let dir = format!("/held-{writers}");
        let store = Arc::new(S::open_stepped(Path::new(&dir), stepped_options(&env)).unwrap());
        let held = hold_count(
            Arc::clone(&store) as Arc<dyn KvStore>,
            name,
            writers,
            200,
            || store.due_jobs().contains(&Job::Flush),
            || store.run_job(Job::Flush),
        );
        assert!(
            held >= 3,
            "{}: {writers} writers were held {held} times over ~{} memtables",
            store.name(),
            7 * writers
        );
    }
}

/// A [`FaultEnv`] whose next `remaining` appends to table files fail,
/// without poisoning anything else: each fails the flush or compaction
/// writing that table.
#[derive(Debug, Clone)]
pub struct FailTableWrites {
    pub fault: FaultEnv,
    /// Table appends still to fail.
    pub remaining: Arc<AtomicU64>,
}

impl FailTableWrites {
    pub fn new(seed: u64, failures: u64) -> Self {
        FailTableWrites {
            fault: FaultEnv::new(seed),
            remaining: Arc::new(AtomicU64::new(failures)),
        }
    }
}

struct FailingTable {
    inner: Box<dyn WritableFile>,
    remaining: Arc<AtomicU64>,
}

impl WritableFile for FailingTable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        let fail = self
            .remaining
            .fetch_update(SeqCst, SeqCst, |n| n.checked_sub(1));
        if fail.is_ok() {
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

impl Env for FailTableWrites {
    fn open_write(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        let inner = self.fault.open_write(path)?;
        if path.extension().is_some_and(|ext| ext == "sst") {
            return Ok(Box::new(FailingTable {
                inner,
                remaining: Arc::clone(&self.remaining),
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

/// The file operations a schedule made that its seed must fix: every
/// write (with its length), sync and rename, first of the files only
/// the schedule's own thread touches (WAL, manifest, `CURRENT`) in the
/// order it made them, then of each table file on its own. A job's
/// finisher writes one table while its merge writes the next, so only
/// each table's own operations come in a fixed order. Removals are
/// left out: the epoch collector, which every test thread in this
/// binary shares, decides when a table file goes.
pub fn replayed_ops(env: &FaultEnv) -> (Vec<FaultOp>, BTreeMap<PathBuf, Vec<FaultOp>>) {
    let is_table = |path: &Path| path.extension().is_some_and(|e| e == "sst");
    let mut own = Vec::new();
    let mut tables: BTreeMap<PathBuf, Vec<FaultOp>> = BTreeMap::new();
    for op in env.history() {
        match &op {
            FaultOp::Write(path, _) | FaultOp::Sync(path) if is_table(path) => {
                tables.entry(path.clone()).or_default().push(op)
            }
            FaultOp::Remove(_) => {}
            _ => own.push(op),
        }
    }
    (own, tables)
}

/// Whether this process's thread named `name` is asleep on a futex — a
/// lock or a condvar, as opposed to a timed sleep, which the kernel
/// shows as `hrtimer_nanosleep` — read from its `/proc/self/task/*/stat`
/// state and `wchan`.
pub fn blocked_on_futex(name: &str) -> bool {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return false;
    };
    tasks.flatten().any(|task| {
        let task = task.path();
        let read = |file: &str| std::fs::read_to_string(task.join(file)).unwrap_or_default();
        if read("comm").trim_end() != name {
            return false;
        }
        // `pid (comm) state …`: the state follows the last `)`.
        let stat = read("stat");
        let state = stat
            .rfind(')')
            .and_then(|i| stat[i + 1..].trim_start().chars().next());
        state == Some('S') && read("wchan").contains("futex")
    })
}

/// A stepped store, whose memtable holds far fewer than `keys` puts of
/// 100 B, takes them from each of `writers` threads named `{name}-{w}`
/// while this thread runs no job. Each time every writer still putting
/// is blocked on a futex inside a put — waiting on a state change, not
/// sleeping out a duration; a writer that never waits for room is never
/// blocked for long here, as this thread takes no lock — none of those
/// puts may have landed and a flush must be due; running it
/// (`run_flush`) must release a writer, which then goes on. Returns how
/// many times the writers were held. Writers nothing bounds put all
/// their keys without ever being held.
///
/// The deadline only catches writers a flush failed to release (a
/// missed wake-up); no duration decides whether a writer is held.
pub fn hold_count(
    store: Arc<dyn KvStore>,
    name: &str,
    writers: u64,
    keys: u64,
    flush_due: impl Fn() -> bool,
    run_flush: impl Fn() -> Result<bool>,
) -> u64 {
    let key = |w: u64, i: u64| format!("held{w}-{i:06}").into_bytes();
    let value = |i: u64| format!("{i:06}-").into_bytes().repeat(100 / 7);
    let acked: Arc<Vec<AtomicU64>> = Arc::new((0..writers).map(|_| AtomicU64::new(0)).collect());
    let names: Vec<String> = (0..writers).map(|w| format!("{name}-{w}")).collect();
    let threads: Vec<_> = (0..writers)
        .map(|w| {
            let (store, acked) = (Arc::clone(&store), Arc::clone(&acked));
            std::thread::Builder::new()
                .name(names[w as usize].clone())
                .spawn(move || {
                    for i in 0..keys {
                        store.put(&key(w, i), &value(i)).unwrap();
                        acked[w as usize].store(i + 1, SeqCst);
                    }
                })
                .unwrap()
        })
        .collect();
    let putting = || -> Vec<u64> {
        (0..writers)
            .filter(|&w| !threads[w as usize].is_finished())
            .collect()
    };
    let progress = || acked.iter().map(|a| a.load(SeqCst)).sum::<u64>();
    let mut held = 0;
    loop {
        while !putting().is_empty()
            && !putting()
                .iter()
                .all(|&w| blocked_on_futex(&names[w as usize]))
        {
            std::thread::yield_now();
        }
        let blocked = putting();
        if blocked.is_empty() {
            break;
        }
        let before = progress();
        assert!(flush_due(), "{name}: writers held with no flush due");
        for &w in &blocked {
            let put = acked[w as usize].load(SeqCst);
            let landed = store.get(&key(w, put)).unwrap();
            assert_eq!(landed, None, "{name}: writer {w}'s put {put}");
        }
        assert_eq!(progress(), before, "{name}: a held put returned");
        assert!(run_flush().unwrap(), "{name}: the flush had nothing to do");
        held += 1;
        let deadline = Instant::now() + Duration::from_secs(60);
        while progress() == before && !putting().is_empty() {
            assert!(
                Instant::now() < deadline,
                "{name}: the flush released no writer"
            );
            std::thread::yield_now();
        }
    }
    for thread in threads {
        thread.join().unwrap();
    }
    for (w, i) in (0..writers).flat_map(|w| (0..keys).map(move |i| (w, i))) {
        assert_eq!(
            store.get(&key(w, i)).unwrap(),
            Some(value(i)),
            "{name}: writer {w}'s key {i}"
        );
    }
    held
}
