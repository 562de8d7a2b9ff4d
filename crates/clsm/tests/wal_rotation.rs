//! The WAL rotation around `beforeMerge`'s exclusive hold.
//!
//! - A put never waits on a log fsync: while the flush's fsync of the
//!   old log is parked, an async put, a get and a snapshot scan return,
//!   and no exclusive hold is in progress. A sync put made meanwhile
//!   returns only after that fsync.
//! - The order on disk across the cut: a crash at any file operation
//!   from the cut to a later sync put's acknowledgement loses no record
//!   that put covers, and never keeps a record logged after the cut
//!   without every record logged before it.
//!
//! Both run a stepped store (no background threads) on a [`FaultEnv`]
//! whose WAL files park one operation on a [`Gate`], while a flush runs
//! on another thread. Every wait has a long deadline and no assertion
//! is about a duration.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use clsm::{Db, Job, Options, WriteBatch, WriteOptions};
use clsm_util::env::{Env, FaultEnv, FaultOp, RandomAccessFile, WritableFile};
use clsm_util::error::Result;

/// How long any one step may take before the test gives up on it.
const DEADLINE: Duration = Duration::from_secs(10);

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum GateState {
    /// Operations pass.
    #[default]
    Idle,
    /// The next gated operation parks.
    Armed,
    /// One has parked.
    Parked,
    /// Operations pass, for good.
    Open,
}

/// Parks the first gated WAL operation after [`arm`](Self::arm) until
/// [`open`](Self::open).
#[derive(Debug, Default)]
struct Gate {
    state: Mutex<GateState>,
    changed: Condvar,
}

impl Gate {
    fn arm(&self) {
        *self.state.lock().unwrap() = GateState::Armed;
    }

    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        if *state != GateState::Armed {
            return;
        }
        *state = GateState::Parked;
        self.changed.notify_all();
        while *state == GateState::Parked {
            state = self.changed.wait(state).unwrap();
        }
    }

    /// Whether an operation parked within [`DEADLINE`].
    fn parked(&self) -> bool {
        let state = self.state.lock().unwrap();
        let (state, _) = self
            .changed
            .wait_timeout_while(state, DEADLINE, |s| *s == GateState::Armed)
            .unwrap();
        *state == GateState::Parked
    }

    fn open(&self) {
        *self.state.lock().unwrap() = GateState::Open;
        self.changed.notify_all();
    }
}

/// Which WAL operation the gate parks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gated {
    Append,
    Sync,
}

/// A [`FaultEnv`] whose WAL files pass their `gated` operations through
/// a [`Gate`] before the env sees them.
#[derive(Debug, Clone)]
struct GatedWal {
    fault: FaultEnv,
    gate: Arc<Gate>,
    gated: Gated,
}

struct GatedFile {
    inner: Box<dyn WritableFile>,
    gate: Arc<Gate>,
    gated: Gated,
}

impl WritableFile for GatedFile {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        if self.gated == Gated::Append {
            self.gate.pass();
        }
        self.inner.append(data)
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }

    fn sync(&mut self) -> Result<()> {
        if self.gated == Gated::Sync {
            self.gate.pass();
        }
        self.inner.sync()
    }
}

impl Env for GatedWal {
    fn open_write(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        let inner = self.fault.open_write(path)?;
        if path.extension().is_none_or(|e| e != "log") {
            return Ok(inner);
        }
        Ok(Box::new(GatedFile {
            inner,
            gate: Arc::clone(&self.gate),
            gated: self.gated,
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

/// A stepped store on `env`, logging asynchronously.
fn open(env: &GatedWal) -> Db {
    let mut opts = Options::small_for_tests();
    opts.memtable_bytes = 1 << 20;
    opts.store.env = Arc::new(env.clone());
    Db::open_stepped(Path::new("/rotation"), opts).unwrap()
}

fn sync_put(db: &Db, key: &[u8], value: &[u8]) -> Result<()> {
    let batch: WriteBatch = [(key.to_vec(), Some(value.to_vec()))].into_iter().collect();
    db.write(batch, &WriteOptions::durable())
}

/// Runs one flush job on a thread of its own.
fn spawn_flush(db: &Arc<Db>) -> JoinHandle<Result<bool>> {
    let db = Arc::clone(db);
    std::thread::spawn(move || db.run_job(Job::Flush))
}

/// Runs `op` on a thread of its own and returns its result, or opens
/// `gate` and fails with `what` if it does not return within
/// [`DEADLINE`]: it is waiting on the parked operation.
fn returns<T: Send + 'static>(
    gate: &Gate,
    what: &str,
    op: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(op());
    });
    rx.recv_timeout(DEADLINE).unwrap_or_else(|_| {
        gate.open();
        panic!("{what} waited on the parked WAL fsync");
    })
}

#[test]
fn a_put_never_waits_on_a_log_fsync() {
    let env = GatedWal {
        fault: FaultEnv::new(0x9a7e),
        gate: Arc::default(),
        gated: Gated::Sync,
    };
    let gate = Arc::clone(&env.gate);
    let db = Arc::new(open(&env));
    for i in 0..16u32 {
        db.put(format!("a{i:03}").as_bytes(), &[1; 100]).unwrap();
    }
    // The flush's first fsync is the old WAL's, after the hold.
    gate.arm();
    let flush = spawn_flush(&db);
    assert!(gate.parked(), "the flush never fsynced the old WAL");

    let put = Arc::clone(&db);
    returns(&gate, "an async put", move || put.put(b"b000", b"new"))
        .expect("an async put during the fsync");
    let read = Arc::clone(&db);
    let got = returns(&gate, "a get", move || read.get(b"b000")).unwrap();
    assert_eq!(got.as_deref(), Some(&b"new"[..]));
    let read = Arc::clone(&db);
    let scanned = returns(&gate, "a snapshot scan", move || {
        read.snapshot()?.scan(b"a".to_vec()..b"c".to_vec(), 100)
    })
    .unwrap();
    assert_eq!(scanned.len(), 17);
    let gauges = db.metrics().gauges;
    assert_eq!(gauges["db.exclusive_hold_in_progress_ns"], 0);

    // A sync put now is covered only by the new WAL's fsync, which
    // follows the old one's.
    let opened = Arc::new(AtomicBool::new(false));
    let queued = db.metrics().gauges["storage.wal_queue_bytes"];
    let (tx, rx) = mpsc::channel();
    let (writer, opened_at_ack) = (Arc::clone(&db), Arc::clone(&opened));
    std::thread::spawn(move || {
        let acked = sync_put(&writer, b"s", b"durable");
        let _ = tx.send((acked, opened_at_ack.load(SeqCst)));
    });
    // Its record is queued before the gate opens: the parked flush
    // holds the file lock, so nothing drains the queue meanwhile.
    let deadline = std::time::Instant::now() + DEADLINE;
    while db.metrics().gauges["storage.wal_queue_bytes"] == queued {
        assert!(
            std::time::Instant::now() < deadline,
            "the sync put never queued"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    opened.store(true, SeqCst);
    gate.open();
    let (acked, after_open) = rx.recv_timeout(DEADLINE).expect("the sync put hung");
    acked.unwrap();
    assert!(after_open, "a sync put returned before the old WAL's fsync");
    assert!(flush.join().unwrap().unwrap(), "the flush did no work");
    assert_eq!(db.get(b"s").unwrap().as_deref(), Some(&b"durable"[..]));
}

/// Writes of the crash-order workload: `A` before the cut, `B` after
/// it, then the sync put `S`.
const A: u8 = 12;
const B: u8 = 12;

fn key(group: u8, i: u8) -> Vec<u8> {
    vec![group, i]
}

fn value(group: u8, i: u8) -> Vec<u8> {
    let mut v = vec![group, i];
    v.resize(64, group ^ i);
    v
}

/// One run of the crash-order workload on a fresh env: puts `A`, a
/// flush parked at its first WAL write after the cut, puts `B`, the
/// flush let go and joined, then the sync put `S`. With `crash_at`,
/// the env crashes at that operation from the cut on; the store is
/// then dropped, loses power and reopens, and the survivors are
/// checked. Returns the env's history and how many operations ran
/// from the cut to the end of `S`.
fn crash_order_run(seed: u64, crash_at: Option<u64>) -> (Vec<FaultOp>, u64) {
    let env = GatedWal {
        fault: FaultEnv::new(seed),
        gate: Arc::default(),
        gated: Gated::Append,
    };
    let (fault, gate) = (env.fault.clone(), Arc::clone(&env.gate));
    let db = Arc::new(open(&env));
    for i in 0..A {
        db.put(&key(b'A', i), &value(b'A', i)).unwrap();
    }
    // Nothing has reached a WAL yet: the flush's tail write is the
    // first WAL append, made after the hold.
    gate.arm();
    let flush = spawn_flush(&db);
    assert!(gate.parked(), "the flush never wrote the old WAL's tail");
    let at_cut = fault.op_count();
    if let Some(n) = crash_at {
        fault.crash_after(n);
    }
    for i in 0..B {
        let (db, key, value) = (Arc::clone(&db), key(b'B', i), value(b'B', i));
        returns(&gate, "an async put", move || db.put(&key, &value))
            .expect("an async put after the cut");
    }
    gate.open();
    let flushed = flush.join().unwrap();
    let acked = sync_put(&db, b"S", b"S").is_ok();
    let ops = fault.op_count() - at_cut;
    let ctx = format!("crash at {crash_at:?} of the ops after the cut");
    if crash_at.is_none() {
        assert!(flushed.unwrap() && acked, "{ctx}: the clean run failed");
    }
    drop(Arc::into_inner(db).expect("one handle left"));

    fault.power_loss();
    let db = open(&env);
    let present = |group: u8, n: u8| -> Vec<bool> {
        (0..n)
            .map(|i| {
                let got = db.get(&key(group, i)).unwrap();
                assert!(
                    got.is_none() || got == Some(value(group, i)),
                    "{ctx}: {}{i} recovered to {got:?}",
                    group as char
                );
                got.is_some()
            })
            .collect()
    };
    let (a, b) = (present(b'A', A), present(b'B', B));
    if acked {
        assert!(
            a.iter().chain(&b).all(|&p| p),
            "{ctx}: the sync put was acked, but A {a:?} B {b:?} recovered"
        );
    }
    assert!(
        !b.contains(&true) || !a.contains(&false),
        "{ctx}: records logged after the cut survived without those before it: \
         A {a:?} B {b:?}"
    );
    db.verify_integrity()
        .unwrap_or_else(|e| panic!("{ctx}: integrity: {e}"));
    drop(db);
    (fault.history(), ops)
}

#[test]
fn a_crash_across_the_cut_keeps_the_log_order() {
    const SEED: u64 = 0xc07;
    let (_, ops) = crash_order_run(SEED, None);
    assert!(ops > 0);
    for n in 1..=ops {
        let (history, _) = crash_order_run(SEED, Some(n));
        if n % 8 == 1 {
            assert!(
                crash_order_run(SEED, Some(n)).0 == history,
                "crash at {n}: the same seed did different I/O"
            );
        }
    }
}
