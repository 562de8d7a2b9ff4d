//! Crash-consistency sweep at the database layer.
//!
//! Under synchronous and under asynchronous logging, a deterministic
//! workload of puts, deletes, and atomic batches runs against a seeded
//! [`FaultEnv`], crashing at every durability-relevant operation the
//! clean run performs. After each crash the env simulates power loss
//! and the database is reopened on the surviving bytes.
//!
//! Invariants checked at every failpoint:
//!
//! - recovery succeeds (no panic, no error, no garbage records);
//! - every write acknowledged under synchronous logging survives;
//! - batches are all-or-nothing: either every entry of a batch is
//!   visible or none is;
//! - every recovered value is one that was actually written.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use clsm::{Db, Job, Options, WriteBatch, WriteOptions};
use clsm_util::env::FaultEnv;

/// First key byte per slot: four well-separated key-space regions.
fn lead(slot: usize) -> u8 {
    [0x30, 0x50, 0x90, 0xd0][slot % 4]
}

#[derive(Debug, Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Del(Vec<u8>),
    Batch(Vec<(Vec<u8>, Option<Vec<u8>>)>),
}

fn value(tag: &str, i: usize) -> Vec<u8> {
    let mut v = format!("{tag}{i:03}-").into_bytes();
    v.resize(96, (i * 7 + 13) as u8);
    v
}

/// The deterministic workload: unique-keyed puts across the key space,
/// a couple of deletes of earlier keys, and batches whose keys are
/// touched by no other op (so atomicity is checkable from the
/// final state alone).
fn workload() -> Vec<Op> {
    let mut ops = Vec::new();
    for i in 0..18 {
        ops.push(Op::Put(vec![lead(i), b'k', i as u8], value("v", i)));
    }
    ops.push(Op::Del(vec![lead(2), b'k', 2]));
    ops.push(Op::Del(vec![lead(5), b'k', 5]));
    for b in 0..3 {
        ops.push(Op::Batch(
            (0..4)
                .map(|j| {
                    (
                        vec![lead(j), b'B', b as u8, j as u8],
                        Some(value("b", b * 4 + j)),
                    )
                })
                .collect(),
        ));
    }
    for i in 18..22 {
        ops.push(Op::Put(vec![lead(i), b'k', i as u8], value("v", i)));
    }
    ops
}

fn open(path: &Path, fault: &FaultEnv, sync: bool) -> clsm_util::Result<Db> {
    let mut opts = Options::small_for_tests();
    opts.sync_writes = sync;
    opts.store.env = Arc::new(fault.clone());
    Db::open(path, opts)
}

fn apply(db: &Db, op: &Op) -> clsm_util::Result<()> {
    match op {
        Op::Put(k, v) => db.put(k, v),
        Op::Del(k) => db.delete(k),
        Op::Batch(b) => db.write(WriteBatch::from(b.as_slice()), &WriteOptions::new()),
    }
}

/// Issues ops until one fails or the env dies (a crashed process stops
/// issuing I/O); returns `(completed, attempted)`. An op that returned
/// an error still counts as attempted: a crash mid-op can strike after
/// the WAL append but before the ack, and the appended bytes may
/// survive power loss — the op's effect is then legitimately visible
/// on recovery even though it was never acknowledged.
fn issue(db: &Db, ops: &[Op], fault: &FaultEnv) -> (usize, usize) {
    let mut done = 0;
    for op in ops {
        if fault.is_poisoned() {
            break;
        }
        if apply(db, op).is_err() {
            return (done, done + 1);
        }
        done += 1;
    }
    (done, done)
}

/// Verifies the reopened state against the workload.
///
/// `acked` ops are guaranteed durable; ops in `acked..issued` raced the
/// crash and may or may not have survived. Per key, the recovered value
/// must be the effect of the last acked op on it, or of any later
/// issued op. Batch keys must be all-present or all-absent.
/// Per-key effect timeline: (op index, value or tombstone).
type Timeline = BTreeMap<Vec<u8>, Vec<(usize, Option<Vec<u8>>)>>;

fn verify(db: &Db, ops: &[Op], acked: usize, issued: usize, ctx: &str) {
    let mut timeline = Timeline::new();
    for (i, op) in ops.iter().enumerate().take(issued) {
        match op {
            Op::Put(k, v) => timeline
                .entry(k.clone())
                .or_default()
                .push((i, Some(v.clone()))),
            Op::Del(k) => timeline.entry(k.clone()).or_default().push((i, None)),
            Op::Batch(b) => {
                for (k, v) in b {
                    timeline.entry(k.clone()).or_default().push((i, v.clone()));
                }
            }
        }
    }

    for (key, effects) in &timeline {
        let got = db
            .get(key)
            .unwrap_or_else(|e| panic!("{ctx}: get failed: {e}"));
        let base = effects
            .iter()
            .rev()
            .find(|(i, _)| *i < acked)
            .map(|(_, v)| v.clone());
        let mut allowed: Vec<Option<Vec<u8>>> = vec![base.clone().unwrap_or(None)];
        for (i, v) in effects {
            if *i >= acked {
                allowed.push(v.clone());
            }
        }
        // With nothing acked on this key, absence is always legal.
        if base.is_none() {
            allowed.push(None);
        }
        assert!(
            allowed.contains(&got),
            "{ctx}: key {key:02x?} recovered to {got:?}, allowed {allowed:?}"
        );
    }

    // Batch atomicity from the final state: batch keys are unique to
    // their batch, so partial visibility is a torn batch.
    for (i, op) in ops.iter().enumerate().take(issued) {
        if let Op::Batch(b) = op {
            let present: Vec<bool> = b
                .iter()
                .map(|(k, v)| db.get(k).unwrap().as_ref() == v.as_ref())
                .collect();
            let count = present.iter().filter(|p| **p).count();
            assert!(
                count == 0 || count == b.len(),
                "{ctx}: batch at op {i} is torn: {present:?}"
            );
            if i < acked {
                assert_eq!(count, b.len(), "{ctx}: acked batch at op {i} lost");
            }
        }
    }
}

fn sweep(sync: bool) {
    let dir = Path::new("/db");
    let ops = workload();
    let seed = 0xBEEF ^ sync as u64;

    // Clean run: everything lands, and we learn the op budget.
    let clean = FaultEnv::new(seed);
    let db = open(dir, &clean, sync).unwrap();
    assert_eq!(issue(&db, &ops, &clean), (ops.len(), ops.len()));
    drop(db);
    let reopened = open(dir, &clean, sync).unwrap();
    verify(&reopened, &ops, ops.len(), ops.len(), "clean");
    drop(reopened);
    let total_ops = clean.op_count();
    assert!(total_ops > 0);

    for crash_at in 1..=total_ops {
        let ctx = format!("sync={sync} failpoint={crash_at}/{total_ops}");
        let fault = FaultEnv::new(seed);
        let db = open(dir, &fault, sync).unwrap();
        fault.crash_after(crash_at);
        let (completed, attempted) = issue(&db, &ops, &fault);
        // Under synchronous logging every completed op was fsync-acked;
        // under asynchronous logging completion promises nothing. An
        // attempted-but-failed op is never acked, but its effect may
        // still surface (`issue` docs).
        let acked = if sync { completed } else { 0 };
        drop(db);

        fault.power_loss();
        let reopened =
            open(dir, &fault, sync).unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
        verify(&reopened, &ops, acked, attempted, &ctx);
        drop(reopened);
    }
}

#[test]
fn crash_sweep_sync() {
    sweep(true);
}

#[test]
fn crash_sweep_async() {
    sweep(false);
}

/// Failpoints across concurrent batches: several threads push
/// multi-op batches at once, so their WAL payloads queue back to back
/// in the logging queue and share group-committed fsyncs. A crash at
/// any point must keep every *logical* batch all-or-nothing, and every
/// batch acked under synchronous logging must survive.
#[test]
fn crash_sweep_concurrent_batches() {
    let dir = Path::new("/batchdb");
    let seed = 0x6C5A;
    let threads = 3u8;
    let batches_per_thread = 8u8;
    let entries = 3u8;

    let key = |t: u8, b: u8, j: u8| vec![b'g', t, b, j];
    // Runs the concurrent workload; returns the set of (thread, batch)
    // pairs whose write was acked before the crash.
    let run = |db: &Arc<Db>| -> Vec<(u8, u8)> {
        let acked = Arc::new(std::sync::Mutex::new(Vec::new()));
        let barrier = Arc::new(std::sync::Barrier::new(threads as usize));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let db = Arc::clone(db);
                let acked = Arc::clone(&acked);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for b in 0..batches_per_thread {
                        if fault_poisoned(&db) {
                            break;
                        }
                        let batch: WriteBatch = (0..entries)
                            .map(|j| (key(t, b, j), Some(value("g", (t * 16 + b) as usize))))
                            .collect();
                        if db.write(batch, &WriteOptions::new()).is_err() {
                            break;
                        }
                        acked.lock().unwrap().push((t, b));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        Arc::try_unwrap(acked).unwrap().into_inner().unwrap()
    };

    let clean = FaultEnv::new(seed);
    let db = Arc::new(open(dir, &clean, true).unwrap());
    assert_eq!(run(&db).len(), (threads * batches_per_thread) as usize);
    drop(db);
    let total_ops = clean.op_count();
    assert!(total_ops > 0);

    for crash_at in 1..=total_ops {
        let ctx = format!("batches failpoint={crash_at}/{total_ops}");
        let fault = FaultEnv::new(seed);
        let db = Arc::new(open(dir, &fault, true).unwrap());
        fault.crash_after(crash_at);
        let acked = run(&db);
        drop(db);

        fault.power_loss();
        let db = open(dir, &fault, true).unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
        for t in 0..threads {
            for b in 0..batches_per_thread {
                let present = (0..entries)
                    .filter(|&j| db.get(&key(t, b, j)).unwrap().is_some())
                    .count();
                assert!(
                    present == 0 || present == entries as usize,
                    "{ctx}: logical batch ({t},{b}) torn: {present}/{entries} entries"
                );
                if acked.contains(&(t, b)) {
                    assert_eq!(
                        present, entries as usize,
                        "{ctx}: sync-acked batch ({t},{b}) lost"
                    );
                }
            }
        }
        drop(db);
    }
}

/// `run` helper above stops issuing once the store reports shutdown or
/// the env died; probing with a read keeps the loop honest without
/// threading the env into every closure.
fn fault_poisoned(db: &Db) -> bool {
    db.get(b"\xffprobe").is_err()
}

/// Failpoints inside the flush/manifest path, crashed three times over:
/// a small memtable forces flushes mid-workload, so the sweep crosses
/// memtable rotation, SSTable writes, manifest installs, and WAL
/// retirement. For every failpoint of one clean cycle, a run crashes
/// there, loses power and reopens; then it goes on with fresh keys on
/// the reopened store until a seeded later crash, twice more. Every
/// synchronously acked put of every earlier cycle must survive each
/// reopen, and a failpoint run again does the same I/O.
///
/// The store runs no background threads: this thread runs each flush
/// (and compaction) as soon as it falls due, and a last flush at the
/// end of each cycle, so every run performs the same operations in the
/// same order and each crash lands exactly where the sweep puts it.
#[test]
fn crash_sweep_through_flushes() {
    const CRASHES: u8 = 3;
    let seed = 0xF1A5;
    let key = |cycle: u8, i: u8| vec![lead(i as usize), b'f', cycle, i];
    let value = |cycle: u8, i: u8| value(&format!("f{cycle}-"), i as usize);

    let open = |fault: &FaultEnv| -> clsm_util::Result<Db> {
        let mut opts = Options::small_for_tests();
        opts.sync_writes = true;
        opts.memtable_bytes = 8 * 1024;
        opts.store.env = Arc::new(fault.clone());
        Db::open_stepped(Path::new("/db"), opts)
    };
    let run_due_jobs = |db: &Db| {
        db.due_jobs()
            .into_iter()
            .try_for_each(|job| db.run_job(job).map(drop))
    };
    // One cycle: 40 fresh puts, each followed by the jobs it made due,
    // then a last flush. Returns how many puts were acked.
    let run = |db: &Db, fault: &FaultEnv, cycle: u8| -> u8 {
        let mut acked = 0;
        for i in 0..40 {
            if fault.is_poisoned() || db.put(&key(cycle, i), &value(cycle, i)).is_err() {
                return acked;
            }
            acked += 1;
            if run_due_jobs(db).is_err() {
                return acked;
            }
        }
        let _ = db.run_job(Job::Flush).and_then(|_| run_due_jobs(db));
        acked
    };

    let clean = FaultEnv::new(seed);
    let db = open(&clean).unwrap();
    assert_eq!(run(&db, &clean, 0), 40);
    assert!(!clean.is_poisoned());
    // Every put synced the WAL itself, so no log step is due either.
    assert!(db.due_jobs().is_empty(), "{:?}", db.due_jobs());
    assert!(
        !db.run_job(Job::Flush).unwrap(),
        "the last flush left data behind"
    );
    drop(db);
    let cycle_ops = clean.op_count();

    // Three crashes from the first failpoint `first`; returns the env's
    // history and how many of the seeded later crashes fired before
    // their cycle ended.
    let crash_cycles = |first: u64| -> (Vec<clsm_util::env::FaultOp>, u64) {
        let fault = FaultEnv::new(seed);
        let mut rng = seed ^ first.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut acked: Vec<u8> = Vec::new();
        let mut fired = 0;
        let mut db = open(&fault).unwrap();
        for cycle in 0..CRASHES {
            let crash_at = if cycle == 0 {
                first
            } else {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                1 + rng % cycle_ops
            };
            fault.crash_after(crash_at);
            acked.push(run(&db, &fault, cycle));
            fired += u64::from(cycle > 0 && fault.is_poisoned());
            drop(db);

            fault.power_loss();
            db = open(&fault).unwrap_or_else(|e| {
                panic!("failpoint {first}, crash {cycle} at {crash_at}: recovery failed: {e}")
            });
            for (earlier, &count) in (0..).zip(&acked) {
                for i in 0..count {
                    assert_eq!(
                        db.get(&key(earlier, i)).unwrap(),
                        Some(value(earlier, i)),
                        "failpoint {first}, crash {cycle} at {crash_at}: acked key {i} \
                         of cycle {earlier} lost (report: {:?})",
                        db.recovery_report()
                    );
                }
            }
        }
        drop(db);
        (fault.history(), fired)
    };

    let mut later_crashes = 0;
    for first in 1..=cycle_ops {
        let (history, fired) = crash_cycles(first);
        later_crashes += fired;
        if first % 8 == 1 {
            assert!(
                crash_cycles(first).0 == history,
                "failpoint {first}: the same seed did different I/O"
            );
        }
    }
    // Most later crashes land inside their cycle; the rest are a power
    // loss after its last flush.
    assert!(
        later_crashes > cycle_ops,
        "only {later_crashes} of {} later crashes fired",
        2 * cycle_ops
    );
}
