//! Stall-event integration tests: fault-injected exclusive holds,
//! a write stall provoked on the stepped scheduler, and the doctor
//! report built on top of both. Every store opens with
//! [`Db::open_stepped`], so no background thread takes the lock or
//! flushes behind a test's back. Every event is reported by the call
//! that caused or ended it, so each assertion follows that call
//! directly. Whether a hold under the threshold is an episode is a
//! unit test in `watchdog.rs`: a sleep that short cannot be timed here.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;
use std::time::{Duration, Instant};

use clsm::{Db, Job, Options, StallKind, WriteBatch, WriteOptions};
use clsm_util::metrics::HistogramSummary;

mod common;
use common::FailTableWrites;

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("clsm-stall-events-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `db.exclusive_hold_ns`: one sample per exclusive hold, long or not.
fn hold_samples(db: &Db) -> HistogramSummary {
    db.metrics().histograms["db.exclusive_hold_ns"].clone()
}

/// `db.exclusive_hold_in_progress_ns`: how long the exclusive hold in
/// progress has lasted, 0 with none.
fn hold_in_progress_ns(db: &Db) -> i64 {
    db.metrics().gauges["db.exclusive_hold_in_progress_ns"]
}

fn holds(db: &Db) -> Vec<clsm::StallEvent> {
    db.stall_events()
        .into_iter()
        .filter(|e| e.kind == StallKind::ExclusiveHold)
        .collect()
}

#[test]
fn injected_exclusive_hold_is_flagged() {
    let dir = scratch("excl-hold");
    let db = Db::open_stepped(&dir, Options::small_for_tests()).unwrap();
    db.put(b"k", b"v").unwrap();

    // Healthy database: nothing flagged yet.
    assert!(holds(&db).is_empty());

    // A hold far over the 5 ms threshold is reported as it ends.
    db.inject_exclusive_hold(Duration::from_millis(120));

    // One long hold, exactly one event.
    let holds = holds(&db);
    assert_eq!(holds.len(), 1, "{holds:?}");
    let event = &holds[0];
    assert!(
        event.magnitude >= Duration::from_millis(120).as_nanos() as u64,
        "magnitude below the hold: {} ns",
        event.magnitude
    );
    assert!(event.detail.contains("exclusive lock held"));

    // The counters saw it too.
    let metrics = db.metrics();
    let count = metrics
        .counters
        .get("watchdog.exclusive_hold_events")
        .copied()
        .unwrap_or(0);
    assert_eq!(count, 1);
    // So did the hold histogram, with the hold's length.
    let samples = hold_samples(&db);
    assert_eq!(samples.count, 1);
    assert_eq!(samples.max, event.magnitude);

    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_exclusive_hold_is_one_sample() {
    let dir = scratch("hold-samples");
    let db = Db::open_stepped(&dir, Options::small_for_tests()).unwrap();
    // Single puts and gets take the lock shared: no sample.
    db.put(b"k", b"v").unwrap();
    assert_eq!(db.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
    assert_eq!(hold_samples(&db).count, 0);

    // A flush holds it twice: `beforeMerge` and `afterMerge`.
    assert!(db.run_job(Job::Flush).unwrap());
    assert_eq!(hold_samples(&db).count, 2);

    // A multi-op batch holds it once, however many ops it has.
    let batch = [
        (b"a".to_vec(), Some(b"1".to_vec())),
        (b"b".to_vec(), Some(b"2".to_vec())),
        (b"c".to_vec(), None),
    ];
    db.write(WriteBatch::from(&batch[..]), &WriteOptions::new())
        .unwrap();
    assert_eq!(hold_samples(&db).count, 3);

    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_hold_in_progress_reaches_the_doctor_and_is_reported_when_it_ends() {
    let dir = scratch("excl-in-progress");
    let db = Arc::new(Db::open_stepped(&dir, Options::small_for_tests()).unwrap());
    db.put(b"k", b"v").unwrap();

    let hold = Duration::from_millis(200);
    let holder = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || db.inject_exclusive_hold(hold))
    };
    // Wait for the hold to pass the threshold, then read it mid-hold.
    let deadline = Instant::now() + Duration::from_secs(10);
    let report = loop {
        let report = db.doctor();
        let held = report.metrics.gauges["db.exclusive_hold_in_progress_ns"];
        if held >= Duration::from_millis(5).as_nanos() as i64 {
            break report;
        }
        assert!(Instant::now() < deadline, "the hold never began");
        std::thread::sleep(Duration::from_millis(1));
    };
    let text = report.render();
    assert!(text.contains("exclusive-hold in progress"), "{text}");
    assert!(report.unhealthy());
    // Still in progress: not reported yet.
    assert!(report.stall_events.is_empty(), "{text}");

    holder.join().unwrap();
    let holds = holds(&db);
    assert_eq!(holds.len(), 1, "{holds:?}");
    assert!(
        holds[0].magnitude >= hold.as_nanos() as u64,
        "{} ns",
        holds[0].magnitude
    );
    assert_eq!(hold_in_progress_ns(&db), 0);

    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reads make progress inside an exclusive hold (Algorithm 1: a get
/// takes no lock). `Db::get`, `Snapshot::get` and `Snapshot::scan` each
/// return the published values while `db.exclusive_hold_in_progress_ns`
/// still reads the hold, so they finished inside it; no wall-clock bound
/// is asserted. The snapshot is taken before the hold begins, and
/// `Db::snapshot` is not called during it: registering a snapshot takes
/// the lock shared (§3.2.1), so it waits the hold out by design.
#[test]
fn reads_return_inside_an_exclusive_hold() {
    let dir = scratch("reads-in-hold");
    let db = Arc::new(Db::open_stepped(&dir, Options::small_for_tests()).unwrap());
    let published: Vec<(Vec<u8>, Vec<u8>)> = (0..10u32)
        .map(|i| {
            (
                format!("read.{i:02}").into_bytes(),
                format!("v{i}").into_bytes(),
            )
        })
        .collect();
    for (key, value) in &published {
        db.put(key, value).unwrap();
    }
    let snap = db.snapshot().unwrap();
    assert_eq!(hold_in_progress_ns(&db), 0);

    let holder = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || db.inject_exclusive_hold(Duration::from_secs(2)))
    };
    while hold_in_progress_ns(&db) == 0 {
        assert!(!holder.is_finished(), "the hold ended unseen");
        std::thread::yield_now();
    }

    for (key, value) in &published {
        assert_eq!(db.get(key).unwrap().as_ref(), Some(value), "Db::get");
        assert_eq!(
            snap.get(key).unwrap().as_ref(),
            Some(value),
            "Snapshot::get"
        );
    }
    let scanned = snap
        .scan(b"read.".to_vec()..b"read/".to_vec(), 100)
        .unwrap();
    assert_eq!(scanned, published, "Snapshot::scan");
    assert!(
        hold_in_progress_ns(&db) > 0,
        "the reads returned only after the hold"
    );

    holder.join().unwrap();
    assert_eq!(hold_in_progress_ns(&db), 0);
    drop(snap);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn write_pressure_is_flagged_and_reaches_the_doctor() {
    // A flush that fails once leaves `P'm` parked, so a writer that
    // fills the next 64 KiB memtable stalls behind it until the retry
    // lands. Admission pacing is off: on, it would pace that writer at
    // a drain rate nothing measured.
    let env = FailTableWrites::new(0x57a11, 1);
    let mut opts = Options::small_for_tests();
    opts.admission.enabled = false;
    opts.store.env = Arc::new(env.clone());
    let db = Arc::new(Db::open_stepped(Path::new("/write-stall"), opts).unwrap());
    let value = vec![0u8; 512];
    let mut next = 0u32;
    while !db.due_jobs().contains(&Job::Flush) {
        db.put(format!("stall.{next:08}").as_bytes(), &value)
            .unwrap();
        next += 1;
    }
    db.run_job(Job::Flush).unwrap_err();
    assert_eq!(env.remaining.load(SeqCst), 0, "the flush wrote no table");
    let parked = db.metrics().gauges["db.immutable_pending"];
    assert_eq!(parked, 1, "P'm was not kept");

    let stalls = |db: &Db| db.metrics().counters["db.write_stalls"];
    let writer = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            for i in next.. {
                db.put(format!("stall.{i:08}").as_bytes(), &value).unwrap();
                if stalls(&db) > 0 {
                    return;
                }
            }
        })
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while stalls(&db) == 0 {
        assert!(Instant::now() < deadline, "the writer never stalled");
        std::thread::sleep(Duration::from_millis(1));
    }
    // The retry merges `P'm`; the next flush swaps the `Pm` the writer
    // found full and releases it.
    assert!(db.run_job(Job::Flush).unwrap());
    assert!(db.run_job(Job::Flush).unwrap());
    writer.join().unwrap();
    let stalls = stalls(&db);
    assert!(stalls > 0, "workload never hit the stall");

    // The first writer to stall behind each flush reported it.
    let events = db
        .stall_events()
        .iter()
        .filter(|e| e.kind == StallKind::WriteStall)
        .count() as u64;
    assert!(
        (1..=stalls).contains(&events),
        "{events} write-stall event(s) for {stalls} stall(s)"
    );

    // The doctor report folds the verdicts in and renders greppable
    // level-geometry lines.
    let report = db.doctor();
    assert!(report.unhealthy());
    assert!(report
        .stall_events
        .iter()
        .any(|e| e.kind == StallKind::WriteStall));
    let text = report.render();
    assert!(text.contains("== clsm-doctor =="));
    assert!(text.contains("L0:"), "missing level geometry: {text}");
    assert!(text.contains("files,"));
    assert!(text.contains("write-stall"));
    assert!(text.contains("oracle: timeCounter="));
}

#[test]
fn a_healthy_store_reports_nothing() {
    let dir = scratch("healthy");
    let db = Db::open_stepped(&dir, Options::small_for_tests()).unwrap();
    // 32 KiB of writes never fill the 64 KiB memtable.
    let value = vec![0u8; 64];
    for i in 0..256u32 {
        db.put(format!("quiet.{i:08}").as_bytes(), &value).unwrap();
    }
    assert!(db.stall_events().is_empty(), "{:?}", db.stall_events());
    let report = db.doctor();
    assert!(!report.unhealthy(), "{}", report.render());
    assert!(report.render().contains("watchdog: no stall events"));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
