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

use clsm::{Db, Job, Options, StallKind};

mod common;
use common::FailTableWrites;

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("clsm-stall-events-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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
        if report
            .exclusive_held_for
            .is_some_and(|held| held >= Duration::from_millis(5))
        {
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
    assert!(db.doctor().exclusive_held_for.is_none());

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
    assert!(db.doctor().immutable_pending, "P'm was not kept");

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
    // The retry merges `P'm` and releases the writer.
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
