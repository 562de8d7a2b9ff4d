//! Stall-event integration tests: fault-injected exclusive holds,
//! organically provoked write stalls, and the doctor report built on
//! top of both. Every event is reported by the call that caused or
//! ended it, so each assertion follows that call directly.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use clsm::{Db, Options, StallKind};

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
    let db = Db::open(&dir, Options::small_for_tests()).unwrap();
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
    let db = Arc::new(Db::open(&dir, Options::small_for_tests()).unwrap());
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
    let dir = scratch("write-stall");
    // A tiny memtable (64 KiB in small_for_tests) and a few MiB of
    // writes force flush-behind stalls — with admission pacing off; on,
    // it paces writers at the flush's drain rate instead.
    let mut opts = Options::small_for_tests();
    opts.admission.enabled = false;
    let db = Db::open(&dir, opts).unwrap();
    let value = vec![0u8; 512];
    for i in 0..8192u32 {
        db.put(format!("stall.{i:08}").as_bytes(), &value).unwrap();
    }
    db.compact_to_quiescence().unwrap();
    let stalls = db.metrics().counters["db.write_stalls"];
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
    assert!(report.events_of(StallKind::WriteStall) > 0);
    let text = report.render();
    assert!(text.contains("== clsm-doctor =="));
    assert!(text.contains("L0:"), "missing level geometry: {text}");
    assert!(text.contains("files,"));
    assert!(text.contains("write-stall"));
    assert!(text.contains("oracle: timeCounter="));

    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_healthy_store_reports_nothing() {
    let dir = scratch("healthy");
    let db = Db::open(&dir, Options::small_for_tests()).unwrap();
    // 32 KiB of writes never fill the 64 KiB memtable.
    let value = vec![0u8; 64];
    for i in 0..256u32 {
        db.put(format!("quiet.{i:08}").as_bytes(), &value).unwrap();
    }
    // A hold well under the threshold is no episode.
    db.inject_exclusive_hold(Duration::from_millis(1));
    assert!(db.stall_events().is_empty(), "{:?}", db.stall_events());
    let report = db.doctor();
    assert!(!report.unhealthy(), "{}", report.render());
    assert!(report.render().contains("watchdog: no stall events"));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
