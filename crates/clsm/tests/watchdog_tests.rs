//! Stall-watchdog integration tests: fault-injected exclusive holds,
//! organically provoked write stalls, and the doctor report built on
//! top of both.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use clsm::{Db, Options, StallKind};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clsm-watchdog-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn injected_exclusive_hold_is_flagged() {
    let dir = scratch("excl-hold");
    let db = Db::open(&dir, Options::small_for_tests()).unwrap();
    db.put(b"k", b"v").unwrap();

    // Healthy database: nothing flagged yet.
    assert_eq!(
        db.stall_events()
            .iter()
            .filter(|e| e.kind == StallKind::ExclusiveHold)
            .count(),
        0
    );

    // Inject a hold far over the 5 ms threshold; the sampler (10 ms
    // cadence) must catch it while it is in progress.
    db.inject_exclusive_hold(Duration::from_millis(120));

    // The event is recorded by the sampler thread; give it a moment.
    let deadline = Instant::now() + Duration::from_secs(5);
    let event = loop {
        let holds: Vec<_> = db
            .stall_events()
            .into_iter()
            .filter(|e| e.kind == StallKind::ExclusiveHold)
            .collect();
        if let Some(e) = holds.into_iter().next() {
            break e;
        }
        assert!(Instant::now() < deadline, "watchdog never flagged the hold");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(
        event.magnitude >= Duration::from_millis(5).as_nanos() as u64,
        "magnitude below threshold: {} ns",
        event.magnitude
    );
    assert!(event.detail.contains("exclusive lock held"));

    // One episode, one event: the long hold must not be re-reported
    // on every sample.
    let holds = db
        .stall_events()
        .into_iter()
        .filter(|e| e.kind == StallKind::ExclusiveHold)
        .count();
    assert_eq!(holds, 1, "episode deduplication failed");

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
    assert!(db.stats().write_stalls > 0, "workload never hit the stall");

    // The sampler flags a stall within one interval of counting it.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !db
        .stall_events()
        .iter()
        .any(|e| e.kind == StallKind::WriteStall)
    {
        assert!(
            Instant::now() < deadline,
            "no write stall flagged under heavy pressure"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

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
fn disabled_watchdog_spawns_nothing_and_stays_silent() {
    let dir = scratch("disabled");
    let mut opts = Options::small_for_tests();
    opts.watchdog.enabled = false;
    let db = Db::open(&dir, opts).unwrap();
    let value = vec![0u8; 512];
    for i in 0..4096u32 {
        db.put(format!("quiet.{i:08}").as_bytes(), &value).unwrap();
    }
    db.inject_exclusive_hold(Duration::from_millis(30));
    assert!(db.stall_events().is_empty());
    let report = db.doctor();
    assert!(!report.unhealthy());
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
