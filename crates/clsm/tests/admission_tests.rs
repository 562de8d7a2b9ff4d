//! Write-admission integration tests: pacing at the measured drain
//! rate, the hard stall's untimed wakeup, pacing against the §5.3
//! cliff under sustained I/O-limited pressure, the watchdog's stall and
//! sustained-slowdown detectors, and the doctor lines that report all
//! of it.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use clsm::{AdmissionOptions, Db, IoRateLimiter, Options, StallKind};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clsm-admission-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn counter(db: &Db, name: &str) -> u64 {
    db.metrics().counters.get(name).copied().unwrap_or(0)
}

/// The §5.3 hard stall with pacing disabled (the ablation shim):
/// writers must stall — and every stalled writer must wake again off
/// the flush's notification, not a timer. The stall wait has no timed
/// backstop anymore, so a missed wakeup would turn this test into a
/// hang; the deadline below is what catches that.
#[test]
fn stalled_writer_wakes_on_flush_completion_not_a_timer() {
    let dir = scratch("hard-stall-wake");
    let mut opts = Options::small_for_tests();
    opts.admission = AdmissionOptions { enabled: false };
    let db = std::sync::Arc::new(Db::open(&dir, opts).unwrap());

    let writer = {
        let db = std::sync::Arc::clone(&db);
        std::thread::spawn(move || {
            let value = vec![0u8; 512];
            for i in 0..8192u32 {
                db.put(format!("wake.{i:08}").as_bytes(), &value).unwrap();
            }
        })
    };

    // A hung writer (missed wakeup) would block the join forever; give
    // the workload a generous-but-finite budget instead.
    let deadline = Instant::now() + Duration::from_secs(120);
    while !writer.is_finished() {
        assert!(
            Instant::now() < deadline,
            "writer hung in the untimed stall wait — wakeup was missed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    writer.join().unwrap();

    let stalls = db.stats().write_stalls;
    assert!(stalls > 0, "workload never hit the hard stall");
    assert_eq!(counter(&db, "admission.hard_stalls"), stalls);
    // Wakes ride the flush's notify: the average stall must be on the
    // order of one small flush, far below the removed 100 ms tick.
    let stall_ns = counter(&db, "db.write_stall_ns");
    assert!(
        stall_ns / stalls < Duration::from_secs(5).as_nanos() as u64,
        "average stall {}ns looks timer-paced, not flush-paced",
        stall_ns / stalls
    );
    // With pacing disabled, no write may sleep for a slot.
    assert_eq!(counter(&db, "admission.delayed_writes"), 0);

    // The watchdog saw the cliff: its stall detector counts stalls that
    // begin and end between two samples, so the event arrives within
    // one sampling interval of the last stall at the latest.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !db
        .stall_events()
        .iter()
        .any(|e| e.kind == StallKind::WriteStall)
    {
        assert!(
            Instant::now() < deadline,
            "watchdog never flagged the {stalls} hard stall(s)"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// What one run of [`run_cliff_fixture`] left in the counters.
#[derive(Debug)]
struct CliffRun {
    hard_stalls: u64,
    delayed_writes: u64,
    write_stall_events: usize,
}

/// Sustained write pressure the store cannot drain: four writers put
/// 2 KiB values over 4 096 keys for 2.5 s into a 512 KiB memtable whose
/// flushes and compactions share a 4 MiB/s I/O budget. Unpaced, the
/// writers fill `Pm` long before the flush of `P'm` ends; paced, they
/// fill it at the rate the last flush drained.
fn run_cliff_fixture(name: &str, pacing: bool) -> CliffRun {
    let dir = scratch(name);
    let mut opts = Options {
        memtable_bytes: 512 * 1024,
        ..Options::default()
    };
    opts.store.table_file_size = 1024 * 1024;
    opts.store.base_level_bytes = 4 * 1024 * 1024;
    opts.store.io_rate_limiter = Some(Arc::new(IoRateLimiter::new(4 << 20, 1 << 20)));
    opts.admission = AdmissionOptions { enabled: pacing };
    let db = Arc::new(Db::open(&dir, opts).unwrap());

    let deadline = Instant::now() + Duration::from_millis(2500);
    let writers: Vec<_> = (0..4u64)
        .map(|t| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let value = vec![0xabu8; 2048];
                // xorshift64: a cheap deterministic key sequence.
                let mut x = 0x57ab ^ t.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                while Instant::now() < deadline {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    db.put(format!("stab.{:08}", x % 4096).as_bytes(), &value)
                        .unwrap();
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }

    let run = CliffRun {
        hard_stalls: counter(&db, "admission.hard_stalls"),
        delayed_writes: counter(&db, "admission.delayed_writes"),
        write_stall_events: db
            .stall_events()
            .iter()
            .filter(|e| e.kind == StallKind::WriteStall)
            .count(),
    };
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    run
}

/// Pacing's reason to exist: with it off the fixture drives writers
/// into the §5.3 cliff and the watchdog flags the episodes; with it on
/// the same pressure is absorbed as pacing delays and fewer writers
/// ever hit the hard stall.
#[test]
fn flow_control_turns_cliff_stalls_into_delays() {
    let off = run_cliff_fixture("cliff-off", false);
    let on = run_cliff_fixture("cliff-on", true);
    eprintln!("[cliff] pacing off: {off:?}\n[cliff] pacing on:  {on:?}");

    assert!(off.hard_stalls > 0, "the fixture never hit the stall cliff");
    assert!(
        off.write_stall_events > 0,
        "watchdog missed the cliff ({} hard stalls)",
        off.hard_stalls
    );
    assert_eq!(off.delayed_writes, 0, "disabled pacing charged delays");

    assert!(on.delayed_writes > 0, "pacing never engaged");
    assert!(
        on.hard_stalls < off.hard_stalls,
        "pacing did not reduce hard stalls: on={} off={}",
        on.hard_stalls,
        off.hard_stalls
    );
}

/// Behind an I/O-limited flush the controller paces writes at the
/// flush's measured drain rate, records the sleeps in the
/// `admission.*` counters and the `write_path.admission_ns` stage, and
/// the watchdog flags the episode as a sustained slowdown (not a
/// stall).
#[test]
fn paced_delays_are_counted_and_flagged_as_sustained_slowdown() {
    let dir = scratch("paced");
    let mut opts = Options::small_for_tests();
    // A 64 KiB memtable flushed at 1 MiB/s: every flush is behind for
    // tens of milliseconds.
    opts.store.io_rate_limiter = Some(Arc::new(IoRateLimiter::new(1 << 20, 64 << 10)));
    let db = Db::open(&dir, opts).unwrap();

    // Pacing needs a measured flush rate. With other tests busy on the
    // host the flush worker can be starved of CPU for the first few
    // hundred puts, so write until two flushes have finished, then
    // 2 048 more.
    let value = vec![0u8; 512];
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut i = 0u32;
    while db.stats().flushes < 2 {
        assert!(Instant::now() < deadline, "no flush finished");
        db.put(format!("paced.{i:08}").as_bytes(), &value).unwrap();
        i += 1;
    }
    for i in i..i + 2048 {
        db.put(format!("paced.{i:08}").as_bytes(), &value).unwrap();
    }

    let delayed = counter(&db, "admission.delayed_writes");
    let delay_ns = counter(&db, "admission.delay_ns");
    assert!(delayed > 0, "pacing never engaged");
    assert!(delay_ns > 0);
    let snap = db.metrics();
    let admission_stage = snap
        .histograms
        .get("write_path.admission_ns")
        .expect("admission stage histogram missing");
    assert!(admission_stage.count > 0);

    // The sampler saw consecutive delay growth and reported one (or
    // more) sustained-slowdown episodes.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let slowdowns = db
            .stall_events()
            .iter()
            .filter(|e| e.kind == StallKind::SustainedSlowdown)
            .count();
        if slowdowns > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "watchdog never flagged the sustained slowdown"
        );
        // Keep pacing charging so the detector sees growth.
        db.put(b"paced.more", &value).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(counter(&db, "watchdog.sustained_slowdown_events") > 0);

    // The write-path report now leads with the admission stage.
    let report = db.write_path_report();
    assert!(report.stages.iter().any(|s| s.name == "admission"));

    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The doctor report carries the policy, limiter, and admission lines
/// in greppable form.
#[test]
fn doctor_reports_policy_limiter_and_admission_ladder() {
    let dir = scratch("doctor");
    let opts = Options::builder()
        .memtable_bytes(64 * 1024)
        .compaction_policy(clsm::CompactionPolicyKind::HybridPartial)
        .io_rate_limit(64 << 20, 8 << 20)
        .build()
        .unwrap();
    let db = Db::open(&dir, opts).unwrap();
    let value = vec![0u8; 512];
    for i in 0..1024u32 {
        db.put(format!("doc.{i:08}").as_bytes(), &value).unwrap();
    }
    db.compact_to_quiescence().unwrap();

    let report = db.doctor();
    assert_eq!(report.compaction_policy, "hybrid-partial");
    let (bps, burst, stats) = report.io_rate_limit.as_ref().expect("limiter missing");
    assert_eq!(*bps, 64 << 20);
    assert_eq!(*burst, 8 << 20);
    // Flushes and WAL preallocation charge the high-priority lane.
    assert!(stats.consumed_high > 0, "limiter saw no flush traffic");

    let text = report.render();
    assert!(text.contains("compaction policy: hybrid-partial"), "{text}");
    assert!(text.contains("io rate limit:"), "{text}");
    // Quiesced: no flush in flight and L0 under its limit.
    assert!(text.contains("admission: open (behind none"), "{text}");
    assert!(text.contains("hard stalls="), "{text}");

    // An unlimited database renders the unlimited line.
    let dir2 = scratch("doctor-unlimited");
    let db2 = Db::open(&dir2, Options::small_for_tests()).unwrap();
    let text2 = db2.doctor().render();
    assert!(text2.contains("compaction policy: leveled"), "{text2}");
    assert!(text2.contains("io rate limit: unlimited"), "{text2}");

    drop(db);
    drop(db2);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

/// The `--watch` dashboard exposes the admission rates as columns.
#[test]
fn watch_dashboard_has_admission_columns() {
    let header = clsm::watch_dashboard_header();
    assert!(header.contains("delayed/s"), "{header}");
    assert!(header.contains("hstalls/s"), "{header}");
}
