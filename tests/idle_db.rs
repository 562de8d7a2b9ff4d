//! An idle store sleeps: once its background work is done, none of its
//! threads wakes up until something happens — no sampling thread, no
//! poll timers. A stepped store has no thread at all: its jobs, log
//! steps included, and its sync writes run on the caller's thread.
//!
//! Finds the store's threads by name in `/proc/self/task`, so it must
//! stay the only test in its binary.

use std::time::{Duration, Instant};

use clsm::{Db, Job, Options, WriteBatch, WriteOptions};

/// `(tid, name)` of every thread of this process whose name starts
/// with `clsm-`.
fn store_threads() -> Vec<(String, String)> {
    let mut threads = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        let task = task.unwrap().path();
        let comm = std::fs::read_to_string(task.join("comm")).unwrap_or_default();
        let name = comm.trim_end();
        if name.starts_with("clsm-") {
            let tid = task.file_name().unwrap().to_string_lossy().into_owned();
            threads.push((tid, name.to_owned()));
        }
    }
    threads
}

/// [`store_threads`] once threads already joined have gone: a joined
/// thread can stay listed in `/proc/self/task` for a moment after its
/// join returns. Polls for up to a second.
fn store_threads_after_joins() -> Vec<(String, String)> {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let threads = store_threads();
        if threads.is_empty() || Instant::now() >= deadline {
            return threads;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Runs every due job on this thread until none is due, checking after
/// each that no store thread exists; returns the jobs run.
fn run_due_jobs(db: &Db, ran: &mut Vec<Job>) {
    while let Some(&job) = db.due_jobs().first() {
        db.run_job(job).unwrap();
        ran.push(job);
        assert_eq!(store_threads_after_joins(), [], "after {job:?}");
    }
}

fn voluntary_switches(tid: &str) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/self/task/{tid}/status")).unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .expect("a voluntary_ctxt_switches line")
        .trim()
        .parse()
        .unwrap()
}

#[test]
fn an_idle_db_makes_no_context_switches() {
    let dir = std::env::temp_dir().join(format!("clsm-idle-db-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Db::open(&dir, Options::small_for_tests()).unwrap();
    let value = vec![0x5a; 512];
    for i in 0..400u32 {
        db.put(format!("idle.{i:08}").as_bytes(), &value).unwrap();
    }
    db.compact_to_quiescence().unwrap();
    std::thread::sleep(Duration::from_millis(50));

    // The flush worker, the compaction workers and the WAL logger, and
    // nothing else.
    let threads = store_threads();
    let names: Vec<&str> = threads.iter().map(|(_, name)| name.as_str()).collect();
    for name in &names {
        assert!(
            matches!(*name, "clsm-flush" | "clsm-logger") || name.starts_with("clsm-compact-"),
            "unexpected store thread {name}: {names:?}"
        );
    }
    assert!(names.contains(&"clsm-flush"), "{names:?}");
    assert!(names.contains(&"clsm-logger"), "{names:?}");
    assert!(names.contains(&"clsm-compact-0"), "{names:?}");

    let before: Vec<u64> = threads
        .iter()
        .map(|(tid, _)| voluntary_switches(tid))
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    let woke: Vec<(&str, u64)> = threads
        .iter()
        .zip(&before)
        .map(|((tid, name), was)| (name.as_str(), voluntary_switches(tid) - was))
        .filter(|&(_, n)| n != 0)
        .collect();
    assert!(woke.is_empty(), "idle store threads woke up: {woke:?}");
    drop(db);
    assert_eq!(store_threads_after_joins(), [], "after the drop");

    let mut opts = Options::small_for_tests();
    // Nothing drains while no job runs, so pacing would only sleep.
    opts.admission.enabled = false;
    let db = Db::open_stepped(&dir, opts).unwrap();
    assert_eq!(store_threads(), [], "a stepped store started a thread");
    let mut ran = Vec::new();
    for i in 0..400u32 {
        db.put(format!("step.{i:08}").as_bytes(), &value).unwrap();
        assert_eq!(store_threads(), [], "after put {i}");
        if i % 100 == 99 {
            run_due_jobs(&db, &mut ran);
        }
    }
    assert!(ran.contains(&Job::Log), "no log step ran: {ran:?}");
    assert!(ran.contains(&Job::Flush), "no flush ran: {ran:?}");
    let durable = WriteBatch::single_put(b"step.sync", &value);
    db.write(durable, &WriteOptions::durable()).unwrap();
    assert_eq!(store_threads(), [], "after a sync put");
    assert_eq!(db.get(b"step.00000000").unwrap(), Some(value));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
