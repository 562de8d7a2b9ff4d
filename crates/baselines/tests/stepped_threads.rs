//! A stepped baseline has no thread: its jobs, log steps included, and
//! its sync writes run on the caller's thread, as for a stepped
//! `clsm::Db` (the root crate's `tests/idle_db.rs`).
//!
//! Finds the store's threads by name in `/proc/self/task`, so it must
//! stay the only test in its binary.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use clsm::{Job, Options, WriteBatch, WriteOptions};
use clsm_baselines::{Baseline, BlsmModel, HyperModel, KvStore, LevelDbModel, Model, RocksModel};
use clsm_util::env::FaultEnv;

/// The name of every thread of this process whose name starts with
/// `clsm-`.
fn store_threads() -> Vec<String> {
    let mut threads = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        let comm = std::fs::read_to_string(task.unwrap().path().join("comm")).unwrap_or_default();
        if comm.starts_with("clsm-") {
            threads.push(comm.trim_end().to_owned());
        }
    }
    threads
}

/// [`store_threads`] once threads already joined have gone: a job's
/// finisher, joined before the job returns, can stay listed in
/// `/proc/self/task` for a moment after. Polls for up to a second.
fn store_threads_after_joins() -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let threads = store_threads();
        if threads.is_empty() || Instant::now() >= deadline {
            return threads;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Opens a stepped store, puts 400 values, runs the due jobs every 100
/// puts and whenever a flush is due (the next put into a full memtable
/// would wait for it), and checks after every put and job that no
/// store thread exists.
fn runs_no_thread<M: Model>() {
    let mut opts = Options::small_for_tests();
    opts.store.env = Arc::new(FaultEnv::new(0x1d1e));
    let store = Baseline::<M>::open_stepped(Path::new("/stepped-threads"), opts).unwrap();
    let jobs = store.workers();
    let name = store.name();
    assert_eq!(store_threads(), [] as [String; 0], "{name}: at open");
    let value = vec![0x5a; 512];
    let mut ran = Vec::new();
    for i in 0..400u32 {
        store
            .put(format!("step.{i:08}").as_bytes(), &value)
            .unwrap();
        assert_eq!(store_threads(), [] as [String; 0], "{name}: after put {i}");
        if i % 100 == 99 || jobs.due_jobs().contains(&Job::Flush) {
            while let Some(&job) = jobs.due_jobs().first() {
                jobs.run_job(job).unwrap();
                ran.push(job);
                let threads = store_threads_after_joins();
                assert_eq!(threads, [] as [String; 0], "{name}: after {job:?}");
            }
        }
    }
    assert!(ran.contains(&Job::Log), "{name}: no log step ran: {ran:?}");
    assert!(ran.contains(&Job::Flush), "{name}: no flush ran: {ran:?}");
    let durable = WriteBatch::single_put(b"step.sync", &value);
    store.write(durable, &WriteOptions::durable()).unwrap();
    assert_eq!(
        store_threads(),
        [] as [String; 0],
        "{name}: after a sync put"
    );
    assert_eq!(store.get(b"step.00000000").unwrap(), Some(value));
}

#[test]
fn a_stepped_baseline_runs_no_thread() {
    runs_no_thread::<LevelDbModel>();
    runs_no_thread::<HyperModel>();
    runs_no_thread::<RocksModel>();
    runs_no_thread::<BlsmModel>();
}
