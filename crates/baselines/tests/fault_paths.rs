//! Fault paths of the baselines' flush: each front-end runs its
//! flushes through `clsm::jobs`, so a table write that fails must be
//! retried with the immutable memtable it left parked, and a disk that
//! keeps failing must make the store read-only rather than hang it.
//!
//! Every store here sits on a [`FailTableWrites`] env, whose first
//! table appends fail; the test waits on its writer thread with a
//! deadline that only a hang reaches.

#[path = "../../clsm/tests/common/mod.rs"]
mod common;

use std::path::Path;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use clsm::Options;
use clsm_baselines::{BlsmLike, HyperLike, KvStore, LevelDbLike, RocksLike};
use clsm_util::error::Result;
use common::FailTableWrites;

/// Far past any run that makes progress; only a hang reaches it.
const HANG: Duration = Duration::from_secs(60);

type Open = fn(&Path, Options) -> Result<Box<dyn KvStore>>;

fn key(i: usize) -> Vec<u8> {
    format!("key{i:06}").into_bytes()
}

fn value(i: usize, len: usize) -> Vec<u8> {
    format!("{i:06}-").into_bytes().repeat(len / 7)
}

fn options(env: &FailTableWrites) -> Options {
    let mut opts = Options::small_for_tests();
    opts.store.env = Arc::new(env.clone());
    opts
}

/// Runs `puts` on a new thread and returns what it returned, failing
/// the test if it is still running at the [`HANG`] deadline.
fn finishes<T: Send + 'static>(puts: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, finished) = mpsc::channel();
    let writer = std::thread::spawn(move || {
        let result = puts();
        let _ = done.send(());
        result
    });
    if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(HANG) {
        panic!("the writer hung behind a failed flush");
    }
    writer
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// Puts keys `from..` with `len`-byte values until `done(i)` holds for
/// the next key `i` or a put fails; returns that next key (the count
/// acknowledged) and the error, if one failed.
fn put_until(
    store: &dyn KvStore,
    from: usize,
    len: usize,
    mut done: impl FnMut(usize) -> bool,
) -> (usize, Option<String>) {
    let mut i = from;
    while !done(i) {
        if let Err(e) = store.put(&key(i), &value(i, len)) {
            return (i, Some(e.to_string()));
        }
        i += 1;
    }
    (i, None)
}

/// Puts until the first table write has failed, then `more` keys.
fn put_past_the_failure(
    store: &dyn KvStore,
    env: &FailTableWrites,
    len: usize,
    more: usize,
) -> (usize, Option<String>) {
    match put_until(store, 0, len, |_| env.remaining.load(SeqCst) == 0) {
        (failed_at, None) => put_until(store, failed_at, len, |i| i == failed_at + more),
        failed => failed,
    }
}

fn assert_all_read_back(store: &dyn KvStore, acked: usize, len: usize, when: &str) {
    let lost: Vec<usize> = (0..acked)
        .filter(|&i| store.get(&key(i)).unwrap() != Some(value(i, len)))
        .collect();
    assert!(
        lost.is_empty(),
        "{}: {} of {acked} acknowledged keys lost {when}, first {:?}",
        store.name(),
        lost.len(),
        lost.first()
    );
}

/// (a) The flush of the first full memtable fails once. A writer that
/// goes on to fill the next memtables, the first of them while the
/// failed flush waits for its retry, finishes.
fn a_writer_past_a_failed_flush_finishes(open: Open) {
    let env = FailTableWrites::new(0xa1, 1);
    let store: Arc<dyn KvStore> = Arc::from(open(Path::new("/writer"), options(&env)).unwrap());
    let (writer, fault) = (Arc::clone(&store), env.clone());
    let (_, error) = finishes(move || put_past_the_failure(&*writer, &fault, 1000, 1000));
    assert_eq!(error, None, "{}", store.name());
}

/// (b) The flush of the first full memtable fails once, and a few more
/// puts land in the next memtable. Every acknowledged key reads back
/// once the store is quiescent, and again after a reopen.
fn b_every_acked_write_survives_a_failed_flush(open: Open) {
    let env = FailTableWrites::new(0xb2, 1);
    let dir = Path::new("/survivors");
    let store: Arc<dyn KvStore> = Arc::from(open(dir, options(&env)).unwrap());
    let (writer, fault) = (Arc::clone(&store), env.clone());
    let (acked, error) = finishes(move || {
        let done = put_past_the_failure(&*writer, &fault, 512, 30);
        writer.quiesce().unwrap();
        done
    });
    assert_eq!(error, None, "{}", store.name());
    assert_all_read_back(&*store, acked, 512, "after quiesce");
    drop(store);
    let store = open(dir, options(&env)).unwrap();
    assert_all_read_back(&*store, acked, 512, "after reopen");
}

/// (c) Every table write fails. The flush's retries give up, the store
/// turns read-only, and writes — the stalled one too — fail with its
/// error; reads still answer, and a reopen on a healed disk recovers
/// every acknowledged write.
fn c_a_flush_that_keeps_failing_makes_the_store_read_only(open: Open) {
    let env = FailTableWrites::new(0xc3, u64::MAX);
    let dir = Path::new("/read-only");
    let store: Arc<dyn KvStore> = Arc::from(open(dir, options(&env)).unwrap());
    let writer = Arc::clone(&store);
    let (acked, error) = finishes(move || put_until(&*writer, 0, 200, |i| i == 100_000));
    let error = error.expect("a write fails once the store is read-only");
    assert!(
        error.contains("injected table write failure"),
        "{}: {error}",
        store.name()
    );
    let again = store.put(b"after", b"read-only").unwrap_err().to_string();
    assert_eq!(again, error, "{}", store.name());
    assert_eq!(store.quiesce().unwrap_err().to_string(), error);
    assert_all_read_back(&*store, acked, 200, "while read-only");

    drop(store);
    env.remaining.store(0, SeqCst);
    let store = open(dir, options(&env)).unwrap();
    assert_all_read_back(&*store, acked, 200, "after reopen");
}

macro_rules! front_end {
    ($module:ident, $store:ty) => {
        mod $module {
            use super::*;

            fn open(dir: &Path, opts: Options) -> Result<Box<dyn KvStore>> {
                Ok(Box::new(<$store>::open(dir, opts)?))
            }

            #[test]
            fn a_writer_past_a_failed_flush_finishes() {
                super::a_writer_past_a_failed_flush_finishes(open);
            }

            #[test]
            fn b_every_acked_write_survives_a_failed_flush() {
                super::b_every_acked_write_survives_a_failed_flush(open);
            }

            #[test]
            fn c_a_flush_that_keeps_failing_makes_the_store_read_only() {
                super::c_a_flush_that_keeps_failing_makes_the_store_read_only(open);
            }
        }
    };
}

front_end!(leveldb, LevelDbLike);
front_end!(hyper, HyperLike);
front_end!(rocks, RocksLike);
front_end!(blsm, BlsmLike);
