//! The logging queue's hand-off between writers and the logger thread.
//!
//! - After a WAL write error every later sync, append and rotation
//!   fails with it; none hangs.
//! - A sync returns only after every append that returned before it,
//!   from any thread, is in the file.
//! - Appends racing a rotation land in exactly one of the two files.
//! - Dropping the queue drains pending appends and joins the logger.
//! - A parked logger has no timer: it makes no context switches.
//! - The in-place encoder writes the bytes `WriteRecord` writes, so
//!   logs written either way replay the same.
//!
//! The tests that read `/proc/self/task` find the logger by name, so
//! the tests here take turns.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use clsm_repro::storage::wal::{LogQueue, LogReader, LogWriter, SyncMode};
use clsm_repro::storage::{Store, StoreOptions, WriteRecord};
use clsm_repro::util::env::{Env, RandomAccessFile, RealEnv, WritableFile};
use clsm_repro::util::error::{Error, Result};

/// Serializes the tests: some of them find the logger thread by name.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wal-handoff-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A queue over a new file at `path`, with its logger running.
fn start_queue(path: &Path) -> LogQueue {
    let queue = LogQueue::new(LogWriter::new(RealEnv.open_write(path).unwrap()));
    queue.start_logger().unwrap();
    queue
}

fn read_records(path: &Path) -> Vec<Vec<u8>> {
    let mut reader = LogReader::new(Box::new(std::fs::File::open(path).unwrap()));
    let mut out = Vec::new();
    while let Some(r) = reader.read_record().unwrap() {
        out.push(r);
    }
    out
}

/// A [`RealEnv`] whose WAL files fail their `fail_at`-th append
/// (counted across all of them) while syncs keep succeeding.
#[derive(Debug)]
struct FailingWalEnv {
    appends: Arc<AtomicU64>,
    fail_at: u64,
}

struct FailingFile {
    inner: Box<dyn WritableFile>,
    appends: Arc<AtomicU64>,
    fail_at: u64,
}

impl WritableFile for FailingFile {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        if self.appends.fetch_add(1, Relaxed) + 1 == self.fail_at {
            return Err(Error::from(std::io::Error::other(
                "injected WAL write error",
            )));
        }
        self.inner.append(data)
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }

    fn sync(&mut self) -> Result<()> {
        self.inner.sync()
    }
}

impl Env for FailingWalEnv {
    fn open_write(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        let inner = RealEnv.open_write(path)?;
        if path.extension().is_some_and(|e| e == "log") {
            Ok(Box::new(FailingFile {
                inner,
                appends: Arc::clone(&self.appends),
                fail_at: self.fail_at,
            }))
        } else {
            Ok(inner)
        }
    }

    fn open_read(&self, path: &Path) -> Result<Box<dyn RandomAccessFile>> {
        RealEnv.open_read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        RealEnv.rename(from, to)
    }

    fn remove(&self, path: &Path) -> Result<()> {
        RealEnv.remove(path)
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>> {
        RealEnv.list(dir)
    }

    fn sync_dir(&self, dir: &Path) -> Result<()> {
        RealEnv.sync_dir(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> Result<()> {
        RealEnv.create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        RealEnv.exists(path)
    }
}

#[test]
fn after_a_wal_write_error_every_sync_append_and_rotation_fails() {
    let _turn = one_at_a_time();
    // The failed write is the sync's own, or the logger's.
    for logger in [false, true] {
        let dir = tmpdir("error");
        let opts = StoreOptions {
            env: Arc::new(FailingWalEnv {
                appends: Arc::new(AtomicU64::new(0)),
                // Each small record is two appends (header, payload):
                // the third record's payload fails.
                fail_at: 6,
            }),
            ..StoreOptions::default()
        };
        let (store, _) = Store::open(&dir, opts).unwrap();
        if logger {
            store.start_logger().unwrap();
        }
        for ts in 1..=10u64 {
            // The logger may publish the error before the last of these.
            let _ = store.log_writes([(ts, &b"key"[..], Some(&b"value"[..]))], SyncMode::Async);
        }
        let ctx = format!("logger: {logger}");
        assert!(
            store.sync_wal().is_err(),
            "{ctx}: a sync after a failed write"
        );
        assert!(store.poisoned().is_some(), "{ctx}");
        let record = [WriteRecord::put(11, "key", "value")];
        assert!(
            store.log(&record, SyncMode::Async).is_err(),
            "{ctx}: an async append"
        );
        assert!(
            store.log(&record, SyncMode::Sync).is_err(),
            "{ctx}: a sync append"
        );
        assert!(store.sync_wal().is_err(), "{ctx}: a second sync");
        assert!(store.rotate_wal().is_err(), "{ctx}: a rotation");
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_sync_covers_every_append_that_returned_before_it() {
    const THREADS: u8 = 4;
    const ROUNDS: u8 = 25;
    let _turn = one_at_a_time();
    let dir = tmpdir("sync");
    let path = dir.join("q.log");
    let queue = start_queue(&path);
    let appended = Barrier::new(THREADS as usize);
    let checked = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (queue, path, appended, checked) = (&queue, &path, &appended, &checked);
            s.spawn(move || {
                for round in 0..ROUNDS {
                    queue.append(vec![round, t], SyncMode::Async).unwrap();
                    // Every thread's append has returned before any
                    // thread's sync starts.
                    appended.wait();
                    queue.sync().unwrap();
                    let records = read_records(path);
                    for other in 0..THREADS {
                        assert!(
                            records.contains(&vec![round, other]),
                            "round {round}: thread {t}'s sync returned before thread \
                             {other}'s append reached the file"
                        );
                    }
                    // Nobody appends while another thread reads.
                    checked.wait();
                }
            });
        }
    });
    assert_eq!(
        read_records(&path).len(),
        THREADS as usize * ROUNDS as usize
    );
    drop(queue);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn appends_racing_a_rotation_land_in_exactly_one_file() {
    const WRITERS: u32 = 3;
    const PER_WRITER: u32 = 20_000;
    const ROTATIONS: usize = 12;
    let _turn = one_at_a_time();
    let dir = tmpdir("rotate");
    let paths: Vec<PathBuf> = (0..=ROTATIONS)
        .map(|i| dir.join(format!("{i:03}.log")))
        .collect();
    let queue = start_queue(&paths[0]);
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let queue = &queue;
            s.spawn(move || {
                for i in 0..PER_WRITER {
                    let id = w * PER_WRITER + i;
                    queue
                        .append(id.to_le_bytes().to_vec(), SyncMode::Async)
                        .unwrap();
                }
            });
        }
        for path in &paths[1..] {
            std::thread::sleep(Duration::from_micros(200));
            // A rotation: the cut, then the flush that finishes it.
            queue
                .cut(LogWriter::new(RealEnv.open_write(path).unwrap()))
                .unwrap();
            queue.flush().unwrap();
        }
    });
    queue.sync().unwrap();
    drop(queue);

    // Every id once, and each writer's ids in append order across the
    // files: a rotation splits the stream, it never reorders it.
    let mut seen = Vec::new();
    let mut last_of_writer = vec![None; WRITERS as usize];
    for path in &paths {
        for record in read_records(path) {
            let id = u32::from_le_bytes(record.try_into().unwrap());
            let writer = (id / PER_WRITER) as usize;
            assert!(
                last_of_writer[writer] < Some(id),
                "id {id} after {:?}",
                last_of_writer[writer]
            );
            last_of_writer[writer] = Some(id);
            seen.push(id);
        }
    }
    seen.sort_unstable();
    assert_eq!(seen, (0..WRITERS * PER_WRITER).collect::<Vec<_>>());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Thread ids of this process's threads named `name`.
fn threads_named(name: &str) -> Vec<String> {
    let mut tids = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        let task = task.unwrap().path();
        let comm = std::fs::read_to_string(task.join("comm")).unwrap_or_default();
        if comm.trim_end() == name {
            tids.push(task.file_name().unwrap().to_string_lossy().into_owned());
        }
    }
    tids
}

/// The threads named `name` that are not in `before`, polled for up to
/// a second until there are none: a joined thread can stay listed in
/// `/proc/self/task` for a moment after its join returns. So can one
/// an earlier test joined, which is why `before` is a set of thread ids
/// and not a count.
fn new_threads_settling_to_none(name: &str, before: &[String]) -> Vec<String> {
    let deadline = std::time::Instant::now() + Duration::from_secs(1);
    loop {
        let new: Vec<String> = threads_named(name)
            .into_iter()
            .filter(|tid| !before.contains(tid))
            .collect();
        if new.is_empty() || std::time::Instant::now() >= deadline {
            return new;
        }
        std::thread::sleep(Duration::from_millis(1));
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
fn dropping_the_queue_drains_pending_appends_and_joins_the_logger() {
    let _turn = one_at_a_time();
    let dir = tmpdir("drop");
    let path = dir.join("q.log");
    let loggers_before = threads_named("clsm-logger");
    let queue = start_queue(&path);
    for i in 0..500u32 {
        queue
            .append(i.to_le_bytes().to_vec(), SyncMode::Async)
            .unwrap();
    }
    drop(queue);
    assert_eq!(
        new_threads_settling_to_none("clsm-logger", &loggers_before),
        Vec::<String>::new(),
        "logger joined"
    );
    let records = read_records(&path);
    assert_eq!(records.len(), 500);
    assert_eq!(records[499], 499u32.to_le_bytes());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_idle_logger_makes_no_context_switches() {
    let _turn = one_at_a_time();
    let dir = tmpdir("idle");
    let before = threads_named("clsm-logger");
    let queue = start_queue(&dir.join("q.log"));
    queue.append(b"warm".to_vec(), SyncMode::Async).unwrap();
    queue.sync().unwrap();
    // The sync ran on this thread: the logger names itself whenever it
    // first runs.
    let deadline = std::time::Instant::now() + Duration::from_secs(1);
    let tid = loop {
        let new = threads_named("clsm-logger")
            .into_iter()
            .find(|t| !before.contains(t));
        if new.is_some() || std::time::Instant::now() >= deadline {
            break new.expect("the new logger thread");
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    // Let the logger park after the sync.
    std::thread::sleep(Duration::from_millis(20));
    let parked = voluntary_switches(&tid);
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(voluntary_switches(&tid), parked, "an idle logger woke up");
    drop(queue);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The WAL file of a store directory that holds exactly one.
fn only_wal(dir: &Path) -> PathBuf {
    let logs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    assert_eq!(logs.len(), 1, "{logs:?}");
    logs.into_iter().next().unwrap()
}

/// One write as `Store::log_writes` takes it: `(ts, key, value)`.
type Write<'a> = (u64, &'a [u8], Option<&'a [u8]>);

#[test]
fn the_in_place_encoder_writes_write_record_bytes() {
    let _turn = one_at_a_time();
    let big = vec![0x5a; 64 * 1024];
    let writes: Vec<Write> = vec![
        (300, &b"k"[..], Some(&b"v"[..])),
        (301, &b"gone"[..], None),
        (302, &b"empty"[..], Some(&b""[..])),
        (u64::MAX >> 8, &b"big"[..], Some(&big[..])),
    ];
    let records: Vec<WriteRecord> = writes
        .iter()
        .map(|&(ts, key, value)| match value {
            Some(v) => WriteRecord::put(ts, key, v),
            None => WriteRecord::delete(ts, key),
        })
        .collect();

    // The record format itself, pinned byte by byte: varint ts, kind,
    // length-prefixed key, length-prefixed value.
    let mut pinned = Vec::new();
    records[0].encode_to(&mut pinned);
    records[1].encode_to(&mut pinned);
    assert_eq!(
        pinned,
        [0xac, 0x02, 1, 1, b'k', 1, b'v', 0xad, 0x02, 0, 4, b'g', b'o', b'n', b'e', 0]
    );

    // One store logs each write through the in-place encoder, the other
    // through `WriteRecord`s; singly and as a batch.
    let in_place = tmpdir("encode-in-place");
    let recorded = tmpdir("encode-recorded");
    {
        let (a, _) = Store::open(&in_place, StoreOptions::default()).unwrap();
        let (b, _) = Store::open(&recorded, StoreOptions::default()).unwrap();
        for (write, record) in writes.iter().zip(&records) {
            a.log_writes([*write], SyncMode::Async).unwrap();
            b.log(std::slice::from_ref(record), SyncMode::Async)
                .unwrap();
        }
        a.log_writes(writes.iter().copied(), SyncMode::Sync)
            .unwrap();
        b.log(&records, SyncMode::Sync).unwrap();
    }
    let bytes = std::fs::read(only_wal(&in_place)).unwrap();
    assert_eq!(bytes, std::fs::read(only_wal(&recorded)).unwrap());

    // And it replays as the records.
    let (_store, recovered) = Store::open(&in_place, StoreOptions::default()).unwrap();
    let mut expected = records.clone();
    expected.sort_by(|a, b| a.ts.cmp(&b.ts).then_with(|| a.key.cmp(&b.key)));
    assert_eq!(recovered.records, expected);
    drop(_store);
    std::fs::remove_dir_all(&in_place).unwrap();
    std::fs::remove_dir_all(&recorded).unwrap();
}
