//! The cLSM logging queue: WAL appends that never wait for file I/O.
//!
//! The paper implements the logging queue with a non-blocking queue
//! from libcds (§4). Here it is one mutex-guarded append buffer that a
//! writer encodes its record straight into: "a write only queues the
//! request for logging and a handful of writes may be lost due to a
//! crash". Records may be enqueued out of timestamp order; recovery
//! sorts them (§4).
//!
//! The [`LogWriter`] sits behind a second mutex, the file lock, taken
//! before the buffer's. Whoever holds it swaps the buffer out, frames
//! each record into the log and hands the batch to the file with one
//! `flush` or one fsync. A sync does that I/O on its own thread;
//! syncing callers group-commit, as LevelDB's writers do: one fsyncs,
//! and the others wait for it and mostly find themselves covered. The
//! logger thread ([`LogQueue::start_logger`]) only ends the batching
//! window of [`BATCH_WINDOW`] or [`BATCH_BYTES`], so a process crash
//! loses that window, plus whatever queued up behind a `write` or
//! fsync in progress. Without a logger, records wait for the next
//! [`LogQueue::flush`], sync or drop.
//!
//! A switch to a new file takes no file I/O and no file lock. The
//! [`cut`](LogQueue::cut), under the buffer's mutex alone, marks the
//! records pending at that instant as the old file's tail and queues
//! the new file's writer behind them; it is all `beforeMerge` does to
//! the log. Whoever next takes the file lock — a flush, a sync, the
//! logger or the drop — finishes the switch before it writes any record
//! appended after the cut: it writes the tail to the old file, fsyncs
//! it, and only then moves to the new file. So no byte reaches the new
//! file before the old one is durable, and a sync that covers a record
//! appended after the cut returns only after both fsyncs.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use clsm_util::clock::now_ns;
use clsm_util::error::{Error, Result};

use super::LogWriter;

/// Longest the logger holds asynchronous records back to batch them.
const BATCH_WINDOW: Duration = Duration::from_micros(500);

/// Pending bytes that end a batching window early.
const BATCH_BYTES: usize = 128 * 1024;

/// Bytes of the length frame in front of each pending record.
const FRAME: usize = 8;

/// Durability mode for an append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Enqueue and return; data reaches the OS lazily.
    Async,
    /// Return once the record is fsync'd (group-committed).
    Sync,
}

/// What the logger thread is doing, so writers know whether to wake it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum Logger {
    /// Writing a batch, already woken, or not started: nobody needs to
    /// notify it.
    #[default]
    Busy,
    /// Parked with nothing pending, no timeout.
    Idle,
    /// Holding asynchronous records back until the window closes.
    Window,
}

#[derive(Default)]
struct State {
    /// Records not yet written, each preceded by its length as a
    /// little-endian `u64`.
    pending: Vec<u8>,
    /// Bytes ever appended to `pending`.
    appended: u64,
    /// How many of those an fsync has covered, and the [`now_ns`]
    /// reading right after that fsync.
    synced: u64,
    durable_ns: u64,
    /// Switches the next file-lock holder must finish, oldest first.
    cuts: Vec<Cut>,
    /// A caller of [`LogQueue::sync_timed`] is fsyncing.
    syncing: bool,
    logger: Logger,
    shutdown: bool,
}

/// A switch to a new file that [`LogQueue::cut`] made and no holder of
/// the file lock has finished yet.
struct Cut {
    /// The old file's tail ends here in `pending`: every byte before
    /// it was appended before the cut.
    tail_end: usize,
    /// `appended` at the cut: what the old file's fsync covers.
    at: u64,
    /// The new file's writer.
    next: LogWriter,
}

/// The file lock's contents.
struct LogFile {
    writer: LogWriter,
    /// The empty buffer the next swap puts in place of `pending`.
    spare: Vec<u8>,
}

struct Shared {
    state: Mutex<State>,
    file: Mutex<LogFile>,
    /// The first I/O error; every later append, sync and cut fails
    /// with it.
    error: OnceLock<Error>,
    /// Wakes the logger.
    work: Condvar,
    /// Wakes the syncing callers waiting out another's fsync.
    fsynced: Condvar,
}

impl Shared {
    fn check(&self) -> Result<()> {
        self.error.get().cloned().map_or(Ok(()), Err)
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("logging queue poisoned by a panicking thread")
    }

    fn lock_file(&self) -> MutexGuard<'_, LogFile> {
        self.file
            .lock()
            .expect("log file poisoned by a panicking thread")
    }

    /// Swaps out every pending record and adds them to the file, then
    /// flushes it to the OS, or fsyncs it when `sync`. Finishes every
    /// cut first: the records before it go to the old file, which is
    /// fsynced before the next file receives a byte. The first failure
    /// becomes the queue's error.
    fn write_out(&self, file: &mut LogFile, sync: bool) -> Result<()> {
        let (batch, cuts, appended) = {
            let mut st = self.lock();
            let batch = std::mem::replace(&mut st.pending, std::mem::take(&mut file.spare));
            (batch, std::mem::take(&mut st.cuts), st.appended)
        };
        // After the first error nothing more is written: these records
        // were appended before the error was published, and the error
        // now fails every sync that could have covered them.
        let result = self.check().and_then(|()| {
            let mut start = 0;
            for Cut { tail_end, at, next } in cuts {
                write_records(&mut file.writer, &batch[start..tail_end])?;
                file.writer.sync()?;
                file.writer = next;
                start = tail_end;
                let durable_ns = now_ns();
                let mut st = self.lock();
                (st.synced, st.durable_ns) = (at, durable_ns);
            }
            write_records(&mut file.writer, &batch[start..])?;
            if sync {
                file.writer.sync()
            } else {
                file.writer.flush()
            }
        });
        file.spare = batch;
        file.spare.clear();
        // A backlog built up behind a slow fsync can grow the buffer far
        // past a batch; hand that memory back instead of keeping it.
        file.spare.shrink_to(2 * BATCH_BYTES);
        if let Err(e) = result {
            return Err(self.error.get_or_init(|| e).clone());
        }
        if sync {
            let durable_ns = now_ns();
            let mut st = self.lock();
            (st.synced, st.durable_ns) = (appended, durable_ns);
        }
        Ok(())
    }
}

/// The logging queue over one log file at a time. Dropping it stops
/// the logger, then writes and syncs whatever is not synced yet.
pub struct LogQueue {
    shared: Arc<Shared>,
    logger: Mutex<Option<JoinHandle<()>>>,
}

impl LogQueue {
    /// A queue over `writer` with no logger thread (see
    /// [`start_logger`](Self::start_logger)).
    pub fn new(writer: LogWriter) -> Self {
        LogQueue {
            shared: Arc::new(Shared {
                state: Mutex::default(),
                file: Mutex::new(LogFile {
                    writer,
                    spare: Vec::new(),
                }),
                error: OnceLock::new(),
                work: Condvar::new(),
                fsynced: Condvar::new(),
            }),
            logger: Mutex::new(None),
        }
    }

    /// A queue over `writer` with its logger running. Panics if the
    /// thread cannot be spawned, which [`start_logger`](Self::start_logger)
    /// returns as an error.
    pub fn start(writer: LogWriter) -> Self {
        let queue = Self::new(writer);
        queue.start_logger().expect("spawn logger thread");
        queue
    }

    /// Starts the `clsm-logger` thread, which writes asynchronous
    /// records out as each batching window closes, unless it runs
    /// already. Fails if the thread cannot be spawned.
    pub fn start_logger(&self) -> Result<()> {
        let mut logger = self.logger.lock().expect("logger handle poisoned");
        if logger.is_none() {
            let shared = Arc::clone(&self.shared);
            let thread = std::thread::Builder::new().name("clsm-logger".into());
            *logger = Some(thread.spawn(move || logger_loop(&shared))?);
        }
        Ok(())
    }

    /// Appends a serialized record.
    ///
    /// `Async` returns as soon as the record is enqueued; `Sync` returns
    /// once the record (and everything before it) is durable.
    pub fn append(&self, payload: Vec<u8>, mode: SyncMode) -> Result<()> {
        self.append_with(|dst| dst.extend_from_slice(&payload), mode)
    }

    /// Appends one record that `encode` writes straight into the
    /// pending buffer, under the queue's lock. The record is whatever
    /// `encode` appended to the vector it is handed.
    pub(crate) fn append_with(
        &self,
        encode: impl FnOnce(&mut Vec<u8>),
        mode: SyncMode,
    ) -> Result<()> {
        let mut st = self.shared.lock();
        self.shared.check()?;
        let start = st.pending.len();
        st.pending.extend_from_slice(&[0; FRAME]);
        encode(&mut st.pending);
        let len = (st.pending.len() - start - FRAME) as u64;
        st.pending[start..start + FRAME].copy_from_slice(&len.to_le_bytes());
        st.appended += FRAME as u64 + len;
        if mode == SyncMode::Sync {
            drop(st);
            return self.sync();
        }
        // A busy logger re-reads the state before it parks.
        let wake = match st.logger {
            Logger::Idle => true,
            Logger::Window => st.pending.len() >= BATCH_BYTES,
            Logger::Busy => false,
        };
        if wake {
            st.logger = Logger::Busy;
            drop(st);
            self.shared.work.notify_one();
        }
        Ok(())
    }

    /// Writes every pending record to the file and flushes it to the
    /// OS, without an fsync: the logger's step. Finishes a
    /// [`cut`](Self::cut) first, with the old file's one fsync.
    pub fn flush(&self) -> Result<()> {
        self.shared.write_out(&mut self.shared.lock_file(), false)
    }

    /// Switches to the file `next` writes, without I/O and without the
    /// file lock: every record enqueued before the call belongs to the
    /// old file, every record enqueued after it returns to the new one.
    /// The next holder of the file lock ([`flush`](Self::flush), a
    /// sync, the logger or the drop) finishes the switch: it writes the
    /// old file's tail, fsyncs it, and only then writes to `next`.
    pub fn cut(&self, next: LogWriter) -> Result<()> {
        let mut st = self.shared.lock();
        self.shared.check()?;
        let cut = Cut {
            tail_end: st.pending.len(),
            at: st.appended,
            next,
        };
        st.cuts.push(cut);
        Ok(())
    }

    /// Returns once everything enqueued so far is flushed and fsync'd.
    pub fn sync(&self) -> Result<()> {
        self.sync_timed().map(|_durable_ns| ())
    }

    /// Like [`sync`](Self::sync), but returns the [`now_ns`] reading
    /// taken right after the covering fsync, on the thread that issued
    /// it: the instant durability was reached.
    ///
    /// The caller fsyncs unless an fsync covers everything appended
    /// before the call: one that ran, or one in flight, which it waits
    /// out. Waiting on the file lock instead would let the thread that
    /// just synced take it back for its next record, ahead of every
    /// caller its fsync covered.
    pub fn sync_timed(&self) -> Result<u64> {
        let mut st = self.shared.lock();
        let target = st.appended;
        loop {
            self.shared.check()?;
            if st.synced >= target {
                return Ok(st.durable_ns);
            }
            if !st.syncing {
                break;
            }
            st = self
                .shared
                .fsynced
                .wait(st)
                .expect("logging queue poisoned by a panicking thread");
        }
        st.syncing = true;
        drop(st);
        // Ends this caller's turn, also if its fsync panics, and wakes
        // the callers waiting it out.
        let _turn = OnDrop(|| {
            let st = self.shared.state.lock();
            st.unwrap_or_else(PoisonError::into_inner).syncing = false;
            self.shared.fsynced.notify_all();
        });
        self.shared.write_out(&mut self.shared.lock_file(), true)?;
        let durable_ns = self.shared.lock().durable_ns;
        Ok(durable_ns)
    }

    /// The first I/O error the queue met, if any. Takes no lock.
    pub(crate) fn poisoned(&self) -> Option<Error> {
        self.shared.error.get().cloned()
    }

    /// Bytes not yet written to the file — the logging queue's backlog.
    /// Sampled racily; a backlog persistently past one batch (128 KiB)
    /// means writers outpace the log device.
    pub(crate) fn depth(&self) -> usize {
        self.shared.lock().pending.len()
    }
}

impl Drop for LogQueue {
    fn drop(&mut self) {
        let logger = self
            .logger
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(logger) = logger.take() {
            let state = &self.shared.state;
            state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .shutdown = true;
            self.shared.work.notify_one();
            let _ = logger.join();
        }
        // No other thread is left. A poisoned lock means a thread
        // panicked in the middle of a record or a write: write no more.
        let state = self.shared.state.lock();
        let unsynced = state.is_ok_and(|st| st.synced < st.appended || !st.cuts.is_empty());
        if let (true, Ok(mut file)) = (unsynced, self.shared.file.lock()) {
            let _ = self.shared.write_out(&mut file, true);
        }
    }
}

impl std::fmt::Debug for LogQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogQueue")
            .field("pending_bytes", &self.depth())
            .finish()
    }
}

/// Runs its closure when dropped, unwinding included.
struct OnDrop<F: FnMut()>(F);

impl<F: FnMut()> Drop for OnDrop<F> {
    fn drop(&mut self) {
        (self.0)();
    }
}

fn logger_loop(shared: &Shared) {
    // A logger that panics fails the queue, so appends stop piling
    // records up for it.
    let _fail = OnDrop(|| {
        if std::thread::panicking() {
            let e = Error::Internal("the WAL logger thread panicked".into());
            let _ = shared.error.set(e);
        }
    });
    let mut st = shared.lock();
    loop {
        st = wait_for_work(shared, st);
        if st.shutdown {
            // The queue's drop writes and syncs what is left.
            return;
        }
        st.logger = Logger::Busy;
        drop(st);
        // A failure is the queue's error from here on.
        let _ = shared.write_out(&mut shared.lock_file(), false);
        st = shared.lock();
    }
}

/// Parks the logger until there is work. While records are pending,
/// holds them back for one batching window.
fn wait_for_work<'a>(shared: &Shared, mut st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    let mut window_end = None;
    loop {
        if st.shutdown || st.pending.len() >= BATCH_BYTES {
            return st;
        }
        if st.pending.is_empty() {
            // A sync or a flush may have ended the window.
            window_end = None;
            st.logger = Logger::Idle;
            st = shared
                .work
                .wait(st)
                .expect("logging queue poisoned by a panicking thread");
            continue;
        }
        let now = Instant::now();
        let end = *window_end.get_or_insert(now + BATCH_WINDOW);
        if now >= end {
            return st;
        }
        st.logger = Logger::Window;
        st = shared
            .work
            .wait_timeout(st, end - now)
            .expect("logging queue poisoned by a panicking thread")
            .0;
    }
}

/// Adds every length-framed record in `frames` to the log.
fn write_records(writer: &mut LogWriter, mut frames: &[u8]) -> Result<()> {
    while !frames.is_empty() {
        let (len, rest) = frames.split_at(FRAME);
        let len = u64::from_le_bytes(len.try_into().expect("an 8-byte frame")) as usize;
        let (record, rest) = rest.split_at(len);
        writer.add_record(record)?;
        frames = rest;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::LogReader;
    use clsm_util::env::WritableFile;
    use std::path::PathBuf;

    fn temp_file(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("logqueue-{}-{}", std::process::id(), name));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("q.log")
    }

    fn started(path: &std::path::Path) -> LogQueue {
        let q = LogQueue::new(LogWriter::new(Box::new(
            std::fs::File::create(path).unwrap(),
        )));
        q.start_logger().unwrap();
        q
    }

    fn read_all(path: &std::path::Path) -> Vec<Vec<u8>> {
        let mut reader = LogReader::new(Box::new(std::fs::File::open(path).unwrap()));
        let mut out = Vec::new();
        while let Some(r) = reader.read_record().unwrap() {
            out.push(r);
        }
        out
    }

    #[test]
    fn async_appends_become_durable_on_sync() {
        let path = temp_file("async");
        let q = started(&path);
        for i in 0..100u32 {
            q.append(i.to_le_bytes().to_vec(), SyncMode::Async).unwrap();
        }
        q.sync().unwrap();
        let records = read_all(&path);
        assert_eq!(records.len(), 100);
        assert_eq!(records[99], 99u32.to_le_bytes());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn sync_append_blocks_until_durable() {
        let path = temp_file("sync");
        let q = started(&path);
        q.append(b"hello".to_vec(), SyncMode::Sync).unwrap();
        // Already durable: visible without an extra sync.
        let records = read_all(&path);
        assert_eq!(records, vec![b"hello".to_vec()]);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    /// A real file that logs each append and sync, as `(file, event)`,
    /// to a list it shares with the others; its syncs fail when
    /// `fail_sync`.
    struct Logged {
        file: std::fs::File,
        name: &'static str,
        events: Arc<Mutex<Vec<(&'static str, &'static str)>>>,
        fail_sync: bool,
    }

    impl Logged {
        fn writer(
            path: &std::path::Path,
            name: &'static str,
            events: &Arc<Mutex<Vec<(&'static str, &'static str)>>>,
            fail_sync: bool,
        ) -> LogWriter {
            LogWriter::new(Box::new(Logged {
                file: std::fs::File::create(path).unwrap(),
                name,
                events: Arc::clone(events),
                fail_sync,
            }))
        }
    }

    impl WritableFile for Logged {
        fn append(&mut self, data: &[u8]) -> Result<()> {
            self.events.lock().unwrap().push((self.name, "write"));
            WritableFile::append(&mut self.file, data)
        }

        fn flush(&mut self) -> Result<()> {
            WritableFile::flush(&mut self.file)
        }

        fn sync(&mut self) -> Result<()> {
            if self.fail_sync {
                return Err(Error::from(std::io::Error::other("injected sync error")));
            }
            self.events.lock().unwrap().push((self.name, "sync"));
            WritableFile::sync(&mut self.file)
        }
    }

    #[test]
    fn records_after_a_cut_land_in_the_new_file() {
        let path_a = temp_file("cut-a");
        let path_b = path_a.with_file_name("b.log");
        let q = started(&path_a);
        q.append(b"one".to_vec(), SyncMode::Async).unwrap();
        q.cut(LogWriter::new(Box::new(
            std::fs::File::create(&path_b).unwrap(),
        )))
        .unwrap();
        q.append(b"two".to_vec(), SyncMode::Async).unwrap();
        q.append(b"three".to_vec(), SyncMode::Sync).unwrap();
        assert_eq!(read_all(&path_a), vec![b"one".to_vec()]);
        assert_eq!(read_all(&path_b), vec![b"two".to_vec(), b"three".to_vec()]);
        std::fs::remove_dir_all(path_a.parent().unwrap()).unwrap();
    }

    #[test]
    fn the_old_file_is_synced_before_the_new_file_is_written() {
        let path_a = temp_file("cut-order");
        let path_b = path_a.with_file_name("b.log");
        let events = Arc::default();
        let q = LogQueue::new(Logged::writer(&path_a, "old", &events, false));
        q.append(b"one".to_vec(), SyncMode::Async).unwrap();
        q.cut(Logged::writer(&path_b, "new", &events, false))
            .unwrap();
        q.append(b"two".to_vec(), SyncMode::Async).unwrap();
        // The cut did no I/O.
        assert!(events.lock().unwrap().is_empty());
        q.append(b"three".to_vec(), SyncMode::Sync).unwrap();
        let events = events.lock().unwrap().clone();
        let old_sync = events.iter().position(|&e| e == ("old", "sync"));
        let first_new = events.iter().position(|&(file, _)| file == "new");
        assert!(old_sync.is_some() && old_sync < first_new, "{events:?}");
        assert!(events[..old_sync.unwrap()]
            .iter()
            .all(|&e| e == ("old", "write")));
        // The sync put after the cut returned after both fsyncs.
        assert_eq!(events.last(), Some(&("new", "sync")), "{events:?}");
        assert_eq!(read_all(&path_a), vec![b"one".to_vec()]);
        assert_eq!(read_all(&path_b).len(), 2);
        std::fs::remove_dir_all(path_a.parent().unwrap()).unwrap();
    }

    #[test]
    fn a_failed_old_file_sync_poisons_the_queue_and_spares_the_new_file() {
        let path_a = temp_file("cut-fail");
        let path_b = path_a.with_file_name("b.log");
        let events = Arc::default();
        {
            let q = LogQueue::new(Logged::writer(&path_a, "old", &events, true));
            q.append(b"one".to_vec(), SyncMode::Async).unwrap();
            q.cut(Logged::writer(&path_b, "new", &events, false))
                .unwrap();
            q.append(b"two".to_vec(), SyncMode::Async).unwrap();
            assert!(q.flush().is_err());
            assert!(q.poisoned().is_some());
            assert!(q.append(b"three".to_vec(), SyncMode::Async).is_err());
            assert!(q.sync().is_err());
            let path_c = path_a.with_file_name("c.log");
            let next = LogWriter::new(Box::new(std::fs::File::create(path_c).unwrap()));
            assert!(q.cut(next).is_err());
        } // dropped: writes nothing more
        let events = events.lock().unwrap().clone();
        assert!(events.iter().all(|&(file, _)| file == "old"), "{events:?}");
        assert_eq!(std::fs::metadata(&path_b).unwrap().len(), 0);
        std::fs::remove_dir_all(path_a.parent().unwrap()).unwrap();
    }

    #[test]
    fn concurrent_appenders_all_land() {
        let path = temp_file("conc");
        let q = started(&path);
        std::thread::scope(|s| {
            for t in 0..4u8 {
                let q = &q;
                s.spawn(move || {
                    for i in 0..500u32 {
                        q.append(vec![t, (i % 251) as u8], SyncMode::Async).unwrap();
                    }
                });
            }
        });
        q.sync().unwrap();
        assert_eq!(read_all(&path).len(), 2000);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn without_a_logger_records_wait_for_a_flush() {
        let path = temp_file("no-logger");
        let q = LogQueue::new(LogWriter::new(Box::new(
            std::fs::File::create(&path).unwrap(),
        )));
        for i in 0..10u32 {
            q.append(i.to_le_bytes().to_vec(), SyncMode::Async).unwrap();
        }
        assert!(read_all(&path).is_empty(), "written with no logger");
        assert!(q.depth() > 0);
        q.flush().unwrap();
        assert_eq!(q.depth(), 0);
        assert_eq!(read_all(&path).len(), 10);
        q.append(b"last".to_vec(), SyncMode::Sync).unwrap();
        assert_eq!(read_all(&path).len(), 11);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn drop_drains_queue() {
        let path = temp_file("drop");
        {
            let q = started(&path);
            for i in 0..50u32 {
                q.append(i.to_le_bytes().to_vec(), SyncMode::Async).unwrap();
            }
        } // dropped here: must drain before the thread exits
        assert_eq!(read_all(&path).len(), 50);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
