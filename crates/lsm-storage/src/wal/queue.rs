//! The cLSM logging queue: non-blocking WAL appends via a dedicated
//! logger thread.
//!
//! The paper implements the logging queue with a non-blocking queue
//! from libcds (§4). Here it is one mutex-guarded append buffer. A
//! writer encodes its record straight into the buffer — no record
//! object, no payload allocation — and wakes the logger only when the
//! logger is parked. The logger swaps the buffer out, frames each
//! record into the log through the [`LogWriter`], and hands the batch
//! to the file with one `flush`, or one fsync when a sync was asked
//! for. In asynchronous mode (the LevelDB default) a put returns once
//! its record is in the buffer — "a write only queues the request for
//! logging and a handful of writes may be lost due to a crash". In
//! synchronous mode the caller waits for a group-committed fsync.
//!
//! The mutex is held for one record's copy: the same lock count per put
//! as a channel send, without the unconditional `futex_wake` a condvar
//! notify costs. While only asynchronous records are pending, the
//! logger waits out a batching window of at most [`BATCH_WINDOW`] or
//! [`BATCH_BYTES`], so a process crash loses that window, plus whatever
//! queued up behind a `write` or fsync the logger was inside.
//!
//! Because cLSM allows concurrent writers, records may be enqueued (and
//! thus written) out of timestamp order; recovery sorts by timestamp
//! (§4: "the correct order is easily restored upon recovery").

use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use clsm_util::error::{Error, Result};
use clsm_util::trace::{now_ns, TraceId};

use super::LogWriter;

/// Flight-recorder span on the logger thread: one group-committed
/// fsync covering every sync request that joined the group (argument =
/// number of requests released).
static T_GROUP_COMMIT: TraceId = TraceId::new("storage.wal.group_commit");

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
    /// Wait until the record is fsync'd (group-committed).
    Sync,
}

/// What the logger thread is doing, so writers know whether to wake it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Logger {
    /// Writing a batch, or already woken: nobody needs to notify it.
    Busy,
    /// Parked with nothing pending, no timeout.
    Idle,
    /// Holding asynchronous records back until the window closes.
    Window,
}

struct State {
    /// Records not yet taken by the logger, each preceded by its length
    /// as a little-endian `u64`.
    pending: Vec<u8>,
    /// Rotations not yet taken: the offset in `pending` where the new
    /// file begins, and the new file's writer.
    rotations: Vec<(usize, LogWriter)>,
    sync_requested: u64,
    sync_done: u64,
    /// The logger's [`now_ns`] right after the fsync that last advanced
    /// `sync_done`.
    durable_ns: u64,
    rotate_requested: u64,
    rotate_done: u64,
    logger: Logger,
    shutdown: bool,
}

impl State {
    /// Marks the logger woken. Returns whether the caller must notify
    /// it: a busy logger re-reads the state before it parks.
    fn wake(&mut self) -> bool {
        std::mem::replace(&mut self.logger, Logger::Busy) != Logger::Busy
    }

    /// Work that ends a batching window at once.
    fn urgent(&self) -> bool {
        self.shutdown
            || self.sync_requested > self.sync_done
            || !self.rotations.is_empty()
            || self.pending.len() >= BATCH_BYTES
    }
}

struct Shared {
    state: Mutex<State>,
    /// The first I/O error; every later append, sync and rotate fails
    /// with it. Set under `state`'s lock, read without it.
    error: OnceLock<Error>,
    /// Wakes the logger.
    work: Condvar,
    /// Releases sync and rotate waiters.
    done: Condvar,
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

    fn wait_done<'a>(&self, st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.done
            .wait(st)
            .expect("logging queue poisoned by a panicking thread")
    }
}

/// Handle to the logger thread. Dropping it drains every pending
/// record into the file, syncs it, and joins the logger.
pub struct LogQueue {
    shared: Arc<Shared>,
    logger: Option<JoinHandle<()>>,
}

impl LogQueue {
    /// Starts a logger thread over `writer`. Panics if the thread
    /// cannot be spawned; [`LogQueue::spawn`] returns that as an error.
    pub fn start(writer: LogWriter) -> Self {
        Self::spawn(writer).expect("spawn logger thread")
    }

    /// Starts a logger thread over `writer`, or fails if the thread
    /// cannot be spawned.
    pub fn spawn(writer: LogWriter) -> Result<Self> {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                pending: Vec::new(),
                rotations: Vec::new(),
                sync_requested: 0,
                sync_done: 0,
                durable_ns: 0,
                rotate_requested: 0,
                rotate_done: 0,
                logger: Logger::Busy,
                shutdown: false,
            }),
            error: OnceLock::new(),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let logger = std::thread::Builder::new()
            .name("clsm-logger".to_string())
            .spawn({
                let shared = Arc::clone(&shared);
                move || logger_loop(writer, &shared)
            })?;
        Ok(LogQueue {
            shared,
            logger: Some(logger),
        })
    }

    /// Appends a serialized record.
    ///
    /// `Async` returns as soon as the record is enqueued; `Sync` blocks
    /// until the record (and everything before it) is durable.
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
        match mode {
            SyncMode::Async => {
                let wake = match st.logger {
                    Logger::Idle => true,
                    Logger::Window => st.pending.len() >= BATCH_BYTES,
                    Logger::Busy => false,
                } && st.wake();
                drop(st);
                if wake {
                    self.shared.work.notify_one();
                }
                Ok(())
            }
            SyncMode::Sync => self.wait_for_sync(st).map(|_durable_ns| ()),
        }
    }

    /// Switches the logger to a new file. Every record enqueued before
    /// the call lands in the old file, which is flushed and synced
    /// before the switch; every record enqueued after it returns lands
    /// in the new one. Blocks until the rotation happened.
    pub fn rotate(&self, writer: LogWriter) -> Result<()> {
        let mut st = self.shared.lock();
        self.shared.check()?;
        let at = st.pending.len();
        st.rotations.push((at, writer));
        st.rotate_requested += 1;
        let mine = st.rotate_requested;
        if st.wake() {
            self.shared.work.notify_one();
        }
        while st.rotate_done < mine {
            st = self.shared.wait_done(st);
        }
        self.shared.check()
    }

    /// Waits until everything enqueued so far is flushed and fsync'd.
    pub fn sync(&self) -> Result<()> {
        self.sync_timed().map(|_durable_ns| ())
    }

    /// Like [`sync`](Self::sync), but returns the logger thread's
    /// [`now_ns`] reading taken right after the covering fsync — the
    /// instant durability was reached, excluding the time it took to
    /// wake this caller.
    pub fn sync_timed(&self) -> Result<u64> {
        self.wait_for_sync(self.shared.lock())
    }

    fn wait_for_sync(&self, mut st: MutexGuard<'_, State>) -> Result<u64> {
        self.shared.check()?;
        st.sync_requested += 1;
        let mine = st.sync_requested;
        if st.wake() {
            self.shared.work.notify_one();
        }
        while st.sync_done < mine {
            st = self.shared.wait_done(st);
        }
        self.shared.check()?;
        Ok(st.durable_ns)
    }

    /// The first I/O error encountered by the logger, if any. Takes no
    /// lock.
    pub fn poisoned(&self) -> Option<Error> {
        self.shared.error.get().cloned()
    }

    /// Bytes waiting for the logger thread — the logging queue's
    /// backlog. Sampled racily; a backlog persistently past
    /// one batch (128 KiB) means writers outpace the log device.
    pub fn depth(&self) -> usize {
        self.shared.lock().pending.len()
    }
}

impl Drop for LogQueue {
    fn drop(&mut self) {
        let mut st = self
            .shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        st.shutdown = true;
        drop(st);
        self.shared.work.notify_one();
        if let Some(logger) = self.logger.take() {
            let _ = logger.join();
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

/// Releases every waiter when the logger thread ends, by shutdown or by
/// panic: later appends, syncs and rotates fail instead of hanging.
struct ReleaseOnExit<'a>(&'a Shared);

impl Drop for ReleaseOnExit<'_> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = self.0.error.set(Error::ShuttingDown);
        st.sync_done = st.sync_requested;
        st.rotate_done = st.rotate_requested;
        drop(st);
        self.0.done.notify_all();
    }
}

fn logger_loop(mut writer: LogWriter, shared: &Shared) {
    let _release = ReleaseOnExit(shared);
    let mut spare = Vec::new();
    let mut st = shared.lock();
    loop {
        st = wait_for_work(shared, st);
        st.logger = Logger::Busy;
        let batch = std::mem::replace(&mut st.pending, spare);
        let rotations = std::mem::take(&mut st.rotations);
        let rotated = rotations.len() as u64;
        let sync_target = st.sync_requested;
        let syncs = sync_target - st.sync_done;
        let shutdown = st.shutdown;
        let failed = shared.error.get().is_some();
        drop(st);

        // After the first error nothing more is written: the batch's
        // appends were accepted before the error was published, and
        // the error now fails every sync that could have covered them.
        let mut durable_ns = 0;
        let result = if failed {
            Ok(())
        } else {
            write_batch(&mut writer, &batch, rotations).and_then(|()| {
                if syncs > 0 || shutdown {
                    let _span = T_GROUP_COMMIT.span_with(syncs);
                    writer.sync()?;
                    durable_ns = now_ns();
                    Ok(())
                } else {
                    writer.flush()
                }
            })
        };
        spare = batch;
        spare.clear();
        // A backlog built up behind a slow fsync can grow the buffer far
        // past a batch; hand that memory back instead of keeping it.
        spare.shrink_to(2 * BATCH_BYTES);

        st = shared.lock();
        if let Err(e) = result {
            let _ = shared.error.set(e);
        }
        if syncs > 0 {
            st.sync_done = sync_target;
            st.durable_ns = durable_ns;
        }
        st.rotate_done += rotated;
        if syncs > 0 || rotated > 0 {
            shared.done.notify_all();
        }
        if shutdown {
            // Dropping the queue needs `&mut`: nothing can be enqueued
            // after the shutdown flag, so this batch was the last.
            return;
        }
    }
}

/// Parks the logger until there is work. While only asynchronous
/// records are pending, holds them back for one batching window.
fn wait_for_work<'a>(shared: &Shared, mut st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    let mut window_end = None;
    loop {
        if st.urgent() {
            return st;
        }
        if st.pending.is_empty() {
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

/// Writes a drained batch, switching files at each rotation's offset.
/// Each old file is synced before it is let go.
fn write_batch(
    writer: &mut LogWriter,
    batch: &[u8],
    rotations: Vec<(usize, LogWriter)>,
) -> Result<()> {
    let mut at = 0;
    for (offset, next) in rotations {
        write_records(writer, &batch[at..offset])?;
        writer.sync()?;
        *writer = next;
        at = offset;
    }
    write_records(writer, &batch[at..])
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
    use std::path::PathBuf;

    fn temp_file(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("logqueue-{}-{}", std::process::id(), name));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("q.log")
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
        let q = LogQueue::start(LogWriter::new(Box::new(
            std::fs::File::create(&path).unwrap(),
        )));
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
        let q = LogQueue::start(LogWriter::new(Box::new(
            std::fs::File::create(&path).unwrap(),
        )));
        q.append(b"hello".to_vec(), SyncMode::Sync).unwrap();
        // Already durable: visible without an extra sync.
        let records = read_all(&path);
        assert_eq!(records, vec![b"hello".to_vec()]);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn rotation_splits_files() {
        let path_a = temp_file("rot-a");
        let path_b = path_a.with_file_name("b.log");
        let q = LogQueue::start(LogWriter::new(Box::new(
            std::fs::File::create(&path_a).unwrap(),
        )));
        q.append(b"one".to_vec(), SyncMode::Async).unwrap();
        q.rotate(LogWriter::new(Box::new(
            std::fs::File::create(&path_b).unwrap(),
        )))
        .unwrap();
        q.append(b"two".to_vec(), SyncMode::Sync).unwrap();
        assert_eq!(read_all(&path_a), vec![b"one".to_vec()]);
        assert_eq!(read_all(&path_b), vec![b"two".to_vec()]);
        std::fs::remove_dir_all(path_a.parent().unwrap()).unwrap();
    }

    #[test]
    fn concurrent_appenders_all_land() {
        let path = temp_file("conc");
        let q = LogQueue::start(LogWriter::new(Box::new(
            std::fs::File::create(&path).unwrap(),
        )));
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
    fn drop_drains_queue() {
        let path = temp_file("drop");
        {
            let q = LogQueue::start(LogWriter::new(Box::new(
                std::fs::File::create(&path).unwrap(),
            )));
            for i in 0..50u32 {
                q.append(i.to_le_bytes().to_vec(), SyncMode::Async).unwrap();
            }
        } // dropped here: must drain before the thread exits
        assert_eq!(read_all(&path).len(), 50);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
