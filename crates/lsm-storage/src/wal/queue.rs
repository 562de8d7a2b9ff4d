//! The cLSM logging queue: non-blocking WAL appends via a dedicated
//! logger thread.
//!
//! The paper implements the logging queue with a non-blocking queue
//! from libcds (§4); we use the MPMC channel from `clsm_util::channel`
//! with a single consumer. In asynchronous
//! mode (the LevelDB default) a put enqueues its serialized record and
//! returns immediately — "a write only queues the request for logging
//! and a handful of writes may be lost due to a crash". In synchronous
//! mode the caller waits for a group-committed fsync.
//!
//! Because cLSM allows concurrent writers, records may be enqueued (and
//! thus written) out of timestamp order; recovery sorts by timestamp
//! (§4: "the correct order is easily restored upon recovery").

use std::sync::Arc;
use std::thread::JoinHandle;

use clsm_util::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::Mutex;

use clsm_util::error::{Error, Result};
use clsm_util::trace::{now_ns, TraceId};

use super::LogWriter;

/// Flight-recorder span on the logger thread: one group-committed
/// fsync covering every waiter that joined the group (argument =
/// number of acks released).
static T_GROUP_COMMIT: TraceId = TraceId::new("storage.wal.group_commit");

/// Durability mode for an append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Enqueue and return; data reaches the OS lazily.
    Async,
    /// Wait until the record is fsync'd (group-committed).
    Sync,
}

/// A durability acknowledgement: the value is the logger thread's
/// [`now_ns`] reading taken immediately after the covering fsync
/// returned — the instant the data actually became durable, before any
/// cross-thread wake-up latency. Write-path attribution uses it to
/// separate fsync time from ack/wake overhead.
type DurableAck = Sender<Result<u64>>;

enum Msg {
    Append {
        payload: Vec<u8>,
        ack: Option<DurableAck>,
    },
    Rotate {
        writer: Box<LogWriter>,
        ack: DurableAck,
    },
    Flush {
        ack: DurableAck,
    },
}

/// Handle to the logger thread.
///
/// Cloneable and shareable; dropping the last handle shuts the logger
/// down after draining the queue.
pub struct LogQueue {
    tx: Sender<Msg>,
    shared: Arc<Shared>,
}

/// Error slot shared with the logger thread.
type ErrorSlot = Mutex<Option<Error>>;

struct Shared {
    /// First I/O error hit by the logger; poisons subsequent syncs.
    error: Arc<ErrorSlot>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl LogQueue {
    /// Starts a logger thread over `writer`.
    pub fn start(writer: LogWriter) -> Self {
        let (tx, rx) = unbounded::<Msg>();
        let error: Arc<ErrorSlot> = Arc::new(Mutex::new(None));
        let error2 = Arc::clone(&error);
        let handle = std::thread::Builder::new()
            .name("clsm-logger".to_string())
            .spawn(move || logger_loop(writer, rx, error2))
            .expect("spawn logger thread");
        let shared = Arc::new(Shared {
            error,
            handle: Mutex::new(Some(handle)),
        });
        LogQueue { tx, shared }
    }

    /// Appends a serialized record.
    ///
    /// `Async` returns as soon as the record is enqueued; `Sync` blocks
    /// until the record (and everything before it) is durable.
    pub fn append(&self, payload: Vec<u8>, mode: SyncMode) -> Result<()> {
        match mode {
            SyncMode::Async => {
                self.tx
                    .send(Msg::Append { payload, ack: None })
                    .map_err(|_| Error::ShuttingDown)?;
                Ok(())
            }
            SyncMode::Sync => {
                let (ack_tx, ack_rx) = bounded(1);
                self.tx
                    .send(Msg::Append {
                        payload,
                        ack: Some(ack_tx),
                    })
                    .map_err(|_| Error::ShuttingDown)?;
                ack_rx
                    .recv()
                    .map_err(|_| Error::ShuttingDown)?
                    .map(|_durable_ns| ())
            }
        }
    }

    /// Switches the logger to a new file. All previously enqueued
    /// records land in the old file, which is flushed, synced, and
    /// closed before the switch. Blocks until the rotation happened.
    pub fn rotate(&self, writer: LogWriter) -> Result<()> {
        let (ack_tx, ack_rx) = bounded(1);
        self.tx
            .send(Msg::Rotate {
                writer: Box::new(writer),
                ack: ack_tx,
            })
            .map_err(|_| Error::ShuttingDown)?;
        ack_rx
            .recv()
            .map_err(|_| Error::ShuttingDown)?
            .map(|_durable_ns| ())
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
        let (ack_tx, ack_rx) = bounded(1);
        self.tx
            .send(Msg::Flush { ack: ack_tx })
            .map_err(|_| Error::ShuttingDown)?;
        ack_rx.recv().map_err(|_| Error::ShuttingDown)?
    }

    /// The first I/O error encountered by the logger, if any.
    pub fn poisoned(&self) -> Option<Error> {
        self.shared.error.lock().clone()
    }

    /// Messages currently waiting for the logger thread — the logging
    /// queue's backlog. Sampled racily; a persistently non-zero depth
    /// means writers outpace the log device.
    pub fn depth(&self) -> usize {
        self.tx.len()
    }
}

impl Clone for LogQueue {
    fn clone(&self) -> Self {
        LogQueue {
            tx: self.tx.clone(),
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Drop for LogQueue {
    fn drop(&mut self) {
        // Only the last handle joins the thread.
        if Arc::strong_count(&self.shared) != 1 {
            return;
        }
        // Closing the channel ends the logger loop after a drain.
        let (tx, _rx) = unbounded();
        drop(std::mem::replace(&mut self.tx, tx));
        if let Some(handle) = self.shared.handle.lock().take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for LogQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogQueue")
            .field("queued", &self.tx.len())
            .finish()
    }
}

fn logger_loop(mut writer: LogWriter, rx: Receiver<Msg>, error: Arc<ErrorSlot>) {
    let mut pending_acks: Vec<DurableAck> = Vec::new();
    let mut dirty = false;

    let fail = |error: &ErrorSlot, e: &Error| {
        let mut slot = error.lock();
        if slot.is_none() {
            *slot = Some(e.clone());
        }
    };

    loop {
        // Block for the next message, then opportunistically drain the
        // queue so one flush/fsync covers the whole group (group
        // commit).
        let first = match rx.recv() {
            Ok(m) => m,
            Err(_) => break,
        };
        let mut batch = vec![first];
        while let Ok(m) = rx.try_recv() {
            batch.push(m);
            if batch.len() >= 1024 {
                break;
            }
        }

        let mut need_sync = false;
        for msg in batch {
            match msg {
                Msg::Append { payload, ack } => {
                    if let Err(e) = writer.add_record(&payload) {
                        fail(&error, &e);
                    }
                    dirty = true;
                    if let Some(ack) = ack {
                        need_sync = true;
                        pending_acks.push(ack);
                    }
                }
                Msg::Flush { ack } => {
                    need_sync = true;
                    pending_acks.push(ack);
                }
                Msg::Rotate {
                    writer: new_writer,
                    ack,
                } => {
                    // Seal the old file; records already written to it
                    // are durable from here on, so their acks can fire.
                    let res = writer
                        .sync()
                        .inspect_err(|e| {
                            fail(&error, e);
                        })
                        .map(|()| now_ns());
                    for pending in pending_acks.drain(..) {
                        let _ = pending.send(res.clone());
                    }
                    writer = *new_writer;
                    dirty = false;
                    need_sync = false;
                    let _ = ack.send(res);
                }
            }
        }

        if need_sync {
            let _span = T_GROUP_COMMIT.span_with(pending_acks.len() as u64);
            let res = writer
                .sync()
                .inspect_err(|e| {
                    fail(&error, e);
                })
                .map(|()| now_ns());
            dirty = false;
            for ack in pending_acks.drain(..) {
                let _ = ack.send(res.clone());
            }
        } else if dirty && rx.is_empty() {
            // Queue drained: push buffered bytes to the OS so a process
            // crash (not machine crash) loses nothing.
            if let Err(e) = writer.flush() {
                fail(&error, &e);
            }
            dirty = false;
        }
    }
    // Channel closed: final flush.
    let _ = writer.sync();
    for ack in pending_acks.drain(..) {
        let _ = ack.send(Err(Error::ShuttingDown));
    }
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
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500u32 {
                    q.append(vec![t, (i % 251) as u8], SyncMode::Async).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
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
