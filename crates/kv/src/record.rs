//! History recording around [`KvStore`] trait objects.
//!
//! The correctness checker (`clsm-check`) validates real concurrent
//! executions, so every operation must be captured as an
//! *invoke/response interval* on a shared logical clock, with the
//! arguments the caller passed and the results the store returned.
//! This module provides that capture layer, black-box: it wraps any
//! `Arc<dyn KvStore>` — cLSM's `Db` and every baseline —
//! without touching the store's own hot paths.
//!
//! Recording is arranged so it cannot perturb the schedules it
//! observes:
//!
//! - each worker thread records through its own [`Recorder`] (a
//!   [`clsm_util::eventlog::EventLogHandle`] underneath), so event
//!   appends are plain `Vec` pushes with no shared state;
//! - the only shared touch per operation is two `fetch_add` ticks on
//!   the session clock, taken immediately before and after the inner
//!   call.
//!
//! The resulting [`KvEvent`] stream is the input of the checkers: if
//! event A's `response` tick is below event B's `invoke` tick, A
//! really completed before B began.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clsm_util::error::Result;
use clsm_util::eventlog::{EventLog, EventLogHandle};

use crate::{KvSnapshot, KvStore, RmwDecision, RmwResult, ScanRange, WriteBatch, WriteOptions};

/// The decision a committed (or aborted) RMW actually applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RmwApplied {
    /// A new value was stored.
    Update(Vec<u8>),
    /// A deletion marker was stored.
    Delete,
    /// The operation observed its input and wrote nothing.
    Abort,
}

/// One recorded operation, with everything the checkers need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    /// `put(key, value)`.
    Put {
        /// Key written.
        key: Vec<u8>,
        /// Value written.
        value: Vec<u8>,
    },
    /// `delete(key)`.
    Delete {
        /// Key deleted.
        key: Vec<u8>,
    },
    /// `get(key)` and what it observed.
    Get {
        /// Key read.
        key: Vec<u8>,
        /// Observed value (`None` = absent or deleted).
        result: Option<Vec<u8>>,
    },
    /// `put_if_absent(key, value)` and whether it stored.
    PutIfAbsent {
        /// Key written.
        key: Vec<u8>,
        /// Value offered.
        value: Vec<u8>,
        /// Whether the store reported the value as stored.
        stored: bool,
    },
    /// `read_modify_write(key, f)`: the observed previous value and
    /// the decision that was applied on the final attempt.
    Rmw {
        /// Key operated on.
        key: Vec<u8>,
        /// Value the applied attempt observed.
        prev: Option<Vec<u8>>,
        /// What the final attempt did.
        applied: RmwApplied,
    },
    /// `write(batch)`. Entries with `None` are deletes. The
    /// batch id ties multi-key atomicity observations together.
    WriteBatch {
        /// Session-unique batch identifier.
        batch: u64,
        /// The batch body, in submission order.
        entries: Vec<(Vec<u8>, Option<Vec<u8>>)>,
    },
    /// `snapshot()`: the interval during which the read point was
    /// chosen.
    SnapshotCreate {
        /// Session-unique snapshot identifier.
        snap: u64,
    },
    /// A `get` through a snapshot.
    SnapshotGet {
        /// The snapshot read through.
        snap: u64,
        /// Key read.
        key: Vec<u8>,
        /// Observed value.
        result: Option<Vec<u8>>,
    },
    /// A `scan` — through an explicit snapshot if one was created, or
    /// a store-level scan (in which case `snap` is a fresh id with no
    /// matching [`KvOp::SnapshotCreate`] event, and the scan's own
    /// interval brackets the read-point choice).
    Scan {
        /// Owning snapshot id.
        snap: u64,
        /// Range scanned.
        range: ScanRange,
        /// Limit passed.
        limit: usize,
        /// Observed pairs, in key order.
        result: Vec<(Vec<u8>, Vec<u8>)>,
    },
}

impl KvOp {
    /// The key this operation addresses, when it addresses exactly one.
    pub fn key(&self) -> Option<&[u8]> {
        match self {
            KvOp::Put { key, .. }
            | KvOp::Delete { key }
            | KvOp::Get { key, .. }
            | KvOp::PutIfAbsent { key, .. }
            | KvOp::Rmw { key, .. }
            | KvOp::SnapshotGet { key, .. } => Some(key),
            KvOp::WriteBatch { .. } | KvOp::SnapshotCreate { .. } | KvOp::Scan { .. } => None,
        }
    }
}

/// One operation instance: interval, recording thread, outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvEvent {
    /// Recorder id (one per [`Recorder`], i.e. per worker thread).
    pub thread: u32,
    /// Clock tick taken immediately before the call entered the store.
    pub invoke: u64,
    /// Clock tick taken immediately after the call returned.
    pub response: u64,
    /// `false` when the store returned an error; the payload then
    /// carries the arguments with default results.
    pub ok: bool,
    /// The operation and its observations.
    pub op: KvOp,
}

/// A recording session over one store under test.
///
/// Create one per checked execution, hand each worker thread a
/// [`Recorder`] via [`RecordingSession::recorder`], run the workload,
/// drop the recorders, then collect the history with
/// [`RecordingSession::take_events`].
pub struct RecordingSession {
    store: Arc<dyn KvStore>,
    log: Arc<EventLog<KvEvent>>,
    snap_ids: AtomicU64,
    batch_ids: AtomicU64,
    recorder_ids: AtomicU64,
}

impl RecordingSession {
    /// Wraps `store` for recording.
    pub fn new(store: Arc<dyn KvStore>) -> Arc<RecordingSession> {
        Arc::new(RecordingSession {
            store,
            log: Arc::new(EventLog::new()),
            snap_ids: AtomicU64::new(0),
            batch_ids: AtomicU64::new(0),
            recorder_ids: AtomicU64::new(0),
        })
    }

    /// Creates a per-thread recorder.
    pub fn recorder(self: &Arc<Self>) -> Recorder {
        Recorder {
            thread: self.recorder_ids.fetch_add(1, Ordering::Relaxed) as u32,
            handle: self.log.handle(),
            session: Arc::clone(self),
        }
    }

    /// The current clock value — e.g. the instant a simulated crash
    /// happened, for checking recovery against the durable prefix.
    pub fn now(&self) -> u64 {
        self.log.now()
    }

    /// Drains every flushed event, sorted by invoke tick. Call after
    /// all [`Recorder`]s are dropped.
    pub fn take_events(&self) -> Vec<KvEvent> {
        let mut events = self.log.drain();
        events.sort_by_key(|e| e.invoke);
        events
    }
}

impl std::fmt::Debug for RecordingSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordingSession")
            .field("store", &self.store.name())
            .field("clock", &self.log.now())
            .finish()
    }
}

/// A snapshot handle whose reads are recorded against its creation
/// interval. Obtained from [`Recorder::snapshot`]; reads go through
/// [`Recorder::snapshot_get`] / [`Recorder::snapshot_scan`].
pub struct RecordedSnapshot {
    snap: Box<dyn KvSnapshot>,
    id: u64,
}

/// Per-thread recording facade over the session's store.
///
/// Intentionally `!Sync`: each worker owns one. Every method takes an
/// invoke tick, calls the store, takes a response tick, and buffers
/// the event locally.
pub struct Recorder {
    session: Arc<RecordingSession>,
    thread: u32,
    handle: EventLogHandle<KvEvent>,
}

impl Recorder {
    fn record(&mut self, invoke: u64, ok: bool, op: KvOp) {
        let response = self.handle.tick();
        self.handle.push(KvEvent {
            thread: self.thread,
            invoke,
            response,
            ok,
            op,
        });
    }

    /// Recorded `put`.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        let invoke = self.handle.tick();
        let r = self.session.store.put(key, value);
        self.record(
            invoke,
            r.is_ok(),
            KvOp::Put {
                key: key.to_vec(),
                value: value.to_vec(),
            },
        );
        r
    }

    /// Recorded `delete`.
    pub fn delete(&mut self, key: &[u8]) -> Result<()> {
        let invoke = self.handle.tick();
        let r = self.session.store.delete(key);
        self.record(invoke, r.is_ok(), KvOp::Delete { key: key.to_vec() });
        r
    }

    /// Recorded `get`.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let invoke = self.handle.tick();
        let r = self.session.store.get(key);
        self.record(
            invoke,
            r.is_ok(),
            KvOp::Get {
                key: key.to_vec(),
                result: r.as_ref().ok().cloned().flatten(),
            },
        );
        r
    }

    /// Recorded `put_if_absent`.
    pub fn put_if_absent(&mut self, key: &[u8], value: &[u8]) -> Result<bool> {
        let invoke = self.handle.tick();
        let r = self.session.store.put_if_absent(key, value);
        self.record(
            invoke,
            r.is_ok(),
            KvOp::PutIfAbsent {
                key: key.to_vec(),
                value: value.to_vec(),
                stored: *r.as_ref().unwrap_or(&false),
            },
        );
        r
    }

    /// Recorded `read_modify_write`. The decision returned by `f` on
    /// the applied attempt is captured into the event.
    pub fn read_modify_write(
        &mut self,
        key: &[u8],
        f: &mut dyn FnMut(Option<&[u8]>) -> RmwDecision,
    ) -> Result<RmwResult> {
        let invoke = self.handle.tick();
        let mut last: Option<RmwDecision> = None;
        let r = self.session.store.read_modify_write(key, &mut |cur| {
            let d = f(cur);
            last = Some(d.clone());
            d
        });
        let applied = match (&r, last) {
            (Ok(res), Some(RmwDecision::Update(v))) if res.committed => RmwApplied::Update(v),
            (Ok(res), Some(RmwDecision::Delete)) if res.committed => RmwApplied::Delete,
            _ => RmwApplied::Abort,
        };
        self.record(
            invoke,
            r.is_ok(),
            KvOp::Rmw {
                key: key.to_vec(),
                prev: r.as_ref().ok().and_then(|res| res.previous.clone()),
                applied,
            },
        );
        r
    }

    /// Recorded `write` (the unified batch entry point). Returns the
    /// session-unique batch id the event was tagged with.
    pub fn write(&mut self, batch: WriteBatch, opts: &WriteOptions) -> Result<u64> {
        let id = self.session.batch_ids.fetch_add(1, Ordering::Relaxed);
        let entries = batch.ops().to_vec();
        let invoke = self.handle.tick();
        let r = self.session.store.write(batch, opts);
        self.record(invoke, r.is_ok(), KvOp::WriteBatch { batch: id, entries });
        r.map(|()| id)
    }

    /// Recorded store-level `scan` (implicit snapshot: the scan's own
    /// interval brackets the read-point choice).
    pub fn scan(&mut self, range: ScanRange, limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let snap = self.session.snap_ids.fetch_add(1, Ordering::Relaxed);
        let invoke = self.handle.tick();
        let r = self.session.store.scan(range.clone(), limit);
        self.record(
            invoke,
            r.is_ok(),
            KvOp::Scan {
                snap,
                range,
                limit,
                result: r.as_ref().ok().cloned().unwrap_or_default(),
            },
        );
        r
    }

    /// Recorded `snapshot`.
    pub fn snapshot(&mut self) -> Result<RecordedSnapshot> {
        let id = self.session.snap_ids.fetch_add(1, Ordering::Relaxed);
        let invoke = self.handle.tick();
        let r = self.session.store.snapshot();
        self.record(invoke, r.is_ok(), KvOp::SnapshotCreate { snap: id });
        r.map(|snap| RecordedSnapshot { snap, id })
    }

    /// Recorded `get` through a snapshot.
    pub fn snapshot_get(&mut self, snap: &RecordedSnapshot, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let invoke = self.handle.tick();
        let r = snap.snap.get(key);
        self.record(
            invoke,
            r.is_ok(),
            KvOp::SnapshotGet {
                snap: snap.id,
                key: key.to_vec(),
                result: r.as_ref().ok().cloned().flatten(),
            },
        );
        r
    }

    /// Recorded `scan` through a snapshot.
    pub fn snapshot_scan(
        &mut self,
        snap: &RecordedSnapshot,
        range: ScanRange,
        limit: usize,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let invoke = self.handle.tick();
        let r = snap.snap.scan(range.clone(), limit);
        self.record(
            invoke,
            r.is_ok(),
            KvOp::Scan {
                snap: snap.id,
                range,
                limit,
                result: r.as_ref().ok().cloned().unwrap_or_default(),
            },
        );
        r
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("thread", &self.thread)
            .field("buffered", &self.handle.buffered())
            .finish()
    }
}
