//! Request-oriented façade over [`KvStore`].
//!
//! Every driver that exercises a store through a uniform surface — the
//! network server, the linearizability checker, the bench harness —
//! speaks in terms of one [`Request`] in, one [`Response`] out, routed
//! through [`dispatch`]. The wire protocol in `clsm-net` is then a
//! *serialization* of these enums rather than a parallel API that
//! could drift from the trait.
//!
//! Two store operations cannot be represented as plain data and are
//! deliberately absent:
//!
//! - `read_modify_write` takes a closure; closures do not cross a
//!   process boundary. Remote callers get [`Request::PutIfAbsent`]
//!   (the paper's RMW benchmark shape) as a first-class request
//!   instead.
//! - `quiesce` is a harness hook, not a client operation.
//!
//! Snapshots are stateful: a snapshot handle lives on the serving side
//! and is named by a `u64` id. [`SnapshotSessions`] owns that table —
//! one per connection on the server, so ids never leak across
//! connections and dropping a connection releases its snapshots.

use std::collections::HashMap;

use clsm_util::error::Error;

use crate::{KvSnapshot, KvStore, ScanRange, WriteBatch, WriteOptions};

/// One client-issued operation, as plain data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Read the latest value of a key.
    Get {
        /// Key to read.
        key: Vec<u8>,
    },
    /// Store a value under a key.
    Put {
        /// Key to write.
        key: Vec<u8>,
        /// Value to store.
        value: Vec<u8>,
        /// Durability options for this write.
        opts: WriteOptions,
    },
    /// Delete a key.
    Delete {
        /// Key to delete.
        key: Vec<u8>,
        /// Durability options for this write.
        opts: WriteOptions,
    },
    /// Apply a multi-entry batch.
    Write {
        /// Puts (`Some`) and deletes (`None`) to apply.
        batch: WriteBatch,
        /// Durability options for this write.
        opts: WriteOptions,
    },
    /// Atomically store a value if the key is absent.
    PutIfAbsent {
        /// Key to conditionally write.
        key: Vec<u8>,
        /// Value to store when absent.
        value: Vec<u8>,
    },
    /// Range scan from a fresh consistent view.
    Scan {
        /// Key range to scan.
        range: ScanRange,
        /// Maximum number of pairs to return.
        limit: u32,
    },
    /// Create a snapshot; the response carries its id.
    SnapshotCreate,
    /// Read a key as of a previously created snapshot.
    SnapshotGet {
        /// Snapshot id from [`Response::SnapshotId`].
        snapshot: u64,
        /// Key to read.
        key: Vec<u8>,
    },
    /// Range scan as of a previously created snapshot.
    SnapshotScan {
        /// Snapshot id from [`Response::SnapshotId`].
        snapshot: u64,
        /// Key range to scan.
        range: ScanRange,
        /// Maximum number of pairs to return.
        limit: u32,
    },
    /// Drop a snapshot, releasing the resources it pins.
    SnapshotRelease {
        /// Snapshot id to release.
        snapshot: u64,
    },
    /// Fetch the store's metrics in text exposition format.
    Stats,
}

impl Request {
    /// Stable lower-case name, used for per-opcode metrics and logs.
    pub fn name(&self) -> &'static str {
        match self {
            Request::Get { .. } => "get",
            Request::Put { .. } => "put",
            Request::Delete { .. } => "delete",
            Request::Write { .. } => "write",
            Request::PutIfAbsent { .. } => "put_if_absent",
            Request::Scan { .. } => "scan",
            Request::SnapshotCreate => "snapshot_create",
            Request::SnapshotGet { .. } => "snapshot_get",
            Request::SnapshotScan { .. } => "snapshot_scan",
            Request::SnapshotRelease { .. } => "snapshot_release",
            Request::Stats => "stats",
        }
    }
}

/// The result of one [`Request`], as plain data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Mutation applied ([`Request::Put`]/[`Request::Delete`]/
    /// [`Request::Write`]/[`Request::SnapshotRelease`]).
    Done,
    /// A point read's result (`None` = key absent).
    Value(Option<Vec<u8>>),
    /// Whether a [`Request::PutIfAbsent`] stored its value.
    Applied(bool),
    /// Key-ordered live pairs from a scan.
    Entries(Vec<(Vec<u8>, Vec<u8>)>),
    /// Id of a freshly created snapshot.
    SnapshotId(u64),
    /// Metrics in text exposition format.
    Stats(String),
    /// The operation failed; see [`WireError`].
    Error(WireError),
}

/// An [`Error`] flattened to what survives a process boundary: the
/// stable kind code, the display message, and the retryability verdict
/// (computed where the full error — e.g. the `io::ErrorKind` — still
/// exists).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Stable code from [`clsm_util::error::ErrorKind::code`].
    pub code: u16,
    /// Human-readable message (the error's `Display` output).
    pub message: String,
    /// Verdict of [`Error::is_retryable`] at the point of failure.
    pub retryable: bool,
}

impl WireError {
    /// Flattens an error for transport.
    pub fn from_error(e: &Error) -> Self {
        WireError {
            code: e.kind().code(),
            message: e.to_string(),
            retryable: e.is_retryable(),
        }
    }

    /// Reconstitutes a typed [`Error`] on the receiving side.
    pub fn into_error(self) -> Error {
        Error::from_wire(self.code, self.message, self.retryable)
    }
}

impl From<&Error> for WireError {
    fn from(e: &Error) -> Self {
        WireError::from_error(e)
    }
}

/// Per-connection table of live snapshots, keyed by id.
///
/// Ids are allocated densely starting at 1; 0 is never a valid id, so
/// a zeroed wire field can never alias a live snapshot.
#[derive(Default)]
pub struct SnapshotSessions {
    next: u64,
    live: HashMap<u64, Box<dyn KvSnapshot>>,
}

impl std::fmt::Debug for SnapshotSessions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotSessions")
            .field("live", &self.live.len())
            .finish()
    }
}

impl SnapshotSessions {
    /// An empty table.
    pub fn new() -> Self {
        SnapshotSessions::default()
    }

    /// Number of snapshots currently held.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no snapshots are held.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    fn insert(&mut self, snap: Box<dyn KvSnapshot>) -> u64 {
        self.next += 1;
        self.live.insert(self.next, snap);
        self.next
    }

    fn get(&self, id: u64) -> Option<&dyn KvSnapshot> {
        self.live.get(&id).map(|b| b.as_ref())
    }

    fn release(&mut self, id: u64) -> bool {
        self.live.remove(&id).is_some()
    }
}

fn unknown_snapshot(id: u64) -> Response {
    Response::Error(WireError::from_error(&Error::invalid_argument(format!(
        "unknown snapshot id {id}"
    ))))
}

/// Executes one [`Request`] against a store, producing its
/// [`Response`]. Never panics and never returns `Err` — failures are
/// data ([`Response::Error`]), because on the serving side an error
/// belongs to one request, not to the connection.
pub fn dispatch(store: &dyn KvStore, sessions: &mut SnapshotSessions, req: Request) -> Response {
    fn ok_or_err<T>(r: crate::Result<T>, f: impl FnOnce(T) -> Response) -> Response {
        match r {
            Ok(v) => f(v),
            Err(e) => Response::Error(WireError::from_error(&e)),
        }
    }

    match req {
        Request::Get { key } => ok_or_err(store.get(&key), Response::Value),
        Request::Put { key, value, opts } => ok_or_err(
            store.write(WriteBatch::single_put(&key, &value), &opts),
            |()| Response::Done,
        ),
        Request::Delete { key, opts } => {
            ok_or_err(store.write(WriteBatch::single_delete(&key), &opts), |()| {
                Response::Done
            })
        }
        Request::Write { batch, opts } => ok_or_err(store.write(batch, &opts), |()| Response::Done),
        Request::PutIfAbsent { key, value } => {
            ok_or_err(store.put_if_absent(&key, &value), Response::Applied)
        }
        Request::Scan { range, limit } => {
            ok_or_err(store.scan(range, limit as usize), Response::Entries)
        }
        Request::SnapshotCreate => ok_or_err(store.snapshot(), |snap| {
            Response::SnapshotId(sessions.insert(snap))
        }),
        Request::SnapshotGet { snapshot, key } => match sessions.get(snapshot) {
            Some(snap) => ok_or_err(snap.get(&key), Response::Value),
            None => unknown_snapshot(snapshot),
        },
        Request::SnapshotScan {
            snapshot,
            range,
            limit,
        } => match sessions.get(snapshot) {
            Some(snap) => ok_or_err(snap.scan(range, limit as usize), Response::Entries),
            None => unknown_snapshot(snapshot),
        },
        Request::SnapshotRelease { snapshot } => {
            if sessions.release(snapshot) {
                Response::Done
            } else {
                unknown_snapshot(snapshot)
            }
        }
        Request::Stats => Response::Stats(store.stats().to_text()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Result;
    use std::collections::BTreeMap;
    use std::ops::Bound;
    use std::sync::Mutex;

    /// Minimal in-memory store: a mutexed BTreeMap whose snapshots are
    /// full clones. Good enough to exercise every dispatch arm.
    #[derive(Default)]
    struct MemStore {
        map: Mutex<BTreeMap<Vec<u8>, Vec<u8>>>,
    }

    struct MemSnapshot(BTreeMap<Vec<u8>, Vec<u8>>);

    fn scan_map(
        map: &BTreeMap<Vec<u8>, Vec<u8>>,
        range: ScanRange,
        limit: usize,
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        map.range::<Vec<u8>, (Bound<&Vec<u8>>, Bound<&Vec<u8>>)>((
            range.start.as_ref(),
            range.end.as_ref(),
        ))
        .take(limit)
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
    }

    impl KvSnapshot for MemSnapshot {
        fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
            Ok(self.0.get(key).cloned())
        }

        fn scan(&self, range: ScanRange, limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
            Ok(scan_map(&self.0, range, limit))
        }
    }

    impl KvStore for MemStore {
        fn write(&self, batch: WriteBatch, _opts: &WriteOptions) -> Result<()> {
            let mut map = self.map.lock().unwrap();
            for (k, v) in batch.into_ops() {
                match v {
                    Some(v) => {
                        map.insert(k, v);
                    }
                    None => {
                        map.remove(&k);
                    }
                }
            }
            Ok(())
        }

        fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
            Ok(self.map.lock().unwrap().get(key).cloned())
        }

        fn snapshot(&self) -> Result<Box<dyn KvSnapshot>> {
            Ok(Box::new(MemSnapshot(self.map.lock().unwrap().clone())))
        }

        fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool> {
            let mut map = self.map.lock().unwrap();
            if map.contains_key(key) {
                Ok(false)
            } else {
                map.insert(key.to_vec(), value.to_vec());
                Ok(true)
            }
        }

        fn quiesce(&self) -> Result<()> {
            Ok(())
        }

        fn name(&self) -> &'static str {
            "mem"
        }
    }

    fn d(store: &MemStore, sessions: &mut SnapshotSessions, req: Request) -> Response {
        dispatch(store, sessions, req)
    }

    #[test]
    fn point_ops_round_trip() {
        let store = MemStore::default();
        let mut s = SnapshotSessions::new();
        let opts = WriteOptions::new();
        assert_eq!(
            d(
                &store,
                &mut s,
                Request::Put {
                    key: b"a".to_vec(),
                    value: b"1".to_vec(),
                    opts,
                }
            ),
            Response::Done
        );
        assert_eq!(
            d(&store, &mut s, Request::Get { key: b"a".to_vec() }),
            Response::Value(Some(b"1".to_vec()))
        );
        assert_eq!(
            d(
                &store,
                &mut s,
                Request::Delete {
                    key: b"a".to_vec(),
                    opts,
                }
            ),
            Response::Done
        );
        assert_eq!(
            d(&store, &mut s, Request::Get { key: b"a".to_vec() }),
            Response::Value(None)
        );
    }

    #[test]
    fn batch_scan_and_conditional_put() {
        let store = MemStore::default();
        let mut s = SnapshotSessions::new();
        let mut batch = WriteBatch::new();
        batch.put(b"a", b"1");
        batch.put(b"b", b"2");
        batch.put(b"c", b"3");
        batch.delete(b"b");
        assert_eq!(
            d(
                &store,
                &mut s,
                Request::Write {
                    batch,
                    opts: WriteOptions::new(),
                }
            ),
            Response::Done
        );
        assert_eq!(
            d(
                &store,
                &mut s,
                Request::Scan {
                    range: ScanRange::all(),
                    limit: 10,
                }
            ),
            Response::Entries(vec![
                (b"a".to_vec(), b"1".to_vec()),
                (b"c".to_vec(), b"3".to_vec()),
            ])
        );
        assert_eq!(
            d(
                &store,
                &mut s,
                Request::PutIfAbsent {
                    key: b"a".to_vec(),
                    value: b"x".to_vec(),
                }
            ),
            Response::Applied(false)
        );
        assert_eq!(
            d(
                &store,
                &mut s,
                Request::PutIfAbsent {
                    key: b"d".to_vec(),
                    value: b"4".to_vec(),
                }
            ),
            Response::Applied(true)
        );
    }

    #[test]
    fn snapshot_sessions_isolate_and_release() {
        let store = MemStore::default();
        let mut s = SnapshotSessions::new();
        store.put(b"k", b"old").unwrap();
        let id = match d(&store, &mut s, Request::SnapshotCreate) {
            Response::SnapshotId(id) => id,
            other => panic!("expected SnapshotId, got {other:?}"),
        };
        assert_ne!(id, 0, "0 must never be a live snapshot id");
        store.put(b"k", b"new").unwrap();
        // The snapshot still sees the old value; a live read sees the new.
        assert_eq!(
            d(
                &store,
                &mut s,
                Request::SnapshotGet {
                    snapshot: id,
                    key: b"k".to_vec(),
                }
            ),
            Response::Value(Some(b"old".to_vec()))
        );
        assert_eq!(
            d(&store, &mut s, Request::Get { key: b"k".to_vec() }),
            Response::Value(Some(b"new".to_vec()))
        );
        assert_eq!(
            d(
                &store,
                &mut s,
                Request::SnapshotScan {
                    snapshot: id,
                    range: ScanRange::all(),
                    limit: 10,
                }
            ),
            Response::Entries(vec![(b"k".to_vec(), b"old".to_vec())])
        );
        assert_eq!(
            d(&store, &mut s, Request::SnapshotRelease { snapshot: id }),
            Response::Done
        );
        assert!(s.is_empty());
        // Released (and never-issued) ids fail with a typed error, not
        // a panic.
        for bogus in [id, 0, 999] {
            match d(
                &store,
                &mut s,
                Request::SnapshotGet {
                    snapshot: bogus,
                    key: b"k".to_vec(),
                },
            ) {
                Response::Error(e) => {
                    assert!(e.message.contains("unknown snapshot"), "{e:?}");
                    assert!(!e.retryable);
                }
                other => panic!("expected Error, got {other:?}"),
            }
        }
    }

    #[test]
    fn errors_cross_as_structured_codes() {
        use clsm_util::error::ErrorKind;
        let err = Error::invalid_argument("bad limit");
        let wire = WireError::from_error(&err);
        assert_eq!(wire.code, ErrorKind::InvalidArgument.code());
        let back = wire.into_error();
        assert_eq!(back.kind(), ErrorKind::InvalidArgument);
        assert!(!back.is_retryable());
        assert!(back.to_string().contains("bad limit"));
    }

    #[test]
    fn request_names_are_stable() {
        // The wire protocol and per-opcode metrics key off these names;
        // renaming one is a compatibility break this test makes loud.
        let opts = WriteOptions::new;
        let cases: Vec<(Request, &str)> = vec![
            (Request::Get { key: vec![] }, "get"),
            (
                Request::Put {
                    key: vec![],
                    value: vec![],
                    opts: opts(),
                },
                "put",
            ),
            (
                Request::Delete {
                    key: vec![],
                    opts: opts(),
                },
                "delete",
            ),
            (
                Request::Write {
                    batch: WriteBatch::new(),
                    opts: opts(),
                },
                "write",
            ),
            (
                Request::PutIfAbsent {
                    key: vec![],
                    value: vec![],
                },
                "put_if_absent",
            ),
            (
                Request::Scan {
                    range: ScanRange::all(),
                    limit: 1,
                },
                "scan",
            ),
            (Request::SnapshotCreate, "snapshot_create"),
            (
                Request::SnapshotGet {
                    snapshot: 1,
                    key: vec![],
                },
                "snapshot_get",
            ),
            (
                Request::SnapshotScan {
                    snapshot: 1,
                    range: ScanRange::all(),
                    limit: 1,
                },
                "snapshot_scan",
            ),
            (Request::SnapshotRelease { snapshot: 1 }, "snapshot_release"),
            (Request::Stats, "stats"),
        ];
        for (req, want) in &cases {
            assert_eq!(req.name(), *want);
        }
    }
}
