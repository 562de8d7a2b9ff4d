//! The `clsm-client` library: a pipelined connection pool and a
//! [`RemoteStore`] that implements [`KvStore`] over TCP.
//!
//! Each pooled connection has a dedicated reader thread that decodes
//! response frames and wakes the waiting caller by request id, so any
//! number of application threads can keep requests in flight on the
//! same socket — the pipelining the protocol was framed for.
//! `PIPELINE_DEPTH` bounds in-flight requests per
//! connection; senders block (briefly) when the pipeline is full,
//! which is the client-side analogue of the server's admission
//! control.
//!
//! [`RemoteStore`] makes the process boundary transparent to the rest
//! of the workspace: the workload driver measures client-observed
//! latency, and the PR 5 history recorder wraps it unchanged so
//! `clsm-check` audits what clients actually saw over the wire.
//! Snapshots pin to the connection that created them — snapshot ids
//! are a per-connection namespace on the server.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use clsm_kv::api::{Request, Response};
use clsm_kv::{KvSnapshot, KvStore, Result, ScanRange, WriteBatch, WriteOptions};
use clsm_util::error::Error;

use crate::frame::{write_frame, FrameReader, READ_BUFFER_BYTES};
use crate::proto;
use crate::server::ServerHandle;
use crate::NetOptions;

/// Cap on entries per scan request; the scan API itself takes a limit,
/// this is just the largest the remote store will request at once.
const MAX_SCAN_LIMIT: usize = u32::MAX as usize;

/// Per-connection cap on in-flight pipelined requests; senders block
/// once the pipeline is this deep.
const PIPELINE_DEPTH: usize = 64;

struct ConnState {
    next_id: u64,
    /// `None` = request sent, response pending.
    waiting: HashMap<u64, Option<Response>>,
    in_flight: usize,
    /// Set once when the connection fails; every current and future
    /// caller gets a clone of this error.
    dead: Option<String>,
}

struct Conn {
    /// Write side; the reader thread owns a `try_clone` of the stream.
    stream: Mutex<TcpStream>,
    state: Mutex<ConnState>,
    cv: Condvar,
}

impl Conn {
    fn fail(&self, reason: String) {
        let mut st = self.state.lock().unwrap();
        if st.dead.is_none() {
            st.dead = Some(reason);
        }
        self.cv.notify_all();
    }

    fn dead_error(reason: &str) -> Error {
        Error::from_wire(
            clsm_util::error::ErrorKind::Io.code(),
            format!("connection failed: {reason}"),
            true,
        )
    }

    /// Sends `payload` as one frame and blocks until its response
    /// arrives (other threads' responses are delivered independently).
    fn call_payload(&self, id: u64, payload: &[u8]) -> Result<Response> {
        {
            let mut st = self.state.lock().unwrap();
            while st.dead.is_none() && st.in_flight >= PIPELINE_DEPTH {
                st = self.cv.wait(st).unwrap();
            }
            if let Some(reason) = &st.dead {
                return Err(Self::dead_error(reason));
            }
            st.in_flight += 1;
            st.waiting.insert(id, None);
        }

        let mut framed = Vec::with_capacity(payload.len() + 4);
        write_frame(&mut framed, payload);
        let write_result = {
            let mut stream = self.stream.lock().unwrap();
            stream.write_all(&framed)
        };
        if let Err(e) = write_result {
            self.fail(e.to_string());
        }

        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(slot) = st.waiting.get_mut(&id) {
                if let Some(resp) = slot.take() {
                    st.waiting.remove(&id);
                    st.in_flight -= 1;
                    self.cv.notify_all();
                    return Ok(resp);
                }
            }
            if let Some(reason) = &st.dead {
                let reason = reason.clone();
                st.waiting.remove(&id);
                st.in_flight -= 1;
                return Err(Self::dead_error(&reason));
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    fn next_id(&self) -> u64 {
        let mut st = self.state.lock().unwrap();
        st.next_id += 1;
        st.next_id
    }
}

fn reader_loop(conn: &Conn, mut stream: TcpStream, max_frame_bytes: usize) {
    let mut frames = FrameReader::new(max_frame_bytes);
    let mut chunk = vec![0u8; READ_BUFFER_BYTES];
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => {
                conn.fail("connection closed by server".to_string());
                return;
            }
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                conn.fail(e.to_string());
                return;
            }
        };
        frames.feed(&chunk[..n]);
        loop {
            let frame = match frames.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(e) => {
                    conn.fail(e.to_string());
                    return;
                }
            };
            let (id, resp) = match proto::decode_response(&frame) {
                Ok(decoded) => decoded,
                Err(e) => {
                    conn.fail(e.to_string());
                    return;
                }
            };
            if proto::is_connection_error(id, &resp) {
                let reason = match resp {
                    Response::Error(e) => e.message,
                    _ => unreachable!(),
                };
                conn.fail(reason);
                return;
            }
            let mut st = conn.state.lock().unwrap();
            if let Some(slot) = st.waiting.get_mut(&id) {
                *slot = Some(resp);
                conn.cv.notify_all();
            }
            // An unknown id (caller gave up) is silently dropped.
        }
    }
}

/// A pool of pipelined connections to one `clsm-server`.
pub struct Client {
    conns: Vec<Arc<Conn>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    next_conn: AtomicUsize,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("connections", &self.conns.len())
            .finish()
    }
}

impl Client {
    /// Opens `opts.connections` connections to `opts.addr`.
    pub fn connect(opts: &NetOptions) -> Result<Client> {
        opts.validate()?;
        let mut conns = Vec::with_capacity(opts.connections);
        let mut readers = Vec::with_capacity(opts.connections);
        for i in 0..opts.connections {
            let stream = TcpStream::connect(&opts.addr)?;
            let _ = stream.set_nodelay(true);
            let read_half = stream.try_clone()?;
            let conn = Arc::new(Conn {
                stream: Mutex::new(stream),
                state: Mutex::new(ConnState {
                    next_id: 0,
                    waiting: HashMap::new(),
                    in_flight: 0,
                    dead: None,
                }),
                cv: Condvar::new(),
            });
            let reader_conn = Arc::clone(&conn);
            let max_frame = opts.max_frame_bytes;
            readers.push(
                std::thread::Builder::new()
                    .name(format!("clsm-client-reader-{i}"))
                    .spawn(move || reader_loop(&reader_conn, read_half, max_frame))
                    .map_err(Error::from)?,
            );
            conns.push(conn);
        }
        Ok(Client {
            conns,
            readers: Mutex::new(readers),
            next_conn: AtomicUsize::new(0),
        })
    }

    /// Number of pooled connections.
    pub(crate) fn connections(&self) -> usize {
        self.conns.len()
    }

    fn pick(&self) -> usize {
        self.next_conn.fetch_add(1, Ordering::Relaxed) % self.conns.len()
    }

    /// Issues one request on a round-robin connection.
    pub fn call(&self, req: &Request) -> Result<Response> {
        self.call_on(self.pick(), req)
    }

    /// Issues one request on a specific pooled connection (snapshot
    /// operations must stay on the connection that created the
    /// snapshot).
    pub(crate) fn call_on(&self, conn: usize, req: &Request) -> Result<Response> {
        let conn = &self.conns[conn % self.conns.len()];
        let id = conn.next_id();
        conn.call_payload(id, &proto::encode_request(id, req))
    }

    /// Fetches the server's merged stats text (`net.*` plus the
    /// store's own registry).
    pub fn stats_text(&self) -> Result<String> {
        match self.call(&Request::Stats)? {
            Response::Stats(text) => Ok(text),
            Response::Error(e) => Err(e.into_error()),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Asks the server to shut down cleanly.
    pub fn shutdown_server(&self) -> Result<()> {
        let conn = &self.conns[0];
        let id = conn.next_id();
        match conn.call_payload(id, &proto::encode_shutdown(id))? {
            Response::Done => Ok(()),
            Response::Error(e) => Err(e.into_error()),
            other => Err(unexpected("Shutdown", &other)),
        }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        for conn in &self.conns {
            if let Ok(stream) = conn.stream.lock() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
            conn.fail("client closed".to_string());
        }
        if let Ok(mut readers) = self.readers.lock() {
            for r in readers.drain(..) {
                let _ = r.join();
            }
        }
    }
}

fn unexpected(what: &str, got: &Response) -> Error {
    Error::protocol(format!("unexpected response to {what}: {got:?}"))
}

/// Converts a response into the caller's `Result`, mapping wire errors
/// back into typed [`Error`]s.
fn expect_done(resp: Response) -> Result<()> {
    match resp {
        Response::Done => Ok(()),
        Response::Error(e) => Err(e.into_error()),
        other => Err(unexpected("write", &other)),
    }
}

fn expect_value(resp: Response) -> Result<Option<Vec<u8>>> {
    match resp {
        Response::Value(v) => Ok(v),
        Response::Error(e) => Err(e.into_error()),
        other => Err(unexpected("read", &other)),
    }
}

fn expect_entries(resp: Response) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    match resp {
        Response::Entries(entries) => Ok(entries),
        Response::Error(e) => Err(e.into_error()),
        other => Err(unexpected("scan", &other)),
    }
}

/// A [`KvStore`] whose backing store is on the other side of a TCP
/// connection. May optionally own the in-process [`ServerHandle`] it
/// talks to, which keeps embedded-server setups (tests, the checker
/// SUT, the bench system) alive exactly as long as the store.
pub struct RemoteStore {
    client: Arc<Client>,
    sequence: AtomicU64,
    /// Held only to tie an embedded server's lifetime to the store.
    server: Option<ServerHandle>,
}

impl std::fmt::Debug for RemoteStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteStore")
            .field("connections", &self.client.connections())
            .field("embedded_server", &self.server.is_some())
            .finish()
    }
}

impl RemoteStore {
    /// Connects to an already running server.
    pub fn connect(opts: &NetOptions) -> Result<RemoteStore> {
        Ok(RemoteStore {
            client: Arc::new(Client::connect(opts)?),
            sequence: AtomicU64::new(0),
            server: None,
        })
    }

    /// Serves `store` on a loopback port and connects to it; the
    /// server lives exactly as long as the returned `RemoteStore`.
    pub fn with_embedded_server(store: Arc<dyn KvStore>, opts: &NetOptions) -> Result<RemoteStore> {
        let server = crate::server::serve(store, opts)?;
        let mut connect_opts = opts.clone();
        connect_opts.addr = server.addr().to_string();
        Ok(RemoteStore {
            client: Arc::new(Client::connect(&connect_opts)?),
            sequence: AtomicU64::new(0),
            server: Some(server),
        })
    }

    /// The underlying connection pool.
    pub fn client(&self) -> &Client {
        &self.client
    }
}

impl KvStore for RemoteStore {
    fn write(&self, batch: WriteBatch, opts: &WriteOptions) -> Result<()> {
        expect_done(self.client.call(&Request::Write { batch, opts: *opts })?)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        expect_value(self.client.call(&Request::Get { key: key.to_vec() })?)
    }

    fn snapshot(&self) -> Result<Box<dyn KvSnapshot>> {
        // Pin the snapshot to one connection: ids are a per-connection
        // namespace on the server. Spread creators across the pool.
        let conn =
            (self.sequence.fetch_add(1, Ordering::Relaxed) as usize) % self.client.connections();
        match self.client.call_on(conn, &Request::SnapshotCreate)? {
            Response::SnapshotId(id) => Ok(Box::new(RemoteSnapshot {
                client: Arc::clone(&self.client),
                conn,
                id,
            })),
            Response::Error(e) => Err(e.into_error()),
            other => Err(unexpected("SnapshotCreate", &other)),
        }
    }

    fn scan(&self, range: ScanRange, limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        expect_entries(self.client.call(&Request::Scan {
            range,
            limit: limit.min(MAX_SCAN_LIMIT) as u32,
        })?)
    }

    fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool> {
        match self.client.call(&Request::PutIfAbsent {
            key: key.to_vec(),
            value: value.to_vec(),
        })? {
            Response::Applied(applied) => Ok(applied),
            Response::Error(e) => Err(e.into_error()),
            other => Err(unexpected("PutIfAbsent", &other)),
        }
    }

    fn quiesce(&self) -> Result<()> {
        // Flush/compaction scheduling is the server's concern; from the
        // client there is nothing to wait on beyond responses, which
        // `call` already does.
        Ok(())
    }

    fn name(&self) -> &'static str {
        "cLSM-net"
    }
}

/// A server-side snapshot reached through the connection that created
/// it. Dropping it releases the server-side handle (best effort).
struct RemoteSnapshot {
    client: Arc<Client>,
    conn: usize,
    id: u64,
}

impl KvSnapshot for RemoteSnapshot {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        expect_value(self.client.call_on(
            self.conn,
            &Request::SnapshotGet {
                snapshot: self.id,
                key: key.to_vec(),
            },
        )?)
    }

    fn scan(&self, range: ScanRange, limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        expect_entries(self.client.call_on(
            self.conn,
            &Request::SnapshotScan {
                snapshot: self.id,
                range,
                limit: limit.min(MAX_SCAN_LIMIT) as u32,
            },
        )?)
    }
}

impl Drop for RemoteSnapshot {
    fn drop(&mut self) {
        let _ = self
            .client
            .call_on(self.conn, &Request::SnapshotRelease { snapshot: self.id });
    }
}
