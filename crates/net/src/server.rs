//! The `clsm-server` event loop: poll(2) workers over nonblocking
//! sockets, dispatching each request to the store.
//!
//! ## Architecture
//!
//! The server is `NetOptions::workers` threads. Each runs one readiness
//! loop over the shared nonblocking listener and its own connections:
//!
//! 1. poll the listener beside its connections, with a 50 ms timeout so
//!    that shutdown is noticed (the server's only timer),
//! 2. accept one connection if the listener is readable,
//! 3. drain every readable socket into that connection's
//!    [`FrameReader`],
//! 4. decode and execute the completed frames,
//! 5. flush response bytes, keeping `WouldBlock` remainders for the
//!    next tick, and drop the connections that are done.
//!
//! Every worker watches the listener, so a new connection wakes the
//! idle workers and one of them takes it; the others see `WouldBlock`.
//! Taking one connection a tick spreads a burst across the workers.
//! `max_connections` is one shared count: a connection is kept only
//! after a compare-and-swap takes a slot under it, and is otherwise
//! closed at once and counted in `net.conn_refused`.
//!
//! ## Dispatch discipline
//!
//! Step 4 executes every request — reads and writes alike — on its
//! own, in the order its connection sent it, through
//! [`clsm_kv::api::dispatch`]. A wire `Put`/`Delete` is therefore
//! Algorithm 2's shared-lock `put`, concurrent with every other writer
//! on the store; only a wire `Write` batch, whose atomicity the client
//! asked for, takes the store's exclusive batch route. Requests are
//! never merged across (or within) connections, so read-your-writes
//! holds per connection by construction. What *is* batched per tick is
//! the response side: every answer produced in step 4 is queued, and
//! step 5 hands each connection's whole queue to one `write` call.
//!
//! ## Failure containment
//!
//! A malformed frame poisons only its own connection: the worker sends
//! a best-effort connection-error frame (request id 0), closes the
//! socket, and counts `net.protocol_errors`. Neighboring connections
//! on the same worker are untouched. Store-level errors cross the wire
//! as structured codes (see [`clsm_kv::api::WireError`]) and fail only
//! their own request: a rejected put never fails the put decoded next
//! to it. A peer that half-closes still gets every answer before its
//! socket closes. A connection with more than 16 × 256 KiB of answers
//! waiting runs no further request until its peer reads them, and is
//! cut once a whole tick passes with it over that bound and its peer
//! taking no byte: a peer that stops reading costs the server that
//! bound, not its whole pipeline.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use clsm_kv::api::{dispatch, Request, Response, SnapshotSessions};
use clsm_kv::KvStore;
use clsm_util::error::{Error, Result};
use clsm_util::metrics::{ConcurrentHistogram, Counter, MetricsRegistry};

use crate::frame::{write_frame, FrameReader, READ_BUFFER_BYTES};
use crate::poll::{poll_fds, PollFd, POLLIN, POLLOUT};
use crate::proto::{self, WireRequest};
use crate::NetOptions;

/// Once a connection's already-sent response prefix passes this many
/// bytes, its output buffer is compacted.
const WRITE_BUFFER_BYTES: usize = 256 * 1024;

/// Hard multiple of [`WRITE_BUFFER_BYTES`] past which a connection that
/// is not draining its responses is closed as a slow consumer.
const SLOW_CONSUMER_MULTIPLE: usize = 16;

/// Answers a connection may have waiting before its next frame waits
/// too: the slow-consumer bound.
const MAX_PENDING_OUT: usize = WRITE_BUFFER_BYTES * SLOW_CONSUMER_MULTIPLE;

/// How long a worker waits in poll(2): the bound on how late it
/// notices shutdown.
const POLL_TIMEOUT_MS: i32 = 50;

/// Starts serving `store` per `opts`; returns once the listener is
/// bound and workers are running.
pub fn serve(store: Arc<dyn KvStore>, opts: &NetOptions) -> Result<ServerHandle> {
    opts.validate()?;
    let listener = TcpListener::bind(&opts.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let registry = MetricsRegistry::new();
    let live_conns = Arc::new(AtomicUsize::new(0));
    let live = Arc::clone(&live_conns);
    registry.gauge_fn("net.connections", move || {
        live.load(Ordering::Relaxed) as i64
    });
    let shared = Arc::new(Shared {
        store,
        listener,
        max_connections: opts.max_connections,
        max_frame_bytes: opts.max_frame_bytes,
        shutdown: AtomicBool::new(false),
        live_conns,
        accepts: registry.counter("net.accepts"),
        refused: registry.counter("net.conn_refused"),
        requests: registry.counter("net.requests"),
        protocol_errors: registry.counter("net.protocol_errors"),
        bytes_read: registry.counter("net.bytes_read"),
        bytes_written: registry.counter("net.bytes_written"),
        registry,
    });

    // A failed spawn drops the handle, which stops and joins the
    // workers already running.
    let mut handle = ServerHandle {
        addr,
        shared,
        threads: Vec::with_capacity(opts.workers),
    };
    for w in 0..opts.workers {
        let worker = Worker::new(Arc::clone(&handle.shared));
        let thread = std::thread::Builder::new()
            .name(format!("clsm-net-worker-{w}"))
            .spawn(move || worker.run())?;
        handle.threads.push(thread);
    }
    Ok(handle)
}

/// What every worker shares: the store, the listener, the connection
/// count and the `net.*` metrics.
struct Shared {
    store: Arc<dyn KvStore>,
    listener: TcpListener,
    max_connections: usize,
    max_frame_bytes: usize,
    shutdown: AtomicBool,
    /// Kept connections; `net.connections` reads it.
    live_conns: Arc<AtomicUsize>,
    registry: MetricsRegistry,
    accepts: Arc<Counter>,
    refused: Arc<Counter>,
    requests: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    bytes_read: Arc<Counter>,
    bytes_written: Arc<Counter>,
}

/// A running server: the bound address plus the thread lifecycle.
///
/// Dropping the handle shuts the server down and joins its threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("shut_down", &self.shared.shutdown.load(Ordering::Relaxed))
            .finish()
    }
}

impl ServerHandle {
    /// The actually bound address (resolves port 0 requests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's `net.*` metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.shared.registry
    }

    /// Blocks until the server stops (a client sent the shutdown
    /// opcode, or another handle owner requested it).
    pub fn wait(mut self) {
        self.join_threads();
    }

    /// Requests shutdown and joins all server threads.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.join_threads();
    }

    fn join_threads(&mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.join_threads();
    }
}

// ---------------------------------------------------------------------
// Connection state.
// ---------------------------------------------------------------------

struct Conn {
    stream: TcpStream,
    frames: FrameReader,
    sessions: SnapshotSessions,
    /// Encoded responses not yet written to the socket.
    out: Vec<u8>,
    /// Write cursor into `out`.
    out_pos: usize,
    /// The last flush left more than [`MAX_PENDING_OUT`] waiting.
    over_bound: bool,
    /// The peer sent end-of-stream: nothing more to read, but its
    /// answers are still owed.
    eof: bool,
    dead: bool,
}

impl Conn {
    fn queue_frame(&mut self, payload: &[u8]) {
        write_frame(&mut self.out, payload);
    }

    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Whether its next request can run now: one has arrived whole (or
    /// a framing error waits to be reported), and the answers already
    /// waiting are within the slow-consumer bound.
    fn runnable(&self) -> bool {
        !self.dead && self.pending_out() <= MAX_PENDING_OUT && self.frames.has_frame()
    }

    /// Closed, or half-closed by the peer with every request run and
    /// every answer written.
    fn done(&self) -> bool {
        self.dead || (self.eof && self.pending_out() == 0 && !self.frames.has_frame())
    }
}

// ---------------------------------------------------------------------
// Worker.
// ---------------------------------------------------------------------

struct Worker {
    shared: Arc<Shared>,
    conns: Vec<Conn>,
    /// The poll set, refilled every tick: the listener, then `conns`.
    fds: Vec<PollFd>,
    /// The buffer every socket read lands in.
    chunk: Box<[u8]>,
    op_latency: HashMap<&'static str, Arc<ConcurrentHistogram>>,
}

impl Worker {
    fn new(shared: Arc<Shared>) -> Self {
        Worker {
            shared,
            conns: Vec::new(),
            fds: Vec::new(),
            chunk: vec![0u8; READ_BUFFER_BYTES].into_boxed_slice(),
            op_latency: HashMap::new(),
        }
    }

    fn run(mut self) {
        while !self.shared.shutdown.load(Ordering::Relaxed) {
            if self.poll() {
                self.accept();
            }
            self.read_ready();
            self.process_frames();
            self.flush_writes();
            self.reap_done();
        }
        // Graceful exit: give queued responses (e.g. the shutdown ack)
        // a brief chance to drain before the sockets close.
        for _ in 0..20 {
            self.flush_writes();
            if self.conns.iter().all(|c| c.pending_out() == 0 || c.dead) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.shared
            .live_conns
            .fetch_sub(self.conns.len(), Ordering::Relaxed);
    }

    /// Waits until the listener or a connection is ready, or the poll
    /// times out, without waiting while a request is runnable; returns
    /// whether the listener is readable.
    fn poll(&mut self) -> bool {
        let timeout = if self.conns.iter().any(Conn::runnable) {
            0
        } else {
            POLL_TIMEOUT_MS
        };
        self.fds.clear();
        self.fds
            .push(PollFd::new(self.shared.listener.as_raw_fd(), POLLIN));
        self.fds.extend(self.conns.iter().map(|c| {
            let mut events = if c.eof { 0 } else { POLLIN };
            if c.pending_out() > 0 {
                events |= POLLOUT;
            }
            PollFd::new(c.stream.as_raw_fd(), events)
        }));
        let _ = poll_fds(&mut self.fds, timeout);
        self.fds[0].revents != 0
    }

    /// Takes one pending connection, and keeps it if a slot under
    /// `max_connections` is free.
    fn accept(&mut self) {
        let shared = &self.shared;
        // `WouldBlock` means another worker took it; any other error
        // belongs to that one pending connection.
        let Ok((stream, _peer)) = shared.listener.accept() else {
            return;
        };
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let slot = shared
            .live_conns
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < shared.max_connections).then_some(n + 1)
            });
        if slot.is_err() {
            // At capacity: refuse by closing at once.
            shared.refused.inc();
            return;
        }
        let _ = stream.set_nodelay(true);
        shared.accepts.inc();
        self.conns.push(Conn {
            stream,
            frames: FrameReader::new(shared.max_frame_bytes),
            sessions: SnapshotSessions::new(),
            out: Vec::new(),
            out_pos: 0,
            over_bound: false,
            eof: false,
            dead: false,
        });
    }

    /// Drains every socket that has bytes (readiness was just polled,
    /// but reading everything nonblocking is correct regardless —
    /// `WouldBlock` simply ends a connection's drain).
    fn read_ready(&mut self) {
        for conn in &mut self.conns {
            while !conn.eof && !conn.dead {
                match conn.stream.read(&mut self.chunk) {
                    Ok(0) => conn.eof = true,
                    Ok(n) => {
                        self.shared.bytes_read.add(n as u64);
                        conn.frames.feed(&self.chunk[..n]);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => conn.dead = true,
                }
            }
        }
    }

    /// Decodes and executes the complete frames, one request at a time.
    /// A connection whose waiting answers pass the slow-consumer bound
    /// runs no more until the peer reads them; `flush_writes` cuts it
    /// if it does not.
    fn process_frames(&mut self) {
        for i in 0..self.conns.len() {
            // A protocol violation marks the connection dead.
            while self.conns[i].runnable() {
                let frame = match self.conns[i].frames.next_frame() {
                    Ok(Some(f)) => f,
                    Ok(None) => break,
                    Err(e) => {
                        self.fail_connection(i, &e);
                        continue;
                    }
                };
                let (id, req) = match proto::decode_request(&frame) {
                    Ok(decoded) => decoded,
                    Err(e) => {
                        self.fail_connection(i, &e);
                        continue;
                    }
                };
                self.shared.requests.inc();
                match req {
                    WireRequest::Shutdown => {
                        self.respond(i, id, &Response::Done);
                        self.shared.shutdown.store(true, Ordering::Relaxed);
                    }
                    WireRequest::Op(Request::Stats) => {
                        let began = Instant::now();
                        let text = format!(
                            "{}{}",
                            self.shared.registry.snapshot().to_text(),
                            self.shared.store.stats().to_text()
                        );
                        self.respond(i, id, &Response::Stats(text));
                        self.record_latency("stats", began);
                    }
                    WireRequest::Op(req) => {
                        let name = req.name();
                        let began = Instant::now();
                        let store = self.shared.store.as_ref();
                        let resp = dispatch(store, &mut self.conns[i].sessions, req);
                        self.respond(i, id, &resp);
                        self.record_latency(name, began);
                    }
                }
            }
        }
    }

    fn respond(&mut self, conn: usize, id: u64, resp: &Response) {
        let payload = proto::encode_response(id, resp);
        self.conns[conn].queue_frame(&payload);
    }

    fn record_latency(&mut self, op: &'static str, began: Instant) {
        if !self.op_latency.contains_key(op) {
            let hist = self.shared.registry.histogram(&format!("net.op.{op}_ns"));
            self.op_latency.insert(op, hist);
        }
        self.op_latency[op].record(began.elapsed().as_nanos() as u64);
    }

    /// Poisons one connection after a protocol violation: best-effort
    /// error frame, then close. Other connections are unaffected.
    fn fail_connection(&mut self, conn: usize, err: &Error) {
        self.shared.protocol_errors.inc();
        let payload = proto::encode_connection_error(err);
        let c = &mut self.conns[conn];
        c.queue_frame(&payload);
        c.dead = true;
    }

    /// Writes as much queued output as each socket accepts, and cuts a
    /// connection that stayed over the slow-consumer bound a whole tick
    /// with its peer taking no byte.
    fn flush_writes(&mut self) {
        for conn in &mut self.conns {
            let waiting = conn.pending_out();
            while conn.pending_out() > 0 {
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => {
                        self.shared.bytes_written.add(n as u64);
                        conn.out_pos += n;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            if conn.out_pos == conn.out.len() {
                conn.out.clear();
                conn.out_pos = 0;
            } else if conn.out_pos > WRITE_BUFFER_BYTES {
                // Compact the drained prefix so the buffer doesn't
                // grow monotonically under sustained pipelining.
                conn.out.drain(..conn.out_pos);
                conn.out_pos = 0;
            }
            // Over the bound since the last flush, no request ran, so
            // an unchanged count means the peer took nothing.
            if conn.over_bound && conn.pending_out() == waiting {
                conn.dead = true;
            }
            conn.over_bound = conn.pending_out() > MAX_PENDING_OUT;
        }
    }

    /// Drops the connections that are done. `flush_writes` runs before
    /// this in every tick, so a connection killed for a protocol
    /// violation has already had one chance to push its final error
    /// frame out.
    fn reap_done(&mut self) {
        let before = self.conns.len();
        self.conns.retain(|c| !c.done());
        let reaped = before - self.conns.len();
        if reaped > 0 {
            self.shared.live_conns.fetch_sub(reaped, Ordering::Relaxed);
        }
    }
}
