//! The `clsm-server` event loop: poll(2) workers over nonblocking
//! sockets, dispatching each request to the store.
//!
//! ## Architecture
//!
//! One acceptor thread owns the listener and deals accepted
//! connections to `NetOptions::workers` event-loop workers round-robin.
//! Each worker runs a classic readiness loop:
//!
//! 1. poll its connections (plus a 50 ms timeout so shutdown and
//!    freshly dealt connections are noticed),
//! 2. drain every readable socket into that connection's
//!    [`FrameReader`],
//! 3. decode and execute the completed frames,
//! 4. flush response bytes, keeping `WouldBlock` remainders for the
//!    next tick.
//!
//! ## Dispatch discipline
//!
//! Step 3 executes every request — reads and writes alike — on its
//! own, in the order its connection sent it, through
//! [`clsm_kv::api::dispatch`]. A wire `Put`/`Delete` is therefore
//! Algorithm 2's shared-lock `put`, concurrent with every other writer
//! on the store; only a wire `Write` batch, whose atomicity the client
//! asked for, takes the store's exclusive batch route. Requests are
//! never merged across (or within) connections, so read-your-writes
//! holds per connection by construction. What *is* batched per tick is
//! the response side: every answer produced in step 3 is queued, and
//! step 4 hands each connection's whole queue to one `write` call.
//!
//! ## Failure containment
//!
//! A malformed frame poisons only its own connection: the worker sends
//! a best-effort connection-error frame (request id 0), closes the
//! socket, and counts `net.protocol_errors`. Neighboring connections
//! on the same worker are untouched. Store-level errors cross the wire
//! as structured codes (see [`clsm_kv::api::WireError`]) and fail only
//! their own request: a rejected put never fails the put decoded next
//! to it.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use clsm_kv::api::{dispatch, Request, Response, SnapshotSessions};
use clsm_kv::KvStore;
use clsm_util::error::{Error, Result};
use clsm_util::metrics::{ConcurrentHistogram, Counter, Gauge, MetricsRegistry};

use crate::frame::{write_frame, FrameReader};
use crate::poll::{poll_fds, PollFd, POLLIN, POLLOUT};
use crate::proto::{self, WireRequest};
use crate::NetOptions;

/// Hard multiple of `write_buffer_bytes` past which a connection that
/// is not draining its responses is closed as a slow consumer.
const SLOW_CONSUMER_MULTIPLE: usize = 16;

/// Starts serving `store` per `opts`; returns once the listener is
/// bound and workers are running.
pub fn serve(store: Arc<dyn KvStore>, opts: &NetOptions) -> Result<ServerHandle> {
    opts.validate()?;
    let listener = TcpListener::bind(&opts.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let registry = Arc::new(MetricsRegistry::new());
    let shutdown = Arc::new(AtomicBool::new(false));
    let live_conns = Arc::new(AtomicUsize::new(0));

    let mut threads = Vec::with_capacity(opts.workers + 1);
    let mut senders: Vec<Sender<TcpStream>> = Vec::with_capacity(opts.workers);
    for w in 0..opts.workers {
        let (tx, rx) = channel();
        senders.push(tx);
        let worker = Worker::new(
            Arc::clone(&store),
            opts.clone(),
            Arc::clone(&registry),
            Arc::clone(&shutdown),
            Arc::clone(&live_conns),
            rx,
        );
        threads.push(
            std::thread::Builder::new()
                .name(format!("clsm-net-worker-{w}"))
                .spawn(move || worker.run())
                .map_err(Error::from)?,
        );
    }

    let acceptor = Acceptor {
        listener,
        senders,
        opts: opts.clone(),
        shutdown: Arc::clone(&shutdown),
        live_conns,
        accepts: registry.counter("net.accepts"),
        refused: registry.counter("net.conn_refused"),
    };
    threads.push(
        std::thread::Builder::new()
            .name("clsm-net-acceptor".to_string())
            .spawn(move || acceptor.run())
            .map_err(Error::from)?,
    );

    Ok(ServerHandle {
        addr,
        shutdown,
        threads,
        registry,
    })
}

/// A running server: the bound address plus the thread lifecycle.
///
/// Dropping the handle shuts the server down and joins its threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    registry: Arc<MetricsRegistry>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("shut_down", &self.shutdown.load(Ordering::Relaxed))
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
        &self.registry
    }

    /// Whether shutdown has been requested (e.g. by the wire opcode).
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Blocks until the server stops (a client sent the shutdown
    /// opcode, or another handle owner requested it).
    pub fn wait(mut self) {
        self.join_threads();
    }

    /// Requests shutdown and joins all server threads.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
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
        self.shutdown.store(true, Ordering::Relaxed);
        self.join_threads();
    }
}

// ---------------------------------------------------------------------
// Acceptor.
// ---------------------------------------------------------------------

struct Acceptor {
    listener: TcpListener,
    senders: Vec<Sender<TcpStream>>,
    opts: NetOptions,
    shutdown: Arc<AtomicBool>,
    live_conns: Arc<AtomicUsize>,
    accepts: Arc<Counter>,
    refused: Arc<Counter>,
}

impl Acceptor {
    fn run(self) {
        use std::os::fd::AsRawFd;
        let mut next = 0usize;
        let mut fds = [PollFd::new(self.listener.as_raw_fd(), POLLIN)];
        while !self.shutdown.load(Ordering::Relaxed) {
            let _ = poll_fds(&mut fds, 100);
            loop {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        if self.live_conns.load(Ordering::Relaxed) >= self.opts.max_connections {
                            // At capacity: refuse by closing immediately.
                            self.refused.inc();
                            drop(stream);
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        self.accepts.inc();
                        self.live_conns.fetch_add(1, Ordering::Relaxed);
                        // Round-robin deal; a worker that exited means
                        // the server is shutting down anyway.
                        if self.senders[next % self.senders.len()]
                            .send(stream)
                            .is_err()
                        {
                            self.live_conns.fetch_sub(1, Ordering::Relaxed);
                            return;
                        }
                        next = next.wrapping_add(1);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return,
                }
            }
        }
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
    dead: bool,
}

impl Conn {
    fn queue_frame(&mut self, payload: &[u8]) {
        write_frame(&mut self.out, payload);
    }

    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

// ---------------------------------------------------------------------
// Worker.
// ---------------------------------------------------------------------

struct Worker {
    store: Arc<dyn KvStore>,
    opts: NetOptions,
    registry: Arc<MetricsRegistry>,
    shutdown: Arc<AtomicBool>,
    live_conns: Arc<AtomicUsize>,
    incoming: Receiver<TcpStream>,
    conns: Vec<Conn>,

    // Metrics (registered once, recorded lock-free).
    requests: Arc<Counter>,
    responses: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    bytes_read: Arc<Counter>,
    bytes_written: Arc<Counter>,
    connections: Arc<Gauge>,
    op_latency: HashMap<&'static str, Arc<ConcurrentHistogram>>,
}

impl Worker {
    fn new(
        store: Arc<dyn KvStore>,
        opts: NetOptions,
        registry: Arc<MetricsRegistry>,
        shutdown: Arc<AtomicBool>,
        live_conns: Arc<AtomicUsize>,
        incoming: Receiver<TcpStream>,
    ) -> Self {
        let requests = registry.counter("net.requests");
        let responses = registry.counter("net.responses");
        let protocol_errors = registry.counter("net.protocol_errors");
        let bytes_read = registry.counter("net.bytes_read");
        let bytes_written = registry.counter("net.bytes_written");
        let connections = registry.gauge("net.connections");
        Worker {
            store,
            opts,
            registry,
            shutdown,
            live_conns,
            incoming,
            conns: Vec::new(),
            requests,
            responses,
            protocol_errors,
            bytes_read,
            bytes_written,
            connections,
            op_latency: HashMap::new(),
        }
    }

    fn run(mut self) {
        while !self.shutdown.load(Ordering::Relaxed) {
            self.adopt_new_conns();
            if self.conns.is_empty() {
                std::thread::sleep(std::time::Duration::from_millis(10));
                continue;
            }
            self.poll_conns();
            self.read_ready();
            self.process_frames();
            self.flush_writes();
            self.reap_dead();
        }
        // Graceful exit: give queued responses (e.g. the shutdown ack)
        // a brief chance to drain before the sockets close.
        for _ in 0..20 {
            self.flush_writes();
            if self.conns.iter().all(|c| c.pending_out() == 0 || c.dead) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let remaining = self.conns.len();
        if remaining > 0 {
            self.live_conns.fetch_sub(remaining, Ordering::Relaxed);
            self.connections.sub(remaining as i64);
        }
    }

    fn adopt_new_conns(&mut self) {
        loop {
            match self.incoming.try_recv() {
                Ok(stream) => {
                    self.connections.add(1);
                    self.conns.push(Conn {
                        stream,
                        frames: FrameReader::new(self.opts.max_frame_bytes),
                        sessions: SnapshotSessions::new(),
                        out: Vec::new(),
                        out_pos: 0,
                        dead: false,
                    });
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => break,
            }
        }
    }

    fn poll_conns(&mut self) {
        use std::os::fd::AsRawFd;
        let mut fds: Vec<PollFd> = self
            .conns
            .iter()
            .map(|c| {
                let mut events = POLLIN;
                if c.pending_out() > 0 {
                    events |= POLLOUT;
                }
                PollFd::new(c.stream.as_raw_fd(), events)
            })
            .collect();
        let _ = poll_fds(&mut fds, 50);
    }

    /// Drains every socket that has bytes (readiness was just polled,
    /// but reading everything nonblocking is correct regardless —
    /// `WouldBlock` simply ends a connection's drain).
    fn read_ready(&mut self) {
        let mut chunk = vec![0u8; self.opts.read_buffer_bytes];
        for conn in &mut self.conns {
            if conn.dead {
                continue;
            }
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => {
                        self.bytes_read.add(n as u64);
                        conn.frames.feed(&chunk[..n]);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
        }
    }

    /// Decodes and executes all complete frames, one request at a time.
    fn process_frames(&mut self) {
        for i in 0..self.conns.len() {
            loop {
                let frame = match self.conns[i].frames.next_frame() {
                    Ok(Some(f)) => f,
                    Ok(None) => break,
                    Err(e) => {
                        self.fail_connection(i, &e);
                        break;
                    }
                };
                let (id, req) = match proto::decode_request(&frame) {
                    Ok(decoded) => decoded,
                    Err(e) => {
                        self.fail_connection(i, &e);
                        break;
                    }
                };
                self.requests.inc();
                match req {
                    WireRequest::Shutdown => {
                        self.respond(i, id, &Response::Done);
                        self.shutdown.store(true, Ordering::Relaxed);
                    }
                    WireRequest::Op(Request::Stats) => {
                        let began = Instant::now();
                        let text = format!(
                            "{}{}",
                            self.registry.snapshot().to_text(),
                            self.store.stats().to_text()
                        );
                        self.respond(i, id, &Response::Stats(text));
                        self.record_latency("stats", began);
                    }
                    WireRequest::Op(req) => {
                        let name = req.name();
                        let began = Instant::now();
                        let resp = dispatch(self.store.as_ref(), &mut self.conns[i].sessions, req);
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
        self.responses.inc();
    }

    fn record_latency(&mut self, op: &'static str, began: Instant) {
        if !self.op_latency.contains_key(op) {
            let hist = self.registry.histogram(&format!("net.op.{op}_ns"));
            self.op_latency.insert(op, hist);
        }
        self.op_latency[op].record(began.elapsed().as_nanos() as u64);
    }

    /// Poisons one connection after a protocol violation: best-effort
    /// error frame, then close. Other connections are unaffected.
    fn fail_connection(&mut self, conn: usize, err: &Error) {
        self.protocol_errors.inc();
        let payload = proto::encode_connection_error(err);
        let c = &mut self.conns[conn];
        c.queue_frame(&payload);
        c.dead = true;
    }

    /// Writes as much queued output as each socket accepts.
    fn flush_writes(&mut self) {
        for conn in &mut self.conns {
            while conn.pending_out() > 0 {
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => {
                        self.bytes_written.add(n as u64);
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
            } else if conn.out_pos > self.opts.write_buffer_bytes {
                // Compact the drained prefix so the buffer doesn't
                // grow monotonically under sustained pipelining.
                conn.out.drain(..conn.out_pos);
                conn.out_pos = 0;
            }
            if conn.pending_out() > self.opts.write_buffer_bytes * SLOW_CONSUMER_MULTIPLE {
                // The peer is not reading its responses; cut it loose
                // rather than buffering without bound.
                conn.dead = true;
            }
        }
    }

    /// Drops closed connections. `flush_writes` runs before this in
    /// every tick, so a connection killed for a protocol violation has
    /// already had one chance to push its final error frame out.
    fn reap_dead(&mut self) {
        let mut i = 0;
        while i < self.conns.len() {
            let c = &self.conns[i];
            if c.dead {
                let _ = c.stream.shutdown(std::net::Shutdown::Both);
                self.conns.swap_remove(i);
                self.live_conns.fetch_sub(1, Ordering::Relaxed);
                self.connections.sub(1);
            } else {
                i += 1;
            }
        }
    }
}
