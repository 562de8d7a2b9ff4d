//! `net-open`: an open-loop load over loopback TCP. An in-process
//! `clsm_net::server::serve` (one worker) is driven through one
//! connection by a benchmark-owned pipelining driver — a sender thread
//! on a fixed schedule and a receiver thread — built only on the public
//! codec and framing functions. Every latency is timed from the
//! request's due time, so a stall shows in the requests queued behind
//! it, and the sender reports how late it ran.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use clsm::Db;
use clsm_kv::api::{dispatch, Request, Response, SnapshotSessions};
use clsm_kv::{KvStore, WriteOptions};
use clsm_net::frame::{write_frame, FrameReader};
use clsm_net::{proto, Client, NetOptions};
use clsm_workloads::keygen::format_key;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{self, Sizes};
use crate::harness::{self, Bench, Ctl, OpKind, Recorder, Result, RunArgs, Tick, Versions};
use crate::runner::{CpuTimes, Observer, Workload};
use crate::stats;
use crate::trace::Kind;
use crate::values;

/// In-flight table size; the backlog may never reach it.
const SLOTS: usize = 1 << 16;
/// Most requests framed into one socket write.
const SEND_BATCH: usize = 64;
/// How long the receiver waits for stragglers after the sender stopped.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);
/// Iterations of each codec probe.
const PROBE_ITERS: usize = 20_000;

/// What the sender remembers about a request until its response.
#[derive(Debug, Clone, Copy)]
struct Slot {
    id: u64,
    due_ns: u64,
    op: OpKind,
    key: u64,
    /// Gets: version acked when sent. Puts: version being written.
    version: u64,
    timed: bool,
}

/// State shared by sender and receiver.
struct Wire {
    slots: Vec<Mutex<Option<Slot>>>,
    sent: AtomicU64,
    received: AtomicU64,
    sender_done: AtomicBool,
    backlog_max: AtomicU64,
}

/// Result of the wire driver, for tests and the workload.
#[derive(Debug)]
pub struct Driven {
    /// Sender-side recorder (attempts, generator and send spans).
    pub sender: Recorder,
    /// Receiver-side recorder (latencies, validation, acked bytes).
    pub receiver: Recorder,
    /// Send time − due time of timed requests, in nanoseconds.
    pub late_ns: Vec<u32>,
    /// Largest number of requests sent and not yet answered.
    pub backlog_max: u64,
    /// Exact length of the timed window in seconds.
    pub window_s: f64,
    /// CPU seconds the sender thread spent inside the timed window,
    /// most of them yield-spinning up to the next due time.
    pub sender_cpu_s: f64,
}

/// Drives `stream` at `rate` requests per second: warm-up, then the
/// timed window during which `tick` is called about once a second.
/// 50 % get / 50 % put, keys uniform over `sizes.key_space`.
pub fn drive(
    stream: TcpStream,
    args: &RunArgs,
    rate: u64,
    sizes: Sizes,
    ctl: &Arc<Ctl>,
    versions: &Arc<Versions>,
    mut tick: impl FnMut(Tick),
) -> Result<Driven> {
    let _ = stream.set_nodelay(true);
    let read_half = stream
        .try_clone()
        .map_err(|e| format!("clone socket: {e}"))?;
    read_half
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| format!("socket timeout: {e}"))?;
    let wire = Wire {
        slots: (0..SLOTS).map(|_| Mutex::new(None)).collect(),
        sent: AtomicU64::new(0),
        received: AtomicU64::new(0),
        sender_done: AtomicBool::new(false),
        backlog_max: AtomicU64::new(0),
    };
    let mut sender = Recorder::new(ctl, args, 0);
    let mut receiver = Recorder::new(ctl, args, 1);
    let mut late_ns = Vec::new();
    let mut window_s = 0.0;
    let mut sender_cpu_s = 0.0;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            sender_cpu_s = send_loop(
                stream,
                args.seed,
                rate,
                sizes,
                ctl,
                versions,
                &wire,
                &mut sender,
                &mut late_ns,
            )
        });
        scope.spawn(|| receive_loop(read_half, ctl, versions, sizes, &wire, &mut receiver));
        std::thread::sleep(args.warmup());
        window_s = harness::timed_window(ctl, args.seconds, &mut tick);
    });
    Ok(Driven {
        backlog_max: wire.backlog_max.load(Ordering::Relaxed),
        sender,
        receiver,
        late_ns,
        window_s,
        sender_cpu_s,
    })
}

#[allow(clippy::too_many_arguments)]
fn send_loop(
    mut stream: TcpStream,
    seed: u64,
    rate: u64,
    sizes: Sizes,
    ctl: &Ctl,
    versions: &Versions,
    wire: &Wire,
    rec: &mut Recorder,
    late_ns: &mut Vec<u32>,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6e65_745f_6f70_656e);
    // This thread's CPU time when the timed window opened.
    let mut cpu_at_start = None;
    let interval_ns = 1_000_000_000 / rate.max(1);
    let origin = ctl.now();
    let due_of = |i: u64| origin + i * interval_ns;
    let mut next = 0u64;
    let mut buf = Vec::with_capacity(64 * 1024);
    // (due, gen start, encode start, encode end, timed) of each request
    // in `buf`.
    let mut batch: Vec<(u64, u64, u64, u64, bool)> = Vec::with_capacity(SEND_BATCH);
    loop {
        let now = ctl.now();
        let due = due_of(next);
        if cpu_at_start.is_none() && ctl.timed() {
            cpu_at_start = Some(CpuTimes::of_this_thread().total_s());
        }
        // Every request that fell due before the stop is sent, however
        // late; the first one due after it ends the schedule.
        if ctl.stopped_at().is_some_and(|stop| due >= stop) {
            break;
        }
        if now < due {
            // Sleep through most of a long gap, then yield-spin so the
            // send lands on its due time: a plain sleep wakes 50 µs and
            // more late on this host, which every latency would carry.
            let gap = due - now;
            if gap > 200_000 {
                std::thread::sleep(Duration::from_nanos(gap - 100_000));
            } else {
                std::thread::yield_now();
            }
            continue;
        }
        buf.clear();
        batch.clear();
        while batch.len() < SEND_BATCH && due_of(next) <= now {
            let due = due_of(next);
            let timed = ctl.timed();
            let gen_start = ctl.now();
            let key = rng.random_range(0..sizes.key_space);
            let name = format_key(key, sizes.key_len);
            let id = next + 1;
            let (op, version, request) = if rng.random::<bool>() {
                (OpKind::Get, versions.acked(key), Request::Get { key: name })
            } else {
                let version = versions.begin_write(key);
                let value = values::encode(key, version, sizes.value_len);
                let request = Request::Put {
                    key: name,
                    value,
                    opts: WriteOptions::new(),
                };
                (OpKind::Put, version, request)
            };
            let slot = Slot {
                id,
                due_ns: due,
                op,
                key,
                version,
                timed,
            };
            let previous = wire.slots[id as usize % SLOTS]
                .lock()
                .expect("slot lock")
                .replace(slot);
            rec.attempted += 1;
            if previous.is_some() {
                // The backlog wrapped the table: the older request can
                // no longer be matched to its response.
                rec.fail(format!("request {id}: in-flight table full"));
            }
            let encode_start = ctl.now();
            write_frame(&mut buf, &proto::encode_request(id, &request));
            batch.push((due, gen_start, encode_start, ctl.now(), timed));
            next += 1;
        }
        let send_start = ctl.now();
        if let Err(e) = stream.write_all(&buf) {
            rec.fail(format!("send: {e}"));
            break;
        }
        let send_end = ctl.now();
        let sent = wire.sent.fetch_add(batch.len() as u64, Ordering::AcqRel) + batch.len() as u64;
        let backlog = sent.saturating_sub(wire.received.load(Ordering::Acquire));
        wire.backlog_max.fetch_max(backlog, Ordering::Relaxed);
        for &(due, gen_start, encode_start, encode_end, timed) in &batch {
            if !timed {
                continue;
            }
            late_ns.push(u32::try_from(send_start.saturating_sub(due)).unwrap_or(u32::MAX));
            rec.tracer.record(
                (Kind::Op, gen_start, send_end),
                &[
                    (Kind::Gen, gen_start, encode_start),
                    (Kind::NetEncode, encode_start, encode_end),
                    (Kind::NetSend, send_start, send_end),
                ],
            );
        }
    }
    wire.sender_done.store(true, Ordering::Release);
    cpu_at_start.map_or(0.0, |start| CpuTimes::of_this_thread().total_s() - start)
}

fn receive_loop(
    mut stream: TcpStream,
    ctl: &Ctl,
    versions: &Versions,
    sizes: Sizes,
    wire: &Wire,
    rec: &mut Recorder,
) {
    let mut frames = FrameReader::new(NetOptions::default().max_frame_bytes);
    let mut chunk = vec![0u8; 64 * 1024];
    let mut drain_deadline: Option<Instant> = None;
    loop {
        if wire.sender_done.load(Ordering::Acquire) {
            let answered = wire.received.load(Ordering::Acquire);
            if answered >= wire.sent.load(Ordering::Acquire) {
                break;
            }
            if *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_TIMEOUT)
                < Instant::now()
            {
                break;
            }
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(e) => {
                rec.fail(format!("receive: {e}"));
                break;
            }
        };
        frames.feed(&chunk[..n]);
        loop {
            let decode_start = ctl.now();
            let frame = match frames.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(e) => {
                    rec.fail(format!("framing: {e}"));
                    return;
                }
            };
            let decoded = proto::decode_response(&frame);
            let decode_end = ctl.now();
            wire.received.fetch_add(1, Ordering::AcqRel);
            let (id, response) = match decoded {
                Ok(pair) => pair,
                Err(e) => {
                    rec.fail(format!("decode: {e}"));
                    continue;
                }
            };
            let slot = wire.slots[id as usize % SLOTS]
                .lock()
                .expect("slot lock")
                .take_if(|s| s.id == id);
            let Some(slot) = slot else {
                rec.fail(format!("response {id} matches no request in flight"));
                continue;
            };
            rec.timed = slot.timed;
            let verdict = check_response(&slot, response, versions, sizes, rec);
            let ok = verdict.is_ok();
            if let Err(message) = verdict {
                rec.fail(format!("{} {id}: {message}", slot.op.name()));
            }
            if slot.timed {
                rec.sample(slot.op, decode_end.saturating_sub(slot.due_ns));
                rec.completed_timed += u64::from(ok);
                if rec.tracer.enabled() {
                    let done = ctl.now();
                    rec.tracer.record(
                        (Kind::NetRoundTrip, slot.due_ns, done),
                        &[
                            (Kind::NetDecode, decode_start, decode_end),
                            (Kind::Validate, decode_end, done),
                        ],
                    );
                    rec.note_key(slot.op, slot.key);
                }
            }
        }
    }
    // Whatever is still in flight was never answered.
    let unanswered = wire
        .sent
        .load(Ordering::Acquire)
        .saturating_sub(wire.received.load(Ordering::Acquire));
    for _ in 0..unanswered {
        rec.fail("request unanswered when the run ended".to_string());
    }
}

fn check_response(
    slot: &Slot,
    response: Response,
    versions: &Versions,
    sizes: Sizes,
    rec: &mut Recorder,
) -> Result<()> {
    match (slot.op, response) {
        (OpKind::Get, Response::Value(found)) => {
            versions.check_read(slot.key, slot.version, found.as_deref())
        }
        (OpKind::Put, Response::Done) => {
            versions.ack(slot.key, slot.version);
            rec.wrote(sizes.pair_bytes());
            Ok(())
        }
        (_, Response::Error(e)) => Err(format!("server error: {}", e.message)),
        (_, other) => Err(format!("unexpected response {other:?}")),
    }
}

// ---------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------

/// The `net-open` workload and its net-layer measurements.
pub struct NetOpen {
    rate: u64,
    trace: bool,
    layers: Vec<(&'static str, f64)>,
    sender_cpu_s: f64,
}

impl NetOpen {
    /// The workload at the frozen rate, or `--rate` when given.
    pub fn new(args: &RunArgs) -> NetOpen {
        NetOpen {
            rate: args.rate.unwrap_or(config::NET_RATE),
            trace: args.trace,
            layers: Vec::new(),
            sender_cpu_s: 0.0,
        }
    }
}

fn median_us(samples_ns: &mut [u32]) -> f64 {
    stats::summarize_ns(samples_ns).map_or(0.0, |s| s.p50_us)
}

fn mean_ns(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let began = Instant::now();
    for i in 0..iters {
        f(i);
    }
    began.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

impl Workload for NetOpen {
    fn sizes(&self) -> Sizes {
        config::NET_OPEN
    }

    fn load(
        &mut self,
        bench: &Bench,
        args: &RunArgs,
        ctl: &Arc<Ctl>,
        versions: &Arc<Versions>,
        observer: &mut Observer,
    ) -> Result<(Vec<Recorder>, f64)> {
        let sizes = self.sizes();
        let options = NetOptions::builder()
            .addr("127.0.0.1:0")
            .workers(1)
            .connections(1)
            .build()
            .map_err(|e| format!("net options: {e}"))?;
        let store: Arc<dyn KvStore> = bench.db.clone();
        let server = clsm_net::server::serve(store, &options).map_err(|e| format!("serve: {e}"))?;
        let stream =
            TcpStream::connect(server.addr()).map_err(|e| format!("connect to server: {e}"))?;
        let driven = drive(stream, args, self.rate, sizes, ctl, versions, |tick| {
            observer.tick(bench, tick)
        })?;

        self.sender_cpu_s = driven.sender_cpu_s;
        let mut late = driven.late_ns;
        late.sort_unstable();
        self.layers = vec![
            (
                "gen.late_p99_us",
                stats::percentile(&late, 99.0).map_or(0.0, |ns| f64::from(ns) / 1e3),
            ),
            ("gen.backlog_max", driven.backlog_max as f64),
        ];
        let net = server.registry().snapshot();
        let counter = |name: &str| net.counters.get(name).copied().unwrap_or(0) as f64;
        self.layers.push((
            "net.coalesce_mean",
            counter("net.coalesced_ops") / counter("net.coalesced_batches").max(1.0),
        ));
        self.layers.push((
            "net.bytes_per_req",
            (counter("net.bytes_read") + counter("net.bytes_written"))
                / counter("net.requests").max(1.0),
        ));
        if self.trace {
            let get_keys: Vec<u64> = driven.receiver.keys[OpKind::Get as usize]
                .iter()
                .map(|k| u64::from(*k))
                .collect();
            let mut get_samples = driven.receiver.samples(OpKind::Get).to_vec();
            let wire_get_p50 = median_us(&mut get_samples);
            self.probe(&bench.db, &server, sizes, &get_keys, wire_get_p50)?;
        }
        server.shutdown();

        Ok((vec![driven.sender, driven.receiver], driven.window_s))
    }

    fn layer_metrics(&self) -> Vec<(&'static str, f64)> {
        self.layers.clone()
    }

    fn generator_cpu_s(&self) -> f64 {
        self.sender_cpu_s
    }
}

impl NetOpen {
    /// The itemised bill for the embedded-vs-loopback gap, measured on
    /// the live store and server right after the window: codec,
    /// framing and dispatch costs on the recorded get keys, the idle
    /// round trip, and the same gets issued embedded.
    fn probe(
        &mut self,
        db: &Arc<Db>,
        server: &clsm_net::ServerHandle,
        sizes: Sizes,
        get_keys: &[u64],
        wire_get_p50_us: f64,
    ) -> Result<()> {
        if get_keys.is_empty() {
            return Err("net-open recorded no get in the timed window".to_string());
        }
        let key_of = |i: usize| format_key(get_keys[i % get_keys.len()], sizes.key_len);
        let requests: Vec<Request> = (0..PROBE_ITERS)
            .map(|i| Request::Get { key: key_of(i) })
            .collect();

        let mut payloads = Vec::with_capacity(PROBE_ITERS);
        let encode_req = mean_ns(PROBE_ITERS, |i| {
            payloads.push(proto::encode_request(i as u64 + 1, &requests[i]));
        });
        let mut framed = Vec::new();
        let mut reader = FrameReader::new(NetOptions::default().max_frame_bytes);
        let frame = mean_ns(PROBE_ITERS, |i| {
            framed.clear();
            write_frame(&mut framed, &payloads[i]);
            reader.feed(&framed);
            std::hint::black_box(reader.next_frame().expect("own frame"));
        });
        let decode_req = mean_ns(PROBE_ITERS, |i| {
            std::hint::black_box(proto::decode_request(&payloads[i]).expect("own request"));
        });
        let mut sessions = SnapshotSessions::new();
        let mut responses = Vec::with_capacity(PROBE_ITERS);
        let dispatch_ns = mean_ns(PROBE_ITERS, |i| {
            responses.push(dispatch(db.as_ref(), &mut sessions, requests[i].clone()));
        });
        let mut encoded = Vec::with_capacity(PROBE_ITERS);
        let encode_resp = mean_ns(PROBE_ITERS, |i| {
            encoded.push(proto::encode_response(i as u64 + 1, &responses[i]));
        });
        let decode_resp = mean_ns(PROBE_ITERS, |i| {
            std::hint::black_box(proto::decode_response(&encoded[i]).expect("own response"));
        });

        let mut embedded: Vec<u32> = (0..PROBE_ITERS)
            .map(|i| {
                let key = key_of(i);
                let began = Instant::now();
                std::hint::black_box(db.get(&key).expect("embedded get"));
                began.elapsed().as_nanos() as u32
            })
            .collect();
        let embedded_p50_us = median_us(&mut embedded);

        let client = Client::connect(
            &NetOptions::builder()
                .addr(server.addr().to_string())
                .connections(1)
                .build()
                .map_err(|e| format!("client options: {e}"))?,
        )
        .map_err(|e| format!("idle client: {e}"))?;
        let mut rtt: Vec<u32> = Vec::with_capacity(2_000);
        for request in requests.iter().take(2_000) {
            let began = Instant::now();
            client
                .call(request)
                .map_err(|e| format!("idle round trip: {e}"))?;
            rtt.push(began.elapsed().as_nanos() as u32);
        }
        drop(client);
        let rtt_idle_us = median_us(&mut rtt);

        let wire_overhead_us = wire_get_p50_us - embedded_p50_us;
        let itemised_us = (encode_req + frame + decode_req + encode_resp + decode_resp) / 1e3
            + (dispatch_ns / 1e3 - embedded_p50_us).max(0.0);
        self.layers.extend([
            ("net.encode_req_ns", encode_req),
            ("net.decode_req_ns", decode_req),
            ("net.encode_resp_ns", encode_resp),
            ("net.decode_resp_ns", decode_resp),
            ("net.frame_ns", frame),
            ("kv.dispatch_ns", dispatch_ns),
            ("net.rtt_idle_us", rtt_idle_us),
            ("net.wire_overhead_us", wire_overhead_us),
            ("net.unattributed_us", wire_overhead_us - itemised_us),
        ]);
        Ok(())
    }
}
