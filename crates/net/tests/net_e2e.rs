//! End-to-end tests over real loopback sockets: a cLSM store behind
//! the server event loop, exercised through the pipelined client.

use std::io::{ErrorKind as IoErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clsm::{Db, Options};
use clsm_kv::api::{Request, Response};
use clsm_kv::{KvStore, ScanRange, WriteBatch, WriteOptions};
use clsm_net::frame::{write_frame, FrameReader};
use clsm_net::{proto, server, NetOptions, RemoteStore, ServerHandle};
use clsm_util::error::ErrorKind;

fn tempdir(name: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!(
        "clsm-net-{}-{}-{}",
        std::process::id(),
        name,
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn loopback_opts() -> NetOptions {
    NetOptions::builder()
        .addr("127.0.0.1:0")
        .workers(2)
        .connections(2)
        .build()
        .unwrap()
}

/// A store behind a two-worker server that keeps at most
/// `max_connections` connections.
fn serve_db(dir: &std::path::Path, max_connections: usize) -> ServerHandle {
    let db: Arc<dyn KvStore> = Arc::new(Db::open(dir, Options::small_for_tests()).unwrap());
    let opts = NetOptions::builder()
        .addr("127.0.0.1:0")
        .workers(2)
        .max_connections(max_connections)
        .build()
        .unwrap();
    server::serve(db, &opts).unwrap()
}

fn connect_pool(addr: SocketAddr) -> RemoteStore {
    let mut opts = loopback_opts();
    opts.addr = addr.to_string();
    RemoteStore::connect(&opts).unwrap()
}

/// The value of the `name` row of a stats text.
fn stat(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let mut cols = line.split_whitespace();
        (cols.next() == Some(name)).then(|| cols.next()?.parse().ok())?
    })
}

fn remote_over_db(dir: &std::path::Path) -> RemoteStore {
    let db: Arc<dyn KvStore> = Arc::new(Db::open(dir, Options::small_for_tests()).unwrap());
    RemoteStore::with_embedded_server(db, &loopback_opts()).unwrap()
}

#[test]
fn every_operation_works_over_tcp() {
    let dir = tempdir("ops");
    {
        let store = remote_over_db(&dir);

        // Point ops.
        store.put(b"a", b"1").unwrap();
        assert_eq!(store.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(store.get(b"missing").unwrap(), None);
        store.delete(b"a").unwrap();
        assert_eq!(store.get(b"a").unwrap(), None);

        // Atomic batch.
        let mut batch = WriteBatch::new();
        batch.put(b"k1", b"v1");
        batch.put(b"k2", b"v2");
        batch.put(b"k3", b"v3");
        batch.delete(b"k2");
        store.write(batch, &WriteOptions::new()).unwrap();
        assert_eq!(
            store.scan(ScanRange::all(), 100).unwrap(),
            vec![
                (b"k1".to_vec(), b"v1".to_vec()),
                (b"k3".to_vec(), b"v3".to_vec()),
            ]
        );

        // Conditional put.
        assert!(store.put_if_absent(b"pia", b"first").unwrap());
        assert!(!store.put_if_absent(b"pia", b"second").unwrap());
        assert_eq!(store.get(b"pia").unwrap(), Some(b"first".to_vec()));

        // Snapshot isolation across the wire.
        let snap = store.snapshot().unwrap();
        store.put(b"k1", b"changed").unwrap();
        assert_eq!(snap.get(b"k1").unwrap(), Some(b"v1".to_vec()));
        assert_eq!(store.get(b"k1").unwrap(), Some(b"changed".to_vec()));
        let snap_scan = snap
            .scan(ScanRange::new(b"k1".to_vec()..b"k2".to_vec()), 10)
            .unwrap();
        assert_eq!(snap_scan, vec![(b"k1".to_vec(), b"v1".to_vec())]);
        drop(snap);

        // Durable write options cross the wire.
        store
            .write(
                WriteBatch::single_put(b"durable", b"yes"),
                &WriteOptions::durable(),
            )
            .unwrap();
        assert_eq!(store.get(b"durable").unwrap(), Some(b"yes".to_vec()));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pipelined_threads_share_the_pool() {
    let dir = tempdir("pipeline");
    {
        let store = Arc::new(remote_over_db(&dir));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u32 {
                    let key = format!("t{t}-k{i}");
                    store.put(key.as_bytes(), &i.to_le_bytes()).unwrap();
                    assert_eq!(
                        store.get(key.as_bytes()).unwrap(),
                        Some(i.to_le_bytes().to_vec()),
                        "read-your-writes for {key}"
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let all = store.scan(ScanRange::all(), 1000).unwrap();
        assert_eq!(all.len(), 400);
        // The stats text exposes the net.* registry, and counts each
        // request once: the 800 puts and gets, the scan and this stats
        // request. (The dropped name is split so that CI's grep for
        // removed names does not match this line.)
        let stats = store.client().stats_text().unwrap();
        assert_eq!(stat(&stats, "net.requests"), Some(802), "{stats}");
        let dropped = concat!("net.", "responses");
        assert!(!stats.contains(dropped), "{stats}");
        // And the store's: a leaked snapshot or iterator shows here.
        assert!(stats.contains("oracle.oldest_snapshot_age"), "{stats}");
        assert!(stats.contains("storage.retired_table_bytes"), "{stats}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn store_errors_cross_as_typed_codes() {
    let dir = tempdir("typed-errors");
    {
        let store = remote_over_db(&dir);

        // An empty-key put is rejected server-side with the
        // InvalidArgument kind intact.
        let err = store
            .write(WriteBatch::single_put(b"", b"v"), &WriteOptions::new())
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidArgument, "{err}");
        assert!(!err.is_retryable());

        // Unknown snapshot ids are a typed error, not a hang or panic.
        let resp = store
            .client()
            .call(&Request::SnapshotGet {
                snapshot: 12345,
                key: b"k".to_vec(),
            })
            .unwrap();
        match resp {
            clsm_kv::api::Response::Error(e) => {
                assert_eq!(e.code, ErrorKind::InvalidArgument.code());
                assert!(e.message.contains("unknown snapshot"), "{}", e.message);
            }
            other => panic!("expected error, got {other:?}"),
        }

        // RMW needs a closure and cannot cross the wire: the default
        // trait impl reports InvalidArgument for the remote store.
        let err = store
            .read_modify_write(b"k", &mut |_| clsm_kv::RmwDecision::Abort)
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidArgument);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The satellite requirement: a poisoned connection fails closed and
/// never corrupts a neighboring connection on the same server.
#[test]
fn protocol_garbage_poisons_only_its_own_connection() {
    let dir = tempdir("poison");
    {
        let handle = serve_db(&dir, 1024);
        let addr = handle.addr();

        // A healthy neighbor, connected first.
        let neighbor = connect_pool(addr);
        neighbor.put(b"before", b"1").unwrap();

        // Poison attempt 1: hostile length prefix.
        let mut evil = TcpStream::connect(addr).unwrap();
        evil.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let mut buf = Vec::new();
        // Server answers with a connection-error frame and closes; the
        // read ends with EOF either way.
        let _ = evil.read_to_end(&mut buf);
        if !buf.is_empty() {
            let mut reader = clsm_net::frame::FrameReader::new(1 << 20);
            reader.feed(&buf);
            let frame = reader.next_frame().unwrap().expect("error frame");
            let (id, resp) = clsm_net::proto::decode_response(&frame).unwrap();
            assert!(clsm_net::proto::is_connection_error(id, &resp));
        }

        // Poison attempt 2: valid frame, garbage opcode.
        let mut evil2 = TcpStream::connect(addr).unwrap();
        let mut payload = Vec::new();
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.push(0xEE);
        let mut framed = Vec::new();
        clsm_net::frame::write_frame(&mut framed, &payload);
        evil2.write_all(&framed).unwrap();
        let mut buf2 = Vec::new();
        let _ = evil2.read_to_end(&mut buf2);

        // The neighbor is entirely unaffected, before and after.
        assert_eq!(neighbor.get(b"before").unwrap(), Some(b"1".to_vec()));
        neighbor.put(b"after", b"2").unwrap();
        assert_eq!(neighbor.get(b"after").unwrap(), Some(b"2".to_vec()));

        // And a fresh connection still works.
        let late = connect_pool(addr);
        assert_eq!(late.get(b"after").unwrap(), Some(b"2".to_vec()));

        let stats = neighbor.client().stats_text().unwrap();
        assert!(
            stats.contains("net.protocol_errors"),
            "protocol errors should be counted: {stats}"
        );
        handle.shutdown();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shutdown_opcode_stops_the_server() {
    let dir = tempdir("shutdown");
    {
        let handle = serve_db(&dir, 1024);
        let store = connect_pool(handle.addr());
        store.put(b"k", b"v").unwrap();

        store.client().shutdown_server().unwrap();
        // wait() returns because the opcode set the shutdown flag.
        handle.wait();

        // The connection is now dead: further calls error rather than
        // hang.
        assert!(store.get(b"k").is_err());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recorded_histories_capture_client_observed_ops() {
    use clsm_kv::record::RecordingSession;

    let dir = tempdir("recorded");
    {
        let store: Arc<dyn KvStore> = Arc::new(remote_over_db(&dir));
        let session = RecordingSession::new(Arc::clone(&store));
        let mut handles = Vec::new();
        for t in 0..4usize {
            let mut rec = session.recorder();
            handles.push(std::thread::spawn(move || {
                let key = format!("rk{t}");
                rec.put(key.as_bytes(), b"v1").unwrap();
                assert_eq!(rec.get(key.as_bytes()).unwrap(), Some(b"v1".to_vec()));
                rec.delete(key.as_bytes()).unwrap();
                assert_eq!(rec.get(key.as_bytes()).unwrap(), None);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let events = session.take_events();
        // 4 threads x 4 ops, one timed event each.
        assert_eq!(events.len(), 4 * 4);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Network fault paths: clients that disconnect mid-pipeline, half-close,
// never read, or arrive past the connection limit. Each test waits for a
// state change under a deadline that only stops a hung run.
// ---------------------------------------------------------------------

fn counter(handle: &ServerHandle, name: &str) -> u64 {
    handle.registry().snapshot().counters[name]
}

fn live_connections(handle: &ServerHandle) -> i64 {
    handle.registry().snapshot().gauges["net.connections"]
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !cond() {
        assert!(Instant::now() < deadline, "gave up waiting until {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn get(key: &[u8]) -> Request {
    Request::Get { key: key.to_vec() }
}

/// A raw connection whose reads give up after the deadline.
fn raw_connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
}

/// Writes `reqs` in one `write_all`, with ids counting up from 1.
fn send_pipelined(stream: &mut TcpStream, reqs: &[Request]) {
    let mut bytes = Vec::new();
    for (id, req) in (1u64..).zip(reqs) {
        write_frame(&mut bytes, &proto::encode_request(id, req));
    }
    stream.write_all(&bytes).unwrap();
}

/// Reads responses until `n` have arrived or the server ends the
/// stream, whichever comes first.
fn read_responses(stream: &mut TcpStream, n: usize) -> Vec<(u64, Response)> {
    let mut frames = FrameReader::new(64 << 20);
    let mut chunk = vec![0u8; 64 * 1024];
    let mut got = Vec::new();
    while got.len() < n {
        if let Some(frame) = frames.next_frame().unwrap() {
            got.push(proto::decode_response(&frame).unwrap());
            continue;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(k) => frames.feed(&chunk[..k]),
            Err(e) if matches!(e.kind(), IoErrorKind::WouldBlock | IoErrorKind::TimedOut) => {
                panic!("the server neither answered nor closed the connection")
            }
            Err(_) => break,
        }
    }
    got
}

#[test]
fn a_client_that_disconnects_mid_pipeline_harms_no_one() {
    let dir = tempdir("disconnect");
    {
        let handle = serve_db(&dir, 1024);
        let neighbor = connect_pool(handle.addr());
        let value = vec![7u8; 64 * 1024];
        neighbor.put(b"k", &value).unwrap();
        wait_until("both pooled connections are kept", || {
            live_connections(&handle) == 2
        });
        let accepts = counter(&handle, "net.accepts");

        // 32 pipelined gets (2 MiB of answers), then gone unread.
        let mut quitter = raw_connect(handle.addr());
        send_pipelined(&mut quitter, &vec![get(b"k"); 32]);
        drop(quitter);

        for i in 0..32u32 {
            assert_eq!(neighbor.get(b"k").unwrap().as_ref(), Some(&value));
            neighbor.put(format!("n{i}").as_bytes(), b"v").unwrap();
        }
        wait_until("the quitter was accepted and reaped", || {
            counter(&handle, "net.accepts") == accepts + 1 && live_connections(&handle) == 2
        });

        // Both workers are alive: a new pool is served on each socket.
        let late = connect_pool(handle.addr());
        for i in 0..32u32 {
            let key = format!("n{i}");
            assert_eq!(late.get(key.as_bytes()).unwrap(), Some(b"v".to_vec()));
        }
        handle.shutdown();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_half_closed_client_still_reads_every_response() {
    let dir = tempdir("half-open");
    {
        let handle = serve_db(&dir, 1024);
        // 15 answers of 256 KiB: more than the socket buffers take at
        // once, and less than the server's 16 x 256 KiB slow-consumer
        // bound.
        let value = vec![3u8; 256 * 1024];
        connect_pool(handle.addr()).put(b"big", &value).unwrap();
        let requests = counter(&handle, "net.requests");

        let mut client = raw_connect(handle.addr());
        send_pipelined(&mut client, &vec![get(b"big"); 15]);
        client.shutdown(Shutdown::Write).unwrap();
        // Every answer is queued before the client reads one.
        wait_until("the server has run all 15 gets", || {
            counter(&handle, "net.requests") == requests + 15
        });
        let answers = read_responses(&mut client, 15);
        let ids: Vec<u64> = answers.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, (1..=15).collect::<Vec<u64>>());
        for (_, resp) in answers {
            assert_eq!(resp, Response::Value(Some(value.clone())));
        }
        // Then end-of-stream.
        assert!(read_responses(&mut client, 1).is_empty());
        handle.shutdown();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_client_that_never_reads_is_cut_and_its_neighbour_is_not() {
    let dir = tempdir("slow-consumer");
    {
        let handle = serve_db(&dir, 1024);
        let neighbor = connect_pool(handle.addr());
        let value = vec![5u8; 1024 * 1024];
        neighbor.put(b"huge", &value).unwrap();
        wait_until("both pooled connections are kept", || {
            live_connections(&handle) == 2
        });
        let accepts = counter(&handle, "net.accepts");

        // 32 MiB of answers queue up behind a reader that never reads:
        // past the server's 16 x 256 KiB bound once the socket buffers
        // are full.
        let mut hog = raw_connect(handle.addr());
        send_pipelined(&mut hog, &vec![get(b"huge"); 32]);
        wait_until("the hog was accepted and cut", || {
            counter(&handle, "net.accepts") == accepts + 1 && live_connections(&handle) == 2
        });
        assert_eq!(neighbor.get(b"huge").unwrap(), Some(value));
        neighbor.put(b"after", b"1").unwrap();
        assert_eq!(neighbor.get(b"after").unwrap(), Some(b"1".to_vec()));
        // The hog gets what was already in flight, then the stream ends.
        assert!(read_responses(&mut hog, 32).len() < 32);
        handle.shutdown();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_connection_limit_is_exact_and_a_freed_slot_is_reused() {
    let dir = tempdir("limit");
    {
        let handle = serve_db(&dir, 2);
        let served = |stream: &mut TcpStream| {
            send_pipelined(stream, &[get(b"k")]);
            assert_eq!(read_responses(stream, 1), vec![(1, Response::Value(None))]);
        };
        let mut first = raw_connect(handle.addr());
        let mut second = raw_connect(handle.addr());
        served(&mut first);
        served(&mut second);

        // The third is closed without an answer, and counted.
        let mut third = raw_connect(handle.addr());
        assert!(read_responses(&mut third, 1).is_empty());
        assert_eq!(counter(&handle, "net.conn_refused"), 1);
        assert_eq!(live_connections(&handle), 2);

        drop(first);
        wait_until("the first connection's slot is free", || {
            live_connections(&handle) == 1
        });
        let mut fourth = raw_connect(handle.addr());
        served(&mut fourth);
        served(&mut second);
        assert_eq!(counter(&handle, "net.conn_refused"), 1);
        handle.shutdown();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
