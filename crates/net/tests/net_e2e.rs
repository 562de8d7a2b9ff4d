//! End-to-end tests over real loopback sockets: a cLSM store behind
//! the server event loop, exercised through the pipelined client.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use clsm::{Db, Options};
use clsm_kv::api::Request;
use clsm_kv::{KvStore, ScanRange, WriteBatch, WriteOptions};
use clsm_net::{server, NetOptions, RemoteStore};
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
        // The stats text must expose the net.* registry.
        let stats = store.client().stats_text().unwrap();
        assert!(stats.contains("net.requests"), "{stats}");
        assert!(stats.contains("net.responses"), "{stats}");
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
        let db: Arc<dyn KvStore> = Arc::new(Db::open(&dir, Options::small_for_tests()).unwrap());
        let handle = server::serve(db, &loopback_opts()).unwrap();
        let addr = handle.addr();

        let connect = |addr: std::net::SocketAddr| {
            let mut opts = loopback_opts();
            opts.addr = addr.to_string();
            RemoteStore::connect(&opts).unwrap()
        };

        // A healthy neighbor, connected first.
        let neighbor = connect(addr);
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
        let late = connect(addr);
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
        let db: Arc<dyn KvStore> = Arc::new(Db::open(&dir, Options::small_for_tests()).unwrap());
        let handle = server::serve(db, &loopback_opts()).unwrap();
        let mut opts = loopback_opts();
        opts.addr = handle.addr().to_string();
        let store = RemoteStore::connect(&opts).unwrap();
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
