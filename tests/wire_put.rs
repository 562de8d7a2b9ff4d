//! Over the wire a put is the store's own put: the server dispatches
//! each request alone, so a wire `Put` takes Algorithm 2's shared-lock
//! path and succeeds or fails by itself, and only a wire `Write` batch
//! — atomicity the client asked for — takes the exclusive batch route.
//!
//! The requests are raw frames on plain `TcpStream`s, several per
//! `write_all`: on loopback one send arrives as one segment, so the
//! frames are decoded in the same server tick, which is where a server
//! that merged its clients' writes would merge them.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use clsm_kv::api::{Request, Response};
use clsm_net::frame::{write_frame, FrameReader};
use clsm_net::{proto, server, NetOptions, ServerHandle};
use clsm_repro::clsm::{Db, KvStore, Options, ScanRange, WriteBatch, WriteOptions};
use clsm_repro::util::env::FaultEnv;
use clsm_repro::util::error::ErrorKind;

/// A store on an in-memory filesystem behind a two-worker server. The
/// acceptor deals connections round-robin, so two connections land on
/// two workers.
fn serve(dir: &str) -> (Arc<Db>, ServerHandle) {
    let mut opts = Options::small_for_tests();
    opts.watchdog.enabled = false;
    opts.store.env = Arc::new(FaultEnv::new(0x317e));
    let db = Arc::new(Db::open(Path::new(dir), opts).unwrap());
    let net = NetOptions::builder()
        .addr("127.0.0.1:0")
        .workers(2)
        .build()
        .unwrap();
    let handle = server::serve(Arc::clone(&db) as Arc<dyn KvStore>, &net).unwrap();
    (db, handle)
}

/// One raw connection; request ids count up from 1.
struct Wire {
    stream: TcpStream,
    frames: FrameReader,
    next_id: u64,
}

impl Wire {
    fn connect(addr: SocketAddr) -> Wire {
        Wire {
            stream: TcpStream::connect(addr).unwrap(),
            frames: FrameReader::new(1 << 20),
            next_id: 1,
        }
    }

    /// Sends every request in one `write_all`.
    fn send_together(&mut self, reqs: &[Request]) {
        let mut bytes = Vec::new();
        for req in reqs {
            write_frame(&mut bytes, &proto::encode_request(self.next_id, req));
            self.next_id += 1;
        }
        self.stream.write_all(&bytes).unwrap();
    }

    /// The next response; they arrive in request order.
    fn recv(&mut self) -> (u64, Response) {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(frame) = self.frames.next_frame().unwrap() {
                return proto::decode_response(&frame).unwrap();
            }
            let n = self.stream.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed the connection");
            self.frames.feed(&chunk[..n]);
        }
    }

    fn call(&mut self, req: Request) -> Response {
        self.send_together(&[req]);
        self.recv().1
    }
}

fn put(key: &[u8], value: &[u8]) -> Request {
    Request::Put {
        key: key.to_vec(),
        value: value.to_vec(),
        opts: WriteOptions::new(),
    }
}

#[test]
fn a_rejected_put_fails_alone() {
    let (db, handle) = serve("/wire-alone");
    let mut wire = Wire::connect(handle.addr());
    // `Db::write` rejects the empty key; its neighbour is innocent.
    wire.send_together(&[put(b"k1", b"v1"), put(b"", b"v")]);
    assert_eq!(wire.recv(), (1, Response::Done));
    match wire.recv() {
        (2, Response::Error(e)) => assert_eq!(e.code, ErrorKind::InvalidArgument.code(), "{e:?}"),
        other => panic!("expected the empty-key put alone to fail, got {other:?}"),
    }
    assert_eq!(db.get(b"k1").unwrap(), Some(b"v1".to_vec()));
    handle.shutdown();
}

#[test]
fn pipelined_reads_see_the_writes_before_them() {
    let (_db, handle) = serve("/wire-ryw");
    let mut wire = Wire::connect(handle.addr());
    wire.send_together(&[
        put(b"k", b"v1"),
        Request::Get { key: b"k".to_vec() },
        put(b"k", b"v2"),
        Request::Get { key: b"k".to_vec() },
    ]);
    assert_eq!(wire.recv(), (1, Response::Done));
    assert_eq!(wire.recv(), (2, Response::Value(Some(b"v1".to_vec()))));
    assert_eq!(wire.recv(), (3, Response::Done));
    assert_eq!(wire.recv(), (4, Response::Value(Some(b"v2".to_vec()))));
    handle.shutdown();
}

/// Exclusive-lock batch commits so far: `Db::write` records this
/// histogram on its `write_batch_exclusive` route and nowhere else.
fn exclusive_batches(db: &Db) -> u64 {
    db.metrics().histograms["op.write_batch.latency_ns"].count
}

#[test]
fn wire_puts_take_the_shared_lock_and_only_a_wire_batch_the_exclusive_one() {
    const PER_CONN: usize = 64;
    let (db, handle) = serve("/wire-shared");
    let mut conns = [Wire::connect(handle.addr()), Wire::connect(handle.addr())];
    for (c, wire) in conns.iter_mut().enumerate() {
        let puts: Vec<Request> = (0..PER_CONN)
            .map(|i| put(format!("c{c}-{i:03}").as_bytes(), b"v"))
            .collect();
        wire.send_together(&puts);
    }
    for wire in &mut conns {
        for id in 1..=PER_CONN as u64 {
            assert_eq!(wire.recv(), (id, Response::Done));
        }
    }
    assert_eq!(db.metrics().counters["db.puts"], 2 * PER_CONN as u64);
    assert_eq!(
        exclusive_batches(&db),
        0,
        "a wire put took the exclusive lock"
    );

    // A batch the client asked for is one exclusive commit, and a
    // concurrent snapshot sees all three of its entries or none.
    let versions = 50u8;
    let start = Arc::new(Barrier::new(2));
    let done = Arc::new(AtomicBool::new(false));
    let observer = {
        let (db, start, done) = (Arc::clone(&db), Arc::clone(&start), Arc::clone(&done));
        std::thread::spawn(move || {
            start.wait();
            while !done.load(Ordering::Acquire) {
                let seen = KvStore::snapshot(&*db)
                    .unwrap()
                    .scan(ScanRange::from_start("trio"), 4)
                    .unwrap();
                assert!(seen.is_empty() || seen.len() == 3, "torn batch: {seen:?}");
                assert!(seen.windows(2).all(|w| w[0].1 == w[1].1), "{seen:?}");
            }
        })
    };
    start.wait();
    for version in 1..=versions {
        let batch: WriteBatch = ["trio-a", "trio-b", "trio-c"]
            .iter()
            .map(|k| (k.as_bytes().to_vec(), Some(vec![version])))
            .collect();
        let resp = conns[0].call(Request::Write {
            batch,
            opts: WriteOptions::new(),
        });
        assert_eq!(resp, Response::Done);
        assert_eq!(exclusive_batches(&db), u64::from(version));
    }
    done.store(true, Ordering::Release);
    observer.join().unwrap();
    assert_eq!(db.get(b"trio-c").unwrap(), Some(vec![versions]));
    handle.shutdown();
}
