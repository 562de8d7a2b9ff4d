//! Self-tests of the benchmark harness: the things a wrong harness
//! would silently get wrong. (`cargo test` in `benchmark/`; the
//! percentile rule and the value checksum are unit-tested next to their
//! code.)

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use clsm::Db;
use clsm_benchmark::config::{self, Sizes};
use clsm_benchmark::counting_env::CountingEnv;
use clsm_benchmark::harness::{Ctl, LoadThread, OpKind, Recorder, RunArgs, Versions};
use clsm_benchmark::workloads::{IngestThread, ProdMixThread, ScanRmwThread};
use clsm_benchmark::{catalog, harness, net_open, report, runner, values};
use clsm_kv::api::{Request, Response};
use clsm_net::frame::{write_frame, FrameReader};
use clsm_net::proto::{self, WireRequest};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("selftest-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn args(workload: &str, seconds: f64, trace: bool, out: &std::path::Path) -> RunArgs {
    RunArgs {
        workload: workload.to_string(),
        seed: 7,
        seconds,
        trace,
        out_dir: out.to_path_buf(),
        rate: None,
        repeat: 0,
    }
}

// ---------------------------------------------------------------------
// Open-loop clock
// ---------------------------------------------------------------------

/// A one-connection key-value server over the public codec that stalls
/// once, for `stall`, before answering request number `stall_at`.
fn fake_server(listener: TcpListener, stall_at: u64, stall: Duration) {
    let (mut stream, _) = listener.accept().unwrap();
    let mut frames = FrameReader::new(1 << 20);
    let mut store: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut served = 0u64;
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => n,
        };
        frames.feed(&chunk[..n]);
        let mut out = Vec::new();
        while let Some(frame) = frames.next_frame().unwrap() {
            served += 1;
            if served == stall_at {
                std::thread::sleep(stall);
            }
            let (id, request) = proto::decode_request(&frame).unwrap();
            let response = match request {
                WireRequest::Op(Request::Get { key }) => Response::Value(store.get(&key).cloned()),
                WireRequest::Op(Request::Put { key, value, .. }) => {
                    store.insert(key, value);
                    Response::Done
                }
                other => panic!("unexpected request {other:?}"),
            };
            write_frame(&mut out, &proto::encode_response(id, &response));
        }
        if stream.write_all(&out).is_err() {
            return;
        }
    }
}

#[test]
fn open_loop_clock_charges_a_stall_to_the_requests_queued_behind_it() {
    let sizes = Sizes {
        key_space: 1_000,
        prefill: 0,
        key_len: 16,
        value_len: 64,
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stall = Duration::from_millis(50);
    let server = std::thread::spawn(move || fake_server(listener, 1_500, stall));

    let out = scratch("openloop");
    let run = args("net-open", 1.0, false, &out);
    let ctl = Ctl::new();
    let versions = Arc::new(Versions::new(&sizes));
    let stream = TcpStream::connect(addr).unwrap();
    let rate = 2_000;
    let driven = net_open::drive(stream, &run, rate, sizes, &ctl, &versions, |_| {}).unwrap();
    server.join().unwrap();

    assert_eq!(driven.receiver.failed + driven.sender.failed, 0);
    let slow = |floor: Duration| {
        [OpKind::Get, OpKind::Put]
            .iter()
            .flat_map(|op| driven.receiver.samples(*op))
            .filter(|ns| u64::from(**ns) >= floor.as_nanos() as u64)
            .count()
    };
    // At 2 000 requests/s a 50 ms stall delays the request it hit and
    // the ~100 that fell due behind it. A closed-loop clock (timing from
    // the send) would show one slow request.
    assert!(
        slow(stall / 2) >= 30,
        "only {} requests saw the stall",
        slow(stall / 2)
    );
    assert!(slow(stall) >= 1, "no request saw the whole stall");
    let completed = driven.receiver.completed_timed;
    assert!(
        (1_800..=2_200).contains(&completed),
        "achieved {completed} requests in a 1 s window at {rate}/s"
    );
    std::fs::remove_dir_all(out).unwrap();
}

// ---------------------------------------------------------------------
// Generator determinism
// ---------------------------------------------------------------------

fn op_stream<T: LoadThread>(
    db: &Db,
    run: &RunArgs,
    mut threads: Vec<T>,
    steps: usize,
) -> Vec<Vec<u32>> {
    let ctl = Ctl::new();
    ctl.start_timed();
    let mut rec = Recorder::new(&ctl, run, 0);
    rec.timed = true;
    for _ in 0..steps {
        threads[0].step(db, &mut rec);
    }
    assert_eq!(rec.failed, 0, "{:?}", rec.failures);
    rec.keys.to_vec()
}

#[test]
fn same_seed_same_op_stream_and_another_seed_another() {
    let out = scratch("determinism");
    let streams = |seed: u64| {
        let mut run = args("any", 1.0, true, &out);
        run.seed = seed;
        // Fresh stores so the streams do not depend on earlier writes.
        let open = |name: &str, sizes: &Sizes| {
            let dir = out.join(format!("{name}-{seed}"));
            let _ = std::fs::remove_dir_all(&dir);
            let db = Db::open(&dir, config::store_options(CountingEnv::new(false))).unwrap();
            (
                db,
                Arc::new(Versions::new(&Sizes {
                    prefill: 0,
                    ..*sizes
                })),
            )
        };
        let (db, versions) = open("ingest", &config::INGEST);
        let ingest = op_stream(&db, &run, IngestThread::all(seed, &versions), 2_000);
        let (db, versions) = open("prod-mix", &config::PROD_MIX);
        let prod_mix = op_stream(&db, &run, ProdMixThread::all(seed, &versions), 2_000);
        vec![ingest, prod_mix]
    };
    let (a, b, c) = (streams(11), streams(11), streams(12));
    assert_eq!(a, b, "same seed must give the same operations");
    assert_ne!(a, c, "another seed must give other operations");
    assert!(a
        .iter()
        .all(|per_op| per_op.iter().map(Vec::len).sum::<usize>() == 2_000));
    std::fs::remove_dir_all(out).unwrap();
}

#[test]
fn scan_rmw_stream_is_deterministic_and_validates() {
    let out = scratch("scanrmw");
    let run = args("scan-rmw", 1.0, true, &out);
    let stream = |tag: &str| {
        let db = Db::open(
            &out.join(tag),
            config::store_options(CountingEnv::new(false)),
        )
        .unwrap();
        harness::prefill(&db, &config::SCAN_RMW).unwrap();
        let versions = Arc::new(Versions::new(&config::SCAN_RMW));
        op_stream(&db, &run, ScanRmwThread::all(run.seed, &versions), 3_000)
    };
    let a = stream("a");
    assert_eq!(a, stream("b"));
    assert!([OpKind::Put, OpKind::Scan, OpKind::Rmw]
        .iter()
        .all(|op| !a[*op as usize].is_empty()));
    std::fs::remove_dir_all(out).unwrap();
}

// ---------------------------------------------------------------------
// CountingEnv
// ---------------------------------------------------------------------

fn bytes_on_disk(dir: &std::path::Path, extension: &str) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(extension))
        .map(|p| p.metadata().unwrap().len())
        .sum()
}

#[test]
fn counting_env_byte_totals_equal_file_sizes() {
    let dir = scratch("countingenv");
    let env = CountingEnv::new(true);
    let sizes = Sizes {
        key_space: 4_000,
        prefill: 4_000,
        key_len: 16,
        value_len: 256,
    };
    // Phase 1: nothing flushed, so every WAL byte written is on disk.
    let db = Db::open(&dir, config::store_options(env.clone())).unwrap();
    harness::prefill(&db, &sizes).unwrap();
    drop(db);
    let counted = env.snapshot();
    assert!(counted.wal.write_bytes > sizes.prefill * sizes.pair_bytes());
    assert_eq!(counted.wal.write_bytes, bytes_on_disk(&dir, "log"));
    assert_eq!(counted.sst.write_bytes, 0);
    // Phase 2: one flush and no compaction, so every table byte
    // written is on disk (the replayed WAL is retired, not the table).
    let db = Db::open(&dir, config::store_options(env.clone())).unwrap();
    db.compact_to_quiescence().unwrap();
    drop(db);
    let counted = env.snapshot();
    assert!(counted.sst.write_bytes > sizes.prefill * sizes.pair_bytes());
    assert_eq!(counted.sst.write_bytes, bytes_on_disk(&dir, "sst"));
    assert!(counted.sst.sync_count >= 1 && counted.sst.sync_ns > 0);
    assert!(counted.syncs() > counted.sst.sync_count);
    std::fs::remove_dir_all(dir).unwrap();
}

// ---------------------------------------------------------------------
// Validator kill-test
// ---------------------------------------------------------------------

#[test]
fn validator_catches_a_flipped_byte_a_stale_and_a_future_version() {
    let sizes = Sizes {
        key_space: 10,
        prefill: 10,
        key_len: 16,
        value_len: 64,
    };
    let versions = Versions::new(&sizes);
    let v2 = versions.begin_write(3);
    versions.ack(3, v2);
    let good = values::encode(3, 2, 64);
    assert!(versions.check_read(3, 2, Some(&good)).is_ok());
    let mut flipped = good.clone();
    flipped[40] ^= 1;
    assert!(versions.check_read(3, 2, Some(&flipped)).is_err());
    let stale = values::encode(3, 1, 64);
    assert!(versions.check_read(3, 2, Some(&stale)).is_err());
    let future = values::encode(3, 3, 64);
    assert!(versions.check_read(3, 2, Some(&future)).is_err());
    let other_key = values::encode(4, 2, 64);
    assert!(versions.check_read(3, 2, Some(&other_key)).is_err());
    assert!(versions.check_read(3, 2, None).is_err());
    assert!(versions.check_read(3, 2, Some(&good[..63])).is_err());

    // End to end: a store that returns a corrupted value fails the run.
    let dir = scratch("killtest");
    let db = Db::open(&dir, config::store_options(CountingEnv::new(false))).unwrap();
    harness::prefill(&db, &sizes).unwrap();
    db.put(&clsm_workloads::keygen::format_key(5, 16), &flipped)
        .unwrap();
    let env = CountingEnv::new(false);
    drop(db);
    let (_db, read_back) =
        harness::reopen_and_read_back(&dir, &env, &sizes, &Versions::new(&sizes), 1).unwrap();
    assert_eq!(read_back.attempted, 10);
    assert_eq!(read_back.failed, 1, "{:?}", read_back.failures);
    std::fs::remove_dir_all(dir).unwrap();
}

// ---------------------------------------------------------------------
// Whole runs
// ---------------------------------------------------------------------

fn value_of(metrics: &[(&'static catalog::Metric, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(m, _)| m.name == name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .1
}

#[test]
fn traced_ingest_reconciles_write_stages_with_harness_put_time() {
    let out = scratch("stagesum");
    let run = args("ingest", 2.0, true, &out);
    let outcome = runner::run(&run).unwrap();
    let report = report::build(&run, &outcome);
    assert!(report.correct(), "{:?}", report.failures);
    // Σ clsm.write.* ≤ harness Σ put time.
    let unattributed = value_of(&report.per_layer, "clsm.write.unattributed_frac");
    assert!(
        (0.0..1.0).contains(&unattributed),
        "write stages sum to {:.3} of harness put time",
        1.0 - unattributed
    );
    // The read path is bypassed during the window; the write path is not.
    assert_eq!(value_of(&report.per_layer, "clsm.gets"), 0.0);
    assert!(value_of(&report.per_layer, "clsm.puts") > 0.0);
    assert!(value_of(&report.per_layer, "env.wal.write_bytes") > 0.0);
    for name in [
        "skiplist.insert_ns",
        "wal.append_ns",
        "oracle.get_ts_publish_ns",
        "gen.ns_per_op",
    ] {
        assert!(
            value_of(&report.per_layer, name) > 0.0,
            "{name} not measured"
        );
    }
    for (metric, value) in &report.end_to_end {
        assert!(*value > 0.0, "{} not measured", metric.name);
    }
    let spans = report::span_file("ingest", outcome);
    assert!(spans.contains("\"db.put\""));
    std::fs::remove_dir_all(out).unwrap();
}

#[test]
fn net_open_run_is_correct_and_writes_no_tables() {
    let out = scratch("netopen");
    let run = args("net-open", 2.0, true, &out);
    let outcome = runner::run(&run).unwrap();
    let report = report::build(&run, &outcome);
    assert!(report.correct(), "{:?}", report.failures);
    // Storage does almost nothing: no flush, no compaction, no table
    // written in the window (a short warm-up leaves a few cold blocks
    // to read, so table reads are not asserted on).
    assert_eq!(value_of(&report.per_layer, "env.sst.write_bytes"), 0.0);
    assert_eq!(value_of(&report.per_layer, "flush.count"), 0.0);
    assert_eq!(value_of(&report.per_layer, "compaction.count"), 0.0);
    assert!(value_of(&report.per_layer, "net.rtt_idle_us") > 0.0);
    assert!(value_of(&report.per_layer, "kv.dispatch_ns") > 0.0);
    let achieved = value_of(&report.end_to_end, "ops_per_s");
    let rate = config::NET_RATE as f64;
    assert!(
        (achieved - rate).abs() < 0.05 * rate,
        "achieved {achieved}/s"
    );
    std::fs::remove_dir_all(out).unwrap();
}

// ---------------------------------------------------------------------
// Contract file
// ---------------------------------------------------------------------

#[test]
fn benchmark_json_lists_exactly_the_catalogue() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let section = |key: &str| {
        let start = text.find(&format!("\"{key}\"")).unwrap();
        let end = start + text[start..].find(']').unwrap();
        text[start..end].to_string()
    };
    let names = |section: &str| -> Vec<String> {
        section
            .split("\"name\":")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).unwrap().to_string())
            .collect()
    };
    let unit_of = |section: &str, name: &str| -> String {
        let at = section.find(&format!("\"{name}\"")).unwrap();
        let rest = &section[at..];
        let unit = &rest[rest.find("\"unit\":").unwrap() + 7..];
        unit.split('"').nth(1).unwrap().to_string()
    };
    let (e2e, layers) = (section("end_to_end"), section("per_layer"));
    let expect: Vec<String> = catalog::END_TO_END
        .iter()
        .map(|m| m.name.to_string())
        .collect();
    assert_eq!(names(&e2e), expect);
    let expect: Vec<String> = catalog::per_layer().map(|m| m.name.to_string()).collect();
    assert_eq!(names(&layers), expect);
    for metric in catalog::END_TO_END {
        assert_eq!(unit_of(&e2e, metric.name), metric.unit);
    }
    for metric in catalog::per_layer() {
        assert_eq!(unit_of(&layers, metric.name), metric.unit);
    }
    assert_eq!(names(&section("workloads")), runner::WORKLOADS);
}
