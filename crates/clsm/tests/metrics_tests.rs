//! Integration tests for the observability layer: after a mixed
//! workload, `Db::metrics()` must return populated latency histograms
//! for every operation class plus flush/compaction/storage metrics,
//! and the renderers must emit them. The contract test pins what the
//! repo benchmark reads and which numbers are derived from which.

use std::path::Path;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;

use clsm::{Db, Job, Options, RmwDecision, WriteBatch, WriteOptions};
use clsm_util::env::Env;

mod common;
use common::FailTableWrites;

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "clsm-metrics-{}-{}-{}",
            std::process::id(),
            name,
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs puts, gets, deletes, batches, RMWs, snapshots, and scans from
/// several threads, with enough volume to force flushes.
fn mixed_workload(db: &Arc<Db>) {
    std::thread::scope(|scope| {
        for t in 0..4u32 {
            let db = Arc::clone(db);
            scope.spawn(move || {
                for i in 0..800u32 {
                    let key = format!("k{t}-{i:05}");
                    db.put(key.as_bytes(), &[b'v'; 64]).unwrap();
                    if i % 3 == 0 {
                        let _ = db.get(key.as_bytes()).unwrap();
                    }
                    if i % 7 == 0 {
                        db.delete(key.as_bytes()).unwrap();
                    }
                    if i % 50 == 0 {
                        db.read_modify_write(b"counter", |cur| {
                            let n = cur.map_or(0u64, |v| u64::from_le_bytes(v.try_into().unwrap()));
                            RmwDecision::Update((n + 1).to_le_bytes().to_vec())
                        })
                        .unwrap();
                    }
                }
            });
        }
        let db2 = Arc::clone(db);
        scope.spawn(move || {
            // Each `range` takes a snapshot internally, so this also
            // exercises the snapshot-latency instrument.
            for _ in 0..20 {
                let mut iter = db2.range(b"k".to_vec()..).unwrap();
                for _ in 0..10 {
                    if iter.next().is_none() {
                        break;
                    }
                }
            }
        });
    });
    db.write(
        WriteBatch::from(
            &[
                (b"wb-a".to_vec(), Some(b"1".to_vec())),
                (b"wb-b".to_vec(), None),
            ][..],
        ),
        &WriteOptions::new(),
    )
    .unwrap();
    db.compact_to_quiescence().unwrap();
}

#[test]
fn metrics_populated_after_mixed_workload() {
    let dir = TempDir::new("mixed");
    let db = Arc::new(Db::open(&dir.0, Options::small_for_tests()).unwrap());
    mixed_workload(&db);
    // With nothing in flight `getSnap` grants the counter itself, so
    // the `snap_time` gauge below is non-zero however the scans above
    // interleaved with a writer still holding timestamp 1.
    drop(db.snapshot().unwrap());

    let snap = db.metrics();

    // Per-op latency histograms: non-zero count, plausible and
    // monotone percentiles (acceptance criterion).
    for op in ["put", "get", "delete", "rmw", "snapshot", "scan"] {
        let name = format!("op.{op}.latency_ns");
        let h = snap
            .histograms
            .get(&name)
            .unwrap_or_else(|| panic!("missing histogram {name}"));
        assert!(h.count > 0, "{name} recorded nothing");
        assert!(h.p50 > 0, "{name} p50 is zero");
        assert!(h.p50 <= h.p99, "{name} percentiles not monotone");
        assert!(h.min <= h.p50 && h.p99 <= h.max.max(h.p99), "{name} bounds");
    }
    assert!(snap.histograms["op.write_batch.latency_ns"].count >= 1);

    // Counters line up with the workload shape (`write_batch` bumps
    // the put counter once per batch, the historical semantics).
    assert_eq!(snap.counters["db.puts"], 4 * 800 + 1);
    assert_eq!(snap.counters["db.gets"], 4 * 800u64.div_ceil(3));
    assert_eq!(snap.counters["db.deletes"], 4 * 800u64.div_ceil(7));
    assert_eq!(snap.counters["db.rmw_ops"], 4 * 16);
    assert_eq!(snap.counters["db.snapshots"], 21);

    // The put volume (4 × 800 × 64 B values ≫ the tiny test memtable)
    // must have forced flushes, recorded by both the db-level counter
    // and the storage layer's duration/bytes instruments.
    assert!(snap.counters["db.flushes"] > 0, "no flush recorded");
    assert!(snap.histograms["storage.flush_ns"].count > 0);
    assert!(snap.counters["storage.bytes_flushed"] > 0);
    // WAL sync latency is only exercised by synchronous logging (see
    // the dedicated test below); here just check registration.
    assert!(snap.histograms.contains_key("storage.wal_sync_ns"));

    // Oracle pressure gauges are registered and sane: nothing is
    // in flight after the workload joins.
    assert_eq!(snap.gauges["oracle.active_writes"], 0);
    assert_eq!(snap.gauges["oracle.live_snapshots"], 0);
    assert!(snap.gauges["oracle.snap_time"] > 0);
    assert!(snap.gauges.contains_key("db.memtable_bytes"));

    // The one exposition carries the data: a row per name.
    let text = snap.to_text();
    let row = |name: &str| {
        let line = text
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name));
        line.unwrap_or_else(|| panic!("no {name} row: {text}"))
            .to_string()
    };
    let puts = snap.counters["db.puts"];
    assert!(row("db.puts").ends_with(&format!(" {puts}")));
    let flushed = snap.counters["storage.bytes_flushed"];
    assert!(row("storage.bytes_flushed").ends_with(&format!(" {flushed}")));
    let get = &snap.histograms["op.get.latency_ns"];
    let columns = format!("count={} sum={} ", get.count, get.sum);
    assert!(row("op.get.latency_ns").contains(&columns));
    assert!(row("op.put.latency_ns").contains("p999="));
}

#[test]
fn metrics_are_cheap_and_isolated_per_db() {
    // Two stores must not share instruments.
    let d1 = TempDir::new("iso1");
    let d2 = TempDir::new("iso2");
    let db1 = Db::open(&d1.0, Options::small_for_tests()).unwrap();
    let db2 = Db::open(&d2.0, Options::small_for_tests()).unwrap();
    db1.put(b"a", b"1").unwrap();
    db1.put(b"b", b"2").unwrap();
    assert_eq!(db1.metrics().counters["db.puts"], 2);
    assert_eq!(db2.metrics().counters["db.puts"], 0);
}

#[test]
fn wal_sync_latency_recorded_with_synchronous_logging() {
    let dir = TempDir::new("sync");
    let opts = Options {
        sync_writes: true,
        ..Options::small_for_tests()
    };
    let db = Db::open(&dir.0, opts).unwrap();
    for i in 0..50u32 {
        db.put(format!("sync{i:04}").as_bytes(), b"v").unwrap();
    }
    let snap = db.metrics();
    let h = &snap.histograms["storage.wal_sync_ns"];
    assert!(
        h.count >= 50,
        "sync logging must fsync per write, saw {}",
        h.count
    );
    assert!(h.p50 > 0);
}

#[test]
fn write_stall_metrics_appear_under_pressure() {
    // A memtable budget far below the write volume forces stalls
    // (§5.3's back-pressure); the stall counter and duration must move.
    let dir = TempDir::new("stall");
    let mut opts = Options::small_for_tests();
    opts.memtable_bytes = 4 * 1024;
    let db = Db::open(&dir.0, opts).unwrap();
    for i in 0..3000u32 {
        db.put(format!("s{i:06}").as_bytes(), &[b'x'; 128]).unwrap();
    }
    db.compact_to_quiescence().unwrap();
    let snap = db.metrics();
    assert!(snap.counters["db.flushes"] > 0);
    // Stalls are timing-dependent; only check coherence, not presence.
    if snap.counters["db.write_stalls"] > 0 {
        assert!(snap.counters["db.write_stall_ns"] > 0);
    }
}

/// The names the repo benchmark's report reads from `Db::metrics()`
/// (`benchmark/src/report.rs`), less the ones nothing has recorded
/// since their sources went (`write_path.{queue_wait,wake}_ns`,
/// `db.commit.*`): a name missing here reads 0 there.
const BENCHMARK_COUNTERS: [&str; 12] = [
    "db.puts",
    "db.gets",
    "db.rmw_ops",
    "db.rmw_conflicts",
    "db.write_stalls",
    "db.write_stall_ns",
    "admission.delayed_writes",
    "admission.delay_ns",
    "db.flushes",
    "db.compactions",
    "storage.bytes_flushed",
    "storage.bytes_compacted",
];
const BENCHMARK_HISTOGRAMS: [&str; 10] = [
    "write_path.total_ns",
    "write_path.admission_ns",
    "write_path.stamp_ns",
    "write_path.memtable_ns",
    "write_path.wal_enqueue_ns",
    "write_path.publish_ns",
    "write_path.durable_ns",
    "op.snapshot.latency_ns",
    "storage.flush_ns",
    "storage.compaction_ns",
];

/// Two numbers only this registry records for the paper: each
/// exclusive hold's length (§3.1's short merge hooks) and `getTS`
/// rollbacks (Algorithm 2's Figure 4 race).
const EXCLUSIVE_HOLDS: &str = "db.exclusive_hold_ns";
const GETTS_ROLLBACKS: &str = "oracle.getts_rollbacks";

/// Every operation class once or more on a stepped store, flushes and
/// a compaction included; then the registry must hold every name the
/// benchmark reads, and each number reported under two names must be
/// one record: an operation count is its latency histograms' count,
/// a flush or compaction count that of its duration histogram,
/// `write_path.total_ns` the merge of the three write kinds.
#[test]
fn every_derived_number_agrees_with_its_one_record() {
    let dir = TempDir::new("contract");
    let mut opts = Options::small_for_tests();
    // Nothing drains while the test runs no job, so pacing would only
    // sleep.
    opts.admission.enabled = false;
    let db = Db::open_stepped(&dir.0, opts).unwrap();
    let mut round = 0u32;
    while !db.due_jobs().contains(&Job::Compact) {
        assert!(round < 100, "no compaction fell due");
        for i in 0..100u32 {
            let key = format!("key{i:04}");
            db.put(key.as_bytes(), format!("round {round} {i}").as_bytes())
                .unwrap();
            if i % 10 == 0 {
                db.delete(key.as_bytes()).unwrap();
                assert!(db.get(key.as_bytes()).unwrap().is_none());
            }
        }
        let batch = [
            (b"batch-a".to_vec(), Some(round.to_le_bytes().to_vec())),
            (b"batch-b".to_vec(), None),
        ];
        db.write(WriteBatch::from(&batch[..]), &WriteOptions::new())
            .unwrap();
        db.read_modify_write(b"counter", |cur| {
            let n = cur.map_or(0u32, |v| u32::from_le_bytes(v.try_into().unwrap()));
            RmwDecision::Update((n + 1).to_le_bytes().to_vec())
        })
        .unwrap();
        assert!(db.run_job(Job::Flush).unwrap());
        round += 1;
    }
    assert!(db.run_job(Job::Compact).unwrap());
    let snap = db.snapshot().unwrap();
    assert!(snap.get(b"key0001").unwrap().is_some());
    drop(snap);
    assert_eq!(db.range(b"key".to_vec()..).unwrap().count(), 90);

    let m = db.metrics();
    for name in BENCHMARK_COUNTERS {
        assert!(m.counters.contains_key(name), "counter {name} missing");
    }
    for name in BENCHMARK_HISTOGRAMS {
        assert!(m.histograms.contains_key(name), "histogram {name} missing");
    }
    // One thread stamps every write, so no stamp can roll back.
    assert_eq!(m.counters.get(GETTS_ROLLBACKS), Some(&0));
    for name in [
        "db.flushes",
        "db.compactions",
        "storage.bytes_flushed",
        "storage.bytes_compacted",
    ] {
        assert!(m.counters[name] > 0, "{name} did not move");
    }

    let count = |histogram: &str| m.histograms[histogram].count;
    let rounds = u64::from(round);
    assert_eq!(count("op.put.latency_ns"), 100 * rounds);
    assert_eq!(count("op.delete.latency_ns"), 10 * rounds);
    assert_eq!(count("op.write_batch.latency_ns"), rounds);
    let derived = [
        (
            "db.puts",
            count("op.put.latency_ns") + count("op.write_batch.latency_ns"),
        ),
        ("db.deletes", count("op.delete.latency_ns")),
        ("db.gets", count("op.get.latency_ns")),
        ("db.rmw_ops", count("op.rmw.latency_ns")),
        ("db.snapshots", count("op.snapshot.latency_ns")),
        ("db.flushes", count("storage.flush_ns")),
        ("db.compactions", count("storage.compaction_ns")),
    ];
    for (name, histograms) in derived {
        assert!(histograms > 0, "{name}: its histograms recorded nothing");
        assert_eq!(m.counters[name], histograms, "{name}");
    }
    let writes = ["put", "delete", "write_batch"]
        .map(|kind| &m.histograms[&format!("op.{kind}.latency_ns")]);
    let total = &m.histograms["write_path.total_ns"];
    assert_eq!(total.count, writes.iter().map(|h| h.count).sum::<u64>());
    assert_eq!(total.sum, writes.iter().map(|h| h.sum).sum::<u64>());
    assert_eq!(total.max, writes.iter().map(|h| h.max).max().unwrap());
    // Each write records its four locked stages once, in the same
    // count as the writes it times.
    for stage in ["stamp", "memtable", "wal_enqueue", "publish"] {
        let recorded = count(&format!("write_path.{stage}_ns"));
        assert_eq!(recorded, total.count, "write_path.{stage}_ns");
    }
    // The watchdog's total is the sum of its kinds.
    let kinds: u64 = ["write_stall", "sustained_slowdown", "exclusive_hold"]
        .iter()
        .map(|kind| m.counters[&format!("watchdog.{kind}_events")])
        .sum();
    assert_eq!(m.counters["watchdog.stall_events"], kinds);
    // A flush holds the lock twice (`beforeMerge`, `afterMerge`), a
    // multi-op batch once; a compaction never takes it.
    assert_eq!(count(EXCLUSIVE_HOLDS), 3 * rounds);
}

/// Checks every number `clsm-doctor` prints from a gauge against the
/// public source of the same number, after the job `job`. `writes` is
/// how many single puts the store has taken; `parked` whether a failed
/// flush left its `P'm` behind.
fn check_shape_gauges(
    db: &Db,
    env: &FailTableWrites,
    opts: &Options,
    writes: u64,
    parked: bool,
    job: &str,
) {
    let snap = db.snapshot().unwrap();
    let m = db.metrics();
    let gauge = |name: &str| {
        let value = m.gauges.get(name).copied();
        value.unwrap_or_else(|| panic!("{job}: no gauge {name}"))
    };

    // The tree's shape: a files and a bytes gauge per level, no more.
    let files = db.level_file_counts();
    assert_eq!(files.len(), opts.store.num_levels);
    let mut on_disk = 0;
    for (level, &count) in files.iter().enumerate() {
        let gauged = gauge(&format!("storage.level.{level}.files"));
        assert_eq!(gauged, count as i64, "{job}: L{level} files");
        let bytes = gauge(&format!("storage.level.{level}.bytes"));
        assert_eq!(bytes > 0, count > 0, "{job}: L{level} holds {bytes} bytes");
        on_disk += bytes as u64;
    }
    let past = format!("storage.level.{}.files", files.len());
    assert!(!m.gauges.contains_key(&past), "{job}: {past}");
    assert!(gauge("storage.l0_runs") <= files[0] as i64, "{job}");
    // Every key lies in ["", "\xff"], so the whole tree is charged.
    if !parked {
        let memtable = db.memtable_bytes() as u64;
        let total = db.approximate_size(b"", b"\xff");
        assert_eq!(on_disk + memtable, total, "{job}: level bytes");
    }

    // The memtables.
    assert_eq!(
        gauge("db.memtable_bytes"),
        db.memtable_bytes() as i64,
        "{job}"
    );
    assert_eq!(gauge("db.memtable_capacity"), opts.memtable_bytes as i64);
    assert_eq!(
        gauge("db.immutable_pending"),
        i64::from(parked),
        "{job}: P'm"
    );

    // The WAL: its number names the newest log file, and the queue
    // holds bytes exactly when a log job is due.
    let logs = env.fault.list(Path::new("/shape-gauges")).unwrap();
    let newest = logs.iter().filter_map(|name| name.strip_suffix(".log"));
    let newest = newest.filter_map(|n| n.parse::<i64>().ok()).max();
    assert_eq!(Some(gauge("storage.wal_number")), newest, "{job}: {logs:?}");
    let queued = gauge("storage.wal_queue_bytes") > 0;
    assert_eq!(
        queued,
        db.due_jobs().contains(&Job::Log),
        "{job}: logging queue"
    );

    // The oracle: one timestamp per single put, and the snapshot held
    // above is the oldest live one.
    assert_eq!(
        gauge("oracle.time_counter"),
        writes as i64,
        "{job}: timeCounter"
    );
    assert_eq!(gauge("oracle.live_snapshots"), 1);
    assert_eq!(gauge("oracle.oldest_snapshot_ts"), snap.timestamp() as i64);
    assert!(gauge("oracle.active_slots") > gauge("oracle.active_writes"));

    // The block cache, the read-only flag and the hold in progress.
    let (hits, misses) = db.cache_stats().expect("a block cache");
    assert_eq!(m.counters["storage.cache_hits"], hits, "{job}: cache hits");
    assert_eq!(
        m.counters["storage.cache_misses"], misses,
        "{job}: cache misses"
    );
    assert_eq!(gauge("db.read_only"), i64::from(db.read_only().is_some()));
    assert_eq!(gauge("db.exclusive_hold_in_progress_ns"), 0, "{job}");

    // Admission, with pacing off: never paced, nobody stalled, and a
    // parked `P'm` is a flush behind (stage 1).
    assert_eq!(gauge("admission.paced_bytes_per_sec"), 0, "{job}");
    assert_eq!(gauge("admission.stalled"), 0, "{job}");
    let stage = gauge("admission.stage");
    assert!((0..=2).contains(&stage), "{job}: stage {stage}");
    if parked {
        assert_eq!(stage, 1, "{job}: stage");
    }

    drop(snap);
    assert_eq!(db.metrics().gauges["oracle.oldest_snapshot_ts"], 0);
}

/// Every number `clsm-doctor` prints is a registered metric: a stepped
/// store runs flushes, a flush that fails and its retry, and a
/// compaction, and after each job every new gauge agrees with its
/// public source.
#[test]
fn doctor_gauges_agree_with_their_public_sources_after_every_job() {
    let env = FailTableWrites::new(0x5_4a9e, 0);
    let mut opts = Options::small_for_tests();
    // Nothing drains while the test runs no job, so pacing would only
    // sleep.
    opts.admission.enabled = false;
    opts.store.env = Arc::new(env.clone());
    let db = Db::open_stepped(Path::new("/shape-gauges"), opts.clone()).unwrap();
    let mut writes = 0u64;
    let fill = |db: &Db, writes: &mut u64| {
        let round = *writes;
        while !db.due_jobs().contains(&Job::Flush) {
            let key = format!("key{:04}", *writes % 300);
            db.put(
                key.as_bytes(),
                format!("{round} {key}").repeat(4).as_bytes(),
            )
            .unwrap();
            *writes += 1;
        }
    };
    check_shape_gauges(&db, &env, &opts, writes, false, "open");

    fill(&db, &mut writes);
    assert!(db.run_job(Job::Flush).unwrap());
    check_shape_gauges(&db, &env, &opts, writes, false, "first flush");
    // Gets from the tables move the cache counters.
    for i in 0..50 {
        db.get(format!("key{i:04}").as_bytes()).unwrap();
    }
    check_shape_gauges(&db, &env, &opts, writes, false, "gets");
    let (hits, misses) = db.cache_stats().unwrap();
    assert!(hits + misses > 0, "the gets never reached the cache");

    fill(&db, &mut writes);
    env.remaining.store(1, SeqCst);
    db.run_job(Job::Flush).unwrap_err();
    check_shape_gauges(&db, &env, &opts, writes, true, "failed flush");
    assert!(db.run_job(Job::Flush).unwrap());
    check_shape_gauges(&db, &env, &opts, writes, false, "retried flush");

    let mut flushes = 2;
    while !db.due_jobs().contains(&Job::Compact) {
        assert!(flushes < 100, "no compaction fell due");
        fill(&db, &mut writes);
        assert!(db.run_job(Job::Flush).unwrap());
        flushes += 1;
        check_shape_gauges(&db, &env, &opts, writes, false, &format!("flush {flushes}"));
    }
    assert!(db.run_job(Job::Compact).unwrap());
    check_shape_gauges(&db, &env, &opts, writes, false, "compaction");
    assert!(db.level_file_counts()[1..].iter().any(|&n| n > 0));
}
