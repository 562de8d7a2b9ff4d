//! Concurrency tests: the guarantees the paper's algorithms provide
//! under real multi-threaded execution — atomicity of RMW, snapshot
//! serializability, safety of reads racing with merges — and that
//! adding writers does not serialize the write path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use clsm::{Db, Options, RmwDecision, WriteBatch, WriteOptions};

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "clsm-conc-{}-{}-{}",
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

#[test]
fn concurrent_writers_and_readers_with_flushes() {
    let dir = TempDir::new("rw");
    let db = Arc::new(Db::open(&dir.0, Options::small_for_tests()).unwrap());
    let writers = 4u32;
    let per_writer = 1500u32;

    let mut handles = Vec::new();
    for t in 0..writers {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            for i in 0..per_writer {
                let key = format!("w{t}-{i:06}");
                db.put(key.as_bytes(), key.as_bytes()).unwrap();
                // Read-your-writes: cLSM gets are linearizable with
                // respect to the writer's own completed puts.
                assert_eq!(db.get(key.as_bytes()).unwrap(), Some(key.into_bytes()));
            }
        }));
    }
    // A reader thread continuously checks that values, when present,
    // always equal their key (no torn or interleaved writes).
    let stop = Arc::new(AtomicBool::new(false));
    {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut i = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let key = format!("w{}-{:06}", i % 4, i % 1500);
                if let Some(v) = db.get(key.as_bytes()).unwrap() {
                    assert_eq!(v, key.into_bytes());
                }
                i = i.wrapping_add(7);
            }
        }));
    }
    for h in handles.drain(..handles.len() - 1) {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    // Everything is present afterwards.
    db.compact_to_quiescence().unwrap();
    for t in 0..writers {
        for i in (0..per_writer).step_by(113) {
            let key = format!("w{t}-{i:06}");
            assert_eq!(
                db.get(key.as_bytes()).unwrap(),
                Some(key.clone().into_bytes()),
                "{key}"
            );
        }
    }
    assert!(
        db.metrics().counters["db.flushes"] > 0,
        "test should have exercised flushes"
    );
}

#[test]
fn rmw_increments_are_never_lost() {
    let dir = TempDir::new("rmw-inc");
    let db = Arc::new(Db::open(&dir.0, Options::small_for_tests()).unwrap());
    let threads = 4u64;
    let increments = 800u64;
    let mut handles = Vec::new();
    for _ in 0..threads {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            for _ in 0..increments {
                db.read_modify_write(b"counter", |cur| {
                    let n = cur.map_or(0u64, |v| u64::from_le_bytes(v.try_into().unwrap()));
                    RmwDecision::Update((n + 1).to_le_bytes().to_vec())
                })
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let v = db.get(b"counter").unwrap().unwrap();
    assert_eq!(
        u64::from_le_bytes(v.try_into().unwrap()),
        threads * increments
    );
}

/// N threads each increment every one of K counters M times through
/// `read_modify_write`; every counter must land on exactly `N * M`.
#[test]
fn rmw_contended_counters_are_exact_on_db() {
    let dir = TempDir::new("rmw-multi-db");
    let store = Arc::new(Db::open(&dir.0, Options::small_for_tests()).unwrap());
    let threads = 4usize;
    let per_key = 200u64;
    let keys: Vec<Vec<u8>> = (0..8).map(|k| format!("ctr{k:02}").into_bytes()).collect();
    let mut handles = Vec::new();
    for t in 0..threads {
        let store = Arc::clone(&store);
        let keys = keys.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..per_key {
                // Rotate the visiting order per thread and per round so
                // different threads contend on different keys over time.
                for j in 0..keys.len() {
                    let key = &keys[(t + i as usize + j) % keys.len()];
                    store
                        .read_modify_write(key, |cur| {
                            let n = cur.map_or(0u64, |v| u64::from_le_bytes(v.try_into().unwrap()));
                            RmwDecision::Update((n + 1).to_le_bytes().to_vec())
                        })
                        .unwrap();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    for (k, key) in keys.iter().enumerate() {
        let v = store.get(key).unwrap().unwrap();
        assert_eq!(
            u64::from_le_bytes(v.try_into().unwrap()),
            threads as u64 * per_key,
            "counter {k} lost increments"
        );
    }
}

#[test]
fn put_if_absent_has_exactly_one_winner() {
    let dir = TempDir::new("pia-race");
    let db = Arc::new(Db::open(&dir.0, Options::small_for_tests()).unwrap());
    for round in 0..30u32 {
        let key = format!("race-{round}");
        let winners = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let db = Arc::clone(&db);
            let winners = Arc::clone(&winners);
            let barrier = Arc::clone(&barrier);
            let key = key.clone();
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                if db
                    .put_if_absent(key.as_bytes(), format!("t{t}").as_bytes())
                    .unwrap()
                {
                    winners.fetch_add(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(winners.load(Ordering::SeqCst), 1, "round {round}");
    }
}

#[test]
fn snapshots_see_atomic_batches() {
    // Writers keep the invariant value(a) == value(b) via atomic
    // batches; snapshot readers must never observe a violation
    // (serializability of scans, §3.2).
    let dir = TempDir::new("snap-atomic");
    let db = Arc::new(Db::open(&dir.0, Options::small_for_tests()).unwrap());
    db.write(
        WriteBatch::from(
            &[
                (b"a".to_vec(), Some(0u64.to_le_bytes().to_vec())),
                (b"b".to_vec(), Some(0u64.to_le_bytes().to_vec())),
            ][..],
        ),
        &WriteOptions::new(),
    )
    .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                n += 1;
                db.write(
                    WriteBatch::from(
                        &[
                            (b"a".to_vec(), Some(n.to_le_bytes().to_vec())),
                            (b"b".to_vec(), Some(n.to_le_bytes().to_vec())),
                        ][..],
                    ),
                    &WriteOptions::new(),
                )
                .unwrap();
            }
        }));
    }
    for _ in 0..2 {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut last = 0u64;
            for _ in 0..300 {
                let snap = db.snapshot().unwrap();
                let a = snap.get(b"a").unwrap().unwrap();
                let b = snap.get(b"b").unwrap().unwrap();
                assert_eq!(a, b, "snapshot saw a torn batch");
                let val = u64::from_le_bytes(a.try_into().unwrap());
                // Snapshots are monotone per thread.
                assert!(val >= last, "snapshot went back in time");
                last = val;
            }
            stop.store(true, Ordering::Relaxed);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn scans_race_with_writes_and_merges() {
    let dir = TempDir::new("scan-race");
    let db = Arc::new(Db::open(&dir.0, Options::small_for_tests()).unwrap());
    for i in 0..200u32 {
        db.put(format!("base{i:05}").as_bytes(), b"v").unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    // Churn writer: inserts and deletes, forcing flushes.
    {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut i = 0u64;
            // Keep churning until stopped AND enough volume has gone
            // through to guarantee at least one memtable flush.
            while !stop.load(Ordering::Relaxed) || i < 3000 {
                let key = format!("churn{:05}", i % 500);
                if i.is_multiple_of(3) {
                    db.delete(key.as_bytes()).unwrap();
                } else {
                    db.put(key.as_bytes(), &[0u8; 128]).unwrap();
                }
                i += 1;
            }
        }));
    }
    // Scanners: the 200 base keys must always all be present and
    // sorted in every snapshot.
    for _ in 0..2 {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            for _ in 0..50 {
                let snap = db.snapshot().unwrap();
                let items: Vec<Vec<u8>> = snap
                    .range(b"base", Some(b"base99999"))
                    .unwrap()
                    .map(|r| r.unwrap().0)
                    .collect();
                assert_eq!(items.len(), 200);
                for w in items.windows(2) {
                    assert!(w[0] < w[1]);
                }
            }
            stop.store(true, Ordering::Relaxed);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // The churn volume guarantees a flush was *scheduled*; give the
    // background worker bounded time to run it before asserting.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while db.metrics().counters["db.flushes"] == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(db.metrics().counters["db.flushes"] > 0);
}

#[test]
fn gets_never_block_during_heavy_writing() {
    // Smoke test for Algorithm 1's non-blocking get: reads interleaved
    // with a write storm (flushes, WAL rotations, compactions) must
    // all complete and observe correct values.
    let dir = TempDir::new("nonblock");
    let db = Arc::new(Db::open(&dir.0, Options::small_for_tests()).unwrap());
    db.put(b"stable", b"fixture").unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let progress = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let writer = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        let progress = Arc::clone(&progress);
        std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                db.put(format!("noise{i:08}").as_bytes(), &vec![1u8; 256])
                    .unwrap();
                i += 1;
                progress.store(i, Ordering::Relaxed);
            }
            i
        })
    };
    // Wait for the storm to actually start: optimized gets can finish
    // all 20k iterations before the writer thread is even scheduled.
    while progress.load(Ordering::Relaxed) == 0 {
        std::thread::yield_now();
    }
    for _ in 0..20_000 {
        assert_eq!(db.get(b"stable").unwrap(), Some(b"fixture".to_vec()));
    }
    stop.store(true, Ordering::Relaxed);
    let written = writer.join().unwrap();
    assert!(written > 0);
}

#[test]
fn linearizable_snapshots_always_see_own_writes_under_concurrency() {
    let dir = TempDir::new("linearizable-conc");
    let mut opts = Options::small_for_tests();
    opts.linearizable_snapshots = true;
    let db = Arc::new(Db::open(&dir.0, opts).unwrap());
    let mut handles = Vec::new();
    for t in 0..3u32 {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            for i in 0..300u32 {
                let key = format!("lin-{t}-{i:04}");
                db.put(key.as_bytes(), b"v").unwrap();
                // §3.2.1: the linearizable variant never reads "in the
                // past" — the writer's own completed put must be
                // visible in a snapshot taken immediately after.
                let snap = db.snapshot().unwrap();
                assert_eq!(
                    snap.get(key.as_bytes()).unwrap(),
                    Some(b"v".to_vec()),
                    "linearizable snapshot missed its own write"
                );
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

/// Puts per second from `threads` writers hammering a fresh store for
/// 0.4 s. The default 128 MiB memtable never fills in the window, so no
/// flush is behind and admission never paces: the number is the write
/// path alone — stamp, skip-list insert, WAL enqueue.
fn write_throughput(threads: u64) -> f64 {
    let dir = TempDir::new(&format!("write-scaling-t{threads}"));
    let db = Arc::new(Db::open(&dir.0, Options::default()).unwrap());
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..threads)
        .map(|t| {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let value = [0x5au8; 100];
                let mut puts = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = format!("scale.{:06}", (t * 7919 + puts * 31) % 20_000);
                    db.put(key.as_bytes(), &value).unwrap();
                    puts += 1;
                }
                puts
            })
        })
        .collect();
    let started = std::time::Instant::now();
    std::thread::sleep(std::time::Duration::from_millis(400));
    stop.store(true, Ordering::Relaxed);
    let puts: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
    puts as f64 / started.elapsed().as_secs_f64()
}

/// Adding writer threads must not lose write throughput. On a small
/// box extra writers cannot make the store faster, so the rule is that
/// 4 writers keep at least 0.9x of one. The serialization bugs this
/// exists to catch — a hot Active-set lock, a shared arena mutex, one
/// WAL queue taken per put — cost far more than 10% and fail every
/// attempt, so best-of-3 absorbs scheduler noise without masking a
/// real collapse. The 8-writer point is printed, never asserted.
#[test]
fn adding_writer_threads_does_not_lose_throughput() {
    let mut failures = Vec::new();
    for attempt in 1..=3 {
        let (t1, t4, t8) = (
            write_throughput(1),
            write_throughput(4),
            write_throughput(8),
        );
        eprintln!(
            "[write-scaling] attempt {attempt}: t1={:.1} t4={:.1} t8={:.1} kops/s \
             (t4/t1={:.2}, t8/t1={:.2})",
            t1 / 1e3,
            t4 / 1e3,
            t8 / 1e3,
            t4 / t1,
            t8 / t1
        );
        if t4 >= 0.9 * t1 {
            return;
        }
        failures.push((t1, t4, t8));
    }
    panic!(
        "4-writer throughput stayed below 0.9x one writer in every attempt — \
         the write path is serializing: {failures:?} (puts/s at 1, 4, 8 writers)"
    );
}

#[test]
fn write_amp_grows_only_through_compaction() {
    let dir = TempDir::new("write-amp");
    let db = Arc::new(Db::open(&dir.0, Options::small_for_tests()).unwrap());
    // 6000 distinct keys overflow L1's 256 KiB budget into L2; a second
    // pass over every third key leaves newer versions above them.
    for pass in 0..2u8 {
        for i in (0..6000u32).filter(|i| pass == 0 || i % 3 == 0) {
            db.put(format!("key{i:06}").as_bytes(), &[pass; 64])
                .unwrap();
        }
        db.compact_to_quiescence().unwrap();
    }
    let amp = db.write_amp();
    assert!(amp.flushed > 0, "no flush bytes recorded");
    assert!(amp.factor() >= 1.0);
    let levels = db.level_file_counts();
    assert!(
        levels.iter().filter(|&&n| n > 0).count() >= 2,
        "expected a multi-level store, got {levels:?}"
    );
    let counter = |db: &Db| db.metrics().counters["storage.bytes_compacted"];
    // A manual compaction is accounted exactly like a background one:
    // both byte counts grow, by the same amount.
    let (amp_before, counter_before) = (db.write_amp().compacted, counter(&db));
    db.compact_range(b"key000000", b"key999999").unwrap();
    let amp_grew = db.write_amp().compacted - amp_before;
    let counter_grew = counter(&db) - counter_before;
    assert!(amp_grew > 0, "a manual merge wrote no compaction bytes");
    assert_eq!(amp_grew, counter_grew);
}
