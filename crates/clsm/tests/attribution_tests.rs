//! Write-path latency attribution invariants: end-to-end latency
//! reconciles with `admission + stamp + memtable + wal_enqueue +
//! publish + durable`, every write visits every mandatory stage exactly
//! once under a multi-threaded hammer.

use std::sync::Arc;

use clsm::{Db, HistogramSummary, MetricsSnapshot, Options, WriteBatch, WriteOptions};

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "clsm-attr-{}-{}-{}",
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

/// The stages a write can visit, in commit order; each records into
/// `write_path.{stage}_ns`, and `write_path.total_ns` spans them all.
const STAGES: [&str; 6] = [
    "admission",
    "stamp",
    "memtable",
    "wal_enqueue",
    "publish",
    "durable",
];

fn histogram(snap: &MetricsSnapshot, stage: &str) -> HistogramSummary {
    snap.histograms
        .get(&format!("write_path.{stage}_ns"))
        .unwrap_or_else(|| panic!("stage {stage} missing"))
        .clone()
}

/// Sum of aggregate nanoseconds across every stage histogram.
fn stage_sum(snap: &MetricsSnapshot) -> u64 {
    STAGES.iter().map(|stage| histogram(snap, stage).sum).sum()
}

/// Single-writer Db: every stage fires where expected, and the time
/// attributed to stages never exceeds (and covers a meaningful share
/// of) the end-to-end `write_path.total_ns` it decomposes.
#[test]
fn stage_sums_bounded_by_end_to_end_latency() {
    let dir = TempDir::new("bounds");
    let db = Db::open(&dir.0, Options::small_for_tests()).unwrap();

    let writes = 400u32;
    for i in 0..writes {
        db.put(format!("k{i:06}").as_bytes(), b"value").unwrap();
    }
    // A few durable writes so the `durable` stage records.
    let sync_writes = 5u32;
    for i in 0..sync_writes {
        let mut batch = WriteBatch::new();
        batch.put(format!("sync{i}"), "v");
        db.write(batch, &WriteOptions::durable()).unwrap();
    }

    let snap = db.metrics();
    let total = histogram(&snap, "total");
    assert_eq!(total.count, u64::from(writes + sync_writes));

    let by_name = |stage: &str| histogram(&snap, stage);
    // Every write is stamped, inserted, logged and published exactly
    // once; only sync writes wait for the fsync.
    for stage in ["stamp", "memtable", "wal_enqueue", "publish"] {
        assert_eq!(by_name(stage).count, total.count, "stage {stage}");
    }
    assert_eq!(by_name("durable").count, u64::from(sync_writes));
    assert!(by_name("admission").count <= total.count);

    // Every stage interval lies inside some request's measured
    // end-to-end interval, so the aggregate can never exceed it; and
    // on this workload the stages should explain a non-trivial share.
    let stages = stage_sum(&snap);
    assert!(
        stages <= total.sum,
        "stage sum {stages} exceeds end-to-end sum {}",
        total.sum
    );
    assert!(
        stages >= total.sum / 100,
        "stage sum {stages} explains <1% of end-to-end sum {}",
        total.sum
    );

    // The doctor report carries the same data.
    let rendered = db.doctor().render();
    assert!(rendered.contains("write path stages (ns):"));
}

/// 8-thread hammer mixing single puts and multi-op batches: every
/// request records its end-to-end latency and each mandatory stage
/// exactly once, and the stage sum stays inside the end-to-end sum.
#[test]
fn stage_counts_reconcile_under_hammer() {
    let dir = TempDir::new("hammer");
    let db = Arc::new(Db::open(&dir.0, Options::small_for_tests()).unwrap());
    let threads = 8u64;
    let per_thread = 300u64;

    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for i in 0..per_thread {
                    let key = format!("t{t}-{i:06}");
                    if i % 8 == 0 {
                        let mut batch = WriteBatch::new();
                        batch.put(key.clone(), "v").put(format!("{key}-b"), "v");
                        db.write(batch, &WriteOptions::new()).unwrap();
                    } else {
                        db.put(key.as_bytes(), b"v").unwrap();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let snap = db.metrics();
    let total = histogram(&snap, "total");
    assert_eq!(total.count, threads * per_thread);
    for stage in STAGES {
        let count = histogram(&snap, stage).count;
        match stage {
            "admission" => assert!(count <= total.count),
            "durable" => assert_eq!(count, 0),
            _ => assert_eq!(count, total.count, "stage {stage}"),
        }
    }
    assert!(stage_sum(&snap) <= total.sum);
}
