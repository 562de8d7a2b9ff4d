//! Functional tests of the cLSM database: CRUD, flush, recovery,
//! snapshots, scans, and RMW.

use clsm::{Db, Job, Options, RmwDecision, WriteBatch, WriteOptions};

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "clsm-db-{}-{}-{}",
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

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn open_small(dir: &TempDir) -> Db {
    Db::open(dir.path(), Options::small_for_tests()).unwrap()
}

#[test]
fn put_get_delete_roundtrip() {
    let dir = TempDir::new("crud");
    let db = open_small(&dir);
    assert_eq!(db.get(b"k").unwrap(), None);
    db.put(b"k", b"v1").unwrap();
    assert_eq!(db.get(b"k").unwrap(), Some(b"v1".to_vec()));
    db.put(b"k", b"v2").unwrap();
    assert_eq!(db.get(b"k").unwrap(), Some(b"v2".to_vec()));
    db.delete(b"k").unwrap();
    assert_eq!(db.get(b"k").unwrap(), None);
    // Re-put after delete works.
    db.put(b"k", b"v3").unwrap();
    assert_eq!(db.get(b"k").unwrap(), Some(b"v3".to_vec()));
}

#[test]
fn empty_key_rejected_empty_value_allowed() {
    let dir = TempDir::new("edge");
    let db = open_small(&dir);
    assert!(db.put(b"", b"x").is_err());
    db.put(b"k", b"").unwrap();
    assert_eq!(db.get(b"k").unwrap(), Some(Vec::new()));
}

#[test]
fn large_values_roundtrip() {
    let dir = TempDir::new("large");
    let db = open_small(&dir);
    let big = vec![0x5au8; 300_000]; // much larger than the memtable
    db.put(b"big", &big).unwrap();
    assert_eq!(db.get(b"big").unwrap(), Some(big.clone()));
    db.compact_to_quiescence().unwrap();
    assert_eq!(db.get(b"big").unwrap(), Some(big));
}

#[test]
fn data_survives_flush_and_compaction() {
    let dir = TempDir::new("flush");
    let db = open_small(&dir);
    let n = 2000u32;
    for i in 0..n {
        db.put(
            format!("key{i:06}").as_bytes(),
            format!("value-{i}").as_bytes(),
        )
        .unwrap();
    }
    db.compact_to_quiescence().unwrap();
    let counts = db.level_file_counts();
    assert!(
        counts.iter().sum::<usize>() > 0,
        "nothing flushed: {counts:?}"
    );
    for i in (0..n).step_by(97) {
        assert_eq!(
            db.get(format!("key{i:06}").as_bytes()).unwrap(),
            Some(format!("value-{i}").into_bytes()),
            "key {i}"
        );
    }
    assert!(db.metrics().counters["db.flushes"] > 0);
}

#[test]
fn deletes_survive_flush() {
    let dir = TempDir::new("del-flush");
    let db = open_small(&dir);
    db.put(b"gone", b"v").unwrap();
    db.compact_to_quiescence().unwrap(); // value now on disk
    db.delete(b"gone").unwrap();
    db.compact_to_quiescence().unwrap(); // tombstone now on disk
    assert_eq!(db.get(b"gone").unwrap(), None);
}

#[test]
fn recovery_replays_wal() {
    let dir = TempDir::new("recover");
    {
        let db = open_small(&dir);
        db.put(b"a", b"1").unwrap();
        db.put(b"b", b"2").unwrap();
        db.delete(b"a").unwrap();
        // No explicit flush: data only in WAL + memtable.
    }
    let db = open_small(&dir);
    assert_eq!(db.get(b"a").unwrap(), None);
    assert_eq!(db.get(b"b").unwrap(), Some(b"2".to_vec()));
    // Writes continue with fresh timestamps.
    db.put(b"a", b"3").unwrap();
    assert_eq!(db.get(b"a").unwrap(), Some(b"3".to_vec()));
}

#[test]
fn recovery_after_flush_and_more_writes() {
    let dir = TempDir::new("recover2");
    {
        let db = open_small(&dir);
        for i in 0..1000u32 {
            db.put(format!("k{i:05}").as_bytes(), b"flushed").unwrap();
        }
        db.compact_to_quiescence().unwrap();
        for i in 0..100u32 {
            db.put(format!("fresh{i:05}").as_bytes(), b"walonly")
                .unwrap();
        }
    }
    let db = open_small(&dir);
    assert_eq!(db.get(b"k00500").unwrap(), Some(b"flushed".to_vec()));
    assert_eq!(db.get(b"fresh00050").unwrap(), Some(b"walonly".to_vec()));
}

#[test]
fn repeated_reopen_is_stable() {
    let dir = TempDir::new("reopen");
    for round in 0..5u32 {
        let db = open_small(&dir);
        for prior in 0..round {
            assert_eq!(
                db.get(format!("round{prior}").as_bytes()).unwrap(),
                Some(prior.to_string().into_bytes()),
                "round {round} reading {prior}"
            );
        }
        db.put(
            format!("round{round}").as_bytes(),
            round.to_string().as_bytes(),
        )
        .unwrap();
    }
}

#[test]
fn snapshot_is_frozen_in_time() {
    let dir = TempDir::new("snap");
    let db = open_small(&dir);
    db.put(b"x", b"before").unwrap();
    let snap = db.snapshot().unwrap();
    db.put(b"x", b"after").unwrap();
    db.put(b"y", b"new").unwrap();
    db.delete(b"x").unwrap();
    assert_eq!(snap.get(b"x").unwrap(), Some(b"before".to_vec()));
    assert_eq!(snap.get(b"y").unwrap(), None);
    assert_eq!(db.get(b"x").unwrap(), None);
    assert_eq!(db.get(b"y").unwrap(), Some(b"new".to_vec()));
}

#[test]
fn snapshot_survives_flush_and_compaction() {
    let dir = TempDir::new("snap-flush");
    let db = open_small(&dir);
    db.put(b"pinned", b"old").unwrap();
    let snap = db.snapshot().unwrap();
    // Overwrite many times, forcing flushes and compactions that would
    // GC the old version if the snapshot were not registered.
    for i in 0..2000u32 {
        db.put(b"pinned", format!("new-{i}").as_bytes()).unwrap();
        db.put(format!("filler{i:06}").as_bytes(), &[0u8; 64])
            .unwrap();
    }
    db.compact_to_quiescence().unwrap();
    assert_eq!(snap.get(b"pinned").unwrap(), Some(b"old".to_vec()));
    assert_eq!(db.get(b"pinned").unwrap(), Some(b"new-1999".to_vec()));
}

#[test]
fn full_scan_sees_consistent_state() {
    let dir = TempDir::new("scan");
    let db = open_small(&dir);
    for i in 0..100u32 {
        db.put(format!("k{i:04}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }
    db.delete(b"k0050").unwrap();
    let snap = db.snapshot().unwrap();
    // Concurrent-ish mutation after the snapshot.
    db.put(b"k0000", b"mutated").unwrap();
    db.put(b"zzz", b"later").unwrap();

    let items: Vec<(Vec<u8>, Vec<u8>)> = snap.iter().unwrap().map(|r| r.unwrap()).collect();
    assert_eq!(items.len(), 99); // 100 keys minus the deleted one
    assert_eq!(items[0].0, b"k0000");
    assert_eq!(items[0].1, b"v0"); // pre-mutation value
                                   // Sorted.
    for w in items.windows(2) {
        assert!(w[0].0 < w[1].0);
    }
    // Deleted key absent.
    assert!(!items.iter().any(|(k, _)| k == b"k0050"));
}

#[test]
fn scan_spans_memtable_and_disk() {
    let dir = TempDir::new("scan-components");
    let db = open_small(&dir);
    for i in 0..500u32 {
        db.put(format!("disk{i:05}").as_bytes(), b"d").unwrap();
    }
    db.compact_to_quiescence().unwrap();
    for i in 0..50u32 {
        db.put(format!("mem{i:05}").as_bytes(), b"m").unwrap();
    }
    let snap = db.snapshot().unwrap();
    let items: Vec<(Vec<u8>, Vec<u8>)> = snap.iter().unwrap().map(|r| r.unwrap()).collect();
    assert_eq!(items.len(), 550);
    for w in items.windows(2) {
        assert!(w[0].0 < w[1].0);
    }
}

#[test]
fn range_queries_respect_bounds() {
    let dir = TempDir::new("range");
    let db = open_small(&dir);
    for i in 0..100u32 {
        db.put(format!("k{i:04}").as_bytes(), b"v").unwrap();
    }
    let snap = db.snapshot().unwrap();
    let items: Vec<Vec<u8>> = snap
        .range(b"k0010", Some(b"k0020"))
        .unwrap()
        .map(|r| r.unwrap().0)
        .collect();
    assert_eq!(items.len(), 10);
    assert_eq!(items.first().unwrap(), b"k0010");
    assert_eq!(items.last().unwrap(), b"k0019");
    // Unbounded end.
    let tail: Vec<Vec<u8>> = snap
        .range(b"k0095", None)
        .unwrap()
        .map(|r| r.unwrap().0)
        .collect();
    assert_eq!(tail.len(), 5);
    // Empty range.
    assert_eq!(snap.range(b"x", Some(b"y")).unwrap().count(), 0);
}

#[test]
fn write_batch_is_atomic_with_respect_to_snapshots() {
    let dir = TempDir::new("batch");
    let db = open_small(&dir);
    db.put(b"a", b"0").unwrap();
    db.write(
        WriteBatch::from(
            &[
                (b"a".to_vec(), Some(b"1".to_vec())),
                (b"b".to_vec(), Some(b"1".to_vec())),
                (b"c".to_vec(), None),
            ][..],
        ),
        &WriteOptions::new(),
    )
    .unwrap();
    assert_eq!(db.get(b"a").unwrap(), Some(b"1".to_vec()));
    assert_eq!(db.get(b"b").unwrap(), Some(b"1".to_vec()));
    assert_eq!(db.get(b"c").unwrap(), None);
}

#[test]
fn rmw_counter_and_abort() {
    let dir = TempDir::new("rmw");
    let db = open_small(&dir);
    for _ in 0..10 {
        db.read_modify_write(b"ctr", |cur| {
            let n = cur.map_or(0u64, |v| u64::from_le_bytes(v.try_into().unwrap()));
            RmwDecision::Update((n + 1).to_le_bytes().to_vec())
        })
        .unwrap();
    }
    assert_eq!(db.get(b"ctr").unwrap(), Some(10u64.to_le_bytes().to_vec()));

    // Abort leaves everything untouched.
    let r = db
        .read_modify_write(b"ctr", |_| RmwDecision::Abort)
        .unwrap();
    assert!(!r.committed);
    assert_eq!(r.previous, Some(10u64.to_le_bytes().to_vec()));
    assert_eq!(db.get(b"ctr").unwrap(), Some(10u64.to_le_bytes().to_vec()));

    // RMW delete.
    let r = db
        .read_modify_write(b"ctr", |_| RmwDecision::Delete)
        .unwrap();
    assert!(r.committed);
    assert_eq!(db.get(b"ctr").unwrap(), None);
}

#[test]
fn put_if_absent_semantics() {
    let dir = TempDir::new("pia");
    let db = open_small(&dir);
    assert!(db.put_if_absent(b"k", b"first").unwrap());
    assert!(!db.put_if_absent(b"k", b"second").unwrap());
    assert_eq!(db.get(b"k").unwrap(), Some(b"first".to_vec()));
    db.delete(b"k").unwrap();
    // Deleted key counts as absent again.
    assert!(db.put_if_absent(b"k", b"third").unwrap());
    assert_eq!(db.get(b"k").unwrap(), Some(b"third".to_vec()));
}

#[test]
fn rmw_reads_through_disk_component() {
    let dir = TempDir::new("rmw-disk");
    let db = open_small(&dir);
    db.put(b"k", b"disk-value").unwrap();
    db.compact_to_quiescence().unwrap(); // push to disk
    let r = db
        .read_modify_write(b"k", |cur| {
            assert_eq!(cur, Some(&b"disk-value"[..]));
            RmwDecision::Update(b"updated".to_vec())
        })
        .unwrap();
    assert!(r.committed);
    assert_eq!(db.get(b"k").unwrap(), Some(b"updated".to_vec()));
}

#[test]
fn sync_writes_mode_works() {
    let dir = TempDir::new("sync");
    let mut opts = Options::small_for_tests();
    opts.sync_writes = true;
    {
        let db = Db::open(dir.path(), opts.clone()).unwrap();
        db.put(b"durable", b"yes").unwrap();
    }
    let db = Db::open(dir.path(), opts).unwrap();
    assert_eq!(db.get(b"durable").unwrap(), Some(b"yes".to_vec()));
}

#[test]
fn stats_track_operations() {
    let dir = TempDir::new("stats");
    let db = open_small(&dir);
    db.put(b"a", b"1").unwrap();
    db.get(b"a").unwrap();
    db.get(b"missing").unwrap();
    db.delete(b"a").unwrap();
    let _ = db.snapshot().unwrap();
    let c = db.metrics().counters;
    assert_eq!(c["db.puts"], 1);
    assert_eq!(c["db.gets"], 2);
    assert_eq!(c["db.deletes"], 1);
    assert_eq!(c["db.snapshots"], 1);
}

#[test]
fn many_overwrites_of_one_key() {
    let dir = TempDir::new("overwrite");
    let db = open_small(&dir);
    for i in 0..5000u32 {
        db.put(b"hot", format!("{i}").as_bytes()).unwrap();
    }
    assert_eq!(db.get(b"hot").unwrap(), Some(b"4999".to_vec()));
    db.compact_to_quiescence().unwrap();
    assert_eq!(db.get(b"hot").unwrap(), Some(b"4999".to_vec()));
}

#[test]
fn quiescence_merges_l0_tables_that_shadow_deeper_levels() {
    let dir = TempDir::new("quiesce-l0");
    let db = open_small(&dir);
    for i in 0..5000u32 {
        db.put(format!("key{i:06}").as_bytes(), &[1u8; 100])
            .unwrap();
    }
    db.compact_to_quiescence().unwrap();
    let counts = db.level_file_counts();
    assert!(
        counts[1..].iter().sum::<usize>() > 0,
        "nothing below L0: {counts:?}"
    );
    // A handful of overwrites: one table, far below the L0 trigger,
    // that supersedes versions merged below it.
    for i in (0..5000u32).step_by(500) {
        db.put(format!("key{i:06}").as_bytes(), b"new").unwrap();
    }
    db.compact_to_quiescence().unwrap();
    let counts = db.level_file_counts();
    assert_eq!(counts[0], 0, "L0 shadows a deeper level: {counts:?}");
    for i in (0..5000u32).step_by(500) {
        assert_eq!(
            db.get(format!("key{i:06}").as_bytes()).unwrap(),
            Some(b"new".to_vec()),
            "key {i}"
        );
    }
}

#[test]
fn quiescence_leaves_l0_with_nothing_below_it() {
    let dir = TempDir::new("quiesce-l0-alone");
    let db = open_small(&dir);
    for i in 0..100u32 {
        db.put(format!("key{i:06}").as_bytes(), b"v").unwrap();
    }
    db.compact_to_quiescence().unwrap();
    let counts = db.level_file_counts();
    assert_eq!(counts[0], 1, "the one flushed table was merged: {counts:?}");
    assert_eq!(counts[1..].iter().sum::<usize>(), 0, "{counts:?}");
}

#[test]
fn compact_range_pushes_data_to_bottom() {
    let dir = TempDir::new("compact-range");
    let db = open_small(&dir);
    for i in 0..3000u32 {
        db.put(format!("key{i:06}").as_bytes(), &[7u8; 64]).unwrap();
    }
    db.compact_range(b"key000000", b"key999999").unwrap();
    let counts = db.level_file_counts();
    // Everything in range compacted below the upper levels.
    assert_eq!(counts[0], 0, "L0 not drained: {counts:?}");
    let deepest_nonempty = counts.iter().rposition(|&c| c > 0);
    assert!(deepest_nonempty.is_some());
    // Data intact afterwards.
    for i in (0..3000u32).step_by(331) {
        assert!(
            db.get(format!("key{i:06}").as_bytes()).unwrap().is_some(),
            "key {i}"
        );
    }
    // Integrity scan passes over the compacted layout.
    assert!(db.verify_integrity().unwrap() > 0);
}

#[test]
fn db_iter_and_range_sugar() {
    let dir = TempDir::new("iter-sugar");
    let db = open_small(&dir);
    for i in 0..50u32 {
        db.put(format!("k{i:03}").as_bytes(), b"v").unwrap();
    }
    let all: Vec<_> = db.iter().unwrap().map(|r| r.unwrap().0).collect();
    assert_eq!(all.len(), 50);
    let some: Vec<_> = db
        .range(b"k010".to_vec()..b"k020".to_vec())
        .unwrap()
        .map(|r| r.unwrap().0)
        .collect();
    assert_eq!(some.len(), 10);
    assert_eq!(some[0], b"k010");
}

/// A snapshot is released only by dropping it; until then the doctor
/// and `oracle.oldest_snapshot_age` say how many writes old it is.
#[test]
fn a_held_snapshot_shows_how_many_writes_old_it_is() {
    let dir = TempDir::new("snap-age");
    let db = Db::open_stepped(dir.path(), Options::small_for_tests()).unwrap();
    let age = |db: &Db| db.metrics().gauges["oracle.oldest_snapshot_age"];
    db.put(b"k", b"v0").unwrap();
    assert_eq!(age(&db), 0, "no snapshot is live");

    let snap = db.snapshot().unwrap();
    let writes = 25u64;
    for i in 1..=writes {
        db.put(b"k", format!("v{i}").as_bytes()).unwrap();
    }
    assert_eq!(age(&db), writes as i64);
    let report = db.doctor();
    let line = format!(
        "snapshots: 1 live, oldest ts {} (GC watermark), {writes} writes old",
        snap.timestamp()
    );
    assert!(report.render().contains(&line), "{}", report.render());
    assert_eq!(snap.get(b"k").unwrap(), Some(b"v0".to_vec()));

    drop(snap);
    assert_eq!(age(&db), 0);
    assert!(db.doctor().render().contains("snapshots: 0 live"));
}

/// An iterator pins the tables of its version: held across a
/// compaction, they show in `storage.retired_table_bytes` until it is
/// dropped and the next job's removal pass runs.
#[test]
fn an_iterator_held_across_a_compaction_pins_retired_tables() {
    let dir = TempDir::new("retired");
    let mut opts = Options::small_for_tests();
    // Nothing drains while the test runs no job, so pacing would only
    // sleep.
    opts.admission.enabled = false;
    let db = Db::open_stepped(dir.path(), opts).unwrap();
    let retired = |db: &Db| db.metrics().gauges["storage.retired_table_bytes"];
    let keys = 100u32;
    let put_all = |round: u32| {
        for i in 0..keys {
            let value = format!("round {round} value {i}");
            db.put(format!("key{i:04}").as_bytes(), value.as_bytes())
                .unwrap();
        }
    };
    // Each flush of the same keys is one more overlapping L0 run.
    let mut round = 0;
    while !db.due_jobs().contains(&Job::Compact) {
        assert!(round < 100, "no compaction fell due");
        put_all(round);
        assert!(db.run_job(Job::Flush).unwrap());
        round += 1;
    }

    let iter = db.iter().unwrap();
    assert!(db.run_job(Job::Compact).unwrap());
    assert!(retired(&db) > 0, "the compacted tables were not counted");
    let report = db.doctor();
    let pinned = report.metrics.gauges["storage.retired_table_bytes"];
    assert_eq!(pinned, retired(&db));
    assert!(
        report
            .render()
            .contains(&format!("retired tables: {pinned} bytes")),
        "{}",
        report.render()
    );
    // The pinned tables still serve the iterator.
    assert_eq!(iter.count() as u32, keys);

    put_all(round);
    assert!(db.run_job(Job::Flush).unwrap());
    assert_eq!(retired(&db), 0);
    assert!(!db.doctor().render().contains("retired tables: "));
}

#[test]
fn corruption_is_detected_not_silently_returned() {
    let dir = TempDir::new("corruption");
    let db = open_small(&dir);
    for i in 0..2000u32 {
        db.put(format!("key{i:06}").as_bytes(), &[9u8; 64]).unwrap();
    }
    db.compact_to_quiescence().unwrap();
    drop(db);
    // Flip bytes in the middle of the first table file.
    let mut table_path = None;
    for entry in std::fs::read_dir(dir.path()).unwrap() {
        let p = entry.unwrap().path();
        if p.extension().is_some_and(|e| e == "sst") {
            table_path = Some(p);
            break;
        }
    }
    let p = table_path.expect("an sstable on disk");
    let mut bytes = std::fs::read(&p).unwrap();
    let mid = bytes.len() / 2;
    for b in &mut bytes[mid..mid + 32] {
        *b ^= 0xa5;
    }
    std::fs::write(&p, &bytes).unwrap();

    let db = open_small(&dir);
    // Either a targeted get or the integrity sweep must surface the
    // corruption as an error; neither may return wrong data or panic.
    let sweep = db.verify_integrity();
    assert!(sweep.is_err(), "corruption not detected: {sweep:?}");
}

/// After `compact_to_quiescence` the directory is settled: its tables
/// are exactly the ones the current version names, and no file a
/// caller lists is deleted under it. (A compaction publishes its
/// version before it deletes its inputs; quiescence used to return in
/// between, about once in a hundred rounds of this loop.)
#[test]
fn quiescence_leaves_no_deletion_in_flight() {
    let dir = TempDir::new("settled");
    let db = Db::open(dir.path(), Options::small_for_tests()).unwrap();
    let value = vec![7u8; 512];
    for round in 0..40u32 {
        // A scan open across the round's merges holds their inputs.
        let scan = db.iter().unwrap();
        for i in 0..400u32 {
            let key = format!("k{:06}", (i * 7919 + round) % 5000);
            db.put(key.as_bytes(), &value).unwrap();
        }
        drop(scan);
        db.compact_to_quiescence().unwrap();
        let mut tables = 0;
        for entry in std::fs::read_dir(dir.path()).unwrap() {
            let entry = entry.unwrap();
            assert!(
                entry.metadata().is_ok(),
                "round {round}: {:?} vanished after quiescence",
                entry.file_name()
            );
            tables += entry.file_name().to_string_lossy().ends_with(".sst") as usize;
        }
        let named: usize = db.level_file_counts().iter().sum();
        assert_eq!(tables, named, "round {round}: tables on disk vs named");
    }
}

#[test]
fn options_validation_rejects_nonsense() {
    let dir = TempDir::new("bad-opts");
    let mut opts = Options::small_for_tests();
    opts.memtable_bytes = 16;
    assert!(Db::open(dir.path(), opts).is_err());

    let mut opts = Options::small_for_tests();
    opts.compaction_threads = 0;
    assert!(Db::open(dir.path(), opts).is_err());

    let mut opts = Options::small_for_tests();
    opts.store.num_levels = 1;
    assert!(Db::open(dir.path(), opts).is_err());

    let mut opts = Options::small_for_tests();
    opts.store.level_multiplier = 1;
    assert!(Db::open(dir.path(), opts).is_err());

    // A good config still opens.
    assert!(Db::open(dir.path(), Options::small_for_tests()).is_ok());
}

#[test]
fn approximate_size_tracks_data_volume() {
    let dir = TempDir::new("approx");
    let db = open_small(&dir);
    let empty = db.approximate_size(b"a", b"z");
    for i in 0..3000u32 {
        db.put(format!("key{i:06}").as_bytes(), &[3u8; 100])
            .unwrap();
    }
    db.compact_to_quiescence().unwrap();
    let full = db.approximate_size(b"key000000", b"key999999");
    assert!(full > empty + 100_000, "full={full} empty={empty}");
    // A sub-range is charged less than the whole range.
    let sub = db.approximate_size(b"key000000", b"key000500");
    assert!(sub < full, "sub={sub} full={full}");
    // A disjoint range costs only the memtable charge.
    let none = db.approximate_size(b"zzz", b"zzzz");
    assert!(none < full / 2);
}
