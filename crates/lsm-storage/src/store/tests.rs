//! End-to-end tests of the disk substrate: logging, recovery, flush,
//! compaction, and snapshot-preservation.

use super::*;
use crate::iter::{MergingIterator, VecIterator};
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "store-{}-{}-{}",
        std::process::id(),
        name,
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_opts() -> StoreOptions {
    StoreOptions {
        table_file_size: 4096,
        base_level_bytes: 16 * 1024,
        level_multiplier: 4,
        block_cache_bytes: 1 << 20,
        ..Default::default()
    }
}

fn put_entries(range: std::ops::Range<u64>) -> Vec<(Vec<u8>, u64, ValueKind, Vec<u8>)> {
    // One put per key; internal order == key order here because each
    // key has a single version.
    range
        .map(|i| {
            (
                format!("key{i:06}").into_bytes(),
                i + 1,
                ValueKind::Put,
                format!("value-{i}").into_bytes(),
            )
        })
        .collect()
}

#[test]
fn open_empty_store() {
    let dir = tmpdir("empty");
    let (store, rec) = Store::open(&dir, small_opts()).unwrap();
    assert!(rec.records.is_empty());
    assert_eq!(rec.last_ts, 0);
    assert!(store.get(b"nope", u64::MAX >> 1).unwrap().is_none());
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `Store::open` checks its own options: a bad `StoreOptions` is an
/// `InvalidArgument` error, not a panic, and not a zero budget that
/// keeps every level due for compaction.
#[test]
fn open_rejects_invalid_options() {
    for bad in [
        StoreOptions {
            num_levels: 1,
            ..small_opts()
        },
        StoreOptions {
            base_level_bytes: 0,
            ..small_opts()
        },
    ] {
        let dir = tmpdir("bad-opts");
        let Err(err) = Store::open(&dir, bad.clone()) else {
            panic!("opened with {bad:?}");
        };
        assert_eq!(err.kind(), clsm_util::error::ErrorKind::InvalidArgument);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn logged_writes_recover_sorted_and_deduped() {
    let dir = tmpdir("recover");
    {
        let (store, _) = Store::open(&dir, small_opts()).unwrap();
        // Log out of timestamp order, with one duplicate.
        store
            .log(
                &[WriteRecord::put(5, b"b".to_vec(), b"v5".to_vec())],
                SyncMode::Async,
            )
            .unwrap();
        store
            .log(
                &[
                    WriteRecord::put(2, b"a".to_vec(), b"v2".to_vec()),
                    WriteRecord::delete(7, b"c".to_vec()),
                ],
                SyncMode::Async,
            )
            .unwrap();
        store
            .log(
                &[WriteRecord::put(5, b"b".to_vec(), b"v5".to_vec())],
                SyncMode::Sync,
            )
            .unwrap();
    }
    let (_store, rec) = Store::open(&dir, small_opts()).unwrap();
    let ts_seq: Vec<u64> = rec.records.iter().map(|r| r.ts).collect();
    assert_eq!(ts_seq, vec![2, 5, 7]);
    assert_eq!(rec.last_ts, 7);
    assert_eq!(rec.records[2].kind, ValueKind::Delete);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn flush_makes_data_durable_and_retires_wals() {
    let dir = tmpdir("flush");
    {
        let (store, _) = Store::open(&dir, small_opts()).unwrap();
        let records: Vec<WriteRecord> = (0..100u64)
            .map(|i| WriteRecord::put(i + 1, format!("key{i:06}").into_bytes(), b"v".to_vec()))
            .collect();
        store.log(&records, SyncMode::Sync).unwrap();
        // Rotate: the data above predates the new WAL.
        let new_wal = store.rotate_wal().unwrap();
        let mut it = VecIterator::new(put_entries(0..100));
        store.flush_memtable(&mut it, 100, 100, new_wal).unwrap();
        assert_eq!(store.level_file_counts()[0], 1);
        // Reads hit the table.
        let (ts, kind, v) = store.get(b"key000042", u64::MAX >> 1).unwrap().unwrap();
        assert_eq!(
            (ts, kind, v.as_slice()),
            (43, ValueKind::Put, &b"value-42"[..])
        );
    }
    // After reopen nothing needs replay (WALs retired), data persists.
    let (store, rec) = Store::open(&dir, small_opts()).unwrap();
    assert!(rec.records.is_empty(), "flushed data must not replay");
    assert_eq!(rec.last_ts, 100);
    assert!(store.get(b"key000099", u64::MAX >> 1).unwrap().is_some());
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_reads_survive_flush() {
    let dir = tmpdir("snapread");
    let (store, _) = Store::open(&dir, small_opts()).unwrap();
    // Two versions of one key; watermark 1 keeps both.
    let entries = vec![
        (b"k".to_vec(), 9, ValueKind::Put, b"new".to_vec()),
        (b"k".to_vec(), 1, ValueKind::Put, b"old".to_vec()),
    ];
    let mut it = VecIterator::new(entries);
    let wal = store.rotate_wal().unwrap();
    store.flush_memtable(&mut it, 1, 9, wal).unwrap();
    assert_eq!(store.get(b"k", 100).unwrap().unwrap().2, b"new".to_vec());
    assert_eq!(store.get(b"k", 5).unwrap().unwrap().2, b"old".to_vec());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compaction_preserves_all_data() {
    let dir = tmpdir("compact");
    let (store, _) = Store::open(&dir, small_opts()).unwrap();
    let mut ts = 0u64;
    // Ten flushes of 200 keys each (two overlapping key ranges), with
    // compactions in between.
    for round in 0..10u64 {
        let mut entries = Vec::new();
        for i in 0..200u64 {
            let key = (round % 2) * 100 + i; // overlapping ranges
            ts += 1;
            entries.push((
                format!("key{key:06}").into_bytes(),
                ts,
                ValueKind::Put,
                format!("r{round}-{key}").into_bytes(),
            ));
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let wal = store.rotate_wal().unwrap();
        let mut it = VecIterator::new(entries);
        store.flush_memtable(&mut it, ts, ts, wal).unwrap();
        while store.needs_compaction() {
            if store.maybe_compact(ts).unwrap().is_none() {
                break;
            }
        }
    }
    // Data must be fully intact: the last writer of each key wins.
    for key in 0..300u64 {
        let k = format!("key{key:06}");
        let got = store.get(k.as_bytes(), u64::MAX >> 1).unwrap();
        assert!(got.is_some(), "missing {k}");
    }
    // Compactions actually moved data below L0.
    let counts = store.level_file_counts();
    assert!(counts[1..].iter().sum::<usize>() > 0, "levels: {counts:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compaction_respects_snapshot_watermark() {
    let dir = tmpdir("watermark");
    let (store, _) = Store::open(&dir, small_opts()).unwrap();
    let mut ts = 0u64;
    // Write 5 versions of the same key across 5 flushes.
    for v in 0..5u64 {
        ts += 1;
        let entries = vec![(
            b"hot".to_vec(),
            ts,
            ValueKind::Put,
            format!("v{v}").into_bytes(),
        )];
        let wal = store.rotate_wal().unwrap();
        let mut it = VecIterator::new(entries);
        store.flush_memtable(&mut it, 2, ts, wal).unwrap(); // snapshot at ts=2 held
        while store.maybe_compact(2).unwrap().is_some() {}
    }
    // The snapshot at ts=2 must still read version 2.
    let got = store.get(b"hot", 2).unwrap().unwrap();
    assert_eq!(got.2, b"v1".to_vec());
    // Latest wins at the top.
    assert_eq!(store.get(b"hot", 100).unwrap().unwrap().2, b"v4".to_vec());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn deletes_disappear_after_bottom_compaction() {
    let dir = tmpdir("tombstone");
    let mut opts = small_opts();
    opts.num_levels = 2; // L0 → L1 (bottom) directly
    let (store, _) = Store::open(&dir, opts).unwrap();
    // Put then delete, flush both, compact to bottom with watermark
    // beyond both.
    let wal = store.rotate_wal().unwrap();
    let mut it = VecIterator::new(vec![(b"k".to_vec(), 1, ValueKind::Put, b"v".to_vec())]);
    store.flush_memtable(&mut it, 10, 1, wal).unwrap();
    let wal = store.rotate_wal().unwrap();
    let mut it = VecIterator::new(vec![(b"k".to_vec(), 2, ValueKind::Delete, Vec::new())]);
    store.flush_memtable(&mut it, 10, 2, wal).unwrap();
    store.compact_level_range(0, b"", b"~", 10).unwrap();
    // The key is gone and so is its tombstone.
    assert!(store.get(b"k", 100).unwrap().is_none());
    let mut total_entries = 0u64;
    for level_files in store.level_file_counts() {
        total_entries += level_files as u64;
    }
    // Everything compacted away: at most an empty set of files remains.
    let _ = total_entries;
    let merged = store.iterators().unwrap();
    let mut m = MergingIterator::new(merged);
    m.seek_to_first();
    assert!(!m.valid(), "tombstone or value leaked");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn iterators_merge_levels_in_order() {
    let dir = tmpdir("merge-iter");
    let (store, _) = Store::open(&dir, small_opts()).unwrap();
    let mut ts = 0u64;
    for _round in 0..4u64 {
        let mut entries = Vec::new();
        for i in 0..50u64 {
            ts += 1;
            entries.push((
                format!("key{:06}", i * 7 % 100).into_bytes(),
                ts,
                ValueKind::Put,
                b"v".to_vec(),
            ));
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let wal = store.rotate_wal().unwrap();
        let mut it = VecIterator::new(entries);
        store.flush_memtable(&mut it, ts, ts, wal).unwrap();
    }
    while store.maybe_compact(ts).unwrap().is_some() {}
    let mut m = MergingIterator::new(store.iterators().unwrap());
    m.seek_to_first();
    let mut last: Option<(Vec<u8>, u64)> = None;
    let mut count = 0;
    while m.valid() {
        if let Some((lk, lts)) = &last {
            let ord = lk.as_slice().cmp(m.user_key());
            assert!(
                ord == std::cmp::Ordering::Less
                    || (ord == std::cmp::Ordering::Equal && m.ts() < *lts),
                "order violated"
            );
        }
        last = Some((m.user_key().to_vec(), m.ts()));
        count += 1;
        m.next();
    }
    assert!(count > 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A pick that read a version some other compaction has since replaced
/// is refused once it has claimed its inputs, and the next pick reads
/// the current version: whether its inputs left the tree, or a trivial
/// move took them one level down.
#[test]
fn a_pick_from_a_replaced_version_is_refused() {
    let dir = tmpdir("stale-pick");
    let (store, _) = Store::open(&dir, small_opts()).unwrap();
    let flush = |keys: std::ops::Range<u64>| {
        let wal = store.rotate_wal().unwrap();
        let mut it = VecIterator::new(put_entries(keys.clone()));
        store.flush_memtable(&mut it, 0, keys.end, wal).unwrap();
    };

    // Overlapping flushes, one L0 run each, until L0 is due.
    let fill_l0 = |base: u64| {
        for i in 0..compaction::L0_COMPACTION_TRIGGER as u64 {
            flush(base + 25 * i..base + 25 * i + 50);
        }
    };

    // L0 at the trigger, merged into L1 after the stale pick's version.
    fill_l0(0);
    let saved = store.current_version();
    assert!(store.maybe_compact(0).unwrap().is_some());
    fill_l0(200);
    let stale = compaction::pick(&saved, &store.opts).unwrap();
    assert!(!store.run_task(stale, 0).unwrap(), "a merged-away pick ran");
    assert!(store.maybe_compact(0).unwrap().is_some());
    assert_eq!(store.level_file_counts()[0], 0);

    // One L0 table, trivially moved to L1 after the stale pick's version.
    flush(400..410);
    let saved = store.current_version();
    store
        .compact_level_range(0, b"key000400", b"key000410", 0)
        .unwrap();
    let moved = &store.current_version().levels[1];
    assert!(moved.iter().any(|f| Arc::ptr_eq(f, &saved.levels[0][0])));
    let stale =
        compaction::pick_level_range(&saved, &store.opts, 0, b"key000400", b"key000410").unwrap();
    assert!(!store.run_task(stale, 0).unwrap(), "a moved pick ran");

    for i in (0..125).chain(200..325).chain(400..410) {
        let key = format!("key{i:06}");
        assert!(
            store.get(key.as_bytes(), u64::MAX >> 1).unwrap().is_some(),
            "{key}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `maybe_compact` reports the bytes that left the level it compacted:
/// for an L0→L1 merge and for a trivial move alike, exactly the L0
/// bytes the new version no longer holds.
#[test]
fn a_compaction_reports_the_l0_bytes_that_left_the_version() {
    let dir = tmpdir("report");
    let (store, _) = Store::open(&dir, small_opts()).unwrap();
    let flush = |keys: std::ops::Range<u64>| {
        let wal = store.rotate_wal().unwrap();
        let mut it = VecIterator::new(put_entries(keys.clone()));
        store.flush_memtable(&mut it, 0, keys.end, wal).unwrap();
    };
    let compact_l0 = || {
        let before = store.current_version();
        let report = store.maybe_compact(0).unwrap().expect("L0 is due");
        let after = store.current_version();
        let left: u64 = before.levels[0]
            .iter()
            .filter(|f| !after.levels[0].iter().any(|g| g.number == f.number))
            .map(|f| f.file_size)
            .sum();
        assert_eq!(report.level, 0);
        assert!(left > 0);
        assert_eq!(report.base_bytes, left);
    };

    // Overlapping flushes, one L0 run each, until L0 is due: a merge.
    for i in 0..compaction::L0_COMPACTION_TRIGGER as u64 {
        flush(25 * i..25 * i + 50);
    }
    compact_l0();
    assert!(store.write_amp().compacted > 0, "the merge rewrote nothing");

    // One sequential run past L1's budget, above nothing: a move.
    let compacted = store.write_amp().compacted;
    let mut next = 1_000u64;
    while store.current_version().level_bytes(0) < store.opts.base_level_bytes {
        flush(next..next + 200);
        next += 200;
    }
    compact_l0();
    assert_eq!(
        store.write_amp().compacted,
        compacted,
        "the move rewrote a table"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An L0→L1 merge reads each flush as one sorted run: over N flushes of
/// random keys it merges N + 1 children (one per run and one for L1),
/// however many tables each flush wrote.
#[test]
fn an_l0_merge_has_one_child_per_flush_and_one_for_l1() {
    let dir = tmpdir("fan-in");
    let (store, _) = Store::open(&dir, small_opts()).unwrap();
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut ts = 0u64;
    let mut flush_random = || {
        // Random keys plus both ends of the key space, so each flush
        // overlaps the one before it wherever its tables split.
        let mut keys: Vec<u64> = vec![0, 9_999];
        for _ in 0..300 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            keys.push(rng % 10_000);
        }
        keys.sort_unstable();
        keys.dedup();
        let entries = keys
            .iter()
            .map(|k| {
                ts += 1;
                (
                    format!("key{k:06}").into_bytes(),
                    ts,
                    ValueKind::Put,
                    vec![b'v'; 24],
                )
            })
            .collect();
        let wal = store.rotate_wal().unwrap();
        store
            .flush_memtable(&mut VecIterator::new(entries), 0, ts, wal)
            .unwrap();
    };
    flush_random();
    store.compact_level_range(0, b"", b"~", 0).unwrap();
    assert_eq!(store.level_file_counts()[0], 0);
    const N: usize = 5;
    for _ in 0..N {
        flush_random();
    }
    let version = store.current_version();
    assert_eq!(version.l0_runs().len(), N);
    assert!(
        version.num_files(0) > N + 1,
        "each flush should write several tables: {}",
        version.num_files(0)
    );
    let task = compaction::pick_level_range(&version, &store.opts, 0, b"", b"~").unwrap();
    assert!(!task.parent.is_empty());
    let merge = compaction::merge_inputs(&task, &store.tables);
    assert_eq!(merge.num_children(), N + 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A sequential load's L0 is one sorted run with nothing below its
/// span: it reaches L1 by its bytes, not its run count, and moves down
/// whole, every table keeping its number and no byte rewritten.
#[test]
fn a_sequential_load_moves_down_without_being_rewritten() {
    let dir = tmpdir("seq-move");
    let (store, _) = Store::open(&dir, small_opts()).unwrap();
    let registry = MetricsRegistry::new();
    store.attach_metrics(&registry);
    let compacted = || registry.snapshot().counters["storage.bytes_compacted"];
    let mut next = 0u64;
    let mut load = |store: &Store| {
        while store.current_version().level_bytes(0) < store.opts.base_level_bytes {
            let wal = store.rotate_wal().unwrap();
            let mut it = VecIterator::new(put_entries(next..next + 200));
            store.flush_memtable(&mut it, 0, next + 200, wal).unwrap();
            next += 200;
        }
    };
    for round in 1..=2 {
        load(&store);
        let l0 = store.current_version();
        assert_eq!(l0.l0_runs().len(), 1, "round {round}");
        assert!(l0.num_files(0) > 1);
        assert!(store.needs_compaction(), "L0's bytes are over L1's budget");
        let tree = |v: &Version| {
            let mut numbers: Vec<u64> = v.levels.iter().flatten().map(|f| f.number).collect();
            numbers.sort_unstable();
            numbers
        };
        let before = tree(&l0);
        while store.maybe_compact(0).unwrap().is_some() {}
        let after = store.current_version();
        assert_eq!(after.num_files(0), 0, "round {round}");
        assert_eq!(tree(&after), before, "round {round}: a table was rewritten");
        assert_eq!(store.write_amp().compacted, 0);
        assert_eq!(compacted(), 0);
    }
    for i in (0..next).step_by(97) {
        let key = format!("key{i:06}");
        assert!(
            store.get(key.as_bytes(), u64::MAX >> 1).unwrap().is_some(),
            "{key}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
