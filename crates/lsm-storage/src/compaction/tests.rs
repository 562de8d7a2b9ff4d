//! Tests for compaction picking and the version-GC drop rules.

use super::*;
use crate::iter::VecIterator;
use crate::store::StoreOptions;
use crate::version::VersionSet;
use crate::ValueKind;
use clsm_util::env::RealEnv;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "compaction-{}-{}-{}",
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

use std::path::PathBuf;

fn small_opts() -> StoreOptions {
    StoreOptions {
        table_file_size: 1024,
        base_level_bytes: 4096,
        level_multiplier: 4,
        l0_compaction_trigger: 2,
        ..Default::default()
    }
}

#[test]
fn level_budgets_grow_multiplicatively() {
    let opts = small_opts();
    assert_eq!(max_bytes_for_level(&opts, 1), 4096);
    assert_eq!(max_bytes_for_level(&opts, 2), 16384);
    assert_eq!(max_bytes_for_level(&opts, 3), 65536);
}

fn run_drop(
    entries: Vec<(&str, u64, ValueKind, &str)>,
    watermark: u64,
    drop_tombstones: bool,
) -> Vec<(String, u64)> {
    let dir = tmpdir("droprule");
    let opts = StoreOptions::default();
    let mut it = VecIterator::new(
        entries
            .into_iter()
            .map(|(k, ts, kind, v)| (k.as_bytes().to_vec(), ts, kind, v.as_bytes().to_vec()))
            .collect(),
    );
    it.seek_to_first();
    let mut n = 100u64;
    let mut alloc = || {
        n += 1;
        n
    };
    let files = write_merged_tables(
        &mut it,
        &dir,
        &opts,
        1,
        watermark,
        drop_tombstones,
        &mut alloc,
    )
    .unwrap();
    // Read everything back.
    let cache = Arc::new(TableCache::new(
        Arc::new(RealEnv),
        dir.clone(),
        10,
        None,
        16,
    ));
    let mut out = Vec::new();
    for f in &files {
        let table = cache.table(f.number).unwrap();
        let mut ti = table.iter();
        ti.seek_to_first();
        while ti.valid() {
            out.push((String::from_utf8(ti.user_key().to_vec()).unwrap(), ti.ts()));
            ti.next();
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
    out
}

#[test]
fn shadowed_versions_below_watermark_are_dropped() {
    // Versions 9 and 5 are both ≤ watermark 10: only the newest (9)
    // survives; 5 and 2 are shadowed.
    let out = run_drop(
        vec![
            ("k", 9, ValueKind::Put, "v9"),
            ("k", 5, ValueKind::Put, "v5"),
            ("k", 2, ValueKind::Put, "v2"),
        ],
        10,
        false,
    );
    assert_eq!(out, vec![("k".to_string(), 9)]);
}

#[test]
fn versions_above_watermark_are_kept() {
    // Watermark 4: versions 9 and 5 exceed it (kept); 2 is the newest
    // ≤ 4 (kept, some snapshot may need it); nothing older exists.
    let out = run_drop(
        vec![
            ("k", 9, ValueKind::Put, "v9"),
            ("k", 5, ValueKind::Put, "v5"),
            ("k", 2, ValueKind::Put, "v2"),
            ("k", 1, ValueKind::Put, "v1"),
        ],
        4,
        false,
    );
    assert_eq!(
        out,
        vec![
            ("k".to_string(), 9),
            ("k".to_string(), 5),
            ("k".to_string(), 2)
        ]
    );
}

#[test]
fn tombstones_dropped_only_at_bottom() {
    let entries = vec![
        ("a", 7, ValueKind::Delete, ""),
        ("a", 3, ValueKind::Put, "va"),
        ("b", 5, ValueKind::Put, "vb"),
    ];
    // Not bottom: tombstone kept, shadowed put dropped.
    let out = run_drop(entries.clone(), 10, false);
    assert_eq!(out, vec![("a".to_string(), 7), ("b".to_string(), 5)]);
    // Bottom: tombstone elided entirely.
    let out = run_drop(entries, 10, true);
    assert_eq!(out, vec![("b".to_string(), 5)]);
}

#[test]
fn fresh_tombstone_survives_bottom_drop() {
    // Tombstone above the watermark: a live snapshot may need it.
    let out = run_drop(
        vec![
            ("a", 7, ValueKind::Delete, ""),
            ("a", 3, ValueKind::Put, "v"),
        ],
        5,
        true,
    );
    assert_eq!(out, vec![("a".to_string(), 7), ("a".to_string(), 3)]);
}

#[test]
fn exact_duplicates_are_deduplicated() {
    // A WAL-replay overlap shows up as the same (key, ts) entry in two
    // components; merge them and verify only one copy survives.
    let dir = tmpdir("dedup");
    let opts = StoreOptions::default();
    let a = VecIterator::new(vec![(b"k".to_vec(), 5, ValueKind::Put, b"v".to_vec())]);
    let b = VecIterator::new(vec![(b"k".to_vec(), 5, ValueKind::Put, b"v".to_vec())]);
    let mut merged = crate::iter::MergingIterator::new(vec![Box::new(a), Box::new(b)]);
    merged.seek_to_first();
    let mut n = 0u64;
    let mut alloc = || {
        n += 1;
        n
    };
    let files = write_merged_tables(&mut merged, &dir, &opts, 1, 0, false, &mut alloc).unwrap();
    let cache = Arc::new(TableCache::new(
        Arc::new(RealEnv),
        dir.clone(),
        10,
        None,
        16,
    ));
    let mut count = 0;
    for f in &files {
        let table = cache.table(f.number).unwrap();
        let mut ti = table.iter();
        ti.seek_to_first();
        while ti.valid() {
            count += 1;
            ti.next();
        }
    }
    assert_eq!(count, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn outputs_roll_without_splitting_keys() {
    // Values big enough to exceed the 1 KiB target repeatedly, with
    // multiple versions per key: every key must land in exactly one
    // output file.
    let dir = tmpdir("roll");
    let opts = small_opts();
    let mut entries = Vec::new();
    let mut ts = 1000u64;
    for i in 0..30u32 {
        for _v in 0..3 {
            entries.push((
                format!("key{i:04}").into_bytes(),
                ts,
                ValueKind::Put,
                vec![b'x'; 200],
            ));
            ts -= 1;
        }
    }
    // Internal order: ts descending per key.
    let mut it = VecIterator::new(entries);
    it.seek_to_first();
    let mut n = 0u64;
    let mut alloc = || {
        n += 1;
        n
    };
    let files = write_merged_tables(&mut it, &dir, &opts, 1, 0, false, &mut alloc).unwrap();
    assert!(
        files.len() > 1,
        "expected multiple outputs, got {}",
        files.len()
    );
    // Disjoint user-key ranges.
    for w in files.windows(2) {
        let a_last = &w[0].largest[..w[0].largest.len() - 8];
        let b_first = &w[1].smallest[..w[1].smallest.len() - 8];
        assert!(a_last < b_first, "outputs share a user key");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pick_respects_claims_and_trigger() {
    let dir = tmpdir("pick");
    let opts = small_opts();
    // Build two overlapping L0 tables (trigger = 2).
    let mk = |num: u64, k: &str, ts: u64| {
        let path = crate::filenames::table_path(&dir, num);
        let mut b = crate::sstable::TableBuilder::new(
            Box::new(std::fs::File::create(&path).unwrap()),
            4096,
            10,
        );
        b.add(
            crate::format::InternalKey::new(k.as_bytes(), ts, ValueKind::Put).encoded(),
            b"v",
        )
        .unwrap();
        let s = b.finish().unwrap();
        crate::version::NewFile {
            level: 0,
            number: num,
            file_size: s.file_size,
            smallest: s.smallest,
            largest: s.largest,
        }
    };
    let (mut set, _) = VersionSet::open(Arc::new(RealEnv), &dir).unwrap();
    let f1 = mk(10, "a", 1);
    let f2 = mk(11, "a", 2);
    set.log_and_apply(crate::version::VersionEdit {
        new_files: vec![f1, f2],
        ..Default::default()
    })
    .unwrap();
    let v = set.current();
    let task = pick(&v, &opts).expect("two L0 files at trigger 2");
    assert_eq!(task.level, 0);
    assert_eq!(task.base.len(), 2);
    // While claimed, picking again yields nothing.
    assert!(pick(&v, &opts).is_none());
    drop(task);
    assert!(pick(&v, &opts).is_some());
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------- policies

/// Synthetic file metadata for pick-only tests (no table bytes needed:
/// policies read sizes and key ranges, never file contents).
fn synth_file(
    level: u32,
    number: u64,
    file_size: u64,
    lo: &str,
    hi: &str,
) -> crate::version::NewFile {
    crate::version::NewFile {
        level,
        number,
        file_size,
        smallest: crate::format::InternalKey::new(lo.as_bytes(), 1_000, ValueKind::Put)
            .encoded()
            .to_vec(),
        largest: crate::format::InternalKey::new(hi.as_bytes(), 1, ValueKind::Put)
            .encoded()
            .to_vec(),
    }
}

fn synth_version(dir: &Path, files: Vec<crate::version::NewFile>) -> Arc<Version> {
    let (mut set, _) = VersionSet::open(Arc::new(RealEnv), dir).unwrap();
    set.log_and_apply(crate::version::VersionEdit {
        new_files: files,
        ..Default::default()
    })
    .unwrap()
}

#[test]
fn over_budget_level_picks_its_single_largest_file() {
    let dir = tmpdir("largest");
    let opts = small_opts(); // L1 budget = 4096 bytes
    let v = synth_version(
        &dir,
        vec![
            synth_file(1, 10, 2000, "a", "c"),
            synth_file(1, 11, 3000, "d", "f"),
            synth_file(1, 12, 1000, "g", "i"),
            synth_file(2, 20, 100, "b", "e"),
            synth_file(2, 21, 100, "h", "j"),
        ],
    );
    assert!(level_score(&v, &opts, 1) >= 1.0);
    let task = pick(&v, &opts).expect("L1 is over budget");
    assert_eq!(task.level, 1);
    assert_eq!(task.base.len(), 1, "one file, not the whole level");
    assert_eq!(task.base[0].number, 11);
    assert_eq!(task.parent.len(), 1, "only the overlapping L2 file");
    assert_eq!(task.parent[0].number, 20);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn hybrid_partial_rotates_a_bounded_cursor_through_the_level() {
    use super::policy::{CompactionPolicy, HybridPartial};
    let dir = tmpdir("hybrid");
    let mut opts = small_opts();
    opts.table_file_size = 1024; // partial budget = 2 tables = 2048 bytes
                                 // L1 is 4x over its 4096-byte budget, spread over six files.
    let v = synth_version(
        &dir,
        (0..6u64)
            .map(|i| {
                synth_file(
                    1,
                    10 + i,
                    3000,
                    &format!("k{}", 2 * i),
                    &format!("k{}", 2 * i + 1),
                )
            })
            .collect(),
    );
    let policy = HybridPartial::new();
    assert!(policy.level_score(&v, &opts, 1) >= 1.0);
    // Each pick takes a bounded slice (one 3000-byte file exceeds the
    // 2048 budget alone, so exactly one file per task) and the cursor
    // advances: consecutive picks claim *different* files.
    let t1 = policy.pick(&v, &opts).expect("first partial pick");
    assert_eq!(t1.base.len(), 1);
    let first = t1.base[0].number;
    let t2 = policy.pick(&v, &opts).expect("second partial pick");
    assert_eq!(t2.base.len(), 1);
    assert_ne!(t2.base[0].number, first, "cursor did not advance");
    drop(t1);
    drop(t2);
    // The cursor wraps: six more picks cycle through the whole level.
    let mut seen = std::collections::HashSet::new();
    for _ in 0..6 {
        let t = policy.pick(&v, &opts).expect("pick");
        seen.insert(t.base[0].number);
    }
    assert_eq!(seen.len(), 6, "cursor failed to cover the level");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn claim_release_notifies_signal_on_drop() {
    use crate::version::ClaimSignal;
    let dir = tmpdir("claimsignal");
    let opts = small_opts();
    let v = synth_version(
        &dir,
        vec![
            synth_file(0, 10, 100, "a", "c"),
            synth_file(0, 11, 100, "a", "c"),
        ],
    );
    let signal = Arc::new(ClaimSignal::default());
    let mut task = pick(&v, &opts).expect("claims L0");
    task.attach_release_signal(Arc::clone(&signal));
    // A waiter parked on the signal must wake when the task drops —
    // with a plain untimed wait.
    let waiter = {
        let signal = Arc::clone(&signal);
        std::thread::spawn(move || {
            let mut guard = signal.lock();
            signal.wait(&mut guard);
        })
    };
    // Give the waiter time to park (the notify-under-lock protocol
    // means even a pre-park drop cannot be missed once `lock` is
    // acquired after the waiter's, but here we want the wait path).
    std::thread::sleep(std::time::Duration::from_millis(50));
    drop(task);
    waiter.join().expect("waiter woke without a timeout");
    std::fs::remove_dir_all(&dir).unwrap();
}
