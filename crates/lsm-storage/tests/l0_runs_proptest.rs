//! Property tests for reading L0 by sorted run.
//!
//! A version partitions L0 into sorted runs of disjoint tables and
//! reads it one run at a time: a `get` probes at most one table per
//! run, and a scan merges one iterator per run. Over random layouts of
//! overlapping and disjoint tables, both must answer exactly what a
//! walk over every table, newest first, answers.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use clsm_util::env::RealEnv;
use lsm_storage::format::InternalKey;
use lsm_storage::sstable::TableBuilder;
use lsm_storage::version::{NewFile, TableOpener, VersionEdit, VersionSet};
use lsm_storage::{filenames, InternalIterator, MergingIterator, ValueKind};
use proptest::prelude::*;

/// Keys are `k00`..`k39`.
const KEYS: u32 = 40;

/// One version of one key in a table: `(key, ts, kind, value)`.
type Entry = (Vec<u8>, u64, ValueKind, Vec<u8>);

struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let path =
            std::env::temp_dir().join(format!("l0-runs-proptest-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One table's key picks: a key range starting at `lo`, `width` keys
/// wide, and per key whether it is kept, how many versions it has, and
/// whether the newest one is a deletion. The range's end keys are
/// always kept, so the table spans exactly that range.
type TablePicks = (u32, u32, Vec<(bool, u8, bool)>);

fn arb_table() -> impl Strategy<Value = TablePicks> {
    (
        0..KEYS,
        0..12u32,
        prop::collection::vec((any::<bool>(), 1..3u8, any::<bool>()), 12..13),
    )
}

/// The tables of an L0 layout, oldest first. Every version in a table
/// is newer than every version in the tables before it, as flushes
/// make them.
fn build_layout(tables: &[TablePicks]) -> Vec<Vec<Entry>> {
    let mut ts = 0u64;
    let mut out = Vec::new();
    for (number, (lo, width, picks)) in (1u64..).zip(tables) {
        let hi = (lo + width).min(KEYS - 1);
        let mut entries = Vec::new();
        for (key, &(keep, versions, delete)) in (*lo..=hi).zip(picks) {
            if !(keep || key == *lo || key == hi) {
                continue;
            }
            ts += u64::from(versions);
            // Internal order: the newest version of a key first.
            for v in 0..u64::from(versions) {
                let kind = if delete && v == 0 {
                    ValueKind::Delete
                } else {
                    ValueKind::Put
                };
                let value = match kind {
                    ValueKind::Delete => Vec::new(),
                    ValueKind::Put => format!("{number}@{}", ts - v).into_bytes(),
                };
                entries.push((format!("k{key:02}").into_bytes(), ts - v, kind, value));
            }
        }
        out.push(entries);
    }
    out
}

fn write_table(dir: &Path, number: u64, entries: &[Entry]) -> NewFile {
    let path = filenames::table_path(dir, number);
    let mut b = TableBuilder::new(Box::new(std::fs::File::create(&path).unwrap()), 256, 10);
    for (key, ts, kind, value) in entries {
        b.add(InternalKey::new(key, *ts, *kind).encoded(), value)
            .unwrap();
    }
    let summary = b.finish().unwrap();
    NewFile {
        level: 0,
        number,
        file_size: summary.file_size,
        smallest: summary.smallest,
        largest: summary.largest,
    }
}

/// The reference `get`: walk every table, newest first, and answer
/// from the first one holding a version of `key` at or below `max_ts`.
fn reference_get(
    layout: &[Vec<Entry>],
    key: &[u8],
    max_ts: u64,
) -> Option<(u64, ValueKind, Vec<u8>)> {
    layout.iter().rev().find_map(|entries| {
        entries
            .iter()
            .find(|(k, ts, _, _)| k.as_slice() == key && *ts <= max_ts)
            .map(|(_, ts, kind, value)| (*ts, *kind, value.clone()))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn reads_by_run_equal_a_newest_first_walk_over_files(
        tables in prop::collection::vec(arb_table(), 1..10),
    ) {
        let dir = TempDir::new();
        let layout = build_layout(&tables);
        let new_files = (1u64..)
            .zip(&layout)
            .map(|(number, entries)| write_table(&dir.0, number, entries))
            .collect();
        let (mut set, _) = VersionSet::open(Arc::new(RealEnv), &dir.0).unwrap();
        let version = set
            .log_and_apply(VersionEdit { new_files, ..Default::default() })
            .unwrap();
        version.check_invariants().unwrap();
        prop_assert!(version.l0_runs().len() <= layout.len());
        let opener = Arc::new(TableOpener {
            env: Arc::new(RealEnv),
            dir: dir.0.clone(),
            bloom_bits_per_key: 10,
            block_cache: None,
        });

        // Point reads at the latest time and at the end of every table.
        let mut times: Vec<u64> = layout
            .iter()
            .filter_map(|entries| entries.iter().map(|e| e.1).max())
            .collect();
        times.push(0);
        times.push(u64::MAX >> 1);
        for key in 0..KEYS {
            let key = format!("k{key:02}").into_bytes();
            for &max_ts in &times {
                prop_assert_eq!(
                    version.get(&opener, &key, max_ts).unwrap(),
                    reference_get(&layout, &key, max_ts),
                    "get {:?} at {}", String::from_utf8_lossy(&key), max_ts
                );
            }
        }

        // A full scan merges every version of every table in order.
        let mut expected: Vec<Entry> = layout.concat();
        expected.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut merged = MergingIterator::new(version.iterators(&opener).unwrap());
        prop_assert_eq!(merged.num_children(), version.l0_runs().len());
        merged.seek_to_first();
        let mut scanned = Vec::new();
        while merged.valid() {
            scanned.push((
                merged.user_key().to_vec(),
                merged.ts(),
                merged.kind(),
                merged.value().to_vec(),
            ));
            merged.next();
        }
        merged.status().unwrap();
        prop_assert_eq!(scanned, expected);
    }
}
