//! Tests for version bookkeeping, manifest recovery, and level reads.

use super::*;
use crate::format::InternalKey;
use crate::iter::InternalIterator;
use crate::sstable::TableBuilder;
use clsm_util::env::RealEnv;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "version-{}-{}-{}",
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

/// Builds a table file and returns its NewFile record.
fn build_table(
    dir: &Path,
    number: u64,
    level: u32,
    entries: &[(&[u8], u64, ValueKind, &[u8])],
) -> NewFile {
    let path = filenames::table_path(dir, number);
    let mut b = TableBuilder::new(Box::new(std::fs::File::create(&path).unwrap()), 4096, 10);
    for (k, ts, kind, v) in entries {
        b.add(InternalKey::new(k, *ts, *kind).encoded(), v).unwrap();
    }
    let s = b.finish().unwrap();
    NewFile {
        level,
        number,
        file_size: s.file_size,
        smallest: s.smallest,
        largest: s.largest,
    }
}

fn opener_for(dir: &Path) -> Arc<TableOpener> {
    Arc::new(TableOpener {
        env: Arc::new(RealEnv),
        dir: dir.to_path_buf(),
        bloom_bits_per_key: 10,
        block_cache: None,
    })
}

#[test]
fn empty_store_roundtrips_through_manifest() {
    let dir = tmpdir("empty");
    {
        let (set, rec) = VersionSet::open(Arc::new(RealEnv), &dir).unwrap();
        assert_eq!(rec.log_number, 0);
        assert_eq!(set.current().num_files(0), 0);
    }
    // Re-open recovers cleanly.
    let (set, _) = VersionSet::open(Arc::new(RealEnv), &dir).unwrap();
    assert_eq!(set.current().num_files(0), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn edits_survive_reopen() {
    let dir = tmpdir("edits");
    let f1 = build_table(&dir, 11, 0, &[(b"a", 1, ValueKind::Put, b"v1")]);
    let f2 = build_table(&dir, 12, 1, &[(b"m", 2, ValueKind::Put, b"v2")]);
    {
        let (mut set, _) = VersionSet::open(Arc::new(RealEnv), &dir).unwrap();
        let edit = VersionEdit {
            log_number: Some(5),
            last_ts: Some(2),
            new_files: vec![f1.clone(), f2.clone()],
            ..Default::default()
        };
        set.log_and_apply(edit).unwrap();
        assert_eq!(set.current().num_files(0), 1);
        assert_eq!(set.current().num_files(1), 1);
    }
    let (set, rec) = VersionSet::open(Arc::new(RealEnv), &dir).unwrap();
    assert_eq!(rec.log_number, 5);
    assert_eq!(rec.last_ts, 2);
    let v = set.current();
    assert_eq!(v.num_files(0), 1);
    assert_eq!(v.levels[0][0].number, 11);
    assert_eq!(v.levels[1][0].number, 12);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn version_get_prefers_newer_levels() {
    let dir = tmpdir("get");
    // L0 newest file has k=5; older L0 file has k=3; L1 has k=1.
    let f_new = build_table(&dir, 30, 0, &[(b"k", 5, ValueKind::Put, b"new")]);
    let f_old = build_table(&dir, 20, 0, &[(b"k", 3, ValueKind::Put, b"mid")]);
    let f_l1 = build_table(&dir, 10, 1, &[(b"k", 1, ValueKind::Put, b"old")]);
    let (mut set, _) = VersionSet::open(Arc::new(RealEnv), &dir).unwrap();
    set.log_and_apply(VersionEdit {
        new_files: vec![f_new, f_old, f_l1],
        ..Default::default()
    })
    .unwrap();
    let v = set.current();
    let opener = opener_for(&dir);
    // Latest overall.
    let (ts, _, val) = v.get(&opener, b"k", u64::MAX >> 1).unwrap().unwrap();
    assert_eq!((ts, val.as_slice()), (5, &b"new"[..]));
    // Snapshot reads walk down the levels.
    let (ts, _, val) = v.get(&opener, b"k", 4).unwrap().unwrap();
    assert_eq!((ts, val.as_slice()), (3, &b"mid"[..]));
    let (ts, _, val) = v.get(&opener, b"k", 2).unwrap().unwrap();
    assert_eq!((ts, val.as_slice()), (1, &b"old"[..]));
    assert!(v.get(&opener, b"k", 0).unwrap().is_none());
    assert!(v.get(&opener, b"zz", 100).unwrap().is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_deleted_file_is_listed_once_no_version_names_it() {
    let dir = tmpdir("delete");
    let f1 = build_table(&dir, 7, 0, &[(b"x", 1, ValueKind::Put, b"v")]);
    {
        let (mut set, _) = VersionSet::open(Arc::new(RealEnv), &dir).unwrap();
        set.log_and_apply(VersionEdit {
            new_files: vec![f1],
            ..Default::default()
        })
        .unwrap();
        set.log_and_apply(VersionEdit {
            deleted_files: vec![(0, 7)],
            ..Default::default()
        })
        .unwrap();
        assert_eq!(set.current().num_files(0), 0);
        assert_eq!(*set.obsolete_files().files.lock(), vec![FileKind::Table(7)]);
        // Listing is all the version set does: the store removes files.
        assert!(filenames::table_path(&dir, 7).exists());
    }
    // Replaying the same two edits lists nothing.
    let (set, _) = VersionSet::open(Arc::new(RealEnv), &dir).unwrap();
    assert!(set.obsolete_files().files.lock().is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_held_version_keeps_its_files_off_the_obsolete_list() {
    let dir = tmpdir("held");
    let f1 = build_table(&dir, 7, 0, &[(b"x", 1, ValueKind::Put, b"v")]);
    let (mut set, _) = VersionSet::open(Arc::new(RealEnv), &dir).unwrap();
    let v_with_file = set
        .log_and_apply(VersionEdit {
            new_files: vec![f1],
            ..Default::default()
        })
        .unwrap();
    set.log_and_apply(VersionEdit {
        deleted_files: vec![(0, 7)],
        ..Default::default()
    })
    .unwrap();
    // A reader still holds the old version: the file is not listed.
    assert!(set.obsolete_files().files.lock().is_empty());
    drop(v_with_file);
    assert_eq!(*set.obsolete_files().files.lock(), vec![FileKind::Table(7)]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn manifest_damage_surfaces_as_typed_kind() {
    use clsm_util::error::ErrorKind;

    // Binary garbage in CURRENT: the open fails with ManifestCorrupt
    // naming the CURRENT file, not a bare Corruption string.
    let dir = tmpdir("bad-current");
    {
        let (_set, _) = VersionSet::open(Arc::new(RealEnv), &dir).unwrap();
    }
    std::fs::write(crate::filenames::current_path(&dir), [0xff, 0xfe, 0x00]).unwrap();
    let err = VersionSet::open(Arc::new(RealEnv), &dir).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::ManifestCorrupt, "{err}");
    assert!(err.to_string().contains("CURRENT"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();

    // An undecodable edit record inside the manifest (intact framing,
    // garbage payload) is retagged with the manifest path.
    let dir = tmpdir("bad-edit-record");
    {
        let (_set, _) = VersionSet::open(Arc::new(RealEnv), &dir).unwrap();
    }
    let current = std::fs::read_to_string(crate::filenames::current_path(&dir)).unwrap();
    let manifest_path = dir.join(current.trim());
    // Hand-frame a Full record (crc over type+payload, masked) and append
    // it; the fresh manifest is far smaller than a block, so the framing
    // is position-independent here.
    let payload = [0xee_u8; 9];
    let ty = crate::wal::RecordType::Full as u8;
    let mut crc_val = clsm_util::crc::extend(0, &[ty]);
    crc_val = clsm_util::crc::extend(crc_val, &payload);
    let mut framed = Vec::new();
    framed.extend_from_slice(&clsm_util::crc::mask(crc_val).to_le_bytes());
    framed.extend_from_slice(&(payload.len() as u16).to_le_bytes());
    framed.push(ty);
    framed.extend_from_slice(&payload);
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&manifest_path)
            .unwrap();
        f.write_all(&framed).unwrap();
    }
    let err = VersionSet::open(Arc::new(RealEnv), &dir).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::ManifestCorrupt, "{err}");
    assert!(err.to_string().contains("MANIFEST"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_edit_is_rejected() {
    let dir = tmpdir("bad-edit");
    let (mut set, _) = VersionSet::open(Arc::new(RealEnv), &dir).unwrap();
    let r = set.log_and_apply(VersionEdit {
        deleted_files: vec![(0, 999)],
        ..Default::default()
    });
    assert!(r.is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn overlap_queries() {
    let dir = tmpdir("overlap");
    let f1 = build_table(
        &dir,
        1,
        1,
        &[
            (b"b", 1, ValueKind::Put, b""),
            (b"d", 2, ValueKind::Put, b""),
        ],
    );
    let f2 = build_table(
        &dir,
        2,
        1,
        &[
            (b"f", 3, ValueKind::Put, b""),
            (b"h", 4, ValueKind::Put, b""),
        ],
    );
    let (mut set, _) = VersionSet::open(Arc::new(RealEnv), &dir).unwrap();
    set.log_and_apply(VersionEdit {
        new_files: vec![f1, f2],
        ..Default::default()
    })
    .unwrap();
    let v = set.current();
    let hit = |lo: &[u8], hi: &[u8]| {
        v.overlapping_files(1, lo, hi)
            .iter()
            .map(|f| f.number)
            .collect::<Vec<_>>()
    };
    assert_eq!(hit(b"a", b"a"), Vec::<u64>::new());
    assert_eq!(hit(b"a", b"b"), vec![1]);
    assert_eq!(hit(b"c", b"g"), vec![1, 2]);
    assert_eq!(hit(b"e", b"e"), Vec::<u64>::new());
    assert_eq!(hit(b"h", b"z"), vec![2]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn level_iter_concatenates_files() {
    let dir = tmpdir("leveliter");
    let f1 = build_table(
        &dir,
        1,
        1,
        &[
            (b"a", 1, ValueKind::Put, b"va"),
            (b"c", 2, ValueKind::Put, b"vc"),
        ],
    );
    let f2 = build_table(
        &dir,
        2,
        1,
        &[
            (b"m", 3, ValueKind::Put, b"vm"),
            (b"z", 4, ValueKind::Delete, b""),
        ],
    );
    let (mut set, _) = VersionSet::open(Arc::new(RealEnv), &dir).unwrap();
    set.log_and_apply(VersionEdit {
        new_files: vec![f1, f2],
        ..Default::default()
    })
    .unwrap();
    let v = set.current();
    let mut it = LevelIter::new(opener_for(&dir), v.levels[1].clone());
    it.seek_to_first();
    let mut got = Vec::new();
    while it.valid() {
        got.push((it.user_key().to_vec(), it.ts(), it.kind()));
        it.next();
    }
    it.status().unwrap();
    assert_eq!(
        got,
        vec![
            (b"a".to_vec(), 1, ValueKind::Put),
            (b"c".to_vec(), 2, ValueKind::Put),
            (b"m".to_vec(), 3, ValueKind::Put),
            (b"z".to_vec(), 4, ValueKind::Delete),
        ]
    );
    // Seeks across file boundaries.
    it.seek(b"d", u64::MAX >> 1);
    assert_eq!(it.user_key(), b"m");
    it.seek(b"m", 3);
    assert_eq!((it.user_key(), it.ts()), (&b"m"[..], 3));
    it.seek(b"m", 2);
    assert_eq!(it.user_key(), b"z");
    it.seek(b"zz", 1);
    assert!(!it.valid());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compaction_claims_are_exclusive_and_released() {
    let f = Arc::new(FileMeta {
        number: 1,
        file_size: 0,
        smallest: vec![0; 8],
        largest: vec![0; 8],
        being_compacted: AtomicBool::new(false),
        table: OnceLock::new(),
        obsolete: OnceLock::new(),
    });
    let g = Arc::new(FileMeta {
        number: 2,
        file_size: 0,
        smallest: vec![0; 8],
        largest: vec![0; 8],
        being_compacted: AtomicBool::new(false),
        table: OnceLock::new(),
        obsolete: OnceLock::new(),
    });
    let claim = CompactionClaim::try_claim(vec![f.clone(), g.clone()]).unwrap();
    // Second claim on any overlapping file fails and rolls back.
    assert!(CompactionClaim::try_claim(vec![g.clone()]).is_none());
    drop(claim);
    // Released: claimable again.
    assert!(CompactionClaim::try_claim(vec![f, g]).is_some());
}

#[test]
fn a_trivial_move_keeps_the_open_reader_and_a_rewrite_does_not() {
    let dir = tmpdir("move");
    let f = build_table(&dir, 7, 0, &[(b"k", 1, ValueKind::Put, b"v")]);
    let (mut set, _) = VersionSet::open(Arc::new(RealEnv), &dir).unwrap();
    let v0 = set
        .log_and_apply(VersionEdit {
            new_files: vec![f.clone()],
            ..Default::default()
        })
        .unwrap();
    let opener = opener_for(&dir);
    let reader = Arc::clone(v0.levels[0][0].table(&opener).unwrap());

    // Moved to L1: the very same `FileMeta`, with the same reader.
    let v1 = set
        .log_and_apply(VersionEdit {
            deleted_files: vec![(0, 7)],
            new_files: vec![NewFile { level: 1, ..f }],
            ..Default::default()
        })
        .unwrap();
    let moved = &v1.levels[1][0];
    assert!(Arc::ptr_eq(moved, &v0.levels[0][0]));
    assert!(Arc::ptr_eq(moved.table.get().unwrap(), &reader));
    drop(v0);
    assert!(
        set.obsolete_files().files.lock().is_empty(),
        "a move removes nothing"
    );

    // A file that was never touched moves unopened.
    let g = build_table(&dir, 8, 0, &[(b"m", 2, ValueKind::Put, b"v")]);
    set.log_and_apply(VersionEdit {
        new_files: vec![g.clone()],
        ..Default::default()
    })
    .unwrap();
    let v3 = set
        .log_and_apply(VersionEdit {
            deleted_files: vec![(0, 8)],
            new_files: vec![NewFile { level: 1, ..g }],
            ..Default::default()
        })
        .unwrap();
    let unopened = v3.levels[1].iter().find(|f| f.number == 8).unwrap();
    assert!(unopened.table.get().is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The file numbers of each L0 run, newest run first.
fn run_numbers(v: &Version) -> Vec<Vec<u64>> {
    v.l0_runs()
        .iter()
        .map(|run| run.iter().map(|f| f.number).collect())
        .collect()
}

#[test]
fn l0_runs_are_contiguous_in_age_so_a_newer_file_answers_first() {
    let dir = tmpdir("runs");
    let put = |k: &'static [u8], ts: u64, v: &'static [u8]| (k, ts, ValueKind::Put, v);
    // Newest first: F3 = [a..c], F2 = [b..z], F1 = [x..z]. F1 is
    // disjoint from F3 but overlaps F2.
    let f3 = build_table(&dir, 3, 0, &[put(b"a", 30, b"f3"), put(b"c", 31, b"f3")]);
    let f2 = build_table(
        &dir,
        2,
        0,
        &[
            put(b"b", 20, b"f2"),
            put(b"y", 21, b"f2"),
            put(b"z", 22, b"f2"),
        ],
    );
    let f1 = build_table(
        &dir,
        1,
        0,
        &[
            put(b"x", 10, b"f1"),
            put(b"y", 11, b"f1"),
            put(b"z", 12, b"f1"),
        ],
    );
    let (mut set, _) = VersionSet::open(Arc::new(RealEnv), &dir).unwrap();
    let v = set
        .log_and_apply(VersionEdit {
            new_files: vec![f1, f2, f3],
            ..Default::default()
        })
        .unwrap();
    let runs = run_numbers(&v);
    assert_eq!(runs, vec![vec![3], vec![2], vec![1]]);
    v.check_invariants().unwrap();

    let opener = opener_for(&dir);
    let (ts, _, val) = v.get(&opener, b"y", u64::MAX >> 1).unwrap().unwrap();
    assert_eq!(
        (ts, val.as_slice()),
        (21, &b"f2"[..]),
        "a stale version won"
    );
    let (ts, _, val) = v.get(&opener, b"x", u64::MAX >> 1).unwrap().unwrap();
    assert_eq!((ts, val.as_slice()), (10, &b"f1"[..]));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_flush_of_disjoint_tables_is_one_run_sorted_by_key() {
    let dir = tmpdir("one-run");
    let put = |k: &'static [u8], ts: u64| (k, ts, ValueKind::Put, &b"v"[..]);
    // Tables 1–3 have disjoint key ranges, as one flush writes them.
    let a = build_table(&dir, 1, 0, &[put(b"a", 1), put(b"b", 2)]);
    let c = build_table(&dir, 2, 0, &[put(b"c", 3), put(b"d", 4)]);
    let e = build_table(&dir, 3, 0, &[put(b"e", 5), put(b"f", 6)]);
    // Table 4 shares only the end key `f` with table 3: a newer run.
    let f = build_table(&dir, 4, 0, &[put(b"f", 7)]);
    let (mut set, _) = VersionSet::open(Arc::new(RealEnv), &dir).unwrap();
    let v = set
        .log_and_apply(VersionEdit {
            new_files: vec![a, c, e, f],
            ..Default::default()
        })
        .unwrap();
    let runs = run_numbers(&v);
    assert_eq!(runs, vec![vec![4], vec![1, 2, 3]]);
    let order: Vec<u64> = v.levels[0].iter().map(|f| f.number).collect();
    assert_eq!(order, vec![4, 3, 2, 1], "L0 itself stays newest first");
    std::fs::remove_dir_all(&dir).unwrap();
}
