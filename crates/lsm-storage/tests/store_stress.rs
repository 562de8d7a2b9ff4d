//! Stress and configuration-matrix tests of the disk substrate, and the
//! ownership rules of table files: each table opens once, on first
//! touch; a trivial move keeps its reader and its file; a reader closes,
//! and a removed table's file goes, when no version, claim or iterator
//! names the table any more; only `Store::open` lists the directory.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use clsm_util::env::{Env, RandomAccessFile, RealEnv, WritableFile};
use clsm_util::error::Result;
use lsm_storage::filenames::{self, FileKind};
use lsm_storage::format::ValueKind;
use lsm_storage::iter::VecIterator;
use lsm_storage::wal::SyncMode;
use lsm_storage::{Store, StoreOptions, WriteRecord};
use parking_lot::Mutex;

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "store-stress-{}-{}-{}",
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

fn tiny_opts() -> StoreOptions {
    StoreOptions {
        table_file_size: 4096,
        base_level_bytes: 16 * 1024,
        level_multiplier: 4,
        ..Default::default()
    }
}

fn entries(range: std::ops::Range<u64>, ts_base: u64) -> Vec<(Vec<u8>, u64, ValueKind, Vec<u8>)> {
    range
        .map(|i| {
            (
                format!("key{i:06}").into_bytes(),
                ts_base + i,
                ValueKind::Put,
                vec![7u8; 32],
            )
        })
        .collect()
}

#[test]
fn works_without_a_block_cache() {
    let dir = TempDir::new("nocache");
    let mut opts = tiny_opts();
    opts.block_cache_bytes = 0; // cache disabled entirely
    let (store, _) = Store::open(&dir.0, opts).unwrap();
    let wal = store.rotate_wal().unwrap();
    let mut it = VecIterator::new(entries(0..500, 1));
    store.flush_memtable(&mut it, 500, 500, wal).unwrap();
    assert!(store.cache_stats().is_none());
    for i in (0..500).step_by(71) {
        let got = store
            .get(format!("key{i:06}").as_bytes(), u64::MAX >> 1)
            .unwrap();
        assert!(got.is_some(), "key {i}");
    }
    assert!(store.verify_integrity().unwrap() >= 500);
}

/// Per table number: how often it was opened for reading, and how many
/// of those read handles are still open.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Handles {
    opened: u64,
    live: u64,
}

type HandleCounts = Arc<Mutex<HashMap<u64, Handles>>>;

/// A [`RealEnv`] that counts `open_read` calls and live read handles
/// per table number, `remove` calls per file name, and `list` calls.
#[derive(Debug, Default)]
struct HandleCountingEnv {
    tables: HandleCounts,
    removes: Mutex<HashMap<String, u64>>,
    lists: AtomicU64,
}

impl HandleCountingEnv {
    /// How often the table numbered `number` was removed.
    fn removes_of(&self, number: u64) -> u64 {
        let name = format!("{number:06}.sst");
        self.removes.lock().get(&name).copied().unwrap_or(0)
    }
}

struct CountedFile {
    inner: Box<dyn RandomAccessFile>,
    number: u64,
    tables: HandleCounts,
}

impl RandomAccessFile for CountedFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        self.inner.read_at(offset, buf)
    }

    fn len(&self) -> Result<u64> {
        self.inner.len()
    }
}

impl Drop for CountedFile {
    fn drop(&mut self) {
        self.tables.lock().get_mut(&self.number).unwrap().live -= 1;
    }
}

impl Env for HandleCountingEnv {
    fn open_write(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        RealEnv.open_write(path)
    }

    fn open_read(&self, path: &Path) -> Result<Box<dyn RandomAccessFile>> {
        let inner = RealEnv.open_read(path)?;
        let name = path.file_name().unwrap().to_str().unwrap();
        let Some(FileKind::Table(number)) = filenames::parse_file_name(name) else {
            return Ok(inner);
        };
        let handles = &mut *self.tables.lock();
        let counts = handles.entry(number).or_default();
        counts.opened += 1;
        counts.live += 1;
        Ok(Box::new(CountedFile {
            inner,
            number,
            tables: Arc::clone(&self.tables),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        RealEnv.rename(from, to)
    }

    fn remove(&self, path: &Path) -> Result<()> {
        let name = path.file_name().unwrap().to_str().unwrap().to_owned();
        *self.removes.lock().entry(name).or_default() += 1;
        RealEnv.remove(path)
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>> {
        self.lists.fetch_add(1, Ordering::Relaxed);
        RealEnv.list(dir)
    }

    fn sync_dir(&self, dir: &Path) -> Result<()> {
        RealEnv.sync_dir(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> Result<()> {
        RealEnv.create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        RealEnv.exists(path)
    }
}

/// A store on `env`.
fn counted_store(dir: &TempDir, env: &Arc<HandleCountingEnv>, opts: StoreOptions) -> Store {
    let env = Arc::clone(env) as Arc<dyn Env>;
    Store::open(&dir.0, StoreOptions { env, ..opts }).unwrap().0
}

/// Table numbers per level of the current version.
fn table_numbers(store: &Store) -> Vec<Vec<u64>> {
    let version = store.current_version();
    let levels = version.levels.iter();
    levels
        .map(|l| l.iter().map(|f| f.number).collect())
        .collect()
}

/// The tables with a read handle open, and how many each has.
fn live_handles(tables: &HandleCounts) -> HashMap<u64, u64> {
    let tables = tables.lock();
    let open = tables.iter().filter(|(_, h)| h.live > 0);
    open.map(|(&n, h)| (n, h.live)).collect()
}

fn flush(store: &Store, keys: std::ops::Range<u64>, ts_base: u64) {
    let wal = store.rotate_wal().unwrap();
    let max_ts = ts_base + keys.end;
    let mut it = VecIterator::new(entries(keys, ts_base));
    store.flush_memtable(&mut it, 0, max_ts, wal).unwrap();
}

#[test]
fn gets_from_two_threads_open_each_table_exactly_once() {
    let dir = TempDir::new("open-once");
    let mut opts = tiny_opts();
    opts.table_file_size = 1024; // many small tables
    let env = Arc::new(HandleCountingEnv::default());
    let store = counted_store(&dir, &env, opts);
    flush(&store, 0..900, 1);
    let numbers = table_numbers(&store)[0].clone();
    assert!(numbers.len() >= 20, "{} tables", numbers.len());
    let version = store.current_version();
    let first_keys: Vec<Vec<u8>> = version.levels[0]
        .iter()
        .map(|f| f.smallest_user_key().to_vec())
        .collect();
    drop(version);

    // Racing first opens of one table may both open it (one reader
    // wins, the other is dropped), so each thread first touches its
    // own half of the tables. After the barrier both threads read
    // every table, and nothing opens again.
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        for half in 0..2 {
            let (store, barrier, first_keys) = (&store, &barrier, &first_keys);
            scope.spawn(move || {
                for key in first_keys.iter().skip(half).step_by(2) {
                    assert!(store.get(key, u64::MAX >> 1).unwrap().is_some());
                }
                barrier.wait();
                for round in 0..5 {
                    for i in (half + round..900).step_by(3) {
                        let key = format!("key{i:06}");
                        assert!(store.get(key.as_bytes(), u64::MAX >> 1).unwrap().is_some());
                    }
                }
            });
        }
    });

    let tables = env.tables.lock();
    for n in &numbers {
        assert_eq!(tables[n], Handles { opened: 1, live: 1 }, "table {n}");
    }
    assert_eq!(tables.len(), numbers.len());
}

#[test]
fn a_trivial_move_opens_nothing() {
    let dir = TempDir::new("trivial-move");
    let env = Arc::new(HandleCountingEnv::default());
    let store = counted_store(&dir, &env, tiny_opts());
    // One table, opened by a get, then moved to L1.
    flush(&store, 0..10, 1);
    let opened = table_numbers(&store)[0][0];
    assert!(store.get(b"key000003", u64::MAX >> 1).unwrap().is_some());
    store.compact_level_range(0, b"", b"\xff", 0).unwrap();
    assert_eq!(table_numbers(&store)[1], vec![opened]);
    // One table never read, moved beside it.
    flush(&store, 100..110, 1000);
    let untouched = table_numbers(&store)[0][0];
    store.compact_level_range(0, b"", b"\xff", 0).unwrap();
    assert_eq!(table_numbers(&store)[1], vec![opened, untouched]);
    assert!(!env.tables.lock().contains_key(&untouched));

    // The moved reader serves gets at L1 as it did at L0.
    assert!(store.get(b"key000007", u64::MAX >> 1).unwrap().is_some());
    assert_eq!(env.tables.lock()[&opened], Handles { opened: 1, live: 1 });
    // A move takes nothing out of the tree: neither file goes.
    store.remove_obsolete_files();
    assert_eq!((env.removes_of(opened), env.removes_of(untouched)), (0, 0));
}

#[test]
fn a_compactions_inputs_close_once_nothing_names_them() {
    let dir = TempDir::new("inputs-close");
    let env = Arc::new(HandleCountingEnv::default());
    let store = counted_store(&dir, &env, tiny_opts());
    // Two overlapping L0 tables, both opened; a scan holds them.
    flush(&store, 0..20, 1);
    flush(&store, 10..30, 1000);
    let inputs = table_numbers(&store)[0].clone();
    assert_eq!(inputs.len(), 2);
    store.verify_integrity().unwrap();
    let scan = store.version_iterators().unwrap();

    store.compact_level_range(0, b"", b"\xff", 0).unwrap();
    let outputs = table_numbers(&store)[1].clone();
    assert!(!outputs.is_empty() && outputs.iter().all(|n| !inputs.contains(n)));
    store.remove_obsolete_files();
    for n in &inputs {
        assert_eq!(
            live_handles(&env.tables).get(n),
            Some(&1),
            "input {n} in use"
        );
        assert_eq!(env.removes_of(*n), 0, "input {n} removed under a scan");
    }

    // The scan's end lists the inputs; the next pass removes each once.
    drop(scan);
    store.remove_obsolete_files();
    for n in &inputs {
        assert_eq!(env.removes_of(*n), 1, "input {n}");
        assert!(!filenames::table_path(&dir.0, *n).exists());
    }

    // One reader per table the current version names, and no other.
    store.verify_integrity().unwrap();
    let expected: HashMap<u64, u64> = outputs.iter().map(|&n| (n, 1)).collect();
    assert_eq!(live_handles(&env.tables), expected);
}

/// Only `Store::open` lists the directory; every table removed is one
/// the tree no longer names, removed once; and closing and reopening a
/// store removes nothing its manifest names.
#[test]
fn only_open_lists_and_only_garbage_is_removed() {
    let dir = TempDir::new("no-list");
    let env = Arc::new(HandleCountingEnv::default());
    // L1's budget is below one flush's bytes: L0 is due after every
    // flush.
    let opts = StoreOptions {
        base_level_bytes: 1024,
        ..tiny_opts()
    };
    let store = counted_store(&dir, &env, opts.clone());
    assert_eq!(env.lists.load(Ordering::Relaxed), 1);
    let mut compactions = 0;
    for round in 0..12u64 {
        let base = (round % 3) * 100;
        flush(&store, base..base + 150, round * 1000 + 1);
        while store.maybe_compact(u64::MAX >> 1).unwrap().is_some() {
            compactions += 1;
        }
    }
    assert!(compactions >= 10, "{compactions} compactions");
    assert_eq!(
        env.lists.load(Ordering::Relaxed),
        1,
        "a job listed the directory"
    );
    store.remove_obsolete_files();
    let named: HashSet<u64> = table_numbers(&store).into_iter().flatten().collect();
    let removes = env.removes.lock().clone();
    assert!(!removes.is_empty(), "no garbage removed");
    for (name, count) in &removes {
        assert_eq!(*count, 1, "{name} removed {count} times");
        if let Some(FileKind::Table(n)) = filenames::parse_file_name(name) {
            assert!(!named.contains(&n), "live table {name} removed");
        }
    }
    drop(store);

    let store = counted_store(&dir, &env, opts);
    assert_eq!(*env.removes.lock(), removes, "reopening removed a file");
    assert_eq!(
        table_numbers(&store)
            .into_iter()
            .flatten()
            .collect::<HashSet<_>>(),
        named
    );
    assert!(store.verify_integrity().unwrap() > 0);
}

#[test]
fn concurrent_flush_and_compaction_stress() {
    // Hammer the store with flushes from one thread while two others
    // run compactions; claims and delete-on-last-reference must keep
    // every read valid throughout.
    let dir = TempDir::new("concurrent");
    let (store, _) = Store::open(&dir.0, tiny_opts()).unwrap();
    let store = Arc::new(store);
    let rounds = 20u64;

    std::thread::scope(|scope| {
        // Flusher.
        {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for round in 0..rounds {
                    let wal = store.rotate_wal().unwrap();
                    let base = (round % 4) * 100; // overlapping ranges
                    let mut it = VecIterator::new(entries(base..base + 200, round * 1000 + 1));
                    store
                        .flush_memtable(&mut it, u64::MAX >> 1, round * 1000 + 200, wal)
                        .unwrap();
                }
            });
        }
        // Compactors.
        for _ in 0..2 {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for _ in 0..200 {
                    let _ = store.maybe_compact(u64::MAX >> 1).unwrap();
                    std::thread::yield_now();
                }
            });
        }
        // Reader: every key written by completed flushes must resolve.
        {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for _ in 0..2000 {
                    let key = format!("key{:06}", fastrand(0, 500));
                    // Value may or may not exist yet; the call must
                    // never error (no ENOENT from deleted files).
                    store.get(key.as_bytes(), u64::MAX >> 1).unwrap();
                }
            });
        }
    });

    while store.maybe_compact(u64::MAX >> 1).unwrap().is_some() {}
    // All data from the last writer of each key is present.
    assert!(store.verify_integrity().unwrap() > 0);
    for i in 0..500u64 {
        let written = (0..rounds).any(|r| {
            let base = (r % 4) * 100;
            i >= base && i < base + 200
        });
        let got = store
            .get(format!("key{i:06}").as_bytes(), u64::MAX >> 1)
            .unwrap();
        assert_eq!(got.is_some(), written, "key {i}");
    }
}

// Cheap deterministic pseudo-random for the reader thread.
fn fastrand(lo: u64, hi: u64) -> u64 {
    use std::cell::Cell;
    thread_local! {
        static STATE: Cell<u64> = const { Cell::new(0x2545_f491_4f6c_dd1d) };
    }
    STATE.with(|s| {
        let mut x = s.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s.set(x);
        lo + x % (hi - lo)
    })
}

#[test]
fn recovery_across_many_wal_rotations() {
    let dir = TempDir::new("rotations");
    {
        let (store, _) = Store::open(&dir.0, tiny_opts()).unwrap();
        // Interleave logged-but-unflushed records with rotations; only
        // records after the last retire boundary should replay.
        for i in 0..10u64 {
            store
                .log(
                    &[WriteRecord::put(
                        i + 1,
                        format!("k{i}").into_bytes(),
                        b"v".to_vec(),
                    )],
                    SyncMode::Sync,
                )
                .unwrap();
            if i % 3 == 2 {
                // Rotate without flushing: older WALs remain live.
                store.rotate_wal().unwrap();
            }
        }
    }
    let (_store, recovered) = Store::open(&dir.0, tiny_opts()).unwrap();
    // Nothing was flushed, so all 10 records replay, in ts order.
    let ts: Vec<u64> = recovered.records.iter().map(|r| r.ts).collect();
    assert_eq!(ts, (1..=10).collect::<Vec<_>>());
}

#[test]
fn minimum_level_configuration() {
    let dir = TempDir::new("two-levels");
    let mut opts = tiny_opts();
    opts.num_levels = 2;
    // L1's budget is below one flush's bytes: compact after every one.
    opts.base_level_bytes = 1024;
    let (store, _) = Store::open(&dir.0, opts).unwrap();
    for round in 0..5u64 {
        let wal = store.rotate_wal().unwrap();
        let mut it = VecIterator::new(entries(0..100, round * 1000 + 1));
        store
            .flush_memtable(&mut it, u64::MAX >> 1, round * 1000 + 100, wal)
            .unwrap();
        while store.maybe_compact(u64::MAX >> 1).unwrap().is_some() {}
    }
    // Everything ends in the bottom level (L1).
    let counts = store.level_file_counts();
    assert_eq!(counts.len(), 2);
    assert_eq!(counts[0], 0, "L0 should drain: {counts:?}");
    assert!(counts[1] > 0);
    assert!(store.get(b"key000050", u64::MAX >> 1).unwrap().is_some());
}
