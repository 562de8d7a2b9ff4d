//! Crash-recovery integration tests: torn WAL tails, asynchronous-
//! logging semantics, the out-of-order log recovery rule (§4), and
//! power loss repeated across reopen cycles.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Barrier};

use clsm_repro::clsm::{Db, Job, Options};
use clsm_repro::storage::filenames;
use clsm_repro::util::env::{Env, FaultEnv, RandomAccessFile, WritableFile};
use clsm_repro::util::Result;

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "crash-{}-{}-{}",
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

/// The empty-key commit marker the removed range-sharded composition
/// appended to each participant's WAL payload of a cross-shard batch:
/// a `Put` of the varint-encoded total entry count.
fn legacy_commit_marker(ts: u64, total: u8) -> clsm_repro::storage::format::WriteRecord {
    assert!(total < 0x80, "one-byte varint");
    clsm_repro::storage::format::WriteRecord::put(ts, "", [total])
}

/// Finds the live WAL files in a store directory.
fn wal_files(dir: &Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        if let Some(filenames::FileKind::Wal(_)) =
            filenames::parse_file_name(entry.file_name().to_str().unwrap())
        {
            out.push(entry.path());
        }
    }
    out.sort();
    out
}

#[test]
fn torn_wal_tail_recovers_prefix() {
    let dir = TempDir::new("torn");
    {
        let db = Db::open(&dir.0, Options::small_for_tests()).unwrap();
        for i in 0..500u32 {
            db.put(format!("key{i:05}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        // Normal close flushes the logging queue to the OS.
    }
    // Simulate a crash that tore the last WAL block: truncate the
    // newest WAL by a handful of bytes.
    let wals = wal_files(&dir.0);
    let last = wals.last().expect("a live WAL");
    let len = std::fs::metadata(last).unwrap().len();
    if len > 16 {
        let f = std::fs::OpenOptions::new().write(true).open(last).unwrap();
        f.set_len(len - 9).unwrap();
    }

    // Recovery must succeed and return a *prefix*: all-or-nothing per
    // record, with no corruption surfaced to the user.
    let db = Db::open(&dir.0, Options::small_for_tests()).unwrap();
    let mut recovered = 0;
    let mut missing_started = false;
    for i in 0..500u32 {
        match db.get(format!("key{i:05}").as_bytes()).unwrap() {
            Some(v) => {
                assert!(
                    !missing_started,
                    "recovered key {i} after a gap — not a prefix"
                );
                assert_eq!(v, format!("v{i}").into_bytes());
                recovered += 1;
            }
            None => missing_started = true,
        }
    }
    // The paper's async-logging contract: "a handful of writes may be
    // lost due to a crash" — but never more than the torn tail.
    assert!(recovered >= 490, "lost too much: {recovered}/500");
    // And the store remains fully writable.
    db.put(b"after-crash", b"ok").unwrap();
    assert_eq!(db.get(b"after-crash").unwrap(), Some(b"ok".to_vec()));
}

#[test]
fn sync_mode_loses_nothing_on_torn_tail() {
    let dir = TempDir::new("sync-torn");
    let mut opts = Options::small_for_tests();
    opts.sync_writes = true;
    {
        let db = Db::open(&dir.0, opts.clone()).unwrap();
        for i in 0..50u32 {
            db.put(format!("key{i:05}").as_bytes(), b"durable").unwrap();
        }
    }
    // Even truncating a few bytes can only hit bytes after the last
    // acknowledged record (sync mode fsyncs before acking).
    let wals = wal_files(&dir.0);
    if let Some(last) = wals.last() {
        let len = std::fs::metadata(last).unwrap().len();
        // Only remove trailing zero padding — acknowledged records must
        // survive; removing 1 byte of padding is always safe.
        if len > 0 {
            let f = std::fs::OpenOptions::new().write(true).open(last).unwrap();
            f.set_len(len.saturating_sub(1)).unwrap();
        }
    }
    let db = Db::open(&dir.0, opts).unwrap();
    for i in 0..49u32 {
        assert_eq!(
            db.get(format!("key{i:05}").as_bytes()).unwrap(),
            Some(b"durable".to_vec()),
            "sync-acknowledged write {i} lost"
        );
    }
}

#[test]
fn out_of_order_wal_records_recover_in_timestamp_order() {
    // cLSM relaxes the single-writer constraint, so concurrent writers
    // append WAL records out of timestamp order; §4: "the correct order
    // is easily restored upon recovery". Hammer one key from many
    // threads, reopen, and check the surviving value is the one with
    // the highest timestamp (i.e. the last committed write).
    let dir = TempDir::new("ooo");
    let final_value;
    {
        let db = Arc::new(Db::open(&dir.0, Options::small_for_tests()).unwrap());
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u32 {
                    db.put(b"contended", format!("t{t}-i{i}").as_bytes())
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        final_value = db.get(b"contended").unwrap().unwrap();
    }
    let db = Db::open(&dir.0, Options::small_for_tests()).unwrap();
    assert_eq!(
        db.get(b"contended").unwrap(),
        Some(final_value),
        "recovery resurrected a stale version"
    );
}

#[test]
fn repeated_crash_reopen_cycles_accumulate_data() {
    let dir = TempDir::new("cycles");
    for round in 0..6u32 {
        let db = Db::open(&dir.0, Options::small_for_tests()).unwrap();
        // Everything from earlier rounds is present.
        for prior in 0..round {
            for i in 0..100u32 {
                assert_eq!(
                    db.get(format!("r{prior}-k{i:04}").as_bytes()).unwrap(),
                    Some(format!("r{prior}").into_bytes()),
                    "round {round} lost r{prior}-k{i}"
                );
            }
        }
        for i in 0..100u32 {
            db.put(
                format!("r{round}-k{i:04}").as_bytes(),
                format!("r{round}").as_bytes(),
            )
            .unwrap();
        }
        // Alternate between flushed and unflushed shutdowns.
        if round % 2 == 0 {
            db.compact_to_quiescence().unwrap();
        }
    }
}

/// A failpoint on the manifest commit, layered over a [`FaultEnv`]:
/// once armed, the next append to a `MANIFEST-*` file meets the test
/// thread at `parked` twice — once to say it has parked, once to be
/// released — and then fails as an injected crash.
#[derive(Debug, Clone)]
struct ManifestFailpoint {
    fault: FaultEnv,
    state: Arc<FailpointState>,
}

#[derive(Debug)]
struct FailpointState {
    armed: AtomicBool,
    parked: Barrier,
}

struct FailpointFile {
    inner: Box<dyn WritableFile>,
    env: ManifestFailpoint,
}

impl WritableFile for FailpointFile {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        let state = &self.env.state;
        if state.armed.swap(false, SeqCst) {
            state.parked.wait();
            state.parked.wait();
            self.env.fault.crash_after(1);
        }
        self.inner.append(data)
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }

    fn sync(&mut self) -> Result<()> {
        self.inner.sync()
    }
}

impl Env for ManifestFailpoint {
    fn open_write(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        let inner = self.fault.open_write(path)?;
        let name = path.file_name().unwrap().to_str().unwrap();
        Ok(match filenames::parse_file_name(name) {
            Some(filenames::FileKind::Manifest(_)) => Box::new(FailpointFile {
                inner,
                env: self.clone(),
            }),
            _ => inner,
        })
    }

    fn open_read(&self, path: &Path) -> Result<Box<dyn RandomAccessFile>> {
        self.fault.open_read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        self.fault.rename(from, to)
    }

    fn remove(&self, path: &Path) -> Result<()> {
        self.fault.remove(path)
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>> {
        self.fault.list(dir)
    }

    fn sync_dir(&self, dir: &Path) -> Result<()> {
        self.fault.sync_dir(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> Result<()> {
        self.fault.create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        self.fault.exists(path)
    }
}

/// Power loss between a flush's WAL rotation and its manifest commit,
/// cycle after cycle. The manifest persists the file-number counter
/// only at commits, so every reopen finds a live WAL numbered above
/// what the manifest recorded; reusing that number for the new WAL
/// truncates writes that exist nowhere else once the reopened store
/// crashes again. A clean shutdown between cycles cannot show this:
/// only repeated crashes do.
#[test]
fn repeated_power_loss_cycles_keep_every_acked_write() {
    const CYCLES: u32 = 4;
    const MEMTABLE_BYTES: usize = 8 * 1024;
    let dir = Path::new("/power-loss-cycles");
    let fault = FaultEnv::new(0xc1c1e5);
    let key = |cycle: u32, i: u32| format!("c{cycle}-{i:05}").into_bytes();
    let value = |cycle: u32, i: u32| {
        let mut v = format!("v{cycle}-{i}-").into_bytes();
        v.resize(96, b'.');
        v
    };

    // Acked puts per finished cycle.
    let mut acked: Vec<u32> = Vec::new();
    for cycle in 0..=CYCLES {
        let failpoint = ManifestFailpoint {
            fault: fault.clone(),
            state: Arc::new(FailpointState {
                armed: AtomicBool::new(false),
                parked: Barrier::new(2),
            }),
        };
        let mut opts = Options::small_for_tests();
        opts.memtable_bytes = MEMTABLE_BYTES;
        opts.sync_writes = true;
        opts.store.env = Arc::new(failpoint.clone());
        // No background threads: this thread decides when the flush
        // runs.
        let db = Db::open_stepped(dir, opts).unwrap();

        for (earlier, &count) in acked.iter().enumerate() {
            let earlier = earlier as u32;
            for i in 0..count {
                assert_eq!(
                    db.get(&key(earlier, i)).unwrap(),
                    Some(value(earlier, i)),
                    "reopen {cycle}: acked write {i} of cycle {earlier} lost (report: {:?})",
                    db.recovery_report()
                );
            }
        }
        if cycle == CYCLES {
            break;
        }

        // Synced puts until the memtable is full; the put that fills it
        // asks for the flush.
        let state = &failpoint.state;
        state.armed.store(true, SeqCst);
        let mut n = 0u32;
        loop {
            db.put(&key(cycle, n), &value(cycle, n)).unwrap();
            n += 1;
            if db.memtable_bytes() >= MEMTABLE_BYTES {
                break;
            }
        }
        assert!(db.due_jobs().contains(&Job::Flush), "cycle {cycle}");
        std::thread::scope(|s| {
            // The flush rotates a new WAL under the writes from here on,
            // writes its table, then parks on its manifest commit.
            let flush = s.spawn(|| db.run_job(Job::Flush));
            state.parked.wait();
            // Acked writes only the rotated-in WAL holds.
            for _ in 0..8 {
                db.put(&key(cycle, n), &value(cycle, n)).unwrap();
                n += 1;
            }
            state.parked.wait();
            let flushed = flush.join().unwrap();
            assert!(
                flushed.is_err(),
                "cycle {cycle}: the flush outlived the injected crash"
            );
        });
        assert!(
            fault.is_poisoned(),
            "cycle {cycle}: the injected crash never fired"
        );
        drop(db);
        fault.power_loss();
        acked.push(n);
    }
}

/// Several live WALs whose records interleave in timestamp order —
/// what a crash leaves when a rotation (or, before PR 20, a striped
/// WAL) spread unflushed writes over more than one file. Recovery must
/// merge them into one `(ts, key)`-sorted, deduplicated history, drop
/// legacy commit markers, and never hand a live WAL's number to the
/// new incarnation's log.
#[test]
fn several_live_wals_recover_as_one_timestamp_ordered_history() {
    use clsm_repro::storage::format::WriteRecord;
    use clsm_repro::storage::wal::LogWriter;
    use clsm_repro::storage::{Store, StoreOptions};

    let env = FaultEnv::new(0x5712);
    let dir = Path::new("/several-wals");
    let store_opts = || StoreOptions {
        env: Arc::new(env.clone()),
        ..StoreOptions::default()
    };

    // First incarnation: manifest plus one (empty) WAL.
    let (store, _) = Store::open(dir, store_opts()).unwrap();
    let first = store.current_wal_number();
    drop(store);

    // Its sibling logs, numbered as the counter handed them out but —
    // no flush having committed — never recorded in the manifest. One
    // WAL record per batch, synced, so power loss keeps all of it.
    let write_wal = |number: u64, batches: &[&[WriteRecord]]| {
        let file = env.open_write(&filenames::wal_path(dir, number)).unwrap();
        let mut wal = LogWriter::new(file);
        for batch in batches {
            let mut payload = Vec::new();
            for record in *batch {
                record.encode_to(&mut payload);
            }
            wal.add_record(&payload).unwrap();
        }
        wal.sync().unwrap();
    };
    write_wal(
        first + 1,
        &[
            &[WriteRecord::put(6, "a", "a6")],
            &[
                WriteRecord::put(4, "b", "b4"),
                WriteRecord::put(4, "c", "c4"),
                legacy_commit_marker(4, 3),
            ],
            &[WriteRecord::put(1, "a", "a1")],
        ],
    );
    write_wal(
        first + 2,
        &[
            &[WriteRecord::put(2, "b", "b2")],
            &[WriteRecord::put(4, "d", "d4"), legacy_commit_marker(4, 3)],
            &[WriteRecord::delete(5, "a")],
            &[WriteRecord::put(6, "a", "a6")], // also in the other log
            &[WriteRecord::put(3, "c", "c3")],
        ],
    );
    env.power_loss();

    let (store, recovered) = Store::open(dir, store_opts()).unwrap();
    assert_eq!(
        recovered.report.wals_replayed,
        vec![first, first + 1, first + 2]
    );
    assert!(recovered.report.torn_tails.is_empty());
    assert_eq!(
        recovered.records,
        vec![
            WriteRecord::put(1, "a", "a1"),
            WriteRecord::put(2, "b", "b2"),
            WriteRecord::put(3, "c", "c3"),
            WriteRecord::put(4, "b", "b4"),
            WriteRecord::put(4, "c", "c4"),
            WriteRecord::put(4, "d", "d4"),
            WriteRecord::delete(5, "a"),
            WriteRecord::put(6, "a", "a6"),
        ]
    );
    assert_eq!(recovered.last_ts, 6);
    assert!(
        store.current_wal_number() > first + 2,
        "the new WAL reused the number of a live one"
    );
    drop(store);

    // A second crash before any flush: the old logs are still whole, so
    // the database serves the same history.
    env.power_loss();
    let mut opts = Options::small_for_tests();
    opts.store.env = Arc::new(env.clone());
    let db = Db::open(dir, opts).unwrap();
    assert_eq!(db.get(b"a").unwrap(), Some(b"a6".to_vec()));
    assert_eq!(db.get(b"b").unwrap(), Some(b"b4".to_vec()));
    assert_eq!(db.get(b"c").unwrap(), Some(b"c4".to_vec()));
    assert_eq!(db.get(b"d").unwrap(), Some(b"d4".to_vec()));
}

/// The root of a range-sharded layout (a `SHARDS` manifest beside
/// `shard-NNN/` stores) is not a store: opening it as one used to
/// create a fresh empty database next to the data.
#[test]
fn sharded_root_is_refused_and_names_its_shard_directories() {
    use clsm_repro::util::error::Error;

    let dir = TempDir::new("sharded-root");
    // Only the manifest's presence is checked, never its contents.
    std::fs::write(dir.0.join("SHARDS"), "shards 2\nboundary 80\n").unwrap();
    for shard in ["shard-000", "shard-001"] {
        let db = Db::open(&dir.0.join(shard), Options::small_for_tests()).unwrap();
        db.put(b"k", shard.as_bytes()).unwrap();
    }
    let entries = || {
        let mut names: Vec<_> = std::fs::read_dir(&dir.0)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        names
    };
    let before = entries();

    let err = Db::open(&dir.0, Options::small_for_tests()).unwrap_err();
    assert!(matches!(err, Error::InvalidArgument(_)), "{err:?}");
    let msg = err.to_string();
    assert!(
        msg.contains("shard-000/") && msg.contains("shard-001/"),
        "{msg}"
    );

    // Nothing was created beside the shards, and each of them is still
    // a complete store.
    assert_eq!(before, entries());
    let db = Db::open(&dir.0.join("shard-001"), Options::small_for_tests()).unwrap();
    assert_eq!(db.get(b"k").unwrap(), Some(b"shard-001".to_vec()));
}

/// A `shard-NNN/` directory as the removed sharded composition left it
/// after a crash — single puts, plus its share of two cross-shard
/// batches (entries at one shared timestamp and the commit marker, in
/// one WAL payload) — opens as a plain `Db` holding every acked key and
/// nothing else.
#[test]
fn legacy_shard_directory_opens_as_a_db_with_every_acked_key() {
    use clsm_repro::storage::format::WriteRecord;
    use clsm_repro::storage::wal::SyncMode;
    use clsm_repro::storage::{Store, StoreOptions};

    let env = FaultEnv::new(0x5a4d);
    let dir = std::path::Path::new("/root-of-shards/shard-000");
    let (store, _) = Store::open(
        dir,
        StoreOptions {
            env: Arc::new(env.clone()),
            ..StoreOptions::default()
        },
    )
    .unwrap();
    for batch in [
        vec![WriteRecord::put(1, "apple", "a1")],
        vec![
            WriteRecord::put(2, "banana", "b2"),
            WriteRecord::put(2, "cherry", "c2"),
            legacy_commit_marker(2, 5),
        ],
        vec![WriteRecord::delete(3, "apple")],
        vec![
            WriteRecord::put(7, "date", "d7"),
            legacy_commit_marker(7, 2),
        ],
    ] {
        store.log(&batch, SyncMode::Sync).unwrap();
    }
    drop(store);
    env.power_loss();

    let mut opts = Options::small_for_tests();
    opts.store.env = Arc::new(env.clone());
    let db = Db::open(dir, opts).unwrap();
    assert_eq!(db.recovery_report().records_recovered, 5);
    let all: Vec<_> = db.iter().unwrap().map(|kv| kv.unwrap()).collect();
    assert_eq!(
        all,
        vec![
            (b"banana".to_vec(), b"b2".to_vec()),
            (b"cherry".to_vec(), b"c2".to_vec()),
            (b"date".to_vec(), b"d7".to_vec()),
        ]
    );
    // The oracle resumed above the last marked batch: a new write
    // supersedes it rather than sliding underneath.
    db.put(b"date", b"new").unwrap();
    assert_eq!(db.get(b"date").unwrap(), Some(b"new".to_vec()));
    // The marker's key stays unwritable.
    assert!(db.put(b"", b"x").is_err());
}
