//! Crash-recovery integration tests: torn WAL tails, asynchronous-
//! logging semantics, the out-of-order log recovery rule (§4), and
//! power loss repeated across reopen cycles.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Barrier};

use clsm_repro::clsm::{Db, Job, Options, WriteBatch, WriteOptions};
use clsm_repro::storage::filenames;
use clsm_repro::util::env::{Env, FaultEnv, FaultOp, RandomAccessFile, WritableFile};
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

/// Crashes repeated across reopen cycles keep every write a sync or a
/// flush covered. A clean shutdown between cycles cannot show what
/// this looks for: only repeated crashes do.
///
/// First a fixed scenario: power loss between a flush's WAL rotation
/// and its manifest commit, four cycles in a row. Then [`CRASH_SEEDS`]
/// seeds of [`SEEDED_CYCLES`] cycles each, where the seed picks the
/// writes, the jobs and the operation the process dies at (see
/// [`seeded_crash_cycles`]); each seed runs twice and must leave the
/// same `FaultEnv::history()` both times.
#[test]
fn repeated_power_loss_cycles_keep_every_acked_write() {
    manifest_commit_crash_cycles();
    let mut endings = [0u32; 2];
    for seed in CRASH_SEEDS {
        let (history, crashed_mid_cycle) = seeded_crash_cycles(seed);
        assert_eq!(
            seeded_crash_cycles(seed).0,
            history,
            "seed {seed:#x}: the same seed must do the same I/O"
        );
        endings[0] += crashed_mid_cycle;
        endings[1] += SEEDED_CYCLES - crashed_mid_cycle;
    }
    // Neither ending may be left untried by the seeds.
    assert!(endings.iter().all(|&n| n > 0), "{endings:?}");
}

/// The manifest persists the file-number counter only at commits, so
/// every reopen after a crash between a flush's WAL rotation and its
/// manifest commit finds a live WAL numbered above what the manifest
/// recorded; reusing that number for the new WAL truncates writes that
/// exist nowhere else once the reopened store crashes again.
fn manifest_commit_crash_cycles() {
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

/// Seeds of the seeded crash cycles.
const CRASH_SEEDS: [u64; 8] = [
    0x5eed_0001,
    0x5eed_0002,
    0x5eed_0003,
    0x5eed_0004,
    0x5eed_0005,
    0x5eed_0006,
    0x5eed_0007,
    0x5eed_0008,
];
/// Crash cycles per seed.
const SEEDED_CYCLES: u32 = 4;

/// What one key may read back after a crash: the values written to it
/// since the last reopen, oldest first (`None` a delete; a write that
/// failed is here too, as its record may have reached the file), and
/// how many of them a sync or a flush covered. The newest covered
/// value, or one written after it, must read back; with none covered,
/// so may nothing.
struct Written {
    values: Vec<Option<Vec<u8>>>,
    covered: usize,
}

impl Written {
    fn allows(&self, read: &Option<Vec<u8>>) -> bool {
        (self.covered == 0 && read.is_none())
            || self.values[self.covered.saturating_sub(1)..].contains(read)
    }
}

/// One seed's crash cycles on a stepped store over a [`FaultEnv`]; returns
/// the env's operation history and how many cycles the armed crash
/// ended (the rest ended in power loss).
///
/// Each cycle reopens the store, checks every key against what was
/// written and covered before the crash and `verify_integrity`, then
/// runs 160 seeded steps: async puts, sync puts, deletes and the jobs
/// that are due (WAL write, flush, compaction), over 48 keys. Two
/// cycles in three arm `FaultEnv::crash_after(n)` first, at an
/// operation `n` the seed picks from the next 128, and end at the step
/// that fails; a cycle whose crash has not fired when its steps run out
/// ends in power loss, dying at its next durable operation. Either way
/// `FaultEnv::power_loss` then drops what was not synced, keeping a
/// seeded torn tail.
fn seeded_crash_cycles(seed: u64) -> (Vec<FaultOp>, u32) {
    let dir = Path::new("/seeded-crash-cycles");
    let fault = FaultEnv::new(seed);
    let mut rng = seed;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut model: BTreeMap<Vec<u8>, Written> = BTreeMap::new();
    let mut crashed_mid_cycle = 0;
    for cycle in 0..=SEEDED_CYCLES {
        let mut opts = Options::small_for_tests();
        opts.memtable_bytes = 8 * 1024;
        // Nothing drains between the steps, so pacing would only sleep.
        opts.admission.enabled = false;
        opts.store.env = Arc::new(fault.clone());
        let db = Db::open_stepped(dir, opts).unwrap();
        let ctx = format!("seed {seed:#x}, reopen {cycle}");
        for (key, written) in &mut model {
            let read = db.get(key).unwrap();
            let text = |v: &Option<Vec<u8>>| {
                v.as_deref()
                    .map(|v| String::from_utf8_lossy(v).into_owned())
            };
            assert!(
                written.allows(&read),
                "{ctx}: {} reads {:?}, written {:?} with {} covered (report: {:?})",
                String::from_utf8_lossy(key),
                text(&read),
                written.values.iter().map(text).collect::<Vec<_>>(),
                written.covered,
                db.recovery_report()
            );
            // What recovery found is on disk now, so a later crash must
            // keep it.
            *written = Written {
                values: vec![read],
                covered: 1,
            };
        }
        db.verify_integrity()
            .unwrap_or_else(|e| panic!("{ctx}: verify_integrity: {e}"));
        if cycle == SEEDED_CYCLES {
            break;
        }

        if next() % 3 != 0 {
            fault.crash_after(1 + next() % 128);
        }
        for step in 0..160u32 {
            let key = format!("k{:02}", next() % 48).into_bytes();
            let roll = next() % 16;
            let value = (roll < 12).then(|| {
                let mut v = format!("{seed:x}-{cycle}-{step}-").into_bytes();
                v.resize(100, b'.');
                v
            });
            let result = match roll {
                0..=12 => {
                    let written = model.entry(key.clone()).or_insert(Written {
                        values: Vec::new(),
                        covered: 0,
                    });
                    written.values.push(value.clone());
                    let sync = (10..12).contains(&roll);
                    let batch = match &value {
                        Some(v) => WriteBatch::single_put(&key, v),
                        None => WriteBatch::single_delete(&key),
                    };
                    db.write(batch, &WriteOptions { sync }).map(|()| sync)
                }
                _ => match db.due_jobs().first() {
                    Some(&job) => db.run_job(job).map(|ran| ran && job == Job::Flush),
                    None => Ok(false),
                },
            };
            match result {
                // A sync covers every write acked before it; a flush
                // commits every write so far to a table.
                Ok(true) => model.values_mut().for_each(|w| w.covered = w.values.len()),
                Ok(false) => {}
                Err(e) => {
                    assert!(fault.is_poisoned(), "{ctx}, step {step}: {e}");
                    crashed_mid_cycle += 1;
                    break;
                }
            }
        }
        if !fault.is_poisoned() {
            fault.crash_after(1);
        }
        drop(db);
        fault.power_loss();
    }
    (fault.history(), crashed_mid_cycle)
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
