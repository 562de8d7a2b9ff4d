//! Write-admission integration tests: pacing at the measured drain
//! rate, the hard stall's untimed wakeup, pacing against the §5.3
//! cliff under sustained pressure on a slow device, the write-stall
//! and sustained-slowdown events, and the doctor lines that report all
//! of it.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clsm::{AdmissionOptions, Db, Options, Result, StallKind};
use clsm_util::env::{Env, RandomAccessFile, RealEnv, WritableFile};
use lsm_storage::filenames::{parse_file_name, FileKind};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clsm-admission-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A registered counter's value; a name the store does not register
/// fails the test rather than reading 0.
fn counter(db: &Db, name: &str) -> u64 {
    db.metrics().counters[name]
}

/// The real file system with every table file written at
/// `bytes_per_sec`: an append to a table sleeps for its share of that
/// rate first, so flushes and compactions drain slowly while WAL and
/// manifest writes do not — what makes a store undersized for the
/// writers in front of it.
#[derive(Debug)]
struct SlowTables {
    bytes_per_sec: f64,
}

impl SlowTables {
    fn env(bytes_per_sec: u64) -> Arc<dyn Env> {
        Arc::new(SlowTables {
            bytes_per_sec: bytes_per_sec as f64,
        })
    }
}

struct SlowTableFile {
    inner: Box<dyn WritableFile>,
    bytes_per_sec: f64,
}

impl WritableFile for SlowTableFile {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        std::thread::sleep(Duration::from_secs_f64(
            data.len() as f64 / self.bytes_per_sec,
        ));
        self.inner.append(data)
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }

    fn sync(&mut self) -> Result<()> {
        self.inner.sync()
    }
}

impl Env for SlowTables {
    fn open_write(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        let inner = RealEnv.open_write(path)?;
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        Ok(match parse_file_name(name) {
            Some(FileKind::Table(_)) => Box::new(SlowTableFile {
                inner,
                bytes_per_sec: self.bytes_per_sec,
            }),
            _ => inner,
        })
    }

    fn open_read(&self, path: &Path) -> Result<Box<dyn RandomAccessFile>> {
        RealEnv.open_read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        RealEnv.rename(from, to)
    }

    fn remove(&self, path: &Path) -> Result<()> {
        RealEnv.remove(path)
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>> {
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

/// The §5.3 hard stall with pacing disabled (the ablation shim):
/// writers must stall — and every stalled writer must wake again off
/// the flush's notification, not a timer. The stall wait has no timed
/// backstop anymore, so a missed wakeup would turn this test into a
/// hang; the deadline below is what catches that.
#[test]
fn stalled_writer_wakes_on_flush_completion_not_a_timer() {
    let dir = scratch("hard-stall-wake");
    let mut opts = Options::small_for_tests();
    opts.admission = AdmissionOptions { enabled: false };
    let db = std::sync::Arc::new(Db::open(&dir, opts).unwrap());

    let writer = {
        let db = std::sync::Arc::clone(&db);
        std::thread::spawn(move || {
            let value = vec![0u8; 512];
            for i in 0..8192u32 {
                db.put(format!("wake.{i:08}").as_bytes(), &value).unwrap();
            }
        })
    };

    // A hung writer (missed wakeup) would block the join forever; give
    // the workload a generous-but-finite budget instead.
    let deadline = Instant::now() + Duration::from_secs(120);
    while !writer.is_finished() {
        assert!(
            Instant::now() < deadline,
            "writer hung in the untimed stall wait — wakeup was missed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    writer.join().unwrap();

    let stalls = counter(&db, "db.write_stalls");
    assert!(stalls > 0, "workload never hit the hard stall");
    // Each hard stall is counted once, under one name.
    let stall_counters: Vec<String> = db
        .metrics()
        .counters
        .into_keys()
        .filter(|name| name.ends_with("stalls"))
        .collect();
    assert_eq!(stall_counters, ["db.write_stalls"]);
    // Wakes ride the flush's notify: the average stall must be on the
    // order of one small flush, far below the removed 100 ms tick.
    let stall_ns = counter(&db, "db.write_stall_ns");
    assert!(
        stall_ns / stalls < Duration::from_secs(5).as_nanos() as u64,
        "average stall {}ns looks timer-paced, not flush-paced",
        stall_ns / stalls
    );
    // With pacing disabled, no write may sleep for a slot.
    assert_eq!(counter(&db, "admission.delayed_writes"), 0);

    // The first writer to stall reported the cliff before it returned.
    assert!(
        db.stall_events()
            .iter()
            .any(|e| e.kind == StallKind::WriteStall),
        "no write-stall event for the {stalls} hard stall(s)"
    );

    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// What one run of [`run_cliff_fixture`] left in the counters.
#[derive(Debug)]
struct CliffRun {
    hard_stalls: u64,
    delayed_writes: u64,
    write_stall_events: usize,
}

/// Sustained write pressure the store cannot drain: four writers put
/// 2 KiB values over 4 096 keys for 2.5 s into a 512 KiB memtable whose
/// table files are written at 4 MiB/s. Unpaced, the
/// writers fill `Pm` long before the flush of `P'm` ends; paced, they
/// fill it at the rate the last flush drained.
fn run_cliff_fixture(name: &str, pacing: bool) -> CliffRun {
    let dir = scratch(name);
    let mut opts = Options {
        memtable_bytes: 512 * 1024,
        ..Options::default()
    };
    opts.store.table_file_size = 1024 * 1024;
    opts.store.base_level_bytes = 4 * 1024 * 1024;
    opts.store.env = SlowTables::env(4 << 20);
    opts.admission = AdmissionOptions { enabled: pacing };
    let db = Arc::new(Db::open(&dir, opts).unwrap());

    let deadline = Instant::now() + Duration::from_millis(2500);
    let writers: Vec<_> = (0..4u64)
        .map(|t| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let value = vec![0xabu8; 2048];
                // xorshift64: a cheap deterministic key sequence.
                let mut x = 0x57ab ^ t.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                while Instant::now() < deadline {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    db.put(format!("stab.{:08}", x % 4096).as_bytes(), &value)
                        .unwrap();
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }

    let run = CliffRun {
        hard_stalls: counter(&db, "db.write_stalls"),
        delayed_writes: counter(&db, "admission.delayed_writes"),
        write_stall_events: db
            .stall_events()
            .iter()
            .filter(|e| e.kind == StallKind::WriteStall)
            .count(),
    };
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    run
}

/// Pacing's reason to exist: with it off the fixture drives writers
/// into the §5.3 cliff and reports the episodes; with it on
/// the same pressure is absorbed as pacing delays and fewer writers
/// ever hit the hard stall.
#[test]
fn flow_control_turns_cliff_stalls_into_delays() {
    let off = run_cliff_fixture("cliff-off", false);
    let on = run_cliff_fixture("cliff-on", true);
    eprintln!("[cliff] pacing off: {off:?}\n[cliff] pacing on:  {on:?}");

    assert!(off.hard_stalls > 0, "the fixture never hit the stall cliff");
    assert!(
        off.write_stall_events > 0,
        "no write-stall event for the cliff ({} hard stalls)",
        off.hard_stalls
    );
    assert_eq!(off.delayed_writes, 0, "disabled pacing charged delays");

    assert!(on.delayed_writes > 0, "pacing never engaged");
    assert!(
        on.hard_stalls < off.hard_stalls,
        "pacing did not reduce hard stalls: on={} off={}",
        on.hard_stalls,
        off.hard_stalls
    );
}

/// Behind a slow flush the controller paces writes at the
/// flush's measured drain rate, records the sleeps in the
/// `admission.*` counters and the `write_path.admission_ns` stage, and
/// reports the episode as a sustained slowdown (not a stall).
#[test]
fn paced_delays_are_counted_and_flagged_as_sustained_slowdown() {
    let dir = scratch("paced");
    let mut opts = Options::small_for_tests();
    // A 64 KiB memtable flushed at 1 MiB/s: every flush is behind for
    // tens of milliseconds.
    opts.store.env = SlowTables::env(1 << 20);
    let db = Db::open(&dir, opts).unwrap();

    // Pacing needs a measured flush rate. With other tests busy on the
    // host the flush worker can be starved of CPU for the first few
    // hundred puts, so write until two flushes have finished, then
    // 2 048 more.
    let value = vec![0u8; 512];
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut i = 0u32;
    while counter(&db, "db.flushes") < 2 {
        assert!(Instant::now() < deadline, "no flush finished");
        db.put(format!("paced.{i:08}").as_bytes(), &value).unwrap();
        i += 1;
    }
    for i in i..i + 2048 {
        db.put(format!("paced.{i:08}").as_bytes(), &value).unwrap();
    }

    let delayed = counter(&db, "admission.delayed_writes");
    let delay_ns = counter(&db, "admission.delay_ns");
    assert!(delayed > 0, "pacing never engaged");
    assert!(delay_ns > 0);
    let snap = db.metrics();
    let admission_stage = snap
        .histograms
        .get("write_path.admission_ns")
        .expect("admission stage histogram missing");
    assert!(admission_stage.count > 0);

    // Each flush is behind for tens of milliseconds while writes are
    // paced: the first paced write 30 ms into such a period reported it.
    let slowdowns: Vec<_> = db
        .stall_events()
        .into_iter()
        .filter(|e| e.kind == StallKind::SustainedSlowdown)
        .collect();
    assert!(!slowdowns.is_empty(), "no sustained slowdown reported");
    assert!(slowdowns.iter().all(|e| e.magnitude > 0), "{slowdowns:?}");
    assert!(counter(&db, "watchdog.sustained_slowdown_events") >= slowdowns.len() as u64);

    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The doctor report carries the checksum, syscall and admission lines
/// in greppable form.
#[test]
fn doctor_reports_checksum_syscalls_and_admission_ladder() {
    let dir = scratch("doctor");
    let opts = Options {
        memtable_bytes: 64 * 1024,
        ..Options::default()
    };
    let db = Db::open(&dir, opts).unwrap();
    let value = vec![0u8; 512];
    for i in 0..1024u32 {
        db.put(format!("doc.{i:08}").as_bytes(), &value).unwrap();
    }
    db.compact_to_quiescence().unwrap();

    let report = db.doctor();
    let text = report.render();
    assert!(
        text.contains(&format!(
            "checksum: crc32c ({})",
            clsm_util::crc::implementation()
        )),
        "{text}"
    );
    // The store wrote tables and a WAL through `RealEnv`, which counts
    // its syscalls in the metrics registry; the report prints those.
    let gauges = &report.metrics.gauges;
    let (writes, syncs) = (
        gauges["env.real.write_calls"],
        gauges["env.real.sync_calls"],
    );
    assert!(writes > 0 && syncs > 0);
    assert!(gauges.contains_key("env.real.read_calls"));
    assert!(
        text.contains(&format!("syscalls (env.real): write={writes} ")),
        "{text}"
    );
    // Quiesced: no flush in flight and L0 under its limit.
    assert!(text.contains("admission: open (behind none"), "{text}");
    assert!(text.contains("hard stalls="), "{text}");

    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `--watch` dashboard exposes the admission rates as columns.
#[test]
fn watch_dashboard_has_admission_columns() {
    let header = clsm::watch_dashboard_header();
    assert!(header.contains("delayed/s"), "{header}");
    assert!(header.contains("hstalls/s"), "{header}");
}
