//! WAL fsyncs per sync put: a writer alone issues exactly one, and
//! concurrent writers share them (group commit).
//!
//! The store runs on a [`FaultEnv`] whose WAL `sync` sleeps about 1 ms,
//! the way a device's would, so writers queue behind one another's
//! fsync. The memtable never fills, so no rotation syncs a WAL.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use clsm::{Db, Options};
use clsm_util::env::{Env, FaultEnv, RandomAccessFile, WritableFile};
use clsm_util::error::Result;

const PUTS_PER_WRITER: u64 = 200;

/// A [`FaultEnv`] whose WAL files sleep in `sync` and count the syncs.
#[derive(Debug, Clone)]
struct SlowWalSync {
    fault: FaultEnv,
    wal_syncs: Arc<AtomicU64>,
}

struct SlowWal {
    inner: Box<dyn WritableFile>,
    wal_syncs: Arc<AtomicU64>,
}

impl WritableFile for SlowWal {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.inner.append(data)
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }

    fn sync(&mut self) -> Result<()> {
        std::thread::sleep(Duration::from_millis(1));
        self.wal_syncs.fetch_add(1, Relaxed);
        self.inner.sync()
    }
}

impl Env for SlowWalSync {
    fn open_write(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        let inner = self.fault.open_write(path)?;
        if path.extension().is_none_or(|e| e != "log") {
            return Ok(inner);
        }
        Ok(Box::new(SlowWal {
            inner,
            wal_syncs: Arc::clone(&self.wal_syncs),
        }))
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

/// WAL syncs per put when `writers` threads each make
/// [`PUTS_PER_WRITER`] sync puts at once.
fn wal_syncs_per_put(writers: u64) -> f64 {
    let env = SlowWalSync {
        fault: FaultEnv::new(0xf5_c0 + writers),
        wal_syncs: Arc::default(),
    };
    let mut opts = Options::small_for_tests();
    opts.sync_writes = true;
    opts.memtable_bytes = 8 << 20;
    opts.store.env = Arc::new(env.clone());
    let db = Db::open(&PathBuf::from(format!("/fsyncs-{writers}")), opts).unwrap();
    let start = Barrier::new(writers as usize);
    std::thread::scope(|s| {
        for w in 0..writers {
            let (db, start) = (&db, &start);
            s.spawn(move || {
                start.wait();
                for i in 0..PUTS_PER_WRITER {
                    db.put(format!("w{w}.{i:06}").as_bytes(), &[7; 100])
                        .unwrap();
                }
            });
        }
    });
    let syncs = env.wal_syncs.load(Relaxed);
    assert_eq!(db.level_file_counts()[0], 0, "a flush rotated the WAL");
    drop(db);
    let per_put = syncs as f64 / (writers * PUTS_PER_WRITER) as f64;
    println!("{writers} writer(s): {syncs} WAL syncs, {per_put:.3} per sync put");
    per_put
}

#[test]
fn a_sync_put_alone_issues_one_wal_fsync_and_concurrent_ones_share() {
    assert_eq!(wal_syncs_per_put(1), 1.0);
    let shared = wal_syncs_per_put(4);
    assert!(shared < 1.0, "{shared:.3} WAL syncs per put at 4 writers");
}
