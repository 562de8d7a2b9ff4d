//! A fault-injecting `Env` and the replayable part of a `FaultEnv`
//! history, which the stepped-scheduler suites share; each uses some.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use clsm_util::env::{Env, FaultEnv, FaultOp, RandomAccessFile, WritableFile};
use clsm_util::error::{Error, Result};

/// A [`FaultEnv`] whose next `remaining` appends to table files fail,
/// without poisoning anything else: each fails the flush or compaction
/// writing that table.
#[derive(Debug, Clone)]
pub struct FailTableWrites {
    pub fault: FaultEnv,
    /// Table appends still to fail.
    pub remaining: Arc<AtomicU64>,
}

impl FailTableWrites {
    pub fn new(seed: u64, failures: u64) -> Self {
        FailTableWrites {
            fault: FaultEnv::new(seed),
            remaining: Arc::new(AtomicU64::new(failures)),
        }
    }
}

struct FailingTable {
    inner: Box<dyn WritableFile>,
    remaining: Arc<AtomicU64>,
}

impl WritableFile for FailingTable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        let fail = self
            .remaining
            .fetch_update(SeqCst, SeqCst, |n| n.checked_sub(1));
        if fail.is_ok() {
            return Err(Error::from(std::io::Error::other(
                "injected table write failure",
            )));
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

impl Env for FailTableWrites {
    fn open_write(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        let inner = self.fault.open_write(path)?;
        if path.extension().is_some_and(|ext| ext == "sst") {
            return Ok(Box::new(FailingTable {
                inner,
                remaining: Arc::clone(&self.remaining),
            }));
        }
        Ok(inner)
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

/// The file operations a schedule made that its seed must fix: every
/// write (with its length), sync and rename, first of the files only
/// the schedule's own thread touches (WAL, manifest, `CURRENT`) in the
/// order it made them, then of each table file on its own. A job's
/// finisher writes one table while its merge writes the next, so only
/// each table's own operations come in a fixed order. Removals are
/// left out: the epoch collector, which every test thread in this
/// binary shares, decides when a table file goes.
pub fn replayed_ops(env: &FaultEnv) -> (Vec<FaultOp>, BTreeMap<PathBuf, Vec<FaultOp>>) {
    let is_table = |path: &Path| path.extension().is_some_and(|e| e == "sst");
    let mut own = Vec::new();
    let mut tables: BTreeMap<PathBuf, Vec<FaultOp>> = BTreeMap::new();
    for op in env.history() {
        match &op {
            FaultOp::Write(path, _) | FaultOp::Sync(path) if is_table(path) => {
                tables.entry(path.clone()).or_default().push(op)
            }
            FaultOp::Remove(_) => {}
            _ => own.push(op),
        }
    }
    (own, tables)
}
