//! A fault-injecting `Env` the stepped-scheduler suites share.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use clsm_util::env::{Env, FaultEnv, RandomAccessFile, WritableFile};
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
