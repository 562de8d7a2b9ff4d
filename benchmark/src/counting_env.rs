//! A benchmark-owned [`Env`] that forwards to [`RealEnv`] and counts,
//! per file class, what the store asks of the device: bytes written, reads
//! and syncs. Plugged in through the public
//! `StoreOptions::env` seam, so the device layer is observed without
//! touching the store.
//!
//! Counting (relaxed atomic adds) is always on, because `write_amp` is
//! defined over these byte totals; clock reads around reads and syncs
//! happen only when `timed` is set, which the traced run does.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use clsm_util::env::{Env, RandomAccessFile, RealEnv, WritableFile};
use clsm_util::error::Result;

/// What the store keeps in a file, told from its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Write-ahead log (`*.log`).
    Wal,
    /// Sorted table (`*.sst`).
    Sst,
    /// Manifest, `CURRENT` and their temporaries.
    Meta,
}

impl FileClass {
    fn of(path: &Path) -> FileClass {
        match path.extension().and_then(|e| e.to_str()) {
            Some("log") => FileClass::Wal,
            Some("sst") => FileClass::Sst,
            _ => FileClass::Meta,
        }
    }
}

/// Device counters of one file class.
#[derive(Debug, Default)]
pub struct ClassCounters {
    /// Bytes appended.
    pub write_bytes: AtomicU64,
    /// `sync` calls (fsync/fdatasync).
    pub sync_count: AtomicU64,
    /// Nanoseconds inside `sync` (timed runs only).
    pub sync_ns: AtomicU64,
    /// Positioned reads.
    pub read_count: AtomicU64,
    /// Bytes returned by positioned reads.
    pub read_bytes: AtomicU64,
    /// Nanoseconds inside positioned reads (timed runs only).
    pub read_ns: AtomicU64,
}

/// A point-in-time copy of one class's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassSnapshot {
    /// Bytes appended.
    pub write_bytes: u64,
    /// `sync` calls.
    pub sync_count: u64,
    /// Nanoseconds inside `sync`.
    pub sync_ns: u64,
    /// Positioned reads.
    pub read_count: u64,
    /// Bytes returned by positioned reads.
    pub read_bytes: u64,
    /// Nanoseconds inside positioned reads.
    pub read_ns: u64,
}

impl ClassSnapshot {
    /// Counter growth since `earlier`.
    pub fn since(&self, earlier: &ClassSnapshot) -> ClassSnapshot {
        ClassSnapshot {
            write_bytes: self.write_bytes - earlier.write_bytes,
            sync_count: self.sync_count - earlier.sync_count,
            sync_ns: self.sync_ns - earlier.sync_ns,
            read_count: self.read_count - earlier.read_count,
            read_bytes: self.read_bytes - earlier.read_bytes,
            read_ns: self.read_ns - earlier.read_ns,
        }
    }
}

/// A point-in-time copy of every class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnvSnapshot {
    /// WAL files.
    pub wal: ClassSnapshot,
    /// Table files.
    pub sst: ClassSnapshot,
    /// Manifest and pointer files.
    pub meta: ClassSnapshot,
    /// Directory fsyncs.
    pub dir_syncs: u64,
}

impl EnvSnapshot {
    /// Counter growth since `earlier`.
    pub fn since(&self, earlier: &EnvSnapshot) -> EnvSnapshot {
        EnvSnapshot {
            wal: self.wal.since(&earlier.wal),
            sst: self.sst.since(&earlier.sst),
            meta: self.meta.since(&earlier.meta),
            dir_syncs: self.dir_syncs - earlier.dir_syncs,
        }
    }

    /// Bytes written to all file classes.
    pub fn write_bytes(&self) -> u64 {
        self.wal.write_bytes + self.sst.write_bytes + self.meta.write_bytes
    }

    /// File and directory syncs of all classes.
    pub fn syncs(&self) -> u64 {
        self.wal.sync_count + self.sst.sync_count + self.meta.sync_count + self.dir_syncs
    }
}

#[derive(Debug, Default)]
struct Shared {
    wal: ClassCounters,
    sst: ClassCounters,
    meta: ClassCounters,
    dir_syncs: AtomicU64,
    timed: AtomicBool,
}

impl Shared {
    fn class(&self, class: FileClass) -> &ClassCounters {
        match class {
            FileClass::Wal => &self.wal,
            FileClass::Sst => &self.sst,
            FileClass::Meta => &self.meta,
        }
    }
}

/// The counting environment; clone the `Arc` into `StoreOptions::env`.
#[derive(Debug, Default)]
pub struct CountingEnv {
    inner: RealEnv,
    shared: Arc<Shared>,
}

impl CountingEnv {
    /// A fresh environment with all counters at zero.
    pub fn new(timed: bool) -> Arc<CountingEnv> {
        let env = CountingEnv::default();
        env.shared.timed.store(timed, Relaxed);
        Arc::new(env)
    }

    /// Copies every counter.
    pub fn snapshot(&self) -> EnvSnapshot {
        let class = |c: &ClassCounters| ClassSnapshot {
            write_bytes: c.write_bytes.load(Relaxed),
            sync_count: c.sync_count.load(Relaxed),
            sync_ns: c.sync_ns.load(Relaxed),
            read_count: c.read_count.load(Relaxed),
            read_bytes: c.read_bytes.load(Relaxed),
            read_ns: c.read_ns.load(Relaxed),
        };
        EnvSnapshot {
            wal: class(&self.shared.wal),
            sst: class(&self.shared.sst),
            meta: class(&self.shared.meta),
            dir_syncs: self.shared.dir_syncs.load(Relaxed),
        }
    }
}

struct CountingWritable {
    inner: Box<dyn WritableFile>,
    shared: Arc<Shared>,
    class: FileClass,
}

impl WritableFile for CountingWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.inner.append(data)?;
        let c = self.shared.class(self.class);
        c.write_bytes.fetch_add(data.len() as u64, Relaxed);
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }

    fn sync(&mut self) -> Result<()> {
        let began = self.shared.timed.load(Relaxed).then(Instant::now);
        self.inner.sync()?;
        let c = self.shared.class(self.class);
        c.sync_count.fetch_add(1, Relaxed);
        if let Some(began) = began {
            c.sync_ns
                .fetch_add(began.elapsed().as_nanos() as u64, Relaxed);
        }
        Ok(())
    }
}

struct CountingReadable {
    inner: Box<dyn RandomAccessFile>,
    shared: Arc<Shared>,
    class: FileClass,
}

impl RandomAccessFile for CountingReadable {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let began = self.shared.timed.load(Relaxed).then(Instant::now);
        let n = self.inner.read_at(offset, buf)?;
        let c = self.shared.class(self.class);
        c.read_count.fetch_add(1, Relaxed);
        c.read_bytes.fetch_add(n as u64, Relaxed);
        if let Some(began) = began {
            c.read_ns
                .fetch_add(began.elapsed().as_nanos() as u64, Relaxed);
        }
        Ok(n)
    }

    fn len(&self) -> Result<u64> {
        self.inner.len()
    }
}

impl Env for CountingEnv {
    fn open_write(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        Ok(Box::new(CountingWritable {
            inner: self.inner.open_write(path)?,
            shared: Arc::clone(&self.shared),
            class: FileClass::of(path),
        }))
    }

    fn open_read(&self, path: &Path) -> Result<Box<dyn RandomAccessFile>> {
        Ok(Box::new(CountingReadable {
            inner: self.inner.open_read(path)?,
            shared: Arc::clone(&self.shared),
            class: FileClass::of(path),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> Result<()> {
        self.inner.remove(path)
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn sync_dir(&self, dir: &Path) -> Result<()> {
        self.inner.sync_dir(dir)?;
        self.shared.dir_syncs.fetch_add(1, Relaxed);
        Ok(())
    }

    fn create_dir_all(&self, dir: &Path) -> Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}
