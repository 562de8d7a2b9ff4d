//! Injectable storage environment: every byte the store reads or
//! writes goes through an [`Env`], so tests can interpose deterministic
//! fault injection between the LSM and the file system.
//!
//! Two implementations ship with the crate:
//!
//! - [`RealEnv`] — thin forwarding to `std::fs`, the zero-cost default.
//!   Write handles buffer `WRITE_BUFFER_BYTES` (256 KiB) before each
//!   `write`, so a 2 MiB table leaves in about eight syscalls and a WAL
//!   batch in one. `RealEnv` counts its `write`, `pread` and fsync calls
//!   process-wide ([`RealEnv::syscall_counts`]).
//! - [`FaultEnv`] — a fully in-memory file system that models the page
//!   cache / durable-storage split: every file tracks how many of its
//!   bytes have been `fsync`ed. A seeded fault plan can crash the
//!   process at the N-th durability-relevant operation (write, sync, or
//!   rename), and [`FaultEnv::power_loss`] discards un-synced suffixes
//!   (optionally keeping a torn, bit-flipped tail, as real disks do).
//!
//! The durability model of `FaultEnv`:
//!
//! - `append` puts bytes in the "page cache": readers see them
//!   immediately, power loss may drop them.
//! - `sync` moves a file's entire current contents to durable storage.
//! - `rename` is atomic and durable once it returns (the store writes
//!   rename targets with [`Env::write`], which syncs, before renaming).
//! - A crash injected at operation N fails that operation *without
//!   applying it* and poisons the env: every later mutation fails too,
//!   modeling a dead process. [`FaultEnv::power_loss`] clears the
//!   poison so the store can be reopened on the surviving bytes.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use crate::error::{Error, Result};

/// A sequentially written file handle (WAL, SSTable, manifest).
pub trait WritableFile: Send {
    /// Appends `data` at the end of the file.
    fn append(&mut self, data: &[u8]) -> Result<()>;
    /// Pushes buffered bytes to the OS (page cache), without durability.
    fn flush(&mut self) -> Result<()>;
    /// Makes all appended bytes durable (`fsync`/`fdatasync`).
    fn sync(&mut self) -> Result<()>;
}

/// A randomly readable file handle (SSTable reads, log replay).
#[allow(clippy::len_without_is_empty)]
pub trait RandomAccessFile: Send + Sync {
    /// Reads up to `buf.len()` bytes at `offset`; returns the count
    /// actually read (short only at end of file).
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize>;

    /// Current length of the file in bytes.
    fn len(&self) -> Result<u64>;

    /// Fills `buf` from `offset` exactly, erroring on a short read.
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let mut done = 0;
        while done < buf.len() {
            let n = self.read_at(offset + done as u64, &mut buf[done..])?;
            if n == 0 {
                return Err(Error::from(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "short read",
                )));
            }
            done += n;
        }
        Ok(())
    }
}

/// The storage environment: the store's only gateway to persistent
/// state. `Arc<dyn Env>` is threaded from [`Env`]-carrying options down
/// to every WAL, SSTable, and manifest touch point.
pub trait Env: Send + Sync + fmt::Debug {
    /// Creates (or truncates) `path` for sequential writing.
    fn open_write(&self, path: &Path) -> Result<Box<dyn WritableFile>>;
    /// Opens `path` for random-access reads.
    fn open_read(&self, path: &Path) -> Result<Box<dyn RandomAccessFile>>;
    /// Atomically renames `from` to `to`, replacing any existing `to`.
    fn rename(&self, from: &Path, to: &Path) -> Result<()>;
    /// Removes the file at `path`.
    fn remove(&self, path: &Path) -> Result<()>;
    /// Lists the entry names (files and directories) directly in `dir`.
    fn list(&self, dir: &Path) -> Result<Vec<String>>;
    /// Makes directory metadata (created/renamed entries) durable.
    fn sync_dir(&self, dir: &Path) -> Result<()>;
    /// Creates `dir` and any missing ancestors.
    fn create_dir_all(&self, dir: &Path) -> Result<()>;
    /// Whether a file or directory exists at `path`.
    fn exists(&self, path: &Path) -> bool;

    /// Reads the entire file at `path`.
    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        let file = self.open_read(path)?;
        let len = file.len()? as usize;
        let mut buf = vec![0u8; len];
        file.read_exact_at(0, &mut buf)?;
        Ok(buf)
    }

    /// Writes `data` as the full contents of `path`, durably (synced
    /// before returning) — intended for small metadata files that are
    /// installed via [`Env::rename`].
    fn write(&self, path: &Path, data: &[u8]) -> Result<()> {
        let mut file = self.open_write(path)?;
        file.append(data)?;
        file.sync()
    }
}

// ---------------------------------------------------------------------
// RealEnv
// ---------------------------------------------------------------------

/// Bytes a [`RealEnv`] write handle gathers before issuing one `write`:
/// the write-side twin of the table reader's 256 KiB sequential reads.
pub(crate) const WRITE_BUFFER_BYTES: usize = 256 * 1024;

/// The production environment: direct `std::fs` access.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealEnv;

/// Process-wide counts of the syscalls [`RealEnv`] file handles issued,
/// from [`RealEnv::syscall_counts`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SyscallCounts {
    /// `write` calls by write handles.
    pub write: u64,
    /// `pread` calls by read handles.
    pub read: u64,
    /// `fdatasync` and directory `fsync` calls.
    pub sync: u64,
}

// Statistics only: one relaxed add per syscall, publishing nothing else.
static WRITE_CALLS: AtomicU64 = AtomicU64::new(0);
static READ_CALLS: AtomicU64 = AtomicU64::new(0);
static SYNC_CALLS: AtomicU64 = AtomicU64::new(0);

impl RealEnv {
    /// The syscalls every `RealEnv` handle in this process has issued
    /// so far. Difference two readings to count a window.
    pub fn syscall_counts() -> SyscallCounts {
        SyscallCounts {
            write: WRITE_CALLS.load(Relaxed),
            read: READ_CALLS.load(Relaxed),
            sync: SYNC_CALLS.load(Relaxed),
        }
    }
}

/// A `File` whose `write` calls are counted, one per syscall.
struct CountedFile(File);

impl Write for CountedFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        WRITE_CALLS.fetch_add(1, Relaxed);
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        // `File` has no user-space buffer: nothing to push.
        Ok(())
    }
}

struct RealWritableFile {
    inner: BufWriter<CountedFile>,
}

impl WritableFile for RealWritableFile {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.inner.write_all(data)?;
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()?;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.inner.flush()?;
        SYNC_CALLS.fetch_add(1, Relaxed);
        self.inner.get_ref().0.sync_data()?;
        Ok(())
    }
}

/// Raw `File` handles satisfy [`WritableFile`] unbuffered — convenient
/// for tests that hand a `File` straight to a log or table writer.
impl WritableFile for File {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.write_all(data)?;
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        Write::flush(self)?;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.sync_data()?;
        Ok(())
    }
}

/// [`RealEnv`]'s read handle: each `read_at` is one counted `pread`
/// (the trait's `read_exact_at` loops over it).
impl RandomAccessFile for File {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        use std::os::unix::fs::FileExt;
        READ_CALLS.fetch_add(1, Relaxed);
        Ok(FileExt::read_at(self, buf, offset)?)
    }

    fn len(&self) -> Result<u64> {
        Ok(self.metadata()?.len())
    }
}

impl Env for RealEnv {
    fn open_write(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        let file = File::create(path)?;
        Ok(Box::new(RealWritableFile {
            inner: BufWriter::with_capacity(WRITE_BUFFER_BYTES, CountedFile(file)),
        }))
    }

    fn open_read(&self, path: &Path) -> Result<Box<dyn RandomAccessFile>> {
        Ok(Box::new(File::open(path)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        std::fs::rename(from, to)?;
        Ok(())
    }

    fn remove(&self, path: &Path) -> Result<()> {
        std::fs::remove_file(path)?;
        Ok(())
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            names.push(entry?.file_name().to_string_lossy().into_owned());
        }
        Ok(names)
    }

    fn sync_dir(&self, dir: &Path) -> Result<()> {
        // Directories can be opened read-only for fsync on unix.
        let dir = File::open(dir)?;
        SYNC_CALLS.fetch_add(1, Relaxed);
        dir.sync_all()?;
        Ok(())
    }

    fn create_dir_all(&self, dir: &Path) -> Result<()> {
        std::fs::create_dir_all(dir)?;
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        Ok(std::fs::read(path)?)
    }
}

// ---------------------------------------------------------------------
// FaultEnv
// ---------------------------------------------------------------------

/// One durability-relevant operation recorded by [`FaultEnv`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultOp {
    /// `append` of `len` bytes to the file at the path.
    Write(PathBuf, usize),
    /// `sync` of the file at the path.
    Sync(PathBuf),
    /// Atomic rename.
    Rename(PathBuf, PathBuf),
    /// File removal (recorded for audit, not a crash point).
    Remove(PathBuf),
}

struct FileData {
    data: Vec<u8>,
    synced_len: usize,
}

struct FaultState {
    files: BTreeMap<PathBuf, FileData>,
    dirs: BTreeSet<PathBuf>,
    rng: u64,
    ops: u64,
    crash_at: Option<u64>,
    poisoned: bool,
    history: Vec<FaultOp>,
}

impl FaultState {
    /// Records a durability-relevant op, failing it if the fault plan
    /// says the process dies here (or already died).
    fn check_op(&mut self, op: FaultOp) -> Result<()> {
        if self.poisoned {
            return Err(poisoned_error());
        }
        self.ops += 1;
        let fatal = self.crash_at == Some(self.ops);
        self.history.push(op);
        if fatal {
            self.poisoned = true;
            return Err(Error::from(io::Error::other(format!(
                "injected crash at op {}",
                self.ops
            ))));
        }
        Ok(())
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }
}

fn poisoned_error() -> Error {
    Error::from(io::Error::other("fault env poisoned by injected crash"))
}

fn not_found(path: &Path) -> Error {
    Error::from(io::Error::new(
        io::ErrorKind::NotFound,
        format!("no such file: {}", path.display()),
    ))
}

/// A deterministic, seedable in-memory environment for crash testing.
///
/// Clones share state, so a test can keep a handle while the store owns
/// another via `Arc<dyn Env>`.
#[derive(Clone)]
pub struct FaultEnv {
    state: Arc<Mutex<FaultState>>,
}

impl FaultEnv {
    /// Creates an empty in-memory file system with the given RNG seed
    /// (used by [`FaultEnv::power_loss`] to pick torn-tail shapes).
    pub fn new(seed: u64) -> Self {
        FaultEnv {
            state: Arc::new(Mutex::new(FaultState {
                files: BTreeMap::new(),
                dirs: BTreeSet::new(),
                rng: seed | 1,
                ops: 0,
                crash_at: None,
                poisoned: false,
                history: Vec::new(),
            })),
        }
    }

    /// Arms the fault plan: the `n`-th durability-relevant operation
    /// (write/sync/rename) from now fails and poisons the env.
    /// `n` must be at least 1.
    pub fn crash_after(&self, n: u64) {
        assert!(n >= 1, "crash_after takes a 1-based op count");
        let mut s = self.state.lock().unwrap();
        s.crash_at = Some(s.ops + n);
    }

    /// Simulates power loss: un-synced bytes are dropped, except for a
    /// seeded torn tail (a random prefix of the un-synced suffix, with
    /// an occasional bit flip). Clears the crash plan and the poison so
    /// the store can be reopened on the surviving state.
    pub fn power_loss(&self) {
        let mut s = self.state.lock().unwrap();
        s.crash_at = None;
        s.poisoned = false;
        let paths: Vec<PathBuf> = s.files.keys().cloned().collect();
        for path in paths {
            let (len, synced) = {
                let f = &s.files[&path];
                (f.data.len(), f.synced_len)
            };
            let mut new_len = len;
            let mut flip_at = None;
            if len > synced {
                let unsynced = len - synced;
                // Keep a random prefix of the un-synced suffix; 1 in 4
                // survivors additionally get one flipped bit (a torn
                // sector that made it to the platter half-written).
                let keep = (s.next_rand() % (unsynced as u64 + 1)) as usize;
                new_len = synced + keep;
                if keep > 0 && s.next_rand().is_multiple_of(4) {
                    flip_at = Some(synced + (s.next_rand() % keep as u64) as usize);
                }
            }
            let f = s.files.get_mut(&path).expect("file vanished");
            f.data.truncate(new_len);
            if let Some(at) = flip_at {
                f.data[at] ^= 1 << (at % 8);
            }
            f.synced_len = f.data.len();
        }
    }

    /// Whether an injected crash has fired.
    pub fn is_poisoned(&self) -> bool {
        self.state.lock().unwrap().poisoned
    }

    /// Total durability-relevant operations performed so far.
    pub fn op_count(&self) -> u64 {
        self.state.lock().unwrap().ops
    }

    /// The recorded operation history (writes, syncs, renames, removes).
    pub fn history(&self) -> Vec<FaultOp> {
        self.state.lock().unwrap().history.clone()
    }

    /// `(length, synced_length)` of the file at `path`, if it exists.
    pub fn file_state(&self, path: &Path) -> Option<(u64, u64)> {
        let s = self.state.lock().unwrap();
        s.files
            .get(path)
            .map(|f| (f.data.len() as u64, f.synced_len as u64))
    }
}

impl fmt::Debug for FaultEnv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.state.lock().unwrap();
        f.debug_struct("FaultEnv")
            .field("files", &s.files.len())
            .field("ops", &s.ops)
            .field("crash_at", &s.crash_at)
            .field("poisoned", &s.poisoned)
            .finish()
    }
}

struct FaultWritableFile {
    state: Arc<Mutex<FaultState>>,
    path: PathBuf,
}

impl WritableFile for FaultWritableFile {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        let mut s = self.state.lock().unwrap();
        s.check_op(FaultOp::Write(self.path.clone(), data.len()))?;
        match s.files.get_mut(&self.path) {
            Some(f) => {
                f.data.extend_from_slice(data);
                Ok(())
            }
            None => Err(not_found(&self.path)),
        }
    }

    fn flush(&mut self) -> Result<()> {
        // Appends land in the simulated page cache immediately.
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        let mut s = self.state.lock().unwrap();
        s.check_op(FaultOp::Sync(self.path.clone()))?;
        match s.files.get_mut(&self.path) {
            Some(f) => {
                f.synced_len = f.data.len();
                Ok(())
            }
            None => Err(not_found(&self.path)),
        }
    }
}

struct FaultRandomAccessFile {
    state: Arc<Mutex<FaultState>>,
    path: PathBuf,
}

impl RandomAccessFile for FaultRandomAccessFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let s = self.state.lock().unwrap();
        let f = s
            .files
            .get(&self.path)
            .ok_or_else(|| not_found(&self.path))?;
        let start = (offset as usize).min(f.data.len());
        let n = buf.len().min(f.data.len() - start);
        buf[..n].copy_from_slice(&f.data[start..start + n]);
        Ok(n)
    }

    fn len(&self) -> Result<u64> {
        let s = self.state.lock().unwrap();
        let f = s
            .files
            .get(&self.path)
            .ok_or_else(|| not_found(&self.path))?;
        Ok(f.data.len() as u64)
    }
}

impl Env for FaultEnv {
    fn open_write(&self, path: &Path) -> Result<Box<dyn WritableFile>> {
        let mut s = self.state.lock().unwrap();
        if s.poisoned {
            return Err(poisoned_error());
        }
        s.files.insert(
            path.to_path_buf(),
            FileData {
                data: Vec::new(),
                synced_len: 0,
            },
        );
        Ok(Box::new(FaultWritableFile {
            state: Arc::clone(&self.state),
            path: path.to_path_buf(),
        }))
    }

    fn open_read(&self, path: &Path) -> Result<Box<dyn RandomAccessFile>> {
        let s = self.state.lock().unwrap();
        if !s.files.contains_key(path) {
            return Err(not_found(path));
        }
        Ok(Box::new(FaultRandomAccessFile {
            state: Arc::clone(&self.state),
            path: path.to_path_buf(),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        let mut s = self.state.lock().unwrap();
        s.check_op(FaultOp::Rename(from.to_path_buf(), to.to_path_buf()))?;
        match s.files.remove(from) {
            Some(f) => {
                s.files.insert(to.to_path_buf(), f);
                Ok(())
            }
            None => Err(not_found(from)),
        }
    }

    fn remove(&self, path: &Path) -> Result<()> {
        let mut s = self.state.lock().unwrap();
        if s.poisoned {
            return Err(poisoned_error());
        }
        s.history.push(FaultOp::Remove(path.to_path_buf()));
        match s.files.remove(path) {
            Some(_) => Ok(()),
            None => Err(not_found(path)),
        }
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>> {
        let s = self.state.lock().unwrap();
        if !s.dirs.contains(dir) {
            return Err(not_found(dir));
        }
        let mut names = BTreeSet::new();
        for path in s.files.keys().chain(s.dirs.iter()) {
            if path.parent() == Some(dir) {
                if let Some(name) = path.file_name() {
                    names.insert(name.to_string_lossy().into_owned());
                }
            }
        }
        Ok(names.into_iter().collect())
    }

    fn sync_dir(&self, _dir: &Path) -> Result<()> {
        let s = self.state.lock().unwrap();
        if s.poisoned {
            return Err(poisoned_error());
        }
        // Directory entries (creation, rename) are modeled as durable
        // immediately, so this is a no-op beyond the poison check.
        Ok(())
    }

    fn create_dir_all(&self, dir: &Path) -> Result<()> {
        let mut s = self.state.lock().unwrap();
        if s.poisoned {
            return Err(poisoned_error());
        }
        let mut cur = dir.to_path_buf();
        loop {
            s.dirs.insert(cur.clone());
            match cur.parent() {
                Some(p) if !p.as_os_str().is_empty() => cur = p.to_path_buf(),
                _ => break,
            }
        }
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        let s = self.state.lock().unwrap();
        s.files.contains_key(path) || s.dirs.contains(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_env_basic_fs() {
        let env = FaultEnv::new(7);
        let dir = Path::new("/db");
        env.create_dir_all(dir).unwrap();
        assert!(env.exists(dir));

        let path = dir.join("000001.log");
        let mut w = env.open_write(&path).unwrap();
        w.append(b"hello ").unwrap();
        w.append(b"world").unwrap();
        w.sync().unwrap();
        assert_eq!(env.read(&path).unwrap(), b"hello world");
        assert_eq!(env.list(dir).unwrap(), vec!["000001.log".to_string()]);

        env.rename(&path, &dir.join("000002.log")).unwrap();
        assert!(!env.exists(&path));
        assert_eq!(env.read(&dir.join("000002.log")).unwrap(), b"hello world");

        env.remove(&dir.join("000002.log")).unwrap();
        let err = env.read(&dir.join("000002.log")).unwrap_err();
        assert!(
            matches!(&err, Error::Io(e) if e.kind() == std::io::ErrorKind::NotFound),
            "{err}"
        );
    }

    #[test]
    fn crash_after_fails_nth_op_and_poisons() {
        let env = FaultEnv::new(1);
        env.create_dir_all(Path::new("/d")).unwrap();
        let mut w = env.open_write(Path::new("/d/f")).unwrap();
        env.crash_after(2);
        w.append(b"a").unwrap(); // op 1
        assert!(w.append(b"b").is_err()); // op 2: crash
        assert!(env.is_poisoned());
        assert!(w.sync().is_err());
        assert!(env.rename(Path::new("/d/f"), Path::new("/d/g")).is_err());
        // Reads still work while "crashed" (the process is gone; the
        // disk is not).
        assert_eq!(env.read(Path::new("/d/f")).unwrap(), b"a");
    }

    #[test]
    fn power_loss_drops_unsynced_suffix() {
        let env = FaultEnv::new(42);
        env.create_dir_all(Path::new("/d")).unwrap();
        let mut w = env.open_write(Path::new("/d/f")).unwrap();
        w.append(b"durable").unwrap();
        w.sync().unwrap();
        w.append(b"-volatile").unwrap();
        env.power_loss();
        let data = env.read(Path::new("/d/f")).unwrap();
        // The synced prefix always survives byte-for-byte.
        assert!(data.len() >= 7);
        assert_eq!(&data[..7], b"durable");
        // Whatever survived is now fully durable.
        let (len, synced) = env.file_state(Path::new("/d/f")).unwrap();
        assert_eq!(len, synced);
        assert!(!env.is_poisoned());
    }

    #[test]
    fn power_loss_is_deterministic_for_a_seed() {
        let survivors: Vec<Vec<u8>> = (0..2)
            .map(|_| {
                let env = FaultEnv::new(99);
                env.create_dir_all(Path::new("/d")).unwrap();
                let mut w = env.open_write(Path::new("/d/f")).unwrap();
                w.append(&[0xAAu8; 64]).unwrap();
                w.sync().unwrap();
                w.append(&[0xBBu8; 64]).unwrap();
                env.power_loss();
                env.read(Path::new("/d/f")).unwrap()
            })
            .collect();
        assert_eq!(survivors[0], survivors[1]);
    }

    #[test]
    fn history_records_durability_ops() {
        let env = FaultEnv::new(3);
        env.create_dir_all(Path::new("/d")).unwrap();
        let mut w = env.open_write(Path::new("/d/f")).unwrap();
        w.append(b"x").unwrap();
        w.sync().unwrap();
        env.rename(Path::new("/d/f"), Path::new("/d/g")).unwrap();
        env.remove(Path::new("/d/g")).unwrap();
        let h = env.history();
        assert_eq!(h.len(), 4);
        assert!(matches!(h[0], FaultOp::Write(_, 1)));
        assert!(matches!(h[1], FaultOp::Sync(_)));
        assert!(matches!(h[2], FaultOp::Rename(_, _)));
        assert!(matches!(h[3], FaultOp::Remove(_)));
        assert_eq!(env.op_count(), 3); // removes are not crash points
    }
}
