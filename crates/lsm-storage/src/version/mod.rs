//! Versions: immutable snapshots of the leveled file layout.
//!
//! A [`Version`] is the disk component `Cd` at one instant. Readers
//! grab the current version through an RCU pointer (lock-free, matching
//! cLSM's non-blocking `get`), while flushes and compactions install
//! new versions through [`VersionSet::log_and_apply`] under the
//! version-set mutex. Each [`FileMeta`] owns its table's open reader,
//! so reaching an open table takes no lock, and its file: once a
//! committed edit removes a table, the last reference to its
//! `FileMeta` lists the file as obsolete (the paper's component
//! reference counts, §3.1).

mod edit;
mod level_iter;

pub use edit::{NewFile, VersionEdit};
pub(crate) use level_iter::LevelIter;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use clsm_util::env::Env;
use clsm_util::error::{Error, Result};

use crate::cache::BlockCache;
use crate::filenames::{self, FileKind};
use crate::format::ValueKind;
use crate::iter::BoxedIterator;
use crate::sstable::Table;
use crate::wal::{LogReader, LogWriter};
use crate::NUM_LEVELS;

/// Immutable metadata of one table file.
#[derive(Debug)]
pub struct FileMeta {
    /// Table file number.
    pub number: u64,
    /// File size in bytes.
    pub file_size: u64,
    /// Smallest internal key in the file.
    pub smallest: Vec<u8>,
    /// Largest internal key in the file.
    pub largest: Vec<u8>,
    /// Set while a compaction claims this file as input.
    pub being_compacted: AtomicBool,
    /// The open reader, filled on first touch and closed when the last
    /// version, claim or iterator naming this file lets go of it.
    table: OnceLock<Arc<Table>>,
    /// Set once a committed edit removes this table from the tree: the
    /// list its file goes on when this `FileMeta` drops.
    obsolete: OnceLock<Arc<ObsoleteFiles>>,
}

/// Files no version names any more, for the store to remove outside
/// every lock, and the bytes of the tables a committed edit removed
/// that an older version, claim or iterator still holds.
#[derive(Debug, Default)]
pub(crate) struct ObsoleteFiles {
    /// The files to remove.
    pub(crate) files: Mutex<Vec<FileKind>>,
    /// Bytes of the tables marked obsolete whose `FileMeta` has not
    /// dropped yet: tables the current version no longer names but an
    /// older one still pins.
    pub(crate) retired_table_bytes: AtomicU64,
}

/// Only lists the file: old versions drop inside the epoch collector,
/// under whatever lock its caller holds, so no I/O happens here.
impl Drop for FileMeta {
    fn drop(&mut self) {
        if let Some(obsolete) = self.obsolete.get() {
            obsolete
                .retired_table_bytes
                .fetch_sub(self.file_size, Ordering::Relaxed);
            obsolete.files.lock().push(FileKind::Table(self.number));
        }
    }
}

impl FileMeta {
    /// The open reader of this table, opening it on first touch. Once
    /// open, this is one acquire load: no lock, no shared write.
    pub(crate) fn table(&self, opener: &TableOpener) -> Result<&Arc<Table>> {
        if let Some(table) = self.table.get() {
            return Ok(table);
        }
        // Racing first opens are harmless: one wins, and the loser's
        // reader is dropped.
        let table = opener.open(self.number)?;
        Ok(self.table.get_or_init(|| Arc::new(table)))
    }

    /// The user-key prefix of the smallest internal key.
    pub fn smallest_user_key(&self) -> &[u8] {
        user_part(&self.smallest)
    }

    /// The user-key prefix of the largest internal key.
    pub(crate) fn largest_user_key(&self) -> &[u8] {
        user_part(&self.largest)
    }
}

fn user_part(internal: &[u8]) -> &[u8] {
    &internal[..internal.len().saturating_sub(crate::format::TAG_SIZE)]
}

/// What every table of one store opens with: the directory and
/// environment it lives in, the bloom budget its filter was built
/// with, and the block cache its gets read through.
#[derive(Debug)]
pub struct TableOpener {
    /// The storage environment.
    pub env: Arc<dyn Env>,
    /// The store directory.
    pub dir: PathBuf,
    /// Bloom-filter budget per key.
    pub bloom_bits_per_key: usize,
    /// The shared block cache, if one is configured.
    pub block_cache: Option<Arc<BlockCache>>,
}

impl TableOpener {
    fn open(&self, number: u64) -> Result<Table> {
        Table::open(
            self.env.as_ref(),
            &filenames::table_path(&self.dir, number),
            number,
            self.bloom_bits_per_key,
            self.block_cache.clone(),
        )
    }
}

/// One immutable snapshot of the file layout across levels.
#[derive(Debug)]
pub struct Version {
    /// Files per level. L0 is sorted by file number descending (newest
    /// first); L1+ are sorted by smallest key with disjoint ranges.
    pub levels: Vec<Vec<Arc<FileMeta>>>,
    /// L0 partitioned into sorted runs, newest run first (see
    /// [`Version::l0_runs`]). Computed once, when the version is built.
    l0_runs: Vec<Vec<Arc<FileMeta>>>,
}

impl Version {
    /// An empty version.
    pub(crate) fn empty() -> Version {
        Version {
            levels: (0..NUM_LEVELS).map(|_| Vec::new()).collect(),
            l0_runs: Vec::new(),
        }
    }

    /// L0 as sorted runs, newest first. Each run is sorted by smallest
    /// key, its files' user-key ranges are pairwise disjoint, and every
    /// file of a run is newer than every file of the next run, so the
    /// first run holding a key holds its newest versions.
    pub fn l0_runs(&self) -> &[Vec<Arc<FileMeta>>] {
        &self.l0_runs
    }

    /// Every sorted run, newest first: the L0 runs, then each deeper
    /// level. A run holds a user key in at most one file.
    fn sorted_runs(&self) -> impl Iterator<Item = &Vec<Arc<FileMeta>>> {
        self.l0_runs.iter().chain(&self.levels[1..])
    }

    /// Point lookup across all levels: the newest version of `user_key`
    /// with timestamp `<= max_ts`. A binary search probes at most one
    /// file per sorted run, and runs are searched newest first, so the
    /// first hit is the answer. Each table probed is reached through
    /// the [`FileMeta`] naming it, without a lock or a shared write.
    pub fn get(
        &self,
        opener: &TableOpener,
        user_key: &[u8],
        max_ts: u64,
    ) -> Result<Option<(u64, ValueKind, Vec<u8>)>> {
        for run in self.sorted_runs() {
            let idx = run.partition_point(|f| f.largest_user_key() < user_key);
            let Some(file) = run.get(idx) else {
                continue;
            };
            if user_key < file.smallest_user_key() {
                continue;
            }
            if let Some(hit) = file.table(opener)?.get(user_key, max_ts)? {
                return Ok(Some(hit));
            }
        }
        Ok(None)
    }

    /// One iterator per sorted run, newest run first, for use in a
    /// [`crate::MergingIterator`].
    pub fn iterators(&self, opener: &Arc<TableOpener>) -> Result<Vec<BoxedIterator>> {
        Ok(self
            .sorted_runs()
            .filter(|run| !run.is_empty())
            .map(|run| Box::new(LevelIter::new(Arc::clone(opener), run.clone())) as BoxedIterator)
            .collect())
    }

    /// Checks the layout every reader relies on: the files of each L0
    /// run are sorted and pairwise disjoint, the runs hold all of L0 and
    /// are contiguous in age, and each deeper level is sorted and
    /// disjoint.
    pub fn check_invariants(&self) -> Result<()> {
        let disjoint_sorted = |files: &[Arc<FileMeta>]| {
            files
                .windows(2)
                .all(|w| w[0].largest_user_key() < w[1].smallest_user_key())
        };
        for (i, run) in self.l0_runs.iter().enumerate() {
            if !disjoint_sorted(run) {
                return Err(Error::corruption(format!("L0 run {i} overlaps itself")));
            }
        }
        // (oldest, newest) file number of each run.
        let ages: Vec<(u64, u64)> = self
            .l0_runs
            .iter()
            .map(|run| {
                run.iter().fold((u64::MAX, 0), |(lo, hi), f| {
                    (lo.min(f.number), hi.max(f.number))
                })
            })
            .collect();
        if ages.windows(2).any(|w| w[0].0 <= w[1].1) {
            return Err(Error::corruption("L0 runs are not contiguous in age"));
        }
        if self.l0_runs.iter().map(Vec::len).sum::<usize>() != self.levels[0].len() {
            return Err(Error::corruption("L0 runs do not hold exactly L0"));
        }
        for (level, files) in self.levels.iter().enumerate().skip(1) {
            if !disjoint_sorted(files) {
                return Err(Error::corruption(format!("L{level} overlaps itself")));
            }
        }
        Ok(())
    }

    /// Files in `level` whose user-key range intersects
    /// `[smallest, largest]`.
    pub(crate) fn overlapping_files(
        &self,
        level: usize,
        smallest: &[u8],
        largest: &[u8],
    ) -> Vec<Arc<FileMeta>> {
        self.levels[level]
            .iter()
            .filter(|f| f.largest_user_key() >= smallest && f.smallest_user_key() <= largest)
            .cloned()
            .collect()
    }

    /// Whether some L0 table's key range overlaps a table in a deeper
    /// level, so that it may hold versions superseding ones merged below.
    pub fn l0_shadows_deeper_levels(&self) -> bool {
        self.levels[0].iter().any(|f| {
            (1..self.levels.len()).any(|level| {
                !self
                    .overlapping_files(level, f.smallest_user_key(), f.largest_user_key())
                    .is_empty()
            })
        })
    }

    /// Total bytes in `level`.
    pub fn level_bytes(&self, level: usize) -> u64 {
        self.levels[level].iter().map(|f| f.file_size).sum()
    }

    /// Number of files in `level`.
    pub fn num_files(&self, level: usize) -> usize {
        self.levels[level].len()
    }
}

/// Mutable owner of the version history and the manifest.
pub struct VersionSet {
    current: Arc<Version>,
    manifest: LogWriter,
    next_file_number: u64,
    /// WAL number at/above which logs still hold unflushed data.
    log_number: u64,
    /// Highest timestamp known flushed.
    last_ts: u64,
    /// Where the tables committed edits removed are listed.
    obsolete: Arc<ObsoleteFiles>,
    /// The first failed manifest append or sync, readable without the
    /// version-set lock.
    manifest_error: Arc<OnceLock<Error>>,
}

impl std::fmt::Debug for VersionSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionSet")
            .field("next_file_number", &self.next_file_number)
            .field("log_number", &self.log_number)
            .finish()
    }
}

/// State recovered from the manifest on open.
#[derive(Debug)]
pub struct RecoveredManifest {
    /// WAL numbers `>=` this still hold unflushed data.
    pub log_number: u64,
    /// Highest timestamp known flushed to tables.
    pub last_ts: u64,
    /// Byte offset where the previous manifest was found torn, if it
    /// was. The torn suffix belongs to an edit that was never acked
    /// (manifest appends are synced before success is reported), so
    /// recovery keeps the edits before it; a fresh snapshot manifest
    /// replaces the damaged file immediately.
    pub manifest_torn_at: Option<u64>,
}

impl VersionSet {
    /// Opens (or creates) the version state in `dir`.
    ///
    /// Rewrites the manifest as a fresh snapshot on every open, which
    /// bounds manifest growth and keeps recovery O(current state).
    pub fn open(env: Arc<dyn Env>, dir: &Path) -> Result<(VersionSet, RecoveredManifest)> {
        env.create_dir_all(dir)?;
        let current_file = filenames::current_path(dir);
        let mut version = Version::empty();
        let mut next_file_number = 1u64;
        let mut log_number = 0u64;
        let mut last_ts = 0u64;
        let mut manifest_torn_at = None;

        if env.exists(&current_file) {
            let name = String::from_utf8(env.read(&current_file)?).map_err(|_| {
                Error::manifest_corrupt(&current_file, "CURRENT is not valid UTF-8")
            })?;
            let manifest_path = dir.join(name.trim());
            let mut reader = LogReader::with_path(env.open_read(&manifest_path)?, &manifest_path);
            let mut builder = Builder::new(Version::empty());
            loop {
                let record = match reader.read_record() {
                    Ok(Some(record)) => record,
                    Ok(None) => break,
                    // A torn manifest tail is an edit that was never
                    // acked (appends sync before returning): stop at
                    // the last intact edit.
                    Err(Error::WalTruncated { offset, .. }) => {
                        manifest_torn_at = Some(offset);
                        break;
                    }
                    Err(e) => return Err(e),
                };
                // An edit that fails to decode is manifest damage, not
                // generic corruption: retag it with the file it came
                // from so tooling can tell version-state damage from
                // table damage.
                let edit = VersionEdit::decode(&record).map_err(|e| match e {
                    Error::Corruption(detail) => Error::manifest_corrupt(&manifest_path, detail),
                    other => other,
                })?;
                if let Some(v) = edit.log_number {
                    log_number = v;
                }
                if let Some(v) = edit.next_file_number {
                    next_file_number = next_file_number.max(v);
                }
                if let Some(v) = edit.last_ts {
                    last_ts = last_ts.max(v);
                }
                builder.apply(&edit)?;
            }
            version = builder.finish();
        }

        // Write a fresh manifest snapshot and swing CURRENT to it.
        let manifest_number = next_file_number;
        next_file_number += 1;
        let manifest_path = filenames::manifest_path(dir, manifest_number);
        let mut manifest = LogWriter::new(env.open_write(&manifest_path)?);
        let snapshot = snapshot_edit(&version, next_file_number, log_number, last_ts);
        manifest.add_record(&snapshot.encode())?;
        manifest.sync()?;
        install_current(env.as_ref(), dir, manifest_number)?;

        let set = VersionSet {
            current: Arc::new(version),
            manifest,
            next_file_number,
            log_number,
            last_ts,
            obsolete: Arc::default(),
            manifest_error: Arc::default(),
        };
        Ok((
            set,
            RecoveredManifest {
                log_number,
                last_ts,
                manifest_torn_at,
            },
        ))
    }

    /// The current version.
    pub(crate) fn current(&self) -> Arc<Version> {
        Arc::clone(&self.current)
    }

    /// Allocates a fresh file number.
    pub(crate) fn new_file_number(&mut self) -> u64 {
        let n = self.next_file_number;
        self.next_file_number += 1;
        n
    }

    /// Keeps [`new_file_number`](Self::new_file_number) above `number`.
    /// The manifest persists the counter only at commits, so a file
    /// created after the last commit — a WAL rotated in just before a
    /// crash — can carry a number the recovered counter would hand out
    /// again (LevelDB's `MarkFileNumberUsed`).
    pub(crate) fn mark_file_number_used(&mut self, number: u64) {
        self.next_file_number = self.next_file_number.max(number + 1);
    }

    /// The list each table a committed edit removed goes on once its
    /// last reference drops.
    pub(crate) fn obsolete_files(&self) -> &Arc<ObsoleteFiles> {
        &self.obsolete
    }

    /// The first manifest write error, once there is one.
    pub(crate) fn manifest_error(&self) -> &Arc<OnceLock<Error>> {
        &self.manifest_error
    }

    /// Logs `edit` durably and installs the resulting version. Once the
    /// edit is durable, each table it removed is marked, so its file
    /// dies with the last version, claim or iterator naming it.
    ///
    /// After a failed append or sync, every call returns that first
    /// error and writes nothing: the failed record may be on disk, in
    /// whole or in part (LevelDB's background error).
    pub fn log_and_apply(&mut self, mut edit: VersionEdit) -> Result<Arc<Version>> {
        if let Some(e) = self.manifest_error.get() {
            return Err(e.clone());
        }
        edit.next_file_number = Some(self.next_file_number);
        if let Some(v) = edit.log_number {
            debug_assert!(v >= self.log_number);
            self.log_number = v;
        }
        if let Some(v) = edit.last_ts {
            self.last_ts = self.last_ts.max(v);
        }
        let mut builder = Builder::new_from(&self.current);
        let removed = builder.apply(&edit)?;
        let new_version = Arc::new(builder.finish());
        let logged = self.manifest.add_record(&edit.encode());
        if let Err(e) = logged.and_then(|()| self.manifest.sync()) {
            let _ = self.manifest_error.set(e.clone());
            return Err(e);
        }
        for f in removed {
            // Counted before it can drop: `f` holds it until the end of
            // this iteration.
            if f.obsolete.set(Arc::clone(&self.obsolete)).is_ok() {
                self.obsolete
                    .retired_table_bytes
                    .fetch_add(f.file_size, Ordering::Relaxed);
            }
        }
        self.current = Arc::clone(&new_version);
        Ok(new_version)
    }
}

/// Atomically points CURRENT at the given manifest.
///
/// The temp file is written durably ([`Env::write`] syncs) before the
/// rename, so a crash can leave either the old or the new CURRENT —
/// never a truncated one.
fn install_current(env: &dyn Env, dir: &Path, manifest_number: u64) -> Result<()> {
    let tmp = filenames::temp_path(dir, manifest_number);
    env.write(&tmp, format!("MANIFEST-{manifest_number:06}\n").as_bytes())?;
    env.rename(&tmp, &filenames::current_path(dir))?;
    env.sync_dir(dir)?;
    Ok(())
}

/// Produces an edit that recreates `version` from scratch.
fn snapshot_edit(
    version: &Version,
    next_file_number: u64,
    log_number: u64,
    last_ts: u64,
) -> VersionEdit {
    let mut edit = VersionEdit {
        log_number: Some(log_number),
        next_file_number: Some(next_file_number),
        last_ts: Some(last_ts),
        ..Default::default()
    };
    for (level, files) in version.levels.iter().enumerate() {
        for f in files {
            edit.new_files.push(NewFile {
                level: level as u32,
                number: f.number,
                file_size: f.file_size,
                smallest: f.smallest.clone(),
                largest: f.largest.clone(),
            });
        }
    }
    edit
}

/// Applies edits to a base version, producing the next version.
struct Builder {
    levels: Vec<Vec<Arc<FileMeta>>>,
}

impl Builder {
    fn new(base: Version) -> Builder {
        Builder {
            levels: base.levels,
        }
    }

    fn new_from(base: &Version) -> Builder {
        Builder {
            levels: base.levels.clone(),
        }
    }

    /// Applies `edit`; returns the files it took out of the tree. A
    /// trivial move deletes a file and re-adds it one level down: the
    /// same `FileMeta`, with its open reader, and nothing removed.
    fn apply(&mut self, edit: &VersionEdit) -> Result<Vec<Arc<FileMeta>>> {
        let mut deleted = Vec::new();
        for &(level, number) in &edit.deleted_files {
            let level = level as usize;
            if level >= self.levels.len() {
                return Err(Error::corruption("edit deletes file at bad level"));
            }
            let Some(i) = self.levels[level].iter().position(|f| f.number == number) else {
                return Err(Error::corruption(format!(
                    "edit deletes unknown file {number} at level {level}"
                )));
            };
            deleted.push(self.levels[level].remove(i));
        }
        for nf in &edit.new_files {
            let level = nf.level as usize;
            if level >= self.levels.len() {
                return Err(Error::corruption("edit adds file at bad level"));
            }
            let meta = match deleted.iter().position(|f| f.number == nf.number) {
                Some(i) => deleted.swap_remove(i),
                None => Arc::new(FileMeta {
                    number: nf.number,
                    file_size: nf.file_size,
                    smallest: nf.smallest.clone(),
                    largest: nf.largest.clone(),
                    being_compacted: AtomicBool::new(false),
                    table: OnceLock::new(),
                    obsolete: OnceLock::new(),
                }),
            };
            self.levels[level].push(meta);
        }
        Ok(deleted)
    }

    fn finish(mut self) -> Version {
        // L0: newest (highest number) first.
        self.levels[0].sort_by_key(|f| std::cmp::Reverse(f.number));
        // L1+: by smallest key; ranges are disjoint by construction.
        for level in &mut self.levels[1..] {
            level.sort_by(|a, b| crate::format::compare_internal_keys(&a.smallest, &b.smallest));
        }
        let version = Version {
            l0_runs: partition_l0(&self.levels[0]),
            levels: self.levels,
        };
        if cfg!(debug_assertions) {
            if let Err(e) = version.check_invariants() {
                panic!("built an invalid version: {e}");
            }
        }
        version
    }
}

/// Partitions L0, given newest first, into sorted runs. A file joins the
/// run being built when its user-key range is disjoint from every file
/// already in it, end keys included; otherwise it starts the next run.
/// Runs are thus contiguous in age. Joining any earlier run it fits in
/// instead would let an older file answer a `get` before a newer one.
fn partition_l0(l0: &[Arc<FileMeta>]) -> Vec<Vec<Arc<FileMeta>>> {
    let mut runs: Vec<Vec<Arc<FileMeta>>> = Vec::new();
    for f in l0 {
        // The run stays sorted by smallest key: `idx` is the first file
        // not wholly below `f`, and `f` fits if it is wholly below that.
        let slot = runs.last_mut().and_then(|run| {
            let idx = run.partition_point(|g| g.largest_user_key() < f.smallest_user_key());
            let fits = run
                .get(idx)
                .is_none_or(|g| f.largest_user_key() < g.smallest_user_key());
            fits.then_some((run, idx))
        });
        match slot {
            Some((run, idx)) => run.insert(idx, Arc::clone(f)),
            None => runs.push(vec![Arc::clone(f)]),
        }
    }
    runs
}

/// A condition variable claim-release waiters park on. The releasing
/// side ([`CompactionClaim::drop`]) notifies under the same mutex the
/// waiter re-checks its condition under, so a release between check
/// and wait can never be missed — the reason `Store::compact_range`
/// needs no timed-poll backstop.
#[derive(Debug, Default)]
pub(crate) struct ClaimSignal {
    mutex: parking_lot::Mutex<()>,
    cv: parking_lot::Condvar,
}

impl ClaimSignal {
    /// Locks the signal; re-check the waited-on condition while
    /// holding this guard, then [`wait`](Self::wait) on it.
    pub(crate) fn lock(&self) -> parking_lot::MutexGuard<'_, ()> {
        self.mutex.lock()
    }

    /// Parks until the next claim release (no timeout: every release
    /// path notifies, including error unwinds, via the claim's Drop).
    pub(crate) fn wait(&self, guard: &mut parking_lot::MutexGuard<'_, ()>) {
        self.cv.wait(guard);
    }

    /// Wakes every waiter. Takes the mutex internally so a notify
    /// cannot slip between a waiter's condition check and its park.
    pub(crate) fn notify_all(&self) {
        let _g = self.mutex.lock();
        self.cv.notify_all();
    }
}

/// Marks compaction inputs; clears the flags when dropped (RAII guard
/// so failed compactions release their claims). When a [`ClaimSignal`]
/// is attached, the drop also notifies it — on success *and* on error
/// unwind — so claim waiters never need a timed poll.
#[derive(Debug)]
pub(crate) struct CompactionClaim {
    files: Vec<Arc<FileMeta>>,
    signal: Option<Arc<ClaimSignal>>,
}

impl CompactionClaim {
    /// Attempts to claim every file; returns `None` if any is already
    /// claimed by another compaction.
    pub(crate) fn try_claim(files: Vec<Arc<FileMeta>>) -> Option<CompactionClaim> {
        for (i, f) in files.iter().enumerate() {
            if f.being_compacted.swap(true, Ordering::AcqRel) {
                // Roll back the ones we claimed.
                for g in &files[..i] {
                    g.being_compacted.store(false, Ordering::Release);
                }
                return None;
            }
        }
        Some(CompactionClaim {
            files,
            signal: None,
        })
    }

    /// Attaches the signal to notify when this claim is released.
    pub(crate) fn attach_release_signal(&mut self, signal: Arc<ClaimSignal>) {
        self.signal = Some(signal);
    }
}

impl Drop for CompactionClaim {
    fn drop(&mut self) {
        for f in &self.files {
            f.being_compacted.store(false, Ordering::Release);
        }
        if let Some(signal) = &self.signal {
            signal.notify_all();
        }
    }
}

#[cfg(test)]
mod tests;
