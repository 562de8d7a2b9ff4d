//! Versions: immutable snapshots of the leveled file layout.
//!
//! A [`Version`] is the disk component `Cd` at one instant. Readers
//! grab the current version through an RCU pointer (lock-free, matching
//! cLSM's non-blocking `get`), while flushes and compactions install
//! new versions through [`VersionSet::log_and_apply`] under the
//! version-set mutex.

mod edit;
mod level_iter;

pub use edit::{NewFile, VersionEdit};
pub use level_iter::LevelIter;

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

use clsm_util::env::Env;
use clsm_util::error::{Error, Result};

use crate::cache::TableCache;
use crate::filenames;
use crate::format::ValueKind;
use crate::iter::BoxedIterator;
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
}

impl FileMeta {
    /// The user-key prefix of the smallest internal key.
    pub fn smallest_user_key(&self) -> &[u8] {
        user_part(&self.smallest)
    }

    /// The user-key prefix of the largest internal key.
    pub fn largest_user_key(&self) -> &[u8] {
        user_part(&self.largest)
    }
}

fn user_part(internal: &[u8]) -> &[u8] {
    &internal[..internal.len().saturating_sub(crate::format::TAG_SIZE)]
}

/// One immutable snapshot of the file layout across levels.
#[derive(Debug)]
pub struct Version {
    /// Files per level. L0 is sorted by file number descending (newest
    /// first); L1+ are sorted by smallest key with disjoint ranges.
    pub levels: Vec<Vec<Arc<FileMeta>>>,
}

impl Version {
    /// An empty version.
    pub fn empty() -> Version {
        Version {
            levels: (0..NUM_LEVELS).map(|_| Vec::new()).collect(),
        }
    }

    /// Point lookup across all levels: the newest version of `user_key`
    /// with timestamp `<= max_ts`.
    pub fn get(
        &self,
        cache: &TableCache,
        user_key: &[u8],
        max_ts: u64,
    ) -> Result<Option<(u64, ValueKind, Vec<u8>)>> {
        // L0: files may overlap; search newest-first. Any hit is the
        // newest visible version because newer L0 files hold strictly
        // newer versions of a key than older ones.
        for file in &self.levels[0] {
            if user_key < file.smallest_user_key() || user_key > file.largest_user_key() {
                continue;
            }
            let table = cache.table(file.number)?;
            if let Some(hit) = table.get(user_key, max_ts)? {
                return Ok(Some(hit));
            }
        }
        // L1+: disjoint ranges; at most one candidate file per level.
        for level in &self.levels[1..] {
            let idx = level.partition_point(|f| f.largest_user_key() < user_key);
            if idx >= level.len() {
                continue;
            }
            let file = &level[idx];
            if user_key < file.smallest_user_key() {
                continue;
            }
            let table = cache.table(file.number)?;
            if let Some(hit) = table.get(user_key, max_ts)? {
                return Ok(Some(hit));
            }
        }
        Ok(None)
    }

    /// Iterators over every file/level, newest component first, for use
    /// in a [`crate::MergingIterator`].
    pub fn iterators(&self, cache: &Arc<TableCache>) -> Result<Vec<BoxedIterator>> {
        let mut out: Vec<BoxedIterator> = Vec::new();
        for file in &self.levels[0] {
            let table = cache.table(file.number)?;
            out.push(Box::new(table.iter()));
        }
        for level in &self.levels[1..] {
            if !level.is_empty() {
                out.push(Box::new(LevelIter::new(Arc::clone(cache), level.clone())));
            }
        }
        Ok(out)
    }

    /// Files in `level` whose user-key range intersects
    /// `[smallest, largest]`.
    pub fn overlapping_files(
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

    /// Total bytes in `level`.
    pub fn level_bytes(&self, level: usize) -> u64 {
        self.levels[level].iter().map(|f| f.file_size).sum()
    }

    /// Number of files in `level`.
    pub fn num_files(&self, level: usize) -> usize {
        self.levels[level].len()
    }

    /// Collects every file number referenced by this version.
    pub fn live_files(&self, into: &mut HashSet<u64>) {
        for level in &self.levels {
            for f in level {
                into.insert(f.number);
            }
        }
    }
}

/// Mutable owner of the version history and the manifest.
pub struct VersionSet {
    env: Arc<dyn Env>,
    dir: PathBuf,
    current: Arc<Version>,
    manifest: LogWriter,
    next_file_number: u64,
    /// WAL number at/above which logs still hold unflushed data.
    log_number: u64,
    /// Highest timestamp known flushed.
    last_ts: u64,
    /// Versions that may still be referenced by in-flight readers.
    live_versions: Vec<Weak<Version>>,
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

        let current = Arc::new(version);
        let set = VersionSet {
            env,
            dir: dir.to_path_buf(),
            current: Arc::clone(&current),
            manifest,
            next_file_number,
            log_number,
            last_ts,
            live_versions: vec![Arc::downgrade(&current)],
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
    pub fn current(&self) -> Arc<Version> {
        Arc::clone(&self.current)
    }

    /// Allocates a fresh file number.
    pub fn new_file_number(&mut self) -> u64 {
        let n = self.next_file_number;
        self.next_file_number += 1;
        n
    }

    /// Keeps [`new_file_number`](Self::new_file_number) above `number`.
    /// The manifest persists the counter only at commits, so a file
    /// created after the last commit — a WAL rotated in just before a
    /// crash — can carry a number the recovered counter would hand out
    /// again (LevelDB's `MarkFileNumberUsed`).
    pub fn mark_file_number_used(&mut self, number: u64) {
        self.next_file_number = self.next_file_number.max(number + 1);
    }

    /// The WAL number boundary recorded in the manifest.
    pub fn log_number(&self) -> u64 {
        self.log_number
    }

    /// Logs `edit` durably and installs the resulting version.
    pub fn log_and_apply(&mut self, mut edit: VersionEdit) -> Result<Arc<Version>> {
        edit.next_file_number = Some(self.next_file_number);
        if let Some(v) = edit.log_number {
            debug_assert!(v >= self.log_number);
            self.log_number = v;
        }
        if let Some(v) = edit.last_ts {
            self.last_ts = self.last_ts.max(v);
        }
        let mut builder = Builder::new_from(&self.current);
        builder.apply(&edit)?;
        let new_version = Arc::new(builder.finish());
        self.manifest.add_record(&edit.encode())?;
        self.manifest.sync()?;
        self.current = Arc::clone(&new_version);
        self.live_versions.push(Arc::downgrade(&new_version));
        self.live_versions.retain(|w| w.strong_count() > 0);
        Ok(new_version)
    }

    /// Table-file numbers still referenced by any live version.
    pub fn live_table_files(&self) -> HashSet<u64> {
        let mut live = HashSet::new();
        self.current.live_files(&mut live);
        for weak in &self.live_versions {
            if let Some(v) = weak.upgrade() {
                v.live_files(&mut live);
            }
        }
        live
    }

    /// Deletes table and WAL files that no live version references and
    /// that are not pending outputs of an in-flight flush/compaction.
    /// Returns the numbers of the deleted tables (for cache eviction).
    pub fn delete_obsolete_files(
        &mut self,
        cache: &TableCache,
        pending: &HashSet<u64>,
    ) -> Result<Vec<u64>> {
        let mut live = self.live_table_files();
        live.extend(pending.iter().copied());
        let mut deleted = Vec::new();
        for name in self.env.list(&self.dir)? {
            match filenames::parse_file_name(&name) {
                Some(filenames::FileKind::Table(n)) if !live.contains(&n) => {
                    self.env.remove(&self.dir.join(&name))?;
                    cache.evict(n);
                    deleted.push(n);
                }
                Some(filenames::FileKind::Wal(n)) if n < self.log_number => {
                    self.env.remove(&self.dir.join(&name))?;
                }
                Some(filenames::FileKind::Temp(_)) => {
                    self.env.remove(&self.dir.join(&name))?;
                }
                _ => {}
            }
        }
        Ok(deleted)
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

    fn apply(&mut self, edit: &VersionEdit) -> Result<()> {
        for &(level, number) in &edit.deleted_files {
            let level = level as usize;
            if level >= self.levels.len() {
                return Err(Error::corruption("edit deletes file at bad level"));
            }
            let before = self.levels[level].len();
            self.levels[level].retain(|f| f.number != number);
            if self.levels[level].len() == before {
                return Err(Error::corruption(format!(
                    "edit deletes unknown file {number} at level {level}"
                )));
            }
        }
        for nf in &edit.new_files {
            let level = nf.level as usize;
            if level >= self.levels.len() {
                return Err(Error::corruption("edit adds file at bad level"));
            }
            let meta = Arc::new(FileMeta {
                number: nf.number,
                file_size: nf.file_size,
                smallest: nf.smallest.clone(),
                largest: nf.largest.clone(),
                being_compacted: AtomicBool::new(false),
            });
            self.levels[level].push(meta);
        }
        Ok(())
    }

    fn finish(mut self) -> Version {
        // L0: newest (highest number) first.
        self.levels[0].sort_by_key(|f| std::cmp::Reverse(f.number));
        // L1+: by smallest key; ranges are disjoint by construction.
        for level in &mut self.levels[1..] {
            level.sort_by(|a, b| crate::format::compare_internal_keys(&a.smallest, &b.smallest));
        }
        Version {
            levels: self.levels,
        }
    }
}

impl Drop for VersionSet {
    fn drop(&mut self) {
        let _ = self.manifest.sync();
    }
}

/// A condition variable claim-release waiters park on. The releasing
/// side ([`CompactionClaim::drop`]) notifies under the same mutex the
/// waiter re-checks its condition under, so a release between check
/// and wait can never be missed — the reason `Store::compact_range`
/// needs no timed-poll backstop.
#[derive(Debug, Default)]
pub struct ClaimSignal {
    mutex: parking_lot::Mutex<()>,
    cv: parking_lot::Condvar,
}

impl ClaimSignal {
    /// Locks the signal; re-check the waited-on condition while
    /// holding this guard, then [`wait`](Self::wait) on it.
    pub fn lock(&self) -> parking_lot::MutexGuard<'_, ()> {
        self.mutex.lock()
    }

    /// Parks until the next claim release (no timeout: every release
    /// path notifies, including error unwinds, via the claim's Drop).
    pub fn wait(&self, guard: &mut parking_lot::MutexGuard<'_, ()>) {
        self.cv.wait(guard);
    }

    /// Wakes every waiter. Takes the mutex internally so a notify
    /// cannot slip between a waiter's condition check and its park.
    pub fn notify_all(&self) {
        let _g = self.mutex.lock();
        self.cv.notify_all();
    }
}

/// Marks compaction inputs; clears the flags when dropped (RAII guard
/// so failed compactions release their claims). When a [`ClaimSignal`]
/// is attached, the drop also notifies it — on success *and* on error
/// unwind — so claim waiters never need a timed poll.
#[derive(Debug)]
pub struct CompactionClaim {
    files: Vec<Arc<FileMeta>>,
    signal: Option<Arc<ClaimSignal>>,
}

impl CompactionClaim {
    /// Attempts to claim every file; returns `None` if any is already
    /// claimed by another compaction.
    pub fn try_claim(files: Vec<Arc<FileMeta>>) -> Option<CompactionClaim> {
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
    pub fn attach_release_signal(&mut self, signal: Arc<ClaimSignal>) {
        self.signal = Some(signal);
    }

    /// The claimed files.
    pub fn files(&self) -> &[Arc<FileMeta>] {
        &self.files
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
