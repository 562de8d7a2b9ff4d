//! Compaction: merging components into the next level.
//!
//! This is the paper's "merge procedure (sometimes called compaction)"
//! (§2.3) for the on-disk levels: when a level outgrows its budget, its
//! files are merged with the overlapping files one level down.
//! Obsolete versions are garbage-collected against the snapshot
//! watermark exactly as §3.2.1 prescribes: "for every key and every
//! snapshot, the latest version of the key that does not exceed the
//! snapshot's timestamp is kept" (we use the conservative
//! oldest-snapshot rule, as LevelDB does).
//!
//! This module alone chooses what merges next: `pick` for background
//! work (the most pressured level's single largest file, or all of L0
//! by sorted run),
//! `pick_level_range` for manual range compactions. Both claim their
//! inputs exclusively, so concurrent compactions work on disjoint files.

use std::path::Path;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;

use clsm_util::error::Result;

use crate::filenames;
use crate::format::append_internal_key;
use crate::iter::{InternalIterator, MergingIterator};
use crate::sstable::TableBuilder;
use crate::store::StoreOptions;
use crate::version::{
    ClaimSignal, CompactionClaim, FileMeta, LevelIter, NewFile, TableOpener, Version, VersionEdit,
};

/// A picked compaction: inputs at `level` and overlapping files at
/// `level + 1`, exclusively claimed.
pub(crate) struct CompactionTask {
    /// Source level.
    pub(crate) level: usize,
    /// Input files at `level` as sorted runs, newest first: every run
    /// of L0, or one run of files from a deeper level.
    pub(crate) base: Vec<Vec<Arc<FileMeta>>>,
    /// Overlapping input files at `level + 1`.
    pub(crate) parent: Vec<Arc<FileMeta>>,
    /// RAII claim marking every input `being_compacted`.
    _claim: CompactionClaim,
}

impl CompactionTask {
    /// Makes this task's claim notify `signal` when released —
    /// success or error unwind alike, via the claim's `Drop`.
    pub(crate) fn attach_release_signal(&mut self, signal: Arc<ClaimSignal>) {
        self._claim.attach_release_signal(signal);
    }

    /// Whether every input is still at its level in `version`: a pick
    /// that read a replaced version may have claimed files that left
    /// the tree, or that a trivial move took one level down.
    pub(crate) fn inputs_are_in(&self, version: &Version) -> bool {
        let at = |level: usize| {
            move |f: &Arc<FileMeta>| version.levels[level].iter().any(|g| Arc::ptr_eq(f, g))
        };
        self.base.iter().flatten().all(at(self.level)) && self.parent.iter().all(at(self.level + 1))
    }
}

impl std::fmt::Debug for CompactionTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompactionTask")
            .field("level", &self.level)
            .field("base_runs", &self.base.len())
            .field("parent", &self.parent.len())
            .finish()
    }
}

/// Number of L0 sorted runs that makes L0 due for compaction
/// (LevelDB's `kL0_CompactionTrigger`). A run is a set of L0 files with
/// disjoint key ranges, contiguous in age; a flush adds one, however
/// many tables it writes.
pub const L0_COMPACTION_TRIGGER: usize = 4;

/// Whether L0 in `version` is *behind*, not merely due: it holds twice
/// [`L0_COMPACTION_TRIGGER`] sorted runs or more (LevelDB's
/// `kL0_SlowdownWritesTrigger`, 8). Write admission paces writers while
/// this holds.
pub fn l0_is_behind(version: &Version) -> bool {
    version.l0_runs().len() >= 2 * L0_COMPACTION_TRIGGER
}

/// Byte budget of `level` (L1 gets `base_level_bytes`, each deeper
/// level `level_multiplier`× more).
pub(crate) fn max_bytes_for_level(opts: &StoreOptions, level: usize) -> u64 {
    debug_assert!(level >= 1);
    let mut budget = opts.base_level_bytes;
    for _ in 1..level {
        budget = budget.saturating_mul(opts.level_multiplier);
    }
    budget
}

/// Compaction pressure of `level` in `version` (≥ 1.0 ⇒ should run).
/// L0 counts sorted runs against the trigger, and its bytes against
/// L1's budget: a sequential load is one run however large it grows.
pub(crate) fn level_score(version: &Version, opts: &StoreOptions, level: usize) -> f64 {
    if level == 0 {
        let runs = version.l0_runs().len() as f64 / L0_COMPACTION_TRIGGER as f64;
        let bytes = version.level_bytes(0) as f64 / opts.base_level_bytes as f64;
        runs.max(bytes)
    } else if level + 1 >= opts.num_levels {
        0.0 // the last level never compacts further down
    } else {
        version.level_bytes(level) as f64 / max_bytes_for_level(opts, level) as f64
    }
}

/// `true` if any level's score is at or past its trigger.
pub(crate) fn needs_compaction(version: &Version, opts: &StoreOptions) -> bool {
    (0..opts.num_levels.saturating_sub(1)).any(|l| level_score(version, opts, l) >= 1.0)
}

/// Picks the most pressured level and claims a compaction, or `None`
/// when nothing needs compaction or all candidates are already claimed.
pub(crate) fn pick(version: &Version, opts: &StoreOptions) -> Option<CompactionTask> {
    let mut best: Option<(usize, f64)> = None;
    for level in 0..opts.num_levels - 1 {
        let score = level_score(version, opts, level);
        if score >= 1.0 && best.is_none_or(|(_, s)| score > s) {
            best = Some((level, score));
        }
    }
    let (level, _) = best?;
    let base = if level == 0 {
        // All of L0: its runs may overlap each other, so a partial pick
        // could break the "newer level ⇒ newer versions" invariant.
        version.l0_runs().to_vec()
    } else {
        // One file at a time, largest first (the first of equals),
        // keeps work bounded.
        let largest = version.levels[level]
            .iter()
            .min_by_key(|f| std::cmp::Reverse(f.file_size))?;
        vec![vec![Arc::clone(largest)]]
    };
    claim(version, level, base)
}

/// Picks a *manual* compaction of every file in `level` overlapping
/// `[smallest, largest]` (user keys), claiming it exclusively. Returns
/// `None` when the level has no overlapping files (nothing to do) or
/// when a background compaction currently claims one of them (retry).
pub(crate) fn pick_level_range(
    version: &Version,
    opts: &StoreOptions,
    level: usize,
    smallest: &[u8],
    largest: &[u8],
) -> Option<CompactionTask> {
    if level + 1 >= opts.num_levels {
        return None;
    }
    let mut base = vec![version.overlapping_files(level, smallest, largest)];
    if level == 0 && !base[0].is_empty() {
        // L0 runs overlap each other: a partial pick would break the
        // newer-files-hold-newer-versions invariant, so take all of L0
        // whenever any L0 file intersects the range.
        base = version.l0_runs().to_vec();
    }
    claim(version, level, base)
}

/// Claims `base` (runs of `level`) together with every file of
/// `level + 1` overlapping their user-key range, or `None` when `base`
/// is empty or one of the inputs is already claimed.
fn claim(version: &Version, level: usize, base: Vec<Vec<Arc<FileMeta>>>) -> Option<CompactionTask> {
    let smallest = base.iter().flatten().map(|f| f.smallest_user_key()).min()?;
    let largest = base.iter().flatten().map(|f| f.largest_user_key()).max()?;
    let parent = version.overlapping_files(level + 1, smallest, largest);
    let all = base.iter().flatten().chain(&parent).cloned().collect();
    let claim = CompactionClaim::try_claim(all)?;
    Some(CompactionTask {
        level,
        base,
        parent,
        _claim: claim,
    })
}

/// Runs a compaction: merges the inputs, GC's obsolete versions, and
/// returns the version edit to apply (files written, inputs deleted).
///
/// `watermark` is the oldest live snapshot (or the current time when no
/// snapshot exists): versions shadowed by a newer version at-or-below
/// the watermark are invisible to every present and future reader and
/// are dropped. Tombstones are additionally dropped when the output is
/// the bottom level.
pub(crate) fn run(
    task: &CompactionTask,
    opener: &Arc<TableOpener>,
    opts: &StoreOptions,
    watermark: u64,
    mut alloc_file_number: impl FnMut() -> u64,
) -> Result<VersionEdit> {
    let output_level = task.level + 1;
    let bottom = output_level == opts.num_levels - 1;

    // Trivial move: a base that is one sorted run, with nothing in the
    // next level inside its span, is reassigned to that level without
    // rewriting any bytes (each `FileMeta` and its open reader move
    // with it, see `Builder::apply`).
    if let ([run], [], false) = (task.base.as_slice(), task.parent.as_slice(), bottom) {
        return Ok(VersionEdit {
            deleted_files: run.iter().map(|f| (task.level as u32, f.number)).collect(),
            new_files: run
                .iter()
                .map(|f| NewFile {
                    level: output_level as u32,
                    number: f.number,
                    file_size: f.file_size,
                    smallest: f.smallest.clone(),
                    largest: f.largest.clone(),
                })
                .collect(),
            ..Default::default()
        });
    }

    let mut merged = merge_inputs(task, opener);
    merged.seek_to_first();

    let new_files = write_merged_tables(
        &mut merged,
        &opener.dir,
        opts,
        output_level,
        watermark,
        bottom,
        &mut alloc_file_number,
    )?;

    let mut edit = VersionEdit {
        new_files,
        ..Default::default()
    };
    for f in task.base.iter().flatten() {
        edit.deleted_files.push((task.level as u32, f.number));
    }
    for f in &task.parent {
        edit.deleted_files.push((output_level as u32, f.number));
    }
    Ok(edit)
}

/// The merged input stream of `task`: one child per base run, newest
/// first, then one for the parent files. Every input is read once,
/// front to back, in checksummed chunks that bypass the block cache:
/// these tables are deleted when the merge commits, so caching their
/// blocks would only evict blocks that gets still need.
pub(crate) fn merge_inputs(task: &CompactionTask, opener: &Arc<TableOpener>) -> MergingIterator {
    let parent = (!task.parent.is_empty()).then_some(&task.parent);
    let children = task
        .base
        .iter()
        .chain(parent)
        .map(|files| {
            Box::new(LevelIter::one_pass(Arc::clone(opener), files.clone()))
                as Box<dyn InternalIterator>
        })
        .collect();
    MergingIterator::new(children)
}

/// Streams a sorted internal iterator into one or more tables at
/// `output_level`, applying the version-GC drop rules.
///
/// Also used by the memtable flush path (`output_level = 0`,
/// `drop_tombstones = false`).
///
/// The merge runs on the calling thread. Each full table goes to a
/// finisher thread, which writes its filter, index and footer and
/// syncs it while the merge streams into the next table. The hand-off
/// holds one table, so a job is never more than one table ahead of
/// durability, and the finisher is joined before this returns: no
/// version edit ever names a table that is not yet synced.
pub fn write_merged_tables(
    it: &mut dyn InternalIterator,
    dir: &Path,
    opts: &StoreOptions,
    output_level: usize,
    watermark: u64,
    drop_tombstones: bool,
    alloc_file_number: &mut dyn FnMut() -> u64,
) -> Result<Vec<NewFile>> {
    std::thread::scope(|scope| {
        let (to_finisher, full_tables) = mpsc::sync_channel(1);
        let finisher = std::thread::Builder::new()
            .name("clsm-finisher".to_owned())
            .spawn_scoped(scope, move || finish_tables(full_tables, output_level))?;
        let merged = merge_into_tables(
            it,
            dir,
            opts,
            watermark,
            drop_tombstones,
            alloc_file_number,
            to_finisher,
        );
        let finished = finisher
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        merged.and(finished)
    })
}

/// The merge half of [`write_merged_tables`]: streams `it` into tables
/// and hands each full one, with its number, to the finisher over
/// `to_finisher`. Returns `Ok` early once the finisher has stopped:
/// its error is the job's.
fn merge_into_tables(
    it: &mut dyn InternalIterator,
    dir: &Path,
    opts: &StoreOptions,
    watermark: u64,
    drop_tombstones: bool,
    alloc_file_number: &mut dyn FnMut() -> u64,
    to_finisher: SyncSender<(u64, TableBuilder)>,
) -> Result<()> {
    let mut builder: Option<(u64, TableBuilder)> = None;

    let mut prev_key: Vec<u8> = Vec::new();
    // Every output entry's internal key is encoded here, in place.
    let mut ikey: Vec<u8> = Vec::new();
    let mut have_prev = false;
    let mut prev_ts = 0u64;
    let mut prev_shadowed = false;

    while it.valid() {
        let key = it.user_key();
        let ts = it.ts();
        let kind = it.kind();
        let same_key = have_prev && prev_key == key;

        let drop = if same_key && prev_shadowed {
            // A newer version at-or-below the watermark shadows this one
            // for every live and future snapshot.
            true
        } else if same_key && ts == prev_ts {
            // Exact duplicate (WAL replay overlap): keep the first copy.
            true
        } else {
            // A tombstone that is visible (not shadowed) can still be
            // elided at the bottom level once no snapshot needs it:
            // nothing deeper could resurrect the key.
            drop_tombstones && kind == crate::format::ValueKind::Delete && ts <= watermark
        };

        if same_key {
            prev_shadowed = prev_shadowed || ts <= watermark;
            prev_ts = ts;
        } else {
            prev_key.clear();
            prev_key.extend_from_slice(key);
            have_prev = true;
            prev_ts = ts;
            prev_shadowed = ts <= watermark;
        }

        if !drop {
            // Roll the output file at size, but never split one user
            // key across files: level ≥ 1 lookups assume each user key
            // lives in exactly one file per level.
            let should_roll = builder
                .as_ref()
                .is_some_and(|(_, b)| b.current_size() >= opts.table_file_size)
                && !same_key;
            if should_roll {
                let output = builder.take().expect("checked above");
                if to_finisher.send(output).is_err() {
                    return Ok(());
                }
            }
            if builder.is_none() {
                let number = alloc_file_number();
                let path = filenames::table_path(dir, number);
                let file = opts.env.open_write(&path)?;
                builder = Some((
                    number,
                    TableBuilder::new(file, opts.block_size, opts.bloom_bits_per_key),
                ));
            }
            ikey.clear();
            append_internal_key(&mut ikey, key, ts, kind);
            builder
                .as_mut()
                .expect("just created")
                .1
                .add(&ikey, it.value())?;
        }
        it.next();
    }
    it.status()?;

    if let Some(output) = builder {
        // A send that fails means the finisher stopped on an error.
        let _ = to_finisher.send(output);
    }
    Ok(())
}

/// The finisher half of [`write_merged_tables`]: finishes each table in
/// the order it arrives and returns them in that order. Stops at the
/// first error, dropping the tables still queued, which makes the
/// merge's next hand-off fail.
fn finish_tables(full_tables: Receiver<(u64, TableBuilder)>, level: usize) -> Result<Vec<NewFile>> {
    full_tables
        .into_iter()
        .map(|(number, builder)| {
            let summary = builder.finish()?;
            Ok(NewFile {
                level: level as u32,
                number,
                file_size: summary.file_size,
                smallest: summary.smallest,
                largest: summary.largest,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests;
