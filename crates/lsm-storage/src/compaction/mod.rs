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

pub mod policy;

pub use policy::{CompactionPolicy, CompactionPolicyKind, HybridPartial, Leveled};

use std::path::Path;
use std::sync::Arc;

use clsm_util::env::WritableFile;
use clsm_util::error::Result;
use clsm_util::ratelimit::{IoPriority, RateLimitedFile};

use crate::cache::TableCache;
use crate::filenames;
use crate::format::InternalKey;
use crate::iter::{InternalIterator, MergingIterator};
use crate::sstable::TableBuilder;
use crate::store::StoreOptions;
use crate::version::{
    ClaimSignal, CompactionClaim, FileMeta, LevelIter, NewFile, Version, VersionEdit,
};

/// A picked compaction: inputs at `level` and overlapping files at
/// `level + 1`, exclusively claimed.
pub struct CompactionTask {
    /// Source level.
    pub level: usize,
    /// Input files at `level`.
    pub base: Vec<Arc<FileMeta>>,
    /// Overlapping input files at `level + 1`.
    pub parent: Vec<Arc<FileMeta>>,
    /// RAII claim marking every input `being_compacted`.
    _claim: CompactionClaim,
}

impl CompactionTask {
    /// Makes this task's claim notify `signal` when released —
    /// success or error unwind alike, via the claim's `Drop`.
    pub fn attach_release_signal(&mut self, signal: Arc<ClaimSignal>) {
        self._claim.attach_release_signal(signal);
    }
}

impl std::fmt::Debug for CompactionTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompactionTask")
            .field("level", &self.level)
            .field("base", &self.base.len())
            .field("parent", &self.parent.len())
            .finish()
    }
}

/// Byte budget of `level` (L1 gets `base_level_bytes`, each deeper
/// level `level_multiplier`× more).
pub fn max_bytes_for_level(opts: &StoreOptions, level: usize) -> u64 {
    debug_assert!(level >= 1);
    let mut budget = opts.base_level_bytes;
    for _ in 1..level {
        budget = budget.saturating_mul(opts.level_multiplier);
    }
    budget
}

/// Compaction pressure of `level` in `version` (≥ 1.0 ⇒ should run).
pub fn level_score(version: &Version, opts: &StoreOptions, level: usize) -> f64 {
    if level == 0 {
        version.num_files(0) as f64 / opts.l0_compaction_trigger as f64
    } else if level + 1 >= opts.num_levels {
        0.0 // the last level never compacts further down
    } else {
        version.level_bytes(level) as f64 / max_bytes_for_level(opts, level) as f64
    }
}

/// Picks the most pressured level and claims a compaction, or `None`
/// when nothing needs compaction or all candidates are already claimed.
pub fn pick(version: &Version, opts: &StoreOptions) -> Option<CompactionTask> {
    let mut best: Option<(usize, f64)> = None;
    for level in 0..opts.num_levels - 1 {
        let score = level_score(version, opts, level);
        if score >= 1.0 && best.is_none_or(|(_, s)| score > s) {
            best = Some((level, score));
        }
    }
    let (level, _) = best?;

    // Choose base files.
    let base: Vec<Arc<FileMeta>> = if level == 0 {
        // All L0 files: they may overlap each other, so a partial pick
        // could break the "newer level ⇒ newer versions" invariant.
        version.levels[0].clone()
    } else {
        // One file at a time, largest first, keeps work bounded.
        let mut candidates = version.levels[level].clone();
        candidates.sort_by_key(|f| std::cmp::Reverse(f.file_size));
        vec![Arc::clone(candidates.first()?)]
    };
    if base.is_empty() {
        return None;
    }

    // Key range of the base inputs.
    let mut smallest = base[0].smallest_user_key().to_vec();
    let mut largest = base[0].largest_user_key().to_vec();
    for f in &base[1..] {
        if f.smallest_user_key() < smallest.as_slice() {
            smallest = f.smallest_user_key().to_vec();
        }
        if f.largest_user_key() > largest.as_slice() {
            largest = f.largest_user_key().to_vec();
        }
    }
    let parent = version.overlapping_files(level + 1, &smallest, &largest);

    let mut all = base.clone();
    all.extend(parent.iter().cloned());
    let claim = CompactionClaim::try_claim(all)?;
    Some(CompactionTask {
        level,
        base,
        parent,
        _claim: claim,
    })
}

/// Picks a *manual* compaction of every file in `level` overlapping
/// `[smallest, largest]` (user keys), claiming it exclusively. Returns
/// `None` when the level has no overlapping files (nothing to do) or
/// when a background compaction currently claims one of them (retry).
pub fn pick_level_range(
    version: &Version,
    opts: &StoreOptions,
    level: usize,
    smallest: &[u8],
    largest: &[u8],
) -> Option<CompactionTask> {
    if level + 1 >= opts.num_levels {
        return None;
    }
    let base: Vec<Arc<FileMeta>> = if level == 0 {
        // L0 files overlap each other: a partial pick would break the
        // newer-files-hold-newer-versions invariant, so take all of L0
        // whenever any L0 file intersects the range.
        if version.overlapping_files(0, smallest, largest).is_empty() {
            return None;
        }
        version.levels[0].clone()
    } else {
        version.overlapping_files(level, smallest, largest)
    };
    if base.is_empty() {
        return None;
    }
    let mut lo = base[0].smallest_user_key().to_vec();
    let mut hi = base[0].largest_user_key().to_vec();
    for f in &base[1..] {
        if f.smallest_user_key() < lo.as_slice() {
            lo = f.smallest_user_key().to_vec();
        }
        if f.largest_user_key() > hi.as_slice() {
            hi = f.largest_user_key().to_vec();
        }
    }
    let parent = version.overlapping_files(level + 1, &lo, &hi);
    let mut all = base.clone();
    all.extend(parent.iter().cloned());
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
pub fn run(
    task: &CompactionTask,
    dir: &Path,
    cache: &Arc<TableCache>,
    opts: &StoreOptions,
    watermark: u64,
    mut alloc_file_number: impl FnMut() -> u64,
) -> Result<VersionEdit> {
    let output_level = task.level + 1;
    let bottom = output_level == opts.num_levels - 1;

    // Trivial move: a single base file with no parent overlap can be
    // reassigned to the next level without rewriting any bytes.
    if task.base.len() == 1 && task.parent.is_empty() && !bottom {
        let f = &task.base[0];
        return Ok(VersionEdit {
            deleted_files: vec![(task.level as u32, f.number)],
            new_files: vec![NewFile {
                level: output_level as u32,
                number: f.number,
                file_size: f.file_size,
                smallest: f.smallest.clone(),
                largest: f.largest.clone(),
            }],
            ..Default::default()
        });
    }

    // Build the merged input stream (newest component first: L0 files
    // are already newest-first in the version).
    let mut children: Vec<Box<dyn InternalIterator>> = Vec::new();
    if task.level == 0 {
        for f in &task.base {
            children.push(Box::new(cache.table(f.number)?.iter()));
        }
    } else {
        children.push(Box::new(LevelIter::new(
            Arc::clone(cache),
            task.base.clone(),
        )));
    }
    if !task.parent.is_empty() {
        children.push(Box::new(LevelIter::new(
            Arc::clone(cache),
            task.parent.clone(),
        )));
    }
    let mut merged = MergingIterator::new(children);
    merged.seek_to_first();

    let new_files = write_merged_tables(
        &mut merged,
        dir,
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
    for f in &task.base {
        edit.deleted_files.push((task.level as u32, f.number));
    }
    for f in &task.parent {
        edit.deleted_files.push((output_level as u32, f.number));
    }
    Ok(edit)
}

/// Streams a sorted internal iterator into one or more tables at
/// `output_level`, applying the version-GC drop rules.
///
/// Also used by the memtable flush path (`output_level = 0`,
/// `drop_tombstones = false`).
pub fn write_merged_tables(
    it: &mut dyn InternalIterator,
    dir: &Path,
    opts: &StoreOptions,
    output_level: usize,
    watermark: u64,
    drop_tombstones: bool,
    alloc_file_number: &mut dyn FnMut() -> u64,
) -> Result<Vec<NewFile>> {
    let mut outputs: Vec<NewFile> = Vec::new();
    let mut builder: Option<(u64, TableBuilder)> = None;

    let mut prev_key: Vec<u8> = Vec::new();
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
                let (number, b) = builder.take().expect("checked above");
                finish_output(number, b, output_level, &mut outputs)?;
            }
            if builder.is_none() {
                let number = alloc_file_number();
                let path = filenames::table_path(dir, number);
                let mut file: Box<dyn WritableFile> = opts.env.open_write(&path)?;
                // Charge background bytes at the Env write seam: a
                // flush (output level 0) unblocks foreground writers,
                // so it outranks compaction rewrites in the bucket.
                if let Some(limiter) = &opts.io_rate_limiter {
                    if !limiter.is_unlimited() {
                        let prio = if output_level == 0 {
                            IoPriority::High
                        } else {
                            IoPriority::Low
                        };
                        file = Box::new(RateLimitedFile::new(file, Arc::clone(limiter), prio));
                    }
                }
                builder = Some((
                    number,
                    TableBuilder::new(file, opts.block_size, opts.bloom_bits_per_key),
                ));
            }
            let ikey = InternalKey::new(key, ts, kind);
            builder
                .as_mut()
                .expect("just created")
                .1
                .add(ikey.encoded(), it.value())?;
        }
        it.next();
    }
    it.status()?;

    if let Some((number, b)) = builder.take() {
        finish_output(number, b, output_level, &mut outputs)?;
    }
    Ok(outputs)
}

fn finish_output(
    number: u64,
    builder: TableBuilder,
    level: usize,
    outputs: &mut Vec<NewFile>,
) -> Result<()> {
    if builder.num_entries() == 0 {
        return Ok(());
    }
    let summary = builder.finish()?;
    outputs.push(NewFile {
        level: level as u32,
        number,
        file_size: summary.file_size,
        smallest: summary.smallest,
        largest: summary.largest,
    });
    Ok(())
}

#[cfg(test)]
mod tests;
