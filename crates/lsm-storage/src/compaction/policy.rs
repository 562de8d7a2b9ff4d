//! Pluggable compaction scheduling policies.
//!
//! *Who decides when background work runs* used to be hardwired: the
//! store called the leveled `pick()` and nothing else. This module
//! extracts that decision behind [`CompactionPolicy`], with two
//! shipped implementations selected by [`CompactionPolicyKind`] in
//! `StoreOptions`:
//!
//! - [`Leveled`] — the previous (and default) behavior: score levels
//!   against byte budgets, compact the single largest file of the most
//!   pressured level (all of L0 at once, since L0 files overlap).
//! - [`HybridPartial`] — leveled scores, but each L1+ task takes a
//!   *bounded key subrange* of the level starting at a rotating
//!   per-level cursor (LevelDB's `compact_pointer` idiom). No single
//!   compaction claims more than a few files, so claims are held for
//!   bounded time and manual/foreground compactions are never blocked
//!   behind a level-wide rewrite.
//!
//! Policies only *pick* (and claim) inputs; running the merge is the
//! same [`super::run`] for all of them, so the GC drop rules and the
//! trivial-move optimization apply uniformly.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::store::StoreOptions;
use crate::version::{CompactionClaim, FileMeta, Version};

use super::CompactionTask;

/// Which [`CompactionPolicy`] a store schedules background merges
/// with. Carried by `StoreOptions` (the policy object itself may hold
/// state, e.g. [`HybridPartial`]'s cursors, so options carry the kind
/// and the store builds the instance at open).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompactionPolicyKind {
    /// Byte-budget scores, largest-file picks (the default).
    #[default]
    Leveled,
    /// Byte-budget scores, bounded cursor-rotating partial picks.
    HybridPartial,
}

impl CompactionPolicyKind {
    /// Stable lower-case name (doctor output, bench labels, SUT ids).
    pub fn name(&self) -> &'static str {
        match self {
            CompactionPolicyKind::Leveled => "leveled",
            CompactionPolicyKind::HybridPartial => "hybrid-partial",
        }
    }

    /// Parses [`Self::name`] back; `None` for unknown names.
    pub fn parse(name: &str) -> Option<CompactionPolicyKind> {
        match name {
            "leveled" => Some(CompactionPolicyKind::Leveled),
            "hybrid-partial" | "hybrid" => Some(CompactionPolicyKind::HybridPartial),
            _ => None,
        }
    }

    /// Builds the policy instance this kind names.
    pub fn build(self) -> Box<dyn CompactionPolicy> {
        match self {
            CompactionPolicyKind::Leveled => Box::new(Leveled),
            CompactionPolicyKind::HybridPartial => Box::new(HybridPartial::new()),
        }
    }
}

impl std::fmt::Display for CompactionPolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Decides which compaction (if any) to run next.
///
/// Implementations must be safe to call from several compaction
/// threads at once: picks are serialized per-file by the claim flags,
/// not by the policy, so any policy state needs interior mutability.
pub trait CompactionPolicy: Send + Sync + std::fmt::Debug {
    /// The kind this policy implements.
    fn kind(&self) -> CompactionPolicyKind;

    /// Compaction pressure of `level` (≥ 1.0 ⇒ should run).
    fn level_score(&self, version: &Version, opts: &StoreOptions, level: usize) -> f64;

    /// Picks the next compaction and claims its inputs, or `None` when
    /// nothing needs compaction or all candidates are already claimed.
    fn pick(&self, version: &Version, opts: &StoreOptions) -> Option<CompactionTask>;

    /// `true` if any level's score is at or past its trigger.
    fn needs_compaction(&self, version: &Version, opts: &StoreOptions) -> bool {
        (0..opts.num_levels.saturating_sub(1)).any(|l| self.level_score(version, opts, l) >= 1.0)
    }
}

/// The level with the highest score ≥ 1.0 under `score`.
fn most_pressured(opts: &StoreOptions, score: impl Fn(usize) -> f64) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for level in 0..opts.num_levels - 1 {
        let s = score(level);
        if s >= 1.0 && best.is_none_or(|(_, bs)| s > bs) {
            best = Some((level, s));
        }
    }
    best.map(|(level, _)| level)
}

/// User-key range spanned by `files` (assumed non-empty).
fn key_range(files: &[Arc<FileMeta>]) -> (Vec<u8>, Vec<u8>) {
    let mut smallest = files[0].smallest_user_key().to_vec();
    let mut largest = files[0].largest_user_key().to_vec();
    for f in &files[1..] {
        if f.smallest_user_key() < smallest.as_slice() {
            smallest = f.smallest_user_key().to_vec();
        }
        if f.largest_user_key() > largest.as_slice() {
            largest = f.largest_user_key().to_vec();
        }
    }
    (smallest, largest)
}

/// Claims `base` + its parent overlap at `level + 1` into a task.
fn claim_task(version: &Version, level: usize, base: Vec<Arc<FileMeta>>) -> Option<CompactionTask> {
    let (smallest, largest) = key_range(&base);
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

/// The default policy: the store's original byte-budget leveled
/// scheduling (see [`super::level_score`] / [`super::pick`], which it
/// delegates to).
#[derive(Debug, Clone, Copy, Default)]
pub struct Leveled;

impl CompactionPolicy for Leveled {
    fn kind(&self) -> CompactionPolicyKind {
        CompactionPolicyKind::Leveled
    }

    fn level_score(&self, version: &Version, opts: &StoreOptions, level: usize) -> f64 {
        super::level_score(version, opts, level)
    }

    fn pick(&self, version: &Version, opts: &StoreOptions) -> Option<CompactionTask> {
        super::pick(version, opts)
    }
}

/// Upper bound on base-input bytes of one [`HybridPartial`] task, in
/// units of `table_file_size`. Keeps every claim's hold time bounded.
const PARTIAL_INPUT_TABLES: u64 = 2;

/// Leveled scoring with bounded, cursor-rotating partial picks.
///
/// For L1+ the policy remembers, per level, the user key its last pick
/// ended at, and the next pick starts at the first file past that key
/// (wrapping at the end of the level) — LevelDB's `compact_pointer`.
/// A pick takes consecutive files until their byte sum would exceed
/// `PARTIAL_INPUT_TABLES` table sizes, so no task claims more than a
/// sliver of the level and claims are released in bounded time. L0 is
/// still compacted whole (its files overlap; a partial pick would
/// break the newer-level-newer-versions invariant).
#[derive(Debug, Default)]
pub struct HybridPartial {
    /// Per-level resume key (empty = start of level).
    cursors: Mutex<Vec<Vec<u8>>>,
}

impl HybridPartial {
    /// A fresh policy with all cursors at the start of each level.
    pub fn new() -> HybridPartial {
        HybridPartial::default()
    }
}

impl CompactionPolicy for HybridPartial {
    fn kind(&self) -> CompactionPolicyKind {
        CompactionPolicyKind::HybridPartial
    }

    fn level_score(&self, version: &Version, opts: &StoreOptions, level: usize) -> f64 {
        super::level_score(version, opts, level)
    }

    fn pick(&self, version: &Version, opts: &StoreOptions) -> Option<CompactionTask> {
        let level = most_pressured(opts, |l| self.level_score(version, opts, l))?;
        if level == 0 {
            let base = version.levels[0].clone();
            if base.is_empty() {
                return None;
            }
            return claim_task(version, 0, base);
        }

        // L1+ files are sorted by smallest key and disjoint. Start at
        // the first file strictly past the cursor, wrapping to the
        // level start when the cursor is at (or past) the end.
        let files = &version.levels[level];
        if files.is_empty() {
            return None;
        }
        let mut cursors = self.cursors.lock();
        if cursors.len() < opts.num_levels {
            cursors.resize(opts.num_levels, Vec::new());
        }
        let cursor = &cursors[level];
        let start = files
            .iter()
            .position(|f| f.largest_user_key() > cursor.as_slice())
            .unwrap_or(0);
        let budget = PARTIAL_INPUT_TABLES * opts.table_file_size;
        let mut base: Vec<Arc<FileMeta>> = Vec::new();
        let mut bytes = 0u64;
        for f in &files[start..] {
            if !base.is_empty() && bytes + f.file_size > budget {
                break;
            }
            bytes += f.file_size;
            base.push(Arc::clone(f));
        }
        // Advance the cursor past what we *tried* to claim, even if
        // the claim fails below: the next pick probes a different
        // subrange instead of contending on the same one.
        cursors[level] = base
            .last()
            .map(|f| f.largest_user_key().to_vec())
            .unwrap_or_default();
        drop(cursors);
        claim_task(version, level, base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_roundtrip() {
        for kind in [
            CompactionPolicyKind::Leveled,
            CompactionPolicyKind::HybridPartial,
        ] {
            assert_eq!(CompactionPolicyKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.build().kind(), kind);
        }
        assert_eq!(CompactionPolicyKind::parse("nope"), None);
        assert_eq!(
            CompactionPolicyKind::parse("hybrid"),
            Some(CompactionPolicyKind::HybridPartial)
        );
    }
}
