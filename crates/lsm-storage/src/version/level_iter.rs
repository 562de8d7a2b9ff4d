//! Concatenating iterator over one sorted level (L1+).

use std::sync::Arc;

use clsm_util::error::{Error, Result};

use crate::format::{compare_internal_to_target, ValueKind};
use crate::iter::InternalIterator;
use crate::sstable::TableIter;
use crate::version::{FileMeta, TableOpener};

/// Iterates the files of a disjoint-range level in key order, opening
/// each table on first touch through its [`FileMeta`].
pub(crate) struct LevelIter {
    opener: Arc<TableOpener>,
    files: Vec<Arc<FileMeta>>,
    /// Read each table with [`Table::one_pass_iter`] instead of the
    /// block-cached [`Table::iter`].
    ///
    /// [`Table::one_pass_iter`]: crate::sstable::Table::one_pass_iter
    /// [`Table::iter`]: crate::sstable::Table::iter
    one_pass: bool,
    /// Index of the file currently being iterated.
    idx: usize,
    table_iter: Option<TableIter>,
    error: Option<Error>,
}

impl LevelIter {
    /// Creates an iterator over `files`, which must be sorted by
    /// smallest key with disjoint user-key ranges.
    pub(crate) fn new(opener: Arc<TableOpener>, files: Vec<Arc<FileMeta>>) -> Self {
        LevelIter {
            opener,
            files,
            one_pass: false,
            idx: 0,
            table_iter: None,
            error: None,
        }
    }

    /// Like [`LevelIter::new`], for a reader that walks the level once
    /// front to back (compaction): each table is read in sequential,
    /// checksummed chunks that bypass the block cache.
    pub(crate) fn one_pass(opener: Arc<TableOpener>, files: Vec<Arc<FileMeta>>) -> Self {
        LevelIter {
            one_pass: true,
            ..LevelIter::new(opener, files)
        }
    }

    fn open_file(&mut self, idx: usize) -> bool {
        self.idx = idx;
        if idx >= self.files.len() {
            self.table_iter = None;
            return false;
        }
        match self.files[idx].table(&self.opener) {
            Ok(table) => {
                self.table_iter = Some(if self.one_pass {
                    table.one_pass_iter()
                } else {
                    table.iter()
                });
                true
            }
            Err(e) => {
                self.error.get_or_insert(e);
                self.table_iter = None;
                false
            }
        }
    }

    /// Moves to the next file while the current one is exhausted. A
    /// table that ended in an error ends the iteration with it.
    fn skip_exhausted_forward(&mut self) {
        while let Some(t) = self.table_iter.as_ref().filter(|t| !t.valid()) {
            if let Err(e) = t.status() {
                self.error.get_or_insert(e);
            }
            if self.error.is_some() {
                return;
            }
            let next = self.idx + 1;
            if !self.open_file(next) {
                return;
            }
            if let Some(t) = &mut self.table_iter {
                t.seek_to_first();
            }
        }
    }
}

impl InternalIterator for LevelIter {
    fn valid(&self) -> bool {
        self.table_iter.as_ref().is_some_and(|t| t.valid())
    }

    fn seek_to_first(&mut self) {
        if self.open_file(0) {
            if let Some(t) = &mut self.table_iter {
                t.seek_to_first();
            }
            self.skip_exhausted_forward();
        }
    }

    fn seek(&mut self, user_key: &[u8], ts: u64) {
        // First file whose largest key is >= the target.
        let idx = self.files.partition_point(|f| {
            compare_internal_to_target(&f.largest, user_key, ts) == std::cmp::Ordering::Less
        });
        if self.open_file(idx) {
            if let Some(t) = &mut self.table_iter {
                t.seek(user_key, ts);
            }
            self.skip_exhausted_forward();
        }
    }

    fn next(&mut self) {
        if let Some(t) = &mut self.table_iter {
            t.next();
        }
        self.skip_exhausted_forward();
    }

    fn user_key(&self) -> &[u8] {
        self.table_iter.as_ref().expect("valid").user_key()
    }

    fn ts(&self) -> u64 {
        self.table_iter.as_ref().expect("valid").ts()
    }

    fn kind(&self) -> ValueKind {
        self.table_iter.as_ref().expect("valid").kind()
    }

    fn value(&self) -> &[u8] {
        self.table_iter.as_ref().expect("valid").value()
    }

    fn status(&self) -> Result<()> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        if let Some(t) = &self.table_iter {
            t.status()?;
        }
        Ok(())
    }
}
