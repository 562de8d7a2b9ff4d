//! Parsed block and its iterator.

use std::ops::Range;
use std::sync::Arc;

use clsm_util::coding::{decode_fixed32, get_varint32};
use clsm_util::error::{Error, Result};

use crate::format::{compare_internal_to_target, split_internal_key, ValueKind, TAG_SIZE};
use crate::iter::InternalIterator;

/// An immutable, parsed block (data or index).
#[derive(Debug)]
pub struct Block {
    data: Vec<u8>,
    /// Offset where the restart array begins.
    restarts_offset: usize,
    num_restarts: usize,
}

impl Block {
    /// Validates the trailer and wraps the contents.
    pub fn parse(data: Vec<u8>) -> Result<Block> {
        if data.len() < 4 {
            return Err(Error::corruption("block too small"));
        }
        let num_restarts = decode_fixed32(&data[data.len() - 4..]) as usize;
        let trailer = 4 + num_restarts * 4;
        if data.len() < trailer {
            return Err(Error::corruption("block restart array truncated"));
        }
        let restarts_offset = data.len() - trailer;
        Ok(Block {
            data,
            restarts_offset,
            num_restarts,
        })
    }

    /// Approximate in-memory size (for cache accounting).
    pub(crate) fn size(&self) -> usize {
        self.data.len()
    }

    fn restart_point(&self, i: usize) -> usize {
        debug_assert!(i < self.num_restarts);
        decode_fixed32(&self.data[self.restarts_offset + i * 4..]) as usize
    }

    /// The entries: the block without its restart array.
    fn entries(&self) -> &[u8] {
        &self.data[..self.restarts_offset]
    }

    /// Binary-searches the restart points for the last one whose key is
    /// ordered before `(user_key, ts)`, or the first, and returns its
    /// offset: where a seek's linear scan starts.
    fn seek_restart(&self, user_key: &[u8], ts: u64) -> Result<usize> {
        if self.num_restarts == 0 {
            return Ok(0);
        }
        let mut lo = 0usize;
        let mut hi = self.num_restarts - 1;
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            let entry = Entry::decode(self.entries(), self.restart_point(mid), 0)
                .map_err(|_| Error::corruption("bad restart entry"))?;
            let key = &self.entries()[entry.key_delta];
            if compare_internal_to_target(key, user_key, ts) == std::cmp::Ordering::Less {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        Ok(self.restart_point(lo))
    }

    /// Point seek on the borrowed block: the first entry at or after
    /// `(user_key, ts)`, if its user key is `user_key`, as its
    /// timestamp, kind and value. The keys the scan passes are rebuilt
    /// on the stack, so a seek allocates nothing unless a key is longer
    /// than 128 bytes.
    pub(crate) fn get(&self, user_key: &[u8], ts: u64) -> Result<Option<(u64, ValueKind, &[u8])>> {
        let data = self.entries();
        let mut offset = self.seek_restart(user_key, ts)?;
        let mut key = SeekKey::default();
        while offset < data.len() {
            let entry = Entry::decode(data, offset, key.len)?;
            key.set(entry.shared, &data[entry.key_delta]);
            if compare_internal_to_target(key.get(), user_key, ts) != std::cmp::Ordering::Less {
                let (found, found_ts, kind) = split_internal_key(key.get())?;
                return Ok((found == user_key).then(|| (found_ts, kind, &data[entry.value])));
            }
            offset = entry.value.end;
        }
        Ok(None)
    }

    /// Creates an iterator holding the block alive via `Arc`.
    pub fn iter(self: &Arc<Self>) -> BlockIter {
        BlockIter {
            block: Arc::clone(self),
            next_offset: 0,
            key: Vec::new(),
            value_off: 0,
            value_len: 0,
            valid: false,
            error: None,
        }
    }
}

/// One decoded entry: `[shared][non_shared][value_len][key delta][value]`.
struct Entry {
    /// Bytes of the previous key this entry's key starts with.
    shared: usize,
    key_delta: Range<usize>,
    /// Ends where the next entry starts.
    value: Range<usize>,
}

impl Entry {
    /// Decodes the entry at `offset` of `data` (a block's entries),
    /// whose previous key is `prev_len` bytes long. An entry that runs
    /// past the entries, shares more than the previous key holds, or
    /// whose key is too short to be an internal key is corruption, so
    /// every reader may split a decoded key without checking it.
    fn decode(data: &[u8], offset: usize, prev_len: usize) -> Result<Entry> {
        let at = data
            .get(offset..)
            .ok_or_else(|| Error::corruption("block entry offset out of bounds"))?;
        let (shared, a) = get_varint32(at)?;
        let (non_shared, b) = get_varint32(&data[offset + a..])?;
        let (value_len, c) = get_varint32(&data[offset + a + b..])?;
        let (shared, non_shared) = (shared as usize, non_shared as usize);
        let key_start = offset + a + b + c;
        let value_start = key_start + non_shared;
        let value_end = value_start + value_len as usize;
        if shared > prev_len || value_end > data.len() {
            return Err(Error::corruption("block entry out of bounds"));
        }
        if shared + non_shared < TAG_SIZE {
            return Err(Error::corruption("block key shorter than an internal key"));
        }
        Ok(Entry {
            shared,
            key_delta: key_start..value_start,
            value: value_start..value_end,
        })
    }
}

/// Longest key a point seek rebuilds on the stack.
const SEEK_KEY_INLINE: usize = 128;

/// The key under a point seek, rebuilt from prefix-compressed entries
/// on the stack; a key longer than [`SEEK_KEY_INLINE`] moves to the heap.
struct SeekKey {
    inline: [u8; SEEK_KEY_INLINE],
    len: usize,
    /// The key, once it has outgrown `inline`.
    spilled: Vec<u8>,
}

impl Default for SeekKey {
    fn default() -> Self {
        SeekKey {
            inline: [0; SEEK_KEY_INLINE],
            len: 0,
            spilled: Vec::new(),
        }
    }
}

impl SeekKey {
    /// Keeps the first `shared` bytes and appends `delta`.
    fn set(&mut self, shared: usize, delta: &[u8]) {
        let len = shared + delta.len();
        if self.spilled.is_empty() && len <= SEEK_KEY_INLINE {
            self.inline[shared..len].copy_from_slice(delta);
        } else {
            if self.spilled.is_empty() {
                self.spilled.extend_from_slice(&self.inline[..self.len]);
            }
            self.spilled.truncate(shared);
            self.spilled.extend_from_slice(delta);
        }
        self.len = len;
    }

    fn get(&self) -> &[u8] {
        if self.spilled.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spilled
        }
    }
}

/// Cursor over a block's entries.
pub struct BlockIter {
    block: Arc<Block>,
    /// Offset of the entry *after* the current one.
    next_offset: usize,
    /// Materialized current key (prefix + delta).
    key: Vec<u8>,
    value_off: usize,
    value_len: usize,
    valid: bool,
    error: Option<Error>,
}

impl BlockIter {
    /// The current entry's full stored key.
    pub fn raw_key(&self) -> &[u8] {
        debug_assert!(self.valid);
        &self.key
    }

    /// The current entry's raw value bytes.
    pub fn raw_value(&self) -> &[u8] {
        debug_assert!(self.valid);
        &self.block.data[self.value_off..self.value_off + self.value_len]
    }

    /// Returns `true` when positioned on an entry.
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Positions on the first entry.
    pub fn to_first(&mut self) {
        self.next_offset = 0;
        self.key.clear();
        self.valid = false;
        self.parse_next();
    }

    /// Positions on the first entry whose stored internal key is
    /// `>= (user_key, ts)`.
    pub fn seek_internal(&mut self, user_key: &[u8], ts: u64) {
        self.key.clear();
        self.valid = false;
        match self.block.seek_restart(user_key, ts) {
            Ok(offset) => self.next_offset = offset,
            Err(e) => {
                self.corrupt(e);
                return;
            }
        }
        // Linear scan from the chosen restart.
        loop {
            if !self.parse_next() {
                return; // exhausted or error
            }
            if compare_internal_to_target(&self.key, user_key, ts) != std::cmp::Ordering::Less {
                return;
            }
        }
    }

    /// Advances to the next entry.
    pub fn step(&mut self) {
        debug_assert!(self.valid);
        self.parse_next();
    }

    /// Parses the entry at `next_offset` into the cursor state.
    /// Returns `false` at block end or on corruption.
    fn parse_next(&mut self) -> bool {
        let data = self.block.entries();
        if self.next_offset >= data.len() {
            self.valid = false;
            return false;
        }
        match Entry::decode(data, self.next_offset, self.key.len()) {
            Ok(entry) => {
                self.key.truncate(entry.shared);
                self.key.extend_from_slice(&data[entry.key_delta]);
                self.value_off = entry.value.start;
                self.value_len = entry.value.len();
                self.next_offset = entry.value.end;
                self.valid = true;
                true
            }
            Err(e) => {
                self.corrupt(e);
                false
            }
        }
    }

    fn corrupt(&mut self, e: Error) {
        self.valid = false;
        self.error.get_or_insert(e);
    }
}

impl InternalIterator for BlockIter {
    fn valid(&self) -> bool {
        self.valid
    }

    fn seek_to_first(&mut self) {
        self.to_first();
    }

    fn seek(&mut self, user_key: &[u8], ts: u64) {
        self.seek_internal(user_key, ts);
    }

    fn next(&mut self) {
        self.step();
    }

    fn user_key(&self) -> &[u8] {
        split_internal_key(self.raw_key())
            .expect("valid internal key")
            .0
    }

    fn ts(&self) -> u64 {
        split_internal_key(self.raw_key())
            .expect("valid internal key")
            .1
    }

    fn kind(&self) -> ValueKind {
        split_internal_key(self.raw_key())
            .expect("valid internal key")
            .2
    }

    fn value(&self) -> &[u8] {
        self.raw_value()
    }

    fn status(&self) -> Result<()> {
        match &self.error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::InternalKey;
    use crate::sstable::BlockBuilder;

    fn build_block(entries: &[(&[u8], u64, &[u8])]) -> Arc<Block> {
        let mut b = BlockBuilder::default();
        for (k, ts, v) in entries {
            b.add(InternalKey::new(k, *ts, ValueKind::Put).encoded(), v);
        }
        Arc::new(Block::parse(b.finish()).unwrap())
    }

    #[test]
    fn iterate_all_entries() {
        let block = build_block(&[
            (b"a", 9, b"va9"),
            (b"a", 3, b"va3"),
            (b"b", 7, b"vb7"),
            (b"carrot", 1, b"vc1"),
        ]);
        let mut it = block.iter();
        it.seek_to_first();
        let mut got = Vec::new();
        while it.valid() {
            got.push((it.user_key().to_vec(), it.ts(), it.value().to_vec()));
            it.next();
        }
        assert_eq!(
            got,
            vec![
                (b"a".to_vec(), 9, b"va9".to_vec()),
                (b"a".to_vec(), 3, b"va3".to_vec()),
                (b"b".to_vec(), 7, b"vb7".to_vec()),
                (b"carrot".to_vec(), 1, b"vc1".to_vec()),
            ]
        );
        it.status().unwrap();
    }

    #[test]
    fn seek_finds_version_boundaries() {
        let block = build_block(&[(b"a", 9, b"x"), (b"a", 3, b"y"), (b"b", 7, b"z")]);
        let mut it = block.iter();
        it.seek(b"a", u64::MAX >> 1);
        assert_eq!((it.user_key(), it.ts()), (&b"a"[..], 9));
        it.seek(b"a", 5);
        assert_eq!((it.user_key(), it.ts()), (&b"a"[..], 3));
        it.seek(b"a", 2);
        assert_eq!((it.user_key(), it.ts()), (&b"b"[..], 7));
        it.seek(b"b", 7);
        assert_eq!((it.user_key(), it.ts()), (&b"b"[..], 7));
        it.seek(b"b", 6);
        assert!(!it.valid());
        it.status().unwrap();
    }

    #[test]
    fn seek_across_many_restarts() {
        let mut entries: Vec<(Vec<u8>, u64)> = Vec::new();
        for i in 0..500u32 {
            entries.push((format!("key{i:06}").into_bytes(), 1));
        }
        let mut b = BlockBuilder::default();
        for (k, ts) in &entries {
            b.add(InternalKey::new(k, *ts, ValueKind::Put).encoded(), b"v");
        }
        let block = Arc::new(Block::parse(b.finish()).unwrap());
        let mut it = block.iter();
        for i in (0..500).step_by(37) {
            let key = format!("key{i:06}");
            it.seek(key.as_bytes(), u64::MAX >> 1);
            assert!(it.valid(), "i={i}");
            assert_eq!(it.user_key(), key.as_bytes());
        }
        // Seek before the first and past the last.
        it.seek(b"key", u64::MAX >> 1);
        assert_eq!(it.user_key(), b"key000000");
        it.seek(b"zzz", u64::MAX >> 1);
        assert!(!it.valid());
    }

    #[test]
    fn corrupt_block_reports_error() {
        let block = build_block(&[(b"a", 1, b"v")]);
        // Clone the data and truncate inside the entry area.
        let mut raw = block.data.clone();
        let cut = raw.len() - 8; // keep trailer, damage restart offset
        raw[0] = 0xff; // invalid varint start for "shared"
        let _ = cut;
        let damaged = Arc::new(Block::parse(raw).unwrap());
        let mut it = damaged.iter();
        it.seek_to_first();
        assert!(!it.valid());
        assert!(it.status().is_err());
    }
}
