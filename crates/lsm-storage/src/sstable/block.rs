//! Parsed block and its iterator.

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
    pub fn size(&self) -> usize {
        self.data.len()
    }

    fn restart_point(&self, i: usize) -> usize {
        debug_assert!(i < self.num_restarts);
        decode_fixed32(&self.data[self.restarts_offset + i * 4..]) as usize
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
        // Binary search the restart points: find the last restart whose
        // key is ordered before the target.
        let mut lo = 0usize;
        let mut hi = self.block.num_restarts.saturating_sub(1);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            let off = self.block.restart_point(mid);
            match self.decode_restart_key(off) {
                Some(key_range) => {
                    let key = &self.block.data[key_range.0..key_range.1];
                    if compare_internal_to_target(key, user_key, ts) == std::cmp::Ordering::Less {
                        lo = mid;
                    } else {
                        hi = mid - 1;
                    }
                }
                None => {
                    self.corrupt("bad restart entry");
                    return;
                }
            }
        }
        // Linear scan from the chosen restart.
        self.next_offset = self.block.restart_point(lo);
        self.key.clear();
        self.valid = false;
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

    /// Decodes the key byte-range of a restart entry (shared = 0),
    /// or `None` if it is malformed or shorter than an internal key.
    fn decode_restart_key(&self, offset: usize) -> Option<(usize, usize)> {
        let data = &self.block.data[..self.block.restarts_offset];
        let (shared, a) = get_varint32(&data[offset..]).ok()?;
        if shared != 0 {
            return None;
        }
        let (non_shared, b) = get_varint32(&data[offset + a..]).ok()?;
        if (non_shared as usize) < TAG_SIZE {
            return None;
        }
        let (_vlen, c) = get_varint32(&data[offset + a + b..]).ok()?;
        let key_start = offset + a + b + c;
        let key_end = key_start + non_shared as usize;
        (key_end <= data.len()).then_some((key_start, key_end))
    }

    /// Parses the entry at `next_offset` into the cursor state.
    /// Returns `false` at block end or on corruption, which includes a
    /// key too short to be an internal key: every accessor may then
    /// split the current key without checking it.
    fn parse_next(&mut self) -> bool {
        let data = &self.block.data[..self.block.restarts_offset];
        if self.next_offset >= data.len() {
            self.valid = false;
            return false;
        }
        let offset = self.next_offset;
        let parsed = (|| -> Result<(usize, usize, usize, usize)> {
            let (shared, a) = get_varint32(&data[offset..])?;
            let (non_shared, b) = get_varint32(&data[offset + a..])?;
            let (value_len, c) = get_varint32(&data[offset + a + b..])?;
            Ok((
                shared as usize,
                non_shared as usize,
                value_len as usize,
                offset + a + b + c,
            ))
        })();
        match parsed {
            Ok((shared, non_shared, value_len, key_start)) => {
                let value_start = key_start + non_shared;
                if shared > self.key.len() || value_start + value_len > data.len() {
                    self.corrupt("block entry out of bounds");
                    return false;
                }
                if shared + non_shared < TAG_SIZE {
                    self.corrupt("block key shorter than an internal key");
                    return false;
                }
                self.key.truncate(shared);
                self.key.extend_from_slice(&data[key_start..value_start]);
                self.value_off = value_start;
                self.value_len = value_len;
                self.next_offset = value_start + value_len;
                self.valid = true;
                true
            }
            Err(e) => {
                self.corrupt(&e.to_string());
                false
            }
        }
    }

    fn corrupt(&mut self, msg: &str) {
        self.valid = false;
        if self.error.is_none() {
            self.error = Some(Error::corruption(msg.to_string()));
        }
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
