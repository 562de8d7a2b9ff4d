//! Prefix-compressed block construction.
//!
//! Entry layout: `[shared: varint][non_shared: varint][value_len:
//! varint][key delta][value]`. Every `restart_interval` entries a
//! restart point stores the full key; the block trailer lists restart
//! offsets for binary search.

use clsm_util::coding::{put_fixed32, put_varint32};

/// Default number of entries between restart points.
pub(crate) const RESTART_INTERVAL: usize = 16;

/// Accumulates sorted entries into one block.
#[derive(Debug)]
pub struct BlockBuilder {
    buffer: Vec<u8>,
    restarts: Vec<u32>,
    counter: usize,
    restart_interval: usize,
    last_key: Vec<u8>,
    num_entries: usize,
}

impl Default for BlockBuilder {
    fn default() -> Self {
        Self::new(RESTART_INTERVAL)
    }
}

impl BlockBuilder {
    /// Creates a builder with the given restart interval.
    pub fn new(restart_interval: usize) -> Self {
        BlockBuilder {
            buffer: Vec::new(),
            restarts: vec![0],
            counter: 0,
            restart_interval: restart_interval.max(1),
            last_key: Vec::new(),
            num_entries: 0,
        }
    }

    /// Appends an entry. Keys must arrive in strictly increasing
    /// internal order (the caller's responsibility).
    pub fn add(&mut self, key: &[u8], value: &[u8]) {
        let shared = if self.counter < self.restart_interval {
            common_prefix_len(&self.last_key, key)
        } else {
            self.restarts.push(self.buffer.len() as u32);
            self.counter = 0;
            0
        };
        let non_shared = key.len() - shared;
        put_varint32(&mut self.buffer, shared as u32);
        put_varint32(&mut self.buffer, non_shared as u32);
        put_varint32(&mut self.buffer, value.len() as u32);
        self.buffer.extend_from_slice(&key[shared..]);
        self.buffer.extend_from_slice(value);
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.counter += 1;
        self.num_entries += 1;
    }

    /// Appends the restart trailer and returns the block contents.
    pub fn finish(mut self) -> Vec<u8> {
        self.take_finished()
    }

    /// Appends the restart trailer and hands the block contents out,
    /// leaving the builder empty. Hand the buffer back with
    /// [`reuse`](Self::reuse) once it is written, so the next block
    /// fills the same allocation instead of regrowing one from zero.
    pub(crate) fn take_finished(&mut self) -> Vec<u8> {
        for &r in &self.restarts {
            put_fixed32(&mut self.buffer, r);
        }
        put_fixed32(&mut self.buffer, self.restarts.len() as u32);
        self.restarts.clear();
        self.restarts.push(0);
        self.counter = 0;
        self.last_key.clear();
        self.num_entries = 0;
        std::mem::take(&mut self.buffer)
    }

    /// Takes back a buffer handed out by
    /// [`take_finished`](Self::take_finished), cleared, as the next
    /// block's storage.
    pub(crate) fn reuse(&mut self, mut buffer: Vec<u8>) {
        debug_assert!(self.is_empty(), "reuse only between blocks");
        buffer.clear();
        self.buffer = buffer;
    }

    /// Current size estimate including the trailer.
    pub fn size_estimate(&self) -> usize {
        self.buffer.len() + self.restarts.len() * 4 + 4
    }

    /// Returns `true` if no entries were added.
    pub(crate) fn is_empty(&self) -> bool {
        self.num_entries == 0
    }

    /// The last key added (for index construction).
    pub(crate) fn last_key(&self) -> &[u8] {
        &self.last_key
    }
}

fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iter::InternalIterator;
    use crate::sstable::Block;
    use std::sync::Arc;

    #[test]
    fn empty_block_finishes() {
        let b = BlockBuilder::default();
        assert!(b.is_empty());
        let data = b.finish();
        // Just the trailer: one restart (0) + count.
        assert_eq!(data.len(), 8);
        let block = Block::parse(data).unwrap();
        let mut it = Arc::new(block).iter();
        it.seek_to_first();
        assert!(!it.valid());
    }

    #[test]
    fn prefix_compression_shrinks_shared_keys() {
        let mut plain = BlockBuilder::new(1); // restart every entry: no sharing
        let mut compressed = BlockBuilder::new(16);
        for i in 0..16u32 {
            let key = format!("common-long-prefix-{i:04}");
            plain.add(key.as_bytes(), b"v");
            compressed.add(key.as_bytes(), b"v");
        }
        assert!(compressed.finish().len() < plain.finish().len());
    }

    #[test]
    fn a_reused_buffer_builds_the_same_blocks() {
        let fill = |b: &mut BlockBuilder, from: u32| {
            for i in from..from + 40 {
                b.add(format!("key{i:05}").as_bytes(), &[i as u8; 9]);
            }
        };
        let mut reused = BlockBuilder::default();
        fill(&mut reused, 0);
        let first = reused.take_finished();
        assert!(reused.is_empty());
        let mut fresh = BlockBuilder::default();
        fill(&mut fresh, 0);
        assert_eq!(first, fresh.finish());

        let capacity = first.capacity();
        reused.reuse(first);
        fill(&mut reused, 100);
        let second = reused.take_finished();
        assert_eq!(second.capacity(), capacity, "no regrowth");
        let mut fresh = BlockBuilder::default();
        fill(&mut fresh, 100);
        assert_eq!(second, fresh.finish());
    }

    #[test]
    fn size_estimate_tracks_finish() {
        let mut b = BlockBuilder::default();
        for i in 0..100u32 {
            b.add(format!("{i:05}").as_bytes(), &[7; 10]);
        }
        let est = b.size_estimate();
        assert_eq!(b.finish().len(), est);
    }
}
