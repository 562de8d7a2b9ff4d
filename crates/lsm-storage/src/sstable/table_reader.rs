//! SSTable reading: point lookups and two-level iteration.
//!
//! [`Table::open`] decodes the index block once into a [`BlockIndex`]:
//! one flat array of separator keys and block handles, every handle
//! checked against the block region there. A get is then one binary
//! search over that array, one block-cache probe and one point seek
//! that borrows the block; iterators step through the same array.
//!
//! A table is read two ways. Gets and scans go block by block through
//! the block cache ([`Table::get`], [`Table::iter`]). One-pass readers —
//! compaction inputs and [`Store::verify_integrity`] — read the table
//! front to back in [`READAHEAD_BYTES`] chunks, one `read_at` each,
//! verify every block's checksum out of the chunk, and neither look up
//! nor insert anything in the cache ([`Table::one_pass_iter`]). Both
//! paths check each block's CRC through one helper, `verify_block`.
//!
//! [`Store::verify_integrity`]: crate::Store::verify_integrity

use std::path::Path;
use std::sync::Arc;

use clsm_util::bloom::BloomFilterPolicy;
use clsm_util::crc;
use clsm_util::env::{Env, RandomAccessFile};
use clsm_util::error::{Error, Result};

use crate::cache::BlockCache;
use crate::format::{compare_internal_to_target, ValueKind};
use crate::iter::InternalIterator;
use crate::sstable::{Block, BlockHandle, BlockIter, Footer, BLOCK_TRAILER_SIZE, FOOTER_SIZE};

/// Bytes a one-pass reader fetches per `read_at`. A block that
/// straddles a chunk boundary is completed by the next chunk; a block
/// larger than a chunk is read whole.
pub(crate) const READAHEAD_BYTES: usize = 256 * 1024;

/// An open, immutable table file.
pub struct Table {
    file: Box<dyn RandomAccessFile>,
    /// File length recorded at open. Blocks end where the footer
    /// starts, so `file_len - FOOTER_SIZE` bounds every block read.
    file_len: u64,
    /// Table file number; used as the cache-key namespace.
    number: u64,
    index: BlockIndex,
    filter: Vec<u8>,
    bloom: BloomFilterPolicy,
    cache: Option<Arc<BlockCache>>,
}

impl Table {
    /// Opens and validates a table file.
    pub fn open(
        env: &dyn Env,
        path: &Path,
        number: u64,
        bloom_bits_per_key: usize,
        cache: Option<Arc<BlockCache>>,
    ) -> Result<Table> {
        let file = env.open_read(path)?;
        let file_len = file.len()?;
        if file_len < FOOTER_SIZE as u64 {
            return Err(Error::corruption("table smaller than footer"));
        }
        let blocks_end = file_len - FOOTER_SIZE as u64;
        let mut footer_buf = vec![0u8; FOOTER_SIZE];
        file.read_exact_at(blocks_end, &mut footer_buf)?;
        let footer = Footer::decode(&footer_buf)?;

        let index_data = read_verified_block(file.as_ref(), blocks_end, footer.index_handle)?;
        let index = BlockIndex::decode(Block::parse(index_data)?, blocks_end)?;
        let filter = read_verified_block(file.as_ref(), blocks_end, footer.filter_handle)?;

        Ok(Table {
            file,
            file_len,
            number,
            index,
            filter,
            bloom: BloomFilterPolicy::new(bloom_bits_per_key),
            cache,
        })
    }

    /// End of the block region: the footer's offset.
    fn blocks_end(&self) -> u64 {
        self.file_len - FOOTER_SIZE as u64
    }

    /// Reads (or fetches from cache) the data block at `handle`. A get
    /// never waits on the cache: a busy shard is a miss, and the block
    /// read from the file then skips its insert.
    fn block(&self, handle: BlockHandle) -> Result<Arc<Block>> {
        if let Some(cache) = &self.cache {
            if let Some(block) = cache.get(self.number, handle.offset) {
                return Ok(block);
            }
        }
        let data = read_verified_block(self.file.as_ref(), self.blocks_end(), handle)?;
        let block = Arc::new(Block::parse(data)?);
        if let Some(cache) = &self.cache {
            cache.try_insert(self.number, handle.offset, Arc::clone(&block));
        }
        Ok(block)
    }

    /// Point lookup: the newest version of `user_key` with timestamp
    /// `<= max_ts` stored in this table.
    pub fn get(&self, user_key: &[u8], max_ts: u64) -> Result<Option<(u64, ValueKind, Vec<u8>)>> {
        if !self.bloom.key_may_match(user_key, &self.filter) {
            return Ok(None);
        }
        let Some(&handle) = self.index.handles.get(self.index.seek(user_key, max_ts)) else {
            return Ok(None);
        };
        let block = self.block(handle)?;
        let found = block.get(user_key, max_ts)?;
        debug_assert!(found.is_none_or(|(ts, _, _)| ts <= max_ts));
        Ok(found.map(|(ts, kind, value)| (ts, kind, value.to_vec())))
    }

    /// Creates a two-level iterator over the whole table that reads
    /// blocks through the block cache (gets and scans).
    pub fn iter(self: &Arc<Self>) -> TableIter {
        TableIter::new(self, None)
    }

    /// Creates a two-level iterator for a reader that walks the table
    /// once, front to back: blocks come out of sequential 256 KiB
    /// chunks (`READAHEAD_BYTES`), every block's checksum is verified,
    /// and the block cache is neither consulted nor filled. Seeks work
    /// too; they read on from the sought block.
    pub fn one_pass_iter(self: &Arc<Self>) -> TableIter {
        TableIter::new(self, Some(Readahead::default()))
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("number", &self.number)
            .finish()
    }
}

/// A table's index block, decoded once at open: data block `i` lives
/// at `handles[i]` and holds the keys after separator `i - 1`, up to
/// and including separator `i` (the last key of the block).
#[derive(Debug, Default)]
struct BlockIndex {
    /// The separator keys, back to back; key `i` ends at `key_ends[i]`.
    keys: Vec<u8>,
    key_ends: Vec<usize>,
    handles: Vec<BlockHandle>,
}

impl BlockIndex {
    /// Decodes every entry of `block`, checking that each handle lies
    /// in the block region, so a damaged index fails the open rather
    /// than a later get.
    fn decode(block: Block, blocks_end: u64) -> Result<BlockIndex> {
        let mut index = BlockIndex {
            keys: Vec::with_capacity(block.size()),
            ..BlockIndex::default()
        };
        let mut entries = Arc::new(block).iter();
        entries.to_first();
        while entries.is_valid() {
            let (handle, _) = BlockHandle::decode_from(entries.raw_value())?;
            check_handle(handle, blocks_end)?;
            index.keys.extend_from_slice(entries.raw_key());
            index.key_ends.push(index.keys.len());
            index.handles.push(handle);
            entries.step();
        }
        entries.status()?;
        Ok(index)
    }

    fn key(&self, i: usize) -> &[u8] {
        let start = i.checked_sub(1).map_or(0, |prev| self.key_ends[prev]);
        &self.keys[start..self.key_ends[i]]
    }

    /// The first block whose separator is at or after `(user_key, ts)`:
    /// the only block that can hold that entry. `handles.len()` when
    /// the target is past the table's last key.
    fn seek(&self, user_key: &[u8], ts: u64) -> usize {
        let (mut lo, mut hi) = (0, self.handles.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if compare_internal_to_target(self.key(mid), user_key, ts) == std::cmp::Ordering::Less {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// Checks that the block at `handle`, trailer included, ends by
/// `blocks_end`, and returns the offset one past its trailer. The
/// footer carries no checksum, so a damaged handle is caught here, as
/// corruption, before anything is read.
fn check_handle(handle: BlockHandle, blocks_end: u64) -> Result<u64> {
    handle
        .offset
        .checked_add(handle.size)
        .and_then(|end| end.checked_add(BLOCK_TRAILER_SIZE as u64))
        .filter(|&end| end <= blocks_end)
        .ok_or_else(|| {
            Error::corruption(format!(
                "block handle {}+{} runs past the {blocks_end}-byte block region",
                handle.offset, handle.size
            ))
        })
}

/// Reads a block's contents and verifies its trailer CRC.
fn read_verified_block(
    file: &dyn RandomAccessFile,
    blocks_end: u64,
    handle: BlockHandle,
) -> Result<Vec<u8>> {
    check_handle(handle, blocks_end)?;
    let mut buf = vec![0u8; handle.size as usize + BLOCK_TRAILER_SIZE];
    file.read_exact_at(handle.offset, &mut buf)?;
    verify_block(&buf)?;
    buf.truncate(handle.size as usize);
    Ok(buf)
}

/// Verifies a block as stored — contents, then the trailer's
/// compression tag and masked CRC32C — and returns the contents.
fn verify_block(stored: &[u8]) -> Result<&[u8]> {
    let (contents, trailer) = stored.split_at(stored.len() - BLOCK_TRAILER_SIZE);
    let ty = trailer[0];
    if ty != 0 {
        return Err(Error::corruption(format!(
            "unsupported compression type {ty}"
        )));
    }
    let stored_crc = crc::unmask(u32::from_le_bytes(
        trailer[1..5].try_into().expect("4 bytes"),
    ));
    if stored_crc != crc::extend(crc::extend(0, contents), &[ty]) {
        return Err(Error::corruption("block checksum mismatch"));
    }
    Ok(contents)
}

/// The chunk buffer of a one-pass reader: `buf[..len]` holds the file's
/// bytes from offset `start`.
#[derive(Default)]
struct Readahead {
    buf: Vec<u8>,
    start: u64,
    len: usize,
}

impl Readahead {
    /// Returns the stored bytes (contents and trailer) of the block at
    /// `handle`, reading the next chunk when the block is not wholly
    /// buffered. A block whose head is buffered keeps it and reads on
    /// from the buffer's end, so a front-to-back walk reads each byte
    /// once, in [`READAHEAD_BYTES`] reads.
    fn fetch(
        &mut self,
        file: &dyn RandomAccessFile,
        blocks_end: u64,
        handle: BlockHandle,
    ) -> Result<&[u8]> {
        let end = check_handle(handle, blocks_end)?;
        let buf_end = self.start + self.len as u64;
        if handle.offset < self.start || end > buf_end {
            let (kept, read_from) = if (self.start..buf_end).contains(&handle.offset) {
                let head = (handle.offset - self.start) as usize;
                self.buf.copy_within(head..self.len, 0);
                (self.len - head, buf_end)
            } else {
                (0, handle.offset)
            };
            let want = (READAHEAD_BYTES as u64)
                .max(end - read_from)
                .min(blocks_end - read_from) as usize;
            if self.buf.len() < kept + want {
                self.buf.resize(kept + want, 0);
            }
            self.start = handle.offset;
            self.len = 0;
            file.read_exact_at(read_from, &mut self.buf[kept..kept + want])?;
            self.len = kept + want;
        }
        let from = (handle.offset - self.start) as usize;
        Ok(&self.buf[from..from + (end - handle.offset) as usize])
    }
}

/// Two-level iterator: the decoded index → data blocks, read through
/// the block cache or, when built by [`Table::one_pass_iter`], out of
/// sequential readahead chunks.
pub struct TableIter {
    table: Arc<Table>,
    /// The data block under the cursor: an index into the table's
    /// [`BlockIndex`], `handles.len()` once past the last block.
    block: usize,
    data_iter: Option<BlockIter>,
    readahead: Option<Readahead>,
    error: Option<Error>,
}

impl TableIter {
    fn new(table: &Arc<Table>, readahead: Option<Readahead>) -> TableIter {
        TableIter {
            table: Arc::clone(table),
            block: 0,
            data_iter: None,
            readahead,
            error: None,
        }
    }

    /// Reads the data block at `handle` the way this iterator reads.
    fn read_block(&mut self, handle: BlockHandle) -> Result<Arc<Block>> {
        match &mut self.readahead {
            None => self.table.block(handle),
            Some(readahead) => {
                let table = &self.table;
                let stored = readahead.fetch(table.file.as_ref(), table.blocks_end(), handle)?;
                Ok(Arc::new(Block::parse(verify_block(stored)?.to_vec())?))
            }
        }
    }

    /// Loads data block `self.block`, if there is one.
    fn load_data_block(&mut self) -> bool {
        let Some(&handle) = self.table.index.handles.get(self.block) else {
            self.data_iter = None;
            return false;
        };
        match self.read_block(handle) {
            Ok(block) => {
                self.data_iter = Some(block.iter());
                true
            }
            Err(e) => {
                self.error.get_or_insert(e);
                self.data_iter = None;
                false
            }
        }
    }

    /// Advances through data blocks until the data iterator is valid.
    /// A data block that ended in an error ends the iteration with it.
    fn skip_empty_blocks_forward(&mut self) {
        while self.data_iter.as_ref().is_none_or(|d| !d.is_valid()) {
            if let Some(Err(e)) = self.data_iter.as_ref().map(|d| d.status()) {
                self.error.get_or_insert(e);
                return;
            }
            if self.block >= self.table.index.handles.len() {
                self.data_iter = None;
                return;
            }
            self.block += 1;
            if self.load_data_block() {
                if let Some(d) = &mut self.data_iter {
                    d.to_first();
                }
            } else {
                return;
            }
        }
    }
}

impl InternalIterator for TableIter {
    fn valid(&self) -> bool {
        self.data_iter.as_ref().is_some_and(|d| d.is_valid())
    }

    fn seek_to_first(&mut self) {
        self.block = 0;
        if self.load_data_block() {
            if let Some(d) = &mut self.data_iter {
                d.to_first();
            }
            self.skip_empty_blocks_forward();
        }
    }

    fn seek(&mut self, user_key: &[u8], ts: u64) {
        self.block = self.table.index.seek(user_key, ts);
        if self.load_data_block() {
            if let Some(d) = &mut self.data_iter {
                d.seek_internal(user_key, ts);
            }
            self.skip_empty_blocks_forward();
        }
    }

    fn next(&mut self) {
        if let Some(d) = &mut self.data_iter {
            d.step();
        }
        self.skip_empty_blocks_forward();
    }

    fn user_key(&self) -> &[u8] {
        self.data_iter.as_ref().expect("valid").user_key()
    }

    fn ts(&self) -> u64 {
        self.data_iter.as_ref().expect("valid").ts()
    }

    fn kind(&self) -> ValueKind {
        self.data_iter.as_ref().expect("valid").kind()
    }

    fn value(&self) -> &[u8] {
        self.data_iter.as_ref().expect("valid").value()
    }

    fn status(&self) -> Result<()> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        if let Some(d) = &self.data_iter {
            d.status()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::InternalKey;
    use crate::sstable::TableBuilder;
    use clsm_util::env::RealEnv;
    use std::fs::File;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("table-{}-{}", std::process::id(), name));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn build_table(
        dir: &Path,
        entries: &[(&[u8], u64, ValueKind, &[u8])],
        block_size: usize,
    ) -> Arc<Table> {
        let path = dir.join("t.sst");
        let mut b = TableBuilder::new(Box::new(File::create(&path).unwrap()), block_size, 10);
        for (k, ts, kind, v) in entries {
            b.add(InternalKey::new(k, *ts, *kind).encoded(), v).unwrap();
        }
        let summary = b.finish().unwrap();
        assert_eq!(summary.num_entries, entries.len() as u64);
        Arc::new(Table::open(&RealEnv, &path, 1, 10, None).unwrap())
    }

    #[test]
    fn build_open_get() {
        let dir = tmpdir("basic");
        let table = build_table(
            &dir,
            &[
                (b"alpha", 3, ValueKind::Put, b"va"),
                (b"beta", 9, ValueKind::Put, b"vb9"),
                (b"beta", 2, ValueKind::Put, b"vb2"),
                (b"gamma", 5, ValueKind::Delete, b""),
            ],
            4096,
        );
        assert_eq!(
            table.get(b"alpha", 100).unwrap().unwrap(),
            (3, ValueKind::Put, b"va".to_vec())
        );
        assert_eq!(table.get(b"beta", 100).unwrap().unwrap().2, b"vb9".to_vec());
        assert_eq!(table.get(b"beta", 5).unwrap().unwrap().2, b"vb2".to_vec());
        assert_eq!(table.get(b"beta", 1).unwrap(), None);
        assert_eq!(
            table.get(b"gamma", 100).unwrap().unwrap().1,
            ValueKind::Delete
        );
        assert_eq!(table.get(b"delta", 100).unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn many_blocks_iterate_in_order() {
        let dir = tmpdir("multiblock");
        let mut entries = Vec::new();
        let values: Vec<Vec<u8>> = (0..300u32).map(|i| vec![(i % 251) as u8; 64]).collect();
        let keys: Vec<Vec<u8>> = (0..300u32)
            .map(|i| format!("key{i:06}").into_bytes())
            .collect();
        for i in 0..300usize {
            entries.push((
                keys[i].as_slice(),
                (i + 1) as u64,
                ValueKind::Put,
                values[i].as_slice(),
            ));
        }
        // Tiny blocks force many data blocks.
        let table = build_table(&dir, &entries, 256);
        let mut it = table.iter();
        it.seek_to_first();
        let mut n = 0;
        let mut last: Option<Vec<u8>> = None;
        while it.valid() {
            if let Some(l) = &last {
                assert!(it.user_key() > l.as_slice());
            }
            assert_eq!(it.value(), values[n].as_slice());
            last = Some(it.user_key().to_vec());
            n += 1;
            it.next();
        }
        it.status().unwrap();
        assert_eq!(n, 300);
        // Seeks land exactly.
        it.seek(b"key000100", u64::MAX >> 1);
        assert_eq!(it.user_key(), b"key000100");
        it.seek(b"key000299", u64::MAX >> 1);
        assert_eq!(it.user_key(), b"key000299");
        it.seek(b"key999999", u64::MAX >> 1);
        assert!(!it.valid());
        // Point gets across blocks.
        for i in (0..300).step_by(23) {
            let k = format!("key{i:06}");
            let got = table.get(k.as_bytes(), u64::MAX >> 1).unwrap().unwrap();
            assert_eq!(got.0, (i + 1) as u64);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_block_detected() {
        let dir = tmpdir("corrupt");
        let table = build_table(&dir, &[(b"k", 1, ValueKind::Put, b"v")], 4096);
        drop(table);
        let path = dir.join("t.sst");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[2] ^= 0x55; // damage the first data block
        std::fs::write(&path, &bytes).unwrap();
        let table = Arc::new(Table::open(&RealEnv, &path, 1, 10, None).unwrap());
        assert!(table.get(b"k", 100).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn block_cache_is_used() {
        let dir = tmpdir("cached");
        let cache = Arc::new(BlockCache::new(1 << 20));
        let path = dir.join("t.sst");
        let mut b = TableBuilder::new(Box::new(File::create(&path).unwrap()), 4096, 10);
        b.add(InternalKey::new(b"k", 1, ValueKind::Put).encoded(), b"v")
            .unwrap();
        b.finish().unwrap();
        let table = Table::open(&RealEnv, &path, 42, 10, Some(Arc::clone(&cache))).unwrap();
        assert!(table.get(b"k", 100).unwrap().is_some());
        let (hits_before, _) = cache.stats();
        assert!(table.get(b"k", 100).unwrap().is_some());
        let (hits_after, _) = cache.stats();
        assert!(hits_after > hits_before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    type Entry = (Vec<u8>, u64, ValueKind, Vec<u8>);

    /// Stored size of a block holding one entry with a 5-byte user key
    /// and a `value_len`-byte value: three varints (shared = 0,
    /// non-shared = 13, value length), the 13-byte internal key, the
    /// value, one restart, the restart count and the block trailer.
    fn one_entry_block_len(value_len: usize) -> usize {
        let varint = if value_len < 1 << 7 {
            1
        } else if value_len < 1 << 14 {
            2
        } else {
            3
        };
        1 + 1 + varint + 13 + value_len + 4 + 4 + BLOCK_TRAILER_SIZE
    }

    /// Value lengths whose one-entry blocks fill exactly `bytes`.
    fn values_filling(bytes: usize) -> Vec<usize> {
        let mut lens = Vec::new();
        let mut left = bytes;
        while left > 2 * one_entry_block_len(4000) {
            lens.push(4000);
            left -= one_entry_block_len(4000);
        }
        let last = (left.saturating_sub(40)..left)
            .find(|&v| one_entry_block_len(v) == left)
            .expect("a value length fills the rest");
        lens.push(last);
        lens
    }

    /// Builds a table with one entry per data block, of the given value
    /// lengths, and returns it with its entries.
    fn one_entry_blocks(dir: &Path, value_lens: &[usize]) -> (Arc<Table>, Vec<Entry>) {
        let entries: Vec<Entry> = value_lens
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                let value = (0..len).map(|j| (i * 31 + j) as u8).collect();
                let kind = if i % 5 == 4 {
                    ValueKind::Delete
                } else {
                    ValueKind::Put
                };
                (format!("k{i:04}").into_bytes(), i as u64 + 1, kind, value)
            })
            .collect();
        let path = dir.join("blocks.sst");
        // A block size below every entry's size cuts a block per entry.
        let mut b = TableBuilder::new(Box::new(File::create(&path).unwrap()), 64, 10);
        for (k, ts, kind, v) in &entries {
            b.add(InternalKey::new(k, *ts, *kind).encoded(), v).unwrap();
        }
        b.finish().unwrap();
        let table = Arc::new(Table::open(&RealEnv, &path, 7, 10, None).unwrap());
        (table, entries)
    }

    /// Where each data block's stored bytes end, from the index.
    fn block_ends(table: &Table) -> Vec<u64> {
        table
            .index
            .handles
            .iter()
            .map(|h| h.offset + h.size + BLOCK_TRAILER_SIZE as u64)
            .collect()
    }

    fn drain(mut it: TableIter) -> Vec<Entry> {
        let mut out = Vec::new();
        it.seek_to_first();
        while it.valid() {
            out.push((
                it.user_key().to_vec(),
                it.ts(),
                it.kind(),
                it.value().to_vec(),
            ));
            it.next();
        }
        it.status().unwrap();
        out
    }

    #[test]
    fn one_pass_reader_yields_exactly_the_cached_iterators_entries() {
        let dir = tmpdir("one-pass");
        let chunk = READAHEAD_BYTES as u64;
        let exactly_one_chunk = values_filling(READAHEAD_BYTES);
        let mut block_past_a_chunk = exactly_one_chunk.clone();
        block_past_a_chunk.push(300);
        let mut straddling = values_filling(READAHEAD_BYTES - 1000);
        straddling.extend([4000, 4000, 200]);
        let shapes = [
            ("one block", vec![100]),
            ("exactly one chunk", exactly_one_chunk),
            ("one block more than a chunk", block_past_a_chunk),
            ("a block straddles the chunk boundary", straddling),
            (
                "a block larger than a chunk",
                vec![100, READAHEAD_BYTES + 5000, 100],
            ),
        ];
        for (name, lens) in shapes {
            let (table, entries) = one_entry_blocks(&dir, &lens);
            let ends = block_ends(&table);
            assert_eq!(ends.len(), lens.len(), "{name}: one block per entry");
            let n = ends.len();
            let layout_holds = match name {
                "one block" => n == 1,
                "exactly one chunk" => ends[n - 1] == chunk,
                "one block more than a chunk" => ends[n - 2] == chunk,
                "a block straddles the chunk boundary" => ends
                    .windows(2)
                    .any(|w| w[0] < chunk && w[1] > chunk && w[1] - w[0] > 1000),
                _ => ends.windows(2).any(|w| w[1] - w[0] > chunk),
            };
            assert!(layout_holds, "{name}: layout {ends:?}");
            let cached = drain(table.iter());
            assert_eq!(cached, entries, "{name}: cached iterator");
            assert_eq!(drain(table.one_pass_iter()), cached, "{name}: one-pass");

            // A seek back into the middle re-reads from the sought block.
            let mid = &entries[entries.len() / 2];
            let mut it = table.one_pass_iter();
            it.seek_to_first();
            it.seek(&mid.0, mid.1);
            assert!(it.valid(), "{name}: seek");
            assert_eq!((it.user_key(), it.ts()), (mid.0.as_slice(), mid.1));
            assert_eq!(it.value(), mid.3.as_slice());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_pass_reader_neither_reads_nor_fills_the_block_cache() {
        let dir = tmpdir("one-pass-cache");
        let path = dir.join("t.sst");
        let mut b = TableBuilder::new(Box::new(File::create(&path).unwrap()), 256, 10);
        for i in 0..500u32 {
            let key = InternalKey::new(format!("key{i:05}").as_bytes(), 1, ValueKind::Put);
            b.add(key.encoded(), &[i as u8; 40]).unwrap();
        }
        b.finish().unwrap();
        let cache = Arc::new(BlockCache::new(1 << 20));
        let table =
            Arc::new(Table::open(&RealEnv, &path, 3, 10, Some(Arc::clone(&cache))).unwrap());
        assert_eq!(drain(table.one_pass_iter()).len(), 500);
        assert_eq!(cache.stats(), (0, 0));
        assert_eq!(cache.used_bytes(), 0);
        assert!(table.get(b"key00010", 5).unwrap().is_some());
        assert_eq!(cache.stats(), (0, 1));
        assert!(cache.used_bytes() > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
