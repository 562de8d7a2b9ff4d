//! SSTable construction.
//!
//! The builder allocates per block, not per entry: each key contributes
//! a 32-bit Bloom hash (not an owned copy), a finished data block's
//! buffer comes back to the block builder cleared, and the last key of
//! each block is kept in one reused buffer until its index entry is
//! written.

use clsm_util::bloom::{bloom_hash, BloomFilterPolicy};
use clsm_util::crc;
use clsm_util::env::WritableFile;
use clsm_util::error::Result;

use crate::format::{compare_internal_keys, split_internal_key};
use crate::sstable::{BlockBuilder, BlockHandle, Footer, BLOCK_TRAILER_SIZE};

/// Summary of a finished table, fed into the version edit.
#[derive(Debug, Clone)]
pub struct TableSummary {
    /// Total file size in bytes.
    pub file_size: u64,
    /// Smallest internal key in the table.
    pub smallest: Vec<u8>,
    /// Largest internal key in the table.
    pub largest: Vec<u8>,
    /// Number of entries.
    pub num_entries: u64,
}

/// Streams sorted internal entries into an SSTable file.
pub struct TableBuilder {
    file: Box<dyn WritableFile>,
    offset: u64,
    data_block: BlockBuilder,
    index_block: BlockBuilder,
    /// Handle of the block flushed most recently, whose index entry is
    /// emitted lazily under the last key in `pending_key`.
    pending_handle: Option<BlockHandle>,
    pending_key: Vec<u8>,
    /// Scratch space for encoding one index entry's handle.
    handle_buf: Vec<u8>,
    /// [`bloom_hash`] of every user key added, duplicates included (the
    /// Bloom policy handles them fine).
    filter_hashes: Vec<u32>,
    bloom: BloomFilterPolicy,
    block_size: usize,
    num_entries: u64,
    smallest: Option<Vec<u8>>,
    last_key: Vec<u8>,
}

impl TableBuilder {
    /// Creates a builder writing to `file`.
    pub fn new(file: Box<dyn WritableFile>, block_size: usize, bloom_bits_per_key: usize) -> Self {
        TableBuilder {
            file,
            offset: 0,
            data_block: BlockBuilder::default(),
            index_block: BlockBuilder::new(1),
            pending_handle: None,
            pending_key: Vec::new(),
            handle_buf: Vec::with_capacity(20),
            filter_hashes: Vec::new(),
            bloom: BloomFilterPolicy::new(bloom_bits_per_key),
            block_size: block_size.max(64),
            num_entries: 0,
            smallest: None,
            last_key: Vec::new(),
        }
    }

    /// Appends an entry. Internal keys must arrive strictly increasing.
    pub fn add(&mut self, internal_key: &[u8], value: &[u8]) -> Result<()> {
        debug_assert!(
            self.last_key.is_empty()
                || compare_internal_keys(&self.last_key, internal_key) == std::cmp::Ordering::Less,
            "keys must be added in order"
        );
        self.emit_pending_index_entry();
        if self.smallest.is_none() {
            self.smallest = Some(internal_key.to_vec());
        }
        let user_key = split_internal_key(internal_key)?.0;
        self.filter_hashes.push(bloom_hash(user_key));
        self.data_block.add(internal_key, value);
        self.last_key.clear();
        self.last_key.extend_from_slice(internal_key);
        self.num_entries += 1;
        if self.data_block.size_estimate() >= self.block_size {
            self.flush_data_block()?;
        }
        Ok(())
    }

    fn emit_pending_index_entry(&mut self) {
        if let Some(handle) = self.pending_handle.take() {
            self.handle_buf.clear();
            handle.encode_to(&mut self.handle_buf);
            self.index_block.add(&self.pending_key, &self.handle_buf);
        }
    }

    fn flush_data_block(&mut self) -> Result<()> {
        if self.data_block.is_empty() {
            return Ok(());
        }
        self.pending_key.clear();
        self.pending_key
            .extend_from_slice(self.data_block.last_key());
        let contents = self.data_block.take_finished();
        let handle = self.write_raw_block(&contents)?;
        self.data_block.reuse(contents);
        self.pending_handle = Some(handle);
        Ok(())
    }

    /// Writes `contents` + trailer and returns its handle.
    fn write_raw_block(&mut self, contents: &[u8]) -> Result<BlockHandle> {
        let handle = BlockHandle {
            offset: self.offset,
            size: contents.len() as u64,
        };
        // Trailer: compression type (0 = none) + masked CRC of
        // contents + type byte.
        let mut trailer = [0u8; BLOCK_TRAILER_SIZE];
        let c = crc::extend(crc::extend(0, contents), &trailer[..1]);
        trailer[1..].copy_from_slice(&crc::mask(c).to_le_bytes());
        self.file.append(contents)?;
        self.file.append(&trailer)?;
        self.offset += contents.len() as u64 + BLOCK_TRAILER_SIZE as u64;
        Ok(handle)
    }

    /// Finishes the table: filter block, index block, footer, fsync.
    pub fn finish(mut self) -> Result<TableSummary> {
        self.flush_data_block()?;
        self.emit_pending_index_entry();
        // Filter block.
        let filter = self.bloom.create_filter_from_hashes(&self.filter_hashes);
        let filter_handle = self.write_raw_block(&filter)?;
        // Index block.
        let index = self.index_block.take_finished();
        let index_handle = self.write_raw_block(&index)?;
        // Footer.
        let footer = Footer {
            filter_handle,
            index_handle,
        };
        self.file.append(&footer.encode())?;
        self.offset += super::FOOTER_SIZE as u64;
        self.file.sync()?;

        Ok(TableSummary {
            file_size: self.offset,
            smallest: self.smallest.unwrap_or_default(),
            largest: self.last_key,
            num_entries: self.num_entries,
        })
    }

    /// Bytes written so far (excludes the current unflushed block).
    pub(crate) fn current_size(&self) -> u64 {
        self.offset + self.data_block.size_estimate() as u64
    }
}
