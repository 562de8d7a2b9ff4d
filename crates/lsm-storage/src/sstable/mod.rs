//! Sorted string tables: immutable on-disk runs of internal entries.
//!
//! File layout (LevelDB-compatible in structure):
//!
//! ```text
//! [data block 0]  [data block 1] ...        ← prefix-compressed entries
//! [filter block]                            ← Bloom filter over user keys
//! [index block]                             ← last key of each data block → handle
//! [footer]                                  ← handles of filter + index, magic
//! ```
//!
//! Every block is followed by a 5-byte trailer: a compression tag
//! (always 0 = none here) and a masked CRC32C covering block + tag.

mod block;
mod block_builder;
mod table_builder;
mod table_reader;

pub use block::{Block, BlockIter};
pub use block_builder::BlockBuilder;
pub use table_builder::TableBuilder;
pub use table_reader::{Table, TableIter};

use clsm_util::coding::{get_varint64, put_varint64};
use clsm_util::error::{Error, Result};

/// Magic number at the end of every table file.
pub(crate) const TABLE_MAGIC: u64 = 0xdb4775248b80fb57;

/// Size of the per-block trailer: type byte + crc32.
pub const BLOCK_TRAILER_SIZE: usize = 5;

/// Fixed footer size: two varint handles padded to 40 bytes + magic.
pub const FOOTER_SIZE: usize = 48;

/// Location of a block within a table file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHandle {
    /// Byte offset of the block start.
    pub offset: u64,
    /// Length of the block contents, excluding the trailer.
    pub size: u64,
}

impl BlockHandle {
    /// Appends the varint encoding to `dst`.
    pub fn encode_to(&self, dst: &mut Vec<u8>) {
        put_varint64(dst, self.offset);
        put_varint64(dst, self.size);
    }

    /// Decodes a handle from the front of `src`, returning it and the
    /// bytes consumed.
    pub fn decode_from(src: &[u8]) -> Result<(BlockHandle, usize)> {
        let (offset, a) = get_varint64(src)?;
        let (size, b) = get_varint64(&src[a..])?;
        Ok((BlockHandle { offset, size }, a + b))
    }
}

/// The footer: filter handle, index handle, magic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footer {
    /// Handle of the Bloom-filter block.
    pub filter_handle: BlockHandle,
    /// Handle of the index block.
    pub index_handle: BlockHandle,
}

impl Footer {
    /// Encodes to exactly [`FOOTER_SIZE`] bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(FOOTER_SIZE);
        self.filter_handle.encode_to(&mut buf);
        self.index_handle.encode_to(&mut buf);
        buf.resize(FOOTER_SIZE - 8, 0);
        buf.extend_from_slice(&TABLE_MAGIC.to_le_bytes());
        buf
    }

    /// Decodes from exactly [`FOOTER_SIZE`] bytes.
    pub fn decode(src: &[u8]) -> Result<Footer> {
        if src.len() != FOOTER_SIZE {
            return Err(Error::corruption("footer has wrong size"));
        }
        let magic = u64::from_le_bytes(src[FOOTER_SIZE - 8..].try_into().expect("8 bytes"));
        if magic != TABLE_MAGIC {
            return Err(Error::corruption("bad table magic"));
        }
        let (filter_handle, n) = BlockHandle::decode_from(src)?;
        let (index_handle, _) = BlockHandle::decode_from(&src[n..])?;
        Ok(Footer {
            filter_handle,
            index_handle,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_roundtrip() {
        for h in [
            BlockHandle { offset: 0, size: 0 },
            BlockHandle {
                offset: 12345,
                size: 4096,
            },
            BlockHandle {
                offset: u64::MAX / 2,
                size: u64::MAX / 3,
            },
        ] {
            let mut buf = Vec::new();
            h.encode_to(&mut buf);
            let (decoded, n) = BlockHandle::decode_from(&buf).unwrap();
            assert_eq!(decoded, h);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn footer_roundtrip() {
        let f = Footer {
            filter_handle: BlockHandle {
                offset: 100,
                size: 200,
            },
            index_handle: BlockHandle {
                offset: 300,
                size: 64,
            },
        };
        let enc = f.encode();
        assert_eq!(enc.len(), FOOTER_SIZE);
        assert_eq!(Footer::decode(&enc).unwrap(), f);
    }

    #[test]
    fn footer_rejects_bad_magic_and_size() {
        let f = Footer {
            filter_handle: BlockHandle { offset: 1, size: 2 },
            index_handle: BlockHandle { offset: 3, size: 4 },
        };
        let mut enc = f.encode();
        assert!(Footer::decode(&enc[1..]).is_err());
        enc[FOOTER_SIZE - 1] ^= 0xff;
        assert!(Footer::decode(&enc).is_err());
    }
}
