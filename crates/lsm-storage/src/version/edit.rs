//! Version edits: the delta records written to the manifest.

use clsm_util::coding::{
    get_length_prefixed_slice, get_varint64, put_length_prefixed_slice, put_varint64,
};
use clsm_util::error::{Error, Result};

/// File metadata as serialized in the manifest (no runtime state).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewFile {
    /// Level the file joins.
    pub level: u32,
    /// Table file number.
    pub number: u64,
    /// File size in bytes.
    pub file_size: u64,
    /// Smallest internal key.
    pub smallest: Vec<u8>,
    /// Largest internal key.
    pub largest: Vec<u8>,
}

/// A delta applied to the version state, logged in the manifest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VersionEdit {
    /// WAL number below which logs are fully flushed (may retire logs).
    pub log_number: Option<u64>,
    /// High-water mark of allocated file numbers.
    pub next_file_number: Option<u64>,
    /// Highest timestamp known flushed to disk.
    pub last_ts: Option<u64>,
    /// `(level, file number)` pairs removed by a compaction.
    pub deleted_files: Vec<(u32, u64)>,
    /// Files added by a flush or compaction.
    pub new_files: Vec<NewFile>,
}

// Record tags.
const TAG_LOG_NUMBER: u64 = 1;
const TAG_NEXT_FILE: u64 = 2;
const TAG_LAST_TS: u64 = 3;
const TAG_DELETED_FILE: u64 = 4;
const TAG_NEW_FILE: u64 = 5;

impl VersionEdit {
    /// Serializes the edit into one manifest record.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        if let Some(v) = self.log_number {
            put_varint64(&mut buf, TAG_LOG_NUMBER);
            put_varint64(&mut buf, v);
        }
        if let Some(v) = self.next_file_number {
            put_varint64(&mut buf, TAG_NEXT_FILE);
            put_varint64(&mut buf, v);
        }
        if let Some(v) = self.last_ts {
            put_varint64(&mut buf, TAG_LAST_TS);
            put_varint64(&mut buf, v);
        }
        for &(level, number) in &self.deleted_files {
            put_varint64(&mut buf, TAG_DELETED_FILE);
            put_varint64(&mut buf, level as u64);
            put_varint64(&mut buf, number);
        }
        for f in &self.new_files {
            put_varint64(&mut buf, TAG_NEW_FILE);
            put_varint64(&mut buf, f.level as u64);
            put_varint64(&mut buf, f.number);
            put_varint64(&mut buf, f.file_size);
            put_length_prefixed_slice(&mut buf, &f.smallest);
            put_length_prefixed_slice(&mut buf, &f.largest);
        }
        buf
    }

    /// Parses a manifest record.
    pub fn decode(mut src: &[u8]) -> Result<VersionEdit> {
        let mut edit = VersionEdit::default();
        while !src.is_empty() {
            let (tag, n) = get_varint64(src)?;
            src = &src[n..];
            match tag {
                TAG_LOG_NUMBER => {
                    let (v, n) = get_varint64(src)?;
                    src = &src[n..];
                    edit.log_number = Some(v);
                }
                TAG_NEXT_FILE => {
                    let (v, n) = get_varint64(src)?;
                    src = &src[n..];
                    edit.next_file_number = Some(v);
                }
                TAG_LAST_TS => {
                    let (v, n) = get_varint64(src)?;
                    src = &src[n..];
                    edit.last_ts = Some(v);
                }
                TAG_DELETED_FILE => {
                    let (level, n) = get_varint64(src)?;
                    src = &src[n..];
                    let (number, n) = get_varint64(src)?;
                    src = &src[n..];
                    edit.deleted_files.push((level as u32, number));
                }
                TAG_NEW_FILE => {
                    let (level, n) = get_varint64(src)?;
                    src = &src[n..];
                    let (number, n) = get_varint64(src)?;
                    src = &src[n..];
                    let (file_size, n) = get_varint64(src)?;
                    src = &src[n..];
                    let (smallest, n) = get_length_prefixed_slice(src)?;
                    let smallest = smallest.to_vec();
                    src = &src[n..];
                    let (largest, n) = get_length_prefixed_slice(src)?;
                    let largest = largest.to_vec();
                    src = &src[n..];
                    edit.new_files.push(NewFile {
                        level: level as u32,
                        number,
                        file_size,
                        smallest,
                        largest,
                    });
                }
                other => return Err(Error::corruption(format!("unknown edit tag {other}"))),
            }
        }
        Ok(edit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_edit_roundtrip() {
        let edit = VersionEdit::default();
        assert_eq!(VersionEdit::decode(&edit.encode()).unwrap(), edit);
    }

    #[test]
    fn full_edit_roundtrip() {
        let edit = VersionEdit {
            log_number: Some(12),
            next_file_number: Some(99),
            last_ts: Some(123_456_789),
            deleted_files: vec![(0, 3), (2, 17)],
            new_files: vec![
                NewFile {
                    level: 1,
                    number: 42,
                    file_size: 4096,
                    smallest: b"aaa\x01\x00\x00\x00\x00\x00\x00\x00".to_vec(),
                    largest: b"zzz\x09\x00\x00\x00\x00\x00\x00\x00".to_vec(),
                },
                NewFile {
                    level: 6,
                    number: 43,
                    file_size: 1,
                    smallest: vec![0; 8],
                    largest: vec![0xff; 9],
                },
            ],
        };
        assert_eq!(VersionEdit::decode(&edit.encode()).unwrap(), edit);
    }

    #[test]
    fn decode_rejects_unknown_tags_and_truncation() {
        assert!(VersionEdit::decode(&[0x63]).is_err());
        let edit = VersionEdit {
            log_number: Some(300),
            ..Default::default()
        };
        let enc = edit.encode();
        assert!(VersionEdit::decode(&enc[..enc.len() - 1]).is_err());
    }
}
