//! WAL reader with checksum validation and crash-tail detection.

use std::path::PathBuf;

use clsm_util::crc;
use clsm_util::env::RandomAccessFile;
use clsm_util::error::{Error, Result};

use super::{RecordType, BLOCK_SIZE, HEADER_SIZE};

/// Reads records back from a log file.
///
/// Damage at the tail of the log (torn writes after a crash) stops
/// replay at the last intact record and is reported as
/// [`Error::WalTruncated`] with the byte offset where the damage
/// begins, so recovery can distinguish the *expected* torn tail of
/// asynchronous logging ("a handful of writes may be lost due to a
/// crash", §4) from corruption in data that was supposed to be
/// durable. Corruption is never silently returned as data: every
/// fragment is CRC-checked.
pub struct LogReader {
    file: Box<dyn RandomAccessFile>,
    /// Path used in [`Error::WalTruncated`]; may be empty in tests.
    path: PathBuf,
    /// Current block, refilled BLOCK_SIZE at a time.
    buffer: Vec<u8>,
    /// Read offset within `buffer`.
    pos: usize,
    /// Absolute file offset of `buffer[0]`.
    block_start: u64,
    /// Absolute file offset the next refill reads from.
    next_offset: u64,
    /// True once EOF was reached while refilling.
    eof: bool,
    /// Offset of the header of an in-progress (FIRST seen, LAST
    /// pending) record, for torn-tail reporting.
    partial_start: Option<u64>,
    /// Set once damage was reported; further reads return `None`.
    failed: bool,
}

impl std::fmt::Debug for LogReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogReader")
            .field("path", &self.path)
            .field("offset", &(self.block_start + self.pos as u64))
            .finish()
    }
}

impl LogReader {
    /// Wraps an open log file positioned at the start.
    pub fn new(file: Box<dyn RandomAccessFile>) -> Self {
        Self::with_path(file, PathBuf::new())
    }

    /// Like [`LogReader::new`], with a path for error reporting.
    pub(crate) fn with_path(file: Box<dyn RandomAccessFile>, path: impl Into<PathBuf>) -> Self {
        LogReader {
            file,
            path: path.into(),
            buffer: Vec::new(),
            pos: 0,
            block_start: 0,
            next_offset: 0,
            eof: false,
            partial_start: None,
            failed: false,
        }
    }

    /// Reads the next full record, or `None` at clean end-of-log.
    ///
    /// A fragment with a bad checksum, bad type, or impossible length —
    /// or a record that begins but never completes — ends the log with
    /// [`Error::WalTruncated`]; replay keeps everything returned before
    /// the error. After the error, further reads return `None`.
    pub fn read_record(&mut self) -> Result<Option<Vec<u8>>> {
        let mut assembled: Option<Vec<u8>> = None;
        loop {
            let Some((ty, payload, frag_start)) = self.read_fragment()? else {
                if let Some(start) = self.partial_start.take() {
                    // FIRST without LAST at end-of-log: the record was
                    // torn mid-write; its bytes end the valid prefix.
                    return Err(self.fail(start));
                }
                return Ok(None);
            };
            match ty {
                RecordType::Full => {
                    // FIRST followed by FULL: the earlier prefix is a
                    // torn record; the FULL one is still intact.
                    self.partial_start = None;
                    return Ok(Some(payload));
                }
                RecordType::First => {
                    self.partial_start = Some(frag_start);
                    assembled = Some(payload);
                }
                RecordType::Middle => match &mut assembled {
                    Some(buf) => buf.extend_from_slice(&payload),
                    // MIDDLE without FIRST: skip (torn head).
                    None => continue,
                },
                RecordType::Last => match assembled.take() {
                    Some(mut buf) => {
                        self.partial_start = None;
                        buf.extend_from_slice(&payload);
                        return Ok(Some(buf));
                    }
                    None => continue,
                },
            }
        }
    }

    /// Marks the log as damaged at `offset` and builds the error.
    fn fail(&mut self, offset: u64) -> Error {
        self.failed = true;
        self.eof = true;
        self.pos = self.buffer.len();
        self.partial_start = None;
        Error::wal_truncated(self.path.clone(), offset)
    }

    /// Reads the next fragment (with its header's absolute offset), or
    /// `None` at end-of-log.
    fn read_fragment(&mut self) -> Result<Option<(RecordType, Vec<u8>, u64)>> {
        loop {
            if self.failed {
                return Ok(None);
            }
            // Skip block-trailer padding.
            if self.buffer.len() - self.pos < HEADER_SIZE {
                let tail_offset = self.block_start + self.pos as u64;
                let tail_damaged = self.buffer[self.pos..].iter().any(|b| *b != 0);
                if !self.refill()? {
                    if tail_damaged {
                        // The file ends in a partial, non-padding
                        // header: a write torn mid-sector.
                        return Err(self.fail(tail_offset));
                    }
                    return Ok(None);
                }
                continue;
            }
            let frag_start = self.block_start + self.pos as u64;
            let header = &self.buffer[self.pos..self.pos + HEADER_SIZE];
            let expected_crc =
                crc::unmask(u32::from_le_bytes(header[..4].try_into().expect("4 bytes")));
            let len = u16::from_le_bytes(header[4..6].try_into().expect("2 bytes")) as usize;
            let ty_byte = header[6];

            if ty_byte == 0 && len == 0 && expected_crc == crc::unmask(0) {
                // Zero padding written by the writer at a block tail.
                self.pos = self.buffer.len();
                continue;
            }
            let Some(ty) = RecordType::from_u8(ty_byte) else {
                return Err(self.fail(frag_start));
            };
            if self.pos + HEADER_SIZE + len > self.buffer.len() {
                // Length runs past the block: torn tail.
                return Err(self.fail(frag_start));
            }
            let payload = &self.buffer[self.pos + HEADER_SIZE..self.pos + HEADER_SIZE + len];
            let mut actual = crc::extend(0, &[ty_byte]);
            actual = crc::extend(actual, payload);
            if actual != expected_crc {
                return Err(self.fail(frag_start));
            }
            let out = payload.to_vec();
            self.pos += HEADER_SIZE + len;
            return Ok(Some((ty, out, frag_start)));
        }
    }

    /// Loads the next block; returns `false` at EOF.
    fn refill(&mut self) -> Result<bool> {
        if self.eof {
            return Ok(false);
        }
        self.buffer.clear();
        self.pos = 0;
        self.block_start = self.next_offset;
        let mut chunk = vec![0u8; BLOCK_SIZE];
        let mut filled = 0;
        while filled < BLOCK_SIZE {
            let n = self
                .file
                .read_at(self.next_offset + filled as u64, &mut chunk[filled..])?;
            if n == 0 {
                self.eof = true;
                break;
            }
            filled += n;
        }
        self.next_offset += filled as u64;
        chunk.truncate(filled);
        self.buffer = chunk;
        Ok(!self.buffer.is_empty())
    }
}
