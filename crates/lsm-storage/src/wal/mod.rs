//! Write-ahead log: record-oriented block format, writer, reader, and
//! the non-blocking logging queue of cLSM.
//!
//! LevelDB's log format is reused: the file is a sequence of 32 KiB
//! blocks; each record fragment carries a 7-byte header
//! `[crc32c: 4][length: 2][type: 1]` and records spanning blocks are
//! split into FIRST/MIDDLE/LAST fragments.
//!
//! cLSM's addition (§4) is the *logging queue*: writers encode their
//! records into a shared buffer and return, so a put never waits for
//! file I/O in asynchronous mode (the LevelDB default the paper
//! assumes). A logger thread writes the buffer out as each batching
//! window closes; a sync does its own write and fsync, on the thread
//! that asked for it. A switch to a new file is a cut that does no I/O;
//! the next writer of the file finishes it.

mod queue;
mod reader;
mod writer;

pub use queue::{LogQueue, SyncMode};
pub use reader::LogReader;
pub use writer::LogWriter;

/// Size of a log block.
pub(crate) const BLOCK_SIZE: usize = 32 * 1024;

/// Size of a fragment header: crc (4) + length (2) + type (1).
pub(crate) const HEADER_SIZE: usize = 7;

/// Fragment types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum RecordType {
    /// A whole record in one fragment.
    Full = 1,
    /// First fragment of a spanning record.
    First = 2,
    /// Interior fragment.
    Middle = 3,
    /// Final fragment.
    Last = 4,
}

impl RecordType {
    pub(crate) fn from_u8(v: u8) -> Option<RecordType> {
        match v {
            1 => Some(RecordType::Full),
            2 => Some(RecordType::First),
            3 => Some(RecordType::Middle),
            4 => Some(RecordType::Last),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn roundtrip(records: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let dir = std::env::temp_dir().join(format!("wal-test-{}", rand_suffix()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.log");
        {
            let file = std::fs::File::create(&path).unwrap();
            let mut w = LogWriter::new(Box::new(file));
            for r in records {
                w.add_record(r).unwrap();
            }
            w.flush().unwrap();
        }
        let file = std::fs::File::open(&path).unwrap();
        let mut reader = LogReader::new(Box::new(file));
        let mut out = Vec::new();
        while let Some(rec) = reader.read_record().unwrap() {
            out.push(rec);
        }
        std::fs::remove_dir_all(&dir).unwrap();
        out
    }

    fn rand_suffix() -> u64 {
        use std::time::{SystemTime, UNIX_EPOCH};
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .as_nanos() as u64
            ^ (std::process::id() as u64) << 32
    }

    #[test]
    fn empty_log() {
        assert!(roundtrip(&[]).is_empty());
    }

    #[test]
    fn small_records_roundtrip() {
        let records = vec![b"a".to_vec(), b"".to_vec(), b"hello world".to_vec()];
        assert_eq!(roundtrip(&records), records);
    }

    #[test]
    fn records_spanning_blocks_roundtrip() {
        let records = vec![
            vec![1u8; BLOCK_SIZE / 2],
            vec![2u8; BLOCK_SIZE],          // exactly one block of payload
            vec![3u8; BLOCK_SIZE * 3 + 17], // spans several blocks
            vec![4u8; 1],
        ];
        assert_eq!(roundtrip(&records), records);
    }

    #[test]
    fn trailer_padding_is_skipped() {
        // A record sized so the block tail is < HEADER_SIZE forces
        // zero-padding; the next record must still be read back.
        let first = vec![5u8; BLOCK_SIZE - HEADER_SIZE - 3];
        let records = vec![first, b"next".to_vec()];
        assert_eq!(roundtrip(&records), records);
    }

    #[test]
    fn corrupt_crc_stops_reading_cleanly() {
        let dir = std::env::temp_dir().join(format!("wal-corrupt-{}", rand_suffix()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.log");
        {
            let file = std::fs::File::create(&path).unwrap();
            let mut w = LogWriter::new(Box::new(file));
            w.add_record(b"good").unwrap();
            w.add_record(b"to-be-corrupted").unwrap();
            w.flush().unwrap();
        }
        // Flip a payload byte of the second record (whose fragment
        // header starts right after the 4-byte first record).
        let mut bytes = std::fs::read(&path).unwrap();
        let second_start = HEADER_SIZE + 4;
        bytes[second_start + HEADER_SIZE + 2] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let file = std::fs::File::open(&path).unwrap();
        let mut reader = LogReader::with_path(Box::new(file), &path);
        assert_eq!(reader.read_record().unwrap().unwrap(), b"good");
        // The corrupted record surfaces as WalTruncated at the offset
        // of the damaged fragment — not as a panic or garbage data.
        match reader.read_record() {
            Err(clsm_util::Error::WalTruncated { file, offset }) => {
                assert_eq!(file, path);
                assert_eq!(offset, second_start as u64);
            }
            other => panic!("expected WalTruncated, got {other:?}"),
        }
        // After the error the reader is fused.
        assert!(reader.read_record().unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_is_tolerated() {
        let dir = std::env::temp_dir().join(format!("wal-trunc-{}", rand_suffix()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.log");
        {
            let file = std::fs::File::create(&path).unwrap();
            let mut w = LogWriter::new(Box::new(file));
            w.add_record(b"keep").unwrap();
            w.add_record(&vec![9u8; 1000]).unwrap();
            w.flush().unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        // Cut into the middle of the second record.
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(&bytes[..HEADER_SIZE + 4 + HEADER_SIZE + 100])
            .unwrap();
        drop(f);

        let file = std::fs::File::open(&path).unwrap();
        let mut reader = LogReader::new(Box::new(file));
        assert_eq!(reader.read_record().unwrap().unwrap(), b"keep");
        // The cut record reports the torn tail at its own offset.
        match reader.read_record() {
            Err(clsm_util::Error::WalTruncated { offset, .. }) => {
                assert_eq!(offset, (HEADER_SIZE + 4) as u64);
            }
            other => panic!("expected WalTruncated, got {other:?}"),
        }
        assert!(reader.read_record().unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
