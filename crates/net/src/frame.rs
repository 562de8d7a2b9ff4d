//! Length-prefixed framing: the outermost layer of the wire protocol.
//!
//! Every message travels as one frame:
//!
//! ```text
//! +----------+----------------+-----------+------------------+
//! | len: u32 | request id: u64| opcode: u8| body (len-9 B)   |
//! |  (LE)    |     (LE)       |           |                  |
//! +----------+----------------+-----------+------------------+
//! ```
//!
//! `len` counts everything after itself (id + opcode + body), so the
//! smallest legal frame is 9 bytes of payload. [`FrameReader`] is a
//! push parser: feed it arbitrary byte chunks as they arrive from a
//! nonblocking socket and it yields complete payloads, however the
//! frames were split or merged across reads. Violations (oversized or
//! undersized length prefix) are **fail-closed**: the reader returns a
//! protocol error and the connection must be dropped — after a framing
//! error the byte stream has no trustworthy resynchronization point.

use clsm_util::error::{Error, Result};

/// Bytes in the length prefix itself.
pub(crate) const LEN_PREFIX_BYTES: usize = 4;

/// Minimum legal `len` value: request id (8) + opcode (1).
pub const MIN_FRAME_BYTES: usize = 9;

/// Bytes the client's reader thread and each server worker read from a
/// socket at a time.
pub(crate) const READ_BUFFER_BYTES: usize = 64 * 1024;

/// Appends one frame (length prefix + `payload`) to `out`.
///
/// `payload` must already start with the request id and opcode;
/// callers build it with [`crate::proto`] encoders.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    debug_assert!(payload.len() >= MIN_FRAME_BYTES);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Incremental frame parser over an untrusted byte stream.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Read cursor into `buf`; consumed bytes are compacted away
    /// periodically rather than on every frame.
    pos: usize,
    max_frame_bytes: usize,
    poisoned: bool,
}

impl FrameReader {
    /// Creates a reader enforcing `max_frame_bytes` on the prefix.
    pub fn new(max_frame_bytes: usize) -> Self {
        FrameReader {
            buf: Vec::new(),
            pos: 0,
            max_frame_bytes,
            poisoned: false,
        }
    }

    /// Appends freshly received bytes.
    pub fn feed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Extracts the next complete frame payload (id + opcode + body,
    /// without the length prefix), or `Ok(None)` if more bytes are
    /// needed.
    ///
    /// A malformed length prefix poisons the reader: the error is
    /// returned now and on every subsequent call, so a connection
    /// can never resume after a framing violation.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>> {
        if self.poisoned {
            return Err(Error::protocol("frame stream previously failed"));
        }
        let avail = self.buf.len() - self.pos;
        if avail < LEN_PREFIX_BYTES {
            return Ok(None);
        }
        let len = u32::from_le_bytes(
            self.buf[self.pos..self.pos + LEN_PREFIX_BYTES]
                .try_into()
                .expect("4 bytes checked above"),
        ) as usize;
        if len < MIN_FRAME_BYTES {
            self.poisoned = true;
            return Err(Error::protocol(format!(
                "frame length {len} below minimum {MIN_FRAME_BYTES}"
            )));
        }
        if len > self.max_frame_bytes {
            self.poisoned = true;
            return Err(Error::protocol(format!(
                "frame length {len} exceeds limit {}",
                self.max_frame_bytes
            )));
        }
        if avail < LEN_PREFIX_BYTES + len {
            return Ok(None);
        }
        let start = self.pos + LEN_PREFIX_BYTES;
        let frame = self.buf[start..start + len].to_vec();
        self.pos = start + len;
        // Compact once the dead prefix dominates, amortizing the copy.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| i as u8).collect()
    }

    #[test]
    fn frames_survive_arbitrary_chunking() {
        let mut wire = Vec::new();
        let a = payload(MIN_FRAME_BYTES);
        let b = payload(100);
        write_frame(&mut wire, &a);
        write_frame(&mut wire, &b);

        // Feed one byte at a time: both frames still come out intact.
        let mut r = FrameReader::new(1 << 20);
        let mut got = Vec::new();
        for byte in &wire {
            r.feed(&[*byte]);
            while let Some(f) = r.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, vec![a.clone(), b.clone()]);

        // Feed everything at once: same result.
        let mut r = FrameReader::new(1 << 20);
        r.feed(&wire);
        assert_eq!(r.next_frame().unwrap().unwrap(), a);
        assert_eq!(r.next_frame().unwrap().unwrap(), b);
        assert_eq!(r.next_frame().unwrap(), None);
        assert_eq!(r.buf.len(), r.pos);
    }

    #[test]
    fn oversized_prefix_fails_closed() {
        let mut r = FrameReader::new(1024);
        r.feed(&(4096u32).to_le_bytes());
        let err = r.next_frame().unwrap_err();
        assert_eq!(err.kind(), clsm_util::error::ErrorKind::Protocol);
        // Poisoned: even valid bytes afterwards keep failing.
        let mut ok = Vec::new();
        write_frame(&mut ok, &payload(MIN_FRAME_BYTES));
        r.feed(&ok);
        assert!(r.next_frame().is_err());
    }

    #[test]
    fn undersized_prefix_fails_closed() {
        let mut r = FrameReader::new(1024);
        r.feed(&(3u32).to_le_bytes());
        assert!(r.next_frame().is_err());
    }

    #[test]
    fn truncated_frame_waits_for_more() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload(50));
        let mut r = FrameReader::new(1024);
        r.feed(&wire[..wire.len() - 1]);
        assert_eq!(r.next_frame().unwrap(), None);
        r.feed(&wire[wire.len() - 1..]);
        assert_eq!(r.next_frame().unwrap().unwrap(), payload(50));
    }

    #[test]
    fn long_streams_compact_without_losing_frames() {
        let mut r = FrameReader::new(1024);
        let p = payload(64);
        for round in 0..1000 {
            let mut wire = Vec::new();
            write_frame(&mut wire, &p);
            r.feed(&wire);
            assert_eq!(r.next_frame().unwrap().unwrap(), p, "round {round}");
        }
        assert_eq!(r.buf.len(), r.pos);
        assert!(r.buf.len() < 8192, "compaction kept the buffer bounded");
    }
}
