//! Body encoding: [`Request`]/[`Response`] ⇄ bytes.
//!
//! The wire protocol is a serialization of the `clsm_kv::api` enums —
//! not a parallel API — so adding a store operation means adding an
//! enum variant and its encoding here, and every driver picks it up.
//!
//! Encoded payloads start with the 8-byte request id and 1-byte opcode
//! (see [`crate::frame`] for the outer layout); bodies use the same
//! varint/length-prefixed-slice vocabulary as the storage layer
//! (`clsm_util::coding`). Decoding is strict and total: every
//! violation — unknown opcode, short body, trailing garbage, reserved
//! bits set — is a typed [`clsm_util::error::ErrorKind::Protocol`] error, never a panic,
//! because these bytes arrive from an untrusted peer.
//!
//! ## Opcodes
//!
//! | code | request            | code | request / control   |
//! |-----:|--------------------|-----:|---------------------|
//! |    1 | `Get`              |    7 | `SnapshotCreate`    |
//! |    2 | `Put`              |    8 | `SnapshotGet`       |
//! |    3 | `Delete`           |    9 | `SnapshotScan`      |
//! |    4 | `Write`            |   10 | `SnapshotRelease`   |
//! |    5 | `PutIfAbsent`      |   11 | `Stats`             |
//! |    6 | `Scan`             |   12 | `Shutdown` (control)|

use std::ops::Bound;

use clsm_kv::api::{Request, Response, WireError};
use clsm_kv::{ScanRange, WriteBatch, WriteOptions};
use clsm_util::coding::{get_varint32, put_fixed64, put_length_prefixed_slice, put_varint32};
use clsm_util::error::{Error, Result};

/// A decoded inbound payload: either a store request or the one
/// connection-level control message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireRequest {
    /// A store operation, dispatched through `clsm_kv::api::dispatch`.
    Op(Request),
    /// Ask the server to shut down cleanly (used by `clsm-doctor
    /// --connect --shutdown` and CI teardown).
    Shutdown,
}

const OP_GET: u8 = 1;
const OP_PUT: u8 = 2;
const OP_DELETE: u8 = 3;
const OP_WRITE: u8 = 4;
const OP_PUT_IF_ABSENT: u8 = 5;
const OP_SCAN: u8 = 6;
const OP_SNAPSHOT_CREATE: u8 = 7;
const OP_SNAPSHOT_GET: u8 = 8;
const OP_SNAPSHOT_SCAN: u8 = 9;
const OP_SNAPSHOT_RELEASE: u8 = 10;
const OP_STATS: u8 = 11;
const OP_SHUTDOWN: u8 = 12;

const RESP_DONE: u8 = 1;
const RESP_VALUE: u8 = 2;
const RESP_APPLIED: u8 = 3;
const RESP_ENTRIES: u8 = 4;
const RESP_SNAPSHOT_ID: u8 = 5;
const RESP_STATS: u8 = 6;
const RESP_ERROR: u8 = 255;

/// The request id carried by a server-originated fatal error frame
/// (protocol violations that belong to the connection, not to any one
/// request).
pub(crate) const CONNECTION_ERROR_ID: u64 = 0;

// ---------------------------------------------------------------------
// Checked reader over untrusted bytes.
// ---------------------------------------------------------------------

struct Rd<'a> {
    buf: &'a [u8],
}

impl<'a> Rd<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Rd { buf }
    }

    fn u8(&mut self) -> Result<u8> {
        match self.buf.split_first() {
            Some((b, rest)) => {
                self.buf = rest;
                Ok(*b)
            }
            None => Err(Error::protocol("body truncated reading u8")),
        }
    }

    fn fixed64(&mut self) -> Result<u64> {
        if self.buf.len() < 8 {
            return Err(Error::protocol("body truncated reading u64"));
        }
        let (head, rest) = self.buf.split_at(8);
        self.buf = rest;
        Ok(u64::from_le_bytes(head.try_into().expect("8 bytes")))
    }

    fn varint32(&mut self) -> Result<u32> {
        let (v, n) =
            get_varint32(self.buf).map_err(|e| Error::protocol(format!("bad varint: {e}")))?;
        self.buf = &self.buf[n..];
        Ok(v)
    }

    fn slice(&mut self) -> Result<Vec<u8>> {
        let len = self.varint32()? as usize;
        if self.buf.len() < len {
            return Err(Error::protocol(format!(
                "length-prefixed slice claims {len} bytes, {} remain",
                self.buf.len()
            )));
        }
        let (head, rest) = self.buf.split_at(len);
        self.buf = rest;
        Ok(head.to_vec())
    }

    fn finish(self) -> Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(Error::protocol(format!(
                "{} trailing bytes after body",
                self.buf.len()
            )))
        }
    }
}

// ---------------------------------------------------------------------
// Shared sub-encodings.
// ---------------------------------------------------------------------

/// The write-options byte: `0x01` is `sync` and every other bit is
/// reserved (`0x02` once meant "skip the log", which no write does now).
fn put_write_options(dst: &mut Vec<u8>, opts: &WriteOptions) {
    dst.push(u8::from(opts.sync));
}

fn read_write_options(rd: &mut Rd<'_>) -> Result<WriteOptions> {
    let bits = rd.u8()?;
    if bits & !1 != 0 {
        return Err(Error::protocol(format!(
            "reserved WriteOptions bits set: {bits:#04x}"
        )));
    }
    Ok(WriteOptions {
        sync: bits & 1 != 0,
    })
}

const BOUND_UNBOUNDED: u8 = 0;
const BOUND_INCLUDED: u8 = 1;
const BOUND_EXCLUDED: u8 = 2;

fn put_bound(dst: &mut Vec<u8>, b: &Bound<Vec<u8>>) {
    match b {
        Bound::Unbounded => dst.push(BOUND_UNBOUNDED),
        Bound::Included(k) => {
            dst.push(BOUND_INCLUDED);
            put_length_prefixed_slice(dst, k);
        }
        Bound::Excluded(k) => {
            dst.push(BOUND_EXCLUDED);
            put_length_prefixed_slice(dst, k);
        }
    }
}

fn read_bound(rd: &mut Rd<'_>) -> Result<Bound<Vec<u8>>> {
    match rd.u8()? {
        BOUND_UNBOUNDED => Ok(Bound::Unbounded),
        BOUND_INCLUDED => Ok(Bound::Included(rd.slice()?)),
        BOUND_EXCLUDED => Ok(Bound::Excluded(rd.slice()?)),
        t => Err(Error::protocol(format!("unknown bound tag {t}"))),
    }
}

fn put_range(dst: &mut Vec<u8>, range: &ScanRange) {
    put_bound(dst, &range.start);
    put_bound(dst, &range.end);
}

fn read_range(rd: &mut Rd<'_>) -> Result<ScanRange> {
    Ok(ScanRange {
        start: read_bound(rd)?,
        end: read_bound(rd)?,
    })
}

fn put_header(dst: &mut Vec<u8>, id: u64, opcode: u8) {
    put_fixed64(dst, id);
    dst.push(opcode);
}

// ---------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------

/// Encodes `req` (with its pipelining id) into a frame payload.
pub fn encode_request(id: u64, req: &Request) -> Vec<u8> {
    let mut dst = Vec::with_capacity(32);
    match req {
        Request::Get { key } => {
            put_header(&mut dst, id, OP_GET);
            put_length_prefixed_slice(&mut dst, key);
        }
        Request::Put { key, value, opts } => {
            put_header(&mut dst, id, OP_PUT);
            put_write_options(&mut dst, opts);
            put_length_prefixed_slice(&mut dst, key);
            put_length_prefixed_slice(&mut dst, value);
        }
        Request::Delete { key, opts } => {
            put_header(&mut dst, id, OP_DELETE);
            put_write_options(&mut dst, opts);
            put_length_prefixed_slice(&mut dst, key);
        }
        Request::Write { batch, opts } => {
            put_header(&mut dst, id, OP_WRITE);
            put_write_options(&mut dst, opts);
            put_varint32(&mut dst, batch.len() as u32);
            for (key, value) in batch.iter() {
                match value {
                    Some(v) => {
                        dst.push(1);
                        put_length_prefixed_slice(&mut dst, key);
                        put_length_prefixed_slice(&mut dst, v);
                    }
                    None => {
                        dst.push(0);
                        put_length_prefixed_slice(&mut dst, key);
                    }
                }
            }
        }
        Request::PutIfAbsent { key, value } => {
            put_header(&mut dst, id, OP_PUT_IF_ABSENT);
            put_length_prefixed_slice(&mut dst, key);
            put_length_prefixed_slice(&mut dst, value);
        }
        Request::Scan { range, limit } => {
            put_header(&mut dst, id, OP_SCAN);
            put_range(&mut dst, range);
            put_varint32(&mut dst, *limit);
        }
        Request::SnapshotCreate => {
            put_header(&mut dst, id, OP_SNAPSHOT_CREATE);
        }
        Request::SnapshotGet { snapshot, key } => {
            put_header(&mut dst, id, OP_SNAPSHOT_GET);
            put_fixed64(&mut dst, *snapshot);
            put_length_prefixed_slice(&mut dst, key);
        }
        Request::SnapshotScan {
            snapshot,
            range,
            limit,
        } => {
            put_header(&mut dst, id, OP_SNAPSHOT_SCAN);
            put_fixed64(&mut dst, *snapshot);
            put_range(&mut dst, range);
            put_varint32(&mut dst, *limit);
        }
        Request::SnapshotRelease { snapshot } => {
            put_header(&mut dst, id, OP_SNAPSHOT_RELEASE);
            put_fixed64(&mut dst, *snapshot);
        }
        Request::Stats => {
            put_header(&mut dst, id, OP_STATS);
        }
    }
    dst
}

/// Encodes the shutdown control message.
pub(crate) fn encode_shutdown(id: u64) -> Vec<u8> {
    let mut dst = Vec::with_capacity(9);
    put_header(&mut dst, id, OP_SHUTDOWN);
    dst
}

/// Decodes a frame payload into `(request id, request)`.
pub fn decode_request(payload: &[u8]) -> Result<(u64, WireRequest)> {
    let mut rd = Rd::new(payload);
    let id = rd.fixed64()?;
    let opcode = rd.u8()?;
    let req = match opcode {
        OP_GET => WireRequest::Op(Request::Get { key: rd.slice()? }),
        OP_PUT => {
            let opts = read_write_options(&mut rd)?;
            WireRequest::Op(Request::Put {
                key: rd.slice()?,
                value: rd.slice()?,
                opts,
            })
        }
        OP_DELETE => {
            let opts = read_write_options(&mut rd)?;
            WireRequest::Op(Request::Delete {
                key: rd.slice()?,
                opts,
            })
        }
        OP_WRITE => {
            let opts = read_write_options(&mut rd)?;
            let count = rd.varint32()?;
            // An op is at least tag + empty key prefix (2 bytes): bound
            // the claimed count by what the body could possibly hold.
            if count as usize > payload.len() / 2 + 1 {
                return Err(Error::protocol(format!(
                    "batch claims {count} ops in a {} byte body",
                    payload.len()
                )));
            }
            let mut batch = WriteBatch::new();
            for _ in 0..count {
                match rd.u8()? {
                    1 => {
                        let key = rd.slice()?;
                        let value = rd.slice()?;
                        batch.put(key, value);
                    }
                    0 => {
                        batch.delete(rd.slice()?);
                    }
                    t => {
                        return Err(Error::protocol(format!("unknown batch op tag {t}")));
                    }
                }
            }
            WireRequest::Op(Request::Write { batch, opts })
        }
        OP_PUT_IF_ABSENT => WireRequest::Op(Request::PutIfAbsent {
            key: rd.slice()?,
            value: rd.slice()?,
        }),
        OP_SCAN => WireRequest::Op(Request::Scan {
            range: read_range(&mut rd)?,
            limit: rd.varint32()?,
        }),
        OP_SNAPSHOT_CREATE => WireRequest::Op(Request::SnapshotCreate),
        OP_SNAPSHOT_GET => WireRequest::Op(Request::SnapshotGet {
            snapshot: rd.fixed64()?,
            key: rd.slice()?,
        }),
        OP_SNAPSHOT_SCAN => WireRequest::Op(Request::SnapshotScan {
            snapshot: rd.fixed64()?,
            range: read_range(&mut rd)?,
            limit: rd.varint32()?,
        }),
        OP_SNAPSHOT_RELEASE => WireRequest::Op(Request::SnapshotRelease {
            snapshot: rd.fixed64()?,
        }),
        OP_STATS => WireRequest::Op(Request::Stats),
        OP_SHUTDOWN => WireRequest::Shutdown,
        op => return Err(Error::protocol(format!("unknown opcode {op}"))),
    };
    rd.finish()?;
    Ok((id, req))
}

// ---------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------

/// Encodes `resp` for the request identified by `id`.
pub fn encode_response(id: u64, resp: &Response) -> Vec<u8> {
    let mut dst = Vec::with_capacity(32);
    match resp {
        Response::Done => {
            put_header(&mut dst, id, RESP_DONE);
        }
        Response::Value(v) => {
            put_header(&mut dst, id, RESP_VALUE);
            match v {
                Some(v) => {
                    dst.push(1);
                    put_length_prefixed_slice(&mut dst, v);
                }
                None => dst.push(0),
            }
        }
        Response::Applied(applied) => {
            put_header(&mut dst, id, RESP_APPLIED);
            dst.push(*applied as u8);
        }
        Response::Entries(entries) => {
            put_header(&mut dst, id, RESP_ENTRIES);
            put_varint32(&mut dst, entries.len() as u32);
            for (k, v) in entries {
                put_length_prefixed_slice(&mut dst, k);
                put_length_prefixed_slice(&mut dst, v);
            }
        }
        Response::SnapshotId(snap) => {
            put_header(&mut dst, id, RESP_SNAPSHOT_ID);
            put_fixed64(&mut dst, *snap);
        }
        Response::Stats(text) => {
            put_header(&mut dst, id, RESP_STATS);
            put_length_prefixed_slice(&mut dst, text.as_bytes());
        }
        Response::Error(e) => {
            put_header(&mut dst, id, RESP_ERROR);
            put_varint32(&mut dst, e.code as u32);
            dst.push(e.retryable as u8);
            put_length_prefixed_slice(&mut dst, e.message.as_bytes());
        }
    }
    dst
}

/// Decodes a frame payload into `(request id, response)`.
pub fn decode_response(payload: &[u8]) -> Result<(u64, Response)> {
    let mut rd = Rd::new(payload);
    let id = rd.fixed64()?;
    let tag = rd.u8()?;
    let resp = match tag {
        RESP_DONE => Response::Done,
        RESP_VALUE => match rd.u8()? {
            0 => Response::Value(None),
            1 => Response::Value(Some(rd.slice()?)),
            t => return Err(Error::protocol(format!("unknown value presence tag {t}"))),
        },
        RESP_APPLIED => match rd.u8()? {
            0 => Response::Applied(false),
            1 => Response::Applied(true),
            t => return Err(Error::protocol(format!("unknown applied tag {t}"))),
        },
        RESP_ENTRIES => {
            let count = rd.varint32()?;
            if count as usize > payload.len() / 2 + 1 {
                return Err(Error::protocol(format!(
                    "entry list claims {count} pairs in a {} byte body",
                    payload.len()
                )));
            }
            let mut entries = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let k = rd.slice()?;
                let v = rd.slice()?;
                entries.push((k, v));
            }
            Response::Entries(entries)
        }
        RESP_SNAPSHOT_ID => Response::SnapshotId(rd.fixed64()?),
        RESP_STATS => {
            let bytes = rd.slice()?;
            let text =
                String::from_utf8(bytes).map_err(|_| Error::protocol("stats text is not UTF-8"))?;
            Response::Stats(text)
        }
        RESP_ERROR => {
            let code = rd.varint32()?;
            if code > u16::MAX as u32 {
                return Err(Error::protocol(format!("error code {code} out of range")));
            }
            let retryable = match rd.u8()? {
                0 => false,
                1 => true,
                t => return Err(Error::protocol(format!("unknown retryable tag {t}"))),
            };
            let bytes = rd.slice()?;
            let message = String::from_utf8(bytes)
                .map_err(|_| Error::protocol("error message is not UTF-8"))?;
            Response::Error(WireError {
                code: code as u16,
                message,
                retryable,
            })
        }
        t => return Err(Error::protocol(format!("unknown response tag {t}"))),
    };
    rd.finish()?;
    Ok((id, resp))
}

/// Builds the frame payload for a connection-fatal protocol error,
/// sent (best-effort) just before the server closes the connection.
pub(crate) fn encode_connection_error(err: &Error) -> Vec<u8> {
    encode_response(
        CONNECTION_ERROR_ID,
        &Response::Error(WireError::from_error(err)),
    )
}

/// Whether a decoded error represents a connection-level failure
/// (as opposed to one request's error).
pub fn is_connection_error(id: u64, resp: &Response) -> bool {
    id == CONNECTION_ERROR_ID && matches!(resp, Response::Error(_))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clsm_util::error::ErrorKind;

    fn round_trip_request(req: Request) {
        let payload = encode_request(7, &req);
        let (id, got) = decode_request(&payload).unwrap();
        assert_eq!(id, 7);
        assert_eq!(got, WireRequest::Op(req));
    }

    fn round_trip_response(resp: Response) {
        let payload = encode_response(9, &resp);
        let (id, got) = decode_response(&payload).unwrap();
        assert_eq!(id, 9);
        assert_eq!(got, resp);
    }

    #[test]
    fn every_request_round_trips() {
        let mut batch = WriteBatch::new();
        batch.put(b"k1", b"v1");
        batch.delete(b"k2");
        batch.put(b"", b"");
        round_trip_request(Request::Get { key: b"k".to_vec() });
        round_trip_request(Request::Put {
            key: b"k".to_vec(),
            value: vec![0u8; 1000],
            opts: WriteOptions::durable(),
        });
        round_trip_request(Request::Delete {
            key: vec![],
            opts: WriteOptions::new(),
        });
        round_trip_request(Request::Write {
            batch,
            opts: WriteOptions::new(),
        });
        round_trip_request(Request::PutIfAbsent {
            key: b"k".to_vec(),
            value: b"v".to_vec(),
        });
        for range in [
            ScanRange::all(),
            ScanRange::from_start(b"a".to_vec()),
            ScanRange::new(b"a".to_vec()..b"z".to_vec()),
            ScanRange {
                start: Bound::Excluded(b"a".to_vec()),
                end: Bound::Included(b"z".to_vec()),
            },
        ] {
            round_trip_request(Request::Scan {
                range: range.clone(),
                limit: 17,
            });
            round_trip_request(Request::SnapshotScan {
                snapshot: u64::MAX,
                range,
                limit: 0,
            });
        }
        round_trip_request(Request::SnapshotCreate);
        round_trip_request(Request::SnapshotGet {
            snapshot: 3,
            key: b"k".to_vec(),
        });
        round_trip_request(Request::SnapshotRelease { snapshot: 3 });
        round_trip_request(Request::Stats);
    }

    #[test]
    fn shutdown_round_trips() {
        let payload = encode_shutdown(42);
        let (id, got) = decode_request(&payload).unwrap();
        assert_eq!(id, 42);
        assert_eq!(got, WireRequest::Shutdown);
    }

    #[test]
    fn every_response_round_trips() {
        round_trip_response(Response::Done);
        round_trip_response(Response::Value(None));
        round_trip_response(Response::Value(Some(vec![0xff; 300])));
        round_trip_response(Response::Applied(true));
        round_trip_response(Response::Applied(false));
        round_trip_response(Response::Entries(vec![]));
        round_trip_response(Response::Entries(vec![
            (b"a".to_vec(), b"1".to_vec()),
            (vec![], vec![]),
        ]));
        round_trip_response(Response::SnapshotId(u64::MAX));
        round_trip_response(Response::Stats("net.requests 5\n".to_string()));
        round_trip_response(Response::Error(WireError {
            code: 4,
            message: "bad argument".to_string(),
            retryable: false,
        }));
    }

    #[test]
    fn garbage_opcode_is_a_protocol_error() {
        let mut payload = Vec::new();
        put_fixed64(&mut payload, 1);
        payload.push(0xEE);
        let err = decode_request(&payload).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Protocol);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = encode_request(1, &Request::Stats);
        payload.push(0);
        assert_eq!(
            decode_request(&payload).unwrap_err().kind(),
            ErrorKind::Protocol
        );
        let mut payload = encode_response(1, &Response::Done);
        payload.push(0);
        assert_eq!(
            decode_response(&payload).unwrap_err().kind(),
            ErrorKind::Protocol
        );
    }

    #[test]
    fn truncated_bodies_are_rejected_not_panicked() {
        let full = encode_request(
            1,
            &Request::Put {
                key: b"key".to_vec(),
                value: b"value".to_vec(),
                opts: WriteOptions::new(),
            },
        );
        // Every strict prefix must fail cleanly.
        for cut in 0..full.len() {
            let err = decode_request(&full[..cut]).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Protocol, "cut at {cut}");
        }
    }

    #[test]
    fn reserved_write_option_bits_are_rejected() {
        // 0x02 is the retired skip-the-log bit; 0x80 was always reserved.
        for bits in [0x02, 0x80] {
            let mut payload = Vec::new();
            put_fixed64(&mut payload, 1);
            payload.push(2); // OP_PUT
            payload.push(bits);
            put_length_prefixed_slice(&mut payload, b"k");
            put_length_prefixed_slice(&mut payload, b"v");
            assert_eq!(
                decode_request(&payload).unwrap_err().kind(),
                ErrorKind::Protocol,
                "bits {bits:#04x}"
            );
        }
    }

    #[test]
    fn absurd_counts_are_rejected_before_allocation() {
        // A Write claiming u32::MAX ops in a tiny body must fail on the
        // count check, not attempt to loop/allocate.
        let mut payload = Vec::new();
        put_fixed64(&mut payload, 1);
        payload.push(4); // OP_WRITE
        payload.push(0); // default options
        put_varint32(&mut payload, u32::MAX);
        assert_eq!(
            decode_request(&payload).unwrap_err().kind(),
            ErrorKind::Protocol
        );
    }

    #[test]
    fn connection_error_frames_are_recognizable() {
        let payload = encode_connection_error(&Error::protocol("bad frame"));
        let (id, resp) = decode_response(&payload).unwrap();
        assert!(is_connection_error(id, &resp));
        match resp {
            Response::Error(e) => {
                assert_eq!(e.code, ErrorKind::Protocol.code());
                assert!(!e.retryable);
            }
            other => panic!("expected error, got {other:?}"),
        }
    }
}
