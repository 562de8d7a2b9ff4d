//! Protocol robustness properties: the frame and body decoders face an
//! untrusted byte stream and must fail closed — a typed protocol
//! error, never a panic, never a bogus success — under truncation,
//! bit garbage, hostile length prefixes, and arbitrary read chunking.

use clsm_kv::api::{Request, Response, WireError};
use clsm_kv::{ScanRange, WriteBatch, WriteOptions};
use clsm_net::frame::{write_frame, FrameReader, MIN_FRAME_BYTES};
use clsm_net::proto;
use proptest::prelude::*;

fn bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..64)
}

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..64).prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

fn arb_opts() -> impl Strategy<Value = WriteOptions> {
    any::<bool>().prop_map(|sync| WriteOptions { sync })
}

fn arb_bound() -> impl Strategy<Value = std::ops::Bound<Vec<u8>>> {
    prop_oneof![
        Just(std::ops::Bound::Unbounded),
        bytes().prop_map(std::ops::Bound::Included),
        bytes().prop_map(std::ops::Bound::Excluded),
    ]
}

fn arb_range() -> impl Strategy<Value = ScanRange> {
    (arb_bound(), arb_bound()).prop_map(|(start, end)| ScanRange { start, end })
}

/// Strategy: an arbitrary request (keys/values up to 64 bytes, small
/// batches — shapes, not sizes, are what decoding cares about).
fn arb_request() -> impl Strategy<Value = Request> {
    let maybe_value = (any::<bool>(), bytes()).prop_map(|(some, v)| some.then_some(v));
    prop_oneof![
        bytes().prop_map(|key| Request::Get { key }),
        (bytes(), bytes(), arb_opts()).prop_map(|(key, value, opts)| Request::Put {
            key,
            value,
            opts
        }),
        (bytes(), arb_opts()).prop_map(|(key, opts)| Request::Delete { key, opts }),
        (
            prop::collection::vec((bytes(), maybe_value), 0..8),
            arb_opts()
        )
            .prop_map(|(ops, opts)| Request::Write {
                batch: ops.into_iter().collect::<WriteBatch>(),
                opts,
            }),
        (bytes(), bytes()).prop_map(|(key, value)| Request::PutIfAbsent { key, value }),
        (arb_range(), any::<u32>()).prop_map(|(range, limit)| Request::Scan { range, limit }),
        Just(Request::SnapshotCreate),
        (any::<u64>(), bytes()).prop_map(|(snapshot, key)| Request::SnapshotGet { snapshot, key }),
        (any::<u64>(), arb_range(), any::<u32>()).prop_map(|(snapshot, range, limit)| {
            Request::SnapshotScan {
                snapshot,
                range,
                limit,
            }
        }),
        any::<u64>().prop_map(|snapshot| Request::SnapshotRelease { snapshot }),
        Just(Request::Stats),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    let maybe_value = (any::<bool>(), bytes()).prop_map(|(some, v)| some.then_some(v));
    prop_oneof![
        Just(Response::Done),
        maybe_value.prop_map(Response::Value),
        any::<bool>().prop_map(Response::Applied),
        prop::collection::vec((bytes(), bytes()), 0..8).prop_map(Response::Entries),
        any::<u64>().prop_map(Response::SnapshotId),
        text().prop_map(Response::Stats),
        (any::<u16>(), text(), any::<bool>()).prop_map(|(code, message, retryable)| {
            Response::Error(WireError {
                code,
                message,
                retryable,
            })
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    // Requests survive encode → frame → arbitrary chunking → decode.
    #[test]
    fn request_round_trips_through_chunked_frames(
        id in any::<u64>(),
        req in arb_request(),
        cuts in prop::collection::vec(1usize..64, 0..8),
    ) {
        let payload = proto::encode_request(id, &req);
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload);

        // Split the wire bytes at pseudo-random points and feed the
        // chunks one at a time.
        let mut reader = FrameReader::new(1 << 24);
        let mut rest: &[u8] = &wire;
        for cut in cuts {
            let cut = cut.min(rest.len());
            let (head, tail) = rest.split_at(cut);
            reader.feed(head);
            rest = tail;
        }
        reader.feed(rest);

        let frame = reader.next_frame().unwrap().expect("one whole frame fed");
        let (got_id, got) = proto::decode_request(&frame).unwrap();
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got, proto::WireRequest::Op(req));
        prop_assert_eq!(reader.next_frame().unwrap(), None);
    }

    #[test]
    fn response_round_trips(id in any::<u64>(), resp in arb_response()) {
        let payload = proto::encode_response(id, &resp);
        let (got_id, got) = proto::decode_response(&payload).unwrap();
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got, resp);
    }

    // Truncating an encoded request anywhere yields an error, never a
    // panic and never a silent success.
    #[test]
    fn truncated_requests_fail_closed(
        req in arb_request(),
        frac_pm in 0u32..1000,
    ) {
        let payload = proto::encode_request(1, &req);
        let cut = payload.len() * (frac_pm as usize) / 1000;
        if cut < payload.len() {
            let err = proto::decode_request(&payload[..cut]).unwrap_err();
            prop_assert_eq!(err.kind(), clsm_util::error::ErrorKind::Protocol);
        }
    }

    // Arbitrary garbage never panics the request decoder; it either
    // errors or (if it happens to parse) round-trips consistently.
    #[test]
    fn garbage_never_panics_request_decoder(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        if let Ok((id, proto::WireRequest::Op(req))) = proto::decode_request(&bytes) {
            // Accidental parses must re-encode to something decodable.
            let re = proto::encode_request(id, &req);
            let (id2, got) = proto::decode_request(&re).unwrap();
            prop_assert_eq!(id2, id);
            prop_assert_eq!(got, proto::WireRequest::Op(req));
        }
    }

    #[test]
    fn garbage_never_panics_response_decoder(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = proto::decode_response(&bytes);
    }

    // Hostile length prefixes (oversized or undersized) poison the
    // stream immediately, whatever bytes follow. Every arm of the
    // strategy is outside [MIN_FRAME_BYTES, max_frame] by construction.
    #[test]
    fn hostile_length_prefixes_fail_closed(
        len in prop_oneof![
            Just(0u32),
            1u32..(MIN_FRAME_BYTES as u32),
            (1u32 << 20)..u32::MAX,
        ],
        tail in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let max_frame = 1 << 16;
        let mut reader = FrameReader::new(max_frame);
        reader.feed(&len.to_le_bytes());
        reader.feed(&tail);
        let err = reader.next_frame().unwrap_err();
        prop_assert_eq!(err.kind(), clsm_util::error::ErrorKind::Protocol);
        // Poisoned for good.
        prop_assert!(reader.next_frame().is_err());
    }

    // Flipping any single byte of a valid frame payload never panics
    // the decoder.
    #[test]
    fn single_byte_corruption_never_panics(
        req in arb_request(),
        pos_pm in 0u32..1000,
        xor in 1u8..=255,
    ) {
        let mut payload = proto::encode_request(7, &req);
        if !payload.is_empty() {
            let pos = payload.len() * (pos_pm as usize) / 1000 % payload.len();
            payload[pos] ^= xor;
            let _ = proto::decode_request(&payload);
        }
    }
}
