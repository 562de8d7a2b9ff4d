//! Self-describing values: every value the benchmark stores names the
//! key index it belongs to and that key's version, and carries a
//! checksum the filler bytes are derived from, so any read can be
//! checked without a shadow copy of the store.
//!
//! Layout (`len >= HEADER`): `[key index u64][version u64][check u64]`
//! followed by filler generated from `check`. Validation regenerates the
//! whole value from the decoded header and compares every byte, so a
//! single flipped bit anywhere is caught.

/// Bytes of header in front of the filler.
pub const HEADER: usize = 24;

fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn check(index: u64, version: u64, len: usize) -> u64 {
    mix(mix(index ^ 0x9e37_79b9_7f4a_7c15).wrapping_add(version) ^ (len as u64).rotate_left(48))
}

/// Builds the value of `len` bytes for (`index`, `version`).
pub fn encode(index: u64, version: u64, len: usize) -> Vec<u8> {
    assert!(len >= HEADER, "values must hold the {HEADER}-byte header");
    let mut v = Vec::with_capacity(len + 8);
    let c = check(index, version, len);
    v.extend_from_slice(&index.to_le_bytes());
    v.extend_from_slice(&version.to_le_bytes());
    v.extend_from_slice(&c.to_le_bytes());
    let mut x = c | 1;
    while v.len() < len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.extend_from_slice(&x.to_le_bytes());
    }
    v.truncate(len);
    v
}

/// Decodes and fully validates a stored value, returning
/// `(key index, version)`; `None` if any byte is wrong.
pub fn decode(value: &[u8]) -> Option<(u64, u64)> {
    if value.len() < HEADER {
        return None;
    }
    let index = u64::from_le_bytes(value[0..8].try_into().ok()?);
    let version = u64::from_le_bytes(value[8..16].try_into().ok()?);
    (encode(index, version, value.len()) == value).then_some((index, version))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_catches_every_flipped_byte() {
        for len in [HEADER, 64, 256, 1024] {
            let v = encode(123_456, 7, len);
            assert_eq!(v.len(), len);
            assert_eq!(decode(&v), Some((123_456, 7)));
            for i in 0..len {
                let mut bad = v.clone();
                bad[i] ^= 0x10;
                assert_eq!(decode(&bad), None, "flip at byte {i} of {len} not caught");
            }
        }
        assert_eq!(decode(b"short"), None);
    }
}
