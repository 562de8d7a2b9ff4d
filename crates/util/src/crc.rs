//! CRC32C (Castagnoli) checksums with LevelDB-style masking.
//!
//! The WAL and SSTable formats checksum every record/block. We use the
//! Castagnoli polynomial (the same one LevelDB and RocksDB use) and the
//! standard "masked CRC" transform so that a CRC stored alongside the
//! data it covers does not checksum to a fixed point.
//!
//! [`extend`] picks its implementation from the CPU at run time: on
//! x86_64 with SSE4.2 it uses the `crc32` instruction (8 bytes per
//! step); everywhere else it runs [`extend_portable`], a byte-at-a-time
//! table loop. Both compute the same function, so the choice never
//! changes a stored checksum.

const CASTAGNOLI: u32 = 0x82f6_3b78;

/// Lookup table for byte-at-a-time CRC32C, built at compile time.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CASTAGNOLI
            } else {
                crc >> 1
            };
            j += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Extends a running CRC32C with more data, using the fastest
/// implementation this CPU supports.
pub fn extend(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("sse4.2") {
        // SAFETY: `extend_sse42` only requires SSE4.2, which the check
        // above has just confirmed this CPU supports.
        return unsafe { extend_sse42(crc, data) };
    }
    extend_portable(crc, data)
}

/// Extends a running CRC32C with more data, one byte per table lookup.
///
/// The path for CPUs without a CRC32C instruction, and the reference
/// the accelerated path is tested against.
pub fn extend_portable(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    for &b in data {
        crc = TABLE[((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// [`extend`] with the SSE4.2 `crc32` instruction: 8 bytes per step,
/// then the tail one byte at a time.
///
/// # Safety
///
/// The CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn extend_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc = u64::from(!crc);
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        crc = _mm_crc32_u64(crc, u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let mut crc = crc as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// Name of the implementation [`extend`] runs on this CPU: `"sse4.2"`
/// or `"portable"`.
pub fn implementation() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("sse4.2") {
        return "sse4.2";
    }
    "portable"
}

const MASK_DELTA: u32 = 0xa282_ead8;

/// Masks a CRC so it can be stored next to the bytes it covers.
pub fn mask(crc: u32) -> u32 {
    crc.rotate_right(15).wrapping_add(MASK_DELTA)
}

/// Inverts [`mask`].
pub fn unmask(masked: u32) -> u32 {
    masked.wrapping_sub(MASK_DELTA).rotate_left(15)
}

#[cfg(test)]
mod tests {
    use super::*;

    type Extend = fn(u32, &[u8]) -> u32;

    /// Both implementations, so every property is checked on each.
    const PATHS: [(&str, Extend); 2] = [("extend", extend), ("extend_portable", extend_portable)];

    #[test]
    fn known_vectors() {
        // Reference vectors from the CRC32C specification (RFC 3720).
        let ascending: Vec<u8> = (0u8..32).collect();
        let vectors: [(&[u8], u32); 4] = [
            (&[0u8; 32], 0x8a91_36aa),
            (&[0xffu8; 32], 0x62a8_ab43),
            (&ascending, 0x46dd_794e),
            (b"123456789", 0xe306_9283),
        ];
        for (name, f) in PATHS {
            for (data, want) in vectors {
                assert_eq!(f(0, data), want, "{name} on {data:?}");
            }
        }
    }

    #[test]
    fn accelerated_matches_portable_at_every_length_and_alignment() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let bytes: Vec<u8> = (0..4200 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=4200 {
                let data = &bytes[start..start + len];
                assert_eq!(
                    extend(0, data),
                    extend_portable(0, data),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn extend_matches_whole_at_every_split() {
        let data: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        for (name, f) in PATHS {
            let whole = f(0, &data);
            for split in 0..=data.len() {
                let (a, b) = data.split_at(split);
                assert_eq!(f(f(0, a), b), whole, "{name} split at {split}");
            }
        }
    }

    #[test]
    fn implementation_names_a_known_path() {
        assert!(["sse4.2", "portable"].contains(&implementation()));
    }

    #[test]
    fn mask_roundtrip_and_nontrivial() {
        let crc = extend(0, b"foo");
        assert_eq!(unmask(mask(crc)), crc);
        assert_ne!(mask(crc), crc);
        assert_ne!(mask(mask(crc)), crc);
    }

    #[test]
    fn distinct_inputs_distinct_crcs() {
        assert_ne!(extend(0, b"a"), extend(0, b"b"));
        assert_ne!(extend(0, b""), extend(0, b"\0"));
    }
}
