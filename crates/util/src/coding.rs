//! Integer encodings used by the WAL and SSTable formats.
//!
//! Matches the classic LevelDB wire formats: little-endian fixed-width
//! integers and LEB128-style varints.

use crate::error::{Error, Result};

/// Appends a little-endian `u32` to `dst`.
pub fn put_fixed32(dst: &mut Vec<u8>, v: u32) {
    dst.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64` to `dst`.
pub fn put_fixed64(dst: &mut Vec<u8>, v: u64) {
    dst.extend_from_slice(&v.to_le_bytes());
}

/// Decodes a little-endian `u32` from the first 4 bytes of `src`.
///
/// # Panics
///
/// Panics if `src` is shorter than 4 bytes.
pub fn decode_fixed32(src: &[u8]) -> u32 {
    u32::from_le_bytes(src[..4].try_into().expect("need 4 bytes"))
}

/// Appends `v` as a varint (7 bits per byte, MSB = continuation).
pub fn put_varint32(dst: &mut Vec<u8>, v: u32) {
    put_varint64(dst, v as u64);
}

/// Appends `v` as a varint (7 bits per byte, MSB = continuation).
pub fn put_varint64(dst: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        dst.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    dst.push(v as u8);
}

/// Decodes a varint `u32` from the front of `src`, returning the value
/// and the number of bytes consumed.
pub fn get_varint32(src: &[u8]) -> Result<(u32, usize)> {
    let (v, n) = get_varint64(src)?;
    if v > u32::MAX as u64 {
        return Err(Error::corruption("varint32 overflow"));
    }
    Ok((v as u32, n))
}

/// Decodes a varint `u64` from the front of `src`, returning the value
/// and the number of bytes consumed.
pub fn get_varint64(src: &[u8]) -> Result<(u64, usize)> {
    let mut result: u64 = 0;
    for (i, &byte) in src.iter().enumerate().take(10) {
        result |= ((byte & 0x7f) as u64) << (7 * i);
        if byte & 0x80 == 0 {
            // The 10th byte may only contribute a single bit.
            if i == 9 && byte > 1 {
                return Err(Error::corruption("varint64 overflow"));
            }
            return Ok((result, i + 1));
        }
    }
    Err(Error::corruption("truncated or overlong varint"))
}

/// Appends a length-prefixed byte slice (varint length, then bytes).
pub fn put_length_prefixed_slice(dst: &mut Vec<u8>, value: &[u8]) {
    put_varint32(dst, value.len() as u32);
    dst.extend_from_slice(value);
}

/// Decodes a length-prefixed slice from the front of `src`, returning
/// the slice and the total number of bytes consumed.
pub fn get_length_prefixed_slice(src: &[u8]) -> Result<(&[u8], usize)> {
    let (len, n) = get_varint32(src)?;
    let len = len as usize;
    if src.len() < n + len {
        return Err(Error::corruption("truncated length-prefixed slice"));
    }
    Ok((&src[n..n + len], n + len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_roundtrip() {
        for v in [0u32, 1, 0xff, 0x1234_5678, u32::MAX] {
            let mut buf = Vec::new();
            put_fixed32(&mut buf, v);
            assert_eq!(buf.len(), 4);
            assert_eq!(decode_fixed32(&buf), v);
        }
        for v in [0u64, 1, 0xdead_beef_cafe_babe, u64::MAX] {
            let mut buf = Vec::new();
            put_fixed64(&mut buf, v);
            assert_eq!(buf, v.to_le_bytes());
        }
    }

    #[test]
    fn varint_roundtrip_boundaries() {
        let cases: Vec<u64> = (0..64)
            .flat_map(|s| {
                let p = 1u64 << s;
                [p.wrapping_sub(1), p, p.wrapping_add(1)]
            })
            .chain([u64::MAX])
            .collect();
        for v in cases {
            let mut buf = Vec::new();
            put_varint64(&mut buf, v);
            let (decoded, n) = get_varint64(&buf).unwrap();
            assert_eq!(decoded, v);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn varint32_rejects_wider_values() {
        let mut buf = Vec::new();
        put_varint64(&mut buf, u32::MAX as u64 + 1);
        assert!(get_varint32(&buf).is_err());
    }

    #[test]
    fn varint_rejects_truncation() {
        let mut buf = Vec::new();
        put_varint64(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            assert!(get_varint64(&buf[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn varint_rejects_overlong() {
        // Eleven continuation bytes can never terminate within the limit.
        let buf = [0x80u8; 11];
        assert!(get_varint64(&buf).is_err());
        // A 10-byte encoding whose final byte holds more than 1 bit
        // overflows 64 bits.
        let mut buf = vec![0x80u8; 9];
        buf.push(0x02);
        assert!(get_varint64(&buf).is_err());
    }

    #[test]
    fn length_prefixed_roundtrip() {
        let mut buf = Vec::new();
        put_length_prefixed_slice(&mut buf, b"hello");
        put_length_prefixed_slice(&mut buf, b"");
        put_length_prefixed_slice(&mut buf, &[0xaa; 300]);
        let (s, n) = get_length_prefixed_slice(&buf).unwrap();
        assert_eq!(s, b"hello");
        let (s2, n2) = get_length_prefixed_slice(&buf[n..]).unwrap();
        assert_eq!(s2, b"");
        let (s3, _) = get_length_prefixed_slice(&buf[n + n2..]).unwrap();
        assert_eq!(s3, &[0xaa; 300][..]);
    }

    #[test]
    fn length_prefixed_rejects_truncation() {
        let mut buf = Vec::new();
        put_length_prefixed_slice(&mut buf, b"hello");
        assert!(get_length_prefixed_slice(&buf[..buf.len() - 1]).is_err());
    }
}
