//! On-disk entry formats: internal keys and WAL write records.
//!
//! Every stored entry is a `(user_key, timestamp, kind, value)` tuple.
//! Timestamps are cLSM write timestamps (the multi-versioning described
//! in §3.2 of the paper); `kind` distinguishes live values from the ⊥
//! deletion marker.

use clsm_util::coding::{
    get_length_prefixed_slice, get_varint64, put_length_prefixed_slice, put_varint64,
};
use clsm_util::error::{Error, Result};

/// Kind tag of a stored value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ValueKind {
    /// A deletion marker (sorts after `Put` only via timestamps, which
    /// are unique, so the discriminant value carries no ordering).
    Delete = 0,
    /// A live value.
    Put = 1,
}

impl ValueKind {
    /// Parses a kind byte.
    pub fn from_u8(v: u8) -> Result<ValueKind> {
        match v {
            0 => Ok(ValueKind::Delete),
            1 => Ok(ValueKind::Put),
            _ => Err(Error::corruption(format!("bad value kind {v}"))),
        }
    }
}

/// An internal key: `user_key ++ 8-byte little-endian tag`, where the
/// tag packs `(timestamp << 1) | kind`.
///
/// Internal keys are ordered by user key ascending, then timestamp
/// *descending* — the same order as the in-memory skip list, so that
/// the first entry for a key is its newest version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternalKey(Vec<u8>);

/// Size of the trailing tag.
pub const TAG_SIZE: usize = 8;

/// Maximum encodable timestamp (63 bits).
pub const MAX_TS: u64 = (1 << 63) - 1;

impl InternalKey {
    /// Builds an internal key from parts.
    pub fn new(user_key: &[u8], ts: u64, kind: ValueKind) -> Self {
        let mut buf = Vec::with_capacity(user_key.len() + TAG_SIZE);
        buf.extend_from_slice(user_key);
        buf.extend_from_slice(&pack_tag(ts, kind).to_le_bytes());
        InternalKey(buf)
    }

    /// Interprets an encoded buffer as an internal key.
    pub fn decode(buf: &[u8]) -> Result<InternalKey> {
        if buf.len() < TAG_SIZE {
            return Err(Error::corruption("internal key too short"));
        }
        Ok(InternalKey(buf.to_vec()))
    }

    /// The encoded bytes.
    pub fn encoded(&self) -> &[u8] {
        &self.0
    }

    /// The user-key prefix.
    pub fn user_key(&self) -> &[u8] {
        split_internal_key(&self.0)
            .expect("validated at construction")
            .0
    }

    /// The timestamp.
    pub fn ts(&self) -> u64 {
        split_internal_key(&self.0)
            .expect("validated at construction")
            .1
    }

    /// The value kind.
    pub fn kind(&self) -> ValueKind {
        split_internal_key(&self.0)
            .expect("validated at construction")
            .2
    }
}

/// Packs timestamp and kind into the 8-byte tag.
pub fn pack_tag(ts: u64, kind: ValueKind) -> u64 {
    debug_assert!(ts <= MAX_TS);
    (ts << 1) | kind as u64
}

/// Splits an encoded internal key into `(user_key, ts, kind)`.
pub fn split_internal_key(encoded: &[u8]) -> Result<(&[u8], u64, ValueKind)> {
    if encoded.len() < TAG_SIZE {
        return Err(Error::corruption("internal key too short"));
    }
    let (user, tag_bytes) = encoded.split_at(encoded.len() - TAG_SIZE);
    let tag = u64::from_le_bytes(tag_bytes.try_into().expect("8 bytes"));
    let kind = ValueKind::from_u8((tag & 1) as u8)?;
    Ok((user, tag >> 1, kind))
}

/// Compares two encoded internal keys: user key ascending, then
/// timestamp descending.
pub fn compare_internal_keys(a: &[u8], b: &[u8]) -> std::cmp::Ordering {
    let (ua, ta, _) = split_internal_key(a).expect("valid internal key");
    let (ub, tb, _) = split_internal_key(b).expect("valid internal key");
    ua.cmp(ub).then(tb.cmp(&ta))
}

/// Compares an encoded internal key to a `(user_key, ts)` search
/// target (the newest admissible version sorts first).
pub fn compare_internal_to_target(a: &[u8], key: &[u8], ts: u64) -> std::cmp::Ordering {
    let (ua, ta, _) = split_internal_key(a).expect("valid internal key");
    ua.cmp(key).then(ts.cmp(&ta))
}

/// A single logical write, as serialized into the WAL.
///
/// cLSM relaxes LevelDB's single-writer constraint, so WAL records may
/// be appended out of timestamp order; recovery sorts by `ts` (§4:
/// "the correct order is easily restored upon recovery").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteRecord {
    /// Write timestamp assigned by the oracle.
    pub ts: u64,
    /// Kind (put or deletion marker).
    pub kind: ValueKind,
    /// User key.
    pub key: Vec<u8>,
    /// Value bytes (empty for deletions).
    pub value: Vec<u8>,
}

impl WriteRecord {
    /// Creates a put record.
    pub fn put(ts: u64, key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) -> Self {
        WriteRecord {
            ts,
            kind: ValueKind::Put,
            key: key.into(),
            value: value.into(),
        }
    }

    /// Creates a deletion record.
    pub fn delete(ts: u64, key: impl Into<Vec<u8>>) -> Self {
        WriteRecord {
            ts,
            kind: ValueKind::Delete,
            key: key.into(),
            value: Vec::new(),
        }
    }

    /// Appends the serialized record to `dst`.
    pub fn encode_to(&self, dst: &mut Vec<u8>) {
        put_varint64(dst, self.ts);
        dst.push(self.kind as u8);
        put_length_prefixed_slice(dst, &self.key);
        put_length_prefixed_slice(dst, &self.value);
    }

    /// Decodes one record from the front of `src`, returning it and the
    /// bytes consumed.
    pub fn decode_from(src: &[u8]) -> Result<(WriteRecord, usize)> {
        let (ts, mut at) = get_varint64(src)?;
        let kind = ValueKind::from_u8(
            *src.get(at)
                .ok_or_else(|| Error::corruption("truncated write record"))?,
        )?;
        at += 1;
        let (key, n) = get_length_prefixed_slice(&src[at..])?;
        at += n;
        let (value, n) = get_length_prefixed_slice(&src[at..])?;
        at += n;
        Ok((
            WriteRecord {
                ts,
                kind,
                key: key.to_vec(),
                value: value.to_vec(),
            },
            at,
        ))
    }

    /// Decodes a batch of concatenated records.
    pub fn decode_batch(mut src: &[u8]) -> Result<Vec<WriteRecord>> {
        let mut out = Vec::new();
        while !src.is_empty() {
            let (rec, n) = WriteRecord::decode_from(src)?;
            out.push(rec);
            src = &src[n..];
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering::{Equal, Greater, Less};

    #[test]
    fn internal_key_roundtrip() {
        let k = InternalKey::new(b"user", 42, ValueKind::Put);
        assert_eq!(k.user_key(), b"user");
        assert_eq!(k.ts(), 42);
        assert_eq!(k.kind(), ValueKind::Put);
        let decoded = InternalKey::decode(k.encoded()).unwrap();
        assert_eq!(decoded, k);
    }

    #[test]
    fn internal_key_rejects_short_buffers() {
        assert!(InternalKey::decode(b"1234567").is_err());
        assert!(split_internal_key(b"").is_err());
    }

    #[test]
    fn ordering_user_key_then_ts_desc() {
        let a = InternalKey::new(b"a", 5, ValueKind::Put);
        let a9 = InternalKey::new(b"a", 9, ValueKind::Put);
        let b = InternalKey::new(b"b", 1, ValueKind::Put);
        assert_eq!(compare_internal_keys(a9.encoded(), a.encoded()), Less);
        assert_eq!(compare_internal_keys(a.encoded(), a9.encoded()), Greater);
        assert_eq!(compare_internal_keys(a.encoded(), b.encoded()), Less);
        assert_eq!(compare_internal_keys(a.encoded(), a.encoded()), Equal);
    }

    #[test]
    fn prefix_keys_do_not_confuse_ordering() {
        // The tag bytes must never bleed into user-key comparison.
        let ab = InternalKey::new(b"ab", 1, ValueKind::Put);
        let abc = InternalKey::new(b"abc", u64::MAX >> 1, ValueKind::Put);
        assert_eq!(compare_internal_keys(ab.encoded(), abc.encoded()), Less);
    }

    #[test]
    fn target_comparison() {
        let k = InternalKey::new(b"k", 5, ValueKind::Put);
        // Entry (k,5) vs target (k,9): entry is an older version →
        // target wants newest ≤ 9, entry qualifies, sorts ≥ target.
        assert_eq!(compare_internal_to_target(k.encoded(), b"k", 9), Greater);
        assert_eq!(compare_internal_to_target(k.encoded(), b"k", 5), Equal);
        assert_eq!(compare_internal_to_target(k.encoded(), b"k", 3), Less);
        assert_eq!(compare_internal_to_target(k.encoded(), b"l", 3), Less);
        assert_eq!(
            compare_internal_to_target(k.encoded(), b"j", u64::MAX),
            Greater
        );
    }

    #[test]
    fn write_record_roundtrip() {
        let records = vec![
            WriteRecord::put(1, b"key".to_vec(), b"value".to_vec()),
            WriteRecord::delete(2, b"gone".to_vec()),
            WriteRecord::put(u64::MAX >> 2, b"".to_vec(), vec![0xab; 300]),
        ];
        let mut buf = Vec::new();
        for r in &records {
            r.encode_to(&mut buf);
        }
        let decoded = WriteRecord::decode_batch(&buf).unwrap();
        assert_eq!(decoded, records);
    }

    #[test]
    fn write_record_rejects_garbage() {
        assert!(WriteRecord::decode_batch(&[0x01, 0x07]).is_err());
        let mut buf = Vec::new();
        WriteRecord::put(1, b"k".to_vec(), b"v".to_vec()).encode_to(&mut buf);
        buf.truncate(buf.len() - 1);
        assert!(WriteRecord::decode_batch(&buf).is_err());
    }

    #[test]
    fn tag_packs_kind_and_ts() {
        assert_eq!(pack_tag(0, ValueKind::Delete), 0);
        assert_eq!(pack_tag(0, ValueKind::Put), 1);
        assert_eq!(pack_tag(7, ValueKind::Put), 15);
        let (_, ts, kind) =
            split_internal_key(InternalKey::new(b"x", 7, ValueKind::Delete).encoded()).unwrap();
        assert_eq!((ts, kind), (7, ValueKind::Delete));
    }
}
