//! Bloom filter for SSTable blocks (LevelDB-compatible construction).
//!
//! The disk component consults a per-table Bloom filter before touching
//! data blocks, which is one of the optimizations the paper inherits
//! from LevelDB ("Bloom filters to speed up reads", §4). Uses double
//! hashing: `k` probe positions are derived from one 32-bit hash by
//! repeatedly adding a rotated delta.

/// Builds and queries Bloom filters with a fixed bits-per-key budget.
#[derive(Debug, Clone)]
pub struct BloomFilterPolicy {
    bits_per_key: usize,
    k: usize,
}

impl BloomFilterPolicy {
    /// Creates a policy targeting `bits_per_key` filter bits per key.
    ///
    /// The number of probes is `bits_per_key * ln 2`, clamped to
    /// `[1, 30]`, which minimizes the false-positive rate.
    pub fn new(bits_per_key: usize) -> Self {
        let k = ((bits_per_key as f64) * 0.69) as usize;
        BloomFilterPolicy {
            bits_per_key,
            k: k.clamp(1, 30),
        }
    }

    /// Builds a filter over `keys`, appending it to a fresh byte vector.
    ///
    /// The final byte records `k` so that readers built with a different
    /// policy can still interpret the filter.
    pub fn create_filter(&self, keys: &[&[u8]]) -> Vec<u8> {
        let hashes: Vec<u32> = keys.iter().map(|key| bloom_hash(key)).collect();
        self.create_filter_from_hashes(&hashes)
    }

    /// Builds the same filter as [`create_filter`](Self::create_filter)
    /// from each key's [`bloom_hash`], so a table builder can keep one
    /// `u32` per key instead of the key itself.
    pub fn create_filter_from_hashes(&self, hashes: &[u32]) -> Vec<u8> {
        let mut bits = hashes.len() * self.bits_per_key;
        // Tiny filters have huge false-positive rates; enforce a floor.
        bits = bits.max(64);
        let bytes = bits.div_ceil(8);
        let bits = bytes * 8;

        let mut filter = vec![0u8; bytes + 1];
        filter[bytes] = self.k as u8;
        for &hash in hashes {
            let mut h = hash;
            let delta = h.rotate_right(17);
            for _ in 0..self.k {
                let bit_pos = (h as usize) % bits;
                filter[bit_pos / 8] |= 1 << (bit_pos % 8);
                h = h.wrapping_add(delta);
            }
        }
        filter
    }

    /// Returns `false` only if `key` is definitely not in the filter.
    pub fn key_may_match(&self, key: &[u8], filter: &[u8]) -> bool {
        if filter.len() < 2 {
            return true;
        }
        let bytes = filter.len() - 1;
        let bits = bytes * 8;
        let k = filter[bytes] as usize;
        if k > 30 {
            // Reserved for future encodings; err on the safe side.
            return true;
        }
        let mut h = bloom_hash(key);
        let delta = h.rotate_right(17);
        for _ in 0..k {
            let bit_pos = (h as usize) % bits;
            if filter[bit_pos / 8] & (1 << (bit_pos % 8)) == 0 {
                return false;
            }
            h = h.wrapping_add(delta);
        }
        true
    }
}

/// 32-bit multiplicative hash used by the Bloom filter (Murmur-like).
pub fn bloom_hash(data: &[u8]) -> u32 {
    hash_seeded(data, 0xbc9f_1d34)
}

/// Seeded variant of [`bloom_hash`], also used by the block cache shards.
pub fn hash_seeded(data: &[u8], seed: u32) -> u32 {
    const M: u32 = 0xc6a4_a793;
    const R: u32 = 24;
    let mut h = seed ^ (M.wrapping_mul(data.len() as u32));
    let mut chunks = data.chunks_exact(4);
    for w in &mut chunks {
        let w = u32::from_le_bytes(w.try_into().expect("4-byte chunk"));
        h = h.wrapping_add(w).wrapping_mul(M);
        h ^= h >> 16;
    }
    let rest = chunks.remainder();
    // Tail bytes, high-to-low as in the LevelDB reference.
    if rest.len() >= 3 {
        h = h.wrapping_add((rest[2] as u32) << 16);
    }
    if rest.len() >= 2 {
        h = h.wrapping_add((rest[1] as u32) << 8);
    }
    if !rest.is_empty() {
        h = h.wrapping_add(rest[0] as u32);
        h = h.wrapping_mul(M);
        h ^= h >> R;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> Vec<u8> {
        i.to_le_bytes().to_vec()
    }

    #[test]
    fn empty_filter_rejects() {
        let policy = BloomFilterPolicy::new(10);
        let filter = policy.create_filter(&[]);
        assert!(!policy.key_may_match(b"hello", &filter));
        assert!(!policy.key_may_match(b"", &filter));
    }

    #[test]
    fn no_false_negatives() {
        let policy = BloomFilterPolicy::new(10);
        for n in [1usize, 10, 100, 1000, 10_000] {
            let keys: Vec<Vec<u8>> = (0..n as u32).map(key).collect();
            let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
            let filter = policy.create_filter(&refs);
            for k in &keys {
                assert!(policy.key_may_match(k, &filter), "n={n}");
            }
        }
    }

    #[test]
    fn filter_from_hashes_is_bit_identical() {
        let policy = BloomFilterPolicy::new(10);
        let keys: Vec<Vec<u8>> = (0..1000u32).map(key).collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let hashes: Vec<u32> = keys.iter().map(|k| bloom_hash(k)).collect();
        assert_eq!(
            policy.create_filter_from_hashes(&hashes),
            policy.create_filter(&refs)
        );
    }

    #[test]
    fn false_positive_rate_is_low() {
        let policy = BloomFilterPolicy::new(10);
        let keys: Vec<Vec<u8>> = (0..10_000u32).map(key).collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let filter = policy.create_filter(&refs);
        let mut hits = 0;
        for i in 10_000u32..20_000 {
            if policy.key_may_match(&key(i), &filter) {
                hits += 1;
            }
        }
        // 10 bits/key gives ~1% theoretical FP rate; allow generous slack.
        assert!(hits < 300, "false positive rate too high: {hits}/10000");
    }

    #[test]
    fn short_or_foreign_filters_are_permissive() {
        let policy = BloomFilterPolicy::new(10);
        assert!(policy.key_may_match(b"x", &[]));
        assert!(policy.key_may_match(b"x", &[0x00]));
        // k byte of 31 marks an unknown encoding.
        let filter = vec![0u8, 0, 0, 0, 31];
        assert!(policy.key_may_match(b"x", &filter));
    }

    #[test]
    fn hash_is_stable_and_spread() {
        assert_eq!(bloom_hash(b""), bloom_hash(b""));
        assert_ne!(bloom_hash(b"a"), bloom_hash(b"b"));
        assert_ne!(hash_seeded(b"a", 1), hash_seeded(b"a", 2));
    }
}
