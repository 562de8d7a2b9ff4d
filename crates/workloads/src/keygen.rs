//! Key generation: distributions and formatting.

use rand::Rng;

use crate::zipf::Zipf;

/// How key indices are drawn from the key space.
#[derive(Debug, Clone)]
pub enum KeyDistribution {
    /// Uniform over the whole space (the §5.1 write benchmark: "keys
    /// are drawn uniformly at random from the entire range").
    Uniform,
    /// The §5.1 read benchmark: with probability `popular_pct`, pick
    /// uniformly inside contiguous "popular" blocks covering
    /// `popular_space_pct` of the space; otherwise uniform over all.
    PopularBlocks {
        /// Fraction of operations aimed at popular blocks (0.9).
        popular_pct: f64,
        /// Fraction of the key space that is popular (0.1).
        popular_space_pct: f64,
        /// Number of popular blocks spread across the space.
        blocks: u64,
    },
    /// Heavy-tail production popularity (§5.2), Zipf-distributed ranks
    /// scattered over the space.
    HeavyTail {
        /// Zipf skew (0.99 matches the published tail shares).
        theta: f64,
    },
    /// Strictly sequential (the §5.3 initial fill).
    Sequential,
}

/// Draws formatted keys from a distribution over `space` indices.
#[derive(Debug, Clone)]
pub struct KeyGen {
    space: u64,
    key_len: usize,
    dist: KeyDistribution,
    zipf: Option<Zipf>,
    sequential_next: u64,
}

impl KeyGen {
    /// Creates a generator over `space` distinct keys of `key_len`
    /// bytes (minimum 16 to hold the decimal index).
    pub fn new(space: u64, key_len: usize, dist: KeyDistribution) -> KeyGen {
        assert!(space > 0);
        let zipf = match &dist {
            KeyDistribution::HeavyTail { theta } => Some(Zipf::new(space, *theta)),
            _ => None,
        };
        KeyGen {
            space,
            key_len: key_len.max(16),
            dist,
            zipf,
            sequential_next: 0,
        }
    }

    /// Draws the next key index.
    pub fn next_index<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        match &self.dist {
            KeyDistribution::Uniform => rng.random_range(0..self.space),
            KeyDistribution::PopularBlocks {
                popular_pct,
                popular_space_pct,
                blocks,
            } => {
                if rng.random::<f64>() < *popular_pct {
                    // Pick a block, then a slot inside it. Blocks are
                    // spread evenly over the space.
                    let blocks = (*blocks).clamp(1, self.space);
                    let popular_total = ((self.space as f64) * popular_space_pct).max(1.0) as u64;
                    let block_len = (popular_total / blocks).max(1);
                    let stride = self.space / blocks;
                    let b = rng.random_range(0..blocks);
                    let off = rng.random_range(0..block_len);
                    (b * stride + off).min(self.space - 1)
                } else {
                    rng.random_range(0..self.space)
                }
            }
            KeyDistribution::HeavyTail { .. } => {
                let rank = self.zipf.as_ref().expect("zipf built in new").sample(rng);
                // Scatter ranks over the space so popular keys are not
                // physically clustered (matches production layouts).
                scatter(rank, self.space)
            }
            KeyDistribution::Sequential => {
                let i = self.sequential_next;
                self.sequential_next = (self.sequential_next + 1) % self.space;
                i
            }
        }
    }

    /// Formats index `i` as a key (stable across distributions so
    /// prefill and access agree).
    pub(crate) fn format(&self, i: u64) -> Vec<u8> {
        format_key(i, self.key_len)
    }

    /// Draws and formats the next key.
    pub fn next_key<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<u8> {
        let i = self.next_index(rng);
        self.format(i)
    }
}

/// Formats index `i` into exactly `key_len` bytes: zero-padded decimal
/// with a deterministic filler tail for wider production-style keys.
pub fn format_key(i: u64, key_len: usize) -> Vec<u8> {
    let mut key = format!("{i:016}").into_bytes();
    while key.len() < key_len {
        // Deterministic filler derived from the index: cheap and makes
        // long keys (40-byte production keys) realistic for prefix
        // compression.
        key.push(b'a' + ((i >> (key.len() % 57)) & 0xf) as u8);
    }
    key.truncate(key_len);
    key
}

/// Bijective-ish scatter of ranks over the space (multiplicative hash
/// modulo the space; collisions are tolerable for sampling purposes).
fn scatter(rank: u64, space: u64) -> u64 {
    rank.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17) % space
}

/// Generates deterministic values of a given size, keyed by index.
pub fn value_for(i: u64, value_len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(value_len);
    let mut x = i.wrapping_mul(0xd134_2543_de82_ef95).wrapping_add(1);
    while v.len() < value_len {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        v.extend_from_slice(&x.wrapping_mul(0x2545_f491_4f6c_dd1d).to_le_bytes());
    }
    v.truncate(value_len);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn format_is_fixed_width_and_ordered() {
        for len in [16, 40] {
            let a = format_key(1, len);
            let b = format_key(2, len);
            let c = format_key(100, len);
            assert_eq!(a.len(), len);
            assert!(a < b && b < c);
        }
    }

    #[test]
    fn uniform_covers_space() {
        let mut g = KeyGen::new(100, 16, KeyDistribution::Uniform);
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5000 {
            let i = g.next_index(&mut rng);
            assert!(i < 100);
            seen.insert(i);
        }
        assert!(seen.len() > 95);
    }

    #[test]
    fn popular_blocks_concentrate_traffic() {
        let mut g = KeyGen::new(
            100_000,
            16,
            KeyDistribution::PopularBlocks {
                popular_pct: 0.9,
                popular_space_pct: 0.1,
                blocks: 10,
            },
        );
        let mut rng = StdRng::seed_from_u64(9);
        // Count how much traffic lands on the top-10% most-hit keys.
        let mut counts = std::collections::HashMap::new();
        let total = 100_000;
        for _ in 0..total {
            *counts.entry(g.next_index(&mut rng)).or_insert(0u64) += 1;
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let hot: u64 = freqs.iter().take(10_000).sum();
        assert!(
            hot as f64 / total as f64 >= 0.85,
            "hot share {}",
            hot as f64 / total as f64
        );
    }

    #[test]
    fn sequential_wraps() {
        let mut g = KeyGen::new(3, 16, KeyDistribution::Sequential);
        let mut rng = StdRng::seed_from_u64(0);
        let seq: Vec<u64> = (0..7).map(|_| g.next_index(&mut rng)).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn heavy_tail_within_space() {
        let mut g = KeyGen::new(1000, 40, KeyDistribution::HeavyTail { theta: 0.99 });
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..2000 {
            assert!(g.next_index(&mut rng) < 1000);
        }
    }

    #[test]
    fn values_are_deterministic_and_sized() {
        assert_eq!(value_for(7, 256), value_for(7, 256));
        assert_ne!(value_for(7, 256), value_for(8, 256));
        assert_eq!(value_for(3, 1024).len(), 1024);
        assert_eq!(value_for(3, 0).len(), 0);
    }
}
