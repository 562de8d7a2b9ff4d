//! Zipf-distributed rank sampler (YCSB-style).
//!
//! Used for the production workloads' heavy-tail key popularity. The
//! implementation follows the classic Gray et al. / YCSB
//! `ZipfianGenerator`: O(1) sampling after an O(N)-ish constant
//! precomputation (harmonic number), deterministic given the RNG.

use rand::Rng;

/// Samples ranks `0..n` with probability ∝ `1 / (rank+1)^theta`.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// Creates a sampler over `n` items with skew `theta` (0 < theta
    /// < 1; YCSB's default 0.99 reproduces web-serving tails).
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n > 0);
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1)");
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// Draws a rank in `0..n` (0 = most popular).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.random();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// Truncated zeta: sum over i in 1..=n of 1/i^theta.
///
/// Exact for small n; for large n, uses the Euler–Maclaurin
/// approximation (error far below sampling noise).
fn zeta(n: u64, theta: f64) -> f64 {
    const EXACT_LIMIT: u64 = 1_000_000;
    if n <= EXACT_LIMIT {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    } else {
        let head: f64 = (1..=EXACT_LIMIT)
            .map(|i| 1.0 / (i as f64).powf(theta))
            .sum();
        // ∫ x^-theta dx from EXACT_LIMIT to n.
        let a = EXACT_LIMIT as f64;
        let b = n as f64;
        head + (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn head_is_heavier_than_tail() {
        let z = Zipf::new(10_000, 0.99);
        let mut rng = StdRng::seed_from_u64(7);
        let mut head_hits = 0u64;
        let total = 100_000;
        for _ in 0..total {
            if z.sample(&mut rng) < 1000 {
                head_hits += 1; // top 10% of ranks
            }
        }
        // The paper's production tails: top 10% of keys ≥ 75% of
        // requests; theta = 0.99 satisfies it.
        assert!(
            head_hits as f64 / total as f64 > 0.72,
            "top-10% share = {}",
            head_hits as f64 / total as f64
        );
    }

    #[test]
    fn top_two_percent_serves_about_half() {
        let z = Zipf::new(10_000, 0.99);
        let mut rng = StdRng::seed_from_u64(11);
        let mut hits = 0u64;
        let total = 100_000;
        for _ in 0..total {
            if z.sample(&mut rng) < 200 {
                hits += 1;
            }
        }
        let share = hits as f64 / total as f64;
        assert!((0.4..0.75).contains(&share), "top-2% share = {share}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let z = Zipf::new(5000, 0.8);
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }

    #[test]
    fn large_n_constructs_quickly_and_samples() {
        let z = Zipf::new(2_000_000_000, 0.99);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 2_000_000_000);
        }
    }
}
