//! A seeded Zipf(θ) rank sampler.
//!
//! Uniform page access understates contention: real OLTP traffic is
//! skewed, so a small hot set absorbs most of the operations. The
//! write-graph bench draws its hot targets from this sampler, so the same
//! few graph nodes are merged into over and over. Draws come from the
//! seed, so a run is replayable.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A seeded Zipf(θ) sampler over ranks `0..n` (rank 0 hottest).
///
/// Weights are `1/(i+1)^θ`; sampling inverts the precomputed CDF with a
/// binary search, so a draw is `O(log n)` with no rejection loop.
pub struct ZipfGen {
    cdf: Vec<f64>,
    rng: SmallRng,
}

impl ZipfGen {
    /// A sampler over `n` ranks with skew `theta` (0 = uniform; 0.99 is
    /// the classic YCSB default).
    pub fn new(seed: u64, n: usize, theta: f64) -> ZipfGen {
        assert!(n > 0, "zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        ZipfGen {
            cdf,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Draw a rank in `0..n`.
    pub fn next_rank(&mut self) -> usize {
        let u: f64 = self.rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_bounded() {
        let n = 256;
        let mut z = ZipfGen::new(9, n, 0.99);
        let mut counts = vec![0u32; n];
        for _ in 0..20_000 {
            counts[z.next_rank()] += 1;
        }
        // Rank 0 should be far above the uniform share (20000/256 ≈ 78).
        assert!(counts[0] > 780, "rank 0 drew {} times", counts[0]);
        // The top 16 ranks (6% of pages) should absorb over a third.
        let hot: u32 = counts[..16].iter().sum();
        assert!(hot > 20_000 / 3, "hot set drew {hot} of 20000");
    }
}
