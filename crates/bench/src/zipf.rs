//! Seeded zipfian session workloads.
//!
//! Uniform page access makes multi-session scaling look better than it
//! is: sessions rarely collide on a page, the backup latch is rarely
//! contended, and the cache never sees a hot shard. Real OLTP traffic is
//! skewed, so the concurrent-sessions experiment draws its targets from a
//! Zipf(θ) distribution over each partition's pages — a small hot set
//! absorbs most of the traffic, hitting the same cache shards, the same
//! write-graph nodes, and (under a live sweep) the same Iw/oF decisions
//! over and over.
//!
//! Everything is seeded: the rank→page permutation, the per-op rank
//! draws, and the read/write coin all come from the workload seed, so a
//! run is replayable and the sequential-oracle verification is exact.

use lob_core::{OpBody, PageId};
use lob_harness::WorkloadGen;
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

/// Read/write blend of a session workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionMix {
    /// 10% writes — the lookup-dominated profile where throughput rides
    /// on the cache shards.
    ReadMostly,
    /// 90% writes — the commit-dominated profile where throughput rides
    /// on group-commit fsync amortization.
    WriteHeavy,
}

impl SessionMix {
    /// Fraction of operations that are (logged, committed) writes.
    pub fn write_fraction(self) -> f64 {
        match self {
            SessionMix::ReadMostly => 0.1,
            SessionMix::WriteHeavy => 0.9,
        }
    }

    /// JSON/row label.
    pub fn label(self) -> &'static str {
        match self {
            SessionMix::ReadMostly => "read_mostly",
            SessionMix::WriteHeavy => "write_heavy",
        }
    }
}

/// One step of a session: a cache read, or a logged write to execute and
/// commit.
pub enum SessionOp {
    /// Read this page through the (sharded) cache.
    Read(PageId),
    /// Execute this operation, then group-commit it.
    Write(OpBody),
}

/// A seeded zipfian workload confined to one partition (= one backup
/// domain under per-partition tracking), as the service's domain
/// confinement requires.
pub struct SessionWorkload {
    zipf: ZipfGen,
    gen: WorkloadGen,
    /// Rank → page, a seeded shuffle so each partition's hot set sits at
    /// different page indexes (a sequential sweep meets hot pages spread
    /// across its whole pass, not clustered at index 0).
    pages: Vec<PageId>,
    mix: SessionMix,
}

impl SessionWorkload {
    /// A workload over all `pages` pages of `partition`.
    pub fn new(
        seed: u64,
        partition: u32,
        pages: u32,
        page_size: usize,
        theta: f64,
        mix: SessionMix,
    ) -> SessionWorkload {
        let mut gen = WorkloadGen::new(seed, page_size);
        let ids: Vec<PageId> = (0..pages).map(|i| PageId::new(partition, i)).collect();
        let pages = gen.shuffled(&ids);
        SessionWorkload {
            zipf: ZipfGen::new(seed ^ 0x5eed_21bf, pages.len(), theta),
            gen,
            pages,
            mix,
        }
    }

    /// The next operation of the session.
    pub fn next_op(&mut self) -> SessionOp {
        let rank = self.zipf.next_rank();
        // In bounds by construction: the sampler is built over exactly
        // `pages.len()` ranks (non-empty, asserted) and clamps its draw.
        let target = self.pages.get(rank).copied().unwrap_or(PageId::new(0, 0));
        if self.gen.chance(self.mix.write_fraction()) {
            // Mostly small in-place updates, occasionally a full-page
            // rewrite — the physiological ratio.
            if self.gen.chance(0.25) {
                SessionOp::Write(self.gen.physical(target))
            } else {
                SessionOp::Write(self.gen.physio(target))
            }
        } else {
            SessionOp::Read(target)
        }
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

    #[test]
    fn workload_is_deterministic_and_confined() {
        let drive = |seed: u64| -> Vec<(bool, PageId)> {
            let mut w = SessionWorkload::new(seed, 3, 64, 128, 0.99, SessionMix::WriteHeavy);
            (0..200)
                .map(|_| match w.next_op() {
                    SessionOp::Read(p) => (false, p),
                    SessionOp::Write(b) => (true, b.writeset()[0]),
                })
                .collect()
        };
        let a = drive(7);
        assert_eq!(a, drive(7));
        assert_ne!(a, drive(8));
        assert!(a.iter().all(|(_, p)| p.partition.0 == 3));
        let writes = a.iter().filter(|(w, _)| *w).count();
        assert!(
            writes > 140,
            "write-heavy should be mostly writes ({writes}/200)"
        );
    }
}
