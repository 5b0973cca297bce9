//! Seeded random workload generation.

use bytes::Bytes;
use lob_core::{OpBody, PageId};
use lob_ops::{LogicalOp, PhysioOp};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A deterministic (seeded) generator of workload operations.
///
/// Everything an experiment does is reproducible from its seed; the
/// generators never consult global randomness.
pub struct WorkloadGen {
    rng: SmallRng,
    page_size: usize,
    salt: u64,
}

impl WorkloadGen {
    /// A generator for `page_size`-byte pages.
    pub fn new(seed: u64, page_size: usize) -> WorkloadGen {
        WorkloadGen {
            rng: SmallRng::seed_from_u64(seed),
            page_size,
            salt: seed.wrapping_mul(0x9e37_79b9),
        }
    }

    /// Access the underlying RNG (for workload-specific choices).
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    fn next_salt(&mut self) -> u64 {
        self.salt = self.salt.wrapping_add(0x9e37_79b9_7f4a_7c15);
        self.salt
    }

    /// Pick a random element.
    #[expect(
        clippy::expect_used,
        reason = "caller contract: workloads draw from non-empty page sets"
    )]
    pub fn pick(&mut self, pages: &[PageId]) -> PageId {
        *pages.choose(&mut self.rng).expect("non-empty page set")
    }

    /// A random full-page physical write of `target`.
    pub fn physical(&mut self, target: PageId) -> OpBody {
        let salt = self.next_salt();
        let bytes: Vec<u8> = (0..self.page_size)
            .map(|i| (salt as usize ^ i.wrapping_mul(131)) as u8)
            .collect();
        OpBody::PhysicalWrite {
            target,
            value: Bytes::from(bytes),
        }
    }

    /// A random physiological overlay on `target`.
    pub fn physio(&mut self, target: PageId) -> OpBody {
        let len = self.rng.gen_range(1..=8.min(self.page_size));
        let offset = self.rng.gen_range(0..=(self.page_size - len)) as u32;
        let bytes: Vec<u8> = (0..len).map(|_| self.rng.gen()).collect();
        OpBody::Physio(PhysioOp::SetBytes {
            target,
            offset,
            bytes: Bytes::from(bytes),
        })
    }

    /// A general logical operation reading `reads` random pages and writing
    /// `writes` random pages (all distinct).
    pub fn mix(&mut self, pages: &[PageId], reads: usize, writes: usize) -> OpBody {
        assert!(reads + writes <= pages.len(), "not enough distinct pages");
        let mut chosen: Vec<PageId> = pages
            .choose_multiple(&mut self.rng, reads + writes)
            .copied()
            .collect();
        let write_set = chosen.split_off(reads);
        OpBody::Logical(LogicalOp::Mix {
            reads: chosen,
            writes: write_set,
            salt: self.next_salt(),
        })
    }

    /// A logical copy of a random `used` page into a specific fresh page.
    pub fn copy_to_fresh(&mut self, used: &[PageId], fresh: PageId) -> OpBody {
        OpBody::Logical(LogicalOp::Copy {
            src: self.pick(used),
            dst: fresh,
        })
    }

    /// A uniformly shuffled copy of `items`.
    pub fn shuffled<T: Copy>(&mut self, items: &[T]) -> Vec<T> {
        let mut v = items.to_vec();
        v.shuffle(&mut self.rng);
        v
    }

    /// A random probability draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p.clamp(0.0, 1.0))
    }

    /// A random value in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages(n: u32) -> Vec<PageId> {
        (0..n).map(|i| PageId::new(0, i)).collect()
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let ps = pages(16);
        let mut a = WorkloadGen::new(7, 64);
        let mut b = WorkloadGen::new(7, 64);
        for _ in 0..10 {
            assert_eq!(a.mix(&ps, 2, 2), b.mix(&ps, 2, 2));
            assert_eq!(a.physio(ps[0]), b.physio(ps[0]));
        }
        let mut c = WorkloadGen::new(8, 64);
        assert_ne!(a.physical(ps[0]), c.physical(ps[0]));
    }

    #[test]
    fn mix_sets_are_disjoint_and_sized() {
        let ps = pages(32);
        let mut g = WorkloadGen::new(1, 64);
        for _ in 0..50 {
            let op = g.mix(&ps, 3, 2);
            let (r, w) = (op.readset(), op.writeset());
            assert_eq!(r.len(), 3);
            assert_eq!(w.len(), 2);
            assert!(r.iter().all(|x| !w.contains(x)));
        }
    }

    #[test]
    fn physical_is_page_sized() {
        let mut g = WorkloadGen::new(1, 128);
        if let OpBody::PhysicalWrite { value, .. } = g.physical(PageId::new(0, 0)) {
            assert_eq!(value.len(), 128);
        } else {
            panic!("wrong op kind");
        }
    }

    #[test]
    fn physio_stays_in_bounds() {
        let mut g = WorkloadGen::new(3, 16);
        for _ in 0..100 {
            if let OpBody::Physio(PhysioOp::SetBytes { offset, bytes, .. }) =
                g.physio(PageId::new(0, 0))
            {
                assert!(offset as usize + bytes.len() <= 16);
            } else {
                panic!("wrong op kind");
            }
        }
    }
}
