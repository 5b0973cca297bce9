//! A deterministic multiply-xor hasher for the replay machinery's hot maps.
//!
//! Recovery's inner loops index by small fixed-width keys — [`PageId`]s and
//! record positions — and probe once or more per replayed log record, so the
//! per-probe cost of `std`'s DoS-resistant SipHash is pure overhead here:
//! the keys come from the log, not from an adversary, and plan construction
//! sits on the restore critical path. The hasher is also seed-free, so map
//! behaviour is identical across processes — the same determinism the
//! replay plan already guarantees by ordering units by first record.
//!
//! [`PageId`]: lob_pagestore::PageId

use std::hash::{BuildHasherDefault, Hasher};

/// FxHash-style state: rotate, xor the word in, multiply by a large odd
/// constant. Quality is ample for u32/u64 keys feeding a power-of-two
/// table.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` keyed through [`FxHasher`].
#[expect(
    clippy::disallowed_types,
    reason = "seed-free hasher: iteration order is identical across processes"
)]
pub(crate) type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use lob_pagestore::PageId;

    #[test]
    fn deterministic_across_maps() {
        let mut a: FxHashMap<PageId, u32> = FxHashMap::default();
        let mut b: FxHashMap<PageId, u32> = FxHashMap::default();
        for i in 0..64u32 {
            a.insert(PageId::new(i % 4, i), i);
            b.insert(PageId::new(i % 4, i), i);
        }
        let ka: Vec<_> = a.keys().copied().collect();
        let kb: Vec<_> = b.keys().copied().collect();
        assert_eq!(ka, kb, "seed-free hashing iterates identically");
    }

    #[test]
    fn distinct_page_ids_spread() {
        use std::collections::BTreeSet;
        use std::hash::{BuildHasher, BuildHasherDefault};
        let bh: BuildHasherDefault<FxHasher> = BuildHasherDefault::default();
        let hashes: BTreeSet<u64> = (0..4096u32)
            .map(|i| bh.hash_one(PageId::new(i % 8, i / 8)))
            .collect();
        assert_eq!(hashes.len(), 4096, "no collisions on a dense id range");
    }
}
