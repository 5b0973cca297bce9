//! # Sharded cache front
//!
//! [`ShardedCache`] spreads the cache over N independently locked shards
//! keyed by a page-id hash, so concurrent sessions touching different
//! pages almost never contend on cache state — the buffer-pool sharding
//! idiom. Each shard *is* a [`CacheManager`], so every safety rail the
//! single-threaded cache enforces (WAL-protocol-checked write-out, the
//! `PageFlush` fault consult per page, clean-only LRU eviction, rLSN
//! pinning) is inherited verbatim rather than re-implemented.
//!
//! Cross-shard flush atomicity: [`ShardedCache::write_out`] validates
//! every page of the set (across all its shards) before any shard writes,
//! preserving the "validate everything before writing anything" contract
//! of [`CacheManager::write_out`]. The two-phase walk is sound because
//! the engine service only flushes pages of one coordinator domain per
//! call while holding that domain's write lock — no other session can
//! dirty or clean those pages between the phases.
//!
//! Lock discipline: at most one shard lock is ever held at a time (the
//! two-phase flush re-locks per page instead of holding the whole set),
//! so shard locks cannot deadlock against each other or anything else.

use crate::{CacheError, CacheManager, CacheStats};
use lob_pagestore::{FaultHook, Lsn, Page, PageId, PartitionId, StableStore};
use parking_lot::{Mutex, MutexGuard};

/// A page cache sharded by page-id hash. See the module docs.
pub struct ShardedCache {
    /// The shards; every access goes through
    /// [`ShardedCache::lock_shard`]. One lock id covers all shards (they
    /// are interchangeable instances of the same role, like the store's
    /// per-partition locks).
    shards: Vec<Mutex<CacheManager>>,
}

impl ShardedCache {
    /// A cache with `shards` shards (clamped to at least 1) holding at
    /// most `capacity` pages in total (`None` = unbounded; the budget is
    /// split evenly across shards, rounded up).
    pub fn new(shards: usize, capacity: Option<usize>) -> ShardedCache {
        let n = shards.max(1);
        let per_shard = capacity.map(|c| c.div_ceil(n).max(1));
        ShardedCache {
            shards: (0..n)
                .map(|_| Mutex::new(CacheManager::with_capacity(per_shard)))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// FNV-1a over the page id — cheap, deterministic, and spreads the
    /// (partition, index) pairs workloads actually use.
    fn hash(id: PageId) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in id
            .partition
            .0
            .to_le_bytes()
            .into_iter()
            .chain(id.index.to_le_bytes())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Lock the shard owning `id`. The error arm is unreachable
    /// (construction guarantees at least one shard and the index is
    /// reduced mod the length) but kept typed: no panics on this path.
    fn lock_shard(&self, id: PageId) -> Result<MutexGuard<'_, CacheManager>, CacheError> {
        let shard = match self.shards.as_slice() {
            [only] => only,
            shards => shards
                .get(Self::hash(id) as usize % shards.len().max(1))
                .ok_or(CacheError::NotResident(id))?,
        };
        Ok(shard.lock())
    }

    /// Install (or clear) the fault hook on every shard.
    pub fn set_fault_hook(&self, hook: Option<FaultHook>) {
        for s in &self.shards {
            s.lock().set_fault_hook(hook.clone());
        }
    }

    /// Current value of a page, fetching from `S` on a miss.
    pub fn get(&self, id: PageId, store: &StableStore) -> Result<Page, CacheError> {
        let mut c = self.lock_shard(id)?;
        c.get(id, store)
    }

    /// The pageLSN of a page (fetching on miss).
    pub fn page_lsn(&self, id: PageId, store: &StableStore) -> Result<Lsn, CacheError> {
        let mut c = self.lock_shard(id)?;
        c.page_lsn(id, store)
    }

    /// Install an operation's result for one page (dirty, rLSN pinned at
    /// the first dirtying operation).
    pub fn put_dirty(&self, id: PageId, page: Page) -> Result<(), CacheError> {
        let mut c = self.lock_shard(id)?;
        c.put_dirty(id, page);
        Ok(())
    }

    /// Whether a page is resident and dirty.
    pub fn is_dirty(&self, id: PageId) -> bool {
        self.lock_shard(id).map(|c| c.is_dirty(id)).unwrap_or(false)
    }

    /// The cached value of a resident page (owned — the shard lock is
    /// released before returning).
    pub fn peek(&self, id: PageId) -> Option<Page> {
        self.lock_shard(id).ok().and_then(|c| c.peek(id).cloned())
    }

    /// Write pages to `S` in one atomic-validated set: phase one checks
    /// the WAL protocol for every page across all involved shards, phase
    /// two writes. See the module docs for why the phases may re-lock.
    // lint: durability(PageFlush requires LogForce)
    pub fn write_out(
        &self,
        ids: &[PageId],
        store: &StableStore,
        durable: Lsn,
    ) -> Result<(), CacheError> {
        for &id in ids {
            let c = self.lock_shard(id)?;
            c.validate_flush(id, durable)?;
        }
        // Ordering witness: after validation, before any install — a call
        // rejected above writes nothing and must not count as a flush.
        if !ids.is_empty() {
            lob_pagestore::witness::io_order("PageFlush");
        }
        for &id in ids {
            let mut c = self.lock_shard(id)?;
            c.flush_validated(id, store)?;
        }
        Ok(())
    }

    /// All dirty page ids, sorted (deterministic across shard layouts).
    pub fn dirty_pages(&self) -> Vec<PageId> {
        let mut out: Vec<PageId> = Vec::new();
        for s in &self.shards {
            out.extend(s.lock().dirty_pages());
        }
        out.sort();
        out
    }

    /// Dirty pages with their rLSNs, oldest rLSN first.
    pub fn dirty_pages_by_rlsn(&self) -> Vec<(PageId, Lsn)> {
        let mut out: Vec<(PageId, Lsn)> = Vec::new();
        for s in &self.shards {
            out.extend(s.lock().dirty_pages_by_rlsn());
        }
        out.sort_by_key(|&(id, rlsn)| (rlsn, id));
        out
    }

    /// Number of dirty pages across all shards.
    pub fn dirty_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().dirty_count()).sum()
    }

    /// Number of resident pages across all shards.
    pub fn resident_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().resident_count()).sum()
    }

    /// Minimum rLSN over dirty pages (the crash-recovery scan bound).
    pub fn min_dirty_rlsn(&self) -> Option<Lsn> {
        self.shards
            .iter()
            .filter_map(|s| s.lock().min_dirty_rlsn())
            .min()
    }

    /// Advance a dirty page's rLSN (never regresses).
    pub fn advance_rlsn(&self, id: PageId, to: Lsn) {
        if let Ok(mut c) = self.lock_shard(id) {
            c.advance_rlsn(id, to);
        }
    }

    /// Drop every frame (crash: volatile state is lost).
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().clear();
        }
    }

    /// Drop every frame of one partition (its medium was replaced).
    pub fn clear_partition(&self, partition: PartitionId) {
        for s in &self.shards {
            s.lock().clear_partition(partition);
        }
    }

    /// Drop a clean page (see [`CacheManager::evict`]).
    pub fn evict(&self, id: PageId) -> Result<(), CacheError> {
        self.lock_shard(id)?.evict(id)
    }

    /// Summed statistics across shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.shards {
            let st = s.lock().stats();
            total.hits += st.hits;
            total.misses += st.misses;
            total.pages_flushed += st.pages_flushed;
            total.evictions += st.evictions;
        }
        total
    }
}

impl std::fmt::Debug for ShardedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ShardedCache({} shards, {} resident, {} dirty)",
            self.shards.len(),
            self.resident_count(),
            self.dirty_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use lob_pagestore::StoreConfig;
    use std::sync::Arc;

    const SIZE: usize = 16;

    fn pid(i: u32) -> PageId {
        PageId::new(0, i)
    }

    fn store() -> StableStore {
        StableStore::single(StoreConfig { page_size: SIZE }, 64)
    }

    fn page(lsn: u64, fill: u8) -> Page {
        Page::new(Lsn(lsn), Bytes::from(vec![fill; SIZE]))
    }

    #[test]
    fn shards_cover_all_pages() {
        let s = store();
        let c = ShardedCache::new(4, None);
        assert_eq!(c.shard_count(), 4);
        for i in 0..32 {
            c.get(pid(i), &s).unwrap();
        }
        assert_eq!(c.resident_count(), 32);
        let stats = c.stats();
        assert_eq!(stats.misses, 32);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let c = ShardedCache::new(0, None);
        assert_eq!(c.shard_count(), 1);
        c.put_dirty(pid(0), page(1, 1)).unwrap();
        assert!(c.is_dirty(pid(0)));
    }

    #[test]
    fn dirty_tracking_spans_shards() {
        let c = ShardedCache::new(4, None);
        c.put_dirty(pid(3), page(9, 1)).unwrap();
        c.put_dirty(pid(11), page(3, 1)).unwrap();
        c.put_dirty(pid(7), page(5, 1)).unwrap();
        assert_eq!(c.dirty_count(), 3);
        assert_eq!(c.min_dirty_rlsn(), Some(Lsn(3)));
        let order: Vec<Lsn> = c.dirty_pages_by_rlsn().iter().map(|&(_, l)| l).collect();
        assert_eq!(order, vec![Lsn(3), Lsn(5), Lsn(9)]);
        assert_eq!(c.dirty_pages(), vec![pid(3), pid(7), pid(11)]);
    }

    #[test]
    fn write_out_validates_across_shards_before_writing() {
        let s = store();
        let c = ShardedCache::new(4, None);
        c.put_dirty(pid(0), page(1, 1)).unwrap();
        c.put_dirty(pid(9), page(9, 2)).unwrap();
        // pid(9) violates WAL at durable=5 → neither page reaches S.
        assert!(c.write_out(&[pid(0), pid(9)], &s, Lsn(5)).is_err());
        assert!(s.read_page(pid(0)).unwrap().lsn().is_null());
        c.write_out(&[pid(0), pid(9)], &s, Lsn(9)).unwrap();
        assert_eq!(c.dirty_count(), 0);
        assert_eq!(s.read_page(pid(9)).unwrap().lsn(), Lsn(9));
    }

    #[test]
    fn peek_returns_owned_page() {
        let c = ShardedCache::new(2, None);
        assert!(c.peek(pid(0)).is_none());
        c.put_dirty(pid(0), page(4, 0xAB)).unwrap();
        let p = c.peek(pid(0)).unwrap();
        assert_eq!(p.lsn(), Lsn(4));
        assert_eq!(p.data()[0], 0xAB);
    }

    #[test]
    fn capacity_splits_across_shards() {
        let s = store();
        let c = ShardedCache::new(2, Some(4));
        for i in 0..16 {
            c.get(pid(i), &s).unwrap();
        }
        // Per-shard budget is 2; clean LRU eviction keeps residency ≈ 4.
        assert!(c.resident_count() <= 4, "{} resident", c.resident_count());
        assert!(c.stats().evictions >= 12);
    }

    #[test]
    fn concurrent_readers_and_writers_stay_consistent() {
        let s = Arc::new(store());
        let c = Arc::new(ShardedCache::new(4, None));
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let c = c.clone();
                let s = s.clone();
                scope.spawn(move || {
                    for round in 1..=50u64 {
                        let id = pid(t * 16 + (round % 8) as u32);
                        c.put_dirty(id, page(round, t as u8)).unwrap();
                        let _ = c.get(id, &s).unwrap();
                    }
                });
            }
        });
        assert!(c.dirty_count() <= 32);
        for t in 0..4u32 {
            for r in 0..8u32 {
                let p = c.peek(pid(t * 16 + r));
                if let Some(p) = p {
                    assert_eq!(p.data()[0], t as u8, "no cross-thread bleed");
                }
            }
        }
    }

    #[test]
    fn clear_models_crash() {
        let c = ShardedCache::new(4, None);
        c.put_dirty(pid(0), page(1, 1)).unwrap();
        c.put_dirty(pid(9), page(2, 2)).unwrap();
        c.clear();
        assert_eq!(c.resident_count(), 0);
        assert_eq!(c.dirty_count(), 0);
    }
}
