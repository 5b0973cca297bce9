//! # lob-cache — the cache manager's volatile state
//!
//! The cache manager divides volatile state into a *dirty* part (cached
//! versions not yet in the stable database `S`) and a *clean* part (paper
//! §2.4). This crate provides that state and its safety rails:
//!
//! * frames with per-page **dirty** flags and **rLSN** (recovery LSN — the
//!   log position from which this page's redo must start; the minimum over
//!   dirty pages bounds crash-recovery log truncation);
//! * [`CacheManager::write_out`] — the only path to `S` — which *enforces
//!   the write-ahead-log protocol*: writing a page whose pageLSN exceeds the
//!   durable LSN is rejected, so a buggy engine fails loudly instead of
//!   producing an unrecoverable stable database;
//! * a clean-only LRU eviction policy (dirty pages must be flushed through
//!   the write-graph machinery first; evicting them silently would lose the
//!   flush-order bookkeeping).
//!
//! Which pages *may* be flushed, and in what order, is the write graph's
//! business (`lob-recovery`); whether a flush additionally requires Iw/oF
//! logging is the backup protocol's business (`lob-backup`). The cache knows
//! nothing about either — the engine (`lob-core`) wires the three together.

use bytes::Bytes;
use lob_ops::{OpError, PageReader};
use lob_pagestore::{FaultHook, FaultVerdict, IoEvent, Lsn, Page, PageId, StableStore, StoreError};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

pub mod shard;
pub use shard::ShardedCache;

/// Errors from cache operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// Underlying stable-store error.
    Store(StoreError),
    /// The page to write out is not resident.
    NotResident(PageId),
    /// Write-ahead-log protocol violation: a page was about to reach `S`
    /// before the log record that produced its value was durable.
    WalViolation {
        /// The offending page.
        page: PageId,
        /// The page's pageLSN.
        page_lsn: Lsn,
        /// The log's durable LSN at the attempted write.
        durable: Lsn,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Store(e) => write!(f, "store error: {e}"),
            CacheError::NotResident(p) => write!(f, "page {p} not resident"),
            CacheError::WalViolation {
                page,
                page_lsn,
                durable,
            } => write!(
                f,
                "WAL violation: flushing {page} with pageLSN {page_lsn} but durable LSN is {durable}"
            ),
        }
    }
}

impl std::error::Error for CacheError {}

impl From<StoreError> for CacheError {
    fn from(e: StoreError) -> Self {
        CacheError::Store(e)
    }
}

#[derive(Debug, Clone)]
struct Frame {
    page: Page,
    dirty: bool,
    /// If dirty: LSN of the first unflushed operation reflected in this
    /// frame. Crash-recovery replay for this page must start at or before
    /// this LSN.
    rlsn: Lsn,
    last_used: u64,
}

/// Counters describing cache activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cache hits on reads.
    pub hits: u64,
    /// Cache misses (page fetched from `S`).
    pub misses: u64,
    /// Pages written to `S` through [`CacheManager::write_out`].
    pub pages_flushed: u64,
    /// Clean pages evicted for capacity.
    pub evictions: u64,
}

/// The cache manager.
pub struct CacheManager {
    frames: HashMap<PageId, Frame>,
    /// `(rlsn, page)` of every dirty frame, oldest first: the redo floor,
    /// the dirty count and the checkpoint order without a scan over the
    /// resident frames. Updated wherever a frame's `dirty` or `rlsn`
    /// changes; clean frames (the only ones evicted) are not in it.
    dirty: BTreeSet<(Lsn, PageId)>,
    /// Maximum resident pages; `None` = unbounded (simulation default).
    capacity: Option<usize>,
    tick: u64,
    stats: CacheStats,
    /// Optional fault hook consulted ([`IoEvent::PageFlush`]) before each
    /// page write-out, modeling a crash after the flush decision but
    /// before the store write begins.
    hook: Option<FaultHook>,
}

impl CacheManager {
    /// An unbounded cache.
    pub fn new() -> CacheManager {
        CacheManager::with_capacity(None)
    }

    /// A cache holding at most `capacity` pages (clean pages are evicted
    /// LRU-first when exceeded; dirty pages are never evicted silently).
    pub fn with_capacity(capacity: Option<usize>) -> CacheManager {
        CacheManager {
            frames: HashMap::new(),
            dirty: BTreeSet::new(),
            capacity,
            tick: 0,
            stats: CacheStats::default(),
            hook: None,
        }
    }

    /// Install (or clear) the fault hook.
    pub fn set_fault_hook(&mut self, hook: Option<FaultHook>) {
        self.hook = hook;
    }

    fn touch(&mut self, id: PageId) {
        self.tick += 1;
        if let Some(f) = self.frames.get_mut(&id) {
            f.last_used = self.tick;
        }
    }

    /// Current value of a page, fetching from `S` on a miss.
    pub fn get(&mut self, id: PageId, store: &StableStore) -> Result<Page, CacheError> {
        if self.frames.contains_key(&id) {
            self.stats.hits += 1;
            self.touch(id);
            return Ok(self.frames[&id].page.clone());
        }
        self.stats.misses += 1;
        let page = store.read_page(id)?;
        self.tick += 1;
        self.frames.insert(
            id,
            Frame {
                page: page.clone(),
                dirty: false,
                rlsn: Lsn::NULL,
                last_used: self.tick,
            },
        );
        self.shrink_to_capacity();
        Ok(page)
    }

    /// The pageLSN of a page (fetching on miss).
    pub fn page_lsn(&mut self, id: PageId, store: &StableStore) -> Result<Lsn, CacheError> {
        Ok(self.get(id, store)?.lsn())
    }

    /// Install an operation's result for one page: the frame becomes dirty
    /// with the new value and pageLSN; the rLSN is pinned at the first
    /// dirtying operation.
    pub fn put_dirty(&mut self, id: PageId, page: Page) {
        self.tick += 1;
        let tick = self.tick;
        match self.frames.get_mut(&id) {
            Some(f) => {
                if !f.dirty {
                    f.rlsn = page.lsn();
                    self.dirty.insert((f.rlsn, id));
                }
                f.page = page;
                f.dirty = true;
                f.last_used = tick;
            }
            None => {
                let rlsn = page.lsn();
                self.dirty.insert((rlsn, id));
                self.frames.insert(
                    id,
                    Frame {
                        page,
                        dirty: true,
                        rlsn,
                        last_used: tick,
                    },
                );
            }
        }
        self.shrink_to_capacity();
    }

    /// Whether a page is resident and dirty.
    pub fn is_dirty(&self, id: PageId) -> bool {
        self.frames.get(&id).is_some_and(|f| f.dirty)
    }

    /// Whether a page is resident at all.
    pub fn is_resident(&self, id: PageId) -> bool {
        self.frames.contains_key(&id)
    }

    /// The cached value of a resident page.
    pub fn peek(&self, id: PageId) -> Option<&Page> {
        self.frames.get(&id).map(|f| &f.page)
    }

    /// Write pages to `S`, enforcing the WAL protocol against `durable`
    /// (the log's durable LSN). On success the frames are marked clean.
    ///
    /// The caller (the engine) must only invoke this in write-graph order;
    /// the simulation treats one `write_out` call as atomic (the paper's
    /// multi-object atomic flush — usually a single page, where disk write
    /// atomicity suffices).
    // lint: durability(PageFlush requires LogForce)
    pub fn write_out(
        &mut self,
        ids: &[PageId],
        store: &StableStore,
        durable: Lsn,
    ) -> Result<(), CacheError> {
        // Validate everything before writing anything (atomicity).
        for &id in ids {
            self.validate_flush(id, durable)?;
        }
        // Ordering witness: after validation, before any install — a call
        // rejected above writes nothing and must not count as a flush.
        if !ids.is_empty() {
            lob_pagestore::witness::io_order("PageFlush");
        }
        for &id in ids {
            self.flush_validated(id, store)?;
        }
        Ok(())
    }

    /// The WAL-protocol check of [`CacheManager::write_out`] for one page,
    /// without writing anything. [`shard::ShardedCache`] uses
    /// this to validate a whole flush set across shards before any shard
    /// writes.
    pub fn validate_flush(&self, id: PageId, durable: Lsn) -> Result<(), CacheError> {
        let f = self.frames.get(&id).ok_or(CacheError::NotResident(id))?;
        if f.page.lsn() > durable {
            return Err(CacheError::WalViolation {
                page: id,
                page_lsn: f.page.lsn(),
                durable,
            });
        }
        Ok(())
    }

    /// Write one already-validated page to `S` and mark it clean. Callers
    /// must have passed [`CacheManager::validate_flush`] for the page
    /// under the same durable LSN first.
    pub fn flush_validated(&mut self, id: PageId, store: &StableStore) -> Result<(), CacheError> {
        if let Some(h) = &self.hook {
            if matches!(
                h(IoEvent::PageFlush, Some(id)),
                FaultVerdict::Crash | FaultVerdict::TornWrite
            ) {
                // Crash after the flush decision, before the store
                // write: pages written earlier in this call stay
                // written (each page write is individually atomic).
                return Err(CacheError::Store(StoreError::InjectedCrash));
            }
        }
        let f = self
            .frames
            .get_mut(&id)
            .ok_or(CacheError::NotResident(id))?;
        // lint:allow(durability-order) the WAL guard in validate_flush rejects any frame with lsn > durable, so the caller's force is already proven
        store.write_page(id, f.page.clone())?;
        if f.dirty {
            self.dirty.remove(&(f.rlsn, id));
        }
        f.dirty = false;
        f.rlsn = Lsn::NULL;
        self.stats.pages_flushed += 1;
        Ok(())
    }

    /// All dirty page ids, sorted — deterministic so that seeded
    /// experiments that pick flush victims are reproducible.
    pub fn dirty_pages(&self) -> Vec<PageId> {
        let mut out: Vec<PageId> = self.dirty.iter().map(|&(_, id)| id).collect();
        out.sort();
        out
    }

    /// Dirty pages with their rLSNs, ordered oldest-rLSN first — the
    /// classic checkpointing order: flushing these first advances the log
    /// truncation point fastest.
    pub fn dirty_pages_by_rlsn(&self) -> Vec<(PageId, Lsn)> {
        self.dirty.iter().map(|&(rlsn, id)| (id, rlsn)).collect()
    }

    /// Number of dirty pages.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Number of resident pages.
    pub fn resident_count(&self) -> usize {
        self.frames.len()
    }

    /// Minimum rLSN over dirty pages: crash recovery must scan from here
    /// (or earlier). `None` when nothing is dirty.
    pub fn min_dirty_rlsn(&self) -> Option<Lsn> {
        self.dirty.first().map(|&(rlsn, _)| rlsn)
    }

    /// Advance a dirty page's rLSN (used after an identity write puts the
    /// page's value on the log: redo for this page can now start at the
    /// identity record — paper §3.2, "advance the rLSN of each object so
    /// written").
    pub fn advance_rlsn(&mut self, id: PageId, to: Lsn) {
        if let Some(f) = self.frames.get_mut(&id) {
            if f.dirty && f.rlsn < to {
                self.dirty.remove(&(f.rlsn, id));
                f.rlsn = to;
                self.dirty.insert((to, id));
            }
        }
    }

    /// Drop every frame (crash: volatile state is lost).
    pub fn clear(&mut self) {
        self.frames.clear();
        self.dirty.clear();
    }

    /// Drop a clean page from the cache. Dirty pages are refused.
    pub fn evict(&mut self, id: PageId) -> Result<(), CacheError> {
        match self.frames.get(&id) {
            None => Ok(()),
            Some(f) if f.dirty => Err(CacheError::NotResident(id)), // must flush first
            Some(_) => {
                self.frames.remove(&id);
                Ok(())
            }
        }
    }

    fn shrink_to_capacity(&mut self) {
        let Some(cap) = self.capacity else { return };
        while self.frames.len() > cap {
            // Evict the least-recently-used clean page, if any.
            let victim = self
                .frames
                .iter()
                .filter(|(_, f)| !f.dirty)
                .min_by_key(|(_, f)| f.last_used)
                .map(|(id, _)| *id);
            match victim {
                Some(id) => {
                    self.frames.remove(&id);
                    self.stats.evictions += 1;
                }
                None => break, // everything dirty: over capacity until flushed
            }
        }
    }

    /// Cache statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

impl Default for CacheManager {
    fn default() -> Self {
        CacheManager::new()
    }
}

impl fmt::Debug for CacheManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CacheManager({} resident, {} dirty)",
            self.frames.len(),
            self.dirty_count()
        )
    }
}

/// A [`PageReader`] view over the cache + store, used to evaluate
/// operations (both at normal execution and — via a fresh cache — at
/// recovery).
pub struct CacheReader<'a> {
    cache: &'a mut CacheManager,
    store: &'a StableStore,
}

impl<'a> CacheReader<'a> {
    /// Construct a reader borrowing the cache and store.
    pub fn new(cache: &'a mut CacheManager, store: &'a StableStore) -> Self {
        CacheReader { cache, store }
    }
}

impl PageReader for CacheReader<'_> {
    fn read(&mut self, id: PageId) -> Result<Bytes, OpError> {
        match self.cache.get(id, self.store) {
            Ok(p) => Ok(p.data().clone()),
            Err(e) => Err(OpError::ReadFailed {
                page: id,
                cause: e.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lob_pagestore::StoreConfig;

    const SIZE: usize = 16;

    fn pid(i: u32) -> PageId {
        PageId::new(0, i)
    }

    fn store() -> StableStore {
        StableStore::single(StoreConfig { page_size: SIZE }, 16)
    }

    fn page(lsn: u64, fill: u8) -> Page {
        Page::new(Lsn(lsn), Bytes::from(vec![fill; SIZE]))
    }

    #[test]
    fn miss_then_hit() {
        let s = store();
        let mut c = CacheManager::new();
        let p = c.get(pid(0), &s).unwrap();
        assert!(p.lsn().is_null());
        assert_eq!(c.stats().misses, 1);
        c.get(pid(0), &s).unwrap();
        assert_eq!(c.stats().hits, 1);
        assert_eq!(s.stats().page_reads, 1, "second read served from cache");
    }

    #[test]
    fn dirty_pages_tracked_with_rlsn() {
        let s = store();
        let mut c = CacheManager::new();
        c.get(pid(0), &s).unwrap();
        c.put_dirty(pid(0), page(5, 1));
        c.put_dirty(pid(0), page(9, 2));
        assert!(c.is_dirty(pid(0)));
        assert_eq!(c.dirty_count(), 1);
        assert_eq!(
            c.min_dirty_rlsn(),
            Some(Lsn(5)),
            "rLSN pinned at first dirtying op"
        );
        assert_eq!(c.peek(pid(0)).unwrap().lsn(), Lsn(9));
    }

    #[test]
    fn write_out_enforces_wal_protocol() {
        let s = store();
        let mut c = CacheManager::new();
        c.put_dirty(pid(0), page(7, 1));
        let err = c.write_out(&[pid(0)], &s, Lsn(6)).unwrap_err();
        assert!(matches!(err, CacheError::WalViolation { .. }));
        assert!(c.is_dirty(pid(0)), "nothing written on violation");
        c.write_out(&[pid(0)], &s, Lsn(7)).unwrap();
        assert!(!c.is_dirty(pid(0)));
        assert_eq!(s.read_page(pid(0)).unwrap().lsn(), Lsn(7));
        assert_eq!(c.min_dirty_rlsn(), None);
    }

    #[test]
    fn write_out_validates_before_writing_any() {
        let s = store();
        let mut c = CacheManager::new();
        c.put_dirty(pid(0), page(1, 1));
        c.put_dirty(pid(1), page(9, 2));
        // Page 1 violates WAL → neither page reaches S.
        assert!(c.write_out(&[pid(0), pid(1)], &s, Lsn(5)).is_err());
        assert!(s.read_page(pid(0)).unwrap().lsn().is_null());
    }

    #[test]
    fn write_out_of_nonresident_fails() {
        let s = store();
        let mut c = CacheManager::new();
        assert!(matches!(
            c.write_out(&[pid(3)], &s, Lsn::MAX),
            Err(CacheError::NotResident(_))
        ));
    }

    #[test]
    fn advance_rlsn_after_identity_write() {
        let mut c = CacheManager::new();
        c.put_dirty(pid(0), page(3, 1));
        c.advance_rlsn(pid(0), Lsn(8));
        assert_eq!(c.min_dirty_rlsn(), Some(Lsn(8)));
        // Never regresses.
        c.advance_rlsn(pid(0), Lsn(2));
        assert_eq!(c.min_dirty_rlsn(), Some(Lsn(8)));
    }

    #[test]
    fn dirty_pages_by_rlsn_orders_oldest_first() {
        let mut c = CacheManager::new();
        c.put_dirty(pid(2), page(9, 1));
        c.put_dirty(pid(0), page(3, 1));
        c.put_dirty(pid(1), page(5, 1));
        let order: Vec<Lsn> = c.dirty_pages_by_rlsn().iter().map(|&(_, l)| l).collect();
        assert_eq!(order, vec![Lsn(3), Lsn(5), Lsn(9)]);
    }

    #[test]
    fn eviction_is_clean_lru_only() {
        let s = store();
        let mut c = CacheManager::with_capacity(Some(2));
        c.get(pid(0), &s).unwrap();
        c.put_dirty(pid(1), page(1, 1));
        c.get(pid(2), &s).unwrap(); // over capacity → evict clean LRU = page 0
        assert!(!c.is_resident(pid(0)));
        assert!(c.is_resident(pid(1)), "dirty page survives");
        assert!(c.is_resident(pid(2)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn explicit_evict_refuses_dirty() {
        let s = store();
        let mut c = CacheManager::new();
        c.put_dirty(pid(0), page(1, 1));
        assert!(c.evict(pid(0)).is_err());
        c.get(pid(1), &s).unwrap();
        assert!(c.evict(pid(1)).is_ok());
        assert!(!c.is_resident(pid(1)));
    }

    #[test]
    fn clear_models_crash() {
        let s = store();
        let mut c = CacheManager::new();
        c.put_dirty(pid(0), page(1, 1));
        c.clear();
        assert_eq!(c.resident_count(), 0);
        assert_eq!(c.dirty_count(), 0);
        // S untouched by the crash.
        assert!(s.read_page(pid(0)).unwrap().lsn().is_null());
    }

    #[test]
    fn dirty_index_equals_a_scan_of_the_frames() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let s = store();
        let mut rng = SmallRng::seed_from_u64(0xD1A7);
        // Capacity below the page count, so gets evict clean frames.
        let mut c = CacheManager::with_capacity(Some(6));
        let mut lsn = 0u64;
        for step in 0..4000 {
            let id = pid(rng.gen_range(0..16u32));
            lsn += 1;
            match rng.gen_range(0..6u32) {
                0 | 1 => c.put_dirty(id, page(lsn, 1)),
                2 => c.advance_rlsn(id, Lsn(rng.gen_range(0..lsn + 1))),
                3 => {
                    let _ = c.write_out(&[id], &s, Lsn::MAX);
                }
                4 => {
                    let _ = c.get(id, &s);
                }
                _ => {
                    let _ = c.evict(id);
                }
            }
            if step % 997 == 0 {
                c.clear();
            }
            let mut scan: Vec<(PageId, Lsn)> = c
                .frames
                .iter()
                .filter(|(_, f)| f.dirty)
                .map(|(id, f)| (*id, f.rlsn))
                .collect();
            scan.sort_by_key(|&(id, rlsn)| (rlsn, id));
            assert_eq!(c.dirty_pages_by_rlsn(), scan, "step {step}");
            assert_eq!(c.dirty_count(), scan.len());
            assert_eq!(c.min_dirty_rlsn(), scan.first().map(|&(_, rlsn)| rlsn));
            let mut ids: Vec<PageId> = scan.iter().map(|&(id, _)| id).collect();
            ids.sort();
            assert_eq!(c.dirty_pages(), ids);
        }
    }

    #[test]
    fn cache_reader_serves_op_evaluation() {
        let s = store();
        let mut c = CacheManager::new();
        c.put_dirty(pid(0), page(2, 0xAB));
        let mut r = CacheReader::new(&mut c, &s);
        use lob_ops::PageReader as _;
        let v = r.read(pid(0)).unwrap();
        assert_eq!(v[0], 0xAB, "reader sees the dirty cached value");
        let v2 = r.read(pid(1)).unwrap();
        assert_eq!(v2[0], 0, "miss fetches from S");
    }
}
