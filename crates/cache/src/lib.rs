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
//! Frames live in one `HashMap<PageId, Frame>` and a call makes one hash
//! probe. A bounded cache also keeps a recency list — a slab of small
//! nodes, one per resident page, doubly linked from least to most recently
//! used — and moves a page's node to the hot end on exactly the events that
//! count as a use: read hit, read miss, `put_dirty`. The victim, the first
//! clean node from the cold end, is therefore the least recently used clean
//! page: the same page a scan for the smallest last-use stamp among clean
//! frames picks (the tests keep that scan as the reference). Eviction is
//! O(1) unless dirty pages are colder than the victim, and then costs one
//! step per such page. An unbounded cache keeps no recency state at all.
//!
//! Which pages *may* be flushed, and in what order, is the write graph's
//! business (`lob-recovery`); whether a flush additionally requires Iw/oF
//! logging is the backup protocol's business (`lob-backup`). The cache knows
//! nothing about either — the engine (`lob-core`) wires the three together.

use bytes::Bytes;
use lob_ops::{OpError, PageReader};
use lob_pagestore::{
    FaultHook, FaultVerdict, IoEvent, Lsn, Page, PageId, PartitionId, StableStore, StoreError,
};
use std::collections::hash_map::Entry;
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
    /// The page to evict is dirty: dropping it would lose its unflushed
    /// value and the write graph's flush-order bookkeeping.
    Dirty(PageId),
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
            CacheError::Dirty(p) => write!(f, "page {p} is dirty: flush before evicting"),
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

/// Position of a node in [`Recency::nodes`]; never leaves this crate.
type Slot = u32;

/// "No node": the end of the recency list, or a frame that is on no list.
const NIL: Slot = Slot::MAX;

#[derive(Debug, Clone)]
struct Frame {
    page: Page,
    dirty: bool,
    /// If dirty: LSN of the first unflushed operation reflected in this
    /// frame. Crash-recovery replay for this page must start at or before
    /// this LSN.
    rlsn: Lsn,
    /// This frame's node on the recency list ([`NIL`] in an unbounded
    /// cache, which keeps no list).
    node: Slot,
}

/// One resident page on the recency list.
#[derive(Debug, Clone)]
struct Node {
    id: PageId,
    /// Copy of the frame's dirty flag, so the search for a victim reads
    /// only the list.
    dirty: bool,
    colder: Slot,
    hotter: Slot,
}

/// What only a bounded cache has: its capacity and the recency list —
/// every resident page, `cold` (least recently used) to `hot`, as a doubly
/// linked list through a slab of nodes. See the module docs for why the
/// list's order is the eviction order.
#[derive(Debug)]
struct Recency {
    /// Maximum resident pages.
    capacity: usize,
    nodes: Vec<Node>,
    free: Vec<Slot>,
    cold: Slot,
    hot: Slot,
}

impl Recency {
    fn new(capacity: usize) -> Recency {
        Recency {
            capacity,
            nodes: Vec::new(),
            free: Vec::new(),
            cold: NIL,
            hot: NIL,
        }
    }

    fn node_mut(&mut self, slot: Slot) -> Option<&mut Node> {
        self.nodes.get_mut(slot as usize)
    }

    /// List a clean page as the most recently used one.
    fn insert(&mut self, id: PageId) -> Slot {
        let node = Node {
            id,
            dirty: false,
            colder: NIL,
            hotter: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                if let Some(cell) = self.node_mut(slot) {
                    *cell = node;
                }
                slot
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as Slot
            }
        };
        self.link_hot(slot);
        slot
    }

    /// Take a page off the list.
    fn remove(&mut self, slot: Slot) {
        self.unlink(slot);
        self.free.push(slot);
    }

    /// Record a use: the page becomes the most recently used.
    fn touch(&mut self, slot: Slot) {
        if self.hot != slot {
            self.unlink(slot);
            self.link_hot(slot);
        }
    }

    fn set_dirty(&mut self, slot: Slot, dirty: bool) {
        if let Some(n) = self.node_mut(slot) {
            n.dirty = dirty;
        }
    }

    fn link_hot(&mut self, slot: Slot) {
        let old_hot = self.hot;
        if let Some(n) = self.node_mut(slot) {
            n.colder = old_hot;
            n.hotter = NIL;
        }
        match self.node_mut(old_hot) {
            Some(h) => h.hotter = slot,
            None => self.cold = slot,
        }
        self.hot = slot;
    }

    fn unlink(&mut self, slot: Slot) {
        let Some(n) = self.node_mut(slot) else { return };
        let (colder, hotter) = (n.colder, n.hotter);
        match self.node_mut(colder) {
            Some(c) => c.hotter = hotter,
            None => self.cold = hotter,
        }
        match self.node_mut(hotter) {
            Some(h) => h.colder = colder,
            None => self.hot = colder,
        }
    }

    /// The least recently used clean page. The walk passes only the dirty
    /// pages colder than the answer, so it is bounded by the dirty count,
    /// not the resident count.
    fn coldest_clean(&self) -> Option<(Slot, PageId)> {
        let mut slot = self.cold;
        while let Some(n) = self.nodes.get(slot as usize) {
            if !n.dirty {
                return Some((slot, n.id));
            }
            slot = n.hotter;
        }
        None
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.cold = NIL;
        self.hot = NIL;
    }
}

/// Make a resident frame dirty with recovery LSN `rlsn`, or clean (`None`).
/// The frame's flag and rLSN, the dirty index and the recency node's copy of
/// the flag change here and nowhere else, so the three cannot drift apart.
fn set_frame_dirty(
    f: &mut Frame,
    id: PageId,
    rlsn: Option<Lsn>,
    index: &mut BTreeSet<(Lsn, PageId)>,
    recency: &mut Option<Recency>,
) {
    if f.dirty {
        index.remove(&(f.rlsn, id));
    }
    f.dirty = rlsn.is_some();
    f.rlsn = rlsn.unwrap_or(Lsn::NULL);
    if f.dirty {
        index.insert((f.rlsn, id));
    }
    if let Some(r) = recency {
        r.set_dirty(f.node, f.dirty);
    }
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
    /// Capacity and recency list; `None` = unbounded (simulation default).
    recency: Option<Recency>,
    /// `(rlsn, page)` of every dirty frame, oldest first: the redo floor,
    /// the dirty count and the checkpoint order without a scan over the
    /// resident frames. Updated by [`set_frame_dirty`] only; clean frames
    /// (the only ones evicted) are not in it.
    dirty: BTreeSet<(Lsn, PageId)>,
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
            recency: capacity.map(Recency::new),
            dirty: BTreeSet::new(),
            stats: CacheStats::default(),
            hook: None,
        }
    }

    /// Install (or clear) the fault hook.
    pub fn set_fault_hook(&mut self, hook: Option<FaultHook>) {
        self.hook = hook;
    }

    /// Current value of a page, fetching from `S` on a miss.
    pub fn get(&mut self, id: PageId, store: &StableStore) -> Result<Page, CacheError> {
        match self.frames.entry(id) {
            Entry::Occupied(e) => {
                self.stats.hits += 1;
                let f = e.get();
                if let Some(r) = &mut self.recency {
                    r.touch(f.node);
                }
                Ok(f.page.clone())
            }
            Entry::Vacant(e) => {
                self.stats.misses += 1;
                let page = store.read_page(id)?;
                e.insert(Frame {
                    page: page.clone(),
                    dirty: false,
                    rlsn: Lsn::NULL,
                    node: self.recency.as_mut().map_or(NIL, |r| r.insert(id)),
                });
                self.shrink_to_capacity();
                Ok(page)
            }
        }
    }

    /// The pageLSN of a page (fetching on miss).
    pub fn page_lsn(&mut self, id: PageId, store: &StableStore) -> Result<Lsn, CacheError> {
        Ok(self.get(id, store)?.lsn())
    }

    /// Install an operation's result for one page: the frame becomes dirty
    /// with the new value and pageLSN; the rLSN is pinned at the first
    /// dirtying operation.
    pub fn put_dirty(&mut self, id: PageId, page: Page) {
        match self.frames.entry(id) {
            Entry::Occupied(mut e) => {
                let f = e.get_mut();
                if let Some(r) = &mut self.recency {
                    r.touch(f.node);
                }
                if !f.dirty {
                    set_frame_dirty(f, id, Some(page.lsn()), &mut self.dirty, &mut self.recency);
                }
                f.page = page;
            }
            Entry::Vacant(e) => {
                let rlsn = page.lsn();
                let f = e.insert(Frame {
                    page,
                    dirty: false,
                    rlsn: Lsn::NULL,
                    node: self.recency.as_mut().map_or(NIL, |r| r.insert(id)),
                });
                set_frame_dirty(f, id, Some(rlsn), &mut self.dirty, &mut self.recency);
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
            set_frame_dirty(f, id, None, &mut self.dirty, &mut self.recency);
        }
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
                set_frame_dirty(f, id, Some(to), &mut self.dirty, &mut self.recency);
            }
        }
    }

    /// Drop every frame (crash: volatile state is lost).
    pub fn clear(&mut self) {
        self.frames.clear();
        self.dirty.clear();
        if let Some(r) = &mut self.recency {
            r.clear();
        }
    }

    /// Drop every frame of one partition, dirty or not (its medium was
    /// replaced: nothing cached for it is current any more).
    pub fn clear_partition(&mut self, partition: PartitionId) {
        let ids: Vec<PageId> = self
            .frames
            .keys()
            .filter(|id| id.partition == partition)
            .copied()
            .collect();
        for id in ids {
            if let Some(f) = self.frames.remove(&id) {
                self.dirty.remove(&(f.rlsn, id));
                if let Some(r) = &mut self.recency {
                    r.remove(f.node);
                }
            }
        }
    }

    /// Drop a clean page from the cache. A dirty page is refused with
    /// [`CacheError::Dirty`]; a page that is not resident is already gone.
    pub fn evict(&mut self, id: PageId) -> Result<(), CacheError> {
        if let Entry::Occupied(e) = self.frames.entry(id) {
            if e.get().dirty {
                return Err(CacheError::Dirty(id));
            }
            let f = e.remove();
            if let Some(r) = &mut self.recency {
                r.remove(f.node);
            }
        }
        Ok(())
    }

    /// Evict least-recently-used clean frames until the cache is back
    /// within capacity, or only dirty frames are left (the cache then stays
    /// over capacity until something is flushed).
    fn shrink_to_capacity(&mut self) {
        let Some(r) = &mut self.recency else { return };
        while self.frames.len() > r.capacity {
            let Some((node, id)) = r.coldest_clean() else {
                break;
            };
            r.remove(node);
            self.frames.remove(&id);
            self.stats.evictions += 1;
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
    fn clear_partition_drops_only_that_partition() {
        let s = StableStore::new(
            StoreConfig { page_size: SIZE },
            &[
                lob_pagestore::PartitionSpec { pages: 4 },
                lob_pagestore::PartitionSpec { pages: 4 },
            ],
        );
        let mut c = CacheManager::with_capacity(Some(8));
        c.put_dirty(PageId::new(0, 0), page(1, 1));
        c.put_dirty(PageId::new(1, 0), page(2, 1));
        c.get(PageId::new(1, 1), &s).unwrap();
        c.clear_partition(PartitionId(1));
        assert_eq!(c.resident_count(), 1);
        assert_eq!(c.dirty_pages_by_rlsn(), vec![(PageId::new(0, 0), Lsn(1))]);
        c.get(PageId::new(1, 1), &s).unwrap();
        assert_eq!(c.resident_count(), 2, "the recency list took the page back");
    }

    #[test]
    fn explicit_evict_refuses_dirty() {
        let s = store();
        let mut c = CacheManager::new();
        c.put_dirty(pid(0), page(1, 1));
        assert_eq!(c.evict(pid(0)), Err(CacheError::Dirty(pid(0))));
        assert!(c.is_dirty(pid(0)), "the refused page stays resident");
        assert_eq!(c.evict(pid(7)), Ok(()), "a real miss is not an error");
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

    /// The eviction policy as it was before the recency list, kept as the
    /// reference the list is tested against: every use stamps the frame
    /// from a counter, and the victim is the clean frame with the smallest
    /// stamp, found by scanning every resident frame.
    struct ReferenceLru {
        /// `(dirty, last_used)` per resident page.
        frames: HashMap<PageId, (bool, u64)>,
        capacity: usize,
        tick: u64,
        evictions: u64,
    }

    impl ReferenceLru {
        fn new(capacity: usize) -> ReferenceLru {
            ReferenceLru {
                frames: HashMap::new(),
                capacity,
                tick: 0,
                evictions: 0,
            }
        }

        fn victim(&self) -> Option<PageId> {
            self.frames
                .iter()
                .filter(|(_, &(dirty, _))| !dirty)
                .min_by_key(|(_, &(_, last_used))| last_used)
                .map(|(id, _)| *id)
        }

        fn shrink_to_capacity(&mut self) {
            while self.frames.len() > self.capacity {
                let Some(id) = self.victim() else { break };
                self.frames.remove(&id);
                self.evictions += 1;
            }
        }

        fn get(&mut self, id: PageId) {
            self.tick += 1;
            match self.frames.get_mut(&id) {
                Some(f) => f.1 = self.tick,
                None => {
                    self.frames.insert(id, (false, self.tick));
                    self.shrink_to_capacity();
                }
            }
        }

        fn put_dirty(&mut self, id: PageId) {
            self.tick += 1;
            self.frames.insert(id, (true, self.tick));
            self.shrink_to_capacity();
        }

        fn write_out(&mut self, id: PageId) {
            if let Some(f) = self.frames.get_mut(&id) {
                f.0 = false;
            }
        }

        fn evict(&mut self, id: PageId) {
            if self.frames.get(&id).is_some_and(|&(dirty, _)| !dirty) {
                self.frames.remove(&id);
            }
        }

        fn resident(&self) -> Vec<PageId> {
            let mut ids: Vec<PageId> = self.frames.keys().copied().collect();
            ids.sort();
            ids
        }
    }

    fn resident(c: &CacheManager) -> Vec<PageId> {
        let mut ids: Vec<PageId> = c.frames.keys().copied().collect();
        ids.sort();
        ids
    }

    fn next_victim(c: &CacheManager) -> Option<PageId> {
        let (_, id) = c.recency.as_ref()?.coldest_clean()?;
        Some(id)
    }

    /// The recency list read cold to hot, checked against the frames: every
    /// resident page is on it exactly once, under the slot its frame
    /// records, with the frame's dirty flag.
    fn listed(c: &CacheManager) -> Vec<PageId> {
        let r = c.recency.as_ref().unwrap();
        let mut ids = Vec::new();
        let (mut slot, mut colder) = (r.cold, NIL);
        while let Some(n) = r.nodes.get(slot as usize) {
            let f = &c.frames[&n.id];
            assert_eq!((f.node, f.dirty, n.colder), (slot, n.dirty, colder));
            ids.push(n.id);
            (colder, slot) = (slot, n.hotter);
        }
        assert_eq!(r.hot, colder);
        assert_eq!(r.nodes.len(), ids.len() + r.free.len());
        ids
    }

    #[test]
    fn victim_order_equals_the_reference_scan() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let s = StableStore::single(StoreConfig { page_size: SIZE }, 256);
        for (capacity, pages) in [(1usize, 16u32), (2, 16), (6, 32), (64, 256)] {
            let mut rng = SmallRng::seed_from_u64(0x1CE0 + capacity as u64);
            let mut c = CacheManager::with_capacity(Some(capacity));
            let mut model = ReferenceLru::new(capacity);
            let mut lsn = 0u64;
            for step in 0..20_000 {
                let id = pid(rng.gen_range(0..pages));
                lsn += 1;
                match rng.gen_range(0..10u32) {
                    0..=3 => {
                        c.get(id, &s).unwrap();
                        model.get(id);
                    }
                    4 | 5 => {
                        c.put_dirty(id, page(lsn, 1));
                        model.put_dirty(id);
                    }
                    6 => c.advance_rlsn(id, Lsn(rng.gen_range(0..lsn + 1))),
                    7 | 8 => {
                        if c.write_out(&[id], &s, Lsn::MAX).is_ok() {
                            model.write_out(id);
                        }
                    }
                    _ => {
                        let _ = c.evict(id);
                        model.evict(id);
                    }
                }
                if step % 4999 == 4998 {
                    c.clear();
                    model.frames.clear();
                }
                let at = format!("capacity {capacity}, step {step}");
                assert_eq!(resident(&c), model.resident(), "{at}");
                assert_eq!(c.stats().evictions, model.evictions, "{at}");
                assert_eq!(next_victim(&c), model.victim(), "{at}");
                if step % 64 == 0 {
                    let mut on_list = listed(&c);
                    on_list.sort();
                    assert_eq!(on_list, model.resident(), "{at}");
                }
            }
            assert!(model.evictions > 1000, "capacity {capacity} evicted");
        }
    }

    #[test]
    fn dirty_cold_frames_are_skipped_not_evicted() {
        let s = StableStore::single(StoreConfig { page_size: SIZE }, 2048);
        let capacity = 64u32;
        let mut c = CacheManager::with_capacity(Some(capacity as usize));
        let mut model = ReferenceLru::new(capacity as usize);
        // The coldest half of a full cache is dirty.
        for i in 0..capacity {
            if i < capacity / 2 {
                c.put_dirty(pid(i), page(1 + i as u64, 1));
                model.put_dirty(pid(i));
            } else {
                c.get(pid(i), &s).unwrap();
                model.get(pid(i));
            }
        }
        for i in 0..1000 {
            let id = pid(capacity + i);
            assert_eq!(next_victim(&c), model.victim(), "miss {i}");
            c.get(id, &s).unwrap();
            model.get(id);
            assert_eq!(resident(&c), model.resident(), "miss {i}");
        }
        assert_eq!(c.stats().evictions, 1000);
        assert_eq!(c.dirty_count(), (capacity / 2) as usize);
        for i in 0..capacity / 2 {
            assert!(c.is_dirty(pid(i)), "dirty page {i} survived 1000 misses");
        }
    }

    #[test]
    fn an_all_dirty_cache_stays_over_capacity() {
        let s = store();
        let mut c = CacheManager::with_capacity(Some(4));
        for i in 0..8 {
            c.put_dirty(pid(i), page(1 + i as u64, 1));
        }
        assert_eq!(c.resident_count(), 8, "nothing clean to evict");
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(next_victim(&c), None);
        // The one clean frame — the hottest of all — is the one evicted.
        c.get(pid(9), &s).unwrap();
        assert!(!c.is_resident(pid(9)));
        assert_eq!(c.resident_count(), 8);
        assert_eq!(c.stats().evictions, 1);
        // Once flushed, the oldest frames go first, down to capacity.
        let all: Vec<PageId> = (0..8).map(pid).collect();
        c.write_out(&all, &s, Lsn::MAX).unwrap();
        c.get(pid(9), &s).unwrap();
        assert_eq!(resident(&c), vec![pid(5), pid(6), pid(7), pid(9)]);
    }

    #[test]
    fn an_unbounded_cache_keeps_no_recency_state() {
        let s = store();
        let mut c = CacheManager::new();
        for i in 0..10_000u64 {
            let id = pid((i % 16) as u32);
            if i % 3 == 0 {
                c.put_dirty(id, page(i + 1, 1));
            } else {
                c.get(id, &s).unwrap();
            }
            if i % 1000 == 500 {
                c.write_out(&[id], &s, Lsn::MAX).unwrap();
                c.evict(id).unwrap();
            }
        }
        assert_eq!(c.resident_count(), 16);
        assert!(c.recency.is_none(), "no list");
        assert!(c.frames.values().all(|f| f.node == NIL), "no frame on one");
        // The same traffic through a bounded cache does keep the list.
        let mut bounded = CacheManager::with_capacity(Some(16));
        for i in 0..16 {
            bounded.get(pid(i), &s).unwrap();
        }
        assert_eq!(listed(&bounded), (0..16).map(pid).collect::<Vec<_>>());
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
