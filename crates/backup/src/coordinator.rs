//! The backup coordinator: what the engine consults on every flush.

use crate::decide::{needs_iwof_general, needs_iwof_tree};
use crate::error::BackupError;
use crate::meta::SuccMeta;
use crate::order::BackupOrder;
use crate::tracker::{ProgressTracker, Region, TrackerGuard};
use lob_pagestore::witness::{Mutex, Rank};
use lob_pagestore::{FaultHook, FaultVerdict, IoEvent, PageId, PartitionId};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of a backup-order domain within a coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainId(pub u32);

struct Domain {
    order: BackupOrder,
    tracker: Arc<ProgressTracker>,
}

/// Decision counters (the raw numerators/denominators of the Figure 5
/// measurements).
#[derive(Debug, Default)]
pub struct CoordinatorStats {
    /// Flush decisions taken while a backup was active in the page's domain.
    pub checks_active: AtomicU64, // lint: atomic(relaxed-counter)
    /// Flush decisions taken with no backup active.
    pub checks_inactive: AtomicU64, // lint: atomic(relaxed-counter)
    /// Decisions that required Iw/oF logging.
    pub iwof_required: AtomicU64, // lint: atomic(relaxed-counter)
    /// Active decisions where the page was `Pend` / `Doubt` / `Done`.
    pub pend: AtomicU64, // lint: atomic(relaxed-counter)
    /// See [`CoordinatorStats::pend`].
    pub doubt: AtomicU64, // lint: atomic(relaxed-counter)
    /// See [`CoordinatorStats::pend`].
    pub done: AtomicU64, // lint: atomic(relaxed-counter)
}

impl CoordinatorStats {
    /// Snapshot as plain numbers `(checks_active, iwof, pend, doubt, done,
    /// checks_inactive)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.checks_active.load(Ordering::Relaxed),
            self.iwof_required.load(Ordering::Relaxed),
            self.pend.load(Ordering::Relaxed),
            self.doubt.load(Ordering::Relaxed),
            self.done.load(Ordering::Relaxed),
            self.checks_inactive.load(Ordering::Relaxed),
        )
    }

    /// Reset all counters.
    pub fn reset(&self) {
        self.checks_active.store(0, Ordering::Relaxed);
        self.checks_inactive.store(0, Ordering::Relaxed);
        self.iwof_required.store(0, Ordering::Relaxed);
        self.pend.store(0, Ordering::Relaxed);
        self.doubt.store(0, Ordering::Relaxed);
        self.done.store(0, Ordering::Relaxed);
    }
}

/// The coordinator: backup-order domains, their trackers, the per-domain
/// changed-page sets for incremental backups, and decision statistics.
///
/// Shared (`Arc`) between the engine's flush path and backup driver
/// threads.
pub struct BackupCoordinator {
    domains: Vec<Domain>,
    by_partition: HashMap<PartitionId, u32>,
    /// Pages flushed since their domain's last backup began, one set per
    /// domain (indexed by domain id), so beginning a backup takes its
    /// domain's set whole and never touches another domain's pages.
    changed: Mutex<Vec<HashSet<PageId>>>,
    stats: CoordinatorStats,
    /// Optional fault hook consulted by backup sweeps before each page
    /// copy ([`IoEvent::BackupCopy`]).
    hook: Mutex<Option<FaultHook>>,
}

impl BackupCoordinator {
    fn from_domains(domain_parts: Vec<Vec<(PartitionId, u32)>>) -> BackupCoordinator {
        let mut domains = Vec::new();
        let mut by_partition = HashMap::new();
        for parts in domain_parts {
            let idx = domains.len() as u32;
            for &(pid, _) in &parts {
                by_partition.insert(pid, idx);
            }
            domains.push(Domain {
                order: BackupOrder::new(parts),
                tracker: Arc::new(ProgressTracker::of_domain(idx as usize)),
            });
        }
        let changed = Mutex::new(
            Rank::CoordinatorChanged,
            domains.iter().map(|_| HashSet::new()).collect(),
        );
        BackupCoordinator {
            domains,
            by_partition,
            changed,
            stats: CoordinatorStats::default(),
            hook: Mutex::new(Rank::CoordinatorHook, None),
        }
    }

    /// Install (or clear) the fault hook consulted before backup copies.
    pub fn set_fault_hook(&self, hook: Option<FaultHook>) {
        *self.hook.lock() = hook;
    }

    /// Whether a fault hook is installed. Batched sweeps check this once
    /// per batch: with no hook, every consult would return `Proceed`
    /// anyway, so the per-page hook-lock round-trip can be skipped without
    /// changing behavior.
    pub fn has_fault_hook(&self) -> bool {
        self.hook.lock().is_some()
    }

    /// Consult the fault hook (Proceed when none is installed).
    pub fn consult_fault(&self, ev: IoEvent, page: Option<PageId>) -> FaultVerdict {
        let hook = self.hook.lock().clone();
        match hook {
            Some(h) => h(ev, page),
            None => FaultVerdict::Proceed,
        }
    }

    /// Reset all volatile backup state after a simulated process crash:
    /// every in-flight sweep's tracker goes inactive (the sweep process
    /// died with the system; its partial image is garbage) and the
    /// changed-page sets empty (they are rebuilt from flush traffic; crash
    /// recovery replays the log, and the incremental protocol covers any
    /// gap via the media log suffix). Durable facts — completed backup
    /// images, the media barrier, `BackupBegin` records — are unaffected.
    pub fn reset_volatile(&self) {
        for d in &self.domains {
            if d.tracker.is_active() {
                // lint:allow(durability-order) crash reset deactivates the tracker; no copied data is claimed
                d.tracker.finish();
            }
        }
        self.changed.lock().iter_mut().for_each(HashSet::clear);
    }

    /// One domain sweeping all partitions in the given order (the paper's
    /// "one large partition" — required when operations span partitions,
    /// e.g. the applications-last ordering of §6.2).
    pub fn sequential(partitions: Vec<(PartitionId, u32)>) -> BackupCoordinator {
        BackupCoordinator::from_domains(vec![partitions])
    }

    /// One domain per partition: independent progress tracking, enabling
    /// partition-parallel backup (§3.4). Requires that no operation reads
    /// or writes across partitions (the engine enforces this in
    /// per-partition mode).
    pub fn per_partition(partitions: Vec<(PartitionId, u32)>) -> BackupCoordinator {
        BackupCoordinator::from_domains(partitions.into_iter().map(|p| vec![p]).collect())
    }

    /// Number of domains.
    pub fn domain_count(&self) -> u32 {
        self.domains.len() as u32
    }

    /// Domain covering a partition.
    pub fn domain_of(&self, partition: PartitionId) -> Option<DomainId> {
        self.by_partition.get(&partition).map(|&i| DomainId(i))
    }

    /// `(domain, position)` of a page — the input to
    /// [`crate::SuccessorTable::note_op`].
    pub fn pos(&self, page: PageId) -> Option<(u32, u64)> {
        let &d = self.by_partition.get(&page.partition)?;
        let p = self.domains.get(d as usize)?.order.pos(page)?;
        Some((d, p))
    }

    /// The order of a domain.
    pub fn order(&self, domain: DomainId) -> Result<&BackupOrder, BackupError> {
        self.domains
            .get(domain.0 as usize)
            .map(|d| &d.order)
            .ok_or(BackupError::BadConfig(format!("no domain {}", domain.0)))
    }

    /// The tracker of a domain.
    pub fn tracker(&self, domain: DomainId) -> Result<&Arc<ProgressTracker>, BackupError> {
        self.domains
            .get(domain.0 as usize)
            .map(|d| &d.tracker)
            .ok_or(BackupError::BadConfig(format!("no domain {}", domain.0)))
    }

    /// Whether any domain has an active backup (unlatched peek).
    pub fn any_active(&self) -> bool {
        self.domains.iter().any(|d| d.tracker.is_active())
    }

    /// Take the backup latches (share mode) for the domains of `pages`,
    /// in domain order (deadlock-free). Classifications through the
    /// returned latch are stable until it is dropped.
    pub fn latch_for(&self, pages: &[PageId]) -> FlushLatch<'_> {
        let mut wanted: BTreeSet<u32> = BTreeSet::new();
        for p in pages {
            if let Some(&d) = self.by_partition.get(&p.partition) {
                wanted.insert(d);
            }
        }
        // `by_partition` only maps to existing domains, so `get` never skips.
        let guards: BTreeMap<u32, TrackerGuard<'_>> = wanted
            .into_iter()
            .filter_map(|d| Some((d, self.domains.get(d as usize)?.tracker.latch())))
            .collect();
        FlushLatch {
            coordinator: self,
            guards,
        }
    }

    /// Record that the values of `pages` in `S` changed (one flush).
    /// Feeds each page's domain's changed-page set, which incremental
    /// backups copy.
    pub fn note_flushed(&self, pages: &[PageId]) {
        self.note_changed(pages.iter().copied());
    }

    /// Add `pages` to their domains' changed-page sets under one lock
    /// acquisition. A page of no domain is never backed up, so it is not
    /// recorded.
    fn note_changed(&self, pages: impl IntoIterator<Item = PageId>) {
        let mut sets = self.changed.lock();
        for page in pages {
            let set = self
                .by_partition
                .get(&page.partition)
                .and_then(|&d| sets.get_mut(d as usize));
            if let Some(set) = set {
                set.insert(page);
            }
        }
    }

    /// Take (and clear) `domain`'s changed-page set at the start of a
    /// backup. Pages flushed *after* this point are recorded for the
    /// *next* incremental backup; the in-flight one covers them via the
    /// media log.
    pub fn take_changed(&self, domain: DomainId) -> HashSet<PageId> {
        self.changed
            .lock()
            .get_mut(domain.0 as usize)
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Merge a taken changed-page set back into its domain's (an
    /// incremental backup was aborted, so its pages are still "changed
    /// since the last completed backup").
    pub fn restore_changed(&self, pages: HashSet<PageId>) {
        self.note_changed(pages);
    }

    /// Number of pages currently marked changed, over every domain.
    pub fn changed_count(&self) -> usize {
        self.changed.lock().iter().map(HashSet::len).sum()
    }

    /// Decision statistics.
    pub fn stats(&self) -> &CoordinatorStats {
        &self.stats
    }
}

/// The backup latches held in share mode for one flush.
pub struct FlushLatch<'a> {
    coordinator: &'a BackupCoordinator,
    guards: BTreeMap<u32, TrackerGuard<'a>>,
}

impl FlushLatch<'_> {
    /// Classify a page against the pinned cursors of its domain.
    pub fn classify(&self, page: PageId) -> Region {
        let Some((d, pos)) = self.coordinator.pos(page) else {
            return Region::Inactive;
        };
        match self.guards.get(&d) {
            Some(g) => g.classify(pos),
            None => Region::Inactive,
        }
    }

    fn count(&self, region: Region, iwof: bool) {
        let s = &self.coordinator.stats;
        match region {
            Region::Inactive => {
                s.checks_inactive.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Region::Pend => s.pend.fetch_add(1, Ordering::Relaxed),
            Region::Doubt => s.doubt.fetch_add(1, Ordering::Relaxed),
            Region::Done => s.done.fetch_add(1, Ordering::Relaxed),
        };
        s.checks_active.fetch_add(1, Ordering::Relaxed);
        if iwof {
            s.iwof_required.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// §3.5 decision for general operations. Counts the decision.
    pub fn decide_general(&self, page: PageId) -> bool {
        let region = self.classify(page);
        let iwof = needs_iwof_general(region);
        self.count(region, iwof);
        iwof
    }

    /// §4.2 decision for tree operations. Counts the decision.
    pub fn decide_tree(&self, page: PageId, meta: Option<&SuccMeta>) -> bool {
        let region = self.classify(page);
        let domain = self.coordinator.pos(page).map(|(d, _)| d);
        let iwof = needs_iwof_tree(region, meta, |max_pos| match domain {
            Some(d) => self
                .guards
                .get(&d)
                .map_or(Region::Inactive, |g| g.classify(max_pos)),
            None => Region::Inactive,
        });
        self.count(region, iwof);
        iwof
    }

    /// Whether a backup is active in the page's (latched) domain.
    pub fn active_for(&self, page: PageId) -> bool {
        self.classify(page) != Region::Inactive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coord_seq() -> BackupCoordinator {
        BackupCoordinator::sequential(vec![(PartitionId(0), 10), (PartitionId(1), 10)])
    }

    #[test]
    fn sequential_has_one_domain() {
        let c = coord_seq();
        assert_eq!(c.domain_count(), 1);
        assert_eq!(c.domain_of(PartitionId(1)), Some(DomainId(0)));
        assert_eq!(c.pos(PageId::new(1, 3)), Some((0, 13)));
        assert_eq!(c.pos(PageId::new(9, 0)), None);
    }

    #[test]
    fn per_partition_has_independent_domains() {
        let c = BackupCoordinator::per_partition(vec![(PartitionId(0), 10), (PartitionId(1), 20)]);
        assert_eq!(c.domain_count(), 2);
        assert_eq!(c.pos(PageId::new(0, 3)), Some((0, 3)));
        assert_eq!(c.pos(PageId::new(1, 3)), Some((1, 3)));
        // Trackers are independent.
        c.tracker(DomainId(0)).unwrap().begin(1, 5);
        assert!(c.tracker(DomainId(0)).unwrap().is_active());
        assert!(!c.tracker(DomainId(1)).unwrap().is_active());
        assert!(c.any_active());
    }

    #[test]
    fn latch_classifies_against_pinned_cursors() {
        let c = coord_seq();
        c.tracker(DomainId(0)).unwrap().begin(1, 10);
        c.tracker(DomainId(0)).unwrap().advance(15);
        let latch = c.latch_for(&[PageId::new(0, 0), PageId::new(1, 9)]);
        assert_eq!(latch.classify(PageId::new(0, 5)), Region::Done);
        assert_eq!(latch.classify(PageId::new(1, 2)), Region::Doubt); // pos 12
        assert_eq!(latch.classify(PageId::new(1, 9)), Region::Pend); // pos 19
        assert_eq!(latch.classify(PageId::new(7, 0)), Region::Inactive);
    }

    #[test]
    fn decisions_update_stats() {
        let c = coord_seq();
        c.tracker(DomainId(0)).unwrap().begin(1, 10);
        let latch = c.latch_for(&[PageId::new(0, 0)]);
        assert!(latch.decide_general(PageId::new(0, 0))); // Doubt → log
        assert!(!latch.decide_general(PageId::new(1, 9))); // Pend → no log
        drop(latch);
        let (active, iwof, pend, doubt, _done, _inactive) = c.stats().snapshot();
        assert_eq!(active, 2);
        assert_eq!(iwof, 1);
        assert_eq!(pend, 1);
        assert_eq!(doubt, 1);
    }

    #[test]
    fn inactive_decisions_counted_separately() {
        let c = coord_seq();
        let latch = c.latch_for(&[PageId::new(0, 0)]);
        assert!(!latch.decide_general(PageId::new(0, 0)));
        drop(latch);
        let (active, _, _, _, _, inactive) = c.stats().snapshot();
        assert_eq!(active, 0);
        assert_eq!(inactive, 1);
    }

    #[test]
    fn tree_decision_through_latch() {
        let c = coord_seq();
        c.tracker(DomainId(0)).unwrap().begin(1, 10);
        c.tracker(DomainId(0)).unwrap().advance(15);
        let latch = c.latch_for(&[PageId::new(0, 0)]);
        // X at pos 12 (Doubt), successor at pos 3 (Done): no log.
        let m = SuccMeta {
            min: 3,
            max: 3,
            violation: false,
            foreign: false,
            links: 1,
        };
        assert!(!latch.decide_tree(PageId::new(1, 2), Some(&m)));
        // X at pos 12 (Doubt), successor at 13 (Doubt, #y > #X): log.
        let m2 = SuccMeta {
            min: 13,
            max: 13,
            violation: true,
            foreign: false,
            links: 1,
        };
        assert!(latch.decide_tree(PageId::new(1, 2), Some(&m2)));
    }

    #[test]
    fn changed_set_lifecycle() {
        let c = coord_seq();
        c.note_flushed(&[PageId::new(0, 1), PageId::new(0, 2)]);
        c.note_flushed(&[PageId::new(0, 1)]);
        assert_eq!(c.changed_count(), 2);
        let taken = c.take_changed(DomainId(0));
        assert_eq!(taken.len(), 2);
        assert_eq!(c.changed_count(), 0);
        c.restore_changed(taken);
        assert_eq!(c.changed_count(), 2);
    }

    #[test]
    fn taking_one_domains_changed_set_leaves_the_others() {
        let c = BackupCoordinator::per_partition(vec![(PartitionId(0), 10), (PartitionId(1), 20)]);
        for i in 0..3 {
            c.note_flushed(&[PageId::new(0, i), PageId::new(1, i)]);
        }
        let taken = c.take_changed(DomainId(1));
        assert!(taken.iter().all(|p| p.partition == PartitionId(1)));
        assert_eq!((taken.len(), c.changed_count()), (3, 3));
        assert!(c.take_changed(DomainId(1)).is_empty());
        // Flushed again while the backup runs, then the backup aborts.
        c.note_flushed(&[PageId::new(1, 7)]);
        c.restore_changed(taken);
        assert_eq!(c.take_changed(DomainId(1)).len(), 4);
        assert_eq!(c.take_changed(DomainId(0)).len(), 3);
        assert_eq!(c.changed_count(), 0);
    }
}
