//! The stable database `S`.

use crate::fault::{FaultHook, FaultVerdict, IoEvent};
use crate::id::{PageId, PartitionId};
use crate::image::PageImage;
use crate::page::Page;
use crate::stats::{IoSnapshot, IoStats};
use crate::witness::{Rank, RwLock};
use bytes::Bytes;
use std::collections::BTreeSet;
use std::fmt;

/// Configuration of a [`StableStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Size in bytes of every page payload.
    pub page_size: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig { page_size: 256 }
    }
}

/// Size specification of one partition.
#[derive(Debug, Clone, Copy)]
pub struct PartitionSpec {
    /// Number of pages in the partition.
    pub pages: u32,
}

/// Errors from stable-store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The partition does not exist.
    NoSuchPartition(PartitionId),
    /// The page index is out of range for its partition.
    NoSuchPage(PageId),
    /// The page (or its whole partition) has suffered a media failure and
    /// cannot be read until restored.
    MediaFailure(PageId),
    /// A page write supplied a payload of the wrong size.
    PageSizeMismatch {
        /// Target page.
        page: PageId,
        /// Payload size supplied.
        got: usize,
        /// Configured page size.
        want: usize,
    },
    /// The stored bytes of the page no longer match its recorded checksum:
    /// a torn or corrupted write was detected on read.
    Corrupt(PageId),
    /// The page is quarantined: a bad read was detected and the page is
    /// awaiting online repair from the backup chain. No read path returns
    /// its bytes until a full overwrite (repair or restore) heals the slot.
    Quarantined(PageId),
    /// A transient I/O error failed this read attempt only; the stored
    /// bytes are intact and a retry may succeed.
    Transient(PageId),
    /// The fault hook simulated a process crash at this I/O event; the
    /// transfer did not complete. Unwind to the driver and run recovery.
    InjectedCrash,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NoSuchPartition(p) => write!(f, "no such partition {p}"),
            StoreError::NoSuchPage(p) => write!(f, "no such page {p}"),
            StoreError::MediaFailure(p) => write!(f, "media failure reading {p}"),
            StoreError::PageSizeMismatch { page, got, want } => {
                write!(f, "page {page}: payload {got}B but page size is {want}B")
            }
            StoreError::Corrupt(p) => write!(f, "checksum mismatch reading {p} (torn/corrupt)"),
            StoreError::Quarantined(p) => write!(f, "page {p} is quarantined awaiting repair"),
            StoreError::Transient(p) => write!(f, "transient I/O error reading {p}"),
            StoreError::InjectedCrash => write!(f, "injected crash (fault hook)"),
        }
    }
}

impl std::error::Error for StoreError {}

/// One page whose stored bytes no longer match its recorded checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptionEntry {
    /// The damaged page.
    pub page: PageId,
    /// Checksum the last writer intended to persist.
    pub expected: u64,
    /// Checksum of the bytes actually stored.
    pub found: u64,
}

impl fmt::Display for CorruptionEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: expected checksum {:016x}, found {:016x}",
            self.page, self.expected, self.found
        )
    }
}

/// Result of a [`StableStore::verify_pages`] scrub: every readable page
/// whose stored bytes fail their checksum, with the expected/found pair for
/// repair telemetry and torture reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CorruptionReport {
    /// Damaged pages in `(partition, index)` order.
    pub entries: Vec<CorruptionEntry>,
}

impl CorruptionReport {
    /// No corruption found.
    pub fn is_clean(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of damaged pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the report is empty (alias of [`CorruptionReport::is_clean`]).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Just the damaged page ids, in report order.
    pub fn pages(&self) -> Vec<PageId> {
        self.entries.iter().map(|e| e.page).collect()
    }

    /// Partitions with at least one damaged page.
    pub fn partitions(&self) -> BTreeSet<PartitionId> {
        self.entries.iter().map(|e| e.page.partition).collect()
    }
}

impl fmt::Display for CorruptionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.entries.is_empty() {
            return f.write_str("no corruption");
        }
        write!(f, "{} corrupt page(s): ", self.entries.len())?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

struct PartitionState {
    pages: Vec<Page>,
    /// Expected checksum of each page slot. A normal write records the
    /// checksum of the payload it *intended* to persist; fault injection
    /// may then tear or corrupt the stored bytes, and every read verifies
    /// the stored page against this table so such damage is detected
    /// (never silently returned). Models per-sector checksums on real
    /// storage.
    sums: Vec<u64>,
    /// Whole-partition media failure.
    failed: bool,
    /// Failed index ranges (half-open), for partial media failures.
    failed_ranges: Vec<(u32, u32)>,
    /// Pages held out of service after a bad read, awaiting online repair.
    /// A full overwrite (repair, restore, or any page write) heals a slot.
    quarantined: BTreeSet<u32>,
}

impl PartitionState {
    fn is_failed(&self, index: u32) -> bool {
        self.failed
            || self
                .failed_ranges
                .iter()
                .any(|&(lo, hi)| index >= lo && index < hi)
    }
}

/// The stable database `S`: a set of partitions of fixed-size pages with
/// atomic page reads and writes.
///
/// Thread-safety: each partition is guarded by its own `RwLock` held only for
/// the duration of a single page transfer. This models the paper's §1.2
/// observation that "data contention during backup to read or write pages is
/// resolved by disk access order": a page copied by the backup process is
/// captured either entirely before or entirely after any concurrent flush.
pub struct StableStore {
    config: StoreConfig,
    partitions: Vec<RwLock<PartitionState>>,
    /// One counter block per partition (cache-line padded): concurrent
    /// sweep threads account I/O without sharing a line.
    stats: Vec<IoStats>,
    /// Optional fault hook consulted before every page write.
    hook: RwLock<Option<FaultHook>>,
}

impl StableStore {
    /// Create a store with the given partitions, all pages formatted
    /// (zeroed, null pageLSN).
    pub fn new(config: StoreConfig, partitions: &[PartitionSpec]) -> StableStore {
        let blank_sum = Page::formatted(config.page_size).checksum();
        let parts = partitions
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                RwLock::indexed(
                    Rank::StorePartition,
                    i,
                    PartitionState {
                        pages: (0..spec.pages)
                            .map(|_| Page::formatted(config.page_size))
                            .collect(),
                        sums: vec![blank_sum; spec.pages as usize],
                        failed: false,
                        failed_ranges: Vec::new(),
                        quarantined: BTreeSet::new(),
                    },
                )
            })
            .collect();
        let stats = (0..partitions.len()).map(|_| IoStats::new()).collect();
        StableStore {
            config,
            partitions: parts,
            stats,
            hook: RwLock::new(Rank::StoreHook, None),
        }
    }

    /// Convenience: a single-partition store of `pages` pages.
    pub fn single(config: StoreConfig, pages: u32) -> StableStore {
        StableStore::new(config, &[PartitionSpec { pages }])
    }

    /// The store configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> u32 {
        self.partitions.len() as u32
    }

    /// Number of pages in a partition.
    pub fn page_count(&self, partition: PartitionId) -> Result<u32, StoreError> {
        self.part(partition).map(|p| p.read().pages.len() as u32)
    }

    /// Aggregated I/O statistics across all partitions.
    pub fn stats(&self) -> IoSnapshot {
        let mut total = IoSnapshot::default();
        for s in &self.stats {
            let p = s.snapshot();
            total.page_reads += p.page_reads;
            total.page_writes += p.page_writes;
            total.bytes_read += p.bytes_read;
            total.bytes_written += p.bytes_written;
        }
        total
    }

    /// Reset all I/O counters (between experiment phases).
    pub fn reset_stats(&self) {
        for s in &self.stats {
            s.reset();
        }
    }

    /// Install (or clear) the fault hook consulted before every page write.
    pub fn set_fault_hook(&self, hook: Option<FaultHook>) {
        *self.hook.write() = hook;
    }

    fn consult(&self, ev: IoEvent, page: Option<PageId>) -> FaultVerdict {
        let hook = self.hook.read().clone();
        match hook {
            Some(h) => h(ev, page),
            None => FaultVerdict::Proceed,
        }
    }

    fn part(&self, pid: PartitionId) -> Result<&RwLock<PartitionState>, StoreError> {
        self.partitions
            .get(pid.0 as usize)
            .ok_or(StoreError::NoSuchPartition(pid))
    }

    /// Read a page. Fails with [`StoreError::MediaFailure`] if the page is in
    /// a failed region and [`StoreError::Quarantined`] if it is held out of
    /// service awaiting repair.
    ///
    /// The fault hook (if installed) is consulted first with
    /// [`IoEvent::PageRead`] and may crash the process at this read, fail
    /// the attempt transiently (stored bytes intact), reveal persistent
    /// damage (torn sector / bit rot spliced into the *stored* bytes, then
    /// detected by checksum like any other corruption), or fail the medium
    /// under the page.
    pub fn read_page(&self, id: PageId) -> Result<Page, StoreError> {
        crate::witness::io_order("PageRead");
        let part = self.part(id.partition)?;
        match self.consult(IoEvent::PageRead, Some(id)) {
            FaultVerdict::Crash => return Err(StoreError::InjectedCrash),
            FaultVerdict::TransientRead => return Err(StoreError::Transient(id)),
            FaultVerdict::MediaFail => {
                part.write().failed_ranges.push((id.index, id.index + 1));
                return Err(StoreError::MediaFailure(id));
            }
            v @ (FaultVerdict::TornRead | FaultVerdict::CorruptRead) => {
                // Latent medium damage surfaces at this read: mutate the
                // stored bytes (checksums stay the intended values, so the
                // mismatch is detected below, never silently returned).
                let mut guard = part.write();
                let idx = id.index as usize;
                if let Some(slot) = guard.pages.get_mut(idx) {
                    let damaged = damage_stored_page(slot, v);
                    *slot = damaged;
                }
            }
            FaultVerdict::Proceed | FaultVerdict::TornWrite | FaultVerdict::CorruptWrite => {}
        }
        let guard = part.read();
        if guard.quarantined.contains(&id.index) {
            return Err(StoreError::Quarantined(id));
        }
        if guard.is_failed(id.index) {
            return Err(StoreError::MediaFailure(id));
        }
        let page = guard
            .pages
            .get(id.index as usize)
            .cloned()
            .ok_or(StoreError::NoSuchPage(id))?;
        let expected = guard
            .sums
            .get(id.index as usize)
            .copied()
            .ok_or(StoreError::NoSuchPage(id))?;
        if page.checksum() != expected {
            return Err(StoreError::Corrupt(id));
        }
        if let Some(s) = self.stats.get(id.partition.0 as usize) {
            s.record_read(page.len());
        }
        Ok(page)
    }

    /// Read the contiguous run of pages `lo..hi` of one partition into
    /// `out` (cleared first), acquiring the partition lock once for the
    /// whole run instead of once per page. This is the batched sweep read
    /// path: a [`crate::PageId`]-at-a-time copy pays the hook check, the
    /// lock round-trip, and the stats update per page; a run pays them
    /// per batch.
    ///
    /// With a fault hook installed the run degrades to per-page
    /// [`StableStore::read_page`] calls, so every [`IoEvent::PageRead`]
    /// consult and damage verdict lands exactly as it would one page at a
    /// time — batching must not change the fault surface. Without a hook
    /// the per-page failure checks (quarantine, failed ranges, checksum)
    /// are identical; only the locking is amortized.
    pub fn read_run(
        &self,
        pid: PartitionId,
        lo: u32,
        hi: u32,
        out: &mut Vec<Page>,
    ) -> Result<(), StoreError> {
        out.clear();
        if hi <= lo {
            return Ok(());
        }
        crate::witness::io_order("PageRead");
        if self.hook.read().is_some() {
            for index in lo..hi {
                out.push(self.read_page(PageId {
                    partition: pid,
                    index,
                })?);
            }
            return Ok(());
        }
        let part = self.part(pid)?;
        out.reserve((hi - lo) as usize);
        let mut bytes = 0u64;
        let guard = part.read();
        // Hoist the emptiness checks: a healthy partition (the common
        // case) skips the per-page quarantine and failed-range probes.
        let quarantine_free = guard.quarantined.is_empty();
        let failure_free = !guard.failed && guard.failed_ranges.is_empty();
        for index in lo..hi {
            let id = PageId {
                partition: pid,
                index,
            };
            if !quarantine_free && guard.quarantined.contains(&index) {
                return Err(StoreError::Quarantined(id));
            }
            if !failure_free && guard.is_failed(index) {
                return Err(StoreError::MediaFailure(id));
            }
            let page = guard
                .pages
                .get(index as usize)
                .cloned()
                .ok_or(StoreError::NoSuchPage(id))?;
            let expected = guard
                .sums
                .get(index as usize)
                .copied()
                .ok_or(StoreError::NoSuchPage(id))?;
            if page.checksum() != expected {
                return Err(StoreError::Corrupt(id));
            }
            bytes += page.len() as u64;
            out.push(page);
        }
        drop(guard);
        if let Some(s) = self.stats.get(pid.0 as usize) {
            s.record_read_batch((hi - lo) as u64, bytes);
        }
        Ok(())
    }

    /// Atomically write a page. Writing to a failed region is permitted: it
    /// models writing to the replacement medium during restore.
    ///
    /// The fault hook (if installed) is consulted first and may turn the
    /// write into a crash (nothing persisted), a torn write (front half of
    /// the new payload spliced onto the back half of the old, then crash),
    /// a silent corruption (bit flip, reported as success), or a media
    /// failure of the target page.
    // lint: durability(PageWrite requires LogForce)
    pub fn write_page(&self, id: PageId, page: Page) -> Result<(), StoreError> {
        if page.len() != self.config.page_size {
            return Err(StoreError::PageSizeMismatch {
                page: id,
                got: page.len(),
                want: self.config.page_size,
            });
        }
        crate::witness::io_order("PageWrite");
        let verdict = self.consult(IoEvent::PageWrite, Some(id));
        if verdict == FaultVerdict::Crash {
            return Err(StoreError::InjectedCrash);
        }
        let part = self.part(id.partition)?;
        let mut guard = part.write();
        let idx = id.index as usize;
        if idx >= guard.pages.len() {
            return Err(StoreError::NoSuchPage(id));
        }
        if verdict == FaultVerdict::MediaFail {
            guard.failed_ranges.push((id.index, id.index + 1));
        }
        // The checksum recorded is always that of the *intended* payload;
        // a torn or corrupted write therefore leaves a detectable mismatch.
        let intended_sum = page.checksum();
        let stored = match verdict {
            FaultVerdict::TornWrite => {
                let half = self.config.page_size / 2;
                let old = guard
                    .pages
                    .get(idx)
                    .cloned()
                    .ok_or(StoreError::NoSuchPage(id))?;
                let mut buf: Vec<u8> = Vec::with_capacity(self.config.page_size);
                buf.extend(page.data().iter().take(half));
                buf.extend(old.data().iter().skip(half));
                Page::new(page.lsn(), Bytes::from(buf))
            }
            FaultVerdict::CorruptWrite => {
                let mut buf = page.data().to_vec();
                let pos = buf.len() / 2;
                if let Some(b) = buf.get_mut(pos) {
                    *b ^= 0x40;
                }
                Page::new(page.lsn(), Bytes::from(buf))
            }
            _ => page,
        };
        match guard.pages.get_mut(idx) {
            Some(slot) => *slot = stored,
            None => return Err(StoreError::NoSuchPage(id)),
        }
        match guard.sums.get_mut(idx) {
            Some(slot) => *slot = intended_sum,
            None => return Err(StoreError::NoSuchPage(id)),
        }
        // A full overwrite supersedes whatever bad bytes put the slot in
        // quarantine: the write IS the repair (or the restore).
        guard.quarantined.remove(&id.index);
        if let Some(s) = self.stats.get(id.partition.0 as usize) {
            s.record_write(self.config.page_size);
        }
        if verdict == FaultVerdict::TornWrite {
            return Err(StoreError::InjectedCrash);
        }
        Ok(())
    }

    /// Write a contiguous run of pages of one partition starting at index
    /// `lo`, draining `pages` (which comes back empty, ready for reuse) and
    /// acquiring the partition lock once for the whole run instead of once
    /// per page. This is the batched install path of parallel restore and
    /// redo: a page-at-a-time install pays the hook check, the lock
    /// round-trip, and the stats update per page; a run pays them per
    /// batch. Writing into failed regions is permitted, exactly as in
    /// [`StableStore::write_page`] (replacement medium during restore).
    ///
    /// With a fault hook installed the run degrades to per-page
    /// [`StableStore::write_page`] calls, so every [`IoEvent::PageWrite`]
    /// consult and damage verdict lands exactly as it would one page at a
    /// time — batching must not change the fault surface. Without a hook
    /// the stored bytes, recorded checksums, and quarantine healing are
    /// identical; only the locking is amortized.
    pub fn write_run(
        &self,
        pid: PartitionId,
        lo: u32,
        pages: &mut Vec<Page>,
    ) -> Result<(), StoreError> {
        if pages.is_empty() {
            return Ok(());
        }
        for (off, page) in pages.iter().enumerate() {
            if page.len() != self.config.page_size {
                return Err(StoreError::PageSizeMismatch {
                    page: PageId::new(pid.0, lo + off as u32),
                    got: page.len(),
                    want: self.config.page_size,
                });
            }
        }
        if self.hook.read().is_some() {
            for (off, page) in pages.drain(..).enumerate() {
                // lint:allow(durability-order) degrade path of write_run; the ordering contract is the caller's, checked at every write_run site
                self.write_page(PageId::new(pid.0, lo + off as u32), page)?;
            }
            return Ok(());
        }
        // Ordering witness: the fast path bypasses `write_page`, so it
        // carries its own `PageWrite` probe (the degrade path above
        // probes per page inside `write_page`).
        crate::witness::io_order("PageWrite");
        let part = self.part(pid)?;
        let n = pages.len() as u32;
        let mut guard = part.write();
        if (lo as usize) + (n as usize) > guard.pages.len() {
            return Err(StoreError::NoSuchPage(PageId::new(
                pid.0,
                guard.pages.len() as u32,
            )));
        }
        let mut bytes = 0u64;
        for (off, page) in pages.drain(..).enumerate() {
            let index = lo + off as u32;
            let intended_sum = page.checksum();
            bytes += page.len() as u64;
            match guard.pages.get_mut(index as usize) {
                Some(slot) => *slot = page,
                None => return Err(StoreError::NoSuchPage(PageId::new(pid.0, index))),
            }
            match guard.sums.get_mut(index as usize) {
                Some(slot) => *slot = intended_sum,
                None => return Err(StoreError::NoSuchPage(PageId::new(pid.0, index))),
            }
            // A full overwrite supersedes whatever bad bytes put the slot
            // in quarantine, exactly as in the per-page path.
            guard.quarantined.remove(&index);
        }
        drop(guard);
        if let Some(s) = self.stats.get(pid.0 as usize) {
            s.record_write_batch(n as u64, bytes);
        }
        Ok(())
    }

    /// The pageLSN of a page without charging a page read (metadata access).
    pub fn page_lsn(&self, id: PageId) -> Result<crate::Lsn, StoreError> {
        let part = self.part(id.partition)?;
        let guard = part.read();
        if guard.quarantined.contains(&id.index) {
            return Err(StoreError::Quarantined(id));
        }
        if guard.is_failed(id.index) {
            return Err(StoreError::MediaFailure(id));
        }
        let page = guard
            .pages
            .get(id.index as usize)
            .ok_or(StoreError::NoSuchPage(id))?;
        let expected = guard
            .sums
            .get(id.index as usize)
            .copied()
            .ok_or(StoreError::NoSuchPage(id))?;
        if page.checksum() != expected {
            return Err(StoreError::Corrupt(id));
        }
        Ok(page.lsn())
    }

    /// Inject a media failure covering a whole partition.
    pub fn fail_partition(&self, pid: PartitionId) -> Result<(), StoreError> {
        self.part(pid)?.write().failed = true;
        Ok(())
    }

    /// Inject a media failure covering `lo..hi` page indexes of a partition.
    pub fn fail_range(&self, pid: PartitionId, lo: u32, hi: u32) -> Result<(), StoreError> {
        self.part(pid)?.write().failed_ranges.push((lo, hi));
        Ok(())
    }

    /// Whether any part of the partition is failed.
    pub fn has_failures(&self, pid: PartitionId) -> Result<bool, StoreError> {
        let g = self.part(pid)?.read();
        Ok(g.failed || !g.failed_ranges.is_empty())
    }

    /// Clear media-failure markers for a partition. Models installing a
    /// replacement medium; the caller must then restore page contents from a
    /// backup image and roll the state forward from the media recovery log.
    pub fn clear_failures(&self, pid: PartitionId) -> Result<(), StoreError> {
        let mut g = self.part(pid)?.write();
        g.failed = false;
        g.failed_ranges.clear();
        Ok(())
    }

    /// Clear a *single page's* media-failure marker by splitting any failed
    /// range that covers it. Used by online repair after rewriting one page
    /// on the replacement medium; the rest of each range stays failed. A
    /// whole-partition failure flag is NOT clearable per page — that medium
    /// is gone and only a full restore brings it back.
    pub fn clear_page_failure(&self, id: PageId) -> Result<(), StoreError> {
        let mut g = self.part(id.partition)?.write();
        let mut split = Vec::with_capacity(g.failed_ranges.len() + 1);
        for &(lo, hi) in &g.failed_ranges {
            if id.index < lo || id.index >= hi {
                split.push((lo, hi));
                continue;
            }
            if lo < id.index {
                split.push((lo, id.index));
            }
            if id.index + 1 < hi {
                split.push((id.index + 1, hi));
            }
        }
        g.failed_ranges = split;
        Ok(())
    }

    /// Place a page in quarantine: every read path returns
    /// [`StoreError::Quarantined`] until a full overwrite heals the slot or
    /// [`StableStore::release_quarantine`] lifts it explicitly.
    pub fn quarantine_page(&self, id: PageId) -> Result<(), StoreError> {
        let mut g = self.part(id.partition)?.write();
        if id.index as usize >= g.pages.len() {
            return Err(StoreError::NoSuchPage(id));
        }
        g.quarantined.insert(id.index);
        Ok(())
    }

    /// Lift a page's quarantine without rewriting it. Callers must have
    /// re-verified the slot (repair does this implicitly by overwriting).
    pub fn release_quarantine(&self, id: PageId) -> Result<(), StoreError> {
        self.part(id.partition)?
            .write()
            .quarantined
            .remove(&id.index);
        Ok(())
    }

    /// Whether a page is currently quarantined.
    pub fn is_quarantined(&self, id: PageId) -> Result<bool, StoreError> {
        Ok(self
            .part(id.partition)?
            .read()
            .quarantined
            .contains(&id.index))
    }

    /// Every quarantined page across all partitions, in id order.
    pub fn quarantined_pages(&self) -> Vec<PageId> {
        let mut out = Vec::new();
        for (pi, part) in self.partitions.iter().enumerate() {
            let guard = part.read();
            out.extend(guard.quarantined.iter().map(|&i| PageId::new(pi as u32, i)));
        }
        out
    }

    /// Copy every page of every partition into a [`PageImage`].
    /// (Used for off-line backups and by the shadow oracle; the on-line
    /// backup drivers copy page-by-page so progress can be tracked.)
    pub fn snapshot(&self) -> Result<PageImage, StoreError> {
        let mut img = PageImage::new();
        for (pi, part) in self.partitions.iter().enumerate() {
            let guard = part.read();
            if guard.failed {
                return Err(StoreError::MediaFailure(PageId::new(pi as u32, 0)));
            }
            for (i, (page, sum)) in guard.pages.iter().zip(&guard.sums).enumerate() {
                let id = PageId::new(pi as u32, i as u32);
                if guard.quarantined.contains(&id.index) {
                    return Err(StoreError::Quarantined(id));
                }
                if guard.is_failed(id.index) {
                    return Err(StoreError::MediaFailure(id));
                }
                if page.checksum() != *sum {
                    return Err(StoreError::Corrupt(id));
                }
                if let Some(s) = self.stats.get(pi) {
                    s.record_read(page.len());
                }
                // lint:allow(durability-order) offline snapshot copies raw frames it just checksummed under the partition lock
                img.put(id, page.clone());
            }
        }
        Ok(img)
    }

    /// Overwrite pages from an image (the restore step of media recovery).
    /// Pages in failed regions are written too (replacement medium).
    pub fn apply_image(&self, image: &PageImage) -> Result<(), StoreError> {
        for (id, page) in image.iter() {
            // lint:allow(durability-order) restore installs pages from a durable image; media recovery forces the log at entry
            self.write_page(id, page.clone())?;
        }
        Ok(())
    }

    /// Scrub pass: report every readable page whose stored bytes no longer
    /// match its recorded checksum (torn or corrupted writes), with the
    /// expected/found checksum pair per page. Pages in already-failed
    /// regions and quarantined pages are skipped — they are known-bad and
    /// blocked from reads regardless. After a crash, the driver fails the
    /// ranges reported here so media recovery restores them from a backup.
    pub fn verify_pages(&self) -> CorruptionReport {
        let mut entries = Vec::new();
        for (pi, part) in self.partitions.iter().enumerate() {
            let guard = part.read();
            for (i, (page, &expected)) in guard.pages.iter().zip(&guard.sums).enumerate() {
                if guard.is_failed(i as u32) || guard.quarantined.contains(&(i as u32)) {
                    continue;
                }
                let found = page.checksum();
                if found != expected {
                    entries.push(CorruptionEntry {
                        page: PageId::new(pi as u32, i as u32),
                        expected,
                        found,
                    });
                }
            }
        }
        CorruptionReport { entries }
    }

    /// Scrub a single page: `Ok(Some(entry))` if its stored bytes fail
    /// their checksum, `Ok(None)` if clean (or failed/quarantined, which
    /// the full-store scrub also skips). No [`IoEvent::PageRead`] is
    /// consulted — verification itself cannot be faulted into lying.
    pub fn verify_page(&self, id: PageId) -> Result<Option<CorruptionEntry>, StoreError> {
        let guard = self.part(id.partition)?.read();
        let idx = id.index as usize;
        let page = guard.pages.get(idx).ok_or(StoreError::NoSuchPage(id))?;
        if guard.is_failed(id.index) || guard.quarantined.contains(&id.index) {
            return Ok(None);
        }
        let expected = guard
            .sums
            .get(idx)
            .copied()
            .ok_or(StoreError::NoSuchPage(id))?;
        let found = page.checksum();
        if found != expected {
            return Ok(Some(CorruptionEntry {
                page: id,
                expected,
                found,
            }));
        }
        Ok(None)
    }

    /// Highest page index in `pid` whose pageLSN is non-null, if any.
    /// Recovery uses this to re-seed volatile page allocators.
    pub fn high_water(&self, pid: PartitionId) -> Result<Option<u32>, StoreError> {
        let guard = self.part(pid)?.read();
        Ok(guard
            .pages
            .iter()
            .enumerate()
            .rev()
            .find(|(_, p)| !p.lsn().is_null())
            .map(|(i, _)| i as u32))
    }
}

/// The stored-byte mutation for a read-side damage verdict: [`TornRead`]
/// inverts the back half of the payload (a half-old sector splice that can
/// never equal the intended bytes), [`CorruptRead`] flips one mid-page bit.
/// The recorded checksum is untouched, so the next verifying read detects
/// the damage.
///
/// [`TornRead`]: FaultVerdict::TornRead
/// [`CorruptRead`]: FaultVerdict::CorruptRead
fn damage_stored_page(cur: &Page, verdict: FaultVerdict) -> Page {
    let mut buf = cur.data().to_vec();
    match verdict {
        FaultVerdict::TornRead => {
            let half = buf.len() / 2;
            for b in buf.iter_mut().skip(half) {
                *b = !*b;
            }
            if buf.is_empty() {
                buf.push(0xFF); // even a zero-sized test page can rot
            }
        }
        _ => {
            let pos = buf.len() / 2;
            match buf.get_mut(pos) {
                Some(b) => *b ^= 0x20,
                None => buf.push(0xFF),
            }
        }
    }
    Page::new(cur.lsn(), Bytes::from(buf))
}

impl fmt::Debug for StableStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "StableStore({} partitions, page_size={})",
            self.partitions.len(),
            self.config.page_size
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lsn;
    use bytes::Bytes;

    fn store() -> StableStore {
        StableStore::new(
            StoreConfig { page_size: 8 },
            &[PartitionSpec { pages: 4 }, PartitionSpec { pages: 2 }],
        )
    }

    fn page(lsn: u64, fill: u8) -> Page {
        Page::new(Lsn(lsn), Bytes::from(vec![fill; 8]))
    }

    #[test]
    fn read_back_what_was_written() {
        let s = store();
        let id = PageId::new(0, 2);
        s.write_page(id, page(3, 0xAB)).unwrap();
        let p = s.read_page(id).unwrap();
        assert_eq!(p.lsn(), Lsn(3));
        assert_eq!(p.data()[0], 0xAB);
    }

    #[test]
    fn fresh_pages_are_formatted() {
        let s = store();
        let p = s.read_page(PageId::new(1, 1)).unwrap();
        assert!(p.lsn().is_null());
        assert!(p.data().iter().all(|&b| b == 0));
    }

    #[test]
    fn bounds_are_checked() {
        let s = store();
        assert_eq!(
            s.read_page(PageId::new(2, 0)),
            Err(StoreError::NoSuchPartition(PartitionId(2)))
        );
        assert_eq!(
            s.read_page(PageId::new(1, 2)),
            Err(StoreError::NoSuchPage(PageId::new(1, 2)))
        );
    }

    #[test]
    fn page_size_is_enforced() {
        let s = store();
        let bad = Page::new(Lsn(1), Bytes::from_static(b"short"));
        match s.write_page(PageId::new(0, 0), bad) {
            Err(StoreError::PageSizeMismatch {
                got: 5, want: 8, ..
            }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn partition_failure_blocks_reads_not_writes() {
        let s = store();
        let id = PageId::new(0, 1);
        s.write_page(id, page(1, 1)).unwrap();
        s.fail_partition(PartitionId(0)).unwrap();
        assert_eq!(s.read_page(id), Err(StoreError::MediaFailure(id)));
        // Writing to the replacement medium is allowed.
        s.write_page(id, page(2, 2)).unwrap();
        assert_eq!(s.read_page(id), Err(StoreError::MediaFailure(id)));
        s.clear_failures(PartitionId(0)).unwrap();
        assert_eq!(s.read_page(id).unwrap().lsn(), Lsn(2));
    }

    #[test]
    fn range_failure_is_partial() {
        let s = store();
        s.fail_range(PartitionId(0), 1, 3).unwrap();
        assert!(s.read_page(PageId::new(0, 0)).is_ok());
        assert!(s.read_page(PageId::new(0, 1)).is_err());
        assert!(s.read_page(PageId::new(0, 2)).is_err());
        assert!(s.read_page(PageId::new(0, 3)).is_ok());
        assert!(s.has_failures(PartitionId(0)).unwrap());
    }

    #[test]
    fn snapshot_and_apply_round_trip() {
        let s = store();
        s.write_page(PageId::new(0, 0), page(1, 9)).unwrap();
        s.write_page(PageId::new(1, 1), page(2, 7)).unwrap();
        let img = s.snapshot().unwrap();
        assert_eq!(img.len(), 6);

        // Clobber and restore.
        s.write_page(PageId::new(0, 0), page(5, 0)).unwrap();
        s.apply_image(&img).unwrap();
        assert_eq!(s.read_page(PageId::new(0, 0)).unwrap().lsn(), Lsn(1));
        assert_eq!(s.read_page(PageId::new(1, 1)).unwrap().lsn(), Lsn(2));
    }

    #[test]
    fn snapshot_of_failed_store_errors() {
        let s = store();
        s.fail_range(PartitionId(0), 0, 1).unwrap();
        assert!(s.snapshot().is_err());
    }

    #[test]
    fn stats_accumulate() {
        let s = store();
        let id = PageId::new(0, 0);
        s.write_page(id, page(1, 1)).unwrap();
        s.read_page(id).unwrap();
        assert_eq!(s.stats().page_writes, 1);
        assert_eq!(s.stats().page_reads, 1);
        assert_eq!(s.stats().bytes_written, 8);
        s.reset_stats();
        assert_eq!(s.stats().page_reads, 0);
    }

    #[test]
    fn write_run_matches_per_page_writes() {
        let a = store();
        let b = store();
        let mut run = vec![page(1, 0x11), page(2, 0x22), page(3, 0x33)];
        a.write_run(PartitionId(0), 1, &mut run).unwrap();
        assert!(run.is_empty(), "the run buffer is drained for reuse");
        for (i, (lsn, fill)) in [(1, 0x11), (2, 0x22), (3, 0x33)].iter().enumerate() {
            b.write_page(PageId::new(0, 1 + i as u32), page(*lsn, *fill))
                .unwrap();
        }
        for i in 0..4u32 {
            let id = PageId::new(0, i);
            assert_eq!(a.read_page(id).unwrap(), b.read_page(id).unwrap());
        }
        // One batched stats update covering the whole run.
        assert_eq!(a.stats().page_writes, 3);
        assert_eq!(a.stats().bytes_written, 24);
    }

    #[test]
    fn write_run_bounds_and_size_are_checked() {
        let s = store();
        let mut run = vec![page(1, 1), page(2, 2), page(3, 3)];
        assert!(matches!(
            s.write_run(PartitionId(0), 2, &mut run),
            Err(StoreError::NoSuchPage(_))
        ));
        let mut bad = vec![Page::new(Lsn(1), Bytes::from_static(b"short"))];
        assert!(matches!(
            s.write_run(PartitionId(0), 0, &mut bad),
            Err(StoreError::PageSizeMismatch { .. })
        ));
        assert!(s.write_run(PartitionId(0), 0, &mut Vec::new()).is_ok());
    }

    #[test]
    fn write_run_heals_quarantine_like_write_page() {
        let s = store();
        let id = PageId::new(0, 1);
        s.quarantine_page(id).unwrap();
        let mut run = vec![page(5, 0x55)];
        s.write_run(PartitionId(0), 1, &mut run).unwrap();
        assert!(!s.is_quarantined(id).unwrap());
        assert_eq!(s.read_page(id).unwrap().lsn(), Lsn(5));
    }

    use crate::fault::{FaultVerdict, IoEvent};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// A hook that fires `verdict` on the first page write, then proceeds.
    fn once_hook(verdict: FaultVerdict) -> crate::fault::FaultHook {
        let fired = AtomicBool::new(false);
        Arc::new(move |ev, _page| {
            if ev == IoEvent::PageWrite && !fired.swap(true, Ordering::Relaxed) {
                verdict
            } else {
                FaultVerdict::Proceed
            }
        })
    }

    #[test]
    fn injected_crash_blocks_the_write() {
        let s = store();
        let id = PageId::new(0, 0);
        s.write_page(id, page(1, 0xAA)).unwrap();
        s.set_fault_hook(Some(once_hook(FaultVerdict::Crash)));
        assert_eq!(
            s.write_page(id, page(2, 0xBB)),
            Err(StoreError::InjectedCrash)
        );
        // Nothing was persisted; the old value survives intact.
        let p = s.read_page(id).unwrap();
        assert_eq!(p.lsn(), Lsn(1));
        assert_eq!(p.data()[0], 0xAA);
    }

    #[test]
    fn write_run_with_hook_degrades_to_per_page_consults() {
        let s = store();
        s.write_page(PageId::new(0, 0), page(1, 0xAA)).unwrap();
        s.set_fault_hook(Some(once_hook(FaultVerdict::Crash)));
        let mut run = vec![page(2, 0xBB), page(3, 0xCC)];
        // The first per-page write consults the hook and crashes; nothing
        // from the run is persisted past the fault.
        assert_eq!(
            s.write_run(PartitionId(0), 0, &mut run),
            Err(StoreError::InjectedCrash)
        );
        s.set_fault_hook(None);
        let p = s.read_page(PageId::new(0, 0)).unwrap();
        assert_eq!(p.lsn(), Lsn(1), "the armed write did not land");
        assert!(s.read_page(PageId::new(0, 1)).unwrap().lsn().is_null());
    }

    #[test]
    fn torn_write_is_detected_on_read() {
        let s = store();
        let id = PageId::new(0, 0);
        s.write_page(id, page(1, 0xAA)).unwrap();
        s.set_fault_hook(Some(once_hook(FaultVerdict::TornWrite)));
        assert_eq!(
            s.write_page(id, page(2, 0xBB)),
            Err(StoreError::InjectedCrash)
        );
        assert_eq!(s.read_page(id), Err(StoreError::Corrupt(id)));
        assert_eq!(s.page_lsn(id), Err(StoreError::Corrupt(id)));
        assert_eq!(s.verify_pages().pages(), vec![id]);
        assert!(s.snapshot().is_err());
        // A clean rewrite repairs the slot.
        s.write_page(id, page(3, 0xCC)).unwrap();
        assert_eq!(s.read_page(id).unwrap().lsn(), Lsn(3));
        assert!(s.verify_pages().is_clean());
    }

    #[test]
    fn silent_corruption_is_detected_on_read() {
        let s = store();
        let id = PageId::new(0, 3);
        s.set_fault_hook(Some(once_hook(FaultVerdict::CorruptWrite)));
        // The corrupting write reports success (bit rot is silent)…
        s.write_page(id, page(7, 0x11)).unwrap();
        // …but no read path will return the damaged page.
        assert_eq!(s.read_page(id), Err(StoreError::Corrupt(id)));
        let report = s.verify_pages();
        assert_eq!(report.pages(), vec![id]);
        // The report carries the checksum evidence for repair telemetry.
        let entry = report.entries[0];
        assert_ne!(entry.expected, entry.found);
        assert_eq!(s.verify_page(id).unwrap(), Some(entry));
        assert_eq!(s.verify_page(PageId::new(0, 0)).unwrap(), None);
    }

    #[test]
    fn media_fail_verdict_fails_the_target_page() {
        let s = store();
        let id = PageId::new(1, 0);
        s.set_fault_hook(Some(once_hook(FaultVerdict::MediaFail)));
        s.write_page(id, page(4, 0x22)).unwrap();
        assert_eq!(s.read_page(id), Err(StoreError::MediaFailure(id)));
        assert!(s.has_failures(PartitionId(1)).unwrap());
        // The write landed on the (future replacement) medium: clearing the
        // failure exposes it, as restore will after re-copying the page.
        s.clear_failures(PartitionId(1)).unwrap();
        assert_eq!(s.read_page(id).unwrap().lsn(), Lsn(4));
    }

    /// A hook that fires `verdict` on the first page *read*, then proceeds.
    fn once_read_hook(verdict: FaultVerdict) -> crate::fault::FaultHook {
        let fired = AtomicBool::new(false);
        Arc::new(move |ev, _page| {
            if ev == IoEvent::PageRead && !fired.swap(true, Ordering::Relaxed) {
                verdict
            } else {
                FaultVerdict::Proceed
            }
        })
    }

    #[test]
    fn transient_read_fails_once_then_retries_clean() {
        let s = store();
        let id = PageId::new(0, 0);
        s.write_page(id, page(1, 0xAA)).unwrap();
        s.set_fault_hook(Some(once_read_hook(FaultVerdict::TransientRead)));
        assert_eq!(s.read_page(id), Err(StoreError::Transient(id)));
        // Stored bytes are intact: the immediate retry succeeds.
        assert_eq!(s.read_page(id).unwrap().lsn(), Lsn(1));
    }

    #[test]
    fn torn_read_reveals_persistent_damage() {
        let s = store();
        let id = PageId::new(0, 1);
        s.write_page(id, page(2, 0xBB)).unwrap();
        s.set_fault_hook(Some(once_read_hook(FaultVerdict::TornRead)));
        assert_eq!(s.read_page(id), Err(StoreError::Corrupt(id)));
        // Unlike a transient error the damage is in the stored bytes: it
        // survives retries and the scrub sees it too.
        assert_eq!(s.read_page(id), Err(StoreError::Corrupt(id)));
        assert_eq!(s.verify_pages().pages(), vec![id]);
        // A full overwrite (repair) heals the slot.
        s.write_page(id, page(3, 0xCC)).unwrap();
        assert_eq!(s.read_page(id).unwrap().lsn(), Lsn(3));
    }

    #[test]
    fn corrupt_read_reveals_bit_rot() {
        let s = store();
        let id = PageId::new(1, 1);
        s.write_page(id, page(5, 0x55)).unwrap();
        s.set_fault_hook(Some(once_read_hook(FaultVerdict::CorruptRead)));
        assert_eq!(s.read_page(id), Err(StoreError::Corrupt(id)));
        let report = s.verify_pages();
        assert_eq!(report.pages(), vec![id]);
        assert_ne!(report.entries[0].expected, report.entries[0].found);
    }

    #[test]
    fn read_crash_and_media_fail_verdicts() {
        let s = store();
        let id = PageId::new(0, 2);
        s.write_page(id, page(1, 1)).unwrap();
        s.set_fault_hook(Some(once_read_hook(FaultVerdict::Crash)));
        assert_eq!(s.read_page(id), Err(StoreError::InjectedCrash));
        s.set_fault_hook(Some(once_read_hook(FaultVerdict::MediaFail)));
        assert_eq!(s.read_page(id), Err(StoreError::MediaFailure(id)));
        // The medium under the page is now failed for good.
        s.set_fault_hook(None);
        assert_eq!(s.read_page(id), Err(StoreError::MediaFailure(id)));
    }

    #[test]
    fn quarantine_blocks_every_read_path_until_overwritten() {
        let s = store();
        let id = PageId::new(0, 1);
        s.write_page(id, page(4, 0x44)).unwrap();
        s.quarantine_page(id).unwrap();
        assert!(s.is_quarantined(id).unwrap());
        assert_eq!(s.read_page(id), Err(StoreError::Quarantined(id)));
        assert_eq!(s.page_lsn(id), Err(StoreError::Quarantined(id)));
        assert_eq!(s.snapshot().unwrap_err(), StoreError::Quarantined(id));
        assert_eq!(s.quarantined_pages(), vec![id]);
        // Other pages keep serving: graceful degradation, not abort.
        assert!(s.read_page(PageId::new(0, 0)).is_ok());
        // The scrub skips quarantined slots (known-bad already).
        assert!(s.verify_pages().is_clean());
        // A full overwrite heals the quarantine.
        s.write_page(id, page(5, 0x55)).unwrap();
        assert!(!s.is_quarantined(id).unwrap());
        assert_eq!(s.read_page(id).unwrap().lsn(), Lsn(5));
    }

    #[test]
    fn release_quarantine_lifts_without_rewrite() {
        let s = store();
        let id = PageId::new(1, 0);
        s.write_page(id, page(9, 0x99)).unwrap();
        s.quarantine_page(id).unwrap();
        s.release_quarantine(id).unwrap();
        assert_eq!(s.read_page(id).unwrap().lsn(), Lsn(9));
    }

    #[test]
    fn clear_page_failure_splits_failed_ranges() {
        let s = store();
        s.fail_range(PartitionId(0), 0, 4).unwrap();
        s.clear_page_failure(PageId::new(0, 2)).unwrap();
        // Only the cleared page recovers; the rest of the range stays bad.
        assert!(s.read_page(PageId::new(0, 2)).is_ok());
        assert!(s.read_page(PageId::new(0, 1)).is_err());
        assert!(s.read_page(PageId::new(0, 3)).is_err());
        assert!(s.has_failures(PartitionId(0)).unwrap());
        // A whole-partition failure is NOT clearable per page.
        s.fail_partition(PartitionId(1)).unwrap();
        s.clear_page_failure(PageId::new(1, 0)).unwrap();
        assert!(s.read_page(PageId::new(1, 0)).is_err());
    }

    #[test]
    fn high_water_tracks_nonnull_lsn() {
        let s = store();
        assert_eq!(s.high_water(PartitionId(0)).unwrap(), None);
        s.write_page(PageId::new(0, 2), page(1, 1)).unwrap();
        assert_eq!(s.high_water(PartitionId(0)).unwrap(), Some(2));
        s.write_page(PageId::new(0, 1), page(2, 1)).unwrap();
        assert_eq!(s.high_water(PartitionId(0)).unwrap(), Some(2));
    }
}
