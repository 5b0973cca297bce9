//! Page images: bags of page copies.

use crate::id::{PageId, PartitionId};
use crate::page::Page;
use std::collections::BTreeMap;

/// A bag of page copies keyed by [`PageId`].
///
/// This is the raw material of a backup database `B`: the backup drivers in
/// `lob-backup` fill one of these page-by-page (or a run at a time with
/// [`PageImage::put_run`]) as the sweep progresses, and restore copies it
/// back into a [`crate::StableStore`]. It is also used by the shadow oracle
/// in tests.
///
/// Pages are held in dense per-partition slot vectors anchored at the lowest
/// index seen, not in a tree keyed by id: the producers (backup sweeps, the
/// oracle) fill contiguous index runs, and a slot write is a fraction of the
/// cost of a map insert, which used to dominate the whole copy pipeline.
/// The trade-off is that a partition's footprint spans the index *range* it
/// covers, which for the sparsest user — an incremental image — is still
/// bounded by the partition size.
#[derive(Clone, Default)]
pub struct PageImage {
    parts: BTreeMap<PartitionId, PartSlots>,
    len: usize,
}

/// One partition's copies: `slots` covers indexes `base..base + slots.len()`.
#[derive(Clone)]
struct PartSlots {
    base: u32,
    slots: Vec<Option<Page>>,
}

impl PartSlots {
    fn fresh(base: u32) -> PartSlots {
        PartSlots {
            base,
            slots: Vec::new(),
        }
    }

    /// Grow the slot range to cover `index` and hand back its slot.
    fn ensure(&mut self, index: u32) -> Option<&mut Option<Page>> {
        if self.slots.is_empty() {
            self.base = index;
        } else if index < self.base {
            let pad = (self.base - index) as usize;
            let mut grown: Vec<Option<Page>> = Vec::with_capacity(pad + self.slots.len());
            grown.resize_with(pad, || None);
            grown.append(&mut self.slots);
            self.slots = grown;
            self.base = index;
        }
        let off = (index - self.base) as usize;
        if off >= self.slots.len() {
            self.slots.resize_with(off + 1, || None);
        }
        self.slots.get_mut(off)
    }

    fn slot(&self, index: u32) -> Option<&Option<Page>> {
        let off = index.checked_sub(self.base)? as usize;
        self.slots.get(off)
    }
}

impl PageImage {
    /// An empty image.
    pub fn new() -> PageImage {
        PageImage::default()
    }

    /// Insert (or replace) a page copy.
    // lint: durability(BackupCopy requires PageRead)
    pub fn put(&mut self, id: PageId, page: Page) {
        let part = self
            .parts
            .entry(id.partition)
            .or_insert_with(|| PartSlots::fresh(id.index));
        if let Some(slot) = part.ensure(id.index) {
            if slot.replace(page).is_none() {
                self.len += 1;
            }
        }
    }

    /// Insert a contiguous run of copies of partition `partition` starting
    /// at index `lo`, draining `pages` (which comes back empty, ready for
    /// reuse). Equivalent to [`PageImage::put`] on each page in turn, minus
    /// the per-page partition lookup and range check — this is the bulk
    /// half of the batched backup copy path.
    pub fn put_run(&mut self, partition: PartitionId, lo: u32, pages: &mut Vec<Page>) {
        let Some(n) = u32::try_from(pages.len()).ok().filter(|&n| n > 0) else {
            pages.clear();
            return;
        };
        let part = self
            .parts
            .entry(partition)
            .or_insert_with(|| PartSlots::fresh(lo));
        // Grow once to cover the whole run, then fill slot by slot.
        let _ = part.ensure(lo);
        let _ = part.ensure(lo + (n - 1));
        let Some(start) = lo.checked_sub(part.base).map(|o| o as usize) else {
            pages.clear();
            return;
        };
        let mut filled = 0usize;
        if let Some(window) = part.slots.get_mut(start..start + n as usize) {
            for (slot, page) in window.iter_mut().zip(pages.drain(..)) {
                if slot.replace(page).is_none() {
                    filled += 1;
                }
            }
        }
        pages.clear();
        self.len += filled;
    }

    /// Look up a page copy.
    pub fn get(&self, id: PageId) -> Option<&Page> {
        self.parts.get(&id.partition)?.slot(id.index)?.as_ref()
    }

    /// Whether the image contains a copy of `id`.
    pub fn contains(&self, id: PageId) -> bool {
        self.get(id).is_some()
    }

    /// Number of pages in the image.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the image is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate over `(id, page)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, &Page)> {
        self.slots().filter_map(|(id, slot)| Some((id, slot?)))
    }

    /// Iterate over one partition's `(id, page)` pairs in index order (a
    /// partition restore installs just these, read in place).
    pub fn iter_partition(&self, partition: PartitionId) -> impl Iterator<Item = (PageId, &Page)> {
        self.parts
            .get_key_value(&partition)
            .into_iter()
            .flat_map(|(pid, part)| part_slots(*pid, part))
            .filter_map(|(id, slot)| Some((id, slot?)))
    }

    /// Every slot in id order, empty ones included: the dense layout a side
    /// table kept aligned with the image (the backup catalog's recorded
    /// checksums) walks in lock-step. Replacing a copy that is already
    /// present never moves a slot; only a put outside the covered index
    /// ranges does.
    pub fn slots(&self) -> impl Iterator<Item = (PageId, Option<&Page>)> {
        self.parts
            .iter()
            .flat_map(|(pid, part)| part_slots(*pid, part))
    }

    /// The position of `id`'s slot in [`PageImage::slots`] order, if the
    /// image's index ranges cover it (the slot may still be empty).
    pub fn slot_of(&self, id: PageId) -> Option<usize> {
        let mut before = 0usize;
        for (pid, part) in &self.parts {
            if *pid == id.partition {
                let off = id.index.checked_sub(part.base)? as usize;
                return (off < part.slots.len()).then_some(before + off);
            }
            before += part.slots.len();
        }
        None
    }

    /// Remove a page copy, returning it if present.
    pub fn remove(&mut self, id: PageId) -> Option<Page> {
        let part = self.parts.get_mut(&id.partition)?;
        let off = id.index.checked_sub(part.base)? as usize;
        let page = part.slots.get_mut(off)?.take();
        if page.is_some() {
            self.len -= 1;
        }
        page
    }

    /// Merge `other` into `self`; `other`'s pages win on conflict.
    /// Used to apply an incremental backup on top of a full one.
    pub fn overlay(&mut self, other: &PageImage) {
        for (id, page) in other.iter() {
            self.put(id, page.clone());
        }
    }

    /// Total payload bytes held.
    pub fn payload_bytes(&self) -> u64 {
        self.iter().map(|(_, p)| p.len() as u64).sum()
    }
}

/// One partition's slots with their ids, empty ones included.
fn part_slots(pid: PartitionId, part: &PartSlots) -> impl Iterator<Item = (PageId, Option<&Page>)> {
    part.slots.iter().enumerate().map(move |(off, slot)| {
        (
            PageId {
                partition: pid,
                index: part.base + off as u32,
            },
            slot.as_ref(),
        )
    })
}

impl std::fmt::Debug for PageImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PageImage({} pages)", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lsn;
    use bytes::Bytes;

    fn pg(lsn: u64, b: &'static [u8]) -> Page {
        Page::new(Lsn(lsn), Bytes::from_static(b))
    }

    #[test]
    fn put_get_remove() {
        let mut img = PageImage::new();
        let id = PageId::new(0, 3);
        assert!(!img.contains(id));
        img.put(id, pg(1, b"a"));
        assert_eq!(img.get(id).unwrap().lsn(), Lsn(1));
        assert_eq!(img.len(), 1);
        assert_eq!(img.remove(id).unwrap().lsn(), Lsn(1));
        assert!(img.is_empty());
    }

    #[test]
    fn put_replaces() {
        let mut img = PageImage::new();
        let id = PageId::new(0, 0);
        img.put(id, pg(1, b"a"));
        img.put(id, pg(2, b"b"));
        assert_eq!(img.len(), 1);
        assert_eq!(img.get(id).unwrap().lsn(), Lsn(2));
    }

    #[test]
    fn overlay_prefers_other() {
        let mut full = PageImage::new();
        full.put(PageId::new(0, 0), pg(1, b"a"));
        full.put(PageId::new(0, 1), pg(1, b"a"));
        let mut incr = PageImage::new();
        incr.put(PageId::new(0, 1), pg(5, b"z"));
        incr.put(PageId::new(0, 2), pg(6, b"y"));
        full.overlay(&incr);
        assert_eq!(full.len(), 3);
        assert_eq!(full.get(PageId::new(0, 1)).unwrap().lsn(), Lsn(5));
        assert_eq!(full.get(PageId::new(0, 0)).unwrap().lsn(), Lsn(1));
    }

    #[test]
    fn payload_accounting() {
        let mut img = PageImage::new();
        img.put(PageId::new(0, 0), pg(1, b"abcd"));
        img.put(PageId::new(0, 1), pg(1, b"ef"));
        assert_eq!(img.payload_bytes(), 6);
    }

    #[test]
    fn iteration_is_id_ordered() {
        let mut img = PageImage::new();
        img.put(PageId::new(1, 0), pg(1, b"c"));
        img.put(PageId::new(0, 5), pg(1, b"b"));
        img.put(PageId::new(0, 1), pg(1, b"a"));
        let ids: Vec<PageId> = img.iter().map(|(id, _)| id).collect();
        assert_eq!(
            ids,
            vec![PageId::new(0, 1), PageId::new(0, 5), PageId::new(1, 0)]
        );
    }

    #[test]
    fn sparse_and_descending_puts() {
        // Slots grow at both ends; gaps read back as absent.
        let mut img = PageImage::new();
        img.put(PageId::new(0, 100), pg(1, b"m"));
        img.put(PageId::new(0, 200), pg(2, b"h"));
        img.put(PageId::new(0, 50), pg(3, b"l"));
        assert_eq!(img.len(), 3);
        assert!(img.get(PageId::new(0, 99)).is_none());
        assert!(img.get(PageId::new(0, 0)).is_none());
        assert_eq!(img.get(PageId::new(0, 50)).unwrap().lsn(), Lsn(3));
        assert_eq!(img.get(PageId::new(0, 200)).unwrap().lsn(), Lsn(2));
        let ids: Vec<u32> = img.iter().map(|(id, _)| id.index).collect();
        assert_eq!(ids, vec![50, 100, 200]);
    }

    #[test]
    fn slots_cover_gaps_and_slot_of_indexes_them() {
        let mut img = PageImage::new();
        img.put(PageId::new(0, 4), pg(1, b"a"));
        img.put(PageId::new(0, 6), pg(2, b"b"));
        img.put(PageId::new(2, 1), pg(3, b"c"));
        let slots: Vec<(PageId, Option<Lsn>)> =
            img.slots().map(|(id, p)| (id, p.map(Page::lsn))).collect();
        assert_eq!(
            slots,
            vec![
                (PageId::new(0, 4), Some(Lsn(1))),
                (PageId::new(0, 5), None),
                (PageId::new(0, 6), Some(Lsn(2))),
                (PageId::new(2, 1), Some(Lsn(3))),
            ]
        );
        for (at, (id, _)) in slots.iter().enumerate() {
            assert_eq!(img.slot_of(*id), Some(at));
        }
        for outside in [PageId::new(0, 3), PageId::new(0, 7), PageId::new(1, 0)] {
            assert_eq!(img.slot_of(outside), None);
        }
        // Replacing a present copy keeps the layout.
        img.put(PageId::new(0, 6), pg(9, b"z"));
        assert_eq!(img.slots().count(), 4);
        let two: Vec<PageId> = img
            .iter_partition(PartitionId(2))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(two, vec![PageId::new(2, 1)]);
        assert_eq!(img.iter_partition(PartitionId(1)).count(), 0);
    }

    #[test]
    fn put_run_matches_per_page_puts() {
        let mut bulk = PageImage::new();
        let mut single = PageImage::new();
        let pages: Vec<Page> = (0..8)
            .map(|i| Page::new(Lsn(i + 1), Bytes::from(vec![i as u8; 4])))
            .collect();
        for (i, p) in pages.iter().enumerate() {
            single.put(PageId::new(2, 10 + i as u32), p.clone());
        }
        let mut buf = pages.clone();
        bulk.put_run(PartitionId(2), 10, &mut buf);
        assert!(buf.is_empty(), "the buffer drains for reuse");
        assert_eq!(bulk.len(), single.len());
        for (a, b) in bulk.iter().zip(single.iter()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1, b.1);
        }
        // Overlapping re-put replaces without double counting.
        let mut buf = pages;
        bulk.put_run(PartitionId(2), 10, &mut buf);
        assert_eq!(bulk.len(), 8);
    }

    #[test]
    fn put_run_extends_below_base() {
        let mut img = PageImage::new();
        img.put(PageId::new(0, 8), pg(1, b"x"));
        let mut buf = vec![pg(2, b"a"), pg(3, b"b")];
        img.put_run(PartitionId(0), 2, &mut buf);
        assert_eq!(img.len(), 3);
        assert_eq!(img.get(PageId::new(0, 2)).unwrap().lsn(), Lsn(2));
        assert_eq!(img.get(PageId::new(0, 3)).unwrap().lsn(), Lsn(3));
        assert_eq!(img.get(PageId::new(0, 8)).unwrap().lsn(), Lsn(1));
    }
}
