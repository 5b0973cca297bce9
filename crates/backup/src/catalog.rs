//! The backup generation catalog: the registry online repair draws from.
//!
//! Media recovery needs a backup `B` and the log from its redo-start LSN.
//! The catalog keeps *several* such backups — **generations**, newest last
//! in registration order — so single-page repair can fall back to an older
//! generation when the newest image's copy of a page turns out to be
//! damaged (an older backup plus a longer roll-forward reaches the same
//! state; the paper's media-recovery argument is generation-agnostic).
//!
//! Registration records a checksum for every page copy in the image, in
//! one dense vector aligned with the image's slots (no per-page map).
//! [`BackupCatalog::fetch_page`] indexes it to re-verify one stored copy;
//! [`BackupCatalog::fetch_image`] walks pages and sums in lock-step and
//! hands back the generation's image as a shared handle, never a copy. So
//! bit rot on the backup medium — injected via the [`IoEvent::ImageRead`]
//! fault hook or [`BackupCatalog::tamper_page`] — is detected and reported
//! as a typed [`BackupError::CorruptImage`], never silently restored into
//! `S`. Damage is copy-on-write: it replaces the generation's image, so a
//! handle fetched earlier keeps the bytes it was verified with, and the
//! next fetch sees the rot.

use crate::archive::LogArchive;
use crate::error::BackupError;
use crate::image::BackupImage;
use bytes::Bytes;
use lob_pagestore::fault::{FaultHook, FaultVerdict, IoEvent};
use lob_pagestore::witness::{Mutex, Rank, RwLock};
use lob_pagestore::{Lsn, Page, PageId, PartitionId};
use lob_wal::LogRecord;
use std::sync::Arc;

/// One registered backup generation.
struct Generation {
    /// Shared with every handle [`BackupCatalog::fetch_image`] returned;
    /// damage replaces it rather than writing through it.
    image: Arc<BackupImage>,
    /// Checksum of every page copy recorded at registration time, one per
    /// slot of `image.pages` in [`lob_pagestore::PageImage::slots`] order
    /// (empty slots hold 0 and are never compared). Damage injected into
    /// the stored image afterwards leaves a mismatch.
    sums: Vec<u64>,
    /// The generation's log suffix sorted and partitioned by page, when
    /// one has been attached ([`BackupCatalog::extend_archive`]). Instant
    /// restore and index-assisted repair fetch redo suffixes from here
    /// without a full log scan.
    archive: Option<LogArchive>,
}

/// A catalog of registered backup generations, newest last.
///
/// Shared by the engine (which registers images as backups complete) and
/// the repair path (which fetches page copies, newest generation first).
/// All methods take `&self`; the catalog is internally locked.
pub struct BackupCatalog {
    generations: RwLock<Vec<Generation>>,
    /// Optional fault hook consulted before each image page fetch
    /// ([`IoEvent::ImageRead`]).
    hook: Mutex<Option<FaultHook>>,
}

impl Default for BackupCatalog {
    fn default() -> Self {
        BackupCatalog::new()
    }
}

impl BackupCatalog {
    /// An empty catalog.
    pub fn new() -> BackupCatalog {
        BackupCatalog {
            generations: RwLock::new(Rank::CatalogGenerations, Vec::new()),
            hook: Mutex::new(Rank::CatalogHook, None),
        }
    }

    /// Install (or clear) the fault hook consulted before image reads.
    pub fn set_fault_hook(&self, hook: Option<FaultHook>) {
        *self.hook.lock() = hook;
    }

    /// Consult the fault hook (Proceed when none is installed). The hook
    /// is cloned out first, so it runs with no catalog lock held.
    fn consult_fault(&self, ev: IoEvent, page: Option<PageId>) -> FaultVerdict {
        let hook = self.hook.lock().clone();
        match hook {
            Some(h) => h(ev, page),
            None => FaultVerdict::Proceed,
        }
    }

    /// Register a completed backup image as the newest generation.
    ///
    /// Rejects incomplete images and bare incremental images (materialize
    /// them onto their base first — the catalog only holds images that can
    /// seed a restore by themselves), and duplicate backup ids.
    pub fn register(&self, image: BackupImage) -> Result<(), BackupError> {
        if !image.complete {
            return Err(BackupError::IncompleteImage {
                backup_id: image.backup_id,
            });
        }
        if image.incremental {
            return Err(BackupError::BadState(
                "cannot register a bare incremental image; materialize onto its base".into(),
            ));
        }
        let mut gens = self.generations.write();
        if gens.iter().any(|g| g.image.backup_id == image.backup_id) {
            return Err(BackupError::BadState(format!(
                "backup {} is already registered",
                image.backup_id
            )));
        }
        let sums = image
            .pages
            .slots()
            .map(|(_, p)| p.map_or(0, Page::checksum))
            .collect();
        gens.push(Generation {
            image: Arc::new(image),
            sums,
            archive: None,
        });
        Ok(())
    }

    /// Retire a generation, returning its image. Typically the oldest, once
    /// a newer backup completes and the log it needs is safely retained.
    /// The image is copied only if a fetched handle still shares it.
    pub fn retire(&self, backup_id: u64) -> Result<BackupImage, BackupError> {
        let mut gens = self.generations.write();
        let idx = gens
            .iter()
            .position(|g| g.image.backup_id == backup_id)
            .ok_or(BackupError::UnknownBackup(backup_id))?;
        let image = gens.remove(idx).image;
        Ok(Arc::try_unwrap(image).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Registered backup ids, newest first (the order repair tries them).
    pub fn generations(&self) -> Vec<u64> {
        let gens = self.generations.read();
        gens.iter().rev().map(|g| g.image.backup_id).collect()
    }

    /// Whether no generation is registered (self-healing disengaged).
    pub fn is_empty(&self) -> bool {
        self.generations.read().is_empty()
    }

    /// Number of registered generations.
    pub fn len(&self) -> usize {
        self.generations.read().len()
    }

    /// The redo-start LSN of a generation: roll-forward from a page fetched
    /// out of this image must replay the log from here.
    pub fn start_lsn(&self, backup_id: u64) -> Result<Lsn, BackupError> {
        let gens = self.generations.read();
        gens.iter()
            .find(|g| g.image.backup_id == backup_id)
            .map(|g| g.image.start_lsn)
            .ok_or(BackupError::UnknownBackup(backup_id))
    }

    /// Fetch one page copy from a generation, verifying it against the
    /// checksum recorded at registration (found by the copy's slot).
    ///
    /// The fault hook (if installed) is consulted first with
    /// [`IoEvent::ImageRead`]: a crash verdict kills the process here, a
    /// transient verdict fails this attempt only (typed
    /// [`BackupError::TransientImage`], retry succeeds), and damage
    /// verdicts mutate the *stored* image copy so the checksum comparison
    /// below — not the hook — is what detects and reports the corruption.
    pub fn fetch_page(&self, backup_id: u64, id: PageId) -> Result<Page, BackupError> {
        match self.consult_fault(IoEvent::ImageRead, Some(id)) {
            FaultVerdict::Crash => return Err(BackupError::InjectedCrash),
            FaultVerdict::TransientRead => {
                return Err(BackupError::TransientImage {
                    backup_id,
                    page: id,
                })
            }
            FaultVerdict::TornRead | FaultVerdict::CorruptRead | FaultVerdict::MediaFail => {
                // The backup medium rots under this page copy.
                self.damage_stored(backup_id, id);
            }
            FaultVerdict::Proceed | FaultVerdict::TornWrite | FaultVerdict::CorruptWrite => {}
        }
        let gens = self.generations.read();
        let gen = gens
            .iter()
            .find(|g| g.image.backup_id == backup_id)
            .ok_or(BackupError::UnknownBackup(backup_id))?;
        let page = gen.image.pages.get(id).ok_or(BackupError::MissingPage {
            backup_id,
            page: id,
        })?;
        let expected = gen
            .image
            .pages
            .slot_of(id)
            .and_then(|slot| gen.sums.get(slot))
            .ok_or(BackupError::MissingPage {
                backup_id,
                page: id,
            })?;
        if page.checksum() != *expected {
            return Err(BackupError::CorruptImage {
                backup_id,
                page: id,
            });
        }
        Ok(page.clone())
    }

    /// Fetch a whole generation image for a catalog-sourced restore,
    /// verifying every page copy against the checksum recorded at
    /// registration: pages and recorded sums are walked in lock-step, slot
    /// by slot. The verified image comes back as a shared handle to the
    /// generation's own copy — a restore only reads it, so nothing is
    /// cloned. Later damage replaces the generation's image (copy on
    /// write), so the handle never changes under its holder.
    ///
    /// One [`IoEvent::ImageRead`] consult (with no page) covers the batched
    /// fetch — the image streams off the backup medium in one sequential
    /// read, so the fault surface is one event, not one per page. Damage
    /// verdicts rot the stored copy of the image's first page; the checksum
    /// verification below is what detects and reports it, exactly as in
    /// [`BackupCatalog::fetch_page`].
    pub fn fetch_image(&self, backup_id: u64) -> Result<Arc<BackupImage>, BackupError> {
        match self.consult_fault(IoEvent::ImageRead, None) {
            FaultVerdict::Crash => return Err(BackupError::InjectedCrash),
            FaultVerdict::TransientRead => {
                return Err(BackupError::TransientImage {
                    backup_id,
                    page: PageId::new(0, 0),
                })
            }
            FaultVerdict::TornRead | FaultVerdict::CorruptRead | FaultVerdict::MediaFail => {
                let first = {
                    let gens = self.generations.read();
                    gens.iter()
                        .find(|g| g.image.backup_id == backup_id)
                        .and_then(|g| g.image.pages.iter().next().map(|(id, _)| id))
                };
                if let Some(id) = first {
                    self.damage_stored(backup_id, id);
                }
            }
            FaultVerdict::Proceed | FaultVerdict::TornWrite | FaultVerdict::CorruptWrite => {}
        }
        let gens = self.generations.read();
        let gen = gens
            .iter()
            .find(|g| g.image.backup_id == backup_id)
            .ok_or(BackupError::UnknownBackup(backup_id))?;
        let mut sums = gen.sums.iter();
        for (id, page) in gen.image.pages.slots() {
            let expected = sums.next().ok_or(BackupError::MissingPage {
                backup_id,
                page: id,
            })?;
            if page.is_some_and(|p| p.checksum() != *expected) {
                return Err(BackupError::CorruptImage {
                    backup_id,
                    page: id,
                });
            }
        }
        Ok(Arc::clone(&gen.image))
    }

    /// Attach (if absent) and extend the page-indexed media-log archive of
    /// a generation: log frames at or past the archive's watermark are
    /// sorted into per-page runs (the frames themselves, shared — see
    /// [`LogArchive::extend`]); earlier frames are skipped. Returns the new
    /// watermark — the exclusive LSN bound the archive now covers.
    ///
    /// This is the incremental half of archive maintenance: register the
    /// generation once, then feed it the log suffix as it grows (or all at
    /// once just before an instant restore).
    pub fn extend_archive(
        &self,
        backup_id: u64,
        frames: &[(Lsn, Bytes)],
    ) -> Result<Lsn, BackupError> {
        let mut gens = self.generations.write();
        let gen = gens
            .iter_mut()
            .find(|g| g.image.backup_id == backup_id)
            .ok_or(BackupError::UnknownBackup(backup_id))?;
        let archive = gen
            .archive
            .get_or_insert_with(|| LogArchive::new(gen.image.start_lsn));
        archive.extend(frames);
        Ok(archive.watermark())
    }

    /// Whether a generation has a page-indexed archive attached.
    pub fn has_archive(&self, backup_id: u64) -> bool {
        let gens = self.generations.read();
        gens.iter()
            .any(|g| g.image.backup_id == backup_id && g.archive.is_some())
    }

    /// The archive's watermark (exclusive LSN bound of indexed records),
    /// or `None` when the generation has no archive.
    pub fn archive_watermark(&self, backup_id: u64) -> Result<Option<Lsn>, BackupError> {
        let gens = self.generations.read();
        gens.iter()
            .find(|g| g.image.backup_id == backup_id)
            .map(|g| g.archive.as_ref().map(|a| a.watermark()))
            .ok_or(BackupError::UnknownBackup(backup_id))
    }

    /// Fetch one page's sorted record run from a generation's archive —
    /// every indexed record whose writeset includes `id`, ascending LSN —
    /// verifying the run checksum recorded at indexing time. A page with
    /// no indexed writers yields an empty run.
    ///
    /// The fault hook (if installed) is consulted first with
    /// [`IoEvent::ArchiveRead`]: a crash verdict kills the process here, a
    /// transient verdict fails this attempt only (typed
    /// [`BackupError::TransientArchive`], retry succeeds), and damage
    /// verdicts rot the *stored* run so the checksum comparison — not the
    /// hook — detects and reports the corruption.
    pub fn fetch_records(&self, backup_id: u64, id: PageId) -> Result<Vec<LogRecord>, BackupError> {
        lob_pagestore::witness::io_order("ArchiveRead");
        match self.consult_fault(IoEvent::ArchiveRead, Some(id)) {
            FaultVerdict::Crash => return Err(BackupError::InjectedCrash),
            FaultVerdict::TransientRead => return Err(BackupError::TransientArchive { backup_id }),
            FaultVerdict::TornRead | FaultVerdict::CorruptRead | FaultVerdict::MediaFail => {
                let mut gens = self.generations.write();
                if let Some(a) = gens
                    .iter_mut()
                    .find(|g| g.image.backup_id == backup_id)
                    .and_then(|g| g.archive.as_mut())
                {
                    a.damage_any_run(id);
                }
            }
            FaultVerdict::Proceed | FaultVerdict::TornWrite | FaultVerdict::CorruptWrite => {}
        }
        let gens = self.generations.read();
        let gen = gens
            .iter()
            .find(|g| g.image.backup_id == backup_id)
            .ok_or(BackupError::UnknownBackup(backup_id))?;
        let archive = gen
            .archive
            .as_ref()
            .ok_or(BackupError::NoArchive(backup_id))?;
        archive.decode_run(backup_id, id)
    }

    /// Fetch every indexed run for one partition's pages — the
    /// segment-granular batch behind instant restore's closure fixpoint.
    /// The runs live contiguously in the page-sorted archive, so the whole
    /// segment's suffix streams off the archive medium in one sequential
    /// read: one [`IoEvent::ArchiveRead`] consult (with the partition's
    /// first page) covers the batch, exactly as one [`IoEvent::ImageRead`]
    /// covers [`BackupCatalog::fetch_image`]. Pages absent from the result
    /// have no indexed writers (their run is empty by construction).
    /// Verdicts behave exactly as in [`BackupCatalog::fetch_records`];
    /// each run is still verified against its own recorded checksum.
    pub fn fetch_partition_records(
        &self,
        backup_id: u64,
        partition: PartitionId,
    ) -> Result<Vec<(PageId, Vec<LogRecord>)>, BackupError> {
        lob_pagestore::witness::io_order("ArchiveRead");
        match self.consult_fault(IoEvent::ArchiveRead, Some(PageId::new(partition.0, 0))) {
            FaultVerdict::Crash => return Err(BackupError::InjectedCrash),
            FaultVerdict::TransientRead => return Err(BackupError::TransientArchive { backup_id }),
            FaultVerdict::TornRead | FaultVerdict::CorruptRead | FaultVerdict::MediaFail => {
                let mut gens = self.generations.write();
                if let Some(a) = gens
                    .iter_mut()
                    .find(|g| g.image.backup_id == backup_id)
                    .and_then(|g| g.archive.as_mut())
                {
                    a.damage_any_run(PageId::new(partition.0, 0));
                }
            }
            FaultVerdict::Proceed | FaultVerdict::TornWrite | FaultVerdict::CorruptWrite => {}
        }
        let gens = self.generations.read();
        let gen = gens
            .iter()
            .find(|g| g.image.backup_id == backup_id)
            .ok_or(BackupError::UnknownBackup(backup_id))?;
        let archive = gen
            .archive
            .as_ref()
            .ok_or(BackupError::NoArchive(backup_id))?;
        archive.decode_partition_runs(backup_id, partition)
    }

    /// Fetch the archive's control-record run (backup markers — counted by
    /// every closure replay, applied by none), checksum-verified. One
    /// [`IoEvent::ArchiveRead`] consult (with no page) covers the fetch;
    /// verdicts behave exactly as in [`BackupCatalog::fetch_records`].
    pub fn fetch_control_records(&self, backup_id: u64) -> Result<Vec<LogRecord>, BackupError> {
        lob_pagestore::witness::io_order("ArchiveRead");
        match self.consult_fault(IoEvent::ArchiveRead, None) {
            FaultVerdict::Crash => return Err(BackupError::InjectedCrash),
            FaultVerdict::TransientRead => return Err(BackupError::TransientArchive { backup_id }),
            FaultVerdict::TornRead | FaultVerdict::CorruptRead | FaultVerdict::MediaFail => {
                let mut gens = self.generations.write();
                if let Some(a) = gens
                    .iter_mut()
                    .find(|g| g.image.backup_id == backup_id)
                    .and_then(|g| g.archive.as_mut())
                {
                    a.damage_control();
                }
            }
            FaultVerdict::Proceed | FaultVerdict::TornWrite | FaultVerdict::CorruptWrite => {}
        }
        let gens = self.generations.read();
        let gen = gens
            .iter()
            .find(|g| g.image.backup_id == backup_id)
            .ok_or(BackupError::UnknownBackup(backup_id))?;
        let archive = gen
            .archive
            .as_ref()
            .ok_or(BackupError::NoArchive(backup_id))?;
        archive.decode_control(backup_id)
    }

    /// Deliberately corrupt a page's stored archive run (one bit flipped
    /// mid-frame), leaving the recorded run checksum untouched. Public
    /// injection API for tests and drills: the next
    /// [`BackupCatalog::fetch_records`] for the page reports
    /// [`BackupError::CorruptArchive`]. Errors if the generation has no
    /// archive or the page has no run to rot.
    pub fn tamper_archive_run(&self, backup_id: u64, id: PageId) -> Result<(), BackupError> {
        let mut gens = self.generations.write();
        let gen = gens
            .iter_mut()
            .find(|g| g.image.backup_id == backup_id)
            .ok_or(BackupError::UnknownBackup(backup_id))?;
        let archive = gen
            .archive
            .as_mut()
            .ok_or(BackupError::NoArchive(backup_id))?;
        if !archive.tamper_run(id) {
            return Err(BackupError::MissingPage {
                backup_id,
                page: id,
            });
        }
        Ok(())
    }

    /// Deliberately corrupt the stored image copy of `id` in generation
    /// `backup_id` (one bit flipped mid-payload), leaving the recorded
    /// checksum untouched. Public injection API for tests and drills: the
    /// next [`BackupCatalog::fetch_page`] or [`BackupCatalog::fetch_image`]
    /// reports [`BackupError::CorruptImage`]. Copy on write: a handle
    /// fetched earlier keeps the original bytes.
    pub fn tamper_page(&self, backup_id: u64, id: PageId) -> Result<(), BackupError> {
        let mut gens = self.generations.write();
        let gen = gens
            .iter_mut()
            .find(|g| g.image.backup_id == backup_id)
            .ok_or(BackupError::UnknownBackup(backup_id))?;
        let rotted = gen
            .image
            .pages
            .get(id)
            .map(flip_mid_bit)
            .ok_or(BackupError::MissingPage {
                backup_id,
                page: id,
            })?;
        // lint:allow(durability-order) fault-injection tamper of an already-stored copy, not a backup copy
        Arc::make_mut(&mut gen.image).pages.put(id, rotted);
        Ok(())
    }

    /// Mutate the stored copy of `id` in `backup_id` for a damage verdict
    /// (no-op if the generation or page is absent — the fetch will report
    /// that on its own terms). Copy on write, as in
    /// [`BackupCatalog::tamper_page`].
    fn damage_stored(&self, backup_id: u64, id: PageId) {
        let mut gens = self.generations.write();
        if let Some(gen) = gens.iter_mut().find(|g| g.image.backup_id == backup_id) {
            if let Some(rotted) = gen.image.pages.get(id).map(flip_mid_bit) {
                // lint:allow(durability-order) latent-damage injection into a stored copy, not a backup copy
                Arc::make_mut(&mut gen.image).pages.put(id, rotted);
            }
        }
    }
}

/// One bit flipped mid-payload; the page LSN is preserved so only the
/// checksum betrays the rot.
fn flip_mid_bit(page: &Page) -> Page {
    let mut buf = page.data().to_vec();
    let pos = buf.len() / 2;
    match buf.get_mut(pos) {
        Some(b) => *b ^= 0x10,
        None => buf.push(0xFF), // even an empty test page can rot
    }
    Page::new(page.lsn(), bytes::Bytes::from(buf))
}

impl std::fmt::Debug for BackupCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let gens = self.generations.read();
        write!(f, "BackupCatalog({} generations)", gens.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use lob_pagestore::PageImage;

    fn image(id: u64, start: u64, fill: u8) -> BackupImage {
        let mut pages = PageImage::new();
        for i in 0..4u32 {
            pages.put(
                PageId::new(0, i),
                Page::new(Lsn(start), Bytes::from(vec![fill; 8])),
            );
        }
        BackupImage {
            backup_id: id,
            start_lsn: Lsn(start),
            end_lsn: Lsn::NULL,
            pages,
            complete: true,
            incremental: false,
            base: None,
        }
    }

    /// A complete image of `parts` partitions, each holding `per` pages
    /// from index `first` on, every copy's bytes distinct (so a sum read
    /// from the wrong slot never matches by accident).
    fn spread(id: u64, parts: u32, per: u32, first: u32) -> BackupImage {
        let mut img = image(id, 5, 0);
        img.pages = PageImage::new();
        for p in 0..parts {
            for i in first..first + per {
                let fill = (p * per + i) as u8;
                img.pages.put(
                    PageId::new(p, i),
                    Page::new(Lsn(5), Bytes::from(vec![fill; 8])),
                );
            }
        }
        img
    }

    #[test]
    fn register_fetch_retire_round_trip() {
        let cat = BackupCatalog::new();
        assert!(cat.is_empty());
        cat.register(image(1, 5, 0xAA)).unwrap();
        cat.register(image(2, 9, 0xBB)).unwrap();
        assert_eq!(cat.len(), 2);
        // Newest first: the order repair tries generations.
        assert_eq!(cat.generations(), vec![2, 1]);
        assert_eq!(cat.start_lsn(2).unwrap(), Lsn(9));
        let p = cat.fetch_page(2, PageId::new(0, 1)).unwrap();
        assert_eq!(p.data()[0], 0xBB);
        let retired = cat.retire(1).unwrap();
        assert_eq!(retired.backup_id, 1);
        assert_eq!(cat.generations(), vec![2]);
        assert!(matches!(cat.retire(1), Err(BackupError::UnknownBackup(1))));
    }

    #[test]
    fn register_rejects_unusable_images() {
        let cat = BackupCatalog::new();
        let mut incomplete = image(1, 1, 0);
        incomplete.complete = false;
        assert!(matches!(
            cat.register(incomplete),
            Err(BackupError::IncompleteImage { backup_id: 1 })
        ));
        let mut incr = image(2, 1, 0);
        incr.incremental = true;
        incr.base = Some(1);
        assert!(matches!(cat.register(incr), Err(BackupError::BadState(_))));
        cat.register(image(3, 1, 0)).unwrap();
        assert!(matches!(
            cat.register(image(3, 2, 1)),
            Err(BackupError::BadState(_))
        ));
    }

    #[test]
    fn tampered_copy_is_detected_by_checksum() {
        let cat = BackupCatalog::new();
        cat.register(image(1, 5, 0xAA)).unwrap();
        let id = PageId::new(0, 2);
        cat.fetch_page(1, id).unwrap();
        cat.tamper_page(1, id).unwrap();
        assert!(matches!(
            cat.fetch_page(1, id),
            Err(BackupError::CorruptImage { backup_id: 1, page }) if page == id
        ));
        // Other copies in the same generation stay good.
        assert!(cat.fetch_page(1, PageId::new(0, 0)).is_ok());
    }

    #[test]
    fn fetch_image_verifies_every_copy() {
        let cat = BackupCatalog::new();
        cat.register(image(1, 5, 0xAA)).unwrap();
        let whole = cat.fetch_image(1).unwrap();
        assert_eq!(whole.backup_id, 1);
        assert_eq!(whole.pages.len(), 4);
        assert!(matches!(
            cat.fetch_image(9),
            Err(BackupError::UnknownBackup(9))
        ));
        // A rotted copy anywhere in the image fails the whole fetch.
        let id = PageId::new(0, 2);
        cat.tamper_page(1, id).unwrap();
        assert!(matches!(
            cat.fetch_image(1),
            Err(BackupError::CorruptImage { backup_id: 1, page }) if page == id
        ));
    }

    #[test]
    fn fetch_image_consults_the_hook_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let cat = BackupCatalog::new();
        cat.register(image(1, 5, 0xAA)).unwrap();
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = calls.clone();
        cat.set_fault_hook(Some(Arc::new(move |ev, _| {
            if ev == IoEvent::ImageRead {
                seen.fetch_add(1, Ordering::Relaxed);
            }
            FaultVerdict::Proceed
        })));
        cat.fetch_image(1).unwrap();
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "a whole-image fetch is one ImageRead event"
        );
        // Crash and transient verdicts take effect on the single event.
        cat.set_fault_hook(Some(Arc::new(|ev, _| match ev {
            IoEvent::ImageRead => FaultVerdict::Crash,
            _ => FaultVerdict::Proceed,
        })));
        assert!(matches!(
            cat.fetch_image(1),
            Err(BackupError::InjectedCrash)
        ));
    }

    #[test]
    fn missing_pages_and_unknown_generations_are_typed() {
        let cat = BackupCatalog::new();
        cat.register(image(1, 5, 0xAA)).unwrap();
        assert!(matches!(
            cat.fetch_page(7, PageId::new(0, 0)),
            Err(BackupError::UnknownBackup(7))
        ));
        assert!(matches!(
            cat.fetch_page(1, PageId::new(0, 99)),
            Err(BackupError::MissingPage { backup_id: 1, .. })
        ));
    }

    #[test]
    fn image_read_verdicts_take_effect() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let cat = BackupCatalog::new();
        cat.register(image(1, 5, 0xAA)).unwrap();
        let id = PageId::new(0, 3);
        // First fetch transiently fails (copy intact), second draws a
        // corrupt-read verdict (copy damaged for good), later fetches see
        // the persistent corruption without the hook firing again.
        let calls = AtomicUsize::new(0);
        cat.set_fault_hook(Some(Arc::new(move |ev, _| {
            if ev != IoEvent::ImageRead {
                return FaultVerdict::Proceed;
            }
            match calls.fetch_add(1, Ordering::Relaxed) {
                0 => FaultVerdict::TransientRead,
                1 => FaultVerdict::CorruptRead,
                _ => FaultVerdict::Proceed,
            }
        })));
        assert!(matches!(
            cat.fetch_page(1, id),
            Err(BackupError::TransientImage { .. })
        ));
        assert!(matches!(
            cat.fetch_page(1, id),
            Err(BackupError::CorruptImage { .. })
        ));
        assert!(matches!(
            cat.fetch_page(1, id),
            Err(BackupError::CorruptImage { .. })
        ));
        cat.set_fault_hook(None);
        // The damage hit only the targeted copy.
        assert!(cat.fetch_page(1, PageId::new(0, 0)).is_ok());
    }

    #[test]
    fn a_tampered_page_in_the_last_partition_fails_fetch_image_with_its_id() {
        let cat = BackupCatalog::new();
        cat.register(spread(1, 3, 4, 2)).unwrap();
        for p in 0..3 {
            for i in 2..6 {
                let id = PageId::new(p, i);
                let copy = cat.fetch_page(1, id).unwrap();
                assert_eq!(copy.data()[0], (p * 4 + i) as u8);
            }
        }
        assert_eq!(cat.fetch_image(1).unwrap().pages.len(), 12);
        let id = PageId::new(2, 5);
        cat.tamper_page(1, id).unwrap();
        assert!(matches!(
            cat.fetch_image(1),
            Err(BackupError::CorruptImage { backup_id: 1, page }) if page == id
        ));
    }

    #[test]
    fn a_handle_fetched_before_a_tamper_keeps_the_original_bytes() {
        let cat = BackupCatalog::new();
        cat.register(spread(1, 2, 4, 0)).unwrap();
        let before = cat.fetch_image(1).unwrap();
        let id = PageId::new(1, 1);
        let original = before.pages.get(id).unwrap().clone();
        cat.tamper_page(1, id).unwrap();
        assert_eq!(before.pages.get(id), Some(&original));
        assert!(matches!(
            cat.fetch_image(1),
            Err(BackupError::CorruptImage { backup_id: 1, page }) if page == id
        ));
        assert!(matches!(
            cat.fetch_page(1, id),
            Err(BackupError::CorruptImage { backup_id: 1, page }) if page == id
        ));
        // The rest of the generation still verifies.
        assert!(cat.fetch_page(1, PageId::new(1, 0)).is_ok());
    }

    #[test]
    fn fetch_page_outside_the_image_is_missing() {
        let cat = BackupCatalog::new();
        cat.register(spread(1, 2, 4, 2)).unwrap();
        for id in [
            PageId::new(0, 1),
            PageId::new(0, 6),
            PageId::new(1, 0),
            PageId::new(2, 3),
        ] {
            assert!(matches!(
                cat.fetch_page(1, id),
                Err(BackupError::MissingPage { backup_id: 1, page }) if page == id
            ));
        }
    }

    #[test]
    fn retire_with_a_live_handle_returns_an_equal_image() {
        let cat = BackupCatalog::new();
        cat.register(spread(1, 2, 4, 0)).unwrap();
        let handle = cat.fetch_image(1).unwrap();
        let retired = cat.retire(1).unwrap();
        assert_eq!(retired.backup_id, handle.backup_id);
        assert_eq!(retired.start_lsn, handle.start_lsn);
        assert!(retired.pages.iter().eq(handle.pages.iter()));
        assert!(cat.is_empty());
    }

    #[test]
    fn fetches_racing_a_tamper_see_the_original_or_the_rot() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{mpsc, Arc};

        let cat = Arc::new(BackupCatalog::new());
        cat.register(spread(1, 4, 16, 0)).unwrap();
        let pristine = cat.fetch_image(1).unwrap();
        let id = PageId::new(3, 15);
        let tampered = Arc::new(AtomicBool::new(false));
        let (fetching, started) = mpsc::channel();
        let reader = {
            let (cat, tampered, pristine) = (cat.clone(), tampered.clone(), pristine.clone());
            std::thread::spawn(move || {
                let mut rotted = 0u32;
                while rotted < 50 {
                    let done = tampered.load(Ordering::Acquire);
                    match cat.fetch_image(1) {
                        Ok(img) => {
                            assert!(!done, "a fetch after the tamper must fail");
                            assert!(img.pages.iter().eq(pristine.pages.iter()));
                            // The tamper starts once a fetch has succeeded,
                            // so it lands among the fetches that follow.
                            let _ = fetching.send(());
                        }
                        Err(BackupError::CorruptImage { backup_id: 1, page }) => {
                            assert_eq!(page, id);
                            rotted += 1;
                        }
                        Err(e) => panic!("unexpected fetch error: {e}"),
                    }
                }
            })
        };
        started.recv().unwrap();
        cat.tamper_page(1, id).unwrap();
        tampered.store(true, Ordering::Release);
        reader.join().unwrap();
        // The handle taken before the race still holds the original copy.
        assert_eq!(pristine.pages.get(id).unwrap().data()[0], 63);
    }
}
