//! Backup images: the backup database `B` plus media-recovery metadata.

use crate::error::BackupError;
use lob_pagestore::{Lsn, PageImage, StableStore};

/// A backup database `B`.
///
/// `start_lsn` is the media-recovery scan start point chosen when the
/// backup began: the crash-recovery log scan start point at that moment
/// (§1.2). Roll-forward from a restored image replays the log from here.
#[derive(Debug, Clone)]
pub struct BackupImage {
    /// Identifier of the backup run that produced this image.
    pub backup_id: u64,
    /// Media-recovery log scan start point.
    pub start_lsn: Lsn,
    /// LSN frontier when the backup completed. Point-in-time recovery from
    /// this image is sound only for targets at or after this LSN (the
    /// fuzzy sweep may have captured any state up to here; redo cannot
    /// roll *backwards*). `Lsn::NULL` until the engine completes the
    /// backup.
    pub end_lsn: Lsn,
    /// The copied pages.
    pub pages: PageImage,
    /// Whether the sweep ran to completion. Incomplete images cannot be
    /// restored from.
    pub complete: bool,
    /// Whether this image holds only pages changed since `base`.
    pub incremental: bool,
    /// For incremental images: the id of the backup they apply on top of.
    pub base: Option<u64>,
}

impl BackupImage {
    /// Total payload bytes (the backup's size — what the paper's high-speed
    /// sweep actually moves).
    pub fn payload_bytes(&self) -> u64 {
        self.pages.payload_bytes()
    }

    /// Number of pages captured.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Whether media recovery may seed `S` from this image: not an
    /// incomplete image, and not a bare incremental one (materialize it
    /// onto its base first with [`BackupImage::materialize`]).
    pub fn check_restorable(&self) -> Result<(), BackupError> {
        if !self.complete {
            return Err(BackupError::IncompleteImage {
                backup_id: self.backup_id,
            });
        }
        if self.incremental {
            return Err(BackupError::BadState(
                "cannot restore from a bare incremental image; materialize onto its base".into(),
            ));
        }
        Ok(())
    }

    /// Restore this image's pages into `S` (the first half of media
    /// recovery; the caller then rolls forward from `start_lsn`). Fails
    /// unless [`BackupImage::check_restorable`].
    pub fn restore_to(&self, store: &StableStore) -> Result<(), BackupError> {
        self.check_restorable()?;
        store.apply_image(&self.pages)?;
        Ok(())
    }

    /// Lay an incremental image over its base, producing a full restore
    /// point. The result's `start_lsn` is the *incremental* backup's start
    /// LSN (its sweep began later, so its log covers everything missing).
    pub fn materialize(base: &BackupImage, incr: &BackupImage) -> Result<BackupImage, BackupError> {
        if !base.complete {
            return Err(BackupError::IncompleteImage {
                backup_id: base.backup_id,
            });
        }
        if !incr.complete {
            return Err(BackupError::IncompleteImage {
                backup_id: incr.backup_id,
            });
        }
        if incr.base != Some(base.backup_id) {
            return Err(BackupError::BadState(format!(
                "incremental backup {} applies on base {:?}, not {}",
                incr.backup_id, incr.base, base.backup_id
            )));
        }
        let mut pages = base.pages.clone();
        pages.overlay(&incr.pages);
        Ok(BackupImage {
            backup_id: incr.backup_id,
            start_lsn: incr.start_lsn,
            end_lsn: incr.end_lsn,
            pages,
            complete: true,
            incremental: false,
            base: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use lob_pagestore::{Page, PageId, StoreConfig};

    fn img(id: u64, complete: bool, incremental: bool, base: Option<u64>) -> BackupImage {
        BackupImage {
            backup_id: id,
            start_lsn: Lsn(1),
            end_lsn: Lsn::NULL,
            pages: PageImage::new(),
            complete,
            incremental,
            base,
        }
    }

    #[test]
    fn incomplete_cannot_restore() {
        let store = StableStore::single(StoreConfig { page_size: 8 }, 2);
        let b = img(1, false, false, None);
        assert!(matches!(
            b.restore_to(&store),
            Err(BackupError::IncompleteImage { backup_id: 1 })
        ));
    }

    #[test]
    fn bare_incremental_cannot_restore() {
        let store = StableStore::single(StoreConfig { page_size: 8 }, 2);
        let b = img(2, true, true, Some(1));
        assert!(matches!(
            b.restore_to(&store),
            Err(BackupError::BadState(_))
        ));
    }

    #[test]
    fn restore_applies_pages() {
        let store = StableStore::single(StoreConfig { page_size: 8 }, 2);
        let mut b = img(1, true, false, None);
        b.pages.put(
            PageId::new(0, 1),
            Page::new(Lsn(5), Bytes::from(vec![7u8; 8])),
        );
        b.restore_to(&store).unwrap();
        assert_eq!(store.read_page(PageId::new(0, 1)).unwrap().lsn(), Lsn(5));
    }

    #[test]
    fn materialize_overlays_incremental() {
        let mut base = img(1, true, false, None);
        base.pages.put(
            PageId::new(0, 0),
            Page::new(Lsn(1), Bytes::from(vec![1u8; 8])),
        );
        base.pages.put(
            PageId::new(0, 1),
            Page::new(Lsn(1), Bytes::from(vec![1u8; 8])),
        );
        let mut incr = img(2, true, true, Some(1));
        incr.start_lsn = Lsn(10);
        incr.pages.put(
            PageId::new(0, 1),
            Page::new(Lsn(9), Bytes::from(vec![9u8; 8])),
        );
        let full = BackupImage::materialize(&base, &incr).unwrap();
        assert!(!full.incremental);
        assert_eq!(full.start_lsn, Lsn(10));
        assert_eq!(full.pages.get(PageId::new(0, 0)).unwrap().lsn(), Lsn(1));
        assert_eq!(full.pages.get(PageId::new(0, 1)).unwrap().lsn(), Lsn(9));
    }

    #[test]
    fn materialize_checks_lineage() {
        let base = img(1, true, false, None);
        let wrong = img(3, true, true, Some(99));
        assert!(BackupImage::materialize(&base, &wrong).is_err());
        let incomplete = img(4, false, true, Some(1));
        assert!(BackupImage::materialize(&base, &incomplete).is_err());
    }
}
