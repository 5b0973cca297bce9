//! Backup errors.

use lob_pagestore::{PageId, PartitionId, StoreError};
use std::fmt;

/// Errors from the backup machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackupError {
    /// Underlying store failure while copying.
    Store(StoreError),
    /// A page outside every order domain was involved.
    UnknownPage(PageId),
    /// A partition is not covered by the coordinator.
    UnknownPartition(PartitionId),
    /// Invalid run configuration (zero steps, empty domain, …).
    BadConfig(String),
    /// A run method was called out of sequence (e.g. `step` after
    /// completion).
    BadState(String),
    /// Restore was asked to use an incomplete backup image.
    IncompleteImage {
        /// The offending backup's id.
        backup_id: u64,
    },
    /// No backup with this id is registered in the generation catalog.
    UnknownBackup(u64),
    /// A page copy in a registered backup image no longer matches the
    /// checksum recorded at registration: the backup medium has rotted.
    /// Repair falls back to an older generation.
    CorruptImage {
        /// The generation holding the bad copy.
        backup_id: u64,
        /// The damaged page.
        page: PageId,
    },
    /// A registered backup image holds no copy of the requested page.
    MissingPage {
        /// The generation missing the page.
        backup_id: u64,
        /// The absent page.
        page: PageId,
    },
    /// A transient I/O error failed this image read attempt only; the
    /// stored copy is intact and a retry may succeed.
    TransientImage {
        /// The generation being read.
        backup_id: u64,
        /// The page being fetched.
        page: PageId,
    },
    /// The generation has no page-indexed media-log archive attached
    /// (instant restore and index-assisted repair need one).
    NoArchive(u64),
    /// A sorted record run in a generation's media-log archive no longer
    /// matches the checksum recorded at indexing time: the archive medium
    /// has rotted. Instant restore falls back to an older generation,
    /// exactly like [`BackupError::CorruptImage`].
    CorruptArchive {
        /// The generation holding the bad run.
        backup_id: u64,
        /// The run's key page (`None` for the control-record run).
        page: Option<PageId>,
    },
    /// A transient I/O error failed this archive read attempt only; the
    /// stored run is intact and a retry may succeed.
    TransientArchive {
        /// The generation being read.
        backup_id: u64,
    },
    /// The fault hook simulated a process crash during a backup copy.
    InjectedCrash,
}

impl BackupError {
    /// Whether this failed one read attempt only (the stored copy or run
    /// is intact and a retry may succeed).
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            BackupError::TransientImage { .. } | BackupError::TransientArchive { .. }
        )
    }
}

impl fmt::Display for BackupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackupError::Store(e) => write!(f, "store error during backup: {e}"),
            BackupError::UnknownPage(p) => write!(f, "page {p} not in any backup order domain"),
            BackupError::UnknownPartition(p) => write!(f, "partition {p} not covered"),
            BackupError::BadConfig(m) => write!(f, "bad backup configuration: {m}"),
            BackupError::BadState(m) => write!(f, "backup run misused: {m}"),
            BackupError::IncompleteImage { backup_id } => {
                write!(f, "backup {backup_id} is incomplete and cannot restore")
            }
            BackupError::UnknownBackup(id) => {
                write!(f, "backup {id} is not registered in the generation catalog")
            }
            BackupError::CorruptImage { backup_id, page } => {
                write!(
                    f,
                    "backup {backup_id}: checksum mismatch reading image copy of {page}"
                )
            }
            BackupError::MissingPage { backup_id, page } => {
                write!(f, "backup {backup_id} holds no copy of {page}")
            }
            BackupError::TransientImage { backup_id, page } => {
                write!(
                    f,
                    "backup {backup_id}: transient I/O error reading image copy of {page}"
                )
            }
            BackupError::NoArchive(id) => {
                write!(f, "backup {id} has no page-indexed media-log archive")
            }
            BackupError::CorruptArchive { backup_id, page } => match page {
                Some(p) => write!(
                    f,
                    "backup {backup_id}: checksum mismatch reading archive run of {p}"
                ),
                None => write!(
                    f,
                    "backup {backup_id}: checksum mismatch reading archive control run"
                ),
            },
            BackupError::TransientArchive { backup_id } => {
                write!(
                    f,
                    "backup {backup_id}: transient I/O error reading archive run"
                )
            }
            BackupError::InjectedCrash => {
                write!(f, "injected crash during backup copy (fault hook)")
            }
        }
    }
}

impl std::error::Error for BackupError {}

impl From<StoreError> for BackupError {
    fn from(e: StoreError) -> Self {
        BackupError::Store(e)
    }
}
