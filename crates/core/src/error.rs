//! Engine errors.

use lob_backup::BackupError;
use lob_cache::CacheError;
use lob_ops::OpError;
use lob_pagestore::StoreError;
use lob_recovery::{InstantError, RedoError, WriteGraphError};
use lob_wal::LogError;
use std::fmt;

/// Any failure surfaced by the engine.
#[derive(Debug)]
pub enum EngineError {
    /// Operation evaluation failed.
    Op(OpError),
    /// Cache failure (including WAL-protocol violations).
    Cache(CacheError),
    /// Stable store failure.
    Store(StoreError),
    /// Log failure.
    Log(LogError),
    /// Write-graph failure.
    Graph(WriteGraphError),
    /// Backup machinery failure.
    Backup(BackupError),
    /// Redo failure during recovery.
    Redo(RedoError),
    /// The operation violates the configured discipline or tracking scheme.
    Discipline(String),
    /// The page is quarantined — a bad read was detected and the page is out
    /// of service awaiting online repair. Other pages keep serving.
    Quarantined(lob_pagestore::PageId),
    /// Online repair exhausted every registered backup generation without
    /// finding a good copy of the page (or no generation is registered).
    /// The page stays quarantined; a full restore or a future generation
    /// can still bring it back. Other partitions are unaffected.
    Unrepairable(lob_pagestore::PageId),
    /// Instant restore exhausted every archived backup generation without
    /// restoring this segment. It stays `Failed` (other segments keep
    /// serving); a future archived generation can still bring it back.
    UnrestorableSegment(lob_pagestore::PartitionId),
    /// Internal invariant violation — a bug in the engine, surfaced loudly.
    Internal(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Op(e) => write!(f, "operation error: {e}"),
            EngineError::Cache(e) => write!(f, "cache error: {e}"),
            EngineError::Store(e) => write!(f, "store error: {e}"),
            EngineError::Log(e) => write!(f, "log error: {e}"),
            EngineError::Graph(e) => write!(f, "write-graph error: {e}"),
            EngineError::Backup(e) => write!(f, "backup error: {e}"),
            EngineError::Redo(e) => write!(f, "redo error: {e}"),
            EngineError::Discipline(m) => write!(f, "discipline violation: {m}"),
            EngineError::Quarantined(p) => {
                write!(f, "page {p} is quarantined awaiting online repair")
            }
            EngineError::Unrepairable(p) => write!(
                f,
                "page {p} is unrepairable: no registered backup generation holds a good copy"
            ),
            EngineError::UnrestorableSegment(p) => write!(
                f,
                "segment {p} is unrestorable: every archived backup generation exhausted"
            ),
            EngineError::Internal(m) => write!(f, "internal engine error: {m}"),
        }
    }
}

impl EngineError {
    /// Whether this error — at any nesting level — is an *injected crash*
    /// from the fault hook rather than a genuine failure. The torture
    /// harness uses this to distinguish "the planned crash point fired"
    /// (expected; proceed to recovery) from real bugs (propagate).
    pub fn is_injected_crash(&self) -> bool {
        matches!(
            self,
            EngineError::Store(StoreError::InjectedCrash)
                | EngineError::Cache(CacheError::Store(StoreError::InjectedCrash))
                | EngineError::Log(LogError::InjectedCrash)
                | EngineError::Backup(BackupError::InjectedCrash)
                | EngineError::Backup(BackupError::Store(StoreError::InjectedCrash))
                | EngineError::Redo(RedoError::Store(StoreError::InjectedCrash))
        )
    }
}

impl std::error::Error for EngineError {}

impl From<OpError> for EngineError {
    fn from(e: OpError) -> Self {
        EngineError::Op(e)
    }
}
impl From<CacheError> for EngineError {
    fn from(e: CacheError) -> Self {
        EngineError::Cache(e)
    }
}
impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> Self {
        EngineError::Store(e)
    }
}
impl From<LogError> for EngineError {
    fn from(e: LogError) -> Self {
        EngineError::Log(e)
    }
}
impl From<WriteGraphError> for EngineError {
    fn from(e: WriteGraphError) -> Self {
        EngineError::Graph(e)
    }
}
impl From<BackupError> for EngineError {
    fn from(e: BackupError) -> Self {
        EngineError::Backup(e)
    }
}
impl From<RedoError> for EngineError {
    fn from(e: RedoError) -> Self {
        EngineError::Redo(e)
    }
}
impl From<InstantError> for EngineError {
    fn from(e: InstantError) -> Self {
        match e {
            InstantError::Store(e) => EngineError::Store(e),
            InstantError::Backup(e) => EngineError::Backup(e),
            InstantError::Redo(e) => EngineError::Redo(e),
            InstantError::Unrestorable(p) => EngineError::UnrestorableSegment(p),
            InstantError::BadState(m) => EngineError::Discipline(m),
        }
    }
}
