//! # lob-core — the database engine
//!
//! `lob` ("logical-operation backup") is a from-scratch reproduction of
//! David Lomet's *"High Speed On-line Backup When Using Logical Log
//! Operations"* (SIGMOD 2000). This crate is the engine that wires the
//! substrates together:
//!
//! * a stable database `S` of partitioned pages (`lob-pagestore`);
//! * a write-ahead / media-recovery log (`lob-wal`);
//! * a cache manager with WAL-protocol enforcement (`lob-cache`);
//! * the Lomet–Tuttle redo-recovery framework — write graphs, LSN redo
//!   (`lob-recovery`);
//! * the paper's on-line backup protocol — progress tracking, backup
//!   latch, Iw/oF decisions (`lob-backup`).
//!
//! ## Quick start
//!
//! ```
//! use lob_core::{Discipline, Engine, EngineConfig};
//! use lob_ops::{LogicalOp, OpBody, PhysioOp};
//! use lob_pagestore::PageId;
//! use bytes::Bytes;
//!
//! // A single-partition database logging *tree* operations.
//! let mut engine = Engine::new(EngineConfig {
//!     discipline: Discipline::Tree,
//!     ..EngineConfig::small()
//! }).unwrap();
//!
//! // Insert a record (physiological), then split the page logically:
//! // MovRec logs only identifiers — no data values.
//! engine.execute(OpBody::Physio(PhysioOp::InsertRec {
//!     target: PageId::new(0, 0),
//!     key: Bytes::from_static(b"k"),
//!     val: Bytes::from_static(b"v"),
//! })).unwrap();
//! engine.execute(OpBody::Logical(LogicalOp::MovRec {
//!     old: PageId::new(0, 0),
//!     sep: Bytes::from_static(b"a"),
//!     new: PageId::new(0, 1),
//! })).unwrap();
//!
//! // Take an 8-step on-line backup while (in real use) updates continue.
//! let mut run = engine.begin_backup(8).unwrap();
//! while !engine.backup_step(&mut run).unwrap() {}
//! let image = engine.complete_backup(run).unwrap();
//!
//! // Lose the medium, restore from the backup, roll forward.
//! engine.store().fail_partition(lob_pagestore::PartitionId(0)).unwrap();
//! engine.media_recover(&image).unwrap();
//! ```
//!
//! ## Module map
//!
//! * [`service`] — [`EngineService`], the one engine core: operation
//!   execution, write-graph-ordered flushing with the §3.5 (general) and
//!   §4.2 (tree) Iw/oF decisions, crash and media recovery, on-line,
//!   incremental, offline, parallel and linked-flush backups, online
//!   repair and the media-log archive, the one heal policy every reading
//!   verb shares and the instant-restore epoch — each verb in one body,
//!   behind per-domain locks — and the [`Session`] handles threads drive
//!   it with.
//! * [`engine`] — [`Engine`], a one-session service (one cache shard, a
//!   closed gather window): its constructors and `Deref` to that core.
//! * [`config`] — [`EngineConfig`], [`Discipline`], [`Tracking`],
//!   [`BackupPolicy`], [`FlushPolicy`].
//! * [`error`] — [`EngineError`].
//! * [`stats`] — [`EngineStats`].

pub mod config;
pub mod engine;
pub mod error;
pub mod service;
pub mod stats;

pub use config::{
    BackupPolicy, CommitConfig, Discipline, EngineConfig, FlushPolicy, LogBacking, SweepConfig,
    Tracking,
};
pub use engine::{Engine, LinkedBackupRun};
pub use error::EngineError;
pub use service::{EngineService, Session};
pub use stats::EngineStats;

// Re-export the vocabulary types downstream users need.
pub use lob_backup::{
    BackupCatalog, BackupImage, BackupRun, DomainId, ParallelSweep, Region, RunConfig, WorkerReport,
};
pub use lob_ops::{LogicalOp, OpBody, OpClass, PhysioOp, RecPage, TreeForm};
pub use lob_pagestore::{
    CorruptionEntry, CorruptionReport, Lsn, Page, PageId, PartitionId, PartitionSpec,
};
pub use lob_recovery::{
    BackoffSchedule, GraphMode, InstantStats, RecoveryConfig, RedoOutcome, RepairReport,
    SegmentState,
};
