//! # lob-backup — high-speed on-line backup for logical log operations
//!
//! This crate is the reproduction of the paper's contribution (§3–§4): an
//! on-line backup that copies pages from the stable database `S` to a backup
//! `B` at full speed, bypassing the cache manager, while *keeping `B`
//! recoverable even though logical log operations impose flush-order
//! dependencies*.
//!
//! The pieces, mapped to the paper:
//!
//! * [`order::BackupOrder`] — the backup order `#X` derived from physical
//!   page positions (§3.4 "Backup Order"). An order *domain* covers one or
//!   more partitions swept as a sequence; independent domains are backed up
//!   in parallel with independent progress tracking.
//! * [`tracker::ProgressTracker`] — the `D`/`P` cursors and the **backup
//!   latch** (§3.4 "Tracking Backup Progress", "Synchronization"): the cache
//!   manager holds the latch in share mode across a flush; the backup
//!   process takes it exclusively to advance `D` and `P`. Classification:
//!   `Done` (`#X < D`), `Doubt` (`D ≤ #X < P`), `Pend` (`#X ≥ P`).
//! * [`meta::SuccessorTable`] — per-object successor tracking for tree
//!   operations (§4.2): transitive `MAX(X)`/`MIN(X)` over `S(X)` and the
//!   incrementally maintained `violation(X)` flag.
//! * [`decide`] — the Iw/oF decision rules: §3.5 for general operations
//!   (log unless `Pend(X)`), §4.2 for tree operations (log only when
//!   `¬Pend(X)`, `¬Done(S(X))`, and the † ordering property is violated).
//! * [`coordinator::BackupCoordinator`] — what the engine consults when
//!   flushing: latches domains, classifies pages, applies the decision rule,
//!   counts decisions, and tracks changed pages for incremental backups.
//! * [`run::BackupRun`] — the sweep driver: an `N`-step copy of a domain
//!   from `S` into a [`image::BackupImage`], advancing the tracker between
//!   steps exactly as §3.4 prescribes (including the degenerate 1-step
//!   backup where only "backup is in progress" is known).
//! * [`parallel::ParallelSweep`] — the threaded executor for the
//!   per-partition scheme: one sweep worker per domain, batched page
//!   copies ([`run::BackupRun::step_batch`]), per-domain fault isolation.
//! * [`image::BackupImage`] — the backup `B` plus its media-recovery
//!   metadata (`start_lsn`, completeness), with full and incremental
//!   restore.
//! * [`catalog::BackupCatalog`] — the generation catalog online repair
//!   draws from: registered images newest-last with per-page checksums,
//!   checksum-verified page fetches, and fallback across generations when
//!   the newest copy has rotted.
//!
//! What this crate deliberately does **not** do: logging identity writes and
//! flushing pages. Those belong to the engine (`lob-core`), which owns the
//! log and the cache; the coordinator only *tells* it which objects need
//! Iw/oF.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::indexing_slicing
    )
)]

pub mod archive;
pub mod catalog;
pub mod coordinator;
pub mod decide;
pub mod error;
pub mod image;
pub mod meta;
pub mod order;
pub mod parallel;
pub mod run;
pub mod tracker;

pub use archive::{merge_runs, LogArchive};
pub use catalog::BackupCatalog;
pub use coordinator::{BackupCoordinator, CoordinatorStats, DomainId};
pub use decide::{needs_iwof_general, needs_iwof_tree};
pub use error::BackupError;
pub use image::BackupImage;
pub use meta::{SuccMeta, SuccessorTable};
pub use order::BackupOrder;
pub use parallel::{ParallelSweep, WorkerReport};
pub use run::{BackupRun, RunConfig};
pub use tracker::{ProgressTracker, Region, TrackerGuard};
