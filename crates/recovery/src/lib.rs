//! # lob-recovery — the redo recovery framework
//!
//! This crate implements the substrate the backup paper builds on: the redo
//! recovery theory of Lomet & Tuttle ("Redo recovery from system crashes",
//! VLDB 1995; "Logical logging to extend recovery to new domains", SIGMOD
//! 1999) as summarized in §2 of the backup paper.
//!
//! The three key elements (paper §2.1):
//!
//! 1. an **installation graph** ([`install`]) prescribing the order in which
//!    operation effects must be placed into the stable database — nodes are
//!    logged operations, edges are *read-write* conflicts (write-write order
//!    is implicit under LSN-based recovery; write-read conflicts are *not*
//!    edges);
//! 2. a **write graph** ([`writegraph`]) translating installation order on
//!    operations into flush order on updated objects. Two variants are
//!    provided, selected by [`GraphMode`]:
//!    * [`GraphMode::Intersecting`] — the paper's `W`: operations with
//!      intersecting write sets share a node, `vars(n) = Writes(n)`, and
//!      atomic flush sets grow monotonically (the §2.4 "highly
//!      unsatisfactory" behaviour, reproduced for the ablation experiment);
//!    * [`GraphMode::Refined`] — the paper's `rW`: blind writes remove their
//!      target from the previous holder's `vars` (the old value becomes
//!      *unexposed*), with read-write edges from every reader of the old
//!      value to the blind writer's node preserving recoverability. This is
//!      what makes *cache-manager identity writes* (`W_IP`) and therefore
//!      *installing without flushing* (Iw/oF, §3.2) possible;
//! 3. a **redo test** ([`redo`]): LSN-based — replay a logged write to a
//!    page iff the page's LSN is below the record's LSN. The test is
//!    deliberately crude (extra replays are harmless) and recovery proceeds
//!    in a single forward scan.
//!
//! Module map:
//!
//! * [`writegraph`] — [`WriteGraph`]: incremental construction, flush
//!   plans, node install/flush lifecycle, invariant checking.
//! * [`install`] — explicit installation graph and prefix checking, used by
//!   the property tests to validate that every flush schedule the write
//!   graph permits installs operations in installation order.
//! * [`Replayable`] — what replay reads of one record, implemented by a
//!   decoded [`lob_wal::LogRecord`] and by a [`lob_wal::FrameView`] read in
//!   place, so every replay body is written once for both.
//! * [`redo`] — the record-at-a-time redo pass [`redo_scan`]: the
//!   reference every production replay is byte-compared against.
//! * [`repair`] — dependency closures, the per-generation regeneration
//!   step ([`regenerate`]) online repair and instant restore share, and a
//!   deterministic retry schedule for transient I/O.
//! * [`parallel`] — the one production replay body (grouped tables,
//!   store-backed or scratch) and a write-graph-aware scheduler that
//!   partitions the log suffix into page-disjoint replay units (union-find
//!   over touched pages) replaying on concurrent workers, with batched
//!   group install into the stable store.
//! * [`instant`] — instant restore: partitions become restore segments
//!   (`Failed → Restoring → Restored`) fed by a generation's page-indexed
//!   media-log archive; a background sweep restores them in order while a
//!   priority queue gives foreground reads and writes on-demand segment
//!   restore, so the store serves *during* media recovery.

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

mod fxhash;
pub mod install;
pub mod instant;
pub mod parallel;
pub mod redo;
pub mod repair;
mod replayable;
pub mod writegraph;

pub use install::InstallGraph;
pub use instant::{InstantError, InstantRestore, InstantStats, SegmentState};
pub use parallel::{
    parallel_install_image, parallel_install_partition, parallel_redo_scan, RecoveryConfig,
    ReplayPlan, ReplayUnit,
};
pub use redo::{redo_scan, RedoError, RedoOutcome, RedoTarget, StoreRedoTarget};
pub use repair::{
    dependency_closure, records_for_closure, regenerate, replay_closure, BackoffSchedule,
    RepairReport,
};
pub use replayable::Replayable;
pub use writegraph::{GraphMode, NodeId, WriteGraph, WriteGraphError};
