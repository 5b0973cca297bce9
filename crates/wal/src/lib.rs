//! # lob-wal — the write-ahead / media recovery log
//!
//! The log is the second half of media recovery (paper §1): the backup `B`
//! captures a fuzzy state of the stable database, and the **media recovery
//! log** rolls `B` forward to the current state. This crate provides:
//!
//! * [`LogRecord`] / [`RecordBody`] — one record per logged operation, plus
//!   backup begin/end control records;
//! * [`codec`] — a compact hand-rolled binary encoding, and
//!   [`FrameView`], one parser that validates a frame in place so replay
//!   decodes only the records it re-evaluates. Log *volume* is the
//!   paper's central economy argument ("logging an identifier ... is a great
//!   saving", §1.1), so the encoding is byte-exact and measured, not
//!   serde-generic;
//! * [`LogManager`] — append/force/scan/truncate with the semantics the
//!   protocol needs:
//!   * appended records are **volatile** until [`LogManager::force`] — a
//!     crash ([`LogManager::crash`]) discards the unforced tail, which is
//!     how tests verify the engine obeys the WAL protocol;
//!   * a **media barrier** pins records an active or completed backup still
//!     needs: truncation never discards past the barrier (the media
//!     recovery log "must include all operations needed to bring objects
//!     up-to-date", §1.2);
//! * [`LogStats`] — per-operation-label record and byte counts, the raw data
//!   behind the `tab_logging_economy` and `tab_steps_sweep` experiments.
//!
//! The crate is storage-agnostic: [`MemLogStore`] keeps frames in memory
//! (used by simulations), [`FileLogStore`] appends frames to a real file
//! with checksummed framing and torn-tail detection.

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

pub mod codec;
pub mod group;
pub mod manager;
pub mod record;
pub mod stats;
pub mod store;

pub use codec::{
    decode_record, decode_record_shared, encode_record, AsFrame, CodecError, FrameView,
};
pub use group::{Committer, GatherEnds, GroupCommitLog};
pub use manager::{LogError, LogManager, ScanFrames};
pub use record::{LogRecord, RecordBody, RecordKind};
pub use stats::LogStats;
pub use store::{BatchAppend, FileLogStore, LogStore, MemLogStore};
