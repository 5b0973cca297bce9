//! # lob-pagestore — simulated stable storage
//!
//! This crate models the *stable database* `S` of Lomet's SIGMOD 2000 paper
//! "High Speed On-line Backup When Using Logical Log Operations": a set of
//! disjoint **partitions**, each an array of fixed-size **pages** addressed by
//! [`PageId`]. It provides exactly the properties the backup protocol relies
//! on and nothing more:
//!
//! * **Atomic page writes** — a page write either happens entirely or not at
//!   all (the paper assumes I/O page atomicity; see §1.2).
//! * **A physical layout** from which a *backup order* can be derived — the
//!   index of a page within its partition is its physical position, so a
//!   sweep in index order models "copying pages in a convenient order, e.g.,
//!   based on physical location of the data".
//! * **Concurrent reads during writes** — the on-line backup process reads
//!   pages directly from `S` while the cache manager flushes to it, with
//!   conflicts resolved "at the disk arm" (here: a per-partition lock held
//!   only for the duration of one page transfer).
//! * **Media-failure injection** — whole partitions or page ranges can be
//!   failed, after which reads return [`StoreError::MediaFailure`] until the
//!   range is restored from a backup image.
//!
//! The crate also defines [`Lsn`] (log sequence numbers). LSNs conceptually
//! belong to the log, but pages carry the LSN of the last operation applied
//! to them (the *pageLSN* of LSN-based redo, paper §2.2), so the type lives
//! here at the base of the crate graph.
//!
//! Module map:
//!
//! * [`lsn`] — [`Lsn`] newtype.
//! * [`page`] — [`Page`]: payload bytes + pageLSN + checksum.
//! * [`id`] — [`PartitionId`], [`PageId`], and [`PagePos`] (position of a
//!   page in the backup order).
//! * [`store`] — [`StableStore`]: the stable database `S`.
//! * [`image`] — [`PageImage`]: a loose bag of page copies, the raw material
//!   of a backup `B`.
//! * [`stats`] — I/O accounting shared by stores.
//! * [`fault`] — deterministic fault injection: the [`FaultHook`] consulted
//!   by every I/O site in the system.
//! * [`witness`] — the case-scoped runtime ordering witness, the dynamic
//!   twin of `lob-lint`'s durability pass (compiled under
//!   `cfg(any(test, feature = "witness"))`, no-op stubs otherwise).

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

pub mod fault;
pub mod id;
pub mod image;
pub mod lsn;
pub mod page;
pub mod stats;
pub mod store;
pub mod witness;

pub use fault::{FaultHook, FaultVerdict, IoEvent};
pub use id::{PageId, PagePos, PartitionId};
pub use image::PageImage;
pub use lsn::Lsn;
pub use page::Page;
pub use stats::IoStats;
pub use store::{
    CorruptionEntry, CorruptionReport, PartitionSpec, StableStore, StoreConfig, StoreError,
};
