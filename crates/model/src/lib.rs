//! `lob-model`: bounded exhaustive checking of the on-line backup protocol.
//!
//! The torture harness (`lob-harness`) *samples* crash points along one
//! schedule; this crate *enumerates* schedules. A [`scenario::Scenario`]
//! fixes a miniature instance — at most 4 pages, at most 3 scripted
//! logical operations, one backup sweep — and the [`explorer::Explorer`]
//! drives a real [`lob_core::Engine`] through **every** interleaving of
//!
//! - applying the next scripted operation,
//! - flushing a dirty page (write-graph ordered),
//! - an identity write `W_IP(X, log(X))` installing without flushing,
//! - advancing the backup cursor by one step,
//! - truncating the log,
//!
//! deduplicating exactly-equal states and pruning commuting flush pairs
//! (a sound partial-order reduction, see DESIGN.md §5.7). At every
//! reached state it runs two *probes* on fresh replays: a crash followed
//! by real redo recovery, and — once the sweep has completed — a media
//! failure followed by real media recovery from the swept image. Each
//! probe byte-compares the recovered stable database against the
//! [`lob_harness::ShadowOracle`]; a mismatch is reported as a minimal
//! counterexample trace (breadth-first search finds shortest traces
//! first).
//!
//! The [`scenario::Coordination`] toggle is the falsifiability switch: with
//! coordination [`scenario::Coordination::Disabled`] the engine runs the
//! conventional uncoordinated fuzzy dump (`BackupPolicy::NaiveFuzzy`) and
//! the explorer must *rediscover* the paper's Figure 1 B-tree-split
//! unrecoverability as a counterexample; with
//! [`scenario::Coordination::Enforced`] it must exhaust the bounded space
//! and find none.
//!
//! The [`sessions`] module extends the same treatment to the concurrent
//! [`lob_core::EngineService`] front-end: every interleaving of two
//! sessions in disjoint backup domains — operations, group commits,
//! flushes, and a live sweep — is enumerated and crash-probed against the
//! oracle (DESIGN.md §5.14).

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

pub mod explorer;
pub mod scenario;
pub mod sessions;

pub use explorer::{Action, Counterexample, ExploreReport, Explorer, ModelError, Probe};
pub use scenario::{Coordination, Scenario};
pub use sessions::{explore_two_sessions, SessionAction, TwoSessionReport, TwoSessionScenario};

/// Committed floor on the number of distinct states the Figure 1 scenario
/// explores under [`Coordination::Enforced`]. CI fails if a code change
/// silently shrinks the explored space below this (e.g. an action that
/// stopped being enabled, or an over-eager reduction): a smaller space
/// means the "zero counterexamples" verdict quietly weakened. Measured:
/// exactly 616 states, stable across releases, so the floor now pins the
/// full count — every reachable state is also probed through the parallel
/// replay scheduler ([`Probe::ParallelRecovery`]).
pub const FIGURE1_STATE_FLOOR: usize = 616;

/// Committed floor on the number of distinct states the tiny two-session
/// service instance explores ([`TwoSessionScenario::tiny`]). Same contract
/// as [`FIGURE1_STATE_FLOOR`]: a shrink below this means an interleaving
/// class silently stopped being enumerated. Measured: exactly 2795 states,
/// each one crash-probed through real service recovery.
pub const TWO_SESSION_STATE_FLOOR: usize = 2795;
