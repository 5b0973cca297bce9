//! # lob-harness — the experiment harness
//!
//! Everything the reproduction's experiments, integration tests, and
//! benches share:
//!
//! * [`shadow`] — [`ShadowOracle`]: a deterministic replica of the logged
//!   operation history providing ground truth. After any crash recovery or
//!   media recovery, the recovered stable database must byte-match the
//!   oracle's state at the surviving log prefix.
//! * [`workload`] — seeded random workload generators for each operation
//!   discipline.
//! * [`sim`] — the Figure 5 measurement: drive uniformly-positioned flushes
//!   through an `N`-step on-line backup and measure the Iw/oF frequency,
//!   for both general and tree operations, against the closed-form §5
//!   model.
//! * [`scenarios`] — the Figure 1 B-tree-split counterexample (naive fuzzy
//!   dump loses data; the paper's protocol does not).
//! * [`fault`] — [`FaultPlan`]: seeded planning on top of the engine's
//!   fault hook — count the I/O events of a run, then arm one crash, torn
//!   write, silent corruption, media failure, or damaged read at a chosen
//!   event index.
//! * [`drill`] — [`Drill`]: the one fault-drill loop. Build, prefill, base
//!   image, arm a plan, the [`Scenario`]'s drive, one settlement, one
//!   verification against the oracle and the reference, the witness. Each
//!   case is one row of the [`Report`]'s ledger. The scenario drives live
//!   beside it:
//!   - [`torture`] — the op loop with an optional on-line backup, and the
//!     interrupted restore;
//!   - [`parallel`] — one sweep worker thread per domain racing a writer;
//!   - [`instant`] — total media loss served through an instant-restore
//!     epoch, with mid-restore kills that re-enter the epoch, and
//!     [`verify_epoch_close`];
//!   - [`sessions`] — session threads with group commit beside a backup
//!     thread, and the [`VirtualScheduler`], a seeded deterministic
//!     interleaver of multi-session scripts.
//! * [`reference`] — the reference recovery: seed pages written one at a
//!   time, then the record-at-a-time `redo_scan` on a scratch store — the
//!   differential witness every recovery and restore a drill settles is
//!   byte-compared against. Production replays through the grouped body
//!   (`lob_recovery::parallel`), so each comparison pits two different
//!   replay bodies against each other.
//! * [`refgraph`] — [`ReferenceWriteGraph`]: the whole-graph write-graph
//!   construction (full Tarjan pass per insertion), the step-by-step
//!   differential witness for `lob_recovery::WriteGraph`.
//! * [`report`] — plain-text table formatting for the experiment binaries.

pub mod drill;
pub mod fault;
pub mod instant;
pub mod parallel;
pub mod reference;
pub mod refgraph;
pub mod report;
pub mod scenarios;
pub mod sessions;
pub mod shadow;
pub mod sim;
pub mod torture;
pub mod workload;

pub use drill::{Case, Counters, Divergence, Drill, OpLoop, Path, Report, Scenario};
pub use fault::{sample_indices, FaultKind, FaultPlan};
pub use instant::verify_epoch_close;
pub use parallel::combine_images;
pub use refgraph::ReferenceWriteGraph;
pub use report::Table;
pub use scenarios::{fig1_split_scenario, Fig1Outcome};
pub use sessions::{SessionStep, VirtualScheduler};
pub use shadow::ShadowOracle;
pub use sim::{run_fig5, Fig5Config, Fig5Result, SimDiscipline};
pub use workload::WorkloadGen;
