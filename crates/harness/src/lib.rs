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
//!   dump loses data; the paper's protocol does not) and randomized
//!   end-to-end sessions with backups, crashes, and media failures.
//! * [`fault`] — [`FaultPlan`]: seeded planning on top of the engine's
//!   fault hook — count the I/O events of a run, then arm one crash, torn
//!   write, silent corruption, or media failure at a chosen event index.
//! * [`instant`] — [`InstantDrillRunner`]: the restore-under-load drill —
//!   fail every partition, enter an instant-restore epoch, and interleave
//!   verified foreground reads and writes with background sweep steps
//!   under an armed fault plan, including mid-restore kills that re-enter
//!   restore through [`lob_core::Engine::recover_instant`].
//! * [`sessions`] — [`VirtualScheduler`]: a seeded deterministic
//!   interleaver of multi-session scripts over the concurrent
//!   [`lob_core::EngineService`]; and [`SessionDrillRunner`]: threaded
//!   session races with live backup sweeps, optional crash injection
//!   inside the group-commit force, the run's ordering witness, and
//!   LSN-merged shadow-oracle verification.
//! * [`torture`] — [`TortureRunner`]: the crash-point torture harness —
//!   re-run a seeded workload crashing at every (or a sampled set of) I/O
//!   event(s), recover, and require byte-equality with the shadow oracle.
//! * [`reference`] — the reference recovery: seed pages written one at a
//!   time, then the record-at-a-time `redo_scan` on a scratch store — the
//!   differential witness every settled crash, media and instant recovery
//!   is byte-compared against. Production replays through the grouped
//!   body (`lob_recovery::parallel`), so each comparison pits two
//!   different replay bodies against each other.
//! * [`refgraph`] — [`ReferenceWriteGraph`]: the whole-graph write-graph
//!   construction (full Tarjan pass per insertion), the step-by-step
//!   differential witness for `lob_recovery::WriteGraph`.
//! * [`report`] — plain-text table formatting for the experiment binaries.

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

pub use fault::{sample_indices, FaultKind, FaultPlan};
pub use instant::{
    verify_epoch_close, InstantCaseResult, InstantDrillConfig, InstantDrillReport,
    InstantDrillRunner, InstantPath,
};
pub use parallel::{
    combine_images, DrillPath, ParallelCaseResult, ParallelDrillConfig, ParallelDrillReport,
    ParallelDrillRunner,
};
pub use refgraph::ReferenceWriteGraph;
pub use report::Table;
pub use scenarios::{
    fig1_split_scenario, random_session, Fig1Outcome, SessionConfig, SessionReport,
};
pub use sessions::{
    SessionDrillConfig, SessionDrillReport, SessionDrillRunner, SessionStep, VirtualScheduler,
};
pub use shadow::ShadowOracle;
pub use sim::{run_fig5, Fig5Config, Fig5Result, SimDiscipline};
pub use torture::{
    CaseResult, RecoveryPath, TortureConfig, TortureReport, TortureRunner, TortureWorkload,
};
pub use workload::WorkloadGen;
