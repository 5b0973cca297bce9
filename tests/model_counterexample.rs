//! The Figure 1 counterexample, promoted to a named regression test.
//!
//! The model checker (with coordination disabled) discovers a minimal
//! schedule under which a fuzzy backup is silently unrecoverable; this
//! test replays that exact trace through the real engine and asserts
//! both halves of the verdict:
//!
//! - under `BackupPolicy::NaiveFuzzy`, media recovery from the completed
//!   image diverges from the shadow oracle (and crash recovery of `S`
//!   still succeeds — the corruption is invisible until the backup is
//!   actually needed, which is the paper's point);
//! - under `BackupPolicy::Protocol`, the byte-identical schedule
//!   recovers exactly.

use lob_model::{Action, Coordination, Counterexample, Explorer, Probe, Scenario};
use lob_pagestore::{Lsn, PageId};

/// The minimal trace the explorer reports for `Scenario::figure1()` with
/// coordination disabled. Pinned here so a regression in either the
/// engine or the explorer shows up as a diff against the paper's
/// scenario: run the split, copy the low extent (stale `new` — the ops
/// live only in cache, so the sweep still sees the pre-split page), flush
/// `old` (the graph drags `new`'s node in ahead of it), copy the high
/// extent (post-split `old`).
fn figure1_trace() -> Vec<Action> {
    let old = PageId::new(0, 2);
    vec![
        Action::Op,
        Action::Op,
        Action::Step,
        Action::Flush(old),
        Action::Step,
    ]
}

fn run_probes(
    coordination: Coordination,
    trace: &[Action],
) -> (Result<(), String>, Result<(), String>) {
    let explorer = Explorer::new(Scenario::figure1(), coordination);
    let (engine, oracle, image) = explorer.replay(trace).expect("trace replays");
    let image = image.expect("backup completes along this trace");
    engine.media_recover(&image).expect("media recovery runs");
    let media = oracle.verify_store(&engine, Lsn::MAX);

    let (engine, oracle, _) = explorer.replay(trace).expect("trace replays");
    engine.crash();
    engine.recover().expect("crash recovery runs");
    let crash = oracle.verify_store(&engine, Lsn::MAX);
    (media, crash)
}

#[test]
fn naive_fuzzy_backup_is_unrecoverable_on_figure1_trace() {
    let (media, crash) = run_probes(Coordination::Disabled, &figure1_trace());
    let detail = media.expect_err("media recovery must diverge under NaiveFuzzy");
    // The divergence is on a split page, not some unrelated breakage.
    assert!(
        detail.contains("mismatch"),
        "unexpected divergence report: {detail}"
    );
    // Crash recovery of S is still exact: flush-order enforcement for S
    // is independent of backup coordination, so the bug hides until the
    // backup image is restored.
    crash.expect("crash recovery must stay exact under NaiveFuzzy");
}

#[test]
fn protocol_recovers_exactly_on_the_same_trace() {
    let (media, crash) = run_probes(Coordination::Enforced, &figure1_trace());
    media.expect("media recovery must be exact under Protocol");
    crash.expect("crash recovery must be exact under Protocol");
}

#[test]
fn explorer_rediscovers_the_pinned_trace_as_minimal() {
    let report = Explorer::new(Scenario::figure1(), Coordination::Disabled)
        .run()
        .expect("exploration runs");
    let ce: &Counterexample = report
        .counterexamples
        .first()
        .expect("NaiveFuzzy must yield a counterexample");
    assert_eq!(
        ce.probe,
        Probe::MediaRecovery,
        "bug manifests only in B: {ce}"
    );
    assert_eq!(
        ce.trace,
        figure1_trace(),
        "minimal counterexample drifted from the pinned Figure 1 schedule: {ce}"
    );
}
