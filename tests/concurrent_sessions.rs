//! Multi-session races over the concurrent [`EngineService`] front-end
//! (DESIGN.md §5.14).
//!
//! Three layers of evidence, all on the same drill machinery
//! ([`lob_harness::sessions`]):
//!
//! * **Race grid** — sessions × partitions × [`FlushPolicy`] cells, each
//!   run threaded under its own durability-order witness, a live domain-0
//!   backup sweep racing the writers, and the surviving store
//!   byte-verified against the sequential shadow oracle (per-session logs
//!   merged in LSN order).
//! * **Crash-during-group-commit torture** — a crash injected at the
//!   `k`-th `LogForce` consult, i.e. inside the group leader's force
//!   while followers are parked on the completion condvar. Every armed
//!   point must recover to exactly the durable prefix and verify
//!   byte-for-byte.
//! * **Deterministic replay** — the seeded [`VirtualScheduler`]
//!   interleaves the same scripts identically from the same seed, so any
//!   grid cell's schedule can be pinned down and replayed.

use lob_core::FlushPolicy;
use lob_harness::{SessionDrillConfig, SessionDrillRunner};

#[test]
fn race_grid_under_armed_witnesses() {
    let mut cells = 0u32;
    for &sessions in &[2usize, 4] {
        for &partitions in &[1u32, 2, 4] {
            for policy in [FlushPolicy::Exact, FlushPolicy::Group] {
                let mut cfg = SessionDrillConfig::quick(sessions, partitions, 0xA0 + cells as u64);
                cfg.flush_policy = policy;
                let report = SessionDrillRunner::new(cfg).run().unwrap_or_else(|e| {
                    panic!(
                        "cell (sessions={sessions}, partitions={partitions}, \
                             {policy:?}) failed: {e}"
                    )
                });
                assert_eq!(
                    report.ops_executed,
                    (sessions * 64) as u64,
                    "cell (sessions={sessions}, partitions={partitions}, {policy:?})"
                );
                assert!(!report.injected_crash);
                assert!(
                    report.witness.events() > 0,
                    "witness observed nothing — instrumentation missing?"
                );
                assert!(
                    report.backups_completed >= 1,
                    "the live sweep should complete at least one round"
                );
                cells += 1;
            }
        }
    }
    assert_eq!(cells, 12);
}

#[test]
fn group_commit_batches_forces_across_sessions() {
    // Same work, group window closed vs open: the open window must not
    // change correctness (both cells verify against the oracle) and must
    // not *increase* the number of device forces.
    let run = |delay: u64, count: u32| {
        let mut cfg = SessionDrillConfig::quick(4, 4, 0x6C);
        cfg.group_commit_delay_micros = delay;
        cfg.group_commit_count = count;
        cfg.sweep_rounds = 0;
        SessionDrillRunner::new(cfg).run().unwrap()
    };
    let solo = run(0, 1);
    let grouped = run(300, 4);
    assert_eq!(solo.ops_executed, grouped.ops_executed);
    assert!(
        grouped.forces <= solo.forces,
        "grouping must not add forces: {} (grouped) vs {} (solo)",
        grouped.forces,
        solo.forces
    );
}

#[test]
fn crash_during_group_commit_recovers_and_verifies() {
    let mut fired = 0u32;
    // Crash at the k-th LogForce consult — early forces land inside the
    // first group commits (followers parked on the completion condvar),
    // later ones inside flushes and sweep begin/complete forces. Points
    // beyond the run's force count simply never fire; the drill then
    // completes and verifies clean, which is also asserted.
    for &k in &[0u64, 1, 2, 4, 8, 16, 64] {
        let mut cfg = SessionDrillConfig::quick(3, 3, 0xC0DE ^ k);
        cfg.crash_at_force = Some(k);
        let report = SessionDrillRunner::new(cfg)
            .run()
            .unwrap_or_else(|e| panic!("crash point {k} failed: {e}"));
        if report.injected_crash {
            fired += 1;
        }
    }
    assert!(
        fired >= 4,
        "expected most armed crash points to fire, got {fired}/7"
    );
}

#[test]
fn torture_arm_holds_under_both_flush_policies() {
    for policy in [FlushPolicy::Exact, FlushPolicy::Group] {
        let mut cfg = SessionDrillConfig::quick(2, 2, 0xF1);
        cfg.flush_policy = policy;
        cfg.crash_at_force = Some(5);
        let report = SessionDrillRunner::new(cfg)
            .run()
            .unwrap_or_else(|e| panic!("{policy:?} torture failed: {e}"));
        assert!(
            report.injected_crash,
            "{policy:?}: crash point 5 should fire"
        );
    }
}
