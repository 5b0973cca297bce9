//! Instant restore under fire: the restore-under-load drill at CI scale.
//!
//! The engine must keep serving verified reads and writes *during* media
//! recovery: every partition fails, an instant-restore epoch starts, and
//! foreground traffic interleaves with background sweep steps while armed
//! faults kill the process mid-restore or storm the archive with transient
//! read errors. Every case — including mid-restore kills that re-enter
//! through `recover_instant` — must end byte-identical to the shadow
//! oracle, and every epoch that closes is byte-compared against a
//! sequential reference restore (`lob_harness::verify_epoch_close`). The
//! unit drills in `lob_harness::instant` cover the same paths at
//! debug-friendly sizes.

use lob_harness::{FaultKind, InstantDrillConfig, InstantDrillRunner, InstantPath};

/// CI-scale drill config: more pages and traffic than the unit drills so
/// the sweep has real work racing the foreground, still seconds in
/// release.
fn ci_config(seed: u64) -> InstantDrillConfig {
    InstantDrillConfig {
        seed,
        partitions: 6,
        pages_per_partition: 32,
        page_size: 64,
        tail_ops: 96,
        foreground_ops: 64,
        post_ops: 16,
    }
}

#[test]
fn restore_under_load_drill_has_no_divergences() {
    let runner = InstantDrillRunner::new(ci_config(0x1257));
    let report = runner.drill(16).unwrap();
    assert!(
        report.divergences.is_empty(),
        "instant-restore drill: {} divergence(s):\n{}",
        report.divergences.len(),
        report.divergences.join("\n")
    );
    assert!(report.cases >= 10, "drill ran only {} cases", report.cases);
    assert!(
        report.kills > 0,
        "no case killed the process mid-restore — the reboot re-entry path went unexercised"
    );
    assert!(
        report.completions > 0,
        "no case rode its faults out to epoch completion"
    );
}

#[test]
fn fault_free_epoch_serves_reads_and_writes_while_degraded() {
    let runner = InstantDrillRunner::new(ci_config(7));
    let case = runner.run_case(FaultKind::CountOnly).unwrap();
    assert_eq!(case.path, InstantPath::Completed);
    assert!(!case.fired);
    assert_eq!(case.reboots, 0);
    assert!(case.foreground_reads > 0, "no reads served during restore");
    assert!(
        case.foreground_writes > 0,
        "no writes served during restore"
    );
    assert!(
        case.on_demand + case.swept >= u64::from(runner.config().partitions),
        "only {} + {} segments restored of {}",
        case.on_demand,
        case.swept,
        runner.config().partitions
    );
}

/// A mid-restore kill at the commit-point-adjacent event: the segment
/// install. The case must reboot through `recover_instant`, finish the
/// epoch, and byte-match the oracle (run_case verifies internally; a
/// divergence surfaces as Err).
#[test]
fn kill_at_a_segment_install_reboots_and_converges() {
    let runner = InstantDrillRunner::new(ci_config(0xC0FFEE));
    let case = runner
        .run_case(FaultKind::CrashAtEvent(
            lob_pagestore::IoEvent::SegmentInstall,
            1,
        ))
        .unwrap();
    assert!(case.fired, "the install kill never fired");
    assert_eq!(case.path, InstantPath::Killed);
    assert!(case.reboots >= 1, "the kill must force a reboot re-entry");
}

/// Seeded determinism: the same drill twice must observe the same event
/// space and fire the same faults — the property that makes every
/// divergence reproducible from its seed.
#[test]
fn drill_is_reproducible_per_seed() {
    let a = InstantDrillRunner::new(ci_config(99)).drill(6).unwrap();
    let b = InstantDrillRunner::new(ci_config(99)).drill(6).unwrap();
    assert_eq!(a.events_total, b.events_total);
    assert_eq!(a.crash_points, b.crash_points);
    assert_eq!(a.faults_fired, b.faults_fired);
    assert_eq!(a.kills, b.kills);
    assert_eq!(a.completions, b.completions);
}
