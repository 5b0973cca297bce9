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

use lob_harness::{Drill, FaultKind, Path, Report, Scenario};
use lob_pagestore::IoEvent;

/// CI-scale drill: more pages and traffic than the unit drills so the
/// sweep has real work racing the foreground, still seconds in release.
fn ci_drill(seed: u64) -> Drill {
    Drill {
        scenario: Scenario::Degraded {
            tail_ops: 96,
            post_ops: 16,
        },
        partitions: 6,
        pages: 32,
        prefill: 32,
        page_size: 64,
        ops: 64,
        ..Drill::instant(seed)
    }
}

#[test]
fn restore_under_load_drill_has_no_divergences() {
    let drill = ci_drill(0x1257);
    let mut report = drill
        .sweep(&[FaultKind::CrashAt, FaultKind::TransientReadAt], 16)
        .unwrap();
    report
        .cases
        .push(drill.case(FaultKind::CrashAtEvent(IoEvent::SegmentInstall, 1)));
    report
        .cases
        .push(drill.case(FaultKind::CrashAtEvent(IoEvent::ArchiveRead, 2)));
    let divergences = report.divergences();
    assert!(
        divergences.is_empty(),
        "instant-restore drill: {} divergence(s):\n{}",
        divergences.len(),
        divergences.join("\n")
    );
    assert!(
        report.cases.len() >= 10,
        "drill ran only {} cases",
        report.cases.len()
    );
    assert!(
        report.count(Path::Crash) > 0,
        "no case killed the process mid-restore — the reboot re-entry path went unexercised"
    );
    assert!(
        report.count(Path::Clean) > 0,
        "no case rode its faults out to epoch completion"
    );
}

#[test]
fn fault_free_epoch_serves_reads_and_writes_while_degraded() {
    let drill = ci_drill(7);
    let case = drill.case(FaultKind::CountOnly);
    let s = case.counters.stats;
    assert_eq!(case.path, Ok(Path::Clean));
    assert!(case.fired.is_none());
    assert_eq!(s.instant_reboots, 0);
    assert!(case.counters.reads > 0, "no reads served during restore");
    // Beyond the 16 writes after the epoch.
    assert!(s.ops_executed > 16, "no writes served during restore");
    assert!(
        s.instant_on_demand + s.instant_swept >= u64::from(drill.partitions),
        "only {} + {} segments restored of {}",
        s.instant_on_demand,
        s.instant_swept,
        drill.partitions
    );
}

/// A mid-restore kill at the commit-point-adjacent event: the segment
/// install. The case must reboot through `recover_instant`, finish the
/// epoch, and byte-match the oracle (a divergence is the case's path).
#[test]
fn kill_at_a_segment_install_reboots_and_converges() {
    let case = ci_drill(0xC0FFEE).case(FaultKind::CrashAtEvent(IoEvent::SegmentInstall, 1));
    assert!(case.fired.is_some(), "the install kill never fired");
    assert_eq!(case.path, Ok(Path::Crash));
    assert!(
        case.counters.stats.instant_reboots >= 1,
        "the kill must force a reboot re-entry"
    );
}

/// Seeded determinism on the whole ledger: the same drill twice — a
/// sampled sweep plus the two targeted kills — must observe the same event
/// space and settle every case the same way, the property that makes every
/// divergence reproducible from its row.
#[test]
fn drill_is_reproducible_per_seed() {
    let drill = ci_drill(99);
    let run = || -> Report {
        let mut report = drill
            .sweep(&[FaultKind::CrashAt, FaultKind::TransientReadAt], 6)
            .unwrap();
        report.cases.extend(
            drill
                .cases([
                    FaultKind::CrashAtEvent(IoEvent::SegmentInstall, 1),
                    FaultKind::CrashAtEvent(IoEvent::ArchiveRead, 2),
                ])
                .cases,
        );
        report
    };
    let (a, b) = (run(), run());
    let divergences = a.divergences();
    assert!(
        divergences.is_empty(),
        "instant drill: {} divergence(s):\n{}",
        divergences.len(),
        divergences.join("\n")
    );
    assert_eq!(
        a.to_string(),
        b.to_string(),
        "instant drill: ledgers differ"
    );
}
