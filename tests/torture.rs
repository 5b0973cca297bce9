//! The exhaustive crash-point torture suite.
//!
//! Each sweep numbers the I/O events of a seeded session (page flushes,
//! stable-store writes, log forces, log frame appends, backup copies), then
//! re-runs the identical session once per sampled event index with a fault
//! armed at that event — a process crash, a torn page write, a silent
//! corruption, or a media failure — recovers, and requires the recovered
//! stable database to byte-match the shadow oracle at the surviving log
//! prefix. Zero divergences are tolerated.
//!
//! Between the three workload shapes the crash sweeps alone cover well over
//! 200 distinct crash points; the torn/corrupt/media sweeps and the
//! crash-during-restore drill add targeted fault coverage on top.

use lob_core::{Discipline, RecoveryConfig};
use lob_harness::{Drill, FaultKind, OpLoop, Path, Report, Scenario};
use lob_pagestore::IoEvent;

fn assert_no_divergence(label: &str, report: &Report) {
    let divergences = report.divergences();
    assert!(
        divergences.is_empty(),
        "{label}: {} divergence(s):\n{}",
        divergences.len(),
        divergences.join("\n")
    );
}

/// A dense crash sweep: every armed crash fires and some settle by crash
/// recovery.
fn dense_crash_sweep(label: &str, drill: Drill, max_points: usize, min_points: usize) -> Report {
    let report = drill.sweep(&[FaultKind::CrashAt], max_points).unwrap();
    assert_no_divergence(label, &report);
    assert!(
        report.cases.len() >= min_points,
        "{label}: want a dense sweep, got {} points over {} events",
        report.cases.len(),
        report.events_total
    );
    assert_eq!(
        report.fired(),
        report.cases.len(),
        "{label}: every armed crash fires"
    );
    assert!(report.count(Path::Crash) > 0);
    report
}

#[test]
fn crash_sweep_general_ops_recovers_at_every_point() {
    let report = dense_crash_sweep("general", Drill::ops(0xA11CE, Discipline::General), 100, 70);
    // Lost-tail coverage: some crashes must land on log-append events,
    // killing the process with frames still volatile.
    let kinds = report.fired_kinds();
    assert!(kinds.contains(&IoEvent::LogAppend), "lost-tail crashes");
    assert!(kinds.contains(&IoEvent::PageWrite));
}

#[test]
fn crash_sweep_tree_ops_recovers_at_every_point() {
    let report = dense_crash_sweep("tree", Drill::ops(0xB0B, Discipline::Tree), 100, 70);
    assert!(report.fired_kinds().contains(&IoEvent::LogAppend));
}

#[test]
fn crash_sweep_backup_concurrent_recovers_at_every_point() {
    let report = dense_crash_sweep("backup-concurrent", Drill::backup(0xCAFE), 110, 80);
    // Crashes must land inside the sweep itself, not just around it.
    assert!(
        report.fired_kinds().contains(&IoEvent::BackupCopy),
        "some crash points must hit backup copies; fired kinds: {:?}",
        report.fired_kinds()
    );
}

#[test]
fn torn_write_sweep_is_always_caught_by_checksums() {
    let report = Drill::backup(0x7EA2)
        .sweep(&[FaultKind::TornWriteAt], 24)
        .unwrap();
    assert_no_divergence("torn-write sweep", &report);
    assert!(report.fired() > 0, "torn writes must actually fire");
    // A torn page (splice detectably unlike the intended payload) can only
    // come back through media recovery; at least some tears must take that
    // path, and none may slip through the final byte-equality check.
    assert!(
        report.count(Path::Media) > 0,
        "some tears must be scrubbed into media recovery"
    );
    assert!(report.cases.iter().any(|c| c.counters.scrubbed > 0));
}

#[test]
fn silent_corruption_is_always_detected_or_overwritten() {
    let report = Drill::ops(0x5EED, Discipline::General)
        .sweep(&[FaultKind::CorruptWriteAt], 24)
        .unwrap();
    // Zero divergences means no corrupted byte ever reached a verified
    // read: every injected flip was either flagged by the checksum scrub
    // (and repaired from backup + log) or replaced by a later full write.
    assert_no_divergence("silent-corruption sweep", &report);
    assert!(report.fired() > 0);
    assert!(
        report.cases.iter().any(|c| c.counters.scrubbed > 0),
        "the scrub must catch injected bit rot"
    );
    assert!(report.count(Path::Media) > 0);
}

#[test]
fn media_failure_sweep_restores_from_backup() {
    let report = Drill::backup(0xD15C)
        .sweep(&[FaultKind::MediaFailAt], 24)
        .unwrap();
    assert_no_divergence("media-failure sweep", &report);
    assert!(report.fired() > 0);
    assert!(
        report.count(Path::Media) > 0,
        "media failures must be repaired by restore + roll-forward"
    );
}

/// Crash media recovery at every sampled I/O event of the restore +
/// roll-forward itself; simply re-running media recovery must converge.
#[test]
fn interrupted_restore_is_restartable() {
    let report = Drill::restore(0x2E57)
        .sweep(&[FaultKind::CrashAt], 30)
        .unwrap();
    assert_no_divergence("restore crash drill", &report);
    assert!(
        report.cases.len() >= 20,
        "the restore must expose enough I/O events to torture (got {} over {})",
        report.cases.len(),
        report.events_total
    );
    assert!(report.fired() > 0, "restores must actually be interrupted");
    assert!(
        report.count(Path::Media) > 0,
        "re-running media recovery must converge"
    );
}

/// Seeded determinism on the whole ledger: every deterministic scenario,
/// run twice, observes the same event space and settles every case the
/// same way — the property that makes every divergence reproducible from
/// its row. The op loop at one and four workers, a read-fault drill, the
/// restore-crash drill and a randomized session; the instant drill's
/// ledger is checked the same way in `tests/instant_restore.rs`.
#[test]
fn sweeps_are_reproducible_per_seed() {
    use FaultKind::{CorruptReadAt, CrashAt, TornReadAt, TransientReadAt};
    let read = Drill {
        scenario: Scenario::Ops(OpLoop::HEALING),
        ..Drill::backup(0xD0C3)
    };
    let repeats = |label: &str, run: &dyn Fn() -> Report| {
        let (a, b) = (run(), run());
        assert_no_divergence(label, &a);
        assert_eq!(a.to_string(), b.to_string(), "{label}: ledgers differ");
    };
    let general = Drill::ops(99, Discipline::General);
    repeats("op loop", &|| general.sweep(&[CrashAt], 12).unwrap());
    let workers = Drill {
        recovery: RecoveryConfig::new(4, 8),
        ..general.clone()
    };
    repeats("four workers", &|| workers.sweep(&[CrashAt], 12).unwrap());
    let read_arms = [CorruptReadAt, TornReadAt, TransientReadAt];
    repeats("read faults", &|| read.sweep(&read_arms, 9).unwrap());
    repeats("restore", &|| {
        Drill::restore(0x2E57).sweep(&[CrashAt], 8).unwrap()
    });
    let session = Drill::session(7, Discipline::General);
    let kinds = [FaultKind::CountOnly, FaultKind::CrashAfterOp(200)];
    repeats("random session", &|| session.cases(kinds));
}

/// The log-truncation crash point, found by `lob-lint`'s fault-hook
/// coverage pass: `LogManager::truncate` mutates durable state (discards
/// records below the truncation point) but consulted no hook before this
/// PR, so no sweep could ever schedule a fault there. Truncation events
/// are rare in the generic sweeps (the armed window holds a media barrier
/// that clamps them), so this drill targets the event kind directly.
#[test]
fn log_truncation_is_a_faultable_crash_point() {
    use lob_core::{Engine, EngineConfig};
    use lob_harness::{FaultKind, FaultPlan, ShadowOracle, WorkloadGen};
    use lob_pagestore::PageId;

    let pages = 32u32;
    let page_size = 256usize;
    let engine = Engine::new(EngineConfig::single(pages, page_size)).unwrap();
    let mut oracle = ShadowOracle::new(page_size);
    let mut gen = WorkloadGen::new(0x70C4, page_size);
    for i in 0..pages {
        let op = gen.physical(PageId::new(0, i));
        oracle.execute(&engine, op).unwrap();
    }

    // Arm a crash at the first truncation-point advance; every other event
    // kind proceeds.
    let plan = FaultPlan::new(FaultKind::CrashAtEvent(IoEvent::LogTruncate, 0));
    engine.install_fault_hook(Some(plan.hook()));
    let before = engine.log().truncation();

    let err = engine
        .flush_all()
        .expect_err("flush_all must hit the armed truncation crash point");
    assert!(err.is_injected_crash(), "unexpected error: {err}");
    assert!(plan.fired());
    assert_eq!(
        plan.fired_event().map(|(_, k)| k),
        Some(IoEvent::LogTruncate),
        "the fault must fire on the truncation event itself"
    );
    // An interrupted truncation moves nothing: the point and the store are
    // exactly as they were, so a restart simply re-truncates.
    assert_eq!(engine.log().truncation(), before);

    // Complete the crash, recover, and verify against the oracle: every
    // operation was logged and forced before its pages flushed, so the
    // full history survives.
    engine.install_fault_hook(None);
    engine.crash();
    engine.recover().unwrap();
    oracle.verify_store(&engine, oracle.last_lsn()).unwrap();

    // The restarted engine can truncate past the old point.
    engine.flush_all().unwrap();
    assert!(engine.log().truncation() > before);
}
