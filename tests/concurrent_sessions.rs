//! Multi-session races over the concurrent [`EngineService`] front-end
//! (DESIGN.md §5.14).
//!
//! Three layers of evidence, all on the drill loop
//! ([`lob_harness::Drill::sessions`], [`lob_harness::sessions`]):
//!
//! * **Race grid** — sessions × partitions × [`FlushPolicy`] cells, each
//!   run threaded under its own durability-order witness, a live domain-0
//!   backup sweep racing the writers, and the surviving store
//!   byte-verified against the sequential shadow oracle (per-session logs
//!   merged in LSN order) and every recovery against the reference replay.
//! * **Crash-during-group-commit torture** — a crash injected at the
//!   `k`-th `LogForce` consult, i.e. inside the group leader's force
//!   while followers wait for the round to publish. Every armed
//!   point must recover to exactly the durable prefix and verify
//!   byte-for-byte.
//! * **Deterministic replay** — the seeded [`VirtualScheduler`]
//!   interleaves the same scripts identically from the same seed, so any
//!   grid cell's schedule can be pinned down and replayed.

use lob_core::{
    BackupImage, DomainId, EngineConfig, EngineService, FlushPolicy, Lsn, OpBody, PageId,
    PartitionId, PartitionSpec, Tracking,
};
use lob_harness::{Drill, FaultKind, Path, ShadowOracle, WorkloadGen};
use lob_pagestore::{FaultVerdict, IoEvent};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn race_grid_under_armed_witnesses() {
    let mut cells = 0u32;
    for &sessions in &[2usize, 4] {
        for &partitions in &[1u32, 2, 4] {
            for policy in [FlushPolicy::Exact, FlushPolicy::Group] {
                let mut drill = Drill::sessions(sessions, partitions, 0xA0 + cells as u64);
                drill.commit.flush_policy = policy;
                let cell =
                    format!("cell (sessions={sessions}, partitions={partitions}, {policy:?})");
                let case = drill.case(FaultKind::CountOnly);
                assert_eq!(case.path, Ok(Path::Clean), "{cell}: {case}");
                assert_eq!(
                    case.counters.stats.ops_executed,
                    (sessions * 64) as u64,
                    "{cell}"
                );
                assert!(case.fired.is_none());
                assert!(
                    case.witness.events() > 0,
                    "witness observed nothing — instrumentation missing?"
                );
                assert!(
                    case.counters.stats.backups_completed >= 1,
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
    //
    // Each session's commits are sequential, and each commits a record
    // appended after its previous commit returned, so no force can serve
    // two commits of one session: the solo arm needs at least one force
    // per commit of a session. The grouped arm's window is far longer
    // than the test, so its gathers close only once every live session
    // has joined, and each force serves one commit of every session —
    // the minimum. A short window would let a gather close on the timer
    // whenever a thread is descheduled, and the grouped arm could then
    // force more often than a lucky solo arm.
    let base = Drill {
        backup_steps: 0,
        ..Drill::sessions(4, 4, 0x6C)
    };
    let run = |delay: u64, count: u32| {
        let mut drill = base.clone();
        drill.commit.group_commit_delay_micros = delay;
        drill.commit.group_commit_count = count;
        let case = drill.case(FaultKind::CountOnly);
        assert_eq!(case.path, Ok(Path::Clean), "{case}");
        case.counters
    };
    let solo = run(0, 1);
    let grouped = run(10_000_000, 4);
    assert_eq!(solo.stats.ops_executed, grouped.stats.ops_executed);
    // Sessions commit every 4 operations.
    let commits_per_session = u64::from(base.ops / 4);
    assert_eq!(
        grouped.forces, commits_per_session,
        "every group holds one commit of each session"
    );
    assert!(
        grouped.forces <= solo.forces,
        "grouping must not add forces: {} (grouped) vs {} (solo)",
        grouped.forces,
        solo.forces
    );
}

#[test]
#[expect(
    clippy::disallowed_types,
    reason = "the test times the drill against the gather window"
)]
fn a_finished_session_holds_up_no_group() {
    // Two sessions of unequal length, each held by the drill until both
    // threads have joined, through a window far longer than the test.
    // While both threads run, each force serves one commit of each
    // session. Once the shorter session's thread exits, the longer one's
    // commits close their gathers at once instead of waiting out the
    // window for a committer that can no longer join.
    let window = Duration::from_secs(1);
    let mut drill = Drill {
        backup_steps: 0,
        session_ops: vec![64, 16],
        ..Drill::sessions(2, 2, 0x0E)
    };
    drill.commit.group_commit_delay_micros = window.as_micros() as u64;
    let start = std::time::Instant::now();
    let case = drill.case(FaultKind::CountOnly);
    let took = start.elapsed();
    assert_eq!(case.path, Ok(Path::Clean), "{case}");
    assert_eq!(case.counters.stats.ops_executed, 64 + 16);
    // Sessions commit every 4 operations.
    let (long, short) = (64 / 4, 16 / 4);
    assert_eq!(
        case.counters.forces, long,
        "one force per commit of the longer session"
    );
    let late = (long - short) as u32;
    assert!(
        took < window * late / 4,
        "{late} commits after the short session's thread exited took {took:?}"
    );
}

#[test]
fn crash_during_group_commit_recovers_and_verifies() {
    let mut fired = 0u32;
    // Crash at the k-th LogForce consult — early forces land inside the
    // first group commits (followers waiting on the round),
    // later ones inside flushes and sweep begin/complete forces. Points
    // beyond the run's force count simply never fire; the drill then
    // completes and verifies clean, which is also asserted.
    for &k in &[0u64, 1, 2, 4, 8, 16, 64] {
        let case =
            Drill::sessions(3, 3, 0xC0DE ^ k).case(FaultKind::CrashAtEvent(IoEvent::LogForce, k));
        assert!(case.path.is_ok(), "crash point {k} failed: {case}");
        if case.fired.is_some() {
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
        let mut drill = Drill::sessions(2, 2, 0xF1);
        drill.commit.flush_policy = policy;
        let case = drill.case(FaultKind::CrashAtEvent(IoEvent::LogForce, 5));
        assert!(case.path.is_ok(), "{policy:?} torture failed: {case}");
        assert!(
            case.fired.is_some(),
            "{policy:?}: crash point 5 should fire"
        );
    }
}

#[test]
fn service_backs_up_repairs_archives_and_restores_beside_a_live_session() {
    // A session keeps executing in domain 1 while the main thread runs
    // the maintenance verbs in domain 0: an incremental backup, an online
    // repair of a corrupted page, an archive catch-up, and a partition
    // media recovery. Both partitions must end byte-equal to the shadow.
    const PAGES: u32 = 16;
    let svc = Arc::new(
        EngineService::new(EngineConfig {
            page_size: 64,
            partitions: vec![PartitionSpec { pages: PAGES }; 2],
            tracking: Tracking::PerPartition,
            ..EngineConfig::small()
        })
        .unwrap(),
    );
    let mut gen = WorkloadGen::new(0x5E41, 64);
    let mut logged: Vec<(Lsn, OpBody)> = Vec::new();
    let run = |body: OpBody, logged: &mut Vec<(Lsn, OpBody)>| {
        let lsn = svc.execute(body.clone()).unwrap();
        logged.push((lsn, body));
    };
    for p in 0..2 {
        for i in 0..PAGES {
            run(gen.physical(PageId::new(p, i)), &mut logged);
        }
    }
    svc.flush_all().unwrap();
    let mut full = svc.begin_backup_of(DomainId(0), 4).unwrap();
    while !svc.backup_step_batch(&mut full, 4).unwrap() {}
    let base = svc.complete_backup(full).unwrap();
    svc.register_backup_generation(base.clone()).unwrap();

    let mut session_gen = WorkloadGen::new(0x5E42, 64);
    let session_log = std::thread::scope(|scope| {
        let session = svc.session();
        let worker = scope.spawn(move || {
            let mut mine = Vec::new();
            for i in 0..96u32 {
                let body = session_gen.physical(PageId::new(1, i % PAGES));
                mine.push((session.execute(body.clone()).unwrap(), body));
                session.commit().unwrap();
                if i % 16 == 15 {
                    session.flush_page(PageId::new(1, i % PAGES)).unwrap();
                }
            }
            mine
        });

        let part0: Vec<PageId> = (0..PAGES).map(|i| PageId::new(0, i)).collect();
        for &id in &part0[..6] {
            run(gen.physical(id), &mut logged);
        }
        run(gen.mix(&part0, 2, 2), &mut logged);
        svc.flush_domain(DomainId(0)).unwrap();
        let mut incr = svc.begin_incremental_backup(DomainId(0), 2, &base).unwrap();
        while !svc.backup_step_batch(&mut incr, 8).unwrap() {}
        let incr = svc.complete_backup(incr).unwrap();
        assert!(incr.incremental && incr.page_count() > 0);

        // Damage one clean page of partition 0 at its next store read,
        // then heal it from the registered generation.
        let victim = PageId::new(0, 3);
        let fired = AtomicBool::new(false);
        svc.install_fault_hook(Some(Arc::new(move |ev, page| {
            if ev == IoEvent::PageRead
                && page == Some(victim)
                && !fired.swap(true, Ordering::Relaxed)
            {
                FaultVerdict::CorruptRead
            } else {
                FaultVerdict::Proceed
            }
        })));
        assert!(svc.store().read_page(victim).is_err());
        svc.install_fault_hook(None);
        let report = svc.repair_page(victim).unwrap();
        assert_eq!(report.generation_used, base.backup_id);
        assert!(svc.store().verify_pages().is_clean());

        assert!(svc.extend_backup_archive(base.backup_id).unwrap() > base.start_lsn);
        for &id in &part0[6..10] {
            run(gen.physical(id), &mut logged);
        }
        svc.store().fail_partition(PartitionId(0)).unwrap();
        let image = BackupImage::materialize(&base, &incr).unwrap();
        svc.media_recover_partition(&image, PartitionId(0)).unwrap();
        worker.join().unwrap()
    });
    logged.extend(session_log);
    logged.sort_by_key(|(lsn, _)| *lsn);
    let mut oracle = ShadowOracle::new(64);
    for (lsn, body) in &logged {
        oracle.apply(*lsn, body).unwrap();
    }
    for p in 0..2 {
        for i in 0..PAGES {
            let id = PageId::new(p, i);
            assert_eq!(
                svc.read_page(id).unwrap().data(),
                &oracle.expect_page(id, Lsn::MAX),
                "page {id}"
            );
        }
    }
    svc.flush_all().unwrap();
    svc.crash();
    svc.recover().unwrap();
    for (id, want) in oracle.state_at(Lsn::MAX) {
        assert_eq!(
            svc.store().read_page(id).unwrap().data(),
            &want,
            "page {id}"
        );
    }
}
