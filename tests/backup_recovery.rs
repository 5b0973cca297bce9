//! Cross-crate integration: the backup protocol end to end.
//!
//! Deterministic scenarios plus seeded randomized sessions covering every
//! discipline × policy combination that must (or must not) survive media
//! recovery, verified against the shadow oracle.

use lob_core::{BackupPolicy, Discipline, DomainId, Lsn, OpBody, PageId, PartitionId};
use lob_harness::{fig1_split_scenario, Divergence, Drill, FaultKind, ShadowOracle, WorkloadGen};

#[test]
fn figure1_counterexample_bites_naive_and_not_protocol() {
    let naive = fig1_split_scenario(BackupPolicy::NaiveFuzzy).unwrap();
    assert!(!naive.data_intact, "naive fuzzy dump must lose the split");
    assert_eq!(naive.iwof_records, 0);

    let protocol = fig1_split_scenario(BackupPolicy::Protocol).unwrap();
    assert!(protocol.data_intact);
    assert!(protocol.iwof_records >= 1);
}

#[test]
fn protocol_sessions_survive_media_recovery_all_disciplines() {
    for discipline in [
        Discipline::PageOriented,
        Discipline::Tree,
        Discipline::General,
    ] {
        for seed in 100..106u64 {
            let case = Drill::session(seed, discipline).case(FaultKind::CountOnly);
            assert!(case.path.is_ok(), "{discipline:?} seed {seed}: {case}");
        }
    }
}

#[test]
fn naive_fuzzy_dump_is_correct_for_page_oriented_ops() {
    // §1.2: the conventional fuzzy dump is sound when every logged
    // operation is page-oriented — reproduce that too.
    for seed in 0..6u64 {
        let drill = Drill {
            policy: BackupPolicy::NaiveFuzzy,
            ..Drill::session(seed, Discipline::PageOriented)
        };
        let case = drill.case(FaultKind::CountOnly);
        assert!(case.path.is_ok(), "seed {seed}: {case}");
        assert_eq!(case.counters.stats.iwof_records, 0);
    }
}

#[test]
fn naive_fuzzy_dump_fails_some_logical_sessions() {
    let mut failures = 0;
    for seed in 0..25u64 {
        let drill = Drill {
            policy: BackupPolicy::NaiveFuzzy,
            ..Drill::session(seed, Discipline::General)
        };
        match drill.case(FaultKind::CountOnly).path {
            Err(Divergence::Oracle(_)) => failures += 1,
            Err(e) => panic!("seed {seed}: not an oracle mismatch: {e}"),
            Ok(_) => {}
        }
    }
    assert!(
        failures > 0,
        "the naive dump must corrupt at least one of 25 logical sessions"
    );
}

#[test]
fn linked_flush_backup_is_correct_but_pays_double_writes() {
    let engine = lob_core::Engine::new(lob_core::EngineConfig {
        discipline: Discipline::General,
        policy: BackupPolicy::LinkedFlush,
        ..lob_core::EngineConfig::single(128, 128)
    })
    .unwrap();
    let mut oracle = ShadowOracle::new(128);
    let mut gen = WorkloadGen::new(9, 128);
    let pages: Vec<PageId> = (0..128).map(|i| PageId::new(0, i)).collect();
    for &p in &pages {
        let op = gen.physical(p);
        oracle.execute(&engine, op).unwrap();
    }
    engine.flush_all().unwrap();

    let mut run = engine.begin_linked_backup().unwrap();
    let mut salt = 0;
    loop {
        let done = engine.linked_step(&mut run, 8).unwrap();
        // Updates during the window are mirrored into the image by the
        // linked flush.
        let op = gen.mix(&pages, 2, 2);
        oracle.execute(&engine, op).unwrap();
        engine.flush_all().unwrap();
        salt += 1;
        if done {
            break;
        }
    }
    assert!(salt > 0);
    let image = engine.complete_linked_backup(run).unwrap();
    engine.store().fail_partition(PartitionId(0)).unwrap();
    engine.media_recover(&image).unwrap();
    oracle.verify_store(&engine, Lsn::MAX).unwrap();
}

#[test]
fn multiple_sequential_backups_with_release() {
    // Backups can be taken repeatedly; releasing the old one lets the log
    // truncate past its start point.
    let engine = lob_core::Engine::new(lob_core::EngineConfig {
        discipline: Discipline::General,
        ..lob_core::EngineConfig::single(64, 128)
    })
    .unwrap();
    let mut oracle = ShadowOracle::new(128);
    let mut gen = WorkloadGen::new(11, 128);
    let pages: Vec<PageId> = (0..64).map(|i| PageId::new(0, i)).collect();
    for &p in &pages {
        let op = gen.physical(p);
        oracle.execute(&engine, op).unwrap();
    }
    engine.flush_all().unwrap();

    let mut last_image = None;
    for round in 0..3 {
        let mut run = engine.begin_backup(2).unwrap();
        while !engine.backup_step(&mut run).unwrap() {}
        let image = engine.complete_backup(run).unwrap();
        if let Some(prev) = last_image.replace(image) {
            let prev: lob_core::BackupImage = prev;
            engine.release_backup(prev.backup_id);
        }
        // Updates between backups.
        for _ in 0..10 {
            let op = gen.mix(&pages, 2, 2);
            oracle.execute(&engine, op).unwrap();
        }
        engine.flush_all().unwrap();
        let _ = round;
    }
    // The retained (latest) backup still recovers to current.
    let image = last_image.unwrap();
    engine.store().fail_partition(PartitionId(0)).unwrap();
    engine.media_recover(&image).unwrap();
    oracle.verify_store(&engine, Lsn::MAX).unwrap();
}

#[test]
fn backup_step_counts_match_tracker_lifecycle() {
    let engine = lob_core::Engine::new(lob_core::EngineConfig::single(64, 128)).unwrap();
    engine
        .execute(OpBody::PhysicalWrite {
            target: PageId::new(0, 0),
            value: bytes::Bytes::from(vec![1u8; 128]),
        })
        .unwrap();
    engine.flush_all().unwrap();
    let mut run = engine.begin_backup(4).unwrap();
    assert!(engine
        .coordinator()
        .tracker(DomainId(0))
        .unwrap()
        .is_active());
    let mut steps = 0;
    while !engine.backup_step(&mut run).unwrap() {
        steps += 1;
    }
    assert_eq!(steps + 1, 4);
    assert!(!engine
        .coordinator()
        .tracker(DomainId(0))
        .unwrap()
        .is_active());
    let image = engine.complete_backup(run).unwrap();
    assert_eq!(image.page_count(), 64);
}
