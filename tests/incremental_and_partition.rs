//! Cross-crate integration: incremental backups (§6.1) and
//! partition-grained tracking / media recovery (§3.4, §6.3).

use lob_core::{
    BackupImage, BackupPolicy, Discipline, DomainId, Engine, EngineConfig, GraphMode, Lsn, PageId,
    PartitionId, PartitionSpec, Tracking,
};
use lob_harness::{ShadowOracle, WorkloadGen};

fn single(pages: u32) -> (Engine, ShadowOracle, WorkloadGen) {
    let e = Engine::new(EngineConfig {
        discipline: Discipline::General,
        ..EngineConfig::single(pages, 128)
    })
    .unwrap();
    let mut o = ShadowOracle::new(128);
    let mut g = WorkloadGen::new(21, 128);
    for i in 0..pages {
        let op = g.physical(PageId::new(0, i));
        o.execute(&e, op).unwrap();
    }
    e.flush_all().unwrap();
    (e, o, g)
}

fn full_backup(e: &mut Engine) -> BackupImage {
    let mut run = e.begin_backup(4).unwrap();
    while !e.backup_step(&mut run).unwrap() {}
    e.complete_backup(run).unwrap()
}

#[test]
fn incremental_chain_recovers_current_state() {
    let (mut e, mut o, mut g) = single(128);
    let pages: Vec<PageId> = (0..128).map(|i| PageId::new(0, i)).collect();

    let base = full_backup(&mut e);

    // Round 1 of updates + incremental.
    for _ in 0..20 {
        let op = g.mix(&pages, 2, 2);
        o.execute(&e, op).unwrap();
    }
    e.flush_all().unwrap();
    let mut r1 = e.begin_incremental_backup(DomainId(0), 4, &base).unwrap();
    while !e.backup_step(&mut r1).unwrap() {}
    let incr1 = e.complete_backup(r1).unwrap();
    assert!(incr1.incremental);
    assert!(incr1.page_count() < 128, "only changed pages copied");

    // Materialized restore point + post-backup updates.
    let restore1 = BackupImage::materialize(&base, &incr1).unwrap();
    for _ in 0..10 {
        let op = g.mix(&pages, 2, 2);
        o.execute(&e, op).unwrap();
    }
    e.flush_all().unwrap();

    e.store().fail_partition(PartitionId(0)).unwrap();
    e.media_recover(&restore1).unwrap();
    o.verify_store(&e, Lsn::MAX).unwrap();
}

#[test]
fn second_incremental_covers_only_new_changes() {
    let (mut e, mut o, mut g) = single(128);
    let base = full_backup(&mut e);

    // Touch pages 0..8, incremental 1.
    for i in 0..8 {
        let op = g.physio(PageId::new(0, i));
        o.execute(&e, op).unwrap();
        e.flush_page(PageId::new(0, i)).unwrap();
    }
    let mut r1 = e.begin_incremental_backup(DomainId(0), 2, &base).unwrap();
    while !e.backup_step(&mut r1).unwrap() {}
    let incr1 = e.complete_backup(r1).unwrap();
    assert_eq!(incr1.page_count(), 8);

    // Touch pages 20..24 only; incremental 2 (based on the materialized 1)
    // must copy just those.
    let restore1 = BackupImage::materialize(&base, &incr1).unwrap();
    for i in 20..24 {
        let op = g.physio(PageId::new(0, i));
        o.execute(&e, op).unwrap();
        e.flush_page(PageId::new(0, i)).unwrap();
    }
    let mut r2 = e
        .begin_incremental_backup(DomainId(0), 2, &restore1)
        .unwrap();
    while !e.backup_step(&mut r2).unwrap() {}
    let incr2 = e.complete_backup(r2).unwrap();
    assert_eq!(incr2.page_count(), 4);

    let restore2 = BackupImage::materialize(&restore1, &incr2).unwrap();
    e.store().fail_partition(PartitionId(0)).unwrap();
    e.media_recover(&restore2).unwrap();
    o.verify_store(&e, Lsn::MAX).unwrap();
}

#[test]
fn aborted_incremental_does_not_lose_changed_pages() {
    let (mut e, mut o, mut g) = single(64);
    let base = full_backup(&mut e);
    for i in 0..6 {
        let op = g.physio(PageId::new(0, i));
        o.execute(&e, op).unwrap();
        e.flush_page(PageId::new(0, i)).unwrap();
    }
    // Start an incremental and abort it mid-sweep.
    let mut r = e.begin_incremental_backup(DomainId(0), 4, &base).unwrap();
    e.backup_step(&mut r).unwrap();
    e.abort_backup(r);

    // The next incremental still sees all six changed pages.
    let mut r2 = e.begin_incremental_backup(DomainId(0), 2, &base).unwrap();
    while !e.backup_step(&mut r2).unwrap() {}
    let incr = e.complete_backup(r2).unwrap();
    assert_eq!(incr.page_count(), 6);
}

fn multi() -> (Engine, ShadowOracle, WorkloadGen) {
    let e = Engine::new(EngineConfig {
        page_size: 128,
        partitions: vec![
            PartitionSpec { pages: 32 },
            PartitionSpec { pages: 32 },
            PartitionSpec { pages: 32 },
        ],
        discipline: Discipline::General,
        graph_mode: GraphMode::Refined,
        tracking: Tracking::PerPartition,
        cache_capacity: None,
        policy: BackupPolicy::Protocol,
        log: lob_core::LogBacking::Memory,
        ..EngineConfig::small()
    })
    .unwrap();
    let mut o = ShadowOracle::new(128);
    let mut g = WorkloadGen::new(33, 128);
    for p in 0..3 {
        for i in 0..32 {
            let op = g.physical(PageId::new(p, i));
            o.execute(&e, op).unwrap();
        }
    }
    e.flush_all().unwrap();
    (e, o, g)
}

#[test]
fn per_partition_tracking_rejects_cross_partition_ops() {
    let (e, _o, _g) = multi();
    let op = lob_core::OpBody::Logical(lob_core::LogicalOp::Copy {
        src: PageId::new(0, 0),
        dst: PageId::new(1, 0),
    });
    assert!(matches!(
        e.execute(op),
        Err(lob_core::EngineError::Discipline(_))
    ));
}

#[test]
fn interleaved_partition_backups_are_independent() {
    let (e, mut o, mut g) = multi();
    // Backups of partitions 0 and 2 run interleaved; partition 1 updates
    // throughout.
    let mut r0 = e.begin_backup_of(DomainId(0), 4).unwrap();
    let mut r2 = e.begin_backup_of(DomainId(2), 2).unwrap();
    let p1_pages: Vec<PageId> = (0..32).map(|i| PageId::new(1, i)).collect();
    loop {
        let d0 = e.backup_step(&mut r0).unwrap();
        let op = g.mix(&p1_pages, 2, 2);
        o.execute(&e, op).unwrap();
        if !r2.is_finished() {
            e.backup_step(&mut r2).unwrap();
        }
        if d0 {
            break;
        }
    }
    let img0 = e.complete_backup(r0).unwrap();
    let img2 = e.complete_backup(r2).unwrap();
    e.flush_all().unwrap();

    // Partition-grained media recovery: lose partition 2 only.
    e.store().fail_partition(PartitionId(2)).unwrap();
    e.media_recover_partition(&img2, PartitionId(2)).unwrap();
    o.verify_store(&e, Lsn::MAX).unwrap();

    // And partition 0 via its own image.
    e.store().fail_partition(PartitionId(0)).unwrap();
    e.media_recover_partition(&img0, PartitionId(0)).unwrap();
    o.verify_store(&e, Lsn::MAX).unwrap();
}

#[test]
fn partition_recovery_leaves_other_partitions_untouched() {
    let (e, mut o, mut g) = multi();
    let mut run = e.begin_backup_of(DomainId(1), 2).unwrap();
    while !e.backup_step(&mut run).unwrap() {}
    let img = e.complete_backup(run).unwrap();

    // Update all partitions afterward.
    for p in 0..3u32 {
        let pages: Vec<PageId> = (0..32).map(|i| PageId::new(p, i)).collect();
        for _ in 0..5 {
            let op = g.mix(&pages, 2, 2);
            o.execute(&e, op).unwrap();
        }
    }
    e.flush_all().unwrap();

    e.store().fail_partition(PartitionId(1)).unwrap();
    e.media_recover_partition(&img, PartitionId(1)).unwrap();
    o.verify_store(&e, Lsn::MAX).unwrap();
}
