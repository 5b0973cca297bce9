//! Cross-crate integration: the engine's operational features —
//! capacity-bounded caches, rLSN-ordered background flushing,
//! install-without-flush, backup audit, point-in-time recovery, and
//! file-backed logs.

use bytes::Bytes;
use lob_core::{
    Discipline, Engine, EngineConfig, LogBacking, LogicalOp, Lsn, OpBody, PageId, PartitionId,
};
use lob_harness::{ShadowOracle, WorkloadGen};

#[test]
fn bounded_cache_session_recovers_exactly() {
    // A tiny cache forces constant eviction/refetch; correctness must be
    // unchanged.
    let e = Engine::new(EngineConfig {
        discipline: Discipline::General,
        cache_capacity: Some(12),
        ..EngineConfig::single(64, 128)
    })
    .unwrap();
    let mut o = ShadowOracle::new(128);
    let mut g = WorkloadGen::new(71, 128);
    let pages: Vec<PageId> = (0..64).map(|i| PageId::new(0, i)).collect();
    for _ in 0..150 {
        let op = if g.chance(0.5) {
            g.mix(&pages, 2, 2)
        } else {
            let p = pages[g.below(pages.len())];
            g.physio(p)
        };
        o.execute(&e, op).unwrap();
        // Keep the dirty set (which cannot be evicted) small.
        if e.cache().dirty_count() > 8 {
            e.flush_oldest(4).unwrap();
        }
    }
    assert!(
        e.cache().stats().evictions > 0,
        "capacity pressure actually evicted clean pages"
    );
    let mut run = e.begin_backup(4).unwrap();
    while !e.backup_step(&mut run).unwrap() {}
    let image = e.complete_backup(run).unwrap();
    e.store().fail_partition(PartitionId(0)).unwrap();
    e.media_recover(&image).unwrap();
    o.verify_store(&e, Lsn::MAX).unwrap();
}

#[test]
fn audit_matches_oracle_verdict() {
    let e = Engine::new(EngineConfig::single(64, 128)).unwrap();
    let mut o = ShadowOracle::new(128);
    let mut g = WorkloadGen::new(5, 128);
    let pages: Vec<PageId> = (0..64).map(|i| PageId::new(0, i)).collect();
    for &p in &pages[..16] {
        let op = g.physical(p);
        o.execute(&e, op).unwrap();
    }
    e.flush_all().unwrap();
    let mut run = e.begin_backup(2).unwrap();
    while !e.backup_step(&mut run).unwrap() {}
    let image = e.complete_backup(run).unwrap();
    // Ongoing work, including dirty (unflushed) pages: the audit must roll
    // the image forward through the volatile log and agree with the live
    // state.
    for _ in 0..20 {
        let op = g.mix(&pages[..16], 2, 2);
        o.execute(&e, op).unwrap();
    }
    assert!(e.audit_backup(&image).unwrap().is_empty());
}

#[test]
fn install_without_flush_keeps_hot_page_dirty_through_backup() {
    let e = Engine::new(EngineConfig::single(64, 128)).unwrap();
    let hot = PageId::new(0, 5);
    e.execute(OpBody::PhysicalWrite {
        target: hot,
        value: Bytes::from(vec![1u8; 128]),
    })
    .unwrap();
    let mut run = e.begin_backup(2).unwrap();
    while !e.backup_step(&mut run).unwrap() {}
    let image = e.complete_backup(run).unwrap();

    // Keep the page hot: update + identity-install repeatedly, never
    // flushing it to S.
    for i in 0..5u8 {
        e.execute(OpBody::PhysicalWrite {
            target: hot,
            value: Bytes::from(vec![10 + i; 128]),
        })
        .unwrap();
        e.install_without_flush(hot).unwrap();
    }
    assert!(e.cache().is_dirty(hot));
    assert!(e.store().read_page(hot).unwrap().lsn().is_null());
    let want = e.read_page(hot).unwrap().data().clone();

    // Media recovery rebuilds the hot page purely from identity records.
    e.store().fail_partition(PartitionId(0)).unwrap();
    e.media_recover(&image).unwrap();
    assert_eq!(e.store().read_page(hot).unwrap().data(), &want);
}

#[test]
fn point_in_time_recovery_excludes_a_bad_application() {
    // §6.3's scenario: an erroneous application corrupted the database;
    // recover to just before it ran.
    let e = Engine::new(EngineConfig::single(64, 128)).unwrap();
    let mut o = ShadowOracle::new(128);
    let mut g = WorkloadGen::new(77, 128);
    for i in 0..8 {
        let op = g.physical(PageId::new(0, i));
        o.execute(&e, op).unwrap();
    }
    e.flush_all().unwrap();
    let mut run = e.begin_backup(2).unwrap();
    while !e.backup_step(&mut run).unwrap() {}
    let image = e.complete_backup(run).unwrap();

    // Good work after the backup.
    let op = g.physio(PageId::new(0, 1));
    o.execute(&e, op).unwrap();
    e.flush_all().unwrap();
    let before_corruption = e.log().durable_lsn();
    let good_state = o.state_at(before_corruption);

    // The "corrupting application" scribbles over several pages.
    for i in 0..8 {
        e.execute(OpBody::PhysicalWrite {
            target: PageId::new(0, i),
            value: Bytes::from(vec![0xBA; 128]),
        })
        .unwrap();
    }
    e.flush_all().unwrap();

    // Recover to the pre-corruption point.
    e.store().fail_partition(PartitionId(0)).unwrap();
    e.media_recover_to(&image, before_corruption).unwrap();
    for (id, want) in &good_state {
        assert_eq!(
            e.store().read_page(*id).unwrap().data(),
            want,
            "page {id} at the pre-corruption point"
        );
    }
}

#[test]
fn file_backed_log_full_cycle_with_backup() {
    let dir = std::env::temp_dir().join(format!("lob-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cycle.wal");
    let config = EngineConfig {
        discipline: Discipline::General,
        log: LogBacking::File(path.clone()),
        ..EngineConfig::single(64, 128)
    };
    let image;
    let expected;
    {
        let e = Engine::new(config.clone()).unwrap();
        e.execute(OpBody::PhysicalWrite {
            target: PageId::new(0, 0),
            value: Bytes::from(vec![7u8; 128]),
        })
        .unwrap();
        e.execute(OpBody::Logical(LogicalOp::Copy {
            src: PageId::new(0, 0),
            dst: PageId::new(0, 1),
        }))
        .unwrap();
        e.flush_all().unwrap();
        let mut run = e.begin_backup(2).unwrap();
        while !e.backup_step(&mut run).unwrap() {}
        image = e.complete_backup(run).unwrap();
        e.execute(OpBody::PhysicalWrite {
            target: PageId::new(0, 2),
            value: Bytes::from(vec![9u8; 128]),
        })
        .unwrap();
        e.force_log().unwrap();
        expected = 9u8;
        // Process dies.
    }
    // Restart: rebuild from the log file, then media-recover from the
    // backup image (its log suffix is in the file).
    let e2 = Engine::open_existing(config).unwrap();
    e2.recover().unwrap();
    assert_eq!(
        e2.store().read_page(PageId::new(0, 2)).unwrap().data()[0],
        expected
    );
    e2.store().fail_partition(PartitionId(0)).unwrap();
    e2.media_recover(&image).unwrap();
    assert_eq!(
        e2.store().read_page(PageId::new(0, 0)).unwrap().data()[0],
        7
    );
    assert_eq!(
        e2.store().read_page(PageId::new(0, 1)).unwrap().data()[0],
        7
    );
    assert_eq!(
        e2.store().read_page(PageId::new(0, 2)).unwrap().data()[0],
        9
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn commit_after_restarting_over_a_torn_log_tail_survives_a_crash() {
    let dir = std::env::temp_dir().join(format!("lob-it-torn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("torn.wal");
    let config = EngineConfig {
        log: LogBacking::File(path.clone()),
        ..EngineConfig::single(64, 128)
    };
    let write = |e: &mut Engine, page: u32, byte: u8| {
        e.execute(OpBody::PhysicalWrite {
            target: PageId::new(0, page),
            value: Bytes::from(vec![byte; 128]),
        })
        .unwrap();
    };
    {
        let mut e = Engine::new(config.clone()).unwrap();
        write(&mut e, 0, 1);
        write(&mut e, 1, 2);
        e.force_log().unwrap();
    }
    // The process died mid-write of the last frame.
    let data = std::fs::read(&path).unwrap();
    std::fs::write(&path, &data[..data.len() - 2]).unwrap();

    let mut e = Engine::open_existing(config).unwrap();
    e.recover().unwrap();
    assert_eq!(e.store().read_page(PageId::new(0, 0)).unwrap().data()[0], 1);
    assert!(e
        .store()
        .read_page(PageId::new(0, 1))
        .unwrap()
        .lsn()
        .is_null());
    // A commit after the restart is durable, so a crash must not lose it.
    write(&mut e, 2, 3);
    e.force_log().unwrap();
    e.crash();
    e.recover().unwrap();
    let page = e.store().read_page(PageId::new(0, 2)).unwrap();
    assert!(!page.lsn().is_null(), "the forced write was not replayed");
    assert_eq!(page.data()[0], 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flush_oldest_interacts_with_backup_protocol() {
    // Background flushing during a backup must take the same Iw/oF
    // decisions as explicit flushes.
    let e = Engine::new(EngineConfig::single(256, 128)).unwrap();
    let mut o = ShadowOracle::new(128);
    let mut g = WorkloadGen::new(88, 128);
    let pages: Vec<PageId> = (0..256).map(|i| PageId::new(0, i)).collect();
    for &p in &pages {
        let op = g.physical(p);
        o.execute(&e, op).unwrap();
    }
    e.flush_all().unwrap();
    let mut run = e.begin_backup(4).unwrap();
    loop {
        for _ in 0..20 {
            let op = g.mix(&pages, 2, 2);
            o.execute(&e, op).unwrap();
        }
        e.flush_oldest(10).unwrap();
        if e.backup_step(&mut run).unwrap() {
            break;
        }
    }
    let image = e.complete_backup(run).unwrap();
    assert!(e.stats().iwof_records > 0);
    e.store().fail_partition(PartitionId(0)).unwrap();
    e.media_recover(&image).unwrap();
    o.verify_store(&e, Lsn::MAX).unwrap();
}
