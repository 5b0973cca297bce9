//! Cross-crate integration: crash recovery, the WAL protocol, and crashes
//! interacting with backups.

use bytes::Bytes;
use lob_core::{
    BackupPolicy, Discipline, Engine, EngineConfig, LogicalOp, OpBody, PageId, PartitionId,
};
use lob_harness::{Drill, FaultKind, OpLoop, Path, ShadowOracle, WorkloadGen};

fn engine(pages: u32) -> Engine {
    Engine::new(EngineConfig {
        discipline: Discipline::General,
        ..EngineConfig::single(pages, 128)
    })
    .unwrap()
}

#[test]
fn unforced_operations_are_lost_forced_ones_survive() {
    let e = engine(16);
    let mut o = ShadowOracle::new(128);
    let mut g = WorkloadGen::new(3, 128);
    for i in 0..8 {
        let op = g.physical(PageId::new(0, i));
        o.execute(&e, op).unwrap();
    }
    e.force_log().unwrap();
    let durable = e.log().durable_lsn();
    // Two more, unforced — these vanish at the crash.
    for i in 8..10 {
        let op = g.physical(PageId::new(0, i));
        o.execute(&e, op).unwrap();
    }
    e.crash();
    e.recover().unwrap();
    o.verify_store(&e, durable).unwrap();
    assert!(
        e.store()
            .read_page(PageId::new(0, 9))
            .unwrap()
            .lsn()
            .is_null(),
        "unforced op is gone"
    );
}

#[test]
fn repeated_crashes_converge() {
    let e = engine(32);
    let mut o = ShadowOracle::new(128);
    let mut g = WorkloadGen::new(5, 128);
    let pages: Vec<PageId> = (0..32).map(|i| PageId::new(0, i)).collect();
    for round in 0..5 {
        for _ in 0..20 {
            let op = if g.chance(0.5) {
                g.mix(&pages, 2, 2)
            } else {
                let p = pages[g.below(pages.len())];
                g.physio(p)
            };
            o.execute(&e, op).unwrap();
        }
        e.force_log().unwrap();
        let durable = e.log().durable_lsn();
        e.crash();
        e.recover().unwrap();
        o.verify_store(&e, durable).unwrap();
        let _ = round;
    }
}

#[test]
fn crash_immediately_after_recovery_is_harmless() {
    let e = engine(16);
    e.execute(OpBody::PhysicalWrite {
        target: PageId::new(0, 1),
        value: Bytes::from(vec![7u8; 128]),
    })
    .unwrap();
    e.force_log().unwrap();
    e.crash();
    e.recover().unwrap();
    e.crash();
    e.recover().unwrap();
    assert_eq!(e.store().read_page(PageId::new(0, 1)).unwrap().data()[0], 7);
}

#[test]
fn crash_mid_backup_recovers_and_next_backup_succeeds() {
    for seed in [40u64, 41, 42] {
        let drill = Drill::session(seed, Discipline::General);
        let mid_backup = FaultKind::CrashAfterOp(OpLoop::SESSION.backup_start_after + 30);
        let case = drill.case(mid_backup);
        assert_eq!(case.path, Ok(Path::Crash), "seed {seed}: {case}");
    }
}

#[test]
fn crash_mid_backup_then_fresh_backup_supports_media_recovery() {
    let e = Engine::new(EngineConfig {
        discipline: Discipline::Tree,
        policy: BackupPolicy::Protocol,
        ..EngineConfig::single(64, 128)
    })
    .unwrap();
    let mut o = ShadowOracle::new(128);
    let mut g = WorkloadGen::new(8, 128);
    for i in 0..16 {
        let op = g.physical(PageId::new(0, i));
        o.execute(&e, op).unwrap();
    }
    e.flush_all().unwrap();

    // Start a backup, crash halfway.
    let mut run = e.begin_backup(4).unwrap();
    e.backup_step(&mut run).unwrap();
    let op = OpBody::Logical(LogicalOp::Copy {
        src: PageId::new(0, 0),
        dst: PageId::new(0, 30),
    });
    o.execute(&e, op).unwrap();
    e.force_log().unwrap();
    let backup_id = run.backup_id();
    run.abort(e.coordinator());
    e.release_backup(backup_id);
    e.crash();
    e.recover().unwrap();
    o.verify_store(&e, e.log().durable_lsn()).unwrap();

    // A fresh backup after recovery still protects against media failure.
    let mut run = e.begin_backup(2).unwrap();
    while !e.backup_step(&mut run).unwrap() {}
    let image = e.complete_backup(run).unwrap();
    let op = OpBody::Logical(LogicalOp::Copy {
        src: PageId::new(0, 30),
        dst: PageId::new(0, 31),
    });
    o.execute(&e, op).unwrap();
    e.flush_all().unwrap();
    e.store().fail_partition(PartitionId(0)).unwrap();
    e.media_recover(&image).unwrap();
    o.verify_store(&e, lob_core::Lsn::MAX).unwrap();
}

#[test]
fn log_truncation_never_breaks_crash_recovery() {
    let e = engine(32);
    let mut o = ShadowOracle::new(128);
    let mut g = WorkloadGen::new(13, 128);
    let pages: Vec<PageId> = (0..32).map(|i| PageId::new(0, i)).collect();
    for _ in 0..30 {
        let op = g.mix(&pages, 2, 2);
        o.execute(&e, op).unwrap();
        // Aggressive flushing + truncation after every op.
        let dirty = e.cache().dirty_pages();
        for p in dirty {
            e.flush_page(p).unwrap();
        }
        e.truncate_log().unwrap();
    }
    e.force_log().unwrap();
    let durable = e.log().durable_lsn();
    e.crash();
    e.recover().unwrap();
    o.verify_store(&e, durable).unwrap();
}

#[test]
fn allocator_reseeds_after_recovery() {
    let e = Engine::new(EngineConfig {
        discipline: Discipline::Tree,
        ..EngineConfig::single(32, 128)
    })
    .unwrap();
    let a = e.alloc_page(PartitionId(0)).unwrap();
    e.execute(OpBody::PhysicalWrite {
        target: a,
        value: Bytes::from(vec![1u8; 128]),
    })
    .unwrap();
    e.flush_all().unwrap();
    e.crash();
    e.recover().unwrap();
    let b = e.alloc_page(PartitionId(0)).unwrap();
    assert!(
        b.index > a.index,
        "allocator must not reuse recovered pages"
    );
}

#[test]
fn crash_redo_consults_each_first_touched_page_once() {
    // A mixed suffix over 32 pages, some of them flushed before the crash,
    // so redo both replays and skips. Every page redo touches is read from
    // the store exactly once — its LSN test and any later read of its value
    // share that one `PageRead` consult.
    let e = engine(32);
    let mut o = ShadowOracle::new(128);
    let mut g = WorkloadGen::new(11, 128);
    let pages: Vec<PageId> = (0..32).map(|i| PageId::new(0, i)).collect();
    for i in 0..96 {
        let p = pages[g.below(pages.len())];
        let op = match g.below(3) {
            0 => g.mix(&pages, 2, 2),
            1 => g.physio(p),
            _ => g.physical(p),
        };
        o.execute(&e, op).unwrap();
        if i % 8 == 7 {
            e.flush_page(p).unwrap();
        }
    }
    e.force_log().unwrap();
    let durable = e.log().durable_lsn();
    e.crash();
    let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let log = seen.clone();
    e.install_fault_hook(Some(std::sync::Arc::new(move |event, page| {
        if let (lob_pagestore::IoEvent::PageRead, Some(page)) = (event, page) {
            log.lock().unwrap().push(page);
        }
        lob_pagestore::FaultVerdict::Proceed
    })));
    let outcome = e.recover().unwrap();
    e.install_fault_hook(None);
    o.verify_store(&e, durable).unwrap();
    assert!(outcome.skipped > 0 && outcome.replayed > 0, "{outcome:?}");
    let mut consulted = seen.lock().unwrap().clone();
    let total = consulted.len();
    consulted.sort_unstable();
    consulted.dedup();
    assert_eq!(consulted.len(), total, "no page is consulted twice");
    // The count the full-page first touch made before redo probed LSNs.
    assert_eq!(total, 32);
}
