//! Self-healing and instant restore through concurrent [`Session`]s.
//!
//! The heal policy and the instant-restore epoch live in the
//! [`EngineService`], so every session gets them: a session that reads a
//! damaged page repairs it online instead of surfacing
//! [`lob_core::EngineError::Quarantined`], and a media-failed service
//! keeps serving while its segments come back. Both tests race two
//! session threads and check the store against the sequential shadow
//! oracle (the per-session logs merged in LSN order).

use bytes::Bytes;
use lob_core::{
    EngineConfig, EngineService, Lsn, OpBody, PageId, PartitionId, PartitionSpec, Session, Tracking,
};
use lob_harness::{verify_epoch_close, ShadowOracle, WorkloadGen};
use lob_pagestore::{FaultVerdict, IoEvent};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::Arc;

const PAGE_SIZE: usize = 64;
const PAGES: u32 = 16;

fn service(partitions: u32, tracking: Tracking) -> Arc<EngineService> {
    Arc::new(
        EngineService::new(EngineConfig {
            page_size: PAGE_SIZE,
            partitions: vec![PartitionSpec { pages: PAGES }; partitions as usize],
            tracking,
            ..EngineConfig::small()
        })
        .unwrap(),
    )
}

/// Write every page of every partition once through one session and
/// mirror it into the oracle.
fn prefill(svc: &Arc<EngineService>, partitions: u32, oracle: &mut ShadowOracle) {
    let session = svc.session();
    let mut gen = WorkloadGen::new(0x5E55, PAGE_SIZE);
    for p in 0..partitions {
        for i in 0..PAGES {
            let body = gen.physical(PageId::new(p, i));
            let lsn = session.execute(body.clone()).unwrap();
            oracle.apply(lsn, &body).unwrap();
        }
    }
    session.commit().unwrap();
}

/// Run `work` on two session threads; merge their `(lsn, body)` logs into
/// the oracle in LSN order.
fn race(
    svc: &Arc<EngineService>,
    oracle: &mut ShadowOracle,
    work: impl Fn(usize, &Session) -> Vec<(Lsn, OpBody)> + Sync,
    mut beside: impl FnMut(),
) {
    let sessions: Vec<Session> = (0..2).map(|_| svc.session()).collect();
    let mut merged: Vec<(Lsn, OpBody)> = std::thread::scope(|s| {
        let work = &work;
        let threads: Vec<_> = sessions
            .into_iter()
            .enumerate()
            .map(|(t, session)| s.spawn(move || work(t, &session)))
            .collect();
        beside();
        threads
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    merged.sort_by_key(|(lsn, _)| *lsn);
    for (lsn, body) in &merged {
        oracle.apply(*lsn, body).unwrap();
    }
}

#[test]
fn sessions_heal_pages_corrupted_in_s() {
    let svc = service(2, Tracking::PerPartition);
    let mut oracle = ShadowOracle::new(PAGE_SIZE);
    prefill(&svc, 2, &mut oracle);
    let image = svc.offline_backup().unwrap();
    svc.register_backup_generation(image).unwrap();
    // Every page's stored bytes rot under its first read from `S`.
    let rotted: Arc<Mutex<BTreeSet<PageId>>> = Arc::default();
    let seen = Arc::clone(&rotted);
    svc.install_fault_hook(Some(Arc::new(move |ev, page| match page {
        Some(p) if ev == IoEvent::PageRead && seen.lock().insert(p) => FaultVerdict::CorruptRead,
        _ => FaultVerdict::Proceed,
    })));
    svc.cache().clear();
    let prefilled = oracle.state_at(Lsn::MAX);
    // Session `t` owns partition `t`: it reads pages 0..8 (each rots and
    // must come back with its prefill bytes), and copies each of pages
    // 8..16 — rotting under the copy's evaluation — over one of them.
    race(
        &svc,
        &mut oracle,
        |t, session| {
            let mut logged = Vec::new();
            for i in 0..8 {
                let read = PageId::new(t as u32, i);
                let page = session.read_page(read).unwrap();
                assert_eq!(Some(page.data()), prefilled.get(&read), "{read}");
                let body = OpBody::Logical(lob_core::LogicalOp::Copy {
                    src: PageId::new(t as u32, i + 8),
                    dst: read,
                });
                logged.push((session.execute(body.clone()).unwrap(), body));
                session.commit().unwrap();
            }
            logged
        },
        || {},
    );
    svc.install_fault_hook(None);
    assert_eq!(rotted.lock().len(), 32, "every page rotted once");
    let stats = svc.stats();
    assert_eq!(stats.repairs, 32, "{stats:?}");
    assert!(svc.quarantined_pages().is_empty());
    svc.flush_all().unwrap();
    oracle.verify_store(&svc, Lsn::MAX).unwrap();
}

#[test]
fn sessions_serve_cross_partition_ops_through_an_instant_restore_epoch() {
    const PARTS: u32 = 4;
    let svc = service(
        PARTS,
        Tracking::Sequential((0..PARTS).map(PartitionId).collect()),
    );
    let mut oracle = ShadowOracle::new(PAGE_SIZE);
    prefill(&svc, PARTS, &mut oracle);
    let image = svc.offline_backup().unwrap();
    let generation = image.backup_id;
    svc.register_backup_generation(image).unwrap();
    svc.extend_backup_archive(generation).unwrap();
    // A logged tail past the backup, flushed, then total media loss.
    let tail = svc.session();
    for p in 0..PARTS {
        let body = OpBody::PhysicalWrite {
            target: PageId::new(p, 0),
            value: Bytes::from(vec![0xA0 + p as u8; PAGE_SIZE]),
        };
        oracle
            .apply(tail.execute(body.clone()).unwrap(), &body)
            .unwrap();
    }
    drop(tail);
    svc.flush_all().unwrap();
    for p in 0..PARTS {
        svc.store().fail_partition(PartitionId(p)).unwrap();
    }
    svc.begin_instant_restore().unwrap();
    assert_eq!(svc.instant_pending(), PARTS as usize);
    let before = svc.stats().ops_executed;
    // Each session mixes two pages of one partition into two of another;
    // once the first of them has run, the main thread steps the
    // background sweep.
    race(
        &svc,
        &mut oracle,
        |t, session| {
            let mut gen = WorkloadGen::new(0xE90C + t as u64, PAGE_SIZE);
            let mut logged = Vec::new();
            for i in 0..24u32 {
                let p = (t as u32 + i) % PARTS;
                let q = (p + 1 + i % (PARTS - 1)) % PARTS;
                // Page 0 and a non-zero page of each: distinct by
                // construction, and touching both partitions.
                let j = 1 + gen.below(PAGES as usize - 1) as u32;
                let k = 1 + gen.below(PAGES as usize - 1) as u32;
                let pages = [
                    PageId::new(p, 0),
                    PageId::new(p, j),
                    PageId::new(q, 0),
                    PageId::new(q, k),
                ];
                let body = gen.mix(&pages, 2, 2);
                logged.push((session.execute(body.clone()).unwrap(), body));
                session.commit().unwrap();
            }
            logged
        },
        || {
            while svc.stats().ops_executed == before {
                std::thread::yield_now();
            }
            while svc.instant_restore_active() {
                svc.instant_restore_step().unwrap();
                std::thread::yield_now();
            }
        },
    );
    assert!(!svc.instant_restore_active());
    let stats = svc.stats();
    assert_eq!(stats.instant_completions, 1, "{stats:?}");
    assert!(
        stats.instant_on_demand >= 2,
        "the first op's segments: {stats:?}"
    );
    assert_eq!(
        stats.instant_on_demand + stats.instant_swept,
        u64::from(PARTS),
        "{stats:?}"
    );
    verify_epoch_close(&svc).unwrap();
    oracle.verify_store(&svc, Lsn::MAX).unwrap();
}
