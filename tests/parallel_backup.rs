//! Cross-crate integration: the partition-parallel backup pipeline
//! (§3.4) — threaded sweep workers, batched page copies, and the group
//! log-force policy.

use lob_core::{
    BackupPolicy, Discipline, DomainId, Engine, EngineConfig, FlushPolicy, GraphMode, LogBacking,
    Lsn, PageId, PartitionId, PartitionSpec, Tracking,
};
use lob_harness::{combine_images, Drill, FaultKind, ShadowOracle, WorkloadGen};
use std::sync::Arc;

const PARTITIONS: u32 = 4;
const PAGES: u32 = 48;
const PAGE_SIZE: usize = 64;

fn multi(flush_policy: FlushPolicy) -> (Engine, ShadowOracle, WorkloadGen) {
    let e = Engine::new(EngineConfig {
        page_size: PAGE_SIZE,
        partitions: (0..PARTITIONS)
            .map(|_| PartitionSpec { pages: PAGES })
            .collect(),
        discipline: Discipline::General,
        graph_mode: GraphMode::Refined,
        tracking: Tracking::PerPartition,
        cache_capacity: None,
        policy: BackupPolicy::Protocol,
        log: LogBacking::Memory,
        commit: lob_core::CommitConfig::with_policy(flush_policy),
        ..EngineConfig::small()
    })
    .unwrap();
    let mut o = ShadowOracle::new(PAGE_SIZE);
    let mut g = WorkloadGen::new(71, PAGE_SIZE);
    for p in 0..PARTITIONS {
        for i in 0..PAGES {
            let op = g.physical(PageId::new(p, i));
            o.execute(&e, op).unwrap();
        }
    }
    e.flush_all().unwrap();
    (e, o, g)
}

/// Partition-confined update traffic (per-partition tracking rejects
/// cross-partition operations by design).
fn confined_ops(e: &mut Engine, o: &mut ShadowOracle, g: &mut WorkloadGen, n: u32) {
    for _ in 0..n {
        let p = g.below(PARTITIONS as usize) as u32;
        let pages: Vec<PageId> = (0..PAGES).map(|i| PageId::new(p, i)).collect();
        let op = if g.chance(0.5) {
            g.mix(&pages, 2, 2)
        } else {
            let victim = pages[g.below(pages.len())];
            g.physio(victim)
        };
        o.execute(e, op).unwrap();
        if g.chance(0.4) {
            let dirty = e.cache().dirty_pages();
            if !dirty.is_empty() {
                let victim = dirty[g.below(dirty.len())];
                e.flush_page(victim).unwrap();
            }
        }
    }
}

#[test]
fn parallel_backup_images_restore_after_total_media_loss() {
    let (mut e, mut o, mut g) = multi(FlushPolicy::Exact);
    confined_ops(&mut e, &mut o, &mut g, 40);

    let images = e.parallel_backup(4, 8).unwrap();
    assert_eq!(images.len(), PARTITIONS as usize);
    let copied: u32 = images.iter().map(|i| i.page_count() as u32).sum();
    assert_eq!(
        copied,
        PARTITIONS * PAGES,
        "full parallel sweep copies everything"
    );

    // Keep updating after the backup; the roll-forward must cover it.
    confined_ops(&mut e, &mut o, &mut g, 24);
    e.flush_all().unwrap();

    let combined = combine_images(&images).unwrap();
    for p in 0..PARTITIONS {
        e.store().fail_partition(PartitionId(p)).unwrap();
    }
    e.media_recover(&combined).unwrap();
    o.verify_store(&e, Lsn::MAX).unwrap();
}

#[test]
fn batched_and_single_step_parallel_images_bit_identical() {
    // Over a quiescent store, the batched parallel sweep and the
    // one-page-per-round-trip sweep must produce bit-identical images —
    // the integration-level batching regression.
    let (mut e, mut o, mut g) = multi(FlushPolicy::Exact);
    confined_ops(&mut e, &mut o, &mut g, 30);
    e.flush_all().unwrap();

    let singles = e.parallel_backup(4, 1).unwrap();
    for batch in [2u32, 16, 64] {
        let batched = e.parallel_backup(4, batch).unwrap();
        assert_eq!(batched.len(), singles.len());
        for (a, b) in singles.iter().zip(batched.iter()) {
            assert_eq!(a.page_count(), b.page_count(), "batch={batch}");
            for (id, pa) in a.pages.iter() {
                let pb = b.pages.get(id).unwrap();
                assert_eq!(pa.lsn(), pb.lsn(), "batch={batch} page={id}");
                assert_eq!(pa.data(), pb.data(), "batch={batch} page={id}");
            }
        }
    }
}

#[test]
fn threaded_sweep_workers_race_a_live_writer() {
    let (mut e, mut o, mut g) = multi(FlushPolicy::Exact);
    confined_ops(&mut e, &mut o, &mut g, 20);
    e.flush_all().unwrap();

    // One run per domain, one worker thread per run, racing the writer on
    // this thread — the live §3.4 concurrency.
    let mut runs = Vec::new();
    for d in 0..e.coordinator().domain_count() {
        runs.push(e.begin_backup_of(DomainId(d), 6).unwrap());
    }
    let coordinator = Arc::clone(e.coordinator());
    let store = Arc::clone(e.store());
    let handles: Vec<_> = runs
        .into_iter()
        .map(|mut run| {
            let c = Arc::clone(&coordinator);
            let s = Arc::clone(&store);
            std::thread::spawn(move || {
                while !run.step_batch(&c, &s, 8).unwrap() {}
                run
            })
        })
        .collect();
    confined_ops(&mut e, &mut o, &mut g, 60);
    let mut images = Vec::new();
    for h in handles {
        let run = h.join().unwrap();
        images.push(e.complete_backup(run).unwrap());
    }
    e.flush_all().unwrap();
    o.verify_store(&e, Lsn::MAX).unwrap();

    // The fuzzy images taken under race restore the store.
    let combined = combine_images(&images).unwrap();
    for p in 0..PARTITIONS {
        e.store().fail_partition(PartitionId(p)).unwrap();
    }
    e.media_recover(&combined).unwrap();
    o.verify_store(&e, Lsn::MAX).unwrap();
}

#[test]
fn group_force_policy_amortizes_forces_and_stays_recoverable() {
    // Identical workloads under Exact and Group forcing: Group must reach
    // the same verified state with strictly fewer force round-trips.
    let (mut exact, mut oe, mut ge) = multi(FlushPolicy::Exact);
    confined_ops(&mut exact, &mut oe, &mut ge, 80);
    exact.flush_all().unwrap();
    oe.verify_store(&exact, Lsn::MAX).unwrap();
    let exact_forces = exact.log().stats().forces;

    let (mut group, mut og, mut gg) = multi(FlushPolicy::Group);
    confined_ops(&mut group, &mut og, &mut gg, 80);
    group.flush_all().unwrap();
    og.verify_store(&group, Lsn::MAX).unwrap();
    let gstats = group.log().stats().clone();
    assert!(
        gstats.forces < exact_forces,
        "group forcing must amortize: {} group vs {} exact forces",
        gstats.forces,
        exact_forces
    );
    assert!(
        gstats.forced_frames >= gstats.forces,
        "each force persists at least one frame"
    );

    // Lost-tail semantics are unchanged: crash, recover, verify at the
    // durable prefix.
    let durable = group.log().durable_lsn();
    group.crash();
    group.recover().unwrap();
    og.verify_store(&group, durable).unwrap();
}

#[test]
fn parallel_drill_smoke_with_at_least_two_workers() {
    use FaultKind::{CorruptWriteAt, CrashAt, MediaFailAt};
    let drill = Drill {
        partitions: 2,
        ..Drill::sweeps(5)
    };
    let report = drill
        .sweep(&[CrashAt, MediaFailAt, CorruptWriteAt], 4)
        .unwrap();
    assert!(report.divergences().is_empty(), "{report}");
    assert_eq!(report.cases.len(), 4);
    assert!(report.fired() > 0);
}
