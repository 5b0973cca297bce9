//! Cross-crate integration: online self-healing media recovery.
//!
//! The read path detects damage (checksum mismatches from torn or rotted
//! sectors, transient device errors), quarantines the page, and repairs it
//! on demand from the backup-generation catalog — fetch the page from the
//! newest generation, replay its logical dependency closure from that
//! generation's redo-start LSN in scratch, verify, un-quarantine. Older
//! generations back up a corrupt newest one; a page no generation can
//! rebuild degrades to a typed `Unrepairable` without poisoning anything
//! else. The drill at the bottom hammers all of this across the three
//! torture workloads and byte-verifies against the shadow oracle.

use bytes::Bytes;
use lob_core::{
    Discipline, Engine, EngineConfig, EngineError, EngineStats, OpBody, Page, PageId,
    PartitionSpec, Tracking,
};
use lob_harness::{Drill, FaultKind, OpLoop, Path, Scenario};
use lob_pagestore::fault::{FaultVerdict, IoEvent};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const PAGE_SIZE: usize = 32;

fn phys(p: PageId, fill: u8) -> OpBody {
    OpBody::PhysicalWrite {
        target: p,
        value: Bytes::from(vec![fill; PAGE_SIZE]),
    }
}

fn pid(i: u32) -> PageId {
    PageId::new(0, i)
}

/// A hook drawing `verdict` on the first stable-store read of `target`.
fn once_read_hook(target: PageId, verdict: FaultVerdict) -> lob_pagestore::FaultHook {
    let fired = AtomicBool::new(false);
    Arc::new(move |ev, page| {
        if ev == IoEvent::PageRead && page == Some(target) && !fired.swap(true, Ordering::Relaxed) {
            verdict
        } else {
            FaultVerdict::Proceed
        }
    })
}

/// An engine whose cache holds a single page, so reads actually miss to
/// `S` — an unbounded cache never re-reads and damage would never surface.
fn tiny_cache_engine(pages: u32) -> Engine {
    Engine::new(EngineConfig {
        cache_capacity: Some(1),
        ..EngineConfig::single(pages, PAGE_SIZE)
    })
    .unwrap()
}

#[test]
fn audit_backup_flags_deliberately_corrupted_image_bytes() {
    let e = Engine::new(EngineConfig::single(8, PAGE_SIZE)).unwrap();
    for i in 0..8 {
        e.execute(phys(pid(i), i as u8 + 1)).unwrap();
    }
    let clean = e.offline_backup().unwrap();
    assert!(e.audit_backup(&clean).unwrap().is_empty());

    // Rot one page of the image itself (bit flip, LSN preserved): the
    // audit's restore-and-roll-forward must expose the byte difference.
    let mut rotten = clean.clone();
    let target = pid(3);
    let good = rotten.pages.get(target).unwrap().clone();
    let mut bytes = good.data().to_vec();
    bytes[0] ^= 0xFF;
    rotten
        .pages
        .put(target, Page::new(good.lsn(), Bytes::from(bytes)));
    assert_eq!(e.audit_backup(&rotten).unwrap(), vec![target]);
}

#[test]
fn repair_falls_back_past_a_corrupt_newest_generation() {
    let e = tiny_cache_engine(8);
    for i in 0..8 {
        e.execute(phys(pid(i), 1)).unwrap();
    }
    let old = e.offline_backup().unwrap();
    let old_id = old.backup_id;
    e.register_backup_generation(old).unwrap();
    e.execute(phys(pid(1), 2)).unwrap();
    let newer = e.offline_backup().unwrap();
    let newer_id = newer.backup_id;
    e.register_backup_generation(newer).unwrap();

    // Rot the newest generation's copy of page 1, then surface damage on
    // the live page through the public read path. Repair must try the
    // newest generation, reject it on checksum, and rebuild from the older
    // one by replaying the longer log suffix to the same final value.
    e.catalog().tamper_page(newer_id, pid(1)).unwrap();
    e.read_page(pid(0)).unwrap(); // evict page 1 from the one-slot cache
    e.install_fault_hook(Some(once_read_hook(pid(1), FaultVerdict::CorruptRead)));
    let healed = e.read_page(pid(1)).unwrap();
    e.install_fault_hook(None);
    assert_eq!(healed.data()[0], 2);
    assert_eq!(e.stats().repair_fallbacks, 1);
    assert_eq!(e.stats().repairs, 1);
    assert!(e.quarantined_pages().is_empty());
    let _ = (old_id, newer_id);
}

#[test]
fn repair_during_active_backup_sweep_keeps_the_image_sound() {
    let e = tiny_cache_engine(8);
    for i in 0..8 {
        e.execute(phys(pid(i), i as u8 + 1)).unwrap();
    }
    let base = e.offline_backup().unwrap();
    e.register_backup_generation(base).unwrap();

    // Advance an on-line sweep partway, heal a page mid-sweep, finish the
    // sweep: scratch-replay repair never exposes an intermediate
    // (backup-vintage) state to the fuzzy sweep, so the image stays sound.
    // Shrinking happens on dirtying, not on hits: one more write-and-flush
    // cycles the one-slot cache so page 6 is genuinely non-resident.
    e.execute(phys(pid(0), 1)).unwrap();
    e.flush_page(pid(0)).unwrap();

    let mut run = e.begin_backup(4).unwrap();
    e.backup_step(&mut run).unwrap();
    e.install_fault_hook(Some(once_read_hook(pid(6), FaultVerdict::TornRead)));
    let healed = e.read_page(pid(6)).unwrap();
    e.install_fault_hook(None);
    assert_eq!(healed.data()[0], 7);
    assert!(e.stats().repairs >= 1);
    while !e.backup_step(&mut run).unwrap() {}
    let image = e.complete_backup(run).unwrap();
    assert!(e.audit_backup(&image).unwrap().is_empty());
}

#[test]
fn unrepairable_page_degrades_typed_without_poisoning_other_partitions() {
    let e = Engine::new(EngineConfig {
        cache_capacity: Some(1),
        partitions: vec![PartitionSpec { pages: 8 }, PartitionSpec { pages: 8 }],
        tracking: Tracking::PerPartition,
        ..EngineConfig::single(8, PAGE_SIZE)
    })
    .unwrap();
    for part in 0..2 {
        for i in 0..8 {
            e.execute(phys(PageId::new(part, i), i as u8 + 1)).unwrap();
        }
    }
    let image = e.offline_backup().unwrap();
    let gen = image.backup_id;
    e.register_backup_generation(image).unwrap();

    // Evict everything from the one-slot cache (shrinking happens on
    // dirtying), so reads below genuinely miss to `S`.
    e.execute(phys(PageId::new(0, 0), 9)).unwrap();
    e.flush_page(PageId::new(0, 0)).unwrap();

    // Rot the only generation's copy of (1,3): no good copy survives
    // anywhere, so repair exhausts the chain and reports it typed.
    let victim = PageId::new(1, 3);
    e.catalog().tamper_page(gen, victim).unwrap();
    e.install_fault_hook(Some(once_read_hook(victim, FaultVerdict::CorruptRead)));
    assert!(matches!(
        e.read_page(victim),
        Err(EngineError::Unrepairable(p)) if p == victim
    ));
    e.install_fault_hook(None);
    assert_eq!(e.quarantined_pages(), vec![victim]);
    assert!(matches!(
        e.read_page(victim),
        Err(EngineError::Unrepairable(p)) if p == victim
    ));

    // Every other page — in both partitions — keeps serving.
    assert_eq!(e.read_page(PageId::new(0, 3)).unwrap().data()[0], 4);
    assert_eq!(e.read_page(PageId::new(1, 4)).unwrap().data()[0], 5);

    // A full overwrite is new data for the slot: it heals the quarantine.
    e.execute(phys(victim, 0x5A)).unwrap();
    e.flush_page(victim).unwrap();
    assert!(e.quarantined_pages().is_empty());
    assert_eq!(e.read_page(victim).unwrap().data()[0], 0x5A);
}

#[test]
fn read_fault_drill_heals_at_scale_across_workloads() {
    // The acceptance drill: corrupt, torn, and transient read faults armed
    // round-robin at >= 100 sampled event indices across the three
    // workload shapes. The engine must never abort on a repairable page:
    // every case settles on the clean path, ends with zero quarantined
    // pages, and byte-matches the shadow oracle.
    use FaultKind::{CorruptReadAt, TornReadAt, TransientReadAt};
    let mut cases = Vec::new();
    for drill in [
        Drill::ops(0xD0C1, Discipline::General),
        Drill::ops(0xD0C2, Discipline::Tree),
        Drill::backup(0xD0C3),
    ] {
        let arms = [CorruptReadAt, TornReadAt, TransientReadAt];
        let drill = Drill {
            scenario: Scenario::Ops(OpLoop::HEALING),
            ..drill
        };
        cases.extend(drill.sweep(&arms, 40).unwrap().cases);
    }
    for case in &cases {
        assert_eq!(
            case.path,
            Ok(Path::Clean),
            "a repairable read fault must heal online: {case}"
        );
        assert_eq!(case.counters.quarantined, 0, "{case}");
    }
    let sum = |f: fn(&EngineStats) -> u64| cases.iter().map(|c| f(&c.counters.stats)).sum::<u64>();
    let (repairs, transient_retries) = (sum(|s| s.repairs), sum(|s| s.transient_retries));
    let fired = cases.iter().filter(|c| c.fired.is_some()).count();
    assert!(
        cases.len() >= 100,
        "want >= 100 sampled read events, got {}",
        cases.len()
    );
    assert!(fired >= 30, "most armed read faults must draw, got {fired}");
    assert!(
        repairs >= 10,
        "corrupt/torn cases must repair online, got {repairs}"
    );
    assert!(
        transient_retries >= 5,
        "transient cases must retry under backoff, got {transient_retries}"
    );
}
