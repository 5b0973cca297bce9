//! The one-session engine, and the linked-flush baseline's run.

use crate::error::EngineError;
use crate::service::EngineService;
use crate::EngineConfig;
use lob_cache::ShardedCache;
use lob_pagestore::witness::Mutex;
use lob_pagestore::{Lsn, PageId, PageImage};
use std::ops::Deref;
use std::sync::Arc;

/// The engine as one session: an [`EngineService`] built for a single
/// caller — one cache shard, a closed gather window — so nobody contends
/// for a shard or joins its commit group, and every force is exactly the
/// one the WAL rule asks for. Every verb, self-healing and instant restore
/// included, is the service's, reached through `Deref`; the inner handle
/// is the same service a harness or a [`crate::Session`] can share.
pub struct Engine(pub Arc<EngineService>);

impl Deref for Engine {
    type Target = EngineService;

    fn deref(&self) -> &EngineService {
        &self.0
    }
}

impl Engine {
    /// Build an engine (fresh, formatted database).
    pub fn new(config: EngineConfig) -> Result<Engine, EngineError> {
        Ok(Engine(Arc::new(EngineService::build(config, false, true)?)))
    }

    /// Resume from an existing log file after a process restart (see
    /// [`EngineService::open_existing`]); [`EngineService::recover`]
    /// rebuilds `S` by replaying the entire surviving log.
    pub fn open_existing(config: EngineConfig) -> Result<Engine, EngineError> {
        Ok(Engine(Arc::new(EngineService::build(config, true, true)?)))
    }
}

/// Mirror just-flushed pages into every in-progress linked-flush backup
/// image, from the cache.
pub(crate) fn mirror_linked(
    images: &[(u64, Arc<Mutex<PageImage>>)],
    vars: &[PageId],
    cache: &ShardedCache,
) {
    for (_, img) in images {
        let mut g = img.lock();
        for &v in vars {
            if let Some(p) = cache.peek(v) {
                // lint:allow(durability-order) linked image mirrors the page just flushed, read from the cache, not the store
                g.put(v, p);
            }
        }
    }
}

/// An in-progress linked-flush backup (baseline).
pub struct LinkedBackupRun {
    pub(crate) backup_id: u64,
    pub(crate) start_lsn: Lsn,
    pub(crate) todo: Vec<PageId>,
    pub(crate) cursor: usize,
    pub(crate) image: Arc<Mutex<PageImage>>,
}

impl LinkedBackupRun {
    /// The run's backup id.
    pub fn backup_id(&self) -> u64 {
        self.backup_id
    }

    /// Pages copied so far.
    pub fn pages_copied(&self) -> usize {
        self.cursor
    }

    /// Total pages to copy.
    pub fn pages_total(&self) -> usize {
        self.todo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Discipline, Tracking};
    use bytes::Bytes;
    use lob_backup::{BackupError, BackupImage, DomainId};
    use lob_ops::{LogicalOp, OpBody};
    use lob_pagestore::{PartitionId, StableStore, StoreConfig};
    use lob_recovery::RecoveryConfig;

    fn graph_is_empty(e: &Engine) -> bool {
        e.with_graph(DomainId(0), |g| g.is_empty()).unwrap()
    }

    fn pid(i: u32) -> PageId {
        PageId::new(0, i)
    }

    fn engine() -> Engine {
        Engine::new(EngineConfig::small()).unwrap()
    }

    fn phys(i: u32, fill: u8) -> OpBody {
        OpBody::PhysicalWrite {
            target: pid(i),
            value: Bytes::from(vec![fill; 256]),
        }
    }

    fn copy(src: u32, dst: u32) -> OpBody {
        OpBody::Logical(LogicalOp::Copy {
            src: pid(src),
            dst: pid(dst),
        })
    }

    #[test]
    fn execute_dirties_and_tracks() {
        let e = engine();
        let lsn = e.execute(phys(0, 7)).unwrap();
        assert_eq!(lsn, Lsn(1));
        assert!(e.cache().is_dirty(pid(0)));
        assert_eq!(e.with_graph(DomainId(0), |g| g.node_count()).unwrap(), 1);
        assert_eq!(e.read_page(pid(0)).unwrap().data()[0], 7);
        // Not yet in S.
        assert!(e.store().read_page(pid(0)).unwrap().lsn().is_null());
    }

    #[test]
    fn flush_page_installs_and_persists() {
        let e = engine();
        e.execute(phys(0, 7)).unwrap();
        e.flush_page(pid(0)).unwrap();
        assert!(!e.cache().is_dirty(pid(0)));
        assert!(graph_is_empty(&e));
        assert_eq!(e.store().read_page(pid(0)).unwrap().data()[0], 7);
        assert_eq!(e.stats().pages_flushed, 1);
    }

    #[test]
    fn flush_respects_write_graph_order() {
        let e = engine();
        e.execute(phys(0, 1)).unwrap();
        e.flush_page(pid(0)).unwrap();
        // copy(0 → 1), then overwrite 0: node(1) must flush before node(0).
        e.execute(copy(0, 1)).unwrap();
        e.execute(phys(0, 2)).unwrap();
        // Flushing page 0 must first flush page 1.
        e.flush_page(pid(0)).unwrap();
        assert_eq!(e.store().read_page(pid(1)).unwrap().data()[0], 1);
        assert_eq!(e.store().read_page(pid(0)).unwrap().data()[0], 2);
        assert!(graph_is_empty(&e));
    }

    #[test]
    fn crash_before_flush_recovers_via_log() {
        let e = engine();
        e.execute(phys(0, 9)).unwrap();
        e.execute(copy(0, 1)).unwrap();
        e.force_log().unwrap();
        e.crash();
        assert!(e.store().read_page(pid(1)).unwrap().lsn().is_null());
        let out = e.recover().unwrap();
        assert_eq!(out.replayed, 2);
        assert_eq!(e.store().read_page(pid(0)).unwrap().data()[0], 9);
        assert_eq!(e.store().read_page(pid(1)).unwrap().data()[0], 9);
    }

    #[test]
    fn crash_loses_unforced_tail() {
        let e = engine();
        e.execute(phys(0, 9)).unwrap();
        // Not forced: the operation is lost at the crash.
        e.crash();
        let out = e.recover().unwrap();
        assert_eq!(out.replayed + out.skipped, 0);
        assert!(e.store().read_page(pid(0)).unwrap().lsn().is_null());
    }

    #[test]
    fn wal_protocol_is_automatic_on_flush() {
        let e = engine();
        e.execute(phys(0, 9)).unwrap();
        // flush_page forces the log itself; no explicit force needed.
        e.flush_page(pid(0)).unwrap();
        e.crash();
        let out = e.recover().unwrap();
        assert_eq!(out.skipped, 1, "already installed");
        assert_eq!(e.store().read_page(pid(0)).unwrap().data()[0], 9);
    }

    #[test]
    fn flush_all_drains_and_truncates() {
        let e = engine();
        for i in 0..8 {
            e.execute(phys(i, i as u8)).unwrap();
            e.execute(copy(i, i + 8)).unwrap();
        }
        e.flush_all().unwrap();
        assert!(graph_is_empty(&e));
        assert_eq!(e.cache().dirty_count(), 0);
        assert_eq!(e.log().truncation(), e.log().next_lsn());
    }

    #[test]
    fn tree_discipline_enforced() {
        let e = Engine::new(EngineConfig {
            discipline: Discipline::Tree,
            ..EngineConfig::small()
        })
        .unwrap();
        // Mix is irreducibly general → rejected.
        let mix = OpBody::Logical(LogicalOp::Mix {
            reads: vec![pid(0)],
            writes: vec![pid(1)],
            salt: 0,
        });
        assert!(matches!(e.execute(mix), Err(EngineError::Discipline(_))));
        // Copy into a fresh page is a write-new tree op → accepted.
        e.execute(phys(0, 1)).unwrap();
        e.execute(copy(0, 1)).unwrap();
        // Copy onto an already-updated page → rejected.
        assert!(matches!(
            e.execute(copy(0, 1)),
            Err(EngineError::Discipline(_))
        ));
    }

    #[test]
    fn page_oriented_discipline_rejects_logical() {
        let e = Engine::new(EngineConfig {
            discipline: Discipline::PageOriented,
            ..EngineConfig::small()
        })
        .unwrap();
        assert!(matches!(
            e.execute(copy(0, 1)),
            Err(EngineError::Discipline(_))
        ));
        e.execute(phys(0, 1)).unwrap();
    }

    #[test]
    fn alloc_pages_are_fresh_and_sequential() {
        let e = engine();
        let a = e.alloc_page(PartitionId(0)).unwrap();
        let b = e.alloc_page(PartitionId(0)).unwrap();
        assert_eq!(a, pid(0));
        assert_eq!(b, pid(1));
        e.reserve_pages(PartitionId(0), 10);
        assert_eq!(e.alloc_page(PartitionId(0)).unwrap(), pid(10));
    }

    #[test]
    fn online_backup_with_iwof_supports_media_recovery() {
        let e = engine();
        // Dirty some state and flush it so S has content.
        for i in 0..8 {
            e.execute(phys(i, i as u8 + 1)).unwrap();
        }
        e.flush_all().unwrap();

        let mut run = e.begin_backup(4).unwrap();
        // Interleave: update pages already copied (forcing Done/Doubt
        // flushes → Iw/oF).
        e.backup_step(&mut run).unwrap(); // copies pages 0..16
        e.execute(copy(0, 20)).unwrap();
        e.execute(phys(0, 99)).unwrap();
        e.flush_page(pid(0)).unwrap(); // page 0 is Done → Iw/oF
        assert!(e.stats().iwof_records >= 1, "Done flush logged identity");
        while !e.backup_step(&mut run).unwrap() {}
        let image = e.complete_backup(run).unwrap();

        // More updates after the backup.
        e.execute(phys(5, 55)).unwrap();
        e.flush_page(pid(5)).unwrap();

        // Media failure → restore → roll forward.
        e.store().fail_partition(PartitionId(0)).unwrap();
        e.media_recover(&image).unwrap();
        assert_eq!(e.store().read_page(pid(0)).unwrap().data()[0], 99);
        assert_eq!(e.store().read_page(pid(20)).unwrap().data()[0], 1);
        assert_eq!(e.store().read_page(pid(5)).unwrap().data()[0], 55);
    }

    #[test]
    fn offline_backup_restores_exactly() {
        let e = engine();
        for i in 0..4 {
            e.execute(phys(i, 0xA0 + i as u8)).unwrap();
        }
        let image = e.offline_backup().unwrap();
        e.execute(phys(0, 0xFF)).unwrap();
        e.flush_all().unwrap();
        e.store().fail_partition(PartitionId(0)).unwrap();
        e.media_recover(&image).unwrap();
        // Roll-forward reapplies the later update too.
        assert_eq!(e.store().read_page(pid(0)).unwrap().data()[0], 0xFF);
        assert_eq!(e.store().read_page(pid(1)).unwrap().data()[0], 0xA1);
    }

    #[test]
    fn linked_backup_mirrors_flushes() {
        let e = engine();
        for i in 0..4 {
            e.execute(phys(i, 1 + i as u8)).unwrap();
        }
        e.flush_all().unwrap();
        let mut run = e.begin_linked_backup().unwrap();
        e.linked_step(&mut run, 10).unwrap();
        // A flush during the window lands in the image too.
        e.execute(phys(0, 0x77)).unwrap();
        e.flush_page(pid(0)).unwrap();
        while !e.linked_step(&mut run, 16).unwrap() {}
        let image = e.complete_linked_backup(run).unwrap();
        assert_eq!(
            image.pages.get(pid(0)).unwrap().data()[0],
            0x77,
            "linked flush updated the already-copied page"
        );
        // And it restores.
        e.store().fail_partition(PartitionId(0)).unwrap();
        e.media_recover(&image).unwrap();
        assert_eq!(e.store().read_page(pid(0)).unwrap().data()[0], 0x77);
    }

    #[test]
    fn incremental_backup_copies_only_changes() {
        let e = engine();
        for i in 0..8 {
            e.execute(phys(i, 1)).unwrap();
        }
        e.flush_all().unwrap();
        let mut run = e.begin_backup(2).unwrap();
        while !e.backup_step(&mut run).unwrap() {}
        let base = e.complete_backup(run).unwrap();

        // Change two pages.
        e.execute(phys(1, 2)).unwrap();
        e.execute(phys(3, 2)).unwrap();
        e.flush_all().unwrap();

        let mut irun = e.begin_incremental_backup(DomainId(0), 2, &base).unwrap();
        while !e.backup_step(&mut irun).unwrap() {}
        let incr = e.complete_backup(irun).unwrap();
        assert!(incr.incremental);
        assert_eq!(incr.page_count(), 2);

        let full = BackupImage::materialize(&base, &incr).unwrap();
        e.execute(phys(5, 9)).unwrap();
        e.flush_all().unwrap();
        e.store().fail_partition(PartitionId(0)).unwrap();
        e.media_recover(&full).unwrap();
        assert_eq!(e.store().read_page(pid(1)).unwrap().data()[0], 2);
        assert_eq!(e.store().read_page(pid(3)).unwrap().data()[0], 2);
        assert_eq!(e.store().read_page(pid(5)).unwrap().data()[0], 9);
    }

    #[test]
    fn abort_restores_incremental_changed_set() {
        let e = engine();
        e.execute(phys(0, 1)).unwrap();
        e.flush_all().unwrap();
        let mut run = e.begin_backup(1).unwrap();
        while !e.backup_step(&mut run).unwrap() {}
        let base = e.complete_backup(run).unwrap();
        e.execute(phys(2, 1)).unwrap();
        e.flush_all().unwrap();
        let before = e.coordinator().changed_count();
        let irun = e.begin_incremental_backup(DomainId(0), 2, &base).unwrap();
        assert_eq!(e.coordinator().changed_count(), 0);
        e.abort_backup(irun);
        assert_eq!(e.coordinator().changed_count(), before);
    }

    #[test]
    fn media_barrier_prevents_truncating_backup_log() {
        let e = engine();
        e.execute(phys(0, 1)).unwrap();
        e.flush_all().unwrap();
        let run = e.begin_backup(2).unwrap();
        let start = e.log().with_manager(|m| m.media_barrier()).unwrap();
        e.execute(phys(1, 1)).unwrap();
        e.flush_all().unwrap();
        assert!(
            e.log().truncation() <= start,
            "records the backup needs survive truncation"
        );
        e.abort_backup(run);
        e.flush_all().unwrap();
        assert!(e.log().with_manager(|m| m.media_barrier()).is_none());
    }

    #[test]
    fn install_without_flush_advances_truncation() {
        let e = engine();
        e.execute(phys(0, 1)).unwrap();
        e.execute(copy(0, 1)).unwrap();
        let before = e.truncate_log().unwrap();
        assert!(before <= Lsn(1), "uninstalled ops pin the log");
        // Identity-log the hot pages instead of flushing them.
        e.install_without_flush(pid(1)).unwrap();
        e.install_without_flush(pid(0)).unwrap();
        let after = e.truncate_log().unwrap();
        assert!(after > Lsn(2), "identity records released the old records");
        assert!(e.cache().is_dirty(pid(0)), "page stays hot and dirty");
        // Crash recovery works from the identity records alone.
        e.crash();
        e.recover().unwrap();
        assert_eq!(e.store().read_page(pid(0)).unwrap().data()[0], 1);
        assert_eq!(e.store().read_page(pid(1)).unwrap().data()[0], 1);
    }

    #[test]
    fn audit_backup_detects_good_and_stale_images() {
        let e = engine();
        for i in 0..4 {
            e.execute(phys(i, i as u8 + 1)).unwrap();
        }
        e.flush_all().unwrap();
        let mut run = e.begin_backup(2).unwrap();
        while !e.backup_step(&mut run).unwrap() {}
        let image = e.complete_backup(run).unwrap();
        assert!(
            e.audit_backup(&image).unwrap().is_empty(),
            "fresh image audits clean"
        );

        // Further updates: the audit rolls the image forward over the live
        // log, so it still audits clean.
        e.execute(phys(0, 0x77)).unwrap();
        e.flush_all().unwrap();
        assert!(e.audit_backup(&image).unwrap().is_empty());

        // A released backup whose log suffix was truncated fails loudly.
        e.release_backup(image.backup_id);
        e.flush_all().unwrap();
        e.execute(phys(1, 0x11)).unwrap();
        e.flush_all().unwrap();
        if e.log().truncation() > image.start_lsn {
            assert!(e.audit_backup(&image).is_err(), "truncated suffix detected");
        }
    }

    #[test]
    fn point_in_time_recovery_stops_at_target() {
        let e = engine();
        for i in 0..4 {
            e.execute(phys(i, 1)).unwrap();
        }
        e.flush_all().unwrap();
        let mut run = e.begin_backup(2).unwrap();
        while !e.backup_step(&mut run).unwrap() {}
        let image = e.complete_backup(run).unwrap();

        // Two epochs of post-backup updates.
        e.execute(phys(0, 0xAA)).unwrap();
        e.flush_all().unwrap();
        let epoch1 = e.log().durable_lsn();
        e.execute(phys(0, 0xBB)).unwrap();
        e.execute(copy(0, 9)).unwrap();
        e.flush_all().unwrap();

        // Recover to epoch 1: the 0xBB write and the copy are excluded.
        e.store().fail_partition(PartitionId(0)).unwrap();
        e.media_recover_to(&image, epoch1).unwrap();
        assert_eq!(e.store().read_page(pid(0)).unwrap().data()[0], 0xAA);
        assert!(e.store().read_page(pid(9)).unwrap().lsn().is_null());

        // Targets before the backup completed are rejected.
        assert!(matches!(
            e.media_recover_to(&image, Lsn(1)),
            Err(EngineError::Discipline(_))
        ));
    }

    #[test]
    fn file_backed_engine_survives_process_restart() {
        let dir = std::env::temp_dir().join(format!("lob-engine-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.wal");
        let config = EngineConfig {
            log: crate::config::LogBacking::File(path.clone()),
            ..EngineConfig::small()
        };
        {
            let e = Engine::new(config.clone()).unwrap();
            e.execute(phys(0, 7)).unwrap();
            e.execute(copy(0, 1)).unwrap();
            e.force_log().unwrap();
            // Process "dies" here: nothing flushed to S.
        }
        let e2 = Engine::open_existing(config).unwrap();
        e2.recover().unwrap();
        assert_eq!(e2.store().read_page(pid(0)).unwrap().data()[0], 7);
        assert_eq!(e2.store().read_page(pid(1)).unwrap().data()[0], 7);
        // LSNs continue above everything in the file.
        let lsn = e2.execute(phys(2, 1)).unwrap();
        assert!(lsn > Lsn(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flush_oldest_advances_truncation_fastest() {
        let e = engine();
        for i in 0..6 {
            e.execute(phys(i, 1)).unwrap();
        }
        let t0 = e.log().truncation();
        // Flushing the two oldest pages moves the truncation bound past
        // their records.
        let cleaned = e.flush_oldest(2).unwrap();
        assert_eq!(cleaned, 2);
        assert!(e.log().truncation() > t0);
        assert!(e.log().truncation() >= Lsn(3));
        assert_eq!(e.cache().dirty_count(), 4);
        // Budget larger than the dirty set drains it.
        assert_eq!(e.flush_oldest(100).unwrap(), 4);
        assert_eq!(e.log().truncation(), e.log().next_lsn());
    }

    #[test]
    fn regression_blind_steal_requires_thief_durability() {
        // Distilled from a shadow-oracle counterexample: op A writes {X, Y};
        // op B blind-writes Y (stealing it from A's node, not yet durable);
        // flushing A's node (now vars = {X}) then flushing an overwrite of
        // A's readset must force B's record first — otherwise a crash
        // leaves Y with no value anywhere (not in S; A's replay reads the
        // overwritten input; B's record is lost).
        let e = engine();
        e.execute(phys(0, 1)).unwrap(); // input page 0
        e.flush_all().unwrap();
        // A: reads {0}, writes {1, 2}.
        let a = OpBody::Logical(LogicalOp::Mix {
            reads: vec![pid(0)],
            writes: vec![pid(1), pid(2)],
            salt: 7,
        });
        e.execute(a.clone()).unwrap();
        let expect_y = e.read_page(pid(2)).unwrap().data().clone();
        // B: blind Mix stealing page 2 (reads 3, writes 2) — appended but
        // never explicitly forced.
        e.execute(OpBody::Logical(LogicalOp::Mix {
            reads: vec![pid(3)],
            writes: vec![pid(2)],
            salt: 8,
        }))
        .unwrap();
        let expect_y2 = e.read_page(pid(2)).unwrap().data().clone();
        // Flush A's node (vars = {1} after the steal)…
        e.flush_page(pid(1)).unwrap();
        // …and overwrite + flush A's input, destroying A's replayability.
        e.execute(phys(0, 0xEE)).unwrap();
        e.flush_page(pid(0)).unwrap();
        // Crash. The WAL floor must have made B's record durable when A's
        // node installed, so page 2 recovers to B's value.
        e.crash();
        e.recover().unwrap();
        let got = e.store().read_page(pid(2)).unwrap();
        assert_eq!(
            got.data(),
            &expect_y2,
            "stolen page recovered from the (forced) thief record"
        );
        let _ = expect_y;
    }

    #[test]
    fn regression_identity_backdating_on_replay() {
        // Distilled from a shadow-oracle counterexample: an identity record
        // is logged (at flush time) *after* an operation that read the
        // value it carries; replay must apply it at the covered write, not
        // at its own LSN.
        let e = engine();
        for i in 0..4 {
            e.execute(phys(i, i as u8 + 1)).unwrap();
        }
        e.flush_all().unwrap();
        let mut run = e.begin_backup(2).unwrap();
        e.backup_step(&mut run).unwrap(); // low half Done

        // W: writes page 1 (Done region) from page 3.
        e.execute(OpBody::Logical(LogicalOp::Mix {
            reads: vec![pid(3)],
            writes: vec![pid(1)],
            salt: 1,
        }))
        .unwrap();
        // R: reads the new page 1, writes page 40 (Pend region).
        e.execute(OpBody::Logical(LogicalOp::Mix {
            reads: vec![pid(1)],
            writes: vec![pid(40)],
            salt: 2,
        }))
        .unwrap();
        let expect_40 = e.read_page(pid(40)).unwrap().data().clone();
        // Flush page 40 first (its node precedes nothing), then page 1 —
        // page 1 is Done → identity write logged AFTER R's record.
        e.flush_page(pid(40)).unwrap();
        e.flush_page(pid(1)).unwrap();
        assert!(e.stats().iwof_records >= 1);
        // Overwrite page 3 (W's input) and flush, destroying W's replay.
        e.execute(phys(3, 0x99)).unwrap();
        e.flush_page(pid(3)).unwrap();

        while !e.backup_step(&mut run).unwrap() {}
        let image = e.complete_backup(run).unwrap();
        e.store().fail_partition(PartitionId(0)).unwrap();
        e.media_recover(&image).unwrap();
        assert_eq!(
            e.store().read_page(pid(40)).unwrap().data(),
            &expect_40,
            "R replays against the backdated identity value of page 1"
        );
    }

    #[test]
    fn partition_media_recovery_keeps_other_partitions_updates() {
        let e = Engine::new(EngineConfig {
            partitions: vec![PartitionSpec { pages: 8 }; 2],
            tracking: Tracking::PerPartition,
            ..EngineConfig::small()
        })
        .unwrap();
        let image = e.offline_backup().unwrap();
        // Unflushed updates in both partitions, then partition 1 fails.
        e.execute(page_at(0, 2, 0x20)).unwrap();
        e.execute(page_at(1, 5, 0x15)).unwrap();
        e.force_log().unwrap();
        e.store().fail_partition(PartitionId(1)).unwrap();
        e.media_recover_partition(&image, PartitionId(1)).unwrap();
        assert_eq!(e.read_page(PageId::new(1, 5)).unwrap().data()[0], 0x15);
        assert_eq!(e.read_page(PageId::new(0, 2)).unwrap().data()[0], 0x20);
        // Partition 0's update is still owed to S, so truncation keeps it.
        e.truncate_log().unwrap();
        e.crash();
        e.recover().unwrap();
        assert_eq!(e.read_page(PageId::new(0, 2)).unwrap().data()[0], 0x20);
    }

    #[test]
    fn a_synced_file_log_fsyncs_on_force_fresh_and_reopened() {
        let dir = std::env::temp_dir().join(format!("lob-fsync-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let config = EngineConfig {
            log: crate::config::LogBacking::File(dir.join("engine.wal")),
            commit: crate::config::CommitConfig {
                sync_file_log: true,
                ..Default::default()
            },
            ..EngineConfig::small()
        };
        for reopen in [false, true] {
            let e = if reopen {
                Engine::open_existing(config.clone()).unwrap()
            } else {
                Engine::new(config.clone()).unwrap()
            };
            e.execute(phys(0, 7)).unwrap();
            e.force_log().unwrap();
            assert!(e.log().stats().fsyncs > 0, "reopened: {reopen}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partition_recovery_requires_per_partition_tracking() {
        let e = engine();
        let img = e.offline_backup().unwrap();
        assert!(matches!(
            e.media_recover_partition(&img, PartitionId(0)),
            Err(EngineError::Discipline(_))
        ));
    }

    /// One deterministic session, crashed: every knob setting must recover
    /// it to the bytes and outcome of the record-at-a-time reference scan.
    fn crashed_session() -> Engine {
        let e = engine();
        for i in 0..6 {
            e.execute(phys(i, i as u8 + 1)).unwrap();
        }
        e.execute(copy(0, 8)).unwrap();
        e.execute(copy(8, 9)).unwrap();
        e.flush_page(pid(2)).unwrap();
        e.force_log().unwrap();
        e.crash();
        e
    }

    #[test]
    fn parallel_recover_matches_sequential_recover() {
        let crashed = crashed_session();
        let reference = StableStore::single(StoreConfig { page_size: 256 }, 64);
        reference
            .apply_image(&crashed.store().snapshot().unwrap())
            .unwrap();
        let records = crashed.log().scan_from(crashed.log().truncation()).unwrap();
        let want = lob_recovery::redo_scan(
            &records,
            &mut lob_recovery::StoreRedoTarget::new(&reference),
        )
        .unwrap();
        for recovery in [
            RecoveryConfig::default(),
            RecoveryConfig::new(1, 1),
            RecoveryConfig::new(2, 8),
            RecoveryConfig::new(4, 64),
        ] {
            let par = crashed_session();
            let got = par.parallel_recover_with(recovery).unwrap();
            assert_eq!(got, want, "{recovery:?}");
            for i in 0..64u32 {
                assert_eq!(
                    par.store().read_page(pid(i)).unwrap(),
                    reference.read_page(pid(i)).unwrap(),
                    "page {i} under {recovery:?}"
                );
            }
            assert_eq!(par.stats().recoveries, 1);
        }
    }

    #[test]
    fn parallel_restore_latest_uses_the_newest_generation() {
        let e = engine();
        for i in 0..6 {
            e.execute(phys(i, i as u8 + 1)).unwrap();
        }
        let image = e.offline_backup().unwrap();
        e.register_backup_generation(image).unwrap();
        // More work after the backup: the roll-forward must reapply it.
        e.execute(phys(1, 0xEE)).unwrap();
        e.execute(copy(1, 7)).unwrap();
        e.force_log().unwrap();
        let expect: Vec<_> = (0..8u32)
            .map(|i| e.read_page(pid(i)).unwrap().data().clone())
            .collect();
        e.store().fail_partition(PartitionId(0)).unwrap();
        e.cache().clear();
        let out = e
            .parallel_restore_latest_with(RecoveryConfig::new(4, 8))
            .unwrap();
        assert!(out.replayed > 0);
        assert_eq!(e.stats().media_recoveries, 1);
        for (i, want) in expect.iter().enumerate() {
            assert_eq!(
                e.store().read_page(pid(i as u32)).unwrap().data(),
                want,
                "page {i} after catalog-sourced parallel restore"
            );
        }
    }

    #[test]
    fn parallel_restore_latest_requires_a_generation() {
        let e = engine();
        assert!(matches!(
            e.parallel_restore_latest(),
            Err(EngineError::Backup(BackupError::BadState(_)))
        ));
    }

    // ------------------------------------------------------------------
    // Self-healing media recovery
    // ------------------------------------------------------------------

    use lob_pagestore::fault::{FaultVerdict, IoEvent};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// A hook drawing `verdict` on the first `PageRead` of `target` only.
    fn once_read_hook(target: PageId, verdict: FaultVerdict) -> lob_pagestore::FaultHook {
        let fired = AtomicBool::new(false);
        Arc::new(move |ev, page| {
            if ev == IoEvent::PageRead
                && page == Some(target)
                && !fired.swap(true, Ordering::Relaxed)
            {
                verdict
            } else {
                FaultVerdict::Proceed
            }
        })
    }

    /// An engine with 8 flushed pages and an offline backup registered as
    /// the newest repair generation.
    fn healing_engine() -> (Engine, u64) {
        let e = engine();
        for i in 0..8 {
            e.execute(phys(i, i as u8 + 1)).unwrap();
        }
        let image = e.offline_backup().unwrap();
        let gen = image.backup_id;
        e.register_backup_generation(image).unwrap();
        (e, gen)
    }

    #[test]
    fn empty_catalog_leaves_read_errors_untouched() {
        let e = engine();
        e.execute(phys(0, 7)).unwrap();
        e.flush_all().unwrap();
        e.cache().evict(pid(0)).unwrap();
        e.install_fault_hook(Some(once_read_hook(pid(0), FaultVerdict::CorruptRead)));
        assert!(matches!(
            e.read_page(pid(0)),
            Err(EngineError::Store(lob_pagestore::StoreError::Corrupt(p))) if p == pid(0)
        ));
        e.install_fault_hook(None);
        // And quarantine surfaces as its typed error, not a repair.
        e.store().quarantine_page(pid(0)).unwrap();
        e.cache().evict(pid(0)).unwrap();
        assert!(matches!(
            e.read_page(pid(0)),
            Err(EngineError::Quarantined(p)) if p == pid(0)
        ));
    }

    #[test]
    fn corrupt_read_self_heals_from_the_backup_chain() {
        let (e, gen) = healing_engine();
        e.cache().evict(pid(3)).unwrap();
        e.install_fault_hook(Some(once_read_hook(pid(3), FaultVerdict::CorruptRead)));
        let page = e.read_page(pid(3)).unwrap();
        assert_eq!(page.data()[0], 4, "healed read returns the current value");
        assert_eq!(e.stats().repairs, 1);
        assert_eq!(e.stats().quarantines, 1);
        assert!(e.quarantined_pages().is_empty());
        let _ = gen;
        // The stored copy is verifiably intact again.
        assert!(e.store().verify_pages().is_clean());
    }

    #[test]
    fn transient_read_retries_without_repair() {
        let (e, _) = healing_engine();
        e.cache().evict(pid(2)).unwrap();
        e.install_fault_hook(Some(once_read_hook(pid(2), FaultVerdict::TransientRead)));
        let page = e.read_page(pid(2)).unwrap();
        assert_eq!(page.data()[0], 3);
        assert_eq!(e.stats().transient_retries, 1);
        assert_eq!(e.stats().repairs, 0, "nothing was damaged");
    }

    #[test]
    fn repair_page_rebuilds_logical_closure_value() {
        let (e, gen) = healing_engine();
        // Post-backup logical history: copy 0 → 9, then overwrite 0. The
        // closure of 9 must pull in 0's *backup-vintage* copy, not current.
        e.execute(copy(0, 9)).unwrap();
        e.execute(phys(0, 0xEE)).unwrap();
        e.flush_all().unwrap();
        let want = e.read_page(pid(9)).unwrap().data().clone();
        e.cache().evict(pid(9)).unwrap();
        e.install_fault_hook(Some(once_read_hook(pid(9), FaultVerdict::TornRead)));
        let healed = e.read_page(pid(9)).unwrap();
        assert_eq!(healed.data(), &want);
        assert_eq!(e.store().read_page(pid(9)).unwrap().data(), &want);
        let _ = gen;
    }

    #[test]
    fn repair_falls_back_to_an_older_good_generation() {
        let e = engine();
        for i in 0..8 {
            e.execute(phys(i, 1)).unwrap();
        }
        let old = e.offline_backup().unwrap();
        let old_id = old.backup_id;
        e.register_backup_generation(old).unwrap();
        e.execute(phys(1, 2)).unwrap();
        let newer = e.offline_backup().unwrap();
        let newer_id = newer.backup_id;
        e.register_backup_generation(newer).unwrap();
        // Rot the newest generation's copy of page 1; repair must detect
        // the checksum mismatch and fall back to the older generation,
        // replaying the longer suffix to the same final value.
        e.catalog().tamper_page(newer_id, pid(1)).unwrap();
        e.store().quarantine_page(pid(1)).unwrap();
        let report = e.repair_page(pid(1)).unwrap();
        assert_eq!(report.generation_used, old_id);
        assert_eq!(report.generations_tried, vec![newer_id, old_id]);
        assert_eq!(e.stats().repair_fallbacks, 1);
        assert_eq!(e.store().read_page(pid(1)).unwrap().data()[0], 2);
    }

    #[test]
    fn unrepairable_page_stays_quarantined_without_poisoning_others() {
        let (e, gen) = healing_engine();
        // Rot the only generation's copy of page 5: no good copy survives.
        e.catalog().tamper_page(gen, pid(5)).unwrap();
        e.cache().evict(pid(5)).unwrap();
        e.install_fault_hook(Some(once_read_hook(pid(5), FaultVerdict::CorruptRead)));
        assert!(matches!(
            e.read_page(pid(5)),
            Err(EngineError::Unrepairable(p)) if p == pid(5)
        ));
        e.install_fault_hook(None);
        assert_eq!(e.quarantined_pages(), vec![pid(5)]);
        // Every other page keeps serving.
        assert_eq!(e.read_page(pid(4)).unwrap().data()[0], 5);
        // A later full overwrite heals the slot.
        e.execute(phys(5, 0x55)).unwrap();
        e.flush_page(pid(5)).unwrap();
        assert!(e.quarantined_pages().is_empty());
        assert_eq!(e.read_page(pid(5)).unwrap().data()[0], 0x55);
    }

    #[test]
    fn dirty_page_repairs_from_the_cache_not_the_chain() {
        let (e, _) = healing_engine();
        e.execute(phys(6, 0x66)).unwrap(); // dirty in cache
        let report = e.repair_page(pid(6)).unwrap();
        assert_eq!(report.generation_used, 0, "healed from the dirty copy");
        assert!(e.quarantined_pages().is_empty());
        assert_eq!(e.store().read_page(pid(6)).unwrap().data()[0], 0x66);
    }

    #[test]
    fn execute_heals_damaged_readset_pages() {
        let (e, _) = healing_engine();
        // Bounded cache forces the evaluation to re-read page 0 from S.
        e.cache().evict(pid(0)).unwrap();
        e.install_fault_hook(Some(once_read_hook(pid(0), FaultVerdict::CorruptRead)));
        let lsn = e.execute(copy(0, 10)).unwrap();
        assert!(!lsn.is_null());
        assert_eq!(e.read_page(pid(10)).unwrap().data()[0], 1);
        assert_eq!(e.stats().repairs, 1);
        assert_eq!(e.stats().ops_executed, 9, "8 setup writes + the copy");
    }

    #[test]
    fn transient_image_reads_retry_under_backoff() {
        let (e, _) = healing_engine();
        // Image fetches fail transiently twice, then succeed.
        let count = AtomicUsize::new(0);
        e.install_fault_hook(Some(Arc::new(move |ev, _| {
            if ev == IoEvent::ImageRead && count.fetch_add(1, Ordering::Relaxed) < 2 {
                FaultVerdict::TransientRead
            } else {
                FaultVerdict::Proceed
            }
        })));
        e.store().quarantine_page(pid(7)).unwrap();
        let report = e.repair_page(pid(7)).unwrap();
        assert_eq!(report.retries, 2);
        assert!(report.backoff_ticks > 0);
        assert_eq!(e.stats().transient_retries, 2);
        assert_eq!(e.store().read_page(pid(7)).unwrap().data()[0], 8);
    }

    #[test]
    fn repair_partition_scrubs_and_heals_everything() {
        let (e, gen) = healing_engine();
        e.store().quarantine_page(pid(1)).unwrap();
        e.store().quarantine_page(pid(2)).unwrap();
        let reports = e.repair_partition(PartitionId(0)).unwrap();
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.generation_used == gen));
        assert!(e.quarantined_pages().is_empty());
        assert_eq!(e.read_page(pid(1)).unwrap().data()[0], 2);
        assert_eq!(e.read_page(pid(2)).unwrap().data()[0], 3);
    }

    #[test]
    fn repair_during_active_backup_sweep_is_atomic() {
        let (e, _) = healing_engine();
        // Start an on-line sweep, advance it halfway…
        let mut run = e.begin_backup(4).unwrap();
        e.backup_step(&mut run).unwrap();
        // …heal a page in the already-copied region mid-sweep…
        e.cache().evict(pid(0)).unwrap();
        e.install_fault_hook(Some(once_read_hook(pid(0), FaultVerdict::CorruptRead)));
        assert_eq!(e.read_page(pid(0)).unwrap().data()[0], 1);
        e.install_fault_hook(None);
        assert!(e.quarantined_pages().is_empty());
        // …and the sweep completes into a restorable image: repair never
        // exposed an intermediate (backup-vintage) state to the sweep.
        while !e.backup_step(&mut run).unwrap() {}
        let image = e.complete_backup(run).unwrap();
        assert!(e.audit_backup(&image).unwrap().is_empty());
    }

    #[test]
    fn backup_sweep_copy_read_heals_online() {
        let (e, _) = healing_engine();
        // Damage surfaces under the sweep's own copy read of page 2: the
        // step fails, the engine repairs the page, and the retried step
        // (cursor untouched) re-copies identical bytes.
        e.cache().evict(pid(2)).unwrap();
        e.install_fault_hook(Some(once_read_hook(pid(2), FaultVerdict::CorruptRead)));
        let mut run = e.begin_backup(2).unwrap();
        while !e.backup_step(&mut run).unwrap() {}
        e.install_fault_hook(None);
        assert!(e.stats().repairs >= 1);
        assert!(e.quarantined_pages().is_empty());
        let image = e.complete_backup(run).unwrap();
        assert!(e.audit_backup(&image).unwrap().is_empty());
    }

    // ------------------------------------------------------------------
    // Instant restore (§5.13)
    // ------------------------------------------------------------------

    use lob_pagestore::PartitionSpec;
    use lob_recovery::SegmentState;

    fn page_at(p: u32, i: u32, fill: u8) -> OpBody {
        OpBody::PhysicalWrite {
            target: PageId::new(p, i),
            value: Bytes::from(vec![fill; 256]),
        }
    }

    /// A hook killing the process model at the first occurrence of
    /// `target` only.
    fn once_event_hook(target: IoEvent) -> lob_pagestore::FaultHook {
        let fired = AtomicBool::new(false);
        Arc::new(move |ev, _| {
            if ev == target && !fired.swap(true, Ordering::Relaxed) {
                FaultVerdict::Crash
            } else {
                FaultVerdict::Proceed
            }
        })
    }

    /// An engine over `parts` partitions with 8 flushed pages each
    /// (fill `p*8 + i + 1`), a full backup registered with a page-indexed
    /// archive, and a logged tail past the backup (page 0 of every
    /// partition overwritten with `0xA0 + p`).
    fn instant_engine(parts: u32) -> (Engine, u64) {
        let e = Engine::new(EngineConfig {
            partitions: (0..parts).map(|_| PartitionSpec { pages: 16 }).collect(),
            tracking: Tracking::Sequential((0..parts).map(PartitionId).collect()),
            ..EngineConfig::small()
        })
        .unwrap();
        for p in 0..parts {
            for i in 0..8 {
                e.execute(page_at(p, i, (p * 8 + i) as u8 + 1)).unwrap();
            }
        }
        let image = e.offline_backup().unwrap();
        let gen = image.backup_id;
        e.register_backup_generation(image).unwrap();
        e.extend_backup_archive(gen).unwrap();
        for p in 0..parts {
            e.execute(page_at(p, 0, 0xA0 + p as u8)).unwrap();
        }
        e.flush_all().unwrap();
        (e, gen)
    }

    fn fail_all(e: &Engine, parts: u32) {
        for p in 0..parts {
            e.store().fail_partition(PartitionId(p)).unwrap();
        }
    }

    #[test]
    fn instant_restore_serves_reads_and_writes_mid_epoch() {
        let (e, _) = instant_engine(4);
        fail_all(&e, 4);
        e.begin_instant_restore().unwrap();
        assert!(e.instant_restore_active());
        // A foreground read faults exactly its own segment in…
        assert_eq!(e.read_page(PageId::new(1, 0)).unwrap().data()[0], 0xA1);
        assert_eq!(
            e.instant_segment_state(PartitionId(1)),
            Some(SegmentState::Restored)
        );
        // …while unrequested segments stay failed: bounded degradation,
        // not a wait for the whole device.
        assert_eq!(
            e.instant_segment_state(PartitionId(2)),
            Some(SegmentState::Failed)
        );
        // A write is gated on every partition its sets touch.
        e.execute(OpBody::Logical(LogicalOp::Copy {
            src: PageId::new(0, 1),
            dst: PageId::new(2, 9),
        }))
        .unwrap();
        assert_eq!(
            e.instant_segment_state(PartitionId(0)),
            Some(SegmentState::Restored)
        );
        assert_eq!(
            e.instant_segment_state(PartitionId(2)),
            Some(SegmentState::Restored)
        );
        // The untouched fourth segment is left to the background sweep.
        assert_eq!(
            e.instant_segment_state(PartitionId(3)),
            Some(SegmentState::Failed)
        );
        e.instant_restore_drain().unwrap();
        assert!(!e.instant_restore_active());
        let s = e.stats();
        assert_eq!(s.instant_epochs, 1);
        assert_eq!(s.instant_completions, 1);
        assert_eq!(s.instant_on_demand, 3, "read + the write's two segments");
        assert_eq!(s.instant_swept, 1);
        // The copy executed against restored state: src held fill 2.
        assert_eq!(e.read_page(PageId::new(2, 9)).unwrap().data()[0], 2);
    }

    #[test]
    fn restored_segment_requests_are_noops_during_the_sweep() {
        let (e, _) = instant_engine(2);
        fail_all(&e, 2);
        e.begin_instant_restore().unwrap();
        e.read_page(PageId::new(0, 3)).unwrap();
        let first = e.instant_restore_stats().unwrap();
        assert_eq!(first.on_demand_restores, 1);
        // A second and third request for the same segment — the "racing
        // requests" shape, serialized here — must not restore it again.
        e.read_page(PageId::new(0, 5)).unwrap();
        e.read_page(PageId::new(0, 3)).unwrap();
        let second = e.instant_restore_stats().unwrap();
        assert_eq!(second.on_demand_restores, 1);
        assert_eq!(second.run_fetches, first.run_fetches);
        // The untouched segment is left to the background sweep.
        e.instant_restore_drain().unwrap();
        assert_eq!(e.stats().instant_swept, 1);
        assert_eq!(e.read_page(PageId::new(1, 0)).unwrap().data()[0], 0xA1);
    }

    #[test]
    fn corrupt_newest_archive_run_falls_back_a_generation() {
        let (e, _old_gen) = instant_engine(2);
        // A newer generation, also archived, then more history so its
        // archive holds a run for partition 0's page 0…
        let newer = e.offline_backup().unwrap();
        let newer_id = newer.backup_id;
        e.register_backup_generation(newer).unwrap();
        e.extend_backup_archive(newer_id).unwrap();
        e.execute(page_at(0, 0, 0xC0)).unwrap();
        e.flush_all().unwrap();
        e.extend_backup_archive(newer_id).unwrap();
        // …and that newest run rots. The restore must detect the checksum
        // mismatch and fall back to the older generation's intact archive,
        // replaying the longer suffix to the same bytes.
        e.catalog()
            .tamper_archive_run(newer_id, PageId::new(0, 0))
            .unwrap();
        fail_all(&e, 2);
        e.begin_instant_restore().unwrap();
        assert_eq!(e.read_page(PageId::new(0, 0)).unwrap().data()[0], 0xC0);
        let st = e.instant_restore_stats().unwrap();
        assert!(st.generation_fallbacks >= 1, "stats: {st:?}");
        e.instant_restore_drain().unwrap();
        assert_eq!(e.read_page(PageId::new(0, 1)).unwrap().data()[0], 2);
        assert_eq!(e.read_page(PageId::new(1, 0)).unwrap().data()[0], 0xA1);
    }

    #[test]
    fn instant_restore_with_an_empty_log_suffix() {
        // No history past the backup at all: the generation's control and
        // per-page runs are empty — an intact state, not a corrupt one.
        let e = engine();
        for i in 0..4 {
            e.execute(phys(i, i as u8 + 1)).unwrap();
        }
        let image = e.offline_backup().unwrap();
        let gen = image.backup_id;
        e.register_backup_generation(image).unwrap();
        e.extend_backup_archive(gen).unwrap();
        e.store().fail_partition(PartitionId(0)).unwrap();
        e.begin_instant_restore().unwrap();
        e.instant_restore_drain().unwrap();
        for i in 0..4 {
            assert_eq!(e.read_page(pid(i)).unwrap().data()[0], i as u8 + 1);
        }
        assert_eq!(e.stats().instant_completions, 1);
    }

    #[test]
    fn begin_builds_the_missing_archive_on_the_newest_generation() {
        // A registered generation without an archive: entering the epoch
        // builds one (from the generation's own log suffix) rather than
        // refusing — with an empty catalog it refuses instead.
        let (e, _) = healing_engine();
        e.execute(phys(0, 0x77)).unwrap();
        e.flush_all().unwrap();
        e.store().fail_partition(PartitionId(0)).unwrap();
        e.begin_instant_restore().unwrap();
        e.instant_restore_drain().unwrap();
        assert_eq!(e.read_page(pid(0)).unwrap().data()[0], 0x77);

        let bare = engine();
        bare.execute(phys(0, 1)).unwrap();
        bare.flush_all().unwrap();
        bare.store().fail_partition(PartitionId(0)).unwrap();
        assert!(bare.begin_instant_restore().is_err());
    }

    #[test]
    fn mid_restore_kill_reenters_and_byte_verifies() {
        let (e, _) = instant_engine(2);
        let mut want = Vec::new();
        for p in 0..2 {
            for i in 0..8 {
                let id = PageId::new(p, i);
                want.push((id, e.read_page(id).unwrap().data().clone()));
            }
        }
        e.flush_all().unwrap();
        fail_all(&e, 2);
        // The first segment install dies mid-epoch: the install went to
        // the still-failed partition, so the commit point (clearing the
        // failure flag) was never reached.
        e.install_fault_hook(Some(once_event_hook(IoEvent::SegmentInstall)));
        e.begin_instant_restore().unwrap();
        let err = e.instant_restore_drain().unwrap_err();
        assert!(err.is_injected_crash(), "got {err}");
        e.crash();
        assert!(!e.instant_restore_active());
        // Reboot re-entry: every segment is re-derived from archive +
        // image, and the interrupted one is simply restored again.
        e.recover_instant().unwrap();
        e.instant_restore_drain().unwrap();
        assert_eq!(e.stats().instant_reboots, 1);
        for (id, bytes) in want {
            assert_eq!(e.read_page(id).unwrap().data(), &bytes, "page {id}");
        }
    }

    #[test]
    fn online_backup_sweep_completes_during_instant_restore() {
        let (e, _) = instant_engine(2);
        fail_all(&e, 2);
        e.begin_instant_restore().unwrap();
        // The sweep's copy reads hit failed partitions: each miss faults
        // the segment in (degraded mode) and the step retries.
        let mut run = e.begin_backup(4).unwrap();
        while !e.backup_step(&mut run).unwrap() {}
        let image = e.complete_backup(run).unwrap();
        e.instant_restore_drain().unwrap();
        assert!(e.audit_backup(&image).unwrap().is_empty());
        assert_eq!(e.read_page(PageId::new(1, 0)).unwrap().data()[0], 0xA1);
    }

    #[test]
    fn archive_indexed_repair_scans_fewer_records_than_the_suffix_scan() {
        // Twin engines with identical histories; only one generation has a
        // page-indexed archive. The indexed repair must examine fewer
        // records and produce byte-identical results.
        let mk = |archive: bool| {
            let e = engine();
            for i in 0..8 {
                e.execute(phys(i, i as u8 + 1)).unwrap();
            }
            let image = e.offline_backup().unwrap();
            let gen = image.backup_id;
            e.register_backup_generation(image).unwrap();
            if archive {
                e.extend_backup_archive(gen).unwrap();
            }
            // Post-backup history with independent strands: only the copy
            // belongs to page 1's closure; the other six writes do not.
            e.execute(copy(0, 1)).unwrap();
            for i in 2..8 {
                e.execute(phys(i, 0x40 + i as u8)).unwrap();
            }
            e.flush_all().unwrap();
            e.store().quarantine_page(pid(1)).unwrap();
            e
        };
        let indexed = mk(true);
        let scanned = mk(false);
        let ri = indexed.repair_page(pid(1)).unwrap();
        let rs = scanned.repair_page(pid(1)).unwrap();
        assert!(ri.index_used);
        assert!(!rs.index_used);
        assert!(
            ri.records_scanned < rs.records_scanned,
            "indexed examined {} records, suffix scan {}",
            ri.records_scanned,
            rs.records_scanned
        );
        assert_eq!(indexed.stats().repair_index_hits, 1);
        assert_eq!(scanned.stats().repair_index_hits, 0);
        assert_eq!(
            indexed.store().read_page(pid(1)).unwrap().data(),
            scanned.store().read_page(pid(1)).unwrap().data(),
            "index and scan repairs must agree byte-for-byte"
        );
    }
}
