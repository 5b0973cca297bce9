//! The restore-under-load drive ([`Scenario::Degraded`], DESIGN.md §5.13).
//!
//! The setup registers the base image as a repair generation, builds its
//! page-indexed archive, and logs a tail of operations past it. The drive
//! fails **every** partition, enters an epoch, and interleaves verified
//! foreground reads, single- and cross-partition writes, and sweep steps
//! until the epoch completes. An injected crash re-enters the epoch
//! through [`lob_core::EngineService::recover_instant`] and traffic
//! resumes. Each time an epoch closes, [`verify_epoch_close`]
//! byte-compares it with a sequential reference restore. Writes after the
//! epoch prove normal service resumed.
//!
//! [`Scenario::Degraded`]: crate::Scenario::Degraded

use crate::drill::{Drill, Reboot, State, Stop};
use crate::reference::{diff_stores, reference_replay};
use lob_backup::BackupError;
use lob_core::{EngineService, Lsn, OpBody, PageId, PartitionId};

/// The epoch-close witness: flush everything (so `S` sits at its pageLSN
/// frontier), then restore the newest generation whose complete image is
/// fetchable (corrupt or incremental generations are skipped) into a
/// scratch store, roll it forward over the full suffix with the reference
/// scan, and demand byte-for-byte agreement with what the per-segment
/// restores (plus subsequent flushes) produced. Call it right after an
/// epoch closes, with no fault hook installed — the witness must not draw
/// faults of its own.
pub fn verify_epoch_close(svc: &EngineService) -> Result<(), String> {
    svc.flush_all()
        .map_err(|e| format!("epoch-close flush failed: {e}"))?;
    for backup_id in svc.catalog().generations() {
        match svc.catalog().fetch_image(backup_id) {
            Ok(image) if image.complete && !image.incremental => {
                let records = svc
                    .log()
                    .scan_from(image.start_lsn)
                    .map_err(|e| format!("witness log scan failed: {e}"))?;
                let (reference, _) = reference_replay(svc, &image.pages, &records)?;
                return diff_stores(svc, &reference, "instant-restore epoch close");
            }
            Ok(_)
            | Err(BackupError::CorruptImage { .. })
            | Err(BackupError::MissingPage { .. }) => {}
            Err(e) => return Err(format!("witness image fetch failed: {e}")),
        }
    }
    Err("no fetchable complete generation for the epoch-close witness".into())
}

impl Drill {
    /// One foreground operation: a single-partition physiological write,
    /// or a cross-partition read/write mix (which gates the operation on
    /// *several* segments' restores at once).
    fn instant_body(&self, st: &mut State) -> OpBody {
        let gen = &mut st.gen;
        let p = gen.below(self.partitions as usize) as u32;
        if self.partitions >= 2 && gen.chance(0.4) {
            let q = (p + 1 + gen.below(self.partitions as usize - 1) as u32) % self.partitions;
            // Page 0 plus a random non-zero page per partition: distinct by
            // construction (`mix` rejects duplicate write-set pages).
            let a = 1 + gen.below(self.pages as usize - 1) as u32;
            let b = 1 + gen.below(self.pages as usize - 1) as u32;
            let pages = [
                PageId::new(p, 0),
                PageId::new(p, a),
                PageId::new(q, 0),
                PageId::new(q, b),
            ];
            gen.mix(&pages, 2, 2)
        } else {
            let i = gen.below(self.pages as usize) as u32;
            gen.physio(PageId::new(p, i))
        }
    }

    /// The generation instant restore rebuilds from, and the log suffix
    /// past it.
    pub(crate) fn instant_setup(
        &self,
        engine: &EngineService,
        st: &mut State,
        tail_ops: u32,
    ) -> Result<(), Stop> {
        engine.register_backup_generation(st.base.clone())?;
        engine.extend_backup_archive(st.base.backup_id)?;
        for _ in 0..tail_ops {
            let body = self.instant_body(st);
            st.exec(engine, body)?;
        }
        Ok(engine.flush_all()?)
    }

    /// Total media loss, the epoch under traffic, then `post_ops` writes.
    /// `begin_instant_restore` itself touches the archive (the catch-up
    /// scan), so the armed event can land inside it.
    pub(crate) fn drive_instant(
        &self,
        engine: &EngineService,
        st: &mut State,
        post_ops: u32,
    ) -> Result<(), Stop> {
        for p in 0..self.partitions {
            engine
                .store()
                .fail_partition(PartitionId(p))
                .map_err(|e| e.to_string())?;
        }
        let r = engine.begin_instant_restore();
        st.survive(engine, r, Reboot::Epoch)?;
        let mut issued = 0;
        let mut epoch_open = engine.instant_restore_active();
        while engine.instant_restore_active() || issued < self.ops {
            if issued < self.ops {
                issued += 1;
                if st.gen.chance(0.4) {
                    let id = PageId::new(
                        st.gen.below(self.partitions as usize) as u32,
                        st.gen.below(self.pages as usize) as u32,
                    );
                    let r = engine.read_page(id);
                    if let Some(page) = st.survive(engine, r, Reboot::Epoch)? {
                        if *page.data() != st.oracle.expect_page(id, Lsn::MAX) {
                            return Err(format!("foreground read of {id} diverged").into());
                        }
                        st.counters.reads += 1;
                    }
                } else {
                    let body = self.instant_body(st);
                    let r = engine.execute(body.clone());
                    if let Some(lsn) = st.survive(engine, r, Reboot::Epoch)? {
                        st.apply(lsn, &body)?;
                    }
                }
            }
            if engine.instant_restore_active() {
                let r = engine.instant_restore_step();
                st.survive(engine, r, Reboot::Epoch)?;
            }
            let active = engine.instant_restore_active();
            if epoch_open && !active {
                // Flush under the armed plan (a kill here recovers the
                // ordinary way), then compare with the hook lifted.
                let r = engine.flush_all();
                st.survive(engine, r, Reboot::Recover)?;
                engine.install_fault_hook(None);
                let verdict = verify_epoch_close(engine);
                engine.install_fault_hook(Some(st.plan.hook()));
                verdict?;
            }
            epoch_open = active;
        }
        // No media is failed any more: a late kill recovers the ordinary way.
        for _ in 0..post_ops {
            let body = self.instant_body(st);
            let r = engine.execute(body.clone());
            if let Some(lsn) = st.survive(engine, r, Reboot::Recover)? {
                st.apply(lsn, &body)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultKind, FaultPlan, Path};
    use bytes::Bytes;
    use lob_core::Page;
    use lob_pagestore::IoEvent;
    use std::sync::Arc;

    /// The drill's engine just before the epoch: an archived full backup,
    /// a logged tail past it, and every partition failed.
    fn engine_after_total_media_loss(seed: u64) -> Arc<EngineService> {
        let drill = Drill::instant(seed);
        let (engine, _) = drill.build(FaultKind::CountOnly).unwrap();
        for p in 0..drill.partitions {
            engine.store().fail_partition(PartitionId(p)).unwrap();
        }
        engine
    }

    #[test]
    fn epoch_close_witness_catches_an_altered_page() {
        let engine = engine_after_total_media_loss(5);
        engine.begin_instant_restore().unwrap();
        engine.instant_restore_drain().unwrap();
        // One restored page changes behind the engine's back, after the
        // last segment restore and before the comparison.
        let id = PageId::new(1, 3);
        let restored = engine.store().read_page(id).unwrap();
        let mut bytes = restored.data().to_vec();
        bytes[0] ^= 0xFF;
        let altered = Page::new(restored.lsn(), Bytes::from(bytes));
        engine.store().write_page(id, altered).unwrap();
        let err = verify_epoch_close(&engine).unwrap_err();
        assert!(err.contains(&id.to_string()), "got: {err}");
        // With the restored bytes back, the same comparison passes.
        engine.store().write_page(id, restored).unwrap();
        verify_epoch_close(&engine).unwrap();
    }

    #[test]
    fn mid_restore_kill_reenters_and_byte_verifies() {
        let engine = engine_after_total_media_loss(9);
        // The first segment install dies mid-epoch: the commit point
        // (clearing the failure flag) was never reached.
        let plan = FaultPlan::new(FaultKind::CrashAtEvent(IoEvent::SegmentInstall, 0));
        engine.install_fault_hook(Some(plan.hook()));
        engine.begin_instant_restore().unwrap();
        let err = engine.instant_restore_drain().unwrap_err();
        assert!(err.is_injected_crash(), "got {err}");
        engine.install_fault_hook(None);
        engine.crash();
        // Reboot re-entry: every segment is re-derived from archive +
        // image, and the interrupted one is simply restored again.
        engine.recover_instant().unwrap();
        engine.instant_restore_drain().unwrap();
        assert_eq!(engine.stats().instant_reboots, 1);
        verify_epoch_close(&engine).unwrap();
    }

    #[test]
    fn fault_free_case_serves_traffic_and_completes() {
        let drill = Drill::instant(42);
        let case = drill.case(FaultKind::CountOnly);
        let s = case.counters.stats;
        assert_eq!(case.path, Ok(Path::Clean));
        assert!(case.fired.is_none());
        assert_eq!(s.instant_reboots, 0);
        assert!(case.counters.reads > 0, "no reads served during restore");
        assert!(s.ops_executed > 8, "no writes served during restore");
        assert!(
            s.instant_on_demand + s.instant_swept >= u64::from(drill.partitions),
            "restored {} + {} segments of {}",
            s.instant_on_demand,
            s.instant_swept,
            drill.partitions
        );
        assert!(case.events > 50, "got {}", case.events);
    }

    #[test]
    fn kill_at_a_segment_install_reboots_and_verifies() {
        let case = Drill::instant(7).case(FaultKind::CrashAtEvent(IoEvent::SegmentInstall, 1));
        assert!(case.fired.is_some());
        assert_eq!(case.path, Ok(Path::Crash));
        assert!(
            case.counters.stats.instant_reboots > 0,
            "kill mid-install must re-enter restore"
        );
    }

    #[test]
    fn kill_at_an_archive_fetch_reboots_and_verifies() {
        let case = Drill::instant(11).case(FaultKind::CrashAtEvent(IoEvent::ArchiveRead, 0));
        assert!(case.fired.is_some());
        assert_eq!(case.path, Ok(Path::Crash));
    }

    #[test]
    fn transient_read_storm_is_ridden_out() {
        let case = Drill::instant(13).case(FaultKind::TransientReadAt(10));
        assert_eq!(case.path, Ok(Path::Clean));
    }

    #[test]
    fn small_drill_has_no_divergences() {
        let drill = Drill::instant(23);
        let mut report = drill
            .sweep(&[FaultKind::CrashAt, FaultKind::TransientReadAt], 4)
            .unwrap();
        report
            .cases
            .push(drill.case(FaultKind::CrashAtEvent(IoEvent::SegmentInstall, 1)));
        report
            .cases
            .push(drill.case(FaultKind::CrashAtEvent(IoEvent::ArchiveRead, 2)));
        assert!(report.divergences().is_empty(), "{report}");
        assert_eq!(report.cases.len(), 6);
        assert!(report.fired() > 0);
        assert!(
            report.count(Path::Crash) > 0,
            "no case exercised the reboot path"
        );
    }
}
