//! The instant-restore torture drill (DESIGN.md §5.13).
//!
//! Media recovery that *serves traffic while it runs* has a much larger
//! failure surface than an offline restore: foreground reads and writes
//! race the background sweep for segments, an on-demand restore can be
//! interrupted by the very crash it is recovering from, and the
//! commit-point protocol (install into the failed partition, *then* clear
//! the failure flag) must leave every half-restored segment re-derivable
//! after a reboot.
//!
//! One drill case runs the whole life cycle under a [`FaultPlan`]:
//!
//! 1. prefill the database, take a full backup, register it as a repair
//!    generation, and build the generation's page-indexed archive;
//! 2. execute a tail of logged operations past the backup (the log suffix
//!    instant restore must replay), then flush;
//! 3. fail **every** partition — total media loss — and enter an
//!    instant-restore epoch;
//! 4. interleave foreground traffic (verified reads, single-partition and
//!    cross-partition writes) with background sweep steps until the epoch
//!    completes; the armed fault fires somewhere inside;
//! 5. an injected crash kills the process model mid-restore: volatile
//!    state is dropped, the oracle forgets the unforced tail, and
//!    [`lob_core::Engine::recover_instant`] re-enters the epoch from the
//!    surviving media (archive + images + log) — traffic resumes under the
//!    rebooted epoch;
//! 6. every time an epoch closes, [`verify_epoch_close`] byte-compares
//!    what the per-segment restores produced with a sequential reference
//!    restore of the newest generation;
//! 7. after the epoch drains, a burst of post-restore writes proves the
//!    engine left degraded mode intact, and the stable database must
//!    byte-match the shadow oracle at the surviving history.
//!
//! Every case runs under its own ordering witness
//! ([`lob_pagestore::witness`]): an instant segment install observed before
//! the segment's archive fetch fails the case even if it byte-verified.

use crate::fault::{sample_indices, witnessed, FaultKind, FaultPlan};
use crate::reference::{diff_stores, reference_replay};
use crate::shadow::ShadowOracle;
use crate::workload::WorkloadGen;
use lob_backup::BackupError;
use lob_core::{
    BackupPolicy, Discipline, Engine, EngineConfig, GraphMode, LogBacking, Lsn, OpBody, PageId,
    PartitionId, PartitionSpec, Tracking,
};
use lob_pagestore::witness::Witness;
use lob_pagestore::IoEvent;

/// The epoch-close witness: flush everything (so `S` sits at its pageLSN
/// frontier), then restore the newest generation whose complete image is
/// fetchable (corrupt or incremental generations are skipped) into a
/// scratch store, roll it forward over the full suffix with the reference
/// scan, and demand byte-for-byte agreement with what the per-segment
/// restores (plus subsequent flushes) produced. Call it right after an
/// epoch closes, with no fault hook installed — the witness must not draw
/// faults of its own.
pub fn verify_epoch_close(engine: &mut Engine) -> Result<(), String> {
    engine
        .flush_all()
        .map_err(|e| format!("epoch-close flush failed: {e}"))?;
    for backup_id in engine.catalog().generations() {
        match engine.catalog().fetch_image(backup_id) {
            Ok(image) if image.complete && !image.incremental => {
                let records = engine
                    .log()
                    .scan_from(image.start_lsn)
                    .map_err(|e| format!("witness log scan failed: {e}"))?;
                let (reference, _) = reference_replay(engine, &image.pages, &records)?;
                return diff_stores(engine, &reference, "instant-restore epoch close");
            }
            Ok(_)
            | Err(BackupError::CorruptImage { .. })
            | Err(BackupError::MissingPage { .. }) => {}
            Err(e) => return Err(format!("witness image fetch failed: {e}")),
        }
    }
    Err("no fetchable complete generation for the epoch-close witness".into())
}

/// Parameters of one instant-restore drill session.
#[derive(Debug, Clone)]
pub struct InstantDrillConfig {
    /// Workload RNG seed.
    pub seed: u64,
    /// Partitions (= restore segments).
    pub partitions: u32,
    /// Pages per partition.
    pub pages_per_partition: u32,
    /// Page size in bytes.
    pub page_size: usize,
    /// Logged operations between the backup and the media failure — the
    /// suffix instant restore replays from the archive.
    pub tail_ops: u32,
    /// Foreground operations issued while the restore epoch runs.
    pub foreground_ops: u32,
    /// Writes issued after the epoch completes.
    pub post_ops: u32,
}

impl InstantDrillConfig {
    /// A small, debug-build-friendly configuration.
    pub fn small(seed: u64) -> InstantDrillConfig {
        InstantDrillConfig {
            seed,
            partitions: 4,
            pages_per_partition: 16,
            page_size: 32,
            tail_ops: 32,
            foreground_ops: 24,
            post_ops: 8,
        }
    }
}

/// How one drill case ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstantPath {
    /// The epoch drained without a kill.
    Completed,
    /// An injected crash killed the process model at least once; the case
    /// re-entered restore via `recover_instant` (or plain crash recovery
    /// when the kill landed after the epoch) and still verified.
    Killed,
}

/// What one drill case observed.
#[derive(Debug, Clone)]
pub struct InstantCaseResult {
    /// Whether the armed fault fired.
    pub fired: bool,
    /// `(event index, event kind)` the fault fired at.
    pub fired_event: Option<(u64, IoEvent)>,
    /// Total I/O events the session consulted.
    pub events_seen: u64,
    /// The case's ordering witness, with the events it observed.
    pub witness: Witness,
    /// How the case ended.
    pub path: InstantPath,
    /// Reboot re-entries (`recover_instant` calls that started an epoch).
    pub reboots: u64,
    /// Segments restored on demand by foreground traffic.
    pub on_demand: u64,
    /// Segments restored by the background sweep.
    pub swept: u64,
    /// Foreground reads served (and byte-verified) during restore epochs.
    pub foreground_reads: u64,
    /// Foreground writes executed during restore epochs.
    pub foreground_writes: u64,
}

/// Aggregated outcome of an instant-restore drill sweep.
#[derive(Debug, Clone, Default)]
pub struct InstantDrillReport {
    /// I/O events in the fault-free probe session.
    pub events_total: u64,
    /// Event indices armed.
    pub crash_points: Vec<u64>,
    /// Cases executed.
    pub cases: usize,
    /// Cases whose armed fault fired.
    pub faults_fired: usize,
    /// Cases that took the kill-and-reboot path.
    pub kills: usize,
    /// Cases whose epoch drained without a kill.
    pub completions: usize,
    /// Oracle divergences and unexpected failures — must stay empty.
    pub divergences: Vec<String>,
}

/// Runs restore-under-load sessions under a [`FaultPlan`] and verifies
/// the served traffic and the final database against the shadow oracle.
pub struct InstantDrillRunner {
    cfg: InstantDrillConfig,
}

impl InstantDrillRunner {
    /// A runner for the given configuration.
    pub fn new(cfg: InstantDrillConfig) -> InstantDrillRunner {
        InstantDrillRunner { cfg }
    }

    /// The configuration under test.
    pub fn config(&self) -> &InstantDrillConfig {
        &self.cfg
    }

    /// Build the prefilled engine the drill loses the media under.
    fn build(&self) -> Result<(Engine, ShadowOracle, WorkloadGen), String> {
        let cfg = &self.cfg;
        let mut engine = Engine::new(EngineConfig {
            page_size: cfg.page_size,
            partitions: (0..cfg.partitions)
                .map(|_| PartitionSpec {
                    pages: cfg.pages_per_partition,
                })
                .collect(),
            discipline: Discipline::General,
            graph_mode: GraphMode::Refined,
            // Sequential tracking admits cross-partition operations — the
            // interesting case for degraded-mode gating, where one write
            // blocks on *several* segments' restores.
            tracking: Tracking::Sequential((0..cfg.partitions).map(PartitionId).collect()),
            cache_capacity: None,
            policy: BackupPolicy::Protocol,
            log: LogBacking::Memory,
            ..EngineConfig::small()
        })
        .map_err(|e| e.to_string())?;
        let mut oracle = ShadowOracle::new(cfg.page_size);
        let mut gen = WorkloadGen::new(cfg.seed, cfg.page_size);
        for p in 0..cfg.partitions {
            for i in 0..cfg.pages_per_partition {
                oracle.execute(&mut engine, gen.physical(PageId::new(p, i)))?;
            }
        }
        engine.flush_all().map_err(|e| e.to_string())?;
        Ok((engine, oracle, gen))
    }

    /// One foreground operation body: a single-partition physiological
    /// write, or a cross-partition read/write mix (which gates the
    /// operation on *several* segments' restores at once).
    fn foreground_body(&self, gen: &mut WorkloadGen) -> OpBody {
        let cfg = &self.cfg;
        let p = gen.below(cfg.partitions as usize) as u32;
        if cfg.partitions >= 2 && gen.chance(0.4) {
            let q = (p + 1 + gen.below(cfg.partitions as usize - 1) as u32) % cfg.partitions;
            // Page 0 plus a random non-zero page per partition: distinct by
            // construction (`mix` rejects duplicate write-set pages).
            let a = 1 + gen.below(cfg.pages_per_partition as usize - 1) as u32;
            let b = 1 + gen.below(cfg.pages_per_partition as usize - 1) as u32;
            let pages = vec![
                PageId::new(p, 0),
                PageId::new(p, a),
                PageId::new(q, 0),
                PageId::new(q, b),
            ];
            gen.mix(&pages, 2, 2)
        } else {
            let i = gen.below(cfg.pages_per_partition as usize) as u32;
            gen.physio(PageId::new(p, i))
        }
    }

    /// Kill the process model and re-enter restore from the surviving
    /// media. The oracle forgets the unforced tail first: those LSNs are
    /// re-issued to post-recovery operations.
    fn kill_and_reboot(engine: &mut Engine, oracle: &mut ShadowOracle) -> Result<(), String> {
        engine.crash();
        oracle.truncate_to(engine.log().durable_lsn());
        engine
            .recover_instant()
            .map_err(|e| format!("recover_instant after kill failed: {e}"))?;
        Ok(())
    }

    /// Kill the process model after the epoch closed: no media is failed
    /// any more, so it recovers the ordinary way.
    fn kill_and_recover(engine: &mut Engine, oracle: &mut ShadowOracle) -> Result<(), String> {
        engine.crash();
        oracle.truncate_to(engine.log().durable_lsn());
        engine
            .recover()
            .map_err(|e| format!("crash recovery after epoch failed: {e}"))?;
        Ok(())
    }

    /// An epoch just closed: flush under the armed plan (a kill here
    /// recovers the ordinary way), then run the reference comparison with
    /// the hook lifted. Returns whether the flush was killed.
    fn settle_epoch_close(
        engine: &mut Engine,
        oracle: &mut ShadowOracle,
        plan: &FaultPlan,
    ) -> Result<bool, String> {
        let killed = match engine.flush_all() {
            Ok(()) => false,
            Err(e) if e.is_injected_crash() => {
                Self::kill_and_recover(engine, oracle)?;
                true
            }
            Err(e) => return Err(format!("epoch-close flush failed: {e}")),
        };
        engine.install_fault_hook(None);
        let verdict = verify_epoch_close(engine);
        engine.install_fault_hook(Some(plan.hook()));
        verdict.map(|()| killed)
    }

    /// Run one case with `kind` armed. See the module docs for the phases.
    ///
    /// The case runs under its own ordering witness: a segment install
    /// observed before its archive fetch fails the case outright.
    pub fn run_case(&self, kind: FaultKind) -> Result<InstantCaseResult, String> {
        let (case, witness) = witnessed(|| self.run_case_inner(kind))?;
        Ok(InstantCaseResult { witness, ..case })
    }

    fn run_case_inner(&self, kind: FaultKind) -> Result<InstantCaseResult, String> {
        let cfg = &self.cfg;
        let (mut engine, mut oracle, mut gen) = self.build()?;

        // Phase 1: the generation instant restore rebuilds from — a full
        // backup registered in the catalog with a page-indexed archive.
        let base = engine.offline_backup().map_err(|e| e.to_string())?;
        let backup_id = base.backup_id;
        engine
            .register_backup_generation(base)
            .map_err(|e| e.to_string())?;
        engine
            .extend_backup_archive(backup_id)
            .map_err(|e| e.to_string())?;

        // Phase 2: the log suffix past the backup.
        for _ in 0..cfg.tail_ops {
            let body = self.foreground_body(&mut gen);
            oracle.execute(&mut engine, body)?;
        }
        engine.flush_all().map_err(|e| e.to_string())?;

        // Phase 3: total media loss under an armed plan, then enter the
        // epoch. `begin_instant_restore` itself touches the archive (the
        // catch-up scan), so the armed event can land inside it.
        let plan = FaultPlan::new(kind);
        engine.install_fault_hook(Some(plan.hook()));
        for p in 0..cfg.partitions {
            engine
                .store()
                .fail_partition(PartitionId(p))
                .map_err(|e| e.to_string())?;
        }
        let mut killed = false;
        if let Err(e) = engine.begin_instant_restore() {
            if e.is_injected_crash() {
                Self::kill_and_reboot(&mut engine, &mut oracle)?;
                killed = true;
            } else {
                return Err(format!("begin_instant_restore failed: {e}"));
            }
        }

        // Phase 4/5: foreground traffic interleaved with sweep steps.
        // An injected crash anywhere in here kills and reboots the epoch.
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut issued = 0u32;
        let mut epoch_open = engine.instant_restore_active();
        while engine.instant_restore_active() || issued < cfg.foreground_ops {
            if issued < cfg.foreground_ops {
                issued += 1;
                if gen.chance(0.4) {
                    let id = PageId::new(
                        gen.below(cfg.partitions as usize) as u32,
                        gen.below(cfg.pages_per_partition as usize) as u32,
                    );
                    match engine.read_page(id) {
                        Ok(page) => {
                            let want = oracle.expect_page(id, Lsn::MAX);
                            if *page.data() != want {
                                return Err(format!(
                                    "foreground read of {id} diverged during restore"
                                ));
                            }
                            reads += 1;
                        }
                        Err(e) if e.is_injected_crash() => {
                            Self::kill_and_reboot(&mut engine, &mut oracle)?;
                            killed = true;
                        }
                        Err(e) => return Err(format!("foreground read of {id} failed: {e}")),
                    }
                } else {
                    let body = self.foreground_body(&mut gen);
                    match engine.execute(body.clone()) {
                        Ok(lsn) => {
                            oracle
                                .apply(lsn, &body)
                                .map_err(|e| format!("oracle apply failed: {e}"))?;
                            writes += 1;
                        }
                        Err(e) if e.is_injected_crash() => {
                            Self::kill_and_reboot(&mut engine, &mut oracle)?;
                            killed = true;
                        }
                        Err(e) => return Err(format!("foreground write failed: {e}")),
                    }
                }
            }
            if engine.instant_restore_active() {
                match engine.instant_restore_step() {
                    Ok(_) => {}
                    Err(e) if e.is_injected_crash() => {
                        Self::kill_and_reboot(&mut engine, &mut oracle)?;
                        killed = true;
                    }
                    Err(e) => return Err(format!("sweep step failed: {e}")),
                }
            }
            let active = engine.instant_restore_active();
            if epoch_open && !active {
                killed |= Self::settle_epoch_close(&mut engine, &mut oracle, &plan)?;
            }
            epoch_open = active;
        }

        // Phase 6: the epoch is over — prove normal service resumed. A
        // late-armed crash can still land here; it recovers the ordinary
        // way (no media is failed any more).
        for _ in 0..cfg.post_ops {
            let body = self.foreground_body(&mut gen);
            match engine.execute(body.clone()) {
                Ok(lsn) => oracle
                    .apply(lsn, &body)
                    .map_err(|e| format!("oracle apply failed: {e}"))?,
                Err(e) if e.is_injected_crash() => {
                    Self::kill_and_recover(&mut engine, &mut oracle)?;
                    killed = true;
                }
                Err(e) => return Err(format!("post-restore write failed: {e}")),
            }
        }

        engine.install_fault_hook(None);
        engine.flush_all().map_err(|e| e.to_string())?;
        oracle
            .verify_store(&engine, Lsn::MAX)
            .map_err(|e| format!("final verify diverged: {e}"))?;

        let stats = engine.stats();
        Ok(InstantCaseResult {
            fired: plan.fired(),
            fired_event: plan.fired_event(),
            events_seen: plan.events_seen(),
            witness: Witness::new(), // replaced by `run_case`
            path: if killed {
                InstantPath::Killed
            } else {
                InstantPath::Completed
            },
            reboots: stats.instant_reboots,
            on_demand: stats.instant_on_demand,
            swept: stats.instant_swept,
            foreground_reads: reads,
            foreground_writes: writes,
        })
    }

    /// The drill: probe a fault-free session for its event count, then arm
    /// crashes and transient-read storms round-robin across sampled
    /// indices, plus two targeted kills at the commit-point-adjacent
    /// events (a segment install, an archive fetch). Divergences are
    /// collected, not fatal.
    pub fn drill(&self, max_points: usize) -> Result<InstantDrillReport, String> {
        let probe = self.run_case(FaultKind::CountOnly)?;
        if probe.path != InstantPath::Completed || probe.fired {
            return Err("fault-free probe did not complete cleanly".into());
        }
        let total = probe.events_seen;
        let points = sample_indices(total, max_points);
        let mut kinds: Vec<FaultKind> = points
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                if i % 2 == 0 {
                    FaultKind::CrashAt(k)
                } else {
                    FaultKind::TransientReadAt(k)
                }
            })
            .collect();
        kinds.push(FaultKind::CrashAtEvent(IoEvent::SegmentInstall, 1));
        kinds.push(FaultKind::CrashAtEvent(IoEvent::ArchiveRead, 2));
        let mut report = InstantDrillReport {
            events_total: total,
            crash_points: points,
            ..InstantDrillReport::default()
        };
        for kind in kinds {
            report.cases += 1;
            match self.run_case(kind) {
                Ok(case) => {
                    if case.fired {
                        report.faults_fired += 1;
                    }
                    match case.path {
                        InstantPath::Completed => report.completions += 1,
                        InstantPath::Killed => report.kills += 1,
                    }
                }
                Err(d) => report.divergences.push(format!("{kind:?}: {d}")),
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use lob_core::Page;

    /// The drill's engine just before the epoch: an archived full backup,
    /// a logged tail past it, and every partition failed.
    fn engine_after_total_media_loss(seed: u64) -> Engine {
        let runner = InstantDrillRunner::new(InstantDrillConfig::small(seed));
        let (mut engine, mut oracle, mut gen) = runner.build().unwrap();
        let base = engine.offline_backup().unwrap();
        let backup_id = base.backup_id;
        engine.register_backup_generation(base).unwrap();
        engine.extend_backup_archive(backup_id).unwrap();
        for _ in 0..runner.config().tail_ops {
            let body = runner.foreground_body(&mut gen);
            oracle.execute(&mut engine, body).unwrap();
        }
        engine.flush_all().unwrap();
        for p in 0..runner.config().partitions {
            engine.store().fail_partition(PartitionId(p)).unwrap();
        }
        engine
    }

    #[test]
    fn epoch_close_witness_catches_an_altered_page() {
        let mut engine = engine_after_total_media_loss(5);
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
        let err = verify_epoch_close(&mut engine).unwrap_err();
        assert!(err.contains(&id.to_string()), "got: {err}");
        // With the restored bytes back, the same comparison passes.
        engine.store().write_page(id, restored).unwrap();
        verify_epoch_close(&mut engine).unwrap();
    }

    #[test]
    fn mid_restore_kill_reenters_and_byte_verifies() {
        let mut engine = engine_after_total_media_loss(9);
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
        verify_epoch_close(&mut engine).unwrap();
    }

    #[test]
    fn fault_free_case_serves_traffic_and_completes() {
        let runner = InstantDrillRunner::new(InstantDrillConfig::small(42));
        let case = runner.run_case(FaultKind::CountOnly).unwrap();
        assert_eq!(case.path, InstantPath::Completed);
        assert!(!case.fired);
        assert_eq!(case.reboots, 0);
        assert!(case.foreground_reads > 0, "no reads served during restore");
        assert!(
            case.foreground_writes > 0,
            "no writes served during restore"
        );
        assert!(
            case.on_demand + case.swept >= runner.config().partitions as u64,
            "restored {} + {} segments of {}",
            case.on_demand,
            case.swept,
            runner.config().partitions
        );
        assert!(case.events_seen > 50, "got {}", case.events_seen);
    }

    #[test]
    fn kill_at_a_segment_install_reboots_and_verifies() {
        let runner = InstantDrillRunner::new(InstantDrillConfig::small(7));
        let case = runner
            .run_case(FaultKind::CrashAtEvent(IoEvent::SegmentInstall, 1))
            .unwrap();
        assert!(case.fired);
        assert_eq!(case.path, InstantPath::Killed);
        assert!(case.reboots > 0, "kill mid-install must re-enter restore");
    }

    #[test]
    fn kill_at_an_archive_fetch_reboots_and_verifies() {
        let runner = InstantDrillRunner::new(InstantDrillConfig::small(11));
        let case = runner
            .run_case(FaultKind::CrashAtEvent(IoEvent::ArchiveRead, 0))
            .unwrap();
        assert!(case.fired);
        assert_eq!(case.path, InstantPath::Killed);
    }

    #[test]
    fn transient_read_storm_is_ridden_out() {
        let runner = InstantDrillRunner::new(InstantDrillConfig::small(13));
        let case = runner.run_case(FaultKind::TransientReadAt(10)).unwrap();
        assert_eq!(case.path, InstantPath::Completed);
    }

    #[test]
    fn small_drill_has_no_divergences() {
        let runner = InstantDrillRunner::new(InstantDrillConfig::small(23));
        let report = runner.drill(4).unwrap();
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
        assert_eq!(report.cases, 6);
        assert!(report.faults_fired > 0);
        assert!(report.kills > 0, "no case exercised the reboot path");
    }
}
