//! The partition-parallel torture drill (DESIGN.md §5.9).
//!
//! One sweep worker thread per coordinator domain drives
//! [`lob_core::BackupRun::step_batch`] against the shared store while the
//! main thread keeps executing partition-confined operations — the real
//! §3.4 concurrency, not the single-threaded interleaving of the classic
//! torture sweeps — with a [`FaultPlan`] armed underneath all of them.
//!
//! Because threads race, *which* thread trips the armed event index is
//! scheduler-dependent; what the drill checks is outcome-based and must
//! hold for every interleaving:
//!
//! - an injected crash (in any worker or the writer) recovers via crash
//!   or media recovery and byte-verifies against the oracle at the
//!   durable LSN;
//! - injected media damage (media failure, detected corruption) recovers
//!   via media recovery from the pre-session base image and verifies at
//!   the full history;
//! - a fault-free (or silently-corrupting) session completes every sweep,
//!   and the **fuzzy parallel images themselves** restore the store after
//!   total media loss — combine, restore, roll forward, byte-verify.
//!
//! Every case additionally runs under its own ordering witness
//! ([`lob_pagestore::witness`]), carried into every sweep worker: an install
//! before any log force, or a cursor advance before its copy, fails the case
//! even if it byte-verified.

use crate::fault::{sample_indices, witnessed, FaultKind, FaultPlan};
use crate::reference::{recover_checked, restore_checked};
use crate::shadow::ShadowOracle;
use crate::workload::WorkloadGen;
use lob_core::{
    BackupImage, BackupPolicy, BackupRun, Discipline, DomainId, Engine, EngineConfig, EngineError,
    GraphMode, LogBacking, Lsn, PageId, PartitionId, PartitionSpec, Tracking,
};
use lob_pagestore::witness::{self, Witness};
use lob_pagestore::IoEvent;
use std::sync::Arc;
use std::thread;

/// Parameters of one parallel-sweep drill session.
#[derive(Debug, Clone)]
pub struct ParallelDrillConfig {
    /// Workload RNG seed.
    pub seed: u64,
    /// Partitions — one coordinator domain (and one sweep worker) each.
    pub partitions: u32,
    /// Pages per partition.
    pub pages_per_partition: u32,
    /// Page size in bytes.
    pub page_size: usize,
    /// Progress steps per domain sweep.
    pub steps: u32,
    /// Pages per store-lock round-trip in each worker.
    pub batch: u32,
    /// Operations the writer executes while the workers sweep.
    pub writer_ops: u32,
    /// Probability of flushing a random dirty page after each operation.
    pub flush_prob: f64,
}

impl ParallelDrillConfig {
    /// A small, debug-build-friendly configuration.
    pub fn small(seed: u64) -> ParallelDrillConfig {
        ParallelDrillConfig {
            seed,
            partitions: 4,
            pages_per_partition: 32,
            page_size: 32,
            steps: 4,
            batch: 8,
            writer_ops: 48,
            flush_prob: 0.5,
        }
    }
}

/// How a drill case got the store back to a verified state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrillPath {
    /// Every sweep finished; the parallel images restored the store after
    /// total media loss and verified.
    CleanSweep,
    /// Crash recovery (redo from the durable prefix).
    CrashRecovery,
    /// Media recovery from the pre-session base image.
    MediaRecovery,
}

/// What one drill case observed.
#[derive(Debug, Clone)]
pub struct ParallelCaseResult {
    /// Whether the armed fault fired.
    pub fired: bool,
    /// The case's ordering witness, with the events it observed.
    pub witness: Witness,
    /// `(event index, event kind)` the fault fired at (racy across runs:
    /// the index is global over all threads' consults).
    pub fired_event: Option<(u64, IoEvent)>,
    /// How the case recovered.
    pub path: DrillPath,
    /// Sweep workers spawned (one per domain).
    pub workers: u32,
    /// Workers whose sweep surfaced an error.
    pub worker_errors: usize,
    /// Total I/O events the session consulted.
    pub events_seen: u64,
}

/// Aggregated outcome of a drill sweep.
#[derive(Debug, Clone, Default)]
pub struct ParallelDrillReport {
    /// I/O events in the fault-free probe session.
    pub events_total: u64,
    /// Event indices armed.
    pub crash_points: Vec<u64>,
    /// Cases executed.
    pub cases: usize,
    /// Cases whose armed fault fired.
    pub faults_fired: usize,
    /// Cases recovered by crash recovery.
    pub crash_recoveries: usize,
    /// Cases recovered by media recovery.
    pub media_recoveries: usize,
    /// Cases where every sweep completed and the parallel images restored.
    pub clean_sweeps: usize,
    /// Workers spawned across all cases.
    pub workers: u32,
    /// Oracle divergences and unexpected failures — must stay empty.
    pub divergences: Vec<String>,
}

/// Combine per-domain images into one restorable image: earliest
/// `start_lsn` wins (roll-forward covers every domain's tail), pages
/// union (domains are disjoint partitions).
pub fn combine_images(images: &[BackupImage]) -> Option<BackupImage> {
    let first = images.first()?;
    let mut combined = first.clone();
    for img in images.iter().skip(1) {
        combined.pages.overlay(&img.pages);
        if img.start_lsn < combined.start_lsn {
            combined.start_lsn = img.start_lsn;
        }
        if img.end_lsn > combined.end_lsn {
            combined.end_lsn = img.end_lsn;
        }
    }
    Some(combined)
}

fn is_media_damage(e: &EngineError) -> bool {
    let s = e.to_string();
    s.contains("media failure") || s.contains("checksum mismatch") || s.contains("quarantined")
}

/// Runs threaded parallel-sweep sessions under a [`FaultPlan`] and
/// verifies recovery against the shadow oracle.
pub struct ParallelDrillRunner {
    cfg: ParallelDrillConfig,
}

impl ParallelDrillRunner {
    /// A runner for the given configuration.
    pub fn new(cfg: ParallelDrillConfig) -> ParallelDrillRunner {
        ParallelDrillRunner { cfg }
    }

    /// The configuration under test.
    pub fn config(&self) -> &ParallelDrillConfig {
        &self.cfg
    }

    /// Build the prefilled per-partition engine the drill races over.
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
            tracking: Tracking::PerPartition,
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

    /// Run one case with `kind` armed: begin a sweep in every domain,
    /// spawn one worker thread per run, race the writer against them on
    /// this thread, then classify whatever surfaced and verify recovery.
    ///
    /// The case runs under its own ordering witness, carried into every
    /// worker: a consumer I/O event observed before its required generator
    /// fails the case, fault or no fault.
    pub fn run_case(&self, kind: FaultKind) -> Result<ParallelCaseResult, String> {
        let (case, witness) = witnessed(|| self.run_case_inner(kind))?;
        Ok(ParallelCaseResult { witness, ..case })
    }

    fn run_case_inner(&self, kind: FaultKind) -> Result<ParallelCaseResult, String> {
        let cfg = &self.cfg;
        let (mut engine, mut oracle, mut gen) = self.build()?;
        // The pre-session base image pins the media barrier and is what
        // media recovery falls back to when no sweep completed.
        let base = engine.offline_backup().map_err(|e| e.to_string())?;

        let plan = FaultPlan::new(kind);
        engine.install_fault_hook(Some(plan.hook()));

        let mut runs: Vec<BackupRun> = Vec::new();
        let mut ids: Vec<u64> = Vec::new();
        let mut begin_err: Option<EngineError> = None;
        for d in 0..engine.coordinator().domain_count() {
            match engine.begin_backup_of(DomainId(d), cfg.steps) {
                Ok(r) => {
                    ids.push(r.backup_id());
                    runs.push(r);
                }
                Err(e) => {
                    begin_err = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = begin_err {
            // The armed event landed inside a begin (its BackupBegin log
            // force): no threads ever spawned.
            drop(runs);
            return self.settle(engine, oracle, &base, Vec::new(), ids, vec![e], &plan, 0);
        }
        let workers = runs.len() as u32;

        let coordinator = Arc::clone(engine.coordinator());
        let store = Arc::clone(engine.store());
        let batch = cfg.batch;
        let mut handles = Vec::new();
        for mut run in runs {
            let c = Arc::clone(&coordinator);
            let s = Arc::clone(&store);
            let w = witness::current();
            handles.push(thread::spawn(move || {
                witness::within(w, || {
                    let res = loop {
                        match run.step_batch(&c, &s, batch) {
                            Ok(true) => break Ok(()),
                            Ok(false) => {}
                            Err(e) => break Err(e),
                        }
                    };
                    (run, res)
                })
            }));
        }

        // The writer races the workers: partition-confined operations plus
        // probabilistic flushes, exactly the traffic the trackers referee.
        let mut errors: Vec<EngineError> = Vec::new();
        for _ in 0..cfg.writer_ops {
            let p = gen.below(cfg.partitions as usize) as u32;
            let pages: Vec<PageId> = (0..cfg.pages_per_partition)
                .map(|i| PageId::new(p, i))
                .collect();
            let body = if gen.chance(0.5) && pages.len() >= 4 {
                gen.mix(&pages, 2, 2)
            } else {
                let pg = PageId::new(p, gen.below(pages.len()) as u32);
                gen.physio(pg)
            };
            match engine.execute(body.clone()) {
                Ok(lsn) => oracle
                    .apply(lsn, &body)
                    .map_err(|e| format!("oracle apply failed: {e}"))?,
                Err(e) => {
                    errors.push(e);
                    break;
                }
            }
            if gen.chance(cfg.flush_prob) {
                let dirty = engine.cache().dirty_pages();
                let victim = if dirty.is_empty() {
                    None
                } else {
                    dirty.get(gen.below(dirty.len())).copied()
                };
                if let Some(victim) = victim {
                    if let Err(e) = engine.flush_page(victim) {
                        errors.push(e);
                        break;
                    }
                }
            }
        }

        let mut finished: Vec<BackupRun> = Vec::new();
        let mut worker_errors = 0usize;
        for h in handles {
            let Ok((run, res)) = h.join() else {
                return Err("a sweep worker panicked".into());
            };
            match res {
                Ok(()) => finished.push(run),
                Err(e) => {
                    worker_errors += 1;
                    errors.push(EngineError::from(e));
                    drop(run);
                }
            }
        }
        self.settle(
            engine,
            oracle,
            &base,
            finished,
            ids,
            errors,
            &plan,
            worker_errors,
        )
        .map(|mut case| {
            case.workers = workers;
            case
        })
    }

    /// Classify the session's errors, recover accordingly, and verify
    /// byte-equality with the oracle.
    #[allow(clippy::too_many_arguments)]
    fn settle(
        &self,
        mut engine: Engine,
        oracle: ShadowOracle,
        base: &BackupImage,
        finished: Vec<BackupRun>,
        ids: Vec<u64>,
        errors: Vec<EngineError>,
        plan: &FaultPlan,
        worker_errors: usize,
    ) -> Result<ParallelCaseResult, String> {
        engine.install_fault_hook(None);
        let result = |path| ParallelCaseResult {
            fired: plan.fired(),
            fired_event: plan.fired_event(),
            witness: Witness::new(), // replaced by `run_case`
            path,
            workers: 0,
            worker_errors,
            events_seen: plan.events_seen(),
        };

        if errors.iter().any(|e| e.is_injected_crash()) {
            // The process model died (in whichever thread reached the armed
            // event first). Volatile state is gone; a torn page may be in `S`.
            drop(finished);
            engine.crash();
            for id in ids {
                engine.release_backup(id);
            }
            let durable = engine.log().durable_lsn();
            let bad = engine.store().verify_pages();
            for p in bad.pages() {
                engine
                    .store()
                    .fail_range(p.partition, p.index, p.index + 1)
                    .map_err(|e| e.to_string())?;
            }
            let any_failed = (0..engine.store().partition_count())
                .any(|p| engine.store().has_failures(PartitionId(p)).unwrap_or(false));
            let recovery = engine.config().recovery;
            let path = if any_failed {
                restore_checked(&mut engine, base, recovery)
                    .map_err(|e| format!("media recovery after crash failed: {e}"))?;
                DrillPath::MediaRecovery
            } else {
                recover_checked(&mut engine, recovery)?;
                DrillPath::CrashRecovery
            };
            oracle
                .verify_store(&engine, durable)
                .map_err(|e| format!("post-crash verify diverged: {e}"))?;
            Ok(result(path))
        } else if errors.iter().any(is_media_damage) {
            // Media damage surfaced while the process stayed up: abandon the
            // sweeps, scrub, restore from the base, roll the full history.
            drop(finished);
            self.media_settle(&mut engine, &oracle, base, ids)?;
            Ok(result(DrillPath::MediaRecovery))
        } else if let Some(e) = errors.first() {
            Err(format!("unexpected failure under {:?}: {e}", plan.kind()))
        } else {
            // Every sweep finished. Complete them, then prove the fuzzy
            // parallel images restore the store after total media loss —
            // a sticky silent corruption in `S` is healed by the same
            // restore + roll-forward. An armed media fault can still be
            // latent here (no thread touched the damaged page again before
            // the session ended): completing or flushing may trip it now,
            // in which case the case settles like surfaced damage.
            let mut images = Vec::new();
            let mut latent = None;
            for run in finished {
                match engine.complete_backup(run) {
                    Ok(img) => images.push(img),
                    Err(e) if is_media_damage(&e) => {
                        latent = Some(e);
                        break;
                    }
                    Err(e) => return Err(format!("complete failed: {e}")),
                }
            }
            if latent.is_none() {
                match engine.flush_all() {
                    Ok(()) => {}
                    Err(e) if is_media_damage(&e) => latent = Some(e),
                    Err(e) => return Err(e.to_string()),
                }
            }
            if latent.is_some() {
                self.media_settle(&mut engine, &oracle, base, ids)?;
                return Ok(result(DrillPath::MediaRecovery));
            }
            let combined =
                combine_images(&images).ok_or_else(|| "no images to combine".to_string())?;
            for p in 0..engine.store().partition_count() {
                engine
                    .store()
                    .fail_partition(PartitionId(p))
                    .map_err(|e| e.to_string())?;
            }
            let recovery = engine.config().recovery;
            restore_checked(&mut engine, &combined, recovery)
                .map_err(|e| format!("restore from parallel images failed: {e}"))?;
            oracle
                .verify_store(&engine, Lsn::MAX)
                .map_err(|e| format!("restore from parallel images diverged: {e}"))?;
            Ok(result(DrillPath::CleanSweep))
        }
    }

    /// Abandon the sweeps, scrub detectably-damaged pages, restore from
    /// the pre-session base image, and verify the full history.
    fn media_settle(
        &self,
        engine: &mut Engine,
        oracle: &ShadowOracle,
        base: &BackupImage,
        ids: Vec<u64>,
    ) -> Result<(), String> {
        engine.coordinator().reset_volatile();
        for id in ids {
            engine.release_backup(id);
        }
        let bad = engine.store().verify_pages();
        for p in bad.pages() {
            engine
                .store()
                .fail_range(p.partition, p.index, p.index + 1)
                .map_err(|e| e.to_string())?;
        }
        restore_checked(engine, base, engine.config().recovery)
            .map_err(|e| format!("media recovery failed: {e}"))?;
        oracle
            .verify_store(engine, Lsn::MAX)
            .map_err(|e| format!("post-media verify diverged: {e}"))?;
        Ok(())
    }

    /// The drill: probe a fault-free session for its event count, then arm
    /// crashes, media failures, and silent write corruptions round-robin
    /// across sampled indices. Divergences are collected, not fatal.
    pub fn drill(&self, max_points: usize) -> Result<ParallelDrillReport, String> {
        let probe = self.run_case(FaultKind::CountOnly)?;
        if probe.path != DrillPath::CleanSweep {
            return Err(format!("fault-free probe took {:?}", probe.path));
        }
        let total = probe.events_seen;
        let points = sample_indices(total, max_points);
        let mut report = ParallelDrillReport {
            events_total: total,
            crash_points: points.clone(),
            ..ParallelDrillReport::default()
        };
        for (i, &k) in points.iter().enumerate() {
            let kind = match i % 3 {
                0 => FaultKind::CrashAt(k),
                1 => FaultKind::MediaFailAt(k),
                _ => FaultKind::CorruptWriteAt(k),
            };
            report.cases += 1;
            match self.run_case(kind) {
                Ok(case) => {
                    if case.fired {
                        report.faults_fired += 1;
                    }
                    report.workers += case.workers;
                    match case.path {
                        DrillPath::CleanSweep => report.clean_sweeps += 1,
                        DrillPath::CrashRecovery => report.crash_recoveries += 1,
                        DrillPath::MediaRecovery => report.media_recoveries += 1,
                    }
                }
                Err(d) => report.divergences.push(format!("event {k}: {kind:?}: {d}")),
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_probe_is_a_clean_sweep() {
        let runner = ParallelDrillRunner::new(ParallelDrillConfig::small(42));
        let case = runner.run_case(FaultKind::CountOnly).unwrap();
        assert_eq!(case.path, DrillPath::CleanSweep);
        assert!(!case.fired);
        assert_eq!(case.workers, 4);
        assert!(case.events_seen > 100, "got {}", case.events_seen);
    }

    #[test]
    fn crash_case_recovers_and_verifies() {
        let runner = ParallelDrillRunner::new(ParallelDrillConfig::small(7));
        let case = runner.run_case(FaultKind::CrashAt(40)).unwrap();
        assert!(case.fired);
        assert_ne!(case.path, DrillPath::CleanSweep);
    }

    #[test]
    fn media_failure_case_restores_from_base() {
        let runner = ParallelDrillRunner::new(ParallelDrillConfig::small(9));
        let case = runner.run_case(FaultKind::MediaFailAt(30)).unwrap();
        assert!(case.fired);
        // Which thread consumes event 30 is scheduler-dependent: the damage
        // usually surfaces mid-session (media recovery from the base), but a
        // schedule where the damaged page is healed on read — or never
        // touched again until the clean arm's total-loss restore — settles
        // as a clean sweep. Both end byte-verified; only a crash path would
        // mean the wrong fault fired.
        assert_ne!(case.path, DrillPath::CrashRecovery);
    }

    #[test]
    fn small_drill_has_no_divergences() {
        let runner = ParallelDrillRunner::new(ParallelDrillConfig::small(23));
        let report = runner.drill(6).unwrap();
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
        assert_eq!(report.cases, 6);
        assert!(report.faults_fired > 0);
        assert!(report.workers > 0);
    }
}
