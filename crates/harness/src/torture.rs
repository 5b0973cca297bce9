//! The crash-point torture harness.
//!
//! SQLite-style crash testing for the engine: run a seeded workload once
//! with a counting [`FaultPlan`] to number every I/O event, then re-run the
//! *identical* workload once per chosen event index with a fault armed —
//! a process crash, a torn page write, a silent corruption, or a media
//! failure — recover, and require byte-equality with the shadow oracle.
//!
//! The event stream is a pure function of the workload seed (nothing in the
//! engine consults wall clocks or global randomness), so "crash at the k-th
//! I/O" is a perfectly reproducible scenario: any divergence found by a
//! sweep is pinned by `(seed, workload, fault kind, k)` alone.

use crate::fault::{sample_indices, witnessed, FaultKind, FaultPlan};
use crate::reference::{recover_checked, restore_checked};
use crate::shadow::ShadowOracle;
use crate::workload::WorkloadGen;
use lob_core::{
    BackupImage, BackupPolicy, Discipline, Engine, EngineConfig, EngineError, Lsn, PageId,
    PartitionId, RecoveryConfig,
};
use lob_pagestore::witness::Witness;
use lob_pagestore::IoEvent;

/// Which workload shape a torture run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TortureWorkload {
    /// General logical operations (multi-page read/write mixes) with
    /// physiological and physical writes; no concurrent backup.
    General,
    /// Tree-style operations: fresh-page copies (node splits) plus
    /// physiological / physical updates; no concurrent backup.
    Tree,
    /// General operations with an on-line backup sweeping concurrently —
    /// crash points land inside begin/step/complete and the sweep's own
    /// page copies.
    BackupConcurrent,
}

/// Parameters of a torture run. Everything is a pure function of `seed`.
#[derive(Debug, Clone)]
pub struct TortureConfig {
    /// Workload RNG seed.
    pub seed: u64,
    /// Workload shape.
    pub workload: TortureWorkload,
    /// Database pages (one partition).
    pub pages: u32,
    /// Page size in bytes.
    pub page_size: usize,
    /// Operations per session.
    pub ops: u32,
    /// Probability of flushing a random dirty page after each operation.
    pub flush_prob: f64,
    /// Probability of forcing the log after each operation (creates force /
    /// append events independent of flushes, so lost-tail crash points are
    /// well represented).
    pub force_prob: f64,
    /// Steps for the concurrent backup ([`TortureWorkload::BackupConcurrent`]).
    pub backup_steps: u32,
    /// Operations before the backup begins.
    pub backup_start_after: u32,
    /// Operations between backup steps.
    pub ops_per_backup_step: u32,
    /// Cache capacity (clean pages evict LRU past this). `None` = unbounded.
    /// Read drills bound the cache so sessions actually re-read from `S` —
    /// an unbounded cache never misses and read faults would never draw.
    pub cache_capacity: Option<usize>,
    /// Register the pre-session off-line backup as a repair generation, so
    /// the engine heals detected bad reads online instead of surfacing them.
    pub self_heal: bool,
    /// Workers/batch knobs every recovery runs with. Each one is settled
    /// against the reference ([`crate::reference`]): the same log (and
    /// image, for restores) replayed record by record on a scratch store
    /// must land byte-identically.
    pub recovery: RecoveryConfig,
}

impl TortureConfig {
    /// A small, debug-build-friendly configuration: sessions finish in
    /// milliseconds so a sweep can afford hundreds of re-runs.
    pub fn small(seed: u64, workload: TortureWorkload) -> TortureConfig {
        TortureConfig {
            seed,
            workload,
            pages: 64,
            page_size: 32,
            ops: 60,
            flush_prob: 0.45,
            force_prob: 0.2,
            backup_steps: 4,
            backup_start_after: 8,
            ops_per_backup_step: 7,
            cache_capacity: None,
            self_heal: false,
            recovery: RecoveryConfig::default(),
        }
    }

    /// [`TortureConfig::small`] with every recovery run under the given
    /// `recovery` workers / group-install batch.
    pub fn parallel(
        seed: u64,
        workload: TortureWorkload,
        recovery: RecoveryConfig,
    ) -> TortureConfig {
        TortureConfig {
            recovery,
            ..TortureConfig::small(seed, workload)
        }
    }

    /// [`TortureConfig::small`] configured for the self-healing read-fault
    /// drill: a bounded cache (so reads miss to `S`) and online repair
    /// engaged from the pre-session off-line backup.
    pub fn self_healing(seed: u64, workload: TortureWorkload) -> TortureConfig {
        TortureConfig {
            cache_capacity: Some(8),
            self_heal: true,
            ..TortureConfig::small(seed, workload)
        }
    }
}

/// How a torture case got the store back to a verified state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPath {
    /// The session completed and the store verified without repair.
    Clean,
    /// Crash recovery (redo from the last checkpointable prefix).
    CrashRecovery,
    /// Media recovery (restore from a backup image + roll-forward).
    MediaRecovery,
}

/// What one torture case observed.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Whether the armed fault fired.
    pub fired: bool,
    /// `(event index, event kind)` the fault fired at.
    pub fired_event: Option<(u64, IoEvent)>,
    /// How the case recovered.
    pub path: RecoveryPath,
    /// Whether the post-fault scrub flagged at least one corrupt page.
    pub corruption_detected: bool,
    /// Pages repaired online during the session.
    pub repairs: u64,
    /// Transient read attempts retried under the deterministic backoff.
    pub transient_retries: u64,
    /// Pages still quarantined when the case ended — zero unless a page was
    /// genuinely unrepairable.
    pub quarantined_after: usize,
    /// The case's ordering witness, with the events it observed.
    pub witness: Witness,
}

/// Aggregated outcome of a sweep.
#[derive(Debug, Clone, Default)]
pub struct TortureReport {
    /// Total I/O events in the fault-free run.
    pub events_total: u64,
    /// The distinct event indices the sweep armed.
    pub crash_points: Vec<u64>,
    /// Cases executed.
    pub cases: usize,
    /// Cases whose armed fault actually fired.
    pub faults_fired: usize,
    /// The `(index, kind)` pairs that fired (for coverage assertions).
    pub fired_events: Vec<(u64, IoEvent)>,
    /// Cases recovered by crash recovery.
    pub crash_recoveries: usize,
    /// Cases recovered by media recovery.
    pub media_recoveries: usize,
    /// Cases that completed and verified without repair.
    pub clean_completions: usize,
    /// Cases where the scrub detected injected corruption.
    pub corruption_detections: usize,
    /// Pages repaired online across all cases (repair telemetry).
    pub repairs: u64,
    /// Transient read retries across all cases (repair telemetry).
    pub transient_retries: u64,
    /// Oracle divergences and unexpected failures — must stay empty.
    pub divergences: Vec<String>,
}

impl TortureReport {
    /// The distinct event kinds that faults fired at.
    pub fn fired_kinds(&self) -> Vec<IoEvent> {
        let mut kinds: Vec<IoEvent> = self.fired_events.iter().map(|&(_, k)| k).collect();
        kinds.sort_by_key(|k| format!("{k}"));
        kinds.dedup();
        kinds
    }
}

/// Everything a driven session leaves behind.
struct DriveOutcome {
    engine: Engine,
    oracle: ShadowOracle,
    base: BackupImage,
    completed: Option<BackupImage>,
    inflight: Option<u64>,
    error: Option<EngineError>,
}

fn is_media_failure(e: &EngineError) -> bool {
    // `StoreError::MediaFailure` stringifies to "media failure reading …"
    // through every wrapping layer (cache, backup, op evaluation, redo).
    e.to_string().contains("media failure")
}

/// Runs seeded workloads under a [`FaultPlan`] and verifies recovery
/// against the shadow oracle.
pub struct TortureRunner {
    cfg: TortureConfig,
}

impl TortureRunner {
    /// A runner for the given configuration.
    pub fn new(cfg: TortureConfig) -> TortureRunner {
        TortureRunner { cfg }
    }

    /// The configuration under test.
    pub fn config(&self) -> &TortureConfig {
        &self.cfg
    }

    /// Drive one session. The op sequence, flush choices, and backup
    /// schedule are identical for every call with the same config; only the
    /// armed fault differs. Stops at the first engine error (the injected
    /// fault surfacing) and hands everything to the caller for recovery.
    fn drive(&self, plan: Option<&FaultPlan>) -> Result<DriveOutcome, String> {
        let cfg = &self.cfg;
        let discipline = match cfg.workload {
            TortureWorkload::Tree => Discipline::Tree,
            _ => Discipline::General,
        };
        let mut engine = Engine::new(EngineConfig {
            discipline,
            policy: BackupPolicy::Protocol,
            cache_capacity: cfg.cache_capacity,
            ..EngineConfig::single(cfg.pages, cfg.page_size)
        })
        .map_err(|e| e.to_string())?;
        let mut oracle = ShadowOracle::new(cfg.page_size);
        let mut gen = WorkloadGen::new(cfg.seed, cfg.page_size);

        let all: Vec<PageId> = (0..cfg.pages).map(|i| PageId::new(0, i)).collect();
        let shuffled = gen.shuffled(&all);
        let prefill = (cfg.pages as usize / 4).max(8).min(shuffled.len() / 2);
        let mut used: Vec<PageId> = shuffled[..prefill].to_vec();
        let mut fresh: Vec<PageId> = shuffled[prefill..].to_vec();
        for &p in &used.clone() {
            oracle.execute(&mut engine, gen.physical(p))?;
        }
        // The pre-session off-line backup pins the media barrier (the whole
        // session's log suffix stays restorable) and is the image media
        // recovery falls back to when no on-line backup completed.
        let base = engine.offline_backup().map_err(|e| e.to_string())?;
        if cfg.self_heal {
            engine
                .register_backup_generation(base.clone())
                .map_err(|e| e.to_string())?;
        }

        // Faults arm only now: prefill and base image are part of the fixed
        // initial condition, not the torture window.
        if let Some(plan) = plan {
            engine.install_fault_hook(Some(plan.hook()));
        }

        let mut run: Option<(lob_core::BackupRun, u32)> = None;
        let mut inflight = None;
        let mut completed = None;
        let mut error = None;

        'session: for opno in 0..cfg.ops {
            let body = match cfg.workload {
                TortureWorkload::Tree => {
                    if gen.chance(0.4) && !fresh.is_empty() {
                        let x = fresh.swap_remove(gen.below(fresh.len()));
                        let op = gen.copy_to_fresh(&used, x);
                        used.push(x);
                        op
                    } else {
                        let p = used[gen.below(used.len())];
                        if gen.chance(0.5) {
                            gen.physio(p)
                        } else {
                            gen.physical(p)
                        }
                    }
                }
                TortureWorkload::General | TortureWorkload::BackupConcurrent => {
                    if gen.chance(0.5) && used.len() >= 4 {
                        gen.mix(&used, 2, 2)
                    } else {
                        let p = used[gen.below(used.len())];
                        if gen.chance(0.5) {
                            gen.physio(p)
                        } else {
                            gen.physical(p)
                        }
                    }
                }
            };
            match engine.execute(body.clone()) {
                Ok(lsn) => oracle
                    .apply(lsn, &body)
                    .map_err(|e| format!("oracle apply failed: {e}"))?,
                Err(e) => {
                    error = Some(e);
                    break 'session;
                }
            }

            if gen.chance(cfg.flush_prob) {
                let dirty = engine.cache().dirty_pages();
                if !dirty.is_empty() {
                    let victim = dirty[gen.below(dirty.len())];
                    if let Err(e) = engine.flush_page(victim) {
                        error = Some(e);
                        break 'session;
                    }
                }
            }
            if gen.chance(cfg.force_prob) {
                if let Err(e) = engine.force_log() {
                    error = Some(e);
                    break 'session;
                }
            }

            if cfg.workload == TortureWorkload::BackupConcurrent {
                if opno == cfg.backup_start_after {
                    match engine.begin_backup(cfg.backup_steps) {
                        Ok(r) => {
                            inflight = Some(r.backup_id());
                            run = Some((r, 0));
                        }
                        Err(e) => {
                            error = Some(e);
                            break 'session;
                        }
                    }
                }
                if let Some((r, since)) = run.as_mut() {
                    *since += 1;
                    if *since >= cfg.ops_per_backup_step {
                        *since = 0;
                        match engine.backup_step(r) {
                            Ok(true) => {
                                // lint:allow(panic) `run` is Some: we are inside its `as_mut` arm
                                let (r, _) = run.take().unwrap();
                                match engine.complete_backup(r) {
                                    Ok(img) => {
                                        completed = Some(img);
                                        inflight = None;
                                    }
                                    Err(e) => {
                                        error = Some(e);
                                        break 'session;
                                    }
                                }
                            }
                            Ok(false) => {}
                            Err(e) => {
                                error = Some(e);
                                break 'session;
                            }
                        }
                    }
                }
            }
        }

        // Finish an unfinished backup (only when the session survived).
        if error.is_none() {
            if let Some((mut r, _)) = run.take() {
                let step_err = loop {
                    match engine.backup_step(&mut r) {
                        Ok(true) => break None,
                        Ok(false) => {}
                        Err(e) => break Some(e),
                    }
                };
                match step_err {
                    None => match engine.complete_backup(r) {
                        Ok(img) => {
                            completed = Some(img);
                            inflight = None;
                        }
                        Err(e) => error = Some(e),
                    },
                    Some(e) => error = Some(e),
                }
            }
        }

        Ok(DriveOutcome {
            engine,
            oracle,
            base,
            completed,
            inflight,
            error,
        })
    }

    /// Pass 1 of a sweep: run fault-free, count the I/O events, and sanity-
    /// check the session itself against the oracle.
    pub fn count_events(&self) -> Result<u64, String> {
        let plan = FaultPlan::new(FaultKind::CountOnly);
        let mut out = self.drive(Some(&plan))?;
        if let Some(e) = out.error {
            return Err(format!("fault-free run failed: {e}"));
        }
        out.engine.install_fault_hook(None);
        let total = plan.events_seen();
        out.engine.flush_all().map_err(|e| e.to_string())?;
        out.oracle
            .verify_store(&out.engine, Lsn::MAX)
            .map_err(|e| format!("fault-free run diverged: {e}"))?;
        Ok(total)
    }

    /// Run one case with `kind` armed: drive, classify the outcome, scrub,
    /// recover, and verify byte-equality with the oracle at the surviving
    /// log prefix.
    ///
    /// The case runs under its own ordering witness
    /// ([`lob_pagestore::witness::ORDER_CONTRACTS`]): any instrumented
    /// install, flush, backup copy, or cursor advance observed before its
    /// required generator event fails the case even if it byte-verified.
    pub fn run_case(&self, kind: FaultKind) -> Result<CaseResult, String> {
        let (case, witness) = witnessed(|| self.run_case_inner(kind))?;
        Ok(CaseResult { witness, ..case })
    }

    fn run_case_inner(&self, kind: FaultKind) -> Result<CaseResult, String> {
        let plan = FaultPlan::new(kind);
        let DriveOutcome {
            mut engine,
            oracle,
            base,
            completed,
            inflight,
            error,
        } = self.drive(Some(&plan))?;
        engine.install_fault_hook(None);
        // Prefer the on-line (fuzzy) image when one completed — restoring
        // from it exercises the paper's protocol; otherwise the off-line
        // base image restores the whole session.
        let image = completed.unwrap_or(base);

        let faulted = error.is_some();
        let (path, corruption_detected) = match error {
            None => {
                // The session completed, but a sticky fault may have left a
                // latent wound: a silently corrupted page or a failed range
                // nothing happened to read. Scrub, repair, verify.
                let bad = engine.store().verify_pages();
                let corruption_detected = !bad.is_empty();
                for p in bad.pages() {
                    engine
                        .store()
                        .fail_range(p.partition, p.index, p.index + 1)
                        .map_err(|e| e.to_string())?;
                }
                let any_failed = (0..engine.store().partition_count())
                    .any(|p| engine.store().has_failures(PartitionId(p)).unwrap_or(false));
                let path = if any_failed {
                    restore_checked(&mut engine, &image, self.cfg.recovery)
                        .map_err(|e| format!("media recovery failed: {e}"))?;
                    RecoveryPath::MediaRecovery
                } else {
                    engine.flush_all().map_err(|e| e.to_string())?;
                    RecoveryPath::Clean
                };
                oracle
                    .verify_store(&engine, Lsn::MAX)
                    .map_err(|e| format!("post-session verify diverged: {e}"))?;
                (path, corruption_detected)
            }
            Some(e) if e.is_injected_crash() => {
                // The process model died at the armed event. Volatile state
                // is gone; the unforced log tail is gone; a torn page may be
                // sitting in `S`.
                engine.crash();
                if let Some(id) = inflight {
                    engine.release_backup(id);
                }
                let durable = engine.log().durable_lsn();
                let bad = engine.store().verify_pages();
                let corruption_detected = !bad.is_empty();
                for p in bad.pages() {
                    engine
                        .store()
                        .fail_range(p.partition, p.index, p.index + 1)
                        .map_err(|e| e.to_string())?;
                }
                let any_failed = (0..engine.store().partition_count())
                    .any(|p| engine.store().has_failures(PartitionId(p)).unwrap_or(false));
                let path = if any_failed {
                    // Torn / corrupt pages masquerade as tiny media
                    // failures: restore from the backup and roll forward.
                    restore_checked(&mut engine, &image, self.cfg.recovery)
                        .map_err(|e| format!("media recovery after crash failed: {e}"))?;
                    RecoveryPath::MediaRecovery
                } else {
                    recover_checked(&mut engine, self.cfg.recovery)?;
                    RecoveryPath::CrashRecovery
                };
                oracle
                    .verify_store(&engine, durable)
                    .map_err(|e| format!("post-crash verify diverged: {e}"))?;
                (path, corruption_detected)
            }
            Some(e) if is_media_failure(&e) => {
                // A read hit the failed medium while the process stayed up:
                // abandon any in-flight sweep, install the replacement
                // medium, restore, roll forward to the *full* history (the
                // log never lost anything — media recovery forces the tail).
                engine.coordinator().reset_volatile();
                if let Some(id) = inflight {
                    engine.release_backup(id);
                }
                restore_checked(&mut engine, &image, self.cfg.recovery)
                    .map_err(|e| format!("media recovery failed: {e}"))?;
                oracle
                    .verify_store(&engine, Lsn::MAX)
                    .map_err(|e| format!("post-media-failure verify diverged: {e}"))?;
                (RecoveryPath::MediaRecovery, false)
            }
            Some(e) => return Err(format!("unexpected failure under {kind:?}: {e}")),
        };
        Ok(CaseResult {
            fired: faulted || plan.fired(),
            fired_event: plan.fired_event(),
            path,
            corruption_detected,
            repairs: engine.stats().repairs,
            transient_retries: engine.stats().transient_retries,
            quarantined_after: engine.quarantined_pages().len(),
            witness: Witness::new(), // replaced by `run_case`
        })
    }

    /// A sweep: count events, sample at most `max_points` indices, and run
    /// one case per index with `arm(index)` armed. Divergences are
    /// collected, not fatal, so one report shows every broken crash point.
    pub fn sweep<F: Fn(u64) -> FaultKind>(
        &self,
        arm: F,
        max_points: usize,
    ) -> Result<TortureReport, String> {
        let total = self.count_events()?;
        let points = sample_indices(total, max_points);
        let mut report = TortureReport {
            events_total: total,
            crash_points: points.clone(),
            ..TortureReport::default()
        };
        for &k in &points {
            report.cases += 1;
            match self.run_case(arm(k)) {
                Ok(case) => {
                    if case.fired {
                        report.faults_fired += 1;
                    }
                    if let Some(ev) = case.fired_event {
                        report.fired_events.push(ev);
                    }
                    if case.corruption_detected {
                        report.corruption_detections += 1;
                    }
                    report.repairs += case.repairs;
                    report.transient_retries += case.transient_retries;
                    match case.path {
                        RecoveryPath::Clean => report.clean_completions += 1,
                        RecoveryPath::CrashRecovery => report.crash_recoveries += 1,
                        RecoveryPath::MediaRecovery => report.media_recoveries += 1,
                    }
                }
                Err(d) => report.divergences.push(format!("event {k}: {d}")),
            }
        }
        Ok(report)
    }

    /// Sweep process crashes across the event stream.
    pub fn crash_sweep(&self, max_points: usize) -> Result<TortureReport, String> {
        self.sweep(FaultKind::CrashAt, max_points)
    }

    /// Sweep torn page writes (each also crashes the process).
    pub fn torn_write_sweep(&self, max_points: usize) -> Result<TortureReport, String> {
        self.sweep(FaultKind::TornWriteAt, max_points)
    }

    /// Sweep silent page corruptions (the session keeps running; the scrub
    /// or the final verification must catch every one).
    pub fn corrupt_write_sweep(&self, max_points: usize) -> Result<TortureReport, String> {
        self.sweep(FaultKind::CorruptWriteAt, max_points)
    }

    /// Sweep media failures (during flushes and backup copies alike).
    pub fn media_fail_sweep(&self, max_points: usize) -> Result<TortureReport, String> {
        self.sweep(FaultKind::MediaFailAt, max_points)
    }

    /// Sweep stored-byte corruptions under page reads. Requires
    /// [`TortureConfig::self_heal`]: without a registered repair generation
    /// a detected bad read is a session-fatal error by design.
    pub fn corrupt_read_sweep(&self, max_points: usize) -> Result<TortureReport, String> {
        self.require_self_heal("corrupt_read_sweep")?;
        self.sweep(FaultKind::CorruptReadAt, max_points)
    }

    /// Sweep torn page reads (front half kept, back half zeroed in `S`).
    /// Requires [`TortureConfig::self_heal`].
    pub fn torn_read_sweep(&self, max_points: usize) -> Result<TortureReport, String> {
        self.require_self_heal("torn_read_sweep")?;
        self.sweep(FaultKind::TornReadAt, max_points)
    }

    /// Sweep transient read errors (two consecutive misses, then the device
    /// answers). Requires [`TortureConfig::self_heal`].
    pub fn transient_read_sweep(&self, max_points: usize) -> Result<TortureReport, String> {
        self.require_self_heal("transient_read_sweep")?;
        self.sweep(FaultKind::TransientReadAt, max_points)
    }

    fn require_self_heal(&self, what: &str) -> Result<(), String> {
        if self.cfg.self_heal {
            Ok(())
        } else {
            Err(format!(
                "{what} requires TortureConfig::self_heal (use TortureConfig::self_healing)"
            ))
        }
    }

    /// The online self-healing drill (DESIGN.md §5.8): arm corrupt, torn,
    /// and transient read faults round-robin across the sampled event
    /// indices. On top of [`TortureRunner::sweep`]'s oracle byte-verify,
    /// every case must end with the *clean* recovery path — a repairable
    /// read fault never aborts the session, never forces crash or media
    /// recovery, and leaves zero pages quarantined.
    pub fn read_fault_drill(&self, max_points: usize) -> Result<TortureReport, String> {
        self.require_self_heal("read_fault_drill")?;
        let total = self.count_events()?;
        let points = sample_indices(total, max_points);
        let mut report = TortureReport {
            events_total: total,
            crash_points: points.clone(),
            ..TortureReport::default()
        };
        for (i, &k) in points.iter().enumerate() {
            let kind = match i % 3 {
                0 => FaultKind::CorruptReadAt(k),
                1 => FaultKind::TornReadAt(k),
                _ => FaultKind::TransientReadAt(k),
            };
            report.cases += 1;
            match self.run_case(kind) {
                Ok(case) => {
                    if case.path != RecoveryPath::Clean {
                        report.divergences.push(format!(
                            "event {k}: {kind:?} forced {:?}; a repairable read fault \
                             must heal online",
                            case.path
                        ));
                    }
                    if case.quarantined_after != 0 {
                        report.divergences.push(format!(
                            "event {k}: {kind:?} left {} page(s) quarantined",
                            case.quarantined_after
                        ));
                    }
                    if case.fired {
                        report.faults_fired += 1;
                    }
                    if let Some(ev) = case.fired_event {
                        report.fired_events.push(ev);
                    }
                    if case.corruption_detected {
                        report.corruption_detections += 1;
                    }
                    report.repairs += case.repairs;
                    report.transient_retries += case.transient_retries;
                    match case.path {
                        RecoveryPath::Clean => report.clean_completions += 1,
                        RecoveryPath::CrashRecovery => report.crash_recoveries += 1,
                        RecoveryPath::MediaRecovery => report.media_recoveries += 1,
                    }
                }
                Err(d) => report.divergences.push(format!("event {k}: {kind:?}: {d}")),
            }
        }
        Ok(report)
    }

    /// Crash-during-restore drill: complete a clean session, fail the
    /// medium, then crash media recovery at every sampled I/O event of the
    /// restore + roll-forward itself and show that simply *re-running*
    /// media recovery converges to the oracle — restores are restartable.
    ///
    /// Every restore in the drill (the counting run, the killed attempt,
    /// and the restart) runs under [`TortureConfig::recovery`], so with
    /// several workers the kill lands *inside* a parallel restore; the
    /// restarted one must still converge — and is additionally settled
    /// against the reference.
    pub fn restore_crash_drill(&self, max_points: usize) -> Result<TortureReport, String> {
        let DriveOutcome {
            mut engine,
            oracle,
            base,
            completed,
            inflight: _,
            error,
        } = self.drive(None)?;
        if let Some(e) = error {
            return Err(format!("clean session failed: {e}"));
        }
        let image = completed.unwrap_or(base);

        // Count the restore's own I/O events.
        let counter = FaultPlan::new(FaultKind::CountOnly);
        engine
            .store()
            .fail_partition(PartitionId(0))
            .map_err(|e| e.to_string())?;
        engine.install_fault_hook(Some(counter.hook()));
        engine
            .parallel_restore_with(&image, self.cfg.recovery)
            .map_err(|e| format!("fault-free restore failed: {e}"))?;
        engine.install_fault_hook(None);
        let total = counter.events_seen();
        oracle
            .verify_store(&engine, Lsn::MAX)
            .map_err(|e| format!("fault-free restore diverged: {e}"))?;

        let points = sample_indices(total, max_points);
        let mut report = TortureReport {
            events_total: total,
            crash_points: points.clone(),
            ..TortureReport::default()
        };
        for &k in &points {
            report.cases += 1;
            let plan = FaultPlan::new(FaultKind::CrashAt(k));
            if let Err(e) = engine.store().fail_partition(PartitionId(0)) {
                report.divergences.push(format!("event {k}: {e}"));
                continue;
            }
            engine.install_fault_hook(Some(plan.hook()));
            let first = engine.parallel_restore_with(&image, self.cfg.recovery);
            engine.install_fault_hook(None);
            match first {
                Err(e) if e.is_injected_crash() => {
                    report.faults_fired += 1;
                    if let Some(ev) = plan.fired_event() {
                        report.fired_events.push(ev);
                    }
                    // The process died mid-restore. Model the reboot, then
                    // just run media recovery again from the same image.
                    engine.crash();
                    if let Err(e) = restore_checked(&mut engine, &image, self.cfg.recovery) {
                        report
                            .divergences
                            .push(format!("event {k}: restarted restore failed: {e}"));
                        continue;
                    }
                    match oracle.verify_store(&engine, Lsn::MAX) {
                        Ok(()) => report.media_recoveries += 1,
                        Err(e) => report
                            .divergences
                            .push(format!("event {k}: restarted restore diverged: {e}")),
                    }
                }
                Err(e) => report
                    .divergences
                    .push(format!("event {k}: unexpected failure: {e}")),
                Ok(_) => {
                    // The armed index was past the restore's last event —
                    // the restore completed untouched.
                    match oracle.verify_store(&engine, Lsn::MAX) {
                        Ok(()) => report.clean_completions += 1,
                        Err(e) => report.divergences.push(format!("event {k}: {e}")),
                    }
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_counting_is_deterministic() {
        let runner = TortureRunner::new(TortureConfig::small(42, TortureWorkload::General));
        let a = runner.count_events().unwrap();
        let b = runner.count_events().unwrap();
        assert_eq!(a, b);
        assert!(a > 20, "a session this size must do real I/O (got {a})");
    }

    #[test]
    fn single_crash_case_recovers_and_verifies() {
        let runner = TortureRunner::new(TortureConfig::small(7, TortureWorkload::BackupConcurrent));
        let case = runner.run_case(FaultKind::CrashAt(10)).unwrap();
        assert!(case.fired);
        assert_ne!(case.path, RecoveryPath::Clean);
    }

    #[test]
    fn read_sweeps_refuse_to_run_without_self_healing() {
        let runner = TortureRunner::new(TortureConfig::small(3, TortureWorkload::General));
        assert!(runner.corrupt_read_sweep(2).is_err());
        assert!(runner.read_fault_drill(2).is_err());
    }

    #[test]
    fn single_corrupt_read_case_heals_online() {
        let runner = TortureRunner::new(TortureConfig::self_healing(11, TortureWorkload::General));
        let case = runner.run_case(FaultKind::CorruptReadAt(5)).unwrap();
        assert!(case.fired);
        assert_eq!(case.path, RecoveryPath::Clean);
        assert!(case.repairs >= 1, "the damaged read must repair online");
        assert_eq!(case.quarantined_after, 0);
    }

    #[test]
    fn parallel_crash_case_settles_against_the_sequential_oracle() {
        let runner = TortureRunner::new(TortureConfig::parallel(
            7,
            TortureWorkload::BackupConcurrent,
            RecoveryConfig::new(4, 8),
        ));
        let case = runner.run_case(FaultKind::CrashAt(10)).unwrap();
        assert!(case.fired);
        assert_ne!(case.path, RecoveryPath::Clean);
    }

    #[test]
    fn parallel_media_failure_case_settles_against_the_sequential_oracle() {
        let runner = TortureRunner::new(TortureConfig::parallel(
            13,
            TortureWorkload::General,
            RecoveryConfig::new(2, 64),
        ));
        let case = runner.run_case(FaultKind::MediaFailAt(30)).unwrap();
        assert!(case.fired);
    }

    #[test]
    fn small_read_fault_drill_is_all_clean() {
        let runner = TortureRunner::new(TortureConfig::self_healing(
            23,
            TortureWorkload::BackupConcurrent,
        ));
        let report = runner.read_fault_drill(6).unwrap();
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
        assert_eq!(report.clean_completions, report.cases);
        assert!(report.faults_fired > 0);
    }
}
