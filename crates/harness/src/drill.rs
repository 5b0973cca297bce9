//! The one fault drill (DESIGN.md §5.5).
//!
//! Every drill case runs the same loop, under its own ordering witness
//! ([`lob_pagestore::witness`]):
//!
//! 1. build an engine of the drill's geometry and prefill it through the
//!    [`ShadowOracle`];
//! 2. take the off-line base image. It pins the media barrier, so the
//!    case's whole log suffix stays restorable from it;
//! 3. the scenario's setup, then arm a [`FaultPlan`];
//! 4. the scenario's drive ([`Scenario`]). The first failed verb stops the
//!    drive, except where the scenario reboots after an injected crash and
//!    carries on (the instant-restore epoch, the interrupted restore);
//! 5. one settlement, by what the store shows:
//!    - crash → crash recovery, or restore when the scrub finds torn or
//!      corrupt pages;
//!    - media damage (a failed range or a quarantined page, or, under
//!      [`Scenario::Sweeps`] only, a checksum failure on the wounded page
//!      that the writer's flush already overwrote) → scrub + restore;
//!    - a finished drive → scrub, flush, verify the store the drive left,
//!      then restore from the drive's own on-line images after total media
//!      loss; damage that surfaces only at that flush is rerouted to
//!      restore;
//!    - any other error → a divergence.
//!
//!    Every recovery and restore is settled against the reference replay
//!    ([`crate::reference`]);
//! 6. one verification: the store byte-matches the oracle at the durable
//!    prefix after a crash, at the full history otherwise.
//!
//! Each case is one row of the [`Report`]'s ledger. The event stream of a
//! single-threaded scenario is a pure function of the seed, so a
//! divergence is pinned by its row alone.

use crate::fault::{sample_indices, witnessed, FaultKind, FaultPlan};
use crate::parallel::combine_images;
use crate::reference::{recover_checked, restore_checked};
use crate::shadow::ShadowOracle;
use crate::workload::WorkloadGen;
use lob_backup::BackupError;
use lob_cache::CacheError;
use lob_core::{
    BackupImage, BackupPolicy, CommitConfig, Discipline, Engine, EngineConfig, EngineError,
    EngineService, EngineStats, Lsn, OpBody, PageId, PartitionId, PartitionSpec, RecoveryConfig,
    Tracking,
};
use lob_pagestore::witness::Witness;
use lob_pagestore::{IoEvent, StoreError};
use std::fmt;
use std::sync::Arc;

/// What a drill drives between arming its plan and settling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario {
    /// One engine, one op loop: operations of the drill's discipline over
    /// the prefilled pages, random flushes and log forces, and an on-line
    /// backup when `backup_steps > 0`.
    Ops(OpLoop),
    /// The [`Scenario::Ops`] loop runs fault-free as setup; the plan arms
    /// for the media recovery after it, so the fault points are the
    /// restore's own I/O events. A killed restore is simply run again.
    Restore(OpLoop),
    /// One sweep worker thread per backup domain races partition-confined
    /// operations on this thread (§3.4). Which thread trips the armed
    /// event is up to the scheduler.
    Sweeps,
    /// Total media loss `tail_ops` operations past the base image, then an
    /// instant-restore epoch serving verified reads and writes between
    /// sweep steps, and `post_ops` writes after it. An injected crash
    /// reboots the epoch and the drive carries on.
    Degraded {
        /// Operations between the base image and the media loss.
        tail_ops: u32,
        /// Writes after the epoch closes.
        post_ops: u32,
    },
    /// This many session threads over one shared service, session `t`
    /// confined to partition `t % partitions`, beside a thread running
    /// backup rounds over domain 0.
    Sessions(usize),
}

/// The knobs only the op loop reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpLoop {
    /// Probability of forcing the log after an operation (never drawn
    /// when zero).
    pub force_prob: f64,
    /// Operations before the backup begins.
    pub backup_start_after: u32,
    /// Operations between backup steps.
    pub ops_per_backup_step: u32,
    /// Bound the cache to 8 frames (so reads miss to `S`) and register the
    /// base image as a repair generation, so detected bad reads heal
    /// online.
    pub self_heal: bool,
}

impl OpLoop {
    /// The torture loop: frequent forces, a backup from operation 8
    /// stepped every 7 operations.
    pub const TORTURE: OpLoop = OpLoop {
        force_prob: 0.2,
        backup_start_after: 8,
        ops_per_backup_step: 7,
        self_heal: false,
    };
    /// [`OpLoop::TORTURE`], healing bad reads online.
    pub const HEALING: OpLoop = OpLoop {
        self_heal: true,
        ..OpLoop::TORTURE
    };
    /// A randomized session: no forced log forces, a backup from operation
    /// 80 stepped every 60 operations.
    pub const SESSION: OpLoop = OpLoop {
        force_prob: 0.0,
        backup_start_after: 80,
        ops_per_backup_step: 60,
        self_heal: false,
    };
}

/// A drill: the scenario and its geometry. Everything is a pure function
/// of `seed` except the interleaving of the threaded scenarios.
#[derive(Debug, Clone)]
pub struct Drill {
    /// Workload RNG seed.
    pub seed: u64,
    /// What the drive does.
    pub scenario: Scenario,
    /// Partitions (one backup domain each when more than one, except
    /// under [`Scenario::Degraded`], which tracks them in one sequence).
    pub partitions: u32,
    /// Pages per partition.
    pub pages: u32,
    /// Pages per partition the prefill writes. The op loop draws from
    /// them (in a shuffled order); the other scenarios use every page.
    pub prefill: u32,
    /// Page size in bytes.
    pub page_size: usize,
    /// Operation discipline.
    pub discipline: Discipline,
    /// Backup policy under test.
    pub policy: BackupPolicy,
    /// Operations the drive issues (per session thread).
    pub ops: u32,
    /// Under [`Scenario::Sessions`], the operations of the first session
    /// threads, one entry each, where they differ from `ops`: uneven
    /// sessions, whose shorter threads exit while the others run on.
    pub session_ops: Vec<u32>,
    /// Probability of flushing a random dirty page after an operation.
    pub flush_prob: f64,
    /// Steps per on-line backup; zero runs no backup.
    pub backup_steps: u32,
    /// Workers and batch of every recovery and restore.
    pub recovery: RecoveryConfig,
    /// Group-commit settings of the shared service.
    pub commit: CommitConfig,
}

/// How a case got the store back to a verified state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// The drive finished, or rode its faults out, without a restore from
    /// the fallback image.
    Clean,
    /// An injected crash went through crash recovery or an instant reboot.
    Crash,
    /// A restore from an image plus roll-forward.
    Media,
}

/// Why a case did not settle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// The store the case left does not byte-match the shadow oracle.
    Oracle(String),
    /// Anything else: a failed setup, settlement or reference differential,
    /// an ordering violation, or a failure the store shows no damage for.
    Failed(String),
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Oracle(e) | Divergence::Failed(e) => f.write_str(e),
        }
    }
}

impl From<String> for Divergence {
    fn from(e: String) -> Divergence {
        Divergence::Failed(e)
    }
}

/// What a case counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Engine counters from arming to the end of the settlement.
    pub stats: EngineStats,
    /// Non-empty log forces during the drive.
    pub forces: u64,
    /// Pages the settlement's scrub found torn or corrupt.
    pub scrubbed: usize,
    /// Pages still quarantined when the case ended.
    pub quarantined: usize,
    /// Foreground reads byte-checked against the oracle during the drive.
    pub reads: u64,
    /// Pages the drive's completed on-line backups copied.
    pub backup_pages: u64,
}

/// One row of the ledger.
#[derive(Debug, Clone)]
pub struct Case {
    /// The drill's seed.
    pub seed: u64,
    /// The armed fault.
    pub kind: FaultKind,
    /// `(event index, event kind)` the fault fired at.
    pub fired: Option<(u64, IoEvent)>,
    /// I/O events consulted between arming and settling.
    pub events: u64,
    /// How the case settled, or why it diverged.
    pub path: Result<Path, Divergence>,
    /// What the case counted.
    pub counters: Counters,
    /// The case's ordering witness, with the events it observed.
    pub witness: Witness,
}

/// The per-case ledger of a drill run. Every count is derived from it.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// I/O events of the fault-free probe a sweep sampled from.
    pub events_total: u64,
    /// One row per case.
    pub cases: Vec<Case>,
}

impl Report {
    /// Cases that settled on `path`.
    pub fn count(&self, path: Path) -> usize {
        self.cases.iter().filter(|c| c.path == Ok(path)).count()
    }

    /// Cases whose armed fault fired.
    pub fn fired(&self) -> usize {
        self.cases.iter().filter(|c| c.fired.is_some()).count()
    }

    /// Oracle and reference divergences and unexpected failures.
    pub fn divergences(&self) -> Vec<String> {
        let err = |c: &Case| Some(format!("{:?}: {}", c.kind, c.path.as_ref().err()?));
        self.cases.iter().filter_map(err).collect()
    }

    /// The distinct event kinds that faults fired at.
    pub fn fired_kinds(&self) -> Vec<IoEvent> {
        let mut kinds: Vec<IoEvent> = self.cases.iter().filter_map(|c| Some(c.fired?.1)).collect();
        kinds.sort_by_key(|k| k.to_string());
        kinds.dedup();
        kinds
    }
}

impl fmt::Display for Case {
    /// One ledger row: everything but the witness.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:#x} {:?} fired={:?} path={:?} events={} {:?}",
            self.seed, self.kind, self.fired, self.path, self.events, self.counters
        )
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "events_total={}", self.events_total)?;
        self.cases.iter().try_for_each(|c| writeln!(f, "{c}"))
    }
}

/// Why a drive ended early.
#[derive(Debug)]
pub(crate) enum Stop {
    /// An engine verb failed; the settlement classifies the failure.
    Engine(EngineError),
    /// The harness itself saw a divergence.
    Diverged(String),
}

impl From<EngineError> for Stop {
    fn from(e: EngineError) -> Stop {
        Stop::Engine(e)
    }
}

impl From<String> for Stop {
    fn from(e: String) -> Stop {
        Stop::Diverged(e)
    }
}

/// How a scenario comes back from an injected crash without stopping.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Reboot {
    /// Re-enter instant restore from the surviving media.
    Epoch,
    /// Ordinary crash recovery.
    Recover,
    /// Run media recovery again from the fallback image.
    Restore,
}

/// What a case carries from build to verdict, beside its engine.
pub(crate) struct State {
    pub(crate) oracle: ShadowOracle,
    pub(crate) gen: WorkloadGen,
    pub(crate) plan: FaultPlan,
    pub(crate) base: BackupImage,
    /// On-line images the drive completed, together a whole database.
    pub(crate) images: Vec<BackupImage>,
    /// Backups begun and not completed; released when the case settles.
    pub(crate) inflight: Vec<u64>,
    /// The op loop's page pool and the pages tree splits copy into.
    pub(crate) used: Vec<PageId>,
    pub(crate) fresh: Vec<PageId>,
    pub(crate) counters: Counters,
    /// The path of the last reboot the drive took, if any.
    pub(crate) rebooted: Option<Path>,
}

impl State {
    /// Execute `body` and mirror it into the oracle.
    pub(crate) fn exec(&mut self, engine: &EngineService, body: OpBody) -> Result<(), Stop> {
        let lsn = engine.execute(body.clone())?;
        self.apply(lsn, &body)
    }

    pub(crate) fn apply(&mut self, lsn: Lsn, body: &OpBody) -> Result<(), Stop> {
        self.oracle
            .apply(lsn, body)
            .map_err(|e| Stop::Diverged(format!("oracle apply failed: {e}")))
    }

    /// With probability `p`, flush a random dirty page.
    pub(crate) fn flush_random(&mut self, engine: &EngineService, p: f64) -> Result<(), Stop> {
        if self.gen.chance(p) {
            let dirty = engine.cache().dirty_pages();
            if !dirty.is_empty() {
                if let Some(&victim) = dirty.get(self.gen.below(dirty.len())) {
                    engine.flush_page(victim)?;
                }
            }
        }
        Ok(())
    }

    /// Record a completed on-line backup.
    pub(crate) fn completed(&mut self, image: BackupImage) {
        self.inflight.retain(|&id| id != image.backup_id);
        self.counters.backup_pages += image.page_count() as u64;
        self.images.push(image);
    }

    /// An interrupted verb of a scenario that carries on: on an injected
    /// crash, kill the process model, forget the unforced tail, reboot and
    /// return `None`. Any other failure stops the drive.
    pub(crate) fn survive<T>(
        &mut self,
        engine: &EngineService,
        r: Result<T, EngineError>,
        reboot: Reboot,
    ) -> Result<Option<T>, Stop> {
        let cause = match r {
            Ok(v) => return Ok(Some(v)),
            Err(e) if e.is_injected_crash() => e,
            Err(e) => return Err(e.into()),
        };
        engine.crash();
        self.oracle.truncate_to(engine.log().durable_lsn());
        let recovery = engine.config().recovery;
        let done = match reboot {
            Reboot::Epoch => engine.recover_instant().map_err(|e| e.to_string()),
            Reboot::Recover => recover_checked(engine, recovery),
            Reboot::Restore => restore_checked(engine, &self.fallback(), recovery),
        };
        done.map_err(|e| format!("{reboot:?} after `{cause}` failed: {e}"))?;
        self.rebooted = Some(match reboot {
            Reboot::Restore => Path::Media,
            _ => Path::Crash,
        });
        Ok(None)
    }

    /// The image a restore falls back to: the drive's on-line images if it
    /// completed them, else the base.
    fn fallback(&self) -> BackupImage {
        combine_images(&self.images).unwrap_or_else(|| self.base.clone())
    }

    /// Fail the range of every page the scrub finds torn or corrupt, then
    /// report whether the store shows media damage: a failed range or a
    /// quarantined page.
    fn scrub(&mut self, svc: &EngineService) -> Result<bool, String> {
        let bad = svc.store().verify_pages();
        self.counters.scrubbed += bad.len();
        for p in bad.pages() {
            svc.store()
                .fail_range(p.partition, p.index, p.index + 1)
                .map_err(|e| e.to_string())?;
        }
        let failed = (0..svc.store().partition_count())
            .any(|p| svc.store().has_failures(PartitionId(p)).unwrap_or(false));
        Ok(failed || !svc.quarantined_pages().is_empty())
    }

    fn release(&mut self, svc: &EngineService) {
        for id in self.inflight.drain(..) {
            svc.release_backup(id);
        }
    }
}

/// An update of one page of `pages`: a physiological overlay or a full
/// physical write.
pub(crate) fn update(gen: &mut WorkloadGen, pages: &[PageId]) -> OpBody {
    let p = gen.pick(pages);
    if gen.chance(0.5) {
        gen.physio(p)
    } else {
        gen.physical(p)
    }
}

/// A general operation over `pages`: a two-read, two-write logical mix or
/// an update.
pub(crate) fn confined(gen: &mut WorkloadGen, pages: &[PageId]) -> OpBody {
    if gen.chance(0.5) && pages.len() >= 4 {
        gen.mix(pages, 2, 2)
    } else {
        update(gen, pages)
    }
}

impl Drill {
    /// The op loop: one partition of 64 pages of 32 bytes, 16 prefilled,
    /// 60 operations, no backup. A run finishes in milliseconds, so a
    /// sweep can afford hundreds of cases.
    pub fn ops(seed: u64, discipline: Discipline) -> Drill {
        Drill {
            seed,
            scenario: Scenario::Ops(OpLoop::TORTURE),
            partitions: 1,
            pages: 64,
            prefill: 16,
            page_size: 32,
            discipline,
            policy: BackupPolicy::Protocol,
            ops: 60,
            session_ops: Vec::new(),
            flush_prob: 0.45,
            backup_steps: 0,
            recovery: RecoveryConfig::default(),
            commit: CommitConfig::default(),
        }
    }

    /// [`Drill::ops`] with general operations and a four-step on-line
    /// backup sweeping concurrently, so fault points land inside
    /// begin/step/complete and the sweep's own page copies.
    pub fn backup(seed: u64) -> Drill {
        Drill {
            backup_steps: 4,
            ..Drill::ops(seed, Discipline::General)
        }
    }

    /// [`Drill::backup`] run fault-free, with the faults armed in the
    /// media recovery that follows it.
    pub fn restore(seed: u64) -> Drill {
        Drill {
            scenario: Scenario::Restore(OpLoop::TORTURE),
            ..Drill::backup(seed)
        }
    }

    /// A randomized end-to-end session: 256 pages of 64 bytes, 400
    /// operations, a four-step backup from operation 80, and no forced
    /// faults. Finished sessions end with total media loss restored from
    /// the session's own backup.
    pub fn session(seed: u64, discipline: Discipline) -> Drill {
        Drill {
            scenario: Scenario::Ops(OpLoop::SESSION),
            pages: 256,
            prefill: 85,
            page_size: 64,
            ops: 400,
            flush_prob: 0.4,
            backup_steps: 4,
            ..Drill::ops(seed, discipline)
        }
    }

    /// Four partitions of 32 pages, one four-step sweep worker each, racing
    /// 48 writer operations.
    pub fn sweeps(seed: u64) -> Drill {
        Drill {
            scenario: Scenario::Sweeps,
            partitions: 4,
            pages: 32,
            prefill: 32,
            ops: 48,
            flush_prob: 0.5,
            backup_steps: 4,
            ..Drill::ops(seed, Discipline::General)
        }
    }

    /// Four partitions of 16 pages: 32 tail operations, 24 foreground
    /// operations during the epoch, 8 after it.
    pub fn instant(seed: u64) -> Drill {
        Drill {
            scenario: Scenario::Degraded {
                tail_ops: 32,
                post_ops: 8,
            },
            partitions: 4,
            pages: 16,
            prefill: 16,
            ops: 24,
            ..Drill::ops(seed, Discipline::General)
        }
    }

    /// `sessions` threads over `partitions` partitions of 16 pages of 128
    /// bytes, 64 operations each, group committing through a 50 µs window
    /// of up to 4 sessions, beside two four-step backup rounds.
    pub fn sessions(sessions: usize, partitions: u32, seed: u64) -> Drill {
        Drill {
            scenario: Scenario::Sessions(sessions),
            partitions,
            pages: 16,
            prefill: 16,
            page_size: 128,
            ops: 64,
            backup_steps: 4,
            commit: CommitConfig {
                group_commit_delay_micros: 50,
                group_commit_count: 4,
                ..CommitConfig::default()
            },
            ..Drill::ops(seed, Discipline::General)
        }
    }

    /// The op loop's knobs, if the drill runs it.
    fn op_loop(&self) -> Option<OpLoop> {
        match self.scenario {
            Scenario::Ops(l) | Scenario::Restore(l) => Some(l),
            _ => None,
        }
    }

    /// Run one case with `kind` armed. A failure anywhere is the case's
    /// divergence, never a panic.
    pub fn case(&self, kind: FaultKind) -> Case {
        match witnessed(|| self.run(kind)) {
            Ok((case, witness)) => Case { witness, ..case },
            Err(e) => Case {
                seed: self.seed,
                kind,
                fired: None,
                events: 0,
                path: Err(Divergence::Failed(e)),
                counters: Counters::default(),
                witness: Witness::new(),
            },
        }
    }

    /// Run one case per kind.
    pub fn cases(&self, kinds: impl IntoIterator<Item = FaultKind>) -> Report {
        Report {
            events_total: 0,
            cases: kinds.into_iter().map(|k| self.case(k)).collect(),
        }
    }

    /// Probe a fault-free case for its event count, sample at most
    /// `max_points` event indices, and arm `arms` round-robin across them.
    pub fn sweep(
        &self,
        arms: &[fn(u64) -> FaultKind],
        max_points: usize,
    ) -> Result<Report, String> {
        let probe = self.case(FaultKind::CountOnly);
        if probe.path != Ok(Path::Clean) || probe.fired.is_some() {
            return Err(format!("fault-free probe: {probe}"));
        }
        let points = sample_indices(probe.events, max_points);
        let kinds = arms.iter().cycle().zip(points).map(|(arm, k)| arm(k));
        Ok(Report {
            events_total: probe.events,
            ..self.cases(kinds)
        })
    }

    fn engine_config(&self) -> EngineConfig {
        let tracking = match self.scenario {
            Scenario::Degraded { .. } => {
                Tracking::Sequential((0..self.partitions).map(PartitionId).collect())
            }
            _ if self.partitions > 1 => Tracking::PerPartition,
            _ => Tracking::Sequential(vec![PartitionId(0)]),
        };
        EngineConfig {
            page_size: self.page_size,
            partitions: vec![PartitionSpec { pages: self.pages }; self.partitions as usize],
            discipline: self.discipline,
            policy: self.policy,
            tracking,
            cache_capacity: self.op_loop().filter(|l| l.self_heal).map(|_| 8),
            recovery: self.recovery,
            commit: self.commit,
            ..EngineConfig::small()
        }
    }

    /// Build, prefill, take the base image and run the scenario's setup.
    /// Session threads share a service of the configured geometry; every
    /// other scenario drives the service of a one-session [`Engine`].
    pub(crate) fn build(&self, kind: FaultKind) -> Result<(Arc<EngineService>, State), String> {
        let config = self.engine_config();
        let db = match self.scenario {
            Scenario::Sessions(_) => EngineService::new(config).map(Arc::new),
            _ => Engine::new(config).map(|e| e.0),
        }
        .map_err(|e| e.to_string())?;
        let mut gen = WorkloadGen::new(self.seed, self.page_size);
        let (used, fresh) = if self.op_loop().is_some() {
            let all: Vec<PageId> = (0..self.pages).map(|i| PageId::new(0, i)).collect();
            let mut used = gen.shuffled(&all);
            let fresh = used.split_off((self.prefill as usize).min(used.len()));
            (used, fresh)
        } else {
            let every = |p| (0..self.prefill).map(move |i| PageId::new(p, i));
            ((0..self.partitions).flat_map(every).collect(), Vec::new())
        };
        // A shared service's group commit gathers its registered sessions;
        // one live session lets the prefill's forces close at once.
        let setup = db.session();
        let mut oracle = ShadowOracle::new(self.page_size);
        for &p in &used {
            let body = gen.physical(p);
            let lsn = db.execute(body.clone()).map_err(|e| e.to_string())?;
            oracle.apply(lsn, &body).map_err(|e| e.to_string())?;
        }
        let base = db.offline_backup().map_err(|e| e.to_string())?;
        drop(setup);
        let mut st = State {
            oracle,
            gen,
            plan: FaultPlan::new(kind),
            base,
            images: Vec::new(),
            inflight: Vec::new(),
            used,
            fresh,
            counters: Counters::default(),
            rebooted: None,
        };
        if self.op_loop().is_some_and(|l| l.self_heal) {
            db.register_backup_generation(st.base.clone())
                .map_err(|e| format!("setup failed: {e}"))?;
        }
        // What a scenario does between the base image and arming.
        match self.scenario {
            Scenario::Restore(l) => self.drive_ops(&db, &mut st, l),
            Scenario::Degraded { tail_ops, .. } => self.instant_setup(&db, &mut st, tail_ops),
            _ => Ok(()),
        }
        .map_err(|e| format!("setup failed: {e:?}"))?;
        Ok((db, st))
    }

    fn drive(&self, db: &Arc<EngineService>, st: &mut State) -> Result<(), Stop> {
        match self.scenario {
            Scenario::Sessions(n) => self.drive_sessions(db, st, n),
            Scenario::Ops(l) => self.drive_ops(db, st, l),
            Scenario::Restore(_) => {
                db.store()
                    .fail_partition(PartitionId(0))
                    .map_err(|e| e.to_string())?;
                let r = db.parallel_restore_with(&st.fallback(), self.recovery);
                st.survive(db, r, Reboot::Restore).map(drop)
            }
            Scenario::Sweeps => self.drive_sweeps(db, st),
            Scenario::Degraded { post_ops, .. } => self.drive_instant(db, st, post_ops),
        }
    }

    fn run(&self, kind: FaultKind) -> Result<Case, String> {
        let (db, mut st) = self.build(kind)?;
        let (stats, forces) = (db.stats(), db.log_stats().forces);
        db.install_fault_hook(Some(st.plan.hook()));
        let stop = self.drive(&db, &mut st);
        db.install_fault_hook(None);
        st.counters.forces = db.log_stats().forces - forces;
        let path = match stop {
            Ok(()) => self.settle(&db, &mut st, None),
            Err(Stop::Engine(e)) => self.settle(&db, &mut st, Some(e)),
            Err(Stop::Diverged(e)) => Err(Divergence::Failed(e)),
        }
        .map(|path| match (path, st.rebooted) {
            (Path::Clean, Some(rebooted)) => rebooted,
            _ => path,
        });
        st.counters.stats = db.stats().since(&stats);
        st.counters.quarantined = db.quarantined_pages().len();
        Ok(Case {
            seed: self.seed,
            kind,
            fired: st.plan.fired_event(),
            events: st.plan.events_seen(),
            path,
            counters: st.counters,
            witness: Witness::new(),
        })
    }

    /// The settlement table, then the verification.
    fn settle(
        &self,
        db: &EngineService,
        st: &mut State,
        stop: Option<EngineError>,
    ) -> Result<Path, Divergence> {
        let (path, prefix) = match stop {
            Some(e) if e.is_injected_crash() => {
                // The process model died at the armed event: volatile state
                // and the unforced log tail are gone, and a torn page may
                // sit in `S`.
                db.crash();
                st.release(db);
                let durable = db.log().durable_lsn();
                if st.scrub(db)? {
                    restore_checked(db, &st.fallback(), self.recovery)?;
                    (Path::Media, durable)
                } else {
                    recover_checked(db, self.recovery)?;
                    (Path::Crash, durable)
                }
            }
            Some(e) => (self.media(db, st, e)?, Lsn::MAX),
            None => (self.settle_finished(db, st)?, Lsn::MAX),
        };
        st.oracle.verify_store(db, prefix).map_err(|e| {
            Divergence::Oracle(format!("{path:?} settlement diverged from the oracle: {e}"))
        })?;
        Ok(path)
    }

    /// Media damage surfaced while the process stayed up: abandon what is
    /// in flight, scrub, restore and roll the full history forward. A
    /// failure that left no damage in the store is unexpected, unless it
    /// is an overwritten wound ([`Drill::overwritten_wound`]).
    fn media(
        &self,
        db: &EngineService,
        st: &mut State,
        e: EngineError,
    ) -> Result<Path, Divergence> {
        if !st.scrub(db)? && !self.overwritten_wound(&st.plan, &e) {
            return Err(Divergence::Failed(format!(
                "unexpected failure under {:?}: {e}",
                st.plan.kind()
            )));
        }
        db.coordinator().reset_volatile();
        st.release(db);
        restore_checked(db, &st.fallback(), self.recovery)?;
        Ok(Path::Media)
    }

    /// Whether `e` is a sweep worker's checksum failure reading the page
    /// the fired fault damaged, which the writer's flush then overwrote.
    /// Elsewhere the failed read stops the drive and the scrub finds it.
    fn overwritten_wound(&self, plan: &FaultPlan, e: &EngineError) -> bool {
        let read = match e {
            EngineError::Store(StoreError::Corrupt(p))
            | EngineError::Cache(CacheError::Store(StoreError::Corrupt(p)))
            | EngineError::Backup(BackupError::Store(StoreError::Corrupt(p))) => *p,
            _ => return false,
        };
        self.scenario == Scenario::Sweeps && plan.fired_page() == Some(read)
    }

    /// The drive finished, but a sticky fault may have left a latent wound
    /// nothing read: scrub it, or find it at the flush. Then the store the
    /// drive left must match the oracle, and the drive's own on-line
    /// images must restore it after total media loss.
    fn settle_finished(&self, db: &EngineService, st: &mut State) -> Result<Path, Divergence> {
        if st.scrub(db)? {
            restore_checked(db, &st.fallback(), self.recovery)?;
            return Ok(Path::Media);
        }
        if let Err(e) = db.flush_all() {
            return self.media(db, st, e);
        }
        st.oracle.verify_store(db, Lsn::MAX).map_err(|e| {
            Divergence::Oracle(format!("the drive's store diverged from the oracle: {e}"))
        })?;
        if let Some(image) = combine_images(&st.images) {
            for p in 0..db.store().partition_count() {
                db.store()
                    .fail_partition(PartitionId(p))
                    .map_err(|e| e.to_string())?;
            }
            restore_checked(db, &image, self.recovery)?;
        }
        Ok(Path::Clean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_derive_from_the_ledger() {
        let row = |kind, fired, path| Case {
            seed: 1,
            kind,
            fired,
            events: 9,
            path,
            counters: Counters::default(),
            witness: Witness::new(),
        };
        let report = Report {
            events_total: 9,
            cases: vec![
                row(
                    FaultKind::CrashAt(0),
                    Some((0, IoEvent::LogAppend)),
                    Ok(Path::Crash),
                ),
                row(
                    FaultKind::CrashAt(4),
                    Some((4, IoEvent::PageWrite)),
                    Ok(Path::Media),
                ),
                row(FaultKind::CrashAt(8), None, Ok(Path::Clean)),
                row(
                    FaultKind::MediaFailAt(2),
                    Some((3, IoEvent::PageWrite)),
                    Err(Divergence::Failed("lost".into())),
                ),
            ],
        };
        assert_eq!(report.count(Path::Crash), 1);
        assert_eq!(report.count(Path::Clean), 1);
        assert_eq!(report.fired(), 3);
        assert_eq!(
            report.divergences(),
            vec!["MediaFailAt(2): lost".to_string()]
        );
        assert_eq!(
            report.fired_kinds(),
            vec![IoEvent::LogAppend, IoEvent::PageWrite]
        );
        let ledger = report.to_string();
        assert_eq!(ledger.lines().count(), 5, "{ledger}");
        assert!(ledger.contains("path=Err(Failed(\"lost\"))"), "{ledger}");
    }

    /// Settle `e` as surfaced media damage in a fresh case of `drill`,
    /// after its armed `CorruptWriteAt` fired on `wounded` (the hook is
    /// called directly, so the store holds no damage for the scrub).
    fn settle_surfaced(drill: &Drill, wounded: PageId, e: EngineError) -> Result<Path, Divergence> {
        let (db, mut st) = drill.build(FaultKind::CorruptWriteAt(0)).unwrap();
        (st.plan.hook())(IoEvent::PageWrite, Some(wounded));
        assert_eq!(st.plan.fired_page(), Some(wounded));
        drill.media(&db, &mut st, e)
    }

    #[test]
    fn only_an_overwritten_sweep_wound_excuses_an_undamaged_store() {
        let (p, q) = (PageId::new(0, 0), PageId::new(0, 1));
        let corrupt = |p| EngineError::Backup(BackupError::Store(StoreError::Corrupt(p)));
        let unrelated = || EngineError::Store(StoreError::NoSuchPage(p));
        let ops = Drill::ops(3, Discipline::General);
        // The op loop: an error the wound did not cause stays unexpected,
        // and so does a checksum failure on the wounded page itself.
        for e in [unrelated(), corrupt(p)] {
            let settled = settle_surfaced(&ops, p, e);
            assert!(matches!(settled, Err(Divergence::Failed(_))), "{settled:?}");
        }
        // The sweeps: only the wounded page's checksum failure is excused.
        let sweeps = Drill::sweeps(3);
        assert_eq!(settle_surfaced(&sweeps, p, corrupt(p)), Ok(Path::Media));
        for e in [unrelated(), corrupt(q)] {
            let settled = settle_surfaced(&sweeps, p, e);
            assert!(matches!(settled, Err(Divergence::Failed(_))), "{settled:?}");
        }
    }
}
