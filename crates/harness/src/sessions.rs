//! Multi-session concurrency drills over the [`EngineService`] front-end.
//!
//! Two drivers, one per kind of evidence:
//!
//! * [`VirtualScheduler`] — a **seeded single-threaded interleaver**.
//!   Scripts for `N` virtual sessions are interleaved one step at a time
//!   in a seeded random order, so a surprising interleaving found by the
//!   threaded drill (or dreamed up by a reviewer) can be replayed
//!   *exactly*, forever, from its seed. With the group-commit window
//!   disabled (`group_commit_delay_micros: 0`, `group_commit_count: 1`)
//!   every step is synchronous and the whole run — LSN assignment, flush
//!   decisions, Iw/oF records — is a pure function of the seed.
//! * [`SessionDrillRunner`] — a **threaded race drill**. Real OS threads
//!   drive partition-confined sessions against one shared service while an
//!   optional backup sweep runs rounds of the paper's on-line protocol
//!   over domain 0 and (optionally) a crash is injected *inside the
//!   group-commit force* via the fault hook. The run's own ordering
//!   witness ([`lob_pagestore::witness`]) is carried into every thread, and
//!   the surviving database is byte-verified against a [`ShadowOracle`] built
//!   from the per-session operation logs merged in LSN order — operations
//!   in different domains touch disjoint pages (the service's confinement
//!   rule), and same-domain operations are LSN-ordered by the domain lock,
//!   so the merged log is a faithful serial history.

use crate::fault::{witnessed, FaultKind, FaultPlan};
use crate::shadow::ShadowOracle;
use crate::workload::WorkloadGen;
use lob_core::{
    DomainId, EngineConfig, EngineService, FlushPolicy, Lsn, OpBody, PageId, PartitionId, Session,
    Tracking,
};
use lob_pagestore::witness::{self, Witness};
use lob_pagestore::{IoEvent, PartitionSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One scripted step of a virtual session.
#[derive(Debug, Clone)]
pub enum SessionStep {
    /// Execute a logged operation.
    Op(OpBody),
    /// Durably force everything logged so far (a group commit).
    Commit,
    /// Flush one page in write-graph order.
    FlushPage(PageId),
}

/// The seeded virtual scheduler: deterministic interleaving of session
/// scripts on one thread.
///
/// ```
/// use lob_harness::sessions::{SessionStep, VirtualScheduler};
/// use lob_core::{EngineConfig, EngineService, OpBody, PageId};
/// use bytes::Bytes;
/// use std::sync::Arc;
///
/// let svc = Arc::new(EngineService::new(EngineConfig::small()).unwrap());
/// let script = |v: u8| vec![
///     SessionStep::Op(OpBody::PhysicalWrite {
///         target: PageId::new(0, v as u32),
///         value: Bytes::from(vec![v; 256]),
///     }),
///     SessionStep::Commit,
/// ];
/// let mut sched = VirtualScheduler::new(42);
/// let log = sched.run(&svc, vec![script(1), script(2)]).unwrap();
/// assert_eq!(log.len(), 2);
/// ```
pub struct VirtualScheduler {
    rng: SmallRng,
}

impl VirtualScheduler {
    /// A scheduler replaying the interleaving determined by `seed`.
    pub fn new(seed: u64) -> VirtualScheduler {
        VirtualScheduler {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Interleave `scripts` over sessions of `svc`, one step per tick, the
    /// session picked uniformly among those with steps remaining. Returns
    /// the executed operations as `(lsn, body)` in execution (= LSN)
    /// order — ready to feed a [`ShadowOracle`].
    pub fn run(
        &mut self,
        svc: &Arc<EngineService>,
        scripts: Vec<Vec<SessionStep>>,
    ) -> Result<Vec<(Lsn, OpBody)>, String> {
        let sessions: Vec<_> = scripts.iter().map(|_| svc.session()).collect();
        let mut queues: Vec<VecDeque<SessionStep>> =
            scripts.into_iter().map(VecDeque::from).collect();
        let mut logged: Vec<(Lsn, OpBody)> = Vec::new();
        loop {
            let live = queues.iter().filter(|q| !q.is_empty()).count();
            if live == 0 {
                return Ok(logged);
            }
            // The k-th live queue in session order — same selection (and
            // rng consumption) as indexing a collected live-index list,
            // so existing seeds replay identically.
            let k = self.rng.gen_range(0..live);
            let Some((pick, queue)) = queues
                .iter_mut()
                .enumerate()
                .filter(|(_, q)| !q.is_empty())
                .nth(k)
            else {
                return Ok(logged);
            };
            let Some(step) = queue.pop_front() else {
                continue;
            };
            let Some(session) = sessions.get(pick) else {
                return Err(format!("virtual session {pick} has no handle"));
            };
            match step {
                SessionStep::Op(body) => {
                    let lsn = session
                        .execute(body.clone())
                        .map_err(|e| format!("virtual session {pick} execute: {e}"))?;
                    logged.push((lsn, body));
                }
                SessionStep::Commit => session
                    .commit()
                    .map_err(|e| format!("virtual session {pick} commit: {e}"))?,
                SessionStep::FlushPage(p) => session
                    .flush_page(p)
                    .map_err(|e| format!("virtual session {pick} flush {p}: {e}"))?,
            }
        }
    }
}

/// Configuration of one threaded session drill.
#[derive(Debug, Clone)]
pub struct SessionDrillConfig {
    /// Session threads; session `t` confines itself to partition
    /// `t % partitions` (= its backup domain under per-partition
    /// tracking).
    pub sessions: usize,
    /// Partitions, one backup domain each when `> 1`.
    pub partitions: u32,
    /// Pages per partition.
    pub pages_per_partition: u32,
    /// Page size in bytes.
    pub page_size: usize,
    /// Operations each session executes.
    pub ops_per_session: usize,
    /// A session commits (group commit) after every this many operations.
    pub commit_every: usize,
    /// A session flushes its last-written page after every this many
    /// operations (0 = never) — the write-graph / Iw/oF path under load.
    pub flush_every: usize,
    /// WAL force policy for the run.
    pub flush_policy: FlushPolicy,
    /// Group-commit gather window (microseconds; 0 disables).
    pub group_commit_delay_micros: u64,
    /// Group-commit target group size (`<= 1` disables).
    pub group_commit_count: u32,
    /// Workload seed.
    pub seed: u64,
    /// On-line backup sweeps of domain 0 run concurrently with the load.
    pub sweep_rounds: u32,
    /// Steps per sweep round.
    pub sweep_steps: u32,
    /// Arm a process crash at the `k`-th log force — i.e. *inside* a group
    /// commit, after the leader gathered a group. The run then stops,
    /// recovers, and verifies at the surviving durable prefix.
    pub crash_at_force: Option<u64>,
}

impl SessionDrillConfig {
    /// A small grid cell: `sessions` threads over `partitions` domains,
    /// group committing with the default window.
    pub fn quick(sessions: usize, partitions: u32, seed: u64) -> SessionDrillConfig {
        SessionDrillConfig {
            sessions,
            partitions,
            pages_per_partition: 16,
            page_size: 128,
            ops_per_session: 64,
            commit_every: 4,
            flush_every: 16,
            flush_policy: FlushPolicy::Exact,
            group_commit_delay_micros: 50,
            group_commit_count: 4,
            seed,
            sweep_rounds: 2,
            sweep_steps: 4,
            crash_at_force: None,
        }
    }
}

/// What one drill run observed.
#[derive(Debug, Clone)]
pub struct SessionDrillReport {
    /// Operations the service executed (excluding Iw/oF identity writes).
    pub ops_executed: u64,
    /// Non-empty log forces the durable store served.
    pub forces: u64,
    /// Frames persisted per force (group-commit batching factor).
    pub batching_factor: f64,
    /// Whether the armed crash fired.
    pub injected_crash: bool,
    /// The log prefix the stable database was byte-verified at
    /// (`Lsn::MAX` for crash-free runs).
    pub verified_prefix: Lsn,
    /// Backup sweeps completed concurrently with the load.
    pub backups_completed: u32,
    /// Pages those sweeps copied.
    pub backup_pages: u64,
    /// The run's ordering witness, with the events it observed.
    pub witness: Witness,
}

/// Runs threaded multi-session races against one [`EngineService`], under
/// the ordering witness and with every run byte-verified against the
/// shadow oracle. See the module docs.
pub struct SessionDrillRunner {
    cfg: SessionDrillConfig,
}

impl SessionDrillRunner {
    /// A runner for `cfg`.
    pub fn new(cfg: SessionDrillConfig) -> SessionDrillRunner {
        SessionDrillRunner { cfg }
    }

    fn build(&self) -> Result<Arc<EngineService>, String> {
        let cfg = &self.cfg;
        EngineService::new(EngineConfig {
            page_size: cfg.page_size,
            partitions: (0..cfg.partitions)
                .map(|_| PartitionSpec {
                    pages: cfg.pages_per_partition,
                })
                .collect(),
            tracking: if cfg.partitions > 1 {
                Tracking::PerPartition
            } else {
                Tracking::Sequential(vec![PartitionId(0)])
            },
            commit: lob_core::CommitConfig {
                flush_policy: cfg.flush_policy,
                group_commit_delay_micros: cfg.group_commit_delay_micros,
                group_commit_count: cfg.group_commit_count,
                sync_file_log: false,
            },
            ..EngineConfig::small()
        })
        .map(Arc::new)
        .map_err(|e| format!("service config: {e}"))
    }

    /// One session thread's work: partition-confined operations with
    /// periodic group commits and flushes. Returns the `(lsn, body)` log,
    /// cut short (without error) if the injected crash fires.
    fn session_work(
        cfg: &SessionDrillConfig,
        session: Session,
        t: usize,
        stop: &AtomicBool, // lint: atomic(seqcst)
    ) -> Result<Vec<(Lsn, OpBody)>, String> {
        let mut gen = WorkloadGen::new(
            cfg.seed ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            cfg.page_size,
        );
        let partition = (t as u32) % cfg.partitions;
        let pages: Vec<PageId> = (0..cfg.pages_per_partition)
            .map(|i| PageId::new(partition, i))
            .collect();
        let mut logged: Vec<(Lsn, OpBody)> = Vec::new();
        for i in 0..cfg.ops_per_session {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let body = if pages.len() >= 3 && gen.chance(0.15) {
                gen.mix(&pages, 1, 2)
            } else {
                let target = gen.pick(&pages);
                if gen.chance(0.3) {
                    gen.physical(target)
                } else {
                    gen.physio(target)
                }
            };
            match session.execute(body.clone()) {
                Ok(lsn) => logged.push((lsn, body)),
                Err(e) if e.is_injected_crash() => {
                    stop.store(true, Ordering::SeqCst);
                    break;
                }
                Err(e) => return Err(format!("session {t} execute: {e}")),
            }
            if cfg.commit_every > 0 && (i + 1) % cfg.commit_every == 0 {
                match session.commit() {
                    Ok(()) => {}
                    Err(e) if e.is_injected_crash() => {
                        stop.store(true, Ordering::SeqCst);
                        break;
                    }
                    Err(e) => return Err(format!("session {t} commit: {e}")),
                }
            }
            if cfg.flush_every > 0 && (i + 1) % cfg.flush_every == 0 {
                let last_written = logged
                    .last()
                    .and_then(|(_, b)| b.writeset().first().copied());
                if let Some(p) = last_written {
                    match session.flush_page(p) {
                        Ok(()) => {}
                        Err(e) if e.is_injected_crash() => {
                            stop.store(true, Ordering::SeqCst);
                            break;
                        }
                        Err(e) => return Err(format!("session {t} flush {p}: {e}")),
                    }
                }
            }
        }
        Ok(logged)
    }

    /// The sweep thread's work: rounds of the on-line backup protocol over
    /// domain 0, racing the writers. Returns `(completed, pages_copied)`.
    fn sweep_work(
        cfg: &SessionDrillConfig,
        svc: &Arc<EngineService>,
        stop: &AtomicBool, // lint: atomic(seqcst)
    ) -> Result<(u32, u64), String> {
        let mut completed = 0u32;
        let mut pages = 0u64;
        for _ in 0..cfg.sweep_rounds {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let mut run = match svc.begin_backup_of(DomainId(0), cfg.sweep_steps) {
                Ok(r) => r,
                Err(e) if e.is_injected_crash() => {
                    stop.store(true, Ordering::SeqCst);
                    break;
                }
                Err(e) => return Err(format!("sweep begin: {e}")),
            };
            let image = loop {
                match svc.backup_step_batch(&mut run, 4) {
                    Ok(false) => {}
                    Ok(true) => match svc.complete_backup(run) {
                        Ok(img) => break Some(img),
                        Err(e) if e.is_injected_crash() => {
                            stop.store(true, Ordering::SeqCst);
                            break None;
                        }
                        Err(e) => return Err(format!("sweep complete: {e}")),
                    },
                    Err(e) if e.is_injected_crash() => {
                        stop.store(true, Ordering::SeqCst);
                        svc.abort_backup(run);
                        break None;
                    }
                    Err(e) => return Err(format!("sweep step: {e}")),
                }
            };
            let Some(image) = image else { break };
            completed += 1;
            pages += image.page_count() as u64;
            svc.release_backup(image.backup_id);
        }
        Ok((completed, pages))
    }

    fn run_inner(&self) -> Result<SessionDrillReport, String> {
        let cfg = &self.cfg;
        let svc = self.build()?;
        let plan = cfg
            .crash_at_force
            .map(|k| FaultPlan::new(FaultKind::CrashAtEvent(IoEvent::LogForce, k)));
        if let Some(p) = &plan {
            svc.install_fault_hook(Some(p.hook()));
        }

        let stop = AtomicBool::new(false);
        let mut logs: Vec<Vec<(Lsn, OpBody)>> = Vec::new();
        let mut sweep_outcome: (u32, u64) = (0, 0);
        std::thread::scope(|scope| -> Result<(), String> {
            let mut handles = Vec::new();
            // Every session is live before any thread starts work, so a
            // gather waits for all of them from the first commit on
            // rather than closing early on whichever threads ran first.
            let sessions: Vec<Session> = (0..cfg.sessions).map(|_| svc.session()).collect();
            for (t, session) in sessions.into_iter().enumerate() {
                let stop = &stop;
                let w = witness::current();
                handles.push(scope.spawn(move || {
                    witness::within(w, || Self::session_work(cfg, session, t, stop))
                }));
            }
            let sweeper = if cfg.sweep_rounds > 0 {
                let svc = &svc;
                let stop = &stop;
                let w = witness::current();
                Some(scope.spawn(move || witness::within(w, || Self::sweep_work(cfg, svc, stop))))
            } else {
                None
            };
            for (t, h) in handles.into_iter().enumerate() {
                let log = h
                    .join()
                    .map_err(|_| format!("session thread {t} panicked"))??;
                logs.push(log);
            }
            if let Some(h) = sweeper {
                sweep_outcome = h
                    .join()
                    .map_err(|_| "sweep thread panicked".to_string())??;
            }
            Ok(())
        })?;

        // Crash/recover if the armed fault fired; otherwise drain.
        let injected = plan.as_ref().is_some_and(|p| p.fired());
        if plan.is_some() {
            svc.install_fault_hook(None);
        }
        let prefix = if injected {
            svc.crash();
            svc.recover().map_err(|e| format!("recover: {e}"))?;
            svc.log().durable_lsn()
        } else {
            svc.flush_all().map_err(|e| format!("flush_all: {e}"))?;
            Lsn::MAX
        };

        // Ground truth: the per-session logs merged in LSN order.
        let mut merged: Vec<(Lsn, OpBody)> = logs.into_iter().flatten().collect();
        merged.sort_by_key(|(l, _)| *l);
        let mut oracle = ShadowOracle::new(cfg.page_size);
        for (lsn, body) in &merged {
            oracle
                .apply(*lsn, body)
                .map_err(|e| format!("oracle apply at {lsn}: {e}"))?;
        }
        for (id, want) in oracle.state_at(prefix) {
            let got = svc
                .store()
                .read_page(id)
                .map_err(|e| format!("verifying {id}: {e}"))?;
            if got.data() != &want {
                let got_head: Vec<u8> = got.data().iter().take(8).copied().collect();
                let want_head: Vec<u8> = want.iter().take(8).copied().collect();
                return Err(format!(
                    "page {id} mismatch at prefix {prefix}: \
                     S has {got_head:02x?}…, oracle expects {want_head:02x?}…"
                ));
            }
        }

        let stats = svc.log_stats();
        Ok(SessionDrillReport {
            ops_executed: svc.stats().ops_executed,
            forces: stats.forces,
            batching_factor: stats.forced_frames as f64 / stats.forces.max(1) as f64,
            injected_crash: injected,
            verified_prefix: prefix,
            backups_completed: sweep_outcome.0,
            backup_pages: sweep_outcome.1,
            witness: Witness::new(), // replaced by `run`
        })
    }

    /// Run the drill under its own ordering witness: a misordered
    /// durability event fails the run outright, even if the data
    /// verification would have passed.
    pub fn run(&self) -> Result<SessionDrillReport, String> {
        let (report, witness) = witnessed(|| self.run_inner())?;
        Ok(SessionDrillReport { witness, ..report })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn virtual_scheduler_is_deterministic() {
        // LSNs are dense regardless of interleaving; the per-step payload
        // byte (unique per script step) records *which* session ran at
        // each LSN.
        let run = |seed: u64| -> Vec<u8> {
            let svc = Arc::new(EngineService::new(EngineConfig::small()).unwrap());
            let scripts: Vec<Vec<SessionStep>> = (0..3u8)
                .map(|s| {
                    (0..8u8)
                        .flat_map(|i| {
                            vec![
                                SessionStep::Op(OpBody::PhysicalWrite {
                                    target: PageId::new(0, (s * 8 + i) as u32 % 16),
                                    value: Bytes::from(vec![s * 16 + i; 256]),
                                }),
                                SessionStep::Commit,
                            ]
                        })
                        .collect()
                })
                .collect();
            let mut sched = VirtualScheduler::new(seed);
            sched
                .run(&svc, scripts)
                .unwrap()
                .into_iter()
                .map(|(_, b)| match b {
                    OpBody::PhysicalWrite { value, .. } => value[0],
                    _ => unreachable!("scripts only write physically"),
                })
                .collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(
            run(7),
            run(8),
            "different seeds should interleave differently"
        );
    }

    #[test]
    fn threaded_drill_verifies_against_oracle() {
        let report = SessionDrillRunner::new(SessionDrillConfig::quick(3, 3, 0xD1))
            .run()
            .unwrap();
        assert_eq!(report.ops_executed, 3 * 64);
        assert!(!report.injected_crash);
        assert!(report.witness.events() > 0, "witness should observe events");
    }

    #[test]
    fn crash_during_group_commit_recovers_to_durable_prefix() {
        let mut cfg = SessionDrillConfig::quick(2, 2, 0xC4);
        cfg.crash_at_force = Some(3);
        let report = SessionDrillRunner::new(cfg).run().unwrap();
        assert!(report.injected_crash);
        assert!(report.verified_prefix < Lsn::MAX);
    }
}
