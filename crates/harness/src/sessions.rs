//! Multi-session concurrency over the [`EngineService`] front-end.
//!
//! Two drivers, one per kind of evidence:
//!
//! * [`VirtualScheduler`] — a **seeded single-threaded interleaver** of
//!   `N` session scripts, so an interleaving found by the threaded drill
//!   replays *exactly* from its seed. With the group-commit window
//!   disabled every step is synchronous and the whole run is a pure
//!   function of the seed.
//! * [`Scenario::Sessions`] — the **threaded race drive** of the drill
//!   loop: partition-confined session threads against one shared service
//!   beside a backup thread, under the case's witness and an armed plan
//!   (a crash *inside* a group-commit force is
//!   `CrashAtEvent(LogForce, k)`).
//!
//! [`Scenario::Sessions`]: crate::Scenario::Sessions

use crate::drill::{confined, Drill, State, Stop};
use crate::parallel::{worst, SWEEP_BATCH};
use crate::workload::WorkloadGen;
use lob_core::{DomainId, EngineError, EngineService, Lsn, OpBody, PageId, Session};
use lob_pagestore::witness;
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
    /// order — ready to feed a [`crate::ShadowOracle`].
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

/// Sessions commit (group commit) after every this many operations, and
/// flush their last-written page after every fourth commit.
const COMMIT_EVERY: u32 = 4;

impl Drill {
    /// Race the session threads and the backup thread, then merge the
    /// per-session logs in LSN order into the oracle — operations in
    /// different domains touch disjoint pages (the service's confinement
    /// rule), and same-domain operations are LSN-ordered by the domain
    /// lock, so the merged log is a faithful serial history. Every thread
    /// stops at the first failure anywhere.
    pub(crate) fn drive_sessions(
        &self,
        svc: &Arc<EngineService>,
        st: &mut State,
        sessions: usize,
    ) -> Result<(), Stop> {
        let stop = AtomicBool::new(false); // lint: atomic(seqcst)

        // Every session is live before any thread starts work, so a gather
        // waits for all of them from the first commit on. The drill holds
        // them until every thread has joined, as a client holds sessions
        // it no longer drives.
        let handles: Vec<Session> = (0..sessions).map(|_| svc.session()).collect();
        let (logs, swept) = std::thread::scope(|s| {
            let workers: Vec<_> = handles
                .iter()
                .enumerate()
                .map(|(t, session)| {
                    let (stop, w) = (&stop, witness::current());
                    s.spawn(move || witness::within(w, || self.session_work(session, t, stop)))
                })
                .collect();
            let sweeper = (self.backup_steps > 0).then(|| {
                let (stop, w) = (&stop, witness::current());
                s.spawn(move || witness::within(w, || self.backup_rounds(svc, stop)))
            });
            let logs: Vec<_> = workers.into_iter().map(|h| h.join()).collect();
            (logs, sweeper.map(|h| h.join()))
        });
        let mut errors = Vec::new();
        let mut merged = Vec::new();
        for joined in logs {
            let (log, err) = joined.map_err(|_| "a session thread panicked".to_string())?;
            merged.extend(log);
            errors.extend(err);
        }
        if let Some(joined) = swept {
            let (pages, inflight, err) =
                joined.map_err(|_| "the backup thread panicked".to_string())?;
            st.counters.backup_pages += pages;
            st.inflight.extend(inflight);
            errors.extend(err);
        }
        merged.sort_by_key(|(lsn, _)| *lsn);
        for (lsn, body) in &merged {
            st.apply(*lsn, body)?;
        }
        worst(errors).map_or(Ok(()), |e| Err(e.into()))
    }

    /// One session thread: partition-confined operations with periodic
    /// group commits and flushes. Returns its `(lsn, body)` log, cut short
    /// at the first failure.
    fn session_work(
        &self,
        session: &Session,
        t: usize,
        stop: &AtomicBool, // lint: atomic(seqcst)
    ) -> (Vec<(Lsn, OpBody)>, Option<EngineError>) {
        let mut gen = WorkloadGen::new(
            self.seed ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            self.page_size,
        );
        let partition = (t as u32) % self.partitions;
        let pages: Vec<PageId> = (0..self.pages).map(|i| PageId::new(partition, i)).collect();
        let ops = self.session_ops.get(t).copied().unwrap_or(self.ops);
        let mut logged: Vec<(Lsn, OpBody)> = Vec::new();
        let res = (|| -> Result<(), EngineError> {
            for i in 1..=ops {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let body = confined(&mut gen, &pages);
                logged.push((session.execute(body.clone())?, body));
                if i % COMMIT_EVERY == 0 {
                    session.commit()?;
                }
                if i % (4 * COMMIT_EVERY) == 0 {
                    let last = logged
                        .last()
                        .and_then(|(_, b)| b.writeset().first().copied());
                    if let Some(p) = last {
                        session.flush_page(p)?;
                    }
                }
            }
            Ok(())
        })();
        if res.is_err() {
            stop.store(true, Ordering::SeqCst);
        }
        (logged, res.err())
    }

    /// The backup thread: rounds of the on-line protocol over domain 0,
    /// racing the writers. Returns the pages copied, the backup left in
    /// flight, and the failure that stopped it.
    fn backup_rounds(
        &self,
        svc: &EngineService,
        stop: &AtomicBool, // lint: atomic(seqcst)
    ) -> (u64, Option<u64>, Option<EngineError>) {
        let (mut pages, mut inflight) = (0u64, None);
        let res = (|| -> Result<(), EngineError> {
            for _ in 0..2 {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let mut run = svc.begin_backup_of(DomainId(0), self.backup_steps)?;
                inflight = Some(run.backup_id());
                while !svc.backup_step_batch(&mut run, SWEEP_BATCH)? {}
                // Domain 0 alone is no whole-database image: count it and
                // let it go.
                let image = svc.complete_backup(run)?;
                inflight = None;
                pages += image.page_count() as u64;
                svc.release_backup(image.backup_id);
            }
            Ok(())
        })();
        if res.is_err() {
            stop.store(true, Ordering::SeqCst);
        }
        (pages, inflight, res.err())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use lob_core::EngineConfig;

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
        let case = Drill::sessions(3, 3, 0xD1).case(crate::FaultKind::CountOnly);
        assert_eq!(case.path, Ok(crate::Path::Clean));
        assert_eq!(case.counters.stats.ops_executed, 3 * 64);
        assert!(case.fired.is_none());
        assert!(case.witness.events() > 0, "witness should observe events");
    }

    #[test]
    fn crash_during_group_commit_recovers_to_durable_prefix() {
        let kind = crate::FaultKind::CrashAtEvent(lob_pagestore::IoEvent::LogForce, 3);
        let case = Drill::sessions(2, 2, 0xC4).case(kind);
        assert!(case.fired.is_some());
        assert!(
            matches!(case.path, Ok(crate::Path::Crash | crate::Path::Media)),
            "{case}"
        );
    }
}
