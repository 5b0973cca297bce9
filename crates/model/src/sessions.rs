//! Bounded two-session probe over the concurrent service front-end.
//!
//! The core explorer ([`crate::explorer`]) interleaves one scripted
//! operation stream with flushes and backup steps against the
//! one-session [`lob_core::Engine`]. The threaded drills
//! (`lob_harness::sessions`) race real threads but only *sample*
//! schedules. This module closes the gap for one genuinely concurrent
//! interleaving class: **two sessions in disjoint backup domains** of one
//! shared [`EngineService`], with a live sweep of domain 0 — every
//! interleaving of
//!
//! - session A's next scripted operation (domain 0),
//! - session B's next scripted operation (domain 1),
//! - a group commit (either session forcing the shared log),
//! - a write-graph-ordered flush of any dirty page (either domain),
//! - one step of the on-line backup sweep of domain 0,
//!
//! is enumerated breadth-first with exact-state deduplication. At every
//! reached state a fresh replay is crashed and taken through real redo
//! recovery, and the recovered stable database is byte-compared against
//! the [`ShadowOracle`] at the surviving durable prefix. Because the
//! interleaver is single-threaded, a trace is a total order and replays
//! exactly — the service's domain locks, sharded cache, and group-commit
//! scheduler are exercised through the same entry points the threaded
//! sessions use, minus the nondeterminism.

use crate::explorer::ModelError;
use bytes::Bytes;
use lob_core::{
    BackupRun, DomainId, EngineConfig, EngineService, Lsn, OpBody, PageId, PartitionId,
    PartitionSpec, PhysioOp, Tracking,
};
use lob_harness::ShadowOracle;
use lob_wal::encode_record;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// One action of the two-session interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionAction {
    /// Session A applies its next scripted operation (domain 0).
    OpA,
    /// Session B applies its next scripted operation (domain 1).
    OpB,
    /// A group commit: one session durably forces the shared log. (Which
    /// session asks is unobservable — the scheduler forces the whole
    /// appended tail — so one action covers both.)
    Commit,
    /// Flush one dirty page in write-graph order (Iw/oF decisions under
    /// the backup latch included).
    Flush(PageId),
    /// Advance the domain-0 backup sweep by one step.
    Step,
}

/// A tiny two-session instance: two partitions (= two backup domains
/// under per-partition tracking), one scripted op stream per session, one
/// sweep of domain 0.
#[derive(Debug, Clone)]
pub struct TwoSessionScenario {
    /// Name for reports.
    pub name: &'static str,
    /// Pages per partition.
    pub pages: u32,
    /// Page size in bytes.
    pub page_size: usize,
    /// Session A's operations, all confined to partition 0.
    pub a_ops: Vec<OpBody>,
    /// Session B's operations, all confined to partition 1.
    pub b_ops: Vec<OpBody>,
    /// Steps of the domain-0 backup sweep.
    pub backup_steps: u32,
}

impl TwoSessionScenario {
    /// The default tiny instance: two physiological inserts per session —
    /// A's second op overwrites its first op's page (a write-graph chain
    /// the sweep can interleave with), B independent in domain 1.
    pub fn tiny() -> TwoSessionScenario {
        let ins = |p: u32, i: u32, k: &'static str| {
            OpBody::Physio(PhysioOp::InsertRec {
                target: PageId::new(p, i),
                key: Bytes::from_static(k.as_bytes()),
                val: Bytes::from_static(k.as_bytes()),
            })
        };
        TwoSessionScenario {
            name: "two-session-tiny",
            pages: 2,
            page_size: 128,
            a_ops: vec![ins(0, 0, "a1"), ins(0, 0, "a2")],
            b_ops: vec![ins(1, 1, "b1"), ins(1, 0, "b2")],
            backup_steps: 2,
        }
    }

    fn config(&self) -> EngineConfig {
        EngineConfig {
            page_size: self.page_size,
            partitions: vec![
                PartitionSpec { pages: self.pages },
                PartitionSpec { pages: self.pages },
            ],
            tracking: Tracking::PerPartition,
            ..EngineConfig::small()
        }
    }
}

/// What the bounded exploration saw.
#[derive(Debug, Clone)]
pub struct TwoSessionReport {
    /// Scenario name.
    pub scenario: &'static str,
    /// Distinct states reached (after dedup).
    pub states: usize,
    /// Transitions taken.
    pub transitions: usize,
    /// Transitions that landed on an already-visited state.
    pub deduped: usize,
    /// Crash-recovery probes run (one per distinct state).
    pub probes: usize,
    /// Oracle divergences found: `(trace, detail)`.
    pub counterexamples: Vec<(Vec<SessionAction>, String)>,
}

impl TwoSessionReport {
    /// Whether the bounded space was exhausted with zero divergences.
    pub fn holds(&self) -> bool {
        self.counterexamples.is_empty()
    }
}

/// A state materialized by replaying a trace on a fresh service.
struct SvcReplay {
    svc: Arc<EngineService>,
    run: Option<BackupRun>,
    /// Executed ops in LSN (= interleaving) order.
    logged: Vec<(Lsn, OpBody)>,
    a_done: usize,
    b_done: usize,
}

impl SvcReplay {
    fn initial(scenario: &TwoSessionScenario) -> Result<SvcReplay, ModelError> {
        let svc = EngineService::new(scenario.config())
            .map(Arc::new)
            .map_err(|e| ModelError::new("creating service", e))?;
        let run = svc
            .begin_backup_of(DomainId(0), scenario.backup_steps)
            .map_err(|e| ModelError::new("beginning backup", e))?;
        Ok(SvcReplay {
            svc,
            run: Some(run),
            logged: Vec::new(),
            a_done: 0,
            b_done: 0,
        })
    }

    fn materialize(
        scenario: &TwoSessionScenario,
        trace: &[SessionAction],
    ) -> Result<SvcReplay, ModelError> {
        let mut replay = SvcReplay::initial(scenario)?;
        for action in trace {
            replay.apply(scenario, *action)?;
        }
        Ok(replay)
    }

    fn exec(&mut self, body: OpBody) -> Result<(), ModelError> {
        let lsn = self
            .svc
            .execute(body.clone())
            .map_err(|e| ModelError::new("executing scripted op", e))?;
        self.logged.push((lsn, body));
        Ok(())
    }

    fn apply(
        &mut self,
        scenario: &TwoSessionScenario,
        action: SessionAction,
    ) -> Result<(), ModelError> {
        match action {
            SessionAction::OpA => {
                let body = scenario
                    .a_ops
                    .get(self.a_done)
                    .cloned()
                    .ok_or_else(|| ModelError::new("session A", "no scripted op left"))?;
                self.exec(body)?;
                self.a_done += 1;
                Ok(())
            }
            SessionAction::OpB => {
                let body = scenario
                    .b_ops
                    .get(self.b_done)
                    .cloned()
                    .ok_or_else(|| ModelError::new("session B", "no scripted op left"))?;
                self.exec(body)?;
                self.b_done += 1;
                Ok(())
            }
            SessionAction::Commit => self
                .svc
                .force_log()
                .map_err(|e| ModelError::new("group commit", e)),
            SessionAction::Flush(page) => self
                .svc
                .flush_page(page)
                .map_err(|e| ModelError::new(format!("flushing {page}"), e)),
            SessionAction::Step => {
                let mut run = self
                    .run
                    .take()
                    .ok_or_else(|| ModelError::new("stepping backup", "no active run"))?;
                let finished = self
                    .svc
                    .backup_step_batch(&mut run, 1)
                    .map_err(|e| ModelError::new("stepping backup", e))?;
                if finished {
                    let image = self
                        .svc
                        .complete_backup(run)
                        .map_err(|e| ModelError::new("completing backup", e))?;
                    self.svc.release_backup(image.backup_id);
                } else {
                    self.run = Some(run);
                }
                Ok(())
            }
        }
    }

    /// Actions enabled here, in a fixed deterministic order.
    fn enabled(&self, scenario: &TwoSessionScenario) -> Vec<SessionAction> {
        let mut out = Vec::new();
        if self.a_done < scenario.a_ops.len() {
            out.push(SessionAction::OpA);
        }
        if self.b_done < scenario.b_ops.len() {
            out.push(SessionAction::OpB);
        }
        out.push(SessionAction::Commit);
        for page in self.svc.cache().dirty_pages() {
            out.push(SessionAction::Flush(page));
        }
        if self.run.is_some() {
            out.push(SessionAction::Step);
        }
        out
    }

    /// Exact serialization of everything observable: control counters,
    /// the durable log, every stable page, and the dirty cache. (The
    /// per-domain graphs are a function of the logged suffix and the
    /// dirty set for these scripted instances.)
    fn state_key(&self) -> Result<Vec<u8>, ModelError> {
        let mut key = Vec::with_capacity(2048);
        let push_u64 = |key: &mut Vec<u8>, v: u64| key.extend_from_slice(&v.to_le_bytes());
        let push_page = |key: &mut Vec<u8>, id: PageId| {
            key.extend_from_slice(&id.partition.0.to_le_bytes());
            key.extend_from_slice(&id.index.to_le_bytes());
        };
        push_u64(&mut key, self.a_done as u64);
        push_u64(&mut key, self.b_done as u64);
        key.push(u8::from(self.run.is_some()));
        if let Some(run) = &self.run {
            push_u64(&mut key, run.steps_remaining() as u64);
            push_u64(&mut key, run.pages_copied());
            for (id, page) in run.partial_image().iter() {
                push_page(&mut key, id);
                push_u64(&mut key, page.lsn().raw());
                key.extend_from_slice(page.data());
            }
        }
        let log = self.svc.log();
        push_u64(&mut key, log.truncation().raw());
        push_u64(&mut key, log.durable_lsn().raw());
        push_u64(&mut key, log.next_lsn().raw());
        let records = log
            .scan_from(log.truncation())
            .map_err(|e| ModelError::new("scanning log for state key", e))?;
        for rec in &records {
            push_u64(&mut key, rec.lsn.raw());
            let bytes = encode_record(rec);
            push_u64(&mut key, bytes.len() as u64);
            key.extend_from_slice(&bytes);
        }
        for p in 0..2u32 {
            let count = self
                .svc
                .store()
                .page_count(PartitionId(p))
                .map_err(|e| ModelError::new("sizing partition", e))?;
            for index in 0..count {
                let id = PageId::new(p, index);
                let page = self
                    .svc
                    .store()
                    .read_page(id)
                    .map_err(|e| ModelError::new(format!("reading {id} from S"), e))?;
                push_page(&mut key, id);
                push_u64(&mut key, page.lsn().raw());
                key.extend_from_slice(page.data());
            }
        }
        let dirty = self.svc.cache().dirty_pages();
        push_u64(&mut key, dirty.len() as u64);
        for id in &dirty {
            push_page(&mut key, *id);
            if let Some(page) = self.svc.cache().peek(*id) {
                push_u64(&mut key, page.lsn().raw());
                key.extend_from_slice(page.data());
            }
        }
        for (id, rlsn) in self.svc.cache().dirty_pages_by_rlsn() {
            push_page(&mut key, id);
            push_u64(&mut key, rlsn.raw());
        }
        Ok(key)
    }
}

/// Exhaust every interleaving of `scenario` (BFS, exact-state dedup) and
/// crash-probe each distinct state through real service recovery.
pub fn explore_two_sessions(
    scenario: &TwoSessionScenario,
    max_depth: usize,
) -> Result<TwoSessionReport, ModelError> {
    let mut report = TwoSessionReport {
        scenario: scenario.name,
        states: 0,
        transitions: 0,
        deduped: 0,
        probes: 0,
        counterexamples: Vec::new(),
    };
    let mut visited: HashSet<Vec<u8>> = HashSet::new();
    let mut queue: VecDeque<Vec<SessionAction>> = VecDeque::new();

    let root = SvcReplay::initial(scenario)?;
    visited.insert(root.state_key()?);
    report.states += 1;
    probe(scenario, &[], &mut report)?;
    queue.push_back(Vec::new());

    while let Some(trace) = queue.pop_front() {
        if trace.len() >= max_depth {
            continue;
        }
        let here = SvcReplay::materialize(scenario, &trace)?;
        for action in here.enabled(scenario) {
            let mut child_trace = trace.clone();
            child_trace.push(action);
            let child = SvcReplay::materialize(scenario, &child_trace)?;
            report.transitions += 1;
            if !visited.insert(child.state_key()?) {
                report.deduped += 1;
                continue;
            }
            report.states += 1;
            probe(scenario, &child_trace, &mut report)?;
            queue.push_back(child_trace);
        }
    }
    Ok(report)
}

/// Crash a fresh replay of `trace` through real service recovery and
/// byte-compare against the oracle at the surviving durable prefix.
fn probe(
    scenario: &TwoSessionScenario,
    trace: &[SessionAction],
    report: &mut TwoSessionReport,
) -> Result<(), ModelError> {
    let replay = SvcReplay::materialize(scenario, trace)?;
    let svc = Arc::clone(&replay.svc);
    svc.crash();
    svc.recover()
        .map_err(|e| ModelError::new("redo recovery", e))?;
    report.probes += 1;
    let durable = svc.log().durable_lsn();
    let mut oracle = ShadowOracle::new(scenario.page_size);
    for (lsn, body) in &replay.logged {
        oracle
            .apply(*lsn, body)
            .map_err(|e| ModelError::new("oracle apply", e))?;
    }
    for (id, want) in oracle.state_at(durable) {
        let got = svc
            .store()
            .read_page(id)
            .map_err(|e| ModelError::new(format!("reading {id} from S"), e))?;
        if got.data() != want.as_ref() {
            let got_head: Vec<u8> = got.data().iter().take(8).copied().collect();
            let want_head: Vec<u8> = want.iter().take(8).copied().collect();
            report.counterexamples.push((
                trace.to_vec(),
                format!(
                    "page {id} mismatch at durable prefix {durable}: \
                     S has {got_head:02x?}…, oracle expects {want_head:02x?}…"
                ),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_two_session_space_is_exhausted_and_holds() {
        let report = explore_two_sessions(&TwoSessionScenario::tiny(), 24).unwrap();
        assert!(
            report.holds(),
            "counterexamples: {:?}",
            report.counterexamples
        );
        assert!(
            report.states >= crate::TWO_SESSION_STATE_FLOOR,
            "explored space shrank: {} states < floor {}",
            report.states,
            crate::TWO_SESSION_STATE_FLOOR
        );
        assert_eq!(report.probes, report.states);
    }
}
