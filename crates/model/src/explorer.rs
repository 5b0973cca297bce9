//! Bounded exhaustive exploration of protocol interleavings.
//!
//! The engine is deliberately not cloneable (its identity *is* its I/O
//! history), so the explorer is replay-based in the style of
//! deterministic-simulation testers: a state is named by the action trace
//! that reaches it, and is re-materialized on demand by replaying that
//! trace on a fresh engine. Breadth-first search over traces guarantees
//! the first counterexample found is of minimal length. Exact serialized
//! state keys (no lossy hashing) make deduplication collision-proof,
//! which in turn is what makes the sleep-set style partial-order
//! reduction sound: a pruned flush order is only ever skipped because the
//! commuted order reaches a byte-identical state that was, or will be,
//! expanded via the other branch.

use std::collections::{HashSet, VecDeque};
use std::fmt;

use lob_core::{BackupImage, BackupRun, Discipline, DomainId, Engine};
use lob_harness::ShadowOracle;
use lob_pagestore::{Lsn, PageId};
use lob_recovery::WriteGraph;
use lob_wal::encode_record;

use crate::scenario::{Coordination, Scenario};

/// Snapshot of one stable page: its on-disk LSN and full contents.
type StablePage = (Lsn, bytes::Bytes);

/// One transition of the protocol model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Apply the next scripted operation (and force its log records).
    Op,
    /// Flush one dirty page through the write graph (ancestors first).
    Flush(PageId),
    /// Identity write `W_IP(X, log(X))`: install the page's graph node
    /// without writing the page, by logging current identity images.
    Iwof(PageId),
    /// Advance the backup cursor by one step (copy the next extent).
    Step,
    /// Truncate the log as far as recovery and retained backups permit.
    Truncate,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Op => write!(f, "Op"),
            Action::Flush(p) => write!(f, "Flush({p})"),
            Action::Iwof(p) => write!(f, "Iwof({p})"),
            Action::Step => write!(f, "Step"),
            Action::Truncate => write!(f, "Truncate"),
        }
    }
}

/// Which recovery path a state was probed through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// `crash()` + redo recovery from the durable log; verifies `S`.
    CrashRecovery,
    /// Media failure + restore of the completed backup image + redo from
    /// the image's start LSN; verifies the recovered `S`.
    MediaRecovery,
    /// `crash()` + redo through the parallel replay scheduler
    /// (`parallel_recover_with`, 2 workers / batch 4); must land on the
    /// same verified state as the sequential probe from every reachable
    /// state.
    ParallelRecovery,
}

impl fmt::Display for Probe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Probe::CrashRecovery => write!(f, "crash-recovery"),
            Probe::MediaRecovery => write!(f, "media-recovery"),
            Probe::ParallelRecovery => write!(f, "parallel-recovery"),
        }
    }
}

/// A schedule under which a recovery probe diverged from the oracle.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The action trace from the initial state, minimal under BFS order.
    pub trace: Vec<Action>,
    /// The probe that failed at the trace's final state.
    pub probe: Probe,
    /// The first divergence, as reported by the oracle.
    pub detail: String,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "counterexample ({} steps, probe {}):",
            self.trace.len(),
            self.probe
        )?;
        for (i, a) in self.trace.iter().enumerate() {
            writeln!(f, "  {:>2}. {a}", i + 1)?;
        }
        write!(f, "  => {}", self.detail)
    }
}

/// Summary of one exhaustive run.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Scenario name.
    pub scenario: &'static str,
    /// Coordination mode the engine ran under.
    pub coordination: Coordination,
    /// Distinct states reached (exact-key dedup).
    pub states: usize,
    /// Transitions taken (including ones landing on known states).
    pub transitions: usize,
    /// Transitions that landed on an already-visited state.
    pub deduped: usize,
    /// Flush transitions skipped by the partial-order reduction.
    pub pruned: usize,
    /// States whose successors were cut off by the depth bound.
    pub depth_capped: usize,
    /// Recovery probes executed.
    pub probes: usize,
    /// Probe failures, in BFS (minimal-first) order.
    pub counterexamples: Vec<Counterexample>,
}

impl ExploreReport {
    /// Whether the run found no divergence.
    pub fn holds(&self) -> bool {
        self.counterexamples.is_empty()
    }
}

impl fmt::Display for ExploreReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scenario {} [{:?}]: {} states, {} transitions ({} deduped, {} pruned, {} depth-capped), {} probes",
            self.scenario,
            self.coordination,
            self.states,
            self.transitions,
            self.deduped,
            self.pruned,
            self.depth_capped,
            self.probes,
        )?;
        if self.holds() {
            write!(f, "no counterexamples")
        } else {
            for ce in &self.counterexamples {
                writeln!(f, "{ce}")?;
            }
            write!(f, "{} counterexample(s)", self.counterexamples.len())
        }
    }
}

/// A failure of the model itself (engine refused an enabled action, a
/// scenario was malformed, ...). Distinct from a counterexample: probes
/// report protocol violations, `ModelError` reports checker bugs.
#[derive(Debug)]
pub struct ModelError {
    /// What the explorer was doing.
    pub context: String,
    /// The underlying failure.
    pub detail: String,
}

impl ModelError {
    pub(crate) fn new(context: impl Into<String>, detail: impl fmt::Display) -> ModelError {
        ModelError {
            context: context.into(),
            detail: detail.to_string(),
        }
    }
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "model error while {}: {}", self.context, self.detail)
    }
}

impl std::error::Error for ModelError {}

/// A state materialized by replaying a trace on a fresh engine.
struct Replay {
    engine: Engine,
    oracle: ShadowOracle,
    ops_done: usize,
    iwof_used: u32,
    run: Option<BackupRun>,
    image: Option<BackupImage>,
}

impl Replay {
    /// The common prefix of every schedule: fresh engine, setup ops
    /// applied and fully flushed, backup begun.
    fn initial(scenario: &Scenario, coordination: Coordination) -> Result<Replay, ModelError> {
        let config = scenario.config(coordination);
        let engine = Engine::new(config).map_err(|e| ModelError::new("creating engine", e))?;
        let mut oracle = ShadowOracle::new(scenario.page_size);
        for body in &scenario.setup {
            oracle
                .execute(&engine, body.clone())
                .map_err(|e| ModelError::new("applying setup op", e))?;
        }
        engine
            .flush_all()
            .map_err(|e| ModelError::new("flushing setup", e))?;
        let run = engine
            .begin_backup(scenario.backup_steps)
            .map_err(|e| ModelError::new("beginning backup", e))?;
        Ok(Replay {
            engine,
            oracle,
            ops_done: 0,
            iwof_used: 0,
            run: Some(run),
            image: None,
        })
    }

    /// Replay `trace` from the initial state.
    fn materialize(
        scenario: &Scenario,
        coordination: Coordination,
        trace: &[Action],
    ) -> Result<Replay, ModelError> {
        let mut replay = Replay::initial(scenario, coordination)?;
        for action in trace {
            replay.apply(scenario, *action)?;
        }
        Ok(replay)
    }

    /// Apply one action. Errors mean the explorer enabled something the
    /// engine rejects — a checker bug, not a protocol violation.
    fn apply(&mut self, scenario: &Scenario, action: Action) -> Result<(), ModelError> {
        match action {
            Action::Op => {
                let body = scenario
                    .ops
                    .get(self.ops_done)
                    .cloned()
                    .ok_or_else(|| ModelError::new("applying op", "no scripted op left"))?;
                self.oracle
                    .execute(&self.engine, body)
                    .map_err(|e| ModelError::new("applying scripted op", e))?;
                // Force so every applied op is durable: probes then check
                // full recovery, not the (orthogonal) force policy.
                self.engine
                    .force_log()
                    .map_err(|e| ModelError::new("forcing log", e))?;
                self.ops_done += 1;
                Ok(())
            }
            Action::Flush(page) => self
                .engine
                .flush_page(page)
                .map_err(|e| ModelError::new(format!("flushing {page}"), e)),
            Action::Iwof(page) => {
                self.engine
                    .install_without_flush(page)
                    .map_err(|e| ModelError::new(format!("identity-writing {page}"), e))?;
                self.iwof_used += 1;
                Ok(())
            }
            Action::Step => {
                let mut run = self
                    .run
                    .take()
                    .ok_or_else(|| ModelError::new("stepping backup", "no active run"))?;
                let finished = self
                    .engine
                    .backup_step(&mut run)
                    .map_err(|e| ModelError::new("stepping backup", e))?;
                if finished {
                    let image = self
                        .engine
                        .complete_backup(run)
                        .map_err(|e| ModelError::new("completing backup", e))?;
                    self.image = Some(image);
                } else {
                    self.run = Some(run);
                }
                Ok(())
            }
            Action::Truncate => self
                .engine
                .truncate_log()
                .map(|_| ())
                .map_err(|e| ModelError::new("truncating log", e)),
        }
    }

    /// Actions enabled in this state, in a fixed deterministic order
    /// (Op, Flush ascending, Iwof ascending, Step, Truncate) so BFS
    /// tie-breaking — and therefore the minimal counterexample — is
    /// reproducible.
    fn enabled(&self, scenario: &Scenario, coordination: Coordination) -> Vec<Action> {
        let mut out = Vec::new();
        if self.ops_done < scenario.ops.len() {
            out.push(Action::Op);
        }
        let dirty = self.engine.cache().dirty_pages();
        for page in &dirty {
            out.push(Action::Flush(*page));
        }
        if coordination == Coordination::Enforced && self.iwof_used < scenario.max_iwof {
            for page in &dirty {
                let in_graph = self
                    .engine
                    .with_graph(DomainId(0), |g| g.node_of(*page).is_some());
                if in_graph.unwrap_or(false) {
                    out.push(Action::Iwof(*page));
                }
            }
        }
        if self.run.is_some() {
            out.push(Action::Step);
        }
        out.push(Action::Truncate);
        out
    }

    /// Exact serialization of everything that can influence future
    /// behavior or a probe: control counters, the durable log (truncation
    /// point and every record's encoded bytes), every stable page, the
    /// dirty cache with recovery LSNs, a write-graph fingerprint, and the
    /// completed image if any. Two states with equal keys are
    /// behaviorally identical; the key is deliberately not a lossy hash.
    fn state_key(&self) -> Result<Vec<u8>, ModelError> {
        let mut key = Vec::with_capacity(4096);
        let push_u64 = |key: &mut Vec<u8>, v: u64| key.extend_from_slice(&v.to_le_bytes());
        let push_page = |key: &mut Vec<u8>, id: PageId| {
            key.extend_from_slice(&id.partition.0.to_le_bytes());
            key.extend_from_slice(&id.index.to_le_bytes());
        };

        push_u64(&mut key, self.ops_done as u64);
        push_u64(&mut key, u64::from(self.iwof_used));
        key.push(u8::from(self.run.is_some()));
        key.push(u8::from(self.image.is_some()));
        if let Some(run) = &self.run {
            push_u64(&mut key, run.steps_remaining() as u64);
            push_u64(&mut key, run.pages_copied());
            // The partial image's *bytes* are state, not just its page
            // count: the fuzzy sweep races flushes, so the same cursor
            // position can hold different snapshots of a page — and the
            // stale-snapshot branch is exactly where Figure 1 lives.
            for (id, page) in run.partial_image().iter() {
                push_page(&mut key, id);
                push_u64(&mut key, page.lsn().raw());
                key.extend_from_slice(page.data());
            }
        }

        let log = self.engine.log();
        push_u64(&mut key, log.truncation().raw());
        push_u64(&mut key, log.durable_lsn().raw());
        push_u64(&mut key, log.next_lsn().raw());
        let records = log
            .scan_from(log.truncation())
            .map_err(|e| ModelError::new("scanning log for state key", e))?;
        push_u64(&mut key, records.len() as u64);
        for rec in &records {
            push_u64(&mut key, rec.lsn.raw());
            let bytes = encode_record(rec);
            push_u64(&mut key, bytes.len() as u64);
            key.extend_from_slice(&bytes);
        }

        for (id, page) in self.stable_pages()? {
            push_page(&mut key, id);
            push_u64(&mut key, page.0.raw());
            key.extend_from_slice(&page.1);
        }

        let cache = self.engine.cache();
        let dirty = cache.dirty_pages();
        push_u64(&mut key, dirty.len() as u64);
        for id in &dirty {
            push_page(&mut key, *id);
            if let Some(page) = cache.peek(*id) {
                push_u64(&mut key, page.lsn().raw());
                key.extend_from_slice(page.data());
            }
        }
        for (id, rlsn) in cache.dirty_pages_by_rlsn() {
            push_page(&mut key, id);
            push_u64(&mut key, rlsn.raw());
        }

        // The graph's observable structure: which node (if any) holds each
        // page, and the recovery floor. Node ids are allocated in scripted
        // op order, which is identical across all traces with the same
        // `ops_done`, so equal logical graphs serialize equally.
        let pages = self.stable_pages()?;
        self.engine
            .with_graph(DomainId(0), |graph| {
                push_u64(&mut key, graph.node_count() as u64);
                for (id, _) in &pages {
                    let tag = format!("{:?}", graph.node_of(*id));
                    push_u64(&mut key, tag.len() as u64);
                    key.extend_from_slice(tag.as_bytes());
                }
                let floor = format!("{:?}", graph.min_uninstalled_lsn());
                key.extend_from_slice(floor.as_bytes());
            })
            .map_err(|e| ModelError::new("reading the write graph for state key", e))?;

        if let Some(image) = &self.image {
            push_u64(&mut key, image.start_lsn.raw());
            push_u64(&mut key, image.end_lsn.raw());
            push_u64(&mut key, image.pages.iter().count() as u64);
            for (id, page) in image.pages.iter() {
                push_page(&mut key, id);
                push_u64(&mut key, page.lsn().raw());
                key.extend_from_slice(page.data());
            }
        }
        Ok(key)
    }

    /// Every stable page of the (single-partition) scenario, in id order.
    fn stable_pages(&self) -> Result<Vec<(PageId, StablePage)>, ModelError> {
        let store = self.engine.store();
        let count = store
            .page_count(lob_pagestore::PartitionId(0))
            .map_err(|e| ModelError::new("sizing partition", e))?;
        let mut out = Vec::with_capacity(count as usize);
        for index in 0..count {
            let id = PageId::new(0, index);
            let page = store
                .read_page(id)
                .map_err(|e| ModelError::new(format!("reading {id} from S"), e))?;
            out.push((id, (page.lsn(), page.data().clone())));
        }
        Ok(out)
    }

    /// Whether `Flush(p)` and `Flush(q)` commute from this state, for the
    /// purposes of the reduction. Conservative: `false` whenever in
    /// doubt. Independence requires both pages to head *distinct*
    /// frontier nodes with disjoint variable sets (so neither flush
    /// installs, cascades into, or reorders the other's node), and that
    /// neither flush can take the identity-write branch (which appends
    /// log records whose LSNs depend on execution order): under
    /// `Disabled` coordination no identity write ever happens; under
    /// `Enforced` + the general discipline we check `decide_general` for
    /// every variable under the backup latch, exactly as the flush path
    /// itself would.
    fn flushes_independent(&self, coordination: Coordination, p: PageId, q: PageId) -> bool {
        self.engine
            .with_graph(DomainId(0), |graph| {
                self.flushes_independent_in(graph, coordination, p, q)
            })
            .unwrap_or(false)
    }

    fn flushes_independent_in(
        &self,
        graph: &WriteGraph,
        coordination: Coordination,
        p: PageId,
        q: PageId,
    ) -> bool {
        let (Some(np), Some(nq)) = (graph.node_of(p), graph.node_of(q)) else {
            return false;
        };
        if np == nq {
            return false;
        }
        let frontier = graph.frontier();
        if !frontier.contains(&np) || !frontier.contains(&nq) {
            return false;
        }
        let (Ok(vars_p), Ok(vars_q)) = (graph.vars(np), graph.vars(nq)) else {
            return false;
        };
        if vars_p.iter().any(|v| vars_q.contains(v)) {
            return false;
        }
        match coordination {
            Coordination::Disabled => true,
            Coordination::Enforced => {
                if self.engine.config().discipline != Discipline::General {
                    return false;
                }
                let all: Vec<PageId> = vars_p.iter().chain(vars_q.iter()).copied().collect();
                let latch = self.engine.coordinator().latch_for(&all);
                all.iter().all(|v| !latch.decide_general(*v))
            }
        }
    }
}

/// The exhaustive checker: BFS over action traces with exact-state
/// deduplication and a flush-commutation reduction.
pub struct Explorer {
    scenario: Scenario,
    coordination: Coordination,
    max_depth: usize,
    max_counterexamples: usize,
}

impl Explorer {
    /// An explorer over `scenario` under `coordination`, with defaults
    /// (depth 32, stop at the first counterexample).
    pub fn new(scenario: Scenario, coordination: Coordination) -> Explorer {
        Explorer {
            scenario,
            coordination,
            max_depth: 32,
            max_counterexamples: 1,
        }
    }

    /// Bound trace length; states at the bound are not expanded (they are
    /// still probed). The scenarios' natural action budgets are well
    /// under the default, so the bound is a backstop, not a truncation.
    pub fn max_depth(mut self, depth: usize) -> Explorer {
        self.max_depth = depth;
        self
    }

    /// Stop after this many counterexamples (BFS order: shortest first).
    pub fn max_counterexamples(mut self, n: usize) -> Explorer {
        self.max_counterexamples = n.max(1);
        self
    }

    /// Run the recovery probes (sequential crash redo, parallel crash
    /// redo, and — when an image exists — media recovery) on fresh
    /// replays of `trace`, recording divergence as counterexamples.
    fn probe(
        &self,
        trace: &[Action],
        has_image: bool,
        report: &mut ExploreReport,
    ) -> Result<(), ModelError> {
        let crashed = Replay::materialize(&self.scenario, self.coordination, trace)?;
        crashed.engine.crash();
        crashed
            .engine
            .recover()
            .map_err(|e| ModelError::new("redo recovery", e))?;
        report.probes += 1;
        if let Err(detail) = crashed.oracle.verify_store(&crashed.engine, Lsn::MAX) {
            report.counterexamples.push(Counterexample {
                trace: trace.to_vec(),
                probe: Probe::CrashRecovery,
                detail,
            });
        }

        let parallel = Replay::materialize(&self.scenario, self.coordination, trace)?;
        parallel.engine.crash();
        parallel
            .engine
            .parallel_recover_with(lob_recovery::RecoveryConfig::new(2, 4))
            .map_err(|e| ModelError::new("parallel redo recovery", e))?;
        report.probes += 1;
        if let Err(detail) = parallel.oracle.verify_store(&parallel.engine, Lsn::MAX) {
            report.counterexamples.push(Counterexample {
                trace: trace.to_vec(),
                probe: Probe::ParallelRecovery,
                detail,
            });
        }

        if has_image {
            let mut failed = Replay::materialize(&self.scenario, self.coordination, trace)?;
            let image = failed
                .image
                .take()
                .ok_or_else(|| ModelError::new("media probe", "image vanished on replay"))?;
            failed
                .engine
                .media_recover(&image)
                .map_err(|e| ModelError::new("media recovery", e))?;
            report.probes += 1;
            if let Err(detail) = failed.oracle.verify_store(&failed.engine, Lsn::MAX) {
                report.counterexamples.push(Counterexample {
                    trace: trace.to_vec(),
                    probe: Probe::MediaRecovery,
                    detail,
                });
            }
        }
        Ok(())
    }

    /// Exhaust the bounded space (or stop at `max_counterexamples`).
    pub fn run(&self) -> Result<ExploreReport, ModelError> {
        let mut report = ExploreReport {
            scenario: self.scenario.name,
            coordination: self.coordination,
            states: 0,
            transitions: 0,
            deduped: 0,
            pruned: 0,
            depth_capped: 0,
            probes: 0,
            counterexamples: Vec::new(),
        };
        let mut visited: HashSet<Vec<u8>> = HashSet::new();
        // Queue entries: (trace to this state, flush actions the reduction
        // suppresses here because the commuted order covers them).
        let mut queue: VecDeque<(Vec<Action>, Vec<Action>)> = VecDeque::new();

        let root = Replay::initial(&self.scenario, self.coordination)?;
        visited.insert(root.state_key()?);
        report.states += 1;
        self.probe(&[], root.image.is_some(), &mut report)?;
        if report.counterexamples.len() >= self.max_counterexamples {
            return Ok(report);
        }
        queue.push_back((Vec::new(), Vec::new()));

        while let Some((trace, skip)) = queue.pop_front() {
            if trace.len() >= self.max_depth {
                report.depth_capped += 1;
                continue;
            }
            let here = Replay::materialize(&self.scenario, self.coordination, &trace)?;
            let enabled = here.enabled(&self.scenario, self.coordination);
            for action in enabled.iter().copied() {
                if skip.contains(&action) {
                    report.pruned += 1;
                    continue;
                }
                let mut child_trace = trace.clone();
                child_trace.push(action);
                let child = Replay::materialize(&self.scenario, self.coordination, &child_trace)?;
                report.transitions += 1;
                if !visited.insert(child.state_key()?) {
                    report.deduped += 1;
                    continue;
                }
                report.states += 1;
                self.probe(&child_trace, child.image.is_some(), &mut report)?;
                if report.counterexamples.len() >= self.max_counterexamples {
                    return Ok(report);
                }
                // Sleep-set-lite: after taking Flush(p), the sibling order
                // "Flush(q) then Flush(p)" (q earlier in the fixed order)
                // reaches the same state when the two flushes are
                // independent here — suppress re-exploring it from the
                // child. Sound because state keys are exact: the commuted
                // interleaving's states are reached via the other branch.
                let child_skip: Vec<Action> = match action {
                    Action::Flush(p) => enabled
                        .iter()
                        .copied()
                        .filter(|other| match other {
                            Action::Flush(q) => {
                                *q < p && here.flushes_independent(self.coordination, p, *q)
                            }
                            _ => false,
                        })
                        .collect(),
                    _ => Vec::new(),
                };
                queue.push_back((child_trace, child_skip));
            }
        }
        Ok(report)
    }

    /// Replay an explicit trace (e.g. a reported counterexample) through
    /// a fresh engine and return the final state for inspection.
    pub fn replay(
        &self,
        trace: &[Action],
    ) -> Result<(Engine, ShadowOracle, Option<BackupImage>), ModelError> {
        let replay = Replay::materialize(&self.scenario, self.coordination, trace)?;
        Ok((replay.engine, replay.oracle, replay.image))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_chain_holds_under_enforcement() {
        let report = Explorer::new(Scenario::copy_chain(), Coordination::Enforced)
            .run()
            .expect("exploration runs");
        assert!(report.holds(), "unexpected: {report}");
        assert!(report.states > 10, "space too small: {report}");
    }

    #[test]
    fn actions_render_for_traces() {
        let a = Action::Flush(PageId::new(0, 2));
        assert_eq!(format!("{a}"), "Flush(P0:2)");
        assert_eq!(format!("{}", Action::Op), "Op");
    }
}
