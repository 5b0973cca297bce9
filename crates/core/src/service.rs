//! # Concurrent multi-session engine front-end
//!
//! [`EngineService`] is the engine as a *service*: one shared instance
//! hands out cheap [`Session`] handles that many threads drive
//! concurrently. Where [`crate::Engine`] is single-owner (`&mut self`
//! everywhere), the service shards its mutable state by the axis the
//! paper already partitions work on — the backup coordinator's domains
//! (§3.4) — so sessions touching disjoint domains never serialize on an
//! engine-global lock:
//!
//! * the page cache is a [`ShardedCache`] (per-shard locks keyed by a
//!   page-id hash);
//! * the write graph, successor table, and page allocator are
//!   **per-domain**, each behind its own lock;
//! * log appends and forces go through the [`GroupCommitLog`]
//!   group-commit scheduler, so concurrent commits share force (and, on a
//!   sync-enabled file log, `fsync`) round-trips;
//! * the stable store and backup coordinator are the same internally
//!   synchronized `Arc`-shared structures backup worker threads already
//!   race against.
//!
//! Backup sweeps keep running under concurrent write load exactly as they
//! do against the single-threaded engine: a sweep reads `S` under the
//! store's partition locks and the tracker's latch, neither of which a
//! session's domain lock nests inside.
//!
//! ## Lock order
//!
//! `meta` → `domains[_]` → tracker latch → group-commit `state` →
//! group-commit `manager` → cache shard → store partition. Leaf locks
//! (cache shards, store partitions, the coordinator's changed-set and
//! hook mutexes) are acquired one at a time with nothing taken inside
//! them. The static lock-order pass checks the aliased prefix of this
//! chain stays acyclic.
//!
//! ## Scope
//!
//! The service covers the concurrent hot paths: execute, read, flush,
//! force, crash/recover, and the on-line backup cycle. The repair /
//! instant-restore / linked-flush subsystems stay on the single-threaded
//! [`crate::Engine`] — they operate on the same shared store, catalog,
//! and coordinator layers, so a deployment runs them from one maintenance
//! thread while sessions keep executing (see DESIGN.md §5.14).

use crate::config::{BackupPolicy, Discipline, EngineConfig, FlushPolicy, LogBacking};
use crate::engine::{check_discipline, confined_domain, lift_cache_err, open_store};
use crate::error::EngineError;
use crate::stats::EngineStats;
use bytes::Bytes;
use lob_backup::{BackupCoordinator, BackupImage, BackupRun, DomainId, RunConfig, SuccessorTable};
use lob_cache::ShardedCache;
use lob_ops::{OpBody, OpError, PageReader};
use lob_pagestore::{Lsn, Page, PageId, PartitionId, StableStore};
use lob_recovery::{parallel_redo_scan, NodeId, RedoOutcome, WriteGraph};
use lob_wal::{FileLogStore, GroupCommitLog, LogManager, RecordBody};
use parking_lot::{Mutex, MutexGuard};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Per-domain mutable state: the §3.5 machinery that used to live on the
/// single-owner engine, now instantiated once per backup domain so
/// domain-disjoint sessions proceed in parallel.
struct DomainState {
    /// Write graph of uninstalled operations in this domain.
    graph: WriteGraph,
    /// Successor metadata for the §4.2 tree decision.
    succ: SuccessorTable,
    /// Next never-updated page index per partition of this domain.
    next_free: BTreeMap<PartitionId, u32>,
}

/// Cross-domain bookkeeping: backup identity, retention, and the
/// installed fault hook. Cold path — taken only by backup begin/complete
/// and crash/recover, never by execute or flush.
struct ServiceMeta {
    next_backup_id: u64,
    /// Backups whose media-recovery log suffix must be retained.
    retained: Vec<(u64, Lsn)>,
    /// Changed-page sets taken by in-flight backups, restored on abort.
    taken_changed: Vec<(u64, HashSet<PageId>)>,
    hook: Option<lob_pagestore::FaultHook>,
}

/// Monotone activity counters, updated lock-free from any session.
#[derive(Default)]
struct Counters {
    ops_executed: AtomicU64,         // lint: atomic(relaxed-counter)
    iwof_records: AtomicU64,         // lint: atomic(relaxed-counter)
    nodes_flushed: AtomicU64,        // lint: atomic(relaxed-counter)
    nodes_installed_free: AtomicU64, // lint: atomic(relaxed-counter)
    pages_flushed: AtomicU64,        // lint: atomic(relaxed-counter)
    recoveries: AtomicU64,           // lint: atomic(relaxed-counter)
    backups_begun: AtomicU64,        // lint: atomic(relaxed-counter)
    backups_completed: AtomicU64,    // lint: atomic(relaxed-counter)
    sweep_batches: AtomicU64,        // lint: atomic(relaxed-counter)
}

/// The concurrent engine front-end. Construct once, wrap in an [`Arc`],
/// and hand out [`Session`]s with [`EngineService::session`]. See the
/// module docs for the sharding and lock-order story.
pub struct EngineService {
    // lint: guarded-by(immutable) set at construction, never reassigned
    config: EngineConfig,
    // lint: guarded-by(immutable) Arc to an internally synchronized store
    store: Arc<StableStore>,
    // lint: guarded-by(immutable) Arc to an internally synchronized coordinator
    coordinator: Arc<BackupCoordinator>,
    // lint: guarded-by(immutable) internally synchronized group-commit scheduler
    log: GroupCommitLog,
    // lint: guarded-by(immutable) internally synchronized sharded cache
    cache: ShardedCache,
    /// One lock per backup domain, indexed by `DomainId.0`.
    domains: Vec<Mutex<DomainState>>,
    /// Cross-domain backup bookkeeping.
    meta: Mutex<ServiceMeta>,
    // lint: guarded-by(atomic) monotone counters
    counters: Counters,
}

/// Reads during operation evaluation go through the sharded cache; every
/// read stays inside the executing session's domain (discipline-checked
/// before evaluation), so the domain lock serializes same-domain readers
/// against same-domain writers.
struct ShardReader<'a> {
    cache: &'a ShardedCache,
    store: &'a StableStore,
}

impl PageReader for ShardReader<'_> {
    fn read(&mut self, id: PageId) -> Result<Bytes, OpError> {
        match self.cache.get(id, self.store) {
            Ok(p) => Ok(p.data().clone()),
            Err(e) => Err(OpError::ReadFailed {
                page: id,
                cause: e.to_string(),
            }),
        }
    }
}

impl EngineService {
    /// Build a service over a fresh, formatted database.
    pub fn new(config: EngineConfig) -> Result<EngineService, EngineError> {
        let (store, coordinator) = open_store(&config)?;
        let manager = match &config.log {
            LogBacking::Memory => LogManager::in_memory(),
            LogBacking::File(path) => {
                let mut fs = FileLogStore::create(path).map_err(lob_wal::LogError::Io)?;
                fs.set_sync(config.commit.sync_file_log);
                LogManager::new(Box::new(fs))
            }
        };
        let log = GroupCommitLog::new(
            manager,
            Duration::from_micros(config.commit.group_commit_delay_micros),
            config.commit.group_commit_count,
        );
        let cache = ShardedCache::new(config.cache_shards, config.cache_capacity);
        let mut domains: Vec<Mutex<DomainState>> = (0..coordinator.domain_count())
            .map(|_| {
                Mutex::new(DomainState {
                    graph: WriteGraph::new(config.graph_mode),
                    succ: SuccessorTable::new(),
                    next_free: BTreeMap::new(),
                })
            })
            .collect();
        for p in 0..config.partitions.len() as u32 {
            let pid = PartitionId(p);
            if let Some(d) = coordinator.domain_of(pid) {
                if let Some(m) = domains.get_mut(d.0 as usize) {
                    m.get_mut().next_free.insert(pid, 0);
                }
            }
        }
        Ok(EngineService {
            store,
            coordinator,
            log,
            cache,
            domains,
            meta: Mutex::new(ServiceMeta {
                next_backup_id: 1,
                retained: Vec::new(),
                taken_changed: Vec::new(),
                hook: None,
            }),
            counters: Counters::default(),
            config,
        })
    }

    /// A handle for one session of work; clone-free to create, `Send`,
    /// and safe to drive from its own thread.
    pub fn session(self: &Arc<Self>) -> Session {
        Session {
            svc: Arc::clone(self),
            logged: Arc::new(AtomicU64::new(Lsn::NULL.raw())),
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The stable database (shared with backup threads).
    pub fn store(&self) -> &Arc<StableStore> {
        &self.store
    }

    /// The backup coordinator (shared with backup threads).
    pub fn coordinator(&self) -> &Arc<BackupCoordinator> {
        &self.coordinator
    }

    /// The group-commit log scheduler.
    pub fn log(&self) -> &GroupCommitLog {
        &self.log
    }

    /// The sharded page cache.
    pub fn cache(&self) -> &ShardedCache {
        &self.cache
    }

    /// Aggregate service statistics in the engine's vocabulary.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            ops_executed: self.counters.ops_executed.load(Ordering::Relaxed),
            iwof_records: self.counters.iwof_records.load(Ordering::Relaxed),
            iwof_bytes: self.log.with_manager(|m| m.stats().identity_bytes()),
            nodes_flushed: self.counters.nodes_flushed.load(Ordering::Relaxed),
            nodes_installed_free: self.counters.nodes_installed_free.load(Ordering::Relaxed),
            pages_flushed: self.counters.pages_flushed.load(Ordering::Relaxed),
            recoveries: self.counters.recoveries.load(Ordering::Relaxed),
            backups_begun: self.counters.backups_begun.load(Ordering::Relaxed),
            backups_completed: self.counters.backups_completed.load(Ordering::Relaxed),
            sweep_batches: self.counters.sweep_batches.load(Ordering::Relaxed),
            ..EngineStats::default()
        }
    }

    /// Durable-log statistics (forces, frames, identity bytes).
    pub fn log_stats(&self) -> lob_wal::LogStats {
        self.log.with_manager(|m| m.stats().clone())
    }

    fn lock_domain(&self, d: DomainId) -> Result<MutexGuard<'_, DomainState>, EngineError> {
        Ok(self
            .domains
            .get(d.0 as usize)
            .ok_or_else(|| EngineError::Discipline(format!("no such backup domain {d:?}")))?
            .lock())
    }

    fn lock_meta(&self) -> MutexGuard<'_, ServiceMeta> {
        self.meta.lock()
    }

    /// The group-commit force: named so the static lock-order pass can
    /// alias the internal `state` → `manager` acquisition at every call
    /// site.
    fn group_force(&self, upto: Lsn) -> Result<(), EngineError> {
        Ok(self.log.force(upto)?)
    }

    /// See [`crate::Engine::execute`]-adjacent `force_target`: the LSN a
    /// WAL-required force actually targets under the configured policy.
    /// The group scheduler's leader always persists the whole appended
    /// tail either way (always WAL-correct); `Exact` still short-circuits
    /// when the requirement is already durable.
    fn force_target(&self, required: Lsn) -> Lsn {
        match self.config.commit.flush_policy {
            FlushPolicy::Exact => required,
            FlushPolicy::Group => Lsn::MAX,
        }
    }

    /// Discipline and confinement check; returns the single domain the
    /// operation touches (domain 0 for page-free operations).
    fn check_discipline(&self, body: &OpBody) -> Result<DomainId, EngineError> {
        let domain = confined_domain(
            &self.coordinator,
            body,
            "sessions require domain-confined operations",
        )?;
        check_discipline(self.config.discipline, body, |p| {
            self.cache.page_lsn(p, &self.store).map_err(lift_cache_err)
        })?;
        Ok(domain.unwrap_or(DomainId(0)))
    }

    /// Execute a logged operation (see [`crate::Engine::execute`]): the
    /// session's domain lock serializes same-domain sessions; the log
    /// append and cache installs are internally synchronized. Returns the
    /// record's LSN.
    pub fn execute(&self, body: OpBody) -> Result<Lsn, EngineError> {
        body.validate()?;
        let domain = self.check_discipline(&body)?;
        let mut dom = self.lock_domain(domain)?;
        // Evaluate first (no state change on failure).
        let outputs = {
            let mut reader = ShardReader {
                cache: &self.cache,
                store: &self.store,
            };
            body.apply(&mut reader)?
        };
        for (pid, bytes) in &outputs {
            if bytes.len() != self.config.page_size {
                return Err(EngineError::Internal(format!(
                    "operation produced {} bytes for {pid}, page size is {}",
                    bytes.len(),
                    self.config.page_size
                )));
            }
        }
        let lsn = self.log.append_record(RecordBody::Op(body.clone()));
        for (pid, bytes) in outputs {
            self.cache
                .put_dirty(pid, Page::new(lsn, bytes))
                .map_err(lift_cache_err)?;
        }
        dom.graph.add_op(lsn, &body);
        let coord = &self.coordinator;
        dom.succ.note_op(&body, |p| coord.pos(p));
        self.counters.ops_executed.fetch_add(1, Ordering::Relaxed);
        Ok(lsn)
    }

    /// Current value of a page (read through the sharded cache).
    pub fn read_page(&self, id: PageId) -> Result<Page, EngineError> {
        self.cache.get(id, &self.store).map_err(lift_cache_err)
    }

    /// Allocate a fresh (never-updated) page in `partition`.
    pub fn alloc_page(&self, partition: PartitionId) -> Result<PageId, EngineError> {
        let domain = self
            .coordinator
            .domain_of(partition)
            .ok_or(EngineError::Store(
                lob_pagestore::StoreError::NoSuchPartition(partition),
            ))?;
        let total = self
            .store
            .page_count(partition)
            .map_err(EngineError::Store)?;
        let mut dom = self.lock_domain(domain)?;
        let next = dom.next_free.get_mut(&partition).ok_or(EngineError::Store(
            lob_pagestore::StoreError::NoSuchPartition(partition),
        ))?;
        if *next >= total {
            return Err(EngineError::Internal(format!(
                "partition {partition} is full ({total} pages)"
            )));
        }
        let id = PageId {
            partition,
            index: *next,
        };
        *next += 1;
        Ok(id)
    }

    /// Mark low page indexes as pre-allocated.
    pub fn reserve_pages(&self, partition: PartitionId, upto: u32) -> Result<(), EngineError> {
        let Some(domain) = self.coordinator.domain_of(partition) else {
            return Ok(());
        };
        let mut dom = self.lock_domain(domain)?;
        if let Some(n) = dom.next_free.get_mut(&partition) {
            *n = (*n).max(upto);
        }
        Ok(())
    }

    /// Install one write-graph node of `dom` — the §3.5 cache-management
    /// algorithm, verbatim from [`crate::Engine`] with the shared-state
    /// substrates swapped in (group force, sharded write-out).
    fn install_one_node(&self, dom: &mut DomainState, node: NodeId) -> Result<(), EngineError> {
        let vars: Vec<PageId> = dom.graph.vars(node)?.to_vec();
        let wal_floor = dom.graph.wal_floor(node)?;
        if vars.is_empty() {
            return self.install_free_node(dom, node, wal_floor);
        }

        let latch = self.coordinator.latch_for(&vars);

        let mut iwof: Vec<PageId> = Vec::new();
        if self.config.policy == BackupPolicy::Protocol {
            for &v in &vars {
                let needs = match self.config.discipline {
                    Discipline::PageOriented => false,
                    Discipline::General => latch.decide_general(v),
                    Discipline::Tree => latch.decide_tree(v, dom.succ.get(v)),
                };
                if needs {
                    iwof.push(v);
                }
            }
        }

        let mut identity_nodes: Vec<NodeId> = Vec::new();
        for &v in &iwof {
            let value: Bytes = self
                .cache
                .peek(v)
                .ok_or_else(|| EngineError::Internal(format!("iwof target {v} not resident")))?
                .data()
                .clone();
            let body = OpBody::IdentityWrite { target: v, value };
            let ilsn = self.log.append_record(RecordBody::Op(body.clone()));
            self.counters.iwof_records.fetch_add(1, Ordering::Relaxed);
            let n = dom.graph.add_op(ilsn, &body);
            let page = self
                .cache
                .peek(v)
                .ok_or_else(|| {
                    EngineError::Internal(format!("page {v} not resident at identity write"))
                })?
                .with_lsn(ilsn);
            self.cache.put_dirty(v, page).map_err(lift_cache_err)?;
            self.cache.advance_rlsn(v, ilsn);
            identity_nodes.push(n);
        }

        let max_lsn = vars
            .iter()
            .filter_map(|&v| self.cache.peek(v).map(|p| p.lsn()))
            .max()
            .unwrap_or(Lsn::NULL);
        self.group_force(self.force_target(max_lsn.max(wal_floor)))?;
        self.cache
            .write_out(&vars, &self.store, self.log.durable_lsn())
            .map_err(lift_cache_err)?;
        self.counters
            .pages_flushed
            .fetch_add(vars.len() as u64, Ordering::Relaxed);

        for &v in &vars {
            self.coordinator.note_flushed(v);
        }

        dom.graph.install_node(node)?;
        self.counters.nodes_flushed.fetch_add(1, Ordering::Relaxed);
        for n in identity_nodes {
            dom.graph.install_node(n)?;
        }
        for &v in &vars {
            dom.succ.clear(v);
        }
        drop(latch);
        Ok(())
    }

    /// Install a node whose `vars` emptied (stolen by blind writes): no
    /// flush, but the WAL floor must still be durable first. Kept out of
    /// [`EngineService::install_one_node`] so the force here never
    /// lexically precedes that function's backup latch (the static
    /// lock-order pass is branch- and drop-insensitive).
    fn install_free_node(
        &self,
        dom: &mut DomainState,
        node: NodeId,
        wal_floor: Lsn,
    ) -> Result<(), EngineError> {
        self.group_force(self.force_target(wal_floor))?;
        dom.graph.install_node(node)?;
        self.counters
            .nodes_installed_free
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Flush the node holding `page` (and, first, all its write-graph
    /// ancestors). No-op if the page is clean.
    pub fn flush_page(&self, page: PageId) -> Result<(), EngineError> {
        let Some(domain) = self.coordinator.domain_of(page.partition) else {
            return Err(EngineError::Discipline(format!(
                "page {page} is outside every backup-order domain"
            )));
        };
        let mut dom = self.lock_domain(domain)?;
        let Some(node) = dom.graph.node_of(page) else {
            if self.cache.is_dirty(page) {
                return Err(EngineError::Internal(format!(
                    "dirty page {page} not owned by any write-graph node"
                )));
            }
            return Ok(());
        };
        let plan = dom.graph.flush_plan(node)?;
        for n in plan {
            self.install_one_node(&mut dom, n)?;
        }
        Ok(())
    }

    /// Drain one domain's write graph (flush every dirty page of the
    /// domain in write-graph order).
    pub fn flush_domain(&self, domain: DomainId) -> Result<(), EngineError> {
        let mut dom = self.lock_domain(domain)?;
        loop {
            let frontier = dom.graph.frontier();
            if frontier.is_empty() {
                return Ok(());
            }
            for node in frontier {
                self.install_one_node(&mut dom, node)?;
            }
        }
    }

    /// Flush every domain's write graph, then advance the log truncation
    /// point. With sessions still executing concurrently this is a
    /// point-in-time drain, not a quiescence barrier.
    pub fn flush_all(&self) -> Result<(), EngineError> {
        for d in 0..self.domains.len() as u32 {
            self.flush_domain(DomainId(d))?;
        }
        self.truncate_log()?;
        Ok(())
    }

    /// Durably force every appended log record (a group commit the caller
    /// does not share with anyone — unless someone commits in the window).
    pub fn force_log(&self) -> Result<(), EngineError> {
        self.group_force(Lsn::MAX)
    }

    /// The earliest LSN crash recovery could need (see
    /// [`crate::Engine::redo_scan_start`]), minimized across domains.
    ///
    /// Holds **every** domain lock at once (ascending index, as in
    /// [`EngineService::recover`]). `execute` assigns an op's LSN and
    /// makes it visible (cache dirty entry, write-graph node) all under
    /// one domain lock, so a lock-one-at-a-time scan could run inside
    /// that window and see the record in neither structure — and a
    /// truncation bound computed past it would silently drop a committed
    /// update from the next crash recovery.
    pub fn redo_scan_start(&self) -> Result<Lsn, EngineError> {
        let doms: Vec<MutexGuard<'_, DomainState>> =
            self.domains.iter().map(|m| m.lock()).collect();
        Ok(self.scan_floor(&doms))
    }

    /// The redo floor over already-held domain guards: the minimum
    /// uninstalled write-graph LSN and dirty-page recovery LSN, else the
    /// append point (nothing volatile needs redo). Callers hold every
    /// domain lock, so no record can be appended-but-not-yet-entered
    /// while this runs.
    fn scan_floor(&self, doms: &[MutexGuard<'_, DomainState>]) -> Lsn {
        let mut min: Option<Lsn> = None;
        for dom in doms.iter() {
            if let Some(l) = dom.graph.min_uninstalled_lsn() {
                min = Some(min.map_or(l, |m| m.min(l)));
            }
        }
        if let Some(l) = self.cache.min_dirty_rlsn() {
            min = Some(min.map_or(l, |m| m.min(l)));
        }
        min.unwrap_or_else(|| self.log.next_lsn())
    }

    /// Advance the log truncation point as far as crash recovery and
    /// retained backups permit.
    pub fn truncate_log(&self) -> Result<Lsn, EngineError> {
        let bound = self.redo_scan_start()?;
        Ok(self.log.truncate(bound)?)
    }

    /// Install (or clear) a fault hook on every I/O site the service owns
    /// or shares (store, log, cache shards, coordinator).
    pub fn install_fault_hook(&self, hook: Option<lob_pagestore::FaultHook>) {
        let mut meta = self.lock_meta();
        self.store.set_fault_hook(hook.clone());
        self.log.set_fault_hook(hook.clone());
        self.cache.set_fault_hook(hook.clone());
        self.coordinator.set_fault_hook(hook.clone());
        meta.hook = hook;
    }

    /// Crash: all volatile state (cache, write graphs, successor tables,
    /// the unforced log tail, in-flight backup trackers and the
    /// changed-page set) is lost. Concurrent sessions' in-flight calls
    /// finish against pre-crash state or surface typed errors; call
    /// [`EngineService::recover`] next.
    pub fn crash(&self) {
        let mut meta = self.lock_meta();
        let mut doms: Vec<MutexGuard<'_, DomainState>> =
            self.domains.iter().map(|m| m.lock()).collect();
        for dom in doms.iter_mut() {
            dom.graph = WriteGraph::new(self.config.graph_mode);
            dom.succ.clear_all();
        }
        self.log.crash();
        self.cache.clear();
        meta.taken_changed.clear();
        self.coordinator.reset_volatile();
    }

    /// Crash recovery: roll the surviving log suffix forward over `S`
    /// through the batched replay, with the workers/batch knobs from
    /// [`EngineConfig::recovery`]. Takes every lock — sessions resume
    /// after.
    pub fn recover(&self) -> Result<RedoOutcome, EngineError> {
        let _meta = self.lock_meta();
        let mut doms: Vec<MutexGuard<'_, DomainState>> =
            self.domains.iter().map(|m| m.lock()).collect();
        let records = self.log.scan_from(self.log.truncation())?;
        let outcome = parallel_redo_scan(&records, &self.store, self.config.recovery)?;
        self.counters.recoveries.fetch_add(1, Ordering::Relaxed);
        // Reseed the per-domain allocators past everything recovery wrote.
        for dom in doms.iter_mut() {
            for (p, slot) in dom.next_free.iter_mut() {
                let hw = self.store.high_water(*p)?;
                let floor = hw.map_or(0, |h| h + 1);
                *slot = (*slot).max(floor);
            }
        }
        // Truncation bound, computed from the already-held guards (the
        // graphs are live; re-locking through `redo_scan_start` would
        // self-deadlock).
        let bound = self.scan_floor(&doms);
        self.log.truncate(bound)?;
        Ok(outcome)
    }

    /// Take the changed-page set for `domain`, restoring out-of-domain
    /// pages immediately.
    fn take_domain_changed(&self, domain: DomainId) -> HashSet<PageId> {
        let changed = self.coordinator.take_changed();
        let (in_dom, out_dom): (HashSet<PageId>, HashSet<PageId>) = changed
            .into_iter()
            .partition(|p| self.coordinator.domain_of(p.partition) == Some(domain));
        self.coordinator.restore_changed(out_dom);
        in_dom
    }

    fn refresh_media_barrier(&self, meta: &ServiceMeta) {
        let barrier = meta.retained.iter().map(|&(_, l)| l).min();
        self.log.set_media_barrier(barrier);
    }

    /// Start the tracker run, handing the taken changed-set back to the
    /// coordinator on failure. Kept out of
    /// [`EngineService::begin_backup_of`] so the restore-on-error path
    /// never lexically precedes that function's log force (the static
    /// lock-order pass is branch- and drop-insensitive).
    fn begin_run(
        &self,
        cfg: RunConfig,
        backup_id: u64,
        start_lsn: Lsn,
        changed: HashSet<PageId>,
    ) -> Result<(BackupRun, HashSet<PageId>), EngineError> {
        match BackupRun::begin(&self.coordinator, cfg, backup_id, start_lsn) {
            Ok(r) => Ok((r, changed)),
            Err(e) => {
                self.coordinator.restore_changed(changed);
                Err(EngineError::Backup(e))
            }
        }
    }

    /// Unwind [`EngineService::begin_backup_of`] when the `BackupBegin`
    /// force fails: abort the run against the coordinator and hand the
    /// taken changed-set back (mirroring [`EngineService::abort_backup`];
    /// nothing is retained yet), so a transient log failure leaves
    /// neither a phantom active tracker nor a swallowed incremental
    /// changed-page set behind. Kept out of `begin_backup_of` for the
    /// same lexical lock-order reason as [`EngineService::begin_run`].
    fn fail_begun_backup(
        &self,
        meta: &mut ServiceMeta,
        run: BackupRun,
        err: EngineError,
    ) -> EngineError {
        let backup_id = run.backup_id();
        run.abort(&self.coordinator);
        if let Some(i) = meta
            .taken_changed
            .iter()
            .position(|(id, _)| *id == backup_id)
        {
            let (_, changed) = meta.taken_changed.swap_remove(i);
            self.coordinator.restore_changed(changed);
        }
        err
    }

    /// Begin an on-line backup of `domain` in `steps` steps. The returned
    /// run is driven with [`EngineService::backup_step_batch`] — from this
    /// or any other thread — while sessions keep executing.
    pub fn begin_backup_of(&self, domain: DomainId, steps: u32) -> Result<BackupRun, EngineError> {
        let mut meta = self.lock_meta();
        let changed = self.take_domain_changed(domain);
        let backup_id = meta.next_backup_id;
        let start_lsn = self.redo_scan_start()?;
        let cfg = RunConfig {
            domain,
            steps,
            filter: None,
            base: None,
        };
        let (run, changed) = self.begin_run(cfg, backup_id, start_lsn, changed)?;
        meta.taken_changed.push((backup_id, changed));
        meta.next_backup_id += 1;
        self.log.append_record(RecordBody::BackupBegin {
            backup_id,
            start_lsn,
        });
        if let Err(e) = self.group_force(Lsn::MAX) {
            return Err(self.fail_begun_backup(&mut meta, run, e));
        }
        meta.retained.push((backup_id, start_lsn));
        self.refresh_media_barrier(&meta);
        self.counters.backups_begun.fetch_add(1, Ordering::Relaxed);
        Ok(run)
    }

    /// Advance an on-line backup by one step, copying up to `batch`
    /// contiguous pages per store round-trip.
    pub fn backup_step_batch(&self, run: &mut BackupRun, batch: u32) -> Result<bool, EngineError> {
        self.counters.sweep_batches.fetch_add(1, Ordering::Relaxed);
        Ok(run.step_batch(&self.coordinator, &self.store, batch)?)
    }

    /// Complete a finished backup run: logs `BackupEnd` and returns the
    /// image. The image's log suffix stays retained until
    /// [`EngineService::release_backup`].
    pub fn complete_backup(&self, run: BackupRun) -> Result<BackupImage, EngineError> {
        let mut meta = self.lock_meta();
        let backup_id = run.backup_id();
        let mut image = run.into_image()?;
        self.log.append_record(RecordBody::BackupEnd { backup_id });
        self.group_force(Lsn::MAX)?;
        image.end_lsn = self.log.durable_lsn();
        meta.taken_changed.retain(|(id, _)| *id != backup_id);
        self.counters
            .backups_completed
            .fetch_add(1, Ordering::Relaxed);
        Ok(image)
    }

    /// Abort an in-flight backup run: tracker deactivates, the log suffix
    /// is released, the changed-page set merges back.
    pub fn abort_backup(&self, run: BackupRun) {
        let mut meta = self.lock_meta();
        let backup_id = run.backup_id();
        run.abort(&self.coordinator);
        if let Some(i) = meta
            .taken_changed
            .iter()
            .position(|(id, _)| *id == backup_id)
        {
            let (_, changed) = meta.taken_changed.swap_remove(i);
            self.coordinator.restore_changed(changed);
        }
        meta.retained.retain(|&(id, _)| id != backup_id);
        self.refresh_media_barrier(&meta);
    }

    /// Release a completed backup's retained log suffix (it is superseded
    /// by a newer backup, or discarded).
    pub fn release_backup(&self, backup_id: u64) {
        let mut meta = self.lock_meta();
        meta.retained.retain(|&(id, _)| id != backup_id);
        self.refresh_media_barrier(&meta);
    }
}

impl std::fmt::Debug for EngineService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EngineService({} domains, {:?}, {:?})",
            self.domains.len(),
            self.cache,
            self.log
        )
    }
}

/// One session of a shared [`EngineService`] — a cheap clone-able handle
/// that forwards to the service. Each thread gets its own; the service's
/// domain locks, cache shards, and group-commit scheduler do the
/// coordinating.
///
/// A clone is the *same* session: it shares the service and the record of
/// what the session has logged, so [`Session::commit`] through any clone
/// covers every record executed through any of them. A fresh session
/// comes from [`EngineService::session`].
#[derive(Clone, Debug)]
pub struct Session {
    svc: Arc<EngineService>,
    /// Highest LSN this session's `execute`s returned (raw; 0 before the
    /// first): the record [`Session::commit`] forces.
    logged: Arc<AtomicU64>, // lint: atomic(acq-rel)
}

impl Session {
    /// The shared service behind this session.
    pub fn service(&self) -> &Arc<EngineService> {
        &self.svc
    }

    /// Execute a logged operation. See [`EngineService::execute`].
    pub fn execute(&self, body: OpBody) -> Result<Lsn, EngineError> {
        let lsn = self.svc.execute(body)?;
        self.logged.fetch_max(lsn.raw(), Ordering::AcqRel);
        Ok(lsn)
    }

    /// Read a page through the shared cache.
    pub fn read_page(&self, id: PageId) -> Result<Page, EngineError> {
        self.svc.read_page(id)
    }

    /// Flush one page (write-graph-ordered).
    pub fn flush_page(&self, page: PageId) -> Result<(), EngineError> {
        self.svc.flush_page(page)
    }

    /// Commit: durably force everything this session has logged — a group
    /// force of its newest record, which covers every earlier one. If a
    /// crash wiped that record before any force reached it, the commit
    /// fails with the injected crash instead of reporting durability.
    pub fn commit(&self) -> Result<(), EngineError> {
        self.svc
            .group_force(Lsn(self.logged.load(Ordering::Acquire)))
    }

    /// Allocate a fresh page.
    pub fn alloc_page(&self, partition: PartitionId) -> Result<PageId, EngineError> {
        self.svc.alloc_page(partition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Tracking;
    use lob_ops::PhysioOp;
    use lob_pagestore::PartitionSpec;

    fn config(partitions: u32, pages: u32) -> EngineConfig {
        EngineConfig {
            page_size: 64,
            partitions: (0..partitions).map(|_| PartitionSpec { pages }).collect(),
            tracking: if partitions == 1 {
                Tracking::Sequential(vec![PartitionId(0)])
            } else {
                Tracking::PerPartition
            },
            ..EngineConfig::small()
        }
    }

    fn insert(p: PageId, k: &[u8], v: &[u8]) -> OpBody {
        OpBody::Physio(PhysioOp::InsertRec {
            target: p,
            key: Bytes::copy_from_slice(k),
            val: Bytes::copy_from_slice(v),
        })
    }

    #[test]
    fn single_session_executes_flushes_and_recovers() {
        let svc = Arc::new(EngineService::new(config(1, 16)).unwrap());
        let s = svc.session();
        let id = PageId::new(0, 0);
        s.execute(insert(id, b"k", b"v")).unwrap();
        s.commit().unwrap();
        svc.flush_all().unwrap();
        assert_eq!(svc.cache().dirty_count(), 0);
        let flushed = svc.store().read_page(id).unwrap();
        assert!(!flushed.lsn().is_null());
        svc.crash();
        svc.recover().unwrap();
        let after = svc.read_page(id).unwrap();
        assert_eq!(after.data(), flushed.data());
    }

    #[test]
    fn sessions_in_disjoint_partitions_run_concurrently() {
        let svc = Arc::new(EngineService::new(config(4, 16)).unwrap());
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let s = svc.session();
                scope.spawn(move || {
                    for i in 0..32u32 {
                        let id = PageId::new(t, i % 16);
                        s.execute(insert(id, b"k", &[t as u8, i as u8])).unwrap();
                        if i % 8 == 7 {
                            s.commit().unwrap();
                        }
                    }
                });
            }
        });
        assert_eq!(svc.stats().ops_executed, 128);
        svc.flush_all().unwrap();
        assert_eq!(svc.cache().dirty_count(), 0);
    }

    #[test]
    fn cross_domain_operations_are_rejected() {
        let svc = Arc::new(EngineService::new(config(2, 16)).unwrap());
        let op = OpBody::Logical(lob_ops::LogicalOp::MovRec {
            old: PageId::new(0, 0),
            sep: Bytes::from_static(b"m"),
            new: PageId::new(1, 0),
        });
        assert!(matches!(svc.execute(op), Err(EngineError::Discipline(_))));
    }

    #[test]
    fn backup_races_concurrent_writers_and_restores() {
        let svc = Arc::new(EngineService::new(config(2, 16)).unwrap());
        // Prefill both partitions.
        for p in 0..2u32 {
            for i in 0..16u32 {
                svc.execute(insert(PageId::new(p, i), b"seed", &[p as u8, i as u8]))
                    .unwrap();
            }
        }
        svc.flush_all().unwrap();
        let mut run = svc.begin_backup_of(DomainId(0), 4).unwrap();
        // A concurrent session updates domain 1 while domain 0 is swept.
        std::thread::scope(|scope| {
            let s = svc.session();
            scope.spawn(move || {
                for i in 0..16u32 {
                    s.execute(insert(PageId::new(1, i % 16), b"live", &[i as u8]))
                        .unwrap();
                }
            });
            while !svc.backup_step_batch(&mut run, 4).unwrap() {}
        });
        let image = svc.complete_backup(run).unwrap();
        assert_eq!(image.page_count(), 16);
        assert_eq!(svc.stats().backups_completed, 1);
        svc.release_backup(image.backup_id);
    }

    #[test]
    fn commit_after_a_crash_reports_the_lost_record() {
        use lob_wal::LogError;
        let svc = Arc::new(EngineService::new(config(1, 16)).unwrap());
        let s = svc.session();
        // Nothing logged yet: an empty commit is trivially durable.
        s.commit().unwrap();
        let lsn = s.execute(insert(PageId::new(0, 0), b"a", b"1")).unwrap();
        svc.crash();
        assert!(matches!(svc.log().force(lsn), Err(LogError::InjectedCrash)));
        assert!(
            matches!(s.commit(), Err(EngineError::Log(LogError::InjectedCrash))),
            "the session's record was wiped; commit must not report it durable"
        );
        // A clone is the same session and sees the same loss.
        assert!(s.clone().commit().is_err());
        svc.recover().unwrap();
        // New work through the session commits normally again.
        let again = s.execute(insert(PageId::new(0, 1), b"b", b"2")).unwrap();
        assert!(again > lsn);
        s.commit().unwrap();
        assert!(svc.log().durable_lsn() >= again);
    }

    #[test]
    fn a_session_commits_what_its_clones_logged() {
        let svc = Arc::new(EngineService::new(config(1, 16)).unwrap());
        let s = svc.session();
        let clone = s.clone();
        std::thread::scope(|scope| {
            let worker = scope.spawn(move || clone.execute(insert(PageId::new(0, 0), b"a", b"1")));
            worker.join().unwrap().unwrap();
        });
        svc.crash();
        // `s` executed nothing itself; its clone's lost record is its own.
        assert!(s.commit().is_err());
        assert!(svc.session().commit().is_ok());
    }

    #[test]
    fn crash_loses_unforced_tail_only() {
        let svc = Arc::new(EngineService::new(config(1, 16)).unwrap());
        let s = svc.session();
        s.execute(insert(PageId::new(0, 0), b"a", b"1")).unwrap();
        s.commit().unwrap();
        let durable = svc.log().durable_lsn();
        s.execute(insert(PageId::new(0, 1), b"b", b"2")).unwrap();
        svc.crash();
        svc.recover().unwrap();
        assert_eq!(svc.log().durable_lsn(), durable);
        // The unforced record is gone; the committed one replayed into S.
        let p = svc.read_page(PageId::new(0, 0)).unwrap();
        assert!(!p.lsn().is_null());
        let q = svc.read_page(PageId::new(0, 1)).unwrap();
        assert!(q.lsn().is_null());
    }
}
