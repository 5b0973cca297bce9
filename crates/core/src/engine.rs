//! The engine.

use crate::config::{BackupPolicy, Discipline, EngineConfig, FlushPolicy, LogBacking, Tracking};
use crate::error::EngineError;
use crate::stats::EngineStats;
use bytes::Bytes;
use lob_backup::{
    BackupCatalog, BackupCoordinator, BackupError, BackupImage, BackupRun, DomainId, ParallelSweep,
    RunConfig, SuccessorTable,
};
use lob_cache::{CacheError, CacheManager, CacheReader};
use lob_ops::{OpBody, OpError, TreeForm};
use lob_pagestore::{
    CorruptionEntry, Lsn, Page, PageId, PageImage, PartitionId, StableStore, StoreConfig,
    StoreError,
};
use lob_recovery::repair::{
    archive_closure, dependency_closure, replay_closure, BackoffSchedule, RepairReport, RetryCost,
};
use lob_recovery::{
    parallel_install_image, parallel_redo_scan, InstantRestore, InstantStats, NodeId,
    RecoveryConfig, RedoOutcome, WriteGraph,
};
use lob_wal::{FileLogStore, LogError, LogManager, LogRecord, RecordBody};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

/// Attempts per faultable read when the medium reports *transient* I/O
/// errors: the first try plus three retries, spaced by the deterministic
/// [`BackoffSchedule`] (virtual ticks — repair never consults a clock).
const REPAIR_FETCH_ATTEMPTS: u32 = 4;

/// Bound on heal-and-retry rounds for one engine-level read before the
/// underlying error propagates to the caller (each round either retries a
/// transient error or repairs one damaged page).
const HEAL_ROUNDS: u32 = 6;

/// The engine: executes logged operations against the cache, flushes in
/// write-graph order with the paper's backup coordination, recovers from
/// crashes and media failures.
///
/// Single ownership, single writer: one thread drives the engine. The
/// pieces that backup threads touch concurrently — the stable store and the
/// backup coordinator — are `Arc`-shared and internally synchronized (the
/// store's per-partition page lock; the coordinator's backup latches).
pub struct Engine {
    config: EngineConfig,
    store: Arc<StableStore>,
    log: LogManager,
    cache: CacheManager,
    graph: WriteGraph,
    coordinator: Arc<BackupCoordinator>,
    succ: SuccessorTable,
    next_free: Vec<u32>,
    next_backup_id: u64,
    /// Backups whose media-recovery log suffix must be retained:
    /// `(backup_id, start_lsn)`.
    retained: Vec<(u64, Lsn)>,
    /// Changed-page sets taken by in-flight backups (full backups consume
    /// their domain's changed pages; incremental backups use them as the
    /// copy filter), restored if the backup aborts.
    taken_changed: Vec<(u64, HashSet<PageId>)>,
    /// Images of in-progress linked-flush backups (flushes mirror into
    /// them).
    linked_images: Vec<(u64, Arc<Mutex<PageImage>>)>,
    /// Registered backup generations — the chain online repair draws from.
    /// While it is empty, self-healing is disengaged and every read path
    /// behaves exactly as it did before the repair subsystem existed.
    catalog: Arc<BackupCatalog>,
    /// The in-flight instant-restore epoch, if media recovery is serving
    /// in degraded mode. While `Some`, reads and writes gate on their own
    /// segment's restore ([`Engine::ensure_segment`]); `None` is normal
    /// operation.
    instant: Option<InstantRestore>,
    /// The installed fault hook, kept so a mid-epoch
    /// [`Engine::install_fault_hook`] can re-fan it into the scheduler.
    hook: Option<lob_pagestore::FaultHook>,
    stats: EngineStats,
}

impl Engine {
    /// Build an engine (fresh, formatted database).
    pub fn new(config: EngineConfig) -> Result<Engine, EngineError> {
        let (store, coordinator) = open_store(&config)?;
        let log = match &config.log {
            LogBacking::Memory => LogManager::in_memory(),
            LogBacking::File(path) => LogManager::new(Box::new(
                FileLogStore::create(path).map_err(lob_wal::LogError::Io)?,
            )),
        };
        let next_free = vec![0; config.partitions.len()];
        Ok(Engine {
            graph: WriteGraph::new(config.graph_mode),
            cache: CacheManager::with_capacity(config.cache_capacity),
            log,
            coordinator,
            succ: SuccessorTable::new(),
            next_free,
            next_backup_id: 1,
            retained: Vec::new(),
            taken_changed: Vec::new(),
            linked_images: Vec::new(),
            catalog: Arc::new(BackupCatalog::new()),
            instant: None,
            hook: None,
            stats: EngineStats::default(),
            store,
            config,
        })
    }

    /// Resume from an existing log file after a process restart: the
    /// stable database starts formatted (the "disk" of this simulation is
    /// in memory), and [`Engine::recover`] rebuilds it by replaying the
    /// entire surviving log.
    pub fn open_existing(config: EngineConfig) -> Result<Engine, EngineError> {
        let LogBacking::File(path) = config.log.clone() else {
            return Err(EngineError::Discipline(
                "open_existing requires a file-backed log".into(),
            ));
        };
        let mut engine = Engine::new(EngineConfig {
            log: LogBacking::Memory, // placeholder, replaced below
            ..config.clone()
        })?;
        let store = FileLogStore::open(&path).map_err(lob_wal::LogError::Io)?;
        engine.log = LogManager::from_existing(Box::new(store))?;
        engine.config = config;
        // Rebuild the retained-backup set from the surviving BackupBegin
        // records, so the media barrier keeps protecting every backup's
        // log suffix across the restart. (Superseded backups are released
        // explicitly with [`Engine::release_backup`], exactly as before
        // the restart.)
        for rec in engine.log.scan_from(engine.log.truncation())? {
            if let RecordBody::BackupBegin {
                backup_id,
                start_lsn,
            } = rec.body
            {
                engine.retained.push((backup_id, start_lsn));
                engine.next_backup_id = engine.next_backup_id.max(backup_id + 1);
            }
        }
        engine.refresh_media_barrier();
        Ok(engine)
    }

    /// The engine configuration.
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

    /// The log manager.
    pub fn log(&self) -> &LogManager {
        &self.log
    }

    /// The cache manager.
    pub fn cache(&self) -> &CacheManager {
        &self.cache
    }

    /// The live write graph.
    pub fn graph(&self) -> &WriteGraph {
        &self.graph
    }

    /// Engine statistics. `iwof_bytes` is derived from the log's
    /// identity-write accounting.
    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        s.iwof_bytes = self.log.stats().identity_bytes();
        s
    }

    /// Allocate a fresh (never-updated) page in `partition` — the `new`
    /// object of a write-new tree operation.
    pub fn alloc_page(&mut self, partition: PartitionId) -> Result<PageId, EngineError> {
        let idx = partition.0 as usize;
        let total = self
            .store
            .page_count(partition)
            .map_err(EngineError::Store)?;
        let next = self.next_free.get_mut(idx).ok_or(EngineError::Store(
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

    /// Mark low page indexes as pre-allocated (workloads that address pages
    /// directly call this so `alloc_page` hands out fresh ones).
    pub fn reserve_pages(&mut self, partition: PartitionId, upto: u32) {
        if let Some(n) = self.next_free.get_mut(partition.0 as usize) {
            *n = (*n).max(upto);
        }
    }

    /// Current value of a page (read through the cache).
    ///
    /// With at least one backup generation registered in the
    /// [`Engine::catalog`], a failed read *self-heals*: transient I/O
    /// errors are retried under the deterministic backoff schedule, and
    /// detected damage (checksum mismatch, single-page media failure, an
    /// already-quarantined slot) triggers an online [`Engine::repair_page`]
    /// before the read is retried. With an empty catalog the error
    /// propagates untouched (quarantined slots as the typed
    /// [`EngineError::Quarantined`]).
    pub fn read_page(&mut self, id: PageId) -> Result<Page, EngineError> {
        // Degraded mode: during an instant-restore epoch a read blocks
        // only on its *own* segment's (prioritized) restore, never on the
        // whole device — that is the bounded-degradation contract.
        if self.instant.is_some() {
            self.ensure_segment(id.partition)?;
        }
        match self.cache.get(id, &self.store) {
            Ok(p) => Ok(p),
            Err(CacheError::Store(e)) if self.self_healing() => self.read_page_healing(id, e),
            Err(e) => Err(lift_cache_err(e)),
        }
    }

    /// Whether online repair is engaged (at least one generation
    /// registered). While false, every read path behaves exactly as it did
    /// before the repair subsystem existed.
    fn self_healing(&self) -> bool {
        !self.catalog.is_empty()
    }

    /// Heal-and-retry loop behind [`Engine::read_page`]: classify the
    /// store error, fix what is fixable, re-read. Bounded by
    /// [`HEAL_ROUNDS`]; anything unfixable propagates typed.
    fn read_page_healing(&mut self, id: PageId, first: StoreError) -> Result<Page, EngineError> {
        let backoff = self.repair_backoff(id);
        let mut err = first;
        let mut transient_attempts = 0u32;
        for _ in 0..HEAL_ROUNDS {
            match err {
                StoreError::Transient(p) => {
                    transient_attempts += 1;
                    if transient_attempts >= backoff.max_attempts {
                        return Err(EngineError::Store(StoreError::Transient(p)));
                    }
                    // Virtual wait: the delay is accounted, never slept.
                    let _ticks = backoff.delay_ticks(transient_attempts - 1);
                    self.stats.transient_retries += 1;
                }
                StoreError::Corrupt(p)
                | StoreError::MediaFailure(p)
                | StoreError::Quarantined(p) => {
                    self.repair_page(p)?;
                }
                e => return Err(lift_store_err(e)),
            }
            match self.cache.get(id, &self.store) {
                Ok(p) => return Ok(p),
                Err(CacheError::Store(e)) => err = e,
                Err(e) => return Err(lift_cache_err(e)),
            }
        }
        Err(lift_store_err(err))
    }

    fn check_discipline(&mut self, body: &OpBody) -> Result<(), EngineError> {
        confined_domain(
            &self.coordinator,
            body,
            "per-partition tracking requires partition-confined operations",
        )?;
        check_discipline(self.config.discipline, body, |p| {
            Ok(self.cache.page_lsn(p, &self.store)?)
        })
    }

    /// Execute a logged operation: evaluate it against the cache, append
    /// its log record, install the results in the cache (dirty), and update
    /// the write graph and successor metadata. Returns the record's LSN.
    ///
    /// With a non-empty backup-generation catalog, a read-set page whose
    /// fetch fails with detectable damage is repaired online and the
    /// evaluation retried (evaluation precedes the log append, so a retry
    /// never double-logs). Transient read errors retry the same way. The
    /// engine never aborts an operation over a repairable page.
    pub fn execute(&mut self, body: OpBody) -> Result<Lsn, EngineError> {
        // Degraded mode: every segment the operation touches (read set
        // and write set) must be servable before evaluation — each gates
        // on its own restore only.
        if self.instant.is_some() {
            let parts: BTreeSet<PartitionId> = body
                .readset()
                .into_iter()
                .chain(body.writeset())
                .map(|p| p.partition)
                .collect();
            for p in parts {
                self.ensure_segment(p)?;
            }
        }
        if !self.self_healing() {
            return self.execute_once(body);
        }
        let mut rounds = 0u32;
        loop {
            match self.execute_once(body.clone()) {
                Err(EngineError::Op(OpError::ReadFailed { page, cause }))
                    if rounds < HEAL_ROUNDS =>
                {
                    rounds += 1;
                    self.heal_readset_page(page, cause)?;
                }
                // A store-level read failure that surfaced outside operation
                // evaluation (e.g. the tree discipline's pageLSN probe of a
                // write-new target) heals the same way.
                Err(EngineError::Cache(CacheError::Store(e)))
                    if rounds < HEAL_ROUNDS && is_healable_read_err(&e) =>
                {
                    rounds += 1;
                    self.heal_store_err(e)?;
                }
                r => return r,
            }
        }
    }

    /// Heal one classified store read error: transient errors count a
    /// retry, detected damage repairs from the backup chain.
    fn heal_store_err(&mut self, e: StoreError) -> Result<(), EngineError> {
        match e {
            StoreError::Transient(_) => {
                self.stats.transient_retries += 1;
                Ok(())
            }
            StoreError::Corrupt(p) | StoreError::MediaFailure(p) | StoreError::Quarantined(p) => {
                self.repair_page(p)?;
                Ok(())
            }
            e => Err(lift_store_err(e)),
        }
    }

    /// Classify a failed read-set page by probing `S` directly (typed
    /// errors, no string matching) and heal: transient errors count a
    /// retry, detected damage repairs from the backup chain, and anything
    /// else surfaces the original evaluation failure.
    fn heal_readset_page(&mut self, page: PageId, cause: String) -> Result<(), EngineError> {
        match self.store.read_page(page) {
            // Readable now (the failure was transient, or the evaluation
            // read raced a fault the probe did not draw): just retry.
            Ok(_) => Ok(()),
            Err(StoreError::Transient(_)) => {
                self.stats.transient_retries += 1;
                Ok(())
            }
            Err(StoreError::Corrupt(p))
            | Err(StoreError::MediaFailure(p))
            | Err(StoreError::Quarantined(p)) => {
                self.repair_page(p)?;
                Ok(())
            }
            Err(StoreError::InjectedCrash) => Err(EngineError::Store(StoreError::InjectedCrash)),
            Err(_) => Err(EngineError::Op(OpError::ReadFailed { page, cause })),
        }
    }

    fn execute_once(&mut self, body: OpBody) -> Result<Lsn, EngineError> {
        body.validate()?;
        self.check_discipline(&body)?;
        // Evaluate first (no state change on failure).
        let outputs = {
            let mut reader = CacheReader::new(&mut self.cache, &self.store);
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
        let lsn = self.log.append(RecordBody::Op(body.clone()));
        for (pid, bytes) in outputs {
            self.cache.put_dirty(pid, Page::new(lsn, bytes));
        }
        self.graph.add_op(lsn, &body);
        let coord = &self.coordinator;
        self.succ.note_op(&body, |p| coord.pos(p));
        self.stats.ops_executed += 1;
        Ok(lsn)
    }

    /// The LSN a WAL-required force actually targets, per the configured
    /// [`FlushPolicy`]: exactly `required`, or the whole appended tail
    /// (`Lsn::MAX`) so pending records ride along in one group commit.
    /// Forcing beyond `required` is always WAL-correct — it only makes
    /// records durable early.
    fn force_target(&self, required: Lsn) -> Lsn {
        match self.config.commit.flush_policy {
            FlushPolicy::Exact => required,
            FlushPolicy::Group => Lsn::MAX,
        }
    }

    /// Install one write-graph node (it must have no predecessors): decide
    /// Iw/oF per object under the backup latch, log identity writes where
    /// required, flush the node's `vars` to `S` (WAL-protocol-checked), and
    /// remove the node. This is the cache-management algorithm of §3.5.
    fn install_one_node(&mut self, node: NodeId) -> Result<(), EngineError> {
        let vars: Vec<PageId> = self.graph.vars(node)?.to_vec();
        // WAL rule for steals: if a blind write emptied (part of) this
        // node's vars, the thief's record must be durable before the node
        // installs — otherwise a crash leaves the stolen object's value
        // with no source (not in S, not regenerable: the replay inputs may
        // already be overwritten in S by the time recovery runs).
        let wal_floor = self.graph.wal_floor(node)?;
        if vars.is_empty() {
            self.log.force(self.force_target(wal_floor))?;
            self.graph.install_node(node)?;
            self.stats.nodes_installed_free += 1;
            return Ok(());
        }

        // Take the backup latch (share mode) for the affected domains; the
        // classification stays valid until we drop it, after the flush.
        let latch = self.coordinator.latch_for(&vars);

        // Decide which objects need Iw/oF.
        let mut iwof: Vec<PageId> = Vec::new();
        if self.config.policy == BackupPolicy::Protocol {
            for &v in &vars {
                let needs = match self.config.discipline {
                    Discipline::PageOriented => false,
                    Discipline::General => latch.decide_general(v),
                    Discipline::Tree => latch.decide_tree(v, self.succ.get(v)),
                };
                if needs {
                    iwof.push(v);
                }
            }
        }

        // Log identity writes. Each steals its object from `node` into a
        // fresh single-object node (installed below, by the same flush).
        let mut identity_nodes: Vec<(PageId, NodeId)> = Vec::new();
        for &v in &iwof {
            let value: Bytes = self
                .cache
                .peek(v)
                .ok_or_else(|| EngineError::Internal(format!("iwof target {v} not resident")))?
                .data()
                .clone();
            let body = OpBody::IdentityWrite { target: v, value };
            let ilsn = self.log.append(RecordBody::Op(body.clone()));
            self.stats.iwof_records += 1;
            let n = self.graph.add_op(ilsn, &body);
            // The page now carries the identity write's LSN; its redo can
            // start at the identity record (rLSN advance, §3.2).
            let page = self
                .cache
                .peek(v)
                .ok_or_else(|| {
                    EngineError::Internal(format!("page {v} not resident at identity write"))
                })?
                .with_lsn(ilsn);
            self.cache.put_dirty(v, page);
            self.cache.advance_rlsn(v, ilsn);
            identity_nodes.push((v, n));
        }

        // WAL protocol: force the log up to the newest pageLSN we are about
        // to write, then flush all vars (the paper flushes X to S even when
        // it was Iw/oF-logged, §3.5).
        let max_lsn = vars
            .iter()
            .filter_map(|&v| self.cache.peek(v).map(|p| p.lsn()))
            .max()
            .unwrap_or(Lsn::NULL);
        self.log.force(self.force_target(max_lsn.max(wal_floor)))?;
        self.cache
            .write_out(&vars, &self.store, self.log.durable_lsn())?;
        self.stats.pages_flushed += vars.len() as u64;

        // Mirror into any in-progress linked-flush backups, and feed the
        // incremental changed-set.
        for &v in &vars {
            self.coordinator.note_flushed(v);
        }
        if !self.linked_images.is_empty() {
            for (_, img) in &self.linked_images {
                let mut g = img.lock();
                for &v in &vars {
                    if let Some(p) = self.cache.peek(v) {
                        // lint:allow(durability-order) linked image mirrors the page just flushed, read from the cache, not the store
                        g.put(v, p.clone());
                    }
                }
            }
        }

        // The flush installed the node's remaining ops and every identity
        // write.
        self.graph.install_node(node)?;
        self.stats.nodes_flushed += 1;
        for (v, n) in identity_nodes {
            // The identity node may still exist (it does unless it was the
            // same node — impossible: identity writes never merge).
            self.graph.install_node(n)?;
            let _ = v;
        }
        for &v in &vars {
            self.succ.clear(v);
        }
        drop(latch);
        Ok(())
    }

    /// Flush the node holding `page` (and, first, all its write-graph
    /// ancestors). No-op if the page is clean.
    pub fn flush_page(&mut self, page: PageId) -> Result<(), EngineError> {
        let Some(node) = self.graph.node_of(page) else {
            if self.cache.is_dirty(page) {
                return Err(EngineError::Internal(format!(
                    "dirty page {page} not owned by any write-graph node"
                )));
            }
            return Ok(());
        };
        let plan = self.graph.flush_plan(node)?;
        for n in plan {
            self.install_one_node(n)?;
        }
        Ok(())
    }

    /// Flush every dirty page (in write-graph order) until the graph is
    /// empty, then advance the log truncation point.
    pub fn flush_all(&mut self) -> Result<(), EngineError> {
        loop {
            let frontier = self.graph.frontier();
            if frontier.is_empty() {
                break;
            }
            for node in frontier {
                self.install_one_node(node)?;
            }
        }
        if self.cache.dirty_count() != 0 {
            return Err(EngineError::Internal(
                "dirty pages remain after the write graph drained".into(),
            ));
        }
        self.truncate_log()?;
        Ok(())
    }

    /// Durably force every appended log record (a commit point: operations
    /// logged so far survive a crash).
    pub fn force_log(&mut self) -> Result<(), EngineError> {
        self.log.force_all()?;
        Ok(())
    }

    /// Flush up to `budget` dirty pages, oldest rLSN first (the classic
    /// background-checkpointing policy: it advances the log truncation
    /// point fastest), then truncate the log. Returns the number of pages
    /// that were dirty before the call and are clean after it.
    pub fn flush_oldest(&mut self, budget: usize) -> Result<usize, EngineError> {
        let victims = self.cache.dirty_pages_by_rlsn();
        let mut cleaned = 0;
        for (page, _) in victims.into_iter().take(budget) {
            if self.cache.is_dirty(page) {
                self.flush_page(page)?;
                cleaned += 1;
            }
        }
        self.truncate_log()?;
        Ok(cleaned)
    }

    /// The redo scan start point: the earliest LSN crash recovery could
    /// need. This is also the media-recovery start point a backup records
    /// when it begins (§1.2).
    pub fn redo_scan_start(&self) -> Lsn {
        let graph_min = self.graph.min_uninstalled_lsn();
        let cache_min = self.cache.min_dirty_rlsn();
        match (graph_min, cache_min) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => self.log.next_lsn(),
        }
    }

    /// Advance the log truncation point as far as crash recovery and
    /// retained backups permit.
    pub fn truncate_log(&mut self) -> Result<Lsn, EngineError> {
        let bound = self.redo_scan_start();
        Ok(self.log.truncate(bound)?)
    }

    // ------------------------------------------------------------------
    // Crash recovery
    // ------------------------------------------------------------------

    /// Install (or clear) a fault hook on every I/O site the engine owns
    /// or shares: the stable store (page writes), the log manager (forces
    /// and frame appends), the cache (flush decisions), and the backup
    /// coordinator (sweep copies). One hook observes the system-wide
    /// deterministic I/O event stream.
    pub fn install_fault_hook(&mut self, hook: Option<lob_pagestore::FaultHook>) {
        self.store.set_fault_hook(hook.clone());
        self.log.set_fault_hook(hook.clone());
        self.cache.set_fault_hook(hook.clone());
        self.coordinator.set_fault_hook(hook.clone());
        self.catalog.set_fault_hook(hook.clone());
        if let Some(r) = self.instant.as_mut() {
            r.set_fault_hook(hook.clone());
        }
        self.hook = hook;
    }

    /// Crash: all volatile state (cache, write graph, successor table, the
    /// unforced log tail, in-flight backup trackers and the changed-page
    /// set) is lost. Call [`Engine::recover`] next.
    pub fn crash(&mut self) {
        self.log.crash();
        self.cache.clear();
        self.graph = WriteGraph::new(self.config.graph_mode);
        self.succ.clear_all();
        self.taken_changed.clear();
        self.linked_images.clear();
        // The backup coordinator's trackers and changed set live in the
        // same process: any in-flight sweep dies with it.
        self.coordinator.reset_volatile();
        // The instant-restore scheduler is volatile too; its on-disk
        // progress is exactly the cleared failure flags, so a reboot
        // re-enters through [`Engine::recover_instant`].
        self.instant = None;
    }

    /// Crash recovery: roll the surviving log suffix forward over `S`
    /// with the workers/batch knobs from [`EngineConfig::recovery`].
    pub fn recover(&mut self) -> Result<RedoOutcome, EngineError> {
        self.parallel_recover_with(self.config.recovery)
    }

    /// [`Engine::recover`] with explicit knobs. The recovered state and
    /// the returned [`RedoOutcome`] are the same in every configuration
    /// (the harness byte-checks each recovery against the record-at-a-time
    /// reference scan).
    pub fn parallel_recover_with(
        &mut self,
        recovery: RecoveryConfig,
    ) -> Result<RedoOutcome, EngineError> {
        self.run_recovery(None, None, Lsn::MAX, recovery)
    }

    /// The one recovery body (DESIGN.md §5.10). Media recovery — an
    /// `image` supplies the seed — forces the log, drops every piece of
    /// volatile state and replaces the failed media first; crash redo
    /// starts from what [`Engine::crash`] left. Then: install the seed
    /// pages, roll the filtered suffix forward, reseed the allocator.
    fn run_recovery(
        &mut self,
        image: Option<&BackupImage>,
        partition: Option<PartitionId>,
        upto: Lsn,
        recovery: RecoveryConfig,
    ) -> Result<RedoOutcome, EngineError> {
        if let Some(image) = image {
            image.check_restorable()?;
            self.log.force_all()?;
            self.cache.clear();
            self.graph = WriteGraph::new(self.config.graph_mode);
            self.succ.clear_all();
            for p in (0..self.config.partitions.len() as u32).map(PartitionId) {
                if partition.map_or(true, |only| only == p) {
                    self.store.clear_failures(p)?;
                }
            }
        }
        let outcome = self.restore_and_redo(&self.store, image, partition, upto, recovery)?;
        self.reseed_allocator()?;
        if image.is_some() {
            self.stats.media_recoveries += 1;
        } else {
            self.stats.recoveries += 1;
            self.truncate_log()?;
        }
        Ok(outcome)
    }

    /// Install `image`'s pages into `store` (all of them, or one
    /// `partition`'s; with no image this is crash redo and `S` is its own
    /// seed), then roll the log forward from the seed's start LSN through
    /// the batched replay, keeping only records at or below `upto` and,
    /// for a partition restore, operations touching that partition.
    fn restore_and_redo(
        &self,
        store: &StableStore,
        image: Option<&BackupImage>,
        partition: Option<PartitionId>,
        upto: Lsn,
        recovery: RecoveryConfig,
    ) -> Result<RedoOutcome, EngineError> {
        let from = match image {
            None => self.log.truncation(),
            Some(image) => {
                match partition {
                    None => parallel_install_image(&image.pages, store, recovery)?,
                    Some(only) => {
                        parallel_install_image(&image.pages.partition(only), store, recovery)?
                    }
                };
                image.start_lsn
            }
        };
        let mut records = self.log.scan_from(from)?;
        records.retain(|r| {
            r.lsn <= upto
                && partition.map_or(true, |only| match &r.body {
                    // The LSN test would make replaying the rest harmless;
                    // restricting the scan shows the §6.3 point: the
                    // partition is the recovery unit.
                    RecordBody::Op(op) => op
                        .writeset()
                        .iter()
                        .chain(op.readset().iter())
                        .any(|p| p.partition == only),
                    _ => false,
                })
        });
        Ok(parallel_redo_scan(&records, store, recovery)?)
    }

    fn reseed_allocator(&mut self) -> Result<(), EngineError> {
        for (p, slot) in self.next_free.iter_mut().enumerate() {
            let hw = self.store.high_water(PartitionId(p as u32))?;
            let floor = hw.map_or(0, |h| h + 1);
            *slot = (*slot).max(floor);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Backups
    // ------------------------------------------------------------------

    /// Take the changed-page set for `domain`, restoring out-of-domain
    /// pages immediately (they belong to other domains' next backups).
    fn take_domain_changed(&mut self, domain: DomainId) -> HashSet<PageId> {
        let changed = self.coordinator.take_changed();
        let (in_dom, out_dom): (HashSet<PageId>, HashSet<PageId>) = changed
            .into_iter()
            .partition(|p| self.coordinator.domain_of(p.partition) == Some(domain));
        self.coordinator.restore_changed(out_dom);
        in_dom
    }

    fn begin_backup_inner(
        &mut self,
        domain: DomainId,
        steps: u32,
        incremental: bool,
        base: Option<u64>,
    ) -> Result<BackupRun, EngineError> {
        // Both full and incremental backups consume the domain's changed
        // set: a full backup supersedes it (every page is captured at or
        // after this point, and flushes during the window are re-noted); an
        // incremental backup copies exactly it.
        let changed = self.take_domain_changed(domain);
        let backup_id = self.next_backup_id;
        let start_lsn = self.redo_scan_start();
        let cfg = RunConfig {
            domain,
            steps,
            filter: incremental.then(|| changed.clone()),
            base,
        };
        let run = match BackupRun::begin(&self.coordinator, cfg, backup_id, start_lsn) {
            Ok(r) => r,
            Err(e) => {
                self.coordinator.restore_changed(changed);
                return Err(EngineError::Backup(e));
            }
        };
        self.taken_changed.push((backup_id, changed));
        self.next_backup_id += 1;
        self.log.append(RecordBody::BackupBegin {
            backup_id,
            start_lsn,
        });
        self.log.force_all()?;
        self.retained.push((backup_id, start_lsn));
        self.refresh_media_barrier();
        self.stats.backups_begun += 1;
        Ok(run)
    }

    fn refresh_media_barrier(&mut self) {
        let barrier = self.retained.iter().map(|&(_, l)| l).min();
        self.log.set_media_barrier(barrier);
    }

    /// Begin an on-line backup of domain 0 in `steps` steps (the common
    /// single-domain case).
    pub fn begin_backup(&mut self, steps: u32) -> Result<BackupRun, EngineError> {
        self.begin_backup_inner(DomainId(0), steps, false, None)
    }

    /// Begin an on-line backup of a specific domain.
    pub fn begin_backup_of(
        &mut self,
        domain: DomainId,
        steps: u32,
    ) -> Result<BackupRun, EngineError> {
        self.begin_backup_inner(domain, steps, false, None)
    }

    /// Begin an incremental backup: copy only pages flushed to `S` since
    /// the last completed backup, on top of `base`.
    pub fn begin_incremental_backup(
        &mut self,
        domain: DomainId,
        steps: u32,
        base: &BackupImage,
    ) -> Result<BackupRun, EngineError> {
        self.begin_backup_inner(domain, steps, true, Some(base.backup_id))
    }

    /// Advance an on-line backup by one step (copy + cursor advance).
    /// Between calls, the engine is free to execute and flush — that is the
    /// "on-line" in on-line backup. One page per store round-trip:
    /// [`Engine::backup_step_batch`] with a batch of 1.
    pub fn backup_step(&mut self, run: &mut BackupRun) -> Result<bool, EngineError> {
        self.backup_step_batch(run, 1)
    }

    /// Advance an on-line backup by one step, copying up to `batch`
    /// contiguous pages per store round-trip
    /// ([`lob_backup::BackupRun::step_batch`]).
    pub fn backup_step_batch(
        &mut self,
        run: &mut BackupRun,
        batch: u32,
    ) -> Result<bool, EngineError> {
        if !self.self_healing() {
            self.stats.sweep_batches += 1;
            return Ok(run.step_batch(&self.coordinator, &self.store, batch)?);
        }
        // A sweep copy read can hit detectable damage just like any other
        // read. A failed step leaves the cursor and tracker untouched, so
        // repair-and-retry is safe: already-copied pages are re-put with
        // identical bytes.
        let mut rounds = 0u32;
        let mut transient_attempts = 0u32;
        loop {
            self.stats.sweep_batches += 1;
            match run.step_batch(&self.coordinator, &self.store, batch) {
                Err(BackupError::Store(StoreError::Transient(p))) => {
                    let backoff = self.repair_backoff(p);
                    transient_attempts += 1;
                    if transient_attempts >= backoff.max_attempts {
                        return Err(EngineError::Store(StoreError::Transient(p)));
                    }
                    let _ticks = backoff.delay_ticks(transient_attempts - 1);
                    self.stats.transient_retries += 1;
                }
                // During an instant-restore epoch a sweep copy that lands
                // on a failed segment waits for that segment's restore
                // (prioritized), not a single-page repair — the whole
                // partition is coming back anyway. This is what keeps
                // `backup_step` working mid-epoch.
                Err(BackupError::Store(StoreError::MediaFailure(p)))
                    if self.instant.is_some() && rounds < HEAL_ROUNDS =>
                {
                    rounds += 1;
                    self.ensure_segment(p.partition)?;
                }
                Err(BackupError::Store(
                    StoreError::Corrupt(p)
                    | StoreError::MediaFailure(p)
                    | StoreError::Quarantined(p),
                )) if rounds < HEAL_ROUNDS => {
                    rounds += 1;
                    self.repair_page(p)?;
                }
                r => return Ok(r?),
            }
        }
    }

    /// Back up every domain concurrently — the paper's partition-parallel
    /// scheme (§3.4): one sweep worker thread per coordinator domain, each
    /// copying up to `batch` contiguous pages per store round-trip, `steps`
    /// progress steps per domain.
    ///
    /// The engine thread blocks for the duration (the sweep reads `S`
    /// directly, so nothing here executes operations meanwhile — drive
    /// [`Engine::backup_step_batch`] per run instead when the workload must
    /// interleave on this thread; with real concurrent writers the workers
    /// race them exactly as §3.4 intends). On success every domain's image
    /// is returned, `BackupEnd`-logged, in domain order. A domain that
    /// fails its sweep is healed and finished on this thread when
    /// self-healing is engaged and the error is repairable; otherwise
    /// every other domain is aborted and the first error surfaces.
    pub fn parallel_backup(
        &mut self,
        steps: u32,
        batch: u32,
    ) -> Result<Vec<BackupImage>, EngineError> {
        let mut runs = Vec::with_capacity(self.coordinator.domain_count() as usize);
        for d in 0..self.coordinator.domain_count() {
            match self.begin_backup_inner(DomainId(d), steps, false, None) {
                Ok(r) => runs.push(r),
                Err(e) => {
                    for r in runs {
                        self.abort_backup(r);
                    }
                    return Err(e);
                }
            }
        }
        let reports = ParallelSweep::sweep(&self.coordinator, &self.store, runs, batch);
        let mut finished: Vec<BackupRun> = Vec::with_capacity(reports.len());
        let mut failure: Option<EngineError> = None;
        for rep in reports {
            self.stats.sweep_batches += rep.batches;
            self.stats.sweep_workers += 1;
            match (rep.outcome, rep.run) {
                (Ok(()), Some(run)) => finished.push(run),
                (Err(e), Some(mut run)) => {
                    // The worker parked its run (cursor and tracker held).
                    // If the damage is repairable, heal and finish the
                    // domain on this thread through the step heal loop.
                    if self.self_healing() && Engine::is_healable_backup_error(&e) {
                        match self.finish_run_healing(&mut run, batch) {
                            Ok(()) => {
                                finished.push(run);
                                continue;
                            }
                            Err(e2) => {
                                self.abort_backup(run);
                                if failure.is_none() {
                                    failure = Some(e2);
                                }
                                continue;
                            }
                        }
                    }
                    self.abort_backup(run);
                    if failure.is_none() {
                        failure = Some(EngineError::Backup(e));
                    }
                }
                (outcome, None) => {
                    // The worker panicked and took its run with it: reset
                    // the domain by hand (tracker, changed set, retention).
                    if let Ok(t) = self.coordinator.tracker(rep.domain) {
                        if t.is_active() {
                            t.finish();
                        }
                    }
                    if let Some(i) = self
                        .taken_changed
                        .iter()
                        .position(|(id, _)| *id == rep.backup_id)
                    {
                        let (_, changed) = self.taken_changed.swap_remove(i);
                        self.coordinator.restore_changed(changed);
                    }
                    self.release_backup(rep.backup_id);
                    if failure.is_none() {
                        failure = Some(EngineError::Backup(match outcome {
                            Err(e) => e,
                            Ok(()) => BackupError::BadState("sweep worker lost its run".into()),
                        }));
                    }
                }
            }
        }
        if let Some(e) = failure {
            for run in finished {
                self.abort_backup(run);
            }
            return Err(e);
        }
        finished.sort_by_key(|r| r.domain().0);
        let mut images = Vec::with_capacity(finished.len());
        for run in finished {
            images.push(self.complete_backup(run)?);
        }
        Ok(images)
    }

    /// Whether a parked sweep error is one the step heal loop can repair.
    fn is_healable_backup_error(e: &BackupError) -> bool {
        matches!(
            e,
            BackupError::Store(
                StoreError::Transient(_)
                    | StoreError::Corrupt(_)
                    | StoreError::MediaFailure(_)
                    | StoreError::Quarantined(_),
            )
        )
    }

    /// Drive a parked run to completion through the healing step loop.
    fn finish_run_healing(&mut self, run: &mut BackupRun, batch: u32) -> Result<(), EngineError> {
        while !self.backup_step_batch(run, batch)? {}
        Ok(())
    }

    /// Complete a finished backup run: logs `BackupEnd` and returns the
    /// image. The image's log suffix stays retained until
    /// [`Engine::release_backup`].
    pub fn complete_backup(&mut self, run: BackupRun) -> Result<BackupImage, EngineError> {
        let backup_id = run.backup_id();
        let mut image = run.into_image()?;
        self.log.append(RecordBody::BackupEnd { backup_id });
        self.log.force_all()?;
        image.end_lsn = self.log.durable_lsn();
        self.taken_changed.retain(|(id, _)| *id != backup_id);
        self.stats.backups_completed += 1;
        Ok(image)
    }

    /// Abort an in-flight backup run: the tracker deactivates, the log
    /// suffix is released, and (for incremental runs) the changed-page set
    /// is merged back.
    pub fn abort_backup(&mut self, run: BackupRun) {
        let backup_id = run.backup_id();
        run.abort(&self.coordinator);
        if let Some(i) = self
            .taken_changed
            .iter()
            .position(|(id, _)| *id == backup_id)
        {
            let (_, changed) = self.taken_changed.swap_remove(i);
            self.coordinator.restore_changed(changed);
        }
        self.release_backup(backup_id);
    }

    /// Stop retaining log records for a backup (it was superseded or
    /// discarded). Allows the log to truncate past its start LSN.
    pub fn release_backup(&mut self, backup_id: u64) {
        self.retained.retain(|&(id, _)| id != backup_id);
        self.refresh_media_barrier();
    }

    /// An off-line backup: quiesce (flush everything), then snapshot. The
    /// availability cost is the point of comparison; correctness is
    /// trivial.
    pub fn offline_backup(&mut self) -> Result<BackupImage, EngineError> {
        self.flush_all()?;
        let pages = self.store.snapshot()?;
        let backup_id = self.next_backup_id;
        self.next_backup_id += 1;
        let start_lsn = self.log.next_lsn();
        self.retained.push((backup_id, start_lsn));
        self.refresh_media_barrier();
        self.stats.backups_begun += 1;
        self.stats.backups_completed += 1;
        Ok(BackupImage {
            backup_id,
            start_lsn,
            end_lsn: start_lsn,
            pages,
            complete: true,
            incremental: false,
            base: None,
        })
    }

    // ------------------------------------------------------------------
    // Linked-flush backup (the "completely unrealistic" baseline of §1.3)
    // ------------------------------------------------------------------

    /// Begin a linked-flush backup: pages are copied from `S` through the
    /// engine (serialized with operation execution), and every flush during
    /// the window is synchronously mirrored into the image.
    pub fn begin_linked_backup(&mut self) -> Result<LinkedBackupRun, EngineError> {
        let backup_id = self.next_backup_id;
        self.next_backup_id += 1;
        let start_lsn = self.redo_scan_start();
        self.log.append(RecordBody::BackupBegin {
            backup_id,
            start_lsn,
        });
        self.log.force_all()?;
        self.retained.push((backup_id, start_lsn));
        self.refresh_media_barrier();
        self.stats.backups_begun += 1;
        let image = Arc::new(Mutex::new(PageImage::new()));
        self.linked_images.push((backup_id, Arc::clone(&image)));
        let mut todo = Vec::new();
        for p in 0..self.config.partitions.len() as u32 {
            let n = self.store.page_count(PartitionId(p))?;
            for i in 0..n {
                todo.push(PageId::new(p, i));
            }
        }
        Ok(LinkedBackupRun {
            backup_id,
            start_lsn,
            todo,
            cursor: 0,
            image,
        })
    }

    /// Copy up to `pages` pages for a linked backup. Returns `true` when
    /// the sweep has covered every page.
    pub fn linked_step(
        &mut self,
        run: &mut LinkedBackupRun,
        pages: usize,
    ) -> Result<bool, EngineError> {
        let end = (run.cursor + pages).min(run.todo.len());
        let mut img = run.image.lock();
        for i in run.cursor..end {
            let id = run.todo[i];
            // Copy the *stable* version: the image mirrors S exactly
            // (flushes during the window also land in the image).
            if !img.contains(id) {
                let page = self.store.read_page(id)?;
                img.put(id, page);
            }
        }
        drop(img);
        run.cursor = end;
        Ok(run.cursor == run.todo.len())
    }

    /// Complete a linked backup.
    pub fn complete_linked_backup(
        &mut self,
        run: LinkedBackupRun,
    ) -> Result<BackupImage, EngineError> {
        if run.cursor != run.todo.len() {
            return Err(EngineError::Backup(lob_backup::BackupError::BadState(
                "linked backup incomplete".into(),
            )));
        }
        self.linked_images.retain(|(id, _)| *id != run.backup_id);
        self.log.append(RecordBody::BackupEnd {
            backup_id: run.backup_id,
        });
        self.log.force_all()?;
        self.stats.backups_completed += 1;
        let pages = Arc::try_unwrap(run.image)
            .map(|m| m.into_inner())
            .unwrap_or_else(|arc| arc.lock().clone());
        Ok(BackupImage {
            backup_id: run.backup_id,
            start_lsn: run.start_lsn,
            end_lsn: self.log.durable_lsn(),
            pages,
            complete: true,
            incremental: false,
            base: None,
        })
    }

    // ------------------------------------------------------------------
    // Media recovery
    // ------------------------------------------------------------------

    /// Full media recovery: discard volatile state, replace the failed
    /// media, restore every page from the backup image, and roll forward
    /// from the image's start LSN to the current end of the log, with the
    /// workers/batch knobs from [`EngineConfig::recovery`].
    pub fn media_recover(&mut self, image: &BackupImage) -> Result<RedoOutcome, EngineError> {
        self.parallel_restore_with(image, self.config.recovery)
    }

    /// [`Engine::media_recover`] with explicit knobs. The recovered state
    /// is the same in every configuration.
    pub fn parallel_restore_with(
        &mut self,
        image: &BackupImage,
        recovery: RecoveryConfig,
    ) -> Result<RedoOutcome, EngineError> {
        self.run_recovery(Some(image), None, Lsn::MAX, recovery)
    }

    /// Catalog-sourced restore: fetch the newest registered backup
    /// generation (whole-image batched fetch, checksum-verified) and
    /// [`Engine::media_recover`] from it. This is the operational "the
    /// medium died, recover from whatever backups we hold" entry point.
    pub fn parallel_restore_latest(&mut self) -> Result<RedoOutcome, EngineError> {
        self.parallel_restore_latest_with(self.config.recovery)
    }

    /// [`Engine::parallel_restore_latest`] with explicit recovery knobs.
    pub fn parallel_restore_latest_with(
        &mut self,
        recovery: RecoveryConfig,
    ) -> Result<RedoOutcome, EngineError> {
        let newest = self.catalog.generations().first().copied().ok_or_else(|| {
            EngineError::Backup(BackupError::BadState(
                "no backup generation registered to restore from".into(),
            ))
        })?;
        let image = self
            .catalog
            .fetch_image(newest)
            .map_err(EngineError::Backup)?;
        self.parallel_restore_with(&image, recovery)
    }

    /// Point-in-time media recovery (paper §1: roll forward "to some
    /// designated earlier time", and §6.3's application-error discussion):
    /// restore from the image, then replay only records with `lsn <= upto`.
    ///
    /// Because the fuzzy sweep may capture page states from anywhere inside
    /// the backup window and redo can never roll *backwards*, the target
    /// must be at or after the image's completion frontier
    /// ([`BackupImage::end_lsn`]).
    pub fn media_recover_to(
        &mut self,
        image: &BackupImage,
        upto: Lsn,
    ) -> Result<RedoOutcome, EngineError> {
        if upto < image.end_lsn {
            return Err(EngineError::Discipline(format!(
                "point-in-time target {upto} precedes the backup's completion frontier {}; a fuzzy backup cannot be rolled back",
                image.end_lsn
            )));
        }
        self.run_recovery(Some(image), None, upto, self.config.recovery)
    }

    /// Install the operations pending on `page` **without flushing it**
    /// (paper §5.3: "Extra logging can also substitute for flushing. Should
    /// X be dirty in the cache, but hot, ... logging it to install its
    /// update operations in S treats S the way we have been treating B.").
    ///
    /// Every object in the node's flush set is identity-logged (advancing
    /// its rLSN so the log can truncate past the installed operations); the
    /// page stays dirty and hot in the cache. Ancestor nodes are installed
    /// first, normally (they must reach `S` in write-graph order anyway).
    pub fn install_without_flush(&mut self, page: PageId) -> Result<(), EngineError> {
        let Some(node) = self.graph.node_of(page) else {
            return Ok(()); // nothing pending
        };
        let plan = self.graph.flush_plan(node)?;
        let (ancestors, target) = plan.split_at(plan.len() - 1);
        for &n in ancestors {
            self.install_one_node(n)?;
        }
        let node = target[0];
        let vars: Vec<PageId> = self.graph.vars(node)?.to_vec();
        for &v in &vars {
            let value: Bytes = self
                .cache
                .peek(v)
                .ok_or_else(|| EngineError::Internal(format!("hot page {v} not resident")))?
                .data()
                .clone();
            let body = OpBody::IdentityWrite { target: v, value };
            let ilsn = self.log.append(RecordBody::Op(body.clone()));
            self.stats.iwof_records += 1;
            // The identity write steals `v` into its own single-object
            // node, which stays in the graph until `v` is eventually
            // flushed; meanwhile the logged value covers recovery and the
            // rLSN advances.
            self.graph.add_op(ilsn, &body);
            let fresh = self
                .cache
                .peek(v)
                .ok_or_else(|| {
                    EngineError::Internal(format!("page {v} not resident at identity write"))
                })?
                .with_lsn(ilsn);
            self.cache.put_dirty(v, fresh);
            self.cache.advance_rlsn(v, ilsn);
        }
        // All objects stolen: the node installs without any page write.
        self.graph.install_node(node)?;
        self.stats.nodes_installed_free += 1;
        self.log.force_all()?;
        Ok(())
    }

    /// Audit a backup: restore it into a scratch store, roll it forward
    /// over the live log, and compare every page against the engine's
    /// current logical state (cache over store). Returns the mismatching
    /// pages (empty = the backup is good).
    ///
    /// This is the operational "can I actually recover from this?" check a
    /// production system runs before trusting an image.
    pub fn audit_backup(&mut self, image: &BackupImage) -> Result<Vec<PageId>, EngineError> {
        image.check_restorable()?;
        let scratch = StableStore::new(
            StoreConfig {
                page_size: self.config.page_size,
            },
            &self.config.partitions,
        );
        self.restore_and_redo(&scratch, Some(image), None, Lsn::MAX, self.config.recovery)?;
        let mut mismatches = Vec::new();
        for p in 0..self.config.partitions.len() as u32 {
            let n = self.store.page_count(PartitionId(p))?;
            for i in 0..n {
                let id = PageId::new(p, i);
                let live = self.cache.get(id, &self.store)?;
                let recovered = scratch.read_page(id)?;
                if live.data() != recovered.data() {
                    mismatches.push(id);
                }
            }
        }
        Ok(mismatches)
    }

    /// Partition-grained media recovery (§6.3): restore only the failed
    /// partition's pages, then roll forward the operations touching it.
    /// Sound only when operations are partition-confined, i.e. under
    /// per-partition tracking.
    pub fn media_recover_partition(
        &mut self,
        image: &BackupImage,
        partition: PartitionId,
    ) -> Result<RedoOutcome, EngineError> {
        if !matches!(self.config.tracking, Tracking::PerPartition) {
            return Err(EngineError::Discipline(
                "partition media recovery requires per-partition tracking \
                 (operations confined to one partition)"
                    .into(),
            ));
        }
        self.run_recovery(Some(image), Some(partition), Lsn::MAX, self.config.recovery)
    }

    // ------------------------------------------------------------------
    // Self-healing media recovery (online repair from the backup chain)
    // ------------------------------------------------------------------

    /// The backup-generation catalog (shared with repair drills). Empty
    /// catalog = self-healing disengaged.
    pub fn catalog(&self) -> &Arc<BackupCatalog> {
        &self.catalog
    }

    /// Register a completed backup image as the newest repair generation.
    /// From this point on, reads self-heal (see [`Engine::read_page`]).
    pub fn register_backup_generation(&mut self, image: BackupImage) -> Result<(), EngineError> {
        Ok(self.catalog.register(image)?)
    }

    /// Retire a generation from the repair catalog, returning its image.
    pub fn retire_backup_generation(&mut self, backup_id: u64) -> Result<BackupImage, EngineError> {
        Ok(self.catalog.retire(backup_id)?)
    }

    /// Pages currently held out of service awaiting repair.
    pub fn quarantined_pages(&self) -> Vec<PageId> {
        self.store.quarantined_pages()
    }

    /// The deterministic backoff schedule for reads involving `id`: seeded
    /// from the page identity, so drills replay identically and distinct
    /// pages jitter differently. Never consults a clock.
    fn repair_backoff(&self, id: PageId) -> BackoffSchedule {
        let seed = 0x10B_5EED ^ (u64::from(id.partition.0) << 32) ^ u64::from(id.index);
        BackoffSchedule::new(seed, REPAIR_FETCH_ATTEMPTS)
    }

    /// Repair one damaged page online, while every other page keeps
    /// serving.
    ///
    /// The page is quarantined first (no reader may see the bad bytes
    /// while repair runs; the scrub evidence, if any, is captured before
    /// that). Then:
    ///
    /// * If the cache holds a **dirty** copy, that copy is newer than
    ///   anything any backup holds — the normal write-graph-ordered flush
    ///   installs it, and the full overwrite heals the slot.
    /// * Otherwise the page's current value is regenerated from the backup
    ///   chain: for each generation, newest first, compute the
    ///   **dependency closure** of the page over the generation's log
    ///   suffix, fetch backup-vintage copies of the whole closure
    ///   (checksum-verified; transient errors retried under the
    ///   deterministic backoff), replay the closure-filtered suffix into a
    ///   **scratch** target, and install only the regenerated target page.
    ///   Replaying into a scratch — never `S` itself — keeps repair atomic
    ///   with respect to a concurrently running backup sweep: no
    ///   rolled-back intermediate state ever exists in `S`. A corrupt,
    ///   missing, or log-truncated generation fails over to the next older
    ///   one.
    ///
    /// The log is forced first, so every record the closure replay uses —
    /// and therefore every value repair installs into `S` — is durable
    /// (WAL holds). Since a clean page's logged writers are all installed,
    /// the replay regenerates exactly the value `S` held before the
    /// damage: repair never moves `S` ahead of the write-graph order.
    ///
    /// If every generation is exhausted the page *stays quarantined* and
    /// the typed [`EngineError::Unrepairable`] is returned; other pages
    /// and partitions keep serving.
    pub fn repair_page(&mut self, id: PageId) -> Result<RepairReport, EngineError> {
        // Scrub evidence first — verify_page consults no fault event and
        // skips quarantined slots, so capture it before quarantining.
        let corruption = self.store.verify_page(id)?;
        self.store.quarantine_page(id)?;
        self.stats.quarantines += 1;

        if self.cache.is_dirty(id) {
            // The cache holds the newest value; flush it through the
            // normal path (ancestors first, WAL-checked). Generation 0 in
            // the report means "healed from the resident dirty copy".
            self.store.clear_page_failure(id)?;
            self.flush_page(id)?;
            self.stats.repairs += 1;
            return Ok(RepairReport {
                page: id,
                closure: vec![id],
                generation_used: 0,
                generations_tried: Vec::new(),
                start_lsn: Lsn::NULL,
                records_replayed: 0,
                records_scanned: 0,
                index_used: false,
                retries: 0,
                backoff_ticks: 0,
                corruption,
            });
        }

        let mut cost = RetryCost::default();
        let report = self.repair_from_chain(id, corruption, &mut cost);
        self.stats.transient_retries += u64::from(cost.retries);
        report
    }

    /// The backup-chain half of [`Engine::repair_page`]: walk the
    /// generations newest first until one regenerates `id`. `cost`
    /// accumulates every retried fetch, also when the walk fails.
    fn repair_from_chain(
        &mut self,
        id: PageId,
        corruption: Option<CorruptionEntry>,
        cost: &mut RetryCost,
    ) -> Result<RepairReport, EngineError> {
        self.log.force_all()?;
        let backoff = self.repair_backoff(id);
        let mut generations_tried = Vec::new();
        'generations: for backup_id in self.catalog.generations() {
            generations_tried.push(backup_id);
            let start_lsn = self.catalog.start_lsn(backup_id)?;
            // A generation with a page-indexed archive serves the closure
            // from sorted per-page runs instead of a full suffix scan —
            // fewer records examined, and the report's telemetry says so.
            // Archive corruption or exhausted retries fall back to the
            // scan of the *same* generation.
            let indexed = if self.catalog.has_archive(backup_id) {
                self.archive_closure(backup_id, id, &backoff, cost)?
            } else {
                None
            };
            let (records, closure, records_scanned, index_used) = match indexed {
                Some((records, closure, scanned)) => {
                    self.stats.repair_index_hits += 1;
                    (records, closure, scanned, true)
                }
                None => {
                    // The generation's media-recovery log suffix. A
                    // truncated suffix means the generation was released —
                    // fail over (older generations need even earlier
                    // records, but the uniform loop keeps the report
                    // honest about what was tried).
                    let scan =
                        backoff.retry(cost, is_transient_log, || self.log.scan_from(start_lsn));
                    let records = match scan {
                        Ok(records) => records,
                        Err(LogError::Truncated { .. }) => {
                            self.stats.repair_fallbacks += 1;
                            continue 'generations;
                        }
                        Err(e) => return Err(EngineError::Log(e)),
                    };
                    let targets: BTreeSet<PageId> = [id].into();
                    let closure = dependency_closure(&records, &targets);
                    let scanned = records.len() as u64;
                    (records, closure, scanned, false)
                }
            };
            // Backup-vintage copies of the whole closure, from this
            // generation only (mixing generations would mix vintages).
            let mut seed_pages: BTreeMap<PageId, Page> = BTreeMap::new();
            for &p in &closure {
                let fetched = backoff.retry(cost, BackupError::is_transient, || {
                    self.catalog.fetch_page(backup_id, p)
                });
                match fetched {
                    Ok(page) => seed_pages.insert(p, page),
                    Err(
                        BackupError::TransientImage { .. }
                        | BackupError::CorruptImage { .. }
                        | BackupError::MissingPage { .. },
                    ) => {
                        self.stats.repair_fallbacks += 1;
                        continue 'generations;
                    }
                    Err(e) => return Err(EngineError::Backup(e)),
                };
            }
            let (outcome, mut pages) = replay_closure(seed_pages, &records, &closure)?;
            let repaired = pages.remove(&id).ok_or_else(|| {
                EngineError::Internal(format!("repair replay lost target page {id}"))
            })?;
            // A resident clean copy is the last flushed state — exactly
            // what the closure replay rebuilds. Disagreement is a bug.
            if let Some(cached) = self.cache.peek(id) {
                if cached.data() != repaired.data() {
                    return Err(EngineError::Internal(format!(
                        "repair of {id} disagrees with the clean cached copy"
                    )));
                }
            }
            // Install: clear a single-page failure marker (replacement
            // sector), overwrite (the full write heals the quarantine),
            // and verify the slot end-to-end — page_lsn re-checks failure,
            // quarantine, and checksum without drawing a fault event.
            self.store.clear_page_failure(id)?;
            self.store.write_page(id, repaired.clone())?;
            let lsn = self.store.page_lsn(id)?;
            if lsn != repaired.lsn() {
                return Err(EngineError::Internal(format!(
                    "repaired page {id} reads back pageLSN {lsn}, expected {}",
                    repaired.lsn()
                )));
            }
            self.stats.repairs += 1;
            return Ok(RepairReport {
                page: id,
                closure: closure.into_iter().collect(),
                generation_used: backup_id,
                generations_tried,
                start_lsn,
                records_replayed: outcome.replayed,
                records_scanned,
                index_used,
                retries: cost.retries,
                backoff_ticks: cost.backoff_ticks,
                corruption,
            });
        }
        // Every generation exhausted: the page stays quarantined so no
        // reader ever sees the damaged bytes. A future generation, a full
        // overwrite, or media recovery can still bring it back.
        Err(EngineError::Unrepairable(id))
    }

    /// Repair every damaged or quarantined page of one partition (scrub
    /// plus quarantine set), one online repair each. Other partitions are
    /// untouched — the partition is the paper's §6.3 recovery unit, and
    /// this is its online analogue.
    pub fn repair_partition(
        &mut self,
        partition: PartitionId,
    ) -> Result<Vec<RepairReport>, EngineError> {
        let scrub = self.store.verify_pages();
        let mut targets: BTreeSet<PageId> = scrub
            .pages()
            .into_iter()
            .filter(|p| p.partition == partition)
            .collect();
        targets.extend(
            self.store
                .quarantined_pages()
                .into_iter()
                .filter(|p| p.partition == partition),
        );
        let mut reports = Vec::with_capacity(targets.len());
        for id in targets {
            reports.push(self.repair_page(id)?);
        }
        Ok(reports)
    }

    /// The dependency closure of `target` over one generation's
    /// page-indexed archive: catch the archive up to the durable log end,
    /// then walk the closure over per-page runs
    /// ([`lob_recovery::repair::archive_closure`]). Returns the merged
    /// closure-filtered suffix, the closure, and the number of records
    /// examined — or `None` to fall back to the full-suffix scan of the
    /// same generation (a corrupt run, exhausted retries, or a truncated
    /// catch-up suffix; an injected crash propagates).
    #[allow(clippy::type_complexity)]
    fn archive_closure(
        &mut self,
        backup_id: u64,
        target: PageId,
        backoff: &BackoffSchedule,
        cost: &mut RetryCost,
    ) -> Result<Option<(Vec<LogRecord>, BTreeSet<PageId>, u64)>, EngineError> {
        // Catch up first: records past the watermark are indexed now, so
        // the runs cover the full durable suffix. A truncated tail means
        // the archive fell behind a released suffix — scan path's problem.
        let from = match self.catalog.archive_watermark(backup_id)? {
            Some(w) => w,
            None => return Ok(None),
        };
        let tail = match backoff.retry(cost, is_transient_log, || self.log.frames_from(from)) {
            Ok(tail) => tail,
            Err(LogError::Transient | LogError::Truncated { .. }) => {
                self.stats.repair_index_fallbacks += 1;
                return Ok(None);
            }
            Err(e) => return Err(EngineError::Log(e)),
        };
        // The catch-up indexes each record once per generation — amortized
        // maintenance, not per-repair examination — so it stays out of
        // `records_scanned` (the suffix scan re-examines its records on
        // every repair; that asymmetry is the point of the telemetry).
        self.catalog.extend_archive(backup_id, &tail)?;

        let catalog = &self.catalog;
        let mut scanned = 0u64;
        // One archive run (`Some(page)`) or the control run (`None`).
        let mut fetch = |page: Option<PageId>| {
            let run = backoff.retry(cost, BackupError::is_transient, || match page {
                Some(id) => catalog.fetch_records(backup_id, id),
                None => catalog.fetch_control_records(backup_id),
            })?;
            scanned += run.len() as u64;
            Ok(run)
        };
        let walked = fetch(None).and_then(|control| {
            let own = fetch(Some(target))?;
            archive_closure([target].into(), vec![(target, own)], control, |id| {
                fetch(Some(id))
            })
        });
        match walked {
            Ok((records, closure)) => Ok(Some((records, closure, scanned))),
            Err(
                BackupError::TransientArchive { .. }
                | BackupError::CorruptArchive { .. }
                | BackupError::NoArchive(_),
            ) => {
                self.stats.repair_index_fallbacks += 1;
                Ok(None)
            }
            Err(e) => Err(EngineError::Backup(e)),
        }
    }

    // ------------------------------------------------------------------
    // Instant restore (serve during media recovery)
    // ------------------------------------------------------------------

    /// Catch one generation's page-indexed archive up to the durable end
    /// of the log: force, read the log's frames from the archive's
    /// watermark (its start LSN if no archive exists yet — this call
    /// *creates* the archive), and index them — the archive shares the
    /// log's frame buffers, nothing is decoded into owned records or
    /// re-encoded. Returns the new watermark. Backups keep their archives
    /// current by calling this as the log grows; instant restore calls it
    /// for every archived generation when an epoch begins.
    pub fn extend_backup_archive(&mut self, backup_id: u64) -> Result<Lsn, EngineError> {
        self.log.force_all()?;
        let from = match self.catalog.archive_watermark(backup_id)? {
            Some(w) => w,
            None => self.catalog.start_lsn(backup_id)?,
        };
        let frames = self.log.frames_from(from)?;
        Ok(self.catalog.extend_archive(backup_id, &frames)?)
    }

    /// Catch every archived generation's archive up to the durable log
    /// end; a catalog with no archive at all gets one built on the newest
    /// generation (the full suffix is indexed in one pass).
    fn catch_up_archives(&mut self) -> Result<(), EngineError> {
        let gens = self.catalog.generations();
        if gens.is_empty() {
            return Err(EngineError::Backup(BackupError::BadState(
                "no backup generation registered to restore from".into(),
            )));
        }
        if gens.iter().any(|&g| self.catalog.has_archive(g)) {
            for backup_id in gens {
                if self.catalog.has_archive(backup_id) {
                    self.extend_backup_archive(backup_id)?;
                }
            }
        } else if let Some(&newest) = gens.first() {
            self.extend_backup_archive(newest)?;
        }
        Ok(())
    }

    /// Begin an instant-restore epoch over the current failure set: the
    /// engine keeps serving *during* media recovery. Every failed
    /// partition becomes a restore segment; reads and writes gate on
    /// their own segment's prioritized restore
    /// ([`Engine::ensure_segment`] inside [`Engine::read_page`] and
    /// [`Engine::execute`]) while [`Engine::instant_restore_step`] sweeps
    /// the rest in the background. The epoch closes itself when the last
    /// segment comes back (the drills byte-compare every close against a
    /// sequential reference restore: `lob_harness::verify_epoch_close`).
    pub fn begin_instant_restore(&mut self) -> Result<(), EngineError> {
        self.start_instant_epoch(false)
    }

    /// Reboot re-entry after a crash mid-epoch: every partition becomes a
    /// `Failed` segment re-derived from archive plus image (a crash may
    /// have left any partition with a half-installed — but always
    /// correctly-versioned — page set, and the flush-order rule bounds
    /// every store page LSN by the durable end, so unconditional
    /// re-install of the full replay is sound). Call after
    /// [`Engine::crash`] instead of [`Engine::recover`] when an epoch was
    /// in flight; normal redo is subsumed by the full re-derivation.
    pub fn recover_instant(&mut self) -> Result<(), EngineError> {
        self.start_instant_epoch(true)
    }

    /// Catch the archives up and start an epoch over the failed partitions
    /// — or, for the reboot re-entry, over `all_segments`.
    fn start_instant_epoch(&mut self, all_segments: bool) -> Result<(), EngineError> {
        if self.instant.is_some() {
            return Err(EngineError::Discipline(
                "an instant-restore epoch is already active".into(),
            ));
        }
        self.catch_up_archives()?;
        if all_segments {
            self.stats.instant_reboots += 1;
            self.stats.recoveries += 1;
        }
        let r = InstantRestore::begin(
            Arc::clone(&self.store),
            Arc::clone(&self.catalog),
            self.config.recovery.batch.max(1),
            0x1257_C0DE,
            REPAIR_FETCH_ATTEMPTS,
            self.hook.clone(),
            all_segments,
        )
        .map_err(EngineError::from)?;
        self.stats.instant_epochs += 1;
        self.instant = Some(r);
        // Nothing failed → the epoch completes right away.
        self.maybe_complete_instant()
    }

    /// Whether an instant-restore epoch is in flight.
    pub fn instant_restore_active(&self) -> bool {
        self.instant.is_some()
    }

    /// The in-flight epoch's state for one segment (`None` outside an
    /// epoch or for an unknown partition).
    pub fn instant_segment_state(&self, p: PartitionId) -> Option<lob_recovery::SegmentState> {
        self.instant.as_ref().and_then(|r| r.segment_state(p))
    }

    /// Segments not yet restored (0 outside an epoch).
    pub fn instant_pending(&self) -> usize {
        self.instant.as_ref().map_or(0, |r| r.pending())
    }

    /// The in-flight epoch's counters (`None` outside an epoch).
    pub fn instant_restore_stats(&self) -> Option<InstantStats> {
        self.instant.as_ref().map(|r| r.stats())
    }

    /// Gate one partition on its segment's restore during an epoch; a
    /// no-op in normal operation. A request against a not-yet-restored
    /// segment jumps the sweep queue (foreground priority) and blocks
    /// only for that one segment's restore.
    fn ensure_segment(&mut self, p: PartitionId) -> Result<(), EngineError> {
        let Some(r) = self.instant.as_mut() else {
            return Ok(());
        };
        r.ensure(p).map_err(EngineError::from)?;
        self.maybe_complete_instant()
    }

    /// One background sweep step of the in-flight epoch: restore the next
    /// queued segment. Returns the segment restored, or `None` when no
    /// epoch is active. The engine thread interleaves these with
    /// foreground work — that is the "serving during recovery".
    pub fn instant_restore_step(&mut self) -> Result<Option<PartitionId>, EngineError> {
        let Some(r) = self.instant.as_mut() else {
            return Ok(None);
        };
        let stepped = r.step().map_err(EngineError::from)?;
        if stepped.is_none() && self.instant.as_ref().is_some_and(|r| !r.finished()) {
            return Err(EngineError::Internal(
                "instant-restore queue drained with segments still failed".into(),
            ));
        }
        self.maybe_complete_instant()?;
        Ok(stepped)
    }

    /// Drive the background sweep until the epoch completes. Drill and
    /// bench convenience.
    pub fn instant_restore_drain(&mut self) -> Result<(), EngineError> {
        while self.instant.is_some() {
            self.instant_restore_step()?;
        }
        Ok(())
    }

    /// If every segment is restored, fold the epoch's counters into the
    /// engine stats and return to normal operation.
    fn maybe_complete_instant(&mut self) -> Result<(), EngineError> {
        if !self.instant.as_ref().is_some_and(|r| r.finished()) {
            return Ok(());
        }
        let Some(r) = self.instant.take() else {
            return Ok(());
        };
        let s = r.stats();
        self.stats.instant_completions += 1;
        self.stats.instant_on_demand += s.on_demand_restores;
        self.stats.instant_swept += s.sweep_restores;
        self.stats.transient_retries += s.transient_retries;
        self.stats.media_recoveries += 1;
        self.reseed_allocator()?;
        self.truncate_log()?;
        Ok(())
    }
}

/// Domain confinement: every page `body` reads or writes must lie in one
/// and the same backup-order domain, which is returned (`None` for an
/// operation touching no page). `requirement` ends the message when it
/// spans two.
pub(crate) fn confined_domain(
    coordinator: &BackupCoordinator,
    body: &OpBody,
    requirement: &str,
) -> Result<Option<DomainId>, EngineError> {
    let mut domain: Option<DomainId> = None;
    let mut violation: Option<String> = None;
    let mut visit = |page: PageId| {
        if violation.is_some() {
            return;
        }
        match (coordinator.domain_of(page.partition), domain) {
            (None, _) => {
                violation = Some(format!("page {page} is outside every backup-order domain"));
            }
            (Some(d), None) => domain = Some(d),
            (Some(d), Some(prev)) if prev == d => {}
            (Some(d), Some(prev)) => {
                violation = Some(format!(
                    "operation spans backup domains {prev:?} and {d:?}; {requirement}"
                ));
            }
        }
    };
    body.for_each_read(&mut visit);
    body.for_each_write(&mut visit);
    match violation {
        Some(msg) => Err(EngineError::Discipline(msg)),
        None => Ok(domain),
    }
}

/// The stable store and the backup coordinator an [`EngineConfig`]
/// describes: a fresh formatted `S`, and one backup-order domain over all
/// partitions or one per partition, per [`Tracking`].
pub(crate) fn open_store(
    config: &EngineConfig,
) -> Result<(Arc<StableStore>, Arc<BackupCoordinator>), EngineError> {
    let store = Arc::new(StableStore::new(
        StoreConfig {
            page_size: config.page_size,
        },
        &config.partitions,
    ));
    let parts_with_sizes = |ids: &[PartitionId]| -> Result<Vec<(PartitionId, u32)>, EngineError> {
        ids.iter().map(|&p| Ok((p, store.page_count(p)?))).collect()
    };
    let coordinator = match &config.tracking {
        Tracking::Sequential(order) => {
            if order.len() != config.partitions.len() {
                return Err(EngineError::Discipline(format!(
                    "sequential tracking order lists {} partitions, store has {}",
                    order.len(),
                    config.partitions.len()
                )));
            }
            BackupCoordinator::sequential(parts_with_sizes(order)?)
        }
        Tracking::PerPartition => {
            let all: Vec<PartitionId> = (0..config.partitions.len() as u32)
                .map(PartitionId)
                .collect();
            BackupCoordinator::per_partition(parts_with_sizes(&all)?)
        }
    };
    Ok((store, Arc::new(coordinator)))
}

/// Whether `body` belongs to the operation class `discipline` admits.
/// `page_lsn` is consulted only for a tree write-new target, which must
/// be a never-updated page.
pub(crate) fn check_discipline(
    discipline: Discipline,
    body: &OpBody,
    page_lsn: impl FnOnce(PageId) -> Result<Lsn, EngineError>,
) -> Result<(), EngineError> {
    match discipline {
        Discipline::General => Ok(()),
        Discipline::PageOriented => {
            if body.class().is_page_oriented() {
                Ok(())
            } else {
                Err(EngineError::Discipline(format!(
                    "{} is a logical operation; engine is page-oriented",
                    body.label()
                )))
            }
        }
        Discipline::Tree => match body.tree_form() {
            Some(TreeForm::PageOriented { .. }) | Some(TreeForm::ReadExtra { .. }) => Ok(()),
            Some(TreeForm::WriteNew { new, .. }) => {
                let lsn = page_lsn(new)?;
                if lsn.is_null() {
                    Ok(())
                } else {
                    Err(EngineError::Discipline(format!(
                        "write-new target {new} was already updated (pageLSN {lsn}); \
                         tree operations may only initialize fresh objects"
                    )))
                }
            }
            None => Err(EngineError::Discipline(format!(
                "{} does not fit the tree-operation discipline",
                body.label()
            ))),
        },
    }
}

/// Whether a store error is one the self-healing read path can fix (retry
/// or online repair) rather than a structural failure.
fn is_healable_read_err(e: &StoreError) -> bool {
    matches!(
        e,
        StoreError::Transient(_)
            | StoreError::Corrupt(_)
            | StoreError::MediaFailure(_)
            | StoreError::Quarantined(_)
    )
}

fn is_transient_log(e: &LogError) -> bool {
    matches!(e, LogError::Transient)
}

/// Surface quarantine as its typed engine error; everything else wraps.
pub(crate) fn lift_store_err(e: StoreError) -> EngineError {
    match e {
        StoreError::Quarantined(p) => EngineError::Quarantined(p),
        e => EngineError::Store(e),
    }
}

pub(crate) fn lift_cache_err(e: CacheError) -> EngineError {
    match e {
        CacheError::Store(s) => lift_store_err(s),
        e => EngineError::Cache(e),
    }
}

/// An in-progress linked-flush backup (baseline).
pub struct LinkedBackupRun {
    backup_id: u64,
    start_lsn: Lsn,
    todo: Vec<PageId>,
    cursor: usize,
    image: Arc<Mutex<PageImage>>,
}

impl LinkedBackupRun {
    /// The run's backup id.
    pub fn backup_id(&self) -> u64 {
        self.backup_id
    }

    /// Pages copied so far.
    pub fn pages_copied(&self) -> usize {
        self.cursor
    }

    /// Total pages to copy.
    pub fn pages_total(&self) -> usize {
        self.todo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lob_ops::LogicalOp;

    fn pid(i: u32) -> PageId {
        PageId::new(0, i)
    }

    fn engine() -> Engine {
        Engine::new(EngineConfig::small()).unwrap()
    }

    fn phys(i: u32, fill: u8) -> OpBody {
        OpBody::PhysicalWrite {
            target: pid(i),
            value: Bytes::from(vec![fill; 256]),
        }
    }

    fn copy(src: u32, dst: u32) -> OpBody {
        OpBody::Logical(LogicalOp::Copy {
            src: pid(src),
            dst: pid(dst),
        })
    }

    #[test]
    fn execute_dirties_and_tracks() {
        let mut e = engine();
        let lsn = e.execute(phys(0, 7)).unwrap();
        assert_eq!(lsn, Lsn(1));
        assert!(e.cache().is_dirty(pid(0)));
        assert_eq!(e.graph().node_count(), 1);
        assert_eq!(e.read_page(pid(0)).unwrap().data()[0], 7);
        // Not yet in S.
        assert!(e.store().read_page(pid(0)).unwrap().lsn().is_null());
    }

    #[test]
    fn flush_page_installs_and_persists() {
        let mut e = engine();
        e.execute(phys(0, 7)).unwrap();
        e.flush_page(pid(0)).unwrap();
        assert!(!e.cache().is_dirty(pid(0)));
        assert!(e.graph().is_empty());
        assert_eq!(e.store().read_page(pid(0)).unwrap().data()[0], 7);
        assert_eq!(e.stats().pages_flushed, 1);
    }

    #[test]
    fn flush_respects_write_graph_order() {
        let mut e = engine();
        e.execute(phys(0, 1)).unwrap();
        e.flush_page(pid(0)).unwrap();
        // copy(0 → 1), then overwrite 0: node(1) must flush before node(0).
        e.execute(copy(0, 1)).unwrap();
        e.execute(phys(0, 2)).unwrap();
        // Flushing page 0 must first flush page 1.
        e.flush_page(pid(0)).unwrap();
        assert_eq!(e.store().read_page(pid(1)).unwrap().data()[0], 1);
        assert_eq!(e.store().read_page(pid(0)).unwrap().data()[0], 2);
        assert!(e.graph().is_empty());
    }

    #[test]
    fn crash_before_flush_recovers_via_log() {
        let mut e = engine();
        e.execute(phys(0, 9)).unwrap();
        e.execute(copy(0, 1)).unwrap();
        e.force_log().unwrap();
        e.crash();
        assert!(e.store().read_page(pid(1)).unwrap().lsn().is_null());
        let out = e.recover().unwrap();
        assert_eq!(out.replayed, 2);
        assert_eq!(e.store().read_page(pid(0)).unwrap().data()[0], 9);
        assert_eq!(e.store().read_page(pid(1)).unwrap().data()[0], 9);
    }

    #[test]
    fn crash_loses_unforced_tail() {
        let mut e = engine();
        e.execute(phys(0, 9)).unwrap();
        // Not forced: the operation is lost at the crash.
        e.crash();
        let out = e.recover().unwrap();
        assert_eq!(out.replayed + out.skipped, 0);
        assert!(e.store().read_page(pid(0)).unwrap().lsn().is_null());
    }

    #[test]
    fn wal_protocol_is_automatic_on_flush() {
        let mut e = engine();
        e.execute(phys(0, 9)).unwrap();
        // flush_page forces the log itself; no explicit force needed.
        e.flush_page(pid(0)).unwrap();
        e.crash();
        let out = e.recover().unwrap();
        assert_eq!(out.skipped, 1, "already installed");
        assert_eq!(e.store().read_page(pid(0)).unwrap().data()[0], 9);
    }

    #[test]
    fn flush_all_drains_and_truncates() {
        let mut e = engine();
        for i in 0..8 {
            e.execute(phys(i, i as u8)).unwrap();
            e.execute(copy(i, i + 8)).unwrap();
        }
        e.flush_all().unwrap();
        assert!(e.graph().is_empty());
        assert_eq!(e.cache().dirty_count(), 0);
        assert_eq!(e.log().truncation(), e.log().next_lsn());
    }

    #[test]
    fn tree_discipline_enforced() {
        let mut e = Engine::new(EngineConfig {
            discipline: Discipline::Tree,
            ..EngineConfig::small()
        })
        .unwrap();
        // Mix is irreducibly general → rejected.
        let mix = OpBody::Logical(LogicalOp::Mix {
            reads: vec![pid(0)],
            writes: vec![pid(1)],
            salt: 0,
        });
        assert!(matches!(e.execute(mix), Err(EngineError::Discipline(_))));
        // Copy into a fresh page is a write-new tree op → accepted.
        e.execute(phys(0, 1)).unwrap();
        e.execute(copy(0, 1)).unwrap();
        // Copy onto an already-updated page → rejected.
        assert!(matches!(
            e.execute(copy(0, 1)),
            Err(EngineError::Discipline(_))
        ));
    }

    #[test]
    fn page_oriented_discipline_rejects_logical() {
        let mut e = Engine::new(EngineConfig {
            discipline: Discipline::PageOriented,
            ..EngineConfig::small()
        })
        .unwrap();
        assert!(matches!(
            e.execute(copy(0, 1)),
            Err(EngineError::Discipline(_))
        ));
        e.execute(phys(0, 1)).unwrap();
    }

    #[test]
    fn alloc_pages_are_fresh_and_sequential() {
        let mut e = engine();
        let a = e.alloc_page(PartitionId(0)).unwrap();
        let b = e.alloc_page(PartitionId(0)).unwrap();
        assert_eq!(a, pid(0));
        assert_eq!(b, pid(1));
        e.reserve_pages(PartitionId(0), 10);
        assert_eq!(e.alloc_page(PartitionId(0)).unwrap(), pid(10));
    }

    #[test]
    fn online_backup_with_iwof_supports_media_recovery() {
        let mut e = engine();
        // Dirty some state and flush it so S has content.
        for i in 0..8 {
            e.execute(phys(i, i as u8 + 1)).unwrap();
        }
        e.flush_all().unwrap();

        let mut run = e.begin_backup(4).unwrap();
        // Interleave: update pages already copied (forcing Done/Doubt
        // flushes → Iw/oF).
        e.backup_step(&mut run).unwrap(); // copies pages 0..16
        e.execute(copy(0, 20)).unwrap();
        e.execute(phys(0, 99)).unwrap();
        e.flush_page(pid(0)).unwrap(); // page 0 is Done → Iw/oF
        assert!(e.stats().iwof_records >= 1, "Done flush logged identity");
        while !e.backup_step(&mut run).unwrap() {}
        let image = e.complete_backup(run).unwrap();

        // More updates after the backup.
        e.execute(phys(5, 55)).unwrap();
        e.flush_page(pid(5)).unwrap();

        // Media failure → restore → roll forward.
        e.store().fail_partition(PartitionId(0)).unwrap();
        e.media_recover(&image).unwrap();
        assert_eq!(e.store().read_page(pid(0)).unwrap().data()[0], 99);
        assert_eq!(e.store().read_page(pid(20)).unwrap().data()[0], 1);
        assert_eq!(e.store().read_page(pid(5)).unwrap().data()[0], 55);
    }

    #[test]
    fn offline_backup_restores_exactly() {
        let mut e = engine();
        for i in 0..4 {
            e.execute(phys(i, 0xA0 + i as u8)).unwrap();
        }
        let image = e.offline_backup().unwrap();
        e.execute(phys(0, 0xFF)).unwrap();
        e.flush_all().unwrap();
        e.store().fail_partition(PartitionId(0)).unwrap();
        e.media_recover(&image).unwrap();
        // Roll-forward reapplies the later update too.
        assert_eq!(e.store().read_page(pid(0)).unwrap().data()[0], 0xFF);
        assert_eq!(e.store().read_page(pid(1)).unwrap().data()[0], 0xA1);
    }

    #[test]
    fn linked_backup_mirrors_flushes() {
        let mut e = engine();
        for i in 0..4 {
            e.execute(phys(i, 1 + i as u8)).unwrap();
        }
        e.flush_all().unwrap();
        let mut run = e.begin_linked_backup().unwrap();
        e.linked_step(&mut run, 10).unwrap();
        // A flush during the window lands in the image too.
        e.execute(phys(0, 0x77)).unwrap();
        e.flush_page(pid(0)).unwrap();
        while !e.linked_step(&mut run, 16).unwrap() {}
        let image = e.complete_linked_backup(run).unwrap();
        assert_eq!(
            image.pages.get(pid(0)).unwrap().data()[0],
            0x77,
            "linked flush updated the already-copied page"
        );
        // And it restores.
        e.store().fail_partition(PartitionId(0)).unwrap();
        e.media_recover(&image).unwrap();
        assert_eq!(e.store().read_page(pid(0)).unwrap().data()[0], 0x77);
    }

    #[test]
    fn incremental_backup_copies_only_changes() {
        let mut e = engine();
        for i in 0..8 {
            e.execute(phys(i, 1)).unwrap();
        }
        e.flush_all().unwrap();
        let mut run = e.begin_backup(2).unwrap();
        while !e.backup_step(&mut run).unwrap() {}
        let base = e.complete_backup(run).unwrap();

        // Change two pages.
        e.execute(phys(1, 2)).unwrap();
        e.execute(phys(3, 2)).unwrap();
        e.flush_all().unwrap();

        let mut irun = e.begin_incremental_backup(DomainId(0), 2, &base).unwrap();
        while !e.backup_step(&mut irun).unwrap() {}
        let incr = e.complete_backup(irun).unwrap();
        assert!(incr.incremental);
        assert_eq!(incr.page_count(), 2);

        let full = BackupImage::materialize(&base, &incr).unwrap();
        e.execute(phys(5, 9)).unwrap();
        e.flush_all().unwrap();
        e.store().fail_partition(PartitionId(0)).unwrap();
        e.media_recover(&full).unwrap();
        assert_eq!(e.store().read_page(pid(1)).unwrap().data()[0], 2);
        assert_eq!(e.store().read_page(pid(3)).unwrap().data()[0], 2);
        assert_eq!(e.store().read_page(pid(5)).unwrap().data()[0], 9);
    }

    #[test]
    fn abort_restores_incremental_changed_set() {
        let mut e = engine();
        e.execute(phys(0, 1)).unwrap();
        e.flush_all().unwrap();
        let mut run = e.begin_backup(1).unwrap();
        while !e.backup_step(&mut run).unwrap() {}
        let base = e.complete_backup(run).unwrap();
        e.execute(phys(2, 1)).unwrap();
        e.flush_all().unwrap();
        let before = e.coordinator().changed_count();
        let irun = e.begin_incremental_backup(DomainId(0), 2, &base).unwrap();
        assert_eq!(e.coordinator().changed_count(), 0);
        e.abort_backup(irun);
        assert_eq!(e.coordinator().changed_count(), before);
    }

    #[test]
    fn media_barrier_prevents_truncating_backup_log() {
        let mut e = engine();
        e.execute(phys(0, 1)).unwrap();
        e.flush_all().unwrap();
        let run = e.begin_backup(2).unwrap();
        let start = e.log().media_barrier().unwrap();
        e.execute(phys(1, 1)).unwrap();
        e.flush_all().unwrap();
        assert!(
            e.log().truncation() <= start,
            "records the backup needs survive truncation"
        );
        e.abort_backup(run);
        e.flush_all().unwrap();
        assert!(e.log().media_barrier().is_none());
    }

    #[test]
    fn install_without_flush_advances_truncation() {
        let mut e = engine();
        e.execute(phys(0, 1)).unwrap();
        e.execute(copy(0, 1)).unwrap();
        let before = e.truncate_log().unwrap();
        assert!(before <= Lsn(1), "uninstalled ops pin the log");
        // Identity-log the hot pages instead of flushing them.
        e.install_without_flush(pid(1)).unwrap();
        e.install_without_flush(pid(0)).unwrap();
        let after = e.truncate_log().unwrap();
        assert!(after > Lsn(2), "identity records released the old records");
        assert!(e.cache().is_dirty(pid(0)), "page stays hot and dirty");
        // Crash recovery works from the identity records alone.
        e.crash();
        e.recover().unwrap();
        assert_eq!(e.store().read_page(pid(0)).unwrap().data()[0], 1);
        assert_eq!(e.store().read_page(pid(1)).unwrap().data()[0], 1);
    }

    #[test]
    fn audit_backup_detects_good_and_stale_images() {
        let mut e = engine();
        for i in 0..4 {
            e.execute(phys(i, i as u8 + 1)).unwrap();
        }
        e.flush_all().unwrap();
        let mut run = e.begin_backup(2).unwrap();
        while !e.backup_step(&mut run).unwrap() {}
        let image = e.complete_backup(run).unwrap();
        assert!(
            e.audit_backup(&image).unwrap().is_empty(),
            "fresh image audits clean"
        );

        // Further updates: the audit rolls the image forward over the live
        // log, so it still audits clean.
        e.execute(phys(0, 0x77)).unwrap();
        e.flush_all().unwrap();
        assert!(e.audit_backup(&image).unwrap().is_empty());

        // A released backup whose log suffix was truncated fails loudly.
        e.release_backup(image.backup_id);
        e.flush_all().unwrap();
        e.execute(phys(1, 0x11)).unwrap();
        e.flush_all().unwrap();
        if e.log().truncation() > image.start_lsn {
            assert!(e.audit_backup(&image).is_err(), "truncated suffix detected");
        }
    }

    #[test]
    fn point_in_time_recovery_stops_at_target() {
        let mut e = engine();
        for i in 0..4 {
            e.execute(phys(i, 1)).unwrap();
        }
        e.flush_all().unwrap();
        let mut run = e.begin_backup(2).unwrap();
        while !e.backup_step(&mut run).unwrap() {}
        let image = e.complete_backup(run).unwrap();

        // Two epochs of post-backup updates.
        e.execute(phys(0, 0xAA)).unwrap();
        e.flush_all().unwrap();
        let epoch1 = e.log().durable_lsn();
        e.execute(phys(0, 0xBB)).unwrap();
        e.execute(copy(0, 9)).unwrap();
        e.flush_all().unwrap();

        // Recover to epoch 1: the 0xBB write and the copy are excluded.
        e.store().fail_partition(PartitionId(0)).unwrap();
        e.media_recover_to(&image, epoch1).unwrap();
        assert_eq!(e.store().read_page(pid(0)).unwrap().data()[0], 0xAA);
        assert!(e.store().read_page(pid(9)).unwrap().lsn().is_null());

        // Targets before the backup completed are rejected.
        assert!(matches!(
            e.media_recover_to(&image, Lsn(1)),
            Err(EngineError::Discipline(_))
        ));
    }

    #[test]
    fn file_backed_engine_survives_process_restart() {
        let dir = std::env::temp_dir().join(format!("lob-engine-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.wal");
        let config = EngineConfig {
            log: crate::config::LogBacking::File(path.clone()),
            ..EngineConfig::small()
        };
        {
            let mut e = Engine::new(config.clone()).unwrap();
            e.execute(phys(0, 7)).unwrap();
            e.execute(copy(0, 1)).unwrap();
            e.force_log().unwrap();
            // Process "dies" here: nothing flushed to S.
        }
        let mut e2 = Engine::open_existing(config).unwrap();
        e2.recover().unwrap();
        assert_eq!(e2.store().read_page(pid(0)).unwrap().data()[0], 7);
        assert_eq!(e2.store().read_page(pid(1)).unwrap().data()[0], 7);
        // LSNs continue above everything in the file.
        let lsn = e2.execute(phys(2, 1)).unwrap();
        assert!(lsn > Lsn(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flush_oldest_advances_truncation_fastest() {
        let mut e = engine();
        for i in 0..6 {
            e.execute(phys(i, 1)).unwrap();
        }
        let t0 = e.log().truncation();
        // Flushing the two oldest pages moves the truncation bound past
        // their records.
        let cleaned = e.flush_oldest(2).unwrap();
        assert_eq!(cleaned, 2);
        assert!(e.log().truncation() > t0);
        assert!(e.log().truncation() >= Lsn(3));
        assert_eq!(e.cache().dirty_count(), 4);
        // Budget larger than the dirty set drains it.
        assert_eq!(e.flush_oldest(100).unwrap(), 4);
        assert_eq!(e.log().truncation(), e.log().next_lsn());
    }

    #[test]
    fn regression_blind_steal_requires_thief_durability() {
        // Distilled from a shadow-oracle counterexample: op A writes {X, Y};
        // op B blind-writes Y (stealing it from A's node, not yet durable);
        // flushing A's node (now vars = {X}) then flushing an overwrite of
        // A's readset must force B's record first — otherwise a crash
        // leaves Y with no value anywhere (not in S; A's replay reads the
        // overwritten input; B's record is lost).
        let mut e = engine();
        e.execute(phys(0, 1)).unwrap(); // input page 0
        e.flush_all().unwrap();
        // A: reads {0}, writes {1, 2}.
        let a = OpBody::Logical(LogicalOp::Mix {
            reads: vec![pid(0)],
            writes: vec![pid(1), pid(2)],
            salt: 7,
        });
        e.execute(a.clone()).unwrap();
        let expect_y = e.read_page(pid(2)).unwrap().data().clone();
        // B: blind Mix stealing page 2 (reads 3, writes 2) — appended but
        // never explicitly forced.
        e.execute(OpBody::Logical(LogicalOp::Mix {
            reads: vec![pid(3)],
            writes: vec![pid(2)],
            salt: 8,
        }))
        .unwrap();
        let expect_y2 = e.read_page(pid(2)).unwrap().data().clone();
        // Flush A's node (vars = {1} after the steal)…
        e.flush_page(pid(1)).unwrap();
        // …and overwrite + flush A's input, destroying A's replayability.
        e.execute(phys(0, 0xEE)).unwrap();
        e.flush_page(pid(0)).unwrap();
        // Crash. The WAL floor must have made B's record durable when A's
        // node installed, so page 2 recovers to B's value.
        e.crash();
        e.recover().unwrap();
        let got = e.store().read_page(pid(2)).unwrap();
        assert_eq!(
            got.data(),
            &expect_y2,
            "stolen page recovered from the (forced) thief record"
        );
        let _ = expect_y;
    }

    #[test]
    fn regression_identity_backdating_on_replay() {
        // Distilled from a shadow-oracle counterexample: an identity record
        // is logged (at flush time) *after* an operation that read the
        // value it carries; replay must apply it at the covered write, not
        // at its own LSN.
        let mut e = engine();
        for i in 0..4 {
            e.execute(phys(i, i as u8 + 1)).unwrap();
        }
        e.flush_all().unwrap();
        let mut run = e.begin_backup(2).unwrap();
        e.backup_step(&mut run).unwrap(); // low half Done

        // W: writes page 1 (Done region) from page 3.
        e.execute(OpBody::Logical(LogicalOp::Mix {
            reads: vec![pid(3)],
            writes: vec![pid(1)],
            salt: 1,
        }))
        .unwrap();
        // R: reads the new page 1, writes page 40 (Pend region).
        e.execute(OpBody::Logical(LogicalOp::Mix {
            reads: vec![pid(1)],
            writes: vec![pid(40)],
            salt: 2,
        }))
        .unwrap();
        let expect_40 = e.read_page(pid(40)).unwrap().data().clone();
        // Flush page 40 first (its node precedes nothing), then page 1 —
        // page 1 is Done → identity write logged AFTER R's record.
        e.flush_page(pid(40)).unwrap();
        e.flush_page(pid(1)).unwrap();
        assert!(e.stats().iwof_records >= 1);
        // Overwrite page 3 (W's input) and flush, destroying W's replay.
        e.execute(phys(3, 0x99)).unwrap();
        e.flush_page(pid(3)).unwrap();

        while !e.backup_step(&mut run).unwrap() {}
        let image = e.complete_backup(run).unwrap();
        e.store().fail_partition(PartitionId(0)).unwrap();
        e.media_recover(&image).unwrap();
        assert_eq!(
            e.store().read_page(pid(40)).unwrap().data(),
            &expect_40,
            "R replays against the backdated identity value of page 1"
        );
    }

    #[test]
    fn partition_recovery_requires_per_partition_tracking() {
        let mut e = engine();
        let img = e.offline_backup().unwrap();
        assert!(matches!(
            e.media_recover_partition(&img, PartitionId(0)),
            Err(EngineError::Discipline(_))
        ));
    }

    /// One deterministic session, crashed: every knob setting must recover
    /// it to the bytes and outcome of the record-at-a-time reference scan.
    fn crashed_session() -> Engine {
        let mut e = engine();
        for i in 0..6 {
            e.execute(phys(i, i as u8 + 1)).unwrap();
        }
        e.execute(copy(0, 8)).unwrap();
        e.execute(copy(8, 9)).unwrap();
        e.flush_page(pid(2)).unwrap();
        e.force_log().unwrap();
        e.crash();
        e
    }

    #[test]
    fn parallel_recover_matches_sequential_recover() {
        let crashed = crashed_session();
        let reference = StableStore::single(StoreConfig { page_size: 256 }, 64);
        reference
            .apply_image(&crashed.store().snapshot().unwrap())
            .unwrap();
        let records = crashed.log().scan_from(crashed.log().truncation()).unwrap();
        let want = lob_recovery::redo_scan(
            &records,
            &mut lob_recovery::StoreRedoTarget::new(&reference),
        )
        .unwrap();
        for recovery in [
            RecoveryConfig::default(),
            RecoveryConfig::new(1, 1),
            RecoveryConfig::new(2, 8),
            RecoveryConfig::new(4, 64),
        ] {
            let mut par = crashed_session();
            let got = par.parallel_recover_with(recovery).unwrap();
            assert_eq!(got, want, "{recovery:?}");
            for i in 0..64u32 {
                assert_eq!(
                    par.store().read_page(pid(i)).unwrap(),
                    reference.read_page(pid(i)).unwrap(),
                    "page {i} under {recovery:?}"
                );
            }
            assert_eq!(par.stats().recoveries, 1);
        }
    }

    #[test]
    fn parallel_restore_latest_uses_the_newest_generation() {
        let mut e = engine();
        for i in 0..6 {
            e.execute(phys(i, i as u8 + 1)).unwrap();
        }
        let image = e.offline_backup().unwrap();
        e.register_backup_generation(image).unwrap();
        // More work after the backup: the roll-forward must reapply it.
        e.execute(phys(1, 0xEE)).unwrap();
        e.execute(copy(1, 7)).unwrap();
        e.force_log().unwrap();
        let expect: Vec<_> = (0..8u32)
            .map(|i| e.read_page(pid(i)).unwrap().data().clone())
            .collect();
        e.store().fail_partition(PartitionId(0)).unwrap();
        e.cache.clear();
        let out = e
            .parallel_restore_latest_with(RecoveryConfig::new(4, 8))
            .unwrap();
        assert!(out.replayed > 0);
        assert_eq!(e.stats().media_recoveries, 1);
        for (i, want) in expect.iter().enumerate() {
            assert_eq!(
                e.store().read_page(pid(i as u32)).unwrap().data(),
                want,
                "page {i} after catalog-sourced parallel restore"
            );
        }
    }

    #[test]
    fn parallel_restore_latest_requires_a_generation() {
        let mut e = engine();
        assert!(matches!(
            e.parallel_restore_latest(),
            Err(EngineError::Backup(BackupError::BadState(_)))
        ));
    }

    // ------------------------------------------------------------------
    // Self-healing media recovery
    // ------------------------------------------------------------------

    use lob_pagestore::fault::{FaultVerdict, IoEvent};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// A hook drawing `verdict` on the first `PageRead` of `target` only.
    fn once_read_hook(target: PageId, verdict: FaultVerdict) -> lob_pagestore::FaultHook {
        let fired = AtomicBool::new(false);
        Arc::new(move |ev, page| {
            if ev == IoEvent::PageRead
                && page == Some(target)
                && !fired.swap(true, Ordering::Relaxed)
            {
                verdict
            } else {
                FaultVerdict::Proceed
            }
        })
    }

    /// An engine with 8 flushed pages and an offline backup registered as
    /// the newest repair generation.
    fn healing_engine() -> (Engine, u64) {
        let mut e = engine();
        for i in 0..8 {
            e.execute(phys(i, i as u8 + 1)).unwrap();
        }
        let image = e.offline_backup().unwrap();
        let gen = image.backup_id;
        e.register_backup_generation(image).unwrap();
        (e, gen)
    }

    #[test]
    fn empty_catalog_leaves_read_errors_untouched() {
        let mut e = engine();
        e.execute(phys(0, 7)).unwrap();
        e.flush_all().unwrap();
        e.cache.evict(pid(0)).unwrap();
        e.install_fault_hook(Some(once_read_hook(pid(0), FaultVerdict::CorruptRead)));
        assert!(matches!(
            e.read_page(pid(0)),
            Err(EngineError::Store(lob_pagestore::StoreError::Corrupt(p))) if p == pid(0)
        ));
        e.install_fault_hook(None);
        // And quarantine surfaces as its typed error, not a repair.
        e.store().quarantine_page(pid(0)).unwrap();
        e.cache.evict(pid(0)).unwrap();
        assert!(matches!(
            e.read_page(pid(0)),
            Err(EngineError::Quarantined(p)) if p == pid(0)
        ));
    }

    #[test]
    fn corrupt_read_self_heals_from_the_backup_chain() {
        let (mut e, gen) = healing_engine();
        e.cache.evict(pid(3)).unwrap();
        e.install_fault_hook(Some(once_read_hook(pid(3), FaultVerdict::CorruptRead)));
        let page = e.read_page(pid(3)).unwrap();
        assert_eq!(page.data()[0], 4, "healed read returns the current value");
        assert_eq!(e.stats().repairs, 1);
        assert_eq!(e.stats().quarantines, 1);
        assert!(e.quarantined_pages().is_empty());
        let _ = gen;
        // The stored copy is verifiably intact again.
        assert!(e.store().verify_pages().is_clean());
    }

    #[test]
    fn transient_read_retries_without_repair() {
        let (mut e, _) = healing_engine();
        e.cache.evict(pid(2)).unwrap();
        e.install_fault_hook(Some(once_read_hook(pid(2), FaultVerdict::TransientRead)));
        let page = e.read_page(pid(2)).unwrap();
        assert_eq!(page.data()[0], 3);
        assert_eq!(e.stats().transient_retries, 1);
        assert_eq!(e.stats().repairs, 0, "nothing was damaged");
    }

    #[test]
    fn repair_page_rebuilds_logical_closure_value() {
        let (mut e, gen) = healing_engine();
        // Post-backup logical history: copy 0 → 9, then overwrite 0. The
        // closure of 9 must pull in 0's *backup-vintage* copy, not current.
        e.execute(copy(0, 9)).unwrap();
        e.execute(phys(0, 0xEE)).unwrap();
        e.flush_all().unwrap();
        let want = e.read_page(pid(9)).unwrap().data().clone();
        e.cache.evict(pid(9)).unwrap();
        e.install_fault_hook(Some(once_read_hook(pid(9), FaultVerdict::TornRead)));
        let healed = e.read_page(pid(9)).unwrap();
        assert_eq!(healed.data(), &want);
        assert_eq!(e.store().read_page(pid(9)).unwrap().data(), &want);
        let _ = gen;
    }

    #[test]
    fn repair_falls_back_to_an_older_good_generation() {
        let mut e = engine();
        for i in 0..8 {
            e.execute(phys(i, 1)).unwrap();
        }
        let old = e.offline_backup().unwrap();
        let old_id = old.backup_id;
        e.register_backup_generation(old).unwrap();
        e.execute(phys(1, 2)).unwrap();
        let newer = e.offline_backup().unwrap();
        let newer_id = newer.backup_id;
        e.register_backup_generation(newer).unwrap();
        // Rot the newest generation's copy of page 1; repair must detect
        // the checksum mismatch and fall back to the older generation,
        // replaying the longer suffix to the same final value.
        e.catalog().tamper_page(newer_id, pid(1)).unwrap();
        e.store().quarantine_page(pid(1)).unwrap();
        let report = e.repair_page(pid(1)).unwrap();
        assert_eq!(report.generation_used, old_id);
        assert_eq!(report.generations_tried, vec![newer_id, old_id]);
        assert_eq!(e.stats().repair_fallbacks, 1);
        assert_eq!(e.store().read_page(pid(1)).unwrap().data()[0], 2);
    }

    #[test]
    fn unrepairable_page_stays_quarantined_without_poisoning_others() {
        let (mut e, gen) = healing_engine();
        // Rot the only generation's copy of page 5: no good copy survives.
        e.catalog().tamper_page(gen, pid(5)).unwrap();
        e.cache.evict(pid(5)).unwrap();
        e.install_fault_hook(Some(once_read_hook(pid(5), FaultVerdict::CorruptRead)));
        assert!(matches!(
            e.read_page(pid(5)),
            Err(EngineError::Unrepairable(p)) if p == pid(5)
        ));
        e.install_fault_hook(None);
        assert_eq!(e.quarantined_pages(), vec![pid(5)]);
        // Every other page keeps serving.
        assert_eq!(e.read_page(pid(4)).unwrap().data()[0], 5);
        // A later full overwrite heals the slot.
        e.execute(phys(5, 0x55)).unwrap();
        e.flush_page(pid(5)).unwrap();
        assert!(e.quarantined_pages().is_empty());
        assert_eq!(e.read_page(pid(5)).unwrap().data()[0], 0x55);
    }

    #[test]
    fn dirty_page_repairs_from_the_cache_not_the_chain() {
        let (mut e, _) = healing_engine();
        e.execute(phys(6, 0x66)).unwrap(); // dirty in cache
        let report = e.repair_page(pid(6)).unwrap();
        assert_eq!(report.generation_used, 0, "healed from the dirty copy");
        assert!(e.quarantined_pages().is_empty());
        assert_eq!(e.store().read_page(pid(6)).unwrap().data()[0], 0x66);
    }

    #[test]
    fn execute_heals_damaged_readset_pages() {
        let (mut e, _) = healing_engine();
        // Bounded cache forces the evaluation to re-read page 0 from S.
        e.cache.evict(pid(0)).unwrap();
        e.install_fault_hook(Some(once_read_hook(pid(0), FaultVerdict::CorruptRead)));
        let lsn = e.execute(copy(0, 10)).unwrap();
        assert!(!lsn.is_null());
        assert_eq!(e.read_page(pid(10)).unwrap().data()[0], 1);
        assert_eq!(e.stats().repairs, 1);
        assert_eq!(e.stats().ops_executed, 9, "8 setup writes + the copy");
    }

    #[test]
    fn transient_image_reads_retry_under_backoff() {
        let (mut e, _) = healing_engine();
        // Image fetches fail transiently twice, then succeed.
        let count = AtomicUsize::new(0);
        e.install_fault_hook(Some(Arc::new(move |ev, _| {
            if ev == IoEvent::ImageRead && count.fetch_add(1, Ordering::Relaxed) < 2 {
                FaultVerdict::TransientRead
            } else {
                FaultVerdict::Proceed
            }
        })));
        e.store().quarantine_page(pid(7)).unwrap();
        let report = e.repair_page(pid(7)).unwrap();
        assert_eq!(report.retries, 2);
        assert!(report.backoff_ticks > 0);
        assert_eq!(e.stats().transient_retries, 2);
        assert_eq!(e.store().read_page(pid(7)).unwrap().data()[0], 8);
    }

    #[test]
    fn repair_partition_scrubs_and_heals_everything() {
        let (mut e, gen) = healing_engine();
        e.store().quarantine_page(pid(1)).unwrap();
        e.store().quarantine_page(pid(2)).unwrap();
        let reports = e.repair_partition(PartitionId(0)).unwrap();
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.generation_used == gen));
        assert!(e.quarantined_pages().is_empty());
        assert_eq!(e.read_page(pid(1)).unwrap().data()[0], 2);
        assert_eq!(e.read_page(pid(2)).unwrap().data()[0], 3);
    }

    #[test]
    fn repair_during_active_backup_sweep_is_atomic() {
        let (mut e, _) = healing_engine();
        // Start an on-line sweep, advance it halfway…
        let mut run = e.begin_backup(4).unwrap();
        e.backup_step(&mut run).unwrap();
        // …heal a page in the already-copied region mid-sweep…
        e.cache.evict(pid(0)).unwrap();
        e.install_fault_hook(Some(once_read_hook(pid(0), FaultVerdict::CorruptRead)));
        assert_eq!(e.read_page(pid(0)).unwrap().data()[0], 1);
        e.install_fault_hook(None);
        assert!(e.quarantined_pages().is_empty());
        // …and the sweep completes into a restorable image: repair never
        // exposed an intermediate (backup-vintage) state to the sweep.
        while !e.backup_step(&mut run).unwrap() {}
        let image = e.complete_backup(run).unwrap();
        assert!(e.audit_backup(&image).unwrap().is_empty());
    }

    #[test]
    fn backup_sweep_copy_read_heals_online() {
        let (mut e, _) = healing_engine();
        // Damage surfaces under the sweep's own copy read of page 2: the
        // step fails, the engine repairs the page, and the retried step
        // (cursor untouched) re-copies identical bytes.
        e.cache.evict(pid(2)).unwrap();
        e.install_fault_hook(Some(once_read_hook(pid(2), FaultVerdict::CorruptRead)));
        let mut run = e.begin_backup(2).unwrap();
        while !e.backup_step(&mut run).unwrap() {}
        e.install_fault_hook(None);
        assert!(e.stats().repairs >= 1);
        assert!(e.quarantined_pages().is_empty());
        let image = e.complete_backup(run).unwrap();
        assert!(e.audit_backup(&image).unwrap().is_empty());
    }

    // ------------------------------------------------------------------
    // Instant restore (§5.13)
    // ------------------------------------------------------------------

    use lob_pagestore::PartitionSpec;
    use lob_recovery::SegmentState;

    fn page_at(p: u32, i: u32, fill: u8) -> OpBody {
        OpBody::PhysicalWrite {
            target: PageId::new(p, i),
            value: Bytes::from(vec![fill; 256]),
        }
    }

    /// A hook killing the process model at the first occurrence of
    /// `target` only.
    fn once_event_hook(target: IoEvent) -> lob_pagestore::FaultHook {
        let fired = AtomicBool::new(false);
        Arc::new(move |ev, _| {
            if ev == target && !fired.swap(true, Ordering::Relaxed) {
                FaultVerdict::Crash
            } else {
                FaultVerdict::Proceed
            }
        })
    }

    /// An engine over `parts` partitions with 8 flushed pages each
    /// (fill `p*8 + i + 1`), a full backup registered with a page-indexed
    /// archive, and a logged tail past the backup (page 0 of every
    /// partition overwritten with `0xA0 + p`).
    fn instant_engine(parts: u32) -> (Engine, u64) {
        let mut e = Engine::new(EngineConfig {
            partitions: (0..parts).map(|_| PartitionSpec { pages: 16 }).collect(),
            tracking: Tracking::Sequential((0..parts).map(PartitionId).collect()),
            ..EngineConfig::small()
        })
        .unwrap();
        for p in 0..parts {
            for i in 0..8 {
                e.execute(page_at(p, i, (p * 8 + i) as u8 + 1)).unwrap();
            }
        }
        let image = e.offline_backup().unwrap();
        let gen = image.backup_id;
        e.register_backup_generation(image).unwrap();
        e.extend_backup_archive(gen).unwrap();
        for p in 0..parts {
            e.execute(page_at(p, 0, 0xA0 + p as u8)).unwrap();
        }
        e.flush_all().unwrap();
        (e, gen)
    }

    fn fail_all(e: &Engine, parts: u32) {
        for p in 0..parts {
            e.store().fail_partition(PartitionId(p)).unwrap();
        }
    }

    #[test]
    fn instant_restore_serves_reads_and_writes_mid_epoch() {
        let (mut e, _) = instant_engine(4);
        fail_all(&e, 4);
        e.begin_instant_restore().unwrap();
        assert!(e.instant_restore_active());
        // A foreground read faults exactly its own segment in…
        assert_eq!(e.read_page(PageId::new(1, 0)).unwrap().data()[0], 0xA1);
        assert_eq!(
            e.instant_segment_state(PartitionId(1)),
            Some(SegmentState::Restored)
        );
        // …while unrequested segments stay failed: bounded degradation,
        // not a wait for the whole device.
        assert_eq!(
            e.instant_segment_state(PartitionId(2)),
            Some(SegmentState::Failed)
        );
        // A write is gated on every partition its sets touch.
        e.execute(OpBody::Logical(LogicalOp::Copy {
            src: PageId::new(0, 1),
            dst: PageId::new(2, 9),
        }))
        .unwrap();
        assert_eq!(
            e.instant_segment_state(PartitionId(0)),
            Some(SegmentState::Restored)
        );
        assert_eq!(
            e.instant_segment_state(PartitionId(2)),
            Some(SegmentState::Restored)
        );
        // The untouched fourth segment is left to the background sweep.
        assert_eq!(
            e.instant_segment_state(PartitionId(3)),
            Some(SegmentState::Failed)
        );
        e.instant_restore_drain().unwrap();
        assert!(!e.instant_restore_active());
        let s = e.stats();
        assert_eq!(s.instant_epochs, 1);
        assert_eq!(s.instant_completions, 1);
        assert_eq!(s.instant_on_demand, 3, "read + the write's two segments");
        assert_eq!(s.instant_swept, 1);
        // The copy executed against restored state: src held fill 2.
        assert_eq!(e.read_page(PageId::new(2, 9)).unwrap().data()[0], 2);
    }

    #[test]
    fn restored_segment_requests_are_noops_during_the_sweep() {
        let (mut e, _) = instant_engine(2);
        fail_all(&e, 2);
        e.begin_instant_restore().unwrap();
        e.read_page(PageId::new(0, 3)).unwrap();
        let first = e.instant_restore_stats().unwrap();
        assert_eq!(first.on_demand_restores, 1);
        // A second and third request for the same segment — the "racing
        // requests" shape, serialized here — must not restore it again.
        e.read_page(PageId::new(0, 5)).unwrap();
        e.read_page(PageId::new(0, 3)).unwrap();
        let second = e.instant_restore_stats().unwrap();
        assert_eq!(second.on_demand_restores, 1);
        assert_eq!(second.run_fetches, first.run_fetches);
        // The untouched segment is left to the background sweep.
        e.instant_restore_drain().unwrap();
        assert_eq!(e.stats().instant_swept, 1);
        assert_eq!(e.read_page(PageId::new(1, 0)).unwrap().data()[0], 0xA1);
    }

    #[test]
    fn corrupt_newest_archive_run_falls_back_a_generation() {
        let (mut e, _old_gen) = instant_engine(2);
        // A newer generation, also archived, then more history so its
        // archive holds a run for partition 0's page 0…
        let newer = e.offline_backup().unwrap();
        let newer_id = newer.backup_id;
        e.register_backup_generation(newer).unwrap();
        e.extend_backup_archive(newer_id).unwrap();
        e.execute(page_at(0, 0, 0xC0)).unwrap();
        e.flush_all().unwrap();
        e.extend_backup_archive(newer_id).unwrap();
        // …and that newest run rots. The restore must detect the checksum
        // mismatch and fall back to the older generation's intact archive,
        // replaying the longer suffix to the same bytes.
        e.catalog()
            .tamper_archive_run(newer_id, PageId::new(0, 0))
            .unwrap();
        fail_all(&e, 2);
        e.begin_instant_restore().unwrap();
        assert_eq!(e.read_page(PageId::new(0, 0)).unwrap().data()[0], 0xC0);
        let st = e.instant_restore_stats().unwrap();
        assert!(st.generation_fallbacks >= 1, "stats: {st:?}");
        e.instant_restore_drain().unwrap();
        assert_eq!(e.read_page(PageId::new(0, 1)).unwrap().data()[0], 2);
        assert_eq!(e.read_page(PageId::new(1, 0)).unwrap().data()[0], 0xA1);
    }

    #[test]
    fn instant_restore_with_an_empty_log_suffix() {
        // No history past the backup at all: the generation's control and
        // per-page runs are empty — an intact state, not a corrupt one.
        let mut e = engine();
        for i in 0..4 {
            e.execute(phys(i, i as u8 + 1)).unwrap();
        }
        let image = e.offline_backup().unwrap();
        let gen = image.backup_id;
        e.register_backup_generation(image).unwrap();
        e.extend_backup_archive(gen).unwrap();
        e.store().fail_partition(PartitionId(0)).unwrap();
        e.begin_instant_restore().unwrap();
        e.instant_restore_drain().unwrap();
        for i in 0..4 {
            assert_eq!(e.read_page(pid(i)).unwrap().data()[0], i as u8 + 1);
        }
        assert_eq!(e.stats().instant_completions, 1);
    }

    #[test]
    fn begin_builds_the_missing_archive_on_the_newest_generation() {
        // A registered generation without an archive: entering the epoch
        // builds one (from the generation's own log suffix) rather than
        // refusing — with an empty catalog it refuses instead.
        let (mut e, _) = healing_engine();
        e.execute(phys(0, 0x77)).unwrap();
        e.flush_all().unwrap();
        e.store().fail_partition(PartitionId(0)).unwrap();
        e.begin_instant_restore().unwrap();
        e.instant_restore_drain().unwrap();
        assert_eq!(e.read_page(pid(0)).unwrap().data()[0], 0x77);

        let mut bare = engine();
        bare.execute(phys(0, 1)).unwrap();
        bare.flush_all().unwrap();
        bare.store().fail_partition(PartitionId(0)).unwrap();
        assert!(bare.begin_instant_restore().is_err());
    }

    #[test]
    fn mid_restore_kill_reenters_and_byte_verifies() {
        let (mut e, _) = instant_engine(2);
        let mut want = Vec::new();
        for p in 0..2 {
            for i in 0..8 {
                let id = PageId::new(p, i);
                want.push((id, e.read_page(id).unwrap().data().clone()));
            }
        }
        e.flush_all().unwrap();
        fail_all(&e, 2);
        // The first segment install dies mid-epoch: the install went to
        // the still-failed partition, so the commit point (clearing the
        // failure flag) was never reached.
        e.install_fault_hook(Some(once_event_hook(IoEvent::SegmentInstall)));
        e.begin_instant_restore().unwrap();
        let err = e.instant_restore_drain().unwrap_err();
        assert!(err.is_injected_crash(), "got {err}");
        e.crash();
        assert!(!e.instant_restore_active());
        // Reboot re-entry: every segment is re-derived from archive +
        // image, and the interrupted one is simply restored again.
        e.recover_instant().unwrap();
        e.instant_restore_drain().unwrap();
        assert_eq!(e.stats().instant_reboots, 1);
        for (id, bytes) in want {
            assert_eq!(e.read_page(id).unwrap().data(), &bytes, "page {id}");
        }
    }

    #[test]
    fn online_backup_sweep_completes_during_instant_restore() {
        let (mut e, _) = instant_engine(2);
        fail_all(&e, 2);
        e.begin_instant_restore().unwrap();
        // The sweep's copy reads hit failed partitions: each miss faults
        // the segment in (degraded mode) and the step retries.
        let mut run = e.begin_backup(4).unwrap();
        while !e.backup_step(&mut run).unwrap() {}
        let image = e.complete_backup(run).unwrap();
        e.instant_restore_drain().unwrap();
        assert!(e.audit_backup(&image).unwrap().is_empty());
        assert_eq!(e.read_page(PageId::new(1, 0)).unwrap().data()[0], 0xA1);
    }

    #[test]
    fn archive_indexed_repair_scans_fewer_records_than_the_suffix_scan() {
        // Twin engines with identical histories; only one generation has a
        // page-indexed archive. The indexed repair must examine fewer
        // records and produce byte-identical results.
        let mk = |archive: bool| {
            let mut e = engine();
            for i in 0..8 {
                e.execute(phys(i, i as u8 + 1)).unwrap();
            }
            let image = e.offline_backup().unwrap();
            let gen = image.backup_id;
            e.register_backup_generation(image).unwrap();
            if archive {
                e.extend_backup_archive(gen).unwrap();
            }
            // Post-backup history with independent strands: only the copy
            // belongs to page 1's closure; the other six writes do not.
            e.execute(copy(0, 1)).unwrap();
            for i in 2..8 {
                e.execute(phys(i, 0x40 + i as u8)).unwrap();
            }
            e.flush_all().unwrap();
            e.store().quarantine_page(pid(1)).unwrap();
            e
        };
        let mut indexed = mk(true);
        let mut scanned = mk(false);
        let ri = indexed.repair_page(pid(1)).unwrap();
        let rs = scanned.repair_page(pid(1)).unwrap();
        assert!(ri.index_used);
        assert!(!rs.index_used);
        assert!(
            ri.records_scanned < rs.records_scanned,
            "indexed examined {} records, suffix scan {}",
            ri.records_scanned,
            rs.records_scanned
        );
        assert_eq!(indexed.stats().repair_index_hits, 1);
        assert_eq!(scanned.stats().repair_index_hits, 0);
        assert_eq!(
            indexed.store().read_page(pid(1)).unwrap().data(),
            scanned.store().read_page(pid(1)).unwrap().data(),
            "index and scan repairs must agree byte-for-byte"
        );
    }
}
