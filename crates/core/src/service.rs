//! # The engine core
//!
//! [`EngineService`] is the one engine: it executes logged operations,
//! flushes in write-graph order with the paper's backup coordination,
//! takes backups, and recovers from crashes and media failures. Every verb
//! has one body here, self-healing and the instant-restore epoch included:
//!
//! * with a backup generation registered, `read_page`, `execute` and
//!   `backup_step_batch` share one heal policy: transient I/O errors retry
//!   under backoff, detected damage is repaired online, and a failed
//!   medium is restored segment by segment during an epoch;
//! * during an instant-restore epoch, reads and writes gate on their own
//!   segment's prioritized restore while the background sweep restores
//!   the rest.
//!
//! Two fronts drive it: [`Session`] handles, cheap clones that many
//! threads drive concurrently over one `Arc<EngineService>`, and
//! [`crate::Engine`], a one-session service (one cache shard, a closed
//! gather window) that derefs to it.
//!
//! The core shards its mutable state by the axis the paper already
//! partitions work on — the backup coordinator's domains (§3.4) — so
//! sessions touching disjoint domains never serialize on an engine-global
//! lock:
//!
//! * the page cache is a [`ShardedCache`] (per-shard locks keyed by a
//!   page-id hash);
//! * the write graph, successor table, page allocator and linked-flush
//!   images are **per-domain**, each domain behind its own lock;
//! * log appends and forces go through the [`GroupCommitLog`]
//!   group-commit scheduler, so concurrent commits share force (and, on a
//!   sync-enabled file log, `fsync`) round-trips;
//! * the stable store, the backup coordinator and the backup-generation
//!   catalog are internally synchronized `Arc`-shared structures that
//!   backup worker threads race against.
//!
//! A backup sweep reads `S` under the store's partition locks and the
//! tracker's latch, neither of which a session's domain lock nests inside,
//! so sweeps keep running under concurrent write load.
//!
//! ## Lock order
//!
//! Every lock is ranked, and [`lob_pagestore::witness::Rank`] is the one
//! statement of the order: a flush takes its domain lock, then the tracker
//! latch, then forces through the group-commit locks and writes out
//! through a cache shard into a store partition. The epoch lock ranks
//! lowest: it is held across a segment restore (store and catalog I/O),
//! and an epoch that completes releases it before truncating the log. The
//! witness checks the order at every acquisition in the test build.

use crate::config::{BackupPolicy, Discipline, EngineConfig, FlushPolicy, LogBacking, Tracking};
use crate::engine::{mirror_linked, LinkedBackupRun};
use crate::error::EngineError;
use crate::stats::{EngineStats, Stat, STATS};
use bytes::Bytes;
use lob_backup::{
    BackupCatalog, BackupCoordinator, BackupError, BackupImage, BackupRun, DomainId, ParallelSweep,
    RunConfig, SuccessorTable,
};
use lob_cache::{CacheError, ShardedCache};
use lob_ops::{OpBody, OpError, PageReader, TreeForm};
use lob_pagestore::witness::{Mutex, MutexGuard, Rank};
use lob_pagestore::{
    CorruptionEntry, Lsn, Page, PageId, PageImage, PartitionId, StableStore, StoreConfig,
    StoreError,
};
use lob_recovery::repair::{
    regenerate, BackoffSchedule, ClosureSource, FetchCost, RepairReport, Unusable,
};
use lob_recovery::{
    parallel_install_image, parallel_install_partition, parallel_redo_scan, InstantRestore,
    InstantStats, NodeId, RecoveryConfig, RedoOutcome, SegmentState, WriteGraph,
};
use lob_wal::{
    Committer, FileLogStore, FrameView, GroupCommitLog, LogError, LogManager, RecordBody,
    RecordKind,
};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Attempts per faultable read when the medium reports *transient* I/O
/// errors: the first try plus three retries, spaced by the deterministic
/// [`BackoffSchedule`] (virtual ticks — repair never consults a clock).
const REPAIR_FETCH_ATTEMPTS: u32 = 4;

/// Bound on heal rounds for one verb before its error propagates to the
/// caller (each round retries a transient error or fixes one damaged page
/// or pending segment).
const HEAL_ROUNDS: u32 = 6;

/// Per-domain mutable state: the §3.5 machinery, instantiated once per
/// backup domain so domain-disjoint sessions proceed in parallel.
struct DomainState {
    /// Write graph of uninstalled operations in this domain.
    graph: WriteGraph,
    /// Successor metadata for the §4.2 tree decision.
    succ: SuccessorTable,
    /// Next never-updated page index per partition of this domain.
    next_free: BTreeMap<PartitionId, u32>,
    /// Images of in-progress linked-flush backups; this domain's flushes
    /// mirror into them.
    linked: Vec<(u64, Arc<Mutex<PageImage>>)>,
}

impl DomainState {
    /// Drop the volatile §3.5 state (crash, or the domain's media was
    /// replaced).
    fn reset(&mut self, config: &EngineConfig) {
        self.graph = WriteGraph::new(config.graph_mode);
        self.succ.clear_all();
    }
}

/// Cross-domain bookkeeping: backup identity, retention, and the
/// installed fault hook. Cold path — taken only by backup begin/complete
/// and crash/recover, never by execute or flush.
struct ServiceMeta {
    next_backup_id: u64,
    /// Backups whose media-recovery log suffix must be retained.
    retained: Vec<(u64, Lsn)>,
    /// Changed-page sets taken by in-flight backups (full backups consume
    /// their domain's changed pages; incremental backups use them as the
    /// copy filter), restored if the backup aborts.
    taken_changed: Vec<(u64, HashSet<PageId>)>,
    hook: Option<lob_pagestore::FaultHook>,
}

/// The engine core. Construct once, wrap in an [`Arc`], and hand out
/// [`Session`]s with [`EngineService::session`] — or drive it through the
/// one-session [`crate::Engine`]. See the module docs for the sharding and
/// lock-order story.
pub struct EngineService {
    config: EngineConfig,
    store: Arc<StableStore>,
    coordinator: Arc<BackupCoordinator>,
    log: GroupCommitLog,
    cache: ShardedCache,
    catalog: Arc<BackupCatalog>,
    /// One lock per backup domain, indexed by `DomainId.0`.
    domains: Vec<Mutex<DomainState>>,
    /// Cross-domain backup bookkeeping.
    meta: Mutex<ServiceMeta>,
    /// The in-flight instant-restore epoch, if media recovery is serving
    /// in degraded mode; `None` is normal operation.
    instant: Mutex<Option<InstantRestore>>,
    /// Whether `instant` holds an epoch. Written only with `instant`
    /// held, read without it: normal operation's segment gate is one load.
    instant_active: AtomicBool, // lint: atomic(acq-rel)
    /// Monotone activity counters, indexed by [`Stat`].
    counters: [AtomicU64; STATS], // lint: atomic(relaxed-counter)
}

/// An evaluated operation: its domain's guard and the pages it writes.
type Evaluated<'a> = (MutexGuard<'a, DomainState>, Vec<(PageId, Bytes)>);

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
        EngineService::build(config, false, false)
    }

    /// Resume from an existing log file after a process restart: the
    /// stable database starts formatted (the "disk" of this simulation is
    /// in memory), and [`EngineService::recover`] rebuilds it by replaying
    /// the entire surviving log.
    pub fn open_existing(config: EngineConfig) -> Result<EngineService, EngineError> {
        EngineService::build(config, true, false)
    }

    /// The one constructor. `existing` resumes the file log instead of
    /// creating it. `one_session` builds the core the one-session
    /// [`crate::Engine`] needs: one cache shard and a closed gather window,
    /// since nobody can contend for a shard or join a commit group.
    pub(crate) fn build(
        config: EngineConfig,
        existing: bool,
        one_session: bool,
    ) -> Result<EngineService, EngineError> {
        let manager = match (&config.log, existing) {
            (LogBacking::Memory, false) => LogManager::in_memory(),
            (LogBacking::Memory, true) => {
                return Err(EngineError::Discipline(
                    "open_existing requires a file-backed log".into(),
                ))
            }
            (LogBacking::File(path), _) => {
                let mut file = if existing {
                    FileLogStore::open(path)
                } else {
                    FileLogStore::create(path)
                }
                .map_err(LogError::Io)?;
                file.set_sync(config.commit.sync_file_log);
                if existing {
                    LogManager::from_existing(Box::new(file))?
                } else {
                    LogManager::new(Box::new(file))
                }
            }
        };
        let (shards, delay, count) = if one_session {
            (1, Duration::ZERO, 1)
        } else {
            (
                config.cache_shards,
                Duration::from_micros(config.commit.group_commit_delay_micros),
                config.commit.group_commit_count,
            )
        };
        let (store, coordinator) = open_store(&config)?;
        let mut domains: Vec<Mutex<DomainState>> = (0..coordinator.domain_count())
            .map(|d| {
                Mutex::indexed(
                    Rank::Domain,
                    d as usize,
                    DomainState {
                        graph: WriteGraph::new(config.graph_mode),
                        succ: SuccessorTable::new(),
                        next_free: BTreeMap::new(),
                        linked: Vec::new(),
                    },
                )
            })
            .collect();
        for p in (0..config.partitions.len() as u32).map(PartitionId) {
            if let Some(d) = coordinator.domain_of(p) {
                if let Some(m) = domains.get_mut(d.0 as usize) {
                    m.get_mut().next_free.insert(p, 0);
                }
            }
        }
        let svc = EngineService {
            log: GroupCommitLog::new(manager, delay, count),
            cache: ShardedCache::new(shards, config.cache_capacity),
            catalog: Arc::new(BackupCatalog::new()),
            store,
            coordinator,
            domains,
            meta: Mutex::new(
                Rank::Meta,
                ServiceMeta {
                    next_backup_id: 1,
                    retained: Vec::new(),
                    taken_changed: Vec::new(),
                    hook: None,
                },
            ),
            instant: Mutex::new(Rank::Instant, None),
            instant_active: AtomicBool::new(false),
            counters: Default::default(),
            config,
        };
        if existing {
            // Rebuild the retained-backup set from the surviving
            // BackupBegin records, so the media barrier keeps protecting
            // every backup's log suffix across the restart. (Superseded
            // backups are released explicitly with
            // [`EngineService::release_backup`], exactly as before the
            // restart.)
            // Frames are read in place; only control records are decoded.
            let mut meta = svc.meta.lock();
            svc.log.scan(svc.log.truncation(), |frames| {
                for (_, frame) in frames.iter() {
                    let view = FrameView::parse(frame).map_err(LogError::from)?;
                    if view.kind() != RecordKind::Control {
                        continue;
                    }
                    if let RecordBody::BackupBegin {
                        backup_id,
                        start_lsn,
                    } = view.to_record().body
                    {
                        meta.retained.push((backup_id, start_lsn));
                        meta.next_backup_id = meta.next_backup_id.max(backup_id + 1);
                    }
                }
                Ok::<_, LogError>(())
            })??;
            svc.refresh_media_barrier(&meta);
        }
        Ok(svc)
    }

    /// A handle for one session of work; clone-free to create, `Send`,
    /// and safe to drive from its own thread. The session is a registered
    /// committer of the group-commit log until its last clone drops.
    pub fn session(self: &Arc<Self>) -> Session {
        Session(Arc::new(SessionInner {
            committer: self.log.register(),
            svc: Arc::clone(self),
            logged: AtomicU64::new(Lsn::NULL.raw()),
        }))
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

    /// The group-commit log.
    pub fn log(&self) -> &GroupCommitLog {
        &self.log
    }

    /// The sharded page cache.
    pub fn cache(&self) -> &ShardedCache {
        &self.cache
    }

    /// The backup-generation catalog (shared with repair drills). Empty
    /// catalog = self-healing disengaged.
    pub fn catalog(&self) -> &Arc<BackupCatalog> {
        &self.catalog
    }

    /// Engine statistics. `iwof_bytes` is derived from the log's
    /// identity-write accounting.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            iwof_bytes: self.log.stats().identity_bytes(),
            ..EngineStats::load(&self.counters)
        }
    }

    /// Durable-log statistics (forces, frames, identity bytes).
    pub fn log_stats(&self) -> lob_wal::LogStats {
        self.log.stats()
    }

    /// Run `f` over one domain's live write graph.
    pub fn with_graph<R>(
        &self,
        domain: DomainId,
        f: impl FnOnce(&WriteGraph) -> R,
    ) -> Result<R, EngineError> {
        Ok(f(&self.lock_domain(domain)?.graph))
    }

    /// Count `n` more of `stat`.
    fn bump(&self, stat: Stat, n: u64) {
        if let Some(c) = self.counters.get(stat as usize) {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    fn lock_domain(&self, d: DomainId) -> Result<MutexGuard<'_, DomainState>, EngineError> {
        Ok(self
            .domains
            .get(d.0 as usize)
            .ok_or_else(|| EngineError::Discipline(format!("no such backup domain {d:?}")))?
            .lock())
    }

    /// Every domain lock, in ascending index order.
    fn lock_domains(&self) -> Vec<MutexGuard<'_, DomainState>> {
        self.domains.iter().map(|m| m.lock()).collect()
    }

    /// The domain owning `partition`.
    fn domain_of(&self, partition: PartitionId) -> Result<DomainId, EngineError> {
        self.coordinator
            .domain_of(partition)
            .ok_or(EngineError::Store(StoreError::NoSuchPartition(partition)))
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

    /// Discipline and confinement check; returns the single domain the
    /// operation touches (domain 0 for page-free operations).
    fn check_discipline(&self, body: &OpBody) -> Result<DomainId, EngineError> {
        let domain = confined_domain(&self.coordinator, body)?;
        check_discipline(self.config.discipline, body, |p| {
            Ok(self.cache.page_lsn(p, &self.store)?)
        })?;
        Ok(domain.unwrap_or(DomainId(0)))
    }

    /// Execute a logged operation: evaluate it against the cache, append
    /// its log record, install the results in the cache (dirty), and update
    /// the write graph and successor metadata. The operation's domain lock
    /// serializes same-domain sessions; the log append and cache installs
    /// are internally synchronized. Returns the record's LSN.
    ///
    /// During an instant-restore epoch every segment the read and write
    /// sets touch is made servable first. With a backup generation
    /// registered, a read-set page whose fetch fails is healed and the
    /// evaluation run again ([`EngineService::healing`]); evaluation
    /// precedes the log append, so a retry never double-logs.
    pub fn execute(&self, body: OpBody) -> Result<Lsn, EngineError> {
        self.gate_op(&body)?;
        body.validate()?;
        let (mut dom, outputs) = self.healing(|| self.evaluate(&body))?;
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
        self.bump(Stat::ops_executed, 1);
        Ok(lsn)
    }

    /// Check the discipline, take the operation's domain lock and evaluate
    /// the operation against the cache. A failed evaluation changes nothing
    /// and releases the lock, so a repair between attempts never runs
    /// under it.
    fn evaluate(&self, body: &OpBody) -> Result<Evaluated<'_>, EngineError> {
        let domain = self.check_discipline(body)?;
        let dom = self.lock_domain(domain)?;
        let mut reader = ShardReader {
            cache: &self.cache,
            store: &self.store,
        };
        let outputs = body.apply(&mut reader)?;
        Ok((dom, outputs))
    }

    /// Current value of a page (read through the cache).
    ///
    /// During an instant-restore epoch the read blocks only on its own
    /// segment's (prioritized) restore, never on the whole device. With a
    /// backup generation registered a failed read self-heals
    /// ([`EngineService::healing`]); with an empty catalog the error
    /// propagates untouched (a quarantined slot as the typed
    /// [`EngineError::Quarantined`]).
    pub fn read_page(&self, id: PageId) -> Result<Page, EngineError> {
        self.ensure_segment(id.partition)?;
        self.healing(|| self.cache.get(id, &self.store).map_err(lift_cache_err))
    }

    /// Allocate a fresh (never-updated) page in `partition` — the `new`
    /// object of a write-new tree operation.
    pub fn alloc_page(&self, partition: PartitionId) -> Result<PageId, EngineError> {
        let domain = self.domain_of(partition)?;
        let total = self.store.page_count(partition)?;
        let mut dom = self.lock_domain(domain)?;
        let next = dom
            .next_free
            .get_mut(&partition)
            .ok_or(EngineError::Store(StoreError::NoSuchPartition(partition)))?;
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
    pub fn reserve_pages(&self, partition: PartitionId, upto: u32) {
        let Ok(mut dom) = self.domain_of(partition).and_then(|d| self.lock_domain(d)) else {
            return;
        };
        if let Some(n) = dom.next_free.get_mut(&partition) {
            *n = (*n).max(upto);
        }
    }

    /// Raise every allocator past everything `S` holds (after a recovery
    /// wrote pages the allocator never handed out).
    fn reseed_allocator(&self) -> Result<(), EngineError> {
        reseed(&self.store, &mut self.lock_domains())
    }

    /// Install one write-graph node (it must have no predecessors): decide
    /// Iw/oF per object under the backup latch, log identity writes where
    /// required, flush the node's `vars` to `S` (WAL-protocol-checked), and
    /// remove the node. This is the cache-management algorithm of §3.5.
    fn install_one_node(&self, dom: &mut DomainState, node: NodeId) -> Result<(), EngineError> {
        let vars: Vec<PageId> = dom.graph.vars(node)?.to_vec();
        // WAL rule for steals: if a blind write emptied (part of) this
        // node's vars, the thief's record must be durable before the node
        // installs — otherwise a crash leaves the stolen object's value
        // with no source (not in S, not regenerable: the replay inputs may
        // already be overwritten in S by the time recovery runs).
        let wal_floor = dom.graph.wal_floor(node)?;
        if vars.is_empty() {
            // No flush, but the WAL floor must still be durable first.
            self.log.force(self.force_target(wal_floor))?;
            dom.graph.install_node(node)?;
            self.bump(Stat::nodes_installed_free, 1);
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
                    Discipline::Tree => latch.decide_tree(v, dom.succ.get(v)),
                };
                if needs {
                    iwof.push(v);
                }
            }
        }

        // Log identity writes. Each steals its object from `node` into a
        // fresh single-object node, installed below by the same flush.
        let mut identity_nodes: Vec<NodeId> = Vec::new();
        for &v in &iwof {
            identity_nodes.push(self.log_identity_write(dom, v)?);
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
            .write_out(&vars, &self.store, self.log.durable_lsn())
            .map_err(lift_cache_err)?;
        self.bump(Stat::pages_flushed, vars.len() as u64);

        // Feed the incremental changed-set, and mirror into any
        // in-progress linked-flush backups.
        self.coordinator.note_flushed(&vars);
        mirror_linked(&dom.linked, &vars, &self.cache);

        // The flush installed the node's remaining ops and every identity
        // write (identity writes never merge into another node).
        dom.graph.install_node(node)?;
        self.bump(Stat::nodes_flushed, 1);
        for n in identity_nodes {
            dom.graph.install_node(n)?;
        }
        for &v in &vars {
            dom.succ.clear(v);
        }
        drop(latch);
        Ok(())
    }

    /// Log an identity write of resident page `v`: the record steals `v`
    /// into its own single-object node, and the page's LSN and rLSN move
    /// to the record (its redo can start there, §3.2). Returns the node.
    fn log_identity_write(&self, dom: &mut DomainState, v: PageId) -> Result<NodeId, EngineError> {
        let page = self.cache.peek(v).ok_or_else(|| {
            EngineError::Internal(format!("identity-write target {v} not resident"))
        })?;
        let body = OpBody::IdentityWrite {
            target: v,
            value: page.data().clone(),
        };
        let ilsn = self.log.append_record(RecordBody::Op(body.clone()));
        self.bump(Stat::iwof_records, 1);
        let n = dom.graph.add_op(ilsn, &body);
        self.cache
            .put_dirty(v, page.with_lsn(ilsn))
            .map_err(lift_cache_err)?;
        self.cache.advance_rlsn(v, ilsn);
        Ok(n)
    }

    /// Flush the node holding `page` (and, first, all its write-graph
    /// ancestors). No-op if the page is clean.
    pub fn flush_page(&self, page: PageId) -> Result<(), EngineError> {
        let mut dom = self.lock_domain(self.domain_of(page.partition)?)?;
        let Some(node) = dom.graph.node_of(page) else {
            if self.cache.is_dirty(page) {
                return Err(EngineError::Internal(format!(
                    "dirty page {page} not owned by any write-graph node"
                )));
            }
            return Ok(());
        };
        for n in dom.graph.flush_plan(node)? {
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

    /// Flush up to `budget` dirty pages, oldest rLSN first (the classic
    /// background-checkpointing policy: it advances the log truncation
    /// point fastest), then truncate the log. Returns the number of pages
    /// that were dirty before the call and are clean after it.
    pub fn flush_oldest(&self, budget: usize) -> Result<usize, EngineError> {
        let mut cleaned = 0;
        for (page, _) in self.cache.dirty_pages_by_rlsn().into_iter().take(budget) {
            if self.cache.is_dirty(page) {
                self.flush_page(page)?;
                cleaned += 1;
            }
        }
        self.truncate_log()?;
        Ok(cleaned)
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
    pub fn install_without_flush(&self, page: PageId) -> Result<(), EngineError> {
        let mut dom = self.lock_domain(self.domain_of(page.partition)?)?;
        let Some(node) = dom.graph.node_of(page) else {
            return Ok(()); // nothing pending
        };
        let plan = dom.graph.flush_plan(node)?;
        let Some((&node, ancestors)) = plan.split_last() else {
            return Ok(());
        };
        for &n in ancestors {
            self.install_one_node(&mut dom, n)?;
        }
        // Each identity write steals its object into its own node, which
        // stays in the graph until the object is eventually flushed;
        // meanwhile the logged value covers recovery and the rLSN advances.
        for v in dom.graph.vars(node)?.to_vec() {
            self.log_identity_write(&mut dom, v)?;
        }
        // All objects stolen: the node installs without any page write.
        dom.graph.install_node(node)?;
        self.bump(Stat::nodes_installed_free, 1);
        Ok(self.log.force(Lsn::MAX)?)
    }

    /// Durably force every appended log record (a commit point: operations
    /// logged so far survive a crash).
    pub fn force_log(&self) -> Result<(), EngineError> {
        Ok(self.log.force(Lsn::MAX)?)
    }

    /// The redo scan start point: the earliest LSN crash recovery could
    /// need. This is also the media-recovery start point a backup records
    /// when it begins (§1.2).
    ///
    /// Holds **every** domain lock at once. `execute` assigns an op's LSN
    /// and makes it visible (cache dirty entry, write-graph node) all under
    /// one domain lock, so a lock-one-at-a-time scan could run inside that
    /// window and see the record in neither structure — and a truncation
    /// bound computed past it would silently drop a committed update from
    /// the next crash recovery.
    pub fn redo_scan_start(&self) -> Lsn {
        self.scan_floor(&self.lock_domains())
    }

    /// The redo floor over already-held domain guards: the minimum
    /// uninstalled write-graph LSN and dirty-page recovery LSN, else the
    /// append point (nothing volatile needs redo).
    fn scan_floor(&self, doms: &[MutexGuard<'_, DomainState>]) -> Lsn {
        doms.iter()
            .filter_map(|dom| dom.graph.min_uninstalled_lsn())
            .chain(self.cache.min_dirty_rlsn())
            .min()
            .unwrap_or_else(|| self.log.next_lsn())
    }

    /// Advance the log truncation point as far as crash recovery and
    /// retained backups permit.
    pub fn truncate_log(&self) -> Result<Lsn, EngineError> {
        let bound = self.redo_scan_start();
        Ok(self.log.truncate(bound)?)
    }

    // ------------------------------------------------------------------
    // Crash and media recovery
    // ------------------------------------------------------------------

    /// Install (or clear) a fault hook on every I/O site the engine owns
    /// or shares: the stable store (page writes), the log (forces and
    /// frame appends), the cache (flush decisions), the backup coordinator
    /// (sweep copies), the catalog (image and archive reads) and the
    /// in-flight epoch's scheduler. One hook observes the system-wide
    /// deterministic I/O event stream.
    pub fn install_fault_hook(&self, hook: Option<lob_pagestore::FaultHook>) {
        if let Some(r) = self.instant.lock().as_mut() {
            r.set_fault_hook(hook.clone());
        }
        let mut meta = self.meta.lock();
        self.store.set_fault_hook(hook.clone());
        self.log.set_fault_hook(hook.clone());
        self.cache.set_fault_hook(hook.clone());
        self.coordinator.set_fault_hook(hook.clone());
        self.catalog.set_fault_hook(hook.clone());
        meta.hook = hook;
    }

    /// The installed fault hook.
    fn fault_hook(&self) -> Option<lob_pagestore::FaultHook> {
        self.meta.lock().hook.clone()
    }

    /// Crash: all volatile state (cache, write graphs, successor tables,
    /// the unforced log tail, in-flight backup trackers, linked-flush
    /// images, the changed-page set and the instant-restore scheduler) is
    /// lost. Concurrent sessions' in-flight calls finish against pre-crash
    /// state or surface typed errors; call [`EngineService::recover`] next
    /// — or [`EngineService::recover_instant`] when an epoch was in flight:
    /// its on-disk progress is exactly the cleared failure flags.
    pub fn crash(&self) {
        {
            let mut slot = self.instant.lock();
            *slot = None;
            self.instant_active.store(false, Ordering::Release);
        }
        let mut meta = self.meta.lock();
        let mut doms = self.lock_domains();
        for dom in doms.iter_mut() {
            dom.reset(&self.config);
            dom.linked.clear();
        }
        self.log.crash();
        self.cache.clear();
        meta.taken_changed.clear();
        // The backup coordinator's trackers and changed set live in the
        // same process: any in-flight sweep dies with it.
        self.coordinator.reset_volatile();
    }

    /// Crash recovery: roll the surviving log suffix forward over `S`
    /// with the workers/batch knobs from [`EngineConfig::recovery`].
    pub fn recover(&self) -> Result<RedoOutcome, EngineError> {
        self.parallel_recover_with(self.config.recovery)
    }

    /// [`EngineService::recover`] with explicit knobs. The recovered state
    /// and the returned [`RedoOutcome`] are the same in every
    /// configuration (the harness byte-checks each recovery against the
    /// record-at-a-time reference scan).
    pub fn parallel_recover_with(
        &self,
        recovery: RecoveryConfig,
    ) -> Result<RedoOutcome, EngineError> {
        self.run_recovery(None, None, Lsn::MAX, recovery)
    }

    /// The one recovery body (DESIGN.md §5.10), holding every lock.
    /// Media recovery — an `image` supplies the seed — forces the log,
    /// drops the volatile state of the replaced media (all of it, or one
    /// `partition`'s domain and cache frames) and clears the failures
    /// first; crash redo starts from what [`EngineService::crash`] left.
    /// Then: install the seed pages, roll the filtered suffix forward,
    /// reseed the allocators.
    fn run_recovery(
        &self,
        image: Option<&BackupImage>,
        partition: Option<PartitionId>,
        upto: Lsn,
        recovery: RecoveryConfig,
    ) -> Result<RedoOutcome, EngineError> {
        let _meta = self.meta.lock();
        let mut doms = self.lock_domains();
        if let Some(image) = image {
            image.check_restorable()?;
            self.log.force(Lsn::MAX)?;
            let replaced = |p: PartitionId| partition.map_or(true, |only| only == p);
            match partition {
                None => self.cache.clear(),
                Some(p) => self.cache.clear_partition(p),
            }
            for p in (0..self.config.partitions.len() as u32).map(PartitionId) {
                if replaced(p) {
                    let d = self.domain_of(p)?;
                    if let Some(dom) = doms.get_mut(d.0 as usize) {
                        dom.reset(&self.config);
                    }
                    self.store.clear_failures(p)?;
                }
            }
        }
        let outcome = self.restore_and_redo(&self.store, image, partition, upto, recovery)?;
        reseed(&self.store, &mut doms)?;
        if image.is_some() {
            self.bump(Stat::media_recoveries, 1);
        } else {
            self.bump(Stat::recoveries, 1);
            // Truncation bound from the already-held guards (re-locking
            // through `redo_scan_start` would self-deadlock).
            self.log.truncate(self.scan_floor(&doms))?;
        }
        Ok(outcome)
    }

    /// Install `image`'s pages into `store` (all of them, or one
    /// `partition`'s; with no image this is crash redo and `S` is its own
    /// seed), then roll the log forward from the seed's start LSN through
    /// the batched replay, keeping only records at or below `upto` and,
    /// for a partition restore, operations touching that partition.
    ///
    /// The suffix is replayed as [`FrameView`]s over the log's own frames,
    /// borrowed for the whole replay through one scan: every frame is
    /// parsed (a frame that does not parse fails the recovery before
    /// anything replays), filtered in place, and decoded only if its LSN
    /// test says it replays. The scan holds the log lock throughout; the
    /// caller holds every domain lock, so no session is waiting on it.
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
                    Some(only) => parallel_install_partition(&image.pages, only, store, recovery)?,
                };
                image.start_lsn
            }
        };
        self.log.scan(from, |frames| {
            let mut views = Vec::with_capacity(frames.len());
            for (_, frame) in frames.iter() {
                let view = FrameView::parse(frame).map_err(LogError::from)?;
                let keep = view.lsn() <= upto
                    && partition.map_or(true, |only| {
                        // The LSN test would make replaying the rest
                        // harmless; restricting the scan shows the §6.3
                        // point: the partition is the recovery unit.
                        let mut touches = false;
                        view.for_each_write(|p| touches |= p.partition == only);
                        view.for_each_read(|p| touches |= p.partition == only);
                        touches
                    });
                if keep {
                    views.push(view);
                }
            }
            Ok(parallel_redo_scan(&views, store, recovery)?)
        })?
    }

    /// Full media recovery: discard volatile state, replace the failed
    /// media, restore every page from the backup image, and roll forward
    /// from the image's start LSN to the current end of the log, with the
    /// workers/batch knobs from [`EngineConfig::recovery`].
    pub fn media_recover(&self, image: &BackupImage) -> Result<RedoOutcome, EngineError> {
        self.parallel_restore_with(image, self.config.recovery)
    }

    /// [`EngineService::media_recover`] with explicit knobs. The recovered
    /// state is the same in every configuration.
    pub fn parallel_restore_with(
        &self,
        image: &BackupImage,
        recovery: RecoveryConfig,
    ) -> Result<RedoOutcome, EngineError> {
        self.run_recovery(Some(image), None, Lsn::MAX, recovery)
    }

    /// Catalog-sourced restore: fetch the newest registered backup
    /// generation (whole-image batched fetch, checksum-verified) and
    /// [`EngineService::media_recover`] from it. This is the operational
    /// "the medium died, recover from whatever backups we hold" entry
    /// point.
    pub fn parallel_restore_latest(&self) -> Result<RedoOutcome, EngineError> {
        self.parallel_restore_latest_with(self.config.recovery)
    }

    /// [`EngineService::parallel_restore_latest`] with explicit recovery
    /// knobs.
    pub fn parallel_restore_latest_with(
        &self,
        recovery: RecoveryConfig,
    ) -> Result<RedoOutcome, EngineError> {
        let newest = self
            .catalog
            .generations()
            .first()
            .copied()
            .ok_or_else(no_generation)?;
        let image = self.catalog.fetch_image(newest)?;
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
        &self,
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

    /// Partition-grained media recovery (§6.3): restore only the failed
    /// partition's pages, then roll forward the operations touching it.
    /// Sound only when operations are partition-confined, i.e. under
    /// per-partition tracking. Every other partition keeps its cached and
    /// uninstalled updates.
    pub fn media_recover_partition(
        &self,
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

    /// Audit a backup: restore it into a scratch store, roll it forward
    /// over the live log, and compare every page against the engine's
    /// current logical state (cache over store). Returns the mismatching
    /// pages (empty = the backup is good).
    ///
    /// This is the operational "can I actually recover from this?" check a
    /// production system runs before trusting an image.
    pub fn audit_backup(&self, image: &BackupImage) -> Result<Vec<PageId>, EngineError> {
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
            for i in 0..self.store.page_count(PartitionId(p))? {
                let id = PageId::new(p, i);
                if self.read_page(id)?.data() != scratch.read_page(id)?.data() {
                    mismatches.push(id);
                }
            }
        }
        Ok(mismatches)
    }

    // ------------------------------------------------------------------
    // Backups
    // ------------------------------------------------------------------

    fn refresh_media_barrier(&self, meta: &ServiceMeta) {
        let barrier = meta.retained.iter().map(|&(_, l)| l).min();
        self.log.set_media_barrier(barrier);
    }

    /// Hand an in-flight backup's taken changed-set back to the
    /// coordinator (the backup aborted, or its begin failed).
    fn restore_taken(&self, meta: &mut ServiceMeta, backup_id: u64) {
        if let Some(i) = meta
            .taken_changed
            .iter()
            .position(|(id, _)| *id == backup_id)
        {
            let (_, changed) = meta.taken_changed.swap_remove(i);
            self.coordinator.restore_changed(changed);
        }
    }

    /// The one backup begin. Both full and incremental backups consume the
    /// domain's changed set: a full backup supersedes it (every page is
    /// captured at or after this point, and flushes during the window are
    /// re-noted); an incremental backup copies exactly it. The domain's
    /// set is taken whole (the coordinator keeps one per domain, so no
    /// other domain's pages are touched) and handed back if the begin
    /// fails.
    fn begin_backup_inner(
        &self,
        domain: DomainId,
        steps: u32,
        base: Option<u64>,
    ) -> Result<BackupRun, EngineError> {
        let mut meta = self.meta.lock();
        let changed = self.coordinator.take_changed(domain);
        let backup_id = meta.next_backup_id;
        let start_lsn = self.redo_scan_start();
        let cfg = RunConfig {
            domain,
            steps,
            filter: base.map(|_| changed.clone()),
            base,
        };
        let run = match BackupRun::begin(&self.coordinator, cfg, backup_id, start_lsn) {
            Ok(run) => run,
            Err(e) => {
                self.coordinator.restore_changed(changed);
                return Err(EngineError::Backup(e));
            }
        };
        meta.taken_changed.push((backup_id, changed));
        meta.next_backup_id += 1;
        self.log.append_record(RecordBody::BackupBegin {
            backup_id,
            start_lsn,
        });
        if let Err(e) = self.log.force(Lsn::MAX) {
            // Abort the run and hand the taken set back (nothing is
            // retained yet): a transient log failure leaves neither a
            // phantom active tracker nor a swallowed changed-page set.
            run.abort(&self.coordinator);
            self.restore_taken(&mut meta, backup_id);
            return Err(e.into());
        }
        meta.retained.push((backup_id, start_lsn));
        self.refresh_media_barrier(&meta);
        self.bump(Stat::backups_begun, 1);
        Ok(run)
    }

    /// Begin an on-line backup of domain 0 in `steps` steps (the common
    /// single-domain case).
    pub fn begin_backup(&self, steps: u32) -> Result<BackupRun, EngineError> {
        self.begin_backup_inner(DomainId(0), steps, None)
    }

    /// Begin an on-line backup of `domain` in `steps` steps. The returned
    /// run is driven with [`EngineService::backup_step_batch`] — from this
    /// or any other thread — while sessions keep executing.
    pub fn begin_backup_of(&self, domain: DomainId, steps: u32) -> Result<BackupRun, EngineError> {
        self.begin_backup_inner(domain, steps, None)
    }

    /// Begin an incremental backup: copy only pages flushed to `S` since
    /// the last completed backup, on top of `base`.
    pub fn begin_incremental_backup(
        &self,
        domain: DomainId,
        steps: u32,
        base: &BackupImage,
    ) -> Result<BackupRun, EngineError> {
        self.begin_backup_inner(domain, steps, Some(base.backup_id))
    }

    /// Advance an on-line backup by one step (copy + cursor advance), one
    /// page per store round-trip: [`EngineService::backup_step_batch`]
    /// with a batch of 1.
    pub fn backup_step(&self, run: &mut BackupRun) -> Result<bool, EngineError> {
        self.backup_step_batch(run, 1)
    }

    /// Advance an on-line backup by one step, copying up to `batch`
    /// contiguous pages per store round-trip
    /// ([`lob_backup::BackupRun::step_batch`]). Between calls, sessions
    /// are free to execute and flush — that is the "on-line" in on-line
    /// backup.
    ///
    /// A sweep copy read heals like any other read
    /// ([`EngineService::healing`]): a failed step leaves the cursor and
    /// tracker untouched, so it is simply run again, re-putting
    /// already-copied pages with identical bytes. During an epoch a copy
    /// that lands on a pending segment waits for that segment's restore.
    pub fn backup_step_batch(&self, run: &mut BackupRun, batch: u32) -> Result<bool, EngineError> {
        self.healing(|| {
            self.bump(Stat::sweep_batches, 1);
            Ok(run.step_batch(&self.coordinator, &self.store, batch)?)
        })
    }

    /// Complete a finished backup run: logs `BackupEnd` and returns the
    /// image. The image's log suffix stays retained until
    /// [`EngineService::release_backup`].
    pub fn complete_backup(&self, run: BackupRun) -> Result<BackupImage, EngineError> {
        let mut meta = self.meta.lock();
        let backup_id = run.backup_id();
        let mut image = run.into_image()?;
        self.log.append_record(RecordBody::BackupEnd { backup_id });
        self.log.force(Lsn::MAX)?;
        image.end_lsn = self.log.durable_lsn();
        meta.taken_changed.retain(|(id, _)| *id != backup_id);
        self.bump(Stat::backups_completed, 1);
        Ok(image)
    }

    /// Abort an in-flight backup run: the tracker deactivates, the log
    /// suffix is released, and the changed-page set merges back.
    pub fn abort_backup(&self, run: BackupRun) {
        let backup_id = run.backup_id();
        run.abort(&self.coordinator);
        self.forget_backup(backup_id);
    }

    /// Hand a backup's changed-page set back and stop retaining its log
    /// suffix.
    fn forget_backup(&self, backup_id: u64) {
        let mut meta = self.meta.lock();
        self.restore_taken(&mut meta, backup_id);
        meta.retained.retain(|&(id, _)| id != backup_id);
        self.refresh_media_barrier(&meta);
    }

    /// Stop retaining log records for a backup (it was superseded or
    /// discarded). Allows the log to truncate past its start LSN.
    pub fn release_backup(&self, backup_id: u64) {
        let mut meta = self.meta.lock();
        meta.retained.retain(|&(id, _)| id != backup_id);
        self.refresh_media_barrier(&meta);
    }

    /// An off-line backup: quiesce (flush everything), then snapshot. The
    /// availability cost is the point of comparison; correctness is
    /// trivial.
    pub fn offline_backup(&self) -> Result<BackupImage, EngineError> {
        self.flush_all()?;
        let pages = self.store.snapshot()?;
        let mut meta = self.meta.lock();
        let backup_id = meta.next_backup_id;
        meta.next_backup_id += 1;
        let start_lsn = self.log.next_lsn();
        meta.retained.push((backup_id, start_lsn));
        self.refresh_media_barrier(&meta);
        self.bump(Stat::backups_begun, 1);
        self.bump(Stat::backups_completed, 1);
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

    /// Back up every domain concurrently — the paper's partition-parallel
    /// scheme (§3.4): one sweep worker thread per coordinator domain, each
    /// copying up to `batch` contiguous pages per store round-trip, `steps`
    /// progress steps per domain. A worker that fails parks its run
    /// (cursor and tracker held); with healing engaged and damage it can
    /// fix, this thread finishes that run through the healing
    /// [`EngineService::backup_step_batch`]. On success every domain's
    /// image is returned, `BackupEnd`-logged, in domain order; on any other
    /// failure every domain is aborted and the error surfaces.
    pub fn parallel_backup(&self, steps: u32, batch: u32) -> Result<Vec<BackupImage>, EngineError> {
        let mut runs = Vec::with_capacity(self.coordinator.domain_count() as usize);
        for d in 0..self.coordinator.domain_count() {
            match self.begin_backup_of(DomainId(d), steps) {
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
            self.bump(Stat::sweep_batches, rep.batches);
            self.bump(Stat::sweep_workers, 1);
            match (rep.outcome, rep.run) {
                (Ok(()), Some(run)) => finished.push(run),
                (Err(e), Some(mut run)) => match self.finish_parked(&mut run, e, batch) {
                    Ok(()) => finished.push(run),
                    Err(e) => {
                        self.abort_backup(run);
                        failure.get_or_insert(e);
                    }
                },
                (outcome, None) => {
                    // The worker panicked and took its run with it: reset
                    // the domain by hand (tracker, changed set, retention).
                    if let Ok(t) = self.coordinator.tracker(rep.domain) {
                        if t.is_active() {
                            t.finish();
                        }
                    }
                    self.forget_backup(rep.backup_id);
                    failure.get_or_insert(EngineError::Backup(outcome.err().unwrap_or_else(
                        || BackupError::BadState("sweep worker lost its run".into()),
                    )));
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
        finished
            .into_iter()
            .map(|run| self.complete_backup(run))
            .collect()
    }

    /// Drive a sweep worker's parked run to its end on this thread, when
    /// healing is engaged and the worker stopped on damage it can fix;
    /// otherwise `e` aborts the backup.
    fn finish_parked(
        &self,
        run: &mut BackupRun,
        e: BackupError,
        batch: u32,
    ) -> Result<(), EngineError> {
        let fixable = matches!(&e, BackupError::Store(s) if Damage::of(s).is_some());
        if !fixable || !self.self_healing() {
            return Err(EngineError::Backup(e));
        }
        while !self.backup_step_batch(run, batch)? {}
        Ok(())
    }

    // ------------------------------------------------------------------
    // Linked-flush backup (the "completely unrealistic" baseline of §1.3)
    // ------------------------------------------------------------------

    /// Begin a linked-flush backup: pages are copied from `S` through the
    /// engine, and every flush during the window is synchronously mirrored
    /// into the image.
    pub fn begin_linked_backup(&self) -> Result<LinkedBackupRun, EngineError> {
        let mut meta = self.meta.lock();
        let backup_id = meta.next_backup_id;
        meta.next_backup_id += 1;
        let start_lsn = self.redo_scan_start();
        self.log.append_record(RecordBody::BackupBegin {
            backup_id,
            start_lsn,
        });
        self.log.force(Lsn::MAX)?;
        meta.retained.push((backup_id, start_lsn));
        self.refresh_media_barrier(&meta);
        self.bump(Stat::backups_begun, 1);
        let image = Arc::new(Mutex::new(Rank::LinkedImage, PageImage::new()));
        for dom in self.lock_domains().iter_mut() {
            dom.linked.push((backup_id, Arc::clone(&image)));
        }
        let mut todo = Vec::new();
        for p in 0..self.config.partitions.len() as u32 {
            todo.extend((0..self.store.page_count(PartitionId(p))?).map(|i| PageId::new(p, i)));
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
        &self,
        run: &mut LinkedBackupRun,
        pages: usize,
    ) -> Result<bool, EngineError> {
        let end = (run.cursor + pages).min(run.todo.len());
        let mut img = run.image.lock();
        for &id in run.todo.get(run.cursor..end).unwrap_or_default() {
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
    pub fn complete_linked_backup(&self, run: LinkedBackupRun) -> Result<BackupImage, EngineError> {
        if run.cursor != run.todo.len() {
            return Err(EngineError::Backup(BackupError::BadState(
                "linked backup incomplete".into(),
            )));
        }
        for dom in self.lock_domains().iter_mut() {
            dom.linked.retain(|(id, _)| *id != run.backup_id);
        }
        self.log.append_record(RecordBody::BackupEnd {
            backup_id: run.backup_id,
        });
        self.log.force(Lsn::MAX)?;
        self.bump(Stat::backups_completed, 1);
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
    // Online repair from the backup chain, and the media-log archive
    // ------------------------------------------------------------------

    /// Register a completed backup image as the newest repair generation.
    /// From this point on, reads, executes and sweep steps self-heal.
    pub fn register_backup_generation(&self, image: BackupImage) -> Result<(), EngineError> {
        Ok(self.catalog.register(image)?)
    }

    /// Retire a generation from the repair catalog, returning its image.
    pub fn retire_backup_generation(&self, backup_id: u64) -> Result<BackupImage, EngineError> {
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
    /// * Otherwise each generation, newest first, regenerates the page
    ///   ([`lob_recovery::repair::regenerate`]: its dependency closure,
    ///   backup-vintage copies, a scratch replay) and only the page is
    ///   installed. No rolled-back state ever exists in `S`, so repair is
    ///   atomic with respect to a running backup sweep. A corrupt, missing,
    ///   or log-truncated generation fails over to the next older one.
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
    pub fn repair_page(&self, id: PageId) -> Result<RepairReport, EngineError> {
        // Scrub evidence first — verify_page consults no fault event and
        // skips quarantined slots, so capture it before quarantining.
        let corruption = self.store.verify_page(id)?;
        self.store.quarantine_page(id)?;
        self.bump(Stat::quarantines, 1);

        if self.cache.is_dirty(id) {
            // The cache holds the newest value; flush it through the
            // normal path (ancestors first, WAL-checked). Generation 0 in
            // the report means "healed from the resident dirty copy".
            self.store.clear_page_failure(id)?;
            self.flush_page(id)?;
            self.bump(Stat::repairs, 1);
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

        let mut cost = FetchCost::default();
        let report = self.repair_from_chain(id, corruption, &mut cost);
        self.bump(Stat::transient_retries, u64::from(cost.retries));
        report
    }

    /// The backup-chain half of [`EngineService::repair_page`]: walk the
    /// generations newest first until one regenerates `id`. `cost`
    /// accumulates every retried fetch, also when the walk fails.
    fn repair_from_chain(
        &self,
        id: PageId,
        corruption: Option<CorruptionEntry>,
        cost: &mut FetchCost,
    ) -> Result<RepairReport, EngineError> {
        self.log.force(Lsn::MAX)?;
        let backoff = self.repair_backoff(id);
        let targets: BTreeSet<PageId> = [id].into();
        let mut generations_tried = Vec::new();
        for backup_id in self.catalog.generations() {
            generations_tried.push(backup_id);
            let start_lsn = self.catalog.start_lsn(backup_id)?;
            // A generation with a page-indexed archive serves the closure
            // from sorted per-page runs instead of a full suffix scan —
            // fewer records examined, and the report's telemetry says so.
            let fetched_before = cost.records;
            let mut regen = Err(EngineError::Backup(BackupError::NoArchive(backup_id)));
            if self.catch_up_archive(backup_id, &backoff, cost)? {
                let own = |c: &BackupCatalog| Ok(vec![(id, c.fetch_records(backup_id, id)?)]);
                let source = ClosureSource::Archive(&own);
                regen = regenerate(&self.catalog, backup_id, &targets, source, &backoff, cost);
                if unusable(&regen) == Some(Unusable::Archive) {
                    self.bump(Stat::repair_index_fallbacks, 1);
                }
            }
            let index_used = unusable(&regen) != Some(Unusable::Archive);
            let mut records_scanned = cost.records - fetched_before;
            if !index_used {
                // A faulty or missing archive falls back to the scan of the
                // *same* generation's media-recovery log suffix. A
                // truncated suffix means the generation was released —
                // fail over (older generations need even earlier records,
                // but the uniform loop keeps the report honest about what
                // was tried).
                let records =
                    match backoff.retry(cost, is_transient_log, || self.log.scan_from(start_lsn)) {
                        Ok(records) => records,
                        Err(LogError::Truncated { .. }) => {
                            self.bump(Stat::repair_fallbacks, 1);
                            continue;
                        }
                        Err(e) => return Err(EngineError::Log(e)),
                    };
                records_scanned = records.len() as u64;
                let source = ClosureSource::Suffix(&records);
                regen = regenerate(&self.catalog, backup_id, &targets, source, &backoff, cost);
            }
            if unusable(&regen) == Some(Unusable::Image) {
                self.bump(Stat::repair_fallbacks, 1);
                continue;
            }
            let (outcome, mut pages) = regen?;
            let closure: Vec<PageId> = pages.keys().copied().collect();
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
            self.bump(Stat::repairs, 1);
            if index_used {
                self.bump(Stat::repair_index_hits, 1);
            }
            return Ok(RepairReport {
                page: id,
                closure,
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
        &self,
        partition: PartitionId,
    ) -> Result<Vec<RepairReport>, EngineError> {
        let targets: BTreeSet<PageId> = self
            .store
            .verify_pages()
            .pages()
            .into_iter()
            .chain(self.store.quarantined_pages())
            .filter(|p| p.partition == partition)
            .collect();
        targets.into_iter().map(|id| self.repair_page(id)).collect()
    }

    /// Catch one generation's archive up to the durable log end, so its
    /// runs cover the suffix a repair replays. `false` sends repair to the
    /// same generation's suffix scan: no archive, or the catch-up read
    /// failed (transient, or behind a released suffix).
    fn catch_up_archive(
        &self,
        backup_id: u64,
        backoff: &BackoffSchedule,
        cost: &mut FetchCost,
    ) -> Result<bool, EngineError> {
        let Some(from) = self.catalog.archive_watermark(backup_id)? else {
            return Ok(false);
        };
        // The frames are cloned out of the scan (one reference each), so
        // the log lock is not held while they are indexed: sessions keep
        // committing beside a repair.
        let scan = || self.log.scan(from, |frames| frames.to_vec());
        let tail = match backoff.retry(cost, is_transient_log, scan) {
            Ok(tail) => tail,
            Err(LogError::Transient | LogError::Truncated { .. }) => {
                self.bump(Stat::repair_index_fallbacks, 1);
                return Ok(false);
            }
            Err(e) => return Err(EngineError::Log(e)),
        };
        // The catch-up indexes each record once per generation — amortized
        // maintenance, not per-repair examination — so it stays out of
        // `records_scanned` (the suffix scan re-examines its records on
        // every repair; that asymmetry is the point of the telemetry).
        self.catalog.extend_archive(backup_id, &tail)?;
        Ok(true)
    }

    /// Catch one generation's page-indexed archive up to the durable end
    /// of the log: force, read the log's frames from the archive's
    /// watermark (its start LSN if no archive exists yet — this call
    /// *creates* the archive), and index them — the archive shares the
    /// log's frame buffers, nothing is decoded into owned records or
    /// re-encoded. Returns the new watermark. Backups keep their archives
    /// current by calling this as the log grows; instant restore calls it
    /// for every archived generation when an epoch begins.
    pub fn extend_backup_archive(&self, backup_id: u64) -> Result<Lsn, EngineError> {
        self.log.force(Lsn::MAX)?;
        let from = match self.catalog.archive_watermark(backup_id)? {
            Some(w) => w,
            None => self.catalog.start_lsn(backup_id)?,
        };
        // Cloned out of the scan, as in `catch_up_archive`: indexing runs
        // beside committing sessions, so it must not hold the log lock.
        let frames = self.log.scan(from, |frames| frames.to_vec())?;
        Ok(self.catalog.extend_archive(backup_id, &frames)?)
    }

    /// Catch every archived generation's archive up to the durable log
    /// end; a catalog with no archive at all gets one built on the newest
    /// generation (the full suffix is indexed in one pass).
    fn catch_up_archives(&self) -> Result<(), EngineError> {
        let gens = self.catalog.generations();
        let newest = *gens.first().ok_or_else(no_generation)?;
        if !gens.iter().any(|&g| self.catalog.has_archive(g)) {
            self.extend_backup_archive(newest)?;
            return Ok(());
        }
        for backup_id in gens {
            if self.catalog.has_archive(backup_id) {
                self.extend_backup_archive(backup_id)?;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Self-healing: one heal policy for every reading verb
    // ------------------------------------------------------------------

    /// Whether online repair is engaged (at least one generation
    /// registered). While false, every verb surfaces its first error.
    fn self_healing(&self) -> bool {
        !self.catalog.is_empty()
    }

    /// The one heal-and-retry driver behind [`EngineService::read_page`],
    /// [`EngineService::execute`] and [`EngineService::backup_step_batch`]:
    /// run `attempt`; while self-healing is engaged, classify a failure
    /// ([`Damage`]), fix what is fixable and run it again, for at most
    /// [`HEAL_ROUNDS`] rounds.
    ///
    /// * a transient error retries under [`EngineService::repair_backoff`]
    ///   (whose waits are virtual: nothing sleeps) and gives up as
    ///   `Store(Transient)` once [`REPAIR_FETCH_ATTEMPTS`] attempts failed;
    /// * a checksum mismatch or a quarantined slot is repaired online
    ///   ([`EngineService::repair_page`]);
    /// * a failed medium restores its segment when an epoch has it
    ///   pending, and is repaired page by page otherwise.
    ///
    /// `attempt` must leave no state behind when it fails: no lock is held
    /// between attempts, since a repair flushes under the page's domain
    /// lock.
    fn healing<T>(
        &self,
        mut attempt: impl FnMut() -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        let mut transient = 0u32;
        let mut rounds = 0u32;
        loop {
            let err = match attempt() {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            if rounds == HEAL_ROUNDS || !self.self_healing() {
                return Err(err);
            }
            rounds += 1;
            let Some(damage) = self.damage(&err)? else {
                return Err(err);
            };
            match damage {
                Damage::Readable => {}
                Damage::Transient(p) => {
                    transient += 1;
                    if transient >= self.repair_backoff(p).max_attempts {
                        return Err(EngineError::Store(StoreError::Transient(p)));
                    }
                    self.bump(Stat::transient_retries, 1);
                }
                Damage::Media(p) if self.segment_pending(p.partition) => {
                    self.ensure_segment(p.partition)?;
                }
                Damage::Corrupt(p) | Damage::Media(p) => {
                    self.repair_page(p)?;
                }
            }
        }
    }

    /// The damage behind a failed attempt, or `None` when the failure is
    /// not a page read healing can fix. Evaluation reports a failed
    /// read-set page untyped, so that page is probed in `S` for the typed
    /// error (an injected crash at the probe surfaces as itself).
    fn damage(&self, err: &EngineError) -> Result<Option<Damage>, EngineError> {
        Ok(match err {
            EngineError::Store(e)
            | EngineError::Cache(CacheError::Store(e))
            | EngineError::Backup(BackupError::Store(e)) => Damage::of(e),
            EngineError::Quarantined(p) => Some(Damage::Corrupt(*p)),
            EngineError::Op(OpError::ReadFailed { page, .. }) => {
                match self.store.read_page(*page) {
                    Ok(_) => Some(Damage::Readable),
                    Err(StoreError::InjectedCrash) => {
                        return Err(EngineError::Store(StoreError::InjectedCrash))
                    }
                    Err(e) => Damage::of(&e),
                }
            }
            _ => None,
        })
    }

    // ------------------------------------------------------------------
    // Instant restore (serve during media recovery)
    // ------------------------------------------------------------------

    /// Begin an instant-restore epoch over the current failure set: the
    /// service keeps serving *during* media recovery. Every failed
    /// partition becomes a restore segment; reads and writes gate on
    /// their own segment's prioritized restore while
    /// [`EngineService::instant_restore_step`] sweeps the rest in the
    /// background. The epoch closes itself when the last segment comes
    /// back (the drills byte-compare every close against a sequential
    /// reference restore: `lob_harness::verify_epoch_close`).
    pub fn begin_instant_restore(&self) -> Result<(), EngineError> {
        self.start_instant_epoch(false)
    }

    /// Reboot re-entry after a crash mid-epoch: every partition becomes a
    /// `Failed` segment re-derived from archive plus image (a crash may
    /// have left any partition with a half-installed — but always
    /// correctly-versioned — page set, and the flush-order rule bounds
    /// every store page LSN by the durable end, so unconditional
    /// re-install of the full replay is sound). Call after
    /// [`EngineService::crash`] instead of [`EngineService::recover`] when
    /// an epoch was in flight; normal redo is subsumed by the full
    /// re-derivation.
    pub fn recover_instant(&self) -> Result<(), EngineError> {
        self.start_instant_epoch(true)
    }

    /// Catch the archives up and start an epoch over the failed partitions
    /// — or, for the reboot re-entry, over `all_segments`.
    fn start_instant_epoch(&self, all_segments: bool) -> Result<(), EngineError> {
        let mut slot = self.instant.lock();
        if slot.is_some() {
            return Err(EngineError::Discipline(
                "an instant-restore epoch is already active".into(),
            ));
        }
        self.catch_up_archives()?;
        if all_segments {
            self.bump(Stat::instant_reboots, 1);
            self.bump(Stat::recoveries, 1);
        }
        let r = InstantRestore::begin(
            Arc::clone(&self.store),
            Arc::clone(&self.catalog),
            self.config.recovery.batch.max(1),
            0x1257_C0DE,
            REPAIR_FETCH_ATTEMPTS,
            self.fault_hook(),
            all_segments,
        )?;
        self.bump(Stat::instant_epochs, 1);
        *slot = Some(r);
        self.instant_active.store(true, Ordering::Release);
        drop(slot);
        // Nothing failed → the epoch completes right away.
        self.maybe_complete_instant()
    }

    /// Whether an instant-restore epoch is in flight.
    pub fn instant_restore_active(&self) -> bool {
        self.instant_active.load(Ordering::Acquire)
    }

    /// The in-flight epoch's state for one segment (`None` outside an
    /// epoch or for an unknown partition).
    pub fn instant_segment_state(&self, p: PartitionId) -> Option<SegmentState> {
        self.instant
            .lock()
            .as_ref()
            .and_then(|r| r.segment_state(p))
    }

    /// Segments not yet restored (0 outside an epoch).
    pub fn instant_pending(&self) -> usize {
        self.instant.lock().as_ref().map_or(0, |r| r.pending())
    }

    /// The in-flight epoch's counters (`None` outside an epoch).
    pub fn instant_restore_stats(&self) -> Option<InstantStats> {
        self.instant.lock().as_ref().map(|r| r.stats())
    }

    /// Whether the in-flight epoch still has to restore `p`.
    fn segment_pending(&self, p: PartitionId) -> bool {
        self.instant_segment_state(p)
            .is_some_and(|s| s != SegmentState::Restored)
    }

    /// Gate every segment `body`'s read and write sets touch on its
    /// restore, before the operation takes its domain lock.
    fn gate_op(&self, body: &OpBody) -> Result<(), EngineError> {
        if !self.instant_restore_active() {
            return Ok(());
        }
        let mut parts: BTreeSet<PartitionId> = BTreeSet::new();
        body.for_each_read(|p| {
            parts.insert(p.partition);
        });
        body.for_each_write(|p| {
            parts.insert(p.partition);
        });
        for p in parts {
            self.ensure_segment(p)?;
        }
        Ok(())
    }

    /// Gate one partition on its segment's restore during an epoch; a
    /// no-op in normal operation. A request against a not-yet-restored
    /// segment jumps the sweep queue (foreground priority) and blocks
    /// only for that one segment's restore.
    fn ensure_segment(&self, p: PartitionId) -> Result<(), EngineError> {
        if !self.instant_restore_active() {
            return Ok(());
        }
        match self.instant.lock().as_mut() {
            Some(r) => r.ensure(p)?,
            None => return Ok(()),
        };
        self.maybe_complete_instant()
    }

    /// One background sweep step of the in-flight epoch: restore the next
    /// queued segment. Returns the segment restored, or `None` when no
    /// epoch is active. Callers interleave these with foreground work —
    /// that is the "serving during recovery".
    pub fn instant_restore_step(&self) -> Result<Option<PartitionId>, EngineError> {
        let stepped = match self.instant.lock().as_mut() {
            None => return Ok(None),
            Some(r) => {
                let stepped = r.step()?;
                if stepped.is_none() && !r.finished() {
                    return Err(EngineError::Internal(
                        "instant-restore queue drained with segments still failed".into(),
                    ));
                }
                stepped
            }
        };
        self.maybe_complete_instant()?;
        Ok(stepped)
    }

    /// Drive the background sweep until the epoch completes. Drill and
    /// bench convenience.
    pub fn instant_restore_drain(&self) -> Result<(), EngineError> {
        while self.instant_restore_active() {
            self.instant_restore_step()?;
        }
        Ok(())
    }

    /// If every segment is restored, end the epoch, fold its counters into
    /// the engine stats and return to normal operation. The epoch lock is
    /// released first: the allocator reseed and the log truncation take
    /// every domain lock.
    fn maybe_complete_instant(&self) -> Result<(), EngineError> {
        let done = {
            let mut slot = self.instant.lock();
            let done = slot.take_if(|r| r.finished());
            if done.is_some() {
                self.instant_active.store(false, Ordering::Release);
            }
            done
        };
        let Some(r) = done else {
            return Ok(());
        };
        let s = r.stats();
        self.bump(Stat::instant_completions, 1);
        self.bump(Stat::instant_on_demand, s.on_demand_restores);
        self.bump(Stat::instant_swept, s.sweep_restores);
        self.bump(Stat::transient_retries, s.transient_retries);
        self.bump(Stat::media_recoveries, 1);
        self.reseed_allocator()?;
        self.truncate_log()?;
        Ok(())
    }
}

/// What a failed read found, as the heal policy sees it.
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// Nothing: the probed page reads now (the failed read raced a fault
    /// the probe did not draw), so the verb just runs again.
    Readable,
    /// A transient device error.
    Transient(PageId),
    /// Detected damage: a checksum mismatch or a quarantined slot.
    Corrupt(PageId),
    /// The medium under the page failed.
    Media(PageId),
}

impl Damage {
    /// The damage a store error reports, if healing can fix it.
    fn of(e: &StoreError) -> Option<Damage> {
        match *e {
            StoreError::Transient(p) => Some(Damage::Transient(p)),
            StoreError::Corrupt(p) | StoreError::Quarantined(p) => Some(Damage::Corrupt(p)),
            StoreError::MediaFailure(p) => Some(Damage::Media(p)),
            _ => None,
        }
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

/// Raise each held domain's allocator past everything `S` holds.
fn reseed(
    store: &StableStore,
    doms: &mut [MutexGuard<'_, DomainState>],
) -> Result<(), EngineError> {
    for dom in doms.iter_mut() {
        for (p, slot) in dom.next_free.iter_mut() {
            let floor = store.high_water(*p)?.map_or(0, |h| h + 1);
            *slot = (*slot).max(floor);
        }
    }
    Ok(())
}

fn no_generation() -> EngineError {
    EngineError::Backup(BackupError::BadState(
        "no backup generation registered to restore from".into(),
    ))
}

/// Domain confinement: every page `body` reads or writes must lie in one
/// and the same backup-order domain, which is returned (`None` for an
/// operation touching no page).
fn confined_domain(
    coordinator: &BackupCoordinator,
    body: &OpBody,
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
                    "operation spans backup domains {prev:?} and {d:?}; \
                     operations must be confined to one domain"
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
fn open_store(
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
fn check_discipline(
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

fn is_transient_log(e: &LogError) -> bool {
    matches!(e, LogError::Transient)
}

/// Which of a generation's copies a failed regeneration found unusable.
fn unusable<T>(regen: &Result<T, EngineError>) -> Option<Unusable> {
    match regen {
        Err(EngineError::Backup(e)) => Unusable::of(e),
        _ => None,
    }
}

/// Surface quarantine as its typed engine error; everything else wraps.
fn lift_store_err(e: StoreError) -> EngineError {
    match e {
        StoreError::Quarantined(p) => EngineError::Quarantined(p),
        e => EngineError::Store(e),
    }
}

fn lift_cache_err(e: CacheError) -> EngineError {
    match e {
        CacheError::Store(s) => lift_store_err(s),
        e => EngineError::Cache(e),
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
///
/// A session is a member of every commit group while the thread that
/// last called one of its methods lives, and from its creation until a
/// thread first calls one: a group closes once every such session has
/// joined it (or at the `group_commit_count` cap, or when the
/// `group_commit_delay_micros` window runs out). A session whose thread
/// has exited holds up no group, even while a handle to it is kept; the
/// next thread to call it makes it a member again. A member session that
/// does not commit — idle, or busy with other work — still makes the
/// others wait out the window.
#[derive(Clone, Debug)]
pub struct Session(Arc<SessionInner>);

/// What every clone of one [`Session`] shares; dropping it deregisters the
/// session from the group-commit log.
#[derive(Debug)]
struct SessionInner {
    svc: Arc<EngineService>,
    /// The session's registration with the group-commit log, on which
    /// every method records its calling thread.
    committer: Committer,
    /// Highest LSN this session's `execute`s returned (raw; 0 before the
    /// first): the record [`Session::commit`] forces.
    logged: AtomicU64, // lint: atomic(acq-rel)
}

impl Drop for SessionInner {
    fn drop(&mut self) {
        self.svc.log.deregister(&self.committer);
    }
}

impl Session {
    /// The shared state, with the calling thread recorded as the
    /// session's user (lock-free when it already is).
    fn used(&self) -> &SessionInner {
        self.0.svc.log.mark_used(&self.0.committer);
        &self.0
    }

    /// The shared service behind this session.
    pub fn service(&self) -> &Arc<EngineService> {
        &self.used().svc
    }

    /// Execute a logged operation. See [`EngineService::execute`].
    pub fn execute(&self, body: OpBody) -> Result<Lsn, EngineError> {
        let inner = self.used();
        let lsn = inner.svc.execute(body)?;
        inner.logged.fetch_max(lsn.raw(), Ordering::AcqRel);
        Ok(lsn)
    }

    /// Read a page through the shared cache.
    pub fn read_page(&self, id: PageId) -> Result<Page, EngineError> {
        self.used().svc.read_page(id)
    }

    /// Flush one page (write-graph-ordered).
    pub fn flush_page(&self, page: PageId) -> Result<(), EngineError> {
        self.used().svc.flush_page(page)
    }

    /// Commit: durably force everything this session has logged — a group
    /// force of its newest record, which covers every earlier one. If a
    /// crash wiped that record before any force reached it, the commit
    /// fails with the injected crash instead of reporting durability.
    pub fn commit(&self) -> Result<(), EngineError> {
        let inner = self.used();
        Ok(inner
            .svc
            .log
            .force(Lsn(inner.logged.load(Ordering::Acquire)))?)
    }

    /// Allocate a fresh page.
    pub fn alloc_page(&self, partition: PartitionId) -> Result<PageId, EngineError> {
        self.used().svc.alloc_page(partition)
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
    fn an_undecodable_frame_fails_recovery_before_anything_replays() {
        use lob_wal::CodecError;
        let svc = Arc::new(EngineService::new(config(1, 8)).unwrap());
        let s = svc.session();
        let id = PageId::new(0, 1);
        s.execute(insert(id, b"k", b"v")).unwrap();
        s.commit().unwrap();
        // A value past the codec's 64 MiB sanity bound still encodes (its
        // length word is a `u32`) and is checksummed like any frame, but
        // no decoder accepts it: a durable frame that does not parse.
        let len = (64u64 << 20) + 1;
        svc.log()
            .append_record(RecordBody::Op(OpBody::PhysicalWrite {
                target: id,
                value: Bytes::from(vec![0u8; len as usize]),
            }));
        svc.log().force_all().unwrap();
        svc.crash();
        let pages = |svc: &EngineService| {
            let image = svc.store().snapshot().unwrap();
            image
                .iter()
                .map(|(id, page)| (id, page.clone()))
                .collect::<Vec<_>>()
        };
        let before = pages(&svc);
        let err = svc.recover().unwrap_err();
        assert!(
            matches!(err, EngineError::Log(LogError::Codec(CodecError::BadLength(n))) if n == len),
            "{err}"
        );
        // The committed insert ahead of the bad frame was not replayed.
        assert_eq!(pages(&svc), before);
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
    fn a_commit_group_waits_only_for_live_sessions() {
        let window = Duration::from_millis(200);
        let svc = Arc::new(
            EngineService::new(EngineConfig {
                commit: crate::config::CommitConfig {
                    group_commit_delay_micros: window.as_micros() as u64,
                    group_commit_count: 8,
                    ..Default::default()
                },
                ..config(1, 16)
            })
            .unwrap(),
        );
        let commit = |s: &Session, i: u32| {
            s.execute(insert(PageId::new(0, i % 16), b"k", &[i as u8]))
                .unwrap();
            s.commit().unwrap();
        };
        let timed = |f: &dyn Fn()| {
            let start = std::time::Instant::now();
            f();
            start.elapsed()
        };
        let s = svc.session();
        let lone = timed(&|| (0..16).for_each(|i| commit(&s, i)));
        assert!(lone < window, "a lone session waited: {lone:?}");

        // A live session that never commits is still a member of the
        // group: the committer waits out the window for it.
        let idle = svc.session();
        let clone = s.clone();
        let waited = timed(&|| commit(&clone, 16));
        assert!(waited >= window, "the idle session was not waited for");

        // Dropping a clone leaves its session registered; dropping the
        // idle session deregisters it.
        drop(idle);
        drop(clone);
        let again = timed(&|| (17..33).for_each(|i| commit(&s, i)));
        assert!(again < window, "commits still waited: {again:?}");

        // A session kept after its worker thread has exited is not waited
        // for. (The worker only executes: a commit of its own would wait
        // for `s`, live on this thread.)
        let finished = svc.session();
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| finished.execute(insert(PageId::new(0, 1), b"w", b"1")));
            worker.join().unwrap().unwrap();
        });
        let after = timed(&|| (34..50).for_each(|i| commit(&s, i)));
        assert!(
            after < window,
            "commits waited for a finished session: {after:?}"
        );
        drop(finished);
    }

    #[test]
    fn a_persistent_transient_error_ends_every_healing_verb_alike() {
        use lob_pagestore::fault::{FaultVerdict, IoEvent};
        let svc = Arc::new(EngineService::new(config(1, 16)).unwrap());
        for i in 0..16u32 {
            svc.execute(insert(PageId::new(0, i), b"k", &[i as u8]))
                .unwrap();
        }
        let image = svc.offline_backup().unwrap();
        svc.register_backup_generation(image).unwrap();
        // Every read of the victim fails transiently, forever.
        let victim = PageId::new(0, 3);
        svc.install_fault_hook(Some(Arc::new(move |ev, page| {
            if ev == IoEvent::PageRead && page == Some(victim) {
                FaultVerdict::TransientRead
            } else {
                FaultVerdict::Proceed
            }
        })));
        svc.cache().clear();
        let copy = OpBody::Logical(lob_ops::LogicalOp::Copy {
            src: victim,
            dst: PageId::new(0, 9),
        });
        // Each verb gives up after the same attempts, with the same error.
        let gives_up = |verb: &str, call: &mut dyn FnMut() -> Result<(), EngineError>| {
            let before = svc.stats().transient_retries;
            let got = call();
            assert!(
                matches!(got, Err(EngineError::Store(StoreError::Transient(p))) if p == victim),
                "{verb}: {got:?}"
            );
            assert_eq!(
                svc.stats().transient_retries - before,
                u64::from(REPAIR_FETCH_ATTEMPTS - 1),
                "{verb} retried until its attempts ran out"
            );
        };
        gives_up("read_page", &mut || svc.read_page(victim).map(drop));
        gives_up("execute", &mut || svc.execute(copy.clone()).map(drop));
        let mut run = svc.begin_backup(1).unwrap();
        gives_up("backup_step_batch", &mut || {
            svc.backup_step_batch(&mut run, 16).map(drop)
        });
        assert_eq!(svc.stats().repairs, 0, "nothing was damaged");
        svc.abort_backup(run);
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
