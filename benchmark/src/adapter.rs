//! The one file that names `lob-core` / `lob-btree` types. Workload
//! drivers see a [`Db`] (lifecycle: build, crash, recover, wipe, restore)
//! and one [`Client`] per driver thread (foreground ops and inline duty);
//! an engine-API change later is a change to this file only.
//!
//! Every call into the engine goes through [`Tracer::time`], so the traced
//! run gets a span per call without the drivers knowing span names.

use crate::trace::{Kind, Span, Tracer};
use bytes::Bytes;
use lob_btree::{BTree, SplitLogging};
use lob_core::{
    BackupImage, BackupRun, CommitConfig, Discipline, DomainId, Engine, EngineConfig,
    EngineService, LogBacking, OpBody, PageId, PartitionId, PartitionSpec, RecoveryConfig, Session,
    Tracking,
};
use lob_pagestore::{Page, StableStore};
use lob_wal::LogRecord;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

pub type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Front {
    /// `EngineService` + `Session` handles.
    Service,
    /// Single-owner `Engine`.
    Engine,
}

/// Everything a workload fixes about its database.
#[derive(Clone, Debug)]
pub struct DbSpec {
    pub front: Front,
    pub tree_discipline: bool,
    pub page_size: usize,
    pub partitions: u32,
    pub pages_per_partition: u32,
    /// One backup domain per partition (else one sequential domain).
    pub per_partition_domains: bool,
    pub cache_capacity: Option<usize>,
    /// File-backed log (never fsynced) instead of the memory log.
    pub file_log: Option<PathBuf>,
    /// Keep `CommitConfig`'s default gather window (200 µs / 8). Off, the
    /// window is closed (delay 0, count 1): with a single committer there
    /// is nobody to gather, and the closed window is the shipped
    /// single-session path (BENCH_8's 1-session arm).
    pub gather_window: bool,
    /// Keep a page-indexed log archive on the newest generation.
    pub archive: bool,
    /// Build a `lob_btree::BTree` (logical split logging) in partition 0.
    pub tree: bool,
    /// Pages per sweep store round-trip.
    pub sweep_batch: u32,
}

impl DbSpec {
    pub fn domains(&self) -> u32 {
        if self.per_partition_domains {
            self.partitions
        } else {
            1
        }
    }

    pub fn domain_pages(&self) -> u32 {
        self.partitions * self.pages_per_partition / self.domains()
    }

    pub fn total_pages(&self) -> u64 {
        u64::from(self.partitions) * u64::from(self.pages_per_partition)
    }

    fn engine_config(&self) -> EngineConfig {
        let defaults = EngineConfig::small();
        EngineConfig {
            page_size: self.page_size,
            partitions: (0..self.partitions)
                .map(|_| PartitionSpec {
                    pages: self.pages_per_partition,
                })
                .collect(),
            discipline: if self.tree_discipline {
                Discipline::Tree
            } else {
                Discipline::General
            },
            tracking: if self.per_partition_domains {
                Tracking::PerPartition
            } else {
                Tracking::Sequential((0..self.partitions).map(PartitionId).collect())
            },
            cache_capacity: self.cache_capacity,
            log: match &self.file_log {
                Some(p) => LogBacking::File(p.clone()),
                None => LogBacking::Memory,
            },
            commit: if self.gather_window {
                CommitConfig::default()
            } else {
                CommitConfig {
                    group_commit_delay_micros: 0,
                    group_commit_count: 1,
                    ..CommitConfig::default()
                }
            },
            ..defaults
        }
    }
}

/// Restore and redo knobs: BENCH_6's fastest row on this box (one worker,
/// whole-hot-set batches).
pub fn recovery_config() -> RecoveryConfig {
    RecoveryConfig::new(1, 4096)
}

macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// Plain-number snapshot of every public stats struct the engine
        /// offers (`EngineStats`, `LogStats`, `CacheStats`, the store's
        /// `IoSnapshot`, the coordinator's decision counters).
        #[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
        pub struct Counters {
            $(pub $field: u64,)*
        }

        impl Counters {
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters { $($field: self.$field - earlier.$field,)* }
            }

            pub fn add(&mut self, delta: &Counters) {
                $(self.$field += delta.$field;)*
            }
        }
    };
}

counters!(
    iwof_records,
    nodes_flushed,
    pages_flushed,
    backups_completed,
    instant_on_demand,
    instant_swept,
    log_records,
    log_bytes,
    log_forces,
    log_forced_frames,
    log_identity_bytes,
    cache_hits,
    cache_misses,
    cache_pages_flushed,
    cache_evictions,
    page_reads,
    page_writes,
    bytes_written,
    checks_active,
    iwof_required,
    pend,
    doubt,
    done,
);

enum Inner {
    Service(Arc<EngineService>),
    Engine {
        engine: Box<Engine>,
        tree: Option<BTree>,
    },
}

/// One database under test.
pub struct Db {
    spec: DbSpec,
    inner: Inner,
    /// Main-thread tracer: lifecycle calls (recover, restore).
    pub tracer: Tracer,
}

impl Db {
    /// Build a fresh, formatted database (nothing preloaded yet).
    pub fn build(spec: &DbSpec, epoch: Instant) -> Res<Db> {
        let config = spec.engine_config();
        if let Some(p) = &spec.file_log {
            if let Some(dir) = p.parent() {
                std::fs::create_dir_all(dir).map_err(err)?;
            }
        }
        let inner = match spec.front {
            Front::Service => Inner::Service(Arc::new(EngineService::new(config).map_err(err)?)),
            Front::Engine => {
                let mut engine = Box::new(Engine::new(config).map_err(err)?);
                let tree = if spec.tree {
                    Some(
                        BTree::create(&mut engine, PartitionId(0), SplitLogging::Logical)
                            .map_err(err)?,
                    )
                } else {
                    None
                };
                Inner::Engine { engine, tree }
            }
        };
        Ok(Db {
            spec: spec.clone(),
            inner,
            tracer: Tracer::new(epoch, u8::MAX),
        })
    }

    /// Every field of the engine configuration in force, for the header.
    pub fn describe(&self) -> String {
        let config = match &self.inner {
            Inner::Service(svc) => svc.config().clone(),
            Inner::Engine { engine, .. } => engine.config().clone(),
        };
        format!(
            "front={:?} tree={} sweep_batch={} restore/redo={:?} {:?}",
            self.spec.front,
            self.spec.tree,
            self.spec.sweep_batch,
            recovery_config(),
            config
        )
    }

    /// One client per driver thread. The single-owner engine has exactly
    /// one.
    pub fn clients(&mut self, n: usize, epoch: Instant) -> Vec<Client<'_>> {
        match &mut self.inner {
            Inner::Service(svc) => (0..n)
                .map(|i| Client {
                    front: ClientFront::Service(svc.session()),
                    tracer: Tracer::new(epoch, i as u8),
                    gets: 0,
                    get_page_reads: 0,
                })
                .collect(),
            Inner::Engine { engine, tree } => {
                assert_eq!(n, 1, "the single-owner engine has one driver thread");
                vec![Client {
                    front: ClientFront::Engine(engine, tree.as_ref()),
                    tracer: Tracer::new(epoch, 0),
                    gets: 0,
                    get_page_reads: 0,
                }]
            }
        }
    }

    fn store(&self) -> &Arc<StableStore> {
        match &self.inner {
            Inner::Service(svc) => svc.store(),
            Inner::Engine { engine, .. } => engine.store(),
        }
    }

    pub fn counters(&self) -> Counters {
        let (es, ls, cs, store, coord) = match &self.inner {
            Inner::Service(svc) => (
                svc.stats(),
                svc.log_stats(),
                svc.cache().stats(),
                svc.store(),
                svc.coordinator(),
            ),
            Inner::Engine { engine, .. } => (
                engine.stats(),
                engine.log().stats().clone(),
                engine.cache().stats(),
                engine.store(),
                engine.coordinator(),
            ),
        };
        let io = store.stats();
        let (checks_active, iwof_required, pend, doubt, done, _inactive) = coord.stats().snapshot();
        Counters {
            iwof_records: es.iwof_records,
            nodes_flushed: es.nodes_flushed,
            pages_flushed: es.pages_flushed,
            backups_completed: es.backups_completed,
            instant_on_demand: es.instant_on_demand,
            instant_swept: es.instant_swept,
            log_records: ls.records,
            log_bytes: ls.bytes,
            log_forces: ls.forces,
            log_forced_frames: ls.forced_frames,
            log_identity_bytes: ls.identity_bytes(),
            cache_hits: cs.hits,
            cache_misses: cs.misses,
            cache_pages_flushed: cs.pages_flushed,
            cache_evictions: cs.evictions,
            page_reads: io.page_reads,
            page_writes: io.page_writes,
            bytes_written: io.bytes_written,
            checks_active,
            iwof_required,
            pend,
            doubt,
            done,
        }
    }

    pub fn flush_all(&mut self) -> Res<()> {
        match &mut self.inner {
            Inner::Service(svc) => svc.flush_all().map_err(err),
            Inner::Engine { engine, .. } => engine.flush_all().map_err(err),
        }
    }

    /// Crash: the cache, the write graphs, in-flight sweeps and the
    /// unforced log tail are gone; only forced bytes and `S` survive.
    pub fn crash(&mut self) {
        match &mut self.inner {
            Inner::Service(svc) => svc.crash(),
            Inner::Engine { engine, .. } => engine.crash(),
        }
    }

    /// Crash recovery; returns the number of log records scanned.
    pub fn recover(&mut self) -> Res<u64> {
        let outcome = match &mut self.inner {
            Inner::Service(svc) => self
                .tracer
                .time(Kind::ServiceRecover, || svc.recover())
                .map_err(err)?,
            Inner::Engine { engine, .. } => self
                .tracer
                .time(Kind::EngineRecover, || {
                    engine.parallel_recover_with(recovery_config())
                })
                .map_err(err)?,
        };
        Ok(outcome.replayed + outcome.skipped + outcome.controls)
    }

    /// Total media failure: every page of `S` is overwritten with a
    /// formatted page and every partition is marked failed, so nothing a
    /// restore produces can come from the old medium.
    pub fn wipe(&mut self) -> Res<()> {
        let store = self.store();
        let mut blank = Vec::new();
        for p in 0..self.spec.partitions {
            blank.clear();
            blank.resize(
                self.spec.pages_per_partition as usize,
                Page::formatted(self.spec.page_size),
            );
            store
                .write_run(PartitionId(p), 0, &mut blank)
                .map_err(err)?;
            store.fail_partition(PartitionId(p)).map_err(err)?;
        }
        Ok(())
    }

    /// Media recovery from the newest completed backup of every domain,
    /// rolled forward to the end of the log.
    ///
    /// The engine restores through its own entry point. The service has
    /// none, so this is `service.crash()` followed by the same two calls
    /// `Engine::parallel_restore_with` makes, per domain image.
    pub fn restore(&mut self, sweeper: &Sweeper) -> Res<()> {
        match &mut self.inner {
            Inner::Engine { engine, .. } => self
                .tracer
                .time(Kind::EngineRestore, || {
                    engine.parallel_restore_latest_with(recovery_config())
                })
                .map(|_| ())
                .map_err(err),
            Inner::Service(svc) => {
                let parts = self.spec.partitions;
                self.tracer.time(Kind::ServiceRestore, || {
                    svc.crash();
                    let images: Vec<&BackupImage> = sweeper.images.iter().flatten().collect();
                    if images.len() != sweeper.images.len() {
                        return Err("a domain has no completed backup image".to_string());
                    }
                    for p in 0..parts {
                        svc.store().clear_failures(PartitionId(p)).map_err(err)?;
                    }
                    for image in &images {
                        lob_recovery::parallel_install_image(
                            &image.pages,
                            svc.store(),
                            recovery_config(),
                        )
                        .map_err(err)?;
                    }
                    let from = images
                        .iter()
                        .map(|image| image.start_lsn)
                        .min()
                        .ok_or("no backup image to restore from")?;
                    let records = svc.log().scan_from(from).map_err(err)?;
                    lob_recovery::parallel_redo_scan(&records, svc.store(), recovery_config())
                        .map_err(err)?;
                    Ok(())
                })
            }
        }
    }

    /// The stable value of one page, read from `S` (not the cache).
    pub fn stable_page(&self, id: PageId) -> Option<Bytes> {
        self.store().read_page(id).ok().map(|p| p.data().clone())
    }

    /// One lookup through the engine, outside every span.
    pub fn tree_get(&mut self, key: &[u8]) -> Res<Option<Vec<u8>>> {
        match &mut self.inner {
            Inner::Engine {
                engine,
                tree: Some(tree),
            } => tree.get(engine, key).map_err(err),
            _ => Err("this workload has no tree".into()),
        }
    }

    /// `BTree::check`, then a full in-order scan.
    pub fn tree_check_and_scan(&mut self) -> Res<Vec<(Vec<u8>, Vec<u8>)>> {
        match &mut self.inner {
            Inner::Engine {
                engine,
                tree: Some(tree),
            } => {
                tree.check(engine).map_err(err)?;
                tree.scan(engine).map_err(err)
            }
            _ => Err("this workload has no tree".into()),
        }
    }

    /// Run one instant-restore epoch after a total media failure and a
    /// reboot: one span to the first served read, one to epoch completion.
    /// Engine front with a catalog only.
    pub fn instant_epoch(&mut self, probe: PageId) -> Res<()> {
        self.wipe()?;
        let Inner::Engine { engine, .. } = &mut self.inner else {
            return Err("instant restore needs the single-owner engine".into());
        };
        engine.crash();
        self.tracer
            .time(Kind::EngineInstantFirstRead, || {
                engine.recover_instant()?;
                engine.read_page(probe)
            })
            .map_err(err)?;
        self.tracer
            .time(Kind::EngineInstantComplete, || {
                engine.instant_restore_drain()
            })
            .map_err(err)
    }

    /// The durable log suffix a crash recovery would scan, for probes.
    pub fn sample_log(&self, limit: usize) -> Vec<LogRecord> {
        let mut records = match &self.inner {
            Inner::Service(svc) => svc.log().scan_from(svc.log().truncation()),
            Inner::Engine { engine, .. } => engine.log().scan_from(engine.log().truncation()),
        }
        .unwrap_or_default();
        records.truncate(limit);
        records
    }

    /// The first `limit` stable pages of partition 0, for probes.
    pub fn sample_pages(&self, limit: u32) -> Vec<Page> {
        let mut out = Vec::new();
        let hi = limit.min(self.spec.pages_per_partition);
        let _ = self.store().read_run(PartitionId(0), 0, hi, &mut out);
        out
    }
}

enum ClientFront<'a> {
    Service(Session),
    Engine(&'a mut Engine, Option<&'a BTree>),
}

/// One driver thread's handle: foreground ops plus the inline duty (flush,
/// sweep, truncation) that thread runs on its op-count schedule.
pub struct Client<'a> {
    front: ClientFront<'a>,
    pub tracer: Tracer,
    /// Tree gets made while tracing, and the page reads (cache hits plus
    /// misses) they caused.
    pub gets: u64,
    pub get_page_reads: u64,
}

impl Client<'_> {
    pub fn execute(&mut self, body: OpBody) -> Res<()> {
        match &mut self.front {
            ClientFront::Service(s) => self
                .tracer
                .time(Kind::SessionExecute, || s.execute(body))
                .map(|_| ())
                .map_err(err),
            ClientFront::Engine(e, _) => self
                .tracer
                .time(Kind::EngineExecute, || e.execute(body))
                .map(|_| ())
                .map_err(err),
        }
    }

    /// Commit: `Session::commit`, or `Engine::force_log`.
    pub fn commit(&mut self) -> Res<()> {
        match &mut self.front {
            ClientFront::Service(s) => self
                .tracer
                .time(Kind::SessionCommit, || s.commit())
                .map_err(err),
            ClientFront::Engine(e, _) => self
                .tracer
                .time(Kind::EngineForceLog, || e.force_log())
                .map_err(err),
        }
    }

    pub fn read_page(&mut self, id: PageId) -> Res<()> {
        match &mut self.front {
            ClientFront::Service(s) => self
                .tracer
                .time(Kind::SessionReadPage, || s.read_page(id))
                .map(|p| {
                    std::hint::black_box(p);
                })
                .map_err(err),
            ClientFront::Engine(e, _) => self
                .tracer
                .time(Kind::EngineReadPage, || e.read_page(id))
                .map(|p| {
                    std::hint::black_box(p);
                })
                .map_err(err),
        }
    }

    pub fn flush_page(&mut self, id: PageId) -> Res<()> {
        match &mut self.front {
            ClientFront::Service(s) => self
                .tracer
                .time(Kind::ServiceFlushPage, || s.flush_page(id))
                .map_err(err),
            ClientFront::Engine(e, _) => self
                .tracer
                .time(Kind::EngineFlushPage, || e.flush_page(id))
                .map_err(err),
        }
    }

    /// Flush oldest-first until at most `keep` pages are dirty. For the
    /// tree workload, where the driver cannot know which pages an insert
    /// dirtied; engine front only.
    pub fn flush_excess(&mut self, keep: usize) -> Res<()> {
        match &mut self.front {
            ClientFront::Engine(e, _) => {
                let dirty = e.cache().dirty_count();
                if dirty <= keep {
                    return Ok(());
                }
                self.tracer
                    .time(Kind::EngineFlushOldest, || e.flush_oldest(dirty - keep))
                    .map(|_| ())
                    .map_err(err)
            }
            ClientFront::Service(_) => Err("flush_excess is engine-only".into()),
        }
    }

    pub fn truncate_log(&mut self) -> Res<()> {
        match &mut self.front {
            ClientFront::Service(s) => self
                .tracer
                .time(Kind::ServiceTruncateLog, || s.service().truncate_log())
                .map(|_| ())
                .map_err(err),
            ClientFront::Engine(e, _) => self
                .tracer
                .time(Kind::EngineTruncateLog, || e.truncate_log())
                .map(|_| ())
                .map_err(err),
        }
    }

    pub fn tree_get(&mut self, key: &[u8]) -> Res<Option<Vec<u8>>> {
        match &mut self.front {
            ClientFront::Engine(e, Some(t)) => {
                if !self.tracer.is_on() {
                    return t.get(e, key).map_err(err);
                }
                let before = e.cache().stats();
                let got = self.tracer.time(Kind::BtreeGet, || t.get(e, key));
                let after = e.cache().stats();
                self.gets += 1;
                self.get_page_reads += (after.hits + after.misses) - (before.hits + before.misses);
                got.map_err(err)
            }
            _ => Err("this workload has no tree".into()),
        }
    }

    pub fn tree_insert(&mut self, key: &[u8], value: &[u8]) -> Res<()> {
        match &mut self.front {
            ClientFront::Engine(e, Some(t)) => self
                .tracer
                .time(Kind::BtreeInsert, || t.insert(e, key, value))
                .map_err(err),
            _ => Err("this workload has no tree".into()),
        }
    }

    /// One unit of sweep duty: begin the next domain's backup if none is
    /// running, copy one tracker step, and when the sweep finishes,
    /// complete it, supersede the domain's previous backup (release, and
    /// on the engine front register/retire in the catalog) and keep the
    /// new one for restore. A sweep takes exactly `sweeper.steps` calls.
    pub fn sweep_call(&mut self, sw: &mut Sweeper) -> Res<()> {
        let domain = sw.order[sw.next % sw.order.len()];
        let batch = sw.batch;
        match &mut self.front {
            ClientFront::Service(s) => {
                let svc = s.service();
                let mut run = match sw.run.take() {
                    Some(r) => r,
                    None => self
                        .tracer
                        .time(Kind::ServiceBeginBackup, || {
                            svc.begin_backup_of(DomainId(domain), sw.steps)
                        })
                        .map_err(err)?,
                };
                let done = self
                    .tracer
                    .time(Kind::ServiceBackupStep, || {
                        svc.backup_step_batch(&mut run, batch)
                    })
                    .map_err(err)?;
                if !done {
                    sw.run = Some(run);
                    return Ok(());
                }
                let image = self
                    .tracer
                    .time(Kind::ServiceCompleteBackup, || svc.complete_backup(run))
                    .map_err(err)?;
                sw.pages_completed += image.page_count() as u64;
                let slot = &mut sw.images[domain as usize];
                if let Some(old) = slot.replace(image) {
                    self.tracer.time(Kind::ServiceReleaseBackup, || {
                        svc.release_backup(old.backup_id)
                    });
                }
            }
            ClientFront::Engine(e, _) => {
                let mut run = match sw.run.take() {
                    Some(r) => r,
                    None => self
                        .tracer
                        .time(Kind::EngineBeginBackup, || {
                            e.begin_backup_of(DomainId(domain), sw.steps)
                        })
                        .map_err(err)?,
                };
                let done = self
                    .tracer
                    .time(Kind::EngineBackupStep, || {
                        e.backup_step_batch(&mut run, batch)
                    })
                    .map_err(err)?;
                if !done {
                    sw.run = Some(run);
                    return Ok(());
                }
                let image = self
                    .tracer
                    .time(Kind::EngineCompleteBackup, || e.complete_backup(run))
                    .map_err(err)?;
                sw.pages_completed += image.page_count() as u64;
                let new_id = image.backup_id;
                // Only every `register_every`-th sweep becomes the
                // catalog's generation; the ones between are superseded
                // as soon as they complete.
                sw.since_register += 1;
                if sw.since_register < sw.register_every {
                    self.tracer
                        .time(Kind::EngineReleaseBackup, || e.release_backup(new_id));
                } else {
                    sw.since_register = 0;
                    self.tracer
                        .time(Kind::EngineRegisterGeneration, || {
                            e.register_backup_generation(image)
                        })
                        .map_err(err)?;
                    if sw.archive {
                        let t0 = Instant::now();
                        self.tracer
                            .time(Kind::EngineExtendArchive, || {
                                e.extend_backup_archive(new_id)
                            })
                            .map_err(err)?;
                        sw.archive_ns += t0.elapsed().as_nanos() as u64;
                    }
                    if let Some(old) = sw.registered.replace(new_id) {
                        self.tracer
                            .time(Kind::EngineReleaseBackup, || {
                                e.release_backup(old);
                                e.retire_backup_generation(old)
                            })
                            .map_err(err)?;
                    }
                }
            }
        }
        sw.completed += 1;
        sw.next += 1;
        Ok(())
    }
}

/// Inline sweep duty state: which domain is next, the run in flight, and
/// the newest completed backup of each domain.
pub struct Sweeper {
    /// Domains in sweep order; `next` cycles through it.
    order: Vec<u32>,
    next: usize,
    steps: u32,
    batch: u32,
    run: Option<BackupRun>,
    /// Service front: newest completed image per domain.
    images: Vec<Option<BackupImage>>,
    /// Engine front: the generation registered in the catalog.
    registered: Option<u64>,
    register_every: u32,
    since_register: u32,
    archive: bool,
    /// Sweeps completed, and the pages in their images.
    pub completed: u64,
    pub pages_completed: u64,
    /// Wall time spent in `extend_backup_archive`: inline duty, but not
    /// part of taking a backup.
    pub archive_ns: u64,
}

impl Sweeper {
    /// A sweeper over `order` (domain ids), `steps` calls per sweep. On the
    /// engine front every `register_every`-th completed sweep is
    /// registered as the catalog's newest generation.
    pub fn new(spec: &DbSpec, order: Vec<u32>, steps: u32, register_every: u32) -> Sweeper {
        Sweeper {
            order,
            next: 0,
            steps,
            batch: spec.sweep_batch,
            run: None,
            images: (0..spec.domains()).map(|_| None).collect(),
            registered: None,
            register_every: register_every.max(1),
            since_register: 0,
            archive: spec.archive,
            completed: 0,
            pages_completed: 0,
            archive_ns: 0,
        }
    }

    /// Start the next round's cycle at `order[first]`.
    pub fn start_at(&mut self, first: usize) {
        assert!(self.run.is_none(), "rounds end on a sweep boundary");
        self.next = first;
    }

    pub fn in_flight(&self) -> bool {
        self.run.is_some()
    }

    /// Make the next completed sweep register regardless of the cadence
    /// (set-up registers its first backup).
    pub fn register_next(&mut self) {
        self.since_register = self.register_every - 1;
    }
}

/// Spans of all clients of a round, merged.
pub fn drain_spans(clients: &mut [Client<'_>]) -> Vec<Span> {
    clients.iter_mut().flat_map(|c| c.tracer.drain()).collect()
}
