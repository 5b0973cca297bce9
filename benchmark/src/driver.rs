//! The lifecycle-round driver: set-up, then `rounds` rounds of
//! online phase → crash + redo → media failure + restore, every phase of
//! every round timed and every recovered state compared with the shadow.
//!
//! No loop here reads a clock to decide when to stop. The wall clock
//! (`Instant`) is read only to stamp completions and phase boundaries.

use crate::adapter::{drain_spans, Client, Counters, Db, Res, Sweeper};
use crate::gen::{KeyGen, Op, PageGen, Rng};
use crate::shadow::{PageShadow, TreeShadow};
use crate::trace::{percentile_ns, Kind, Span};
use crate::workloads::{Plan, Traffic, Warmup, FLUSH_KEEP, UNCOMMITTED_TAIL};
use lob_ops::OpBody;
use lob_pagestore::PageId;
use std::collections::VecDeque;
use std::sync::Barrier;
use std::time::Instant;

/// Inserts between two `flush_excess` calls on the tree workload.
const TREE_FLUSH_EVERY: u32 = 64;

/// Inserts between two full flushes while set-up bulk-loads the tree.
const PRELOAD_FLUSH_EVERY: u32 = 32;

/// Pages set-up writes between a commit and the flush of those pages.
const PRELOAD_BATCH: usize = 64;

enum Shadow {
    Pages(PageShadow),
    Tree(TreeShadow),
}

enum Gen {
    Pages(PageGen),
    Tree(KeyGen),
}

impl Gen {
    fn ops(&mut self, n: usize) -> Vec<Op> {
        match self {
            Gen::Pages(g) => g.ops(n),
            Gen::Tree(g) => g.ops(n),
        }
    }
}

/// First-dirtied-first-flushed queue of pages this session wrote. A page
/// flushed early as part of another page's write-graph plan stays queued;
/// flushing it again later is a no-op.
struct DirtyFifo {
    pages_per_partition: u32,
    queued: Vec<bool>,
    queue: VecDeque<PageId>,
}

impl DirtyFifo {
    fn new(partitions: u32, pages_per_partition: u32) -> DirtyFifo {
        DirtyFifo {
            pages_per_partition,
            queued: vec![false; (partitions * pages_per_partition) as usize],
            queue: VecDeque::new(),
        }
    }

    fn slot(&self, id: PageId) -> usize {
        (id.partition.0 * self.pages_per_partition + id.index) as usize
    }

    fn note_write(&mut self, id: PageId) {
        let slot = self.slot(id);
        if !self.queued[slot] {
            self.queued[slot] = true;
            self.queue.push_back(id);
        }
    }

    fn pop_excess(&mut self, keep: usize) -> Option<PageId> {
        if self.queue.len() <= keep {
            return None;
        }
        let id = self.queue.pop_front()?;
        let slot = self.slot(id);
        self.queued[slot] = false;
        Some(id)
    }

    /// A crash cleans every page (the cache is gone, redo rebuilt `S`).
    fn clear(&mut self) {
        self.queue.clear();
        self.queued.fill(false);
    }
}

/// What one session's inline duty is for one round.
struct Duty {
    /// 0 = this session does not sweep.
    sweep_every: u32,
    /// 0 = this session does not truncate.
    truncate_every: u32,
    /// Ops after which the flusher is paused.
    flush_until: u32,
}

#[derive(Default)]
struct SessionResult {
    lat_ns: Vec<u32>,
    span: Option<(Instant, Instant)>,
    /// Wall time inside sweep calls (begin, step, complete, release,
    /// register), without the archive extension that follows a register.
    backup_ns: u64,
    commits: u64,
    user_bytes: u64,
    failed: u64,
}

fn user_bytes(body: &OpBody, page_size: usize) -> u64 {
    match body {
        OpBody::Physio(lob_ops::PhysioOp::SetBytes { bytes, .. }) => bytes.len() as u64,
        other => {
            let mut pages = 0u64;
            other.for_each_write(|_| pages += 1);
            pages * page_size as u64
        }
    }
}

/// One session's online phase: a closed loop with zero think time. Each
/// op's latency runs from the previous completion (when it was due) to its
/// own completion stamp, taken after the inline duty the op triggered.
fn run_session(
    client: &mut Client<'_>,
    ops: Vec<Op>,
    duty: &Duty,
    mut sweeper: Option<&mut Sweeper>,
    fifo: &mut DirtyFifo,
    page_size: usize,
    barrier: Option<&Barrier>,
) -> SessionResult {
    let mut r = SessionResult {
        lat_ns: Vec::with_capacity(ops.len()),
        ..SessionResult::default()
    };
    let fail = |res: Res<()>, failed: &mut u64| {
        if let Err(e) = res {
            if *failed == 0 {
                eprintln!("operation failed: {e}");
            }
            *failed += 1;
        }
    };
    let mut inserts = 0u32;
    if let Some(b) = barrier {
        b.wait();
    }
    let start = Instant::now();
    let mut due = start;
    for (i, op) in ops.into_iter().enumerate() {
        let i = i as u32 + 1;
        let flushing = i <= duty.flush_until;
        match op {
            Op::Read(id) => fail(client.read_page(id), &mut r.failed),
            Op::Write(body) => {
                r.user_bytes += user_bytes(&body, page_size);
                body.for_each_write(|p| fifo.note_write(p));
                let res = client.execute(body).and_then(|()| client.commit());
                r.commits += 1;
                fail(res, &mut r.failed);
                if flushing {
                    while let Some(victim) = fifo.pop_excess(FLUSH_KEEP) {
                        fail(client.flush_page(victim), &mut r.failed);
                    }
                }
            }
            Op::Get(key, want) => match client.tree_get(&key) {
                Ok(Some(got)) if got == want => {}
                Ok(_) => {
                    if r.failed == 0 {
                        eprintln!("get returned the wrong value");
                    }
                    r.failed += 1;
                }
                Err(e) => fail(Err(e), &mut r.failed),
            },
            Op::Insert(key, value) => {
                r.user_bytes += (key.len() + value.len()) as u64;
                let res = client
                    .tree_insert(&key, &value)
                    .and_then(|()| client.commit());
                r.commits += 1;
                fail(res, &mut r.failed);
                inserts += 1;
                if flushing && inserts % TREE_FLUSH_EVERY == 0 {
                    fail(client.flush_excess(FLUSH_KEEP), &mut r.failed);
                }
            }
        }
        if duty.sweep_every != 0 && i % duty.sweep_every == 0 {
            if let Some(sw) = sweeper.as_deref_mut() {
                let (t0, archive0) = (Instant::now(), sw.archive_ns);
                fail(client.sweep_call(sw), &mut r.failed);
                r.backup_ns += t0.elapsed().as_nanos() as u64 - (sw.archive_ns - archive0);
            }
        }
        if duty.truncate_every != 0 && i % duty.truncate_every == 0 {
            fail(client.truncate_log(), &mut r.failed);
        }
        let now = Instant::now();
        r.lat_ns
            .push(now.duration_since(due).as_nanos().min(u32::MAX as u128) as u32);
        due = now;
    }
    r.span = Some((start, due));
    r
}

/// Everything measured in one run. The series hold one value per
/// lifecycle round.
#[derive(Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub fg_ops_per_s: Vec<f64>,
    pub op_p50_us: Vec<f64>,
    pub op_p99_us: Vec<f64>,
    pub backup_pages_per_s: Vec<f64>,
    pub log_bytes_per_op: Vec<f64>,
    pub forces_per_commit: Vec<f64>,
    pub redo_records_per_s: Vec<f64>,
    pub restore_pages_per_s: Vec<f64>,
    /// Wall seconds of each round's timed phases (`backup_s` is the part
    /// of `online_s` spent inside sweep calls), and whether the round
    /// recorded spans.
    pub online_s: Vec<f64>,
    pub backup_s: Vec<f64>,
    pub redo_s: Vec<f64>,
    pub restore_s: Vec<f64>,
    pub traced: Vec<bool>,
    /// Untimed work: generating ops, warming the cache, feeding and
    /// comparing the shadow.
    pub generate_s: f64,
    pub warm_s: f64,
    pub verify_s: f64,
    /// Counter growth over the online phases of all rounds.
    pub online: Counters,
    pub fg_ops: u64,
    pub commits: u64,
    pub user_bytes: u64,
    pub gets: u64,
    pub get_page_reads: u64,
    pub spans: Vec<Span>,
    pub sessions: usize,
    pub attempted: u64,
    pub failed: u64,
}

struct Built {
    db: Db,
    shadow: Shadow,
    sweeper: Sweeper,
}

/// Build the engine, preload the database, take (and on the engine front
/// register) the first full backup of every domain.
fn set_up(plan: &Plan, epoch: Instant) -> Res<Built> {
    let spec = &plan.db;
    let mut db = Db::build(spec, epoch)?;
    let mut shadow = match &plan.traffic {
        Traffic::Pages { .. } => Shadow::Pages(PageShadow::new(
            spec.partitions,
            spec.pages_per_partition,
            spec.page_size,
        )),
        Traffic::Tree { .. } => Shadow::Tree(TreeShadow::default()),
    };
    {
        let mut clients = db.clients(1, epoch);
        let c = &mut clients[0];
        match (&plan.traffic, &mut shadow) {
            (Traffic::Pages { mix, .. }, Shadow::Pages(shadow)) => {
                // One write per page, of the workload's own write kind, so
                // the first backup copies real content. The seed is fixed:
                // every run starts from the same database.
                let mut rng = Rng::new(0xB007);
                let mut batch = Vec::with_capacity(PRELOAD_BATCH);
                for p in 0..spec.partitions {
                    for i in 0..spec.pages_per_partition {
                        let id = PageId::new(p, i);
                        let body = crate::gen::preload_write(&mut rng, id, spec.page_size, *mix);
                        shadow.apply(&body).map_err(|e| e.to_string())?;
                        c.execute(body)?;
                        batch.push(id);
                        // Commit and flush in small batches: an unforced
                        // log tail and an uninstalled write graph both
                        // cost more per op the longer they grow.
                        if batch.len() == PRELOAD_BATCH {
                            c.commit()?;
                            for id in batch.drain(..) {
                                c.flush_page(id)?;
                            }
                        }
                    }
                }
                c.commit()?;
            }
            (
                Traffic::Tree {
                    preload_keys,
                    value_len,
                    ..
                },
                Shadow::Tree(shadow),
            ) => {
                for (n, (k, v)) in KeyGen::preload(*preload_keys, *value_len)
                    .into_iter()
                    .enumerate()
                {
                    c.tree_insert(&k, &v)?;
                    shadow.insert(k, v);
                    // Bulk load keeps the write graph small: `add_op` runs a
                    // full-graph SCC pass whenever an op re-dirties a page.
                    if (n as u32 + 1) % PRELOAD_FLUSH_EVERY == 0 {
                        c.flush_excess(0)?;
                    }
                }
            }
            _ => unreachable!("traffic and shadow are built together"),
        }
    }
    db.flush_all()?;
    let mut sweeper = Sweeper::new(
        spec,
        (0..spec.domains()).collect(),
        plan.steps_per_sweep(),
        plan.register_every,
    );
    {
        let mut clients = db.clients(1, epoch);
        while sweeper.completed < u64::from(spec.domains()) {
            sweeper.register_next();
            clients[0].sweep_call(&mut sweeper)?;
        }
    }
    Ok(Built {
        db,
        shadow,
        sweeper,
    })
}

/// One generator per session. A single session ranges over every
/// partition; session `s` of several is confined to partition `s`.
fn generators(plan: &Plan, seed: u64) -> Vec<Gen> {
    let spec = &plan.db;
    (0..plan.sessions)
        .map(|s| {
            let seed = seed ^ crate::gen::mix64(s as u64 + 1);
            match &plan.traffic {
                Traffic::Pages {
                    span,
                    theta,
                    read_share,
                    mix,
                } => {
                    let parts: Vec<u32> = if plan.sessions == 1 {
                        (0..spec.partitions).collect()
                    } else {
                        vec![s as u32]
                    };
                    Gen::Pages(PageGen::new(
                        seed,
                        &parts,
                        spec.pages_per_partition,
                        *span,
                        *theta,
                        spec.page_size,
                        *read_share,
                        *mix,
                    ))
                }
                Traffic::Tree {
                    preload_keys,
                    value_len,
                    theta,
                    insert_share,
                } => Gen::Tree(KeyGen::new(
                    seed,
                    *preload_keys,
                    *theta,
                    *value_len,
                    *insert_share,
                )),
            }
        })
        .collect()
}

/// Compare the database with the shadow: every stable page byte for byte,
/// or `BTree::check` plus every key and value of a full scan. Returns
/// (compared, differing).
fn verify(db: &mut Db, shadow: &Shadow) -> (u64, u64) {
    match shadow {
        Shadow::Pages(s) => (s.page_count() as u64, s.mismatches(|id| db.stable_page(id))),
        Shadow::Tree(s) => match db.tree_check_and_scan() {
            Ok(scan) => (s.len() as u64, s.mismatches(&scan)),
            Err(e) => {
                eprintln!("tree check failed: {e}");
                (s.len() as u64, s.len() as u64)
            }
        },
    }
}

/// The tree check every round can afford: each key the round committed
/// must be found with its value, and each key of the uncommitted tail
/// must be gone. Returns (compared, differing).
fn verify_round_keys(db: &mut Db, committed: &[Vec<Op>], lost: &[Vec<u8>]) -> (u64, u64) {
    let inserted = committed.iter().flatten().filter_map(|op| match op {
        Op::Insert(k, v) => Some((k, Some(v))),
        _ => None,
    });
    let (mut compared, mut differing) = (0, 0);
    for (key, want) in inserted.chain(lost.iter().map(|k| (k, None))) {
        compared += 1;
        match db.tree_get(key) {
            Ok(got) if got.as_ref() == want => {}
            _ => differing += 1,
        }
    }
    (compared, differing)
}

/// Run one workload end to end. With `trace`, even rounds record spans and
/// odd rounds do not, so the two sets of rounds measure tracing's own cost
/// on the same fixed work.
///
/// Returns the measurements and the database as the last round left it,
/// for the probes to sample.
pub fn run(plan: &Plan, seed: u64, trace: bool) -> Res<(Measured, Db)> {
    plan.validate()?;
    let epoch = Instant::now();
    let spec = plan.db.clone();

    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..plan.setup_repeats {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(set_up(plan, epoch)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Built {
        mut db,
        mut shadow,
        mut sweeper,
    } = built.ok_or("no set-up ran")?;

    let mut gens = generators(plan, seed);
    let mut fifos: Vec<DirtyFifo> = (0..plan.sessions)
        .map(|_| DirtyFifo::new(spec.partitions, spec.pages_per_partition))
        .collect();

    let mut m = Measured {
        setup_s,
        sessions: plan.sessions,
        ..Measured::default()
    };

    for round in 0..plan.rounds {
        let traced = trace && round % 2 == 0;
        // The tree's full check and scan go through the bounded cache and
        // cost over a second, so only some rounds pay for them; every
        // round looks up the keys it wrote.
        let verified = (round + 1) % plan.verify_every == 0 || round + 1 == plan.rounds;

        // Inputs first: nothing is generated while a clock runs.
        let t_gen = Instant::now();
        let round_ops: Vec<Vec<Op>> = gens
            .iter_mut()
            .map(|g| g.ops(plan.ops_per_round as usize))
            .collect();
        let tail: Vec<Op> = match &mut gens[0] {
            Gen::Pages(g) => (0..UNCOMMITTED_TAIL)
                .map(|_| Op::Write(g.uncommitted_write()))
                .collect(),
            Gen::Tree(g) => (0..UNCOMMITTED_TAIL)
                .map(|_| {
                    let (k, v) = g.uncommitted_insert();
                    Op::Insert(k, v)
                })
                .collect(),
        };
        let shadow_ops = round_ops.clone();
        let lost_keys: Vec<Vec<u8>> = tail
            .iter()
            .filter_map(|op| match op {
                Op::Insert(k, _) => Some(k.clone()),
                _ => None,
            })
            .collect();
        let warm_keys = match (plan.warmup, &mut gens[0]) {
            (Warmup::TreeGets(n), Gen::Tree(g)) => g.warmup_keys(n as usize),
            _ => Vec::new(),
        };
        m.generate_s += t_gen.elapsed().as_secs_f64();

        // Warm the cache the restore emptied, outside every clock and
        // every counter.
        let t_warm = Instant::now();
        {
            let mut clients = db.clients(1, epoch);
            if plan.warmup == Warmup::EveryPage {
                for p in 0..spec.partitions {
                    for i in 0..spec.pages_per_partition {
                        clients[0].read_page(PageId::new(p, i))?;
                    }
                }
            }
            if let (Warmup::TreeGets(_), Some(capacity)) = (plan.warmup, spec.cache_capacity) {
                for i in 0..capacity as u32 {
                    clients[0].read_page(PageId::new(0, i))?;
                }
            }
            for key in &warm_keys {
                clients[0].tree_get(key)?;
            }
        }
        m.warm_s += t_warm.elapsed().as_secs_f64();

        // Online phase.
        sweeper.start_at(round as usize % spec.domains() as usize);
        let before = db.counters();
        let pages_before = sweeper.pages_completed;
        let results: Vec<SessionResult> = {
            let mut clients = db.clients(plan.sessions, epoch);
            for c in clients.iter_mut() {
                c.tracer.enter(traced, round, Kind::Online);
            }
            let duties: Vec<Duty> = (0..plan.sessions)
                .map(|s| Duty {
                    sweep_every: if s == 0 { plan.sweep_every } else { 0 },
                    truncate_every: if s == 0 { plan.truncate_every } else { 0 },
                    flush_until: plan.ops_per_round - plan.flusher_pause_tail,
                })
                .collect();
            let results = if plan.sessions == 1 {
                let ops = round_ops.into_iter().next().unwrap_or_default();
                vec![run_session(
                    &mut clients[0],
                    ops,
                    &duties[0],
                    Some(&mut sweeper),
                    &mut fifos[0],
                    spec.page_size,
                    None,
                )]
            } else {
                let barrier = Barrier::new(plan.sessions);
                let mut sweeper_slot = Some(&mut sweeper);
                std::thread::scope(|scope| {
                    let handles: Vec<_> = clients
                        .iter_mut()
                        .zip(round_ops)
                        .zip(fifos.iter_mut())
                        .zip(&duties)
                        .map(|(((client, ops), fifo), duty)| {
                            let sw = if duty.sweep_every != 0 {
                                sweeper_slot.take()
                            } else {
                                None
                            };
                            let barrier = &barrier;
                            scope.spawn(move || {
                                run_session(
                                    client,
                                    ops,
                                    duty,
                                    sw,
                                    fifo,
                                    spec.page_size,
                                    Some(barrier),
                                )
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("session thread panicked"))
                        .collect()
                })
            };
            // The tail a crash must lose: executed, never committed.
            for c in clients.iter_mut() {
                c.tracer.enter(false, round, Kind::Online);
            }
            for op in tail {
                let res = match op {
                    Op::Write(body) => clients[0].execute(body),
                    Op::Insert(k, v) => clients[0].tree_insert(&k, &v),
                    _ => Ok(()),
                };
                if res.is_err() {
                    m.failed += 1;
                }
            }
            m.gets += clients.iter().map(|c| c.gets).sum::<u64>();
            m.get_page_reads += clients.iter().map(|c| c.get_page_reads).sum::<u64>();
            m.spans.extend(drain_spans(&mut clients));
            results
        };
        if sweeper.in_flight() {
            return Err("a sweep was still in flight at the end of a round".into());
        }
        let delta = db.counters().since(&before);
        m.online.add(&delta);

        let start = results.iter().filter_map(|r| r.span).map(|s| s.0).min();
        let end = results.iter().filter_map(|r| r.span).map(|s| s.1).max();
        let (Some(start), Some(end)) = (start, end) else {
            return Err("a session did not run".into());
        };
        let online_s = end.duration_since(start).as_secs_f64();
        db.tracer.enter(traced, round, Kind::Round);
        db.tracer.phase(Kind::Online, round, start, end);
        let ops: u64 = results.iter().map(|r| r.lat_ns.len() as u64).sum();
        let commits: u64 = results.iter().map(|r| r.commits).sum();
        let backup_ns: u64 = results.iter().map(|r| r.backup_ns).sum();
        let mut lat: Vec<u32> = results
            .iter()
            .flat_map(|r| r.lat_ns.iter().copied())
            .collect();
        m.failed += results.iter().map(|r| r.failed).sum::<u64>();
        m.attempted += ops;
        m.fg_ops += ops;
        m.commits += commits;
        m.user_bytes += results.iter().map(|r| r.user_bytes).sum::<u64>();
        let backup_s = backup_ns as f64 / 1e9;
        m.traced.push(traced);
        m.online_s.push(online_s);
        m.backup_s.push(backup_s);
        m.fg_ops_per_s.push(ops as f64 / online_s);
        lat.sort_unstable();
        m.op_p50_us.push(percentile_ns(&lat, 0.50) / 1e3);
        m.op_p99_us.push(percentile_ns(&lat, 0.99) / 1e3);
        m.backup_pages_per_s
            .push((sweeper.pages_completed - pages_before) as f64 / backup_s);
        m.log_bytes_per_op.push(delta.log_bytes as f64 / ops as f64);
        m.forces_per_commit
            .push(delta.log_forces as f64 / commits.max(1) as f64);

        // Crash + redo.
        db.tracer.enter(traced, round, Kind::Redo);
        let t0 = Instant::now();
        db.crash();
        let scanned = db.recover();
        let t1 = Instant::now();
        for f in fifos.iter_mut() {
            f.clear();
        }
        db.tracer.phase(Kind::Redo, round, t0, t1);
        let redo_s = t1.duration_since(t0).as_secs_f64();
        m.redo_s.push(redo_s);
        m.redo_records_per_s.push(scanned? as f64 / redo_s);
        m.attempted += 1;

        // The shadow catches up outside every clock, then judges.
        let t_verify = Instant::now();
        for op in shadow_ops.iter().flatten() {
            match (op, &mut shadow) {
                (Op::Write(body), Shadow::Pages(s)) => s.apply(body).map_err(|e| e.to_string())?,
                (Op::Insert(k, v), Shadow::Tree(s)) => s.insert(k.clone(), v.clone()),
                _ => {}
            }
        }
        let judge = |db: &mut Db, m: &mut Measured| {
            let (compared, differing) = if verified {
                verify(db, &shadow)
            } else if spec.tree {
                verify_round_keys(db, &shadow_ops, &lost_keys)
            } else {
                (0, 0)
            };
            m.attempted += compared;
            m.failed += differing;
        };
        judge(&mut db, &mut m);
        m.verify_s += t_verify.elapsed().as_secs_f64();

        // Media failure + restore.
        db.tracer.enter(traced, round, Kind::Restore);
        db.wipe()?;
        let t0 = Instant::now();
        let restored = db.restore(&sweeper);
        let t1 = Instant::now();
        restored?;
        db.tracer.phase(Kind::Restore, round, t0, t1);
        let restore_s = t1.duration_since(t0).as_secs_f64();
        m.restore_s.push(restore_s);
        m.restore_pages_per_s
            .push(spec.total_pages() as f64 / restore_s);
        m.attempted += 1;
        let t_verify = Instant::now();
        judge(&mut db, &mut m);
        m.verify_s += t_verify.elapsed().as_secs_f64();
        m.spans.extend(db.tracer.drain());
    }

    if trace && spec.archive {
        // An instant-restore epoch, recorded for a later benchmark to
        // promote; it feeds no end-to-end metric.
        db.tracer.enter(true, plan.rounds, Kind::Restore);
        let before = db.counters();
        db.instant_epoch(PageId::new(0, 0))?;
        let delta = db.counters().since(&before);
        m.online.instant_on_demand = delta.instant_on_demand;
        m.online.instant_swept = delta.instant_swept;
        let (compared, differing) = verify(&mut db, &shadow);
        m.attempted += compared + 1;
        m.failed += differing;
        m.spans.extend(db.tracer.drain());
    }
    Ok((m, db))
}
