//! Partition-parallel restore and redo.
//!
//! The paper's §3.4 parallelism argument is symmetric: just as the on-line
//! backup sweep fans one worker out per coordinator domain, *recovery* can
//! replay independent parts of the log concurrently — provided dependent
//! operations are never reordered. Logical operations create cross-object
//! dependencies (the forest structure the write graph tracks), so the
//! scheduler here partitions the log suffix into **replay units**:
//! connected components of records over the pages they touch (read set ∪
//! write set, union-find). Two records that could ever observe each other —
//! directly or through any chain of intermediate pages — land in the same
//! unit; units are therefore pairwise page-disjoint and can replay on
//! separate workers with no synchronization at all.
//!
//! Why a per-unit replay is byte-identical to the global sequential scan
//! ([`crate::redo_scan`]) restricted to that unit's pages:
//!
//! * every record that writes or reads a page of the unit is *in* the unit,
//!   so the per-page LSN test and every replay-time read see exactly the
//!   intermediate states the global scan would produce;
//! * identity-record backdating anchors an identity write after the last
//!   earlier record writing its object — all writers of that object share
//!   the object's component, so the anchor is unit-local;
//! * control records touch no pages; they are counted by the plan and
//!   excluded from every unit.
//!
//! Batching is orthogonal: every unit replays through a [`GroupReplay`]
//! table — pages fault in from the store once, every later read and LSN
//! test is local, and installs are deferred and drained as contiguous
//! runs through [`StableStore::write_run`], one lock round-trip and one
//! checksummed [`Page`] construction per *installed* page instead of per
//! replayed write. Deferral is invisible to replay because every read
//! goes through the table. This is the only production replay body: crash
//! redo and media roll-forward run it over store-backed tables (`workers =
//! 1` is the sequential case), repair and instant restore over scratch
//! tables ([`crate::repair::replay_closure`]). The body is generic over
//! [`Replayable`]: crash redo and media roll-forward feed it
//! [`lob_wal::FrameView`]s read in place off the log, so a record the LSN
//! test skips is never decoded. The record-at-a-time
//! [`crate::redo_scan`] survives as the reference the differential tests
//! byte-compare every configuration against.

use crate::fxhash::FxHashMap;
use crate::redo::{reapply, Anchored, IdentitySchedule, RedoError, RedoOutcome};
use crate::replayable::Replayable;
use bytes::Bytes;
use lob_pagestore::{Lsn, Page, PageId, PageImage, PartitionId, StableStore};
use lob_wal::RecordKind;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// Tuning knobs for restore and redo, carried by `EngineConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Maximum replay workers. `1` (the default) replays the whole suffix
    /// on the calling thread; each additional worker replays independent
    /// units concurrently.
    pub workers: usize,
    /// Dirty pages a replay buffers before draining them as contiguous
    /// runs through [`StableStore::write_run`], and the longest run an
    /// image install writes per store round-trip. The default holds a
    /// whole hot set, so a replay drains once at its end.
    pub batch: usize,
}

impl Default for RecoveryConfig {
    /// One worker, whole-hot-set batches.
    fn default() -> Self {
        RecoveryConfig {
            workers: 1,
            batch: 4096,
        }
    }
}

impl RecoveryConfig {
    /// A configuration with both knobs clamped to at least 1.
    pub fn new(workers: usize, batch: usize) -> RecoveryConfig {
        RecoveryConfig {
            workers: workers.max(1),
            batch: batch.max(1),
        }
    }
}

/// Union-find over dense node ids, with path compression and deterministic
/// (lowest-root-wins) union so plans are reproducible across runs.
#[derive(Debug, Default)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn push(&mut self) -> usize {
        let id = self.parent.len();
        self.parent.push(id);
        id
    }

    fn len(&self) -> usize {
        self.parent.len()
    }

    fn find(&mut self, mut x: usize) -> usize {
        loop {
            let p = self.parent.get(x).copied().unwrap_or(x);
            if p == x {
                return x;
            }
            let gp = self.parent.get(p).copied().unwrap_or(p);
            if let Some(slot) = self.parent.get_mut(x) {
                *slot = gp;
            }
            x = gp;
        }
    }

    fn union(&mut self, a: usize, b: usize) -> usize {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return ra;
        }
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        if let Some(slot) = self.parent.get_mut(hi) {
            *slot = lo;
        }
        lo
    }
}

/// One independently replayable subsequence of the log suffix: record
/// indices (ascending, into the original slice) plus the pages the unit
/// owns. Units of one plan are pairwise page-disjoint.
#[derive(Debug, Clone, Default)]
pub struct ReplayUnit {
    indices: Vec<usize>,
    pages: BTreeSet<PageId>,
}

impl ReplayUnit {
    /// Indices into the original record slice, in log order.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Pages owned by this unit (the union of all its records' read and
    /// write sets).
    pub fn pages(&self) -> &BTreeSet<PageId> {
        &self.pages
    }

    /// Number of records in the unit.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the unit holds no records.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }
}

/// The write-graph-aware schedule for one log suffix: replay units (page
/// connected components) in first-record order, plus the control-record
/// count (controls belong to no unit).
#[derive(Debug, Clone, Default)]
pub struct ReplayPlan {
    units: Vec<ReplayUnit>,
    controls: u64,
}

impl ReplayPlan {
    /// Partition `records` (in LSN order) into replay units with one
    /// union-find pass over the touched pages. Plan construction is on the
    /// restore critical path (only the parallel pipeline pays it), so the
    /// pass allocates nothing per record: pages are visited in place via
    /// [`Replayable::for_each_write`]/[`Replayable::for_each_read`] (over
    /// frame views, straight off the encoded id lists) and the page→node
    /// map is a seed-free fast-hash table.
    pub fn build<R: Replayable>(records: &[R]) -> ReplayPlan {
        let mut uf = UnionFind::default();
        let mut page_node: FxHashMap<PageId, usize> = FxHashMap::default();
        let mut rec_node: Vec<Option<usize>> = Vec::with_capacity(records.len());
        let mut controls = 0u64;
        for rec in records {
            if rec.kind() == RecordKind::Control {
                controls += 1;
                rec_node.push(None);
                continue;
            }
            let mut node: Option<usize> = None;
            let mut touch = |p: PageId| {
                let pn = match page_node.entry(p) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(v) => *v.insert(uf.push()),
                };
                node = Some(match node {
                    None => uf.find(pn),
                    Some(n) => uf.union(n, pn),
                });
            };
            rec.for_each_write(&mut touch);
            rec.for_each_read(&mut touch);
            // An op touching no pages (none exist today) forms its own
            // trivial unit rather than silently dropping from the plan.
            let n = match node {
                Some(n) => n,
                None => uf.push(),
            };
            rec_node.push(Some(n));
        }
        // Second pass: roots are stable now, so unit membership is two
        // dense-array loads per record (no tree lookups).
        let mut unit_of_root: Vec<usize> = vec![usize::MAX; uf.len()];
        let mut units: Vec<ReplayUnit> = Vec::new();
        for (i, n) in rec_node.iter().enumerate() {
            let Some(n) = *n else { continue };
            let root = uf.find(n);
            let slot = match unit_of_root.get_mut(root) {
                Some(slot) => slot,
                None => continue,
            };
            if *slot == usize::MAX {
                *slot = units.len();
                units.push(ReplayUnit::default());
            }
            if let Some(unit) = units.get_mut(*slot) {
                unit.indices.push(i);
            }
        }
        for (&p, &n) in &page_node {
            let root = uf.find(n);
            if let Some(unit) = unit_of_root.get(root).and_then(|&ui| units.get_mut(ui)) {
                unit.pages.insert(p);
            }
        }
        ReplayPlan { units, controls }
    }

    /// The units, ordered by first record index.
    pub fn units(&self) -> &[ReplayUnit] {
        &self.units
    }

    /// Control records seen (they belong to no unit).
    pub fn controls(&self) -> u64 {
        self.controls
    }

    /// Deterministically pack units onto at most `workers` queues
    /// (longest-processing-time greedy: biggest unit first onto the least
    /// loaded queue, lowest queue id on ties). Returns per-queue lists of
    /// unit indices.
    pub fn assign(&self, workers: usize) -> Vec<Vec<usize>> {
        let lanes = workers.max(1).min(self.units.len().max(1));
        let mut order: Vec<usize> = (0..self.units.len()).collect();
        order.sort_by_key(|&i| {
            (
                std::cmp::Reverse(self.units.get(i).map_or(0, |u| u.len())),
                i,
            )
        });
        let mut queues: Vec<Vec<usize>> = vec![Vec::new(); lanes];
        let mut loads: Vec<usize> = vec![0; lanes];
        for i in order {
            let mut best = 0usize;
            let mut best_load = usize::MAX;
            for (w, &l) in loads.iter().enumerate() {
                if l < best_load {
                    best = w;
                    best_load = l;
                }
            }
            if let Some(q) = queues.get_mut(best) {
                q.push(i);
            }
            if let Some(l) = loads.get_mut(best) {
                *l += self.units.get(i).map_or(0, |u| u.len());
            }
        }
        queues
    }
}

fn write_pending_run(
    store: &StableStore,
    start: Option<PageId>,
    run: &mut Vec<Page>,
) -> Result<(), RedoError> {
    if run.is_empty() {
        return Ok(());
    }
    match start {
        Some(s) => store
            // lint:allow(durability-order) restore installs runs from a durable backup image; no log records are at risk
            .write_run(s.partition, s.index, run)
            .map_err(RedoError::from),
        None => Ok(()),
    }
}

/// One page of a [`GroupReplay`] table: its pageLSN and what the table
/// holds of its payload.
struct PageSlot {
    lsn: Lsn,
    payload: Payload,
}

/// What a [`PageSlot`] holds of its page's value. A dirty slot always
/// holds its payload, so a drain never has to fetch one.
enum Payload {
    /// Only the pageLSN was read ([`StableStore::probe_lsn`]): the store
    /// holds the value, taken ([`StableStore::probed_data`]) only if a
    /// replayed operation reads the page.
    Probed,
    /// The value the store (or the seed) holds.
    Clean(Bytes),
    /// A replayed value not yet installed.
    Dirty(Bytes),
}

impl PageSlot {
    /// A slot holding `page` as the store (or the seed) has it.
    fn clean(page: &Page) -> PageSlot {
        PageSlot {
            lsn: page.lsn(),
            payload: Payload::Clean(page.data().clone()),
        }
    }

    fn is_dirty(&self) -> bool {
        matches!(self.payload, Payload::Dirty(_))
    }
}

/// The grouped replay state for one unit: a local page table the whole
/// subsequence replays against, with installs deferred and drained as
/// contiguous runs through [`StableStore::write_run`].
///
/// A [`GroupReplay::scratch`] table has no store: a first touch of an
/// unseeded page is [`RedoError::OutsideClosure`], and it never drains.
///
/// What this saves over a write-through replay, beyond amortizing lock
/// round-trips:
///
/// * pages are fetched from the store once (first touch) and every later
///   read or LSN test is a local map hit;
/// * a first touch by the LSN test reads only the pageLSN: a page whose
///   records all skip is never taken as a payload handle, and a page a
///   replayed operation reads is taken once, without a second fault
///   consult or counted read;
/// * intermediate page versions are plain `(Lsn, Bytes)` pairs — the
///   checksummed [`Page`] is only constructed at drain time, so the
///   checksum is paid per *installed* page, not per replayed write.
///
/// The final store state is byte-identical to write-through replay (the
/// differential torture oracle and the grid tests pin this): deferral is
/// invisible to the replay itself because all reads go through the table,
/// and the drained value/LSN per page equals the last write-through
/// value. `batch` bounds how many dirty pages may be pending before a
/// drain, so memory stays proportional to the knob.
pub(crate) struct GroupReplay<'a> {
    /// The store replayed into; `None` for a scratch replay.
    store: Option<&'a StableStore>,
    /// Dirty pages pending before a drain.
    batch: usize,
    table: FxHashMap<PageId, PageSlot>,
    dirty: usize,
}

impl<'a> GroupReplay<'a> {
    /// `pages_hint` pre-sizes the table (the plan already counted each
    /// unit's distinct pages); `0` means unknown.
    pub(crate) fn new(store: &'a StableStore, batch: usize, pages_hint: usize) -> Self {
        GroupReplay {
            store: Some(store),
            batch: batch.max(1),
            table: FxHashMap::with_capacity_and_hasher(pages_hint, Default::default()),
            dirty: 0,
        }
    }

    /// A scratch table holding exactly `seed`.
    pub(crate) fn scratch(seed: BTreeMap<PageId, Page>) -> GroupReplay<'static> {
        let table = seed
            .iter()
            .map(|(&id, page)| (id, PageSlot::clean(page)))
            .collect();
        GroupReplay {
            store: None,
            batch: usize::MAX,
            table,
            dirty: 0,
        }
    }

    /// The table's pages as replayed (a scratch replay's result). A
    /// scratch table has no store to probe, so every slot holds its
    /// payload.
    pub(crate) fn into_pages(self) -> BTreeMap<PageId, Page> {
        self.table
            .into_iter()
            .filter_map(|(id, slot)| match slot.payload {
                Payload::Clean(data) | Payload::Dirty(data) => {
                    Some((id, Page::new(slot.lsn, data)))
                }
                Payload::Probed => None,
            })
            .collect()
    }

    /// The pageLSN of `id`, probed from the store on first touch.
    fn lsn(&mut self, id: PageId) -> Result<Lsn, RedoError> {
        Ok(slot(&mut self.table, self.store, id)?.lsn)
    }

    /// The current value of `id`: read from the store on first touch,
    /// taken without a second consult if only its LSN was probed so far.
    fn data(&mut self, id: PageId) -> Result<Bytes, RedoError> {
        match self.table.entry(id) {
            Entry::Occupied(mut e) => {
                let slot = e.get_mut();
                match &slot.payload {
                    Payload::Clean(data) | Payload::Dirty(data) => Ok(data.clone()),
                    Payload::Probed => {
                        let data = backing(self.store, id)?.probed_data(id)?;
                        slot.payload = Payload::Clean(data.clone());
                        Ok(data)
                    }
                }
            }
            Entry::Vacant(v) => {
                let page = backing(self.store, id)?.read_page(id)?;
                v.insert(PageSlot::clean(&page));
                Ok(page.data().clone())
            }
        }
    }

    /// Record a replayed write; drains when `batch` dirty pages pend.
    pub(crate) fn set(&mut self, id: PageId, lsn: Lsn, data: Bytes) -> Result<(), RedoError> {
        match self.table.entry(id) {
            Entry::Occupied(mut e) => {
                let slot = e.get_mut();
                if !slot.is_dirty() {
                    self.dirty += 1;
                }
                slot.lsn = lsn;
                slot.payload = Payload::Dirty(data);
            }
            Entry::Vacant(v) => {
                v.insert(PageSlot {
                    lsn,
                    payload: Payload::Dirty(data),
                });
                self.dirty += 1;
            }
        }
        if self.dirty >= self.batch {
            return self.drain();
        }
        Ok(())
    }

    /// Replay a physically-logged write in one table probe: the LSN redo
    /// test and the conditional install share the slot lookup, and the
    /// logged value is aliased, never re-derived — replaying `W_P` is an
    /// install, not a re-computation. A first touch probes only the
    /// pageLSN. `value` is taken only if the page is written. Returns
    /// whether it was.
    fn install_if_newer(
        &mut self,
        id: PageId,
        lsn: Lsn,
        value: impl FnOnce() -> Bytes,
    ) -> Result<bool, RedoError> {
        let slot = slot(&mut self.table, self.store, id)?;
        if slot.lsn >= lsn {
            return Ok(false);
        }
        if !slot.is_dirty() {
            self.dirty += 1;
        }
        slot.lsn = lsn;
        slot.payload = Payload::Dirty(value());
        if self.dirty >= self.batch {
            self.drain()?;
        }
        Ok(true)
    }

    /// Install every dirty slot as contiguous runs. Slots stay resident
    /// (now clean) so later records still read locally.
    pub(crate) fn drain(&mut self) -> Result<(), RedoError> {
        let Some(store) = self.store else {
            return Ok(());
        };
        if self.dirty == 0 {
            return Ok(());
        }
        let mut ids: Vec<PageId> = self
            .table
            .iter()
            .filter(|(_, s)| s.is_dirty())
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        let mut start: Option<PageId> = None;
        let mut prev: Option<PageId> = None;
        let mut run: Vec<Page> = Vec::new();
        for id in ids {
            let Some(slot) = self.table.get_mut(&id) else {
                continue;
            };
            let Payload::Dirty(data) = std::mem::replace(&mut slot.payload, Payload::Probed) else {
                continue;
            };
            let contiguous = matches!(prev, Some(p)
                if p.partition == id.partition && id.index == p.index + 1);
            if !contiguous {
                write_pending_run(store, start, &mut run)?;
                start = Some(id);
            }
            // The deferred checksummed Page: one construction per
            // installed page, not per replayed write.
            run.push(Page::new(slot.lsn, data.clone()));
            slot.payload = Payload::Clean(data);
            prev = Some(id);
        }
        write_pending_run(store, start, &mut run)?;
        self.dirty = 0;
        Ok(())
    }
}

/// The slot for `id`; a first touch probes only the pageLSN.
fn slot<'t>(
    table: &'t mut FxHashMap<PageId, PageSlot>,
    store: Option<&StableStore>,
    id: PageId,
) -> Result<&'t mut PageSlot, RedoError> {
    Ok(match table.entry(id) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(v) => v.insert(PageSlot {
            lsn: backing(store, id)?.probe_lsn(id)?,
            payload: Payload::Probed,
        }),
    })
}

/// The store behind a table's first touch of `id`, or a scratch table's
/// hard error.
fn backing(store: Option<&StableStore>, id: PageId) -> Result<&StableStore, RedoError> {
    store.ok_or(RedoError::OutsideClosure(id))
}

/// Replay a record subsequence through a [`GroupReplay`] table, draining
/// it at the end. Mirrors [`crate::redo_scan`] exactly — same identity
/// anchoring (shared [`IdentitySchedule`] cursor), same per-page LSN
/// test, same [`RedoOutcome`] counters — but reads and writes resolve
/// against the local table instead of store round-trips per record.
///
/// Per record, the schedule costs one cursor comparison; an identity
/// record costs one dense slot load while the schedule is built and one
/// table probe at its anchor, where its value is taken only if the LSN
/// test installs it. A general operation is decoded ([`Replayable::op`])
/// only after its LSN test says it replays.
pub(crate) fn replay_grouped<'a, R, I>(
    records: I,
    replay: &mut GroupReplay<'_>,
) -> Result<RedoOutcome, RedoError>
where
    R: Replayable + 'a,
    I: Iterator<Item = &'a R> + Clone,
{
    let mut schedule = IdentitySchedule::build(records.clone());
    let mut out = RedoOutcome::default();

    // An identity write installs a logged value, like `W_P`: the LSN test
    // and the install share one table probe.
    fn apply_identity<R: Replayable>(
        replay: &mut GroupReplay<'_>,
        items: &[Anchored<'_, R>],
        out: &mut RedoOutcome,
    ) -> Result<(), RedoError> {
        for a in items {
            if replay.install_if_newer(a.page, a.lsn, || a.rec.value())? {
                out.pages_written += 1;
            }
            out.replayed += 1;
        }
        Ok(())
    }
    apply_identity(replay, schedule.at_start(), &mut out)?;

    let mut needs: Vec<PageId> = Vec::new();
    let mut writes: Vec<PageId> = Vec::new();
    for (i, rec) in records.enumerate() {
        'one: {
            let lsn = rec.lsn();
            match rec.kind() {
                RecordKind::Control => {
                    out.controls += 1;
                    break 'one;
                }
                // Applied at its anchor; nothing at its natural position.
                RecordKind::Identity(_) => break 'one,
                RecordKind::Physical(target) => {
                    // Fast path: redo test + install in one probe, and the
                    // same counters the general path would produce.
                    if replay.install_if_newer(target, lsn, || rec.value())? {
                        out.pages_written += 1;
                        out.replayed += 1;
                    } else {
                        out.skipped += 1;
                    }
                    break 'one;
                }
                RecordKind::Op => {}
            }
            // LSN redo test, per written page. The write set is gathered
            // into a reused scratch vector — no allocation per record.
            writes.clear();
            rec.for_each_write(|w| writes.push(w));
            needs.clear();
            for &w in &writes {
                if replay.lsn(w)? < lsn {
                    needs.push(w);
                }
            }
            if needs.is_empty() {
                out.skipped += 1;
                break 'one;
            }
            // Only now is the operation decoded, to re-evaluate it against
            // current (local) state. An `Op` kind always has a body.
            let Some(body) = rec.op() else {
                break 'one;
            };
            let outputs = reapply(&body, lsn, |id| replay.data(id))?;
            for (pid, bytes) in outputs {
                if needs.contains(&pid) {
                    replay.set(pid, lsn, bytes)?;
                    out.pages_written += 1;
                }
            }
            out.replayed += 1;
        }
        // Identity records anchored here apply regardless of whether the
        // record itself replayed, was skipped, or was an identity record.
        apply_identity(replay, schedule.after(i), &mut out)?;
    }
    replay.drain()?;
    Ok(out)
}

fn accumulate(total: &mut RedoOutcome, part: RedoOutcome) {
    total.replayed += part.replayed;
    total.skipped += part.skipped;
    total.pages_written += part.pages_written;
    total.controls += part.controls;
}

/// The production redo pass: partition `records` into replay units and
/// fan them out over up to `config.workers` scoped threads, each replaying
/// through a batch-`config.batch` [`GroupReplay`] table.
///
/// With `workers <= 1` the whole suffix is one unit replayed on the
/// calling thread (no plan, no threads). The summed [`RedoOutcome`] is
/// identical to [`crate::redo_scan`]'s in every configuration, because
/// units partition the op records and the per-page LSN tests are
/// unit-local. The first failing unit's error (in plan order) is surfaced.
///
/// `records` are decoded [`lob_wal::LogRecord`]s or, on the engine's own
/// recovery path, [`lob_wal::FrameView`]s read in place off the log; both
/// replay through this one body with the same outcome.
pub fn parallel_redo_scan<R: Replayable + Sync>(
    records: &[R],
    store: &StableStore,
    config: RecoveryConfig,
) -> Result<RedoOutcome, RedoError> {
    let workers = config.workers.max(1);
    let batch = config.batch.max(1);
    if workers == 1 {
        return replay_grouped(records.iter(), &mut GroupReplay::new(store, batch, 0));
    }
    let plan = ReplayPlan::build(records);
    let queues = plan.assign(workers);
    let mut results: Vec<(usize, Result<RedoOutcome, RedoError>)> =
        Vec::with_capacity(queues.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(queues.len());
        for queue in &queues {
            let plan = &plan;
            let witness = lob_pagestore::witness::current();
            handles.push(scope.spawn(move || {
                lob_pagestore::witness::within(witness, || {
                    replay_queue(queue, plan, records, store, batch)
                })
            }));
        }
        for h in handles {
            results.push(h.join().unwrap_or((0, Err(RedoError::WorkerPanicked))));
        }
    });
    // Surface the earliest failing unit (plan order) so errors are
    // deterministic regardless of thread interleaving.
    results.sort_by_key(|&(ui, _)| ui);
    let mut total = RedoOutcome {
        controls: plan.controls(),
        ..RedoOutcome::default()
    };
    for (_, r) in results {
        accumulate(&mut total, r?);
    }
    Ok(total)
}

/// One redo worker's share: replay its queue of units in order. Returns the
/// first unit it owns with the summed outcome, or the failing unit with its
/// error.
fn replay_queue<R: Replayable>(
    queue: &[usize],
    plan: &ReplayPlan,
    records: &[R],
    store: &StableStore,
    batch: usize,
) -> (usize, Result<RedoOutcome, RedoError>) {
    let mut total = RedoOutcome::default();
    let mut first_unit = usize::MAX;
    for &ui in queue {
        first_unit = first_unit.min(ui);
        let Some(unit) = plan.units().get(ui) else {
            continue;
        };
        // Walks the indices in place — no per-unit record clone.
        let result = replay_grouped(
            unit.indices().iter().filter_map(|&i| records.get(i)),
            &mut GroupReplay::new(store, batch, unit.pages().len()),
        );
        match result {
            Ok(out) => accumulate(&mut total, out),
            Err(e) => return (ui, Err(e)),
        }
    }
    (first_unit, Ok(total))
}

/// Install a backup image's pages with up to `config.workers` workers,
/// each draining contiguous runs of at most `config.batch` pages through
/// [`StableStore::write_run`]. Runs are dealt round-robin to workers, so
/// the assignment is deterministic. Returns the number of pages installed.
pub fn parallel_install_image(
    image: &PageImage,
    store: &StableStore,
    config: RecoveryConfig,
) -> Result<u64, RedoError> {
    install_pages(image.iter(), store, config)
}

/// [`parallel_install_image`] for one partition's copies only (a partition
/// restore), read in place from the borrowed image.
pub fn parallel_install_partition(
    image: &PageImage,
    partition: PartitionId,
    store: &StableStore,
    config: RecoveryConfig,
) -> Result<u64, RedoError> {
    install_pages(image.iter_partition(partition), store, config)
}

/// The body of both installs: `pages` in id order, cut into runs.
fn install_pages<'a>(
    pages: impl Iterator<Item = (PageId, &'a Page)>,
    store: &StableStore,
    config: RecoveryConfig,
) -> Result<u64, RedoError> {
    struct RunSpec {
        start: PageId,
        pages: Vec<Page>,
    }
    let workers = config.workers.max(1);
    let batch = config.batch.max(1);
    let mut runs: Vec<RunSpec> = Vec::new();
    for (id, page) in pages {
        let extend = matches!(runs.last(), Some(r)
            if r.pages.len() < batch
                && r.start.partition == id.partition
                && r.start.index + r.pages.len() as u32 == id.index);
        if extend {
            if let Some(r) = runs.last_mut() {
                r.pages.push(page.clone());
            }
        } else {
            runs.push(RunSpec {
                start: id,
                pages: vec![page.clone()],
            });
        }
    }
    let total: u64 = runs.iter().map(|r| r.pages.len() as u64).sum();
    let install = |spec: &mut RunSpec| -> Result<(), RedoError> {
        store
            .write_run(spec.start.partition, spec.start.index, &mut spec.pages)
            .map_err(RedoError::from)
    };
    if workers == 1 {
        for spec in &mut runs {
            install(spec)?;
        }
        return Ok(total);
    }
    let mut queues: Vec<Vec<RunSpec>> = Vec::new();
    queues.resize_with(workers.min(runs.len().max(1)), Vec::new);
    let lanes = queues.len();
    for (i, spec) in runs.into_iter().enumerate() {
        if let Some(q) = queues.get_mut(i % lanes) {
            q.push(spec);
        }
    }
    let mut results: Vec<Result<(), RedoError>> = Vec::with_capacity(lanes);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(lanes);
        for queue in &mut queues {
            let install = &install;
            let witness = lob_pagestore::witness::current();
            handles.push(scope.spawn(move || {
                lob_pagestore::witness::within(witness, || queue.iter_mut().try_for_each(install))
            }));
        }
        for h in handles {
            results.push(h.join().unwrap_or(Err(RedoError::WorkerPanicked)));
        }
    });
    for r in results {
        r?;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::redo::{redo_scan, StoreRedoTarget};
    use bytes::Bytes;
    use lob_ops::{LogicalOp, OpBody};
    use lob_pagestore::{Lsn, StoreConfig};
    use lob_wal::{encode_record, FrameView, LogRecord, RecordBody};

    const SIZE: usize = 32;

    fn pid(i: u32) -> PageId {
        PageId::new(0, i)
    }

    fn op_rec(lsn: u64, body: OpBody) -> LogRecord {
        LogRecord::new(Lsn(lsn), RecordBody::Op(body))
    }

    fn phys(lsn: u64, t: u32, fill: u8) -> LogRecord {
        op_rec(
            lsn,
            OpBody::PhysicalWrite {
                target: pid(t),
                value: Bytes::from(vec![fill; SIZE]),
            },
        )
    }

    fn copy(lsn: u64, s: u32, d: u32) -> LogRecord {
        op_rec(
            lsn,
            OpBody::Logical(LogicalOp::Copy {
                src: pid(s),
                dst: pid(d),
            }),
        )
    }

    fn store(pages: u32) -> StableStore {
        StableStore::single(StoreConfig { page_size: SIZE }, pages)
    }

    #[test]
    fn plan_groups_connected_records() {
        // {0,1} chained by a copy; {2} independent; a control in no unit.
        let recs = vec![
            phys(1, 0, 0xAA),
            phys(2, 2, 0xBB),
            copy(3, 0, 1),
            LogRecord::new(Lsn(4), RecordBody::BackupEnd { backup_id: 7 }),
        ];
        let plan = ReplayPlan::build(&recs);
        assert_eq!(plan.controls(), 1);
        assert_eq!(plan.units().len(), 2);
        assert_eq!(plan.units()[0].indices(), &[0, 2]);
        assert_eq!(plan.units()[1].indices(), &[1]);
        assert!(plan.units()[0].pages().contains(&pid(1)));
        assert!(!plan.units()[1].pages().contains(&pid(0)));
    }

    #[test]
    fn plan_bridges_transitive_page_chains() {
        // 0 and 2 never co-occur in one op, but page 1 bridges them:
        // copy(0→1) then copy(1→2) must all share one unit.
        let recs = vec![
            phys(1, 0, 0x11),
            phys(2, 2, 0x22),
            copy(3, 0, 1),
            copy(4, 1, 2),
        ];
        let plan = ReplayPlan::build(&recs);
        assert_eq!(plan.units().len(), 1);
        assert_eq!(plan.units()[0].indices(), &[0, 1, 2, 3]);
    }

    #[test]
    fn assignment_is_deterministic_and_covers_all_units() {
        let recs: Vec<LogRecord> = (0..9u32).map(|i| phys(i as u64 + 1, i, i as u8)).collect();
        let plan = ReplayPlan::build(&recs);
        assert_eq!(plan.units().len(), 9);
        let a = plan.assign(4);
        let b = plan.assign(4);
        assert_eq!(a, b);
        let mut all: Vec<usize> = a.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_scan_matches_sequential_scan() {
        let recs = vec![
            phys(1, 0, 0x11),
            phys(2, 3, 0x22),
            copy(3, 0, 1),
            phys(4, 5, 0x33),
            copy(5, 1, 2),
            copy(6, 5, 6),
            op_rec(
                7,
                OpBody::IdentityWrite {
                    target: pid(3),
                    value: Bytes::from(vec![0x22; SIZE]),
                },
            ),
        ];
        let seq = store(8);
        let mut t = StoreRedoTarget::new(&seq);
        let want = redo_scan(&recs, &mut t).unwrap();
        for (workers, batch) in [(1, 1), (1, 64), (2, 1), (4, 8), (2, 64)] {
            let par = store(8);
            let got = parallel_redo_scan(&recs, &par, RecoveryConfig::new(workers, batch)).unwrap();
            assert_eq!(got, want, "workers={workers} batch={batch}");
            for i in 0..8 {
                assert_eq!(
                    par.read_page(pid(i)).unwrap(),
                    seq.read_page(pid(i)).unwrap(),
                    "page {i} workers={workers} batch={batch}"
                );
            }
        }
    }

    /// A seeded xorshift stream: the suffixes below are a pure function of
    /// the seed.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// Two partitions of `DIFF_PAGES` pages: enough for cross-partition
    /// units, few enough that identity writes keep hitting pages with
    /// earlier writers.
    const DIFF_PAGES: u32 = 6;

    fn diff_store() -> StableStore {
        StableStore::new(
            StoreConfig { page_size: SIZE },
            &[
                lob_pagestore::PartitionSpec { pages: DIFF_PAGES },
                lob_pagestore::PartitionSpec { pages: DIFF_PAGES },
            ],
        )
    }

    fn any_page(rng: &mut Rng) -> PageId {
        PageId::new(rng.below(2) as u32, rng.below(DIFF_PAGES as u64) as u32)
    }

    fn distinct_pages(rng: &mut Rng, n: u64) -> Vec<PageId> {
        let mut pages: Vec<PageId> = Vec::new();
        while (pages.len() as u64) < n {
            let p = any_page(rng);
            if !pages.contains(&p) {
                pages.push(p);
            }
        }
        pages
    }

    /// An identity-dense suffix of `len` records at LSNs `1..=len`, plus
    /// a fuzzy starting image: each page is either null or carries some
    /// LSN of the suffix, so the LSN test both replays and skips.
    fn identity_dense_case(seed: u64, len: u64) -> (Vec<LogRecord>, Vec<(PageId, Page)>) {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let mut recs = Vec::new();
        for lsn in 1..=len {
            let fill = Bytes::from(vec![rng.below(256) as u8; SIZE]);
            let body = match rng.below(20) {
                0..=6 => OpBody::IdentityWrite {
                    target: any_page(&mut rng),
                    value: fill,
                },
                7..=10 => OpBody::PhysicalWrite {
                    target: any_page(&mut rng),
                    value: fill,
                },
                11..=13 => {
                    let pages = distinct_pages(&mut rng, 2);
                    OpBody::Logical(LogicalOp::Copy {
                        src: pages[0],
                        dst: pages[1],
                    })
                }
                14..=16 => {
                    let reads = 1 + rng.below(2);
                    let writes = 1 + rng.below(3);
                    OpBody::Logical(LogicalOp::Mix {
                        reads: distinct_pages(&mut rng, reads),
                        writes: distinct_pages(&mut rng, writes),
                        salt: rng.below(1 << 20),
                    })
                }
                17..=18 => OpBody::Physio(lob_ops::PhysioOp::SetBytes {
                    target: any_page(&mut rng),
                    offset: rng.below(SIZE as u64 - 2) as u32,
                    bytes: Bytes::from(vec![rng.below(256) as u8; 2]),
                }),
                _ => {
                    recs.push(LogRecord::new(
                        Lsn(lsn),
                        RecordBody::BackupEnd { backup_id: lsn },
                    ));
                    continue;
                }
            };
            recs.push(op_rec(lsn, body));
        }
        let mut image = Vec::new();
        for part in 0..2 {
            for index in 0..DIFF_PAGES {
                if rng.below(2) == 0 {
                    let lsn = Lsn(rng.below(len + 1));
                    let page = Page::new(lsn, Bytes::from(vec![rng.below(256) as u8; SIZE]));
                    image.push((PageId::new(part, index), page));
                }
            }
        }
        (recs, image)
    }

    /// Where the backdating rule says each identity record applies,
    /// computed the slow way: a backward search for the last earlier
    /// writer of its page. `(anchor, identity LSN)` in apply order.
    fn naive_schedule(recs: &[LogRecord]) -> Vec<(Option<usize>, u64)> {
        let mut want = Vec::new();
        for (k, rec) in recs.iter().enumerate() {
            let RecordBody::Op(OpBody::IdentityWrite { target, .. }) = &rec.body else {
                continue;
            };
            let anchor = (0..k).rev().find(|&j| match &recs[j].body {
                RecordBody::Op(op) => op.writeset().contains(target),
                _ => false,
            });
            want.push((anchor, rec.lsn.raw()));
        }
        // Stable: one anchor's identity writes keep log (= LSN) order.
        want.sort_by_key(|&(anchor, _)| anchor.map_or(0, |j| j + 1));
        want
    }

    fn cursor_schedule(recs: &[LogRecord]) -> Vec<(Option<usize>, u64)> {
        let mut schedule = IdentitySchedule::build(recs.iter());
        let mut got: Vec<_> = schedule
            .at_start()
            .iter()
            .map(|a| (None, a.lsn.raw()))
            .collect();
        for i in 0..recs.len() {
            got.extend(schedule.after(i).iter().map(|a| (Some(i), a.lsn.raw())));
        }
        got
    }

    #[test]
    fn identity_dense_suffixes_replay_identically_in_every_configuration() {
        for seed in 0..48u64 {
            let (recs, image) = identity_dense_case(seed, 64);
            assert_eq!(
                cursor_schedule(&recs),
                naive_schedule(&recs),
                "seed {seed}: identity schedule"
            );
            let seeded = || {
                let s = diff_store();
                for (id, page) in &image {
                    s.write_page(*id, page.clone()).unwrap();
                }
                s
            };
            let reference = seeded();
            let want = redo_scan(&recs, &mut StoreRedoTarget::new(&reference)).unwrap();
            let want_pages = reference.snapshot().unwrap();
            // The same suffix as the log holds it: frames read in place.
            let frames: Vec<Bytes> = recs.iter().map(encode_record).collect();
            let views: Vec<FrameView<'_>> = frames
                .iter()
                .map(|f| FrameView::parse(f).unwrap())
                .collect();
            for workers in [1, 2, 4] {
                for batch in [1, 4096] {
                    for in_place in [false, true] {
                        let s = seeded();
                        let config = RecoveryConfig::new(workers, batch);
                        let got = if in_place {
                            parallel_redo_scan(&views, &s, config)
                        } else {
                            parallel_redo_scan(&recs, &s, config)
                        }
                        .unwrap();
                        let ctx =
                            format!("seed {seed} workers={workers} batch={batch} views={in_place}");
                        assert_eq!(got, want, "{ctx}: outcome");
                        let got_pages = s.snapshot().unwrap();
                        assert_eq!(got_pages.len(), want_pages.len(), "{ctx}: page count");
                        for (id, page) in want_pages.iter() {
                            assert_eq!(got_pages.get(id), Some(page), "{ctx}: {id}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn replay_time_read_crash_surfaces_as_the_store_error() {
        // copy(0 → 1): the LSN test reads page 1, then the copy's own read
        // of page 0 — issued from inside the op's `apply` — hits an
        // injected crash. Both replay bodies must return that store error,
        // not the op's stringified read failure.
        let recs = vec![copy(1, 0, 1)];
        for reference in [false, true] {
            let s = store(4);
            s.set_fault_hook(Some(std::sync::Arc::new(|event, page| {
                if event == lob_pagestore::IoEvent::PageRead && page == Some(pid(0)) {
                    lob_pagestore::FaultVerdict::Crash
                } else {
                    lob_pagestore::FaultVerdict::Proceed
                }
            })));
            let err = if reference {
                redo_scan(&recs, &mut StoreRedoTarget::new(&s))
            } else {
                parallel_redo_scan(&recs, &s, RecoveryConfig::default())
            }
            .unwrap_err();
            assert!(
                matches!(
                    err,
                    RedoError::Store(lob_pagestore::StoreError::InjectedCrash)
                ),
                "reference={reference}: {err}"
            );
        }
    }

    #[test]
    fn group_replay_defers_installs_and_serves_reads_locally() {
        let s = store(4);
        let mut g = GroupReplay::new(&s, 64, 0);
        g.set(pid(1), Lsn(5), Bytes::from(vec![0x77; SIZE]))
            .unwrap();
        // Not yet in the store, but visible through the table.
        assert!(s.read_page(pid(1)).unwrap().lsn().is_null());
        assert_eq!(g.lsn(pid(1)).unwrap(), Lsn(5));
        assert_eq!(g.data(pid(1)).unwrap().as_ref(), &[0x77; SIZE]);
        g.drain().unwrap();
        let installed = s.read_page(pid(1)).unwrap();
        assert_eq!(installed.lsn(), Lsn(5));
        assert_eq!(installed.data().as_ref(), &[0x77; SIZE]);
    }

    #[test]
    fn group_replay_drains_when_batch_dirty_pages_pend() {
        let s = store(8);
        let mut g = GroupReplay::new(&s, 2, 0);
        g.set(pid(0), Lsn(1), Bytes::from(vec![1; SIZE])).unwrap();
        assert!(s.read_page(pid(0)).unwrap().lsn().is_null());
        // Second dirty page crosses the batch bound: both install.
        g.set(pid(3), Lsn(2), Bytes::from(vec![2; SIZE])).unwrap();
        assert_eq!(s.read_page(pid(0)).unwrap().lsn(), Lsn(1));
        assert_eq!(s.read_page(pid(3)).unwrap().lsn(), Lsn(2));
        // Drained slots stay readable locally (now clean).
        assert_eq!(g.data(pid(0)).unwrap().as_ref(), &[1; SIZE]);
    }

    /// A counting hook: every `PageRead` consult, by page.
    fn count_reads(s: &StableStore) -> std::sync::Arc<std::sync::Mutex<Vec<PageId>>> {
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let log = seen.clone();
        s.set_fault_hook(Some(std::sync::Arc::new(move |event, page| {
            if let (lob_pagestore::IoEvent::PageRead, Some(page)) = (event, page) {
                log.lock().unwrap().push(page);
            }
            lob_pagestore::FaultVerdict::Proceed
        })));
        seen
    }

    #[test]
    fn a_replay_skipped_by_the_lsn_test_takes_no_payload() {
        // Every page already carries LSN 100; every record is older, so
        // each one skips, and no page is ever read for its value.
        let s = store(4);
        for i in 0..4 {
            s.write_page(pid(i), Page::new(Lsn(100), Bytes::from(vec![9; SIZE])))
                .unwrap();
        }
        let recs = [
            phys(1, 0, 0x11),
            copy(2, 0, 1),
            op_rec(
                3,
                OpBody::IdentityWrite {
                    target: pid(2),
                    value: Bytes::from(vec![0x22; SIZE]),
                },
            ),
            op_rec(
                4,
                OpBody::Logical(LogicalOp::Mix {
                    reads: vec![pid(0), pid(1)],
                    writes: vec![pid(2), pid(3)],
                    salt: 7,
                }),
            ),
        ];
        let seen = count_reads(&s);
        let before = s.stats().page_reads;
        let mut g = GroupReplay::new(&s, 64, 0);
        let out = replay_grouped(recs.iter(), &mut g).unwrap();
        assert_eq!((out.skipped, out.pages_written), (3, 0));
        assert_eq!(g.table.len(), 4, "every page was tested");
        assert!(
            g.table
                .values()
                .all(|slot| matches!(slot.payload, Payload::Probed)),
            "a skipped record takes no payload handle"
        );
        // One consult and one counted read per first-touched page.
        let mut consulted = seen.lock().unwrap().clone();
        consulted.sort_unstable();
        assert_eq!(consulted, (0..4).map(pid).collect::<Vec<_>>());
        assert_eq!(s.stats().page_reads - before, 4);
    }

    #[test]
    fn redo_consults_each_first_touched_page_once() {
        // A replayed op reads a page whose LSN the test already probed:
        // the payload comes without a second consult or counted read.
        for seed in 0..48u64 {
            let (recs, image) = identity_dense_case(seed, 64);
            let s = diff_store();
            for (id, page) in &image {
                s.write_page(*id, page.clone()).unwrap();
            }
            let seen = count_reads(&s);
            let before = s.stats().page_reads;
            let mut g = GroupReplay::new(&s, 4096, 0);
            replay_grouped(recs.iter(), &mut g).unwrap();
            let mut consulted = seen.lock().unwrap().clone();
            let total = consulted.len();
            consulted.sort_unstable();
            consulted.dedup();
            assert_eq!(
                consulted.len(),
                total,
                "seed {seed}: a page consulted twice"
            );
            assert_eq!(total, g.table.len(), "seed {seed}: one consult per touch");
            assert_eq!(
                s.stats().page_reads - before,
                total as u64,
                "seed {seed}: one counted read per touch"
            );
        }
    }

    #[test]
    fn install_image_round_trips_in_every_configuration() {
        let src = store(16);
        for i in 0..16u32 {
            src.write_page(
                pid(i),
                Page::new(Lsn(i as u64 + 1), Bytes::from(vec![i as u8; SIZE])),
            )
            .unwrap();
        }
        let img = src.snapshot().unwrap();
        for (workers, batch) in [(1, 1), (1, 8), (4, 1), (4, 8), (3, 64)] {
            let dst = store(16);
            let n =
                parallel_install_image(&img, &dst, RecoveryConfig::new(workers, batch)).unwrap();
            assert_eq!(n, 16, "workers={workers} batch={batch}");
            for i in 0..16u32 {
                assert_eq!(
                    dst.read_page(pid(i)).unwrap(),
                    src.read_page(pid(i)).unwrap(),
                    "page {i} workers={workers} batch={batch}"
                );
            }
        }
    }

    #[test]
    fn install_partition_installs_only_that_partition() {
        use lob_pagestore::PartitionSpec;
        let two = || {
            StableStore::new(
                StoreConfig { page_size: SIZE },
                &[PartitionSpec { pages: 8 }, PartitionSpec { pages: 8 }],
            )
        };
        let src = two();
        for p in 0..2u32 {
            for i in 0..8u32 {
                let fill = (p * 8 + i + 1) as u8;
                src.write_page(
                    PageId::new(p, i),
                    Page::new(Lsn(1), Bytes::from(vec![fill; SIZE])),
                )
                .unwrap();
            }
        }
        let img = src.snapshot().unwrap();
        for (workers, batch) in [(1, 1), (4, 3)] {
            let dst = two();
            let blank = dst.read_page(PageId::new(0, 0)).unwrap();
            let config = RecoveryConfig::new(workers, batch);
            let n = parallel_install_partition(&img, PartitionId(1), &dst, config).unwrap();
            assert_eq!(n, 8);
            for i in 0..8u32 {
                assert_eq!(dst.read_page(PageId::new(0, i)).unwrap(), blank);
                assert_eq!(
                    dst.read_page(PageId::new(1, i)).unwrap(),
                    src.read_page(PageId::new(1, i)).unwrap()
                );
            }
        }
    }

    #[test]
    fn config_clamps_to_one() {
        let c = RecoveryConfig::new(0, 0);
        assert_eq!((c.workers, c.batch), (1, 1));
        let d = RecoveryConfig::default();
        assert_eq!(d.workers, 1);
        assert!(d.batch >= 4096, "the default drains once per replay");
    }
}
