//! On-demand single-page (and single-partition) repair.
//!
//! Whole-device media recovery restores a backup image over `S` and rolls
//! the log forward. Online *self-healing* needs something surgical: one
//! quarantined page brought back to its current state while every other
//! page keeps serving. With purely physical log records that is easy —
//! fetch the backup copy, replay just that page's records. With **logical
//! log operations** it is not: replaying `copy(X → Y)` re-reads `X` from
//! current state, and current `X` may already reflect *later* operations
//! than the point the replay has reached, regenerating a wrong `Y`.
//!
//! The fix is the same observation that makes the paper's backup sound:
//! redo is only applicable when every record reads state of the *same
//! vintage* it saw in normal execution (the Lomet–Tuttle applicability
//! theorem, §2.3). So repair computes the **dependency closure** of the
//! target page over the log suffix — the page set reachable through
//! readsets of records that write into the set — seeds a *scratch* target
//! with the backup generation's copies of exactly those pages, and replays
//! the filtered suffix against the scratch. Every read during replay hits
//! a closure page of backup vintage; by the applicability theorem the
//! replay regenerates the target page's exact current value. Only then is
//! the single repaired page written back to `S`.
//!
//! Instant restore regenerates a segment the same way: both call
//! [`regenerate`], which replays through crash redo's grouped body over a
//! scratch table ([`crate::parallel`]).
//!
//! Replaying into a scratch (never `S` itself) also makes repair atomic
//! with respect to a concurrently running backup sweep: the sweep can never
//! capture a page that repair has temporarily rolled back to backup
//! vintage, because no such state ever exists in `S`.
//!
//! Transient I/O errors while fetching backup copies are retried under a
//! [`BackoffSchedule`] — bounded, seeded, and counted in *virtual ticks*:
//! repair never consults a wall clock (the determinism lint on this crate
//! enforces that), so drills replay identically.

use crate::parallel::{replay_grouped, GroupReplay};
use crate::redo::{RedoError, RedoOutcome};
use lob_backup::{merge_runs, BackupCatalog, BackupError};
use lob_pagestore::{CorruptionEntry, Lsn, Page, PageId};
use lob_wal::{LogRecord, RecordBody};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A bounded, deterministic retry schedule for transient I/O errors.
///
/// Delays are *virtual ticks* from a seeded xorshift-style mixer — never a
/// wall clock. Exponential in the attempt number with deterministic
/// jitter, so two repairs with the same seed back off identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffSchedule {
    /// Seed mixed into every delay (use the drill seed for reproducibility).
    pub seed: u64,
    /// Total attempts allowed, including the first (so `max_attempts - 1`
    /// retries). Zero means "don't even try once".
    pub max_attempts: u32,
}

impl BackoffSchedule {
    /// A schedule with the given seed and attempt bound.
    pub fn new(seed: u64, max_attempts: u32) -> BackoffSchedule {
        BackoffSchedule { seed, max_attempts }
    }

    /// Virtual ticks to wait after failed attempt `attempt` (0-based):
    /// `2^(attempt+1)` base plus deterministic jitter below the base.
    pub fn delay_ticks(&self, attempt: u32) -> u64 {
        let base = 1u64 << (attempt.min(16) + 1);
        let mut x = self
            .seed
            .wrapping_add((u64::from(attempt) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        base + (x % base)
    }

    /// Run `fetch` until it succeeds, fails with an error `is_transient`
    /// rejects, or has failed transiently `max_attempts` times — the last
    /// transient error is then returned. Each retry adds one to
    /// `cost.retries` and its virtual wait to `cost.backoff_ticks`; the
    /// wait is accounted, never slept.
    pub fn retry<T, E>(
        &self,
        cost: &mut FetchCost,
        is_transient: impl Fn(&E) -> bool,
        mut fetch: impl FnMut() -> Result<T, E>,
    ) -> Result<T, E> {
        let mut attempt = 0u32;
        loop {
            match fetch() {
                Err(e) if is_transient(&e) => {
                    attempt += 1;
                    if attempt >= self.max_attempts {
                        return Err(e);
                    }
                    cost.backoff_ticks += self.delay_ticks(attempt - 1);
                    cost.retries += 1;
                }
                done => return done,
            }
        }
    }
}

/// What fetches have cost so far: retries (see [`BackoffSchedule::retry`])
/// and the archive runs and records [`regenerate`] read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchCost {
    /// Transient failures that were retried.
    pub retries: u32,
    /// Virtual backoff ticks those retries waited.
    pub backoff_ticks: u64,
    /// Per-page archive runs fetched (the control run is not one).
    pub runs: u64,
    /// Archive records fetched across every run and control fetch.
    pub records: u64,
}

/// The dependency closure of `targets` over a log suffix: the least page
/// set containing `targets` and closed under "a record that writes into
/// the set contributes its readset and writeset".
///
/// Seeding a scratch replay with backup-vintage copies of exactly this set
/// guarantees every read issued while regenerating the targets hits a page
/// of the vintage the record originally saw — the applicability condition
/// for logical redo. For physical records the closure is just the targets;
/// logical records (copies, moves, tree splits) pull in their sources.
pub fn dependency_closure(records: &[LogRecord], targets: &BTreeSet<PageId>) -> BTreeSet<PageId> {
    let mut closure = targets.clone();
    loop {
        let before = closure.len();
        for rec in records {
            if let RecordBody::Op(op) = &rec.body {
                if op.writeset().iter().any(|w| closure.contains(w)) {
                    closure.extend(op.readset());
                    closure.extend(op.writeset());
                }
            }
        }
        if closure.len() == before {
            return closure;
        }
    }
}

/// The subsequence of `records` a closure replay needs, filtered in place:
/// every operation that writes at least one closure page (identity writes
/// of closure pages included, so the redo pass's identity backdating works
/// unchanged), plus control records (counted, never applied).
pub fn records_for_closure<'a>(
    records: &'a [LogRecord],
    closure: &'a BTreeSet<PageId>,
) -> impl Iterator<Item = &'a LogRecord> + Clone {
    records.iter().filter(move |rec| match &rec.body {
        RecordBody::Op(op) => {
            let mut writes_closure = false;
            op.for_each_write(|w| writes_closure |= closure.contains(&w));
            writes_closure
        }
        _ => true,
    })
}

/// Replay the closure-filtered suffix against a scratch table seeded with
/// backup-vintage closure pages; returns the redo counters and the final
/// scratch state (closure pages rolled forward to current vintage). A
/// touch outside the seed is [`RedoError::OutsideClosure`]: faulting in
/// current state would mix vintages.
pub fn replay_closure(
    seed: BTreeMap<PageId, Page>,
    records: &[LogRecord],
    closure: &BTreeSet<PageId>,
) -> Result<(RedoOutcome, BTreeMap<PageId, Page>), RedoError> {
    let mut scratch = GroupReplay::scratch(seed);
    let outcome = replay_grouped(records_for_closure(records, closure), &mut scratch)?;
    Ok((outcome, scratch.into_pages()))
}

/// Where [`regenerate`] finds the closure's log records.
pub enum ClosureSource<'a> {
    /// The generation's archive: its control run, the targets' own runs
    /// as the given read returns them, then each spill-over page's run.
    #[allow(clippy::type_complexity)]
    Archive(&'a dyn Fn(&BackupCatalog) -> Result<Vec<(PageId, Vec<LogRecord>)>, BackupError>),
    /// A full log suffix the caller has already read.
    Suffix(&'a [LogRecord]),
}

/// Which of one generation's copies a failed read condemns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unusable {
    /// The archive: a corrupt run, no archive, or transient faults
    /// outlasting every retry.
    Archive,
    /// The image: a corrupt or missing copy, or transient faults
    /// outlasting every retry.
    Image,
}

impl Unusable {
    /// The one classification of "this generation's copy is unusable, an
    /// older generation may still serve"; `None` stops the walk.
    pub fn of(e: &BackupError) -> Option<Unusable> {
        match e {
            BackupError::CorruptArchive { .. }
            | BackupError::TransientArchive { .. }
            | BackupError::NoArchive(_) => Some(Unusable::Archive),
            BackupError::CorruptImage { .. }
            | BackupError::TransientImage { .. }
            | BackupError::MissingPage { .. } => Some(Unusable::Image),
            _ => None,
        }
    }
}

/// Regenerate `targets` from one backup generation: their dependency
/// closure and its records (from `source`), backup-vintage copies of the
/// closure from this generation's image only (mixing generations would mix
/// vintages), and [`replay_closure`], whose result it returns — the keys
/// of the page map are the closure. Reads retry transient faults under
/// `backoff`; `cost` accumulates, also when the generation fails
/// ([`Unusable::of`] tells whether an older one may serve).
pub fn regenerate<E: From<BackupError> + From<RedoError>>(
    catalog: &BackupCatalog,
    backup_id: u64,
    targets: &BTreeSet<PageId>,
    source: ClosureSource<'_>,
    backoff: &BackoffSchedule,
    cost: &mut FetchCost,
) -> Result<(RedoOutcome, BTreeMap<PageId, Page>), E> {
    let (records, closure): (Cow<'_, [LogRecord]>, _) = match source {
        // Every record of a page's run writes that page, so its read and
        // write sets join the closure, and each page new to it has its run
        // fetched. Merging the runs deduplicates records by LSN.
        ClosureSource::Archive(own) => {
            let control = backoff.retry(cost, BackupError::is_transient, || {
                catalog.fetch_control_records(backup_id)
            })?;
            cost.records += control.len() as u64;
            let mut own_runs = backoff
                .retry(cost, BackupError::is_transient, || own(catalog))?
                .into_iter();
            let mut closure = targets.clone();
            let mut frontier = Vec::new();
            let mut runs = vec![control];
            loop {
                let run = match own_runs.next() {
                    Some((_, run)) => run,
                    None => match frontier.pop() {
                        Some(id) => backoff.retry(cost, BackupError::is_transient, || {
                            catalog.fetch_records(backup_id, id)
                        })?,
                        None => break,
                    },
                };
                cost.runs += 1;
                cost.records += run.len() as u64;
                for op in run.iter().filter_map(|rec| rec.body.as_op()) {
                    let mut touch = |p| {
                        if closure.insert(p) {
                            frontier.push(p);
                        }
                    };
                    op.for_each_read(&mut touch);
                    op.for_each_write(&mut touch);
                }
                runs.push(run);
            }
            (Cow::Owned(merge_runs(runs)), closure)
        }
        ClosureSource::Suffix(records) => {
            (Cow::Borrowed(records), dependency_closure(records, targets))
        }
    };
    let mut seed = BTreeMap::new();
    for &id in &closure {
        let page = backoff.retry(cost, BackupError::is_transient, || {
            catalog.fetch_page(backup_id, id)
        })?;
        seed.insert(id, page);
    }
    Ok(replay_closure(seed, &records, &closure)?)
}

/// Telemetry from one page repair: which generation served, what it cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairReport {
    /// The page brought back into service.
    pub page: PageId,
    /// The dependency closure the replay was seeded with (includes `page`).
    pub closure: Vec<PageId>,
    /// Generation that supplied the closure copies.
    pub generation_used: u64,
    /// Every generation tried, newest first (`generation_used` last).
    pub generations_tried: Vec<u64>,
    /// Redo-start LSN of the generation used.
    pub start_lsn: Lsn,
    /// Log records the repair had to *read* to build and replay the
    /// closure: the full suffix length on the scan path, or the fetched
    /// run/control records (plus any archive catch-up tail) when the
    /// generation's page-indexed archive served the closure.
    pub records_scanned: u64,
    /// Whether the page-indexed media-log archive supplied the closure
    /// records (instead of a full log-suffix scan).
    pub index_used: bool,
    /// Operations replayed by the closure scan.
    pub records_replayed: u64,
    /// Transient-error retries spent across all fetches.
    pub retries: u32,
    /// Virtual backoff ticks accumulated by those retries.
    pub backoff_ticks: u64,
    /// The checksum evidence that triggered the repair, when the scrub
    /// captured one (media failures and quarantines arrive without it).
    pub corruption: Option<CorruptionEntry>,
}

impl fmt::Display for RepairReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "repaired {} from backup {} (closure {} pages, {} records replayed from {}, {} of {} scanned records via {}, {} generation(s) tried, {} retries / {} ticks)",
            self.page,
            self.generation_used,
            self.closure.len(),
            self.records_replayed,
            self.start_lsn,
            self.records_replayed,
            self.records_scanned,
            if self.index_used { "archive index" } else { "suffix scan" },
            self.generations_tried.len(),
            self.retries,
            self.backoff_ticks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::redo::{redo_scan, StoreRedoTarget};
    use bytes::Bytes;
    use lob_ops::{LogicalOp, OpBody, PhysioOp};
    use lob_pagestore::{Lsn, StableStore, StoreConfig};
    use lob_wal::RecordBody;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const SIZE: usize = 16;

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

    fn copy(lsn: u64, src: u32, dst: u32) -> LogRecord {
        op_rec(
            lsn,
            OpBody::Logical(LogicalOp::Copy {
                src: pid(src),
                dst: pid(dst),
            }),
        )
    }

    fn targets(ids: &[u32]) -> BTreeSet<PageId> {
        ids.iter().map(|&i| pid(i)).collect()
    }

    #[test]
    fn closure_of_physical_records_is_the_target() {
        let recs = vec![phys(1, 0, 1), phys(2, 1, 2), phys(3, 2, 3)];
        let c = dependency_closure(&recs, &targets(&[1]));
        assert_eq!(c, targets(&[1]));
    }

    #[test]
    fn closure_pulls_in_logical_sources_transitively() {
        // 0 → 1 → 2: repairing 2 needs 1 (source of its copy), which needs 0.
        let recs = vec![phys(1, 0, 7), copy(2, 0, 1), copy(3, 1, 2)];
        let c = dependency_closure(&recs, &targets(&[2]));
        assert_eq!(c, targets(&[0, 1, 2]));
        // Repairing 0 needs nothing else (nothing 0-writing reads).
        assert_eq!(dependency_closure(&recs, &targets(&[0])), targets(&[0]));
    }

    #[test]
    fn closure_fixpoint_handles_later_records_relevant_to_earlier_adds() {
        // copy(3 → 0) makes 3 relevant; an *earlier* record copy(4 → 3)
        // then becomes relevant too — the fixpoint must revisit.
        let recs = vec![phys(1, 4, 9), copy(2, 4, 3), copy(3, 3, 0)];
        let c = dependency_closure(&recs, &targets(&[0]));
        assert_eq!(c, targets(&[0, 3, 4]));
    }

    #[test]
    fn records_filter_keeps_closure_writers_and_controls() {
        let recs = vec![
            phys(1, 0, 1),
            LogRecord::new(
                Lsn(2),
                RecordBody::BackupBegin {
                    backup_id: 1,
                    start_lsn: Lsn(1),
                },
            ),
            phys(3, 5, 5),
            copy(4, 0, 1),
        ];
        let c = dependency_closure(&recs, &targets(&[1]));
        let lsns: Vec<u64> = records_for_closure(&recs, &c)
            .map(|r| r.lsn.raw())
            .collect();
        // Record 3 writes page 5, outside the closure — dropped.
        assert_eq!(lsns, vec![1, 2, 4]);
    }

    #[test]
    fn replay_regenerates_target_from_backup_vintage_seed() {
        // Backup vintage: all pages blank. Log: write 0, copy 0 → 1.
        let recs = vec![phys(1, 0, 0xAB), copy(2, 0, 1)];
        let c = dependency_closure(&recs, &targets(&[1]));
        let seed: BTreeMap<PageId, Page> =
            c.iter().map(|&id| (id, Page::formatted(SIZE))).collect();
        let (outcome, pages) = replay_closure(seed, &recs, &c).unwrap();
        assert_eq!(outcome.replayed, 2);
        let repaired = pages.get(&pid(1)).unwrap();
        assert_eq!(repaired.lsn(), Lsn(2));
        assert_eq!(repaired.data()[0], 0xAB);
    }

    #[test]
    fn scratch_read_outside_closure_is_a_hard_error() {
        // A replay that reads outside its seed means the closure was wrong;
        // it must fail loudly, not fault in current state.
        let recs = vec![copy(1, 3, 0)];
        let seed: BTreeMap<PageId, Page> = [(pid(0), Page::formatted(SIZE))].into();
        let only_target: BTreeSet<PageId> = targets(&[0]);
        // The read travels through the op's reader closure; the scratch's
        // hard error surfaces as itself, naming the page.
        let err = replay_closure(seed, &recs, &only_target).unwrap_err();
        assert!(matches!(err, RedoError::OutsideClosure(p) if p == pid(3)));
    }

    #[test]
    fn scratch_physical_write_outside_closure_is_a_hard_error() {
        // The physical fast path probes the table too: a write to a page
        // the seed does not hold must not be installed blind.
        let recs = vec![phys(1, 2, 0xEE)];
        let seed: BTreeMap<PageId, Page> = [(pid(0), Page::formatted(SIZE))].into();
        let err = replay_closure(seed, &recs, &targets(&[2])).unwrap_err();
        assert!(matches!(err, RedoError::OutsideClosure(p) if p == pid(2)));
    }

    /// Differential histories: page size, record pages `0..4` (record ops
    /// only, so they stay decodable) and raw pages `4..8`.
    const DIFF_SIZE: usize = 64;

    /// One random operation over the current state (`pages`).
    fn random_op(rng: &mut SmallRng, pages: &BTreeMap<PageId, Page>) -> OpBody {
        let rec = |rng: &mut SmallRng| pid(rng.gen_range(0..4));
        let raw = |rng: &mut SmallRng| pid(rng.gen_range(4..8));
        let key = |rng: &mut SmallRng| Bytes::from(vec![b'a' + rng.gen_range(0..8u8)]);
        let bytes = |rng: &mut SmallRng, n: usize| {
            Bytes::from((0..n).map(|_| rng.gen::<u8>()).collect::<Vec<u8>>())
        };
        match rng.gen_range(0..7u32) {
            0 => OpBody::PhysicalWrite {
                target: raw(rng),
                value: bytes(rng, DIFF_SIZE),
            },
            1 => OpBody::Physio(PhysioOp::SetBytes {
                target: raw(rng),
                offset: rng.gen_range(0..60),
                bytes: bytes(rng, 4),
            }),
            2 => OpBody::Physio(PhysioOp::InsertRec {
                target: rec(rng),
                key: key(rng),
                val: bytes(rng, 2),
            }),
            3 => {
                let target = pid(rng.gen_range(0..8));
                let value = pages.get(&target).map(|p| p.data().clone());
                OpBody::IdentityWrite {
                    target,
                    value: value.unwrap_or_default(),
                }
            }
            4 => {
                let (src, dst) = if rng.gen() {
                    (rec(rng), rec(rng))
                } else {
                    (raw(rng), raw(rng))
                };
                OpBody::Logical(LogicalOp::Copy { src, dst })
            }
            5 => OpBody::Logical(LogicalOp::MovRec {
                old: rec(rng),
                sep: key(rng),
                new: rec(rng),
            }),
            _ => {
                let w = rng.gen_range(4..8);
                OpBody::Logical(LogicalOp::Mix {
                    reads: vec![pid(rng.gen_range(0..8)), pid(rng.gen_range(0..8))],
                    writes: vec![pid(w), pid(4 + (w - 3) % 4)],
                    salt: rng.gen(),
                })
            }
        }
    }

    #[test]
    fn closure_replay_matches_the_reference_scan() {
        for case in 0..300u64 {
            let mut rng = SmallRng::seed_from_u64(case);
            // Backup vintage: empty record pages, random raw pages.
            let vintage: BTreeMap<PageId, Page> = (0..8u32)
                .map(|i| {
                    let data = if i < 4 {
                        Bytes::from(vec![0u8; DIFF_SIZE])
                    } else {
                        Bytes::from((0..DIFF_SIZE).map(|_| rng.gen::<u8>()).collect::<Vec<_>>())
                    };
                    (pid(i), Page::new(Lsn::NULL, data))
                })
                .collect();
            // Normal execution: keep each op that applies to the current
            // state, with an occasional control record in between.
            let mut current = vintage.clone();
            let mut records = Vec::new();
            let mut lsn = 1u64;
            while records.len() < rng.gen_range(4..24) {
                if rng.gen_range(0..10u32) == 0 {
                    records.push(LogRecord::new(
                        Lsn(lsn),
                        RecordBody::BackupEnd { backup_id: lsn },
                    ));
                    lsn += 1;
                    continue;
                }
                let body = random_op(&mut rng, &current);
                let outputs = body.apply(&mut |id: PageId| {
                    current
                        .get(&id)
                        .map(|p| p.data().clone())
                        .ok_or(lob_ops::OpError::ReadFailed {
                            page: id,
                            cause: "unknown page".into(),
                        })
                });
                let Ok(outputs) = outputs else { continue };
                for (id, data) in outputs {
                    current.insert(id, Page::new(Lsn(lsn), data));
                }
                records.push(op_rec(lsn, body));
                lsn += 1;
            }
            let wanted: BTreeSet<PageId> = (0..rng.gen_range(1..4u32))
                .map(|_| pid(rng.gen_range(0..8)))
                .collect();
            let closure = dependency_closure(&records, &wanted);
            let seed: BTreeMap<PageId, Page> = closure
                .iter()
                .filter_map(|id| Some((*id, vintage.get(id)?.clone())))
                .collect();

            let (got, pages) = replay_closure(seed.clone(), &records, &closure).unwrap();

            // The reference: the record-at-a-time scan over a scratch
            // store seeded with the same closure pages.
            let store = StableStore::single(
                StoreConfig {
                    page_size: DIFF_SIZE,
                },
                8,
            );
            for (id, page) in &seed {
                store.write_page(*id, page.clone()).unwrap();
            }
            let filtered: Vec<LogRecord> =
                records_for_closure(&records, &closure).cloned().collect();
            let want = redo_scan(&filtered, &mut StoreRedoTarget::new(&store)).unwrap();
            assert_eq!(got, want, "case {case}: outcome");
            assert_eq!(pages.len(), closure.len(), "case {case}");
            for id in &closure {
                assert_eq!(
                    pages.get(id),
                    Some(&store.read_page(*id).unwrap()),
                    "case {case}: {id}"
                );
            }
            // And the regeneration property itself: every wanted page is
            // back at its current value and pageLSN.
            for id in &wanted {
                assert_eq!(pages.get(id), current.get(id), "case {case}: target {id}");
            }
        }
    }

    #[test]
    fn retry_succeeds_after_max_attempts_minus_one_transients() {
        let backoff = BackoffSchedule::new(7, 4);
        let mut cost = FetchCost::default();
        let mut calls = 0u32;
        let got: Result<u32, &str> = backoff.retry(
            &mut cost,
            |e| *e == "transient",
            || {
                calls += 1;
                if calls < 4 {
                    Err("transient")
                } else {
                    Ok(calls)
                }
            },
        );
        assert_eq!(got, Ok(4), "the fourth attempt is still allowed");
        assert_eq!(cost.retries, 3);
        // The ticks the hand-rolled loops accumulated: one delay per retry,
        // indexed by the 0-based number of the attempt that failed.
        let want: u64 = (0..3).map(|i| backoff.delay_ticks(i)).sum();
        assert_eq!(cost.backoff_ticks, want);
    }

    #[test]
    fn retry_returns_the_last_error_when_exhausted() {
        let backoff = BackoffSchedule::new(7, 4);
        let mut cost = FetchCost {
            retries: 10,
            backoff_ticks: 1000,
            ..FetchCost::default()
        };
        let mut calls = 0u32;
        let got: Result<(), (bool, u32)> = backoff.retry(
            &mut cost,
            |e: &(bool, u32)| e.0,
            || {
                calls += 1;
                Err((true, calls))
            },
        );
        assert_eq!(got, Err((true, 4)), "the last attempt's error surfaces");
        assert_eq!(calls, 4, "max_attempts bounds the tries");
        // The exhausting failure is not a retry: three retries, three
        // delays, added to what the cost already held.
        assert_eq!(cost.retries, 13);
        let waited: u64 = (0..3).map(|i| backoff.delay_ticks(i)).sum();
        assert_eq!(cost.backoff_ticks, 1000 + waited);
    }

    #[test]
    fn retry_passes_other_errors_through_untouched() {
        let backoff = BackoffSchedule::new(7, 4);
        let mut cost = FetchCost::default();
        let mut calls = 0u32;
        let got: Result<(), &str> = backoff.retry(
            &mut cost,
            |e| *e == "transient",
            || {
                calls += 1;
                Err("corrupt")
            },
        );
        assert_eq!(got, Err("corrupt"));
        assert_eq!(calls, 1);
        assert_eq!(cost, FetchCost::default());
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let a = BackoffSchedule::new(42, 5);
        let b = BackoffSchedule::new(42, 5);
        let ticks_a: Vec<u64> = (0..5).map(|i| a.delay_ticks(i)).collect();
        let ticks_b: Vec<u64> = (0..5).map(|i| b.delay_ticks(i)).collect();
        assert_eq!(ticks_a, ticks_b, "same seed, same schedule");
        for (i, &t) in ticks_a.iter().enumerate() {
            let base = 1u64 << (i + 1);
            assert!(t >= base && t < 2 * base, "tick {t} out of band at {i}");
        }
        let other = BackoffSchedule::new(43, 5);
        assert_ne!(
            ticks_a,
            (0..5).map(|i| other.delay_ticks(i)).collect::<Vec<_>>(),
            "different seeds jitter differently"
        );
    }
}
