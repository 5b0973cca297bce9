//! The forward redo pass — the reference scan.
//!
//! Recovery is a single forward scan over a log suffix. For each operation
//! record, the **LSN redo test** decides per written page whether to install
//! the operation's effect: replay iff `pageLSN < recLSN`. The test is crude
//! — an operation whose written pages are all up to date is skipped without
//! being evaluated, and an operation may be re-evaluated even though it was
//! "installed" in the write-graph sense — but by the Lomet–Tuttle
//! applicability theorem (paper §2.3), as long as flush order respected the
//! write graph, each minimal uninstalled operation finds its read set in the
//! state it saw during normal execution, so replay regenerates its exact
//! effects.
//!
//! [`redo_scan`] is the record-at-a-time *reference* form of that pass.
//! Production replays — crash redo, media roll-forward, closure replay —
//! run the grouped body of [`crate::parallel`]; the differential tests,
//! the harness's reference recovery and the benchmark's replay probe run
//! this one and byte-compare the two.

use crate::replayable::Replayable;
use bytes::Bytes;
use lob_ops::OpError;
use lob_pagestore::{Page, PageId, PartitionId, StableStore, StoreError};
use lob_wal::{LogRecord, RecordBody, RecordKind};
use std::fmt;

/// Errors during redo.
#[derive(Debug)]
pub enum RedoError {
    /// The store failed to read or install a page (also a read issued by
    /// an operation being re-evaluated).
    Store(StoreError),
    /// A closure replay touched a page outside its seeded closure.
    OutsideClosure(PageId),
    /// A replay or install worker thread panicked.
    WorkerPanicked,
    /// Re-evaluating an operation failed (should be impossible when flush
    /// order was respected — surfacing it loudly is the point).
    Op {
        /// LSN of the operation that failed to replay.
        lsn: lob_pagestore::Lsn,
        /// Underlying evaluation error.
        source: OpError,
    },
}

impl fmt::Display for RedoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RedoError::Store(e) => write!(f, "redo store error: {e}"),
            RedoError::OutsideClosure(id) => {
                write!(f, "closure replay touched {id} outside the seeded closure")
            }
            RedoError::WorkerPanicked => write!(f, "a redo worker panicked"),
            RedoError::Op { lsn, source } => {
                write!(f, "replay of operation at {lsn} failed: {source}")
            }
        }
    }
}

impl std::error::Error for RedoError {}

impl From<StoreError> for RedoError {
    fn from(e: StoreError) -> Self {
        RedoError::Store(e)
    }
}

/// Where the reference scan reads and installs pages ([`StoreRedoTarget`]
/// writes through to a [`StableStore`]).
pub trait RedoTarget {
    /// Current value of a page (payload + pageLSN).
    fn page(&mut self, id: PageId) -> Result<Page, RedoError>;
    /// Install a page value.
    fn set_page(&mut self, id: PageId, page: Page) -> Result<(), RedoError>;
}

/// Counters describing a redo pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RedoOutcome {
    /// Operations whose effects were (at least partly) regenerated.
    pub replayed: u64,
    /// Operations skipped because every written page was already current.
    pub skipped: u64,
    /// Pages written.
    pub pages_written: u64,
    /// Control records (backup begin/end) encountered.
    pub controls: u64,
}

/// Re-evaluate `body`, the record at `lsn`, with `read` serving its
/// reads — both replay bodies' one way to do it. A failed read surfaces as
/// itself (a store error stays typed), not as the operation's error.
pub(crate) fn reapply(
    body: &lob_ops::OpBody,
    lsn: lob_pagestore::Lsn,
    mut read: impl FnMut(PageId) -> Result<Bytes, RedoError>,
) -> Result<Vec<(PageId, Bytes)>, RedoError> {
    let mut read_err = None;
    let mut reader = |id: PageId| -> Result<Bytes, OpError> {
        read(id).map_err(|e| {
            let cause = e.to_string();
            read_err = Some(e);
            OpError::ReadFailed { page: id, cause }
        })
    };
    let outputs = body.apply(&mut reader);
    outputs.map_err(|source| read_err.unwrap_or(RedoError::Op { lsn, source }))
}

/// One anchored identity write: the target page, the identity record
/// (its value is taken only when the LSN test installs it), and the
/// record's LSN, installed as the pageLSN. `at` is its schedule position:
/// `0` is the scan start and `i + 1` is "right after the record at
/// position `i`".
#[derive(Debug)]
pub(crate) struct Anchored<'a, R> {
    pub(crate) page: PageId,
    pub(crate) rec: &'a R,
    pub(crate) lsn: lob_pagestore::Lsn,
    at: usize,
}

/// The analysis half of the redo pass: every identity write of a record
/// sequence, in the order the replay reaches its anchor, plus the cursor
/// both replay bodies advance. Items sharing an anchor keep log order, so
/// they apply in LSN order. Shared by the reference scan and the grouped
/// replay so the backdating rule exists in exactly one place.
#[derive(Debug)]
pub(crate) struct IdentitySchedule<'a, R> {
    items: Vec<Anchored<'a, R>>,
    next: usize,
}

impl<'a, R: Replayable> IdentitySchedule<'a, R> {
    /// Anchor every identity record of `records` (an in-LSN-order record
    /// sequence; positions are iteration order) immediately after the last
    /// earlier record writing its object, or at the scan start if none.
    ///
    /// A cheap pre-scan skips the whole analysis for suffixes that carry no
    /// identity records at all — the common case for media roll-forward of
    /// a tail logged under flush-before-install disciplines. Otherwise the
    /// pass costs one dense slot store per written page and one slot load
    /// per identity record; a stable sort by anchor position follows.
    pub(crate) fn build<I>(records: I) -> IdentitySchedule<'a, R>
    where
        I: Iterator<Item = &'a R> + Clone,
    {
        let mut items = Vec::new();
        if !records
            .clone()
            .any(|rec| matches!(rec.kind(), RecordKind::Identity(_)))
        {
            return IdentitySchedule { items, next: 0 };
        }
        let mut last_writer = LastWriters::default();
        for (i, rec) in records.enumerate() {
            if let RecordKind::Identity(page) = rec.kind() {
                items.push(Anchored {
                    page,
                    rec,
                    lsn: rec.lsn(),
                    at: last_writer.get(page),
                });
            }
            rec.for_each_write(|w| last_writer.set(w, i + 1));
        }
        // Stable: items anchored at one position stay in log order.
        items.sort_by_key(|a| a.at);
        IdentitySchedule { items, next: 0 }
    }

    /// The identity writes anchored at the scan start.
    pub(crate) fn at_start(&mut self) -> &[Anchored<'a, R>] {
        self.advance(0)
    }

    /// The identity writes anchored right after the record at position
    /// `i`; positions must be asked for in ascending order. A record with
    /// nothing anchored after it costs one comparison.
    pub(crate) fn after(&mut self, i: usize) -> &[Anchored<'a, R>] {
        self.advance(i + 1)
    }

    fn advance(&mut self, at: usize) -> &[Anchored<'a, R>] {
        let start = self.next;
        while self.items.get(self.next).is_some_and(|a| a.at == at) {
            self.next += 1;
        }
        self.items.get(start..self.next).unwrap_or_default()
    }
}

/// The schedule position of every written page's last writer (`0`: not
/// written yet), in range-anchored dense slots per partition — the
/// [`lob_pagestore::PageImage`] layout. Partitions are few, so finding one
/// is a short linear probe.
#[derive(Debug, Default)]
struct LastWriters {
    parts: Vec<(PartitionId, WriterSlots)>,
}

/// One partition's slots: `slots` covers indexes `base..base + slots.len()`.
#[derive(Debug, Default)]
struct WriterSlots {
    base: u32,
    slots: Vec<usize>,
}

impl LastWriters {
    fn get(&self, id: PageId) -> usize {
        let Some((_, part)) = self.parts.iter().find(|(p, _)| *p == id.partition) else {
            return 0;
        };
        id.index
            .checked_sub(part.base)
            .and_then(|off| part.slots.get(off as usize))
            .copied()
            .unwrap_or(0)
    }

    fn set(&mut self, id: PageId, at: usize) {
        let part = match self.parts.iter().position(|(p, _)| *p == id.partition) {
            Some(k) => self.parts.get_mut(k),
            None => {
                self.parts.push((id.partition, WriterSlots::default()));
                self.parts.last_mut()
            }
        };
        if let Some(slot) = part.and_then(|(_, s)| s.ensure(id.index)) {
            *slot = at;
        }
    }
}

impl WriterSlots {
    /// Grow the slot range to cover `index` and hand back its slot. The
    /// front grows geometrically, so a descending write pattern stays
    /// amortized O(1) per page.
    fn ensure(&mut self, index: u32) -> Option<&mut usize> {
        if self.slots.is_empty() {
            self.base = index;
        } else if index < self.base {
            let headroom = u32::try_from(self.slots.len()).unwrap_or(u32::MAX);
            let base = index.saturating_sub(headroom);
            let pad = (self.base - base) as usize;
            self.slots.splice(0..0, std::iter::repeat(0).take(pad));
            self.base = base;
        }
        let off = (index - self.base) as usize;
        if off >= self.slots.len() {
            self.slots.resize(off + 1, 0);
        }
        self.slots.get_mut(off)
    }
}

/// Run the redo pass over `records` (must be in LSN order).
///
/// ## Identity-record backdating
///
/// A cache-manager identity write `W_IP(X, log(X))` is appended at *flush*
/// time, so its LSN is later than operations that **read** the value it
/// carries. Its value, however, has been `X`'s state ever since `X`'s last
/// preceding write — the identity write changes nothing. Replaying it only
/// at its own LSN would let an intermediate operation read a stale or
/// wrongly-regenerated `X` (the operation that produced `X`'s value may
/// itself be unreplayable against the fuzzy backup; that is exactly why the
/// cache manager logged the identity record). This is the replay-time face
/// of the rLSN advancement of Lomet & Tuttle's SIGMOD 1999 paper: the
/// identity record *supersedes* redo of `X` back to `X`'s last write.
///
/// The pass therefore runs in two phases: an analysis phase anchors every
/// identity record immediately after the last earlier record that wrote its
/// object (or at the scan start if none — see [`IdentitySchedule::build`]), and
/// the redo phase applies it there — under the usual LSN test, and with the
/// identity record's own LSN as the installed pageLSN so later records
/// interact with it correctly.
pub fn redo_scan(
    records: &[LogRecord],
    target: &mut dyn RedoTarget,
) -> Result<RedoOutcome, RedoError> {
    let mut schedule = IdentitySchedule::build(records.iter());
    let mut out = RedoOutcome::default();
    let apply_identity = |target: &mut dyn RedoTarget,
                          items: &[Anchored<'_, LogRecord>],
                          out: &mut RedoOutcome|
     -> Result<(), RedoError> {
        for a in items {
            if target.page(a.page)?.lsn() < a.lsn {
                target.set_page(a.page, Page::new(a.lsn, a.rec.value()))?;
                out.pages_written += 1;
            }
            out.replayed += 1;
        }
        Ok(())
    };
    apply_identity(target, schedule.at_start(), &mut out)?;

    for (i, rec) in records.iter().enumerate() {
        'one: {
            let body = match &rec.body {
                RecordBody::Op(op) => op,
                _ => {
                    out.controls += 1;
                    break 'one;
                }
            };
            if matches!(body, lob_ops::OpBody::IdentityWrite { .. }) {
                // Applied at its anchor; nothing at its natural position.
                break 'one;
            }
            // LSN redo test, per written page.
            let mut needs = Vec::new();
            for w in body.writeset() {
                if target.page(w)?.lsn() < rec.lsn {
                    needs.push(w);
                }
            }
            if needs.is_empty() {
                out.skipped += 1;
                break 'one;
            }
            // Re-evaluate the operation against current state.
            let outputs = reapply(body, rec.lsn, |id| Ok(target.page(id)?.data().clone()))?;
            for (pid, bytes) in outputs {
                if needs.contains(&pid) {
                    target.set_page(pid, Page::new(rec.lsn, bytes))?;
                    out.pages_written += 1;
                }
            }
            out.replayed += 1;
        }
        // Identity records anchored here apply regardless of whether the
        // record itself replayed, was skipped, or was an identity record.
        apply_identity(target, schedule.after(i), &mut out)?;
    }
    Ok(out)
}

/// Redo target that reads and writes a [`StableStore`] directly
/// (write-through: recovered pages are installed immediately, so nothing is
/// dirty when recovery completes).
pub struct StoreRedoTarget<'a> {
    store: &'a StableStore,
}

impl<'a> StoreRedoTarget<'a> {
    /// Wrap a store.
    pub fn new(store: &'a StableStore) -> Self {
        StoreRedoTarget { store }
    }
}

impl RedoTarget for StoreRedoTarget<'_> {
    fn page(&mut self, id: PageId) -> Result<Page, RedoError> {
        Ok(self.store.read_page(id)?)
    }

    fn set_page(&mut self, id: PageId, page: Page) -> Result<(), RedoError> {
        // lint:allow(durability-order) redo installs only updates already durable in the log it is replaying
        Ok(self.store.write_page(id, page)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lob_ops::{LogicalOp, OpBody, PhysioOp};
    use lob_pagestore::{Lsn, StoreConfig};
    use lob_wal::RecordBody;

    const SIZE: usize = 32;

    fn pid(i: u32) -> PageId {
        PageId::new(0, i)
    }

    fn store() -> StableStore {
        StableStore::single(StoreConfig { page_size: SIZE }, 8)
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

    fn ident(lsn: u64, t: u32, fill: u8) -> LogRecord {
        op_rec(
            lsn,
            OpBody::IdentityWrite {
                target: pid(t),
                value: Bytes::from(vec![fill; SIZE]),
            },
        )
    }

    /// The schedule as `(anchor, page index, identity LSN)` triples in the
    /// order the cursor hands them out; anchor `None` is the scan start.
    fn drained(recs: &[LogRecord]) -> Vec<(Option<usize>, u32, u64)> {
        let mut schedule = IdentitySchedule::build(recs.iter());
        let mut got: Vec<_> = schedule
            .at_start()
            .iter()
            .map(|a| (None, a.page.index, a.lsn.raw()))
            .collect();
        for i in 0..recs.len() {
            got.extend(
                schedule
                    .after(i)
                    .iter()
                    .map(|a| (Some(i), a.page.index, a.lsn.raw())),
            );
        }
        got
    }

    #[test]
    fn identity_without_an_earlier_writer_applies_at_scan_start() {
        // copy(0 → 1) precedes the identity write of 0 in the log, but no
        // record writes 0 before it: the copy must read the carried value.
        let recs = vec![copy_rec(1, 0, 1), ident(2, 0, 0x5A)];
        assert_eq!(drained(&recs), vec![(None, 0, 2)]);
        let s = store();
        let out = redo_scan(&recs, &mut StoreRedoTarget::new(&s)).unwrap();
        assert_eq!(s.read_page(pid(1)).unwrap().data()[0], 0x5A);
        assert_eq!(s.read_page(pid(0)).unwrap().lsn(), Lsn(2));
        assert_eq!(out.replayed, 2);
    }

    #[test]
    fn identity_after_an_identity_write_anchors_there() {
        let recs = vec![
            phys(1, 0, 0x11),
            ident(2, 0, 0x22),
            copy_rec(3, 0, 1),
            ident(4, 0, 0x44),
        ];
        // LSN 2 anchors after the physical write, LSN 4 after LSN 2 —
        // before the copy, which therefore reads LSN 4's value.
        assert_eq!(drained(&recs), vec![(Some(0), 0, 2), (Some(1), 0, 4)]);
        let s = store();
        redo_scan(&recs, &mut StoreRedoTarget::new(&s)).unwrap();
        assert_eq!(s.read_page(pid(1)).unwrap().data()[0], 0x44);
        assert_eq!(s.read_page(pid(0)).unwrap().lsn(), Lsn(4));
    }

    #[test]
    fn identities_anchored_at_one_record_apply_in_lsn_order() {
        let mix = op_rec(
            1,
            OpBody::Logical(LogicalOp::Mix {
                reads: vec![pid(0)],
                writes: vec![pid(2), pid(1)],
                salt: 3,
            }),
        );
        let recs = vec![mix, ident(2, 2, 0x22), ident(3, 1, 0x33), ident(4, 3, 0x44)];
        assert_eq!(
            drained(&recs),
            vec![(None, 3, 4), (Some(0), 2, 2), (Some(0), 1, 3)]
        );
    }

    #[test]
    fn a_multi_page_writer_anchors_an_identity_for_each_page() {
        let recs = vec![
            phys(1, 5, 0x01),
            op_rec(
                2,
                OpBody::Logical(LogicalOp::Mix {
                    reads: vec![pid(5)],
                    writes: vec![pid(0), pid(1), pid(2)],
                    salt: 9,
                }),
            ),
            ident(3, 1, 0x31),
            ident(4, 0, 0x30),
            ident(5, 2, 0x32),
            copy_rec(6, 1, 3),
        ];
        assert_eq!(
            drained(&recs),
            vec![(Some(1), 1, 3), (Some(1), 0, 4), (Some(1), 2, 5)]
        );
        let s = store();
        let out = redo_scan(&recs, &mut StoreRedoTarget::new(&s)).unwrap();
        for (page, fill, lsn) in [(0, 0x30, 4), (1, 0x31, 3), (2, 0x32, 5)] {
            let got = s.read_page(pid(page)).unwrap();
            assert_eq!((got.data()[0], got.lsn()), (fill, Lsn(lsn)), "page {page}");
        }
        assert_eq!(s.read_page(pid(3)).unwrap().data()[0], 0x31);
        assert_eq!(out.replayed, 6);
    }

    #[test]
    fn the_highest_page_index_of_a_partition_anchors() {
        // The store's last page, and a partition whose only slot is the
        // largest index a page id can carry.
        let last = 7;
        let recs = vec![
            phys(1, last, 0x01),
            ident(2, last, 0x02),
            copy_rec(3, last, 0),
        ];
        assert_eq!(drained(&recs), vec![(Some(0), last, 2)]);
        let s = store();
        redo_scan(&recs, &mut StoreRedoTarget::new(&s)).unwrap();
        assert_eq!(s.read_page(pid(0)).unwrap().data()[0], 0x02);

        let top = PageId::new(3, u32::MAX);
        let far = [
            op_rec(
                1,
                OpBody::PhysicalWrite {
                    target: top,
                    value: Bytes::from(vec![1; SIZE]),
                },
            ),
            op_rec(
                2,
                OpBody::IdentityWrite {
                    target: top,
                    value: Bytes::from(vec![2; SIZE]),
                },
            ),
        ];
        let mut schedule = IdentitySchedule::build(far.iter());
        assert!(schedule.at_start().is_empty());
        let after = schedule.after(0);
        assert_eq!(after.len(), 1);
        assert_eq!((after[0].page, after[0].lsn), (top, Lsn(2)));
    }

    fn copy_rec(lsn: u64, s: u32, d: u32) -> LogRecord {
        op_rec(
            lsn,
            OpBody::Logical(LogicalOp::Copy {
                src: pid(s),
                dst: pid(d),
            }),
        )
    }

    #[test]
    fn replays_missing_physical_writes() {
        let s = store();
        let recs = vec![phys(1, 0, 0xAA), phys(2, 1, 0xBB)];
        let mut t = StoreRedoTarget::new(&s);
        let out = redo_scan(&recs, &mut t).unwrap();
        assert_eq!(out.replayed, 2);
        assert_eq!(out.pages_written, 2);
        assert_eq!(s.read_page(pid(0)).unwrap().lsn(), Lsn(1));
        assert_eq!(s.read_page(pid(1)).unwrap().data()[0], 0xBB);
    }

    #[test]
    fn lsn_test_skips_installed_ops() {
        let s = store();
        // Page 0 already carries the effect of LSN 1.
        s.write_page(pid(0), Page::new(Lsn(1), Bytes::from(vec![0xAA; SIZE])))
            .unwrap();
        let recs = vec![phys(1, 0, 0xFF)];
        let mut t = StoreRedoTarget::new(&s);
        let out = redo_scan(&recs, &mut t).unwrap();
        assert_eq!(out.skipped, 1);
        assert_eq!(out.replayed, 0);
        assert_eq!(
            s.read_page(pid(0)).unwrap().data()[0],
            0xAA,
            "installed value untouched"
        );
    }

    #[test]
    fn redo_is_idempotent() {
        let s = store();
        let recs = vec![
            phys(1, 0, 1),
            op_rec(
                2,
                OpBody::Logical(LogicalOp::Copy {
                    src: pid(0),
                    dst: pid(1),
                }),
            ),
            op_rec(
                3,
                OpBody::Physio(PhysioOp::SetBytes {
                    target: pid(0),
                    offset: 0,
                    bytes: Bytes::from_static(b"zz"),
                }),
            ),
        ];
        let mut t = StoreRedoTarget::new(&s);
        redo_scan(&recs, &mut t).unwrap();
        let snap = s.snapshot().unwrap();
        let mut t2 = StoreRedoTarget::new(&s);
        let out2 = redo_scan(&recs, &mut t2).unwrap();
        assert_eq!(out2.replayed, 0);
        assert_eq!(out2.skipped, 3);
        let snap2 = s.snapshot().unwrap();
        for (id, p) in snap.iter() {
            assert_eq!(snap2.get(id).unwrap(), p);
        }
    }

    #[test]
    fn logical_replay_reads_recovered_state() {
        // copy(0 → 1) must see the value the physical write of 0 installed
        // earlier in the same pass.
        let s = store();
        let recs = vec![
            phys(1, 0, 0x77),
            op_rec(
                2,
                OpBody::Logical(LogicalOp::Copy {
                    src: pid(0),
                    dst: pid(1),
                }),
            ),
        ];
        let mut t = StoreRedoTarget::new(&s);
        redo_scan(&recs, &mut t).unwrap();
        assert_eq!(s.read_page(pid(1)).unwrap().data()[0], 0x77);
        assert_eq!(s.read_page(pid(1)).unwrap().lsn(), Lsn(2));
    }

    #[test]
    fn partial_install_replays_only_missing_pages() {
        // Mix writes pages 1 and 2; page 2 was flushed (LSN 1), page 1 not.
        let s = store();
        let body = OpBody::Logical(LogicalOp::Mix {
            reads: vec![pid(0)],
            writes: vec![pid(1), pid(2)],
            salt: 5,
        });
        // Normal execution results for comparison.
        let mut exec_reader =
            |id: PageId| -> Result<Bytes, OpError> { Ok(s.read_page(id).unwrap().data().clone()) };
        let outs = body.apply(&mut exec_reader).unwrap();
        // Install only page 2.
        let p2 = outs.iter().find(|(p, _)| *p == pid(2)).unwrap();
        s.write_page(pid(2), Page::new(Lsn(1), p2.1.clone()))
            .unwrap();
        // Pre-existing independent value for page 2's "future": give page 2
        // a later unrelated update to prove it is not clobbered.
        s.write_page(pid(2), Page::new(Lsn(9), Bytes::from(vec![9u8; SIZE])))
            .unwrap();

        let recs = vec![op_rec(1, body)];
        let mut t = StoreRedoTarget::new(&s);
        let out = redo_scan(&recs, &mut t).unwrap();
        assert_eq!(out.replayed, 1);
        assert_eq!(out.pages_written, 1, "only page 1 installed");
        let expect_p1 = outs.iter().find(|(p, _)| *p == pid(1)).unwrap();
        assert_eq!(s.read_page(pid(1)).unwrap().data(), &expect_p1.1);
        assert_eq!(
            s.read_page(pid(2)).unwrap().lsn(),
            Lsn(9),
            "newer page kept"
        );
    }

    #[test]
    fn control_records_are_counted_not_replayed() {
        let s = store();
        let recs = vec![
            LogRecord::new(
                Lsn(1),
                RecordBody::BackupBegin {
                    backup_id: 1,
                    start_lsn: Lsn(1),
                },
            ),
            LogRecord::new(Lsn(2), RecordBody::BackupEnd { backup_id: 1 }),
        ];
        let mut t = StoreRedoTarget::new(&s);
        let out = redo_scan(&recs, &mut t).unwrap();
        assert_eq!(out.controls, 2);
        assert_eq!(out.replayed + out.skipped, 0);
    }

    #[test]
    fn media_failure_surfaces_as_target_error() {
        let s = store();
        s.fail_partition(lob_pagestore::PartitionId(0)).unwrap();
        let recs = vec![phys(1, 0, 1)];
        let mut t = StoreRedoTarget::new(&s);
        assert!(matches!(
            redo_scan(&recs, &mut t),
            Err(RedoError::Store(StoreError::MediaFailure(_)))
        ));
    }
}
