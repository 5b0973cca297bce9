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

use bytes::Bytes;
use lob_ops::OpError;
use lob_pagestore::{Page, PageId, StableStore, StoreError};
use lob_wal::{LogRecord, RecordBody};
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

/// One anchored identity write: target page, carried value, the identity
/// record's LSN (installed as the pageLSN).
pub(crate) type AnchoredIdentity = (PageId, Bytes, lob_pagestore::Lsn);

/// The analysis half of the redo pass: where every identity record must
/// apply. `after[j]` = identity writes to apply right after record
/// position `j`; `at_start` = before anything. Shared by the sequential
/// scan and the parallel grouped replay so the backdating rule exists in
/// exactly one place.
#[derive(Debug, Default)]
pub(crate) struct IdentityAnchors {
    pub(crate) at_start: Vec<AnchoredIdentity>,
    pub(crate) after: std::collections::BTreeMap<usize, Vec<AnchoredIdentity>>,
}

/// Anchor every identity record of `records` (an in-LSN-order record
/// sequence; positions are iteration order) immediately after the last
/// earlier record writing its object.
///
/// The last-writer tracking costs a map insert per written page, so a
/// cheap pre-scan skips the whole analysis for suffixes that carry no
/// identity records at all — the common case for media roll-forward of a
/// tail logged under flush-before-install disciplines.
pub(crate) fn anchor_identities<'a, I>(records: I) -> IdentityAnchors
where
    I: Iterator<Item = &'a LogRecord> + Clone,
{
    let any_identity = records.clone().any(|rec| {
        matches!(
            &rec.body,
            RecordBody::Op(lob_ops::OpBody::IdentityWrite { .. })
        )
    });
    let mut anchors = IdentityAnchors::default();
    if !any_identity {
        return anchors;
    }
    let mut last_writer: crate::fxhash::FxHashMap<PageId, usize> =
        crate::fxhash::FxHashMap::default();
    for (i, rec) in records.enumerate() {
        if let RecordBody::Op(op) = &rec.body {
            if let lob_ops::OpBody::IdentityWrite { target, value } = op {
                match last_writer.get(target) {
                    Some(&j) => {
                        anchors
                            .after
                            .entry(j)
                            .or_default()
                            .push((*target, value.clone(), rec.lsn))
                    }
                    None => anchors.at_start.push((*target, value.clone(), rec.lsn)),
                }
            }
            op.for_each_write(|w| {
                last_writer.insert(w, i);
            });
        }
    }
    anchors
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
/// object (or at the scan start if none — see [`anchor_identities`]), and
/// the redo phase applies it there — under the usual LSN test, and with the
/// identity record's own LSN as the installed pageLSN so later records
/// interact with it correctly.
pub fn redo_scan(
    records: &[LogRecord],
    target: &mut dyn RedoTarget,
) -> Result<RedoOutcome, RedoError> {
    let IdentityAnchors {
        at_start,
        after: promotions,
    } = anchor_identities(records.iter());

    let mut out = RedoOutcome::default();
    let apply_identity = |target: &mut dyn RedoTarget,
                          items: &[(PageId, Bytes, lob_pagestore::Lsn)],
                          out: &mut RedoOutcome|
     -> Result<(), RedoError> {
        for (pid, value, ilsn) in items {
            if target.page(*pid)?.lsn() < *ilsn {
                target.set_page(*pid, Page::new(*ilsn, value.clone()))?;
                out.pages_written += 1;
            }
            out.replayed += 1;
        }
        Ok(())
    };
    apply_identity(target, &at_start, &mut out)?;

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
        if let Some(items) = promotions.get(&i) {
            apply_identity(target, items, &mut out)?;
        }
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
