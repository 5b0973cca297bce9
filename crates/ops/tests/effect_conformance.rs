//! The effect-set contract check: for every `OpBody` variant, a recording
//! `PageReader` verifies that `apply()` reads exactly the pages
//! `readset()` declares and returns writes for exactly the pages
//! `writeset()` declares, in `writeset()` order. Both sets are declared
//! once, by `OpBody::for_each_read`/`for_each_write`. The write graph
//! (paper §2) trusts these declarations: an under-declared read is a
//! reader edge the graph never sees, an over-declared write inflates
//! `vars(n)` and the flush latching. This test is the only check of the
//! contract, and it runs on resolved types, so no declaration shape can
//! dodge it.

use bytes::Bytes;
use lob_ops::{LogicalOp, OpBody, PhysioOp};
use lob_pagestore::PageId;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

const PAGE_SIZE: usize = 256;

fn p(index: u32) -> PageId {
    PageId::new(0, index)
}

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

/// One sample per variant. A zeroed page decodes as an empty `RecPage`
/// (record count 0), so every record operation applies cleanly against
/// the recording reader's all-zero universe.
fn samples() -> Vec<OpBody> {
    vec![
        OpBody::PhysicalWrite {
            target: p(1),
            value: Bytes::from(vec![7u8; PAGE_SIZE]),
        },
        OpBody::IdentityWrite {
            target: p(1),
            value: Bytes::from(vec![0u8; PAGE_SIZE]),
        },
        OpBody::Physio(PhysioOp::SetBytes {
            target: p(1),
            offset: 4,
            bytes: b("abc"),
        }),
        OpBody::Physio(PhysioOp::InsertRec {
            target: p(1),
            key: b("k"),
            val: b("v"),
        }),
        OpBody::Physio(PhysioOp::DeleteRec {
            target: p(1),
            key: b("k"),
        }),
        OpBody::Physio(PhysioOp::RmvRec {
            target: p(1),
            sep: b("m"),
        }),
        OpBody::Physio(PhysioOp::AppExec { app: p(1), salt: 7 }),
        OpBody::Logical(LogicalOp::Copy {
            src: p(1),
            dst: p(2),
        }),
        OpBody::Logical(LogicalOp::MovRec {
            old: p(1),
            sep: b("m"),
            new: p(2),
        }),
        OpBody::Logical(LogicalOp::AppRead {
            src: p(1),
            app: p(2),
        }),
        OpBody::Logical(LogicalOp::AppWrite {
            app: p(1),
            dst: p(2),
        }),
        OpBody::Logical(LogicalOp::MergeRec {
            src: p(1),
            dst: p(2),
        }),
        OpBody::Logical(LogicalOp::SortExtent {
            src: vec![p(1), p(2)],
            dst: vec![p(3)],
        }),
        OpBody::Logical(LogicalOp::Mix {
            reads: vec![p(1), p(2)],
            writes: vec![p(3), p(4)],
            salt: 9,
        }),
    ]
}

/// Exhaustive, wildcard-free variant enumeration: adding an `OpBody`
/// variant fails to compile here, forcing a new sample before the
/// workspace builds again.
fn variant_index(op: &OpBody) -> usize {
    match op {
        OpBody::PhysicalWrite { .. } => 0,
        OpBody::IdentityWrite { .. } => 1,
        OpBody::Physio(PhysioOp::SetBytes { .. }) => 2,
        OpBody::Physio(PhysioOp::InsertRec { .. }) => 3,
        OpBody::Physio(PhysioOp::DeleteRec { .. }) => 4,
        OpBody::Physio(PhysioOp::RmvRec { .. }) => 5,
        OpBody::Physio(PhysioOp::AppExec { .. }) => 6,
        OpBody::Logical(LogicalOp::Copy { .. }) => 7,
        OpBody::Logical(LogicalOp::MovRec { .. }) => 8,
        OpBody::Logical(LogicalOp::AppRead { .. }) => 9,
        OpBody::Logical(LogicalOp::AppWrite { .. }) => 10,
        OpBody::Logical(LogicalOp::MergeRec { .. }) => 11,
        OpBody::Logical(LogicalOp::SortExtent { .. }) => 12,
        OpBody::Logical(LogicalOp::Mix { .. }) => 13,
    }
}

#[test]
fn sample_list_covers_every_variant() {
    let covered: BTreeSet<usize> = samples().iter().map(variant_index).collect();
    let expected: BTreeSet<usize> = (0..14).collect();
    assert_eq!(covered, expected, "one sample per OpBody variant");
}

#[test]
fn apply_reads_exactly_the_readset_and_writes_exactly_the_writeset() {
    for op in samples() {
        let recorded: Rc<RefCell<Vec<PageId>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = recorded.clone();
        let mut reader = move |id: PageId| {
            sink.borrow_mut().push(id);
            Ok(Bytes::from(vec![0u8; PAGE_SIZE]))
        };
        let writes = op
            .apply(&mut reader)
            .unwrap_or_else(|e| panic!("{} applies against zeroed pages: {e}", op.label()));

        let declared_reads: BTreeSet<PageId> = op.readset().into_iter().collect();
        let actual_reads: BTreeSet<PageId> = recorded.borrow().iter().copied().collect();
        assert_eq!(
            actual_reads,
            declared_reads,
            "{}: pages read through PageReader must equal readset()",
            op.label()
        );

        let written: Vec<PageId> = writes.iter().map(|(id, _)| *id).collect();
        assert_eq!(
            written,
            op.writeset(),
            "{}: apply() must return writes in writeset() order",
            op.label()
        );
    }
}
