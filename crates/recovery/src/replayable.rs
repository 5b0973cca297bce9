//! What a replay needs of one log record, over both forms a record takes:
//! a decoded [`LogRecord`], and a [`FrameView`] read in place off the log.
//!
//! Every replay body ([`crate::redo_scan`]'s identity schedule, the grouped
//! replay, the unit planner) is written once against [`Replayable`]. Over
//! views, the LSN test and the planner read page ids straight off the
//! frame, and [`Replayable::op`] decodes a record only once its LSN test
//! says it replays — so a skipped record costs a header read and its page
//! probes, never a decode.

use bytes::Bytes;
use lob_ops::OpBody;
use lob_pagestore::{Lsn, PageId};
use lob_wal::{FrameView, LogRecord, RecordBody, RecordKind};
use std::borrow::Cow;

/// One log record as a replay reads it.
pub trait Replayable {
    /// The record's LSN.
    fn lsn(&self) -> Lsn;
    /// The record's kind (and the page of a physical or identity write).
    fn kind(&self) -> RecordKind;
    /// Visit the pages the record writes, in [`OpBody::for_each_write`]
    /// order; a control record writes none.
    fn for_each_write(&self, f: impl FnMut(PageId));
    /// Visit the pages the record reads, in [`OpBody::for_each_read`]
    /// order; a control record reads none.
    fn for_each_read(&self, f: impl FnMut(PageId));
    /// The value a physical or identity write logs (empty for any other
    /// kind). Taken only when the LSN test installs it.
    fn value(&self) -> Bytes;
    /// The operation, for re-evaluation; `None` for a control record.
    fn op(&self) -> Option<Cow<'_, OpBody>>;
}

impl Replayable for LogRecord {
    fn lsn(&self) -> Lsn {
        self.lsn
    }

    fn kind(&self) -> RecordKind {
        self.body.kind()
    }

    fn for_each_write(&self, f: impl FnMut(PageId)) {
        if let RecordBody::Op(op) = &self.body {
            op.for_each_write(f);
        }
    }

    fn for_each_read(&self, f: impl FnMut(PageId)) {
        if let RecordBody::Op(op) = &self.body {
            op.for_each_read(f);
        }
    }

    fn value(&self) -> Bytes {
        match &self.body {
            RecordBody::Op(
                OpBody::PhysicalWrite { value, .. } | OpBody::IdentityWrite { value, .. },
            ) => value.clone(),
            _ => Bytes::new(),
        }
    }

    fn op(&self) -> Option<Cow<'_, OpBody>> {
        self.body.as_op().map(Cow::Borrowed)
    }
}

impl Replayable for FrameView<'_> {
    fn lsn(&self) -> Lsn {
        FrameView::lsn(self)
    }

    fn kind(&self) -> RecordKind {
        FrameView::kind(self)
    }

    fn for_each_write(&self, f: impl FnMut(PageId)) {
        FrameView::for_each_write(self, f)
    }

    fn for_each_read(&self, f: impl FnMut(PageId)) {
        FrameView::for_each_read(self, f)
    }

    fn value(&self) -> Bytes {
        FrameView::value(self).unwrap_or_default()
    }

    fn op(&self) -> Option<Cow<'_, OpBody>> {
        match self.to_record().body {
            RecordBody::Op(op) => Some(Cow::Owned(op)),
            _ => None,
        }
    }
}
