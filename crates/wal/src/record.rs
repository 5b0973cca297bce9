//! Log records.

use lob_ops::OpBody;
use lob_pagestore::{Lsn, PageId};

/// The body of a log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordBody {
    /// A logged operation (the normal case).
    Op(OpBody),
    /// A backup has begun. Recovery never replays this; it documents in the
    /// log where a backup's media-recovery scan starts and lets tools audit
    /// the protocol. `start_lsn` is the media redo scan start point chosen
    /// when the backup began (paper §1.2: "The media recovery log scan start
    /// point can be the crash recovery log scan start point at the time
    /// backup begins").
    BackupBegin {
        /// Identifier of the backup run.
        backup_id: u64,
        /// Media redo scan start point for this backup.
        start_lsn: Lsn,
    },
    /// The backup completed successfully.
    BackupEnd {
        /// Identifier of the backup run.
        backup_id: u64,
    },
}

impl RecordBody {
    /// Short label for statistics (operation label, or the control kind).
    pub fn label(&self) -> &'static str {
        match self {
            RecordBody::Op(op) => op.label(),
            RecordBody::BackupBegin { .. } => "BkBegin",
            RecordBody::BackupEnd { .. } => "BkEnd",
        }
    }

    /// The record's kind (and the page of a physical or identity write).
    pub fn kind(&self) -> RecordKind {
        match self {
            RecordBody::Op(OpBody::PhysicalWrite { target, .. }) => RecordKind::Physical(*target),
            RecordBody::Op(OpBody::IdentityWrite { target, .. }) => RecordKind::Identity(*target),
            RecordBody::Op(_) => RecordKind::Op,
            _ => RecordKind::Control,
        }
    }

    /// The operation, if this is an operation record.
    pub fn as_op(&self) -> Option<&OpBody> {
        match self {
            RecordBody::Op(op) => Some(op),
            _ => None,
        }
    }
}

/// What replay must know of a record before deciding to decode it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A backup begin/end record: touches no page.
    Control,
    /// A cache-manager identity write of the page.
    Identity(PageId),
    /// A physically logged write of the page.
    Physical(PageId),
    /// Any other operation: its effect is re-evaluated on replay.
    Op,
}

/// One log record: an LSN and a body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// The record's log sequence number.
    pub lsn: Lsn,
    /// The record's payload.
    pub body: RecordBody,
}

impl LogRecord {
    /// Construct a record.
    pub fn new(lsn: Lsn, body: RecordBody) -> LogRecord {
        LogRecord { lsn, body }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use lob_pagestore::PageId;

    #[test]
    fn labels() {
        let r = LogRecord::new(
            Lsn(1),
            RecordBody::Op(OpBody::PhysicalWrite {
                target: PageId::new(0, 0),
                value: Bytes::new(),
            }),
        );
        assert_eq!(r.body.label(), "W_P");
        assert!(r.body.as_op().is_some());
        let b = RecordBody::BackupBegin {
            backup_id: 1,
            start_lsn: Lsn(5),
        };
        assert_eq!(b.label(), "BkBegin");
        assert!(b.as_op().is_none());
    }
}
