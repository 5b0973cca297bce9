//! Binary codec for log records.
//!
//! Layout of an encoded record (little-endian):
//!
//! ```text
//! [u64 lsn][u8 tag][tag-specific payload]
//! ```
//!
//! `PageId` encodes as `[u32 partition][u32 index]`; byte strings as
//! `[u32 len][bytes]`; page-id lists as `[u32 count][ids]`.
//!
//! The point of a hand-rolled codec is that **encoded size is the measured
//! quantity** in the logging-economy experiments: a logical `MovRec` record
//! is `9 + 8 + 8 + (4 + |sep|) + 8 ≈ 40` bytes regardless of how many
//! records the split moves, while the page-oriented alternative must carry
//! the moved records' values.

use crate::record::{LogRecord, RecordBody, RecordKind};
use bytes::{BufMut, Bytes, BytesMut};
use lob_ops::{LogicalOp, OpBody, PhysioOp};
use lob_pagestore::{Lsn, PageId};
use std::borrow::Cow;
use std::fmt;

/// Errors from decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Record ended before its payload was complete.
    Truncated,
    /// Unknown record tag.
    BadTag(u8),
    /// A length field exceeded sanity bounds.
    BadLength(u64),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated record"),
            CodecError::BadTag(t) => write!(f, "unknown record tag {t}"),
            CodecError::BadLength(n) => write!(f, "implausible length {n}"),
        }
    }
}

impl std::error::Error for CodecError {}

const TAG_PHYSICAL: u8 = 1;
const TAG_IDENTITY: u8 = 2;
const TAG_SET_BYTES: u8 = 3;
const TAG_INSERT_REC: u8 = 4;
const TAG_DELETE_REC: u8 = 5;
const TAG_RMV_REC: u8 = 6;
const TAG_APP_EXEC: u8 = 7;
const TAG_COPY: u8 = 8;
const TAG_MOV_REC: u8 = 9;
const TAG_APP_READ: u8 = 10;
const TAG_APP_WRITE: u8 = 11;
const TAG_SORT_EXTENT: u8 = 12;
const TAG_MIX: u8 = 13;
const TAG_MERGE_REC: u8 = 14;
const TAG_BACKUP_BEGIN: u8 = 21;
const TAG_BACKUP_END: u8 = 22;

/// Maximum plausible byte-string or list length (64 MiB); guards decoding of
/// corrupt frames.
const MAX_LEN: u64 = 64 << 20;

fn put_page_id(buf: &mut BytesMut, id: PageId) {
    buf.put_u32_le(id.partition.0);
    buf.put_u32_le(id.index);
}

fn put_bytes(buf: &mut BytesMut, b: &[u8]) {
    buf.put_u32_le(b.len() as u32);
    buf.put_slice(b);
}

fn put_ids(buf: &mut BytesMut, ids: &[PageId]) {
    buf.put_u32_le(ids.len() as u32);
    for &id in ids {
        put_page_id(buf, id);
    }
}

/// Encoded size of a `PageId`.
const ID_LEN: usize = 8;

fn bytes_len(b: &[u8]) -> usize {
    4 + b.len()
}

fn ids_len(ids: &[PageId]) -> usize {
    4 + ID_LEN * ids.len()
}

/// The exact length of [`encode_record`]`(rec)`, so encoding reserves
/// its frame once instead of regrowing through a page-sized value.
fn encoded_len(rec: &LogRecord) -> usize {
    let body = match &rec.body {
        RecordBody::Op(op) => match op {
            OpBody::PhysicalWrite { value, .. } | OpBody::IdentityWrite { value, .. } => {
                ID_LEN + bytes_len(value)
            }
            OpBody::Physio(p) => match p {
                PhysioOp::SetBytes { bytes, .. } => ID_LEN + 4 + bytes_len(bytes),
                PhysioOp::InsertRec { key, val, .. } => ID_LEN + bytes_len(key) + bytes_len(val),
                PhysioOp::DeleteRec { key, .. } => ID_LEN + bytes_len(key),
                PhysioOp::RmvRec { sep, .. } => ID_LEN + bytes_len(sep),
                PhysioOp::AppExec { .. } => ID_LEN + 8,
            },
            OpBody::Logical(l) => match l {
                LogicalOp::Copy { .. }
                | LogicalOp::AppRead { .. }
                | LogicalOp::AppWrite { .. }
                | LogicalOp::MergeRec { .. } => 2 * ID_LEN,
                LogicalOp::MovRec { sep, .. } => 2 * ID_LEN + bytes_len(sep),
                LogicalOp::SortExtent { src, dst } => ids_len(src) + ids_len(dst),
                LogicalOp::Mix { reads, writes, .. } => ids_len(reads) + ids_len(writes) + 8,
            },
        },
        RecordBody::BackupBegin { .. } => 16,
        RecordBody::BackupEnd { .. } => 8,
    };
    // The LSN word and the tag byte.
    8 + 1 + body
}

/// Encode a record to bytes, into one allocation of its exact length.
pub fn encode_record(rec: &LogRecord) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_len(rec));
    buf.put_u64_le(rec.lsn.raw());
    match &rec.body {
        RecordBody::Op(op) => encode_op(&mut buf, op),
        RecordBody::BackupBegin {
            backup_id,
            start_lsn,
        } => {
            buf.put_u8(TAG_BACKUP_BEGIN);
            buf.put_u64_le(*backup_id);
            buf.put_u64_le(start_lsn.raw());
        }
        RecordBody::BackupEnd { backup_id } => {
            buf.put_u8(TAG_BACKUP_END);
            buf.put_u64_le(*backup_id);
        }
    }
    buf.freeze()
}

/// A log record in the form the log stores it: an LSN and its encoded
/// frame. The log's own `(Lsn, Bytes)` frames (what
/// [`crate::LogManager::scan`] hands out) lend their shared buffer;
/// a decoded [`LogRecord`] is encoded on demand. The log's frame *is*
/// [`encode_record`] of its record, so both yield the same bytes.
pub trait AsFrame {
    /// The record's LSN.
    fn lsn(&self) -> Lsn;
    /// The record's encoded frame: borrowed where it already exists, so
    /// walking the log's frames takes no reference of its own.
    fn frame(&self) -> Cow<'_, Bytes>;
}

impl AsFrame for (Lsn, Bytes) {
    fn lsn(&self) -> Lsn {
        self.0
    }

    fn frame(&self) -> Cow<'_, Bytes> {
        Cow::Borrowed(&self.1)
    }
}

impl AsFrame for LogRecord {
    fn lsn(&self) -> Lsn {
        self.lsn
    }

    fn frame(&self) -> Cow<'_, Bytes> {
        Cow::Owned(encode_record(self))
    }
}

fn encode_op(buf: &mut BytesMut, op: &OpBody) {
    match op {
        OpBody::PhysicalWrite { target, value } => {
            buf.put_u8(TAG_PHYSICAL);
            put_page_id(buf, *target);
            put_bytes(buf, value);
        }
        OpBody::IdentityWrite { target, value } => {
            buf.put_u8(TAG_IDENTITY);
            put_page_id(buf, *target);
            put_bytes(buf, value);
        }
        OpBody::Physio(p) => match p {
            PhysioOp::SetBytes {
                target,
                offset,
                bytes,
            } => {
                buf.put_u8(TAG_SET_BYTES);
                put_page_id(buf, *target);
                buf.put_u32_le(*offset);
                put_bytes(buf, bytes);
            }
            PhysioOp::InsertRec { target, key, val } => {
                buf.put_u8(TAG_INSERT_REC);
                put_page_id(buf, *target);
                put_bytes(buf, key);
                put_bytes(buf, val);
            }
            PhysioOp::DeleteRec { target, key } => {
                buf.put_u8(TAG_DELETE_REC);
                put_page_id(buf, *target);
                put_bytes(buf, key);
            }
            PhysioOp::RmvRec { target, sep } => {
                buf.put_u8(TAG_RMV_REC);
                put_page_id(buf, *target);
                put_bytes(buf, sep);
            }
            PhysioOp::AppExec { app, salt } => {
                buf.put_u8(TAG_APP_EXEC);
                put_page_id(buf, *app);
                buf.put_u64_le(*salt);
            }
        },
        OpBody::Logical(l) => match l {
            LogicalOp::Copy { src, dst } => {
                buf.put_u8(TAG_COPY);
                put_page_id(buf, *src);
                put_page_id(buf, *dst);
            }
            LogicalOp::MovRec { old, sep, new } => {
                buf.put_u8(TAG_MOV_REC);
                put_page_id(buf, *old);
                put_bytes(buf, sep);
                put_page_id(buf, *new);
            }
            LogicalOp::AppRead { src, app } => {
                buf.put_u8(TAG_APP_READ);
                put_page_id(buf, *src);
                put_page_id(buf, *app);
            }
            LogicalOp::AppWrite { app, dst } => {
                buf.put_u8(TAG_APP_WRITE);
                put_page_id(buf, *app);
                put_page_id(buf, *dst);
            }
            LogicalOp::MergeRec { src, dst } => {
                buf.put_u8(TAG_MERGE_REC);
                put_page_id(buf, *src);
                put_page_id(buf, *dst);
            }
            LogicalOp::SortExtent { src, dst } => {
                buf.put_u8(TAG_SORT_EXTENT);
                put_ids(buf, src);
                put_ids(buf, dst);
            }
            LogicalOp::Mix {
                reads,
                writes,
                salt,
            } => {
                buf.put_u8(TAG_MIX);
                put_ids(buf, reads);
                put_ids(buf, writes);
                buf.put_u64_le(*salt);
            }
        },
    }
}

/// One field of an encoded record body, in encoding order.
#[derive(Debug, Clone, Copy)]
enum Field {
    /// A `PageId`: `[u32 partition][u32 index]`.
    Id,
    U32,
    U64,
    /// A byte string: `[u32 len][bytes]`.
    Bytes,
    /// A page-id list: `[u32 count][ids]`.
    Ids,
}

impl Field {
    /// Validate this field at `at` in `buf`; returns where the next field
    /// starts. Errors arise in the order a field-at-a-time read would meet
    /// them: a short length word, an implausible length, a short payload.
    fn skip(self, buf: &[u8], at: usize) -> Result<usize, CodecError> {
        let need = |n: usize| match at.checked_add(n) {
            Some(end) if end <= buf.len() => Ok(end),
            _ => Err(CodecError::Truncated),
        };
        match self {
            Field::Id | Field::U64 => need(8),
            Field::U32 => need(4),
            Field::Bytes | Field::Ids => {
                let body = need(4)?;
                let n = u64::from(le_u32(buf, at));
                let (limit, unit) = match self {
                    Field::Ids => (MAX_LEN / ID_LEN as u64, ID_LEN),
                    _ => (MAX_LEN, 1),
                };
                if n > limit {
                    return Err(CodecError::BadLength(n));
                }
                match body.checked_add(n as usize * unit) {
                    Some(end) if end <= buf.len() => Ok(end),
                    _ => Err(CodecError::Truncated),
                }
            }
        }
    }
}

/// A record's kind, by its tag byte. Parsing maps the byte here once, so
/// every later match over a view is exhaustive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    Physical,
    Identity,
    SetBytes,
    InsertRec,
    DeleteRec,
    RmvRec,
    AppExec,
    Copy,
    MovRec,
    AppRead,
    AppWrite,
    SortExtent,
    Mix,
    MergeRec,
    BackupBegin,
    BackupEnd,
}

impl Tag {
    fn of(byte: u8) -> Result<Tag, CodecError> {
        Ok(match byte {
            TAG_PHYSICAL => Tag::Physical,
            TAG_IDENTITY => Tag::Identity,
            TAG_SET_BYTES => Tag::SetBytes,
            TAG_INSERT_REC => Tag::InsertRec,
            TAG_DELETE_REC => Tag::DeleteRec,
            TAG_RMV_REC => Tag::RmvRec,
            TAG_APP_EXEC => Tag::AppExec,
            TAG_COPY => Tag::Copy,
            TAG_MOV_REC => Tag::MovRec,
            TAG_APP_READ => Tag::AppRead,
            TAG_APP_WRITE => Tag::AppWrite,
            TAG_SORT_EXTENT => Tag::SortExtent,
            TAG_MIX => Tag::Mix,
            TAG_MERGE_REC => Tag::MergeRec,
            TAG_BACKUP_BEGIN => Tag::BackupBegin,
            TAG_BACKUP_END => Tag::BackupEnd,
            other => return Err(CodecError::BadTag(other)),
        })
    }

    /// The body's fields, in encoding order — the one statement of each
    /// kind's layout that [`FrameView::parse`] validates against.
    fn layout(self) -> &'static [Field] {
        use Field::*;
        match self {
            Tag::Physical | Tag::Identity | Tag::DeleteRec | Tag::RmvRec => &[Id, Bytes],
            Tag::SetBytes => &[Id, U32, Bytes],
            Tag::InsertRec => &[Id, Bytes, Bytes],
            Tag::AppExec => &[Id, U64],
            Tag::Copy | Tag::AppRead | Tag::AppWrite | Tag::MergeRec => &[Id, Id],
            Tag::MovRec => &[Id, Bytes, Id],
            Tag::SortExtent => &[Ids, Ids],
            Tag::Mix => &[Ids, Ids, U64],
            Tag::BackupBegin => &[U64, U64],
            Tag::BackupEnd => &[U64],
        }
    }
}

/// The LSN word and the tag byte.
const HEADER: usize = 8 + 1;

fn le_u32(buf: &[u8], at: usize) -> u32 {
    buf.get(at..at + 4)
        .and_then(|b| b.try_into().ok())
        .map_or(0, u32::from_le_bytes)
}

fn le_u64(buf: &[u8], at: usize) -> u64 {
    buf.get(at..at + 8)
        .and_then(|b| b.try_into().ok())
        .map_or(0, u64::from_le_bytes)
}

/// A validated log frame read in place: [`FrameView::parse`] checks the
/// whole layout once and notes where each body field starts, and the
/// record's write set when that is one page; every other accessor reads
/// the frame's bytes directly. Walking a record's page sets or taking its
/// logged value allocates nothing, and only [`FrameView::to_record`]
/// builds a [`LogRecord`] — so a replay that skips a record by its LSN
/// test never decodes it, and for a one-page write set never reads the
/// frame again after parsing it.
#[derive(Debug, Clone, Copy)]
pub struct FrameView<'a> {
    frame: &'a Bytes,
    /// `frame`'s bytes, held directly so a field read is one load away
    /// from the view, not two.
    data: &'a [u8],
    lsn: Lsn,
    tag: Tag,
    /// Start offset of each body field (a body has at most three).
    at: [u32; 3],
    /// The write set, when it is exactly one page: every kind but a
    /// control record or an id-list write set of another length.
    write: Option<PageId>,
}

impl<'a> FrameView<'a> {
    /// Validate `frame` exactly as a field-at-a-time decode would — the
    /// same [`CodecError`] for the same bytes, trailing bytes ignored —
    /// without allocating.
    pub fn parse(frame: &'a Bytes) -> Result<FrameView<'a>, CodecError> {
        let buf: &[u8] = frame;
        let Some(&byte) = buf.get(HEADER - 1) else {
            return Err(CodecError::Truncated);
        };
        let tag = Tag::of(byte)?;
        let mut at = [0u32; 3];
        let mut pos = HEADER;
        for (slot, field) in at.iter_mut().zip(tag.layout()) {
            // A validated body ends within 9 + 3 * (4 + 64 MiB) bytes, so
            // every field start fits a `u32`.
            *slot = pos as u32;
            pos = field.skip(buf, pos)?;
        }
        let mut view = FrameView {
            frame,
            data: buf,
            lsn: Lsn(le_u64(buf, 0)),
            tag,
            at,
            write: None,
        };
        view.write = view.one_write();
        Ok(view)
    }

    /// The record's LSN.
    pub fn lsn(&self) -> Lsn {
        self.lsn
    }

    /// The record's kind (and the page of a physical or identity write).
    pub fn kind(&self) -> RecordKind {
        let target = || self.write.unwrap_or_else(|| self.id(0));
        match self.tag {
            Tag::Physical => RecordKind::Physical(target()),
            Tag::Identity => RecordKind::Identity(target()),
            Tag::BackupBegin | Tag::BackupEnd => RecordKind::Control,
            _ => RecordKind::Op,
        }
    }

    /// Visit the record's write set: the pages of
    /// [`OpBody::for_each_write`], in its order.
    pub fn for_each_write(&self, mut f: impl FnMut(PageId)) {
        match (self.write, self.tag) {
            (Some(page), _) => f(page),
            (None, Tag::SortExtent | Tag::Mix) => self.ids(1).for_each(f),
            (None, _) => {}
        }
    }

    /// The write set read off the frame, if it is exactly one page.
    fn one_write(&self) -> Option<PageId> {
        match self.tag {
            Tag::Physical
            | Tag::Identity
            | Tag::SetBytes
            | Tag::InsertRec
            | Tag::DeleteRec
            | Tag::RmvRec
            | Tag::AppExec => Some(self.id(0)),
            Tag::Copy | Tag::AppRead | Tag::AppWrite | Tag::MergeRec => Some(self.id(1)),
            Tag::MovRec => Some(self.id(2)),
            Tag::SortExtent | Tag::Mix => {
                let mut ids = self.ids(1);
                match (ids.next(), ids.next()) {
                    (Some(page), None) => Some(page),
                    _ => None,
                }
            }
            Tag::BackupBegin | Tag::BackupEnd => None,
        }
    }

    /// Visit the record's read set: the pages of
    /// [`OpBody::for_each_read`], in its order, read off the frame.
    pub fn for_each_read(&self, mut f: impl FnMut(PageId)) {
        match self.tag {
            Tag::SetBytes
            | Tag::InsertRec
            | Tag::DeleteRec
            | Tag::RmvRec
            | Tag::AppExec
            | Tag::Copy
            | Tag::MovRec
            | Tag::AppWrite => f(self.id(0)),
            Tag::AppRead | Tag::MergeRec => {
                f(self.id(0));
                f(self.id(1));
            }
            Tag::SortExtent | Tag::Mix => self.ids(0).for_each(f),
            Tag::Physical | Tag::Identity | Tag::BackupBegin | Tag::BackupEnd => {}
        }
    }

    /// The value a physical or identity write logs, as a view into the
    /// frame's buffer; `None` for every other kind.
    pub fn value(&self) -> Option<Bytes> {
        match self.tag {
            Tag::Physical | Tag::Identity => Some(self.bytes(1)),
            _ => None,
        }
    }

    /// The decoded record. Byte-string payloads are views into the frame's
    /// buffer, never copies.
    pub fn to_record(&self) -> LogRecord {
        let op = |body| RecordBody::Op(body);
        let physio = |p| RecordBody::Op(OpBody::Physio(p));
        let logical = |l| RecordBody::Op(OpBody::Logical(l));
        let body = match self.tag {
            Tag::Physical => op(OpBody::PhysicalWrite {
                target: self.id(0),
                value: self.bytes(1),
            }),
            Tag::Identity => op(OpBody::IdentityWrite {
                target: self.id(0),
                value: self.bytes(1),
            }),
            Tag::SetBytes => physio(PhysioOp::SetBytes {
                target: self.id(0),
                offset: le_u32(self.data, self.field(1)),
                bytes: self.bytes(2),
            }),
            Tag::InsertRec => physio(PhysioOp::InsertRec {
                target: self.id(0),
                key: self.bytes(1),
                val: self.bytes(2),
            }),
            Tag::DeleteRec => physio(PhysioOp::DeleteRec {
                target: self.id(0),
                key: self.bytes(1),
            }),
            Tag::RmvRec => physio(PhysioOp::RmvRec {
                target: self.id(0),
                sep: self.bytes(1),
            }),
            Tag::AppExec => physio(PhysioOp::AppExec {
                app: self.id(0),
                salt: self.u64(1),
            }),
            Tag::Copy => logical(LogicalOp::Copy {
                src: self.id(0),
                dst: self.id(1),
            }),
            Tag::MovRec => logical(LogicalOp::MovRec {
                old: self.id(0),
                sep: self.bytes(1),
                new: self.id(2),
            }),
            Tag::AppRead => logical(LogicalOp::AppRead {
                src: self.id(0),
                app: self.id(1),
            }),
            Tag::AppWrite => logical(LogicalOp::AppWrite {
                app: self.id(0),
                dst: self.id(1),
            }),
            Tag::MergeRec => logical(LogicalOp::MergeRec {
                src: self.id(0),
                dst: self.id(1),
            }),
            Tag::SortExtent => logical(LogicalOp::SortExtent {
                src: self.ids(0).collect(),
                dst: self.ids(1).collect(),
            }),
            Tag::Mix => logical(LogicalOp::Mix {
                reads: self.ids(0).collect(),
                writes: self.ids(1).collect(),
                salt: self.u64(2),
            }),
            Tag::BackupBegin => RecordBody::BackupBegin {
                backup_id: self.u64(0),
                start_lsn: Lsn(self.u64(1)),
            },
            Tag::BackupEnd => RecordBody::BackupEnd {
                backup_id: self.u64(0),
            },
        };
        LogRecord::new(self.lsn, body)
    }

    /// Where body field `k` starts.
    fn field(&self, k: usize) -> usize {
        self.at.get(k).map_or(0, |&at| at as usize)
    }

    fn id(&self, k: usize) -> PageId {
        let at = self.field(k);
        PageId::new(le_u32(self.data, at), le_u32(self.data, at + 4))
    }

    fn u64(&self, k: usize) -> u64 {
        le_u64(self.data, self.field(k))
    }

    fn bytes(&self, k: usize) -> Bytes {
        let at = self.field(k);
        let len = le_u32(self.data, at) as usize;
        self.data
            .get(at + 4..at + 4 + len)
            .map_or_else(Bytes::new, |value| self.frame.slice_ref(value))
    }

    fn ids(&self, k: usize) -> impl Iterator<Item = PageId> + 'a {
        let frame = self.data;
        let at = self.field(k);
        let n = le_u32(frame, at) as usize;
        (0..n).map(move |i| {
            let id = at + 4 + ID_LEN * i;
            PageId::new(le_u32(frame, id), le_u32(frame, id + 4))
        })
    }
}

/// Decode a record from bytes produced by [`encode_record`]: one copy of
/// `data`, then [`decode_record_shared`] over it.
pub fn decode_record(data: &[u8]) -> Result<LogRecord, CodecError> {
    decode_record_shared(&Bytes::copy_from_slice(data))
}

/// Decode a record from a shared frame, zero-copy: byte-string payloads
/// (physical and identity page values, physiological keys) are refcounted
/// views into `frame` rather than fresh allocations.
pub fn decode_record_shared(frame: &Bytes) -> Result<LogRecord, CodecError> {
    Ok(FrameView::parse(frame)?.to_record())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The field-at-a-time decoder [`FrameView::parse`] replaced, kept as
    /// the independent oracle the agreement test checks the parser
    /// against: it reads each field in turn and fails at the first one
    /// that does not fit.
    mod reference {
        use super::super::*;
        use bytes::Buf;

        struct Cursor<'a> {
            buf: &'a [u8],
        }

        impl Cursor<'_> {
            fn need(&self, n: usize) -> Result<(), CodecError> {
                if self.buf.remaining() < n {
                    Err(CodecError::Truncated)
                } else {
                    Ok(())
                }
            }

            fn u8(&mut self) -> Result<u8, CodecError> {
                self.need(1)?;
                Ok(self.buf.get_u8())
            }

            fn u32(&mut self) -> Result<u32, CodecError> {
                self.need(4)?;
                Ok(self.buf.get_u32_le())
            }

            fn u64(&mut self) -> Result<u64, CodecError> {
                self.need(8)?;
                Ok(self.buf.get_u64_le())
            }

            fn page_id(&mut self) -> Result<PageId, CodecError> {
                let partition = self.u32()?;
                let index = self.u32()?;
                Ok(PageId::new(partition, index))
            }

            fn bytes(&mut self) -> Result<Bytes, CodecError> {
                let len = self.u32()? as u64;
                if len > MAX_LEN {
                    return Err(CodecError::BadLength(len));
                }
                let len = len as usize;
                let Some(head) = self.buf.get(..len) else {
                    return Err(CodecError::Truncated);
                };
                let out = Bytes::copy_from_slice(head);
                self.buf.advance(len);
                Ok(out)
            }

            fn ids(&mut self) -> Result<Vec<PageId>, CodecError> {
                let n = self.u32()? as u64;
                if n > MAX_LEN / 8 {
                    return Err(CodecError::BadLength(n));
                }
                (0..n).map(|_| self.page_id()).collect()
            }
        }

        pub(super) fn decode(data: &[u8]) -> Result<LogRecord, CodecError> {
            let mut c = Cursor { buf: data };
            let lsn = Lsn(c.u64()?);
            let tag = c.u8()?;
            let body = match tag {
                TAG_PHYSICAL => RecordBody::Op(OpBody::PhysicalWrite {
                    target: c.page_id()?,
                    value: c.bytes()?,
                }),
                TAG_IDENTITY => RecordBody::Op(OpBody::IdentityWrite {
                    target: c.page_id()?,
                    value: c.bytes()?,
                }),
                TAG_SET_BYTES => RecordBody::Op(OpBody::Physio(PhysioOp::SetBytes {
                    target: c.page_id()?,
                    offset: c.u32()?,
                    bytes: c.bytes()?,
                })),
                TAG_INSERT_REC => RecordBody::Op(OpBody::Physio(PhysioOp::InsertRec {
                    target: c.page_id()?,
                    key: c.bytes()?,
                    val: c.bytes()?,
                })),
                TAG_DELETE_REC => RecordBody::Op(OpBody::Physio(PhysioOp::DeleteRec {
                    target: c.page_id()?,
                    key: c.bytes()?,
                })),
                TAG_RMV_REC => RecordBody::Op(OpBody::Physio(PhysioOp::RmvRec {
                    target: c.page_id()?,
                    sep: c.bytes()?,
                })),
                TAG_APP_EXEC => RecordBody::Op(OpBody::Physio(PhysioOp::AppExec {
                    app: c.page_id()?,
                    salt: c.u64()?,
                })),
                TAG_COPY => RecordBody::Op(OpBody::Logical(LogicalOp::Copy {
                    src: c.page_id()?,
                    dst: c.page_id()?,
                })),
                TAG_MOV_REC => RecordBody::Op(OpBody::Logical(LogicalOp::MovRec {
                    old: c.page_id()?,
                    sep: c.bytes()?,
                    new: c.page_id()?,
                })),
                TAG_APP_READ => RecordBody::Op(OpBody::Logical(LogicalOp::AppRead {
                    src: c.page_id()?,
                    app: c.page_id()?,
                })),
                TAG_APP_WRITE => RecordBody::Op(OpBody::Logical(LogicalOp::AppWrite {
                    app: c.page_id()?,
                    dst: c.page_id()?,
                })),
                TAG_MERGE_REC => RecordBody::Op(OpBody::Logical(LogicalOp::MergeRec {
                    src: c.page_id()?,
                    dst: c.page_id()?,
                })),
                TAG_SORT_EXTENT => RecordBody::Op(OpBody::Logical(LogicalOp::SortExtent {
                    src: c.ids()?,
                    dst: c.ids()?,
                })),
                TAG_MIX => RecordBody::Op(OpBody::Logical(LogicalOp::Mix {
                    reads: c.ids()?,
                    writes: c.ids()?,
                    salt: c.u64()?,
                })),
                TAG_BACKUP_BEGIN => RecordBody::BackupBegin {
                    backup_id: c.u64()?,
                    start_lsn: Lsn(c.u64()?),
                },
                TAG_BACKUP_END => RecordBody::BackupEnd {
                    backup_id: c.u64()?,
                },
                other => return Err(CodecError::BadTag(other)),
            };
            Ok(LogRecord { lsn, body })
        }
    }

    fn pid(p: u32, i: u32) -> PageId {
        PageId::new(p, i)
    }

    fn round_trip(rec: LogRecord) {
        let enc = encode_record(&rec);
        let dec = decode_record(&enc).unwrap();
        assert_eq!(dec, rec);
    }

    /// One record body of every kind the codec knows.
    fn every_kind() -> Vec<RecordBody> {
        vec![
            RecordBody::Op(OpBody::PhysicalWrite {
                target: pid(1, 2),
                value: Bytes::from_static(b"value"),
            }),
            RecordBody::Op(OpBody::IdentityWrite {
                target: pid(0, 0),
                value: Bytes::new(),
            }),
            RecordBody::Op(OpBody::Physio(PhysioOp::SetBytes {
                target: pid(3, 4),
                offset: 17,
                bytes: Bytes::from_static(b"xy"),
            })),
            RecordBody::Op(OpBody::Physio(PhysioOp::InsertRec {
                target: pid(0, 9),
                key: Bytes::from_static(b"k"),
                val: Bytes::from_static(b"v"),
            })),
            RecordBody::Op(OpBody::Physio(PhysioOp::DeleteRec {
                target: pid(0, 9),
                key: Bytes::from_static(b"k"),
            })),
            RecordBody::Op(OpBody::Physio(PhysioOp::RmvRec {
                target: pid(0, 9),
                sep: Bytes::from_static(b"m"),
            })),
            RecordBody::Op(OpBody::Physio(PhysioOp::AppExec {
                app: pid(7, 7),
                salt: u64::MAX,
            })),
            RecordBody::Op(OpBody::Logical(LogicalOp::Copy {
                src: pid(0, 1),
                dst: pid(0, 2),
            })),
            RecordBody::Op(OpBody::Logical(LogicalOp::MovRec {
                old: pid(0, 1),
                sep: Bytes::from_static(b"split"),
                new: pid(0, 2),
            })),
            RecordBody::Op(OpBody::Logical(LogicalOp::AppRead {
                src: pid(0, 1),
                app: pid(1, 0),
            })),
            RecordBody::Op(OpBody::Logical(LogicalOp::AppWrite {
                app: pid(1, 0),
                dst: pid(0, 3),
            })),
            RecordBody::Op(OpBody::Logical(LogicalOp::MergeRec {
                src: pid(0, 2),
                dst: pid(0, 1),
            })),
            RecordBody::Op(OpBody::Logical(LogicalOp::SortExtent {
                src: vec![pid(0, 1), pid(0, 2)],
                dst: vec![pid(0, 3)],
            })),
            RecordBody::Op(OpBody::Logical(LogicalOp::Mix {
                reads: vec![pid(0, 1)],
                writes: vec![pid(0, 2), pid(0, 3)],
                salt: 42,
            })),
            RecordBody::BackupBegin {
                backup_id: 3,
                start_lsn: Lsn(100),
            },
            RecordBody::BackupEnd { backup_id: 3 },
        ]
    }

    /// Parse `buf` as a view and check it against the reference decoder:
    /// the same verdict and error, and — where both succeed — the same
    /// LSN, kind, page sets, logged value and decoded record.
    fn agree(buf: &[u8], ctx: &str) {
        let want = reference::decode(buf);
        let frame = Bytes::copy_from_slice(buf);
        let view = FrameView::parse(&frame);
        assert_eq!(decode_record(buf), want, "{ctx}: decode_record");
        let (view, want) = match (view, want) {
            (Err(got), Err(want)) => return assert_eq!(got, want, "{ctx}: error"),
            (Ok(view), Ok(want)) => (view, want),
            (got, want) => panic!("{ctx}: parse {got:?} but decode {want:?}"),
        };
        assert_eq!(view.lsn(), want.lsn, "{ctx}: lsn");
        assert_eq!(view.to_record(), want, "{ctx}: to_record");
        let (mut writes, mut reads) = (Vec::new(), Vec::new());
        view.for_each_write(|p| writes.push(p));
        view.for_each_read(|p| reads.push(p));
        let (kind, value) = match &want.body {
            RecordBody::Op(op) => {
                assert_eq!(writes, op.writeset(), "{ctx}: writes");
                assert_eq!(reads, op.readset(), "{ctx}: reads");
                match op {
                    OpBody::PhysicalWrite { target, value } => {
                        (RecordKind::Physical(*target), Some(value.clone()))
                    }
                    OpBody::IdentityWrite { target, value } => {
                        (RecordKind::Identity(*target), Some(value.clone()))
                    }
                    _ => (RecordKind::Op, None),
                }
            }
            _ => {
                assert!(
                    writes.is_empty() && reads.is_empty(),
                    "{ctx}: control pages"
                );
                (RecordKind::Control, None)
            }
        };
        assert_eq!(view.kind(), kind, "{ctx}: kind");
        assert_eq!(view.value(), value, "{ctx}: value");
    }

    #[test]
    fn frame_views_agree_with_the_field_at_a_time_decoder() {
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n as u64) as usize
        };
        for (i, body) in every_kind().into_iter().enumerate() {
            let enc = encode_record(&LogRecord::new(Lsn(0x0102_0304_0506 + i as u64), body));
            // Every truncation, and the whole frame with trailing bytes.
            for cut in 0..=enc.len() {
                agree(&enc[..cut], &format!("kind {i} cut {cut}"));
            }
            let mut padded = enc.to_vec();
            padded.extend_from_slice(&[0xAB; 5]);
            agree(&padded, &format!("kind {i} padded"));
            // Seeded byte flips: single bytes set to arbitrary values, and
            // high bytes of length words so the bound checks fire too.
            for flip in 0..256 {
                let mut buf = enc.to_vec();
                let at = next(buf.len());
                buf[at] = match flip % 4 {
                    0 => 0xFF,
                    1 => 0x04,
                    _ => next(256) as u8,
                };
                agree(&buf, &format!("kind {i} flip {flip} at {at}"));
            }
        }
    }

    #[test]
    fn a_view_reads_page_lists_and_values_in_place() {
        let page = Bytes::from(vec![7u8; 300]);
        let frame = encode_record(&LogRecord::new(
            Lsn(5),
            RecordBody::Op(OpBody::IdentityWrite {
                target: pid(2, 9),
                value: page.clone(),
            }),
        ));
        let view = FrameView::parse(&frame).unwrap();
        let value = view.value().unwrap();
        assert_eq!(value, page);
        // The value aliases the frame's buffer: no copy was made.
        let inside = frame.as_ptr_range();
        assert!(inside.contains(&value.as_ptr()));
        assert_eq!(view.kind(), RecordKind::Identity(pid(2, 9)));
    }

    #[test]
    fn round_trip_every_variant() {
        for (i, body) in every_kind().into_iter().enumerate() {
            round_trip(LogRecord::new(Lsn(i as u64 + 1), body));
        }
    }

    #[test]
    fn the_reserved_length_is_the_encoded_length() {
        let page = Bytes::from(vec![7u8; 1024]);
        let mut cases = every_kind();
        cases.push(RecordBody::Op(OpBody::IdentityWrite {
            target: pid(0, 1),
            value: page.clone(),
        }));
        cases.push(RecordBody::Op(OpBody::PhysicalWrite {
            target: pid(0, 1),
            value: page,
        }));
        for body in cases {
            let rec = LogRecord::new(Lsn(9), body);
            assert_eq!(encoded_len(&rec), encode_record(&rec).len(), "{rec:?}");
        }
    }

    #[test]
    fn logical_records_are_small() {
        // The heart of the paper's economy argument: a MovRec record is a
        // few dozen bytes no matter how much data the split moves.
        let rec = LogRecord::new(
            Lsn(1),
            RecordBody::Op(OpBody::Logical(LogicalOp::MovRec {
                old: pid(0, 1),
                sep: Bytes::from_static(b"separator-key"),
                new: pid(0, 2),
            })),
        );
        assert!(encode_record(&rec).len() < 64);

        let phys = LogRecord::new(
            Lsn(2),
            RecordBody::Op(OpBody::PhysicalWrite {
                target: pid(0, 2),
                value: Bytes::from(vec![0u8; 4096]),
            }),
        );
        assert!(encode_record(&phys).len() > 4096);
    }

    #[test]
    fn truncated_input_is_rejected() {
        let rec = LogRecord::new(
            Lsn(1),
            RecordBody::Op(OpBody::Logical(LogicalOp::Copy {
                src: pid(0, 1),
                dst: pid(0, 2),
            })),
        );
        let enc = encode_record(&rec);
        for cut in 0..enc.len() {
            assert!(
                decode_record(&enc[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn bad_tag_is_rejected() {
        let mut enc = encode_record(&LogRecord::new(
            Lsn(1),
            RecordBody::BackupEnd { backup_id: 0 },
        ))
        .to_vec();
        enc[8] = 0xEE;
        assert_eq!(decode_record(&enc), Err(CodecError::BadTag(0xEE)));
    }

    #[test]
    fn implausible_length_is_rejected() {
        // PhysicalWrite with a length field of u32::MAX.
        let mut buf = BytesMut::new();
        buf.put_u64_le(1);
        buf.put_u8(TAG_PHYSICAL);
        buf.put_u32_le(0);
        buf.put_u32_le(0);
        buf.put_u32_le(u32::MAX);
        assert!(matches!(decode_record(&buf), Err(CodecError::BadLength(_))));
    }
}
