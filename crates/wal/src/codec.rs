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

use crate::record::{LogRecord, RecordBody};
use bytes::{Buf, BufMut, Bytes, BytesMut};
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
/// [`crate::LogManager::frames_from`] returns) hand out their shared buffer;
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

struct Cursor<'a> {
    buf: &'a [u8],
    /// When decoding a shared frame, the owning [`Bytes`] — byte-string
    /// payloads become refcounted views into it instead of fresh copies.
    owner: Option<&'a Bytes>,
}

impl<'a> Cursor<'a> {
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
        let out = match self.owner {
            Some(frame) => frame.slice_ref(head),
            None => Bytes::copy_from_slice(head),
        };
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

/// Decode a record from bytes produced by [`encode_record`].
pub fn decode_record(data: &[u8]) -> Result<LogRecord, CodecError> {
    decode(Cursor {
        buf: data,
        owner: None,
    })
}

/// Decode a record from a shared frame, zero-copy: byte-string payloads
/// (physical and identity page values, physiological keys) are refcounted
/// views into `frame` rather than fresh allocations. This is what keeps a
/// full log scan cheap — recovery decodes tens of thousands of frames in
/// one pass, and the payload bytes already live in the frame buffer.
pub fn decode_record_shared(frame: &Bytes) -> Result<LogRecord, CodecError> {
    decode(Cursor {
        buf: frame.as_ref(),
        owner: Some(frame),
    })
}

fn decode(mut c: Cursor<'_>) -> Result<LogRecord, CodecError> {
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

#[cfg(test)]
mod tests {
    use super::*;

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
