//! The page-indexed media-log archive.
//!
//! Media recovery of one page (or one segment) out of a backup generation
//! needs that page's redo suffix — the log records past the generation's
//! `start_lsn` that write it — plus the records its dependency closure
//! pulls in. With only the sequential log, finding those records means
//! scanning the *whole* suffix, which is exactly the full-pass cost
//! instant restore exists to avoid ("Instant restore after a media
//! failure", Sauer/Graefe/Härder: single-pass restore needs the log
//! archive partitioned by page).
//!
//! A [`LogArchive`] holds the generation's log suffix **sorted and
//! partitioned by page**: one run per [`PageId`] containing every record
//! whose writeset includes the page, in LSN order, plus one *control run*
//! of non-operation records (backup begin/end markers the redo pass counts
//! but never applies). Any page's redo suffix is then fetchable without a
//! scan: the union of the closure pages' runs and the control run, merged
//! by LSN, is byte-for-byte the subsequence a closure replay needs.
//!
//! Runs are stored as **encoded frames** with a per-run checksum recorded
//! at indexing time, re-verified on every fetch — archive media rot
//! (injected through the catalog's `ArchiveRead` fault hook or the tamper
//! API) is detected and typed, never silently replayed into `S`. The
//! frames are the log's own: [`LogArchive::extend`] takes the `(Lsn,
//! Bytes)` frames a [`lob_wal::LogManager::scan`] hands out and pushes
//! the same refcounted buffers into the runs — no re-encode, no second
//! copy of the suffix. The archive is built incrementally: `extend` indexes
//! frames past the current watermark, so a catalog can keep a generation's
//! archive caught up as the log grows.

use crate::error::BackupError;
use bytes::Bytes;
use lob_pagestore::{Lsn, PageId, PartitionId};
use lob_wal::{decode_record_shared, AsFrame, FrameView, LogRecord, RecordKind};
use std::collections::BTreeMap;

/// One sorted run of encoded records (LSN order), checksummed at indexing
/// time.
#[derive(Debug, Clone)]
struct ArchiveRun {
    /// Encoded record frames, ascending LSN.
    frames: Vec<Bytes>,
    /// Checksum over every frame's bytes, recorded when the run was last
    /// extended. A fetch recomputes and compares.
    sum: u64,
}

impl Default for ArchiveRun {
    fn default() -> ArchiveRun {
        // The empty run must verify: a generation whose suffix carries no
        // control records (or no writers for a page) is intact, not rotten.
        ArchiveRun {
            frames: Vec::new(),
            sum: checksum_frames(&[]),
        }
    }
}

impl ArchiveRun {
    fn push(&mut self, frame: &Bytes) {
        // The checksum is a rolling hash over the frame sequence, so a
        // push extends the recorded sum in O(frame) — re-hashing the whole
        // run here would make archive building quadratic per run.
        self.sum = checksum_extend(self.sum, frame);
        self.frames.push(frame.clone());
    }

    fn verify(&self) -> bool {
        checksum_frames(&self.frames) == self.sum
    }
}

const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Extend a rolling FNV-1a-style hash by one frame: the frame length is
/// mixed first (so a resplit is not checksum-neutral), then the bytes in
/// word-sized chunks (fetch verification sits on the restore availability
/// path — byte-at-a-time hashing is 8x the work for the same rot
/// detection).
fn checksum_extend(mut h: u64, frame: &Bytes) -> u64 {
    h ^= frame.len() as u64;
    h = h.wrapping_mul(FNV_PRIME);
    let mut chunks = frame.chunks_exact(8);
    for chunk in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        h ^= u64::from_le_bytes(word);
        h = h.wrapping_mul(FNV_PRIME);
    }
    for &b in chunks.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hash of a whole frame sequence: [`checksum_extend`] folded from the
/// FNV basis — by construction equal to the rolling sum the pushes kept.
fn checksum_frames(frames: &[Bytes]) -> u64 {
    frames.iter().fold(FNV_BASIS, checksum_extend)
}

/// A backup generation's log suffix, sorted and partitioned by page.
///
/// Owned by the catalog's `Generation` (under the catalog lock); all
/// fault-hook consults happen in the catalog's fetch methods, which then
/// call the plain accessors here.
#[derive(Debug)]
pub struct LogArchive {
    /// The generation's redo-start LSN (records below it are never
    /// indexed — the image already contains their effects).
    start_lsn: Lsn,
    /// Exclusive upper bound of indexed records: every record with
    /// `start_lsn <= lsn < watermark` is in its runs. [`LogArchive::extend`]
    /// advances it.
    watermark: Lsn,
    /// One run per page, keyed by the page a record *writes*. A record
    /// writing several pages appears in each of their runs.
    runs: BTreeMap<PageId, ArchiveRun>,
    /// Non-operation records (backup markers): counted by the redo pass,
    /// needed by every closure replay.
    control: ArchiveRun,
}

impl LogArchive {
    /// An empty archive for a generation with the given redo-start LSN.
    pub fn new(start_lsn: Lsn) -> LogArchive {
        LogArchive {
            start_lsn,
            watermark: start_lsn,
            runs: BTreeMap::new(),
            control: ArchiveRun::default(),
        }
    }

    /// The generation's redo-start LSN.
    pub fn start_lsn(&self) -> Lsn {
        self.start_lsn
    }

    /// Exclusive upper bound of indexed records. Records at or past the
    /// watermark must be fed through [`LogArchive::extend`] before a
    /// restore that needs them.
    pub fn watermark(&self) -> Lsn {
        self.watermark
    }

    /// Number of per-page runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Total records indexed across all runs (a multi-page record counts
    /// once per run it appears in) plus the control run.
    pub fn indexed_records(&self) -> usize {
        self.runs.values().map(|r| r.frames.len()).sum::<usize>() + self.control.frames.len()
    }

    /// Index every frame with `lsn >= watermark`, partitioning by
    /// writeset page; earlier frames are skipped (already indexed or below
    /// `start_lsn`). Frames must arrive in ascending LSN order — the runs
    /// stay LSN-sorted by construction.
    ///
    /// Each frame's writeset is read in place ([`FrameView`]) — nothing is
    /// decoded — and the frame's own buffer goes into the runs. A frame
    /// that does not parse is filed in the control run, which every
    /// closure fetch decodes: it surfaces there as
    /// [`BackupError::CorruptArchive`], never as a silently missing record.
    pub fn extend<F: AsFrame>(&mut self, frames: &[F]) {
        for f in frames {
            let lsn = f.lsn();
            if lsn < self.watermark {
                continue;
            }
            let frame = f.frame();
            match FrameView::parse(&frame) {
                Ok(view) if view.kind() != RecordKind::Control => {
                    view.for_each_write(|page| self.runs.entry(page).or_default().push(&frame))
                }
                _ => self.control.push(&frame),
            }
            self.watermark = Lsn(lsn.0 + 1);
        }
    }

    /// Decode one page's run (empty if the page has no indexed writers),
    /// verifying the run checksum first. The catalog consults the fault
    /// hook before calling this.
    pub(crate) fn decode_run(
        &self,
        backup_id: u64,
        page: PageId,
    ) -> Result<Vec<LogRecord>, BackupError> {
        match self.runs.get(&page) {
            None => Ok(Vec::new()),
            Some(run) => {
                if !run.verify() {
                    return Err(BackupError::CorruptArchive {
                        backup_id,
                        page: Some(page),
                    });
                }
                decode_frames(&run.frames, backup_id, Some(page))
            }
        }
    }

    /// Decode every indexed run whose page lies in `partition`, each
    /// verified against its recorded checksum, in ascending page order.
    /// Pages of the partition absent from the result have no indexed
    /// writers (their run is empty by construction) — the batch is the
    /// segment-granular fetch behind instant restore, replacing one
    /// archive access per page with one per segment.
    pub(crate) fn decode_partition_runs(
        &self,
        backup_id: u64,
        partition: PartitionId,
    ) -> Result<Vec<(PageId, Vec<LogRecord>)>, BackupError> {
        let lo = PageId::new(partition.0, 0);
        let hi = PageId::new(partition.0, u32::MAX);
        let mut out = Vec::new();
        for (&id, run) in self.runs.range(lo..=hi) {
            if !run.verify() {
                return Err(BackupError::CorruptArchive {
                    backup_id,
                    page: Some(id),
                });
            }
            out.push((id, decode_frames(&run.frames, backup_id, Some(id))?));
        }
        Ok(out)
    }

    /// Decode the control run, verifying its checksum first.
    pub(crate) fn decode_control(&self, backup_id: u64) -> Result<Vec<LogRecord>, BackupError> {
        if !self.control.verify() {
            return Err(BackupError::CorruptArchive {
                backup_id,
                page: None,
            });
        }
        decode_frames(&self.control.frames, backup_id, None)
    }

    /// Flip one bit mid-frame in a page's run, leaving the recorded
    /// checksum untouched — the rot-injection primitive behind the
    /// catalog's tamper API. Returns false if the page has no run.
    pub(crate) fn tamper_run(&mut self, page: PageId) -> bool {
        match self.runs.get_mut(&page) {
            Some(run) => tamper_frames(&mut run.frames),
            None => false,
        }
    }

    /// Damage a page's run for a read-fault verdict (first existing run if
    /// the page has none — the damage must land somewhere for the verdict
    /// to mean anything). No-op on an empty archive.
    pub(crate) fn damage_any_run(&mut self, page: PageId) {
        if let Some(run) = self.runs.get_mut(&page) {
            tamper_frames(&mut run.frames);
        } else if let Some(run) = self.runs.values_mut().next() {
            tamper_frames(&mut run.frames);
        } else {
            tamper_frames(&mut self.control.frames);
        }
    }

    /// Damage the control run for a read-fault verdict.
    pub(crate) fn damage_control(&mut self) {
        tamper_frames(&mut self.control.frames);
    }
}

/// Flip one bit in the middle frame's middle byte (persistent damage the
/// checksum catches). Returns false when there is nothing to damage.
fn tamper_frames(frames: &mut [Bytes]) -> bool {
    let mid = frames.len() / 2;
    let Some(frame) = frames.get_mut(mid) else {
        return false;
    };
    let mut buf = frame.to_vec();
    let pos = buf.len() / 2;
    match buf.get_mut(pos) {
        Some(b) => *b ^= 0x08,
        None => return false,
    }
    *frame = Bytes::from(buf);
    true
}

fn decode_frames(
    frames: &[Bytes],
    backup_id: u64,
    page: Option<PageId>,
) -> Result<Vec<LogRecord>, BackupError> {
    let mut out = Vec::with_capacity(frames.len());
    for frame in frames {
        // Zero-copy: payloads stay views into the run's shared frames.
        match decode_record_shared(frame) {
            Ok(rec) => out.push(rec),
            // A decode failure past the checksum gate means the frame was
            // damaged in a checksum-colliding way — report it as the same
            // typed corruption, never a panic.
            Err(_) => {
                return Err(BackupError::CorruptArchive { backup_id, page });
            }
        }
    }
    Ok(out)
}

/// Merge per-page runs (and the control run) into one ascending-LSN
/// record sequence with duplicates removed — a multi-page record appears
/// in every written page's run but must replay once.
pub fn merge_runs(runs: Vec<Vec<LogRecord>>) -> Vec<LogRecord> {
    let mut by_lsn: BTreeMap<Lsn, LogRecord> = BTreeMap::new();
    for run in runs {
        for rec in run {
            by_lsn.entry(rec.lsn).or_insert(rec);
        }
    }
    by_lsn.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lob_ops::{LogicalOp, OpBody};
    use lob_wal::RecordBody;

    fn pid(i: u32) -> PageId {
        PageId::new(0, i)
    }

    fn phys(lsn: u64, page: u32) -> LogRecord {
        LogRecord {
            lsn: Lsn(lsn),
            body: RecordBody::Op(OpBody::PhysicalWrite {
                target: pid(page),
                value: Bytes::from(vec![lsn as u8; 8]),
            }),
        }
    }

    fn copy(lsn: u64, src: u32, dst: u32) -> LogRecord {
        LogRecord {
            lsn: Lsn(lsn),
            body: RecordBody::Op(OpBody::Logical(LogicalOp::Copy {
                src: pid(src),
                dst: pid(dst),
            })),
        }
    }

    fn control(lsn: u64) -> LogRecord {
        LogRecord {
            lsn: Lsn(lsn),
            body: RecordBody::BackupBegin {
                backup_id: 1,
                start_lsn: Lsn(lsn),
            },
        }
    }

    /// The records as the log holds them.
    fn frames(records: &[LogRecord]) -> Vec<(Lsn, Bytes)> {
        records
            .iter()
            .map(|r| (r.lsn, lob_wal::encode_record(r)))
            .collect()
    }

    /// One of every record shape the archive partitions, chosen by `x`.
    fn seeded_body(x: u64) -> lob_wal::RecordBody {
        use lob_ops::PhysioOp;
        let page = |k: u64| pid((x >> k) as u32 % 12);
        let bytes = |n: u64| Bytes::from(vec![x as u8; (x >> 40) as usize % n as usize]);
        let op = match x % 11 {
            0 => OpBody::PhysicalWrite {
                target: page(8),
                value: bytes(40),
            },
            1 => OpBody::IdentityWrite {
                target: page(8),
                value: bytes(40),
            },
            2 => OpBody::Physio(PhysioOp::SetBytes {
                target: page(8),
                offset: (x >> 20) as u32 % 16,
                bytes: bytes(9),
            }),
            3 => OpBody::Physio(PhysioOp::InsertRec {
                target: page(8),
                key: bytes(5),
                val: bytes(17),
            }),
            4 => OpBody::Physio(PhysioOp::DeleteRec {
                target: page(8),
                key: bytes(5),
            }),
            5 => OpBody::Logical(LogicalOp::Copy {
                src: page(8),
                dst: page(16),
            }),
            6 => OpBody::Logical(LogicalOp::Mix {
                reads: vec![page(8), page(12)],
                writes: vec![page(16), page(20), page(24)],
                salt: x,
            }),
            7 => OpBody::Logical(LogicalOp::MovRec {
                old: page(8),
                sep: bytes(5),
                new: page(16),
            }),
            8 => OpBody::Logical(LogicalOp::SortExtent {
                src: vec![page(8)],
                dst: vec![page(16), page(20)],
            }),
            9 => {
                return RecordBody::BackupBegin {
                    backup_id: x % 7,
                    start_lsn: Lsn(x % 100),
                }
            }
            _ => return RecordBody::BackupEnd { backup_id: x % 7 },
        };
        RecordBody::Op(op)
    }

    #[test]
    fn the_log_frames_index_exactly_like_re_encoded_records() {
        let mut log = lob_wal::LogManager::in_memory();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..600u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            log.append(seeded_body(x));
            if i == 400 {
                log.force_all().unwrap(); // durable frames, then a volatile tail
            }
        }
        let start = Lsn(37);
        let shared = log.scan(start, |frames| frames.to_vec()).unwrap();
        let mut from_log = LogArchive::new(start);
        // Incremental, overlapping feeds land where one pass would.
        from_log.extend(shared.get(..250).unwrap());
        from_log.extend(&shared);
        let records = log.scan_from(start).unwrap();
        let mut re_encoded = LogArchive::new(start);
        // A decoded record's frame is `encode_record` of it, made on demand.
        re_encoded.extend(&records);
        assert_eq!(from_log.watermark(), Lsn(601));
        assert_eq!(re_encoded.watermark(), Lsn(601));
        assert!(from_log.run_count() >= 12, "every page got a run");
        assert_eq!(
            from_log.runs.keys().collect::<Vec<_>>(),
            re_encoded.runs.keys().collect::<Vec<_>>()
        );
        let pairs = from_log
            .runs
            .values()
            .zip(re_encoded.runs.values())
            .chain([(&from_log.control, &re_encoded.control)]);
        for (a, b) in pairs {
            assert_eq!(a.frames, b.frames);
            assert_eq!(a.sum, b.sum);
            assert!(a.verify());
        }
        assert!(!from_log.control.frames.is_empty());
        // The runs hold the log's own buffers, not copies of them.
        let first = shared.first().map(|(_, f)| f.as_ptr());
        let indexed = from_log
            .runs
            .values()
            .chain([&from_log.control])
            .flat_map(|r| &r.frames)
            .any(|f| Some(f.as_ptr()) == first);
        assert!(indexed);
    }

    #[test]
    fn an_undecodable_frame_surfaces_as_corrupt_control_run() {
        let mut a = LogArchive::new(Lsn(1));
        let mut feed = frames(&[phys(1, 0)]);
        feed.push((Lsn(2), Bytes::from_static(b"\x02\0\0\0\0\0\0\0\xEE")));
        a.extend(&feed);
        assert_eq!(a.watermark(), Lsn(3));
        assert!(a.decode_run(7, pid(0)).is_ok());
        assert!(matches!(
            a.decode_control(7),
            Err(BackupError::CorruptArchive {
                backup_id: 7,
                page: None
            })
        ));
    }

    #[test]
    fn partitions_by_writeset_page_in_lsn_order() {
        let mut a = LogArchive::new(Lsn(1));
        a.extend(&frames(&[
            phys(1, 0),
            copy(2, 0, 1),
            phys(3, 1),
            control(4),
        ]));
        assert_eq!(a.watermark(), Lsn(5));
        let run0 = a.decode_run(7, pid(0)).unwrap();
        assert_eq!(
            run0.iter().map(|r| r.lsn.0).collect::<Vec<_>>(),
            vec![1],
            "page 0's run holds only records that WRITE page 0"
        );
        let run1 = a.decode_run(7, pid(1)).unwrap();
        assert_eq!(run1.iter().map(|r| r.lsn.0).collect::<Vec<_>>(), vec![2, 3]);
        let ctl = a.decode_control(7).unwrap();
        assert_eq!(ctl.len(), 1);
        assert!(a.decode_run(7, pid(9)).unwrap().is_empty());
    }

    #[test]
    fn extend_is_incremental_and_idempotent_below_watermark() {
        let mut a = LogArchive::new(Lsn(1));
        a.extend(&frames(&[phys(1, 0), phys(2, 1)]));
        // Re-feeding the same prefix plus new records indexes only the new.
        a.extend(&frames(&[phys(1, 0), phys(2, 1), phys(3, 0)]));
        let run0 = a.decode_run(7, pid(0)).unwrap();
        assert_eq!(run0.iter().map(|r| r.lsn.0).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(a.watermark(), Lsn(4));
    }

    #[test]
    fn tampered_run_fails_checksum_verification() {
        let mut a = LogArchive::new(Lsn(1));
        a.extend(&frames(&[phys(1, 0), phys(2, 0), phys(3, 1)]));
        assert!(a.tamper_run(pid(0)));
        assert!(matches!(
            a.decode_run(7, pid(0)),
            Err(BackupError::CorruptArchive {
                backup_id: 7,
                page: Some(p)
            }) if p == pid(0)
        ));
        // The sibling run is untouched.
        assert!(a.decode_run(7, pid(1)).is_ok());
    }

    #[test]
    fn merge_runs_dedups_multi_page_records() {
        let rec = copy(5, 0, 1);
        let merged = merge_runs(vec![
            vec![phys(1, 0), rec.clone()],
            vec![rec.clone(), phys(7, 1)],
        ]);
        assert_eq!(
            merged.iter().map(|r| r.lsn.0).collect::<Vec<_>>(),
            vec![1, 5, 7]
        );
    }
}
