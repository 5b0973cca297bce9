//! Durable frame stores backing the log manager.
//!
//! Both stores checksum every frame once, at append. The checksum is FNV-1a
//! folded a machine word at a time — the shape of
//! `lob_pagestore::page::fnv1a` and the archive's `checksum_extend`:
//! starting from the FNV offset basis, each of the LSN word, the frame
//! length, every 8-byte little-endian word of the frame and then each
//! remaining byte is XORed in and multiplied by the FNV prime. Multiplying
//! by the odd prime is a bijection on `u64`, so a change to any single
//! input word always changes the sum: every single-bit flip is caught. A
//! frame whose sum no longer matches ends the trusted prefix — the frames
//! after it are never returned, and a torn file tail is dropped.
//!
//! The two stores differ in when a frame is verified. A file can rot
//! between append and read, so a [`FileLogStore`] scan verifies every frame
//! it reads: from the index entry at or below the truncation point, so a
//! corrupt frame at or above that point still ends it, and
//! [`FileLogStore::open`] runs the rule over the whole file. Only frames
//! below the truncation point, which no scan may return, can go unread.
//! A [`MemLogStore`] sums the immutable [`Bytes`] it stores, so an appended
//! frame is trusted as it lands; only the fault-injection methods that rot
//! a stored frame ([`MemLogStore::corrupt_frame`],
//! [`MemLogStore::flip_bit`]) make a frame untrusted again, and the next
//! scan verifies from the first rotted frame on.

use bytes::Bytes;
use lob_pagestore::Lsn;
use std::borrow::Cow;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::Path;

/// A durable, append-only store of encoded log frames.
///
/// The [`crate::LogManager`] buffers appended records in a volatile tail and
/// moves them here on `force`; everything in the store survives a crash.
pub trait LogStore: Send {
    /// Durably append one encoded frame with its LSN.
    fn append(&mut self, lsn: Lsn, frame: Bytes) -> std::io::Result<()>;

    /// Durably append a batch of encoded frames in LSN order — the group
    /// commit primitive behind [`crate::LogManager::force`]. Implementors
    /// that can amortize the per-append cost (one write + one flush for
    /// the whole batch, as [`FileLogStore`] does) should override the
    /// default one-at-a-time loop.
    ///
    /// Never panics or early-errors the whole batch away: the result
    /// reports how many frames of the prefix became durable, so the
    /// caller's durable-LSN accounting stays exact under partial failure.
    fn append_batch(&mut self, frames: &[(Lsn, Bytes)]) -> BatchAppend {
        for (i, (lsn, frame)) in frames.iter().enumerate() {
            if let Err(e) = self.append(*lsn, frame.clone()) {
                return BatchAppend {
                    appended: i,
                    fsyncs: 0,
                    error: Some(e),
                };
            }
        }
        BatchAppend {
            appended: frames.len(),
            fsyncs: 0,
            error: None,
        }
    }

    /// The trusted durable frames with `lsn >= from`, in LSN order:
    /// borrowed where the store already holds them ([`MemLogStore`]),
    /// owned where a scan has to read them in ([`FileLogStore`]).
    fn frames_from(&self, from: Lsn) -> std::io::Result<Cow<'_, [(Lsn, Bytes)]>>;

    /// Discard frames with `lsn < before` (log truncation).
    fn truncate(&mut self, before: Lsn) -> std::io::Result<()>;

    /// Total bytes of durable frames currently held.
    fn durable_bytes(&self) -> u64;

    /// LSN of the last trusted durable frame ([`Lsn::NULL`] if none) — where
    /// [`crate::LogManager::from_existing`] resumes. The default scans;
    /// [`FileLogStore`] knows it from the pass `open` already made.
    fn durable_lsn(&self) -> std::io::Result<Lsn> {
        Ok(self
            .frames_from(Lsn::NULL)?
            .last()
            .map_or(Lsn::NULL, |(lsn, _)| *lsn))
    }
}

/// Outcome of a [`LogStore::append_batch`]: the durable prefix length and
/// the error (if any) that stopped the batch short.
#[derive(Debug)]
pub struct BatchAppend {
    /// Number of leading frames that became durable.
    pub appended: usize,
    /// `fsync`s issued to make them durable.
    pub fsyncs: u64,
    /// The I/O error that ended the batch, if it did not complete.
    pub error: Option<std::io::Error>,
}

/// In-memory log store used by simulations; "durable" means it survives the
/// simulated crash (which only discards the manager's volatile tail).
///
/// Like [`FileLogStore`], every frame carries a checksum recorded at append
/// time, and a scan stops at the first frame whose stored bytes no longer
/// match — the log is only trusted up to its last good prefix, never
/// skipped over (see [`MemLogStore::corrupt_frame`]).
#[derive(Debug, Default)]
pub struct MemLogStore {
    frames: Vec<(Lsn, Bytes)>,
    /// Checksum of each frame as appended (fault injection may corrupt the
    /// stored bytes afterwards without updating this).
    sums: Vec<u64>,
    bytes: u64,
    /// Frames below this index are trusted. A frame appended behind a
    /// trusted prefix is trusted at once: its sum is taken from the very
    /// immutable bytes stored, so checking it again could only agree, and
    /// recovery's dozens of scans would otherwise re-hash every frame
    /// appended since the last one. Rotting a frame ([`Self::corrupt_frame`],
    /// [`Self::flip_bit`]) rewinds the watermark to it; appends then stay
    /// untrusted until a scan has verified its way up to them.
    verified: std::sync::atomic::AtomicUsize, // lint: atomic(relaxed-counter)
}

impl MemLogStore {
    /// An empty store.
    pub fn new() -> MemLogStore {
        MemLogStore::default()
    }

    /// Number of durable frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the store holds no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Corrupt the stored bytes of the `nth` frame (0-based, in store
    /// order) by flipping one payload bit, leaving its recorded checksum
    /// untouched. Returns the LSN of the damaged frame, or `None` if the
    /// store has fewer frames. Scans will stop just before it.
    pub fn corrupt_frame(&mut self, nth: usize) -> Option<Lsn> {
        self.rot(nth, |buf| {
            let mid = buf.len() / 2;
            match buf.get_mut(mid) {
                Some(b) => *b ^= 0x01,
                None => buf.push(0xFF), // even an empty frame can rot
            }
        })
    }

    /// Flip bit `bit` (0-based, little-endian within each byte) of the
    /// stored bytes of the `nth` frame, leaving its recorded checksum
    /// untouched. Returns the LSN of the damaged frame, or `None` if the
    /// store has fewer frames or the frame has fewer bits.
    pub fn flip_bit(&mut self, nth: usize, bit: usize) -> Option<Lsn> {
        if bit / 8 >= self.frames.get(nth)?.1.len() {
            return None;
        }
        self.rot(nth, |buf| {
            if let Some(b) = buf.get_mut(bit / 8) {
                *b ^= 1u8 << (bit % 8);
            }
        })
    }

    /// Replace the stored bytes of the `nth` frame by `damage` applied to a
    /// copy, and rewind the watermark so the next scan re-verifies the
    /// damaged frame and everything after it.
    fn rot(&mut self, nth: usize, damage: impl FnOnce(&mut Vec<u8>)) -> Option<Lsn> {
        let (lsn, frame) = self.frames.get_mut(nth)?;
        let mut buf = frame.to_vec();
        damage(&mut buf);
        *frame = Bytes::from(buf);
        let watermark = self.verified.get_mut();
        *watermark = (*watermark).min(nth);
        Some(*lsn)
    }
}

impl LogStore for MemLogStore {
    fn append(&mut self, lsn: Lsn, frame: Bytes) -> std::io::Result<()> {
        debug_assert!(self.frames.last().map_or(true, |(l, _)| *l < lsn));
        self.bytes += frame.len() as u64;
        self.sums.push(frame_checksum(lsn, &frame));
        // Trusted at append only behind a trusted prefix: past a rotted
        // frame, the scan that reaches this one verifies it.
        let watermark = self.verified.get_mut();
        if *watermark == self.frames.len() {
            *watermark += 1;
        }
        self.frames.push((lsn, frame));
        Ok(())
    }

    fn frames_from(&self, from: Lsn) -> std::io::Result<Cow<'_, [(Lsn, Bytes)]>> {
        use std::sync::atomic::Ordering;
        // Verify from the watermark: a corrupt interior frame ends the
        // trusted prefix — later frames are unreachable even if intact
        // themselves. Below the watermark every frame is trusted.
        let mut good = self.verified.load(Ordering::Relaxed).min(self.frames.len());
        for ((lsn, frame), sum) in self.frames.iter().zip(&self.sums).skip(good) {
            if frame_checksum(*lsn, frame) != *sum {
                break;
            }
            good += 1;
        }
        self.verified.store(good, Ordering::Relaxed);
        let trusted = self.frames.get(..good).unwrap_or_default();
        let start = trusted.partition_point(|(l, _)| *l < from);
        Ok(Cow::Borrowed(trusted.get(start..).unwrap_or_default()))
    }

    fn truncate(&mut self, before: Lsn) -> std::io::Result<()> {
        let cut = self.frames.partition_point(|(l, _)| *l < before);
        for (_, f) in self.frames.drain(..cut) {
            self.bytes -= f.len() as u64;
        }
        self.sums.drain(..cut);
        let watermark = self.verified.get_mut();
        *watermark = watermark.saturating_sub(cut);
        Ok(())
    }

    fn durable_bytes(&self) -> u64 {
        self.bytes
    }
}

/// Checked little-endian `u32` at `off`; `None` past the end.
fn le_u32(buf: &[u8], off: usize) -> Option<u32> {
    match buf.get(off..off.checked_add(4)?) {
        Some(&[a, b, c, d]) => Some(u32::from_le_bytes([a, b, c, d])),
        _ => None,
    }
}

/// Checked little-endian `u64` at `off`; `None` past the end.
fn le_u64(buf: &[u8], off: usize) -> Option<u64> {
    match buf.get(off..off.checked_add(8)?) {
        Some(&[a, b, c, d, e, f, g, h]) => Some(u64::from_le_bytes([a, b, c, d, e, f, g, h])),
        _ => None,
    }
}

/// The frame checksum of both stores (see the module docs): word-at-a-time
/// FNV-1a over the LSN, the frame length, the frame's 8-byte words and its
/// byte remainder.
fn frame_checksum(lsn: Lsn, frame: &[u8]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let feed = |h: u64, word: u64| (h ^ word).wrapping_mul(PRIME);
    let mut h = feed(0xcbf2_9ce4_8422_2325, lsn.raw());
    h = feed(h, frame.len() as u64);
    let mut words = frame.chunks_exact(8);
    for w in words.by_ref() {
        if let Ok(w) = <[u8; 8]>::try_from(w) {
            h = feed(h, u64::from_le_bytes(w));
        }
    }
    words
        .remainder()
        .iter()
        .fold(h, |h, &b| feed(h, u64::from(b)))
}

/// Bytes of the `[u32 len][u64 checksum][u64 lsn]` header before each frame
/// in a [`FileLogStore`] file.
const HEADER: usize = 20;

/// Bytes of frames between consecutive entries of a [`FileLogStore`]'s scan
/// index — the most a scan reads below the truncation point.
const INDEX_STRIDE: u64 = 64 * 1024;

/// The file header of one frame.
fn frame_header(lsn: Lsn, frame: &[u8]) -> [u8; HEADER] {
    let fields = (frame.len() as u32)
        .to_le_bytes()
        .into_iter()
        .chain(frame_checksum(lsn, frame).to_le_bytes())
        .chain(lsn.raw().to_le_bytes());
    let mut hdr = [0u8; HEADER];
    for (slot, byte) in hdr.iter_mut().zip(fields) {
        *slot = byte;
    }
    hdr
}

/// The trusted frames of `buf`, framed bytes starting at a frame boundary:
/// each frame's LSN and the byte range of its body, in file order. The walk
/// ends at the first torn or checksum-bad frame.
fn trusted_frames(buf: &[u8]) -> impl Iterator<Item = (Lsn, Range<usize>)> + '_ {
    let mut off = 0usize;
    std::iter::from_fn(move || {
        let len = le_u32(buf, off)? as usize;
        let (sum, lsn) = (le_u64(buf, off + 4)?, Lsn(le_u64(buf, off + 12)?));
        let body = off + HEADER..(off + HEADER).checked_add(len)?;
        if frame_checksum(lsn, buf.get(body.clone())?) != sum {
            return None;
        }
        off = body.end;
        Some((lsn, body))
    })
}

/// File-backed log store: frames appended to a single file as
/// `[u32 len][u64 checksum][u64 lsn][frame]`. [`FileLogStore::open`]
/// verifies the whole file once and cuts it at the end of its trusted
/// prefix, so a torn or corrupt tail never sits in front of later appends.
///
/// A sparse in-memory index maps the first LSN of every ≥ 64 KiB stretch
/// of frames to its byte offset. Truncation moves the truncation point and
/// trims the index to the last entry at or below it; a scan seeks to that
/// entry and reads the rest of the file in one read, so it costs the live
/// log, not the file. Truncated frames stay in the file:
/// `lob_core::Engine::open_existing` rebuilds the formatted in-memory
/// database by replaying the whole file, so unlinking them would lose
/// pages on restart until the database itself is persistent.
pub struct FileLogStore {
    file: File,
    /// `(first LSN, byte offset)` of one frame per ≥ [`INDEX_STRIDE`] bytes
    /// of frames, ascending. The first entry is at or below the truncation
    /// point; the index is empty exactly when the file holds no frame.
    index: Vec<(Lsn, u64)>,
    /// Frames below this LSN are never returned.
    truncation: Lsn,
    /// Length of the trusted frames: where the next frame is written.
    bytes: u64,
    /// LSN of the last trusted frame.
    last: Lsn,
    /// When set, every append/batch ends with `fsync` (`File::sync_data`),
    /// so "durable" means *on the platter*, not merely in the OS page
    /// cache. Off by default: the simulation's drills model durability
    /// through the fault hook, and tests should not pay real fsync
    /// latency. Benches measuring group-commit amortization turn this on —
    /// the per-force fsync is exactly the cost a commit group shares.
    sync_on_flush: bool,
}

impl FileLogStore {
    /// Create (truncating any existing file) at `path`.
    pub fn create(path: &Path) -> std::io::Result<FileLogStore> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .read(true)
            .truncate(true)
            .open(path)?;
        Ok(FileLogStore::over(file))
    }

    /// Open an existing log file for scanning and further appends. The
    /// whole file is verified and indexed in one pass and cut at the end of
    /// its trusted prefix, so the next append lands right behind the last
    /// good frame instead of behind a torn one no scan would get past.
    pub fn open(path: &Path) -> std::io::Result<FileLogStore> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let mut store = FileLogStore::over(file);
        for (lsn, body) in trusted_frames(&buf) {
            store.note_frame(lsn, body.len());
        }
        if store.bytes < buf.len() as u64 {
            store.file.set_len(store.bytes)?;
        }
        Ok(store)
    }

    /// An empty store over `file`, which holds no trusted frame yet.
    fn over(file: File) -> FileLogStore {
        FileLogStore {
            file,
            index: Vec::new(),
            truncation: Lsn::NULL,
            bytes: 0,
            last: Lsn::NULL,
            sync_on_flush: false,
        }
    }

    /// Enable or disable fsync-on-append (see [`FileLogStore`] field docs).
    pub fn set_sync(&mut self, on: bool) {
        self.sync_on_flush = on;
    }

    /// Count one frame of `len` body bytes written at the trusted end,
    /// indexing it if it starts a new [`INDEX_STRIDE`].
    fn note_frame(&mut self, lsn: Lsn, len: usize) {
        if self
            .index
            .last()
            .map_or(true, |&(_, at)| self.bytes - at >= INDEX_STRIDE)
        {
            self.index.push((lsn, self.bytes));
        }
        self.bytes += (HEADER + len) as u64;
        self.last = lsn;
    }

    /// Write `parts` at the trusted end and flush (and fsync, if set). A
    /// failed write is cut back off, best effort, so no frame of it
    /// survives past the trusted end into the next `open`; the next write
    /// starts at the trusted end either way.
    fn write_tail(&mut self, parts: &[&[u8]]) -> std::io::Result<()> {
        let end = self.bytes;
        let written = self
            .file
            .seek(SeekFrom::Start(end))
            .and_then(|_| parts.iter().try_for_each(|part| self.file.write_all(part)))
            .and_then(|()| self.file.flush())
            .and_then(|()| {
                if self.sync_on_flush {
                    self.file.sync_data()?;
                }
                Ok(())
            });
        if written.is_err() {
            let _ = self.file.set_len(end);
        }
        written
    }
}

impl LogStore for FileLogStore {
    fn append(&mut self, lsn: Lsn, frame: Bytes) -> std::io::Result<()> {
        self.write_tail(&[&frame_header(lsn, &frame), &frame])?;
        self.note_frame(lsn, frame.len());
        Ok(())
    }

    fn append_batch(&mut self, frames: &[(Lsn, Bytes)]) -> BatchAppend {
        // The group commit: every frame of the force is framed into one
        // arena and hits the file with a single write + flush, instead of
        // a write/write/flush round per frame.
        let total: usize = frames.iter().map(|(_, f)| f.len() + HEADER).sum();
        let mut arena = Vec::with_capacity(total);
        for (lsn, frame) in frames {
            arena.extend_from_slice(&frame_header(*lsn, frame));
            arena.extend_from_slice(frame);
        }
        if let Err(e) = self.write_tail(&[&arena]) {
            // The batch failed as a unit: no frame of it is trusted durable.
            return BatchAppend {
                appended: 0,
                fsyncs: 0,
                error: Some(e),
            };
        }
        for (lsn, frame) in frames {
            self.note_frame(*lsn, frame.len());
        }
        BatchAppend {
            appended: frames.len(),
            fsyncs: u64::from(self.sync_on_flush),
            error: None,
        }
    }

    fn frames_from(&self, from: Lsn) -> std::io::Result<Cow<'_, [(Lsn, Bytes)]>> {
        // Start at the first index entry, at or below the truncation point,
        // and verify every frame from there on.
        let Some(&(_, start)) = self.index.first() else {
            return Ok(Cow::Owned(Vec::new()));
        };
        let mut buf = vec![0u8; (self.bytes - start) as usize];
        let mut file = &self.file;
        file.seek(SeekFrom::Start(start))?;
        file.read_exact(&mut buf)?;
        let keep = from.max(self.truncation);
        let kept: Vec<(Lsn, Range<usize>)> = trusted_frames(&buf)
            .filter(|(lsn, _)| *lsn >= keep)
            .collect();
        let (Some((_, first)), Some((_, last))) = (kept.first(), kept.last()) else {
            return Ok(Cow::Owned(Vec::new()));
        };
        // One buffer shared by every returned frame. The vendored
        // `Bytes::from(Vec)` copies too, so copying just the returned span
        // costs no more and keeps the frames below `from` from being pinned
        // by them.
        let base = first.start;
        let shared = Bytes::copy_from_slice(buf.get(base..last.end).unwrap_or_default());
        Ok(kept
            .into_iter()
            .map(|(lsn, body)| {
                let frame = shared.get(body.start - base..body.end - base);
                (lsn, shared.slice_ref(frame.unwrap_or_default()))
            })
            .collect::<Vec<_>>()
            .into())
    }

    fn truncate(&mut self, before: Lsn) -> std::io::Result<()> {
        self.truncation = self.truncation.max(before);
        let at_or_below = self
            .index
            .partition_point(|(lsn, _)| *lsn <= self.truncation);
        self.index.drain(..at_or_below.saturating_sub(1));
        Ok(())
    }

    fn durable_bytes(&self) -> u64 {
        self.bytes
    }

    fn durable_lsn(&self) -> std::io::Result<Lsn> {
        Ok(self.last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_store_append_scan_truncate() {
        let mut s = MemLogStore::new();
        for i in 1..=5u64 {
            s.append(Lsn(i), Bytes::from(vec![i as u8; 4])).unwrap();
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.durable_bytes(), 20);
        let from3 = s.frames_from(Lsn(3)).unwrap();
        assert_eq!(from3.len(), 3);
        assert_eq!(from3[0].0, Lsn(3));
        s.truncate(Lsn(4)).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.durable_bytes(), 8);
        assert_eq!(s.frames_from(Lsn::NULL).unwrap()[0].0, Lsn(4));
    }

    #[test]
    fn file_store_round_trip() {
        let dir = std::env::temp_dir().join(format!("lob-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log1.wal");
        {
            let mut s = FileLogStore::create(&path).unwrap();
            s.append(Lsn(1), Bytes::from_static(b"one")).unwrap();
            s.append(Lsn(2), Bytes::from_static(b"two")).unwrap();
            let all = s.frames_from(Lsn::NULL).unwrap();
            assert_eq!(all.len(), 2);
            assert_eq!(&all[1].1[..], b"two");
        }
        // Reopen (simulating a restart) and scan again.
        let s = FileLogStore::open(&path).unwrap();
        let all = s.frames_from(Lsn(2)).unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].0, Lsn(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_store_detects_torn_tail() {
        let dir = std::env::temp_dir().join(format!("lob-wal-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log2.wal");
        {
            let mut s = FileLogStore::create(&path).unwrap();
            s.append(Lsn(1), Bytes::from_static(b"good")).unwrap();
            s.append(Lsn(2), Bytes::from_static(b"willtear")).unwrap();
        }
        // Tear the last frame by chopping two bytes off the file.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 2]).unwrap();
        let s = FileLogStore::open(&path).unwrap();
        let all = s.frames_from(Lsn::NULL).unwrap();
        assert_eq!(all.len(), 1, "torn tail frame dropped");
        assert_eq!(all[0].0, Lsn(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_store_detects_corrupt_tail() {
        let dir = std::env::temp_dir().join(format!("lob-wal-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log3.wal");
        {
            let mut s = FileLogStore::create(&path).unwrap();
            s.append(Lsn(1), Bytes::from_static(b"good")).unwrap();
            s.append(Lsn(2), Bytes::from_static(b"flip")).unwrap();
        }
        let mut data = std::fs::read(&path).unwrap();
        let n = data.len();
        data[n - 1] ^= 0xFF; // flip a payload byte of the last frame
        std::fs::write(&path, &data).unwrap();
        let s = FileLogStore::open(&path).unwrap();
        assert_eq!(s.frames_from(Lsn::NULL).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mem_store_corrupt_frame_stops_scan_at_prefix() {
        let mut s = MemLogStore::new();
        for i in 1..=5u64 {
            s.append(Lsn(i), Bytes::from(vec![i as u8; 4])).unwrap();
        }
        // Corrupt frame 3 (LSN 3) mid-stream; frames 4 and 5 stay intact.
        assert_eq!(s.corrupt_frame(2), Some(Lsn(3)));
        let all = s.frames_from(Lsn::NULL).unwrap();
        // The scan must stop at the last good prefix — returning frames
        // 4 and 5 while silently skipping 3 would let recovery replay a
        // history with a hole in it.
        assert_eq!(all.len(), 2);
        assert_eq!(all.last().unwrap().0, Lsn(2));
        // The stop applies regardless of the scan start.
        assert!(s.frames_from(Lsn(4)).unwrap().is_empty());
    }

    #[test]
    fn mem_store_frame_rotted_after_a_scan_is_caught_by_the_next() {
        let mut s = MemLogStore::new();
        for i in 1..=5u64 {
            s.append(Lsn(i), Bytes::from(vec![i as u8; 4])).unwrap();
        }
        // A full scan trusts every frame; then frame 2 rots behind it.
        assert_eq!(lsns(&s.frames_from(Lsn::NULL).unwrap()).len(), 5);
        assert_eq!(s.corrupt_frame(1), Some(Lsn(2)));
        assert_eq!(lsns(&s.frames_from(Lsn::NULL).unwrap()), vec![Lsn(1)]);
        assert!(s.frames_from(Lsn(3)).unwrap().is_empty());
    }

    #[test]
    fn mem_store_appends_behind_a_rotted_frame_stay_untrusted() {
        let mut s = MemLogStore::new();
        for i in 1..=3u64 {
            s.append(Lsn(i), Bytes::from(vec![i as u8; 4])).unwrap();
        }
        assert_eq!(s.corrupt_frame(1), Some(Lsn(2)));
        // Frames appended after the rot are intact themselves, but they sit
        // behind a frame no scan has verified: the prefix still stops at 1.
        for i in 4..=5u64 {
            s.append(Lsn(i), Bytes::from(vec![i as u8; 4])).unwrap();
        }
        assert_eq!(lsns(&s.frames_from(Lsn::NULL).unwrap()), vec![Lsn(1)]);
        assert!(s.frames_from(Lsn(4)).unwrap().is_empty());
    }

    #[test]
    fn file_store_interior_corruption_stops_scan_at_prefix() {
        // Pins the mid-stream (NOT tail) corruption behavior: a checksum-bad
        // interior frame ends the trusted log prefix even though frames
        // after it are individually valid. Recovery must replay `1..=2`,
        // never `1, 2, 4, 5`.
        let dir = std::env::temp_dir().join(format!("lob-wal-midcorrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log5.wal");
        let mut offsets = Vec::new(); // byte offset of each frame's payload
        {
            let mut s = FileLogStore::create(&path).unwrap();
            let mut off = 0u64;
            for i in 1..=5u64 {
                offsets.push(off + 20); // past [len][ck][lsn] header
                s.append(Lsn(i), Bytes::from(vec![i as u8; 8])).unwrap();
                off += 20 + 8;
            }
        }
        let mut data = std::fs::read(&path).unwrap();
        data[offsets[2] as usize] ^= 0x01; // flip a payload bit of frame 3
        std::fs::write(&path, &data).unwrap();
        let s = FileLogStore::open(&path).unwrap();
        let all = s.frames_from(Lsn::NULL).unwrap();
        assert_eq!(all.len(), 2, "scan stops before the corrupt frame");
        assert_eq!(all.last().unwrap().0, Lsn(2));
        assert!(s.frames_from(Lsn(4)).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn lsns(frames: &[(Lsn, Bytes)]) -> Vec<Lsn> {
        frames.iter().map(|(l, _)| *l).collect()
    }

    #[test]
    fn every_single_bit_flip_is_a_prefix_stop_in_both_stores() {
        // Three frames of `len` bytes each; every bit of the middle one is
        // flipped in turn. Lengths 0..=40 cover every sub-word remainder,
        // with zero to five whole words in front of it.
        let dir = std::env::temp_dir().join(format!("lob-wal-bitflip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bitflip.wal");
        for len in 0..=40usize {
            let frames: Vec<(Lsn, Bytes)> = (1..=3u64)
                .map(|i| {
                    let body = (0..len).map(|b| (b as u8).wrapping_mul(31) ^ i as u8);
                    (Lsn(i), Bytes::from(body.collect::<Vec<u8>>()))
                })
                .collect();
            {
                let mut s = FileLogStore::create(&path).unwrap();
                assert_eq!(s.append_batch(&frames).appended, 3);
            }
            let clean = std::fs::read(&path).unwrap();
            // Frame 2 starts after frame 1's 20-byte header and body.
            let frame2 = 20 + len;
            let file_scan = |image: &[u8]| {
                std::fs::write(&path, image).unwrap();
                lsns(
                    &FileLogStore::open(&path)
                        .unwrap()
                        .frames_from(Lsn::NULL)
                        .unwrap(),
                )
            };
            assert_eq!(file_scan(&clean), vec![Lsn(1), Lsn(2), Lsn(3)]);
            for bit in 0..len * 8 {
                let (byte, mask) = (bit / 8, 1u8 << (bit % 8));
                let mut mem = MemLogStore::new();
                assert_eq!(mem.append_batch(&frames).appended, 3);
                assert_eq!(mem.flip_bit(1, bit), Some(Lsn(2)));
                assert_eq!(
                    lsns(&mem.frames_from(Lsn::NULL).unwrap()),
                    vec![Lsn(1)],
                    "mem store, len {len}, bit {bit}"
                );
                let mut image = clean.clone();
                image[frame2 + 20 + byte] ^= mask;
                assert_eq!(
                    file_scan(&image),
                    vec![Lsn(1)],
                    "file store, len {len}, bit {bit}"
                );
            }
            // The header's checksum and LSN words are covered too.
            for bit in 32..160 {
                let mut image = clean.clone();
                image[frame2 + bit / 8] ^= 1u8 << (bit % 8);
                assert_eq!(
                    file_scan(&image),
                    vec![Lsn(1)],
                    "file header, len {len}, bit {bit}"
                );
            }
            // Even an empty frame can rot: `corrupt_frame` grows it.
            let mut mem = MemLogStore::new();
            mem.append_batch(&frames);
            assert_eq!(mem.corrupt_frame(1), Some(Lsn(2)));
            assert_eq!(lsns(&mem.frames_from(Lsn::NULL).unwrap()), vec![Lsn(1)]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mem_store_append_batch_matches_loop() {
        let mut s = MemLogStore::new();
        s.append(Lsn(1), Bytes::from_static(b"one")).unwrap();
        let batch: Vec<(Lsn, Bytes)> = (2..=4u64)
            .map(|i| (Lsn(i), Bytes::from(vec![i as u8; 4])))
            .collect();
        let r = s.append_batch(&batch);
        assert_eq!(r.appended, 3);
        assert!(r.error.is_none());
        let all = s.frames_from(Lsn::NULL).unwrap();
        assert_eq!(all.len(), 4);
        assert_eq!(all.last().unwrap().0, Lsn(4));
        assert_eq!(s.durable_bytes(), 3 + 12);
    }

    #[test]
    fn file_store_append_batch_interops_with_single_appends() {
        let dir = std::env::temp_dir().join(format!("lob-wal-batch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log6.wal");
        {
            let mut s = FileLogStore::create(&path).unwrap();
            s.append(Lsn(1), Bytes::from_static(b"solo")).unwrap();
            let batch = vec![
                (Lsn(2), Bytes::from_static(b"grouped")),
                (Lsn(3), Bytes::from_static(b"together")),
            ];
            let r = s.append_batch(&batch);
            assert_eq!(r.appended, 2);
            assert!(r.error.is_none());
            s.append(Lsn(4), Bytes::from_static(b"after")).unwrap();
        }
        // A restart scan sees one seamless frame sequence: the arena
        // framing is byte-identical to per-frame appends.
        let s = FileLogStore::open(&path).unwrap();
        let all = s.frames_from(Lsn::NULL).unwrap();
        assert_eq!(all.len(), 4);
        assert_eq!(&all[1].1[..], b"grouped");
        assert_eq!(&all[3].1[..], b"after");
        // An empty batch is a no-op.
        let mut s = FileLogStore::open(&path).unwrap();
        let before = s.durable_bytes();
        let r = s.append_batch(&[]);
        assert_eq!(r.appended, 0);
        assert!(r.error.is_none());
        assert_eq!(s.durable_bytes(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_after_reopening_a_torn_tail_is_scanned() {
        let dir = std::env::temp_dir().join(format!("lob-wal-retorn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("retorn.wal");
        {
            let mut s = FileLogStore::create(&path).unwrap();
            s.append(Lsn(1), Bytes::from_static(b"good")).unwrap();
            s.append(Lsn(2), Bytes::from_static(b"willtear")).unwrap();
        }
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 2]).unwrap();
        let mut s = FileLogStore::open(&path).unwrap();
        assert_eq!(s.durable_lsn().unwrap(), Lsn(1));
        // LSN 2 never became durable, so it is appended again — and must
        // land right behind LSN 1, not behind the torn bytes.
        s.append(Lsn(2), Bytes::from_static(b"again")).unwrap();
        for s in [s, FileLogStore::open(&path).unwrap()] {
            let all = s.frames_from(Lsn::NULL).unwrap();
            assert_eq!(lsns(&all), vec![Lsn(1), Lsn(2)]);
            assert_eq!(&all[1].1[..], b"again");
            assert_eq!(s.durable_bytes(), (2 * HEADER + 4 + 5) as u64);
        }
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            (2 * HEADER + 4 + 5) as u64
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The scan before the index, kept as the differential oracle: read the
    /// whole file from offset 0, verify every frame from the front, and
    /// copy out each one at or above `max(from, truncation)`.
    fn reference_scan(path: &Path, from: Lsn, truncation: Lsn) -> Vec<(Lsn, Bytes)> {
        let buf = std::fs::read(path).unwrap();
        let mut out = Vec::new();
        let mut off = 0usize;
        // A torn header at the tail ends the scan.
        while let (Some(len), Some(ck), Some(raw)) = (
            le_u32(&buf, off),
            le_u64(&buf, off + 4),
            le_u64(&buf, off + 12),
        ) {
            let lsn = Lsn(raw);
            let body_start = off + 20;
            let Some(frame) = buf.get(body_start..body_start + len as usize) else {
                break; // torn tail
            };
            if frame_checksum(lsn, frame) != ck {
                break; // corrupt tail
            }
            if lsn >= from && lsn >= truncation {
                out.push((lsn, Bytes::copy_from_slice(frame)));
            }
            off = body_start + len as usize;
        }
        out
    }

    fn random_frame(rng: &mut rand::rngs::SmallRng, max_len: usize) -> Bytes {
        use rand::Rng;
        let len = rng.gen_range(0..=max_len);
        Bytes::from((0..len).map(|_| rng.gen::<u8>()).collect::<Vec<u8>>())
    }

    #[test]
    fn indexed_scan_matches_the_whole_file_reference() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let dir = std::env::temp_dir().join(format!("lob-wal-diff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("diff.wal");
        let (mut scans, mut skipping_scans) = (0u32, 0u32);
        for seed in 0..16u64 {
            let mut rng = SmallRng::seed_from_u64(0x5CA7 ^ seed);
            let mut store = FileLogStore::create(&path).unwrap();
            // LSNs rise with gaps, as a crash-lost tail leaves them.
            let mut next = 1u64;
            let mut truncation = Lsn::NULL;
            for step in 0..60 {
                match rng.gen_range(0..10u32) {
                    0..=2 => {
                        let frame = random_frame(&mut rng, 2000);
                        store.append(Lsn(next), frame).unwrap();
                        next += rng.gen_range(1..=3u64);
                    }
                    3..=5 => {
                        let n = rng.gen_range(1..=64usize);
                        let batch: Vec<(Lsn, Bytes)> = (0..n)
                            .map(|_| {
                                let lsn = Lsn(next);
                                next += rng.gen_range(1..=3u64);
                                (lsn, random_frame(&mut rng, 2000))
                            })
                            .collect();
                        let r = store.append_batch(&batch);
                        assert!(r.error.is_none() && r.appended == n);
                    }
                    6 => {
                        let to = Lsn(rng.gen_range(truncation.raw()..=next));
                        store.truncate(to).unwrap();
                        truncation = truncation.max(to);
                    }
                    7 => {
                        // A restart forgets the truncation point.
                        drop(store);
                        store = FileLogStore::open(&path).unwrap();
                        truncation = Lsn::NULL;
                    }
                    _ => {
                        let from = Lsn(rng.gen_range(truncation.raw()..=next + 1));
                        let got = store.frames_from(from).unwrap();
                        let want = reference_scan(&path, from, truncation);
                        assert!(
                            got == want,
                            "seed {seed} step {step}: scan from {from:?} (truncation \
                             {truncation:?}) returned {:?}, reference {:?}",
                            lsns(&got),
                            lsns(&want)
                        );
                        scans += 1;
                        if store.index.first().is_some_and(|&(_, at)| at > 0) {
                            skipping_scans += 1;
                        }
                    }
                }
                let all = reference_scan(&path, Lsn::NULL, Lsn::NULL);
                let last = all.last().map_or(Lsn::NULL, |(lsn, _)| *lsn);
                assert_eq!(
                    store.durable_lsn().unwrap(),
                    last,
                    "seed {seed} step {step}"
                );
                assert_eq!(
                    store.durable_bytes(),
                    std::fs::metadata(&path).unwrap().len(),
                    "seed {seed} step {step}"
                );
            }
        }
        assert!(scans >= 100, "{scans} scans");
        assert!(
            skipping_scans >= scans / 4,
            "only {skipping_scans} of {scans} scans started past the file's first frame"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn live_corruption_stops_a_scan_only_where_the_scan_reads() {
        use std::io::{Seek, SeekFrom, Write};
        let dir = std::env::temp_dir().join(format!("lob-wal-live-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live.wal");
        // 200 frames of 1000 bytes: index entries every 65th frame.
        let frames: Vec<(Lsn, Bytes)> = (1..=200u64)
            .map(|i| (Lsn(i), Bytes::from(vec![i as u8; 1000])))
            .collect();
        let mut s = FileLogStore::create(&path).unwrap();
        for chunk in frames.chunks(25) {
            assert_eq!(s.append_batch(chunk).appended, chunk.len());
        }
        let body = |lsn: u64| (lsn - 1) * (HEADER as u64 + 1000) + HEADER as u64;
        let flip = |lsn: u64| {
            let mut f = OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .unwrap();
            let at = body(lsn) + 500;
            let mut byte = [0u8];
            f.seek(SeekFrom::Start(at)).unwrap();
            f.read_exact(&mut byte).unwrap();
            f.seek(SeekFrom::Start(at)).unwrap();
            f.write_all(&[byte[0] ^ 0x10]).unwrap();
        };
        let live = |from: u64, to: u64| -> Vec<Lsn> { (from..=to).map(Lsn).collect() };
        s.truncate(Lsn(150)).unwrap();
        let start = s.index[0];
        assert!(start.0 < Lsn(150) && start.1 > body(10), "{start:?}");

        // Below the scan's start entry: never read, so the live log scans
        // in full — where the whole-file scan returned nothing.
        flip(10);
        assert_eq!(lsns(&s.frames_from(Lsn(150)).unwrap()), live(150, 200));
        assert!(reference_scan(&path, Lsn(150), Lsn(150)).is_empty());
        flip(10);

        // At or above the truncation point: the scan stops there, exactly
        // as the whole-file scan does.
        flip(170);
        assert_eq!(lsns(&s.frames_from(Lsn(150)).unwrap()), live(150, 169));
        assert_eq!(
            s.frames_from(Lsn(160)).unwrap(),
            reference_scan(&path, Lsn(160), Lsn(150))
        );
        assert!(s.frames_from(Lsn(171)).unwrap().is_empty());
        flip(170);

        // Between the start entry and the truncation point: read, so
        // verified, so a stop.
        let read_below = start.0.raw() + 1;
        flip(read_below);
        assert!(s.frames_from(Lsn(150)).unwrap().is_empty());
        flip(read_below);
        assert_eq!(lsns(&s.frames_from(Lsn(150)).unwrap()), live(150, 200));

        // A restart verifies the whole file again and cuts it at the first
        // bad frame, wherever it lies.
        flip(10);
        drop(s);
        let s = FileLogStore::open(&path).unwrap();
        assert_eq!(lsns(&s.frames_from(Lsn::NULL).unwrap()), live(1, 9));
        assert_eq!(s.durable_lsn().unwrap(), Lsn(9));
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            body(10) - HEADER as u64
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_store_logical_truncation() {
        let dir = std::env::temp_dir().join(format!("lob-wal-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log4.wal");
        let mut s = FileLogStore::create(&path).unwrap();
        for i in 1..=4u64 {
            s.append(Lsn(i), Bytes::from_static(b"x")).unwrap();
        }
        s.truncate(Lsn(3)).unwrap();
        let all = s.frames_from(Lsn::NULL).unwrap();
        assert_eq!(all.first().unwrap().0, Lsn(3));
        std::fs::remove_dir_all(&dir).ok();
    }
}
