//! The log manager: append / force / scan / truncate.

use crate::codec::{decode_record_shared, encode_record, CodecError};
use crate::record::{LogRecord, RecordBody};
use crate::stats::LogStats;
use crate::store::{LogStore, MemLogStore};
use bytes::Bytes;
use lob_pagestore::fault::{is_injected_crash_io_error, FaultHook, FaultVerdict, IoEvent};
use lob_pagestore::Lsn;
use std::fmt;

/// Errors from log operations.
#[derive(Debug)]
pub enum LogError {
    /// Underlying store I/O failure.
    Io(std::io::Error),
    /// A durable frame failed to decode (corruption past the tail — should
    /// never happen; torn tails are handled by the store).
    Codec(CodecError),
    /// Attempted to scan from an LSN that has been truncated away.
    Truncated {
        /// Requested scan start.
        requested: Lsn,
        /// Current truncation point.
        truncation: Lsn,
    },
    /// A transient I/O error failed this log scan attempt only; the durable
    /// frames are intact and a retry may succeed.
    Transient,
    /// The fault hook simulated a process crash during a log force or
    /// truncation; frames not yet persisted stay in the volatile tail (lost
    /// at crash), and an interrupted truncation leaves the point unmoved.
    InjectedCrash,
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "log I/O error: {e}"),
            LogError::Codec(e) => write!(f, "log decode error: {e}"),
            LogError::Truncated {
                requested,
                truncation,
            } => write!(f, "scan from {requested} but log truncated to {truncation}"),
            LogError::Transient => write!(f, "transient I/O error reading the log"),
            LogError::InjectedCrash => write!(f, "injected crash during log force (fault hook)"),
        }
    }
}

impl std::error::Error for LogError {}

impl From<std::io::Error> for LogError {
    fn from(e: std::io::Error) -> Self {
        LogError::Io(e)
    }
}

impl From<CodecError> for LogError {
    fn from(e: CodecError) -> Self {
        LogError::Codec(e)
    }
}

/// The log manager.
///
/// Appends are **volatile** until forced: [`LogManager::crash`] discards the
/// unforced tail, which is how the test harness verifies that the engine
/// obeys the write-ahead-log protocol (force the log up to an operation's
/// LSN before flushing any page that operation wrote).
///
/// Truncation models recovery checkpointing: records below the truncation
/// point are discarded. A **media barrier** (paper §3.2: identity-write
/// records "permit the truncation of the log in the same way that flushing
/// does" — but records an active backup's roll-forward will need must be
/// retained) caps how far truncation may advance.
pub struct LogManager {
    store: Box<dyn LogStore>,
    /// The volatile tail is `tail[head..]`, in LSN order. A force moves
    /// `head` past what it persisted instead of shifting the rest down; the
    /// consumed prefix is dropped once it is at least as long as what is
    /// left, so each frame is moved at most once and a force costs
    /// O(frames forced), amortized, whatever the tail length.
    tail: Vec<(Lsn, Bytes)>,
    head: usize,
    next: Lsn,
    durable: Lsn,
    truncation: Lsn,
    media_barrier: Option<Lsn>,
    stats: LogStats,
    /// Optional fault hook: consulted once per force that has frames to
    /// persist ([`IoEvent::LogForce`]), once per frame appended to the
    /// durable store ([`IoEvent::LogAppend`]), and once per effective
    /// truncation-point advance ([`IoEvent::LogTruncate`]).
    hook: Option<FaultHook>,
}

impl LogManager {
    /// A log manager over the given durable store.
    pub fn new(store: Box<dyn LogStore>) -> LogManager {
        LogManager {
            store,
            tail: Vec::new(),
            head: 0,
            next: Lsn::FIRST,
            durable: Lsn::NULL,
            truncation: Lsn::NULL,
            media_barrier: None,
            stats: LogStats::new(),
            hook: None,
        }
    }

    /// A log manager over a fresh in-memory store.
    pub fn in_memory() -> LogManager {
        LogManager::new(Box::new(MemLogStore::new()))
    }

    /// A log manager resuming over an existing durable store (e.g. a log
    /// file surviving a process restart): the durable LSN and the LSN
    /// counter resume from the store's last trusted frame
    /// ([`LogStore::durable_lsn`]).
    pub fn from_existing(store: Box<dyn LogStore>) -> Result<LogManager, LogError> {
        let durable = store.durable_lsn()?;
        Ok(LogManager {
            store,
            tail: Vec::new(),
            head: 0,
            next: durable.next().max(Lsn::FIRST),
            durable,
            truncation: Lsn::NULL,
            media_barrier: None,
            stats: LogStats::new(),
            hook: None,
        })
    }

    /// Append a record; returns its LSN. The record is volatile until
    /// [`force`](Self::force)d.
    pub fn append(&mut self, body: RecordBody) -> Lsn {
        let lsn = self.next;
        self.next = self.next.next();
        let rec = LogRecord::new(lsn, body);
        let frame = encode_record(&rec);
        self.stats.record(rec.body.label(), frame.len());
        self.tail.push((lsn, frame));
        lsn
    }

    /// Install (or clear) the fault hook.
    pub fn set_fault_hook(&mut self, hook: Option<FaultHook>) {
        self.hook = hook;
    }

    fn consult(&self, ev: IoEvent) -> FaultVerdict {
        match &self.hook {
            Some(h) => h(ev, None),
            None => FaultVerdict::Proceed,
        }
    }

    /// The appended-but-unforced frames, LSN order.
    fn pending(&self) -> &[(Lsn, Bytes)] {
        self.tail.get(self.head..).unwrap_or_default()
    }

    /// Drop the first `n` pending frames (they are durable now).
    fn consume(&mut self, n: usize) {
        self.head += n;
        if self.head >= self.tail.len() {
            self.tail.clear();
            self.head = 0;
        } else if 2 * self.head >= self.tail.len() {
            self.tail.drain(..self.head);
            self.head = 0;
        }
    }

    /// Durably persist all appended records with `lsn <= upto` — as a
    /// **group force**: every frame that passes the fault gate is handed to
    /// the store in one [`LogStore::append_batch`] call, so a file-backed
    /// store pays a single write + flush for the whole force instead of a
    /// round per frame.
    ///
    /// With a fault hook installed, the force may crash before any frame is
    /// persisted (verdict at [`IoEvent::LogForce`]) or between frames
    /// (verdict at [`IoEvent::LogAppend`], consulted once per frame in LSN
    /// order before the batch is issued). Frames gated before the crash
    /// point become durable; the rest remain in the volatile tail and are
    /// lost when the crash is completed with [`LogManager::crash`] —
    /// exactly the "lost unforced tail" a real power failure produces.
    pub fn force(&mut self, upto: Lsn) -> Result<(), LogError> {
        // Ordering witness: every force generates `LogForce`, including an
        // empty-tail force — the caller's durability point is established
        // either way. The single probe here covers every engine force
        // site (`force_all` funnels through this method).
        lob_pagestore::witness::io_order("LogForce");
        let n = self.pending().partition_point(|(l, _)| *l <= upto);
        if n == 0 {
            return Ok(());
        }
        match self.consult(IoEvent::LogForce) {
            FaultVerdict::Crash | FaultVerdict::TornWrite => return Err(LogError::InjectedCrash),
            _ => {}
        }
        // Gate each frame through the hook first; the passing prefix is
        // the batch. A torn frame append never becomes durable (the
        // store's frame checksum rejects it on scan), so gating a frame
        // out is equivalent to it — and everything after it — simply not
        // reaching the disk.
        let mut gate = 0usize;
        let mut outcome = Ok(());
        while gate < n {
            match self.consult(IoEvent::LogAppend) {
                FaultVerdict::Crash | FaultVerdict::TornWrite => {
                    outcome = Err(LogError::InjectedCrash);
                    break;
                }
                _ => {}
            }
            gate += 1;
        }
        // Field-wise borrow of the pending frames (the store is borrowed
        // mutably beside it).
        let pending = self.tail.get(self.head..).unwrap_or_default();
        let batch = self
            .store
            .append_batch(pending.get(..gate).unwrap_or_default());
        let appended = batch.appended.min(gate);
        if let Some((lsn, _)) = appended.checked_sub(1).and_then(|i| pending.get(i)) {
            self.durable = *lsn;
        }
        if let Some(e) = batch.error {
            // A store-level failure outranks a gate crash: it is the error
            // that actually bounded the durable prefix.
            outcome = Err(if is_injected_crash_io_error(&e) {
                LogError::InjectedCrash
            } else {
                LogError::Io(e)
            });
        }
        self.stats.record_force(appended as u64);
        self.stats.fsyncs += batch.fsyncs;
        self.consume(appended);
        outcome
    }

    /// Durably persist every appended record.
    pub fn force_all(&mut self) -> Result<(), LogError> {
        self.force(Lsn::MAX)
    }

    /// LSN of the last durable record.
    pub fn durable_lsn(&self) -> Lsn {
        self.durable
    }

    /// LSN the next appended record will receive.
    pub fn next_lsn(&self) -> Lsn {
        self.next
    }

    /// Simulate a crash: the unforced tail is lost. The LSN counter is
    /// *not* rewound — recovery continues with fresh LSNs above every LSN
    /// ever issued, preserving LSN monotonicity across the crash.
    pub fn crash(&mut self) {
        self.tail.clear();
        self.head = 0;
    }

    /// Number of appended-but-unforced records.
    pub fn unforced(&self) -> usize {
        self.pending().len()
    }

    /// Hand every trusted frame with `lsn >= from` to `f`, borrowed where
    /// the log holds it: the durable frames first, then the volatile tail
    /// (each frame is [`encode_record`] of its record). Nothing is copied
    /// on the in-memory store; a caller that needs the frames past the
    /// call clones them inside `f` ([`ScanFrames::to_vec`]).
    ///
    /// With a fault hook installed, [`IoEvent::LogRead`] is consulted once
    /// per scan before any frame is read: a crash verdict kills the
    /// process at this read, a transient verdict fails the attempt only
    /// (durable frames intact — a retry succeeds). Damage verdicts are
    /// meaningless here (frame corruption is injected at the store level,
    /// see `MemLogStore::corrupt_frame`) and proceed.
    pub fn scan<R>(&self, from: Lsn, f: impl FnOnce(ScanFrames<'_>) -> R) -> Result<R, LogError> {
        if from < self.truncation {
            return Err(LogError::Truncated {
                requested: from,
                truncation: self.truncation,
            });
        }
        match self.consult(IoEvent::LogRead) {
            FaultVerdict::Crash => return Err(LogError::InjectedCrash),
            FaultVerdict::TransientRead => return Err(LogError::Transient),
            _ => {}
        }
        let durable = self.store.frames_from(from)?;
        let pending = self.pending();
        let start = pending.partition_point(|(l, _)| *l < from);
        Ok(f(ScanFrames {
            durable: &durable,
            tail: pending.get(start..).unwrap_or_default(),
        }))
    }

    /// All records with `lsn >= from` (durable first, then the volatile
    /// tail), decoded zero-copy over one [`LogManager::scan`] — so one
    /// scan is one [`IoEvent::LogRead`] consult, with the same verdicts.
    pub fn scan_from(&self, from: Lsn) -> Result<Vec<LogRecord>, LogError> {
        self.scan(from, |frames| {
            frames
                .iter()
                .map(|(_, frame)| Ok(decode_record_shared(frame)?))
                .collect()
        })?
    }

    /// Pin the log from `lsn` onward for media recovery; `None` releases the
    /// barrier (no backup exists whose roll-forward could need old records).
    pub fn set_media_barrier(&mut self, barrier: Option<Lsn>) {
        self.media_barrier = barrier;
    }

    /// Current media barrier.
    pub fn media_barrier(&self) -> Option<Lsn> {
        self.media_barrier
    }

    /// Advance the truncation point toward `before`, clamped so that records
    /// at or above the media barrier are retained. Returns the effective new
    /// truncation point.
    ///
    /// With a fault hook installed, [`IoEvent::LogTruncate`] is consulted
    /// before the point moves: a crash verdict leaves the truncation point
    /// *and* the store untouched, so a restart simply re-truncates — log
    /// truncation is a write-side I/O like any other (this site was the
    /// coverage gap `lob-lint`'s fault-hook pass was built to catch).
    pub fn truncate(&mut self, before: Lsn) -> Result<Lsn, LogError> {
        let effective = match self.media_barrier {
            Some(b) => before.min(b),
            None => before,
        };
        if effective > self.truncation {
            match self.consult(IoEvent::LogTruncate) {
                FaultVerdict::Crash | FaultVerdict::TornWrite => {
                    return Err(LogError::InjectedCrash)
                }
                _ => {}
            }
            self.truncation = effective;
            self.store.truncate(effective)?;
        }
        Ok(self.truncation)
    }

    /// Current truncation point (records below it are gone).
    pub fn truncation(&self) -> Lsn {
        self.truncation
    }

    /// Logging statistics (includes volatile appends).
    pub fn stats(&self) -> &LogStats {
        &self.stats
    }

    /// Bytes held by the durable store.
    pub fn durable_bytes(&self) -> u64 {
        self.store.durable_bytes()
    }
}

/// The trusted frames of one [`LogManager::scan`], borrowed where the log
/// holds them: the durable frames, then the volatile tail, in LSN order.
#[derive(Clone, Copy, Debug)]
pub struct ScanFrames<'a> {
    durable: &'a [(Lsn, Bytes)],
    tail: &'a [(Lsn, Bytes)],
}

impl<'a> ScanFrames<'a> {
    /// Every frame in LSN order.
    pub fn iter(&self) -> impl Iterator<Item = &'a (Lsn, Bytes)> {
        self.durable.iter().chain(self.tail)
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.durable.len() + self.tail.len()
    }

    /// Whether the scan found no frame.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The frames as owned handles (one reference taken per frame), for a
    /// caller that must use them after the scan returns.
    pub fn to_vec(&self) -> Vec<(Lsn, Bytes)> {
        self.iter().cloned().collect()
    }
}

impl fmt::Debug for LogManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LogManager{{next={:?}, durable={:?}, trunc={:?}, tail={}}}",
            self.next,
            self.durable,
            self.truncation,
            self.unforced()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use lob_ops::OpBody;
    use lob_pagestore::PageId;

    fn phys(i: u32) -> RecordBody {
        RecordBody::Op(OpBody::PhysicalWrite {
            target: PageId::new(0, i),
            value: Bytes::from_static(b"v"),
        })
    }

    #[test]
    fn lsns_are_sequential() {
        let mut log = LogManager::in_memory();
        assert_eq!(log.append(phys(0)), Lsn(1));
        assert_eq!(log.append(phys(1)), Lsn(2));
        assert_eq!(log.next_lsn(), Lsn(3));
    }

    #[test]
    fn crash_loses_unforced_tail_only() {
        let mut log = LogManager::in_memory();
        log.append(phys(0));
        log.append(phys(1));
        log.force(Lsn(1)).unwrap();
        log.append(phys(2));
        assert_eq!(log.unforced(), 2);
        log.crash();
        let recs = log.scan_from(Lsn::NULL).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].lsn, Lsn(1));
        assert_eq!(log.durable_lsn(), Lsn(1));
        // LSNs continue above everything ever issued.
        assert_eq!(log.append(phys(3)), Lsn(4));
    }

    #[test]
    fn scan_sees_volatile_tail_before_crash() {
        let mut log = LogManager::in_memory();
        log.append(phys(0));
        log.append(phys(1));
        assert_eq!(log.scan_from(Lsn::NULL).unwrap().len(), 2);
        assert_eq!(log.scan_from(Lsn(2)).unwrap().len(), 1);
    }

    #[test]
    fn force_all_then_scan() {
        let mut log = LogManager::in_memory();
        for i in 0..5 {
            log.append(phys(i));
        }
        log.force_all().unwrap();
        assert_eq!(log.durable_lsn(), Lsn(5));
        assert_eq!(log.unforced(), 0);
        assert_eq!(log.scan_from(Lsn(3)).unwrap().len(), 3);
    }

    #[test]
    fn truncation_respects_media_barrier() {
        let mut log = LogManager::in_memory();
        for i in 0..6 {
            log.append(phys(i));
        }
        log.force_all().unwrap();
        log.set_media_barrier(Some(Lsn(3)));
        assert_eq!(log.truncate(Lsn(5)).unwrap(), Lsn(3));
        // Records 3.. survive.
        assert_eq!(log.scan_from(Lsn(3)).unwrap().len(), 4);
        // Releasing the barrier lets truncation proceed.
        log.set_media_barrier(None);
        assert_eq!(log.truncate(Lsn(5)).unwrap(), Lsn(5));
        assert_eq!(log.scan_from(Lsn(5)).unwrap().len(), 2);
    }

    #[test]
    fn scan_below_truncation_errors() {
        let mut log = LogManager::in_memory();
        for i in 0..3 {
            log.append(phys(i));
        }
        log.force_all().unwrap();
        log.truncate(Lsn(2)).unwrap();
        assert!(matches!(
            log.scan_from(Lsn(1)),
            Err(LogError::Truncated { .. })
        ));
        assert!(log.scan_from(Lsn(2)).is_ok());
    }

    #[test]
    fn truncation_never_regresses() {
        let mut log = LogManager::in_memory();
        for i in 0..4 {
            log.append(phys(i));
        }
        log.force_all().unwrap();
        log.truncate(Lsn(3)).unwrap();
        assert_eq!(log.truncate(Lsn(2)).unwrap(), Lsn(3));
    }

    #[test]
    fn injected_force_crash_loses_exactly_the_unpersisted_tail() {
        use lob_pagestore::fault::{FaultVerdict, IoEvent};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let mut log = LogManager::in_memory();
        for i in 0..4 {
            log.append(phys(i));
        }
        // Crash at the third LogAppend: two frames become durable.
        let appends = AtomicU64::new(0);
        log.set_fault_hook(Some(Arc::new(move |ev, _| {
            if ev == IoEvent::LogAppend && appends.fetch_add(1, Ordering::Relaxed) == 2 {
                FaultVerdict::Crash
            } else {
                FaultVerdict::Proceed
            }
        })));
        assert!(matches!(log.force_all(), Err(LogError::InjectedCrash)));
        log.set_fault_hook(None);
        assert_eq!(log.durable_lsn(), Lsn(2));
        assert_eq!(log.unforced(), 2);
        log.crash();
        let recs = log.scan_from(Lsn::NULL).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs.last().unwrap().lsn, Lsn(2));
    }

    #[test]
    fn injected_crash_at_force_event_persists_nothing() {
        use lob_pagestore::fault::{FaultVerdict, IoEvent};
        use std::sync::Arc;

        let mut log = LogManager::in_memory();
        log.append(phys(0));
        log.set_fault_hook(Some(Arc::new(|ev, _| {
            if ev == IoEvent::LogForce {
                FaultVerdict::Crash
            } else {
                FaultVerdict::Proceed
            }
        })));
        assert!(matches!(log.force_all(), Err(LogError::InjectedCrash)));
        assert_eq!(log.durable_lsn(), Lsn::NULL);
        assert_eq!(log.unforced(), 1);
        // An empty force doesn't even reach the hook.
        let mut empty = LogManager::in_memory();
        empty.set_fault_hook(Some(Arc::new(|_, _| FaultVerdict::Crash)));
        assert!(empty.force_all().is_ok());
    }

    #[test]
    fn scan_consults_log_read_event() {
        use lob_pagestore::fault::{FaultVerdict, IoEvent};
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let mut log = LogManager::in_memory();
        log.append(phys(0));
        log.force_all().unwrap();
        // First scan draws a transient error; the retry succeeds with the
        // frames intact.
        let fired = AtomicBool::new(false);
        log.set_fault_hook(Some(Arc::new(move |ev, _| {
            if ev == IoEvent::LogRead && !fired.swap(true, Ordering::Relaxed) {
                FaultVerdict::TransientRead
            } else {
                FaultVerdict::Proceed
            }
        })));
        assert!(matches!(log.scan_from(Lsn::NULL), Err(LogError::Transient)));
        assert_eq!(log.scan_from(Lsn::NULL).unwrap().len(), 1);
        // A crash verdict at the scan unwinds as an injected crash.
        log.set_fault_hook(Some(Arc::new(|ev, _| {
            if ev == IoEvent::LogRead {
                FaultVerdict::Crash
            } else {
                FaultVerdict::Proceed
            }
        })));
        assert!(matches!(
            log.scan_from(Lsn::NULL),
            Err(LogError::InjectedCrash)
        ));
    }

    #[test]
    fn scan_and_scan_from_share_one_log_read_each() {
        use lob_pagestore::fault::{FaultVerdict, IoEvent};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let mut log = LogManager::in_memory();
        for i in 0..6 {
            log.append(phys(i));
        }
        log.force(Lsn(4)).unwrap();
        // LSNs 1..=4 durable, 5..=6 volatile.
        let reads = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&reads);
        log.set_fault_hook(Some(Arc::new(move |ev, _| {
            if ev == IoEvent::LogRead {
                seen.fetch_add(1, Ordering::Relaxed);
            }
            FaultVerdict::Proceed
        })));
        for from in [Lsn::NULL, Lsn(3), Lsn(5), Lsn(6), Lsn(7)] {
            let before = reads.load(Ordering::Relaxed);
            let frames = log.scan(from, |frames| frames.to_vec()).unwrap();
            assert_eq!(reads.load(Ordering::Relaxed), before + 1);
            let records = log.scan_from(from).unwrap();
            assert_eq!(reads.load(Ordering::Relaxed), before + 2);
            let want: Vec<Lsn> = (1..=6).map(Lsn).filter(|l| *l >= from).collect();
            assert_eq!(frames.iter().map(|(l, _)| *l).collect::<Vec<_>>(), want);
            assert_eq!(records.iter().map(|r| r.lsn).collect::<Vec<_>>(), want);
            // The frame is the record's encoding, byte for byte.
            for ((_, frame), rec) in frames.iter().zip(&records) {
                assert_eq!(frame, &encode_record(rec));
            }
        }
        log.truncate(Lsn(3)).unwrap();
        let before = reads.load(Ordering::Relaxed);
        for from in [Lsn::NULL, Lsn(2)] {
            let mut called = false;
            assert!(matches!(
                log.scan(from, |_| called = true),
                Err(LogError::Truncated { .. })
            ));
            assert!(!called, "a refused scan hands out no frame");
            assert!(matches!(
                log.scan_from(from),
                Err(LogError::Truncated { .. })
            ));
        }
        // A scan below the truncation point is refused before the read.
        assert_eq!(reads.load(Ordering::Relaxed), before);
        assert_eq!(log.scan(Lsn(3), |frames| frames.len()).unwrap(), 4);
    }

    #[test]
    fn a_scan_gives_the_durable_frames_then_the_tail_in_lsn_order() {
        let mut log = LogManager::in_memory();
        for i in 0..5 {
            log.append(phys(i));
        }
        log.force(Lsn(3)).unwrap();
        for i in 5..7 {
            log.append(phys(i));
        }
        // LSNs 1..=3 durable, 4..=7 pending in the volatile tail.
        assert_eq!(log.unforced(), 4);
        let lsns = log
            .scan(Lsn(2), |frames| {
                assert_eq!(frames.len(), 6);
                frames.iter().map(|(l, _)| l.raw()).collect::<Vec<_>>()
            })
            .unwrap();
        assert_eq!(lsns, vec![2, 3, 4, 5, 6, 7]);
        let tail_only = log.scan(Lsn(5), |frames| frames.to_vec()).unwrap();
        assert_eq!(
            tail_only.iter().map(|(l, _)| l.raw()).collect::<Vec<_>>(),
            vec![5, 6, 7]
        );
        assert!(log.scan(Lsn(8), |frames| frames.is_empty()).unwrap());
    }

    #[test]
    fn an_interior_corrupt_frame_ends_the_scan_at_the_store_prefix() {
        let mut store = MemLogStore::new();
        for i in 1..=6u32 {
            let frame = encode_record(&LogRecord::new(Lsn(u64::from(i)), phys(i)));
            store.append(Lsn(u64::from(i)), frame).unwrap();
        }
        assert_eq!(store.corrupt_frame(3), Some(Lsn(4)));
        let prefix = store.frames_from(Lsn::NULL).unwrap().into_owned();
        assert_eq!(
            prefix.iter().map(|(l, _)| l.raw()).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        let log = LogManager::from_existing(Box::new(store)).unwrap();
        assert_eq!(log.durable_lsn(), Lsn(3));
        // The intact frames 5 and 6 behind the bad one are never handed out.
        assert_eq!(
            log.scan(Lsn::NULL, |frames| frames.to_vec()).unwrap(),
            prefix
        );
        assert_eq!(
            log.scan(Lsn(2), |frames| frames.to_vec()).unwrap(),
            prefix.get(1..).unwrap()
        );
        assert!(log.scan(Lsn(4), |frames| frames.is_empty()).unwrap());
    }

    #[test]
    fn a_long_tail_forced_one_record_at_a_time_stays_exact() {
        const N: u64 = 65_536;
        let mut log = LogManager::in_memory();
        for i in 0..N {
            log.append(phys(i as u32));
        }
        assert_eq!(log.unforced(), N as usize);
        for i in 1..=N {
            log.force(Lsn(i)).unwrap();
            assert_eq!(log.durable_lsn(), Lsn(i));
            assert_eq!(log.unforced(), (N - i) as usize);
            if i == N / 2 + 1 || i == N - 1 {
                // Durable frames, then the tail: every LSN once, in order.
                let lsns: Vec<u64> = log
                    .scan(Lsn::NULL, |frames| {
                        frames.iter().map(|(l, _)| l.raw()).collect()
                    })
                    .unwrap();
                assert!(lsns.iter().copied().eq(1..=N));
            }
        }
        assert_eq!(log.stats().forces, N);
        assert_eq!(log.scan_from(Lsn(N)).unwrap().len(), 1);
        // Appends after the drain continue the sequence.
        assert_eq!(log.append(phys(0)), Lsn(N + 1));
        assert_eq!(log.unforced(), 1);
    }

    #[test]
    fn group_force_batches_whole_tail() {
        let mut log = LogManager::in_memory();
        for i in 0..5 {
            log.append(phys(i));
        }
        log.force_all().unwrap();
        assert_eq!(log.stats().forces, 1);
        assert_eq!(log.stats().forced_frames, 5, "one force, five frames");
        // Per-record forces pay a force round-trip each.
        for i in 5..8 {
            log.append(phys(i));
            log.force_all().unwrap();
        }
        assert_eq!(log.stats().forces, 4);
        assert_eq!(log.stats().forced_frames, 8);
        // Empty forces don't count.
        log.force_all().unwrap();
        assert_eq!(log.stats().forces, 4);
        assert_eq!(log.scan_from(Lsn::NULL).unwrap().len(), 8);
    }

    #[test]
    fn stats_track_labels() {
        let mut log = LogManager::in_memory();
        log.append(phys(0));
        log.append(RecordBody::BackupBegin {
            backup_id: 1,
            start_lsn: Lsn(1),
        });
        assert_eq!(log.stats().records, 2);
        assert_eq!(log.stats().label("W_P").0, 1);
        assert_eq!(log.stats().label("BkBegin").0, 1);
    }
}
