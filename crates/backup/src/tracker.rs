//! Backup progress tracking: the `D`/`P` cursors and the backup latch.

use parking_lot::{RwLock, RwLockReadGuard};

/// Where a position stands relative to the current backup (paper §3.4,
/// Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// No backup is active in this domain.
    Inactive,
    /// `#X < D`: already copied to `B`; a flush now will **not** appear in
    /// `B`.
    Done,
    /// `D ≤ #X < P`: the backup is working through this range; we do not
    /// know whether a flush now will appear in `B`.
    Doubt,
    /// `#X ≥ P`: not yet copied; a flush now **will** appear in `B`.
    Pend,
}

#[derive(Debug, Clone, Copy)]
struct TrackerState {
    active: bool,
    backup_id: u64,
    d: u64,
    p: u64,
}

/// Progress tracker for one backup-order domain.
///
/// The embedded `RwLock` *is* the paper's backup latch: "we define a backup
/// latch per partition ... When the backup process updates its progress, it
/// requests the partition backup latch in exclusive mode. ... When the cache
/// manager flushes objects in vars(n) ... it requests the backup latch in
/// share mode." Share mode lets a multi-threaded cache manager flush
/// concurrently; exclusivity of `D`/`P` updates guarantees the
/// classification a flusher reads stays true until its flush completes.
/// ```
/// use lob_backup::{ProgressTracker, Region};
///
/// let tracker = ProgressTracker::new();
/// tracker.begin(1, 10);            // D = 0, P = 10: first step in doubt
/// let latch = tracker.latch();     // the backup latch, share mode
/// assert_eq!(latch.classify(5), Region::Doubt);
/// assert_eq!(latch.classify(15), Region::Pend);
/// drop(latch);
/// tracker.advance(20);             // D = 10, P = 20
/// assert_eq!(tracker.latch().classify(5), Region::Done);
/// tracker.finish();
/// assert_eq!(tracker.latch().classify(5), Region::Inactive);
/// ```
#[derive(Debug)]
pub struct ProgressTracker {
    state: RwLock<TrackerState>,
}

impl ProgressTracker {
    /// A tracker with no backup active.
    pub fn new() -> ProgressTracker {
        ProgressTracker {
            state: RwLock::new(TrackerState {
                active: false,
                backup_id: 0,
                d: 0,
                p: 0,
            }),
        }
    }

    /// Begin a backup: `D = Min`, `P = first_boundary`. Everything below the
    /// first boundary is immediately in doubt (progress inside a step is not
    /// tracked); everything above is pending.
    pub fn begin(&self, backup_id: u64, first_boundary: u64) {
        let mut s = self.state.write();
        s.active = true;
        s.backup_id = backup_id;
        s.d = 0;
        s.p = first_boundary;
    }

    /// The backup finished copying everything below the current `P`;
    /// advance `D` to `P` and `P` to the next boundary (exclusive latch).
    // lint: durability(CursorAdvance requires BackupCopy)
    pub fn advance(&self, next_boundary: u64) {
        let mut s = self.state.write();
        debug_assert!(s.active, "advance on inactive tracker");
        debug_assert!(next_boundary >= s.p, "boundaries must not regress");
        s.d = s.p;
        s.p = next_boundary;
    }

    /// The backup completed (or was aborted): deactivate, reset cursors
    /// ("Between backups, we set D = P = Min").
    pub fn finish(&self) {
        let mut s = self.state.write();
        s.active = false;
        s.d = 0;
        s.p = 0;
    }

    /// Take the backup latch in share mode. The returned guard pins `D` and
    /// `P` for the duration of the flush.
    pub fn latch(&self) -> TrackerGuard<'_> {
        TrackerGuard {
            guard: self.state.read(),
        }
    }

    /// Whether a backup is currently active (unlatched peek; use
    /// [`latch`](Self::latch) on the flush path).
    pub fn is_active(&self) -> bool {
        self.state.read().active
    }

    /// Current backup id, if active.
    pub fn backup_id(&self) -> Option<u64> {
        let s = self.state.read();
        s.active.then_some(s.backup_id)
    }
}

impl Default for ProgressTracker {
    fn default() -> Self {
        ProgressTracker::new()
    }
}

/// The backup latch held in share mode; classifications are stable while
/// this guard lives.
pub struct TrackerGuard<'a> {
    guard: RwLockReadGuard<'a, TrackerState>,
}

impl TrackerGuard<'_> {
    /// Classify a position against the pinned `D`/`P`.
    pub fn classify(&self, pos: u64) -> Region {
        let s = &*self.guard;
        if !s.active {
            Region::Inactive
        } else if pos < s.d {
            Region::Done
        } else if pos >= s.p {
            Region::Pend
        } else {
            Region::Doubt
        }
    }

    /// Whether a backup is active in this domain.
    pub fn active(&self) -> bool {
        self.guard.active
    }

    /// The pinned `(D, P)` cursors (for diagnostics and the `fig3`
    /// experiment).
    pub fn cursors(&self) -> (u64, u64) {
        (self.guard.d, self.guard.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_tracker_classifies_inactive() {
        let t = ProgressTracker::new();
        assert!(!t.is_active());
        assert_eq!(t.latch().classify(5), Region::Inactive);
        assert_eq!(t.backup_id(), None);
    }

    #[test]
    fn begin_splits_doubt_and_pend() {
        let t = ProgressTracker::new();
        t.begin(7, 10);
        assert_eq!(t.backup_id(), Some(7));
        let g = t.latch();
        assert_eq!(g.classify(0), Region::Doubt, "first step starts in doubt");
        assert_eq!(g.classify(9), Region::Doubt);
        assert_eq!(g.classify(10), Region::Pend);
        assert_eq!(g.classify(999), Region::Pend);
        assert_eq!(g.cursors(), (0, 10));
    }

    #[test]
    fn advance_moves_done_boundary() {
        let t = ProgressTracker::new();
        t.begin(1, 10);
        t.advance(20);
        let g = t.latch();
        assert_eq!(g.classify(9), Region::Done);
        assert_eq!(g.classify(10), Region::Doubt);
        assert_eq!(g.classify(19), Region::Doubt);
        assert_eq!(g.classify(20), Region::Pend);
    }

    #[test]
    fn last_step_has_no_pending() {
        // "Backup completes when P is set to Max ... there are no longer any
        // pending objects."
        let t = ProgressTracker::new();
        t.begin(1, 10);
        t.advance(20); // suppose total = 20
        let g = t.latch();
        assert_eq!(g.classify(19), Region::Doubt);
        // Every real position < 20 is Done or Doubt; nothing is Pend.
        assert!((0..20).all(|p| g.classify(p) != Region::Pend));
    }

    #[test]
    fn finish_resets() {
        let t = ProgressTracker::new();
        t.begin(1, 10);
        t.advance(10);
        t.finish();
        assert!(!t.is_active());
        assert_eq!(t.latch().classify(0), Region::Inactive);
    }

    #[test]
    fn one_step_backup_degenerates_to_active_flag() {
        // §3.4: with one step, the only information is whether a backup is
        // in progress — everything is in doubt for its whole duration.
        let t = ProgressTracker::new();
        t.begin(1, 100); // single boundary = total
        let g = t.latch();
        assert!((0..100).all(|p| g.classify(p) == Region::Doubt));
    }

    #[test]
    fn latch_blocks_cursor_movement() {
        // With the share latch held, an exclusive advance must wait.
        use std::sync::Arc;
        let t = Arc::new(ProgressTracker::new());
        t.begin(1, 10);
        let g = t.latch();
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || {
            t2.advance(20);
        });
        // Give the thread a chance to attempt the advance.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(g.classify(10), Region::Pend, "still pinned at P=10");
        drop(g);
        h.join().unwrap();
        assert_eq!(t.latch().classify(10), Region::Doubt, "advance applied");
    }
}
