//! Seeded fault planning on top of the engine's [`FaultHook`].
//!
//! The hook mechanism (in `lob_pagestore::fault`) is deliberately dumb: every
//! I/O site asks "what do I do at this event?". A [`FaultPlan`] is the
//! deterministic answer-machine the torture harness installs: it numbers the
//! I/O events of a run (the event stream is a pure function of the workload
//! seed) and arms exactly one fault at a chosen event index.
//!
//! A plan is used in two passes. First a [`FaultKind::CountOnly`] pass runs
//! the workload to completion and records the total event count; then the
//! harness re-runs the identical workload once per chosen index with a real
//! fault armed, recovers, and verifies against the shadow oracle. The drill
//! loop ([`crate::drill`]) runs each case through `witnessed`, so the
//! ordering witness watches it too.

use lob_pagestore::witness::Witness;
use lob_pagestore::{FaultHook, FaultVerdict, IoEvent, PageId};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Which fault a [`FaultPlan`] arms, and at which event index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// No fault: observe and count every event (pass 1 of a sweep).
    CountOnly,
    /// Process crash at exactly event `k`.
    CrashAt(u64),
    /// Process crash right after the op loop's `n`-th operation (0-based):
    /// a crash point between verbs that the drive takes itself; the hook
    /// never fires it.
    CrashAfterOp(u32),
    /// Process crash at the `k`-th occurrence (0-based) of one specific
    /// event kind — e.g. "the first log truncation" — regardless of how
    /// many other events interleave. Used for targeted crash points whose
    /// events are rare in a sweep.
    CrashAtEvent(IoEvent, u64),
    /// Tear the first page write at event index `>= k` (front half new,
    /// back half old), which also crashes the process.
    TornWriteAt(u64),
    /// Silently corrupt the first page write at event index `>= k`; the run
    /// continues — a later read or scrub must catch the checksum mismatch.
    CorruptWriteAt(u64),
    /// Fail the medium under the first page-carrying event at index `>= k`
    /// (a store write or a backup copy).
    MediaFailAt(u64),
    /// Corrupt the *stored bytes* under the first page read at index `>= k`;
    /// the read itself then fails the checksum. Exercises detection,
    /// quarantine, and online repair.
    CorruptReadAt(u64),
    /// Tear the stored bytes (front half kept, back half zeroed) under the
    /// first page read at index `>= k`.
    TornReadAt(u64),
    /// Answer the first **two** page reads at index `>= k` with a transient
    /// device error (two, because the engine's bounded backoff must survive
    /// more than one consecutive miss); later reads proceed.
    TransientReadAt(u64),
}

/// Shared state behind the hook closure.
struct PlanState {
    counter: AtomicU64, // lint: atomic(seqcst)
    /// Occurrences of the targeted kind seen so far (CrashAtEvent only).
    kind_seen: AtomicU64, // lint: atomic(seqcst)
    fired: AtomicBool,  // lint: atomic(seqcst)
    fired_page: Mutex<Option<PageId>>,
    fired_event: Mutex<Option<(u64, IoEvent)>>,
}

/// A deterministic fault plan: counts I/O events and arms one fault.
///
/// Cloning is cheap and shares the underlying counters, so the harness can
/// keep a handle while the engine owns the hook.
#[derive(Clone)]
pub struct FaultPlan {
    kind: FaultKind,
    state: Arc<PlanState>,
}

impl FaultPlan {
    /// A plan arming `kind`.
    pub fn new(kind: FaultKind) -> FaultPlan {
        FaultPlan {
            kind,
            state: Arc::new(PlanState {
                counter: AtomicU64::new(0),
                kind_seen: AtomicU64::new(0),
                fired: AtomicBool::new(false),
                fired_page: Mutex::new(None),
                fired_event: Mutex::new(None),
            }),
        }
    }

    /// The hook to install via `EngineService::install_fault_hook`.
    pub fn hook(&self) -> FaultHook {
        let kind = self.kind;
        let state = Arc::clone(&self.state);
        Arc::new(move |ev: IoEvent, page: Option<PageId>| {
            let idx = state.counter.fetch_add(1, Ordering::SeqCst);
            let verdict = match kind {
                FaultKind::CountOnly | FaultKind::CrashAfterOp(_) => FaultVerdict::Proceed,
                FaultKind::CrashAt(k) => {
                    if idx == k {
                        FaultVerdict::Crash
                    } else {
                        FaultVerdict::Proceed
                    }
                }
                FaultKind::CrashAtEvent(target, k) => {
                    if ev == target {
                        let seen = state.kind_seen.fetch_add(1, Ordering::SeqCst);
                        if seen == k {
                            FaultVerdict::Crash
                        } else {
                            FaultVerdict::Proceed
                        }
                    } else {
                        FaultVerdict::Proceed
                    }
                }
                // The targeted write kinds are "sticky": the plan waits from
                // event `k` for the first event of the right shape, so every
                // index in `0..total` is a valid arm point even when the
                // event at `k` itself is (say) a log force.
                FaultKind::TornWriteAt(k) => {
                    if idx >= k && ev == IoEvent::PageWrite && !state.fired.load(Ordering::SeqCst) {
                        FaultVerdict::TornWrite
                    } else {
                        FaultVerdict::Proceed
                    }
                }
                FaultKind::CorruptWriteAt(k) => {
                    if idx >= k && ev == IoEvent::PageWrite && !state.fired.load(Ordering::SeqCst) {
                        FaultVerdict::CorruptWrite
                    } else {
                        FaultVerdict::Proceed
                    }
                }
                FaultKind::MediaFailAt(k) => {
                    if idx >= k && page.is_some() && !state.fired.load(Ordering::SeqCst) {
                        FaultVerdict::MediaFail
                    } else {
                        FaultVerdict::Proceed
                    }
                }
                FaultKind::CorruptReadAt(k) => {
                    if idx >= k && ev == IoEvent::PageRead && !state.fired.load(Ordering::SeqCst) {
                        FaultVerdict::CorruptRead
                    } else {
                        FaultVerdict::Proceed
                    }
                }
                FaultKind::TornReadAt(k) => {
                    if idx >= k && ev == IoEvent::PageRead && !state.fired.load(Ordering::SeqCst) {
                        FaultVerdict::TornRead
                    } else {
                        FaultVerdict::Proceed
                    }
                }
                FaultKind::TransientReadAt(k) => {
                    if idx >= k
                        && ev == IoEvent::PageRead
                        && state.kind_seen.fetch_add(1, Ordering::SeqCst) < 2
                    {
                        FaultVerdict::TransientRead
                    } else {
                        FaultVerdict::Proceed
                    }
                }
            };
            if verdict != FaultVerdict::Proceed && !state.fired.swap(true, Ordering::SeqCst) {
                *state.fired_page.lock() = page;
                *state.fired_event.lock() = Some((idx, ev));
            }
            verdict
        })
    }

    /// Which fault this plan arms.
    pub fn kind(&self) -> FaultKind {
        self.kind
    }

    /// Events observed so far.
    pub fn events_seen(&self) -> u64 {
        self.state.counter.load(Ordering::SeqCst)
    }

    /// Whether the armed fault has fired.
    pub fn fired(&self) -> bool {
        self.state.fired.load(Ordering::SeqCst)
    }

    /// The page the fault fired on, if it fired on a page-carrying event.
    pub fn fired_page(&self) -> Option<PageId> {
        *self.state.fired_page.lock()
    }

    /// The `(event index, event kind)` the fault fired at.
    pub fn fired_event(&self) -> Option<(u64, IoEvent)> {
        *self.state.fired_event.lock()
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("kind", &self.kind)
            .field("events_seen", &self.events_seen())
            .field("fired", &self.fired())
            .finish()
    }
}

/// Evenly sample at most `max_points` distinct indices from `0..total`.
///
/// With `total <= max_points` every index is returned — the sweep is
/// exhaustive; otherwise the sample is an even stride across the run so
/// early, middle, and late crash points are all represented.
pub fn sample_indices(total: u64, max_points: usize) -> Vec<u64> {
    if total == 0 {
        return Vec::new();
    }
    let max = max_points.max(1) as u64;
    if total <= max {
        return (0..total).collect();
    }
    let mut out: Vec<u64> = (0..max).map(|i| i * total / max).collect();
    out.dedup();
    out
}

/// Run one drill case under a fresh ordering witness
/// ([`lob_pagestore::witness`]) and hand the witness back with the case's
/// result. A consumer I/O event observed before its required generator
/// fails the case, even if it byte-verified.
pub(crate) fn witnessed<T>(
    case: impl FnOnce() -> Result<T, String>,
) -> Result<(T, Witness), String> {
    let witness = Witness::new();
    let res = witness.run(case);
    let violations = witness.take_violations();
    if violations.is_empty() {
        return res.map(|r| (r, witness));
    }
    let tail = match &res {
        Err(e) => format!(" (case also failed: {e})"),
        Ok(_) => String::new(),
    };
    Err(format!(
        "ordering witness flagged {} event(s): {}{tail}",
        violations.len(),
        violations.join("; ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_plan_fires_exactly_once_at_its_index() {
        let plan = FaultPlan::new(FaultKind::CrashAt(2));
        let hook = plan.hook();
        assert_eq!(hook(IoEvent::LogForce, None), FaultVerdict::Proceed);
        assert_eq!(hook(IoEvent::LogAppend, None), FaultVerdict::Proceed);
        assert_eq!(hook(IoEvent::LogAppend, None), FaultVerdict::Crash);
        assert_eq!(hook(IoEvent::LogAppend, None), FaultVerdict::Proceed);
        assert!(plan.fired());
        assert_eq!(plan.fired_event(), Some((2, IoEvent::LogAppend)));
        assert_eq!(plan.events_seen(), 4);
    }

    #[test]
    fn torn_plan_waits_for_the_first_page_write() {
        let plan = FaultPlan::new(FaultKind::TornWriteAt(1));
        let hook = plan.hook();
        let p = PageId::new(0, 7);
        assert_eq!(hook(IoEvent::PageWrite, Some(p)), FaultVerdict::Proceed);
        assert_eq!(hook(IoEvent::LogForce, None), FaultVerdict::Proceed);
        assert_eq!(hook(IoEvent::PageWrite, Some(p)), FaultVerdict::TornWrite);
        assert_eq!(hook(IoEvent::PageWrite, Some(p)), FaultVerdict::Proceed);
        assert_eq!(plan.fired_page(), Some(p));
    }

    #[test]
    fn media_fail_plan_accepts_any_page_carrying_event() {
        let plan = FaultPlan::new(FaultKind::MediaFailAt(0));
        let hook = plan.hook();
        assert_eq!(hook(IoEvent::LogAppend, None), FaultVerdict::Proceed);
        assert_eq!(
            hook(IoEvent::BackupCopy, Some(PageId::new(0, 3))),
            FaultVerdict::MediaFail
        );
        assert!(plan.fired());
    }

    #[test]
    fn corrupt_read_plan_waits_for_the_first_page_read() {
        let plan = FaultPlan::new(FaultKind::CorruptReadAt(1));
        let hook = plan.hook();
        let p = PageId::new(0, 2);
        assert_eq!(hook(IoEvent::PageRead, Some(p)), FaultVerdict::Proceed);
        assert_eq!(hook(IoEvent::PageWrite, Some(p)), FaultVerdict::Proceed);
        assert_eq!(hook(IoEvent::PageRead, Some(p)), FaultVerdict::CorruptRead);
        assert_eq!(hook(IoEvent::PageRead, Some(p)), FaultVerdict::Proceed);
        assert_eq!(plan.fired_page(), Some(p));
        assert_eq!(plan.fired_event(), Some((2, IoEvent::PageRead)));
    }

    #[test]
    fn torn_read_plan_ignores_non_read_events() {
        let plan = FaultPlan::new(FaultKind::TornReadAt(0));
        let hook = plan.hook();
        let p = PageId::new(1, 5);
        assert_eq!(hook(IoEvent::LogRead, None), FaultVerdict::Proceed);
        assert_eq!(hook(IoEvent::ImageRead, Some(p)), FaultVerdict::Proceed);
        assert_eq!(hook(IoEvent::PageRead, Some(p)), FaultVerdict::TornRead);
        assert!(plan.fired());
    }

    #[test]
    fn transient_read_plan_fires_twice_then_proceeds() {
        let plan = FaultPlan::new(FaultKind::TransientReadAt(1));
        let hook = plan.hook();
        let p = PageId::new(0, 0);
        assert_eq!(hook(IoEvent::PageRead, Some(p)), FaultVerdict::Proceed);
        assert_eq!(
            hook(IoEvent::PageRead, Some(p)),
            FaultVerdict::TransientRead
        );
        assert_eq!(
            hook(IoEvent::PageRead, Some(p)),
            FaultVerdict::TransientRead
        );
        assert_eq!(hook(IoEvent::PageRead, Some(p)), FaultVerdict::Proceed);
        assert_eq!(hook(IoEvent::PageRead, Some(p)), FaultVerdict::Proceed);
        assert!(plan.fired());
    }

    #[test]
    fn witnessed_fails_a_case_on_an_ordering_violation() {
        use lob_pagestore::witness::io_order;
        let err = witnessed(|| {
            io_order("PageWrite");
            Ok(())
        })
        .unwrap_err();
        assert!(
            err.contains("`PageWrite` observed before any `LogForce`"),
            "{err}"
        );
        let ((), witness) = witnessed(|| {
            io_order("LogForce");
            io_order("PageWrite");
            Ok(())
        })
        .unwrap();
        assert_eq!(witness.events(), 2);
    }

    #[test]
    fn sampling_is_exhaustive_when_small_and_even_when_large() {
        assert_eq!(sample_indices(5, 10), vec![0, 1, 2, 3, 4]);
        let s = sample_indices(1000, 10);
        assert_eq!(s.len(), 10);
        assert_eq!(s[0], 0);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(*s.last().unwrap() >= 900);
        assert!(sample_indices(0, 10).is_empty());
    }
}
