//! # Group-commit scheduler
//!
//! [`GroupCommitLog`] wraps a [`LogManager`] behind internal locks so many
//! sessions can append and force concurrently, batching their forces into
//! group commits: the first session needing durability becomes the
//! **leader** and gathers co-committers, then runs **one**
//! [`LogManager::force`] up to the highest LSN any member of the group
//! asked for. Followers read their outcome from the published durable
//! watermark.
//!
//! The gather closes as soon as the group is full: `count` members, or
//! every *live* registered committer ([`GroupCommitLog::register`]) when
//! fewer are live. A committer is live until the thread that last used it
//! ([`GroupCommitLog::mark_used`]) exits; one no thread has used yet is
//! live, so a committer registered before its thread starts is waited
//! for from the first gather on. Liveness is read from the threads, not
//! from a clock: while every user thread lives, the gathers close exactly
//! as if all were waited for. `delay` caps the wait either way; with
//! nobody registered the leader waits for `count` members or the window.
//! On every path, the `count` cap included, only followers that arrive
//! during this gather count as members — a follower of the round just
//! published is not one. [`GroupCommitLog::gather_ends`] counts which
//! ended each gather.
//!
//! Waits bounded by the window stay on the CPU: the gathering leader and
//! its followers re-check the group state between
//! [`std::thread::yield_now`] calls rather than park, so a group pays no
//! wake-up of a halted CPU. A follower whose round has not published
//! within `delay` (a long force, such as a real `fsync`) parks on a
//! condvar for the rest of it; [`GroupCommitLog::parked_waits`] counts
//! those waits. A closed window (`delay = 0` or `count <= 1`) never
//! polls: its followers park at once.
//!
//! The fault surface is unchanged by construction: the leader's single
//! `LogManager::force` call is the only path to the store, so each group
//! pays exactly one `LogForce` consult and one `LogAppend` consult per
//! frame. With the gather window closed and one committer, a force is
//! exactly `LogManager::force(upto)`: records past `upto` stay volatile.
//! A crash verdict mid-group fans the typed error out to every waiter
//! whose goal the round failed to cover.
//!
//! Lock order (`GroupState`, `GroupCommitters`, `GroupManager` in
//! `lob_pagestore::witness::Rank`): `state` before `committers` and
//! `manager`. Appends take only `manager`; commit
//! bookkeeping takes only `state`; (de)registration and a committer's
//! change of thread take only `committers`; the gathering leader takes
//! `state`, then `committers` on every poll, then `manager` (via
//! [`GroupCommitLog::lead_force`]). Nothing ever takes `committers` or
//! `manager` first.

use crate::{LogError, LogManager, LogRecord, LogStats, RecordBody, ScanFrames};
use lob_pagestore::witness::{Mutex, MutexGuard, Rank};
use lob_pagestore::Lsn;
use parking_lot::Condvar;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Source of [`THREAD`] ids; 0 is "no thread".
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1); // lint: atomic(relaxed-counter)

thread_local! {
    /// This thread's liveness token: a process-unique id, dropped when the
    /// thread exits. A committer's registry entry holds a `Weak` to the
    /// token of the thread that last used it.
    static THREAD: Arc<u64> = Arc::new(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
}

/// A force round's failure, kept cloneable so one leader error can fan out
/// to every waiter of the round ([`LogError`] is not `Clone`).
#[derive(Debug, Clone)]
enum GroupFailure {
    /// The fault hook injected a crash (possibly after a durable prefix).
    InjectedCrash,
    /// A real store-level I/O failure, stringified.
    Io(String),
}

impl GroupFailure {
    fn of(e: &LogError) -> GroupFailure {
        match e {
            LogError::InjectedCrash => GroupFailure::InjectedCrash,
            other => GroupFailure::Io(other.to_string()),
        }
    }

    fn to_error(&self) -> LogError {
        match self {
            GroupFailure::InjectedCrash => LogError::InjectedCrash,
            GroupFailure::Io(msg) => LogError::Io(std::io::Error::other(msg.clone())),
        }
    }
}

/// How the gathers of a [`GroupCommitLog`] ended, counted since it was
/// built. A force with the window closed gathers nothing and is not
/// counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatherEnds {
    /// Every registered committer had joined, fewer than `count`.
    pub all_joined: u64,
    /// Every live committer had joined, fewer than `count`, while the
    /// thread of some registered committer had exited.
    pub departed: u64,
    /// `count` members had gathered.
    pub count_cap: u64,
    /// The `delay` window ran out first.
    pub window: u64,
}

/// Group-commit bookkeeping, all under the `state` lock.
#[derive(Debug, Default)]
struct GroupState {
    /// A leader is currently gathering or forcing.
    leading: bool,
    /// The leader is inside its gather window: a follower arriving now
    /// joins this round's group.
    gathering: bool,
    /// Followers that joined the current gather (leader excluded). Not
    /// `waiters`: that still counts followers of the round just published
    /// until they re-take `state`.
    joined: u32,
    /// How every gather so far ended.
    ends: GatherEnds,
    /// Followers parked on `completions` right now (leader excluded).
    waiters: u32,
    /// Follower waits that outlived the window's on-CPU poll and parked.
    parked: u64,
    /// Completed force rounds (monotone; followers detect "my round ran").
    rounds: u64,
    /// Outcome of the most recent round, `None` on success.
    failure: Option<GroupFailure>,
    /// Highest LSN (raw) asked for by a committer the next round has not
    /// taken yet: what the next leader forces up to.
    target: u64,
    /// LSN ranges `(lo, hi]` wiped by [`GroupCommitLog::crash`]:
    /// appended-but-unforced records lost before any round covered them.
    /// LSNs are never reused and `durable` is monotone, so the ranges are
    /// disjoint, ascending, and permanent — a commit whose record falls in
    /// a hole can never become durable, even though the published durable
    /// watermark later passes the hole via post-crash records.
    holes: Vec<(u64, u64)>,
}

/// Wiped-record test: `lsn` falls in a crash hole (see
/// [`GroupState::holes`]).
fn in_hole(holes: &[(u64, u64)], lsn: u64) -> bool {
    holes.iter().any(|&(lo, hi)| lo < lsn && lsn <= hi)
}

/// A registered committer of a [`GroupCommitLog`], from
/// [`GroupCommitLog::register`]: the handle its user threads are recorded
/// on.
#[derive(Debug)]
pub struct Committer {
    /// Key of its entry in the log's registry.
    key: u64,
    /// [`THREAD`] id of the last thread recorded on it (0: none yet), so a
    /// call from that same thread records nothing. Stored under the
    /// `committers` lock after the registry entry; a thread reads its own
    /// id here only after storing it itself, so the load publishes no
    /// registry state to it.
    thread: AtomicU64, // lint: atomic(acq-rel)
}

/// The registered committers, under the `committers` lock.
#[derive(Debug, Default)]
struct Registry {
    /// Key of the next committer registered.
    next: u64,
    /// Each registered committer's key and the liveness token of the
    /// thread that last used it (`None` before any has).
    members: Vec<(u64, Option<Weak<u64>>)>,
}

impl Registry {
    /// `(registered, live)` committers: one is live until the thread that
    /// last used it exits.
    fn counts(&self) -> (u32, u32) {
        let live = self
            .members
            .iter()
            .filter(|(_, user)| user.as_ref().map_or(true, |u| u.strong_count() > 0))
            .count();
        let count = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
        (count(self.members.len()), count(live))
    }
}

/// A [`LogManager`] shared by concurrent sessions with group-committed
/// forces. See the module docs for the protocol and lock order.
pub struct GroupCommitLog {
    /// The wrapped single-writer log. Held briefly for appends; held by
    /// the leader for the duration of one group force.
    manager: Mutex<LogManager>,
    /// Leader election and round bookkeeping.
    state: Mutex<GroupState>,
    /// Round completions; a parked follower waits on it with `state`.
    completions: Condvar,
    /// Gather window.
    delay: Duration,
    /// Early-dispatch group size.
    count: u32,
    /// Committers registered as members of every group
    /// ([`GroupCommitLog::register`]) and the threads that last used them.
    /// Changed outside `state`: a gathering leader re-reads it on every
    /// poll.
    committers: Mutex<Registry>,
    /// Published durable watermark (raw LSN), so sessions read commit
    /// outcomes without any lock. Stored only under the `manager` lock,
    /// so it is monotone.
    durable: AtomicU64, // lint: atomic(acq-rel)
    /// Last appended LSN (raw), mirrored under the `manager` lock.
    appended: AtomicU64, // lint: atomic(acq-rel)
    /// Smallest LSN that could sit in a crash hole (`u64::MAX` while no
    /// crash has wiped anything): lets the lock-free force fast path
    /// trust `durable` alone below this point.
    hole_floor: AtomicU64, // lint: atomic(acq-rel)
}

impl GroupCommitLog {
    /// Wrap `manager`. A force leader waits up to `delay` for up to
    /// `count` total committers (fewer once every live registered
    /// committer has joined) before dispatching the group. Only followers that join
    /// this gather count toward either number. `delay = 0` or
    /// `count <= 1` disables gathering (each force dispatches
    /// immediately, still batching whatever is already appended) — that is
    /// also what keeps seeded virtual-scheduler drills deterministic.
    pub fn new(manager: LogManager, delay: Duration, count: u32) -> GroupCommitLog {
        let durable = manager.durable_lsn().raw();
        let appended = manager.next_lsn().raw().saturating_sub(1);
        GroupCommitLog {
            manager: Mutex::new(Rank::GroupManager, manager),
            state: Mutex::new(Rank::GroupState, GroupState::default()),
            completions: Condvar::new(),
            delay,
            count,
            committers: Mutex::new(Rank::GroupCommitters, Registry::default()),
            durable: AtomicU64::new(durable),
            appended: AtomicU64::new(appended),
            hole_floor: AtomicU64::new(u64::MAX),
        }
    }

    /// Whether forces gather: an open window and room for a group.
    /// Only a gathering log polls or yields.
    fn gathers(&self) -> bool {
        self.count > 1 && !self.delay.is_zero()
    }

    /// One on-CPU poll step: release `state`, hand the CPU to any
    /// runnable thread, re-take `state`.
    fn yield_state<'a>(&'a self, st: MutexGuard<'a, GroupState>) -> MutexGuard<'a, GroupState> {
        drop(st);
        std::thread::yield_now();
        self.state.lock()
    }

    /// Append a record; returns its LSN. Volatile until a force covers it.
    pub fn append_record(&self, body: RecordBody) -> Lsn {
        let mut m = self.manager.lock();
        let lsn = m.append(body);
        self.appended.store(lsn.raw(), Ordering::Release);
        lsn
    }

    /// Group-committed force: durably persist at least every appended
    /// record with `lsn <= upto`, in one [`LogManager::force`] shared with
    /// whichever sessions commit in the same window.
    pub fn force(&self, upto: Lsn) -> Result<(), LogError> {
        let goal = upto.raw().min(self.appended.load(Ordering::Acquire));
        if self.durable.load(Ordering::Acquire) >= goal
            && upto.raw() < self.hole_floor.load(Ordering::Acquire)
        {
            // Already durable, and `upto` is below every crash hole (so
            // the watermark cannot be lying about it). The caller's
            // durability point exists all the same — mirror
            // `LogManager::force`'s empty-tail witness.
            lob_pagestore::witness::io_order("LogForce");
            return Ok(());
        }
        let mut st = self.state.lock();
        loop {
            // Checked before the watermark: a concurrent `crash()` wipes
            // the unforced tail, and post-crash commits can push
            // `durable` past the wiped range — `durable >= goal` alone
            // would falsely signal durability for a record that no
            // longer exists.
            if in_hole(&st.holes, upto.raw()) {
                return Err(LogError::InjectedCrash);
            }
            if self.durable.load(Ordering::Acquire) >= goal {
                lob_pagestore::witness::io_order("LogForce");
                return Ok(());
            }
            st.target = st.target.max(upto.raw());
            if !st.leading {
                st.leading = true;
                st = self.gather(st);
                let target = std::mem::take(&mut st.target);
                drop(st);
                let outcome = self.lead_force(Lsn(target));
                let lost =
                    self.publish_round(outcome.as_ref().err().map(GroupFailure::of), upto.raw());
                if lost {
                    // The tail was wiped by a crash while this leader
                    // was gathering or forcing: the goal record is gone.
                    return Err(LogError::InjectedCrash);
                }
                if self.durable.load(Ordering::Acquire) >= goal {
                    return Ok(());
                }
                // The round did not reach our goal: only a gated/failed
                // suffix explains that (the leader forces at least up to
                // `upto`, and a tail wiped by a concurrent crash is a
                // hole, caught above).
                return outcome;
            }
            // Follow: join a gathering leader's group, then wait until
            // the in-flight round publishes — on the CPU for up to one
            // window, parked after that.
            if st.gathering {
                st.joined += 1;
            }
            let entry_round = st.rounds;
            let pending = |st: &GroupState| {
                st.rounds == entry_round && self.durable.load(Ordering::Acquire) < goal
            };
            if self.gathers() {
                let deadline = Instant::now() + self.delay;
                while pending(&st) && Instant::now() < deadline {
                    st = self.yield_state(st);
                }
                if pending(&st) {
                    st.parked += 1;
                }
            }
            if pending(&st) {
                st.waiters += 1;
                while pending(&st) {
                    st = st.wait(&self.completions);
                }
                st.waiters -= 1;
            }
            if in_hole(&st.holes, upto.raw()) {
                return Err(LogError::InjectedCrash);
            }
            if self.durable.load(Ordering::Acquire) >= goal {
                return Ok(());
            }
            if let Some(f) = &st.failure {
                return Err(f.to_error());
            }
            // Round succeeded but our goal is newer (we re-registered
            // after a completed round): loop — we may now lead.
        }
    }

    /// Publish a completed round: step down as leader, bump the round
    /// counter, record the outcome, wake every parked follower. Returns
    /// whether `upto` now sits in a crash hole (the leader's record was
    /// wiped mid-round).
    fn publish_round(&self, failure: Option<GroupFailure>, upto: u64) -> bool {
        let mut st = self.state.lock();
        st.leading = false;
        st.rounds = st.rounds.wrapping_add(1);
        st.failure = failure;
        // A follower counts itself in `waiters` under this lock before it
        // parks, so with none counted there is nobody to wake (and a round
        // whose followers all polled skips the wake-up system call).
        if st.waiters > 0 {
            self.completions.notify_all();
        }
        in_hole(&st.holes, upto)
    }

    /// Leader's gather window: poll on the CPU for up to `delay` until the
    /// group is full — `count` members, or every live registered
    /// committer when fewer are live — and count how the gather ended.
    fn gather<'a>(&'a self, mut st: MutexGuard<'a, GroupState>) -> MutexGuard<'a, GroupState> {
        if !self.gathers() {
            return st;
        }
        st.gathering = true;
        st.joined = 0;
        let deadline = Instant::now() + self.delay;
        loop {
            let (registered, live) = self.committers.lock().counts();
            let everyone = registered > 0 && live < self.count;
            // With every registered committer gone, nobody can join: the
            // leader's group is itself.
            let size = if everyone { live.max(1) } else { self.count };
            if st.joined + 1 >= size {
                if !everyone {
                    st.ends.count_cap += 1;
                } else if live < registered {
                    st.ends.departed += 1;
                } else {
                    st.ends.all_joined += 1;
                }
                break;
            }
            if Instant::now() >= deadline {
                st.ends.window += 1;
                break;
            }
            st = self.yield_state(st);
        }
        st.gathering = false;
        st
    }

    /// The leader's single dispatch: one [`LogManager::force`] up to the
    /// group's `target` — one `LogForce` consult per group, per-frame
    /// `LogAppend` gating unchanged. Publishes the durable watermark
    /// (even after a partial, fault-gated force).
    fn lead_force(&self, target: Lsn) -> Result<(), LogError> {
        let mut m = self.manager.lock();
        let r = m.force(target);
        self.durable.store(m.durable_lsn().raw(), Ordering::Release);
        r
    }

    /// Register a committer: until the matching
    /// [`GroupCommitLog::deregister`], a gather with fewer than `count`
    /// live committers closes once all of them have joined. The committer
    /// is live until a thread recorded on it with
    /// [`GroupCommitLog::mark_used`] exits.
    pub fn register(&self) -> Committer {
        let mut reg = self.committers.lock();
        let key = reg.next;
        reg.next += 1;
        reg.members.push((key, None));
        Committer {
            key,
            thread: AtomicU64::new(0),
        }
    }

    /// Deregister a committer registered with [`GroupCommitLog::register`].
    /// A gathering leader sees the drop at its next poll: the group it
    /// waits for may now be complete.
    pub fn deregister(&self, committer: &Committer) {
        self.committers
            .lock()
            .members
            .retain(|(key, _)| *key != committer.key);
    }

    /// Record the calling thread as the one using `committer`: gathers
    /// wait for the committer until this thread exits, or until another
    /// thread is recorded on it. Takes no lock when the calling thread is
    /// the one already recorded.
    pub fn mark_used(&self, committer: &Committer) {
        // A thread past its thread-locals' teardown records nothing.
        let _ = THREAD.try_with(|token| {
            if committer.thread.load(Ordering::Acquire) == **token {
                return;
            }
            let mut reg = self.committers.lock();
            if let Some((_, user)) = reg.members.iter_mut().find(|(k, _)| *k == committer.key) {
                *user = Some(Arc::downgrade(token));
            }
            committer.thread.store(**token, Ordering::Release);
        });
    }

    /// How the gathers so far ended.
    pub fn gather_ends(&self) -> GatherEnds {
        self.state.lock().ends
    }

    /// Follower waits so far that outlived the window's on-CPU poll and
    /// parked until their round published. A closed window polls nothing
    /// and is not counted.
    pub fn parked_waits(&self) -> u64 {
        self.state.lock().parked
    }

    /// Force everything appended so far.
    pub fn force_all(&self) -> Result<(), LogError> {
        self.force(Lsn::MAX)
    }

    /// LSN of the last durable record (lock-free).
    pub fn durable_lsn(&self) -> Lsn {
        Lsn(self.durable.load(Ordering::Acquire))
    }

    /// LSN the next appended record will receive.
    pub fn next_lsn(&self) -> Lsn {
        self.manager.lock().next_lsn()
    }

    /// Simulate a crash: the unforced tail is lost; any recorded round
    /// failure is cleared (its consequence *is* the crash being taken).
    /// The wiped LSN range is remembered as a hole so a concurrent or
    /// later [`GroupCommitLog::force`] of a wiped record reports the loss
    /// instead of trivially succeeding on the emptied tail.
    pub fn crash(&self) {
        // Lock order: `state` before `manager`, same as a force leader.
        let mut st = self.state.lock();
        {
            let mut m = self.manager.lock();
            let durable = self.durable.load(Ordering::Acquire);
            let appended = self.appended.load(Ordering::Acquire);
            if appended > durable {
                st.holes.push((durable, appended));
                self.hole_floor.fetch_min(durable + 1, Ordering::AcqRel);
            }
            m.crash();
            self.appended.store(durable, Ordering::Release);
        }
        st.failure = None;
        self.completions.notify_all();
    }

    /// All records with `lsn >= from`, decoded. See
    /// [`LogManager::scan_from`].
    pub fn scan_from(&self, from: Lsn) -> Result<Vec<LogRecord>, LogError> {
        self.manager.lock().scan_from(from)
    }

    /// Hand every trusted frame with `lsn >= from` to `f`, borrowed. See
    /// [`LogManager::scan`]. The log lock is held while `f` runs, so every
    /// commit waits for it: a caller running beside live sessions should
    /// only copy what it needs out of the frames.
    pub fn scan<R>(&self, from: Lsn, f: impl FnOnce(ScanFrames<'_>) -> R) -> Result<R, LogError> {
        self.manager.lock().scan(from, f)
    }

    /// Logging statistics (includes volatile appends).
    pub fn stats(&self) -> LogStats {
        self.manager.lock().stats().clone()
    }

    /// Advance the truncation point (bounded by the media barrier).
    pub fn truncate(&self, before: Lsn) -> Result<Lsn, LogError> {
        self.manager.lock().truncate(before)
    }

    /// Current truncation point.
    pub fn truncation(&self) -> Lsn {
        self.manager.lock().truncation()
    }

    /// Pin (or release) the media barrier.
    pub fn set_media_barrier(&self, barrier: Option<Lsn>) {
        self.manager.lock().set_media_barrier(barrier)
    }

    /// Number of appended-but-unforced records.
    pub fn unforced(&self) -> usize {
        self.manager.lock().unforced()
    }

    /// Install (or clear) the fault hook on the wrapped manager.
    pub fn set_fault_hook(&self, hook: Option<lob_pagestore::FaultHook>) {
        self.manager.lock().set_fault_hook(hook)
    }

    /// Run `f` with the wrapped manager locked — the escape hatch for
    /// stats and other read-mostly passthroughs.
    pub fn with_manager<R>(&self, f: impl FnOnce(&mut LogManager) -> R) -> R {
        let mut m = self.manager.lock();
        f(&mut m)
    }
}

impl std::fmt::Debug for GroupCommitLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GroupCommitLog(durable {}, appended {})",
            self.durable.load(Ordering::Acquire),
            self.appended.load(Ordering::Acquire)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lob_pagestore::{FaultVerdict, IoEvent};
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::Arc;

    fn op_body(i: u8) -> RecordBody {
        RecordBody::Op(lob_ops::OpBody::PhysicalWrite {
            target: lob_pagestore::PageId::new(0, i as u32),
            value: bytes::Bytes::from(vec![i; 8]),
        })
    }

    #[test]
    fn append_and_force_single_session() {
        let log = GroupCommitLog::new(LogManager::in_memory(), Duration::ZERO, 4);
        let l1 = log.append_record(op_body(1));
        let l2 = log.append_record(op_body(2));
        assert_eq!(log.durable_lsn(), Lsn::NULL);
        log.force(l1).unwrap();
        assert_eq!(
            log.durable_lsn(),
            l1,
            "a lone force covers what it asked for"
        );
        log.force_all().unwrap();
        assert_eq!(log.durable_lsn(), l2);
        assert_eq!(log.unforced(), 0);
    }

    #[test]
    fn closed_window_force_is_exactly_the_managers() {
        // The same tail forced to the same point through a closed-window
        // group log and through a bare manager: the same durable prefix,
        // the same volatile rest, the same fault consults in order.
        let consults =
            |events: &Arc<parking_lot::Mutex<Vec<IoEvent>>>| -> lob_pagestore::FaultHook {
                let events = Arc::clone(events);
                Arc::new(move |ev, _| {
                    events.lock().push(ev);
                    FaultVerdict::Proceed
                })
            };
        let (group_events, bare_events) = (Arc::default(), Arc::default());
        let log = GroupCommitLog::new(LogManager::in_memory(), Duration::ZERO, 1);
        let mut bare = LogManager::in_memory();
        log.set_fault_hook(Some(consults(&group_events)));
        bare.set_fault_hook(Some(consults(&bare_events)));
        for i in 1..=5u8 {
            log.append_record(op_body(i));
            bare.append(op_body(i));
        }
        for upto in [Lsn(2), Lsn(2), Lsn(4)] {
            log.force(upto).unwrap();
            bare.force(upto).unwrap();
            assert_eq!(log.durable_lsn(), upto);
            assert_eq!(log.durable_lsn(), bare.durable_lsn());
            assert_eq!(log.unforced(), bare.unforced());
        }
        assert_eq!(log.unforced(), 1, "LSN 5 is still volatile");
        assert_eq!(*group_events.lock(), *bare_events.lock());
        assert_eq!(log.stats().forces, 2);
    }

    #[test]
    fn force_of_durable_prefix_is_noop() {
        let log = GroupCommitLog::new(LogManager::in_memory(), Duration::ZERO, 4);
        let l1 = log.append_record(op_body(1));
        log.force_all().unwrap();
        log.force(l1).unwrap();
        assert_eq!(log.durable_lsn(), l1);
    }

    #[test]
    fn concurrent_commits_share_forces() {
        let log = Arc::new(GroupCommitLog::new(
            LogManager::in_memory(),
            Duration::from_millis(2),
            4,
        ));
        let forces = Arc::new(AtomicUsize::new(0));
        {
            let forces = forces.clone();
            log.set_fault_hook(Some(Arc::new(move |ev, _| {
                if matches!(ev, IoEvent::LogForce) {
                    forces.fetch_add(1, Ordering::Relaxed);
                }
                FaultVerdict::Proceed
            })));
        }
        let per_thread = 32usize;
        let threads = 4usize;
        std::thread::scope(|s| {
            for t in 0..threads {
                let log = log.clone();
                s.spawn(move || {
                    for i in 0..per_thread {
                        let lsn = log.append_record(op_body((t * per_thread + i) as u8));
                        log.force(lsn).unwrap();
                    }
                });
            }
        });
        assert_eq!(log.unforced(), 0);
        assert_eq!(
            log.durable_lsn(),
            Lsn((threads * per_thread) as u64),
            "every commit durable"
        );
        let n = forces.load(Ordering::Relaxed);
        assert!(
            n < threads * per_thread,
            "group commit must amortize: {n} forces for {} commits",
            threads * per_thread
        );
    }

    #[test]
    fn gather_ends_once_every_registered_committer_has_joined() {
        // Two registered committers, a window far longer than the test and
        // a cap neither can reach: every group must close the moment the
        // other committer joins, so each round covers one commit of each.
        let window = Duration::from_secs(10);
        let log = GroupCommitLog::new(LogManager::in_memory(), window, 8);
        let forces = Arc::new(AtomicUsize::new(0));
        {
            let forces = forces.clone();
            log.set_fault_hook(Some(Arc::new(move |ev, _| {
                if matches!(ev, IoEvent::LogForce) {
                    forces.fetch_add(1, Ordering::Relaxed);
                }
                FaultVerdict::Proceed
            })));
        }
        let per_thread = 64usize;
        let committers = [log.register(), log.register()];
        let start = Instant::now();
        std::thread::scope(|s| {
            for (t, committer) in committers.iter().enumerate() {
                let log = &log;
                s.spawn(move || {
                    for i in 0..per_thread {
                        let lsn = log.append_record(op_body((t * per_thread + i) as u8));
                        log.force(lsn).unwrap();
                    }
                    log.deregister(committer);
                });
            }
        });
        let elapsed = start.elapsed();
        assert!(
            elapsed < window / 4,
            "gathers waited for the window: {elapsed:?}"
        );
        assert_eq!(log.durable_lsn(), Lsn(2 * per_thread as u64));
        let n = forces.load(Ordering::Relaxed);
        assert!(
            n <= per_thread + 1,
            "{n} forces for {} commits: a group closed before both committers joined",
            2 * per_thread
        );
        let ends = log.gather_ends();
        assert_eq!(ends.window, 0, "{ends:?}");
    }

    #[test]
    fn gather_ends_count_how_each_gather_closed() {
        // The window: a lone leader with nobody registered waits it out,
        // so its force never returns before the window has passed.
        let delay = Duration::from_millis(1);
        let log = GroupCommitLog::new(LogManager::in_memory(), delay, 8);
        let start = Instant::now();
        log.force(log.append_record(op_body(1))).unwrap();
        let waited = start.elapsed();
        assert!(waited >= delay, "the lone force returned after {waited:?}");
        let window = GatherEnds {
            window: 1,
            ..GatherEnds::default()
        };
        assert_eq!(log.gather_ends(), window);

        // The cap: two unregistered committers against `count` 2. The
        // window is far longer than the test, so neither can time out.
        let log = GroupCommitLog::new(LogManager::in_memory(), Duration::from_secs(10), 2);
        std::thread::scope(|s| {
            for i in 0..2u8 {
                let log = &log;
                s.spawn(move || log.force(log.append_record(op_body(i))).unwrap());
            }
        });
        let cap = GatherEnds {
            count_cap: 1,
            ..GatherEnds::default()
        };
        assert_eq!(log.gather_ends(), cap);

        // Everyone: of two registered committers one forces and the other
        // leaves; the gathering leader sees it leave, and its group
        // (just itself now) is complete.
        let log = GroupCommitLog::new(LogManager::in_memory(), Duration::from_secs(10), 8);
        let (_leader, other) = (log.register(), log.register());
        std::thread::scope(|s| {
            let leader = s.spawn(|| log.force(log.append_record(op_body(1))));
            log.deregister(&other);
            leader.join().unwrap().unwrap();
        });
        let all = GatherEnds {
            all_joined: 1,
            ..GatherEnds::default()
        };
        assert_eq!(log.gather_ends(), all);

        // Departed: the other committer stays registered, but the thread
        // that used it has exited, so the leader's group is itself.
        let log = long_window_log();
        let (leader, other) = (log.register(), log.register());
        used_by_an_exited_thread(&log, &other);
        log.mark_used(&leader);
        log.force(log.append_record(op_body(1))).unwrap();
        let departed = GatherEnds {
            departed: 1,
            ..GatherEnds::default()
        };
        assert_eq!(log.gather_ends(), departed);
    }

    /// Record `committer` as used by a thread that has exited by the time
    /// this returns (`join` waits for the thread's locals to drop).
    fn used_by_an_exited_thread(log: &GroupCommitLog, committer: &Committer) {
        std::thread::scope(|s| s.spawn(|| log.mark_used(committer)).join().unwrap());
    }

    /// A group log whose window is far longer than any test.
    fn long_window_log() -> GroupCommitLog {
        GroupCommitLog::new(LogManager::in_memory(), Duration::from_secs(10), 8)
    }

    #[test]
    fn a_committer_whose_thread_exited_is_not_waited_for() {
        let log = long_window_log();
        let (me, gone) = (log.register(), log.register());
        used_by_an_exited_thread(&log, &gone);
        log.mark_used(&me);
        let start = Instant::now();
        log.force(log.append_record(op_body(1))).unwrap();
        let waited = start.elapsed();
        assert!(
            waited < Duration::from_secs(1),
            "the force waited {waited:?} for a committer whose thread exited"
        );
        assert_eq!(log.stats().forces, 1);
        assert_eq!(log.gather_ends().departed, 1);
    }

    /// Force from this thread (recorded on `me`) while another thread,
    /// recorded on `other` first, commits 50 ms later: well after the
    /// leader has started gathering, and well inside its window.
    fn force_beside_a_late_commit(log: &GroupCommitLog, me: &Committer, other: &Committer) {
        log.mark_used(me);
        let picked_up = AtomicBool::new(false);
        std::thread::scope(|s| {
            let late = s.spawn(|| {
                log.mark_used(other);
                picked_up.store(true, Ordering::Release);
                std::thread::sleep(Duration::from_millis(50));
                log.force(log.append_record(op_body(2)))
            });
            while !picked_up.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            log.force(log.append_record(op_body(1))).unwrap();
            late.join().unwrap().unwrap();
        });
        assert_eq!(log.durable_lsn(), Lsn(2));
    }

    #[test]
    fn a_departed_committer_picked_up_by_a_live_thread_is_waited_for_again() {
        let log = long_window_log();
        let (me, other) = (log.register(), log.register());
        used_by_an_exited_thread(&log, &other);
        force_beside_a_late_commit(&log, &me, &other);
        assert_eq!(
            log.stats().forces,
            1,
            "the leader closed its group before the picked-up committer joined"
        );
        let all = GatherEnds {
            all_joined: 1,
            ..GatherEnds::default()
        };
        assert_eq!(log.gather_ends(), all);
    }

    #[test]
    fn a_busy_live_committer_is_still_waited_for() {
        let log = long_window_log();
        let (me, busy) = (log.register(), log.register());
        force_beside_a_late_commit(&log, &me, &busy);
        assert_eq!(
            log.stats().forces,
            1,
            "the busy committer's commit rides the leader's force"
        );
        assert_eq!(log.gather_ends().all_joined, 1);
    }

    #[test]
    fn follower_parks_through_a_force_longer_than_the_window() {
        // The leader's force stalls in the fault hook until the follower's
        // on-CPU poll has run out and it has parked; the follower must
        // then get its outcome from the round's publication.
        let window = Duration::from_millis(1);
        let log = Arc::new(GroupCommitLog::new(LogManager::in_memory(), window, 2));
        let forcing = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        {
            let (forcing, release) = (forcing.clone(), release.clone());
            log.set_fault_hook(Some(Arc::new(move |ev, _| {
                if matches!(ev, IoEvent::LogForce) && !forcing.swap(true, Ordering::AcqRel) {
                    while !release.load(Ordering::Acquire) {
                        std::thread::sleep(window);
                    }
                }
                FaultVerdict::Proceed
            })));
        }
        // Whether `what` came true within a bound far above any schedule.
        let came_true = |what: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(30);
            while !what() {
                if Instant::now() >= deadline {
                    return false;
                }
                std::thread::sleep(window);
            }
            true
        };
        log.append_record(op_body(1));
        let l2 = log.append_record(op_body(2));
        std::thread::scope(|s| {
            let leader = s.spawn(|| log.force_all());
            assert!(came_true(&|| forcing.load(Ordering::Acquire)));
            let follower = s.spawn(|| log.force(l2));
            let parked = came_true(&|| log.parked_waits() == 1);
            // Released either way, so a failure cannot hang the scope.
            release.store(true, Ordering::Release);
            assert!(parked, "the follower never parked");
            leader.join().unwrap().unwrap();
            follower.join().unwrap().unwrap();
        });
        assert_eq!(log.durable_lsn(), l2);
        assert_eq!(
            log.stats().forces,
            1,
            "the follower rode the leader's force"
        );
        assert_eq!(log.parked_waits(), 1);
    }

    #[test]
    fn crash_during_group_commit_fans_typed_error_to_waiters() {
        let log = Arc::new(GroupCommitLog::new(
            LogManager::in_memory(),
            Duration::from_millis(5),
            3,
        ));
        // Crash the very first force at its LogForce consult.
        log.set_fault_hook(Some(Arc::new(|ev, _| {
            if matches!(ev, IoEvent::LogForce) {
                FaultVerdict::Crash
            } else {
                FaultVerdict::Proceed
            }
        })));
        let errors = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for t in 0..3 {
                let log = log.clone();
                let errors = errors.clone();
                s.spawn(move || {
                    let lsn = log.append_record(op_body(t));
                    match log.force(lsn) {
                        Err(LogError::InjectedCrash) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("expected InjectedCrash, got {other:?}"),
                    }
                });
            }
        });
        assert_eq!(
            errors.load(Ordering::Relaxed),
            3,
            "every member of the crashed group sees the typed error"
        );
        assert_eq!(log.durable_lsn(), Lsn::NULL, "nothing became durable");
        // Complete the crash: the tail is lost, later commits work again.
        log.set_fault_hook(None);
        log.crash();
        let lsn = log.append_record(op_body(9));
        log.force(lsn).unwrap();
        assert_eq!(log.durable_lsn(), lsn);
    }

    #[test]
    fn force_of_wiped_record_fails_even_after_watermark_passes_it() {
        let log = GroupCommitLog::new(LogManager::in_memory(), Duration::ZERO, 1);
        let l1 = log.append_record(op_body(1));
        log.crash();
        assert!(
            matches!(log.force(l1), Err(LogError::InjectedCrash)),
            "the record is in the lost tail; force must not report durability"
        );
        // Post-crash commits (fresh, higher LSNs) push the durable
        // watermark past the hole — the wiped record must stay failed.
        let l2 = log.append_record(op_body(2));
        assert!(l2 > l1);
        log.force(l2).unwrap();
        assert_eq!(log.durable_lsn(), l2);
        assert!(matches!(log.force(l1), Err(LogError::InjectedCrash)));
        // Forcing everything currently appended is still fine.
        log.force_all().unwrap();
    }

    #[test]
    fn crash_during_gather_does_not_fake_durability() {
        let log = Arc::new(GroupCommitLog::new(
            LogManager::in_memory(),
            Duration::from_millis(50),
            8,
        ));
        let lsn = log.append_record(op_body(1));
        std::thread::scope(|s| {
            let forcer = {
                let log = log.clone();
                s.spawn(move || log.force(lsn))
            };
            std::thread::sleep(Duration::from_millis(10));
            log.crash();
            // Whatever the interleaving (crash before, during, or after
            // the leader's round), Ok must imply the record is durable.
            match forcer.join().unwrap() {
                Ok(()) => assert!(log.durable_lsn() >= lsn, "Ok but record not durable"),
                Err(e) => assert!(matches!(e, LogError::InjectedCrash), "unexpected: {e:?}"),
            }
        });
    }

    #[test]
    fn partial_gate_bounds_durable_prefix() {
        let log = GroupCommitLog::new(LogManager::in_memory(), Duration::ZERO, 1);
        // Gate the third frame of the force: LSNs 1..=2 become durable.
        let seen = AtomicUsize::new(0);
        log.set_fault_hook(Some(Arc::new(move |ev, _| {
            if matches!(ev, IoEvent::LogAppend) && seen.fetch_add(1, Ordering::Relaxed) == 2 {
                FaultVerdict::Crash
            } else {
                FaultVerdict::Proceed
            }
        })));
        for i in 1..=4u8 {
            log.append_record(op_body(i));
        }
        assert!(matches!(log.force_all(), Err(LogError::InjectedCrash)));
        assert_eq!(log.durable_lsn(), Lsn(2));
    }
}
