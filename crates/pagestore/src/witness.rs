//! The runtime witnesses: I/O ordering and lock ranks.
//!
//! The paper's correctness argument is an ordering argument: log before
//! install, copy before the cursor moves. [`ORDER_CONTRACTS`] states it as
//! `(consumer, requires)` event pairs, mirrored row-for-row by `lob-lint`'s
//! static `durability` pass (the agreement is asserted in the lint workspace
//! test). Instrumented I/O sites call [`io_order`] with their event name; a
//! consumer observed before any occurrence of its required generator is a
//! witnessed ordering violation.
//!
//! A [`Witness`] is a value owned by one drill case. The case runs its body
//! as `w.run(|| …)`, which makes `w` the calling thread's current witness for
//! the body's duration; [`io_order`] reports to the current thread's witness
//! and does nothing on a thread that has none. Threads the case spawns carry
//! it explicitly: the spawn site captures [`current`] and the thread body
//! runs under [`within`]. There is no arming and no nesting, so two cases in
//! one process — libtest's default — never see each other's events.
//!
//! The seen-set is per witness, not per thread: the parallel drills force
//! the log on the coordinator thread while worker threads install pages,
//! which is exactly the discipline the paper requires.
//!
//! The engine's deadlock-freedom rests on one lock order, stated once as
//! [`Rank`]. Every lock in the workspace is a [`Mutex`] or [`RwLock`] from
//! this module, built with its rank (and, for a family of like locks, its
//! index). Each acquisition checks the calling thread's held locks: the new
//! `(rank, index)` must be strictly above all of them, so a family is taken
//! in ascending index order and a held lock is never taken again. A
//! violation panics, naming both locks and everything the thread holds.
//! The check is per thread and needs no drill case: it holds on every path
//! a test runs.
//!
//! Both witnesses compile to nothing unless `cfg(any(test, feature =
//! "witness"))`: [`current`] is then always `None`, [`within`] just runs its
//! body, [`io_order`] is empty, and a ranked lock and its guard are the size
//! of the `parking_lot` ones they wrap. `lob-harness` enables the feature,
//! so every workspace-level test build carries the probes.

use std::ops::{Deref, DerefMut};

/// Declared durability-ordering contracts, as `(consumer, requires)` rows:
/// the consumer event must never be the first of the pair a witness
/// observes. These rows mirror the `// lint: durability(X requires Y)`
/// declarations the static pass verifies on the CFG — `lob-lint`'s
/// workspace test asserts the two tables agree row-for-row.
///
/// - `PageFlush requires LogForce` — cache write-out installs a page whose
///   update records must already be on stable log (WAL, paper §2).
/// - `PageWrite requires LogForce` — ditto for direct store installs
///   (recovery redo, restore) — no page version may hit the stable store
///   before *some* force has made the log tail durable.
/// - `BackupCopy requires PageRead` — the backup image only receives pages
///   that were actually read from the store under the sweep's latches
///   (paper §5.3's fuzzy-copy protocol), never fabricated state.
/// - `CursorAdvance requires BackupCopy` — the sweep cursor only moves
///   past a batch after the batch's pages landed in the image; advancing
///   first would leave an unrecoverable hole on crash.
/// - `SegmentInstall requires ArchiveRead` — an instant-restore segment
///   install only happens after the segment's records were fetched from
///   the generation's page-indexed archive (checksum-verified); installing
///   first would write pages whose provenance was never validated.
pub const ORDER_CONTRACTS: &[(&str, &str)] = &[
    ("PageFlush", "LogForce"),
    ("PageWrite", "LogForce"),
    ("BackupCopy", "PageRead"),
    ("CursorAdvance", "BackupCopy"),
    ("SegmentInstall", "ArchiveRead"),
];

/// The lock order, lowest rank first: a thread may take a lock only while
/// every lock it holds ranks strictly below it. Locks of one family share
/// a rank and are told apart by their index, taken in ascending order.
///
/// The sweep's backup latch (paper §3) sits inside a flusher's domain lock
/// and outside the log: a flush latches, logs its identity writes, forces
/// and writes out under the latch. Everything from [`Rank::LinkedImage`] up
/// is held for one copy or lookup at a time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rank {
    /// `EngineService::instant`: the instant-restore epoch, held across a
    /// segment restore.
    Instant,
    /// `EngineService::meta`: backup identity, retention, the fault hook.
    Meta,
    /// `EngineService::domains[_]`, indexed by domain.
    Domain,
    /// A domain's `ProgressTracker` state, indexed by domain: the backup
    /// latch, shared by flushers and exclusive when the sweep moves `D`/`P`.
    TrackerLatch,
    /// `GroupCommitLog::state`: leader election and round bookkeeping.
    GroupState,
    /// `GroupCommitLog::committers`: the registered committers.
    GroupCommitters,
    /// `GroupCommitLog::manager`: the wrapped log, held for a force or a
    /// scan (recovery replays into the store inside one).
    GroupManager,
    /// `BackupCatalog::generations`: the registered backup generations.
    CatalogGenerations,
    /// `BackupCoordinator::changed`: per-domain changed-page sets.
    CoordinatorChanged,
    /// An in-progress linked-flush backup's image.
    LinkedImage,
    /// `ShardedCache::shards[_]`, indexed by shard.
    CacheShard,
    /// `StableStore::hook`: the store's fault hook slot.
    StoreHook,
    /// `StableStore::partitions[_]`, indexed by partition.
    StorePartition,
    /// `BackupCoordinator::hook`: the sweep's fault hook slot.
    CoordinatorHook,
    /// `BackupCatalog::hook`: the catalog's fault hook slot, held while the
    /// hook runs.
    CatalogHook,
    /// A fault plan's record of the page it fired at (`lob-harness`).
    FaultPage,
    /// A fault plan's record of the event it fired at (`lob-harness`).
    FaultEvent,
    /// A [`Witness`]'s own state, which any I/O site reports to.
    Witness,
}

/// A lock built with its [`Rank`]: `Ranked<parking_lot::Mutex<T>>` is this
/// module's [`Mutex`], `Ranked<parking_lot::RwLock<T>>` its [`RwLock`].
pub struct Ranked<L> {
    lock: L,
    key: imp::Key,
}

/// A ranked mutex.
pub type Mutex<T> = Ranked<parking_lot::Mutex<T>>;
/// A ranked reader-writer lock.
pub type RwLock<T> = Ranked<parking_lot::RwLock<T>>;
/// A ranked mutex's guard.
pub type MutexGuard<'a, T> = Guard<parking_lot::MutexGuard<'a, T>>;
/// A ranked reader-writer lock's shared guard.
pub type RwLockReadGuard<'a, T> = Guard<parking_lot::RwLockReadGuard<'a, T>>;
/// A ranked reader-writer lock's exclusive guard.
pub type RwLockWriteGuard<'a, T> = Guard<parking_lot::RwLockWriteGuard<'a, T>>;

/// A ranked lock's guard: the `parking_lot` guard, plus (under the
/// witness) the held-stack entry that dropping it pops.
pub struct Guard<G> {
    inner: G,
    held: imp::Held,
}

impl<T> Mutex<T> {
    /// A mutex of rank `rank`.
    pub fn new(rank: Rank, value: T) -> Self {
        Ranked {
            lock: parking_lot::Mutex::new(value),
            key: imp::Key::new(rank, None),
        }
    }

    /// Member `index` of a family of mutexes of rank `rank`.
    pub fn indexed(rank: Rank, index: usize, value: T) -> Self {
        Ranked {
            lock: parking_lot::Mutex::new(value),
            key: imp::Key::new(rank, Some(index)),
        }
    }

    /// Take the lock; under the witness, panics if the calling thread
    /// holds a lock of this rank or above.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let held = self.key.acquire();
        Guard {
            inner: self.lock.lock(),
            held,
        }
    }

    /// Consume the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.lock.into_inner()
    }

    /// The value, without locking: the borrow is exclusive.
    pub fn get_mut(&mut self) -> &mut T {
        self.lock.get_mut()
    }
}

impl<T> RwLock<T> {
    /// A reader-writer lock of rank `rank`.
    pub fn new(rank: Rank, value: T) -> Self {
        Ranked {
            lock: parking_lot::RwLock::new(value),
            key: imp::Key::new(rank, None),
        }
    }

    /// Member `index` of a family of reader-writer locks of rank `rank`.
    pub fn indexed(rank: Rank, index: usize, value: T) -> Self {
        Ranked {
            lock: parking_lot::RwLock::new(value),
            key: imp::Key::new(rank, Some(index)),
        }
    }

    /// Take the lock shared; ranked exactly like [`Mutex::lock`], so a
    /// thread never takes it twice, not even for read.
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let held = self.key.acquire();
        Guard {
            inner: self.lock.read(),
            held,
        }
    }

    /// Take the lock exclusive.
    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let held = self.key.acquire();
        Guard {
            inner: self.lock.write(),
            held,
        }
    }
}

impl<L: std::fmt::Debug> std::fmt::Debug for Ranked<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.lock.fmt(f)
    }
}

impl<'a, T> MutexGuard<'a, T> {
    /// Block on `cv` until notified, the lock released while parked. The
    /// lock keeps its place on the held stack: a parked thread takes
    /// nothing, and it wakes holding the lock again.
    pub fn wait(self, cv: &parking_lot::Condvar) -> Self {
        let Guard { inner, held } = self;
        Guard {
            inner: cv.wait(inner),
            held,
        }
    }
}

impl<G: Deref> Deref for Guard<G> {
    type Target = G::Target;
    #[inline]
    fn deref(&self) -> &G::Target {
        &self.inner
    }
}

impl<G: DerefMut> DerefMut for Guard<G> {
    #[inline]
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.inner
    }
}

// Without the witness a ranked lock and its guard cost nothing over the
// `parking_lot` ones.
#[cfg(not(any(test, feature = "witness")))]
const _: () = {
    use std::mem::size_of;
    assert!(size_of::<Mutex<u64>>() == size_of::<parking_lot::Mutex<u64>>());
    assert!(size_of::<RwLock<u64>>() == size_of::<parking_lot::RwLock<u64>>());
    assert!(size_of::<MutexGuard<'_, u64>>() == size_of::<parking_lot::MutexGuard<'_, u64>>());
    assert!(
        size_of::<RwLockReadGuard<'_, u64>>() == size_of::<parking_lot::RwLockReadGuard<'_, u64>>()
    );
};

#[cfg(any(test, feature = "witness"))]
mod imp {
    use super::{Mutex, Rank};
    use std::cell::RefCell;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::Arc;

    /// A lock's place in the order: its rank, then its index in a family.
    /// A lock outside a family (`None`) sorts below index 0 of its rank.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub struct Key {
        rank: Rank,
        index: Option<usize>,
    }

    impl std::fmt::Display for Key {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self.index {
                Some(i) => write!(f, "{:?}[{i}]", self.rank),
                None => write!(f, "{:?}", self.rank),
            }
        }
    }

    thread_local! {
        // lint:allow(atomics) the held stack is per thread by construction
        static HELD: RefCell<Vec<Key>> = const { RefCell::new(Vec::new()) };
    }

    impl Key {
        pub fn new(rank: Rank, index: Option<usize>) -> Key {
            Key { rank, index }
        }

        /// Push this lock on the calling thread's held stack, or panic if
        /// it does not rank above everything there. Every push is above
        /// the rest, so the stack stays sorted and its top is its maximum.
        pub fn acquire(self) -> Held {
            let clash = HELD.with(|h| {
                let mut held = h.borrow_mut();
                match held.last() {
                    Some(&top) if top >= self => Some((top, held.clone())),
                    _ => {
                        held.push(self);
                        None
                    }
                }
            });
            // Panic only once the stack is released: the unwind drops the
            // thread's other guards, and each pops itself.
            if let Some((top, held)) = clash {
                violated(self, top, &held);
            }
            Held(self)
        }
    }

    #[cold]
    #[expect(
        clippy::panic,
        reason = "a lock-order violation is the bug the witness exists to stop"
    )]
    fn violated(taking: Key, top: Key, held: &[Key]) -> ! {
        let held: Vec<String> = held.iter().map(Key::to_string).collect();
        panic!(
            "lock order violated: taking `{taking}` while holding `{top}` \
             (held, lowest first: [{}]); the order is `lob_pagestore::witness::Rank`",
            held.join(", ")
        )
    }

    /// A guard's entry on its thread's held stack; dropping it pops the
    /// entry, wherever it sits (guards need not drop in reverse order).
    pub struct Held(Key);

    impl Drop for Held {
        fn drop(&mut self) {
            // A guard dropped during thread teardown finds no stack.
            let _ = HELD.try_with(|h| {
                if let Ok(mut held) = h.try_borrow_mut() {
                    if let Some(at) = held.iter().rposition(|k| *k == self.0) {
                        held.remove(at);
                    }
                }
            });
        }
    }

    #[derive(Default)]
    struct State {
        /// Events observed so far, by kind: the seen-set and the event
        /// counts in one map.
        seen: BTreeMap<&'static str, u64>,
        /// Consumer kinds already reported, so a hot loop reports once.
        reported: BTreeSet<&'static str>,
        violations: Vec<String>,
    }

    /// One case's ordering witness. Cloning shares it: every clone reports
    /// into the same seen-set.
    #[derive(Clone)]
    pub struct Witness(Arc<Mutex<State>>);

    impl Default for Witness {
        fn default() -> Witness {
            Witness(Arc::new(Mutex::new(Rank::Witness, State::default())))
        }
    }

    thread_local! {
        // lint:allow(atomics) the current-witness slot is per thread by construction
        static CURRENT: RefCell<Option<Witness>> = const { RefCell::new(None) };
    }

    impl Witness {
        /// A fresh witness that has seen nothing.
        pub fn new() -> Witness {
            Witness::default()
        }

        /// Run `body` with this witness current on the calling thread.
        pub fn run<R>(&self, body: impl FnOnce() -> R) -> R {
            within(Some(self.clone()), body)
        }

        /// Ordering events observed so far.
        pub fn events(&self) -> u64 {
            self.0.lock().seen.values().sum()
        }

        /// Events of one kind observed so far.
        pub fn count(&self, event: &str) -> u64 {
            self.0.lock().seen.get(event).copied().unwrap_or(0)
        }

        /// Drain recorded violations (empty when every consumer event was
        /// preceded by its required generator).
        pub fn take_violations(&self) -> Vec<String> {
            std::mem::take(&mut self.0.lock().violations)
        }

        fn record(&self, event: &'static str) {
            let mut st = self.0.lock();
            for (consumer, requires) in super::ORDER_CONTRACTS {
                if *consumer == event
                    && !st.seen.contains_key(requires)
                    && st.reported.insert(event)
                {
                    st.violations.push(format!(
                        "ordering witness: `{event}` observed before any `{requires}` — \
                         the log-before-install discipline was violated"
                    ));
                }
            }
            *st.seen.entry(event).or_insert(0) += 1;
        }
    }

    /// Prints the per-kind event counts.
    impl std::fmt::Debug for Witness {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_map().entries(self.0.lock().seen.iter()).finish()
        }
    }

    /// The calling thread's current witness, for a spawn site to hand to
    /// the thread it starts.
    pub fn current() -> Option<Witness> {
        CURRENT.with(|c| c.borrow().clone())
    }

    /// Run `body` with `witness` current on the calling thread, restoring
    /// the previous one afterwards (also on unwind).
    pub fn within<R>(witness: Option<Witness>, body: impl FnOnce() -> R) -> R {
        struct Restore(Option<Witness>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0.take();
                CURRENT.with(|c| *c.borrow_mut() = prev);
            }
        }
        let _restore = Restore(CURRENT.with(|c| c.replace(witness)));
        body()
    }

    /// Record an I/O ordering event by kind (a name from
    /// [`super::ORDER_CONTRACTS`]) with the current thread's witness. A
    /// consumer event whose required generator that witness has not seen
    /// is a violation, reported once per consumer kind.
    pub fn io_order(event: &'static str) {
        if let Some(w) = current() {
            w.record(event);
        }
    }
}

#[cfg(any(test, feature = "witness"))]
pub use imp::{current, io_order, within, Witness};

#[cfg(not(any(test, feature = "witness")))]
mod imp {
    /// A lock's rank, compiled out.
    #[derive(Clone, Copy)]
    pub struct Key;

    impl Key {
        #[inline(always)]
        pub fn new(_rank: super::Rank, _index: Option<usize>) -> Key {
            Key
        }

        #[inline(always)]
        pub fn acquire(self) -> Held {
            Held
        }
    }

    /// A guard's held-stack entry, compiled out.
    pub struct Held;

    /// Uninhabited: with the witness compiled out no thread has one.
    pub enum Witness {}

    /// Always `None` (witness compiled out).
    #[inline(always)]
    pub fn current() -> Option<Witness> {
        None
    }

    /// Runs `body` (witness compiled out).
    #[inline(always)]
    pub fn within<R>(_witness: Option<Witness>, body: impl FnOnce() -> R) -> R {
        body()
    }

    /// No-op (witness compiled out).
    #[inline(always)]
    pub fn io_order(_event: &'static str) {}
}

#[cfg(not(any(test, feature = "witness")))]
pub use imp::{current, io_order, within, Witness};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consumer_after_generator_is_clean() {
        let w = Witness::new();
        w.run(|| {
            for event in [
                "LogForce",
                "PageRead",
                "BackupCopy",
                "PageFlush",
                "PageWrite",
                "CursorAdvance",
            ] {
                io_order(event);
            }
        });
        assert!(w.take_violations().is_empty());
        assert_eq!(w.events(), 6);
    }

    #[test]
    fn consumer_before_generator_is_flagged_once() {
        let w = Witness::new();
        w.run(|| {
            io_order("CursorAdvance");
            io_order("CursorAdvance");
        });
        let v = w.take_violations();
        assert_eq!(v.len(), 1, "violations: {v:?}");
        assert!(v[0].contains("CursorAdvance") && v[0].contains("BackupCopy"));
        assert_eq!(w.count("CursorAdvance"), 2);
    }

    #[test]
    fn probes_report_only_to_the_current_threads_witness() {
        let w = Witness::new();
        // No witness on this thread yet: the probe is dropped.
        io_order("PageWrite");
        w.run(|| {
            // A thread started without the witness does not report to it…
            std::thread::spawn(|| io_order("PageWrite")).join().unwrap();
            // …one that carries it does.
            let carried = current();
            std::thread::spawn(move || within(carried, || io_order("LogForce")))
                .join()
                .unwrap();
            io_order("PageWrite");
        });
        // The witness is no longer current once `run` returns.
        io_order("PageFlush");
        assert!(current().is_none());
        assert!(w.take_violations().is_empty());
        assert_eq!((w.count("LogForce"), w.count("PageWrite")), (1, 1));
        assert_eq!(w.events(), 2);
    }

    /// The panic message of `body`, which must panic.
    fn violation(body: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body))
            .expect_err("the acquisition must panic");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn an_inversion_panics_naming_both_locks() {
        let meta = Mutex::new(Rank::Meta, 0u32);
        let group = Mutex::new(Rank::GroupState, 0u32);
        let msg = violation(|| {
            let _g = group.lock();
            let _m = meta.lock();
        });
        assert!(
            msg.contains("taking `Meta` while holding `GroupState`"),
            "message: {msg}"
        );
        assert!(msg.contains("[GroupState]"), "message: {msg}");
        // The unwind popped the group guard: nothing is held any more.
        let _m = meta.lock();
        let _g = group.lock();
    }

    #[test]
    fn a_family_is_taken_in_ascending_index_order() {
        let domains: Vec<Mutex<u32>> = (0..3).map(|i| Mutex::indexed(Rank::Domain, i, 0)).collect();
        let all: Vec<_> = domains.iter().map(Mutex::lock).collect();
        drop(all);
        let msg = violation(|| {
            let _two = domains[2].lock();
            let _one = domains[1].lock();
        });
        assert!(
            msg.contains("taking `Domain[1]` while holding `Domain[2]`"),
            "message: {msg}"
        );
    }

    #[test]
    fn a_dropped_guard_lets_a_lower_rank_be_taken() {
        let meta = Mutex::new(Rank::Meta, ());
        let latch = RwLock::indexed(Rank::TrackerLatch, 0, ());
        let shard = Mutex::indexed(Rank::CacheShard, 0, ());
        let l = latch.read();
        let s = shard.lock();
        // Guards drop in any order; each pops its own entry.
        drop(l);
        drop(s);
        let _m = meta.lock();
        let _l = latch.write();
    }

    #[test]
    fn re_reading_a_held_rwlock_panics() {
        let generations = RwLock::new(Rank::CatalogGenerations, ());
        let msg = violation(|| {
            let _first = generations.read();
            let _second = generations.read();
        });
        assert!(
            msg.contains("taking `CatalogGenerations` while holding `CatalogGenerations`"),
            "message: {msg}"
        );
    }

    #[test]
    fn a_condvar_wait_keeps_the_rank() {
        let state = Mutex::new(Rank::GroupState, false);
        let cv = parking_lot::Condvar::new();
        let st = state.lock();
        std::thread::scope(|s| {
            s.spawn(|| {
                *state.lock() = true;
                cv.notify_all();
            });
            let mut st = st;
            while !*st {
                st = st.wait(&cv);
            }
            // Still held after the wait: a lower rank is refused.
            let meta = Mutex::new(Rank::Meta, ());
            let msg = violation(|| drop(meta.lock()));
            assert!(msg.contains("while holding `GroupState`"), "message: {msg}");
        });
    }
}
