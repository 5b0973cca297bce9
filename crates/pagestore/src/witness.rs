//! The runtime ordering witness.
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
//! The witness compiles to no-ops unless `cfg(any(test, feature =
//! "witness"))`: [`current`] is then always `None`, [`within`] just runs its
//! body, and [`io_order`] is empty. `lob-harness` enables the feature, so
//! every workspace-level test build carries the probes.

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

#[cfg(any(test, feature = "witness"))]
mod imp {
    use parking_lot::Mutex;
    use std::cell::RefCell;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::Arc;

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
    #[derive(Clone, Default)]
    pub struct Witness(Arc<Mutex<State>>);

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
mod stub {
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
pub use stub::{current, io_order, within, Witness};

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
}
