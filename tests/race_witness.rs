//! The dynamic half of the concurrency-lint contract (DESIGN.md §5.11).
//!
//! `lob-lint`'s guarded-by pass infers, statically, which lock protects
//! each shared field; `lob_pagestore::witness` checks the same discipline
//! at runtime with an Eraser-style lock-set intersection. This test drives
//! the real threaded paths — a parallel backup sweep and a
//! partition-parallel restore — with the witness armed and demands zero
//! empty lock-sets, then proves the witness has teeth by running a
//! deliberately unguarded access pattern and requiring a violation.
//!
//! The unguarded fixture here mirrors the *static* fixture
//! `crates/lint/tests/fixtures/bad_guarded.rs`: the same struct shape is
//! caught by pass 6 at lint time and by the witness at run time.

use lob_core::{
    BackupPolicy, Discipline, Engine, EngineConfig, GraphMode, LogBacking, PageId, PartitionId,
    PartitionSpec, RecoveryConfig, Tracking,
};
use lob_harness::{DrillPath, FaultKind, ParallelDrillConfig, ParallelDrillRunner, WorkloadGen};
use lob_pagestore::witness;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The witness registry is process-global, so tests that arm/disarm it
/// must not interleave within this binary.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn parallel_sweep_keeps_every_lock_set_nonempty() {
    let _serial = serial();
    // `run_case` arms the witness itself and fails the case on any
    // violation; a clean sweep therefore *is* the zero-empty-lock-sets
    // assertion. The event count proves the witness actually watched.
    let runner = ParallelDrillRunner::new(ParallelDrillConfig::small(0x11CE));
    let case = runner.run_case(FaultKind::CountOnly).unwrap();
    assert_eq!(case.path, DrillPath::CleanSweep);
    assert_eq!(case.workers, 4);
    assert!(
        case.witness_events > 100,
        "witness recorded only {} events — instrumentation missing?",
        case.witness_events
    );
}

#[test]
fn faulted_sweeps_stay_clean_under_the_witness() {
    let _serial = serial();
    // Crash and media-failure cases exercise the recovery-side accesses
    // (release, scrub, media restore) under the same discipline.
    for kind in [FaultKind::CrashAt(40), FaultKind::MediaFailAt(30)] {
        let runner = ParallelDrillRunner::new(ParallelDrillConfig::small(0x5EED));
        let case = runner.run_case(kind).unwrap();
        assert!(case.fired, "{kind:?} never fired");
        assert!(case.witness_events > 0);
    }
}

#[test]
fn parallel_restore_keeps_every_lock_set_nonempty() {
    let _serial = serial();
    const PARTS: u32 = 4;
    const PAGES: u32 = 16;
    const PAGE_SIZE: usize = 32;
    let mut engine = Engine::new(EngineConfig {
        page_size: PAGE_SIZE,
        partitions: (0..PARTS).map(|_| PartitionSpec { pages: PAGES }).collect(),
        discipline: Discipline::General,
        graph_mode: GraphMode::Refined,
        tracking: Tracking::PerPartition,
        cache_capacity: None,
        policy: BackupPolicy::Protocol,
        log: LogBacking::Memory,
        ..EngineConfig::small()
    })
    .unwrap();
    let mut gen = WorkloadGen::new(0xBEE5, PAGE_SIZE);
    for p in 0..PARTS {
        for i in 0..PAGES {
            engine.execute(gen.physical(PageId::new(p, i))).unwrap();
        }
    }
    engine.flush_all().unwrap();
    let base = engine.offline_backup().unwrap();
    for p in 0..PARTS {
        for _ in 0..8 {
            let pg = PageId::new(p, gen.below(PAGES as usize) as u32);
            engine.execute(gen.physio(pg)).unwrap();
        }
    }
    engine.force_log().unwrap();
    for p in 0..engine.store().partition_count() {
        engine.store().fail_partition(PartitionId(p)).unwrap();
    }

    witness::arm();
    engine
        .parallel_restore_with(&base, RecoveryConfig::new(4, 8))
        .unwrap();
    let events = witness::events();
    let violations = witness::take_violations();
    witness::disarm();
    assert!(violations.is_empty(), "witness flagged: {violations:?}");
    assert!(
        events > 0,
        "parallel restore recorded no witness events — instrumentation missing?"
    );
}

/// A shared tally whose lock discipline is deliberately broken: `bump`
/// takes the gate, `bump_unlocked` does not. The value itself is atomic so
/// the *data* race is benign — the point is the lock-set race the witness
/// must catch. Same shape as the static fixture
/// `crates/lint/tests/fixtures/bad_guarded.rs`.
struct UnguardedTally {
    gate: Mutex<()>,
    hits: AtomicU64,
}

impl UnguardedTally {
    fn new() -> UnguardedTally {
        UnguardedTally {
            gate: Mutex::new(()),
            hits: AtomicU64::new(0),
        }
    }

    fn bump(&self) {
        let _g = self.gate.lock().unwrap();
        let _w = witness::hold("fixture/tally.gate");
        witness::access("UnguardedTally.hits");
        self.hits.fetch_add(1, Ordering::SeqCst);
    }

    fn bump_unlocked(&self) {
        witness::access("UnguardedTally.hits");
        self.hits.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn unguarded_fixture_is_caught_dynamically() {
    let _serial = serial();
    witness::arm();
    let tally = Arc::new(UnguardedTally::new());

    // First thread alone: Virgin → Exclusive, no discipline required yet.
    tally.bump();
    // Second thread, correctly locked: Exclusive → Shared, candidate set
    // seeded with the gate. Still no violation.
    let t = Arc::clone(&tally);
    std::thread::spawn(move || t.bump()).join().unwrap();
    assert!(
        witness::take_violations().is_empty(),
        "locked traffic must not trip the witness"
    );

    // The undisciplined access empties the candidate set: caught.
    tally.bump_unlocked();
    let violations = witness::take_violations();
    witness::disarm();
    assert_eq!(violations.len(), 1, "violations: {violations:?}");
    assert!(
        violations[0].contains("UnguardedTally.hits"),
        "unexpected report: {}",
        violations[0]
    );
    assert_eq!(tally.hits.load(Ordering::SeqCst), 3);
}
