//! Batched, partition-parallel restore & redo vs the reference scan.
//!
//! The replay scheduler's knobs must be *invisible* in the recovered
//! state: for every workload shape and every workers/batch setting, crash
//! recovery and media recovery must land byte-for-byte — payload and page
//! LSN — and outcome-for-outcome on what the record-at-a-time reference
//! (`redo_scan` over a `StoreRedoTarget` on a scratch store,
//! `lob_harness::reference`) produces from the same pages and log. The
//! torture sweeps settle every case against the same reference.

use lob_core::{BackupImage, Discipline, Engine, EngineConfig, RecoveryConfig};
use lob_harness::reference::{diff_stores, recover_checked, reference_replay, restore_checked};
use lob_harness::{Drill, FaultKind, Path, Report, WorkloadGen};
use lob_pagestore::{PageId, PartitionId};

const PAGES: u32 = 64;
const PAGE_SIZE: usize = 64;
const OPS: u32 = 80;

/// Drive one deterministic seeded session (everything is a pure function
/// of `seed`), leaving the engine *running* — callers crash or fail it as
/// the scenario demands. Returns the pre-session off-line backup image.
///
/// `backup` runs an on-line backup during the session (general ops).
fn driven_session(discipline: Discipline, backup: bool, seed: u64) -> (Engine, BackupImage) {
    let engine = Engine::new(EngineConfig {
        discipline,
        ..EngineConfig::single(PAGES, PAGE_SIZE)
    })
    .unwrap();
    let mut gen = WorkloadGen::new(seed, PAGE_SIZE);

    let all: Vec<PageId> = (0..PAGES).map(|i| PageId::new(0, i)).collect();
    let shuffled = gen.shuffled(&all);
    let prefill = 16;
    let mut used: Vec<PageId> = shuffled[..prefill].to_vec();
    let mut fresh: Vec<PageId> = shuffled[prefill..].to_vec();
    for &p in &used.clone() {
        engine.execute(gen.physical(p)).unwrap();
    }
    let base = engine.offline_backup().unwrap();

    let mut run = None;
    for opno in 0..OPS {
        let body = match discipline {
            Discipline::Tree => {
                if gen.chance(0.4) && !fresh.is_empty() {
                    let x = fresh.swap_remove(gen.below(fresh.len()));
                    let op = gen.copy_to_fresh(&used, x);
                    used.push(x);
                    op
                } else {
                    let p = used[gen.below(used.len())];
                    if gen.chance(0.5) {
                        gen.physio(p)
                    } else {
                        gen.physical(p)
                    }
                }
            }
            _ => {
                if gen.chance(0.5) && used.len() >= 4 {
                    gen.mix(&used, 2, 2)
                } else {
                    let p = used[gen.below(used.len())];
                    if gen.chance(0.5) {
                        gen.physio(p)
                    } else {
                        gen.physical(p)
                    }
                }
            }
        };
        engine.execute(body).unwrap();

        if gen.chance(0.4) {
            let dirty = engine.cache().dirty_pages();
            if !dirty.is_empty() {
                engine.flush_page(dirty[gen.below(dirty.len())]).unwrap();
            }
        }
        if gen.chance(0.2) {
            engine.force_log().unwrap();
        }

        if backup {
            if opno == 8 {
                run = Some(engine.begin_backup(4).unwrap());
            }
            if opno % 5 == 0 {
                if let Some(r) = run.as_mut() {
                    if engine.backup_step(r).unwrap() {
                        let r = run.take().unwrap();
                        let _ = engine.complete_backup(r).unwrap();
                    }
                }
            }
        }
    }
    (engine, base)
}

/// Crash a session and recover it with `rc`; the recovered store and the
/// `RedoOutcome` must equal the reference scan's over the same crashed
/// store and log suffix.
fn crash_and_compare(discipline: Discipline, backup: bool, seed: u64, rc: RecoveryConfig) {
    let (engine, _) = driven_session(discipline, backup, seed);
    engine.crash();
    recover_checked(&engine, rc).unwrap_or_else(|e| panic!("{discipline:?} {rc:?}: {e}"));
    assert_eq!(engine.stats().recoveries, 1);
}

const KNOB_GRID: [(usize, usize); 9] = [
    (1, 1),
    (1, 8),
    (1, 64),
    (2, 1),
    (2, 8),
    (2, 64),
    (4, 1),
    (4, 8),
    (4, 64),
];

#[test]
fn general_workload_parallel_recovery_matches_sequential_across_the_grid() {
    for (workers, batch) in KNOB_GRID {
        crash_and_compare(
            Discipline::General,
            false,
            0x6E4E,
            RecoveryConfig::new(workers, batch),
        );
    }
}

#[test]
fn tree_workload_parallel_recovery_matches_sequential_across_the_grid() {
    for (workers, batch) in KNOB_GRID {
        crash_and_compare(
            Discipline::Tree,
            false,
            0x72EE,
            RecoveryConfig::new(workers, batch),
        );
    }
}

#[test]
fn backup_concurrent_parallel_recovery_matches_sequential_across_the_grid() {
    for (workers, batch) in KNOB_GRID {
        crash_and_compare(
            Discipline::General,
            true,
            0xBAC6,
            RecoveryConfig::new(workers, batch),
        );
    }
}

/// Named regression: the default configuration (what `Engine::recover`
/// runs) and the write-through corner `workers = 1, batch = 1` — once a
/// separate code path — land on the reference on every workload shape.
#[test]
fn default_and_worker1_batch1_match_the_reference() {
    for (discipline, backup) in [
        (Discipline::General, false),
        (Discipline::Tree, false),
        (Discipline::General, true),
    ] {
        crash_and_compare(discipline, backup, 0x1B1, RecoveryConfig::default());
        crash_and_compare(discipline, backup, 0x1B1, RecoveryConfig::new(1, 1));
    }
}

/// Media recovery: fail the medium after a completed session and require
/// restore + roll-forward to land exactly where the reference lands, for
/// the same image and log.
#[test]
fn parallel_restore_matches_sequential_media_recovery() {
    for (workers, batch) in [(1, 1), (1, 4096), (2, 8), (4, 64)] {
        let rc = RecoveryConfig::new(workers, batch);
        let (engine, image) = driven_session(Discipline::General, true, 0x4E57);
        engine.store().fail_partition(PartitionId(0)).unwrap();
        restore_checked(&engine, &image, rc)
            .unwrap_or_else(|e| panic!("restore workers={workers} batch={batch}: {e}"));
        assert_eq!(engine.stats().media_recoveries, 1);
    }
}

/// Catalog-sourced restore: `parallel_restore_latest` must fetch the
/// *newest* registered generation (checksum-verified whole-image fetch)
/// and recover exactly like the reference restores that image.
#[test]
fn catalog_sourced_parallel_restore_uses_the_newest_generation() {
    let (engine, stale) = driven_session(Discipline::General, false, 0xCA7A);
    // Register the stale pre-session image first, then a fresh one: the
    // catalog must hand back the fresh one.
    let fresh = engine.offline_backup().unwrap();
    engine.register_backup_generation(stale).unwrap();
    engine.register_backup_generation(fresh.clone()).unwrap();

    engine.store().fail_partition(PartitionId(0)).unwrap();
    let got = engine
        .parallel_restore_latest_with(RecoveryConfig::new(4, 8))
        .unwrap();
    let records = engine.log().scan_from(fresh.start_lsn).unwrap();
    let (reference, want) = reference_replay(&engine, &fresh.pages, &records).unwrap();
    assert_eq!(got, want, "catalog restore: redo outcome diverges");
    diff_stores(&engine, &reference, "catalog restore").unwrap();
}

// ---------------------------------------------------------------------
// The torture suite's crash points, re-run with several workers. Every
// case is settled against the reference: the harness replays the
// surviving log record by record on a scratch store and byte-compares it
// with the engine's recovery.
// ---------------------------------------------------------------------

fn assert_no_divergence(label: &str, report: &Report) {
    let divergences = report.divergences();
    assert!(
        divergences.is_empty(),
        "{label}: {} divergence(s):\n{}",
        divergences.len(),
        divergences.join("\n")
    );
}

/// One crash sweep of the torture suite, re-run under `rc`.
fn parallel_crash_sweep(drill: Drill, rc: RecoveryConfig, max_points: usize) -> Report {
    let report = Drill {
        recovery: rc,
        ..drill
    }
    .sweep(&[FaultKind::CrashAt], max_points)
    .unwrap();
    assert_no_divergence(&format!("{rc:?}"), &report);
    assert_eq!(report.fired(), report.cases.len());
    assert!(report.count(Path::Crash) > 0);
    report
}

#[test]
fn parallel_crash_sweep_general_ops_matches_the_oracle_at_every_point() {
    let drill = Drill::ops(0xA11CE, Discipline::General);
    assert!(
        parallel_crash_sweep(drill, RecoveryConfig::new(4, 8), 100)
            .cases
            .len()
            >= 70
    );
}

#[test]
fn parallel_crash_sweep_tree_ops_matches_the_oracle_at_every_point() {
    let drill = Drill::ops(0xB0B, Discipline::Tree);
    assert!(
        parallel_crash_sweep(drill, RecoveryConfig::new(2, 64), 100)
            .cases
            .len()
            >= 70
    );
}

#[test]
fn parallel_crash_sweep_backup_concurrent_matches_the_oracle_at_every_point() {
    let drill = Drill::backup(0xCAFE);
    assert!(
        parallel_crash_sweep(drill, RecoveryConfig::new(4, 1), 110)
            .cases
            .len()
            >= 80
    );
}

/// The three parallel sweeps above arm the same seeds and point budgets as
/// the single-worker torture suite; together they re-run its 280+ distinct
/// crash points with several workers. (Point sets are a pure function of
/// seed, so counting them is cheap and exact.)
#[test]
fn parallel_sweeps_rerun_at_least_280_crash_points() {
    let mut total = 0;
    for (drill, max_points) in [
        (Drill::ops(0xA11CE, Discipline::General), 100),
        (Drill::ops(0xB0B, Discipline::Tree), 100),
        (Drill::backup(0xCAFE), 110),
    ] {
        let rc = RecoveryConfig::new(4, 8);
        let events = Drill {
            recovery: rc,
            ..drill
        }
        .case(FaultKind::CountOnly)
        .events;
        total += lob_harness::sample_indices(events, max_points).len();
    }
    assert!(
        total >= 280,
        "the multi-worker sweeps must re-run the suite's 280+ crash points (got {total})"
    );
}

/// Kill-during-parallel-restore: crash a *parallel* media recovery at
/// every sampled I/O event of the restore + roll-forward, then show that
/// simply re-running the parallel restore converges — and byte-matches
/// the reference.
#[test]
fn interrupted_parallel_restore_is_restartable() {
    let drill = Drill {
        recovery: RecoveryConfig::new(4, 8),
        ..Drill::restore(0x2E57)
    };
    let report = drill.sweep(&[FaultKind::CrashAt], 30).unwrap();
    assert_no_divergence("parallel restore crash drill", &report);
    assert!(
        report.cases.len() >= 20,
        "the restore must expose enough I/O events to torture (got {} over {})",
        report.cases.len(),
        report.events_total
    );
    assert!(report.fired() > 0, "restores must be interrupted");
    assert!(report.count(Path::Media) > 0, "restarts must converge");
}

/// Parallel sweeps stay reproducible per seed: recovery itself runs
/// fault-free (hooks are removed before replay), so thread fan-out never
/// perturbs which events exist or which faults fire.
#[test]
fn parallel_sweeps_are_reproducible_per_seed() {
    let drill = Drill::ops(99, Discipline::General);
    let a = parallel_crash_sweep(drill.clone(), RecoveryConfig::new(4, 8), 12);
    let b = parallel_crash_sweep(drill, RecoveryConfig::new(4, 8), 12);
    assert_eq!(a.to_string(), b.to_string());
}
