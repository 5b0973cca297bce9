//! Partition-parallel sweep execution.
//!
//! §3.4: "backups of the different partitions can then be done in parallel"
//! — each order domain has independent `D`/`P` cursors, so one sweep worker
//! per domain never contends with another on progress tracking, and the
//! store's per-partition locks keep the copies atomic against concurrent
//! flushes without any cross-worker coordination ("coordination ... occurs
//! at the disk arm").
//!
//! [`ParallelSweep::sweep`] drives one OS thread per [`BackupRun`], each
//! looping [`BackupRun::step_batch`] until its domain is exhausted. Workers
//! share the coordinator and the store by reference (scoped threads); the
//! engine keeps executing operations concurrently because sweeps read `S`
//! directly and take only the per-step tracker latch.
//!
//! Faults do not tear the fleet: a worker that hits an error parks its run
//! (cursor and tracker untouched) and reports it, while the other domains
//! finish. The caller decides per report whether to heal-and-resume the
//! run, abort it, or escalate an injected crash.

use crate::coordinator::{BackupCoordinator, DomainId};
use crate::error::BackupError;
use crate::run::BackupRun;
use lob_pagestore::StableStore;

/// What one sweep worker did with its domain.
pub struct WorkerReport {
    /// The domain the worker swept.
    pub domain: DomainId,
    /// The backup id of the run the worker drove.
    pub backup_id: u64,
    /// Pages the run has copied so far (across resumes).
    pub pages_copied: u64,
    /// `step_batch` round-trips the worker performed (including a final
    /// failing one, if any).
    pub batches: u64,
    /// `Ok` if the domain completed; the run's error otherwise.
    pub outcome: Result<(), BackupError>,
    /// The run itself — finished on `Ok`, resumable (or abortable) on
    /// `Err`. `None` only if the worker thread panicked.
    pub run: Option<BackupRun>,
}

/// The threaded sweep executor: one worker per domain run.
pub struct ParallelSweep;

impl ParallelSweep {
    /// Sweep every run to completion concurrently, one worker thread per
    /// run, copying up to `batch` contiguous pages per store round-trip.
    ///
    /// Returns one report per run, in the order the runs were given. The
    /// call itself never fails: per-domain errors are carried in the
    /// reports so the surviving domains still finish their sweeps.
    pub fn sweep(
        coordinator: &BackupCoordinator,
        store: &StableStore,
        runs: Vec<BackupRun>,
        batch: u32,
    ) -> Vec<WorkerReport> {
        let mut reports = Vec::with_capacity(runs.len());
        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(runs.len());
            for mut run in runs {
                let domain = run.domain();
                let backup_id = run.backup_id();
                let witness = lob_pagestore::witness::current();
                let handle = s.spawn(move || {
                    lob_pagestore::witness::within(witness, || {
                        let mut batches = 0u64;
                        let outcome = loop {
                            batches += 1;
                            match run.step_batch(coordinator, store, batch) {
                                Ok(true) => break Ok(()),
                                Ok(false) => {}
                                Err(e) => break Err(e),
                            }
                        };
                        WorkerReport {
                            domain,
                            backup_id,
                            pages_copied: run.pages_copied(),
                            batches,
                            outcome,
                            run: Some(run),
                        }
                    })
                });
                handles.push((domain, backup_id, handle));
            }
            for (domain, backup_id, handle) in handles {
                reports.push(match handle.join() {
                    Ok(report) => report,
                    // The run died with its thread; its tracker stays
                    // active and the caller must reset the domain.
                    Err(_) => WorkerReport {
                        domain,
                        backup_id,
                        pages_copied: 0,
                        batches: 0,
                        outcome: Err(BackupError::BadState("backup sweep worker panicked".into())),
                        run: None,
                    },
                });
            }
        });
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunConfig;
    use bytes::Bytes;
    use lob_pagestore::{Lsn, Page, PageId, PartitionId, PartitionSpec, StoreConfig};

    fn setup(parts: u32, pages: u32) -> (StableStore, BackupCoordinator) {
        let layout: Vec<(PartitionId, u32)> = (0..parts).map(|p| (PartitionId(p), pages)).collect();
        let specs: Vec<PartitionSpec> = (0..parts).map(|_| PartitionSpec { pages }).collect();
        let store = StableStore::new(StoreConfig { page_size: 8 }, &specs);
        for p in 0..parts {
            for i in 0..pages {
                store
                    .write_page(
                        PageId::new(p, i),
                        Page::new(
                            Lsn((p * pages + i) as u64 + 1),
                            Bytes::from(vec![(p * 31 + i) as u8; 8]),
                        ),
                    )
                    .unwrap();
            }
        }
        let coord = BackupCoordinator::per_partition(layout);
        (store, coord)
    }

    fn begin_all(coord: &BackupCoordinator, steps: u32) -> Vec<BackupRun> {
        (0..coord.domain_count())
            .map(|d| {
                BackupRun::begin(
                    coord,
                    RunConfig::full(DomainId(d), steps),
                    d as u64 + 1,
                    Lsn(1),
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn workers_sweep_all_domains() {
        let (store, coord) = setup(4, 32);
        let runs = begin_all(&coord, 4);
        let reports = ParallelSweep::sweep(&coord, &store, runs, 8);
        assert_eq!(reports.len(), 4);
        for (d, rep) in reports.into_iter().enumerate() {
            assert_eq!(rep.domain, DomainId(d as u32));
            assert!(rep.outcome.is_ok());
            assert_eq!(rep.pages_copied, 32);
            assert!(rep.batches >= 4, "one round-trip per step at least");
            let run = rep.run.unwrap();
            assert!(run.is_finished());
            let img = run.into_image().unwrap();
            assert_eq!(img.page_count(), 32);
            let id = PageId::new(d as u32, 7);
            assert_eq!(
                img.pages.get(id).unwrap().data()[0],
                (d as u32 * 31 + 7) as u8
            );
            assert!(!coord.tracker(DomainId(d as u32)).unwrap().is_active());
        }
    }

    #[test]
    fn one_failing_domain_does_not_stop_the_others() {
        let (store, coord) = setup(3, 16);
        store.fail_range(PartitionId(1), 9, 10).unwrap();
        let runs = begin_all(&coord, 2);
        let reports = ParallelSweep::sweep(&coord, &store, runs, 4);
        for rep in reports {
            if rep.domain == DomainId(1) {
                assert!(matches!(rep.outcome, Err(BackupError::Store(_))));
                // The parked run resumes after the medium heals.
                let mut run = rep.run.unwrap();
                store.clear_failures(PartitionId(1)).unwrap();
                while !run.step_batch(&coord, &store, 4).unwrap() {}
                assert_eq!(run.into_image().unwrap().page_count(), 16);
            } else {
                assert!(rep.outcome.is_ok());
                assert_eq!(rep.pages_copied, 16);
            }
        }
    }
}
