//! Engine statistics.

use std::sync::atomic::{AtomicU64, Ordering};

/// One field list, three products: the public [`EngineStats`] snapshot
/// with its field-wise `since`, and the [`Stat`] index of the core's
/// atomic counters, one per field.
macro_rules! engine_stats {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Counters describing engine activity, read by the experiments.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct EngineStats {
            $($(#[$doc])* pub $field: u64,)*
        }

        /// One atomic counter per [`EngineStats`] field, named like it.
        #[allow(non_camel_case_types)]
        #[derive(Debug, Clone, Copy)]
        pub(crate) enum Stat {
            $($field,)*
        }

        /// Number of counters.
        pub(crate) const STATS: usize = [$(Stat::$field),*].len();

        impl EngineStats {
            /// Difference `self - earlier` per counter.
            pub fn since(&self, earlier: &EngineStats) -> EngineStats {
                EngineStats {
                    $($field: self.$field - earlier.$field,)*
                }
            }

            /// A snapshot of the core's counters.
            pub(crate) fn load(
                counters: &[AtomicU64; STATS], // lint: atomic(relaxed-counter)
            ) -> EngineStats {
                let at = |s: Stat| counters.get(s as usize).map_or(0, |c| c.load(Ordering::Relaxed));
                EngineStats {
                    $($field: at(Stat::$field),)*
                }
            }
        }
    };
}

engine_stats! {
    /// Operations executed (logged and applied).
    ops_executed,
    /// Identity-write (`W_IP`) records appended for Iw/oF.
    iwof_records,
    /// Bytes of identity-write records appended for Iw/oF (derived from
    /// the log's identity-write accounting).
    iwof_bytes,
    /// Write-graph nodes installed by flushing.
    nodes_flushed,
    /// Write-graph nodes installed without flushing anything (empty
    /// `vars`).
    nodes_installed_free,
    /// Pages written to `S` by flushes.
    pages_flushed,
    /// Crash recoveries performed.
    recoveries,
    /// Media recoveries performed.
    media_recoveries,
    /// Backups begun.
    backups_begun,
    /// Backups completed.
    backups_completed,
    /// Pages placed in quarantine after a detected bad read.
    quarantines,
    /// Pages repaired online (from the backup chain or a dirty cached
    /// copy) and returned to service.
    repairs,
    /// Times repair gave up on one backup generation (corrupt, missing, or
    /// truncated-suffix) and fell back to an older one.
    repair_fallbacks,
    /// Transient-I/O read attempts retried under the deterministic backoff
    /// schedule (store, log, and backup-image reads combined).
    transient_retries,
    /// Batched sweep round-trips performed by backup steps (one per
    /// `step_batch` call, whatever the batch size).
    sweep_batches,
    /// Sweep workers run to completion by partition-parallel backups.
    sweep_workers,
    /// Instant-restore epochs begun (`begin_instant_restore` plus
    /// `recover_instant` re-entries).
    instant_epochs,
    /// Instant-restore epochs completed (also counted in
    /// `media_recoveries`).
    instant_completions,
    /// Instant-restore epochs begun in reboot mode after a crash mid-epoch
    /// (also counted in `instant_epochs`).
    instant_reboots,
    /// Segments restored on demand because a foreground read or write
    /// needed them (folded in when the epoch completes).
    instant_on_demand,
    /// Segments restored by the background sweep (folded in when the epoch
    /// completes).
    instant_swept,
    /// Online repairs that sourced their dependency closure from a
    /// generation's page-indexed archive instead of a full-suffix scan.
    repair_index_hits,
    /// Archive-indexed repair attempts that fell back to the full-suffix
    /// scan of the same generation (corrupt run, exhausted retries, or a
    /// truncated catch-up suffix).
    repair_index_fallbacks,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_fieldwise() {
        let a = EngineStats {
            ops_executed: 10,
            iwof_records: 3,
            ..Default::default()
        };
        let b = EngineStats {
            ops_executed: 25,
            iwof_records: 5,
            pages_flushed: 7,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.ops_executed, 15);
        assert_eq!(d.iwof_records, 2);
        assert_eq!(d.pages_flushed, 7);
    }

    #[test]
    fn load_reads_each_counter_into_its_field() {
        let counters: [AtomicU64; STATS] = Default::default();
        counters[Stat::repairs as usize].store(4, Ordering::Relaxed);
        counters[Stat::repair_index_fallbacks as usize].store(9, Ordering::Relaxed);
        let s = EngineStats::load(&counters);
        assert_eq!(
            (s.repairs, s.repair_index_fallbacks, s.ops_executed),
            (4, 9, 0)
        );
    }
}
