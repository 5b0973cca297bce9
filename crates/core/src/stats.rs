//! Engine statistics.

/// Counters describing engine activity, read by the experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Operations executed (logged and applied).
    pub ops_executed: u64,
    /// Identity-write (`W_IP`) records appended for Iw/oF.
    pub iwof_records: u64,
    /// Bytes of identity-write records appended for Iw/oF.
    pub iwof_bytes: u64,
    /// Write-graph nodes installed by flushing.
    pub nodes_flushed: u64,
    /// Write-graph nodes installed without flushing anything (empty
    /// `vars`).
    pub nodes_installed_free: u64,
    /// Pages written to `S` by flushes.
    pub pages_flushed: u64,
    /// Crash recoveries performed.
    pub recoveries: u64,
    /// Media recoveries performed.
    pub media_recoveries: u64,
    /// Backups begun.
    pub backups_begun: u64,
    /// Backups completed.
    pub backups_completed: u64,
    /// Pages placed in quarantine after a detected bad read.
    pub quarantines: u64,
    /// Pages repaired online (from the backup chain or a dirty cached
    /// copy) and returned to service.
    pub repairs: u64,
    /// Times repair gave up on one backup generation (corrupt, missing, or
    /// truncated-suffix) and fell back to an older one.
    pub repair_fallbacks: u64,
    /// Transient-I/O read attempts retried under the deterministic backoff
    /// schedule (store, log, and backup-image reads combined).
    pub transient_retries: u64,
    /// Batched sweep round-trips performed by backup steps (one per
    /// `step_batch` call, whatever the batch size).
    pub sweep_batches: u64,
    /// Sweep workers run to completion by partition-parallel backups.
    pub sweep_workers: u64,
    /// Instant-restore epochs begun (`begin_instant_restore` plus
    /// `recover_instant` re-entries).
    pub instant_epochs: u64,
    /// Instant-restore epochs completed (also counted in
    /// `media_recoveries`).
    pub instant_completions: u64,
    /// Instant-restore epochs begun in reboot mode after a crash mid-epoch
    /// (also counted in `instant_epochs`).
    pub instant_reboots: u64,
    /// Segments restored on demand because a foreground read or write
    /// needed them (folded in when the epoch completes).
    pub instant_on_demand: u64,
    /// Segments restored by the background sweep (folded in when the epoch
    /// completes).
    pub instant_swept: u64,
    /// Online repairs that sourced their dependency closure from a
    /// generation's page-indexed archive instead of a full-suffix scan.
    pub repair_index_hits: u64,
    /// Archive-indexed repair attempts that fell back to the full-suffix
    /// scan of the same generation (corrupt run, exhausted retries, or a
    /// truncated catch-up suffix).
    pub repair_index_fallbacks: u64,
}

impl EngineStats {
    /// Difference `self - earlier` per counter.
    pub fn since(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            ops_executed: self.ops_executed - earlier.ops_executed,
            iwof_records: self.iwof_records - earlier.iwof_records,
            iwof_bytes: self.iwof_bytes - earlier.iwof_bytes,
            nodes_flushed: self.nodes_flushed - earlier.nodes_flushed,
            nodes_installed_free: self.nodes_installed_free - earlier.nodes_installed_free,
            pages_flushed: self.pages_flushed - earlier.pages_flushed,
            recoveries: self.recoveries - earlier.recoveries,
            media_recoveries: self.media_recoveries - earlier.media_recoveries,
            backups_begun: self.backups_begun - earlier.backups_begun,
            backups_completed: self.backups_completed - earlier.backups_completed,
            quarantines: self.quarantines - earlier.quarantines,
            repairs: self.repairs - earlier.repairs,
            repair_fallbacks: self.repair_fallbacks - earlier.repair_fallbacks,
            transient_retries: self.transient_retries - earlier.transient_retries,
            sweep_batches: self.sweep_batches - earlier.sweep_batches,
            sweep_workers: self.sweep_workers - earlier.sweep_workers,
            instant_epochs: self.instant_epochs - earlier.instant_epochs,
            instant_completions: self.instant_completions - earlier.instant_completions,
            instant_reboots: self.instant_reboots - earlier.instant_reboots,
            instant_on_demand: self.instant_on_demand - earlier.instant_on_demand,
            instant_swept: self.instant_swept - earlier.instant_swept,
            repair_index_hits: self.repair_index_hits - earlier.repair_index_hits,
            repair_index_fallbacks: self.repair_index_fallbacks - earlier.repair_index_fallbacks,
        }
    }
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
}
