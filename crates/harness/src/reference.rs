//! The reference recovery — the differential witness for the engine's one
//! production restore-and-redo pipeline.
//!
//! The engine restores and replays through batched installs and grouped
//! replay tables ([`lob_recovery::parallel_redo_scan`]). The reference
//! does the same job the slow, obviously-correct way: seed pages written
//! one at a time into a scratch store, then the record-at-a-time
//! [`redo_scan`] over a write-through [`StoreRedoTarget`]. Every recovery
//! and restore the drill loop ([`crate::drill`]) settles — crash recovery,
//! restore, the restarted restore and the instant drive's post-epoch
//! recovery — is byte-compared (payload *and* page LSN) against it.

use lob_core::{BackupImage, EngineService, RecoveryConfig, RedoOutcome};
use lob_pagestore::{PageImage, StableStore, StoreConfig};
use lob_recovery::{redo_scan, StoreRedoTarget};
use lob_wal::LogRecord;

/// Seed a fresh store of the engine's geometry with `seed`, then replay
/// `records` over it record by record.
pub fn reference_replay(
    svc: &EngineService,
    seed: &PageImage,
    records: &[LogRecord],
) -> Result<(StableStore, RedoOutcome), String> {
    let scratch = StableStore::new(
        StoreConfig {
            page_size: svc.config().page_size,
        },
        &svc.config().partitions,
    );
    scratch
        .apply_image(seed)
        .map_err(|e| format!("reference seed failed: {e}"))?;
    let outcome = redo_scan(records, &mut StoreRedoTarget::new(&scratch))
        .map_err(|e| format!("reference replay failed: {e}"))?;
    Ok((scratch, outcome))
}

/// Byte-compare every page (payload and page LSN) of the engine's store
/// against the reference store.
pub fn diff_stores(svc: &EngineService, reference: &StableStore, when: &str) -> Result<(), String> {
    let live = svc
        .store()
        .snapshot()
        .map_err(|e| format!("{when}: live snapshot failed: {e}"))?;
    let expect = reference
        .snapshot()
        .map_err(|e| format!("{when}: reference snapshot failed: {e}"))?;
    if live.len() != expect.len() {
        return Err(format!(
            "{when}: page counts diverge (engine {}, reference {})",
            live.len(),
            expect.len()
        ));
    }
    for ((id, page), (rid, rpage)) in live.iter().zip(expect.iter()) {
        if id != rid {
            return Err(format!("{when}: page id order diverges ({id} vs {rid})"));
        }
        if page.lsn() != rpage.lsn() || page.data() != rpage.data() {
            return Err(format!(
                "{when}: engine and reference replay diverge at {id} (lsn {} vs {})",
                page.lsn(),
                rpage.lsn()
            ));
        }
    }
    Ok(())
}

/// The engine recovered to `got`; the reference replay produced
/// `(store, outcome)`. Both must agree.
fn settle(
    svc: &EngineService,
    got: RedoOutcome,
    (reference, expected): (StableStore, RedoOutcome),
    recovery: RecoveryConfig,
    when: &str,
) -> Result<(), String> {
    if got != expected {
        return Err(format!(
            "{when}: redo outcome {got:?} != reference {expected:?} under {recovery:?}"
        ));
    }
    diff_stores(svc, &reference, when)
}

/// Crash recovery with `recovery` knobs, settled against the reference:
/// the surviving log suffix is first replayed record by record on a copy
/// of `S`; the engine must then land on the same bytes and the same
/// [`RedoOutcome`].
pub fn recover_checked(svc: &EngineService, recovery: RecoveryConfig) -> Result<(), String> {
    let records = svc
        .log()
        .scan_from(svc.log().truncation())
        .map_err(|e| format!("reference log scan failed: {e}"))?;
    let before = svc
        .store()
        .snapshot()
        .map_err(|e| format!("pre-recovery snapshot failed: {e}"))?;
    let reference = reference_replay(svc, &before, &records)?;
    let got = svc
        .parallel_recover_with(recovery)
        .map_err(|e| format!("crash recovery failed: {e}"))?;
    settle(svc, got, reference, recovery, "post-crash differential")
}

/// Media recovery from `image` with `recovery` knobs, settled against the
/// reference: restoring the same image and replaying the same log suffix
/// record by record must produce the same bytes and the same
/// [`RedoOutcome`]. (Media recovery forces but never truncates the log, so
/// scanning after the fact sees exactly what the engine saw.)
pub fn restore_checked(
    svc: &EngineService,
    image: &BackupImage,
    recovery: RecoveryConfig,
) -> Result<(), String> {
    let got = svc
        .parallel_restore_with(image, recovery)
        .map_err(|e| e.to_string())?;
    let records = svc
        .log()
        .scan_from(image.start_lsn)
        .map_err(|e| format!("reference log scan failed: {e}"))?;
    let reference = reference_replay(svc, &image.pages, &records)?;
    settle(svc, got, reference, recovery, "post-restore differential")
}
