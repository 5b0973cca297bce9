//! The Figure 1 counterexample, executed. Randomized end-to-end sessions
//! are the drill loop's [`crate::Drill::session`].

use bytes::Bytes;
use lob_core::{
    BackupPolicy, Discipline, Engine, EngineConfig, OpBody, PageId, PartitionId, RecPage,
};
use lob_ops::{LogicalOp, PhysioOp};

/// Outcome of the Figure 1 split scenario.
#[derive(Debug, Clone)]
pub struct Fig1Outcome {
    /// Whether every record survived media recovery from the backup.
    pub data_intact: bool,
    /// Identity-write records the protocol logged (0 for the naive dump).
    pub iwof_records: u64,
    /// Records expected / found after recovery.
    pub records_expected: usize,
    /// See [`Fig1Outcome::records_expected`].
    pub records_found: usize,
}

/// The paper's Figure 1, executed: a B-tree-style logical split races an
/// on-line backup such that the backup captures `new` *before* the split
/// and `old` *after* it.
///
/// * With [`BackupPolicy::NaiveFuzzy`] (the conventional fuzzy dump), the
///   moved records exist nowhere in the backup **or** the log — media
///   recovery silently loses them.
/// * With [`BackupPolicy::Protocol`], flushing `new` while `Done` triggers
///   an identity write, and recovery is exact.
pub fn fig1_split_scenario(policy: BackupPolicy) -> Result<Fig1Outcome, String> {
    let page_size = 256usize;
    let engine = Engine::new(EngineConfig {
        discipline: Discipline::Tree,
        policy,
        ..EngineConfig::single(64, page_size)
    })
    .map_err(|e| e.to_string())?;

    // `new` low in the backup order, `old` high — the Figure 1 geometry.
    let new = PageId::new(0, 8);
    let old = PageId::new(0, 40);

    // Prefill `old` with records and quiesce.
    let mut expected: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for i in 0..6u8 {
        let key = vec![b'a' + i];
        let val = vec![0x10 + i; 8];
        expected.push((key.clone(), val.clone()));
        engine
            .execute(OpBody::Physio(PhysioOp::InsertRec {
                target: old,
                key: Bytes::from(key),
                val: Bytes::from(val),
            }))
            .map_err(|e| e.to_string())?;
    }
    engine.flush_all().map_err(|e| e.to_string())?;

    // Two-step backup: step 1 copies the low half (including `new`,
    // still empty).
    let mut run = engine.begin_backup(2).map_err(|e| e.to_string())?;
    engine.backup_step(&mut run).map_err(|e| e.to_string())?;

    // The logical split: MovRec(old, "c", new) then RmvRec(old, "c").
    let sep = Bytes::from_static(b"c");
    engine
        .execute(OpBody::Logical(LogicalOp::MovRec {
            old,
            sep: sep.clone(),
            new,
        }))
        .map_err(|e| e.to_string())?;
    engine
        .execute(OpBody::Physio(PhysioOp::RmvRec { target: old, sep }))
        .map_err(|e| e.to_string())?;

    // Flush both (write-graph order: new before old). `new` is Done —
    // the protocol logs it; the naive dump does not.
    engine.flush_page(old).map_err(|e| e.to_string())?;

    // Step 2 copies the high half (including the truncated `old`).
    while !engine.backup_step(&mut run).map_err(|e| e.to_string())? {}
    let image = engine.complete_backup(run).map_err(|e| e.to_string())?;
    let iwof_records = engine.stats().iwof_records;

    // Media failure and recovery from the backup.
    engine
        .store()
        .fail_partition(PartitionId(0))
        .map_err(|e| e.to_string())?;
    engine.media_recover(&image).map_err(|e| e.to_string())?;

    // Collect the records from both nodes.
    let mut found: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for pid in [old, new] {
        let page = engine.read_page(pid).map_err(|e| e.to_string())?;
        let rp = RecPage::decode(pid, page.data()).map_err(|e| e.to_string())?;
        found.extend(rp.into_entries());
    }
    found.sort();
    let mut want = expected.clone();
    want.sort();
    Ok(Fig1Outcome {
        data_intact: found == want,
        iwof_records,
        records_expected: want.len(),
        records_found: found.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Drill, FaultKind, Path};

    #[test]
    fn fig1_naive_fuzzy_dump_loses_the_split() {
        let out = fig1_split_scenario(BackupPolicy::NaiveFuzzy).unwrap();
        assert!(!out.data_intact, "the counterexample must bite");
        assert_eq!(out.iwof_records, 0);
        assert!(out.records_found < out.records_expected);
    }

    #[test]
    fn fig1_protocol_preserves_the_split() {
        let out = fig1_split_scenario(BackupPolicy::Protocol).unwrap();
        assert!(out.data_intact);
        assert!(out.iwof_records >= 1, "Done-region flush logged identity");
        assert_eq!(out.records_found, out.records_expected);
    }

    #[test]
    fn protocol_sessions_verify_across_disciplines() {
        for discipline in [
            Discipline::PageOriented,
            Discipline::Tree,
            Discipline::General,
        ] {
            for seed in [1u64, 2, 3] {
                let case = Drill::session(seed, discipline).case(FaultKind::CountOnly);
                assert_eq!(
                    case.path,
                    Ok(Path::Clean),
                    "{discipline:?} seed {seed}: {case}"
                );
                assert!(case.counters.backup_pages > 0);
            }
        }
    }

    #[test]
    fn crash_sessions_verify() {
        for seed in [11u64, 12] {
            let case = Drill::session(seed, Discipline::General).case(FaultKind::CrashAfterOp(200));
            assert_eq!(case.path, Ok(Path::Crash), "seed {seed}: {case}");
        }
    }

    #[test]
    fn page_oriented_sessions_never_need_iwof() {
        let case = Drill::session(5, Discipline::PageOriented).case(FaultKind::CountOnly);
        assert!(case.path.is_ok(), "{case}");
        assert_eq!(
            case.counters.stats.iwof_records, 0,
            "conventional fuzzy dump: no extra logging for page-oriented ops"
        );
    }
}
