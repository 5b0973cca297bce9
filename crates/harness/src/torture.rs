//! The op loop of the crash-point torture drill ([`Scenario::Ops`] and
//! [`Scenario::Restore`]).
//!
//! A sweep numbers every I/O event of a seeded session with a counting
//! [`crate::FaultPlan`], then re-runs the *identical* session once per
//! chosen event index with one fault armed. Nothing in the engine consults
//! wall clocks or global randomness, so a divergence is pinned by
//! `(seed, drill, kind, k)`.
//!
//! [`Scenario::Ops`]: crate::Scenario::Ops
//! [`Scenario::Restore`]: crate::Scenario::Restore

use crate::drill::{confined, update, Drill, OpLoop, State, Stop};
use lob_core::{BackupRun, Discipline, EngineError, EngineService, OpBody};
use lob_pagestore::StoreError;

impl Drill {
    /// One operation of the drill's discipline over the op loop's pool.
    fn op_body(&self, st: &mut State) -> OpBody {
        let State {
            gen, used, fresh, ..
        } = st;
        match self.discipline {
            // A node split: copy a used page into a fresh one.
            Discipline::Tree if gen.chance(0.4) && !fresh.is_empty() => {
                let x = fresh.swap_remove(gen.below(fresh.len()));
                let op = gen.copy_to_fresh(used, x);
                used.push(x);
                op
            }
            Discipline::Tree | Discipline::PageOriented => update(gen, used),
            Discipline::General => confined(gen, used),
        }
    }

    /// The op loop. The op sequence, flush and force choices, and backup
    /// schedule are identical on every run of one drill; only the armed
    /// fault differs. The first failed verb stops it.
    pub(crate) fn drive_ops(
        &self,
        engine: &EngineService,
        st: &mut State,
        l: OpLoop,
    ) -> Result<(), Stop> {
        let mut run: Option<(BackupRun, u32)> = None;
        for opno in 0..self.ops {
            let body = self.op_body(st);
            st.exec(engine, body)?;
            st.flush_random(engine, self.flush_prob)?;
            if l.force_prob > 0.0 && st.gen.chance(l.force_prob) {
                engine.force_log()?;
            }
            if self.backup_steps > 0 && opno == l.backup_start_after {
                let r = engine.begin_backup(self.backup_steps)?;
                st.inflight.push(r.backup_id());
                run = Some((r, 0));
            }
            if let Some((r, since)) = run.as_mut() {
                *since += 1;
                if *since >= l.ops_per_backup_step {
                    *since = 0;
                    if engine.backup_step(r)? {
                        if let Some((r, _)) = run.take() {
                            st.completed(engine.complete_backup(r)?);
                        }
                    }
                }
            }
            if st.plan.kind() == crate::FaultKind::CrashAfterOp(opno) {
                return Err(EngineError::Store(StoreError::InjectedCrash).into());
            }
        }
        if let Some((mut r, _)) = run {
            while !engine.backup_step(&mut r)? {}
            st.completed(engine.complete_backup(r)?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{Drill, FaultKind, OpLoop, Path, Scenario};
    use lob_core::{Discipline, RecoveryConfig};

    #[test]
    fn event_counting_is_deterministic() {
        let drill = Drill::ops(42, Discipline::General);
        let a = drill.case(FaultKind::CountOnly);
        let b = drill.case(FaultKind::CountOnly);
        assert_eq!(a.path, Ok(Path::Clean));
        assert_eq!(a.events, b.events);
        assert!(
            a.events > 20,
            "a session this size must do real I/O (got {})",
            a.events
        );
    }

    #[test]
    fn single_crash_case_recovers_and_verifies() {
        let case = Drill::backup(7).case(FaultKind::CrashAt(10));
        assert!(case.fired.is_some());
        assert!(matches!(case.path, Ok(Path::Crash | Path::Media)), "{case}");
    }

    #[test]
    fn read_faults_without_self_healing_settle_by_restore() {
        // No repair generation: the damaged read surfaces, the store shows
        // the damage, and the settlement restores instead of healing.
        let case = Drill::backup(11).case(FaultKind::CorruptReadAt(5));
        assert!(case.fired.is_some(), "{case}");
        assert_eq!(case.path, Ok(Path::Media), "{case}");
        assert_eq!(case.counters.stats.repairs, 0);
    }

    #[test]
    fn single_corrupt_read_case_heals_online() {
        let drill = Drill {
            scenario: Scenario::Ops(OpLoop::HEALING),
            ..Drill::ops(11, Discipline::General)
        };
        let case = drill.case(FaultKind::CorruptReadAt(5));
        assert!(case.fired.is_some());
        assert_eq!(case.path, Ok(Path::Clean));
        assert!(
            case.counters.stats.repairs >= 1,
            "the damaged read must repair online"
        );
        assert_eq!(case.counters.quarantined, 0);
    }

    #[test]
    fn parallel_crash_case_settles_against_the_sequential_oracle() {
        let drill = Drill {
            recovery: RecoveryConfig::new(4, 8),
            ..Drill::backup(7)
        };
        let case = drill.case(FaultKind::CrashAt(10));
        assert!(case.fired.is_some());
        assert!(matches!(case.path, Ok(Path::Crash | Path::Media)), "{case}");
    }

    #[test]
    fn parallel_media_failure_case_settles_against_the_sequential_oracle() {
        let drill = Drill {
            recovery: RecoveryConfig::new(2, 64),
            ..Drill::ops(13, Discipline::General)
        };
        let case = drill.case(FaultKind::MediaFailAt(30));
        assert!(case.fired.is_some());
        assert!(case.path.is_ok(), "{case}");
    }

    #[test]
    fn small_read_fault_drill_is_all_clean() {
        use FaultKind::{CorruptReadAt, TornReadAt, TransientReadAt};
        let report = Drill {
            scenario: Scenario::Ops(OpLoop::HEALING),
            ..Drill::backup(23)
        }
        .sweep(&[CorruptReadAt, TornReadAt, TransientReadAt], 6)
        .unwrap();
        assert!(report.divergences().is_empty(), "{report}");
        assert_eq!(report.count(Path::Clean), report.cases.len());
        assert!(report.fired() > 0);
        assert!(
            report.cases.iter().all(|c| c.counters.quarantined == 0),
            "{report}"
        );
    }
}
