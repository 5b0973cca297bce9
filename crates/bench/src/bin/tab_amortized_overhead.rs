//! **§5.3, first bullet** — extra logging amortized over total time.
//!
//! "Extra logging only occurs during backup. Usually a database backup is
//! only active a small part of the time ... Hence, extra logging, when
//! averaged over total time, is much less than what is reported here."
//!
//! This experiment runs a long session in which a backup is active only a
//! `duty` fraction of the time (backups started periodically, idle gaps
//! between them) and reports the Iw/oF record rate per flush over the
//! whole session, next to the §5.3 prediction `P{log} · duty`.

use lob_core::{BackupPolicy, Discipline, PageId};
use lob_harness::report::f4;
use lob_harness::Table;

fn run(duty_pct: u32) -> (f64, f64) {
    const PAGES: u32 = 2048;
    const STEPS: u32 = 8;
    const TOTAL_FLUSHES: u32 = 8192;
    let (engine, mut oracle, mut gen) = {
        let (e, o, g) = lob_bench::prefilled_engine(
            PAGES,
            64,
            Discipline::General,
            BackupPolicy::Protocol,
            1234 + duty_pct as u64,
        );
        (e, o, g)
    };
    let pages: Vec<PageId> = (0..PAGES).map(|i| PageId::new(0, i)).collect();

    // A backup window covers `STEPS` slices of the session; between
    // windows, idle slices make up the duty cycle.
    let window_slices = STEPS;
    let cycle_slices = (window_slices * 100 / duty_pct.max(1)).max(window_slices);
    let flushes_per_slice = TOTAL_FLUSHES / (cycle_slices * 4);

    let mut run = None;
    let mut slice_in_cycle = 0u32;
    let mut flushes = 0u64;
    for _slice in 0..(cycle_slices * 4) {
        if slice_in_cycle == 0 && duty_pct > 0 {
            run = Some(engine.begin_backup(STEPS).expect("begin"));
        }
        for _ in 0..flushes_per_slice {
            let x = gen.pick(&pages);
            let mut r = gen.pick(&pages);
            while r == x {
                r = gen.pick(&pages);
            }
            oracle
                .execute(
                    &engine,
                    lob_core::OpBody::Logical(lob_core::LogicalOp::Mix {
                        reads: vec![r],
                        writes: vec![x],
                        salt: flushes,
                    }),
                )
                .expect("op");
            engine.flush_page(x).expect("flush");
            flushes += 1;
        }
        if let Some(rn) = run.as_mut() {
            if slice_in_cycle < window_slices && engine.backup_step(rn).expect("step") {
                let done = run.take().unwrap();
                let img = engine.complete_backup(done).expect("complete");
                engine.release_backup(img.backup_id);
            }
        }
        slice_in_cycle = (slice_in_cycle + 1) % cycle_slices;
    }
    if let Some(mut rn) = run.take() {
        while !engine.backup_step(&mut rn).expect("step") {}
        let img = engine.complete_backup(rn).expect("complete");
        engine.release_backup(img.backup_id);
    }

    let measured = engine.stats().iwof_records as f64 / flushes as f64;
    let predicted =
        lob_analysis::amortized_prob(lob_analysis::general_prob(STEPS), duty_pct as f64 / 100.0);
    (measured, predicted)
}

fn main() {
    println!("§5.3 — Iw/oF frequency amortized over total time (general ops, N = 8)");
    println!();
    let mut t = Table::new(vec![
        "backup duty cycle",
        "measured Iw/oF per flush",
        "predicted P{log}*duty",
    ]);
    for duty in [5u32, 10, 25, 50, 100] {
        let (m, p) = run(duty);
        t.row(vec![format!("{duty}%"), f4(m), f4(p)]);
    }
    println!("{t}");
    println!(
        "At realistic duty cycles the extra logging shrinks toward noise — \
the §5.3 argument that Iw/oF 'merely reduces somewhat the very \
substantial gain' of logical logging."
    );
}
