//! **§6.1** — incremental backups.
//!
//! "By identifying the portion of the database state S that has changed
//! since the last backup, we need only back up that changed portion."
//! The engine tracks flushed pages since the last backup; an incremental
//! run sweeps the same backup order but copies only the changed set, with
//! the same Iw/oF machinery. This experiment varies update skew (how
//! concentrated the updates are), reports copied volume vs a full backup,
//! and media-recovers from `materialize(base, incremental)` against the
//! shadow oracle every time.

use lob_core::{BackupImage, BackupPolicy, Discipline, DomainId, Lsn, PageId, PartitionId};
use lob_harness::report::bytes;
use lob_harness::Table;

fn run(skew_pages: u32, updates: u32) -> (u64, u64, u64, bool) {
    const PAGES: u32 = 4096;
    let (engine, mut oracle, mut gen) = lob_bench::prefilled_engine(
        PAGES,
        256,
        Discipline::General,
        BackupPolicy::Protocol,
        777 + skew_pages as u64,
    );

    // Full base backup.
    let mut run = engine.begin_backup(8).expect("begin");
    while !engine.backup_step(&mut run).expect("step") {}
    let base = engine.complete_backup(run).expect("complete");

    // Skewed update phase: touch only the first `skew_pages` pages.
    let hot: Vec<PageId> = (0..skew_pages).map(|i| PageId::new(0, i)).collect();
    for _ in 0..updates {
        let p = hot[gen.below(hot.len())];
        let op = gen.physio(p);
        oracle.execute(&engine, op).expect("op");
        if gen.chance(0.7) {
            engine.flush_page(p).expect("flush");
        }
    }
    engine.flush_all().expect("quiesce");

    // Incremental backup of the changed set.
    let mut irun = engine
        .begin_incremental_backup(DomainId(0), 8, &base)
        .expect("incr begin");
    while !engine.backup_step(&mut irun).expect("incr step") {}
    let incr = engine.complete_backup(irun).expect("incr complete");

    // Restore point = base ⊕ incremental; media-recover and verify.
    let full = BackupImage::materialize(&base, &incr).expect("materialize");
    engine.store().fail_partition(PartitionId(0)).expect("fail");
    engine.media_recover(&full).expect("recover");
    let ok = oracle.verify_store(&engine, Lsn::MAX).is_ok();

    (
        base.payload_bytes(),
        incr.payload_bytes(),
        incr.page_count() as u64,
        ok,
    )
}

fn main() {
    println!("§6.1 — incremental backup volume vs update skew (4096-page database)");
    println!();
    let mut t = Table::new(vec![
        "updated working set",
        "full backup bytes",
        "incremental bytes",
        "incremental pages",
        "volume ratio",
        "recovery",
    ]);
    for skew in [32u32, 128, 512, 2048] {
        let (full, incr, pages, ok) = run(skew, 2000);
        t.row(vec![
            format!("{skew} pages"),
            bytes(full),
            bytes(incr),
            pages.to_string(),
            format!("{:.1}%", 100.0 * incr as f64 / full as f64),
            if ok {
                "ok".into()
            } else {
                "FAILED".to_string()
            },
        ]);
    }
    println!("{t}");
    println!(
        "The incremental sweep reuses the full machinery (backup order, \
D/P tracking, Iw/oF), as §6.1 argues: 'Its solution should be similar as \
well.'"
    );
}
