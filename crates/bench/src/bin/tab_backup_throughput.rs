//! **§1.2 / §1.4** — "high speed" backup, quantified.
//!
//! Compares the backup strategies on an identical database with a
//! concurrent update workload:
//!
//! * **off-line** — quiesce (flush everything), snapshot: fastest copy,
//!   but the database is unavailable for updates for the whole window;
//! * **naive fuzzy** — full-speed sweep, no coordination: fast but
//!   *unrecoverable* with logical operations (see
//!   `fig1_split_counterexample`);
//! * **protocol (general / tree)** — the paper's backup: same full-speed
//!   sweep; the only added costs are the backup-latch acquisition per flush
//!   and the Iw/oF log records;
//! * **linked flush** — every page staged through the engine and every
//!   flush synchronously mirrored into `B` (§1.3's "completely
//!   unrealistic" strawman).
//!
//! Reported: wall time of the backup, pages copied per second, updates
//! executed during the window (availability), and extra log bytes.

use lob_core::{BackupPolicy, Discipline, PageId};
use lob_harness::report::bytes;
use lob_harness::Table;
use std::time::Instant;

const PAGES: u32 = 8192;
const PAGE_SIZE: usize = 1024;
const OPS_PER_SLICE: u32 = 8;

fn workload_slice(
    engine: &mut lob_core::Engine,
    gen: &mut lob_harness::WorkloadGen,
    pages: &[PageId],
    discipline: Discipline,
) {
    for _ in 0..OPS_PER_SLICE {
        let body = match discipline {
            Discipline::General => gen.mix(pages, 2, 2),
            _ => {
                let p = pages[gen.below(pages.len())];
                gen.physio(p)
            }
        };
        engine.execute(body).expect("op");
        if gen.chance(0.5) {
            let dirty = engine.cache().dirty_pages();
            if !dirty.is_empty() {
                let victim = dirty[gen.below(dirty.len())];
                engine.flush_page(victim).expect("flush");
            }
        }
    }
}

struct Row {
    name: &'static str,
    wall_ms: f64,
    pages_per_s: f64,
    ops_during: u64,
    extra_log: u64,
    recoverable: &'static str,
}

fn run_strategy(name: &'static str, policy: BackupPolicy, discipline: Discipline) -> Row {
    let (mut engine, _oracle, mut gen) =
        lob_bench::prefilled_engine(PAGES, PAGE_SIZE, discipline, policy, 99);
    let pages: Vec<PageId> = (0..PAGES).map(|i| PageId::new(0, i)).collect();
    let ops_before = engine.stats().ops_executed;
    let start = Instant::now();
    let copied;

    match policy {
        BackupPolicy::LinkedFlush => {
            let mut run = engine.begin_linked_backup().expect("begin");
            loop {
                let done = engine.linked_step(&mut run, 64).expect("step");
                workload_slice(&mut engine, &mut gen, &pages, discipline);
                if done {
                    break;
                }
            }
            copied = run.pages_copied() as u64;
            engine.complete_linked_backup(run).expect("complete");
        }
        _ => {
            let mut run = engine.begin_backup(128).expect("begin");
            loop {
                let done = engine.backup_step(&mut run).expect("step");
                workload_slice(&mut engine, &mut gen, &pages, discipline);
                if done {
                    break;
                }
            }
            copied = run.pages_copied();
            engine.complete_backup(run).expect("complete");
        }
    }
    let wall = start.elapsed();
    Row {
        name,
        wall_ms: wall.as_secs_f64() * 1e3,
        pages_per_s: copied as f64 / wall.as_secs_f64(),
        ops_during: engine.stats().ops_executed - ops_before,
        extra_log: engine.stats().iwof_bytes,
        recoverable: match policy {
            BackupPolicy::NaiveFuzzy => "NO (logical ops)",
            _ => "yes",
        },
    }
}

fn run_offline() -> Row {
    let (engine, _oracle, _gen) = lob_bench::prefilled_engine(
        PAGES,
        PAGE_SIZE,
        Discipline::General,
        BackupPolicy::Protocol,
        99,
    );
    let start = Instant::now();
    let image = engine.offline_backup().expect("offline");
    let wall = start.elapsed();
    Row {
        name: "off-line snapshot",
        wall_ms: wall.as_secs_f64() * 1e3,
        pages_per_s: image.page_count() as f64 / wall.as_secs_f64(),
        ops_during: 0, // unavailable by definition
        extra_log: 0,
        recoverable: "yes (quiesced)",
    }
}

fn main() {
    println!(
        "Backup strategy comparison — {PAGES} pages x {PAGE_SIZE} B, \
concurrent updates between sweep slices"
    );
    println!();
    let rows = vec![
        run_offline(),
        run_strategy(
            "naive fuzzy dump",
            BackupPolicy::NaiveFuzzy,
            Discipline::General,
        ),
        run_strategy(
            "protocol (general ops)",
            BackupPolicy::Protocol,
            Discipline::General,
        ),
        run_strategy(
            "protocol (tree ops)",
            BackupPolicy::Protocol,
            Discipline::Tree,
        ),
        run_strategy(
            "linked flush",
            BackupPolicy::LinkedFlush,
            Discipline::General,
        ),
    ];
    let mut t = Table::new(vec![
        "strategy",
        "wall ms",
        "pages/s",
        "updates during backup",
        "Iw/oF bytes",
        "B recoverable",
    ]);
    for r in rows {
        t.row(vec![
            r.name.to_string(),
            format!("{:.1}", r.wall_ms),
            format!("{:.0}", r.pages_per_s),
            r.ops_during.to_string(),
            bytes(r.extra_log),
            r.recoverable.to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "The protocol keeps the fuzzy dump's speed and availability; its \
only cost over the (incorrect) naive dump is the Iw/oF logging. The \
linked flush is correct but pays a full engine-staged copy plus doubled \
flushes — the §1.3 argument for why it is not a real option."
    );
}
