//! Criterion bench: wall-clock cost of the backup strategies.
//!
//! Times a full backup of a prefilled database under each strategy, with a
//! small update workload interleaved between sweep slices (matching the
//! `tab_backup_throughput` experiment at bench-friendly scale).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lob_bench::{prefilled_engine, prefilled_multi_engine};
use lob_core::{BackupPolicy, Discipline, PageId};

const PAGES: u32 = 2048;
const PAGE_SIZE: usize = 512;
const PARTITIONS: u32 = 4;

fn online_backup(policy: BackupPolicy, discipline: Discipline) {
    let (engine, _oracle, mut gen) = prefilled_engine(PAGES, PAGE_SIZE, discipline, policy, 7);
    let pages: Vec<PageId> = (0..PAGES).map(|i| PageId::new(0, i)).collect();
    let mut run = engine.begin_backup(16).expect("begin");
    loop {
        let done = engine.backup_step(&mut run).expect("step");
        for _ in 0..4 {
            let body = match discipline {
                Discipline::General => gen.mix(&pages, 2, 2),
                _ => {
                    let p = pages[gen.below(pages.len())];
                    gen.physio(p)
                }
            };
            engine.execute(body).expect("op");
            let dirty = engine.cache().dirty_pages();
            if !dirty.is_empty() {
                let victim = dirty[gen.below(dirty.len())];
                engine.flush_page(victim).expect("flush");
            }
        }
        if done {
            break;
        }
    }
    let image = engine.complete_backup(run).expect("complete");
    assert_eq!(image.page_count() as u32, PAGES);
}

fn linked_backup() {
    let (engine, _oracle, mut gen) = prefilled_engine(
        PAGES,
        PAGE_SIZE,
        Discipline::General,
        BackupPolicy::LinkedFlush,
        7,
    );
    let pages: Vec<PageId> = (0..PAGES).map(|i| PageId::new(0, i)).collect();
    let mut run = engine.begin_linked_backup().expect("begin");
    loop {
        let done = engine.linked_step(&mut run, 128).expect("step");
        for _ in 0..4 {
            let body = gen.mix(&pages, 2, 2);
            engine.execute(body).expect("op");
            let dirty = engine.cache().dirty_pages();
            if !dirty.is_empty() {
                let victim = dirty[gen.below(dirty.len())];
                engine.flush_page(victim).expect("flush");
            }
        }
        if done {
            break;
        }
    }
    engine.complete_linked_backup(run).expect("complete");
}

/// Protocol backup driven through the batched step: up to `batch`
/// contiguous pages per store-lock round-trip, same interleaved update
/// workload as `online_backup`.
fn batched_backup(batch: u32) {
    let (engine, _oracle, mut gen) = prefilled_engine(
        PAGES,
        PAGE_SIZE,
        Discipline::General,
        BackupPolicy::Protocol,
        7,
    );
    let pages: Vec<PageId> = (0..PAGES).map(|i| PageId::new(0, i)).collect();
    let mut run = engine.begin_backup(16).expect("begin");
    loop {
        let done = engine.backup_step_batch(&mut run, batch).expect("step");
        for _ in 0..4 {
            let body = gen.mix(&pages, 2, 2);
            engine.execute(body).expect("op");
            let dirty = engine.cache().dirty_pages();
            if !dirty.is_empty() {
                let victim = dirty[gen.below(dirty.len())];
                engine.flush_page(victim).expect("flush");
            }
        }
        if done {
            break;
        }
    }
    let image = engine.complete_backup(run).expect("complete");
    assert_eq!(image.page_count() as u32, PAGES);
}

/// Partition-parallel sweep (§3.4): one worker thread per domain, batched
/// copies, over a quiesced multi-partition database of the same total size.
fn parallel_backup(batch: u32) {
    let (engine, _oracle, _gen) =
        prefilled_multi_engine(PARTITIONS, PAGES / PARTITIONS, PAGE_SIZE, 7);
    let images = engine.parallel_backup(8, batch).expect("parallel backup");
    let copied: u32 = images.iter().map(|i| i.page_count() as u32).sum();
    assert_eq!(copied, PAGES);
}

fn offline_backup() {
    let (engine, _oracle, _gen) = prefilled_engine(
        PAGES,
        PAGE_SIZE,
        Discipline::General,
        BackupPolicy::Protocol,
        7,
    );
    engine.offline_backup().expect("offline");
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("backup_strategies");
    g.sample_size(10);
    g.bench_function(BenchmarkId::new("offline", PAGES), |b| {
        b.iter(offline_backup)
    });
    g.bench_function(BenchmarkId::new("naive_fuzzy", PAGES), |b| {
        b.iter(|| online_backup(BackupPolicy::NaiveFuzzy, Discipline::General))
    });
    g.bench_function(BenchmarkId::new("protocol_general", PAGES), |b| {
        b.iter(|| online_backup(BackupPolicy::Protocol, Discipline::General))
    });
    g.bench_function(BenchmarkId::new("protocol_tree", PAGES), |b| {
        b.iter(|| online_backup(BackupPolicy::Protocol, Discipline::Tree))
    });
    g.bench_function(BenchmarkId::new("linked_flush", PAGES), |b| {
        b.iter(linked_backup)
    });
    for batch in [16u32, 256] {
        g.bench_function(BenchmarkId::new("protocol_batched", batch), |b| {
            b.iter(|| batched_backup(batch))
        });
    }
    g.bench_function(BenchmarkId::new("parallel_sweep_x4", PAGES), |b| {
        b.iter(|| parallel_backup(256))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
