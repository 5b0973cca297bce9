//! Take a partition-parallel on-line backup and prove it restores.
//!
//! ```sh
//! cargo run -p lob-harness --example parallel_backup -- [seed] [partitions]
//! ```
//!
//! Builds a per-partition engine (one backup domain per partition, §3.4),
//! runs a partition-confined workload, then backs up every domain
//! concurrently — one sweep worker thread per domain, batched page copies —
//! while this thread keeps executing operations. The fuzzy images are then
//! combined, the whole medium is failed, and media recovery rolls the store
//! forward to the full history, byte-verified against the shadow oracle.
//!
//! For the fault-injected version of this scenario, see the parallel drill
//! (`ParallelDrillRunner`) and the `parallel_backup` integration tests.

use lob_core::{
    BackupPolicy, Discipline, DomainId, Engine, EngineConfig, FlushPolicy, GraphMode, LogBacking,
    Lsn, PageId, PartitionId, PartitionSpec, Tracking,
};
use lob_harness::{combine_images, ShadowOracle, WorkloadGen};
use std::sync::Arc;

const PAGES_PER_PARTITION: u32 = 64;
const PAGE_SIZE: usize = 128;

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args
        .next()
        .map(|s| s.parse().expect("seed must be an unsigned integer"))
        .unwrap_or(1);
    let partitions: u32 = args
        .next()
        .map(|s| s.parse().expect("partitions must be an unsigned integer"))
        .unwrap_or(4);

    let mut engine = Engine::new(EngineConfig {
        page_size: PAGE_SIZE,
        partitions: (0..partitions)
            .map(|_| PartitionSpec {
                pages: PAGES_PER_PARTITION,
            })
            .collect(),
        discipline: Discipline::General,
        graph_mode: GraphMode::Refined,
        tracking: Tracking::PerPartition,
        cache_capacity: None,
        policy: BackupPolicy::Protocol,
        log: LogBacking::Memory,
        // Group forcing: a WAL-required force persists the whole appended
        // tail, so concurrent appenders share one force round-trip.
        commit: lob_core::CommitConfig::with_policy(FlushPolicy::Group),
        ..EngineConfig::small()
    })
    .expect("engine config");
    let mut oracle = ShadowOracle::new(PAGE_SIZE);
    let mut gen = WorkloadGen::new(seed, PAGE_SIZE);

    for p in 0..partitions {
        for i in 0..PAGES_PER_PARTITION {
            let op = gen.physical(PageId::new(p, i));
            oracle.execute(&mut engine, op).expect("prefill");
        }
    }
    engine.flush_all().expect("prefill flush");

    // Begin one sweep per domain and hand each to its own worker thread.
    let mut runs = Vec::new();
    for d in 0..engine.coordinator().domain_count() {
        runs.push(engine.begin_backup_of(DomainId(d), 8).expect("begin"));
    }
    let coordinator = Arc::clone(engine.coordinator());
    let store = Arc::clone(engine.store());
    let handles: Vec<_> = runs
        .into_iter()
        .map(|mut run| {
            let c = Arc::clone(&coordinator);
            let s = Arc::clone(&store);
            std::thread::spawn(move || {
                while !run.step_batch(&c, &s, 16).expect("sweep step") {}
                run
            })
        })
        .collect();

    // The writer keeps going while the workers sweep: partition-confined
    // operations plus occasional flushes racing the progress trackers.
    for _ in 0..partitions * 32 {
        let p = gen.below(partitions as usize) as u32;
        let pages: Vec<PageId> = (0..PAGES_PER_PARTITION)
            .map(|i| PageId::new(p, i))
            .collect();
        let op = if gen.chance(0.5) {
            gen.mix(&pages, 2, 2)
        } else {
            let victim = pages[gen.below(pages.len())];
            gen.physio(victim)
        };
        oracle.execute(&mut engine, op).expect("writer op");
        if gen.chance(0.4) {
            let dirty = engine.cache().dirty_pages();
            if !dirty.is_empty() {
                let victim = dirty[gen.below(dirty.len())];
                engine.flush_page(victim).expect("flush");
            }
        }
    }

    let mut images = Vec::new();
    for h in handles {
        let run = h.join().expect("worker");
        images.push(engine.complete_backup(run).expect("complete"));
    }
    let pages_total: usize = images.iter().map(|i| i.page_count()).sum();
    println!(
        "parallel backup: {partitions} domains swept by {partitions} workers, {pages_total} pages"
    );
    let stats = engine.log().stats();
    println!(
        "group force: {} forces persisted {} frames ({:.1} frames/force)",
        stats.forces,
        stats.forced_frames,
        stats.forced_frames as f64 / stats.forces.max(1) as f64
    );

    // Fail every partition and restore from the fuzzy images alone.
    let combined = combine_images(&images).expect("images");
    for p in 0..partitions {
        engine
            .store()
            .fail_partition(PartitionId(p))
            .expect("fail medium");
    }
    engine.media_recover(&combined).expect("media recovery");
    oracle
        .verify_store(&engine, Lsn::MAX)
        .expect("restored store must byte-match the oracle");
    println!("media recovery from the parallel images byte-matched the shadow oracle");
}
