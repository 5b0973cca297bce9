//! # lob-bench — experiments and benches
//!
//! One binary per paper artifact (see DESIGN.md §5 for the full index):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig1_split_counterexample` | Figure 1 — naive fuzzy dump loses a logical split |
//! | `fig2_write_graph_ablation` | Figure 2 / §2.4 — `W` vs `rW` flush-set growth |
//! | `fig3_progress_fractions`   | Figure 3 / §3.4 — Done/Doubt/Pend fractions |
//! | `fig4_tree_regions`         | Figure 4 / §4.2 — tree-op Iw/oF decision regions |
//! | `fig5_logging_probability`  | **Figure 5 / §5** — extra-logging probability vs `N` |
//! | `tab_logging_economy`       | §1.1 — log bytes, logical vs page-oriented |
//! | `tab_backup_throughput`     | §1.2/§1.4 — backup strategy costs |
//! | `tab_amortized_overhead`    | §5.3 — overhead at realistic backup duty cycles |
//! | `tab_steps_sweep`           | §5.3 — extra-log bytes vs `N` |
//! | `tab_incremental`           | §6.1 — incremental backup volume & correctness |
//! | `tab_appread_zero_logging`  | §6.2 — applications-last ordering needs no Iw/oF |
//! | `tab_succ_structure`        | §5.2's caveats — successor-structure ablation |
//!
//! Run any of them with
//! `cargo run -p lob-bench --release --bin <name>`; each prints the table
//! quoted in EXPERIMENTS.md. Criterion benches (`cargo bench -p lob-bench`)
//! time the hot paths: backup strategies, write-graph maintenance, the
//! Figure 5 simulation, and B-tree operations under both split-logging
//! modes.

use lob_core::{
    BackupPolicy, Discipline, Engine, EngineConfig, GraphMode, LogBacking, PageId, PartitionSpec,
    Tracking,
};
use lob_harness::{ShadowOracle, WorkloadGen};

pub mod zipf;

/// Build the engine for `config`, write every page of every partition
/// once, quiesce, and zero the stats.
fn prefill(config: EngineConfig, seed: u64) -> Result<(Engine, ShadowOracle, WorkloadGen), String> {
    let page_size = config.page_size;
    let specs = config.partitions.clone();
    let engine = Engine::new(config).map_err(|e| format!("engine config: {e}"))?;
    let mut oracle = ShadowOracle::new(page_size);
    let mut gen = WorkloadGen::new(seed, page_size);
    for (p, spec) in specs.iter().enumerate() {
        for i in 0..spec.pages {
            let op = gen.physical(PageId::new(p as u32, i));
            oracle.execute(&engine, op)?;
        }
    }
    engine
        .flush_all()
        .map_err(|e| format!("prefill flush: {e}"))?;
    engine.coordinator().stats().reset();
    Ok((engine, oracle, gen))
}

/// Build a quiesced single-partition engine prefilled on every page.
///
/// Shared by the throughput experiments so each strategy starts from an
/// identical database.
pub fn prefilled_engine(
    pages: u32,
    page_size: usize,
    discipline: Discipline,
    policy: BackupPolicy,
    seed: u64,
) -> (Engine, ShadowOracle, WorkloadGen) {
    prefill(
        EngineConfig {
            discipline,
            policy,
            ..EngineConfig::single(pages, page_size)
        },
        seed,
    )
    // lint:allow(panic) bench setup: aborting the experiment binary is correct
    .expect("prefill")
}

/// Build a quiesced engine with `partitions` equal per-partition backup
/// domains, prefilled on every page — the starting state of the
/// partition-parallel experiments and benches (§3.4).
pub fn prefilled_multi_engine(
    partitions: u32,
    pages_per_partition: u32,
    page_size: usize,
    seed: u64,
) -> (Engine, ShadowOracle, WorkloadGen) {
    prefill(
        EngineConfig {
            page_size,
            partitions: (0..partitions)
                .map(|_| PartitionSpec {
                    pages: pages_per_partition,
                })
                .collect(),
            discipline: Discipline::General,
            graph_mode: GraphMode::Refined,
            tracking: Tracking::PerPartition,
            cache_capacity: None,
            policy: BackupPolicy::Protocol,
            log: LogBacking::Memory,
            ..EngineConfig::small()
        },
        seed,
    )
    // lint:allow(panic) bench setup: aborting the experiment binary is correct
    .expect("prefill")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefilled_multi_engine_is_quiesced_per_partition() {
        let (engine, oracle, _) = prefilled_multi_engine(4, 8, 64, 1);
        assert_eq!(engine.cache().dirty_count(), 0);
        assert_eq!(engine.coordinator().domain_count(), 4);
        assert_eq!(oracle.len(), 32);
        assert!(oracle.verify_store(&engine, lob_core::Lsn::MAX).is_ok());
    }

    #[test]
    fn prefilled_engine_is_quiesced() {
        let (engine, oracle, _) =
            prefilled_engine(16, 64, Discipline::General, BackupPolicy::Protocol, 1);
        assert_eq!(engine.cache().dirty_count(), 0);
        assert!(engine
            .with_graph(lob_core::DomainId(0), |g| g.is_empty())
            .unwrap());
        assert_eq!(oracle.len(), 16);
        assert!(oracle.verify_store(&engine, lob_core::Lsn::MAX).is_ok());
    }
}
