//! The Figure 5 measurement simulation.
//!
//! The paper's §5 analysis predicts how often a flush needs Iw/oF logging
//! during an `N`-step backup, assuming flushed objects are uniformly
//! distributed over the backup order. This module *measures* the same
//! quantity by running the real protocol: a database under a random
//! workload, flushes uniformly spread over positions and steps, and the
//! actual coordinator decisions counted — then compares against the closed
//! form from `lob-analysis`.
//!
//! Two workloads mirror the two analyses:
//!
//! * **General** (§5.1): every round executes a `Mix` op reading one random
//!   page and blindly writing another random page, then flushes the written
//!   page. The flushed position is uniform; successors are unknowable, so
//!   the §3.5 rule applies.
//! * **Tree** (§5.2): every round copies a random *used* page into a random
//!   *fresh* page (`|S(X)| = 1`, exactly the analysis's modelling
//!   assumption) and flushes the fresh page. Fresh pages are drawn from a
//!   pre-shuffled pool so their positions stay uniform.
//!
//! Each run optionally ends with a full media-recovery drill against the
//! shadow oracle — the measurement and the correctness proof come from the
//! same execution.

use crate::shadow::ShadowOracle;
use crate::workload::WorkloadGen;
use lob_core::{BackupPolicy, Discipline, Engine, EngineConfig, PageId, PartitionId};
use lob_ops::{LogicalOp, OpBody};
use rand::RngCore;

/// Which §5 analysis the simulation instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimDiscipline {
    /// General logical operations (§5.1).
    General,
    /// Tree operations with single successors (§5.2).
    Tree,
}

/// Configuration of one Figure 5 measurement run.
#[derive(Debug, Clone)]
pub struct Fig5Config {
    /// Number of backup steps `N`.
    pub steps: u32,
    /// Database pages (one partition).
    pub pages: u32,
    /// Flush decisions to sample per backup step.
    pub flushes_per_step: u32,
    /// RNG seed.
    pub seed: u64,
    /// Operation discipline.
    pub discipline: SimDiscipline,
    /// Page size (small keeps runs fast; the protocol is size-oblivious).
    pub page_size: usize,
    /// End with a media-failure + restore + roll-forward, verified against
    /// the shadow oracle.
    pub verify_recovery: bool,
    /// Tree workload only: fraction of rounds that flush a *blind-written*
    /// fresh page (no successors — `S(X) = ∅`). The paper's §5.2 analysis
    /// assumes `|S(X)| = 1` and notes that "an object might have no
    /// successors and be flushed without extra logging"; raising this pulls
    /// the measured curve below the closed form.
    pub tree_no_successor_frac: f64,
    /// Tree workload only: when `> 1`, rounds build *chains* of that length
    /// (each fresh page copied from the previous, still-dirty one) before
    /// flushing them newest-first — so the successor table carries
    /// transitive `MAX(X)` spans at decision time, the paper's "an object
    /// may have more than one successor" caveat. `0` or `1` = off (the
    /// paper's |S(X)| = 1 model).
    pub tree_chain_len: u32,
}

impl Fig5Config {
    /// Sensible defaults for `steps = n` and the given discipline.
    pub fn new(n: u32, discipline: SimDiscipline) -> Fig5Config {
        Fig5Config {
            steps: n,
            pages: 2048,
            flushes_per_step: 256,
            seed: 0x5EED_0000 + n as u64,
            discipline,
            page_size: 64,
            verify_recovery: false,
            tree_no_successor_frac: 0.0,
            tree_chain_len: 0,
        }
    }
}

/// Result of one Figure 5 measurement run.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// Steps `N`.
    pub steps: u32,
    /// Flush decisions taken while the backup was active.
    pub decisions: u64,
    /// Decisions that required Iw/oF.
    pub iwof: u64,
    /// Measured probability `iwof / decisions`.
    pub measured: f64,
    /// The §5 closed-form prediction for this `N` and discipline.
    pub predicted: f64,
    /// Identity-write bytes appended (the extra log volume).
    pub iwof_bytes: u64,
    /// Total log bytes appended during the backup window.
    pub log_bytes: u64,
    /// Whether the end-of-run media recovery matched the oracle
    /// (`true` when not requested).
    pub recovery_ok: bool,
}

/// Run one Figure 5 measurement.
pub fn run_fig5(cfg: &Fig5Config) -> Result<Fig5Result, String> {
    match cfg.discipline {
        SimDiscipline::General => run_general(cfg),
        SimDiscipline::Tree => run_tree(cfg),
    }
}

fn engine_for(cfg: &Fig5Config, discipline: Discipline) -> Result<Engine, String> {
    Engine::new(EngineConfig {
        discipline,
        policy: BackupPolicy::Protocol,
        ..EngineConfig::single(cfg.pages, cfg.page_size)
    })
    .map_err(|e| e.to_string())
}

fn finish(
    cfg: &Fig5Config,
    engine: Engine,
    oracle: &ShadowOracle,
    run: lob_core::BackupRun,
    log_bytes_before: u64,
    predicted: f64,
) -> Result<Fig5Result, String> {
    let image = engine.complete_backup(run).map_err(|e| e.to_string())?;
    let (decisions, iwof, _, _, _, _) = engine.coordinator().stats().snapshot();
    let stats = engine.stats();
    let log_bytes = engine.log().stats().bytes - log_bytes_before;

    let recovery_ok = if cfg.verify_recovery {
        engine
            .store()
            .fail_partition(PartitionId(0))
            .map_err(|e| e.to_string())?;
        engine.media_recover(&image).map_err(|e| e.to_string())?;
        oracle.verify_store(&engine, lob_core::Lsn::MAX).is_ok()
    } else {
        true
    };

    Ok(Fig5Result {
        steps: cfg.steps,
        decisions,
        iwof,
        measured: if decisions == 0 {
            0.0
        } else {
            iwof as f64 / decisions as f64
        },
        predicted,
        iwof_bytes: stats.iwof_bytes,
        log_bytes,
        recovery_ok,
    })
}

fn run_general(cfg: &Fig5Config) -> Result<Fig5Result, String> {
    let engine = engine_for(cfg, Discipline::General)?;
    let mut oracle = ShadowOracle::new(cfg.page_size);
    let mut gen = WorkloadGen::new(cfg.seed, cfg.page_size);
    let pages: Vec<PageId> = (0..cfg.pages).map(|i| PageId::new(0, i)).collect();

    // Prefill every page so reads find real content, then quiesce.
    for &p in &pages {
        oracle.execute(&engine, gen.physical(p))?;
    }
    engine.flush_all().map_err(|e| e.to_string())?;
    engine.coordinator().stats().reset();
    let log_bytes_before = engine.log().stats().bytes;

    let mut run = engine.begin_backup(cfg.steps).map_err(|e| e.to_string())?;
    loop {
        for _ in 0..cfg.flushes_per_step {
            // One uniformly-positioned flush: blind-write a random page
            // from a random other page, flush it immediately.
            let x = gen.pick(&pages);
            let mut r = gen.pick(&pages);
            while r == x {
                r = gen.pick(&pages);
            }
            oracle.execute(
                &engine,
                OpBody::Logical(LogicalOp::Mix {
                    reads: vec![r],
                    writes: vec![x],
                    salt: gen.rng().next_u64(),
                }),
            )?;
            engine.flush_page(x).map_err(|e| e.to_string())?;
        }
        if engine.backup_step(&mut run).map_err(|e| e.to_string())? {
            break;
        }
    }
    let predicted = lob_analysis::general_prob(cfg.steps);
    finish(cfg, engine, &oracle, run, log_bytes_before, predicted)
}

fn run_tree(cfg: &Fig5Config) -> Result<Fig5Result, String> {
    let rounds = (cfg.steps as usize) * (cfg.flushes_per_step as usize);
    if rounds > cfg.pages as usize / 2 {
        return Err(format!(
            "tree run needs pages >= 2 * steps * flushes_per_step \
             ({} rounds, {} pages)",
            rounds, cfg.pages
        ));
    }
    let engine = engine_for(cfg, Discipline::Tree)?;
    let mut oracle = ShadowOracle::new(cfg.page_size);
    let mut gen = WorkloadGen::new(cfg.seed, cfg.page_size);
    let all: Vec<PageId> = (0..cfg.pages).map(|i| PageId::new(0, i)).collect();

    // Uniformly interleave used and fresh pages: shuffle, then prefill the
    // first half ("used") and keep the second half as the fresh pool —
    // both uniformly positioned.
    let shuffled = gen.shuffled(&all);
    let (used_init, fresh_pool) = shuffled.split_at(cfg.pages as usize / 2);
    let mut used: Vec<PageId> = used_init.to_vec();
    let mut fresh: Vec<PageId> = fresh_pool.to_vec();
    for &p in &used {
        oracle.execute(&engine, gen.physical(p))?;
    }
    engine.flush_all().map_err(|e| e.to_string())?;
    engine.coordinator().stats().reset();
    let log_bytes_before = engine.log().stats().bytes;

    let chain_len = cfg.tree_chain_len.max(1) as usize;
    let mut run = engine.begin_backup(cfg.steps).map_err(|e| e.to_string())?;
    loop {
        let mut flushed_this_step = 0;
        while flushed_this_step < cfg.flushes_per_step {
            if chain_len > 1 {
                // Build a chain x1 ← x2 ← … ← xk of still-dirty copies, so
                // each decision sees a transitive successor span, then
                // flush newest-first.
                let mut chain: Vec<PageId> = Vec::with_capacity(chain_len);
                for i in 0..chain_len {
                    let x = fresh
                        .pop()
                        .ok_or("fresh page pool exhausted before the run ended")?;
                    let src = if i == 0 {
                        gen.pick(&used)
                    } else {
                        chain[i - 1]
                    };
                    oracle.execute(
                        &engine,
                        lob_ops::OpBody::Logical(LogicalOp::Copy { src, dst: x }),
                    )?;
                    chain.push(x);
                }
                for &x in chain.iter().rev() {
                    engine.flush_page(x).map_err(|e| e.to_string())?;
                    flushed_this_step += 1;
                }
                used.extend(chain);
            } else {
                let x = fresh
                    .pop()
                    .ok_or("fresh page pool exhausted before the run ended")?;
                let op = if gen.chance(cfg.tree_no_successor_frac) {
                    // Blind initialization of a fresh page: S(X) = ∅.
                    gen.physical(x)
                } else {
                    // The paper's |S(X)| = 1 model: uniform source.
                    gen.copy_to_fresh(&used, x)
                };
                oracle.execute(&engine, op)?;
                engine.flush_page(x).map_err(|e| e.to_string())?;
                flushed_this_step += 1;
                used.push(x);
            }
        }
        if engine.backup_step(&mut run).map_err(|e| e.to_string())? {
            break;
        }
    }
    let predicted = lob_analysis::tree_prob(cfg.steps);
    finish(cfg, engine, &oracle, run, log_bytes_before, predicted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn general_measurement_tracks_closed_form() {
        let mut cfg = Fig5Config::new(4, SimDiscipline::General);
        cfg.pages = 512;
        cfg.flushes_per_step = 128;
        cfg.verify_recovery = true;
        let r = run_fig5(&cfg).unwrap();
        assert_eq!(r.decisions, 4 * 128);
        assert!(r.recovery_ok, "media recovery must match the oracle");
        // 512 samples: allow generous sampling noise around 0.625.
        assert!(
            (r.measured - r.predicted).abs() < 0.08,
            "measured {} vs predicted {}",
            r.measured,
            r.predicted
        );
        assert!(r.iwof > 0 && r.iwof_bytes > 0);
    }

    #[test]
    fn tree_measurement_tracks_closed_form() {
        let mut cfg = Fig5Config::new(4, SimDiscipline::Tree);
        cfg.pages = 2048;
        cfg.flushes_per_step = 128;
        cfg.verify_recovery = true;
        let r = run_fig5(&cfg).unwrap();
        assert_eq!(r.decisions, 4 * 128);
        assert!(r.recovery_ok);
        // Tree N=4: predicted 1/6 + 1/8 - 1/96 ≈ 0.281.
        assert!(
            (r.measured - r.predicted).abs() < 0.08,
            "measured {} vs predicted {}",
            r.measured,
            r.predicted
        );
    }

    #[test]
    fn tree_needs_less_logging_than_general() {
        let mk = |d| {
            let mut cfg = Fig5Config::new(8, d);
            cfg.pages = 4096;
            cfg.flushes_per_step = 128;
            run_fig5(&cfg).unwrap()
        };
        let g = mk(SimDiscipline::General);
        let t = mk(SimDiscipline::Tree);
        assert!(
            t.measured < g.measured,
            "tree {} !< general {}",
            t.measured,
            g.measured
        );
    }

    #[test]
    fn measurements_are_deterministic_per_seed() {
        let mut cfg = Fig5Config::new(2, SimDiscipline::General);
        cfg.pages = 256;
        cfg.flushes_per_step = 64;
        let a = run_fig5(&cfg).unwrap();
        let b = run_fig5(&cfg).unwrap();
        assert_eq!(a.measured, b.measured);
        assert_eq!(a.iwof_bytes, b.iwof_bytes);
        assert_eq!(a.log_bytes, b.log_bytes);
        cfg.seed += 1;
        let c = run_fig5(&cfg).unwrap();
        assert_ne!(a.log_bytes, c.log_bytes, "different seed, different run");
    }

    #[test]
    fn successor_knobs_move_the_measurement_as_predicted() {
        let mk = |no_succ: f64, chain: u32| {
            let mut cfg = Fig5Config::new(4, SimDiscipline::Tree);
            cfg.pages = 4096;
            cfg.flushes_per_step = 128;
            cfg.tree_no_successor_frac = no_succ;
            cfg.tree_chain_len = chain;
            run_fig5(&cfg).unwrap().measured
        };
        let base = mk(0.0, 0);
        let no_succ = mk(0.6, 0);
        let chains = mk(0.0, 4);
        assert!(no_succ < base, "successor-free flushes reduce logging");
        assert!(chains > base, "dirty-copy chains increase logging");
    }

    #[test]
    fn tree_config_validation() {
        let mut cfg = Fig5Config::new(64, SimDiscipline::Tree);
        cfg.pages = 64;
        assert!(run_fig5(&cfg).is_err());
    }
}
