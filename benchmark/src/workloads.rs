//! The four workloads: every constant that sizes them lives here, frozen.
//!
//! Work is fixed, never timed: each plan names its op counts, round count
//! and duty schedule as literals, sized once so a run's measured part
//! takes about [`crate::manifest::RUN_SECONDS`] on the 2-core reference
//! box. `--seconds` only scales the number of rounds.

use crate::adapter::{DbSpec, Front};
use crate::gen::WriteMix;
use crate::manifest::RUN_SECONDS;
use std::path::Path;

/// All workloads use 1 KiB pages.
pub const PAGE_SIZE: usize = 1024;

/// Dirty pages the inline flusher tolerates before flushing the oldest.
pub const FLUSH_KEEP: usize = 256;

/// Writes executed but never committed before every crash: the tail a
/// crash must lose. The shadow never sees them.
pub const UNCOMMITTED_TAIL: u32 = 8;

#[derive(Clone, Debug)]
pub enum Traffic {
    /// Page operations, Zipf(`theta`) over the `span` hottest-ranked pages
    /// of a partition.
    Pages {
        span: u32,
        theta: f64,
        read_share: f64,
        mix: WriteMix,
    },
    /// B-tree gets (Zipf over the preloaded keys) and inserts of new keys.
    Tree {
        preload_keys: u32,
        value_len: usize,
        theta: f64,
        insert_share: f64,
    },
}

#[derive(Clone, Debug)]
pub struct Plan {
    pub name: &'static str,
    pub db: DbSpec,
    pub traffic: Traffic,
    /// Driver threads. Session `s` of a multi-session plan is confined to
    /// partition `s`; a single session ranges over every partition.
    pub sessions: usize,
    /// Lifecycle rounds at `RUN_SECONDS`.
    pub rounds: u32,
    /// Foreground ops per session per round.
    pub ops_per_round: u32,
    /// Session 0 makes one sweep call every this many of its ops.
    pub sweep_every: u32,
    /// Full domain sweeps completed per round (rounds end on a sweep
    /// boundary, so no sweep is ever in flight at a crash).
    pub sweeps_per_round: u32,
    /// Engine front: every this-many-th completed sweep is registered as
    /// the catalog's generation (the last one of a round).
    pub register_every: u32,
    /// The flusher pauses for the last this many ops of a round, so crash
    /// redo has a tail to replay.
    pub flusher_pause_tail: u32,
    /// One `truncate_log` every this many ops (session 0).
    pub truncate_every: u32,
    /// Untimed reads before each round's clock starts. Every round begins
    /// on a cache emptied by the restore; users do not pay that on every
    /// operation, so it is warmed before timing.
    pub warmup: Warmup,
    /// Every this-many-th round (and always the last) compares the whole
    /// database with the shadow after its redo and after its restore.
    pub verify_every: u32,
    /// Times set-up (build, preload, first full backup) is repeated, so
    /// the repeats total at least a second; the metric is their median
    /// and the run measures on the last build.
    pub setup_repeats: u32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Warmup {
    None,
    /// Read every page once (an unbounded cache becomes all-hit).
    EveryPage,
    /// Read as many pages as the bounded cache holds, so that misses evict
    /// from the first timed op on, then make this many tree gets to bring
    /// the hot nodes in.
    TreeGets(u32),
}

impl Plan {
    /// Sweep calls one full domain sweep takes: the tracker advances one
    /// step per call.
    pub fn steps_per_sweep(&self) -> u32 {
        self.ops_per_round / self.sweep_every / self.sweeps_per_round
    }

    /// Pages one sweep call copies.
    pub fn pages_per_sweep_call(&self) -> u32 {
        self.db.domain_pages() / self.steps_per_sweep()
    }

    /// The schedule must tile: a whole number of sweeps per round, a whole
    /// number of pages per call.
    pub fn validate(&self) -> Result<(), String> {
        let calls = self.ops_per_round / self.sweep_every;
        let tiles = self.ops_per_round % self.sweep_every == 0
            && calls % self.sweeps_per_round == 0
            && self.steps_per_sweep() > 0
            && self.db.domain_pages() % self.steps_per_sweep() == 0
            && self.flusher_pause_tail < self.ops_per_round;
        if tiles {
            Ok(())
        } else {
            Err(format!(
                "{}: the duty schedule does not tile the round",
                self.name
            ))
        }
    }
}

/// How much of the full size to run.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// `--seconds`: rounds scale linearly with it; 0 means the minimum of
    /// two rounds.
    pub seconds: u32,
    /// Divide every page count, op count and key count by this.
    pub shrink: u32,
}

impl Scale {
    pub fn full(seconds: u32) -> Scale {
        Scale { seconds, shrink: 1 }
    }

    /// `--check`: two rounds at a quarter of every size, about 1/50 of a
    /// full run's work.
    pub fn check() -> Scale {
        Scale {
            seconds: 0,
            shrink: 4,
        }
    }
}

fn spec(front: Front, partitions: u32, pages_per_partition: u32) -> DbSpec {
    DbSpec {
        front,
        tree_discipline: false,
        page_size: PAGE_SIZE,
        partitions,
        pages_per_partition,
        per_partition_domains: true,
        cache_capacity: None,
        file_log: None,
        gather_window: false,
        archive: false,
        tree: false,
        sweep_batch: 8,
    }
}

/// The four plans at full size, in manifest order.
fn full_size(out_dir: &Path) -> Vec<Plan> {
    vec![
        Plan {
            name: "logical_write_sweep",
            db: spec(Front::Service, 4, 8192),
            traffic: Traffic::Pages {
                span: 8192,
                theta: 0.99,
                read_share: 0.10,
                mix: WriteMix::MixAndSetBytes,
            },
            sessions: 1,
            rounds: 36,
            ops_per_round: 32_768,
            sweep_every: 8,
            sweeps_per_round: 8,
            register_every: 1,
            flusher_pause_tail: 256,
            truncate_every: 4096,
            warmup: Warmup::EveryPage,
            verify_every: 1,
            setup_repeats: 7,
        },
        Plan {
            name: "btree_read_pressure",
            db: DbSpec {
                tree_discipline: true,
                per_partition_domains: false,
                cache_capacity: Some(4096),
                tree: true,
                ..spec(Front::Engine, 1, 65_536)
            },
            traffic: Traffic::Tree {
                preload_keys: 49_152,
                value_len: 224,
                theta: 0.8,
                insert_share: 0.05,
            },
            sessions: 1,
            rounds: 32,
            ops_per_round: 16_384,
            sweep_every: 8,
            sweeps_per_round: 1,
            register_every: 1,
            flusher_pause_tail: 2048,
            truncate_every: 4096,
            warmup: Warmup::TreeGets(1024),
            verify_every: 32,
            setup_repeats: 3,
        },
        Plan {
            name: "sessions_group_commit",
            db: DbSpec {
                file_log: Some(out_dir.join("sessions_group_commit.log")),
                gather_window: true,
                ..spec(Front::Service, 2, 32_768)
            },
            traffic: Traffic::Pages {
                span: 32_768,
                theta: 0.99,
                read_share: 0.0,
                mix: WriteMix::SetBytes,
            },
            sessions: 2,
            rounds: 26,
            ops_per_round: 2048,
            sweep_every: 8,
            sweeps_per_round: 2,
            register_every: 1,
            flusher_pause_tail: 512,
            truncate_every: 1024,
            warmup: Warmup::None,
            verify_every: 1,
            setup_repeats: 3,
        },
        Plan {
            name: "media_restore",
            db: DbSpec {
                per_partition_domains: false,
                archive: true,
                sweep_batch: 64,
                ..spec(Front::Engine, 4, 16_384)
            },
            traffic: Traffic::Pages {
                span: 1024,
                theta: 0.0,
                read_share: 0.0,
                mix: WriteMix::PhysicalAndMix,
            },
            sessions: 1,
            rounds: 30,
            ops_per_round: 32_768,
            sweep_every: 8,
            sweeps_per_round: 4,
            register_every: 4,
            flusher_pause_tail: 256,
            truncate_every: 4096,
            warmup: Warmup::None,
            verify_every: 1,
            setup_repeats: 5,
        },
    ]
}

/// The plans at `scale`.
pub fn plans(out_dir: &Path, scale: Scale) -> Vec<Plan> {
    let k = scale.shrink.max(1);
    full_size(out_dir)
        .into_iter()
        .map(|mut p| {
            p.rounds = if scale.seconds == 0 {
                2
            } else {
                (p.rounds * scale.seconds).div_ceil(RUN_SECONDS).max(2)
            };
            p.db.pages_per_partition /= k;
            if let Some(c) = p.db.cache_capacity.as_mut() {
                *c /= k as usize;
            }
            p.ops_per_round /= k;
            p.flusher_pause_tail /= k;
            p.truncate_every /= k;
            match &mut p.traffic {
                Traffic::Pages { span, .. } => *span /= k,
                Traffic::Tree { preload_keys, .. } => *preload_keys /= k,
            }
            if let Warmup::TreeGets(n) = &mut p.warmup {
                *n /= k;
            }
            p
        })
        .collect()
}
