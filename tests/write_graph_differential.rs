//! Differential test of the production write graph against the
//! whole-graph reference construction.
//!
//! `lob_recovery::WriteGraph` maintains itself in O(nodes an insertion
//! touches): in-place merges, slot-keyed edges, a cycle search seeded at the
//! nodes that gained edges. `lob_harness::ReferenceWriteGraph` rebuilds
//! merged nodes from scratch and runs Tarjan over the entire graph. Both are
//! fed the same seeded histories — physiological, physical and identity
//! writes, `Copy`, `MovRec` and `Mix` (overlapping read and write sets, so
//! merges of several nodes and cycles of every shape occur), in both graph
//! modes, with installs of random frontier nodes interleaved — and after
//! **every** step everything a caller can observe must agree: the returned
//! node id, the op → node partition, `vars`, `wal_floor`, `preds`,
//! `frontier()`, `flush_plan()` and `min_uninstalled_lsn()`.
//!
//! A failure names the seed and the step; seeds are independent, so the
//! case reproduces alone.

use bytes::Bytes;
use lob_core::{GraphMode, Lsn, OpBody, PageId};
use lob_harness::ReferenceWriteGraph;
use lob_ops::{LogicalOp, PhysioOp};
use lob_recovery::{NodeId, WriteGraph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A page drawn with a bias towards the low indexes, so a few pages are
/// re-dirtied and re-read all the time and the tail only now and then.
fn hot_page(rng: &mut SmallRng, universe: u32) -> PageId {
    let a = rng.gen_range(0..universe);
    let b = rng.gen_range(0..universe);
    PageId::new(0, a.min(b))
}

fn page_set(rng: &mut SmallRng, universe: u32, max: usize) -> Vec<PageId> {
    let mut pages: Vec<PageId> = (0..rng.gen_range(1..max + 1))
        .map(|_| hot_page(rng, universe))
        .collect();
    pages.sort();
    pages.dedup();
    pages
}

fn random_op(rng: &mut SmallRng, universe: u32) -> OpBody {
    loop {
        let value = Bytes::from_static(b"v");
        let (p, q) = (hot_page(rng, universe), hot_page(rng, universe));
        return match rng.gen_range(0..10u32) {
            0..=2 => OpBody::Physio(PhysioOp::SetBytes {
                target: p,
                offset: 0,
                bytes: Bytes::from_static(b"x"),
            }),
            3 => OpBody::PhysicalWrite { target: p, value },
            4 => OpBody::IdentityWrite { target: p, value },
            5 if p != q => OpBody::Logical(LogicalOp::Copy { src: p, dst: q }),
            6 if p != q => OpBody::Logical(LogicalOp::MovRec {
                old: p,
                sep: Bytes::from_static(b"k"),
                new: q,
            }),
            5 | 6 => continue,
            // Reads and writes drawn independently: some writes are blind,
            // some are not, and one op can merge several holders.
            _ => OpBody::Logical(LogicalOp::Mix {
                reads: page_set(rng, universe, 3),
                writes: page_set(rng, universe, 3),
                salt: 1,
            }),
        };
    }
}

struct Pair {
    fast: WriteGraph,
    slow: ReferenceWriteGraph,
    next_lsn: u64,
    what: String,
}

impl Pair {
    fn new(mode: GraphMode) -> Pair {
        Pair {
            fast: WriteGraph::new(mode),
            slow: ReferenceWriteGraph::new(mode),
            next_lsn: 0,
            what: String::new(),
        }
    }

    fn add(&mut self, body: &OpBody) -> NodeId {
        self.next_lsn += 1;
        let lsn = Lsn(self.next_lsn);
        let id = self.fast.add_op(lsn, body);
        let want = self.slow.add_op(lsn, body);
        assert_eq!(id.raw(), want, "{}: id returned for {body:?}", self.what);
        assert_eq!(
            id.raw(),
            self.next_lsn,
            "{}: one fresh id per op",
            self.what
        );
        id
    }

    /// Install a random frontier node in both graphs.
    fn install_one(&mut self, rng: &mut SmallRng) {
        let frontier = self.fast.frontier();
        if frontier.is_empty() {
            return;
        }
        let Some(&pick) = frontier.get(rng.gen_range(0..frontier.len())) else {
            return;
        };
        let mut got = self
            .fast
            .install_node(pick)
            .expect("frontier node installs");
        got.sort_unstable();
        assert_eq!(
            Some(got),
            self.slow.install_node(pick.raw()),
            "{}: ops installed with {pick:?}",
            self.what
        );
    }

    /// Everything observable must agree. `plans_for`: the nodes whose flush
    /// plans are compared (a plan costs its ancestor set).
    fn compare(&self, plans_for: &[NodeId]) {
        let what = &self.what;
        let ids: Vec<NodeId> = self.fast.node_ids().collect();
        let raw = |ids: &[NodeId]| ids.iter().map(|n| n.raw()).collect::<Vec<u64>>();
        assert_eq!(raw(&ids), self.slow.node_ids(), "{what}: live node ids");
        assert_eq!(self.fast.node_count(), ids.len(), "{what}: node_count");
        for &id in &ids {
            let mut ops = self.fast.ops(id).expect("live").to_vec();
            ops.sort_unstable();
            assert_eq!(Some(ops), self.slow.ops(id.raw()), "{what}: ops of {id:?}");
            let vars = self.fast.vars(id).expect("live");
            assert_eq!(
                Some(vars.to_vec()),
                self.slow.vars(id.raw()),
                "{what}: vars of {id:?}"
            );
            for &v in vars {
                assert_eq!(self.fast.node_of(v), Some(id), "{what}: node_of({v})");
            }
            assert_eq!(
                self.fast.wal_floor(id).ok(),
                self.slow.wal_floor(id.raw()),
                "{what}: wal_floor of {id:?}"
            );
            let preds = self.fast.preds(id).expect("live");
            assert_eq!(
                Some(raw(&preds)),
                self.slow.preds(id.raw()),
                "{what}: preds of {id:?}"
            );
            assert_eq!(self.fast.has_preds(id), Ok(!preds.is_empty()));
        }
        assert_eq!(
            raw(&self.fast.frontier()),
            self.slow.frontier(),
            "{what}: frontier"
        );
        assert_eq!(
            self.fast.min_uninstalled_lsn(),
            self.slow.min_uninstalled_lsn(),
            "{what}: min_uninstalled_lsn"
        );
        for &id in plans_for {
            assert_eq!(
                self.fast.flush_plan(id).ok().map(|p| raw(&p)),
                self.slow.flush_plan(id.raw()),
                "{what}: flush_plan of {id:?}"
            );
        }
    }
}

/// One short history over a handful of pages: conflicts, merges and cycles
/// on nearly every step. Every node's flush plan is compared every step.
fn small_history(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0000 + seed);
    let mode = if seed % 2 == 0 {
        GraphMode::Refined
    } else {
        GraphMode::Intersecting
    };
    let universe = rng.gen_range(3..14u32);
    let steps = rng.gen_range(8..40u32);
    let install_share = rng.gen_range(0..4u32); // of 8
    let mut pair = Pair::new(mode);
    for step in 0..steps {
        pair.what = format!("seed {seed} ({mode:?}, {universe} pages) step {step}");
        if rng.gen_range(0..8u32) < install_share {
            pair.install_one(&mut rng);
        } else {
            let body = random_op(&mut rng, universe);
            pair.add(&body);
        }
        let all: Vec<NodeId> = pair.fast.node_ids().collect();
        pair.compare(&all);
        pair.fast
            .check_invariants()
            .unwrap_or_else(|e| panic!("{}: {e}", pair.what));
    }
}

/// A standing graph: grow an uninstalled tail of `standing` operations,
/// then keep it there, installing as fast as adding.
fn standing_history(seed: u64, mode: GraphMode, universe: u32, standing: usize, steps: u32) {
    let mut rng = SmallRng::seed_from_u64(0x57A9_0000 + seed);
    let mut pair = Pair::new(mode);
    let mut peak = 0usize;
    for step in 0..steps {
        pair.what = format!("standing seed {seed} ({mode:?}, {universe} pages) step {step}");
        let mut plans: Vec<NodeId> = Vec::new();
        if pair.slow.op_count() >= standing {
            pair.install_one(&mut rng);
        } else {
            let body = random_op(&mut rng, universe);
            plans.push(pair.add(&body));
        }
        peak = peak.max(pair.slow.op_count());
        let ids: Vec<NodeId> = pair.fast.node_ids().collect();
        for _ in 0..3 {
            plans.extend(ids.get(rng.gen_range(0..ids.len().max(1))));
        }
        pair.compare(&plans);
        if step % 64 == 0 {
            pair.fast
                .check_invariants()
                .unwrap_or_else(|e| panic!("{}: {e}", pair.what));
        }
    }
    assert_eq!(peak, standing, "seed {seed}: the tail reached its size");
}

const SMALL_HISTORIES: u64 = 10_000;

#[test]
fn small_histories_first_half_match_the_reference() {
    (0..SMALL_HISTORIES / 2).for_each(small_history);
}

#[test]
fn small_histories_second_half_match_the_reference() {
    (SMALL_HISTORIES / 2..SMALL_HISTORIES).for_each(small_history);
}

#[test]
fn standing_graphs_over_hot_pages_match_the_reference() {
    standing_history(1, GraphMode::Refined, 96, 256, 1200);
    standing_history(2, GraphMode::Refined, 512, 2048, 2448);
}

#[test]
fn standing_wide_and_intersecting_graphs_match_the_reference() {
    standing_history(3, GraphMode::Refined, 2048, 2048, 2448);
    standing_history(4, GraphMode::Intersecting, 512, 1024, 1424);
}
