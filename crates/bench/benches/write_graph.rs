//! Criterion bench: write-graph maintenance cost, `W` vs `rW`.
//!
//! `write_graph_churn` measures `add_op` + frontier-install throughput for
//! a random logical workload under both constructions. The refined graph
//! does more work per insertion (steals, inverse edges) but keeps nodes
//! small; the intersecting graph degenerates into few huge nodes. It
//! installs the frontier every 8 ops, so its graph never holds more than a
//! handful of nodes.
//!
//! `write_graph_standing` measures what an engine with an unflushed tail
//! pays: one physiological re-dirty of a Zipf-chosen page against a
//! standing refined graph of 256 or 2048 uninstalled mixed operations —
//! the commonest write there is, and a merge every time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lob_bench::zipf::ZipfGen;
use lob_core::{GraphMode, Lsn, OpBody, PageId};
use lob_harness::WorkloadGen;
use lob_recovery::WriteGraph;

fn churn(mode: GraphMode, ops: u64, pages: u32) {
    let mut graph = WriteGraph::new(mode);
    let mut gen = WorkloadGen::new(5, 64);
    let ids: Vec<PageId> = (0..pages).map(|i| PageId::new(0, i)).collect();
    for i in 0..ops {
        let body = if gen.chance(0.3) {
            let p = ids[gen.below(ids.len())];
            gen.physical(p)
        } else if gen.chance(0.5) {
            gen.mix(&ids, 2, 2)
        } else {
            let p = ids[gen.below(ids.len())];
            gen.physio(p)
        };
        graph.add_op(Lsn(i + 1), &body);
        // Keep the graph bounded the way a cache manager would: install the
        // frontier every few operations.
        if i % 8 == 0 {
            for node in graph.frontier() {
                let _ = graph.install_node(node);
            }
        }
    }
}

/// A refined graph of `tail` uninstalled operations over `tail` pages
/// (Zipf 0.99 targets; physiological updates, two-page `Mix`es and blind
/// writes), and a ring of re-dirtying updates over the same distribution.
fn standing(tail: usize) -> (WriteGraph, Vec<OpBody>) {
    let mut graph = WriteGraph::new(GraphMode::Refined);
    let mut gen = WorkloadGen::new(7, 64);
    let mut zipf = ZipfGen::new(11, tail, 0.99);
    let ids: Vec<PageId> = (0..tail as u32).map(|i| PageId::new(0, i)).collect();
    let mut hot = move || ids[zipf.next_rank()];
    for i in 0..tail as u64 {
        let body = match i % 4 {
            0 => gen.mix(&[hot(), hot(), hot(), hot()], 2, 2),
            1 => gen.physical(hot()),
            _ => gen.physio(hot()),
        };
        graph.add_op(Lsn(i + 1), &body);
    }
    let redirty = (0..1024).map(|_| gen.physio(hot())).collect();
    (graph, redirty)
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("write_graph_churn");
    for pages in [64u32, 512] {
        g.bench_function(BenchmarkId::new("intersecting_W", pages), |b| {
            b.iter(|| churn(GraphMode::Intersecting, 2000, pages))
        });
        g.bench_function(BenchmarkId::new("refined_rW", pages), |b| {
            b.iter(|| churn(GraphMode::Refined, 2000, pages))
        });
    }
    g.finish();

    let mut g = c.benchmark_group("write_graph_standing");
    for tail in [256usize, 2048] {
        let (mut graph, redirty) = standing(tail);
        let mut lsn = tail as u64;
        let mut ring = redirty.iter().cycle();
        g.bench_function(format!("standing_{tail}"), |b| {
            b.iter(|| {
                lsn += 1;
                ring.next().map(|body| graph.add_op(Lsn(lsn), body))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
