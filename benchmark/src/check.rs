//! `--check`: every workload at about 1/50 of full size, the declaration
//! checks, and a determinism self-test — two same-seed runs of each
//! single-threaded workload must agree bit for bit on the count metrics.

use crate::driver;
use crate::manifest::{check_declarations, LayerKind, END_TO_END, PER_LAYER};
use crate::probes;
use crate::report::{end_to_end, per_layer, Metrics};
use crate::workloads::{plans, Scale};
use std::collections::BTreeMap;
use std::path::Path;

const SEED: u64 = 0xC0FFEE;

/// Every declared name printed exactly once with its declared unit, and
/// no NaN or placeholder zero among the end-to-end metrics.
fn check_printed(workload: &str, e2e: &Metrics, layer: &Metrics, problems: &mut Vec<String>) {
    let declared: Vec<(&str, &str)> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .collect();
    let mut printed: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (name, unit, _) in e2e.iter().chain(layer) {
        printed.entry(name).or_default().push(unit);
    }
    for (name, unit) in &declared {
        match printed.get(name).map(Vec::as_slice) {
            Some([u]) if u == unit => {}
            Some([u]) => problems.push(format!(
                "{workload}: {name} printed in {u}, declared {unit}"
            )),
            Some(_) => problems.push(format!("{workload}: {name} printed more than once")),
            None => problems.push(format!("{workload}: {name} not printed")),
        }
    }
    if printed.len() != declared.len() {
        problems.push(format!("{workload}: printed a metric that is not declared"));
    }
    for (name, _, s) in e2e {
        if !s.value.is_finite() || s.value == 0.0 {
            problems.push(format!("{workload}: end-to-end {name} = {}", s.value));
        }
    }
    for (name, _, s) in layer {
        if !s.value.is_finite() {
            problems.push(format!("{workload}: per-layer {name} is not finite"));
        }
    }
}

/// The values two same-seed single-threaded runs must reproduce exactly.
fn exact_values(e2e: &Metrics, layer: &Metrics) -> Vec<(&'static str, u64)> {
    let counts = PER_LAYER
        .iter()
        .filter(|d| d.kind == LayerKind::Count)
        .map(|d| d.name);
    let names: Vec<&str> = ["log_bytes_per_op", "forces_per_commit"]
        .into_iter()
        .chain(counts)
        .collect();
    e2e.iter()
        .chain(layer)
        .filter(|(n, _, _)| names.contains(n))
        .map(|(n, _, s)| (*n, s.value.to_bits()))
        .collect()
}

pub fn run(out: &Path) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let committed = std::fs::read_to_string("BENCHMARK.json").ok();
    let mut problems = check_declarations(committed.as_deref());

    for plan in plans(out, Scale::check()) {
        // One traced run yields both metric sets: even rounds are traced,
        // odd rounds are not, and the end-to-end series span both.
        let measure = |seed: u64| -> Result<(Metrics, Metrics, u64, u64), String> {
            let (m, db) = driver::run(&plan, seed, true)?;
            let probes = probes::run_all(&plan, &db, out);
            Ok((
                end_to_end(&m),
                per_layer(&m, &probes),
                m.attempted,
                m.failed,
            ))
        };
        let (e2e, layer, attempted, failed) = measure(SEED)?;
        println!(
            "check {}: attempted={attempted} failed={failed} rounds={} ops_per_round={}",
            plan.name, plan.rounds, plan.ops_per_round
        );
        if failed != 0 {
            problems.push(format!("{}: {failed} of {attempted} failed", plan.name));
        }
        check_printed(plan.name, &e2e, &layer, &mut problems);
        if plan.sessions == 1 {
            let (e2e2, layer2, _, _) = measure(SEED)?;
            let (a, b) = (exact_values(&e2e, &layer), exact_values(&e2e2, &layer2));
            for ((name, x), (_, y)) in a.iter().zip(&b) {
                if x != y {
                    problems.push(format!(
                        "{}: {name} differs between two same-seed runs ({} vs {})",
                        plan.name,
                        f64::from_bits(*x),
                        f64::from_bits(*y)
                    ));
                }
            }
            println!("check {}: {} exact values repeat", plan.name, a.len());
        }
    }
    if problems.is_empty() {
        println!("check: ok");
        Ok(())
    } else {
        for p in &problems {
            eprintln!("check: {p}");
        }
        Err(format!("{} check(s) failed", problems.len()))
    }
}
