//! `lob-lint` CLI: run every pass and print findings, human-readable by
//! default or as a JSON report with `--json`.
//!
//! The JSON report (`"schema": 2`) carries a per-pass timing array
//! (`{"name", "ms", "findings", "ok"}` — one entry per pass, in run
//! order), one object per finding
//! (`{"pass", "file", "line", "rule", "msg"}`), and the read-only status
//! of the durability ratchet: per tracked file a status
//! (`at-baseline` / `below-baseline` / `above-baseline`) plus the
//! baseline and current count pairs, so a consumer can compute deltas
//! without re-parsing the TSVs. The exit code is non-zero when any
//! finding or ratchet regression is present, so CI can gate on it
//! directly.
//!
//! This binary never rewrites the ratchet files — tightening stays in the
//! test-suite path (`cargo test -p lob-lint`), where the rewrite is
//! deliberate and the diff is reviewed.

use lob_lint::{durability, ratchet, Diagnostic};
use std::collections::BTreeMap;
use std::time::Instant;

/// Which pass a rule id belongs to, for the report's `pass` column.
fn pass_of(rule: &str) -> &'static str {
    match rule {
        "fault-hook" => "fault_hook",
        "atomics" => "atomics",
        "durability-order" => "durability",
        "error-flow" => "error_flow",
        _ => "annotations",
    }
}

/// One pass's wall-clock and outcome for the report.
struct PassReport {
    name: &'static str,
    ms: u128,
    findings: usize,
}

/// One ratchet row: `(path, status, baseline (a, b), current (a, b))`.
type RatchetRow = (String, &'static str, (usize, usize), (usize, usize));

/// One ratchet file's per-path status, computed without rewriting.
struct RatchetStatus {
    name: &'static str,
    rows: Vec<RatchetRow>,
    regressed: bool,
}

fn ratchet_status(
    name: &'static str,
    rel_path: &str,
    current: &BTreeMap<String, (usize, usize)>,
) -> RatchetStatus {
    let root = lob_lint::workspace_root();
    let baseline = std::fs::read_to_string(root.join(rel_path))
        .map(|t| ratchet::parse(&t))
        .unwrap_or_default();
    let mut rows = Vec::new();
    let mut regressed = false;
    for (path, &(base_a, base_b)) in &baseline {
        let (a, b) = current.get(path).copied().unwrap_or((0, 0));
        let status = if a > base_a || b > base_b {
            regressed = true;
            "above-baseline"
        } else if a < base_a || b < base_b {
            "below-baseline"
        } else {
            "at-baseline"
        };
        rows.push((path.clone(), status, (base_a, base_b), (a, b)));
    }
    for (path, &(a, b)) in current {
        if !baseline.contains_key(path) && (a > 0 || b > 0) {
            regressed = true;
            rows.push((path.clone(), "above-baseline", (0, 0), (a, b)));
        }
    }
    RatchetStatus {
        name,
        rows,
        regressed,
    }
}

/// Minimal JSON string escaping (the report has no nested structures).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn print_json(passes: &[PassReport], diags: &[Diagnostic], ratchets: &[RatchetStatus]) {
    println!("{{");
    println!("  \"schema\": 2,");
    println!("  \"passes\": [");
    for (i, p) in passes.iter().enumerate() {
        let comma = if i + 1 < passes.len() { "," } else { "" };
        println!(
            "    {{\"name\": \"{}\", \"ms\": {}, \"findings\": {}, \"ok\": {}}}{comma}",
            p.name,
            p.ms,
            p.findings,
            p.findings == 0
        );
    }
    println!("  ],");
    println!("  \"findings\": [");
    for (i, d) in diags.iter().enumerate() {
        let comma = if i + 1 < diags.len() { "," } else { "" };
        println!(
            "    {{\"pass\": \"{}\", \"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"msg\": \"{}\"}}{comma}",
            pass_of(d.rule),
            esc(&d.path),
            d.line,
            d.rule,
            esc(d.msg.as_str())
        );
    }
    println!("  ],");
    println!("  \"ratchets\": {{");
    for (ri, r) in ratchets.iter().enumerate() {
        println!("    \"{}\": {{", r.name);
        println!("      \"regressed\": {},", r.regressed);
        println!("      \"files\": {{");
        for (i, (path, status, base, cur)) in r.rows.iter().enumerate() {
            let comma = if i + 1 < r.rows.len() { "," } else { "" };
            println!(
                "        \"{}\": {{\"status\": \"{}\", \"baseline\": [{}, {}], \"current\": [{}, {}]}}{comma}",
                esc(path),
                status,
                base.0,
                base.1,
                cur.0,
                cur.1
            );
        }
        println!("      }}");
        let comma = if ri + 1 < ratchets.len() { "," } else { "" };
        println!("    }}{comma}");
    }
    println!("  }}");
    println!("}}");
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let root = lob_lint::workspace_root();
    let files = match lob_lint::load_workspace_sources(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("lob-lint: cannot load workspace sources: {e}");
            std::process::exit(2);
        }
    };

    let mut passes = Vec::new();
    let mut diags = Vec::new();
    for (name, pass) in lob_lint::passes() {
        let t0 = Instant::now();
        let found = pass(&files);
        passes.push(PassReport {
            name,
            ms: t0.elapsed().as_millis(),
            findings: found.len(),
        });
        diags.extend(found);
    }

    let (_, dur_counts) = durability::check_with_counts(&files, &durability::Config::workspace());
    let dur_map: BTreeMap<String, (usize, usize)> = dur_counts
        .iter()
        .map(|c| (c.path.clone(), (c.allowed_force, c.allowed_copy)))
        .collect();
    let ratchets = vec![ratchet_status(
        "durability",
        ratchet::DURABILITY_RATCHET_PATH,
        &dur_map,
    )];

    if json {
        print_json(&passes, &diags, &ratchets);
    } else {
        for d in &diags {
            println!("{d}");
        }
        for r in &ratchets {
            for (path, status, base, cur) in &r.rows {
                if *status != "at-baseline" {
                    println!(
                        "ratchet[{}] {}: {} (baseline {}/{}, current {}/{})",
                        r.name, path, status, base.0, base.1, cur.0, cur.1
                    );
                }
            }
        }
        let ratchet_word = |r: &RatchetStatus| if r.regressed { "REGRESSED" } else { "ok" };
        let slowest = passes.iter().max_by_key(|p| p.ms);
        println!(
            "lob-lint: {} finding(s) across {} passes{}; ratchets: {}",
            diags.len(),
            passes.len(),
            slowest
                .map(|p| format!(" (slowest: {} at {}ms)", p.name, p.ms))
                .unwrap_or_default(),
            ratchets
                .iter()
                .map(|r| format!("{} {}", r.name, ratchet_word(r)))
                .collect::<Vec<_>>()
                .join(", "),
        );
    }

    if !diags.is_empty() || ratchets.iter().any(|r| r.regressed) {
        std::process::exit(1);
    }
}
