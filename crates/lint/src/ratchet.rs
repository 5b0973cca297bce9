//! The ratchets: per-file counts of *tolerated* analyzer surface, checked
//! into `crates/lint/race_ratchet.tsv` (the guarded-by pass's lock-free
//! contracts and allowed unguarded accesses) and
//! `crates/lint/durability_ratchet.tsv` (the durability pass's allowed
//! ordering sites).
//!
//! The rule: counts may only go **down**.
//!
//! - A count above its baseline fails the build (new tolerated surface).
//! - A count below its baseline auto-tightens: the file is rewritten with
//!   the lower number, and CI's `git diff --exit-code` on the ratchet files
//!   forces the tightening to be committed.
//! - Regenerate from scratch with `LOB_LINT_UPDATE_RATCHET=1`.

use crate::durability::DurabilityCounts;
use crate::guarded_by::RaceCounts;
use crate::Diagnostic;
use std::collections::BTreeMap;
use std::path::Path;

/// Location of the race ratchet (the guarded-by pass's tolerated lock-free
/// surface).
pub const RACE_RATCHET_PATH: &str = "crates/lint/race_ratchet.tsv";

/// Location of the durability ratchet (the durability pass's tolerated
/// ordering sites — installs justified by a caller's force,
/// restore-from-durable-image writes).
pub const DURABILITY_RATCHET_PATH: &str = "crates/lint/durability_ratchet.tsv";

/// Parse a ratchet file: `path<TAB>count<TAB>count` per line.
pub fn parse(text: &str) -> BTreeMap<String, (usize, usize)> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split('\t');
        let (Some(path), Some(a), Some(ix)) = (it.next(), it.next(), it.next()) else {
            continue;
        };
        let (Ok(a), Ok(ix)) = (a.parse::<usize>(), ix.parse::<usize>()) else {
            continue;
        };
        out.insert(path.to_string(), (a, ix));
    }
    out
}

/// Render race counts into the checked-in format.
pub fn render_race(counts: &[RaceCounts]) -> String {
    let mut s = String::from(
        "# race ratchet: tolerated lock-free surface per file — counts may only go down.\n\
         # columns: path\\tlockfree-field-contracts\\tallowed-unguarded-accesses\n\
         # regenerate: LOB_LINT_UPDATE_RATCHET=1 cargo test -p lob-lint\n",
    );
    let mut sorted: Vec<&RaceCounts> = counts.iter().collect();
    sorted.sort_by(|a, b| a.path.cmp(&b.path));
    for c in sorted {
        s.push_str(&format!(
            "{}\t{}\t{}\n",
            c.path, c.lockfree_fields, c.allowed_unguarded
        ));
    }
    s
}

/// Render durability counts into the checked-in format.
pub fn render_durability(counts: &[DurabilityCounts]) -> String {
    let mut s = String::from(
        "# durability ratchet: tolerated ordering sites per file — counts may only go down.\n\
         # columns: path\\tallowed-force-order-sites\\tallowed-copy-order-sites\n\
         # regenerate: LOB_LINT_UPDATE_RATCHET=1 cargo test -p lob-lint\n",
    );
    let mut sorted: Vec<&DurabilityCounts> = counts.iter().collect();
    sorted.sort_by(|a, b| a.path.cmp(&b.path));
    for c in sorted {
        s.push_str(&format!(
            "{}\t{}\t{}\n",
            c.path, c.allowed_force, c.allowed_copy
        ));
    }
    s
}

/// Column labels and growth advice for one ratchet kind — the shared
/// comparison engine below is otherwise identical for both files.
struct Kind {
    rel_path: &'static str,
    rule: &'static str,
    grow_a: &'static str,
    grow_b: &'static str,
}

/// Compare current race counts against the checked-in race baseline.
///
/// Increases become diagnostics. Decreases (and vanished files) rewrite the
/// ratchet file in place so the tightening lands in the diff. A missing
/// ratchet file is an error unless `LOB_LINT_UPDATE_RATCHET=1` is set.
pub fn check_race(root: &Path, counts: &[RaceCounts]) -> Vec<Diagnostic> {
    let rows: Vec<(String, usize, usize)> = counts
        .iter()
        .map(|c| (c.path.clone(), c.lockfree_fields, c.allowed_unguarded))
        .collect();
    check_kind(
        root,
        &rows,
        render_race(counts),
        &Kind {
            rel_path: RACE_RATCHET_PATH,
            rule: "guarded-by",
            grow_a: "lock-free field contracts grew {a} -> {b} — the ratchet only goes down; guard the field instead of annotating it",
            grow_b: "allowed-unguarded accesses grew {a} -> {b} — take the guard instead of widening the escape hatch",
        },
    )
}

/// Compare current durability counts against the checked-in baseline, with
/// the same tighten-in-place semantics as [`check_race`].
pub fn check_durability(root: &Path, counts: &[DurabilityCounts]) -> Vec<Diagnostic> {
    let rows: Vec<(String, usize, usize)> = counts
        .iter()
        .map(|c| (c.path.clone(), c.allowed_force, c.allowed_copy))
        .collect();
    check_kind(
        root,
        &rows,
        render_durability(counts),
        &Kind {
            rel_path: DURABILITY_RATCHET_PATH,
            rule: "durability-order",
            grow_a: "allowed force-order sites grew {a} -> {b} — the ratchet only goes down; establish the force locally instead of annotating",
            grow_b: "allowed copy-order sites grew {a} -> {b} — the ratchet only goes down; read before copying instead of annotating",
        },
    )
}

fn check_kind(
    root: &Path,
    counts: &[(String, usize, usize)],
    rendered: String,
    kind: &Kind,
) -> Vec<Diagnostic> {
    let path = root.join(kind.rel_path);
    let update = std::env::var("LOB_LINT_UPDATE_RATCHET").is_ok_and(|v| v == "1");
    let baseline = match std::fs::read_to_string(&path) {
        Ok(t) => parse(&t),
        Err(_) if update => BTreeMap::new(),
        Err(e) => {
            return vec![Diagnostic::new(
                kind.rule,
                kind.rel_path,
                0,
                format!(
                "cannot read ratchet file: {e} — run with LOB_LINT_UPDATE_RATCHET=1 to create it"
            ),
            )]
        }
    };

    let mut out = Vec::new();
    let mut tightened = update;
    for (cpath, a, b) in counts {
        let (base_a, base_b) = baseline.get(cpath).copied().unwrap_or((0, 0));
        if *a > base_a && !update {
            let msg = kind
                .grow_a
                .replace("{a}", &base_a.to_string())
                .replace("{b}", &a.to_string());
            out.push(Diagnostic::new(kind.rule, cpath, 0, msg));
        }
        if *b > base_b && !update {
            let msg = kind
                .grow_b
                .replace("{a}", &base_b.to_string())
                .replace("{b}", &b.to_string());
            out.push(Diagnostic::new(kind.rule, cpath, 0, msg));
        }
        if *a < base_a || *b < base_b {
            tightened = true;
        }
    }
    // Files that dropped out of the counts entirely are also a tightening.
    for path in baseline.keys() {
        if !counts.iter().any(|(p, _, _)| p == path) {
            tightened = true;
        }
    }

    if out.is_empty() && tightened {
        if std::fs::write(&path, rendered).is_err() {
            out.push(Diagnostic::new(
                kind.rule,
                kind.rel_path,
                0,
                "ratchet tightened but the file could not be rewritten".to_string(),
            ));
        } else {
            eprintln!(
                "lob-lint: ratchet tightened — commit the updated {}",
                kind.rel_path
            );
        }
    }
    out
}
