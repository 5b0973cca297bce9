//! The durability ratchet: per-file counts of the durability pass's
//! *tolerated* ordering sites, checked into
//! `crates/lint/durability_ratchet.tsv`.
//!
//! The rule: counts may only go **down**.
//!
//! - A count above its baseline fails the build (new tolerated surface).
//! - A count below its baseline auto-tightens: the file is rewritten with
//!   the lower number, and CI's `git diff --exit-code` on the ratchet file
//!   forces the tightening to be committed.
//! - Regenerate from scratch with `LOB_LINT_UPDATE_RATCHET=1`.

use crate::durability::DurabilityCounts;
use crate::Diagnostic;
use std::collections::BTreeMap;
use std::path::Path;

/// Location of the durability ratchet (the durability pass's tolerated
/// ordering sites — installs justified by a caller's force,
/// restore-from-durable-image writes).
pub const DURABILITY_RATCHET_PATH: &str = "crates/lint/durability_ratchet.tsv";

/// The ratchet's diagnostics carry the durability pass's rule id.
const RULE: &str = "durability-order";

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

/// Compare current durability counts against the checked-in baseline.
///
/// Increases become diagnostics. Decreases (and vanished files) rewrite the
/// ratchet file in place so the tightening lands in the diff. A missing
/// ratchet file is an error unless `LOB_LINT_UPDATE_RATCHET=1` is set.
pub fn check_durability(root: &Path, counts: &[DurabilityCounts]) -> Vec<Diagnostic> {
    let path = root.join(DURABILITY_RATCHET_PATH);
    let update = std::env::var("LOB_LINT_UPDATE_RATCHET").is_ok_and(|v| v == "1");
    let baseline = match std::fs::read_to_string(&path) {
        Ok(t) => parse(&t),
        Err(_) if update => BTreeMap::new(),
        Err(e) => {
            return vec![Diagnostic::new(
                RULE,
                DURABILITY_RATCHET_PATH,
                0,
                format!(
                "cannot read ratchet file: {e} — run with LOB_LINT_UPDATE_RATCHET=1 to create it"
            ),
            )]
        }
    };

    let mut out = Vec::new();
    let mut tightened = update;
    for c in counts {
        let (base_force, base_copy) = baseline.get(&c.path).copied().unwrap_or((0, 0));
        if c.allowed_force > base_force && !update {
            out.push(Diagnostic::new(RULE, &c.path, 0, format!(
                "allowed force-order sites grew {base_force} -> {} — the ratchet only goes down; establish the force locally instead of annotating",
                c.allowed_force
            )));
        }
        if c.allowed_copy > base_copy && !update {
            out.push(Diagnostic::new(RULE, &c.path, 0, format!(
                "allowed copy-order sites grew {base_copy} -> {} — the ratchet only goes down; read before copying instead of annotating",
                c.allowed_copy
            )));
        }
        if c.allowed_force < base_force || c.allowed_copy < base_copy {
            tightened = true;
        }
    }
    // Files that dropped out of the counts entirely are also a tightening.
    if baseline
        .keys()
        .any(|path| !counts.iter().any(|c| &c.path == path))
    {
        tightened = true;
    }

    if out.is_empty() && tightened {
        if std::fs::write(&path, render_durability(counts)).is_err() {
            out.push(Diagnostic::new(
                RULE,
                DURABILITY_RATCHET_PATH,
                0,
                "ratchet tightened but the file could not be rewritten".to_string(),
            ));
        } else {
            eprintln!("lob-lint: ratchet tightened — commit the updated {DURABILITY_RATCHET_PATH}");
        }
    }
    out
}
