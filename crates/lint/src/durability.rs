//! Pass 3: durability ordering — log-before-install, machine-checked.
//!
//! The paper's §2–3 correctness argument is an *ordering* argument: a page
//! may only migrate to the stable store (or into the backup image) after
//! the log records covering it are durable, and the sweep cursor may only
//! advance after the covered pages were actually copied. This pass proves
//! the discipline function by function, on the CFG engine in
//! [`crate::cfg`]:
//!
//! 1. The protocol is *declared* in the source as
//!    `// lint: durability(<event> requires <event>)` rows (mirroring the
//!    `IoEvent` taxonomy), placed at the defining sites — e.g.
//!    `PageWrite requires LogForce` above `StableStore::write_page`. The
//!    table is collected by [`contract_table`]; the runtime ordering
//!    witness (`lob_pagestore::witness::ORDER_CONTRACTS`) must agree with
//!    it row for row (asserted in the workspace test).
//! 2. Every *consumer* call site (`write_out`, `write_page`, `write_run`,
//!    image `put`/`put_run`, `tracker.advance`/`tracker.finish`) must have
//!    its required *generator* event (`force`/`force_all`/`force_log` →
//!    `LogForce`; `read_page`/`read_run` → `PageRead`; the copy helpers →
//!    `BackupCopy`) available on **every** path from the enclosing
//!    function's entry — the forward must-availability solver, not strict
//!    dominance, so a force in both arms of a branch counts.
//!
//! The analysis is intra-procedural. Sites whose justification lives in a
//! caller (e.g. the raw store write inside `PageCache::write_out`, whose
//! force is the engine's job one frame up) carry a
//! `// lint:allow(durability-order) <reason>` and are *counted* into
//! `crates/lint/durability_ratchet.tsv` — the tolerated-site count only
//! goes down (see [`crate::ratchet::check_durability`]).

use crate::cfg::{call_sites, span_tokens, Cfg};
use crate::lexer::SourceFile;
use crate::Diagnostic;
use std::collections::BTreeMap;

/// The rule id this pass reports under.
pub const RULE: &str = "durability-order";

/// Generator methods: calling `.m(…)` makes the mapped event available on
/// the paths that pass through the call.
const GENERATORS: &[(&str, &str)] = &[
    ("force", "LogForce"),
    ("force_all", "LogForce"),
    ("force_log", "LogForce"),
    ("group_force", "LogForce"),
    ("read_page", "PageRead"),
    ("read_run", "PageRead"),
    ("copy_pages_checked", "BackupCopy"),
    ("copy_runs", "BackupCopy"),
    ("put", "BackupCopy"),
    ("put_run", "BackupCopy"),
    ("fetch_records", "ArchiveRead"),
    ("fetch_control_records", "ArchiveRead"),
    ("fetch_partition_records", "ArchiveRead"),
];

/// Consumer methods: calling `.m(…)` raises the mapped event, whose
/// declared requirement must already be available.
const CONSUMERS: &[(&str, &str)] = &[
    ("write_out", "PageFlush"),
    ("write_page", "PageWrite"),
    ("write_run", "PageWrite"),
    ("put", "BackupCopy"),
    ("put_run", "BackupCopy"),
    ("install_segment", "SegmentInstall"),
];

/// Cursor methods are consumers only on the tracker receiver
/// (`self.tracker.advance(…)`) — `buf.advance(…)` and a plain
/// `t.finish()` are unrelated.
const CURSOR_METHODS: &[&str] = &["advance", "finish"];
const CURSOR_RECV: &str = "tracker";
const CURSOR_EVENT: &str = "CursorAdvance";

/// Scope of the pass.
pub struct Config {
    /// Path substrings to skip entirely (binaries).
    pub exclude: Vec<String>,
    /// Path suffixes where *consumer* checks are skipped: the backup-image
    /// container itself, whose internal `put` calls are the primitive
    /// being contracted, not uses of it.
    pub exempt: Vec<String>,
}

impl Config {
    /// Workspace default.
    pub fn workspace() -> Config {
        Config {
            exclude: vec!["/src/bin/".to_string()],
            exempt: vec!["pagestore/src/image.rs".to_string()],
        }
    }

    /// No exclusions (fixture tests).
    pub fn bare() -> Config {
        Config {
            exclude: Vec::new(),
            exempt: Vec::new(),
        }
    }
}

/// Per-file tolerated-site counts feeding the durability ratchet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityCounts {
    /// Workspace-relative path.
    pub path: String,
    /// Allowed sites whose requirement is `LogForce` (flush/install order).
    pub allowed_force: usize,
    /// Allowed sites whose requirement is `PageRead`/`BackupCopy`
    /// (copy/cursor order).
    pub allowed_copy: usize,
}

/// Collect the declared contract table: event → required event, from every
/// `lint: durability(<event> requires <event>)` directive in the sources.
/// Conflicting and malformed declarations become diagnostics.
pub fn contract_table(files: &[SourceFile]) -> (BTreeMap<String, String>, Vec<Diagnostic>) {
    let mut table: BTreeMap<String, (String, String, usize)> = BTreeMap::new();
    let mut diags = Vec::new();
    for f in files {
        for (idx, li) in f.lines.iter().enumerate() {
            let line = idx + 1;
            for (kind, arg) in &li.decls {
                if kind != "durability" {
                    continue;
                }
                let Some((event, requires)) = arg.split_once(" requires ") else {
                    diags.push(Diagnostic::new(
                        RULE,
                        &f.path,
                        line,
                        format!("malformed durability contract `{arg}` — expected `<event> requires <event>`"),
                    ));
                    continue;
                };
                let (event, requires) = (event.trim().to_string(), requires.trim().to_string());
                match table.get(&event) {
                    Some((prev, ppath, pline)) if *prev != requires => {
                        diags.push(Diagnostic::new(
                            RULE,
                            &f.path,
                            line,
                            format!(
                                "conflicting durability contract for `{event}`: `{requires}` here vs `{prev}` at {ppath}:{pline}"
                            ),
                        ));
                    }
                    Some(_) => {}
                    None => {
                        table.insert(event, (requires, f.path.clone(), line));
                    }
                }
            }
        }
    }
    let table = table.into_iter().map(|(e, (r, _, _))| (e, r)).collect();
    (table, diags)
}

/// Run the pass: hard diagnostics for unjustified ordering violations.
pub fn check(files: &[SourceFile], cfg: &Config) -> Vec<Diagnostic> {
    check_with_counts(files, cfg).0
}

/// Run the pass *and* produce ratchet counts for every scanned file.
pub fn check_with_counts(
    files: &[SourceFile],
    cfg: &Config,
) -> (Vec<Diagnostic>, Vec<DurabilityCounts>) {
    let (table, mut diags) = contract_table(files);
    let mut counts = Vec::new();
    for f in files {
        if cfg.exclude.iter().any(|e| f.path.contains(e)) {
            continue;
        }
        if cfg.exempt.iter().any(|e| f.path.ends_with(e)) {
            continue;
        }
        let mut c = DurabilityCounts {
            path: f.path.clone(),
            allowed_force: 0,
            allowed_copy: 0,
        };
        check_file(f, &table, &mut diags, &mut c);
        if c.allowed_force > 0 || c.allowed_copy > 0 {
            counts.push(c);
        }
    }
    (diags, counts)
}

fn check_file(
    f: &SourceFile,
    table: &BTreeMap<String, String>,
    diags: &mut Vec<Diagnostic>,
    counts: &mut DurabilityCounts,
) {
    for span in f.functions() {
        if f.in_test(span.start_line) {
            continue;
        }
        let toks = span_tokens(f, &span);
        let sites = call_sites(&toks);
        let mut gen_at: BTreeMap<usize, &str> = BTreeMap::new();
        // Consumer sites: token index → (event, method, line).
        let mut use_at: BTreeMap<usize, (&str, String, usize)> = BTreeMap::new();
        for s in &sites {
            if let Some((_, ev)) = GENERATORS.iter().find(|(m, _)| *m == s.method) {
                gen_at.insert(s.idx, ev);
            }
            let consumer_event = CONSUMERS
                .iter()
                .find(|(m, _)| *m == s.method)
                .map(|(_, ev)| *ev)
                .or_else(|| {
                    (CURSOR_METHODS.contains(&s.method.as_str()) && s.recv == CURSOR_RECV)
                        .then_some(CURSOR_EVENT)
                });
            if let Some(ev) = consumer_event {
                use_at.insert(s.idx, (ev, s.method.clone(), s.line));
            }
        }
        if use_at.is_empty() {
            continue;
        }
        let graph = Cfg::build_fn(&toks);
        let ins = graph.must_avail_in(&gen_at);
        for (bi, block) in graph.blocks.iter().enumerate() {
            let mut avail = ins.get(bi).cloned().unwrap_or_default();
            for t in &block.toks {
                if let Some((event, method, line)) = use_at.get(t) {
                    check_site(f, table, event, method, *line, &avail, diags, counts);
                }
                if let Some(fact) = gen_at.get(t) {
                    avail.insert(fact);
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn check_site(
    f: &SourceFile,
    table: &BTreeMap<String, String>,
    event: &str,
    method: &str,
    line: usize,
    avail: &std::collections::BTreeSet<&str>,
    diags: &mut Vec<Diagnostic>,
    counts: &mut DurabilityCounts,
) {
    let Some(required) = table.get(event) else {
        diags.push(Diagnostic::new(
            RULE,
            &f.path,
            line,
            format!(
                "`{method}` raises `{event}` but no `lint: durability({event} requires …)` contract is declared"
            ),
        ));
        return;
    };
    if avail.contains(required.as_str()) {
        return;
    }
    if f.allowed(RULE, line) {
        if required == "LogForce" {
            counts.allowed_force += 1;
        } else {
            counts.allowed_copy += 1;
        }
        return;
    }
    diags.push(Diagnostic::new(
        RULE,
        &f.path,
        line,
        format!(
            "`{method}` ({event}) is not preceded by `{required}` on every path from fn entry — \
             establish the order locally, or justify with `// lint:allow(durability-order) <reason>`"
        ),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECLS: &str = "\
// lint: durability(PageFlush requires LogForce)
// lint: durability(PageWrite requires LogForce)
// lint: durability(BackupCopy requires PageRead)
// lint: durability(CursorAdvance requires BackupCopy)
";

    fn run(src: &str) -> Vec<Diagnostic> {
        let full = format!("{DECLS}{src}");
        let f = SourceFile::parse("fixture.rs", &full);
        check(&[f], &Config::bare())
    }

    #[test]
    fn forced_then_installed_is_clean() {
        let diags = run(
            "fn flush(&mut self) -> R {\n    self.log.force(lsn)?;\n    self.store.write_page(id, p)?;\n    Ok(())\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn install_before_force_is_flagged() {
        let diags = run(
            "fn flush(&mut self) -> R {\n    self.store.write_page(id, p)?;\n    self.log.force(lsn)?;\n    Ok(())\n}\n",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        let d = diags.first().expect("one diag");
        assert_eq!(d.rule, RULE);
        assert_eq!(d.line, 6);
        assert!(d.msg.contains("PageWrite"));
    }

    #[test]
    fn force_in_one_arm_only_is_flagged() {
        let diags = run(
            "fn flush(&mut self, c: bool) -> R {\n    if c {\n        self.log.force(lsn)?;\n    }\n    self.store.write_page(id, p)?;\n    Ok(())\n}\n",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn force_in_both_arms_is_clean() {
        let diags = run(
            "fn flush(&mut self, c: bool) -> R {\n    if c {\n        self.log.force(lsn)?;\n    } else {\n        self.log.force_all()?;\n    }\n    self.store.write_page(id, p)?;\n    Ok(())\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn copy_requires_a_read_and_cursor_requires_a_copy() {
        let diags = run(
            "fn step(&mut self) -> R {\n    let p = self.store.read_page(id)?;\n    self.image.put(id, p);\n    self.tracker.advance(next)?;\n    Ok(())\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
        let diags = run(
            "fn step(&mut self) -> R {\n    self.image.put(id, p);\n    self.tracker.advance(next)?;\n    Ok(())\n}\n",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags.first().expect("diag").msg.contains("BackupCopy"));
    }

    #[test]
    fn non_tracker_receivers_are_not_cursor_sites() {
        let diags = run("fn pump(&mut self) {\n    self.buf.advance(4);\n    t.finish();\n}\n");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn allows_are_counted_not_flagged() {
        let full = format!(
            "{DECLS}fn restore(&mut self) -> R {{\n    // lint:allow(durability-order) restore installs from a durable image\n    self.store.write_page(id, p)?;\n    Ok(())\n}}\n"
        );
        let f = SourceFile::parse("fixture.rs", &full);
        let (diags, counts) = check_with_counts(&[f], &Config::bare());
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(counts.len(), 1);
        let c = counts.first().expect("counts");
        assert_eq!((c.allowed_force, c.allowed_copy), (1, 0));
    }

    #[test]
    fn missing_contract_is_a_hard_error() {
        let f = SourceFile::parse(
            "fixture.rs",
            "fn flush(&mut self) -> R {\n    self.log.force(lsn)?;\n    self.store.write_page(id, p)?;\n    Ok(())\n}\n",
        );
        let diags = check(&[f], &Config::bare());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags
            .first()
            .expect("diag")
            .msg
            .contains("no `lint: durability"));
    }

    #[test]
    fn conflicting_contracts_are_flagged() {
        let f = SourceFile::parse(
            "fixture.rs",
            "// lint: durability(PageWrite requires LogForce)\n// lint: durability(PageWrite requires PageRead)\n",
        );
        let (_, diags) = contract_table(&[f]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags.first().expect("diag").msg.contains("conflicting"));
    }

    #[test]
    fn test_module_code_is_skipped() {
        let full = format!(
            "{DECLS}#[cfg(test)]\nmod tests {{\n    fn t(&mut self) {{\n        self.store.write_page(id, p);\n    }}\n}}\n"
        );
        let f = SourceFile::parse("fixture.rs", &full);
        assert!(check(&[f], &Config::bare()).is_empty());
    }
}
