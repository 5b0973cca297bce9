//! The tier-1 enforcement test: run all four passes over the real
//! workspace sources and fail on any unjustified violation, and pin the
//! clippy configuration that carries the panic-freedom and determinism
//! contracts (tier-1 runs no clippy, so a dropped deny would go unseen).

use lob_lint::{
    atomics, durability, error_flow, fault_hook, lexer::SourceFile, load_workspace_sources,
    ratchet, workspace_root, Diagnostic,
};

fn sources() -> Vec<SourceFile> {
    let root = workspace_root();
    load_workspace_sources(&root).expect("workspace sources readable")
}

fn assert_clean(pass: &str, diags: Vec<Diagnostic>) {
    if !diags.is_empty() {
        let mut msg = format!("{pass}: {} violation(s):\n", diags.len());
        for d in &diags {
            msg.push_str(&format!("  {d}\n"));
        }
        panic!("{msg}");
    }
}

#[test]
fn annotations_all_carry_justifications() {
    assert_clean("annotation", lob_lint::check_annotations(&sources()));
}

#[test]
fn panic_freedom_holds_and_ratchet_only_tightens() {
    // Panic-freedom is clippy's: every library crate denies the panic
    // family outside `cfg(test)`, and a tolerated site carries
    // `#[expect(…, reason = "…")]`, which fails `-D warnings` once its site
    // is gone — the ratchet. An `allow` of the family would not tighten.
    let root = workspace_root();
    let mut libs = 0;
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ readable") {
        let lib = entry.expect("crates/ entry").path().join("src/lib.rs");
        let Ok(text) = std::fs::read_to_string(&lib) else {
            continue;
        };
        libs += 1;
        let deny = attributes(&SourceFile::parse("lib.rs", &text), "#![cfg_attr(")
            .into_iter()
            .map(|(_, body)| body)
            .find(|body| body.trim_start().starts_with("not(test)") && body.contains("deny("))
            .unwrap_or_else(|| panic!("{lib:?}: no `#![cfg_attr(not(test), deny(…))]`"));
        for lint in PANIC_FAMILY {
            assert!(deny.contains(lint), "{lib:?}: the deny misses `{lint}`");
        }
    }
    assert!(libs >= 15, "only {libs} library crates found");
    for f in sources() {
        if f.path.contains("/src/bin/") {
            continue;
        }
        for (line, body) in attributes(&f, "allow(") {
            for lint in PANIC_FAMILY {
                assert!(
                    !body.contains(lint),
                    "{}:{line}: `allow` of `{lint}` — use `#[expect(…, reason = \"…\")]`",
                    f.path
                );
            }
        }
    }
}

/// The panic family every library crate denies outside `cfg(test)`.
const PANIC_FAMILY: &[&str] = &[
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::unreachable",
    "clippy::indexing_slicing",
];

/// Every `<open>…)` group in `f`'s code (comments and literals blanked),
/// as `(1-based line of the opening, text inside the parentheses)`.
fn attributes(f: &SourceFile, open: &str) -> Vec<(usize, String)> {
    let code: Vec<&str> = f.lines.iter().map(|l| l.code.as_str()).collect();
    let text = code.join("\n");
    let mut out = Vec::new();
    for (at, _) in text.match_indices(open) {
        let body_start = at + open.len();
        let mut depth = 1usize;
        let mut end = text.len();
        for (i, c) in text[body_start..].char_indices() {
            match c {
                '(' => depth += 1,
                ')' => depth -= 1,
                _ => {}
            }
            if depth == 0 {
                end = body_start + i;
                break;
            }
        }
        let line = text[..at].matches('\n').count() + 1;
        out.push((line, text[body_start..end].to_string()));
    }
    out
}

/// The source lines of `path` that tolerate `lint` with an `expect`.
fn expected_sites(path: &str, lint: &str) -> Vec<usize> {
    let text = std::fs::read_to_string(workspace_root().join(path)).expect("source readable");
    attributes(&SourceFile::parse(path, &text), "expect(")
        .into_iter()
        .filter(|(_, body)| body.contains(lint))
        .map(|(line, _)| line)
        .collect()
}

#[test]
fn replay_paths_are_deterministic() {
    // Determinism is clippy's: the replay crates' `clippy.toml` disallow
    // wall clocks and per-process-keyed hashing by resolved path, so a
    // variant that is only *named* `Instant` is not a finding.
    let root = workspace_root();
    for krate in ["crates/harness", "crates/recovery"] {
        let toml = std::fs::read_to_string(root.join(krate).join("clippy.toml"))
            .unwrap_or_else(|e| panic!("{krate}/clippy.toml: {e}"));
        for ty in [
            "std::time::SystemTime",
            "std::time::Instant",
            "std::collections::HashMap",
            "std::collections::HashSet",
            "std::hash::RandomState",
            "std::hash::DefaultHasher",
        ] {
            assert!(
                toml.contains(&format!("\"{ty}\"")),
                "{krate}/clippy.toml does not disallow `{ty}`"
            );
        }
    }
}

#[test]
fn fault_hook_coverage_matches_registry() {
    let files = sources();
    let cfg = fault_hook::Config::workspace();
    assert_clean("fault-hook", fault_hook::check(&files, &cfg));
}

#[test]
fn atomics_declare_their_ordering_contracts() {
    assert_clean(
        "atomics",
        atomics::check(&sources(), &atomics::Config::workspace()),
    );
}

#[test]
fn durability_order_holds_and_ratchet_only_tightens() {
    // The tentpole invariant: every store install, cache write-out, and
    // backup-image copy in the workspace is preceded by its declared
    // requirement on every CFG path, or carries a justified allow counted
    // by the durability ratchet.
    let files = sources();
    let (diags, counts) = durability::check_with_counts(&files, &durability::Config::workspace());
    assert_clean("durability-order", diags);
    assert_clean(
        "durability-ratchet",
        ratchet::check_durability(&workspace_root(), &counts),
    );
}

#[test]
fn error_flow_never_swallows_io_results() {
    assert_clean(
        "error-flow",
        error_flow::check(&sources(), &error_flow::Config::workspace()),
    );
}

#[test]
fn durability_contracts_agree_with_the_ordering_witness() {
    // The two-witness contract (DESIGN.md §5.12): the contract table the
    // static pass parses from `// lint: durability(X requires Y)`
    // declarations must match `witness::ORDER_CONTRACTS` row-for-row in
    // both directions — a contract enforced only at runtime (or only
    // statically) is a silent coverage gap.
    let (table, diags) = durability::contract_table(&sources());
    assert_clean("durability-contracts", diags);
    for (consumer, requires) in lob_pagestore::witness::ORDER_CONTRACTS {
        assert_eq!(
            table.get(*consumer).map(String::as_str),
            Some(*requires),
            "witness row ({consumer} requires {requires}) missing or drifted in the declared table: {table:?}"
        );
    }
    for (consumer, requires) in &table {
        assert!(
            lob_pagestore::witness::ORDER_CONTRACTS
                .iter()
                .any(|(c, r)| c == consumer && r == requires),
            "declared contract ({consumer} requires {requires}) has no runtime witness row"
        );
    }
    assert_eq!(table.len(), lob_pagestore::witness::ORDER_CONTRACTS.len());
}

#[test]
fn lint_index_sites_are_burned_down() {
    // The checked-index sites in lint/src/lexer.rs were rewritten with
    // `.get()` and slice patterns, so none of these files may tolerate an
    // index site again.
    for path in [
        "crates/lint/src/lexer.rs",
        "crates/lint/src/cfg.rs",
        "crates/lint/src/durability.rs",
        "crates/lint/src/error_flow.rs",
    ] {
        let sites = expected_sites(path, "clippy::indexing_slicing");
        assert!(
            sites.is_empty(),
            "{path} tolerates index sites again at lines {sites:?}"
        );
    }
}

#[test]
fn pagestore_index_sites_are_burned_down() {
    // Satellite of the concurrency PR: the 11 checked-index sites in
    // pagestore/src/store.rs were rewritten with slice patterns, so the
    // file may not tolerate an index site again.
    let path = "crates/pagestore/src/store.rs";
    let sites = expected_sites(path, "clippy::indexing_slicing");
    assert!(
        sites.is_empty(),
        "{path} tolerates index sites again at lines {sites:?}"
    );
}

#[test]
fn registry_declares_the_log_truncation_site() {
    // The coverage gap this PR fixed: log truncation must stay a declared,
    // consulting site so it can never silently regress.
    assert!(fault_hook::REGISTRY
        .iter()
        .any(|s| s.file.ends_with("wal/src/manager.rs")
            && s.func == "truncate"
            && s.events.contains(&"LogTruncate")));
}
