//! The tier-1 enforcement test: run all ten passes over the real
//! workspace sources and fail on any unjustified violation.

use lob_lint::{
    atomics, determinism, durability, effect_sets, error_flow, fault_hook, guarded_by,
    lexer::SourceFile, load_workspace_sources, lock_order, panic_free, ratchet, spawn_escape,
    workspace_root, Diagnostic,
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
    let files = sources();
    let (diags, counts) = panic_free::check_with_counts(&files, &panic_free::Config::workspace());
    assert_clean("panic-freedom", diags);
    assert_clean("panic-ratchet", ratchet::check(&workspace_root(), &counts));
}

#[test]
fn lock_order_graph_is_acyclic() {
    let files = sources();
    let cfg = lock_order::Config::workspace();
    // Sanity: the scan must actually see the known acquisition edges; an
    // empty graph would mean the scanner silently broke.
    let edges = lock_order::build_graph(&files, &cfg);
    assert!(
        edges
            .iter()
            .any(|e| e.from == "pagestore/store.hook" && e.to == "pagestore/store.partitions"),
        "expected store.hook -> store.partitions edge missing; graph: {:?}",
        edges
            .iter()
            .map(|e| format!("{} -> {}", e.from, e.to))
            .collect::<Vec<_>>()
    );
    // And the workspace-wide scope must see beyond the historical
    // hand-listed files: `BackupRun::step_batch` probes the coordinator
    // hook (to pick the checked or batched copy path) and then moves the
    // tracker cursor, both through helpers.
    assert!(
        edges.iter().any(|e| e.from == "backup/coordinator.hook"
            && e.to == "backup/tracker.state"
            && e.witness.0.ends_with("backup/src/run.rs")),
        "expected coordinator.hook -> tracker.state edge witnessed in run.rs; graph: {:?}",
        edges
            .iter()
            .map(|e| format!("{} -> {} ({})", e.from, e.to, e.witness.0))
            .collect::<Vec<_>>()
    );
    assert_clean("lock-order", lock_order::check(&files, &cfg));
}

#[test]
fn replay_paths_are_deterministic() {
    assert_clean(
        "determinism",
        determinism::check(&sources(), &determinism::Config::workspace()),
    );
}

#[test]
fn fault_hook_coverage_matches_registry() {
    let files = sources();
    let cfg = fault_hook::Config::workspace();
    assert_clean("fault-hook", fault_hook::check(&files, &cfg));
}

#[test]
fn effect_set_declarations_match_apply() {
    let files = sources();
    let cfg = effect_sets::Config::workspace();
    assert_clean("effect-sets", effect_sets::check(&files, &cfg));
}

#[test]
fn effect_sets_pass_bites_on_the_real_body() {
    // Sanity against silent no-ops: strip one read declaration from the
    // real ops/body.rs in memory and the pass must object. If the lexical
    // scan ever stops recognizing the file's shape, this fails before a
    // real under-declaration could slip through.
    let root = workspace_root();
    let path = root.join("crates/ops/src/body.rs");
    let text = std::fs::read_to_string(&path).expect("body.rs readable");
    let broken = text.replace(
        "LogicalOp::MergeRec { src, dst } => vec![*src, *dst],",
        "LogicalOp::MergeRec { dst, .. } => vec![*dst],",
    );
    assert_ne!(
        broken, text,
        "MergeRec readset arm not found — update this test"
    );
    let f = SourceFile::parse("crates/ops/src/body.rs", &broken);
    let diags = effect_sets::check(&[f], &effect_sets::Config::workspace());
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "effect-sets" && d.msg.contains("`MergeRec` reads `src`")),
        "under-declared MergeRec read not caught; diags: {diags:#?}"
    );
}

#[test]
fn guarded_by_holds_and_race_ratchet_only_tightens() {
    let files = sources();
    let (diags, counts) = guarded_by::check_with_counts(&files, &guarded_by::Config::workspace());
    assert_clean("guarded-by", diags);
    assert_clean(
        "race-ratchet",
        ratchet::check_race(&workspace_root(), &counts),
    );
}

#[test]
fn atomics_declare_their_ordering_contracts() {
    assert_clean(
        "atomics",
        atomics::check(&sources(), &atomics::Config::workspace()),
    );
}

#[test]
fn spawned_closures_own_their_captures() {
    assert_clean(
        "spawn-escape",
        spawn_escape::check(&sources(), &spawn_escape::Config::workspace()),
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
    // Satellite of the durability PR: the 19 checked-index sites in
    // lint/src/lexer.rs and the 25 in lint/src/lock_order.rs were
    // rewritten with `.get()` and slice patterns, so both files must be
    // gone from the panic ratchet (unknown files baseline at zero).
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join(ratchet::RATCHET_PATH)).expect("panic ratchet");
    let baseline = ratchet::parse(&text);
    for path in [
        "crates/lint/src/lexer.rs",
        "crates/lint/src/lock_order.rs",
        "crates/lint/src/cfg.rs",
        "crates/lint/src/durability.rs",
        "crates/lint/src/error_flow.rs",
    ] {
        assert!(
            !baseline.contains_key(path),
            "{path} still carries ratcheted index sites: {:?}",
            baseline.get(path)
        );
    }
}

/// The pinned guarded-by contracts of the hot structs, as
/// `(struct, field, spec)` rows.
const CONTRACTS: &[(&str, &str, &str)] = &[
    ("StableStore", "config", "immutable"),
    ("StableStore", "partitions", "lock"),
    ("StableStore", "stats", "atomic"),
    ("StableStore", "hook", "lock"),
    ("BackupCoordinator", "domains", "immutable"),
    ("BackupCoordinator", "by_partition", "immutable"),
    ("BackupCoordinator", "changed", "lock"),
    ("BackupCoordinator", "stats", "atomic"),
    ("BackupCoordinator", "hook", "lock"),
    ("ProgressTracker", "state", "lock"),
    ("GroupReplay", "store", "immutable"),
    ("GroupReplay", "batch", "immutable"),
    ("GroupReplay", "table", "unit-local"),
    ("GroupReplay", "dirty", "unit-local"),
    ("GroupCommitLog", "manager", "lock"),
    ("GroupCommitLog", "state", "lock"),
    ("GroupCommitLog", "registered", "atomic"),
    ("ShardedCache", "shards", "lock"),
    ("EngineService", "domains", "lock"),
    ("EngineService", "meta", "lock"),
];

#[test]
fn static_map_agrees_with_the_pinned_contracts() {
    // The agreement contract (DESIGN.md §5.11): the static pass must infer
    // exactly the pinned rows from the sources. A drifted annotation, a
    // renamed field, or a freshly unguarded access breaks this.
    let map = guarded_by::guarded_map(&sources(), &guarded_by::Config::workspace());
    for (s, field, spec) in CONTRACTS {
        let got = map.get(*s).and_then(|fields| fields.get(*field));
        assert_eq!(
            got.map(String::as_str),
            Some(*spec),
            "pinned contract ({s}, {field}, {spec}) disagrees with the static map: {:?}",
            map.get(*s)
        );
    }
}

#[test]
fn pagestore_index_sites_are_burned_down() {
    // Satellite of the concurrency PR: the 11 checked-index sites in
    // pagestore/src/store.rs were rewritten with slice patterns, so the
    // file must be *gone* from the panic ratchet (unknown files baseline
    // at zero), and no row may idle at (0, 0) — auto-tightening removes
    // rows that reach zero.
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join(ratchet::RATCHET_PATH)).expect("panic ratchet");
    let baseline = ratchet::parse(&text);
    assert!(
        !baseline.contains_key("crates/pagestore/src/store.rs"),
        "store.rs still carries ratcheted index sites: {:?}",
        baseline.get("crates/pagestore/src/store.rs")
    );
    for (path, (a, b)) in &baseline {
        assert!(
            *a > 0 || *b > 0,
            "ratchet row {path} is (0, 0) — auto-tightening should have removed it"
        );
    }
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
