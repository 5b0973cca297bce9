//! Fixture tests: known-bad snippets under `tests/fixtures/` must produce
//! exactly the expected `(file, line, rule)` diagnostics, and known-good
//! ones none. This is the proof that seeding a violation fails the build
//! with a usable file:line message.

use lob_lint::lexer::SourceFile;
use lob_lint::{durability, error_flow, fault_hook, guarded_by, lock_order, Diagnostic};

/// Load a fixture file under a virtual workspace-relative path.
fn fixture(virtual_path: &str, file: &str) -> SourceFile {
    let p = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(file);
    let text = std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {p:?}: {e}"));
    SourceFile::parse(virtual_path, &text)
}

fn locs(diags: &[Diagnostic]) -> Vec<(String, usize, &'static str)> {
    diags
        .iter()
        .map(|d| (d.path.clone(), d.line, d.rule))
        .collect()
}

#[test]
fn lock_cycle_fixture_is_detected() {
    let a = fixture("crates/fx/src/lock_cycle_a.rs", "lock_cycle_a.rs");
    let b = fixture("crates/fx/src/lock_cycle_b.rs", "lock_cycle_b.rs");
    let cfg = lock_order::Config {
        scope: vec!["lock_cycle_a.rs".into(), "lock_cycle_b.rs".into()],
        aliases: vec![
            lock_order::Alias {
                file_contains: "lock_cycle_b.rs",
                recv: "",
                method: "latch_alpha",
                lock: "fx/lock_cycle_a.alpha",
            },
            lock_order::Alias {
                file_contains: "lock_cycle_b.rs",
                recv: "",
                method: "latch_beta",
                lock: "fx/lock_cycle_a.beta",
            },
        ],
    };
    let edges = lock_order::build_graph(&[a, b], &cfg);
    let pairs: Vec<(String, String)> = edges
        .iter()
        .map(|e| (e.from.clone(), e.to.clone()))
        .collect();
    assert!(pairs.contains(&(
        "fx/lock_cycle_a.alpha".to_string(),
        "fx/lock_cycle_a.beta".to_string()
    )));
    assert!(pairs.contains(&(
        "fx/lock_cycle_a.beta".to_string(),
        "fx/lock_cycle_a.alpha".to_string()
    )));

    let a = fixture("crates/fx/src/lock_cycle_a.rs", "lock_cycle_a.rs");
    let b = fixture("crates/fx/src/lock_cycle_b.rs", "lock_cycle_b.rs");
    let diags = lock_order::check(&[a, b], &cfg);
    assert!(!diags.is_empty(), "cycle not reported");
    assert!(diags[0].rule == "lock-order");
    assert!(diags[0].msg.contains("cycle"), "msg: {}", diags[0].msg);
    // The witness points at the second acquisition of the cycle edge.
    assert!(diags[0].line > 0);
}

#[test]
fn lock_chain_fixture_resolves_the_accessor_and_detects_the_cycle() {
    // `Inner.state` is declared in one file and only ever locked through
    // the `coordinator()` accessor in the other: without the one-level
    // chain resolver neither edge exists and the deadlock is invisible.
    let load = || {
        vec![
            fixture("crates/fx/src/lock_chain_inner.rs", "lock_chain_inner.rs"),
            fixture("crates/fx/src/lock_chain.rs", "lock_chain.rs"),
        ]
    };
    let cfg = lock_order::Config {
        scope: vec!["lock_chain.rs".into(), "lock_chain_inner.rs".into()],
        aliases: vec![],
    };
    let edges = lock_order::build_graph(&load(), &cfg);
    let got: Vec<(String, String, usize)> = edges
        .iter()
        .map(|e| (e.from.clone(), e.to.clone(), e.witness.2))
        .collect();
    assert!(
        got.contains(&(
            "fx/lock_chain_inner.state".to_string(),
            "fx/lock_chain.other".to_string(),
            24
        )),
        "edges: {edges:#?}"
    );
    assert!(
        got.contains(&(
            "fx/lock_chain.other".to_string(),
            "fx/lock_chain_inner.state".to_string(),
            30
        )),
        "edges: {edges:#?}"
    );

    let diags = lock_order::check(&load(), &cfg);
    assert_eq!(
        locs(&diags),
        vec![("crates/fx/src/lock_chain.rs".to_string(), 24, "lock-order")],
        "diags: {diags:#?}"
    );
    assert!(diags[0].msg.contains("cycle"), "msg: {}", diags[0].msg);
}

#[test]
fn bad_guarded_fixture_yields_exact_diagnostics() {
    // The unlocked `hits` access empties the field's lock-set: the one
    // broken-discipline shape pass 3 must reject.
    let f = fixture("crates/fx/src/bad_guarded.rs", "bad_guarded.rs");
    let diags = guarded_by::check(&[f], &guarded_by::Config::bare());
    assert_eq!(
        locs(&diags),
        vec![("crates/fx/src/bad_guarded.rs".to_string(), 23, "guarded-by")],
        "diags: {diags:#?}"
    );
    assert!(
        diags[0].msg.contains("lock-set is empty here"),
        "msg: {}",
        diags[0].msg
    );
}

#[test]
fn forward_only_ordering_is_clean() {
    let a = fixture("crates/fx/src/lock_cycle_a.rs", "lock_cycle_a.rs");
    let cfg = lock_order::Config {
        scope: vec!["lock_cycle_a.rs".into()],
        aliases: vec![],
    };
    let diags = lock_order::check(&[a], &cfg);
    assert!(diags.is_empty(), "diags: {diags:#?}");
}

#[test]
fn bad_fault_fixture_yields_exact_diagnostics() {
    let f = fixture("crates/wal/src/fx_fault.rs", "bad_fault.rs");
    let cfg = fault_hook::Config {
        scope: vec!["crates/wal/src/".into()],
        exempt: vec![],
        registry: &[],
    };
    let diags = fault_hook::check(&[f], &cfg);
    let got = locs(&diags);
    let p = "crates/wal/src/fx_fault.rs".to_string();
    assert_eq!(
        got,
        vec![(p.clone(), 9, "fault-hook"), (p.clone(), 13, "fault-hook")],
        "diags: {diags:#?}"
    );
    assert!(diags[0].msg.contains("write_all"), "msg: {}", diags[0].msg);
    assert!(diags[1].msg.contains("IoEvent::PageWrite"));
}

#[test]
fn bad_read_fault_fixture_yields_exact_diagnostics() {
    // Read-side blind spots are caught the same way as write-side ones: a
    // raw suffix scan outside the registry and an unregistered
    // `IoEvent::PageRead` consult must both pin to their exact lines.
    let f = fixture("crates/wal/src/fx_read_fault.rs", "bad_read_fault.rs");
    let cfg = fault_hook::Config {
        scope: vec!["crates/wal/src/".into()],
        exempt: vec![],
        registry: &[],
    };
    let diags = fault_hook::check(&[f], &cfg);
    let p = "crates/wal/src/fx_read_fault.rs".to_string();
    assert_eq!(
        locs(&diags),
        vec![(p.clone(), 8, "fault-hook"), (p, 12, "fault-hook")],
        "diags: {diags:#?}"
    );
    assert!(
        diags[0].msg.contains("frames_from"),
        "msg: {}",
        diags[0].msg
    );
    assert!(diags[1].msg.contains("IoEvent::PageRead"));
}

#[test]
fn bad_durability_fixture_yields_exact_diagnostics() {
    // The static twin of `tests/order_witness.rs`'s dynamic fixture: an
    // install before the force, a force covering only one branch arm, and
    // a cursor advance before any copy — each pinned to its exact line.
    let f = fixture("crates/fx/src/bad_durability.rs", "bad_durability.rs");
    let diags = durability::check(&[f], &durability::Config::bare());
    let p = "crates/fx/src/bad_durability.rs".to_string();
    let mut got = locs(&diags);
    got.sort();
    assert_eq!(
        got,
        vec![
            (p.clone(), 12, "durability-order"),
            (p.clone(), 23, "durability-order"),
            (p, 29, "durability-order"),
        ],
        "diags: {diags:#?}"
    );
    for d in &diags {
        match d.line {
            12 | 23 => {
                assert!(d.msg.contains("write_page"), "msg: {}", d.msg);
                assert!(d.msg.contains("LogForce"), "msg: {}", d.msg);
            }
            29 => {
                assert!(d.msg.contains("advance"), "msg: {}", d.msg);
                assert!(d.msg.contains("BackupCopy"), "msg: {}", d.msg);
            }
            other => panic!("unexpected line {other}: {}", d.msg),
        }
    }
}

#[test]
fn bad_error_flow_fixture_yields_exact_diagnostics() {
    // Four discard idioms flagged, and the `legal` fn (`.ok()?`, if-let
    // with an else arm, `.map_err(…).ok()?`) contributes nothing.
    let f = fixture("crates/fx/src/bad_error_flow.rs", "bad_error_flow.rs");
    let diags = error_flow::check(&[f], &error_flow::Config::bare());
    let p = "crates/fx/src/bad_error_flow.rs".to_string();
    let mut got = locs(&diags);
    got.sort();
    assert_eq!(
        got,
        vec![
            (p.clone(), 8, "error-flow"),
            (p.clone(), 13, "error-flow"),
            (p.clone(), 18, "error-flow"),
            (p, 23, "error-flow"),
        ],
        "diags: {diags:#?}"
    );
    for d in &diags {
        match d.line {
            8 => assert!(
                d.msg.contains("`let _ =`") && d.msg.contains("write_page"),
                "msg: {}",
                d.msg
            ),
            13 => assert!(
                d.msg.contains("`.ok()`") && d.msg.contains("force"),
                "msg: {}",
                d.msg
            ),
            18 => assert!(
                d.msg.contains("unwrap_or_default") && d.msg.contains("read_page"),
                "msg: {}",
                d.msg
            ),
            23 => assert!(d.msg.contains("if let Ok"), "msg: {}", d.msg),
            other => panic!("unexpected line {other}: {}", d.msg),
        }
    }
}

#[test]
fn missing_justification_is_flagged() {
    let src =
        "fn f(&self) {\n    let _ = self.store.write_page(id, p); // lint:allow(error-flow)\n}\n";
    let f = SourceFile::parse("crates/fx/src/x.rs", src);
    let ann = lob_lint::check_annotations(&[f]);
    assert_eq!(
        locs(&ann),
        vec![("crates/fx/src/x.rs".to_string(), 2, "annotation")]
    );
    // And the bare directive does NOT silence the pass it names.
    let f = SourceFile::parse("crates/fx/src/x.rs", src);
    let diags = error_flow::check(&[f], &error_flow::Config::bare());
    assert_eq!(
        locs(&diags),
        vec![("crates/fx/src/x.rs".to_string(), 2, "error-flow")]
    );
}

#[test]
fn ratchet_flags_growth_and_tolerates_equal() {
    use lob_lint::guarded_by::RaceCounts;
    use lob_lint::ratchet;
    let baseline = ratchet::parse("crates/a/src/x.rs\t2\t5\n");
    assert_eq!(baseline.get("crates/a/src/x.rs"), Some(&(2, 5)));
    let rendered = ratchet::render_race(&[RaceCounts {
        path: "crates/a/src/x.rs".into(),
        lockfree_fields: 2,
        allowed_unguarded: 5,
    }]);
    assert!(rendered.contains("crates/a/src/x.rs\t2\t5"));
}
