//! Fixture tests: known-bad snippets under `tests/fixtures/` must produce
//! exactly the expected `(file, line, rule)` diagnostics, and known-good
//! ones none. This is the proof that seeding a violation fails the build
//! with a usable file:line message.

use lob_lint::lexer::SourceFile;
use lob_lint::{durability, error_flow, fault_hook, Diagnostic};

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
    use lob_lint::durability::DurabilityCounts;
    use lob_lint::ratchet;
    let counts = |allowed_force, allowed_copy| {
        vec![DurabilityCounts {
            path: "crates/a/src/x.rs".into(),
            allowed_force,
            allowed_copy,
        }]
    };
    let rendered = ratchet::render_durability(&counts(2, 5));
    assert!(rendered.contains("crates/a/src/x.rs\t2\t5"));
    assert_eq!(
        ratchet::parse(&rendered).get("crates/a/src/x.rs"),
        Some(&(2, 5))
    );
    // A scratch root holding that baseline: equal counts pass and leave
    // it as it is, growth in either column is flagged.
    let root = std::env::temp_dir().join(format!("lob-lint-ratchet-{}", std::process::id()));
    let file = root.join(ratchet::DURABILITY_RATCHET_PATH);
    std::fs::create_dir_all(file.parent().expect("ratchet path has a parent"))
        .expect("scratch dir");
    std::fs::write(&file, &rendered).expect("baseline written");
    assert!(ratchet::check_durability(&root, &counts(2, 5)).is_empty());
    assert_eq!(std::fs::read_to_string(&file).expect("baseline"), rendered);
    let grown = ratchet::check_durability(&root, &counts(3, 6));
    assert_eq!(locs(&grown).len(), 2, "diags: {grown:#?}");
    assert!(grown[0].msg.contains("force-order sites grew 2 -> 3"));
    assert!(grown[1].msg.contains("copy-order sites grew 5 -> 6"));
    std::fs::remove_dir_all(&root).expect("scratch dir removed");
}
