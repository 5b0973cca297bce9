//! Schema-pinning test for the `--json` report: run the real binary over
//! the real workspace and assert the shape downstream consumers (CI, the
//! justfile smoke) parse by hand. The report is hand-printed JSON, so a
//! drifted key or a forgotten comma breaks consumers silently — this test
//! breaks loudly instead.

use std::process::Command;

fn run_json() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_lob-lint"))
        .arg("--json")
        .output()
        .expect("lob-lint runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    // The workspace is clean at HEAD, so the binary must also exit 0;
    // a finding here means the report test is running against dirty
    // sources and its assertions would be meaningless.
    assert!(
        out.status.success(),
        "lob-lint exited {:?}; report:\n{stdout}",
        out.status.code()
    );
    stdout
}

#[test]
fn json_report_pins_schema_two() {
    let report = run_json();

    // Top-level shape.
    assert!(report.contains("\"schema\": 2"), "report:\n{report}");
    assert!(report.contains("\"passes\": ["), "report:\n{report}");
    assert!(report.contains("\"findings\": ["), "report:\n{report}");
    assert!(report.contains("\"ratchets\": {"), "report:\n{report}");

    // Every pass appears exactly once, in run order, with timing keys.
    let mut last = 0;
    for name in [
        "annotations",
        "fault_hook",
        "atomics",
        "durability",
        "error_flow",
    ] {
        let needle = format!("{{\"name\": \"{name}\", \"ms\": ");
        let pos = report.find(&needle).unwrap_or_else(|| {
            panic!("pass `{name}` missing from the passes array; report:\n{report}")
        });
        assert!(pos > last, "pass `{name}` out of run order");
        assert_eq!(
            report.matches(&needle).count(),
            1,
            "pass `{name}` listed more than once"
        );
        last = pos;
    }
    // The contracts that moved to clippy, rustc, `effect_conformance` and
    // the lock-rank witness have no pass here any more.
    for gone in [
        "panic_free",
        "determinism",
        "effect_sets",
        "spawn_escape",
        "lock_order",
        "guarded_by",
    ] {
        assert!(
            !report.contains(&format!("\"{gone}\"")),
            "removed pass `{gone}` still reported; report:\n{report}"
        );
    }
    // A clean workspace means every pass entry is ok with zero findings.
    assert_eq!(
        report.matches("\"findings\": 0, \"ok\": true}").count(),
        5,
        "expected 5 clean pass entries; report:\n{report}"
    );

    // The durability ratchet reports per-file baseline/current pairs and
    // has not regressed; the race ratchet went with the guarded-by pass.
    assert!(
        report.contains("\"durability\": {"),
        "durability ratchet missing; report:\n{report}"
    );
    assert!(
        !report.contains("\"race\": {"),
        "race ratchet still reported; report:\n{report}"
    );
    assert_eq!(
        report.matches("\"regressed\": false").count(),
        1,
        "expected the durability ratchet unregressed; report:\n{report}"
    );
    assert!(report.contains("\"status\": \"at-baseline\""));
    assert!(report.contains("\"baseline\": ["));
    assert!(report.contains("\"current\": ["));
    // The durability ratchet tracks the cache write-out allow specifically.
    assert!(
        report.contains("\"crates/cache/src/lib.rs\": {\"status\": "),
        "cache write-out allow missing from the durability ratchet; report:\n{report}"
    );
}
