//! `lob-lint`: the workspace invariant checker.
//!
//! Four passes over a hand-rolled token scan of `crates/*/src` (see
//! [`lexer`]), each enforcing an invariant no other tool checks on every
//! path:
//!
//! 1. [`fault_hook`] — every write-side I/O site consults the `FaultHook`,
//!    diffed against the declared-site registry in [`fault_hook::REGISTRY`];
//! 2. [`atomics`] — every atomic declares an ordering contract
//!    (`// lint: atomic(…)`) that its operations are checked against, and
//!    `Cell`/`RefCell`/`UnsafeCell`/`unsafe impl Send|Sync` are inventoried;
//! 3. [`durability`] — the paper's log-before-install order, proven on the
//!    intra-procedural CFG/dataflow engine in [`cfg`]: every store
//!    write / cache write-out / backup-image copy site is preceded by its
//!    declared `lint: durability(<event> requires <event>)` requirement on
//!    every path, tolerated sites ratcheted in `durability_ratchet.tsv`;
//! 4. [`error_flow`] — `Result`s born at fault-consulting I/O sites are
//!    never silently discarded (`let _ =`, trailing `.ok()`, `unwrap_or`
//!    swallowing, `if let Ok` with no else).
//!
//! Six contracts the linter used to re-check lexically live with the
//! tools that check them on resolved code:
//!
//! - lock order: every lock is a ranked `lob_pagestore::witness` lock,
//!   and the rank witness checks each acquisition against the locks the
//!   thread holds, in every workspace test run;
//! - field guarding: rustc's borrow and `Send`/`Sync` rules — a field is
//!   reachable from several threads only through a lock, an atomic or an
//!   immutable borrow;
//! - panic-freedom of non-test library code: the `clippy::{unwrap_used,
//!   expect_used, panic, todo, unimplemented, unreachable,
//!   indexing_slicing}` deny at the top of every `crates/*/src/lib.rs`,
//!   each tolerated site an `#[expect(…, reason = "…")]`;
//! - determinism of the replay crates: `disallowed-types` in
//!   `crates/harness/clippy.toml` and `crates/recovery/clippy.toml`;
//! - effect-set consistency: `crates/ops/tests/effect_conformance.rs` runs
//!   every `OpBody` variant against a recording `PageReader`;
//! - spawn captures: `thread::spawn`'s `'static` bound, checked by rustc.
//!
//! The durability contract table is cross-validated at runtime by the
//! ordering witness in `lob-pagestore` (`witness::ORDER_CONTRACTS`), which
//! every drill case runs under; the agreement is asserted row-for-row in
//! the workspace test.
//!
//! The whole analyzer runs as `cargo test -p lob-lint` (tier-1) and as a
//! dedicated CI job. Violations are justified in place with
//! `// lint:allow(<rule>) <reason>` — the reason is mandatory.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::indexing_slicing
    )
)]

pub mod atomics;
pub mod cfg;
pub mod durability;
pub mod error_flow;
pub mod fault_hook;
pub mod lexer;
pub mod ratchet;

use lexer::SourceFile;
use std::path::{Path, PathBuf};

/// One finding: rule id, location, and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id: `fault-hook`, `atomics`, `durability-order`,
    /// `error-flow`, or `annotation`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation.
    pub msg: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

impl Diagnostic {
    /// Construct a diagnostic.
    pub fn new(rule: &'static str, path: &str, line: usize, msg: String) -> Diagnostic {
        Diagnostic {
            rule,
            path: path.to_string(),
            line,
            msg,
        }
    }
}

/// The workspace root, resolved from this crate's manifest directory.
#[expect(
    clippy::expect_used,
    reason = "compile-time manifest path always has two parents"
)]
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf()
}

/// Load and sanitize every `crates/*/src/**/*.rs` file.
///
/// `vendor/*` is excluded by construction: the shims there are third-party
/// stand-ins, not code this workspace vouches for. Files are returned in
/// sorted path order so diagnostics are deterministic.
pub fn load_workspace_sources(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    for entry in std::fs::read_dir(&crates_dir)? {
        let entry = entry?;
        let src = entry.path().join("src");
        if src.is_dir() {
            walk_rs(&src, &mut paths)?;
        }
    }
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for p in paths {
        let text = std::fs::read_to_string(&p)?;
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        out.push(SourceFile::parse(&rel, &text));
    }
    Ok(out)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let p = entry.path();
        if p.is_dir() {
            walk_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Diagnostics for `lint:allow` directives that name a rule but give no
/// justification — an empty escape hatch is worse than none.
pub fn check_annotations(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in files {
        for (idx, li) in f.lines.iter().enumerate() {
            for rule in &li.bad_allows {
                out.push(Diagnostic::new(
                    "annotation",
                    &f.path,
                    idx + 1,
                    format!("lint:allow({rule}) without a justification — write the reason after the closing paren"),
                ));
            }
        }
    }
    out
}

/// Every pass under its workspace configuration, as `(name, runner)`
/// pairs — the single source of truth for [`run_all`] and the CLI's
/// per-pass timing report.
#[allow(clippy::type_complexity)]
pub fn passes() -> Vec<(&'static str, fn(&[SourceFile]) -> Vec<Diagnostic>)> {
    vec![
        (
            "annotations",
            check_annotations as fn(&[SourceFile]) -> Vec<Diagnostic>,
        ),
        ("fault_hook", |f| {
            fault_hook::check(f, &fault_hook::Config::workspace())
        }),
        ("atomics", |f| {
            atomics::check(f, &atomics::Config::workspace())
        }),
        ("durability", |f| {
            durability::check(f, &durability::Config::workspace())
        }),
        ("error_flow", |f| {
            error_flow::check(f, &error_flow::Config::workspace())
        }),
    ]
}

/// Run every pass with its default workspace configuration (everything
/// except the ratchet comparison, which needs filesystem access — see
/// [`ratchet::check_durability`]).
pub fn run_all(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (_, pass) in passes() {
        out.extend(pass(files));
    }
    out
}
