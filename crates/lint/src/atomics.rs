//! Pass 2: atomics & interior-mutability audit.
//!
//! Every `AtomicU*`/`AtomicBool`/`AtomicUsize` declaration in non-test
//! library code must declare its ordering contract with a
//! `// lint: atomic(<contract>)` annotation:
//!
//! - `relaxed-counter` — a monotone statistic; every operation must use
//!   `Ordering::Relaxed`, and the type must not be `AtomicBool` (a relaxed
//!   boolean is almost always a cross-thread handoff flag whose readers
//!   expect to observe writes made before the flag flipped — that needs
//!   acquire/release or stronger, not Relaxed);
//! - `seqcst` — a cross-thread handoff or decision point; every operation
//!   must use `Ordering::SeqCst`;
//! - `acq-rel` — publication; operations must use
//!   `Acquire`/`Release`/`AcqRel`.
//!
//! Operations on a declared atomic are matched by field name
//! (`x.load(…)`, `x.fetch_add(…)`, …) and checked against the contract;
//! an **unannotated** atomic is a diagnostic, and mixed orderings on the
//! same unannotated atomic get an extra diagnostic naming the pair (two
//! sites that disagree on the memory model are how "works on x86" bugs
//! are written). `Cell`/`RefCell`/`UnsafeCell` and `unsafe impl
//! Send`/`Sync` are inventoried the same way: each non-test use must be
//! justified with `// lint:allow(atomics) <reason>`.

use crate::lexer::{SourceFile, Tok};
use crate::Diagnostic;
use std::collections::BTreeMap;

/// The annotation vocabulary.
pub const CONTRACTS: &[&str] = &["relaxed-counter", "seqcst", "acq-rel"];

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

const OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "compare_exchange",
    "compare_exchange_weak",
];

const INTERIOR: &[&str] = &["Cell", "RefCell", "UnsafeCell"];

/// Scope and exclusions for the pass.
pub struct Config {
    /// Path substrings to skip entirely.
    pub exclude: Vec<String>,
}

impl Config {
    /// Workspace default: library sources only.
    pub fn workspace() -> Config {
        Config {
            exclude: vec!["/src/bin/".to_string()],
        }
    }

    /// No exclusions (fixture tests).
    pub fn bare() -> Config {
        Config {
            exclude: Vec::new(),
        }
    }
}

/// One declared atomic: its contract (if annotated) and whether it is a
/// boolean.
#[derive(Debug, Clone)]
struct Decl {
    contract: Option<String>,
    is_bool: bool,
}

/// Run the pass.
pub fn check(files: &[SourceFile], cfg: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in files {
        if cfg.exclude.iter().any(|e| f.path.contains(e)) {
            continue;
        }
        check_file(f, &mut out);
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

fn check_file(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    // Collect declarations: `name: Atomic…` in non-test code (struct
    // fields and statics share the shape).
    let mut decls: BTreeMap<String, Decl> = BTreeMap::new();
    for (idx, li) in f.lines.iter().enumerate() {
        let line = idx + 1;
        if li.in_test || !li.code.contains("Atomic") {
            continue;
        }
        let toks = crate::lexer::tokenize(&li.code);
        for (i, w) in toks.windows(2).enumerate() {
            let [Tok::Word(name), Tok::Sym(':')] = w else {
                continue;
            };
            // Skip `::` path segments on either side of the colon.
            if toks.get(i + 2) == Some(&Tok::Sym(':'))
                || (i > 0 && toks.get(i - 1) == Some(&Tok::Sym(':')))
            {
                continue;
            }
            let rest = toks.get(i + 2..).unwrap_or(&[]);
            // A type position, not a path expression: `x: AtomicU64,` is a
            // declaration, `x: AtomicU64::new(0)` is a struct-literal
            // initializer (the atomic word is followed by `::`).
            let atomic_ty = rest.iter().enumerate().find_map(|(j, t)| match t {
                Tok::Word(w) if w.starts_with("Atomic") => {
                    let path_expr = rest.get(j + 1) == Some(&Tok::Sym(':'))
                        && rest.get(j + 2) == Some(&Tok::Sym(':'));
                    if path_expr {
                        None
                    } else {
                        Some(w.clone())
                    }
                }
                _ => None,
            });
            let Some(ty) = atomic_ty else { continue };
            let contract = f.decl("atomic", line).map(str::to_string);
            match contract.as_deref() {
                None => out.push(Diagnostic::new(
                    "atomics",
                    &f.path,
                    line,
                    format!(
                        "`{name}: {ty}` has no ordering contract — annotate `// lint: atomic(<{}>)`",
                        CONTRACTS.join("|")
                    ),
                )),
                Some(c) if !CONTRACTS.contains(&c) => out.push(Diagnostic::new(
                    "atomics",
                    &f.path,
                    line,
                    format!(
                        "atomic({c}) on `{name}` is not a known contract ({})",
                        CONTRACTS.join("/")
                    ),
                )),
                Some("relaxed-counter") if ty == "AtomicBool" => out.push(Diagnostic::new(
                    "atomics",
                    &f.path,
                    line,
                    format!(
                        "`{name}: AtomicBool` declared relaxed-counter — a relaxed boolean is a cross-thread handoff without ordering; use seqcst or acq-rel"
                    ),
                )),
                Some(_) => {}
            }
            decls.insert(
                name.clone(),
                Decl {
                    contract,
                    is_bool: ty == "AtomicBool",
                },
            );
            break;
        }
    }
    if decls.is_empty() {
        return;
    }

    // Match operations and their orderings against the contracts.
    let mut seen: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
    for (idx, li) in f.lines.iter().enumerate() {
        let line = idx + 1;
        if li.in_test {
            continue;
        }
        let toks = crate::lexer::tokenize(&li.code);
        for (i, w) in toks.windows(4).enumerate() {
            let [Tok::Word(name), Tok::Sym('.'), Tok::Word(op), Tok::Sym('(')] = w else {
                continue;
            };
            if !OPS.contains(&op.as_str()) {
                continue;
            }
            let Some(decl) = decls.get(name.as_str()) else {
                continue;
            };
            let Some(ord) = ordering_after(f, line, &toks, i + 3) else {
                continue;
            };
            seen.entry(name.clone())
                .or_default()
                .entry(ord.clone())
                .or_insert(line);
            let ok = match decl.contract.as_deref() {
                Some("relaxed-counter") => ord == "Relaxed",
                Some("seqcst") => ord == "SeqCst",
                Some("acq-rel") => ord == "Acquire" || ord == "Release" || ord == "AcqRel",
                _ => true, // unannotated / unknown: already diagnosed above
            };
            if !ok && !f.allowed("atomics", line) {
                let contract = decl.contract.as_deref().unwrap_or("?");
                out.push(Diagnostic::new(
                    "atomics",
                    &f.path,
                    line,
                    format!(
                        "`{name}.{op}` uses Ordering::{ord} but `{name}` declares atomic({contract})"
                    ),
                ));
            }
        }
    }
    // Mixed orderings on the same unannotated atomic.
    for (name, ords) in &seen {
        let decl = decls.get(name);
        if decl.is_some_and(|d| d.contract.is_some()) || ords.len() < 2 {
            continue;
        }
        let listed: Vec<String> = ords.keys().cloned().collect();
        let first = ords.values().copied().min().unwrap_or(0);
        let is_bool = decl.is_some_and(|d| d.is_bool);
        let extra = if is_bool && ords.contains_key("Relaxed") {
            " (a Relaxed write to a handoff flag does not publish prior writes)"
        } else {
            ""
        };
        out.push(Diagnostic::new(
            "atomics",
            &f.path,
            first,
            format!(
                "`{name}` is used with mixed orderings {{{}}}{extra} — declare one contract and stick to it",
                listed.join(", ")
            ),
        ));
    }

    // Interior-mutability inventory.
    inventory(f, out);
}

/// The first `Ordering` word at or after token `from` on `line`, falling
/// through to the next two lines for rustfmt-wrapped calls.
fn ordering_after(f: &SourceFile, line: usize, toks: &[Tok], from: usize) -> Option<String> {
    let find = |toks: &[Tok]| {
        toks.iter().find_map(|t| match t {
            Tok::Word(w) if ORDERINGS.contains(&w.as_str()) => Some(w.clone()),
            _ => None,
        })
    };
    if let Some(ord) = find(toks.get(from..).unwrap_or(&[])) {
        return Some(ord);
    }
    for l in line + 1..=line + 2 {
        let toks = crate::lexer::tokenize(f.code(l));
        if let Some(ord) = find(&toks) {
            return Some(ord);
        }
    }
    None
}

/// Flag `Cell`/`RefCell`/`UnsafeCell` and `unsafe impl Send/Sync` unless
/// justified in place.
fn inventory(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (idx, li) in f.lines.iter().enumerate() {
        let line = idx + 1;
        if li.in_test {
            continue;
        }
        let toks = crate::lexer::tokenize(&li.code);
        // An import names the type without using it; the use sites are
        // where the justification belongs.
        let is_import = matches!(toks.first(), Some(Tok::Word(w)) if w == "use")
            || matches!(
                (toks.first(), toks.get(1)),
                (Some(Tok::Word(p)), Some(Tok::Word(u))) if p == "pub" && u == "use"
            );
        if is_import {
            continue;
        }
        for t in &toks {
            if let Tok::Word(w) = t {
                if INTERIOR.contains(&w.as_str()) && !f.allowed("atomics", line) {
                    out.push(Diagnostic::new(
                        "atomics",
                        &f.path,
                        line,
                        format!(
                            "`{w}` is unsynchronized interior mutability — justify with `// lint:allow(atomics) <reason>` or use an atomic/lock"
                        ),
                    ));
                }
            }
        }
        for w in toks.windows(3) {
            if let [Tok::Word(u), Tok::Word(im), Tok::Word(t)] = w {
                if u == "unsafe"
                    && im == "impl"
                    && (t == "Send" || t == "Sync")
                    && !f.allowed("atomics", line)
                {
                    out.push(Diagnostic::new(
                        "atomics",
                        &f.path,
                        line,
                        format!(
                            "`unsafe impl {t}` hand-asserts thread safety — justify with `// lint:allow(atomics) <reason>`"
                        ),
                    ));
                }
            }
        }
    }
}
