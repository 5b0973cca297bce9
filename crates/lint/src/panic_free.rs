//! Pass 1: panic-freedom.
//!
//! Non-test library code must not contain `.unwrap()`, `.expect(`,
//! `panic!`, `todo!`, `unimplemented!`, or `unreachable!` unless the site
//! carries a `// lint:allow(panic) <reason>` justification. Slice-index
//! expressions (`x[i]`) are not hard errors — indexing is pervasive and
//! often provably in-bounds — but they are *counted* per file and ratcheted
//! (see [`crate::ratchet`]): the count can only go down.
//!
//! Rationale: the engine is the recovery path. A panic during redo or
//! backup roll-forward is a crash *inside* crash handling, the one place
//! the paper's correctness argument assumes forward progress (§5 requires
//! the sweep and recovery to run to completion). Typed errors unwind to the
//! harness, which can diagnose; panics abort the drill.

use crate::lexer::{SourceFile, Tok};
use crate::Diagnostic;

/// Scope and exclusions for the pass.
pub struct Config {
    /// Path substrings to skip entirely (binaries, generated code).
    pub exclude: Vec<String>,
}

impl Config {
    /// Workspace default: library sources only — `src/bin/` targets are
    /// experiment drivers where aborting is the right failure mode.
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

/// Per-file panic-site counts feeding the ratchet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileCounts {
    /// Workspace-relative path.
    pub path: String,
    /// Annotated (justified) panic-family sites.
    pub allowed_panics: usize,
    /// Slice-index expressions.
    pub index_sites: usize,
}

const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];

/// Keywords that can directly precede `[` without forming an index
/// expression (`&mut [u8]`, `if x [..]` never happens, but be conservative).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "mut", "dyn", "as", "return", "if", "else", "match", "in", "box", "ref", "break", "continue",
    "move", "static", "const", "where", "impl", "for", "let", "pub", "crate", "super", "use",
];

/// Run the pass: hard diagnostics for unannotated panic sites.
pub fn check(files: &[SourceFile], cfg: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in files {
        if cfg.exclude.iter().any(|e| f.path.contains(e)) {
            continue;
        }
        scan_file(f, &mut out, &mut None);
    }
    out
}

/// Run the pass *and* produce ratchet counts for every scanned file.
pub fn check_with_counts(files: &[SourceFile], cfg: &Config) -> (Vec<Diagnostic>, Vec<FileCounts>) {
    let mut out = Vec::new();
    let mut counts = Vec::new();
    for f in files {
        if cfg.exclude.iter().any(|e| f.path.contains(e)) {
            continue;
        }
        let mut c = Some(FileCounts {
            path: f.path.clone(),
            allowed_panics: 0,
            index_sites: 0,
        });
        scan_file(f, &mut out, &mut c);
        // lint:allow(panic) scan_file never takes the Option's value
        let c = c.expect("counts retained");
        if c.allowed_panics > 0 || c.index_sites > 0 {
            counts.push(c);
        }
    }
    (out, counts)
}

fn scan_file(f: &SourceFile, out: &mut Vec<Diagnostic>, counts: &mut Option<FileCounts>) {
    for (idx, li) in f.lines.iter().enumerate() {
        let line = idx + 1;
        if li.in_test {
            continue;
        }
        let toks = crate::lexer::tokenize(&li.code);
        for (t, w) in toks.windows(3).enumerate().flat_map(|(i, win)| {
            if let [Tok::Sym('.'), Tok::Word(w), Tok::Sym('(')] = win {
                Some((i, w.clone()))
            } else {
                None
            }
            .into_iter()
        }) {
            let _ = t;
            if w == "unwrap" || w == "expect" {
                report_panic(f, line, &format!(".{w}()"), out, counts);
            }
        }
        for win in toks.windows(2) {
            if let [Tok::Word(w), Tok::Sym('!')] = win {
                if PANIC_MACROS.contains(&w.as_str()) {
                    report_panic(f, line, &format!("{w}!"), out, counts);
                }
            }
        }
        // Slice-index heuristic: `[` whose preceding token is an
        // identifier, `)`, or `]` — i.e. an index expression rather than an
        // array literal, type, or attribute.
        if let Some(c) = counts.as_mut() {
            for i in 1..toks.len() {
                if toks[i] != Tok::Sym('[') {
                    continue;
                }
                // `&'a [u8]`: the word before the bracket is a lifetime.
                let lifetime = i >= 2 && toks.get(i - 2) == Some(&Tok::Sym('\''));
                let indexing = match &toks[i - 1] {
                    Tok::Word(w) => {
                        !lifetime
                            && !NON_INDEX_KEYWORDS.contains(&w.as_str())
                            && !w.chars().next().is_some_and(|ch| ch.is_ascii_digit())
                    }
                    Tok::Sym(')') | Tok::Sym(']') => true,
                    _ => false,
                };
                // `vec![`, `#[`, `&[` are already excluded by the match
                // above (`!`, `#`, `&` are Syms that fall to `false`).
                if indexing {
                    c.index_sites += 1;
                }
            }
        }
    }
}

fn report_panic(
    f: &SourceFile,
    line: usize,
    what: &str,
    out: &mut Vec<Diagnostic>,
    counts: &mut Option<FileCounts>,
) {
    if f.allowed("panic", line) {
        if let Some(c) = counts.as_mut() {
            c.allowed_panics += 1;
        }
    } else {
        out.push(Diagnostic::new(
            "panic",
            &f.path,
            line,
            format!("{what} in non-test library code — return a typed error, or justify with `// lint:allow(panic) <reason>`"),
        ));
    }
}
