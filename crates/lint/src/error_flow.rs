//! Pass 4: error flow — a fault verdict must never be silently dropped.
//!
//! Every fault-consulting I/O primitive (the [`crate::fault_hook`]
//! registry: `write_page`, `read_page`, `force`, `append`, …) returns a
//! `Result` that may carry an injected crash, torn write, or media
//! failure. The whole torture methodology depends on those verdicts
//! reaching `EngineError`: a discarded `Result` between the fault hook and
//! the caller silently converts an injected fault into a wrong answer.
//!
//! This pass tracks `Result`s *born at consulting call sites* and flags
//! the discard idioms:
//!
//! - `let _ = store.write_page(…);` — explicit discard;
//! - `…read_page(…).ok();` — converted to `Option` and then dropped
//!   (`.ok()?` and `.ok().map(…)` are uses and stay legal);
//! - `…force(…).unwrap_or(…)` / `.unwrap_or_else` / `.unwrap_or_default`
//!   — the error arm is swallowed into a default;
//! - `if let Ok(x) = store.read_page(…) { … }` with **no** `else` — the
//!   error path falls through with no propagation (`while let` loops and
//!   `let Ok(…) = … else { … }` diverge on error and are fine).
//!
//! A plain `call();` statement-discard is left to rustc's `unused_must_use`
//! (all consulting primitives return `Result`, which is `#[must_use]`).
//! The pass is lexical over the same statement machinery as the CFG
//! builder; `/src/bin/` experiment drivers are excluded like the panic
//! pass.

use crate::cfg::call_sites;
use crate::lexer::{SourceFile, Tok};
use crate::Diagnostic;

/// The rule id this pass reports under.
pub const RULE: &str = "error-flow";

/// Fault-consulting primitives (method names from
/// [`crate::fault_hook::REGISTRY`] plus the engine-level force wrappers):
/// a `Result` born at one of these calls carries a possible fault verdict.
const CONSULTING: &[&str] = &[
    "append",
    "append_batch",
    "copy_pages_checked",
    "fetch_image",
    "fetch_page",
    "force",
    "force_all",
    "force_log",
    "frames_from",
    "read_page",
    "read_run",
    "scan",
    "scan_from",
    "truncate",
    "write_out",
    "write_page",
    "write_run",
];

/// Methods that swallow the error arm into a default value.
const SWALLOWERS: &[&str] = &["unwrap_or", "unwrap_or_else", "unwrap_or_default"];

/// Scope of the pass.
pub struct Config {
    /// Path substrings to skip entirely (binaries).
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

/// Run the pass.
pub fn check(files: &[SourceFile], cfg: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in files {
        if cfg.exclude.iter().any(|e| f.path.contains(e)) {
            continue;
        }
        check_file(f, &mut out);
    }
    out
}

/// Index of the matching `)` for the `(` at `open`.
fn matching_paren(toks: &[(Tok, usize)], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut i = open;
    while let Some((t, _)) = toks.get(i) {
        match t {
            Tok::Sym('(') => depth += 1,
            Tok::Sym(')') => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

fn word_at(toks: &[(Tok, usize)], i: usize) -> Option<&str> {
    match toks.get(i) {
        Some((Tok::Word(w), _)) => Some(w.as_str()),
        _ => None,
    }
}

fn sym_at(toks: &[(Tok, usize)], i: usize) -> Option<char> {
    match toks.get(i) {
        Some((Tok::Sym(c), _)) => Some(*c),
        _ => None,
    }
}

fn check_file(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    // Tokens from non-test lines only; `#[cfg(test)]` modules are whole
    // balanced regions, so dropping them keeps braces matched.
    let mut toks: Vec<(Tok, usize)> = Vec::new();
    for (idx, li) in f.lines.iter().enumerate() {
        if li.in_test {
            continue;
        }
        for t in crate::lexer::tokenize(&li.code) {
            toks.push((t, idx + 1));
        }
    }
    let consulting: Vec<(usize, String, usize)> = call_sites(&toks)
        .into_iter()
        .filter(|s| CONSULTING.contains(&s.method.as_str()))
        .map(|s| (s.idx, s.method, s.line))
        .collect();
    if consulting.is_empty() {
        return;
    }

    // Pattern 1: `let _ = … consulting(…) …;`.
    for i in 0..toks.len() {
        if word_at(&toks, i) != Some("let")
            || word_at(&toks, i + 1) != Some("_")
            || sym_at(&toks, i + 2) != Some('=')
        {
            continue;
        }
        // Statement end: `;` at bracket depth 0 from the `=`.
        let mut depth = 0i64;
        let mut j = i + 3;
        let end = loop {
            match toks.get(j) {
                Some((Tok::Sym('(' | '[' | '{'), _)) => depth += 1,
                Some((Tok::Sym(')' | ']' | '}'), _)) => depth -= 1,
                Some((Tok::Sym(';'), _)) if depth == 0 => break j,
                None => break j,
                _ => {}
            }
            j += 1;
        };
        for (idx, method, line) in &consulting {
            if *idx > i && *idx < end {
                report(f, *line, format!("`let _ =` discards the `Result` of `{method}` — a fault verdict would be lost; propagate it or handle the error arm"), out);
            }
        }
    }

    // Pattern 2/3: chain walk from each consulting call.
    for (idx, method, line) in &consulting {
        let Some(close) = matching_paren(&toks, idx + 1) else {
            continue;
        };
        let mut j = close + 1;
        loop {
            if sym_at(&toks, j) != Some('.') {
                break;
            }
            let Some(m) = word_at(&toks, j + 1) else {
                break;
            };
            if SWALLOWERS.contains(&m) && sym_at(&toks, j + 2) == Some('(') {
                report(f, *line, format!("`.{m}(…)` swallows the error arm of `{method}` — a fault verdict becomes a silent default; match on the error instead"), out);
                break;
            }
            if sym_at(&toks, j + 2) != Some('(') {
                // Field access or `.await`-like postfix: not a call chain
                // we track further.
                break;
            }
            let Some(mclose) = matching_paren(&toks, j + 2) else {
                break;
            };
            if m == "ok" && sym_at(&toks, mclose + 1) == Some(';') {
                report(f, *line, format!("`.ok()` discards the error of `{method}` at statement end — a fault verdict would be lost; propagate it or handle the error arm"), out);
                break;
            }
            // `.ok()?`, `.map_err(…)`, `.ok().map(…)`: the value is used;
            // keep walking the chain.
            j = mclose + 1;
        }
    }

    // Pattern 4: `if let Ok(…) = …consulting(…) { … }` with no else.
    for i in 0..toks.len() {
        if word_at(&toks, i) != Some("if")
            || word_at(&toks, i + 1) != Some("let")
            || word_at(&toks, i + 2) != Some("Ok")
        {
            continue;
        }
        // Condition runs to the `{` at paren/bracket depth 0.
        let mut depth = 0i64;
        let mut j = i + 3;
        let open = loop {
            match toks.get(j) {
                Some((Tok::Sym('(' | '['), _)) => depth += 1,
                Some((Tok::Sym(')' | ']'), _)) => depth -= 1,
                Some((Tok::Sym('{'), _)) if depth == 0 => break Some(j),
                None => break None,
                _ => {}
            }
            j += 1;
        };
        let Some(open) = open else { continue };
        let born_here = consulting.iter().any(|(idx, _, _)| *idx > i && *idx < open);
        if !born_here {
            continue;
        }
        // Match the then-block's braces.
        let mut bdepth = 0i64;
        let mut k = open;
        let after = loop {
            match toks.get(k) {
                Some((Tok::Sym('{'), _)) => bdepth += 1,
                Some((Tok::Sym('}'), _)) => {
                    bdepth -= 1;
                    if bdepth == 0 {
                        break Some(k + 1);
                    }
                }
                None => break None,
                _ => {}
            }
            k += 1;
        };
        let Some(after) = after else { continue };
        if word_at(&toks, after) != Some("else") {
            let line = toks.get(i).map(|t| t.1).unwrap_or(0);
            report(f, line, "`if let Ok(…)` on a fault-consulting call with no `else` — the error arm (an injected fault verdict) falls through silently".to_string(), out);
        }
    }
}

fn report(f: &SourceFile, line: usize, msg: String, out: &mut Vec<Diagnostic>) {
    if f.allowed(RULE, line) {
        return;
    }
    out.push(Diagnostic::new(RULE, &f.path, line, msg));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::parse("fixture.rs", src);
        check(&[f], &Config::bare())
    }

    #[test]
    fn let_underscore_discard_is_flagged() {
        let diags = run("fn f(&self) {\n    let _ = self.store.write_page(id, p);\n}\n");
        assert_eq!(diags.len(), 1, "{diags:?}");
        let d = diags.first().expect("diag");
        assert_eq!((d.rule, d.line), (RULE, 2));
        assert!(d.msg.contains("write_page"));
    }

    #[test]
    fn let_underscore_without_a_call_is_fine() {
        assert!(run(
            "fn f(&self) {\n    let _ = v;\n    let _x = self.store.write_page(id, p);\n}\n"
        )
        .is_empty());
    }

    #[test]
    fn ok_at_statement_end_is_flagged_but_ok_question_is_not() {
        let diags = run("fn f(&self) {\n    self.log.force(lsn).ok();\n}\n");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags.first().expect("diag").msg.contains(".ok()"));
        assert!(run(
            "fn f(&self) -> Option<()> {\n    self.log.force(lsn).ok()?;\n    Some(())\n}\n"
        )
        .is_empty());
        assert!(
            run("fn f(&self) -> bool {\n    self.log.force(lsn).ok().is_some()\n}\n").is_empty()
        );
    }

    #[test]
    fn unwrap_or_swallowing_is_flagged() {
        let diags =
            run("fn f(&self) -> Page {\n    self.store.read_page(id).unwrap_or_default()\n}\n");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags
            .first()
            .expect("diag")
            .msg
            .contains("unwrap_or_default"));
        let diags = run(
            "fn f(&self) -> Page {\n    self.store.read_page(id).unwrap_or_else(|_| Page::zero())\n}\n",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn map_err_chains_are_uses() {
        assert!(run(
            "fn f(&self) -> R {\n    self.store.read_page(id).map_err(map_store_err)?;\n    Ok(())\n}\n"
        )
        .is_empty());
    }

    #[test]
    fn if_let_ok_without_else_is_flagged() {
        let diags = run(
            "fn f(&self) {\n    if let Ok(p) = self.store.read_page(id) {\n        use_page(p);\n    }\n}\n",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags.first().expect("diag").line, 2);
        assert!(run(
            "fn f(&self) {\n    if let Ok(p) = self.store.read_page(id) {\n        use_page(p);\n    } else {\n        note_fault();\n    }\n}\n"
        )
        .is_empty());
    }

    #[test]
    fn if_let_ok_on_non_consulting_calls_is_fine() {
        assert!(run(
            "fn f(&self) {\n    if let Ok(v) = self.parse(bytes) {\n        use_value(v);\n    }\n}\n"
        )
        .is_empty());
    }

    #[test]
    fn allows_silence_with_a_reason() {
        assert!(run(
            "fn f(&self) {\n    // lint:allow(error-flow) best-effort prefetch, verdict re-consulted at the real read\n    let _ = self.store.read_page(id);\n}\n"
        )
        .is_empty());
    }

    #[test]
    fn test_code_is_skipped() {
        assert!(run(
            "#[cfg(test)]\nmod tests {\n    fn t(&self) {\n        let _ = self.store.write_page(id, p);\n    }\n}\n"
        )
        .is_empty());
    }
}
