//! Shared struct-shape scanner for the concurrency passes.
//!
//! Passes 3–4 and the lock-order alias resolver all need the same three
//! lexical facts about a file: which structs it declares (with each field's
//! name, type words, and annotation directives), which `impl` block a
//! function belongs to, and which zero-argument accessor methods return a
//! reference to another struct. This module extracts all three from the
//! sanitized token stream so every pass agrees on the shapes it saw.
//!
//! Like the rest of the lexer layer this is an approximation, not a
//! parser: single-file struct declarations with one field per declaration
//! site, no const-generic braces in field types (none exist in this
//! workspace), and `->` arrows inside field types are tolerated but not
//! deeply understood.

use crate::lexer::{SourceFile, Tok};

/// How a field participates in the concurrency discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// `Mutex<…>` / `RwLock<…>` (possibly nested, e.g. `Vec<RwLock<…>>`).
    Lock,
    /// `AtomicU*`/`AtomicBool`/… — pass 4's domain.
    Atomic,
    /// Anything else: plain data needing a guarded-by story when shared.
    Plain,
}

/// One struct field as scanned.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// 1-based declaration line.
    pub line: usize,
    /// The words of the field's type, in order (`Vec`, `RwLock`, …).
    pub type_words: Vec<String>,
    /// Lock / atomic / plain classification.
    pub kind: FieldKind,
    /// The guarded-by declaration's argument, if the field is annotated.
    pub guarded_by: Option<String>,
    /// The atomic-contract declaration's argument, if the field is
    /// annotated.
    pub atomic_contract: Option<String>,
}

/// One struct declaration as scanned.
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: usize,
    /// Fields in declaration order (empty for unit/tuple structs).
    pub fields: Vec<FieldDef>,
}

impl StructDef {
    /// Names of the struct's lock fields.
    pub fn lock_fields(&self) -> Vec<&str> {
        self.fields
            .iter()
            .filter(|f| f.kind == FieldKind::Lock)
            .map(|f| f.name.as_str())
            .collect()
    }
}

/// An `impl` block span: the struct it implements and its line range.
#[derive(Debug, Clone)]
pub struct ImplSpan {
    /// The implemented struct's name.
    pub name: String,
    /// 1-based first line.
    pub start_line: usize,
    /// 1-based last line.
    pub end_line: usize,
}

/// Scan every struct declaration in a file (non-test code only).
pub fn parse_structs(f: &SourceFile) -> Vec<StructDef> {
    let toks = f.all_tokens();
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let Some((Tok::Word(w), line)) = toks.get(i).map(|t| (&t.0, t.1)) else {
            i += 1;
            continue;
        };
        if w != "struct" || f.in_test(line) {
            i += 1;
            continue;
        }
        let Some((Tok::Word(name), _)) = toks.get(i + 1).map(|t| (&t.0, t.1)) else {
            i += 1;
            continue;
        };
        // Walk to the body's `{`, bailing on `;` (unit) or `(` (tuple).
        let mut j = i + 2;
        let mut open = None;
        while let Some((t, _)) = toks.get(j).map(|t| (&t.0, t.1)) {
            match t {
                Tok::Sym('{') => {
                    open = Some(j);
                    break;
                }
                Tok::Sym(';') | Tok::Sym('(') => break,
                _ => j += 1,
            }
        }
        let Some(open) = open else {
            i += 2;
            continue;
        };
        let (fields, body_end) = parse_fields(f, &toks, open);
        out.push(StructDef {
            name: name.clone(),
            line,
            fields,
        });
        i = body_end.max(i + 2);
    }
    out
}

/// Parse the field list of a struct body starting at the `{` at `open`.
/// Returns the fields and the index just past the closing `}`.
fn parse_fields(f: &SourceFile, toks: &[(Tok, usize)], open: usize) -> (Vec<FieldDef>, usize) {
    let mut fields = Vec::new();
    let mut depth = 0i64; // brace depth relative to the struct body
    let mut angle = 0i64;
    let mut brackets = 0i64; // attribute `#[…]` nesting
    let mut cur: Option<FieldDef> = None;
    let mut j = open;
    let mut prev_minus = false;
    while let Some((t, line)) = toks.get(j).map(|t| (&t.0, t.1)) {
        match t {
            Tok::Sym('{') => depth += 1,
            Tok::Sym('}') => {
                depth -= 1;
                if depth == 0 {
                    if let Some(fd) = cur.take() {
                        fields.push(finish_field(f, fd));
                    }
                    return (fields, j + 1);
                }
            }
            Tok::Sym('[') => brackets += 1,
            Tok::Sym(']') => brackets -= 1,
            Tok::Sym('<') => angle += 1,
            // `->` must not close an angle bracket.
            Tok::Sym('>') if !prev_minus => angle -= 1,
            Tok::Sym(',') if depth == 1 && angle == 0 && brackets == 0 => {
                if let Some(fd) = cur.take() {
                    fields.push(finish_field(f, fd));
                }
            }
            Tok::Sym(':') if depth == 1 && angle == 0 && brackets == 0 && cur.is_none() => {
                // The word right before this `:` names the field — unless
                // it is a visibility modifier or we are mid-path (`::`).
                let prior = toks.get(j.wrapping_sub(1)).map(|t| &t.0);
                let double_colon = matches!(prior, Some(Tok::Sym(':')))
                    || matches!(toks.get(j + 1).map(|t| &t.0), Some(Tok::Sym(':')));
                if let (Some(Tok::Word(name)), false) = (prior, double_colon) {
                    if name != "pub" && name != "crate" {
                        cur = Some(FieldDef {
                            name: name.clone(),
                            line,
                            type_words: Vec::new(),
                            kind: FieldKind::Plain,
                            guarded_by: None,
                            atomic_contract: None,
                        });
                    }
                }
            }
            Tok::Word(w) => {
                if let Some(fd) = cur.as_mut() {
                    fd.type_words.push(w.clone());
                }
            }
            _ => {}
        }
        prev_minus = matches!(t, Tok::Sym('-'));
        j += 1;
    }
    if let Some(fd) = cur.take() {
        fields.push(finish_field(f, fd));
    }
    (fields, toks.len())
}

/// Classify a field's kind and attach its annotation directives.
fn finish_field(f: &SourceFile, mut fd: FieldDef) -> FieldDef {
    fd.kind = if fd.type_words.iter().any(|w| w == "Mutex" || w == "RwLock") {
        FieldKind::Lock
    } else if fd
        .type_words
        .first()
        .is_some_and(|w| w.starts_with("Atomic"))
    {
        FieldKind::Atomic
    } else {
        FieldKind::Plain
    };
    fd.guarded_by = f.decl("guarded-by", fd.line).map(str::to_string);
    fd.atomic_contract = f.decl("atomic", fd.line).map(str::to_string);
    fd
}

/// Scan `impl` block spans: which struct each one implements, by line range.
/// Trait impls (`impl Trait for Type`) resolve to `Type`.
pub fn impl_spans(f: &SourceFile) -> Vec<ImplSpan> {
    let toks = f.all_tokens();
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let Some((Tok::Word(w), start_line)) = toks.get(i).map(|t| (&t.0, t.1)) else {
            i += 1;
            continue;
        };
        if w != "impl" {
            i += 1;
            continue;
        }
        // Collect the header up to the body `{`; note the last word seen
        // before the brace and whether a `for` clause names the real type.
        let mut j = i + 1;
        let mut angle = 0i64;
        let mut name: Option<String> = None;
        let mut open = None;
        while let Some((t, _)) = toks.get(j).map(|t| (&t.0, t.1)) {
            match t {
                Tok::Sym('<') => angle += 1,
                Tok::Sym('>') => angle -= 1,
                Tok::Sym('{') if angle == 0 => {
                    open = Some(j);
                    break;
                }
                Tok::Sym(';') if angle == 0 => break,
                Tok::Word(w) if angle == 0 => {
                    if w == "for" {
                        // `impl Trait for Type` — the type follows.
                        name = None;
                    } else if w == "where" {
                        // The type name is fixed by now; bounds follow.
                    } else if name.is_none() {
                        name = Some(w.clone());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let (Some(open), Some(name)) = (open, name) else {
            i = j.max(i + 1);
            continue;
        };
        // Brace-match to the end of the impl body.
        let mut depth = 0i64;
        let mut k = open;
        let mut end_line = start_line;
        while let Some((t, line)) = toks.get(k).map(|t| (&t.0, t.1)) {
            match t {
                Tok::Sym('{') => depth += 1,
                Tok::Sym('}') => {
                    depth -= 1;
                    if depth == 0 {
                        end_line = line;
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        out.push(ImplSpan {
            name,
            start_line,
            end_line,
        });
        i = open + 1;
    }
    out
}

/// Zero-or-more-argument accessor methods that return (a reference to, an
/// `Arc` of) another struct: method name → returned struct name. Only
/// methods whose return type mentions one of `candidates` are kept.
pub fn accessor_returns(f: &SourceFile, candidates: &[&str]) -> Vec<(String, String)> {
    let toks = f.all_tokens();
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        let Some((Tok::Word(w), _)) = toks.get(i).map(|t| (&t.0, t.1)) else {
            i += 1;
            continue;
        };
        if w != "fn" {
            i += 1;
            continue;
        }
        let Some((Tok::Word(name), line)) = toks.get(i + 1).map(|t| (&t.0, t.1)) else {
            i += 1;
            continue;
        };
        if f.in_test(line) {
            i += 2;
            continue;
        }
        // Scan the signature up to `{` or `;`; record words after `->`.
        let mut j = i + 2;
        let mut in_ret = false;
        let mut prev_minus = false;
        let mut ret_words: Vec<String> = Vec::new();
        while let Some((t, _)) = toks.get(j).map(|t| (&t.0, t.1)) {
            match t {
                Tok::Sym('{') | Tok::Sym(';') => break,
                Tok::Sym('>') if prev_minus => in_ret = true,
                Tok::Word(w) if in_ret => ret_words.push(w.clone()),
                _ => {}
            }
            prev_minus = matches!(t, Tok::Sym('-'));
            j += 1;
        }
        if let Some(target) = ret_words
            .iter()
            .find(|w| candidates.iter().any(|c| c == &w.as_str()))
        {
            out.push((name.clone(), target.clone()));
        }
        i = j.max(i + 2);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::SourceFile;

    #[test]
    fn struct_fields_are_classified() {
        let src = "\
pub struct S {\n\
    // lint: guarded-by(state) refined under the state lock\n\
    pub counter: u64,\n\
    state: RwLock<Inner>,\n\
    hits: AtomicU64, // lint: atomic(relaxed-counter)\n\
    parts: Vec<RwLock<P>>,\n\
    plain: BTreeMap<u32, Vec<u8>>,\n\
}\n";
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        let s = parse_structs(&f);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].name, "S");
        let kinds: Vec<(&str, FieldKind)> = s[0]
            .fields
            .iter()
            .map(|fd| (fd.name.as_str(), fd.kind))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("counter", FieldKind::Plain),
                ("state", FieldKind::Lock),
                ("hits", FieldKind::Atomic),
                ("parts", FieldKind::Lock),
                ("plain", FieldKind::Plain),
            ]
        );
        assert_eq!(s[0].fields[0].guarded_by.as_deref(), Some("state"));
        assert_eq!(
            s[0].fields[2].atomic_contract.as_deref(),
            Some("relaxed-counter")
        );
        assert_eq!(s[0].lock_fields(), vec!["state", "parts"]);
    }

    #[test]
    fn impl_spans_resolve_trait_impls() {
        let src = "\
struct A { x: u32 }\n\
impl A {\n\
    fn get(&self) -> u32 { self.x }\n\
}\n\
impl Default for A {\n\
    fn default() -> A { A { x: 0 } }\n\
}\n";
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        let spans = impl_spans(&f);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "A");
        assert_eq!((spans[0].start_line, spans[0].end_line), (2, 4));
        assert_eq!(spans[1].name, "A");
        assert_eq!((spans[1].start_line, spans[1].end_line), (5, 7));
    }

    #[test]
    fn accessor_returns_find_reference_and_arc_returns() {
        let src = "\
impl Outer {\n\
    pub fn coordinator(&self) -> &Inner { &self.inner }\n\
    pub fn shared(&self) -> &Arc<Inner> { &self.shared }\n\
    pub fn count(&self) -> usize { 0 }\n\
}\n";
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        let accs = accessor_returns(&f, &["Inner"]);
        assert_eq!(
            accs,
            vec![
                ("coordinator".to_string(), "Inner".to_string()),
                ("shared".to_string(), "Inner".to_string()),
            ]
        );
    }
}
