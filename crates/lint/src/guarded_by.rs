//! Pass 6: guarded-by inference and lock-set checking.
//!
//! For every struct that owns a `Mutex`/`RwLock` field *and* is shared
//! across threads through an `Arc` (detected workspace-wide from
//! `Arc<Name>` / `Arc::new(Name…)` sites), every plain data field must
//! have a guarded-by story:
//!
//! - an explicit `// lint: guarded-by(<spec>)` annotation on the field,
//!   where `<spec>` is either a **sibling lock field** (every access must
//!   be dominated by that guard) or one of the lock-free contracts
//!   `immutable` (set at construction, never written), `atomic` (the field
//!   is atomics all the way down — pass 7 audits the orderings), or
//!   `unit-local` (owned by exactly one thread at a time, e.g. state
//!   reached only through `&mut self` of a per-thread value); or
//! - an **inferred** guard: if every in-file access to the field is
//!   dominated by the same sibling lock, the pass infers `guarded-by` of
//!   that lock silently.
//!
//! Any access not dominated by the owning guard is a diagnostic. Guard
//! domination is lexical per function: a guard acquired on an earlier line
//! is assumed held through the end of the function, and the held set
//! resets at every `spawn(` boundary (a closure body starts with no locks
//! held — exactly the blind spot that makes data races in
//! `thread::spawn`/scoped-worker closures, the `backup/parallel.rs` /
//! `recovery/parallel.rs` paths and the harness's sweep and session
//! threads (`harness/parallel.rs`, `harness/sessions.rs`) this pass exists
//! for). Intentional lock-free reads are silenced per-site with
//! `// lint:allow(guarded-by) <reason>` and ratcheted in
//! `crates/lint/race_ratchet.tsv` alongside the count of lock-free field
//! contracts — both counts only go down.
//!
//! The static map this pass builds is pinned for the hot structs by the
//! workspace test's contract table; ThreadSanitizer (`scripts/tsan.sh`)
//! checks the races the discipline is meant to prevent.

use crate::lexer::{SourceFile, Tok};
use crate::structs::{parse_structs, FieldKind, ImplSpan, StructDef};
use crate::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};

/// Lock-free contract specs a field annotation may carry instead of a
/// sibling lock field name.
pub const LOCK_FREE_SPECS: &[&str] = &["immutable", "atomic", "unit-local"];

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

/// Per-file tolerated lock-free surface, feeding the race ratchet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceCounts {
    /// Workspace-relative path.
    pub path: String,
    /// Plain fields annotated with a lock-free contract
    /// (`immutable` / `atomic` / `unit-local`).
    pub lockfree_fields: usize,
    /// Accesses silenced with a per-site guarded-by allow directive.
    pub allowed_unguarded: usize,
}

/// One observed access to a guarded field.
#[derive(Debug, Clone)]
struct Access {
    line: usize,
    /// Lock fields (of the owning struct) held at this point.
    held: BTreeSet<String>,
}

/// Run the pass: diagnostics for unguarded accesses and malformed specs.
pub fn check(files: &[SourceFile], cfg: &Config) -> Vec<Diagnostic> {
    analyze(files, cfg).0
}

/// Run the pass *and* produce race-ratchet counts for every scanned file.
pub fn check_with_counts(files: &[SourceFile], cfg: &Config) -> (Vec<Diagnostic>, Vec<RaceCounts>) {
    let (diags, counts, _) = analyze(files, cfg);
    (diags, counts)
}

/// The guarded-by map: struct name → field name → spec. Lock fields map to
/// `"lock"`, atomic fields to `"atomic"`, annotated plain fields to their
/// annotation spec, and inferred plain fields to the sibling lock that
/// dominates every access. Structs appear if they own a lock field or
/// carry any guarded-by annotation, so the map covers every
/// `Arc<Mutex/RwLock>` field in the workspace.
pub fn guarded_map(
    files: &[SourceFile],
    cfg: &Config,
) -> BTreeMap<String, BTreeMap<String, String>> {
    analyze(files, cfg).2
}

type Analysis = (
    Vec<Diagnostic>,
    Vec<RaceCounts>,
    BTreeMap<String, BTreeMap<String, String>>,
);

fn analyze(files: &[SourceFile], cfg: &Config) -> Analysis {
    let arc_shared = arc_shared_names(files);
    let mut diags = Vec::new();
    let mut counts = Vec::new();
    let mut map: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
    for f in files {
        if cfg.exclude.iter().any(|e| f.path.contains(e)) {
            continue;
        }
        let structs = parse_structs(f);
        let impls = crate::structs::impl_spans(f);
        let mut c = RaceCounts {
            path: f.path.clone(),
            lockfree_fields: 0,
            allowed_unguarded: 0,
        };
        for s in &structs {
            let has_lock = s.fields.iter().any(|fd| fd.kind == FieldKind::Lock);
            let has_annotation = s.fields.iter().any(|fd| fd.guarded_by.is_some());
            if !has_lock && !has_annotation {
                continue;
            }
            let entry = map.entry(s.name.clone()).or_default();
            for fd in &s.fields {
                match fd.kind {
                    FieldKind::Lock => {
                        entry.insert(fd.name.clone(), "lock".to_string());
                    }
                    FieldKind::Atomic => {
                        entry.insert(fd.name.clone(), "atomic".to_string());
                    }
                    FieldKind::Plain => {}
                }
            }
            // Plain-field checking applies to *hot* structs: lock-owning
            // and Arc-shared, or opted in via an explicit annotation.
            let hot = (has_lock && arc_shared.contains(s.name.as_str())) || has_annotation;
            if !hot {
                continue;
            }
            check_struct(f, s, &impls, &mut diags, &mut c, entry);
        }
        if c.lockfree_fields > 0 || c.allowed_unguarded > 0 {
            counts.push(c);
        }
    }
    diags.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    (diags, counts, map)
}

/// Check one hot struct's plain fields; extend `entry` with their specs.
fn check_struct(
    f: &SourceFile,
    s: &StructDef,
    impls: &[ImplSpan],
    diags: &mut Vec<Diagnostic>,
    counts: &mut RaceCounts,
    entry: &mut BTreeMap<String, String>,
) {
    let lock_names: BTreeSet<&str> = s.lock_fields().into_iter().collect();
    for fd in s.fields.iter().filter(|fd| fd.kind == FieldKind::Plain) {
        // Annotation vocabulary check first.
        if let Some(spec) = fd.guarded_by.as_deref() {
            let is_lockfree = LOCK_FREE_SPECS.contains(&spec);
            if !is_lockfree && !lock_names.contains(spec) {
                diags.push(Diagnostic::new(
                    "guarded-by",
                    &f.path,
                    fd.line,
                    format!(
                        "guarded-by({spec}) on `{}.{}` names neither a sibling Mutex/RwLock field nor a lock-free contract ({})",
                        s.name,
                        fd.name,
                        LOCK_FREE_SPECS.join("/")
                    ),
                ));
                continue;
            }
            if is_lockfree {
                counts.lockfree_fields += 1;
                entry.insert(fd.name.clone(), spec.to_string());
                continue;
            }
            // Sibling lock: every access must hold it.
            entry.insert(fd.name.clone(), spec.to_string());
            for a in field_accesses(f, s, &fd.name, impls) {
                if a.held.contains(spec) {
                    continue;
                }
                if f.allowed("guarded-by", a.line) {
                    counts.allowed_unguarded += 1;
                } else {
                    diags.push(Diagnostic::new(
                        "guarded-by",
                        &f.path,
                        a.line,
                        format!(
                            "access to `{}.{}` without holding `{spec}` (declared guard) — take the guard, or justify with `// lint:allow(guarded-by) <reason>`",
                            s.name, fd.name
                        ),
                    ));
                }
            }
            continue;
        }
        // Unannotated: infer from the accesses.
        let accesses = field_accesses(f, s, &fd.name, impls);
        if accesses.is_empty() {
            continue;
        }
        let mut common: Option<BTreeSet<String>> = None;
        for a in &accesses {
            common = Some(match common {
                None => a.held.clone(),
                Some(c) => c.intersection(&a.held).cloned().collect(),
            });
        }
        let common = common.unwrap_or_default();
        if let Some(lock) = common.first() {
            // Every access is dominated by the same guard: inferred.
            entry.insert(fd.name.clone(), lock.clone());
            continue;
        }
        let ever_guarded = accesses.iter().any(|a| !a.held.is_empty());
        if !ever_guarded {
            diags.push(Diagnostic::new(
                "guarded-by",
                &f.path,
                fd.line,
                format!(
                    "field `{}.{}` of an Arc-shared lock-owning struct is never accessed under a sibling guard — annotate `// lint: guarded-by(<lock-field|{}>)`",
                    s.name,
                    fd.name,
                    LOCK_FREE_SPECS.join("|")
                ),
            ));
            continue;
        }
        for a in &accesses {
            if !a.held.is_empty() {
                continue;
            }
            if f.allowed("guarded-by", a.line) {
                counts.allowed_unguarded += 1;
            } else {
                diags.push(Diagnostic::new(
                    "guarded-by",
                    &f.path,
                    a.line,
                    format!(
                        "access to `{}.{}` with no sibling guard held, but other sites guard it — lock-set is empty here",
                        s.name, fd.name
                    ),
                ));
            }
        }
    }
}

/// Every `self.<field>` access (not a method call) inside the struct's
/// impl blocks, tagged with the lock fields held at that point.
fn field_accesses(f: &SourceFile, s: &StructDef, field: &str, impls: &[ImplSpan]) -> Vec<Access> {
    let lock_names: BTreeSet<&str> = s.lock_fields().into_iter().collect();
    let mut out = Vec::new();
    for span in f.functions() {
        if f.in_test(span.start_line) {
            continue;
        }
        let in_impl = impls.iter().any(|im| {
            im.name == s.name && im.start_line <= span.start_line && span.end_line <= im.end_line
        });
        if !in_impl {
            continue;
        }
        let mut held: BTreeSet<String> = BTreeSet::new();
        for line in span.start_line..=span.end_line {
            let toks = crate::lexer::tokenize(f.code(line));
            // Acquisitions first (same-line `self.lock.lock().field` cases
            // resolve permissively), then the spawn reset, then accesses.
            for w in toks.windows(5) {
                if let [Tok::Sym('.'), Tok::Word(l), Tok::Sym('.'), Tok::Word(m), Tok::Sym('(')] = w
                {
                    if (m == "lock" || m == "read" || m == "write")
                        && lock_names.contains(l.as_str())
                    {
                        held.insert(l.clone());
                    }
                }
            }
            if toks
                .windows(2)
                .any(|w| matches!(w, [Tok::Word(sp), Tok::Sym('(')] if sp == "spawn"))
            {
                // A spawned closure starts with an empty lock set.
                held.clear();
            }
            for (i, w) in toks.windows(3).enumerate() {
                if let [Tok::Word(recv), Tok::Sym('.'), Tok::Word(x)] = w {
                    if recv == "self" && x == field && toks.get(i + 3) != Some(&Tok::Sym('(')) {
                        out.push(Access {
                            line,
                            held: held.clone(),
                        });
                    }
                }
            }
        }
    }
    out
}

/// Struct names shared through `Arc` anywhere in the workspace:
/// `Arc<Name…>` type mentions and `Arc::new(Name…)` constructions.
fn arc_shared_names(files: &[SourceFile]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for f in files {
        for (idx, li) in f.lines.iter().enumerate() {
            if li.in_test {
                continue;
            }
            let _ = idx;
            if !li.code.contains("Arc") {
                continue;
            }
            let toks = crate::lexer::tokenize(&li.code);
            for w in toks.windows(3) {
                if let [Tok::Word(a), Tok::Sym('<'), Tok::Word(n)] = w {
                    if a == "Arc" {
                        out.insert(n.clone());
                    }
                }
            }
            for w in toks.windows(6) {
                if let [Tok::Word(a), Tok::Sym(':'), Tok::Sym(':'), Tok::Word(new), Tok::Sym('('), Tok::Word(n)] =
                    w
                {
                    if a == "Arc" && new == "new" {
                        out.insert(n.clone());
                    }
                }
            }
        }
    }
    out
}
