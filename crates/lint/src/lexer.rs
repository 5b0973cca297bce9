//! A minimal, dependency-free Rust source scanner.
//!
//! This is *not* a parser. It does exactly the amount of lexical work the
//! lint passes need, and no more:
//!
//! - strip comments and the contents of string/char/byte/raw-string
//!   literals (replaced by spaces, so columns are preserved) — a `panic!`
//!   inside an error message must not count as a panic site;
//! - collect `// lint:allow(<rule>) <reason>` annotations and the line they
//!   govern;
//! - mark the line span of every `#[cfg(test)]` module, so passes can skip
//!   test code;
//! - extract `fn` name → body line-span mappings via brace matching;
//! - tokenize sanitized lines into words and punctuation for the passes'
//!   pattern matching.
//!
//! Known, accepted approximations (documented in DESIGN.md): raw
//! identifiers (`r#match`) are passed through as code, const-generic braces
//! in signatures are not handled (none exist in this workspace), and
//! `#[test]` functions outside a `#[cfg(test)]` module are not detected
//! (integration tests are excluded by path instead).

/// One sanitized source line.
#[derive(Debug, Clone)]
pub struct LineInfo {
    /// The line with comments and literal contents blanked to spaces.
    pub code: String,
    /// True if the line falls inside a `#[cfg(test)]` module span.
    pub in_test: bool,
    /// Rules allowed on this line by a `lint:allow(rule) reason` directive.
    pub allows: Vec<String>,
    /// Directives that name a rule but carry no justification text.
    pub bad_allows: Vec<String>,
    /// Declaration directives on this line:
    /// `lint: atomic(<contract>)`, and `lint: durability(<event> requires
    /// <event>)`, collected as `(kind, argument)` pairs.
    /// Unlike `allows`, these *declare a contract* for the item they
    /// annotate (a struct field, an atomic declaration) rather than
    /// silencing a rule.
    pub decls: Vec<(String, String)>,
}

/// A function body span (1-based lines, inclusive).
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub start_line: usize,
    /// Line of the body's closing brace (equal to `start_line` for
    /// body-less trait-method declarations).
    pub end_line: usize,
}

/// A scanned source file: workspace-relative path plus sanitized lines.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Sanitized lines, index 0 = line 1.
    pub lines: Vec<LineInfo>,
}

/// One token of a sanitized line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier, keyword, or number literal.
    Word(String),
    /// A single punctuation character.
    Sym(char),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum St {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    CharLit,
}

impl SourceFile {
    /// Scan `text`, producing sanitized lines with test spans and allow
    /// directives resolved.
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let raw_lines = sanitize(text);
        let mut lines: Vec<LineInfo> = raw_lines
            .into_iter()
            .map(|(code, allows, bad_allows, decls)| LineInfo {
                code,
                in_test: false,
                allows,
                bad_allows,
                decls,
            })
            .collect();
        mark_test_spans(&mut lines);
        SourceFile {
            path: path.to_string(),
            lines,
        }
    }

    /// Whether `rule` is allowed at 1-based `line` — i.e. a directive sits
    /// on the line itself, or on the line immediately above it *and* that
    /// line is comment-only (a trailing directive governs only its own
    /// line).
    pub fn allowed(&self, rule: &str, line: usize) -> bool {
        let hit = |l: usize| {
            self.lines
                .get(l.wrapping_sub(1))
                .is_some_and(|li| li.allows.iter().any(|a| a == rule))
        };
        let comment_only = |l: usize| {
            self.lines
                .get(l.wrapping_sub(1))
                .is_some_and(|li| li.code.trim().is_empty())
        };
        hit(line) || (line >= 2 && hit(line - 1) && comment_only(line - 1))
    }

    /// The argument of the first `lint: <kind>(<arg>)` declaration directive
    /// governing 1-based `line` — on the line itself, or on the line
    /// immediately above when that line is comment-only (same placement
    /// rules as [`SourceFile::allowed`]).
    pub fn decl(&self, kind: &str, line: usize) -> Option<&str> {
        let hit = |l: usize| {
            self.lines.get(l.wrapping_sub(1)).and_then(|li| {
                li.decls
                    .iter()
                    .find(|(k, _)| k == kind)
                    .map(|(_, arg)| arg.as_str())
            })
        };
        let comment_only = |l: usize| {
            self.lines
                .get(l.wrapping_sub(1))
                .is_some_and(|li| li.code.trim().is_empty())
        };
        hit(line).or_else(|| {
            if line >= 2 && comment_only(line - 1) {
                hit(line - 1)
            } else {
                None
            }
        })
    }

    /// Sanitized code of 1-based `line` (empty if out of range).
    pub fn code(&self, line: usize) -> &str {
        self.lines
            .get(line.wrapping_sub(1))
            .map(|l| l.code.as_str())
            .unwrap_or("")
    }

    /// Whether 1-based `line` is inside a `#[cfg(test)]` module.
    pub fn in_test(&self, line: usize) -> bool {
        self.lines
            .get(line.wrapping_sub(1))
            .is_some_and(|l| l.in_test)
    }

    /// All function spans in the file, in source order.
    pub fn functions(&self) -> Vec<FnSpan> {
        let toks = self.all_tokens();
        let mut out = Vec::new();
        let mut i = 0;
        while let Some((t, line)) = toks.get(i).map(|t| (&t.0, t.1)) {
            let is_fn = matches!(t, Tok::Word(w) if w == "fn");
            let name = match toks.get(i + 1) {
                Some((Tok::Word(name), _)) if is_fn => name.clone(),
                _ => {
                    i += 1;
                    continue;
                }
            };
            // Walk to the body's `{` or a trailing `;` (trait method
            // without a default body).
            let mut j = i + 2;
            let mut body_open = None;
            while let Some((t, _)) = toks.get(j) {
                match t {
                    Tok::Sym('{') => {
                        body_open = Some(j);
                        break;
                    }
                    Tok::Sym(';') => break,
                    _ => j += 1,
                }
            }
            if let Some(open) = body_open {
                let mut depth = 0i64;
                let mut k = open;
                let mut end = line;
                while let Some((t, tline)) = toks.get(k) {
                    match t {
                        Tok::Sym('{') => depth += 1,
                        Tok::Sym('}') => {
                            depth -= 1;
                            if depth == 0 {
                                end = *tline;
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                out.push(FnSpan {
                    name,
                    start_line: line,
                    end_line: end,
                });
                // Continue scanning *inside* the body too, so nested fns
                // are found; just move past `fn name`.
            } else {
                out.push(FnSpan {
                    name,
                    start_line: line,
                    end_line: line,
                });
            }
            i += 2;
        }
        out
    }

    /// Tokens of every line, tagged with their 1-based line number.
    pub fn all_tokens(&self) -> Vec<(Tok, usize)> {
        let mut out = Vec::new();
        for (idx, li) in self.lines.iter().enumerate() {
            for t in tokenize(&li.code) {
                out.push((t, idx + 1));
            }
        }
        out
    }
}

/// Tokenize one sanitized line into words and punctuation.
pub fn tokenize(code: &str) -> Vec<Tok> {
    let mut out = Vec::new();
    let chars: Vec<char> = code.chars().collect();
    let mut i = 0;
    while let Some(&c) = chars.get(i) {
        if c.is_whitespace() {
            i += 1;
        } else if c.is_alphanumeric() || c == '_' {
            let start = i;
            while chars
                .get(i)
                .is_some_and(|&ch| ch.is_alphanumeric() || ch == '_')
            {
                i += 1;
            }
            out.push(Tok::Word(
                chars.get(start..i).unwrap_or_default().iter().collect(),
            ));
        } else {
            out.push(Tok::Sym(c));
            i += 1;
        }
    }
    out
}

/// A line with every space removed — for substring matching of multi-token
/// patterns like `store.append(` regardless of formatting.
pub fn norm(code: &str) -> String {
    code.chars().filter(|c| !c.is_whitespace()).collect()
}

/// Sanitize the whole file; returns per-line
/// `(code, allows, bad_allows, decls)`.
#[allow(clippy::type_complexity)]
fn sanitize(text: &str) -> Vec<(String, Vec<String>, Vec<String>, Vec<(String, String)>)> {
    let chars: Vec<char> = text.chars().collect();
    let mut st = St::Code;
    let mut line = String::new();
    let mut comment = String::new();
    let mut out: Vec<(String, Vec<String>, Vec<String>, Vec<(String, String)>)> = Vec::new();
    let mut allows: Vec<String> = Vec::new();
    let mut bad_allows: Vec<String> = Vec::new();
    let mut decls: Vec<(String, String)> = Vec::new();
    // The identifier chars immediately before the cursor (for raw-string
    // and byte-literal prefix detection).
    let mut prev_word = String::new();
    // Whether the comment being accumulated is a doc comment (`///`,
    // `//!`, `/**`, `/*!`). Doc comments *describe* directives — prose
    // like "justify with `lint:allow(rule) reason`" — so directives are
    // only collected from plain comments.
    let mut doc = false;

    let mut i = 0;
    while let Some(&c) = chars.get(i) {
        if c == '\n' {
            if st == St::LineComment {
                if !doc {
                    collect_allows(&comment, &mut allows, &mut bad_allows);
                    collect_decls(&comment, &mut decls);
                }
                comment.clear();
                st = St::Code;
            }
            out.push((
                std::mem::take(&mut line),
                std::mem::take(&mut allows),
                std::mem::take(&mut bad_allows),
                std::mem::take(&mut decls),
            ));
            prev_word.clear();
            i += 1;
            continue;
        }
        match st {
            St::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    st = St::LineComment;
                    doc = matches!(chars.get(i + 2), Some('/') | Some('!'));
                    line.push(' ');
                    line.push(' ');
                    i += 2;
                    prev_word.clear();
                } else if c == '/' && next == Some('*') {
                    st = St::BlockComment(1);
                    doc = matches!(chars.get(i + 2), Some('*') | Some('!'));
                    line.push(' ');
                    line.push(' ');
                    i += 2;
                    prev_word.clear();
                } else if c == '"' {
                    // `r"`, `br"` raw strings; `b"` byte strings behave
                    // like plain strings for our purposes.
                    if prev_word == "r" || prev_word == "br" {
                        st = St::RawStr(0);
                    } else {
                        st = St::Str;
                    }
                    line.push(' ');
                    i += 1;
                    prev_word.clear();
                } else if c == '#' && (prev_word == "r" || prev_word == "br") {
                    // `r#...#"` raw string, or `r#ident` raw identifier.
                    let mut n = 0usize;
                    while chars.get(i + n).copied() == Some('#') {
                        n += 1;
                    }
                    if chars.get(i + n).copied() == Some('"') {
                        st = St::RawStr(n as u32);
                        for _ in 0..=n {
                            line.push(' ');
                        }
                        i += n + 1;
                        prev_word.clear();
                    } else {
                        line.push(c);
                        i += 1;
                        prev_word.clear();
                    }
                } else if c == '\'' {
                    // Lifetime vs char literal.
                    let n1 = chars.get(i + 1).copied();
                    let n2 = chars.get(i + 2).copied();
                    if n1 == Some('\\') || (n1.is_some() && n2 == Some('\'')) {
                        st = St::CharLit;
                        line.push(' ');
                        i += 1;
                    } else {
                        line.push(c);
                        i += 1;
                    }
                    prev_word.clear();
                } else {
                    if c.is_alphanumeric() || c == '_' {
                        prev_word.push(c);
                    } else {
                        prev_word.clear();
                    }
                    line.push(c);
                    i += 1;
                }
            }
            St::LineComment => {
                comment.push(c);
                line.push(' ');
                i += 1;
            }
            St::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    st = St::BlockComment(depth + 1);
                    comment.push(' ');
                    line.push(' ');
                    line.push(' ');
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    if depth == 1 {
                        if !doc {
                            collect_allows(&comment, &mut allows, &mut bad_allows);
                            collect_decls(&comment, &mut decls);
                        }
                        comment.clear();
                        st = St::Code;
                    } else {
                        st = St::BlockComment(depth - 1);
                    }
                    line.push(' ');
                    line.push(' ');
                    i += 2;
                } else {
                    comment.push(c);
                    line.push(' ');
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    line.push(' ');
                    if chars.get(i + 1).is_some_and(|&n| n != '\n') {
                        line.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == '"' {
                    st = St::Code;
                    line.push(' ');
                    i += 1;
                } else {
                    line.push(' ');
                    i += 1;
                }
            }
            St::RawStr(n) => {
                if c == '"' {
                    let n = n as usize;
                    let closed = (0..n).all(|k| chars.get(i + 1 + k).copied() == Some('#'));
                    if closed {
                        st = St::Code;
                        for _ in 0..=n {
                            line.push(' ');
                        }
                        i += n + 1;
                    } else {
                        line.push(' ');
                        i += 1;
                    }
                } else {
                    line.push(' ');
                    i += 1;
                }
            }
            St::CharLit => {
                if c == '\\' {
                    line.push(' ');
                    if chars.get(i + 1).is_some_and(|&n| n != '\n') {
                        line.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == '\'' {
                    st = St::Code;
                    line.push(' ');
                    i += 1;
                } else {
                    line.push(' ');
                    i += 1;
                }
            }
        }
    }
    if st == St::LineComment && !doc {
        collect_allows(&comment, &mut allows, &mut bad_allows);
        collect_decls(&comment, &mut decls);
    }
    if !line.is_empty() || !allows.is_empty() || !bad_allows.is_empty() || !decls.is_empty() {
        out.push((line, allows, bad_allows, decls));
    }
    out
}

/// Extract `lint:allow(<rule>) <reason>` directives from comment text.
fn collect_allows(comment: &str, allows: &mut Vec<String>, bad: &mut Vec<String>) {
    let mut rest = comment;
    while let Some(pos) = rest.find("lint:allow(") {
        let after = rest.get(pos + "lint:allow(".len()..).unwrap_or("");
        match after.find(')') {
            Some(close) => {
                let rule = after.get(..close).unwrap_or("").trim().to_string();
                let reason = after.get(close + 1..).unwrap_or("");
                // Directives are per-line; the justification is whatever
                // follows on the same comment up to the next directive.
                let reason_text = match reason.find("lint:allow(") {
                    Some(n) => reason.get(..n).unwrap_or(""),
                    None => reason,
                };
                if rule.is_empty() {
                    rest = reason;
                    continue;
                }
                if reason_text.trim().len() >= 3 {
                    allows.push(rule);
                } else {
                    bad.push(rule);
                }
                rest = reason;
            }
            None => break,
        }
    }
}

/// Extract `lint: atomic(<contract>)` /
/// `lint: durability(<event> requires <event>)` declaration directives
/// from comment text. The space after `lint:` is optional; the argument is
/// everything up to the closing paren, trimmed.
fn collect_decls(comment: &str, decls: &mut Vec<(String, String)>) {
    let mut rest = comment;
    while let Some(pos) = rest.find("lint:") {
        rest = rest.split_at(pos + "lint:".len()).1;
        let body = rest.trim_start();
        let Some((kind, after)) = ["atomic", "durability"].iter().find_map(|k| {
            body.strip_prefix(*k)
                .and_then(|r| r.strip_prefix('('))
                .map(|r| (*k, r))
        }) else {
            continue;
        };
        let Some((arg, tail)) = after.split_once(')') else {
            break;
        };
        let arg = arg.trim();
        if !arg.is_empty() {
            decls.push((kind.to_string(), arg.to_string()));
        }
        rest = tail;
    }
}

/// Mark lines inside `#[cfg(test)] mod … { … }` spans.
fn mark_test_spans(lines: &mut [LineInfo]) {
    let mut i = 0;
    while i < lines.len() {
        if lines.get(i).is_some_and(|l| l.code.contains("cfg(test)")) {
            // Find the first `{` at or after the attribute and match braces.
            let mut depth = 0i64;
            let mut opened = false;
            let start = i;
            let mut j = i;
            'outer: while j < lines.len() {
                let col0 = if j == i {
                    lines
                        .get(i)
                        .and_then(|l| l.code.find("cfg(test)"))
                        .unwrap_or(0)
                } else {
                    0
                };
                let code = lines.get(j).map(|l| l.code.as_str()).unwrap_or("");
                for c in code.get(col0..).unwrap_or("").chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => {
                            depth -= 1;
                            if opened && depth == 0 {
                                break 'outer;
                            }
                        }
                        ';' if !opened => {
                            // `#[cfg(test)] use …;` — attribute on an item
                            // without a brace body; only that item is test.
                            break 'outer;
                        }
                        _ => {}
                    }
                }
                j += 1;
            }
            let end = j.min(lines.len() - 1);
            for li in lines.iter_mut().take(end + 1).skip(start) {
                li.in_test = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let f = SourceFile::parse(
            "x.rs",
            "let s = \"panic! unwrap()\"; // trailing unwrap()\nlet t = 1;\n",
        );
        assert!(!f.code(1).contains("panic"));
        assert!(!f.code(1).contains("unwrap"));
        assert_eq!(f.code(2).trim(), "let t = 1;");
    }

    #[test]
    fn raw_strings_and_chars() {
        let f = SourceFile::parse(
            "x.rs",
            "let r = r#\"unwrap() \"quoted\" panic!\"#;\nlet c = '\\'';\nlet l: &'static str = x;\nlet q = 'a';\n",
        );
        for l in 1..=4 {
            assert!(!f.code(l).contains("unwrap"), "line {l}: {:?}", f.code(l));
            assert!(!f.code(l).contains("panic"));
        }
        assert!(f.code(3).contains("'static"));
    }

    #[test]
    fn nested_block_comments() {
        let f = SourceFile::parse("x.rs", "a /* x /* unwrap() */ y */ b\n");
        assert!(!f.code(1).contains("unwrap"));
        assert!(f.code(1).contains('a'));
        assert!(f.code(1).contains('b'));
    }

    #[test]
    fn allow_directives_require_a_reason() {
        let f = SourceFile::parse(
            "x.rs",
            "x.unwrap(); // lint:allow(panic) length checked above\ny.unwrap(); // lint:allow(panic)\n",
        );
        assert!(f.allowed("panic", 1));
        assert!(!f.allowed("panic", 2));
        assert_eq!(f.lines[1].bad_allows, vec!["panic".to_string()]);
    }

    #[test]
    fn allow_on_previous_line_applies() {
        let f = SourceFile::parse(
            "x.rs",
            "// lint:allow(panic) invariant: map key inserted above\nx.unwrap();\n",
        );
        assert!(f.allowed("panic", 2));
        assert!(!f.allowed("error-flow", 2));
    }

    #[test]
    fn declaration_directives_are_collected() {
        let f = SourceFile::parse(
            "x.rs",
            "// lint: durability(PageFlush requires LogForce)\nfn flush() {}\nbar: u64, // lint: atomic(relaxed-counter)\nbaz: u8,\n",
        );
        assert_eq!(f.decl("durability", 2), Some("PageFlush requires LogForce"));
        assert_eq!(f.decl("atomic", 3), Some("relaxed-counter"));
        assert_eq!(f.decl("durability", 3), None);
        assert_eq!(f.decl("atomic", 4), None);
    }

    #[test]
    fn cfg_test_spans_are_marked() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn live2() {}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.in_test(1));
        assert!(f.in_test(2));
        assert!(f.in_test(4));
        assert!(f.in_test(5));
        assert!(!f.in_test(6));
    }

    #[test]
    fn durability_decls_are_collected() {
        let f = SourceFile::parse(
            "x.rs",
            "// lint: durability(PageWrite requires LogForce)\npub fn write_page() {}\n",
        );
        assert_eq!(f.decl("durability", 2), Some("PageWrite requires LogForce"));
        assert_eq!(f.decl("durability", 1), Some("PageWrite requires LogForce"));
    }

    #[test]
    fn doc_comments_never_declare_directives() {
        // Prose *describing* the directive syntax must not create
        // directives: `///`, `//!`, and `/**` comments are documentation.
        let f = SourceFile::parse(
            "x.rs",
            "//! `lint: durability(<event> requires <event>)` rows\n\
             /// justify with `lint:allow(panic) some reason`\n\
             /** also lint: durability(A requires B) */\n\
             // lint: durability(PageWrite requires LogForce)\n\
             fn f() {}\n",
        );
        assert_eq!(f.decl("durability", 1), None);
        assert!(!f.allowed("panic", 2));
        assert!(!f.allowed("panic", 3));
        assert_eq!(f.decl("durability", 3), None);
        assert_eq!(f.decl("durability", 4), Some("PageWrite requires LogForce"));
    }

    #[test]
    fn hashed_raw_strings_with_inner_quotes_and_hashes() {
        // `r##"…"# …"##` — the single-hash terminator inside must not
        // close the literal; tokens after the real terminator survive.
        let f = SourceFile::parse(
            "x.rs",
            "let r = r##\"quote \" hash \"# unwrap()\"##; force();\n",
        );
        assert!(!f.code(1).contains("unwrap"), "{:?}", f.code(1));
        assert!(f.code(1).contains("force"));
    }

    #[test]
    fn nested_generic_close_is_two_syms_not_a_shift() {
        let toks = tokenize("let m: BTreeMap<u32, Vec<Vec<u8>>> = x >> 2;");
        let shifts = toks
            .windows(2)
            .filter(|w| matches!(w, [Tok::Sym('>'), Tok::Sym('>')]))
            .count();
        // Both `>>>` (two adjacent pairs) and the real shift tokenize as
        // plain `>` syms — the scanner never glues them into one token, so
        // brace/paren matching in the CFG builder is unaffected.
        assert_eq!(shifts, 3);
        assert!(toks.iter().any(|t| matches!(t, Tok::Word(w) if w == "u8")));
    }

    #[test]
    fn labeled_loops_are_not_char_literals() {
        let f = SourceFile::parse(
            "x.rs",
            "'outer: for x in xs {\n    break 'outer;\n}\nlet c = 'x';\n",
        );
        assert!(f.code(1).contains("'outer"), "{:?}", f.code(1));
        assert!(f.code(2).contains("'outer"));
        assert!(
            !f.code(4).contains('x'),
            "char literal blanked: {:?}",
            f.code(4)
        );
        let toks = tokenize(f.code(2));
        assert!(toks
            .iter()
            .any(|t| matches!(t, Tok::Word(w) if w == "outer")));
    }

    #[test]
    fn question_mark_chains_tokenize_per_call() {
        let toks = tokenize("let p = self.store.read_page(id)?.verify()?;");
        let questions = toks.iter().filter(|t| matches!(t, Tok::Sym('?'))).count();
        assert_eq!(questions, 2);
        assert!(toks
            .iter()
            .any(|t| matches!(t, Tok::Word(w) if w == "read_page")));
        assert!(toks
            .iter()
            .any(|t| matches!(t, Tok::Word(w) if w == "verify")));
    }

    #[test]
    fn function_spans() {
        let src = "impl X {\n    fn a(&self) -> u32 {\n        1\n    }\n    fn b(&self);\n}\nfn top() {\n}\n";
        let f = SourceFile::parse("x.rs", src);
        let fns = f.functions();
        let names: Vec<&str> = fns.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "top"]);
        assert_eq!((fns[0].start_line, fns[0].end_line), (2, 4));
        assert_eq!((fns[1].start_line, fns[1].end_line), (5, 5));
        assert_eq!((fns[2].start_line, fns[2].end_line), (7, 8));
    }
}
