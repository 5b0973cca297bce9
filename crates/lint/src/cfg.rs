//! The intra-procedural CFG + forward-dataflow engine (substrate for
//! passes 5 and 6).
//!
//! Built on the same dependency-free token scan as every other pass
//! ([`crate::lexer`]): a recursive-descent statement walker recovers the
//! control shape of one `fn` body — `if`/`else if`/`else` chains, `match`
//! arms, `loop`/`while`/`for` bodies, `move` closures, plain blocks — and
//! lowers it to basic blocks with predecessor/successor edges. On top of
//! the graph sits one forward solver, [`Cfg::must_avail_in`] —
//! "available events": the set of facts generated on **every** path from
//! entry to each block (intersection over predecessors). This is the
//! right notion for log-before-install: a force in *both* arms of an `if`
//! satisfies a write after the join, which strict dominance of any single
//! generator site would reject.
//!
//! Accepted approximations (documented in DESIGN.md §5.12):
//!
//! - Loop bodies get a *skip* edge and no back edge. For a must-analysis
//!   whose facts are only ever generated (never killed), ignoring back
//!   edges is sound **and** precise: re-entering a loop can only re-add
//!   facts.
//! - `?`, `return`, `break`, and `continue` are treated as falling
//!   through (the block is marked [`Block::early_exit`]). For forward
//!   must-availability this is exact: if execution *reaches* a token after
//!   a `?`, the fallible call succeeded and the early exit did not happen.
//!   Early exits never add paths into later code.
//! - `move` closures (spawn bodies) are branch arms with a skip edge —
//!   they may run zero times as far as the enclosing function can prove.
//!   Non-`move` closures are inlined as straight-line code.
//! - Braceless `match` arm expressions (`X => expr,`) are leaf tokens: a
//!   nested `if` inside such an arm is not split further. This
//!   over-approximates available facts inside that arm only, never across
//!   arms.
//! - Nested `fn` items are skipped entirely — they are analyzed under
//!   their own [`crate::lexer::FnSpan`], not at their definition site.

use crate::lexer::{FnSpan, SourceFile, Tok};
use std::collections::{BTreeMap, BTreeSet};

/// One basic block: the token indices it executes (into the body slice
/// handed to [`Cfg::build_fn`]), in execution order, plus the edges.
#[derive(Debug, Default)]
pub struct Block {
    /// Indices into the body token slice, in execution order.
    pub toks: Vec<usize>,
    /// Successor block ids.
    pub succs: Vec<usize>,
    /// Predecessor block ids.
    pub preds: Vec<usize>,
    /// Whether the block contains a `?`, `return`, `break`, or `continue`
    /// — an edge out of the function (or loop) that bypasses later code.
    pub early_exit: bool,
}

/// A recovered control-flow graph. Block 0 is the entry; blocks are
/// created in topological order (the builder never emits back edges), so a
/// single forward sweep of the solvers converges.
#[derive(Debug)]
pub struct Cfg {
    /// The blocks, entry first.
    pub blocks: Vec<Block>,
}

/// A `.method(` call site inside a token slice.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Index of the method-name token in the body slice.
    pub idx: usize,
    /// The identifier immediately before the dot (`tracker` in
    /// `self.tracker.advance(`), or empty for chained/parenthesized
    /// receivers.
    pub recv: String,
    /// The method name.
    pub method: String,
    /// 1-based source line of the method token.
    pub line: usize,
}

/// Extract every `recv.method(` call site from a token slice. Function
/// *definitions* (`fn method(`) never match: a call requires the `.`.
pub fn call_sites(toks: &[(Tok, usize)]) -> Vec<CallSite> {
    let mut out = Vec::new();
    for (i, win) in toks.windows(3).enumerate() {
        let [(Tok::Sym('.'), _), (Tok::Word(m), line), (Tok::Sym('('), _)] = win else {
            continue;
        };
        let recv = match i.checked_sub(1).and_then(|p| toks.get(p)) {
            Some((Tok::Word(r), _)) => r.clone(),
            _ => String::new(),
        };
        out.push(CallSite {
            idx: i + 1,
            recv,
            method: m.clone(),
            line: *line,
        });
    }
    out
}

/// Collect the body tokens of one function span: every token on lines
/// `start_line..=end_line`, tagged with its 1-based line.
pub fn span_tokens(file: &SourceFile, span: &FnSpan) -> Vec<(Tok, usize)> {
    let mut out = Vec::new();
    for (idx, li) in file.lines.iter().enumerate() {
        let line = idx + 1;
        if line < span.start_line || line > span.end_line {
            continue;
        }
        for t in crate::lexer::tokenize(&li.code) {
            out.push((t, line));
        }
    }
    out
}

/// A token stream tagged with 1-based source lines.
type SpannedToks = [(Tok, usize)];

struct Builder<'a> {
    toks: &'a SpannedToks,
    blocks: Vec<Block>,
}

impl<'a> Builder<'a> {
    fn new_block(&mut self) -> usize {
        self.blocks.push(Block::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if let Some(b) = self.blocks.get_mut(from) {
            b.succs.push(to);
        }
        if let Some(b) = self.blocks.get_mut(to) {
            b.preds.push(from);
        }
    }

    fn push(&mut self, block: usize, tok_idx: usize) {
        if let Some(b) = self.blocks.get_mut(block) {
            b.toks.push(tok_idx);
        }
    }

    fn word_at(&self, i: usize) -> Option<&str> {
        match self.toks.get(i) {
            Some((Tok::Word(w), _)) => Some(w.as_str()),
            _ => None,
        }
    }

    fn sym_at(&self, i: usize) -> Option<char> {
        match self.toks.get(i) {
            Some((Tok::Sym(c), _)) => Some(*c),
            _ => None,
        }
    }

    /// Push tokens from `i` until a `{` at paren/bracket depth 0; returns
    /// the index *of* the `{` (not pushed). Used for `if`/`match`/loop
    /// headers, where Rust forbids bare struct literals.
    fn header(&mut self, mut i: usize, cur: usize) -> usize {
        let mut depth = 0i64;
        while i < self.toks.len() {
            match self.sym_at(i) {
                Some('(') | Some('[') => depth += 1,
                Some(')') | Some(']') => depth -= 1,
                Some('{') if depth == 0 => return i,
                _ => {}
            }
            self.push(cur, i);
            i += 1;
        }
        i
    }

    /// Skip (without recording) tokens from `i` to just past the matching
    /// `}` of the first `{` found, or past a top-level `;` — for nested
    /// `fn` items, which execute under their own span.
    fn skip_item(&self, mut i: usize) -> usize {
        while i < self.toks.len() {
            match self.sym_at(i) {
                Some(';') => return i + 1,
                Some('{') => {
                    let mut depth = 0i64;
                    while i < self.toks.len() {
                        match self.sym_at(i) {
                            Some('{') => depth += 1,
                            Some('}') => {
                                depth -= 1;
                                if depth == 0 {
                                    return i + 1;
                                }
                            }
                            _ => {}
                        }
                        i += 1;
                    }
                    return i;
                }
                _ => i += 1,
            }
        }
        i
    }

    /// Parse an `if` construct with `toks[i] == "if"`. Returns
    /// `(exit_block, next_index)`.
    fn if_stmt(&mut self, i: usize, cur: usize) -> (usize, usize) {
        // Condition tokens (including the `if` itself) run in `cur`.
        let open = self.header(i, cur);
        let then_entry = self.new_block();
        self.edge(cur, then_entry);
        let (then_exit, mut j) = self.seq(open + 1, then_entry);
        let join = self.new_block();
        self.edge(then_exit, join);
        if self.word_at(j) == Some("else") {
            if self.word_at(j + 1) == Some("if") {
                let else_entry = self.new_block();
                self.edge(cur, else_entry);
                let (else_exit, j2) = self.if_stmt(j + 1, else_entry);
                self.edge(else_exit, join);
                j = j2;
            } else if self.sym_at(j + 1) == Some('{') {
                let else_entry = self.new_block();
                self.edge(cur, else_entry);
                let (else_exit, j2) = self.seq(j + 2, else_entry);
                self.edge(else_exit, join);
                j = j2;
            } else {
                // Malformed / unexpected: treat as no else.
                self.edge(cur, join);
            }
        } else {
            // No else: the condition may fall through.
            self.edge(cur, join);
        }
        (join, j)
    }

    /// Parse a `match` construct with `toks[i] == "match"`. Returns
    /// `(exit_block, next_index)`.
    fn match_stmt(&mut self, i: usize, cur: usize) -> (usize, usize) {
        let open = self.header(i, cur);
        let join = self.new_block();
        let mut j = open + 1;
        let mut arms = 0usize;
        loop {
            // Pattern: tokens until `=>` at depth 0 (patterns may contain
            // braces — `Foo { a, b } =>`), or the match's closing `}`.
            let arm_entry = self.new_block();
            let mut depth = 0i64;
            let mut found_arrow = false;
            while j < self.toks.len() {
                match self.sym_at(j) {
                    Some('(') | Some('[') | Some('{') => depth += 1,
                    Some(')') | Some(']') => depth -= 1,
                    Some('}') => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    Some('=') if depth == 0 && self.sym_at(j + 1) == Some('>') => {
                        found_arrow = true;
                    }
                    _ => {}
                }
                if found_arrow {
                    j += 2;
                    break;
                }
                self.push(arm_entry, j);
                j += 1;
            }
            if !found_arrow {
                // Closing `}` of the match (or EOF): no more arms. The
                // speculative arm block stays empty and unreachable unless
                // wired below.
                j += 1;
                break;
            }
            arms += 1;
            self.edge(cur, arm_entry);
            let arm_exit = if self.sym_at(j) == Some('{') {
                let (exit, j2) = self.seq(j + 1, arm_entry);
                j = j2;
                exit
            } else {
                // Braceless arm: leaf tokens until `,` at depth 0 or the
                // match's `}`.
                let mut depth = 0i64;
                while j < self.toks.len() {
                    match self.sym_at(j) {
                        Some('(') | Some('[') | Some('{') => depth += 1,
                        Some(')') | Some(']') => depth -= 1,
                        Some('}') => {
                            if depth == 0 {
                                break;
                            }
                            depth -= 1;
                        }
                        Some(',') if depth == 0 => break,
                        Some('?') => {
                            if let Some(b) = self.blocks.get_mut(arm_entry) {
                                b.early_exit = true;
                            }
                        }
                        _ => {}
                    }
                    self.push(arm_entry, j);
                    j += 1;
                }
                arm_entry
            };
            self.edge(arm_exit, join);
            if self.sym_at(j) == Some(',') {
                j += 1;
            }
        }
        if arms == 0 {
            // `match x {}` (never type): fall through.
            self.edge(cur, join);
        }
        (join, j)
    }

    /// Parse a loop (`loop` / `while` / `for`) with the keyword at `i`.
    fn loop_stmt(&mut self, i: usize, cur: usize) -> (usize, usize) {
        let open = self.header(i, cur);
        let body_entry = self.new_block();
        self.edge(cur, body_entry);
        let (body_exit, j) = self.seq(open + 1, body_entry);
        let join = self.new_block();
        self.edge(body_exit, join);
        // Zero-iteration skip edge; no back edge (sound for a gen-only
        // must-analysis — see the module docs).
        self.edge(cur, join);
        (join, j)
    }

    /// Parse a statement sequence starting at `i` inside block `cur`,
    /// until the matching `}` of the enclosing brace (consumed) or EOF.
    /// Returns `(exit_block, next_index)`.
    fn seq(&mut self, mut i: usize, mut cur: usize) -> (usize, usize) {
        while i < self.toks.len() {
            match self.toks.get(i) {
                Some((Tok::Word(w), _)) => match w.as_str() {
                    "if" => {
                        let (exit, j) = self.if_stmt(i, cur);
                        cur = exit;
                        i = j;
                    }
                    "match" => {
                        let (exit, j) = self.match_stmt(i, cur);
                        cur = exit;
                        i = j;
                    }
                    "loop" | "while" | "for" => {
                        let (exit, j) = self.loop_stmt(i, cur);
                        cur = exit;
                        i = j;
                    }
                    "move" if self.sym_at(i + 1) == Some('|') => {
                        // `move |args| { body }`: the body may run zero
                        // times here — a branch arm with a skip edge. Scan
                        // past the parameter list to the body.
                        self.push(cur, i);
                        let mut j = i + 2;
                        while j < self.toks.len()
                            && self.sym_at(j) != Some('|')
                            && self.sym_at(j) != Some('{')
                        {
                            j += 1;
                        }
                        if self.sym_at(i + 2) == Some('|') {
                            // `move ||`: empty parameter list.
                            j = i + 2;
                        }
                        if self.sym_at(j) == Some('|') {
                            j += 1;
                        }
                        if self.sym_at(j) == Some('{') {
                            let body_entry = self.new_block();
                            self.edge(cur, body_entry);
                            let (body_exit, j2) = self.seq(j + 1, body_entry);
                            let join = self.new_block();
                            self.edge(body_exit, join);
                            self.edge(cur, join);
                            cur = join;
                            i = j2;
                        } else {
                            // Expression-bodied closure: leave inline.
                            i += 1;
                        }
                    }
                    "fn" => {
                        // Nested item: analyzed under its own span.
                        i = self.skip_item(i + 1);
                    }
                    "return" | "break" | "continue" => {
                        if let Some(b) = self.blocks.get_mut(cur) {
                            b.early_exit = true;
                        }
                        self.push(cur, i);
                        i += 1;
                    }
                    _ => {
                        self.push(cur, i);
                        i += 1;
                    }
                },
                Some((Tok::Sym('{'), _)) => {
                    // Plain block / unsafe block / struct literal: splice
                    // its contents inline into the current block chain.
                    let (exit, j) = self.seq(i + 1, cur);
                    cur = exit;
                    i = j;
                }
                Some((Tok::Sym('}'), _)) => {
                    return (cur, i + 1);
                }
                Some((Tok::Sym('?'), _)) => {
                    if let Some(b) = self.blocks.get_mut(cur) {
                        b.early_exit = true;
                    }
                    self.push(cur, i);
                    i += 1;
                }
                Some(_) => {
                    self.push(cur, i);
                    i += 1;
                }
                None => break,
            }
        }
        (cur, i)
    }
}

impl Cfg {
    /// Build the CFG of one function from its span tokens (signature
    /// included — the leading `fn name(args)` tokens land in the entry
    /// block, where they are inert: a call site requires a preceding `.`).
    /// A body-less span (trait method declaration) yields a single empty
    /// block.
    pub fn build_fn(toks: &[(Tok, usize)]) -> Cfg {
        let mut b = Builder {
            toks,
            blocks: Vec::new(),
        };
        let entry = b.new_block();
        // Find the body `{` of the leading `fn` (skip the signature), then
        // walk the statements inside it.
        let mut i = 0usize;
        let mut depth = 0i64;
        let mut open = None;
        while i < toks.len() {
            match b.sym_at(i) {
                Some('(') | Some('[') => depth += 1,
                Some(')') | Some(']') => depth -= 1,
                Some('{') if depth == 0 => {
                    open = Some(i);
                    break;
                }
                Some(';') if depth == 0 => break,
                _ => {}
            }
            i += 1;
        }
        if let Some(open) = open {
            b.seq(open + 1, entry);
        }
        Cfg { blocks: b.blocks }
    }

    /// Forward must-availability: for each block, the set of facts
    /// generated on **every** path from entry to the block's start.
    /// `gen_at` maps a token index (into the body slice) to the fact that
    /// token generates; a block's OUT is its IN plus everything it
    /// generates. Unreachable blocks get the full fact universe
    /// (vacuously true).
    pub fn must_avail_in<'f>(&self, gen_at: &BTreeMap<usize, &'f str>) -> Vec<BTreeSet<&'f str>> {
        let universe: BTreeSet<&'f str> = gen_at.values().copied().collect();
        let outs: Vec<BTreeSet<&'f str>> = self
            .blocks
            .iter()
            .map(|b| {
                b.toks
                    .iter()
                    .filter_map(|t| gen_at.get(t).copied())
                    .collect()
            })
            .collect();
        let mut ins: Vec<BTreeSet<&'f str>> = vec![universe.clone(); self.blocks.len()];
        if let Some(first) = ins.first_mut() {
            first.clear();
        }
        // Blocks are in topological order; iterate to a fixpoint anyway.
        let mut changed = true;
        while changed {
            changed = false;
            for (bi, block) in self.blocks.iter().enumerate() {
                if bi == 0 {
                    continue;
                }
                let mut acc: Option<BTreeSet<&'f str>> = None;
                for &p in &block.preds {
                    let mut pout = ins.get(p).cloned().unwrap_or_default();
                    pout.extend(outs.get(p).iter().flat_map(|s| s.iter().copied()));
                    acc = Some(match acc {
                        None => pout,
                        Some(a) => a.intersection(&pout).copied().collect(),
                    });
                }
                let next = acc.unwrap_or_else(|| universe.clone());
                if ins.get(bi) != Some(&next) {
                    if let Some(slot) = ins.get_mut(bi) {
                        *slot = next;
                        changed = true;
                    }
                }
            }
        }
        ins
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::SourceFile;

    fn cfg_of(src: &str) -> (Cfg, Vec<(Tok, usize)>) {
        let f = SourceFile::parse("x.rs", src);
        let spans = f.functions();
        let span = spans.first().expect("one fn");
        let toks = span_tokens(&f, span);
        (Cfg::build_fn(&toks), toks)
    }

    /// The block containing token index `idx`, if any.
    fn block_of(cfg: &Cfg, idx: usize) -> Option<usize> {
        cfg.blocks.iter().position(|b| b.toks.contains(&idx))
    }

    fn gen_map<'a>(toks: &[(Tok, usize)], word: &str, fact: &'a str) -> BTreeMap<usize, &'a str> {
        toks.iter()
            .enumerate()
            .filter_map(|(i, (t, _))| match t {
                Tok::Word(w) if w == word => Some((i, fact)),
                _ => None,
            })
            .collect()
    }

    fn avail_at(
        cfg: &Cfg,
        toks: &[(Tok, usize)],
        gens: &BTreeMap<usize, &str>,
        word: &str,
    ) -> bool {
        let idx = toks
            .iter()
            .position(|(t, _)| matches!(t, Tok::Word(w) if w == word))
            .expect("query token present");
        let b = block_of(cfg, idx).expect("query token in a block");
        let ins = cfg.must_avail_in(gens);
        let mut running = ins.get(b).cloned().unwrap_or_default();
        for &t in cfg.blocks.get(b).map(|bb| &bb.toks).into_iter().flatten() {
            if t == idx {
                break;
            }
            if let Some(f) = gens.get(&t) {
                running.insert(f);
            }
        }
        let fact = gens.values().next().copied().expect("one fact in map");
        running.contains(fact)
    }

    #[test]
    fn straight_line_availability() {
        let (cfg, toks) = cfg_of("fn f() { force(); install(); }\n");
        let gens = gen_map(&toks, "force", "F");
        assert!(avail_at(&cfg, &toks, &gens, "install"));
    }

    #[test]
    fn use_before_gen_is_not_available() {
        let (cfg, toks) = cfg_of("fn f() { install(); force(); }\n");
        let gens = gen_map(&toks, "force", "F");
        assert!(!avail_at(&cfg, &toks, &gens, "install"));
    }

    #[test]
    fn if_without_else_does_not_dominate() {
        let (cfg, toks) = cfg_of("fn f(c: bool) { if c { force(); } install(); }\n");
        let gens = gen_map(&toks, "force", "F");
        assert!(!avail_at(&cfg, &toks, &gens, "install"));
    }

    #[test]
    fn gen_in_both_arms_is_available_after_join() {
        let (cfg, toks) =
            cfg_of("fn f(c: bool) { if c { force(); } else { force(); } install(); }\n");
        let gens = gen_map(&toks, "force", "F");
        assert!(avail_at(&cfg, &toks, &gens, "install"));
    }

    #[test]
    fn else_if_chain_with_full_coverage() {
        let (cfg, toks) = cfg_of(
            "fn f(n: u32) { if n == 0 { force(); } else if n == 1 { force(); } else { force(); } install(); }\n",
        );
        let gens = gen_map(&toks, "force", "F");
        assert!(avail_at(&cfg, &toks, &gens, "install"));
    }

    #[test]
    fn else_if_chain_with_a_hole() {
        let (cfg, toks) = cfg_of(
            "fn f(n: u32) { if n == 0 { force(); } else if n == 1 { } else { force(); } install(); }\n",
        );
        let gens = gen_map(&toks, "force", "F");
        assert!(!avail_at(&cfg, &toks, &gens, "install"));
    }

    #[test]
    fn loop_body_may_be_skipped() {
        let (cfg, toks) = cfg_of("fn f(xs: &[u32]) { for _x in xs { force(); } install(); }\n");
        let gens = gen_map(&toks, "force", "F");
        assert!(!avail_at(&cfg, &toks, &gens, "install"));
    }

    #[test]
    fn gen_before_loop_survives_it() {
        let (cfg, toks) = cfg_of("fn f(xs: &[u32]) { force(); for _x in xs { install(); } }\n");
        let gens = gen_map(&toks, "force", "F");
        assert!(avail_at(&cfg, &toks, &gens, "install"));
    }

    #[test]
    fn match_arms_each_need_their_own_gen() {
        let (cfg, toks) =
            cfg_of("fn f(v: V) { match v { V::A { x } => { force(); } V::B => {} } install(); }\n");
        let gens = gen_map(&toks, "force", "F");
        assert!(!avail_at(&cfg, &toks, &gens, "install"));
        let (cfg, toks) = cfg_of(
            "fn f(v: V) { match v { V::A { x } => { force(); } V::B => { force(); } } install(); }\n",
        );
        let gens = gen_map(&toks, "force", "F");
        assert!(avail_at(&cfg, &toks, &gens, "install"));
    }

    #[test]
    fn question_mark_is_transparent_for_must_facts() {
        let (cfg, toks) = cfg_of("fn f() -> R { force()?; install(); Ok(()) }\n");
        let gens = gen_map(&toks, "force", "F");
        assert!(avail_at(&cfg, &toks, &gens, "install"));
        let entry = cfg.blocks.first().expect("entry");
        assert!(entry.early_exit, "`?` marks the block as early-exit");
    }

    #[test]
    fn move_closure_body_may_not_run_here() {
        let (cfg, toks) = cfg_of("fn f() { spawn(move || { force(); }); install(); }\n");
        let gens = gen_map(&toks, "force", "F");
        assert!(!avail_at(&cfg, &toks, &gens, "install"));
    }

    #[test]
    fn labeled_loops_and_breaks_parse() {
        let (cfg, toks) = cfg_of(
            "fn f(xs: &[u32]) { force(); 'outer: while go() { for _x in xs { break 'outer; } } install(); }\n",
        );
        let gens = gen_map(&toks, "force", "F");
        assert!(avail_at(&cfg, &toks, &gens, "install"));
    }

    #[test]
    fn nested_generics_shift_does_not_derail() {
        let (cfg, toks) = cfg_of(
            "fn f(m: BTreeMap<u32, Vec<Vec<u8>>>) { let x = 1u32 >> 2; force(); install(); let _ = m; let _ = x; }\n",
        );
        let gens = gen_map(&toks, "force", "F");
        assert!(avail_at(&cfg, &toks, &gens, "install"));
    }

    #[test]
    fn nested_fn_items_are_skipped() {
        let (cfg, toks) = cfg_of("fn f() { fn helper() { force(); } install(); }\n");
        let gens = gen_map(&toks, "force", "F");
        assert!(!avail_at(&cfg, &toks, &gens, "install"));
        // The helper's tokens appear in no block of the outer cfg.
        let force_idx = toks
            .iter()
            .position(|(t, _)| matches!(t, Tok::Word(w) if w == "force"))
            .expect("force token");
        assert!(block_of(&cfg, force_idx).is_none());
    }

    #[test]
    fn call_sites_require_the_dot() {
        let f = SourceFile::parse(
            "x.rs",
            "fn write_page() { self.store.write_page(id, p); free(); }\n",
        );
        let toks = f.all_tokens();
        let sites = call_sites(&toks);
        assert_eq!(sites.len(), 1);
        let s = sites.first().expect("one site");
        assert_eq!(s.method, "write_page");
        assert_eq!(s.recv, "store");
    }
}
