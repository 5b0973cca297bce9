//! Pass 1: lock-order.
//!
//! Across every workspace source file, discover every `Mutex`/`RwLock`
//! field, extract the acquisition sequence of each function (lexically —
//! every `.field.lock()/.read()/.write()` on a known field plus a small
//! alias table for guards obtained through helper methods), and build the
//! cross-crate lock-order graph: an edge `A → B` means some function
//! acquires `A` and later acquires `B`. A cycle is a potential deadlock —
//! the pass fails with a witness path.
//!
//! This is a *lexical over-approximation*: it assumes a lock acquired
//! earlier in a function may still be held at every later acquisition, and
//! it cannot see through calls (a helper that acquires internally is
//! invisible unless aliased). One level of method chaining *is* resolved:
//! `self.coordinator().state.lock()` attributes the acquisition to the
//! `state` field of whatever struct the zero-argument `coordinator()`
//! accessor returns (via [`crate::structs::accessor_returns`]), even when
//! that struct lives in another file — previously a blind spot, since the
//! per-file field table never saw the foreign field. False positives are
//! silenced per-acquisition with `// lint:allow(lock-order) <reason>`;
//! self-edges are ignored because lexical branches (`if`/`else` both
//! locking the same field) would flood them with noise.
//!
//! Rationale: the backup sweep (paper §5.3) takes tracker latches while
//! the mainline takes them in domain order; a cycle between coordinator,
//! tracker, store, and engine locks would deadlock the engine exactly
//! during the high-speed sweep the paper is about.

use crate::lexer::{SourceFile, Tok};
use crate::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};

/// A guard-producing helper call mapped to the lock it acquires.
pub struct Alias {
    /// Only apply in files whose path contains this substring (empty = all
    /// scoped files).
    pub file_contains: &'static str,
    /// Receiver identifier (`""` = any receiver) of the call, or
    /// [`FREE_CALL`] for a free function called by name.
    pub recv: &'static str,
    /// Method name of the call.
    pub method: &'static str,
    /// The lock id acquired.
    pub lock: &'static str,
}

/// [`Alias::recv`] of an alias that matches a free call `method(` (not a
/// method call, not the function's own definition).
pub const FREE_CALL: &str = "(free call)";

/// Scope + aliases for the pass.
pub struct Config {
    /// Path suffixes of the files to scan. Empty means *every* file —
    /// lock fields are discovered, not hand-listed, so a new `Mutex` in
    /// any crate joins the graph the moment it is written.
    pub scope: Vec<String>,
    /// Helper-call aliases.
    pub aliases: Vec<Alias>,
}

impl Config {
    /// Scan the whole workspace (empty scope) with the known guard
    /// helpers aliased.
    pub fn workspace() -> Config {
        Config {
            scope: vec![],
            aliases: vec![
                // Tracker latches are handed out through helpers.
                Alias {
                    file_contains: "",
                    recv: "",
                    method: "latch",
                    lock: "backup/tracker.state",
                },
                Alias {
                    file_contains: "",
                    recv: "",
                    method: "latch_for",
                    lock: "backup/tracker.state",
                },
                // `let part = self.part(..)?; part.read()/write()` in the
                // store — the local aliases the `partitions` RwLock.
                Alias {
                    file_contains: "pagestore/src/store.rs",
                    recv: "part",
                    method: "read",
                    lock: "pagestore/store.partitions",
                },
                Alias {
                    file_contains: "pagestore/src/store.rs",
                    recv: "part",
                    method: "write",
                    lock: "pagestore/store.partitions",
                },
                // Linked-backup page images locked through locals.
                Alias {
                    file_contains: "core/src/engine.rs",
                    recv: "img",
                    method: "lock",
                    lock: "core/engine.image",
                },
                // Hook consults take the hook lock inside the helper; the
                // alias surfaces that acquisition at every call site.
                Alias {
                    file_contains: "pagestore/src/store.rs",
                    recv: "self",
                    method: "consult",
                    lock: "pagestore/store.hook",
                },
                Alias {
                    file_contains: "",
                    recv: "",
                    method: "consult_fault",
                    lock: "backup/coordinator.hook",
                },
                // The batched sweep's per-step probe locks the hook mutex
                // inside the helper to decide checked-vs-batched copying.
                Alias {
                    file_contains: "",
                    recv: "",
                    method: "has_fault_hook",
                    lock: "backup/coordinator.hook",
                },
                // Tracker cursor movement acquires the state latch in
                // exclusive mode inside the helper; surface it at the
                // call sites the workspace-wide scope now reaches
                // (`BackupRun` begin/advance/finish, coordinator reset).
                Alias {
                    file_contains: "",
                    recv: "tracker",
                    method: "begin",
                    lock: "backup/tracker.state",
                },
                Alias {
                    file_contains: "",
                    recv: "tracker",
                    method: "advance",
                    lock: "backup/tracker.state",
                },
                Alias {
                    file_contains: "",
                    recv: "tracker",
                    method: "finish",
                    lock: "backup/tracker.state",
                },
                // Batched store round-trips (backup sweeps, the parallel
                // restore's group install) take the partition RwLock
                // inside the helper; the aliases surface that acquisition
                // at every call site.
                Alias {
                    file_contains: "",
                    recv: "",
                    method: "read_run",
                    lock: "pagestore/store.partitions",
                },
                Alias {
                    file_contains: "",
                    recv: "",
                    method: "write_run",
                    lock: "pagestore/store.partitions",
                },
                // The parallel replay scheduler's per-page store calls:
                // surface the scheduler -> store edge so any future
                // scheduler-side lock held across a store round-trip joins
                // the cycle check immediately.
                Alias {
                    file_contains: "recovery/src/parallel.rs",
                    recv: "",
                    method: "read_page",
                    lock: "pagestore/store.partitions",
                },
                Alias {
                    file_contains: "recovery/src/parallel.rs",
                    recv: "",
                    method: "write_page",
                    lock: "pagestore/store.partitions",
                },
                // The per-domain changed-page sets share one lock, taken
                // inside every coordinator helper that touches them.
                Alias {
                    file_contains: "",
                    recv: "",
                    method: "note_flushed",
                    lock: "backup/coordinator.changed",
                },
                Alias {
                    file_contains: "",
                    recv: "",
                    method: "take_changed",
                    lock: "backup/coordinator.changed",
                },
                Alias {
                    file_contains: "",
                    recv: "",
                    method: "restore_changed",
                    lock: "backup/coordinator.changed",
                },
                Alias {
                    file_contains: "",
                    recv: "",
                    method: "changed_count",
                    lock: "backup/coordinator.changed",
                },
                // The group-commit log's guard helpers, the gather (which
                // polls the committer registry) and the public methods
                // that acquire the wrapped manager internally — surfaced
                // so any caller-side lock held across them joins the
                // graph.
                Alias {
                    file_contains: "wal/src/group.rs",
                    recv: "self",
                    method: "manager_guard",
                    lock: "wal/group.manager",
                },
                Alias {
                    file_contains: "wal/src/group.rs",
                    recv: "self",
                    method: "state_guard",
                    lock: "wal/group.state",
                },
                Alias {
                    file_contains: "wal/src/group.rs",
                    recv: "self",
                    method: "committers_guard",
                    lock: "wal/group.committers",
                },
                Alias {
                    file_contains: "wal/src/group.rs",
                    recv: "self",
                    method: "gather",
                    lock: "wal/group.committers",
                },
                Alias {
                    file_contains: "wal/src/group.rs",
                    recv: "self",
                    method: "lead_force",
                    lock: "wal/group.manager",
                },
                Alias {
                    file_contains: "",
                    recv: "",
                    method: "group_force",
                    lock: "wal/group.state",
                },
                // A log scan holds the group-commit log's manager lock
                // while its closure runs, and recovery replays into the
                // store inside it: surface both so the log -> store
                // nesting joins the cycle check.
                Alias {
                    file_contains: "core/src/service.rs",
                    recv: "log",
                    method: "scan",
                    lock: "wal/group.manager",
                },
                Alias {
                    file_contains: "core/src/service.rs",
                    recv: FREE_CALL,
                    method: "parallel_redo_scan",
                    lock: "pagestore/store.partitions",
                },
                // The sharded cache hands out per-shard guards through a
                // helper.
                Alias {
                    file_contains: "",
                    recv: "",
                    method: "lock_shard",
                    lock: "cache/shard.shards",
                },
                // The engine service's guard helpers (domain write paths
                // and backup bookkeeping).
                Alias {
                    file_contains: "core/src/service.rs",
                    recv: "self",
                    method: "lock_domain",
                    lock: "core/service.domains",
                },
                Alias {
                    file_contains: "core/src/service.rs",
                    recv: "self",
                    method: "lock_meta",
                    lock: "core/service.meta",
                },
            ],
        }
    }
}

/// One observed acquisition.
#[derive(Debug, Clone)]
struct Acq {
    lock: String,
    line: usize,
}

/// An edge in the lock-order graph with one witness site.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Acquired first.
    pub from: String,
    /// Acquired while `from` may be held.
    pub to: String,
    /// Witness: file, function, line of the second acquisition.
    pub witness: (String, String, usize),
}

/// Workspace-wide facts for resolving one level of accessor chaining:
/// which zero-argument accessors return a lock-owning struct, and where
/// each such struct's lock fields are declared.
struct ChainResolver {
    /// Accessor method name → name of the struct it returns. Methods whose
    /// return type resolves to different structs in different files are
    /// dropped as ambiguous rather than guessed.
    accessors: BTreeMap<String, String>,
    /// `(struct name, lock field name)` → lock id at the declaring file.
    lock_field: BTreeMap<(String, String), String>,
}

/// Build the chain resolver over *all* files (scope only filters whose
/// functions are scanned; struct shapes are facts wherever they live).
fn chain_resolver(files: &[SourceFile]) -> ChainResolver {
    let mut lock_field: BTreeMap<(String, String), String> = BTreeMap::new();
    let mut names: BTreeSet<String> = BTreeSet::new();
    for f in files {
        let stem = file_lock_prefix(&f.path);
        for s in crate::structs::parse_structs(f) {
            for fd in &s.fields {
                if fd.kind == crate::structs::FieldKind::Lock {
                    lock_field
                        .entry((s.name.clone(), fd.name.clone()))
                        .or_insert_with(|| format!("{stem}.{}", fd.name));
                    names.insert(s.name.clone());
                }
            }
        }
    }
    let cand: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let mut accessors: BTreeMap<String, String> = BTreeMap::new();
    let mut ambiguous: BTreeSet<String> = BTreeSet::new();
    for f in files {
        for (m, target) in crate::structs::accessor_returns(f, &cand) {
            match accessors.get(&m) {
                Some(t) if *t != target => {
                    ambiguous.insert(m);
                }
                _ => {
                    accessors.insert(m, target);
                }
            }
        }
    }
    for m in ambiguous {
        accessors.remove(&m);
    }
    ChainResolver {
        accessors,
        lock_field,
    }
}

/// Extract the lock-order graph (exposed for tests and reporting).
pub fn build_graph(files: &[SourceFile], cfg: &Config) -> Vec<Edge> {
    let resolver = chain_resolver(files);
    let mut edges: BTreeMap<(String, String), (String, String, usize)> = BTreeMap::new();
    for f in files {
        if !cfg.scope.is_empty() && !cfg.scope.iter().any(|s| f.path.ends_with(s.as_str())) {
            continue;
        }
        let fields = lock_fields(f);
        for span in f.functions() {
            if f.in_test(span.start_line) {
                continue;
            }
            let seq = acquisitions(f, span.start_line, span.end_line, &fields, cfg, &resolver);
            for (i, a) in seq.iter().enumerate() {
                for b in seq.iter().skip(i + 1) {
                    if a.lock == b.lock {
                        continue;
                    }
                    edges.entry((a.lock.clone(), b.lock.clone())).or_insert((
                        f.path.clone(),
                        span.name.clone(),
                        b.line,
                    ));
                }
            }
        }
    }
    edges
        .into_iter()
        .map(|((from, to), witness)| Edge { from, to, witness })
        .collect()
}

/// Run the pass: diagnostics for every cycle in the graph.
pub fn check(files: &[SourceFile], cfg: &Config) -> Vec<Diagnostic> {
    let edges = build_graph(files, cfg);
    let mut adj: BTreeMap<&str, Vec<&Edge>> = BTreeMap::new();
    for e in &edges {
        adj.entry(e.from.as_str()).or_default().push(e);
    }
    // Iterative DFS with colors; report the first cycle found from each
    // start node.
    let mut out = Vec::new();
    let mut done: BTreeSet<&str> = BTreeSet::new();
    let nodes: BTreeSet<&str> = edges
        .iter()
        .flat_map(|e| [e.from.as_str(), e.to.as_str()])
        .collect();
    for &start in &nodes {
        if done.contains(start) {
            continue;
        }
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut path: Vec<&str> = vec![start];
        let mut on_path: BTreeSet<&str> = [start].into_iter().collect();
        while let Some((node, next_idx)) = stack.last_mut() {
            let succs = adj.get(*node).map(|v| v.as_slice()).unwrap_or(&[]);
            if let Some(&e) = succs.get(*next_idx) {
                *next_idx += 1;
                let to = e.to.as_str();
                if on_path.contains(to) {
                    // Cycle: slice the path from `to` onward.
                    let pos = path.iter().position(|&n| n == to).unwrap_or(0);
                    let cycle: Vec<&str> = path
                        .get(pos..)
                        .unwrap_or_default()
                        .iter()
                        .copied()
                        .chain([to])
                        .collect();
                    let (wf, wfn, wl) = &e.witness;
                    out.push(Diagnostic::new(
                        "lock-order",
                        wf,
                        *wl,
                        format!(
                            "lock-order cycle: {} (second acquisition in fn `{wfn}`) — potential deadlock",
                            cycle.join(" -> ")
                        ),
                    ));
                } else if !done.contains(to) {
                    stack.push((to, 0));
                    path.push(to);
                    on_path.insert(to);
                }
            } else {
                done.insert(node);
                on_path.remove(*node);
                path.pop();
                stack.pop();
            }
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out.dedup();
    out
}

/// Discover `Mutex`/`RwLock` struct fields in a file; returns
/// `field name -> lock id`.
fn lock_fields(f: &SourceFile) -> BTreeMap<String, String> {
    let stem = file_lock_prefix(&f.path);
    let mut out = BTreeMap::new();
    for li in &f.lines {
        if li.in_test {
            continue;
        }
        let code = &li.code;
        if !(code.contains("Mutex<") || code.contains("RwLock<")) {
            continue;
        }
        // Field declaration shape: `name: …Mutex<…` — take the word right
        // before the first `:`.
        let toks = crate::lexer::tokenize(code);
        for (i, pair) in toks.windows(2).enumerate() {
            if let [Tok::Word(name), Tok::Sym(':')] = pair {
                // Make sure a Mutex/RwLock token appears after the colon
                // and before any further colon-name pair (single-line
                // declarations only, which is all this workspace has).
                let rest_has_lock = toks
                    .get(i + 2..)
                    .unwrap_or_default()
                    .iter()
                    .any(|t| matches!(t, Tok::Word(w) if w == "Mutex" || w == "RwLock"));
                if rest_has_lock {
                    out.insert(name.clone(), format!("{stem}.{name}"));
                    break;
                }
            }
        }
    }
    out
}

/// `crates/backup/src/coordinator.rs` → `backup/coordinator`.
fn file_lock_prefix(path: &str) -> String {
    let parts: Vec<&str> = path.split('/').collect();
    let krate = parts
        .iter()
        .position(|&p| p == "crates")
        .and_then(|i| parts.get(i + 1))
        .copied()
        .unwrap_or("?");
    let stem = parts
        .last()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or("?");
    format!("{krate}/{stem}")
}

/// Acquisition sequence of one function span, in source order.
fn acquisitions(
    f: &SourceFile,
    start: usize,
    end: usize,
    fields: &BTreeMap<String, String>,
    cfg: &Config,
    resolver: &ChainResolver,
) -> Vec<Acq> {
    let mut out = Vec::new();
    for line in start..=end {
        if f.allowed("lock-order", line) {
            continue;
        }
        let toks = crate::lexer::tokenize(f.code(line));
        // `.FIELD.lock(` / `.FIELD.read(` / `.FIELD.write(`
        for i in 0..toks.len() {
            let rest = toks.get(i..).unwrap_or_default();
            // One-level accessor chain: `.ACCESSOR().FIELD.lock(` where the
            // accessor's return struct owns `FIELD` — the field may be
            // declared in another file, invisible to the per-file table.
            if let [Tok::Sym('.'), Tok::Word(acc), Tok::Sym('('), Tok::Sym(')'), Tok::Sym('.'), Tok::Word(field), Tok::Sym('.'), Tok::Word(m), Tok::Sym('('), ..] =
                rest
            {
                if (m == "lock" || m == "read" || m == "write") && !fields.contains_key(field) {
                    if let Some(lock) = resolver
                        .accessors
                        .get(acc)
                        .and_then(|s| resolver.lock_field.get(&(s.clone(), field.clone())))
                    {
                        out.push(Acq {
                            lock: lock.clone(),
                            line,
                        });
                        continue;
                    }
                }
            }
            if let [Tok::Sym('.'), Tok::Word(field), Tok::Sym('.'), Tok::Word(m), Tok::Sym('('), ..] =
                rest
            {
                if m == "lock" || m == "read" || m == "write" {
                    if let Some(lock) = fields.get(field) {
                        out.push(Acq {
                            lock: lock.clone(),
                            line,
                        });
                        continue;
                    }
                }
            }
            // Free calls `method(`: not after a `.` and not a definition.
            if let [Tok::Word(m), Tok::Sym('('), ..] = rest {
                let prev = i.checked_sub(1).and_then(|j| toks.get(j));
                let call = match prev {
                    Some(Tok::Sym('.')) => false,
                    Some(Tok::Word(w)) => w != "fn",
                    _ => true,
                };
                if let Some(a) = cfg.aliases.iter().find(|a| {
                    call && a.recv == FREE_CALL
                        && a.method == m
                        && (a.file_contains.is_empty() || f.path.contains(a.file_contains))
                }) {
                    out.push(Acq {
                        lock: a.lock.to_string(),
                        line,
                    });
                }
            }
            // Alias calls: `recv.method(` or `.method(` for any receiver.
            if let [Tok::Word(recv), Tok::Sym('.'), Tok::Word(m), Tok::Sym('('), ..] = rest {
                for a in &cfg.aliases {
                    if !a.file_contains.is_empty() && !f.path.contains(a.file_contains) {
                        continue;
                    }
                    if a.method == m && a.recv != FREE_CALL && (a.recv.is_empty() || a.recv == recv)
                    {
                        out.push(Acq {
                            lock: a.lock.to_string(),
                            line,
                        });
                        break;
                    }
                }
            }
        }
    }
    out
}
