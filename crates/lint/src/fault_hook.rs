//! Pass 1: fault-hook coverage.
//!
//! The torture harness (PR 1) can only prove crash-consistency for I/O the
//! `FaultHook` can see. A write-side transfer that bypasses the hook is a
//! blind spot: the crash-point sweep will never schedule a fault there, so
//! its recovery story is untested — exactly how the log-truncation gap
//! fixed in this PR survived PR 1.
//!
//! Enforcement is a two-way diff between a *declared-site registry*
//! ([`REGISTRY`]) and what the scanner discovers in `pagestore`, `cache`,
//! `wal`, and `backup` sources:
//!
//! 1. every function that mentions an `IoEvent::` variant must be a
//!    registered **direct** site (declared events must all appear, plus a
//!    `consult`/`hook` call);
//! 2. every registered site must still exist and match its declaration —
//!    the registry cannot go stale;
//! 3. every *raw write primitive* (file writes, raw `LogStore`
//!    append/truncate calls, page-slot stores) must sit inside a registered
//!    function — **direct** (consults the hook itself) or **delegated**
//!    (every caller reaches it through a consulting site, with the
//!    delegation recorded in the registry note).
//!
//! `pagestore/src/fault.rs` is exempt: it *defines* `IoEvent`, so variant
//! tokens there are declarations, not consult sites.

use crate::lexer::{norm, SourceFile, Tok};
use crate::Diagnostic;

/// How a registered site covers its I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coverage {
    /// The function consults the hook itself.
    Direct,
    /// Every caller reaches this function through a consulting site.
    Delegated,
}

/// One declared write-side I/O site.
pub struct Site {
    /// Path suffix of the file.
    pub file: &'static str,
    /// Function name.
    pub func: &'static str,
    /// `IoEvent` variants the site consults (empty for delegated sites).
    pub events: &'static [&'static str],
    /// Direct or delegated.
    pub coverage: Coverage,
    /// Why this site is shaped the way it is.
    pub note: &'static str,
}

/// The declared-site registry: every write-side I/O path in the engine.
///
/// Adding a new write path means adding a row here *and* a consult in the
/// code; the pass fails if either half is missing.
pub const REGISTRY: &[Site] = &[
    Site {
        file: "pagestore/src/store.rs",
        func: "write_page",
        events: &["PageWrite"],
        coverage: Coverage::Direct,
        note: "every page reaching the stable store: flushes, restores, direct writes",
    },
    Site {
        file: "cache/src/lib.rs",
        func: "flush_validated",
        events: &["PageFlush"],
        coverage: Coverage::Direct,
        note: "per-page flush decision, consulted after the WAL check and before the store write; write_out and ShardedCache::write_out delegate here",
    },
    Site {
        file: "wal/src/manager.rs",
        func: "force",
        events: &["LogForce", "LogAppend"],
        coverage: Coverage::Direct,
        note: "once per force with frames to persist, then once per frame",
    },
    Site {
        file: "wal/src/manager.rs",
        func: "truncate",
        events: &["LogTruncate"],
        coverage: Coverage::Direct,
        note: "consulted before the truncation point advances (gap found by this pass)",
    },
    Site {
        file: "backup/src/run.rs",
        func: "copy_pages_checked",
        events: &["BackupCopy"],
        coverage: Coverage::Direct,
        note: "per page the fuzzy sweep copies into the backup image; every hooked or filtered step_batch routes here so batching never changes the fault surface",
    },
    Site {
        file: "pagestore/src/store.rs",
        func: "read_with",
        events: &["PageRead"],
        coverage: Coverage::Direct,
        note: "every page fetched from the stable store (read_page: cache misses, sweep copies, repair probes) and every redo first touch that reads only the pageLSN (probe_lsn)",
    },
    Site {
        file: "wal/src/manager.rs",
        func: "scan",
        events: &["LogRead"],
        coverage: Coverage::Direct,
        note: "once per scan of the durable suffix (recovery, media redo, restart, online repair, archive indexing); scan_from decodes over it",
    },
    Site {
        file: "backup/src/catalog.rs",
        func: "fetch_page",
        events: &["ImageRead"],
        coverage: Coverage::Direct,
        note: "per page fetched from a registered backup generation during online repair",
    },
    Site {
        file: "backup/src/catalog.rs",
        func: "fetch_image",
        events: &["ImageRead"],
        coverage: Coverage::Direct,
        note: "whole-image fetch for catalog-sourced parallel restore: one consult per image, then every copy checksum-verified",
    },
    Site {
        file: "backup/src/catalog.rs",
        func: "fetch_records",
        events: &["ArchiveRead"],
        coverage: Coverage::Direct,
        note: "per-page sorted run fetched from a generation's media-log archive (instant restore closure fixpoint, archive-indexed repair)",
    },
    Site {
        file: "backup/src/catalog.rs",
        func: "fetch_control_records",
        events: &["ArchiveRead"],
        coverage: Coverage::Direct,
        note: "control-record run fetched from a generation's media-log archive, once per closure replay",
    },
    Site {
        file: "backup/src/catalog.rs",
        func: "fetch_partition_records",
        events: &["ArchiveRead"],
        coverage: Coverage::Direct,
        note: "segment-granular batch of one partition's sorted runs, once per segment restore; each run still checksum-verified individually",
    },
    Site {
        file: "recovery/src/instant.rs",
        func: "install_segment",
        events: &["SegmentInstall"],
        coverage: Coverage::Direct,
        note: "batched install of one restored segment into the still-failed partition; crash verdicts leave the segment Failed for reboot re-entry",
    },
    Site {
        file: "wal/src/store.rs",
        func: "append",
        events: &[],
        coverage: Coverage::Delegated,
        note: "one frame with its header from the stack; only reachable via LogManager::force, which consults per frame",
    },
    Site {
        file: "wal/src/store.rs",
        func: "append_batch",
        events: &[],
        coverage: Coverage::Delegated,
        note: "raw frame-batch write (group force); only reachable via LogManager::force, which consults once per frame before handing the gated batch down",
    },
    Site {
        file: "wal/src/store.rs",
        func: "write_tail",
        events: &[],
        coverage: Coverage::Delegated,
        note: "the one raw frame write, at the trusted end, cut back off on failure; only reachable via append and append_batch, i.e. via LogManager::force",
    },
    Site {
        file: "wal/src/store.rs",
        func: "truncate",
        events: &[],
        coverage: Coverage::Delegated,
        note: "moves the truncation point and trims the file store's scan index to the last entry at or below it; only reachable via LogManager::truncate, which consults",
    },
    Site {
        file: "wal/src/store.rs",
        func: "frames_from",
        events: &[],
        coverage: Coverage::Delegated,
        note: "raw frame read (borrowed in memory, from the scan index's first offset to the trusted end on file); only reachable via LogManager::scan, which consults once per scan (scan_from included)",
    },
    Site {
        file: "wal/src/store.rs",
        func: "open",
        events: &[],
        coverage: Coverage::Delegated,
        note: "bootstrap of an existing log file: verifies and indexes every frame and cuts a torn or corrupt tail off (a write before any engine or hook exists)",
    },
    Site {
        file: "pagestore/src/store.rs",
        func: "read_run",
        events: &[],
        coverage: Coverage::Delegated,
        note: "batched page read (backup sweeps, group replay); degrades to per-page read_page consults whenever a hook is installed, so batching never changes the fault surface",
    },
    Site {
        file: "pagestore/src/store.rs",
        func: "write_run",
        events: &[],
        coverage: Coverage::Delegated,
        note: "batched page install (parallel restore); degrades to per-page write_page consults whenever a hook is installed, so batching never changes the fault surface",
    },
];

/// Raw I/O primitives: whitespace-stripped substrings that move bytes to or
/// from durable state without consulting anything themselves. Read
/// primitives matter as much as writes — a read path the hook cannot see is
/// one the read-fault torture sweep can never damage, so its detection and
/// repair story goes untested.
const PRIMITIVES: &[&str] = &[
    ".file.write_all(",
    ".file.flush(",
    ".file.set_len(",
    ".file.sync_all(",
    ".store.append(",
    ".store.truncate(",
    // Raw log-frame read (the durable suffix scan).
    ".store.frames_from(",
    // Raw file reads in the log store implementations: the whole-file
    // bootstrap and the live-log suffix.
    "file.read_to_end(",
    "file.read_exact(",
    // Page-slot store in a partition guard.
    "guard.pages[",
];

/// Scope + registry for the pass.
pub struct Config {
    /// Path substrings: a file is scanned if any matches.
    pub scope: Vec<String>,
    /// Files whose `IoEvent::` tokens are definitions, not consults.
    pub exempt: Vec<String>,
    /// The declared-site registry.
    pub registry: &'static [Site],
}

impl Config {
    /// Workspace default.
    pub fn workspace() -> Config {
        Config {
            scope: vec![
                "crates/pagestore/src/".into(),
                "crates/cache/src/".into(),
                "crates/wal/src/".into(),
                "crates/backup/src/".into(),
                "crates/recovery/src/".into(),
            ],
            exempt: vec!["pagestore/src/fault.rs".into()],
            registry: REGISTRY,
        }
    }
}

fn find_site<'a>(cfg: &'a Config, path: &str, func: &str) -> Option<&'a Site> {
    cfg.registry
        .iter()
        .find(|s| path.ends_with(s.file) && s.func == func)
}

/// Run the pass.
pub fn check(files: &[SourceFile], cfg: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // Track which registry rows were matched, for staleness reporting.
    let mut seen = vec![false; cfg.registry.len()];

    for f in files {
        if !cfg.scope.iter().any(|s| f.path.contains(s.as_str())) {
            continue;
        }
        if cfg.exempt.iter().any(|e| f.path.ends_with(e.as_str())) {
            continue;
        }
        for span in f.functions() {
            if f.in_test(span.start_line) {
                continue;
            }
            let site = find_site(cfg, &f.path, &span.name);
            if let Some(s) = site {
                if let Some(i) = cfg.registry.iter().position(|r| std::ptr::eq(r, s)) {
                    if let Some(hit) = seen.get_mut(i) {
                        *hit = true;
                    }
                }
            }

            let mut variants: Vec<(String, usize)> = Vec::new();
            let mut consult_marker = false;
            let mut primitive_hits: Vec<(&'static str, usize)> = Vec::new();
            for line in span.start_line..=span.end_line {
                if f.allowed("fault-hook", line) {
                    continue;
                }
                let code = f.code(line);
                let toks = crate::lexer::tokenize(code);
                for (i, tok) in toks.iter().enumerate() {
                    if let Tok::Word(w) = tok {
                        if w == "IoEvent"
                            && toks.get(i + 1) == Some(&Tok::Sym(':'))
                            && toks.get(i + 2) == Some(&Tok::Sym(':'))
                        {
                            if let Some(Tok::Word(v)) = toks.get(i + 3) {
                                variants.push((v.clone(), line));
                            }
                        }
                        if w.contains("consult") || w == "hook" {
                            consult_marker = true;
                        }
                    }
                }
                let n = norm(code);
                for p in PRIMITIVES {
                    if *p == "guard.pages[" {
                        // Only *stores* into the slot count as a primitive;
                        // reads feed torn-write splicing inside write_page.
                        if n.contains(p) && n.contains("]=") {
                            primitive_hits.push((p, line));
                        }
                    } else if n.contains(p) {
                        primitive_hits.push((p, line));
                    }
                }
            }

            match site {
                Some(s) if s.coverage == Coverage::Direct => {
                    for ev in s.events {
                        if !variants.iter().any(|(v, _)| v == ev) {
                            out.push(Diagnostic::new(
                                "fault-hook",
                                &f.path,
                                span.start_line,
                                format!(
                                    "registered site `{}` no longer consults IoEvent::{ev} — registry is stale or the consult was dropped",
                                    s.func
                                ),
                            ));
                        }
                    }
                    if !consult_marker {
                        out.push(Diagnostic::new(
                            "fault-hook",
                            &f.path,
                            span.start_line,
                            format!(
                                "registered site `{}` mentions IoEvent but never reaches a hook/consult call",
                                s.func
                            ),
                        ));
                    }
                    for (v, line) in &variants {
                        if !s.events.contains(&v.as_str()) {
                            out.push(Diagnostic::new(
                                "fault-hook",
                                &f.path,
                                *line,
                                format!(
                                    "site `{}` consults IoEvent::{v}, which its registry row does not declare",
                                    s.func
                                ),
                            ));
                        }
                    }
                }
                Some(_) => {
                    // Delegated: primitives are expected; consults are not
                    // required. A delegated site that *does* consult is
                    // suspicious (double counting) but not an error.
                }
                None => {
                    for (v, line) in &variants {
                        out.push(Diagnostic::new(
                            "fault-hook",
                            &f.path,
                            *line,
                            format!(
                                "fn `{}` consults IoEvent::{v} but is not in the declared-site registry",
                                span.name
                            ),
                        ));
                    }
                    for (p, line) in &primitive_hits {
                        out.push(Diagnostic::new(
                            "fault-hook",
                            &f.path,
                            *line,
                            format!(
                                "raw write primitive `{p}` in fn `{}`, which is not a declared fault-hook site — the torture sweep cannot fault this I/O",
                                span.name
                            ),
                        ));
                    }
                }
            }
        }
    }

    for (s, &hit) in cfg.registry.iter().zip(&seen) {
        if !hit {
            out.push(Diagnostic::new(
                "fault-hook",
                s.file,
                0,
                format!(
                    "registry row `{}::{}` matched no function — stale registry entry",
                    s.file, s.func
                ),
            ));
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out.dedup();
    out
}
