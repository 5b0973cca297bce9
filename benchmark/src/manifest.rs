//! The benchmark's declarations: workloads, metric names, units,
//! directions and bounds. `BENCHMARK.json` at the repo root is this table
//! rendered (`--emit-manifest`); `--check` fails when the two differ, so a
//! name can only change here.

/// Seconds one run is sized for. Work is fixed, not timed: `--seconds`
/// scales the number of lifecycle rounds relative to this.
pub const RUN_SECONDS: u32 = 25;

pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDecl; 4] = [
    WorkloadDecl {
        name: "logical_write_sweep",
        why: "General logical ops through one Session under cycling per-domain sweeps: write graph, decide, tracker latch and Iw/oF all fire; the cache is all-hit and dirty-heavy.",
    },
    WorkloadDecl {
        name: "btree_read_pressure",
        why: "95% B-tree gets over a cache a quarter the size of the tree: miss, evict and single-page reads under the tree Iw/oF rule with the WAL nearly idle; bypasses the commit path.",
    },
    WorkloadDecl {
        name: "sessions_group_commit",
        why: "Two Session threads commit 16-byte writes to a file log through the default gather window: group commit, domain locks and the sharded cache contended; timer-bound, so CPU-path changes predict no move.",
    },
    WorkloadDecl {
        name: "media_restore",
        why: "64 MiB database, four batch-64 full sweeps a round, then crash redo and total-media restore: store run I/O, image install and WAL replay do the work and the commit path almost none.",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The count metrics carry ISSUE 12's bounds (0.02, 0.05, 0.05). The
/// timings are raw wall time, whose quartile spread over ten seeds is
/// 5-14 % on the reference box however long a run is (README,
/// "Repeatability"), so they carry the widest bound the contract allows;
/// ISSUE 12's 0.10 is not met there.
pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "fg_ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "backup_pages_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "log_bytes_per_op",
        unit: "B/op",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "forces_per_commit",
        unit: "forces/commit",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "redo_records_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "restore_pages_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
    },
];

/// What a per-layer metric is, which decides how `--check` treats it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LayerKind {
    /// Median duration of a driver-call span.
    Span,
    /// Share of online-phase client time.
    Share,
    /// Exact count, or a ratio of exact counts, from the public stats
    /// structs: bit-identical across same-seed single-threaded runs.
    Count,
    /// Isolated probe timing.
    Probe,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: LayerKind,
}

const fn span(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        kind: LayerKind::Span,
    }
}

const fn share(name: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit: "ratio",
        better,
        kind: LayerKind::Share,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        kind: LayerKind::Count,
    }
}

const fn probe(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        kind: LayerKind::Probe,
    }
}

pub const PER_LAYER: [PerLayer; 90] = [
    // Driver-call spans: median per call.
    span("core.session.execute_us", "us"),
    span("core.session.commit_us", "us"),
    span("core.session.read_page_us", "us"),
    span("core.service.flush_page_us", "us"),
    span("core.service.truncate_log_us", "us"),
    span("core.service.begin_backup_us", "us"),
    span("core.service.backup_step_us", "us"),
    span("core.service.complete_backup_us", "us"),
    span("core.service.release_backup_us", "us"),
    span("core.service.recover_ms", "ms"),
    span("core.engine.execute_us", "us"),
    span("core.engine.force_log_us", "us"),
    span("core.engine.read_page_us", "us"),
    span("core.engine.flush_page_us", "us"),
    span("core.engine.begin_backup_us", "us"),
    span("core.engine.backup_step_us", "us"),
    span("core.engine.recover_ms", "ms"),
    span("core.engine.restore_ms", "ms"),
    span("core.engine.extend_archive_ms", "ms"),
    span("core.engine.instant_first_read_ms", "ms"),
    span("core.engine.instant_complete_ms", "ms"),
    span("btree.get_us", "us"),
    span("btree.insert_us", "us"),
    // Shares of online-phase client time.
    share("core.execute_share", Better::Lower),
    share("core.commit_share", Better::Lower),
    share("core.read_share", Better::Lower),
    share("core.flush_share", Better::Lower),
    share("core.sweep_share", Better::Lower),
    share("core.truncate_share", Better::Lower),
    share("benchmark.generate_share", Better::Lower),
    share("benchmark.trace_overhead_share", Better::Lower),
    share("benchmark.span_coverage_share", Better::Higher),
    // Counts from the public stats structs, over the online phases.
    count("core.iwof_records", "count", Better::Lower),
    count("core.nodes_flushed", "count", Better::Lower),
    count("core.pages_flushed", "count", Better::Lower),
    count("core.backups_completed", "count", Better::Higher),
    count("backup.iwof_per_flush", "ratio", Better::Lower),
    count("backup.tracker.checks_active", "count", Better::Lower),
    count("backup.tracker.pend_share", "ratio", Better::Higher),
    count("backup.tracker.doubt_share", "ratio", Better::Lower),
    count("backup.tracker.done_share", "ratio", Better::Lower),
    count("cache.hit_ratio", "ratio", Better::Higher),
    count("cache.evictions", "count", Better::Lower),
    count("cache.pages_flushed", "count", Better::Lower),
    count("btree.pages_read_per_get", "pages/get", Better::Lower),
    count("pagestore.page_reads", "count", Better::Lower),
    count("pagestore.page_writes", "count", Better::Lower),
    count(
        "pagestore.bytes_written_per_user_byte",
        "ratio",
        Better::Lower,
    ),
    count("wal.bytes_per_record", "B/record", Better::Lower),
    count("wal.frames_per_force", "frames/force", Better::Higher),
    count("wal.iwof_bytes_share", "ratio", Better::Lower),
    count(
        "recovery.instant.on_demand_restores",
        "count",
        Better::Lower,
    ),
    count("recovery.instant.swept_restores", "count", Better::Higher),
    // Isolated probes on records and pages captured from the workload.
    probe("ops.apply_physio_ns", "ns"),
    probe("ops.apply_logical_ns", "ns"),
    probe("ops.apply_physical_ns", "ns"),
    probe("wal.codec.encode_ns", "ns"),
    probe("wal.codec.decode_ns", "ns"),
    probe("wal.store.mem_append_ns", "ns"),
    probe("wal.store.file_append_ns", "ns"),
    probe("wal.store.file_fsync_us", "us"),
    probe("wal.manager.append_force_ns", "ns"),
    probe("wal.manager.scan_ns_per_record", "ns/record"),
    probe("wal.group.force_solo_ns", "ns"),
    probe("wal.group.force_pair_us", "us"),
    probe("cache.get_hit_ns", "ns"),
    probe("cache.get_miss_ns", "ns"),
    probe("cache.put_dirty_ns", "ns"),
    probe("cache.write_out_ns", "ns"),
    probe("cache.shard.get_hit_ns", "ns"),
    probe("pagestore.read_page_ns", "ns"),
    probe("pagestore.write_page_ns", "ns"),
    probe("pagestore.read_run_ns_per_page", "ns/page"),
    probe("pagestore.write_run_ns_per_page", "ns/page"),
    probe("pagestore.verify_ns_per_page", "ns/page"),
    probe("recovery.writegraph.add_op_ns", "ns"),
    probe("recovery.writegraph.flush_plan_ns", "ns"),
    probe("recovery.writegraph.install_node_ns", "ns"),
    probe("backup.decide.general_ns", "ns"),
    probe("backup.decide.tree_ns", "ns"),
    probe("backup.tracker.latch_ns", "ns"),
    probe("backup.run.step_batch1_ns_per_page", "ns/page"),
    probe("backup.run.step_batch64_ns_per_page", "ns/page"),
    probe("backup.image.put_run_ns_per_page", "ns/page"),
    probe("backup.image.restore_to_ns_per_page", "ns/page"),
    probe("backup.archive.push_ns_per_record", "ns/record"),
    probe("recovery.redo.scan_ns_per_record", "ns/record"),
    probe("recovery.parallel.plan_ns_per_record", "ns/record"),
    probe("recovery.parallel.replay_ns_per_record", "ns/record"),
    probe("recovery.parallel.install_image_ns_per_page", "ns/page"),
];

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `BENCHMARK.json`, exactly as committed at the repo root.
pub fn render() -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{comma}\n",
            quote(w.name),
            quote(w.why)
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}\n",
            quote(m.name),
            quote(m.unit),
            quote(m.better.as_str()),
            m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}\n",
            quote(m.name),
            quote(m.unit),
            quote(m.better.as_str())
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn name_ok(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The declaration checks of `--check`: limits, name and unit grammar,
/// uniqueness, bounds, and the committed `BENCHMARK.json` matching this
/// table byte for byte.
pub fn check_declarations(committed: Option<&str>) -> Vec<String> {
    let mut problems = Vec::new();
    if !(2..=8).contains(&WORKLOADS.len()) {
        problems.push(format!("{} workloads, want 2..=8", WORKLOADS.len()));
    }
    if !(1..=16).contains(&END_TO_END.len()) {
        problems.push(format!(
            "{} end-to-end metrics, want 1..=16",
            END_TO_END.len()
        ));
    }
    if !(1..=128).contains(&PER_LAYER.len()) {
        problems.push(format!(
            "{} per-layer metrics, want 1..=128",
            PER_LAYER.len()
        ));
    }
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    for n in &names {
        if !name_ok(n) {
            problems.push(format!("name {n:?} breaks the name grammar"));
        }
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    for pair in sorted.windows(2) {
        if pair[0] == pair[1] {
            problems.push(format!("name {:?} is used twice", pair[0]));
        }
    }
    for w in &WORKLOADS {
        if w.why.len() > 200 || w.why.contains('\n') {
            problems.push(format!("why of {} is not one line of <= 200 chars", w.name));
        }
    }
    let units = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
    for (name, unit) in units {
        if !unit_ok(unit) {
            problems.push(format!("unit {unit:?} of {name} breaks the unit grammar"));
        }
    }
    for m in &END_TO_END {
        if !(m.bound > 0.0 && m.bound <= 0.25) {
            problems.push(format!("bound of {} is outside (0, 0.25]", m.name));
        }
    }
    if !END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower)
    {
        problems.push("setup_s (unit s, better lower) is missing".into());
    }
    let rendered = render();
    if rendered.len() > 64 * 1024 {
        problems.push(format!(
            "BENCHMARK.json is {} bytes, over 64 KiB",
            rendered.len()
        ));
    }
    match committed {
        Some(text) if text == rendered => {}
        Some(_) => problems.push(
            "BENCHMARK.json differs from the manifest; regenerate it with --emit-manifest".into(),
        ),
        None => problems.push("BENCHMARK.json not found in the working directory".into()),
    }
    problems
}
