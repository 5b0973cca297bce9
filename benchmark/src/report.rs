//! Turning a run's measurements into the declared metrics, and printing
//! them: a header that ties the numbers to a machine and a configuration,
//! one line per metric (value, unit, n, p25, p75), and the result object
//! the driver reads from the last line.

use crate::driver::Measured;
use crate::manifest::{END_TO_END, PER_LAYER};
use crate::trace::{median, Kind, Summary};
use crate::workloads::Plan;
use std::collections::BTreeMap;

pub type Metrics = Vec<(&'static str, &'static str, Summary)>;

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The header: what produced the numbers below it.
pub fn print_header(plan: &Plan, seed: u64, seconds: u32, trace: bool, config: &str) {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# lob-benchmark workload={} seed={seed} seconds={seconds} trace={} git_rev={} nproc={nproc} cpu=\"{}\" rustc=\"{}\"",
        plan.name,
        u8::from(trace),
        env("LOB_BENCH_GIT_REV"),
        cpu_model(),
        env("LOB_BENCH_RUSTC"),
    );
    println!(
        "# fixed work: rounds={} sessions={} ops_per_round_per_session={} sweep_every={} sweeps_per_round={} steps_per_sweep={} pages_per_sweep_call={} flusher_pause_tail={} truncate_every={} flush_keep={} uncommitted_tail={} verify_every={} setup_repeats={} closed_loop=1 think_time=0",
        plan.rounds,
        plan.sessions,
        plan.ops_per_round,
        plan.sweep_every,
        plan.sweeps_per_round,
        plan.steps_per_sweep(),
        plan.pages_per_sweep_call(),
        plan.flusher_pause_tail,
        plan.truncate_every,
        crate::workloads::FLUSH_KEEP,
        crate::workloads::UNCOMMITTED_TAIL,
        plan.verify_every,
        plan.setup_repeats,
    );
    println!("# traffic: {:?}", plan.traffic);
    println!("# config: {config}");
}

/// Seconds the hypervisor ran something else on this guest's vCPUs since
/// boot (`steal` of `/proc/stat`, all vCPUs summed, in 10 ms ticks).
pub fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |ticks| ticks / 100.0)
}

/// Where the run's wall time went: the measured part is the timed phases
/// of all rounds; the rest is set-up, generation, warm-up and checking.
pub fn print_wall(m: &Measured, run_s: f64, steal_s: f64) {
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let min_ms = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min) * 1e3;
    println!(
        "# wall: run_s={run_s:.2} host_steal_s={steal_s:.2} setup_s={:.2} generate_s={:.2} warm_s={:.2} verify_s={:.2} measured_s={:.2} (online {:.2} redo {:.2} restore {:.2}) shortest phase of a round: online {:.1} ms, sweep calls {:.1} ms, redo {:.1} ms, restore {:.1} ms",
        sum(&m.setup_s),
        m.generate_s,
        m.warm_s,
        m.verify_s,
        sum(&m.online_s) + sum(&m.redo_s) + sum(&m.restore_s),
        sum(&m.online_s),
        sum(&m.redo_s),
        sum(&m.restore_s),
        min_ms(&m.online_s),
        min_ms(&m.backup_s),
        min_ms(&m.redo_s),
        min_ms(&m.restore_s),
    );
}

/// The ten end-to-end metrics, in manifest order.
pub fn end_to_end(m: &Measured) -> Metrics {
    let series: BTreeMap<&str, Summary> = [
        ("setup_s", Summary::of(&m.setup_s)),
        ("fg_ops_per_s", Summary::of(&m.fg_ops_per_s)),
        ("op_p50_us", Summary::of(&m.op_p50_us)),
        ("op_p99_us", Summary::of(&m.op_p99_us)),
        ("backup_pages_per_s", Summary::of(&m.backup_pages_per_s)),
        // Exact counts: the value is the whole run's ratio (every round
        // weighs in, not just the middle one); the per-round spread is
        // printed beside it.
        (
            "log_bytes_per_op",
            Summary {
                value: m.online.log_bytes as f64 / m.fg_ops as f64,
                ..Summary::of(&m.log_bytes_per_op)
            },
        ),
        (
            "forces_per_commit",
            Summary {
                value: m.online.log_forces as f64 / m.commits as f64,
                ..Summary::of(&m.forces_per_commit)
            },
        ),
        ("redo_records_per_s", Summary::of(&m.redo_records_per_s)),
        ("restore_pages_per_s", Summary::of(&m.restore_pages_per_s)),
        ("peak_rss_mib", Summary::single(peak_rss_mib())),
    ]
    .into_iter()
    .collect();
    END_TO_END
        .iter()
        .map(|d| (d.name, d.unit, series[d.name]))
        .collect()
}

/// Which span kind a `*_us` / `*_ms` per-layer metric reports.
fn span_metric(name: &str) -> Option<(Kind, f64)> {
    const US: f64 = 1e3;
    const MS: f64 = 1e6;
    Some(match name {
        "core.session.execute_us" => (Kind::SessionExecute, US),
        "core.session.commit_us" => (Kind::SessionCommit, US),
        "core.session.read_page_us" => (Kind::SessionReadPage, US),
        "core.service.flush_page_us" => (Kind::ServiceFlushPage, US),
        "core.service.truncate_log_us" => (Kind::ServiceTruncateLog, US),
        "core.service.begin_backup_us" => (Kind::ServiceBeginBackup, US),
        "core.service.backup_step_us" => (Kind::ServiceBackupStep, US),
        "core.service.complete_backup_us" => (Kind::ServiceCompleteBackup, US),
        "core.service.release_backup_us" => (Kind::ServiceReleaseBackup, US),
        "core.service.recover_ms" => (Kind::ServiceRecover, MS),
        "core.engine.execute_us" => (Kind::EngineExecute, US),
        "core.engine.force_log_us" => (Kind::EngineForceLog, US),
        "core.engine.read_page_us" => (Kind::EngineReadPage, US),
        "core.engine.flush_page_us" => (Kind::EngineFlushPage, US),
        "core.engine.begin_backup_us" => (Kind::EngineBeginBackup, US),
        "core.engine.backup_step_us" => (Kind::EngineBackupStep, US),
        "core.engine.recover_ms" => (Kind::EngineRecover, MS),
        "core.engine.restore_ms" => (Kind::EngineRestore, MS),
        "core.engine.extend_archive_ms" => (Kind::EngineExtendArchive, MS),
        "core.engine.instant_first_read_ms" => (Kind::EngineInstantFirstRead, MS),
        "core.engine.instant_complete_ms" => (Kind::EngineInstantComplete, MS),
        "btree.get_us" => (Kind::BtreeGet, US),
        "btree.insert_us" => (Kind::BtreeInsert, US),
        _ => return None,
    })
}

/// Which share of online-phase client time a call span counts toward.
fn share_of(kind: Kind) -> Option<&'static str> {
    Some(match kind {
        Kind::SessionExecute | Kind::EngineExecute | Kind::BtreeInsert => "core.execute_share",
        Kind::SessionCommit | Kind::EngineForceLog => "core.commit_share",
        Kind::SessionReadPage | Kind::EngineReadPage | Kind::BtreeGet => "core.read_share",
        Kind::ServiceFlushPage | Kind::EngineFlushPage | Kind::EngineFlushOldest => {
            "core.flush_share"
        }
        Kind::ServiceBeginBackup
        | Kind::ServiceBackupStep
        | Kind::ServiceCompleteBackup
        | Kind::ServiceReleaseBackup
        | Kind::EngineBeginBackup
        | Kind::EngineBackupStep
        | Kind::EngineCompleteBackup
        | Kind::EngineReleaseBackup
        | Kind::EngineRegisterGeneration
        | Kind::EngineExtendArchive => "core.sweep_share",
        Kind::ServiceTruncateLog | Kind::EngineTruncateLog => "core.truncate_share",
        _ => return None,
    })
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Every per-layer metric, in manifest order. A metric the workload does
/// not exercise reads 0.
pub fn per_layer(m: &Measured, probes: &BTreeMap<&'static str, f64>) -> Metrics {
    // Span medians.
    let mut by_kind: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    let mut shares: BTreeMap<&str, f64> = BTreeMap::new();
    for s in &m.spans {
        by_kind.entry(s.kind).or_default().push(s.ns() as f64);
        if s.parent == Kind::Online {
            if let Some(name) = share_of(s.kind) {
                *shares.entry(name).or_default() += s.ns() as f64 / 1e9;
            }
        }
    }
    let online_of = |traced: bool| -> Vec<f64> {
        m.online_s
            .iter()
            .zip(&m.traced)
            .filter(|(_, t)| **t == traced)
            .map(|(s, _)| *s)
            .collect()
    };
    let (traced_s, untraced_s) = (online_of(true), online_of(false));
    let client_time: f64 = traced_s.iter().sum::<f64>() * m.sessions as f64;
    let covered: f64 = shares.values().sum();

    let c = &m.online;
    let counts: BTreeMap<&str, f64> = [
        ("core.iwof_records", c.iwof_records as f64),
        ("core.nodes_flushed", c.nodes_flushed as f64),
        ("core.pages_flushed", c.pages_flushed as f64),
        ("core.backups_completed", c.backups_completed as f64),
        (
            "backup.iwof_per_flush",
            ratio(c.iwof_required, c.checks_active),
        ),
        ("backup.tracker.checks_active", c.checks_active as f64),
        ("backup.tracker.pend_share", ratio(c.pend, c.checks_active)),
        (
            "backup.tracker.doubt_share",
            ratio(c.doubt, c.checks_active),
        ),
        ("backup.tracker.done_share", ratio(c.done, c.checks_active)),
        (
            "cache.hit_ratio",
            ratio(c.cache_hits, c.cache_hits + c.cache_misses),
        ),
        ("cache.evictions", c.cache_evictions as f64),
        ("cache.pages_flushed", c.cache_pages_flushed as f64),
        ("btree.pages_read_per_get", ratio(m.get_page_reads, m.gets)),
        ("pagestore.page_reads", c.page_reads as f64),
        ("pagestore.page_writes", c.page_writes as f64),
        (
            "pagestore.bytes_written_per_user_byte",
            ratio(c.bytes_written, m.user_bytes),
        ),
        ("wal.bytes_per_record", ratio(c.log_bytes, c.log_records)),
        (
            "wal.frames_per_force",
            ratio(c.log_forced_frames, c.log_forces),
        ),
        (
            "wal.iwof_bytes_share",
            ratio(c.log_identity_bytes, c.log_bytes),
        ),
        (
            "recovery.instant.on_demand_restores",
            c.instant_on_demand as f64,
        ),
        ("recovery.instant.swept_restores", c.instant_swept as f64),
    ]
    .into_iter()
    .collect();

    let overhead = if traced_s.is_empty() || untraced_s.is_empty() {
        0.0
    } else {
        median(&traced_s) / median(&untraced_s) - 1.0
    };

    PER_LAYER
        .iter()
        .map(|d| {
            let summary = if let Some((kind, div)) = span_metric(d.name) {
                match by_kind.get(&kind) {
                    Some(ns) => {
                        let scaled: Vec<f64> = ns.iter().map(|v| v / div).collect();
                        Summary::of(&scaled)
                    }
                    None => Summary::single(0.0),
                }
            } else if let Some(v) = counts.get(d.name) {
                Summary::single(*v)
            } else if let Some(v) = probes.get(d.name) {
                Summary::single(*v)
            } else {
                Summary::single(match d.name {
                    "benchmark.generate_share" => m.generate_s / m.online_s.iter().sum::<f64>(),
                    "benchmark.trace_overhead_share" => overhead,
                    "benchmark.span_coverage_share" if client_time > 0.0 => covered / client_time,
                    name if client_time > 0.0 => {
                        shares.get(name).copied().unwrap_or(0.0) / client_time
                    }
                    _ => 0.0,
                })
            };
            (d.name, d.unit, summary)
        })
        .collect()
}

pub fn print_metrics(metrics: &Metrics) {
    for (name, unit, s) in metrics {
        println!(
            "{name} = {} {unit} (n={} p25={} p75={})",
            s.value, s.n, s.p25, s.p75
        );
    }
}

/// The result object: the last line of standard output.
pub fn result_line(metrics: &Metrics, attempted: u64, failed: u64) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, s)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                s.value
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// The per-round series behind every end-to-end metric, with the wall
/// time of each timed phase, one row per round, so a reader can see what
/// a median hides.
pub fn write_rounds(path: &std::path::Path, m: &Measured) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "round\ttraced\tonline_ms\tbackup_ms\tredo_ms\trestore_ms\tfg_ops_per_s\top_p50_us\top_p99_us\tbackup_pages_per_s\tlog_bytes_per_op\tforces_per_commit\tredo_records_per_s\trestore_pages_per_s"
    )?;
    for i in 0..m.online_s.len() {
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            u8::from(m.traced[i]),
            m.online_s[i] * 1e3,
            m.backup_s[i] * 1e3,
            m.redo_s[i] * 1e3,
            m.restore_s[i] * 1e3,
            m.fg_ops_per_s[i],
            m.op_p50_us[i],
            m.op_p99_us[i],
            m.backup_pages_per_s[i],
            m.log_bytes_per_op[i],
            m.forces_per_commit[i],
            m.redo_records_per_s[i],
            m.restore_pages_per_s[i],
        )?;
    }
    out.flush()
}
