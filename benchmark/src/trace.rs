//! In-memory spans around the calls the drivers make into the engine, and
//! the order statistics every metric is reported with.

use std::io::Write;
use std::time::Instant;

/// What a span covers. Call spans name one public function of `lob-core`
/// or `lob-btree`; phase spans name a part of a lifecycle round.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Kind {
    Round,
    Online,
    Redo,
    Restore,
    SessionExecute,
    SessionCommit,
    SessionReadPage,
    ServiceFlushPage,
    ServiceTruncateLog,
    ServiceBeginBackup,
    ServiceBackupStep,
    ServiceCompleteBackup,
    ServiceReleaseBackup,
    ServiceRecover,
    ServiceRestore,
    EngineExecute,
    EngineForceLog,
    EngineReadPage,
    EngineFlushPage,
    EngineFlushOldest,
    EngineTruncateLog,
    EngineBeginBackup,
    EngineBackupStep,
    EngineCompleteBackup,
    EngineReleaseBackup,
    EngineRegisterGeneration,
    EngineExtendArchive,
    EngineRecover,
    EngineRestore,
    EngineInstantFirstRead,
    EngineInstantComplete,
    BtreeGet,
    BtreeInsert,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Round => "round",
            Kind::Online => "phase.online",
            Kind::Redo => "phase.redo",
            Kind::Restore => "phase.restore",
            Kind::SessionExecute => "core.session.execute",
            Kind::SessionCommit => "core.session.commit",
            Kind::SessionReadPage => "core.session.read_page",
            Kind::ServiceFlushPage => "core.service.flush_page",
            Kind::ServiceTruncateLog => "core.service.truncate_log",
            Kind::ServiceBeginBackup => "core.service.begin_backup",
            Kind::ServiceBackupStep => "core.service.backup_step",
            Kind::ServiceCompleteBackup => "core.service.complete_backup",
            Kind::ServiceReleaseBackup => "core.service.release_backup",
            Kind::ServiceRecover => "core.service.recover",
            Kind::ServiceRestore => "core.service.restore",
            Kind::EngineExecute => "core.engine.execute",
            Kind::EngineForceLog => "core.engine.force_log",
            Kind::EngineReadPage => "core.engine.read_page",
            Kind::EngineFlushPage => "core.engine.flush_page",
            Kind::EngineFlushOldest => "core.engine.flush_oldest",
            Kind::EngineTruncateLog => "core.engine.truncate_log",
            Kind::EngineBeginBackup => "core.engine.begin_backup",
            Kind::EngineBackupStep => "core.engine.backup_step",
            Kind::EngineCompleteBackup => "core.engine.complete_backup",
            Kind::EngineReleaseBackup => "core.engine.release_backup",
            Kind::EngineRegisterGeneration => "core.engine.register_generation",
            Kind::EngineExtendArchive => "core.engine.extend_archive",
            Kind::EngineRecover => "core.engine.recover",
            Kind::EngineRestore => "core.engine.restore",
            Kind::EngineInstantFirstRead => "core.engine.instant_first_read",
            Kind::EngineInstantComplete => "core.engine.instant_complete",
            Kind::BtreeGet => "btree.get",
            Kind::BtreeInsert => "btree.insert",
        }
    }
}

/// One recorded span. `parent` is the enclosing span's kind (a call's
/// parent is its phase, a phase's parent is the round); spans of one
/// round share `round`.
#[derive(Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub parent: Kind,
    pub round: u32,
    pub client: u8,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One driver thread's span buffer. Off, it costs one branch per call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    parent: Kind,
    round: u32,
    client: u8,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, client: u8) -> Tracer {
        Tracer {
            on: false,
            epoch,
            parent: Kind::Round,
            round: 0,
            client,
            spans: Vec::new(),
        }
    }

    /// Arm (or disarm) the tracer for one phase of one round.
    pub fn enter(&mut self, on: bool, round: u32, parent: Kind) {
        self.on = on;
        self.round = round;
        self.parent = parent;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn time<R>(&mut self, kind: Kind, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start_ns = self.now();
        let r = f();
        let end_ns = self.now();
        self.spans.push(Span {
            kind,
            parent: self.parent,
            round: self.round,
            client: self.client,
            start_ns,
            end_ns,
        });
        r
    }

    /// Record a phase span measured by the driver's own clock reads.
    pub fn phase(&mut self, kind: Kind, round: u32, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            kind,
            parent: Kind::Round,
            round,
            client: self.client,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        });
    }

    pub fn drain(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Write spans as tab-separated text: name, parent, round, client,
/// start_ns, end_ns.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tparent\tround\tclient\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.kind.name(),
            s.parent.name(),
            s.round,
            s.client,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

/// Median of a sample (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) computes them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// The `p`-quantile (0..1) of a sorted sample of integer nanoseconds, by
/// nearest rank.
pub fn percentile_ns(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64
}

/// A per-round series reduced the way every metric is printed: median
/// with the sample count and quartiles beside it.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub value: f64,
    pub n: usize,
    pub p25: f64,
    pub p75: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (p25, p75) = quartiles(values);
        Summary {
            value: median(values),
            n: values.len(),
            p25,
            p75,
        }
    }

    /// A single measured value (a count or a ratio of whole-run totals).
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            n: 1,
            p25: value,
            p75: value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
    }
}
