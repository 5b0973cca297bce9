//! Logging statistics.

use std::collections::BTreeMap;

/// Per-label record/byte counters for everything appended to a log.
///
/// The logging-economy experiments (`tab_logging_economy`) compare, e.g.,
/// the bytes attributed to `MovRec` records against the bytes the
/// page-oriented alternative spends on `W_P` records; the Figure-5
/// experiments count `W_IP` (identity write) records, which are exactly the
/// "extra logging" the paper's analysis quantifies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Total records appended.
    pub records: u64,
    /// Total encoded bytes appended.
    pub bytes: u64,
    /// Forces that reached the durable store (had frames to persist).
    pub forces: u64,
    /// Frames persisted across those forces. `forced_frames / forces` is
    /// the group-commit batching factor: 1.0 means every record paid a
    /// full force round-trip, higher means forces were amortized.
    pub forced_frames: u64,
    /// `fsync`s the durable store issued for those forces (a file log with
    /// sync enabled pays one per force; the in-memory log none).
    pub fsyncs: u64,
    /// Per-label `(records, bytes)`.
    pub by_label: BTreeMap<&'static str, (u64, u64)>,
}

impl LogStats {
    /// Fresh, zeroed statistics.
    pub fn new() -> LogStats {
        LogStats::default()
    }

    /// Account one appended record.
    pub fn record(&mut self, label: &'static str, bytes: usize) {
        self.records += 1;
        self.bytes += bytes as u64;
        let e = self.by_label.entry(label).or_insert((0, 0));
        e.0 += 1;
        e.1 += bytes as u64;
    }

    /// Account one non-empty force persisting `frames` frames.
    pub fn record_force(&mut self, frames: u64) {
        self.forces += 1;
        self.forced_frames += frames;
    }

    /// `(records, bytes)` appended under `label`.
    pub fn label(&self, label: &str) -> (u64, u64) {
        self.by_label.get(label).copied().unwrap_or((0, 0))
    }

    /// Identity-write (`W_IP`) records — the paper's "extra logging".
    pub fn identity_records(&self) -> u64 {
        self.label("W_IP").0
    }

    /// Identity-write (`W_IP`) bytes.
    pub fn identity_bytes(&self) -> u64 {
        self.label("W_IP").1
    }

    /// Difference `self - earlier` per counter (for measuring a phase).
    pub fn since(&self, earlier: &LogStats) -> LogStats {
        let mut by_label = BTreeMap::new();
        for (&label, &(r, b)) in &self.by_label {
            let (er, eb) = earlier.label(label);
            let dr = r.saturating_sub(er);
            let db = b.saturating_sub(eb);
            if dr > 0 || db > 0 {
                by_label.insert(label, (dr, db));
            }
        }
        LogStats {
            records: self.records.saturating_sub(earlier.records),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            forces: self.forces.saturating_sub(earlier.forces),
            forced_frames: self.forced_frames.saturating_sub(earlier.forced_frames),
            fsyncs: self.fsyncs.saturating_sub(earlier.fsyncs),
            by_label,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_label() {
        let mut s = LogStats::new();
        s.record("W_P", 100);
        s.record("W_P", 50);
        s.record("MovRec", 30);
        assert_eq!(s.records, 3);
        assert_eq!(s.bytes, 180);
        assert_eq!(s.label("W_P"), (2, 150));
        assert_eq!(s.label("MovRec"), (1, 30));
        assert_eq!(s.label("nothing"), (0, 0));
    }

    #[test]
    fn identity_accessors() {
        let mut s = LogStats::new();
        s.record("W_IP", 64);
        s.record("W_IP", 64);
        assert_eq!(s.identity_records(), 2);
        assert_eq!(s.identity_bytes(), 128);
    }

    #[test]
    fn since_subtracts() {
        let mut a = LogStats::new();
        a.record("W_P", 10);
        let snap = a.clone();
        a.record("W_P", 10);
        a.record("Mix", 5);
        let d = a.since(&snap);
        assert_eq!(d.records, 2);
        assert_eq!(d.bytes, 15);
        assert_eq!(d.label("W_P"), (1, 10));
        assert_eq!(d.label("Mix"), (1, 5));
    }

    #[test]
    fn force_counters_accumulate_and_subtract() {
        let mut a = LogStats::new();
        a.record_force(1);
        let snap = a.clone();
        a.record_force(7);
        a.record_force(3);
        assert_eq!(a.forces, 3);
        assert_eq!(a.forced_frames, 11);
        let d = a.since(&snap);
        assert_eq!(d.forces, 2);
        assert_eq!(d.forced_frames, 10);
    }
}
