//! Engine configuration.

use lob_pagestore::{PartitionId, PartitionSpec};
use lob_recovery::{GraphMode, RecoveryConfig};
use std::path::PathBuf;

/// Which class of log operations the engine accepts — and therefore which
/// backup decision rule applies (paper §3.5 vs §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// Only physical/physiological operations. No flush-order constraints;
    /// backup never needs Iw/oF (the conventional fuzzy dump, §1.2).
    PageOriented,
    /// Tree operations (§4): page-oriented ops plus write-new
    /// (`W_L(old, new)`) ops, plus the application-read extension of §6.2.
    /// Iw/oF decided by the §4.2 rule (successor tracking, † property).
    Tree,
    /// Arbitrary logical operations. Iw/oF decided by the conservative
    /// §3.5 rule (log unless `Pend`).
    General,
}

/// How backup progress is tracked across partitions (§3.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tracking {
    /// One domain sweeping all partitions in the given order ("one large
    /// partition"). Operations may span partitions. Required for the
    /// applications-last ordering of §6.2.
    Sequential(Vec<PartitionId>),
    /// One independent domain per partition; backups of different
    /// partitions proceed in parallel. Operations must not span
    /// partitions (enforced by the engine) — this is also what makes a
    /// partition the unit of media recovery (§6.3).
    PerPartition,
}

/// Where the durable log lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogBacking {
    /// In-memory durable store (simulations; "durable" survives the
    /// simulated crash, which only discards the unforced tail).
    Memory,
    /// A real append-only file with checksummed framing and torn-tail
    /// detection. [`crate::EngineService::open_existing`] (and
    /// [`crate::Engine::open_existing`]) can resume from it after a process
    /// restart.
    File(PathBuf),
}

/// Which backup correctness machinery the engine applies on flushes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackupPolicy {
    /// The paper's protocol: Iw/oF logging per the active [`Discipline`].
    Protocol,
    /// The conventional fuzzy dump with no coordination (correct only for
    /// page-oriented operations). Kept as the broken baseline the Figure 1
    /// counterexample defeats.
    NaiveFuzzy,
    /// Every flush is synchronously copied into the in-progress backup as
    /// well ("linked flush", §1.3) — correct but "completely unrealistic";
    /// kept for the throughput comparison.
    LinkedFlush,
}

/// How eagerly `execute` forces the log when an identity write (`W_IP`)
/// must become durable before its page flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlushPolicy {
    /// Force exactly up to the LSN the WAL rule requires. Every identity
    /// write during a sweep pays its own force round-trip; the durable
    /// log advances in lock-step with the rule — the measurement-friendly
    /// (and model-checker-friendly) default.
    #[default]
    Exact,
    /// Force the whole appended tail whenever a force is required, so
    /// records appended since the last force ride along in one group
    /// commit ([`lob_wal::LogStore::append_batch`] — one write + flush on
    /// a file-backed log). Forcing more than required is always
    /// WAL-correct; it only makes extra records durable early.
    Group,
}

/// Commit batching: how log forces are scheduled, and what "durable"
/// means on a file-backed log. One coherent home for the knobs that used
/// to be scattered (the flush policy lived alone on [`EngineConfig`];
/// group-commit windows were hard-coded in benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitConfig {
    /// Force batching policy (see [`FlushPolicy`]).
    pub flush_policy: FlushPolicy,
    /// The longest a group-commit leader waits for co-committers before
    /// dispatching the group force, in microseconds: a cap, since the
    /// group also closes once every live [`crate::Session`] (one whose
    /// last-using thread has not exited) has joined it. The window also bounds how long a committer waits on the CPU:
    /// the leader and its followers poll the group between
    /// `std::thread::yield_now` calls, which hand the CPU to any runnable
    /// thread, and only a follower whose force outlasts the window parks.
    /// `0` disables the gather window (each force dispatches
    /// immediately, still batching whatever is already appended, and
    /// nothing polls) — also the deterministic setting the seeded virtual
    /// scheduler requires.
    pub group_commit_delay_micros: u64,
    /// The largest group: dispatch once this many committers (leader
    /// included) have joined, even if more sessions are live. `<= 1`
    /// disables gathering.
    pub group_commit_count: u32,
    /// `fsync` the file-backed log on every force, so "durable" means on
    /// the platter rather than in the OS page cache. Ignored for the
    /// in-memory log. Off by default: drills model durability through the
    /// fault hook and should not pay real fsync latency.
    pub sync_file_log: bool,
}

impl Default for CommitConfig {
    fn default() -> CommitConfig {
        CommitConfig {
            flush_policy: FlushPolicy::Exact,
            group_commit_delay_micros: 200,
            group_commit_count: 8,
            sync_file_log: false,
        }
    }
}

impl CommitConfig {
    /// The default commit configuration with the given flush policy.
    pub fn with_policy(flush_policy: FlushPolicy) -> CommitConfig {
        CommitConfig {
            flush_policy,
            ..CommitConfig::default()
        }
    }
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Page payload size in bytes.
    pub page_size: usize,
    /// Partition sizes; partition ids are assigned in order from 0.
    pub partitions: Vec<PartitionSpec>,
    /// Operation discipline.
    pub discipline: Discipline,
    /// Write-graph construction (`Refined` is required for Iw/oF; the
    /// `Intersecting` mode exists for the fig2 ablation).
    pub graph_mode: GraphMode,
    /// Backup progress tracking scheme.
    pub tracking: Tracking,
    /// Cache capacity in pages (`None` = unbounded).
    pub cache_capacity: Option<usize>,
    /// Backup policy.
    pub policy: BackupPolicy,
    /// Durable log backing.
    pub log: LogBacking,
    /// Commit batching: flush policy, group-commit window, fsync
    /// discipline. [`crate::Engine`] is one session, so its core keeps the
    /// gather window closed whatever the window fields say; the flush
    /// policy and fsync discipline apply to both fronts.
    pub commit: CommitConfig,
    /// Shards of the page cache of a [`crate::EngineService`] (clamped to
    /// at least 1). [`crate::Engine`] ignores this: one session contends
    /// for no shard, so its core has exactly one.
    pub cache_shards: usize,
    /// Restore and redo knobs for every crash and media recovery
    /// ([`crate::EngineService::recover`],
    /// [`crate::EngineService::media_recover`] and their variants): replay
    /// workers and pages per group install. The default is one worker draining
    /// whole-hot-set batches.
    pub recovery: RecoveryConfig,
}

impl EngineConfig {
    /// A small single-partition config suitable for tests and examples:
    /// 256-byte pages, 64 pages, general discipline, refined graph,
    /// sequential tracking, paper protocol.
    pub fn small() -> EngineConfig {
        EngineConfig {
            page_size: 256,
            partitions: vec![PartitionSpec { pages: 64 }],
            discipline: Discipline::General,
            graph_mode: GraphMode::Refined,
            tracking: Tracking::Sequential(vec![PartitionId(0)]),
            cache_capacity: None,
            policy: BackupPolicy::Protocol,
            log: LogBacking::Memory,
            commit: CommitConfig::default(),
            cache_shards: 8,
            recovery: RecoveryConfig::default(),
        }
    }

    /// Like [`EngineConfig::small`] but with the given page count.
    pub fn single(pages: u32, page_size: usize) -> EngineConfig {
        EngineConfig {
            page_size,
            partitions: vec![PartitionSpec { pages }],
            tracking: Tracking::Sequential(vec![PartitionId(0)]),
            ..EngineConfig::small()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_config_is_consistent() {
        let c = EngineConfig::small();
        assert_eq!(c.partitions.len(), 1);
        assert!(matches!(c.tracking, Tracking::Sequential(ref v) if v.len() == 1));
        assert_eq!(c.policy, BackupPolicy::Protocol);
    }

    #[test]
    fn single_overrides_size() {
        let c = EngineConfig::single(128, 512);
        assert_eq!(c.partitions[0].pages, 128);
        assert_eq!(c.page_size, 512);
    }

    #[test]
    fn commit_defaults_are_exact_and_unsynced() {
        let c = CommitConfig::default();
        assert_eq!(c.flush_policy, FlushPolicy::Exact, "measurement-friendly");
        assert!(!c.sync_file_log, "drills must not pay real fsync latency");
        assert!(c.group_commit_count > 1, "grouping on by default");
        assert!(c.group_commit_delay_micros > 0);
        assert_eq!(EngineConfig::small().commit, c, "small() takes defaults");
    }

    #[test]
    fn shard_defaults() {
        let c = EngineConfig::small();
        assert!(c.cache_shards >= 1, "sharded cache never degenerates to 0");
    }

    #[test]
    fn flush_policy_default_is_exact() {
        assert_eq!(FlushPolicy::default(), FlushPolicy::Exact);
    }
}
