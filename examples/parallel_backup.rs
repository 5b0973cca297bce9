//! Take a partition-parallel on-line backup and prove it restores.
//!
//! ```sh
//! cargo run -p lob-harness --example parallel_backup -- [seed] [partitions]
//! ```
//!
//! Runs the drill loop's sweeps scenario fault-free on a per-partition
//! engine (one backup domain per partition, §3.4): every domain is backed
//! up concurrently — one sweep worker thread per domain, batched page
//! copies — while this thread keeps executing partition-confined
//! operations. The fuzzy images are then combined, the whole medium is
//! failed, and media recovery rolls the store forward to the full history,
//! byte-verified against the shadow oracle and the reference replay.
//!
//! For the fault-injected version of this scenario, arm the same drill
//! with `Drill::sweep` (the `parallel_backup` integration tests do).

use lob_core::{CommitConfig, FlushPolicy};
use lob_harness::{Drill, FaultKind, Path};

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args
        .next()
        .map(|s| s.parse().expect("seed must be an unsigned integer"))
        .unwrap_or(1);
    let partitions: u32 = args
        .next()
        .map(|s| s.parse().expect("partitions must be an unsigned integer"))
        .unwrap_or(4);

    let drill = Drill {
        partitions,
        pages: 64,
        prefill: 64,
        page_size: 128,
        ops: partitions * 32,
        flush_prob: 0.4,
        backup_steps: 8,
        // Group forcing: a WAL-required force persists the whole appended
        // tail, so concurrent appenders share one force round-trip.
        commit: CommitConfig::with_policy(FlushPolicy::Group),
        ..Drill::sweeps(seed)
    };
    let case = drill.case(FaultKind::CountOnly);
    println!("{case}");
    let c = case.counters;
    println!(
        "parallel backup: {partitions} domains swept by {} workers, {} pages; {} forces",
        c.stats.backups_completed, c.backup_pages, c.forces
    );
    if case.path != Ok(Path::Clean) {
        eprintln!("the parallel images did not restore cleanly");
        std::process::exit(1);
    }
    println!("media recovery from the parallel images byte-matched the shadow oracle");
}
