//! Run a crash-point torture sweep from the command line.
//!
//! ```sh
//! cargo run -p lob-harness --example torture_drill -- [seed] [general|tree|backup]
//! ```
//!
//! Counts the I/O events of a seeded session, re-runs it crashing at up to
//! 64 sampled event indices, recovers each time (crash recovery, or media
//! recovery when the crash left a torn page), checks the recovered store
//! byte-for-byte against the shadow oracle and the reference replay, and
//! prints the per-case ledger.

use lob_core::Discipline;
use lob_harness::{Drill, FaultKind, Path};

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args
        .next()
        .map(|s| s.parse().expect("seed must be an unsigned integer"))
        .unwrap_or(1);
    let drill = match args.next().as_deref() {
        None | Some("general") => Drill::ops(seed, Discipline::General),
        Some("tree") => Drill::ops(seed, Discipline::Tree),
        Some("backup") => Drill::backup(seed),
        Some(w) => {
            eprintln!("unknown workload {w:?}: expected general, tree, or backup");
            std::process::exit(2);
        }
    };

    let report = drill
        .sweep(&[FaultKind::CrashAt], 64)
        .expect("torture sweep failed to run");
    print!("{report}");
    println!(
        "{} crash points: crash recovery {}, media recovery {}, clean {}",
        report.cases.len(),
        report.count(Path::Crash),
        report.count(Path::Media),
        report.count(Path::Clean)
    );
    println!("event kinds crashed at: {:?}", report.fired_kinds());
    let divergences = report.divergences();
    if divergences.is_empty() {
        println!("zero divergences — every recovery byte-matched the shadow oracle");
    } else {
        for d in &divergences {
            eprintln!("DIVERGENCE: {d}");
        }
        std::process::exit(1);
    }
}
