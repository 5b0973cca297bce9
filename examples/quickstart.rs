//! Quickstart: log logical operations, take a high-speed on-line backup,
//! lose the medium, recover.
//!
//! ```sh
//! cargo run -p lob-harness --example quickstart
//! ```

use bytes::Bytes;
use lob_core::{
    BackupPolicy, Discipline, Engine, EngineConfig, LogicalOp, OpBody, PageId, PartitionId,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small database logging *general* logical operations, protected by
    // the paper's backup protocol.
    let engine = Engine::new(EngineConfig {
        discipline: Discipline::General,
        policy: BackupPolicy::Protocol,
        ..EngineConfig::single(64, 256)
    })?;

    // Write a page physically, then copy it logically: the copy's log
    // record holds two page ids, not 256 bytes of data.
    let src = PageId::new(0, 3);
    let dst = PageId::new(0, 40);
    engine.execute(OpBody::PhysicalWrite {
        target: src,
        value: Bytes::from(vec![0xC0; 256]),
    })?;
    engine.execute(OpBody::Logical(LogicalOp::Copy { src, dst }))?;
    engine.flush_all()?;
    println!(
        "after copy: dst page starts with {:#04x}, log holds {} records ({} bytes)",
        engine.read_page(dst)?.data()[0],
        engine.log().stats().records,
        engine.log().stats().bytes,
    );

    // Take an 8-step on-line backup while updates continue. Because `copy`
    // creates a flush-order dependency, a plain fuzzy dump would be
    // unsound; the engine's coordinator decides, per flushed page, whether
    // an identity write (Iw/oF) is needed to keep the backup recoverable.
    let mut run = engine.begin_backup(8)?;
    let mut i = 0u32;
    while !engine.backup_step(&mut run)? {
        // Interleaved update load: overwrite src, re-copy into a new page.
        let fresh = PageId::new(0, 50 + i);
        engine.execute(OpBody::PhysicalWrite {
            target: src,
            value: Bytes::from(vec![i as u8; 256]),
        })?;
        engine.execute(OpBody::Logical(LogicalOp::Copy { src, dst: fresh }))?;
        engine.flush_page(fresh)?;
        engine.flush_page(src)?;
        i += 1;
    }
    let image = engine.complete_backup(run)?;
    println!(
        "backup {} captured {} pages; {} identity-write records were logged \
to keep it recoverable",
        image.backup_id,
        image.page_count(),
        engine.stats().iwof_records,
    );

    // Keep updating after the backup…
    engine.execute(OpBody::PhysicalWrite {
        target: src,
        value: Bytes::from(vec![0xEE; 256]),
    })?;
    engine.flush_all()?;

    // …then lose the medium entirely.
    engine.store().fail_partition(PartitionId(0))?;
    assert!(engine.store().read_page(src).is_err());
    println!("media failure injected: the stable database is unreadable");

    // Media recovery: restore from the backup image and roll the log
    // forward to the current state.
    let outcome = engine.media_recover(&image)?;
    println!(
        "restored + rolled forward ({} records replayed, {} skipped)",
        outcome.replayed, outcome.skipped
    );
    assert_eq!(
        engine.read_page(src)?.data()[0],
        0xEE,
        "post-backup update recovered"
    );
    assert_eq!(
        engine.read_page(dst)?.data()[0],
        0xC0,
        "pre-backup copy recovered"
    );
    println!("current state fully recovered. done");
    Ok(())
}
