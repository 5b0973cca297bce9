//! Online self-healing media recovery, end to end.
//!
//! ```sh
//! cargo run -p lob-harness --example self_heal
//! ```
//!
//! Builds a small database with a one-slot cache (so reads genuinely miss
//! to the stable store), registers two backup generations, then walks the
//! whole self-healing story through the *public read path*: a torn read
//! heals inline, a corrupt newest generation fails over to the older one,
//! transient device errors retry under the deterministic backoff, and a
//! page no generation can rebuild degrades to a typed `Unrepairable`
//! while every other page keeps serving.

use bytes::Bytes;
use lob_core::{Engine, EngineConfig, EngineError, OpBody, PageId};
use lob_pagestore::fault::{FaultVerdict, IoEvent};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

const PAGE_SIZE: usize = 32;

fn phys(p: PageId, fill: u8) -> OpBody {
    OpBody::PhysicalWrite {
        target: p,
        value: Bytes::from(vec![fill; PAGE_SIZE]),
    }
}

fn pid(i: u32) -> PageId {
    PageId::new(0, i)
}

/// A hook drawing `verdict` on the first `times` stable-store reads of
/// `target`. The verdict damages the *stored* bytes (or fails the device);
/// detection is the read path's own checksum, never the hook.
fn read_hook(target: PageId, verdict: FaultVerdict, times: u32) -> lob_pagestore::FaultHook {
    let fired = AtomicU32::new(0);
    Arc::new(move |ev, page| {
        if ev == IoEvent::PageRead
            && page == Some(target)
            && fired.fetch_add(1, Ordering::Relaxed) < times
        {
            verdict
        } else {
            FaultVerdict::Proceed
        }
    })
}

fn main() {
    let engine = Engine::new(EngineConfig {
        cache_capacity: Some(1),
        ..EngineConfig::single(8, PAGE_SIZE)
    })
    .expect("engine construction");
    for i in 0..8 {
        engine.execute(phys(pid(i), i as u8 + 1)).expect("prefill");
    }

    // Two backup generations: the older one predates an update to page 1,
    // so a repair that falls back to it must replay the longer log suffix
    // to regenerate the same final value.
    let older = engine.offline_backup().expect("older generation");
    engine.register_backup_generation(older).expect("register");
    engine.execute(phys(pid(1), 0xAA)).expect("update page 1");
    let newer = engine.offline_backup().expect("newer generation");
    let newer_id = newer.backup_id;
    engine.register_backup_generation(newer).expect("register");
    println!(
        "registered backup generations: {:?}",
        engine.catalog().generations()
    );

    // --- Act 1: a torn read heals inline -----------------------------
    engine.read_page(pid(0)).expect("cycle the one-slot cache");
    engine.install_fault_hook(Some(read_hook(pid(6), FaultVerdict::TornRead, 1)));
    let healed = engine.read_page(pid(6)).expect("read heals");
    engine.install_fault_hook(None);
    println!(
        "torn read of {}: healed to value {} (repairs so far: {})",
        pid(6),
        healed.data()[0],
        engine.stats().repairs
    );

    // --- Act 2: corrupt newest generation falls back to the older ----
    engine
        .catalog()
        .tamper_page(newer_id, pid(1))
        .expect("tamper newest generation");
    engine.read_page(pid(0)).expect("cycle the one-slot cache");
    engine.install_fault_hook(Some(read_hook(pid(1), FaultVerdict::CorruptRead, 1)));
    let healed = engine.read_page(pid(1)).expect("read falls back and heals");
    engine.install_fault_hook(None);
    println!(
        "corrupt read of {}: newest generation rejected on checksum, \
         rebuilt from the older one to value {:#x} (fallbacks: {})",
        pid(1),
        healed.data()[0],
        engine.stats().repair_fallbacks
    );

    // --- Act 3: transient device errors retry under backoff ----------
    engine.read_page(pid(0)).expect("cycle the one-slot cache");
    engine.install_fault_hook(Some(read_hook(pid(4), FaultVerdict::TransientRead, 2)));
    let healed = engine.read_page(pid(4)).expect("read retries through");
    engine.install_fault_hook(None);
    println!(
        "transient errors on {}: retried deterministically to value {} \
         (transient retries: {})",
        pid(4),
        healed.data()[0],
        engine.stats().transient_retries
    );

    // --- Act 4: no good copy anywhere degrades typed ------------------
    for generation in engine.catalog().generations() {
        engine
            .catalog()
            .tamper_page(generation, pid(3))
            .expect("tamper every generation");
    }
    engine.read_page(pid(0)).expect("cycle the one-slot cache");
    engine.install_fault_hook(Some(read_hook(pid(3), FaultVerdict::CorruptRead, 1)));
    match engine.read_page(pid(3)) {
        Err(EngineError::Unrepairable(p)) => {
            println!("page {p} is unrepairable: every generation exhausted")
        }
        other => panic!("expected Unrepairable, got {other:?}"),
    }
    engine.install_fault_hook(None);
    println!("quarantined: {:?}", engine.quarantined_pages());
    let neighbor = engine.read_page(pid(2)).expect("neighbors keep serving");
    println!(
        "page {} still serves value {} while {} sits in quarantine",
        pid(2),
        neighbor.data()[0],
        pid(3)
    );

    // A full overwrite is new data for the slot: it heals the quarantine.
    engine.execute(phys(pid(3), 0x5A)).expect("overwrite");
    engine.flush_page(pid(3)).expect("install overwrite");
    println!(
        "after a full overwrite, quarantine is {:?} and {} reads {:#x}",
        engine.quarantined_pages(),
        pid(3),
        engine.read_page(pid(3)).expect("healed read").data()[0]
    );

    // A final scrub: the stable store checks every slot's checksum.
    let scrub = engine.store().verify_pages();
    println!(
        "final scrub: {}",
        if scrub.is_clean() { "clean" } else { "DAMAGED" }
    );
    let stats = engine.stats();
    println!(
        "totals: {} quarantines, {} repairs, {} fallbacks, {} transient retries",
        stats.quarantines, stats.repairs, stats.repair_fallbacks, stats.transient_retries
    );
}
