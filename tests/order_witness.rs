//! The dynamic half of the durability-lint contract (DESIGN.md §5.12).
//!
//! `lob-lint`'s durability pass proves, statically, that every stable-store
//! install, cache write-out, and backup-image copy is preceded by its
//! declared requirement (`witness::ORDER_CONTRACTS`) on every CFG path;
//! `lob_pagestore::witness::io_order` checks the same discipline at
//! runtime. This test drives the real engine paths — a parallel backup
//! sweep and a single-threaded torture case — each under its own witness
//! and demands zero ordering violations, shows that concurrent cases in
//! one process never see each other's events, then proves the witness has
//! teeth by installing a page with no log force at all and requiring a
//! violation. Its last test does the same for the lock-rank witness: two
//! ranked locks taken out of order must panic in this build.
//!
//! The install-before-force fixture here mirrors the *static* fixture
//! `crates/lint/tests/fixtures/bad_durability.rs`: the same shape is
//! caught by pass 3 at lint time and by the ordering witness at run time.

use lob_harness::{Drill, FaultKind, Path};
use lob_pagestore::witness::{io_order, Witness};
use lob_pagestore::{Lsn, Page, PageId, PartitionSpec, StableStore, StoreConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

fn tiny_store() -> StableStore {
    StableStore::new(StoreConfig { page_size: 8 }, &[PartitionSpec { pages: 4 }])
}

#[test]
fn parallel_sweep_observes_the_declared_order() {
    // A case runs under its own witness and diverges on any ordering
    // violation; a clean sweep therefore *is* the log-before-install
    // assertion. The event count proves the probes actually fired during
    // the sweep.
    let case = Drill::sweeps(0x0D0E).case(FaultKind::CountOnly);
    assert_eq!(case.path, Ok(Path::Clean));
    assert!(
        case.witness.events() > 10,
        "parallel sweep recorded only {:?} — probes missing?",
        case.witness
    );
}

#[test]
fn torture_case_observes_the_declared_order() {
    // The single-threaded op loop runs under the same witness: a
    // concurrent backup under injected crash points must still force the
    // log before every install and copy before every cursor advance.
    let case = Drill::backup(0x0D0E).case(FaultKind::CountOnly);
    assert_eq!(case.path, Ok(Path::Clean));
    assert!(
        case.witness.events() > 10,
        "torture case recorded only {:?} — probes missing?",
        case.witness
    );
}

#[test]
fn concurrent_cases_do_not_cross_talk() {
    // Two witnessed drill cases on two threads while a third, unwitnessed
    // thread keeps installing pages with no log force. Neither case may
    // see the stray installs, nor each other's events. The cases start
    // only once the stray writer is writing, and their prefill is long
    // enough that its installs land before each case's first log force.
    let running = Arc::new(Barrier::new(2));
    let stop = Arc::new(AtomicBool::new(false));
    let noise = {
        let (running, stop) = (Arc::clone(&running), Arc::clone(&stop));
        std::thread::spawn(move || {
            let store = tiny_store();
            let mut writes = 0u64;
            loop {
                let page = Page::new(Lsn(writes + 1), vec![7u8; 8].into());
                store
                    .write_page(PageId::new(0, (writes % 4) as u32), page)
                    .unwrap();
                writes += 1;
                if writes == 1 {
                    running.wait();
                }
                if stop.load(Ordering::SeqCst) {
                    return writes;
                }
                std::thread::yield_now();
            }
        })
    };
    running.wait();
    let cases: Vec<_> = [0x0C01u64, 0x0C02]
        .into_iter()
        .map(|seed| {
            std::thread::spawn(move || {
                let drill = Drill {
                    pages: 256,
                    prefill: 256,
                    ..Drill::sweeps(seed)
                };
                drill.case(FaultKind::CountOnly)
            })
        })
        .collect();
    let results: Vec<_> = cases.into_iter().map(|h| h.join().unwrap()).collect();
    stop.store(true, Ordering::SeqCst);
    assert!(noise.join().unwrap() > 1, "the stray writer stalled");
    for case in results {
        assert_eq!(case.path, Ok(Path::Clean));
        // Only sweep worker threads copy pages, so a non-zero count shows
        // the witness was carried across the spawn.
        assert!(
            case.witness.count("BackupCopy") > 0,
            "no BackupCopy reached the case's witness: {:?}",
            case.witness
        );
    }
}

#[test]
fn install_before_force_is_caught_dynamically() {
    // The teeth test: write a page straight into the stable store with no
    // log force. Statically this same shape is the `flush_backwards`
    // fixture; dynamically the `PageWrite` probe must flag it exactly
    // once per consumer kind.
    let store = tiny_store();
    let witness = Witness::new();
    witness.run(|| {
        store
            .write_page(PageId::new(0, 0), Page::new(Lsn(1), vec![7u8; 8].into()))
            .unwrap();
        store
            .write_page(PageId::new(0, 1), Page::new(Lsn(2), vec![9u8; 8].into()))
            .unwrap();
    });
    let violations = witness.take_violations();
    assert_eq!(
        violations.len(),
        1,
        "expected one report per consumer kind: {violations:?}"
    );
    assert!(
        violations[0].contains("PageWrite") && violations[0].contains("LogForce"),
        "unexpected report: {}",
        violations[0]
    );
}

#[test]
fn install_after_force_is_clean() {
    // Control: the identical install is legal once the witness has seen
    // any log force — it tracks order, not mere use.
    let store = tiny_store();
    let witness = Witness::new();
    witness.run(|| {
        io_order("LogForce");
        store
            .write_page(PageId::new(0, 0), Page::new(Lsn(1), vec![7u8; 8].into()))
            .unwrap();
    });
    let violations = witness.take_violations();
    assert!(violations.is_empty(), "witness flagged: {violations:?}");
    assert_eq!(witness.count("PageWrite"), 1);
}

#[test]
fn the_lock_rank_witness_is_compiled_into_the_test_build() {
    // The workspace test build turns the witness on through `lob-harness`'s
    // feature; were it compiled out, taking two ranked locks out of order
    // would pass silently and every lock-order check with it.
    use lob_pagestore::witness::{Mutex, Rank};
    let meta = Mutex::new(Rank::Meta, ());
    let domain = Mutex::indexed(Rank::Domain, 0, ());
    let inverted = std::panic::catch_unwind(|| {
        let _domain = domain.lock();
        let _meta = meta.lock();
    });
    let msg = inverted.expect_err("an inverted acquisition must panic");
    let msg = msg
        .downcast_ref::<String>()
        .expect("the witness panics with a formatted message");
    assert!(
        msg.contains("taking `Meta` while holding `Domain[0]`"),
        "message: {msg}"
    );
    // The unwind dropped the domain guard, so the forward order still runs.
    let _meta = meta.lock();
    let _domain = domain.lock();
}
