//! The file log against the memory log. One seeded [`EngineService`]
//! workload drives two services side by side, one over
//! [`LogBacking::Memory`] and one over [`LogBacking::File`]: execute,
//! commit, flush, truncate, an on-line backup interleaved with more work,
//! then a crash that loses the uncommitted tail, and recovery. The file
//! log's scan reads only the live log through its sparse index; the memory
//! log drops truncated frames outright. After every recovery both must
//! report the same redo counts and hold byte-identical stable databases.

use lob_core::{
    CommitConfig, Discipline, DomainId, EngineConfig, EngineService, LogBacking, Lsn, PageId,
    Session,
};
use lob_harness::WorkloadGen;
use std::sync::Arc;

const PAGES: u32 = 96;
const PAGE_SIZE: usize = 512;

struct Twin {
    svc: Arc<EngineService>,
    session: Session,
}

fn twin(log: LogBacking) -> Twin {
    let svc = Arc::new(
        EngineService::new(EngineConfig {
            discipline: Discipline::General,
            log,
            // No gather window: one session has no one to wait for.
            commit: CommitConfig {
                group_commit_delay_micros: 0,
                ..CommitConfig::default()
            },
            ..EngineConfig::single(PAGES, PAGE_SIZE)
        })
        .unwrap(),
    );
    let session = svc.session();
    Twin { svc, session }
}

/// Run `ops` seeded operations on both twins; they must get the same LSNs.
fn execute(twins: &[Twin; 2], g: &mut WorkloadGen, pages: &[PageId], ops: usize) {
    for _ in 0..ops {
        let target = g.pick(pages);
        let op = match g.below(3) {
            0 => g.mix(pages, 2, 2),
            1 => g.physio(target),
            _ => g.physical(target),
        };
        let lsns: Vec<Lsn> = twins
            .iter()
            .map(|t| t.session.execute(op.clone()).unwrap())
            .collect();
        assert_eq!(lsns[0], lsns[1]);
    }
}

fn snapshot(t: &Twin) -> Vec<(PageId, lob_core::Page)> {
    let image = t.svc.store().snapshot().unwrap();
    image.iter().map(|(id, page)| (id, page.clone())).collect()
}

#[test]
fn file_and_memory_logs_recover_identically() {
    let dir = std::env::temp_dir().join(format!("lob-file-log-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let twins = [
        twin(LogBacking::Memory),
        twin(LogBacking::File(dir.join("twin.wal"))),
    ];
    let pages: Vec<PageId> = (0..PAGES).map(|i| PageId::new(0, i)).collect();
    let mut g = WorkloadGen::new(0xF11E, PAGE_SIZE);
    let mut retained: Option<u64> = None;
    let mut replayed = 0u64;
    for round in 0..12 {
        execute(&twins, &mut g, &pages, 40);
        for t in &twins {
            t.session.commit().unwrap();
        }
        for _ in 0..4 {
            let page = g.pick(&pages);
            for t in &twins {
                t.svc.flush_page(page).unwrap();
            }
        }
        let cut: Vec<Lsn> = twins
            .iter()
            .map(|t| t.svc.truncate_log().unwrap())
            .collect();
        assert_eq!(cut[0], cut[1], "round {round}: truncation points");

        // An on-line backup with work between its steps: its begin LSN
        // pins the log (the media barrier) until the next one replaces it.
        let mut runs: Vec<_> = twins
            .iter()
            .map(|t| t.svc.begin_backup_of(DomainId(0), 4).unwrap())
            .collect();
        loop {
            execute(&twins, &mut g, &pages, 10);
            let done: Vec<bool> = twins
                .iter()
                .zip(&mut runs)
                .map(|(t, run)| t.svc.backup_step_batch(run, 8).unwrap())
                .collect();
            assert_eq!(done[0], done[1]);
            if done[0] {
                break;
            }
        }
        let mut ids = Vec::new();
        for (t, run) in twins.iter().zip(runs) {
            ids.push(t.svc.complete_backup(run).unwrap().backup_id);
        }
        assert_eq!(ids[0], ids[1]);
        if let Some(old) = retained.replace(ids[0]) {
            for t in &twins {
                t.svc.release_backup(old);
            }
        }
        for t in &twins {
            t.session.commit().unwrap();
        }

        // Uncommitted work dies with the crash.
        execute(&twins, &mut g, &pages, 20);
        let outcomes: Vec<_> = twins
            .iter()
            .map(|t| {
                t.svc.crash();
                t.svc.recover().unwrap()
            })
            .collect();
        assert_eq!(outcomes[0], outcomes[1], "round {round}: redo outcomes");
        replayed += outcomes[0].replayed;
        let (mem, file) = (snapshot(&twins[0]), snapshot(&twins[1]));
        assert_eq!(mem.len(), file.len());
        for ((id, a), (_, b)) in mem.iter().zip(&file) {
            assert!(a == b, "round {round}: page {id} differs between the logs");
        }
    }
    assert!(replayed > 0, "no round replayed anything");
    // The file spans several 64 KiB index strides, and the truncation point
    // ended past its middle.
    let file_log = &twins[1].svc.log();
    assert!(file_log.with_manager(|m| m.durable_bytes()) > 3 * 64 * 1024);
    assert!(2 * file_log.truncation().raw() > file_log.next_lsn().raw());
    std::fs::remove_dir_all(&dir).ok();
}
