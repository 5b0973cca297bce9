//! Isolated probes: each layer's public functions timed alone, on log
//! records and pages captured from the workload that just ran, so a layer
//! number can be read beside the end-to-end number it should move.
//!
//! A probe processes a batch of items between two reads of the wall clock
//! and reports the median over batches of the per-item time.

use crate::adapter::Db;
use crate::gen::{PageGen, WriteMix};
use crate::trace::median;
use crate::workloads::Plan;
use bytes::Bytes;
use lob_backup::{
    BackupCoordinator, BackupImage, BackupRun, DomainId, LogArchive, RunConfig, SuccMeta,
};
use lob_cache::{CacheManager, ShardedCache};
use lob_ops::{OpBody, OpError};
use lob_pagestore::{
    Lsn, Page, PageId, PageImage, PartitionId, PartitionSpec, StableStore, StoreConfig,
};
use lob_recovery::{
    parallel_install_image, parallel_redo_scan, redo_scan, GraphMode, RecoveryConfig, ReplayPlan,
    StoreRedoTarget, WriteGraph,
};
use lob_wal::{
    decode_record_shared, encode_record, FileLogStore, GroupCommitLog, LogManager, LogRecord,
    LogStore, MemLogStore, RecordBody,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Batches per probe; the reported value is their median.
const REPS: usize = 7;
/// Items (ops, records, pages) per batch.
const ITEMS: usize = 2048;

/// Median over `REPS` batches of nanoseconds per item; `batch` does
/// its own set-up, then returns (items processed, ns spent) for the part
/// it timed.
fn probe(mut batch: impl FnMut() -> (usize, u64)) -> f64 {
    let per_item: Vec<f64> = (0..REPS)
        .map(|_| {
            let (items, ns) = batch();
            ns as f64 / items.max(1) as f64
        })
        .collect();
    median(&per_item)
}

fn timed(f: impl FnOnce()) -> u64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as u64
}

struct Inputs {
    page_size: usize,
    pages: Vec<Page>,
    ids: Vec<PageId>,
    records: Vec<LogRecord>,
    frames: Vec<Bytes>,
    bodies: Vec<OpBody>,
    physio: Vec<OpBody>,
    logical: Vec<OpBody>,
    physical: Vec<OpBody>,
    geometry: Vec<PartitionSpec>,
}

impl Inputs {
    fn store(&self) -> StableStore {
        let store = StableStore::single(
            StoreConfig {
                page_size: self.page_size,
            },
            self.pages.len() as u32,
        );
        for (id, page) in self.ids.iter().zip(&self.pages) {
            let _ = store.write_page(*id, page.clone());
        }
        store
    }

    /// A blank store with the workload's geometry: captured records
    /// address pages anywhere in it.
    fn blank_store(&self) -> StableStore {
        StableStore::new(
            StoreConfig {
                page_size: self.page_size,
            },
            &self.geometry,
        )
    }

    fn reader(&self) -> impl FnMut(PageId) -> Result<Bytes, OpError> + '_ {
        move |id: PageId| {
            Ok(self.pages[id.index as usize % self.pages.len()]
                .data()
                .clone())
        }
    }
}

fn capture(plan: &Plan, db: &Db) -> Inputs {
    let spec = &plan.db;
    // A bounded-cache workload's miss probe needs the cache filled to the
    // workload's own capacity, plus cold pages beyond it.
    let sample = spec.cache_capacity.map_or(ITEMS, |cap| cap + ITEMS / 2);
    let pages = db.sample_pages(sample as u32);
    let ids: Vec<PageId> = (0..pages.len() as u32).map(|i| PageId::new(0, i)).collect();
    let records = db.sample_log(ITEMS);
    let frames = records.iter().map(encode_record).collect();
    let bodies: Vec<OpBody> = records
        .iter()
        .filter_map(|r| r.body.as_op().cloned())
        .collect();
    // One op set per class over the sampled pages, from the benchmark's
    // own generator (the captured log rarely holds all three classes).
    let ops_of = |mix: WriteMix, keep: fn(&OpBody) -> bool| -> Vec<OpBody> {
        let mut g = PageGen::new(
            0x9B0B,
            &[0],
            pages.len() as u32,
            pages.len() as u32,
            0.0,
            spec.page_size,
            0.0,
            mix,
        );
        g.ops(4 * ITEMS)
            .into_iter()
            .filter_map(|op| match op {
                crate::gen::Op::Write(b) if keep(&b) => Some(b),
                _ => None,
            })
            .take(ITEMS)
            .collect()
    };
    Inputs {
        page_size: spec.page_size,
        physio: ops_of(WriteMix::SetBytes, |b| matches!(b, OpBody::Physio(_))),
        logical: ops_of(WriteMix::MixAndSetBytes, |b| {
            matches!(b, OpBody::Logical(_))
        }),
        physical: ops_of(WriteMix::PhysicalAndMix, |b| {
            matches!(b, OpBody::PhysicalWrite { .. })
        }),
        pages,
        ids,
        records,
        frames,
        bodies,
        geometry: (0..spec.partitions)
            .map(|_| PartitionSpec {
                pages: spec.pages_per_partition,
            })
            .collect(),
    }
}

fn apply_all(inp: &Inputs, ops: &[OpBody]) -> f64 {
    probe(|| {
        let mut reader = inp.reader();
        let ns = timed(|| {
            for op in ops {
                black_box(op.apply(&mut reader).ok());
            }
        });
        (ops.len(), ns)
    })
}

fn file_append(inp: &Inputs, path: &Path, sync: bool, items: usize) -> f64 {
    probe(|| {
        let Ok(mut store) = FileLogStore::create(path) else {
            return (1, 0);
        };
        store.set_sync(sync);
        let frames: Vec<&Bytes> = inp.frames.iter().take(items).collect();
        let ns = timed(|| {
            for (i, f) in frames.iter().enumerate() {
                let _ = store.append(Lsn(i as u64 + 1), (*f).clone());
            }
        });
        (frames.len(), ns)
    })
}

fn group_pair_us() -> f64 {
    const COMMITS: usize = 128;
    // The default gather window: two committers share forces.
    let log = GroupCommitLog::new(LogManager::in_memory(), Duration::from_micros(200), 8);
    let body = || {
        RecordBody::Op(OpBody::PhysicalWrite {
            target: PageId::new(0, 0),
            value: Bytes::from(vec![0u8; 16]),
        })
    };
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for _ in 0..COMMITS {
                    log.append_record(body());
                    let _ = log.force_all();
                }
            });
        }
    });
    t0.elapsed().as_secs_f64() * 1e6 / COMMITS as f64
}

fn sequential_coordinator(pages: u32) -> BackupCoordinator {
    BackupCoordinator::sequential(vec![(PartitionId(0), pages)])
}

fn step_batch_per_page(inp: &Inputs, store: &StableStore, batch: u32) -> f64 {
    probe(|| {
        let coord = sequential_coordinator(inp.pages.len() as u32);
        let Ok(mut run) = BackupRun::begin(&coord, RunConfig::full(DomainId(0), 8), 1, Lsn(1))
        else {
            return (1, 0);
        };
        let ns = timed(|| while let Ok(false) = run.step_batch(&coord, store, batch) {});
        (inp.pages.len(), ns)
    })
}

/// Run every probe. A probe whose inputs the workload did not produce
/// (an empty log sample) reports 0.
pub fn run_all(plan: &Plan, db: &Db, out: &Path) -> BTreeMap<&'static str, f64> {
    let inp = capture(plan, db);
    let n_pages = inp.pages.len();
    let store = inp.store();
    let rc = RecoveryConfig::new(1, 4096);
    let mut r: BTreeMap<&'static str, f64> = BTreeMap::new();

    // lob-ops
    r.insert("ops.apply_physio_ns", apply_all(&inp, &inp.physio));
    r.insert("ops.apply_logical_ns", apply_all(&inp, &inp.logical));
    r.insert("ops.apply_physical_ns", apply_all(&inp, &inp.physical));

    // lob-wal
    r.insert(
        "wal.codec.encode_ns",
        probe(|| {
            let ns = timed(|| {
                for rec in &inp.records {
                    black_box(encode_record(rec));
                }
            });
            (inp.records.len(), ns)
        }),
    );
    r.insert(
        "wal.codec.decode_ns",
        probe(|| {
            let ns = timed(|| {
                for f in &inp.frames {
                    black_box(decode_record_shared(f).ok());
                }
            });
            (inp.frames.len(), ns)
        }),
    );
    r.insert(
        "wal.store.mem_append_ns",
        probe(|| {
            let mut mem = MemLogStore::new();
            let ns = timed(|| {
                for (i, f) in inp.frames.iter().enumerate() {
                    let _ = mem.append(Lsn(i as u64 + 1), f.clone());
                }
            });
            (inp.frames.len(), ns)
        }),
    );
    let probe_log = out.join("probe.log");
    r.insert(
        "wal.store.file_append_ns",
        file_append(&inp, &probe_log, false, ITEMS),
    );
    r.insert(
        "wal.store.file_fsync_us",
        file_append(&inp, &probe_log, true, 16) / 1e3,
    );
    let _ = std::fs::remove_file(&probe_log);
    r.insert(
        "wal.manager.append_force_ns",
        probe(|| {
            let mut log = LogManager::in_memory();
            let ns = timed(|| {
                for b in &inp.bodies {
                    log.append(RecordBody::Op(b.clone()));
                    let _ = log.force_all();
                }
            });
            (inp.bodies.len(), ns)
        }),
    );
    r.insert(
        "wal.manager.scan_ns_per_record",
        probe(|| {
            let mut log = LogManager::in_memory();
            for b in &inp.bodies {
                log.append(RecordBody::Op(b.clone()));
            }
            let _ = log.force_all();
            let ns = timed(|| {
                black_box(log.scan_from(Lsn::FIRST).ok());
            });
            (inp.bodies.len(), ns)
        }),
    );
    r.insert(
        "wal.group.force_solo_ns",
        probe(|| {
            let log = GroupCommitLog::new(LogManager::in_memory(), Duration::ZERO, 1);
            let ns = timed(|| {
                for b in &inp.bodies {
                    log.append_record(RecordBody::Op(b.clone()));
                    let _ = log.force_all();
                }
            });
            (inp.bodies.len(), ns)
        }),
    );
    r.insert("wal.group.force_pair_us", group_pair_us());

    // lob-cache
    r.insert(
        "cache.get_hit_ns",
        probe(|| {
            let mut cache = CacheManager::new();
            for id in &inp.ids {
                let _ = cache.get(*id, &store);
            }
            let ns = timed(|| {
                for id in &inp.ids {
                    black_box(cache.get(*id, &store).ok());
                }
            });
            (n_pages, ns)
        }),
    );
    r.insert(
        "cache.get_miss_ns",
        probe(|| {
            // A full bounded cache, so every miss also evicts: at the
            // workload's capacity if it has one, else half the sample.
            let cap = plan
                .db
                .cache_capacity
                .unwrap_or(n_pages / 2)
                .min(n_pages / 2 * 2 - 1);
            let mut cache = CacheManager::with_capacity(Some(cap));
            for id in inp.ids.iter().take(cap) {
                let _ = cache.get(*id, &store);
            }
            let cold: Vec<PageId> = inp.ids.iter().skip(cap).copied().collect();
            let ns = timed(|| {
                for id in &cold {
                    black_box(cache.get(*id, &store).ok());
                }
            });
            (cold.len(), ns)
        }),
    );
    r.insert(
        "cache.put_dirty_ns",
        probe(|| {
            let mut cache = CacheManager::new();
            let ns = timed(|| {
                for (id, page) in inp.ids.iter().zip(&inp.pages) {
                    cache.put_dirty(*id, page.clone());
                }
            });
            (n_pages, ns)
        }),
    );
    r.insert(
        "cache.write_out_ns",
        probe(|| {
            let mut cache = CacheManager::new();
            for (id, page) in inp.ids.iter().zip(&inp.pages) {
                cache.put_dirty(*id, page.clone());
            }
            let ns = timed(|| {
                for id in &inp.ids {
                    let _ = cache.write_out(&[*id], &store, Lsn::MAX);
                }
            });
            (n_pages, ns)
        }),
    );
    r.insert(
        "cache.shard.get_hit_ns",
        probe(|| {
            let cache = ShardedCache::new(8, None);
            for id in &inp.ids {
                let _ = cache.get(*id, &store);
            }
            let ns = timed(|| {
                for id in &inp.ids {
                    black_box(cache.get(*id, &store).ok());
                }
            });
            (n_pages, ns)
        }),
    );

    // lob-pagestore
    r.insert(
        "pagestore.read_page_ns",
        probe(|| {
            let ns = timed(|| {
                for id in &inp.ids {
                    black_box(store.read_page(*id).ok());
                }
            });
            (n_pages, ns)
        }),
    );
    r.insert(
        "pagestore.write_page_ns",
        probe(|| {
            let ns = timed(|| {
                for (id, page) in inp.ids.iter().zip(&inp.pages) {
                    let _ = store.write_page(*id, page.clone());
                }
            });
            (n_pages, ns)
        }),
    );
    r.insert(
        "pagestore.read_run_ns_per_page",
        probe(|| {
            let mut buf = Vec::new();
            let ns = timed(|| {
                for lo in (0..n_pages as u32).step_by(64) {
                    let hi = (lo + 64).min(n_pages as u32);
                    let _ = store.read_run(PartitionId(0), lo, hi, &mut buf);
                }
            });
            (n_pages, ns)
        }),
    );
    r.insert(
        "pagestore.write_run_ns_per_page",
        probe(|| {
            let mut runs: Vec<(u32, Vec<Page>)> = inp
                .pages
                .chunks(64)
                .enumerate()
                .map(|(i, c)| (i as u32 * 64, c.to_vec()))
                .collect();
            let ns = timed(|| {
                for (lo, run) in &mut runs {
                    let _ = store.write_run(PartitionId(0), *lo, run);
                }
            });
            (n_pages, ns)
        }),
    );
    r.insert(
        "pagestore.verify_ns_per_page",
        probe(|| {
            let ns = timed(|| {
                black_box(store.verify_pages());
            });
            (n_pages, ns)
        }),
    );

    // lob-recovery: write graph
    let graph_of = |bodies: &[OpBody]| {
        let mut g = WriteGraph::new(GraphMode::Refined);
        for (i, b) in bodies.iter().enumerate() {
            g.add_op(Lsn(i as u64 + 1), b);
        }
        g
    };
    // A graph the size the inline flusher keeps it, 256 uninstalled ops,
    // built from the workload's own op sequence when the log sample is
    // long enough.
    let sequence: &[OpBody] = if inp.bodies.len() >= 512 {
        &inp.bodies
    } else {
        &inp.logical
    };
    let window: Vec<OpBody> = sequence.iter().take(256).cloned().collect();
    r.insert(
        "recovery.writegraph.add_op_ns",
        probe(|| {
            let mut g = graph_of(&window);
            let extra: Vec<&OpBody> = sequence.iter().skip(256).take(256).collect();
            let ns = timed(|| {
                for (i, b) in extra.iter().enumerate() {
                    g.add_op(Lsn(1000 + i as u64), b);
                }
            });
            (extra.len(), ns)
        }),
    );
    r.insert(
        "recovery.writegraph.flush_plan_ns",
        probe(|| {
            let g = graph_of(&window);
            let nodes: Vec<_> = g.node_ids().collect();
            let ns = timed(|| {
                for n in &nodes {
                    black_box(g.flush_plan(*n).ok());
                }
            });
            (nodes.len(), ns)
        }),
    );
    r.insert(
        "recovery.writegraph.install_node_ns",
        probe(|| {
            let mut g = graph_of(&window);
            let mut installed = 0usize;
            let ns = timed(|| loop {
                let frontier = g.frontier();
                if frontier.is_empty() {
                    break;
                }
                for n in frontier {
                    let _ = g.install_node(n);
                    installed += 1;
                }
            });
            (installed, ns)
        }),
    );

    // lob-backup
    let coord = sequential_coordinator(n_pages as u32);
    // A sweep halfway through, so Done, Doubt and Pend all occur.
    let mid_sweep = BackupRun::begin(&coord, RunConfig::full(DomainId(0), 8), 1, Lsn(1))
        .ok()
        .map(|mut run| {
            for _ in 0..4 {
                let _ = run.step_batch(&coord, &store, 64);
            }
            run
        });
    r.insert(
        "backup.decide.general_ns",
        probe(|| {
            let latch = coord.latch_for(&inp.ids);
            let ns = timed(|| {
                for id in &inp.ids {
                    black_box(latch.decide_general(*id));
                }
            });
            (n_pages, ns)
        }),
    );
    r.insert(
        "backup.decide.tree_ns",
        probe(|| {
            let latch = coord.latch_for(&inp.ids);
            let meta = SuccMeta {
                min: 0,
                max: n_pages as u64 / 2,
                violation: true,
                foreign: false,
                links: 1,
            };
            let ns = timed(|| {
                for id in &inp.ids {
                    black_box(latch.decide_tree(*id, Some(&meta)));
                }
            });
            (n_pages, ns)
        }),
    );
    r.insert(
        "backup.tracker.latch_ns",
        probe(|| {
            let ns = timed(|| {
                for id in &inp.ids {
                    black_box(coord.latch_for(std::slice::from_ref(id)).active_for(*id));
                }
            });
            (n_pages, ns)
        }),
    );
    if let Some(run) = mid_sweep {
        run.abort(&coord);
    }
    r.insert(
        "backup.run.step_batch1_ns_per_page",
        step_batch_per_page(&inp, &store, 1),
    );
    r.insert(
        "backup.run.step_batch64_ns_per_page",
        step_batch_per_page(&inp, &store, 64),
    );
    r.insert(
        "backup.image.put_run_ns_per_page",
        probe(|| {
            let mut image = PageImage::new();
            let mut runs: Vec<(u32, Vec<Page>)> = inp
                .pages
                .chunks(64)
                .enumerate()
                .map(|(i, c)| (i as u32 * 64, c.to_vec()))
                .collect();
            let ns = timed(|| {
                for (lo, run) in &mut runs {
                    image.put_run(PartitionId(0), *lo, run);
                }
            });
            (n_pages, ns)
        }),
    );
    let mut image_pages = PageImage::new();
    for (id, page) in inp.ids.iter().zip(&inp.pages) {
        image_pages.put(*id, page.clone());
    }
    let image = BackupImage {
        backup_id: 1,
        start_lsn: Lsn(1),
        end_lsn: Lsn(1),
        pages: image_pages,
        complete: true,
        incremental: false,
        base: None,
    };
    r.insert(
        "backup.image.restore_to_ns_per_page",
        probe(|| {
            let ns = timed(|| {
                let _ = image.restore_to(&store);
            });
            (n_pages, ns)
        }),
    );
    r.insert(
        "backup.archive.push_ns_per_record",
        probe(|| {
            let start = inp.records.first().map_or(Lsn::FIRST, |r| r.lsn);
            let mut archive = LogArchive::new(start);
            let ns = timed(|| archive.extend(&inp.records));
            (inp.records.len(), ns)
        }),
    );

    // lob-recovery: redo, against a blank store of the workload's shape
    r.insert(
        "recovery.redo.scan_ns_per_record",
        probe(|| {
            let blank = inp.blank_store();
            let ns = timed(|| {
                let mut target = StoreRedoTarget::new(&blank);
                let _ = redo_scan(&inp.records, &mut target);
            });
            (inp.records.len(), ns)
        }),
    );
    r.insert(
        "recovery.parallel.plan_ns_per_record",
        probe(|| {
            let ns = timed(|| {
                black_box(ReplayPlan::build(&inp.records).units().len());
            });
            (inp.records.len(), ns)
        }),
    );
    r.insert(
        "recovery.parallel.replay_ns_per_record",
        probe(|| {
            let blank = inp.blank_store();
            let ns = timed(|| {
                let _ = parallel_redo_scan(&inp.records, &blank, rc);
            });
            (inp.records.len(), ns)
        }),
    );
    r.insert(
        "recovery.parallel.install_image_ns_per_page",
        probe(|| {
            let ns = timed(|| {
                let _ = parallel_install_image(&image.pages, &store, rc);
            });
            (n_pages, ns)
        }),
    );
    r
}
