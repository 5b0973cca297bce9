//! Property-style tests over the core invariants, driven by seeded
//! deterministic case generation (no external property-testing framework;
//! the build is offline).
//!
//! * write-graph invariants (acyclicity, var ownership, edge symmetry)
//!   hold after every insertion, for arbitrary operation sequences, in both
//!   graph modes;
//! * any greedy frontier-install schedule installs operations in a prefix
//!   of the installation graph (the central Lomet–Tuttle safety property);
//! * the record-page codec and the log-record codec round-trip arbitrary
//!   values;
//! * the backup order's position map inverts exactly;
//! * randomized end-to-end sessions (ops + flush pressure + on-line backup
//!   + media recovery) always match the shadow oracle under the protocol.
//!
//! Every case is derived from a fixed base seed, so a failure reproduces by
//! running the same test again; the failing case index is in the panic
//! message.

use bytes::Bytes;
use lob_core::{Discipline, GraphMode, Lsn, OpBody, PageId};
use lob_harness::{Drill, FaultKind, OpLoop, Scenario};
use lob_ops::{LogicalOp, PhysioOp, RecPage};
use lob_recovery::{InstallGraph, WriteGraph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const UNIVERSE: u32 = 10;

#[derive(Debug, Clone)]
enum OpSpec {
    Physical(u32),
    Physio(u32),
    Copy(u32, u32),
    Mix(Vec<u32>, Vec<u32>),
    Identity(u32),
}

fn page(i: u32) -> PageId {
    PageId::new(0, i % UNIVERSE)
}

impl OpSpec {
    fn body(&self) -> Option<OpBody> {
        match self {
            OpSpec::Physical(t) => Some(OpBody::PhysicalWrite {
                target: page(*t),
                value: Bytes::from_static(b"v"),
            }),
            OpSpec::Identity(t) => Some(OpBody::IdentityWrite {
                target: page(*t),
                value: Bytes::from_static(b"v"),
            }),
            OpSpec::Physio(t) => Some(OpBody::Physio(PhysioOp::SetBytes {
                target: page(*t),
                offset: 0,
                bytes: Bytes::from_static(b"x"),
            })),
            OpSpec::Copy(s, d) => {
                let (s, d) = (page(*s), page(*d));
                (s != d).then_some(OpBody::Logical(LogicalOp::Copy { src: s, dst: d }))
            }
            OpSpec::Mix(r, w) => {
                let mut reads: Vec<PageId> = r.iter().map(|&i| page(i)).collect();
                reads.sort();
                reads.dedup();
                let mut writes: Vec<PageId> = w.iter().map(|&i| page(i)).collect();
                writes.sort();
                writes.dedup();
                writes.retain(|p| !reads.contains(p));
                (!reads.is_empty() && !writes.is_empty()).then_some(OpBody::Logical(
                    LogicalOp::Mix {
                        reads,
                        writes,
                        salt: 1,
                    },
                ))
            }
        }
    }
}

fn random_spec(rng: &mut SmallRng) -> OpSpec {
    match rng.gen_range(0..5u32) {
        0 => OpSpec::Physical(rng.gen_range(0..UNIVERSE)),
        1 => OpSpec::Physio(rng.gen_range(0..UNIVERSE)),
        2 => OpSpec::Copy(rng.gen_range(0..UNIVERSE), rng.gen_range(0..UNIVERSE)),
        3 => {
            let r: Vec<u32> = (0..rng.gen_range(1..3usize))
                .map(|_| rng.gen_range(0..UNIVERSE))
                .collect();
            let w: Vec<u32> = (0..rng.gen_range(1..3usize))
                .map(|_| rng.gen_range(0..UNIVERSE))
                .collect();
            OpSpec::Mix(r, w)
        }
        _ => OpSpec::Identity(rng.gen_range(0..UNIVERSE)),
    }
}

fn random_specs(rng: &mut SmallRng, max_len: usize) -> Vec<OpSpec> {
    let n = rng.gen_range(1..max_len);
    (0..n).map(|_| random_spec(rng)).collect()
}

#[test]
fn write_graph_invariants_hold_for_any_history() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xA11C_E000 + case);
        let ops = random_specs(&mut rng, 60);
        for mode in [GraphMode::Refined, GraphMode::Intersecting] {
            let mut graph = WriteGraph::new(mode);
            let mut lsn = 1u64;
            for spec in &ops {
                if let Some(body) = spec.body() {
                    graph.add_op(Lsn(lsn), &body);
                    lsn += 1;
                    graph
                        .check_invariants()
                        .unwrap_or_else(|e| panic!("case {case} mode {mode:?}: {e}"));
                }
            }
        }
    }
}

#[test]
fn greedy_installs_form_installation_prefixes() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xB22D_E000 + case);
        let ops = random_specs(&mut rng, 50);
        let order_seed: u64 = rng.gen_range(0..1000u64);
        // Build both graphs from the same history (identity writes are
        // cache-manager artifacts, not workload ops — skip them here).
        let mut graph = WriteGraph::new(GraphMode::Refined);
        let mut install = InstallGraph::new();
        let mut lsn = 1u64;
        for spec in &ops {
            if matches!(spec, OpSpec::Identity(_)) {
                continue;
            }
            if let Some(body) = spec.body() {
                graph.add_op(Lsn(lsn), &body);
                install.push(Lsn(lsn), &body);
                lsn += 1;
            }
        }
        // Greedily install frontier nodes in a seed-dependent order; after
        // every install the installed set must be a prefix of the
        // installation graph.
        let mut installed: BTreeSet<Lsn> = BTreeSet::new();
        let mut tick = order_seed;
        while !graph.is_empty() {
            let frontier = graph.frontier();
            assert!(
                !frontier.is_empty(),
                "case {case}: acyclic graph always has a frontier"
            );
            let pick = frontier[(tick as usize) % frontier.len()];
            tick = tick.wrapping_mul(6364136223846793005).wrapping_add(1);
            for l in graph.install_node(pick).unwrap() {
                installed.insert(l);
            }
            if let Some((o, p)) = install.prefix_violation(&installed) {
                // The only permitted "violations" involve ops that the
                // refined graph installed via unexposed-object reasoning;
                // those are still safe because the inverse write-read edges
                // force readers first. Read-write edges must never be
                // violated.
                panic!("case {case}: installed {p:?} before its reader-predecessor {o:?}");
            }
        }
        assert!(install.is_prefix(&installed), "case {case}");
    }
}

#[test]
fn replay_plan_schedules_dependents_after_parents() {
    use lob_recovery::ReplayPlan;
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xCE77_E000 + case);
        let specs = random_specs(&mut rng, 50);
        let mut install = InstallGraph::new();
        let mut records = Vec::new();
        let mut lsn = 1u64;
        for spec in &specs {
            if let Some(body) = spec.body() {
                install.push(Lsn(lsn), &body);
                records.push(lob_wal::LogRecord::new(
                    Lsn(lsn),
                    lob_wal::RecordBody::Op(body),
                ));
                lsn += 1;
            }
        }
        let plan = ReplayPlan::build(&records);

        // The units partition the op records exactly once, each unit in
        // strict log order.
        let mut seen = BTreeSet::new();
        for unit in plan.units() {
            for pair in unit.indices().windows(2) {
                assert!(
                    pair[0] < pair[1],
                    "case {case}: unit indices out of log order"
                );
            }
            for &i in unit.indices() {
                assert!(seen.insert(i), "case {case}: record {i} in two units");
            }
        }
        assert_eq!(
            seen.len(),
            records.len(),
            "case {case}: every op record must be scheduled"
        );

        // Units touch pairwise-disjoint page sets — the soundness condition
        // for replaying them on concurrent workers.
        let units = plan.units();
        for (i, a) in units.iter().enumerate() {
            for b in &units[i + 1..] {
                assert!(
                    a.pages().is_disjoint(b.pages()),
                    "case {case}: two units share a page"
                );
            }
        }

        // Topological validity: every installation-graph predecessor of an
        // op (a cross-object read-write dependency) is scheduled in the
        // *same* unit at an *earlier* position — no dependent op ever
        // replays before its parent, on any worker.
        for unit in units {
            let pos: std::collections::BTreeMap<usize, usize> = unit
                .indices()
                .iter()
                .enumerate()
                .map(|(at, &i)| (i, at))
                .collect();
            for (&i, &at) in &pos {
                let Some(preds) = install.preds(records[i].lsn) else {
                    continue;
                };
                for &p in preds {
                    // LSNs are assigned contiguously from 1, so the
                    // predecessor's record index is lsn - 1.
                    let pi = (p.0 - 1) as usize;
                    let ppos = pos.get(&pi).unwrap_or_else(|| {
                        panic!("case {case}: parent of record {i} landed in another unit")
                    });
                    assert!(
                        *ppos < at,
                        "case {case}: record {i} scheduled before its parent {pi}"
                    );
                }
            }
        }
    }
}

/// Shrunk from the property above and pinned: a copy chain `0 → 1 → 2`
/// creates only pairwise page overlaps, but transitivity must still pull
/// all three pages — and an unrelated write to page 2 logged *before* the
/// chain formed — into one replay unit, in log order.
#[test]
fn regression_copy_chain_bridges_units() {
    use lob_recovery::ReplayPlan;
    let bodies = [
        OpBody::PhysicalWrite {
            target: page(0),
            value: Bytes::from_static(b"a"),
        },
        OpBody::PhysicalWrite {
            target: page(2),
            value: Bytes::from_static(b"b"),
        },
        OpBody::Logical(LogicalOp::Copy {
            src: page(0),
            dst: page(1),
        }),
        OpBody::Logical(LogicalOp::Copy {
            src: page(1),
            dst: page(2),
        }),
    ];
    let records: Vec<lob_wal::LogRecord> = bodies
        .iter()
        .enumerate()
        .map(|(i, b)| {
            lob_wal::LogRecord::new(Lsn(i as u64 + 1), lob_wal::RecordBody::Op(b.clone()))
        })
        .collect();
    let plan = ReplayPlan::build(&records);
    assert_eq!(plan.units().len(), 1, "the chain must bridge to one unit");
    assert_eq!(plan.units()[0].indices(), &[0, 1, 2, 3]);
    let pages: BTreeSet<PageId> = [page(0), page(1), page(2)].into_iter().collect();
    assert_eq!(plan.units()[0].pages(), &pages);
}

#[test]
fn recpage_codec_round_trips() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xC33E_E000 + case);
        let mut page = RecPage::new();
        for _ in 0..rng.gen_range(0..8usize) {
            let k: Vec<u8> = (0..rng.gen_range(1..8usize))
                .map(|_| rng.gen_range(1..255u8))
                .collect();
            let v: Vec<u8> = (0..rng.gen_range(0..12usize)).map(|_| rng.gen()).collect();
            page.insert(k, v);
        }
        let id = PageId::new(0, 0);
        let encoded = page.encode(id, 512).unwrap();
        let decoded = RecPage::decode(id, &encoded).unwrap();
        assert_eq!(&page, &decoded, "case {case}");
        let re = decoded.encode(id, 512).unwrap();
        assert_eq!(encoded, re, "case {case}");
    }
}

#[test]
fn log_codec_round_trips_any_op() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xD44F_E000 + case);
        let spec = random_spec(&mut rng);
        let lsn: u64 = rng.gen_range(1..=u64::MAX - 1);
        if let Some(body) = spec.body() {
            let rec = lob_wal::LogRecord::new(Lsn(lsn), lob_wal::RecordBody::Op(body));
            let enc = lob_wal::encode_record(&rec);
            assert_eq!(lob_wal::decode_record(&enc).unwrap(), rec, "case {case}");
        }
    }
}

#[test]
fn backup_order_inverts() {
    for case in 0..32u64 {
        let mut rng = SmallRng::seed_from_u64(0xE55A_E000 + case);
        let sizes: Vec<u32> = (0..rng.gen_range(1..5usize))
            .map(|_| rng.gen_range(1..50u32))
            .collect();
        let parts: Vec<(lob_core::PartitionId, u32)> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| (lob_core::PartitionId(i as u32), n))
            .collect();
        let order = lob_backup::BackupOrder::new(parts);
        for pos in 0..order.total() {
            let page = order.page_at(pos).unwrap();
            assert_eq!(order.pos(page), Some(pos), "case {case}");
        }
        assert!(order.page_at(order.total()).is_none(), "case {case}");
    }
}

// End-to-end sessions are heavier; fewer cases.

/// A randomized session at half the default size.
fn small_session(seed: u64, discipline: Discipline) -> Drill {
    Drill {
        pages: 128,
        prefill: 42,
        ops: 150,
        ..Drill::session(seed, discipline)
    }
}

#[test]
fn protocol_sessions_always_verify() {
    let disciplines = [
        Discipline::PageOriented,
        Discipline::Tree,
        Discipline::General,
    ];
    for case in 0..9u64 {
        let mut rng = SmallRng::seed_from_u64(0xF66B_E000 + case);
        let seed: u64 = rng.gen_range(0..10_000u64);
        let discipline = disciplines[(case % 3) as usize];
        let steps: u32 = rng.gen_range(1..6u32);
        let drill = Drill {
            backup_steps: steps,
            scenario: Scenario::Ops(OpLoop {
                backup_start_after: 30,
                ops_per_backup_step: 20,
                ..OpLoop::SESSION
            }),
            ..small_session(seed, discipline)
        };
        let run = drill.case(FaultKind::CountOnly);
        assert!(
            run.path.is_ok(),
            "case {case} seed {seed} {discipline:?}: {run}"
        );
    }
}

/// A crashing session: backup from op 40, stepped every 25 ops.
fn crash_session(seed: u64, crash_at: u32) -> lob_harness::Case {
    let drill = Drill {
        scenario: Scenario::Ops(OpLoop {
            backup_start_after: 40,
            ops_per_backup_step: 25,
            ..OpLoop::SESSION
        }),
        ..small_session(seed, Discipline::General)
    };
    drill.case(FaultKind::CrashAfterOp(crash_at))
}

#[test]
fn crash_sessions_always_verify() {
    for case in 0..8u64 {
        let mut rng = SmallRng::seed_from_u64(0xAB7C_E000 + case);
        let seed: u64 = rng.gen_range(0..10_000u64);
        let crash_at: u32 = rng.gen_range(50..140u32);
        let run = crash_session(seed, crash_at);
        assert!(
            run.path.is_ok(),
            "case {case} seed {seed} crash_at {crash_at}: {run}"
        );
    }
}

/// Regression pinned from a proptest-found failure (formerly recorded in
/// `tests/properties.proptest-regressions`): seed = 3390, crash_at = 67.
/// Promoted to a named deterministic test so it survives even if the
/// regression file is lost.
#[test]
fn regression_crash_session_seed_3390_crash_at_67() {
    let run = crash_session(3390, 67);
    assert!(run.path.is_ok(), "{run}");
}
