//! The shadow oracle: ground truth for recovery correctness.

use bytes::Bytes;
use lob_core::{EngineService, Lsn, OpBody, PageId};
use lob_ops::OpError;
use std::collections::BTreeMap;

/// A deterministic replica of the logged operation history.
///
/// The oracle applies every operation the workload executes to its own
/// in-memory page state (operations are deterministic functions of their
/// read sets, so the oracle and the engine always agree). It remembers the
/// per-LSN write sets, so it can reconstruct the expected database state at
/// any log prefix — which is exactly what a recovered stable database must
/// match:
///
/// * after a **crash**, the prefix is the log's durable LSN (unforced
///   operations are legitimately lost);
/// * after **media recovery**, the prefix is the full history (roll-forward
///   reaches the current end of the log).
/// ```
/// use lob_harness::ShadowOracle;
/// use lob_core::{Engine, EngineConfig, Lsn, OpBody, PageId};
/// use bytes::Bytes;
///
/// let engine = Engine::new(EngineConfig::small()).unwrap();
/// let mut oracle = ShadowOracle::new(256);
/// oracle.execute(&engine, OpBody::PhysicalWrite {
///     target: PageId::new(0, 0),
///     value: Bytes::from(vec![7u8; 256]),
/// }).unwrap();
/// engine.flush_all().unwrap();
/// // The stable database now matches the oracle's expectation.
/// oracle.verify_store(&engine, Lsn::MAX).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct ShadowOracle {
    page_size: usize,
    current: BTreeMap<PageId, Bytes>,
    history: Vec<(Lsn, Vec<(PageId, Bytes)>)>,
}

impl ShadowOracle {
    /// An oracle for a database of `page_size`-byte pages (all initially
    /// zero).
    pub fn new(page_size: usize) -> ShadowOracle {
        ShadowOracle {
            page_size,
            current: BTreeMap::new(),
            history: Vec::new(),
        }
    }

    fn value_of(&self, id: PageId) -> Bytes {
        self.current
            .get(&id)
            .cloned()
            .unwrap_or_else(|| Bytes::from(vec![0u8; self.page_size]))
    }

    /// Apply an operation the engine just executed (at `lsn`).
    pub fn apply(&mut self, lsn: Lsn, body: &OpBody) -> Result<(), OpError> {
        let snapshot: BTreeMap<PageId, Bytes> = body
            .readset()
            .into_iter()
            .map(|id| (id, self.value_of(id)))
            .collect();
        let page_size = self.page_size;
        let mut reader = |id: PageId| -> Result<Bytes, OpError> {
            Ok(snapshot
                .get(&id)
                .cloned()
                .unwrap_or_else(|| Bytes::from(vec![0u8; page_size])))
        };
        let outputs = body.apply(&mut reader)?;
        for (id, bytes) in &outputs {
            self.current.insert(*id, bytes.clone());
        }
        self.history.push((lsn, outputs));
        Ok(())
    }

    /// Convenience: execute on the engine *and* mirror into the oracle.
    pub fn execute(&mut self, engine: &EngineService, body: OpBody) -> Result<Lsn, String> {
        let lsn = engine
            .execute(body.clone())
            .map_err(|e| format!("engine execute failed: {e}"))?;
        self.apply(lsn, &body)
            .map_err(|e| format!("oracle apply failed: {e}"))?;
        Ok(lsn)
    }

    /// Number of operations recorded.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// Whether no operations were recorded.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// LSN of the last recorded operation.
    pub fn last_lsn(&self) -> Lsn {
        self.history.last().map(|(l, _)| *l).unwrap_or(Lsn::NULL)
    }

    /// Forget every operation above `upto` — the unforced tail a simulated
    /// crash legitimately loses. Post-recovery operations re-use those LSNs,
    /// so the lost suffix must leave the history before new entries arrive.
    pub fn truncate_to(&mut self, upto: Lsn) {
        self.history.retain(|(l, _)| *l <= upto);
        self.current = self.state_at(upto);
    }

    /// Expected page values considering only operations with `lsn <= upto`.
    pub fn state_at(&self, upto: Lsn) -> BTreeMap<PageId, Bytes> {
        let mut state = BTreeMap::new();
        for (lsn, writes) in &self.history {
            if *lsn > upto {
                break;
            }
            for (id, bytes) in writes {
                state.insert(*id, bytes.clone());
            }
        }
        state
    }

    /// Expected value of one page at a log prefix (zeroes if never written).
    pub fn expect_page(&self, id: PageId, upto: Lsn) -> Bytes {
        let mut out = None;
        for (lsn, writes) in &self.history {
            if *lsn > upto {
                break;
            }
            for (wid, bytes) in writes {
                if *wid == id {
                    out = Some(bytes.clone());
                }
            }
        }
        out.unwrap_or_else(|| Bytes::from(vec![0u8; self.page_size]))
    }

    /// Verify that the engine's stable database matches the oracle at the
    /// given log prefix, for every page the oracle ever saw written.
    /// Returns a description of the first mismatch.
    pub fn verify_store(&self, svc: &EngineService, upto: Lsn) -> Result<(), String> {
        let expect = self.state_at(upto);
        for (id, want) in &expect {
            let got = svc
                .store()
                .read_page(*id)
                .map_err(|e| format!("reading {id} from S: {e}"))?;
            if got.data() != want {
                return Err(format!(
                    "page {id} mismatch at prefix {upto}: S has {:02x?}…, oracle expects {:02x?}…",
                    &got.data()[..8.min(got.data().len())],
                    &want[..8.min(want.len())]
                ));
            }
        }
        Ok(())
    }

    /// Pages the oracle has seen written.
    pub fn touched_pages(&self) -> Vec<PageId> {
        let mut pages: Vec<PageId> = self
            .history
            .iter()
            .flat_map(|(_, ws)| ws.iter().map(|(id, _)| *id))
            .collect();
        pages.sort();
        pages.dedup();
        pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lob_core::{Engine, EngineConfig, LogicalOp};

    fn pid(i: u32) -> PageId {
        PageId::new(0, i)
    }

    #[test]
    fn oracle_mirrors_engine_exactly() {
        let e = Engine::new(EngineConfig::small()).unwrap();
        let mut o = ShadowOracle::new(256);
        o.execute(
            &e,
            OpBody::PhysicalWrite {
                target: pid(0),
                value: Bytes::from(vec![7u8; 256]),
            },
        )
        .unwrap();
        o.execute(
            &e,
            OpBody::Logical(LogicalOp::Copy {
                src: pid(0),
                dst: pid(1),
            }),
        )
        .unwrap();
        let engine_p1 = e.read_page(pid(1)).unwrap();
        assert_eq!(engine_p1.data(), &o.expect_page(pid(1), Lsn(2)));
        assert_eq!(o.len(), 2);
        assert_eq!(o.last_lsn(), Lsn(2));
        assert_eq!(o.touched_pages(), vec![pid(0), pid(1)]);
    }

    #[test]
    fn state_at_respects_prefix() {
        let e = Engine::new(EngineConfig::small()).unwrap();
        let mut o = ShadowOracle::new(256);
        for (i, fill) in [(0u32, 1u8), (0, 2), (0, 3)] {
            o.execute(
                &e,
                OpBody::PhysicalWrite {
                    target: pid(i),
                    value: Bytes::from(vec![fill; 256]),
                },
            )
            .unwrap();
        }
        assert_eq!(o.expect_page(pid(0), Lsn(1))[0], 1);
        assert_eq!(o.expect_page(pid(0), Lsn(2))[0], 2);
        assert_eq!(o.expect_page(pid(0), Lsn::MAX)[0], 3);
        assert_eq!(o.expect_page(pid(0), Lsn::NULL)[0], 0, "before everything");
    }

    #[test]
    fn verify_store_detects_mismatch_and_match() {
        let e = Engine::new(EngineConfig::small()).unwrap();
        let mut o = ShadowOracle::new(256);
        o.execute(
            &e,
            OpBody::PhysicalWrite {
                target: pid(0),
                value: Bytes::from(vec![9u8; 256]),
            },
        )
        .unwrap();
        // Not flushed yet: S still zeroed → mismatch at full prefix.
        assert!(o.verify_store(&e, Lsn::MAX).is_err());
        e.flush_all().unwrap();
        assert!(o.verify_store(&e, Lsn::MAX).is_ok());
    }
}
