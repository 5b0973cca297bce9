//! The benchmark's shadow copy: the state the stable database must hold
//! after every crash-redo and every restore.
//!
//! `lob_harness::ShadowOracle` keeps the full per-LSN history so it can
//! answer "state at any log prefix"; the benchmark commits every write it
//! mirrors, so only the current state is ever asked for — kept here as
//! one value per page, fed the same ops through the same
//! [`OpBody::apply`].

use bytes::Bytes;
use lob_ops::{OpBody, OpError};
use lob_pagestore::PageId;
use std::collections::BTreeMap;

pub struct PageShadow {
    pages_per_partition: u32,
    pages: Vec<Bytes>,
}

impl PageShadow {
    pub fn new(partitions: u32, pages_per_partition: u32, page_size: usize) -> PageShadow {
        let blank = Bytes::from(vec![0u8; page_size]);
        PageShadow {
            pages_per_partition,
            pages: vec![blank; (partitions * pages_per_partition) as usize],
        }
    }

    fn slot(&self, id: PageId) -> usize {
        (id.partition.0 * self.pages_per_partition + id.index) as usize
    }

    pub fn apply(&mut self, body: &OpBody) -> Result<(), OpError> {
        let outputs = {
            let mut reader =
                |id: PageId| -> Result<Bytes, OpError> { Ok(self.pages[self.slot(id)].clone()) };
            body.apply(&mut reader)?
        };
        for (id, bytes) in outputs {
            let slot = self.slot(id);
            self.pages[slot] = bytes;
        }
        Ok(())
    }

    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Byte-compare every page against `stable(id)`; returns how many
    /// differ (or could not be read).
    pub fn mismatches(&self, mut stable: impl FnMut(PageId) -> Option<Bytes>) -> u64 {
        let mut bad = 0;
        for (slot, want) in self.pages.iter().enumerate() {
            let id = PageId::new(
                slot as u32 / self.pages_per_partition,
                slot as u32 % self.pages_per_partition,
            );
            match stable(id) {
                Some(got) if got == *want => {}
                _ => bad += 1,
            }
        }
        bad
    }
}

/// Shadow of the B-tree workload: the key-value map the tree must hold.
#[derive(Default)]
pub struct TreeShadow {
    map: BTreeMap<Vec<u8>, Vec<u8>>,
}

impl TreeShadow {
    pub fn insert(&mut self, key: Vec<u8>, value: Vec<u8>) {
        self.map.insert(key, value);
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Compare a full in-order scan of the tree with the map; returns the
    /// number of differing positions (length difference included).
    pub fn mismatches(&self, scan: &[(Vec<u8>, Vec<u8>)]) -> u64 {
        let differing = self
            .map
            .iter()
            .zip(scan)
            .filter(|((k, v), (sk, sv))| *k != sk || *v != sv)
            .count() as u64;
        differing + self.map.len().abs_diff(scan.len()) as u64
    }
}
