//! # lob-filesys — an extent-based file layer
//!
//! The paper's file-system example (§1.1): "A copy operation copies file X
//! to file Y. This same operation form describes a sort ... With logical
//! operations, only source and target file identifiers are logged. With
//! page oriented operations, one can't avoid logging the value of Y."
//!
//! A *file* here is a named extent of record pages. The catalog (name →
//! extent) lives in a dedicated catalog page maintained with physiological
//! record operations, so the whole file system is recoverable from the
//! log.
//!
//! * [`FsVolume::copy_file`] — page-wise `Copy` operations (write-new tree
//!   ops: each destination page is freshly allocated) or, in
//!   [`CopyLogging::PageOriented`] mode, physical writes carrying the full
//!   page values in the log — the baseline the economy experiment
//!   compares against.
//! * [`FsVolume::sort_file`] — a single `SortExtent` operation reading the
//!   whole source extent and writing the whole destination extent: the
//!   canonical *general* logical operation (multi-read, multi-write),
//!   exercising multi-object write-graph nodes.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::indexing_slicing
    )
)]

use bytes::Bytes;
use lob_core::{Engine, EngineError};
use lob_ops::{LogicalOp, OpBody, PhysioOp, RecPage};
use lob_pagestore::{PageId, PartitionId};

/// How file copies are logged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyLogging {
    /// One `Copy(src, dst)` record (two identifiers) per page.
    Logical,
    /// One `W_P(dst, log(value))` record (full page value) per page.
    PageOriented,
}

/// Errors from the file layer.
#[derive(Debug)]
pub enum FsError {
    /// Underlying engine failure.
    Engine(EngineError),
    /// No such file.
    NotFound(String),
    /// A file with that name already exists.
    Exists(String),
    /// Catalog page is corrupt or full.
    Catalog(String),
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::Engine(e) => write!(f, "engine error: {e}"),
            FsError::NotFound(n) => write!(f, "no such file: {n}"),
            FsError::Exists(n) => write!(f, "file exists: {n}"),
            FsError::Catalog(m) => write!(f, "catalog error: {m}"),
        }
    }
}

impl std::error::Error for FsError {}

impl From<EngineError> for FsError {
    fn from(e: EngineError) -> Self {
        FsError::Engine(e)
    }
}

fn encode_extent(pages: &[PageId]) -> Vec<u8> {
    let mut out = Vec::with_capacity(pages.len() * 8);
    for p in pages {
        out.extend_from_slice(&p.partition.0.to_le_bytes());
        out.extend_from_slice(&p.index.to_le_bytes());
    }
    out
}

fn decode_extent(bytes: &[u8]) -> Result<Vec<PageId>, FsError> {
    if bytes.len() % 8 != 0 {
        return Err(FsError::Catalog(
            "extent record length not 8-aligned".into(),
        ));
    }
    Ok(bytes
        .chunks_exact(8)
        .filter_map(|c| match *c {
            [a0, a1, a2, a3, b0, b1, b2, b3] => Some(PageId::new(
                u32::from_le_bytes([a0, a1, a2, a3]),
                u32::from_le_bytes([b0, b1, b2, b3]),
            )),
            // chunks_exact(8) yields exactly 8-byte slices.
            _ => None,
        })
        .collect())
}

/// A key-value record: owned key and value bytes.
pub type Record = (Vec<u8>, Vec<u8>);

/// A file-system volume over one partition.
///
/// ```
/// use lob_filesys::{CopyLogging, FsVolume};
/// use lob_core::{Engine, EngineConfig, PartitionId};
///
/// let mut engine = Engine::new(EngineConfig::single(128, 512)).unwrap();
/// let vol = FsVolume::create(&mut engine, PartitionId(0)).unwrap();
/// vol.create_file(&mut engine, "data", 4).unwrap();
/// vol.write_record(&mut engine, "data", 0, b"k1", b"v1").unwrap();
/// // A logical copy logs two identifiers per page, not page contents.
/// vol.copy_file(&mut engine, "data", "data.bak", CopyLogging::Logical).unwrap();
/// assert_eq!(
///     vol.read_records(&mut engine, "data").unwrap(),
///     vol.read_records(&mut engine, "data.bak").unwrap(),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct FsVolume {
    partition: PartitionId,
    catalog: PageId,
}

impl FsVolume {
    /// Format a volume: allocates the catalog page.
    pub fn create(engine: &mut Engine, partition: PartitionId) -> Result<FsVolume, FsError> {
        let catalog = engine.alloc_page(partition)?;
        Ok(FsVolume { partition, catalog })
    }

    /// Re-open a volume from its catalog page.
    pub fn open(partition: PartitionId, catalog: PageId) -> FsVolume {
        FsVolume { partition, catalog }
    }

    /// The catalog page id.
    pub fn catalog_page(&self) -> PageId {
        self.catalog
    }

    fn read_catalog(&self, engine: &mut Engine) -> Result<RecPage, FsError> {
        let page = engine.read_page(self.catalog)?;
        RecPage::decode(self.catalog, page.data()).map_err(|e| FsError::Catalog(e.to_string()))
    }

    /// Create a file of `pages` fresh pages. Returns its extent.
    pub fn create_file(
        &self,
        engine: &mut Engine,
        name: &str,
        pages: u32,
    ) -> Result<Vec<PageId>, FsError> {
        let catalog = self.read_catalog(engine)?;
        if catalog.get(name.as_bytes()).is_some() {
            return Err(FsError::Exists(name.to_string()));
        }
        let extent: Vec<PageId> = (0..pages)
            .map(|_| engine.alloc_page(self.partition))
            .collect::<Result<_, _>>()?;
        let rec = encode_extent(&extent);
        if !catalog.fits_with(name.as_bytes(), &rec, engine.config().page_size) {
            return Err(FsError::Catalog("catalog page full".into()));
        }
        engine.execute(OpBody::Physio(PhysioOp::InsertRec {
            target: self.catalog,
            key: Bytes::copy_from_slice(name.as_bytes()),
            val: Bytes::from(rec),
        }))?;
        Ok(extent)
    }

    /// The extent of a file.
    pub fn extent(&self, engine: &mut Engine, name: &str) -> Result<Vec<PageId>, FsError> {
        let catalog = self.read_catalog(engine)?;
        match catalog.get(name.as_bytes()) {
            Some(rec) => decode_extent(rec),
            None => Err(FsError::NotFound(name.to_string())),
        }
    }

    /// File names in the catalog.
    pub fn list(&self, engine: &mut Engine) -> Result<Vec<String>, FsError> {
        let catalog = self.read_catalog(engine)?;
        Ok(catalog
            .iter()
            .map(|(k, _)| String::from_utf8_lossy(k).into_owned())
            .collect())
    }

    /// Insert a record into page `page_idx` of a file.
    pub fn write_record(
        &self,
        engine: &mut Engine,
        name: &str,
        page_idx: usize,
        key: &[u8],
        val: &[u8],
    ) -> Result<(), FsError> {
        let extent = self.extent(engine, name)?;
        let page = *extent
            .get(page_idx)
            .ok_or_else(|| FsError::NotFound(format!("{name}[{page_idx}]")))?;
        engine.execute(OpBody::Physio(PhysioOp::InsertRec {
            target: page,
            key: Bytes::copy_from_slice(key),
            val: Bytes::copy_from_slice(val),
        }))?;
        Ok(())
    }

    /// All records of a file, in extent order (per-page key order).
    pub fn read_records(&self, engine: &mut Engine, name: &str) -> Result<Vec<Record>, FsError> {
        let extent = self.extent(engine, name)?;
        let mut out = Vec::new();
        for pid in extent {
            let page = engine.read_page(pid)?;
            let rp =
                RecPage::decode(pid, page.data()).map_err(|e| FsError::Catalog(e.to_string()))?;
            out.extend(rp.into_entries());
        }
        Ok(out)
    }

    /// Copy file `src` to a new file `dst` (fresh extent), page by page.
    /// Logical mode logs two identifiers per page; page-oriented mode logs
    /// the full page values.
    pub fn copy_file(
        &self,
        engine: &mut Engine,
        src: &str,
        dst: &str,
        logging: CopyLogging,
    ) -> Result<Vec<PageId>, FsError> {
        let src_extent = self.extent(engine, src)?;
        let dst_extent = self.create_file(engine, dst, src_extent.len() as u32)?;
        for (s, d) in src_extent.iter().zip(&dst_extent) {
            match logging {
                CopyLogging::Logical => {
                    engine.execute(OpBody::Logical(LogicalOp::Copy { src: *s, dst: *d }))?;
                }
                CopyLogging::PageOriented => {
                    let value = engine.read_page(*s)?.data().clone();
                    engine.execute(OpBody::PhysicalWrite { target: *d, value })?;
                }
            }
        }
        Ok(dst_extent)
    }

    /// Sort the records of `src` into a new file `dst` with one logical
    /// `SortExtent` operation — a general logical operation (reads the
    /// whole source extent, writes the whole destination extent). Requires
    /// the engine's `General` discipline.
    pub fn sort_file(
        &self,
        engine: &mut Engine,
        src: &str,
        dst: &str,
    ) -> Result<Vec<PageId>, FsError> {
        let src_extent = self.extent(engine, src)?;
        let dst_extent = self.create_file(engine, dst, src_extent.len() as u32)?;
        engine.execute(OpBody::Logical(LogicalOp::SortExtent {
            src: src_extent,
            dst: dst_extent.clone(),
        }))?;
        Ok(dst_extent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lob_core::{Discipline, EngineConfig};

    fn engine() -> Engine {
        Engine::new(EngineConfig::single(128, 256)).unwrap()
    }

    fn fill(vol: &FsVolume, e: &mut Engine, name: &str, n: usize) {
        let extent = vol.extent(e, name).unwrap();
        for i in 0..n {
            let page_idx = i % extent.len();
            vol.write_record(
                e,
                name,
                page_idx,
                format!("k{:03}", (n - i) * 7 % 100).as_bytes(),
                format!("v{i}").as_bytes(),
            )
            .unwrap();
        }
    }

    #[test]
    fn create_and_list_files() {
        let mut e = engine();
        let vol = FsVolume::create(&mut e, PartitionId(0)).unwrap();
        let ext = vol.create_file(&mut e, "alpha", 3).unwrap();
        assert_eq!(ext.len(), 3);
        vol.create_file(&mut e, "beta", 2).unwrap();
        let mut names = vol.list(&mut e).unwrap();
        names.sort();
        assert_eq!(names, vec!["alpha", "beta"]);
        assert!(matches!(
            vol.create_file(&mut e, "alpha", 1),
            Err(FsError::Exists(_))
        ));
        assert!(matches!(
            vol.extent(&mut e, "gamma"),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn records_round_trip() {
        let mut e = engine();
        let vol = FsVolume::create(&mut e, PartitionId(0)).unwrap();
        vol.create_file(&mut e, "f", 2).unwrap();
        vol.write_record(&mut e, "f", 0, b"a", b"1").unwrap();
        vol.write_record(&mut e, "f", 1, b"b", b"2").unwrap();
        let recs = vol.read_records(&mut e, "f").unwrap();
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn logical_copy_replicates_content() {
        let mut e = engine();
        let vol = FsVolume::create(&mut e, PartitionId(0)).unwrap();
        vol.create_file(&mut e, "src", 3).unwrap();
        fill(&vol, &mut e, "src", 12);
        vol.copy_file(&mut e, "src", "dst", CopyLogging::Logical)
            .unwrap();
        assert_eq!(
            vol.read_records(&mut e, "src").unwrap(),
            vol.read_records(&mut e, "dst").unwrap()
        );
    }

    #[test]
    fn copy_logging_economy() {
        let run = |logging: CopyLogging| {
            let mut e = engine();
            let vol = FsVolume::create(&mut e, PartitionId(0)).unwrap();
            vol.create_file(&mut e, "src", 8).unwrap();
            fill(&vol, &mut e, "src", 24);
            let before = e.log().stats().bytes;
            vol.copy_file(&mut e, "src", "dst", logging).unwrap();
            e.log().stats().bytes - before
        };
        let logical = run(CopyLogging::Logical);
        let physical = run(CopyLogging::PageOriented);
        assert!(
            logical * 4 < physical,
            "copy: logical {logical}B should be far below page-oriented {physical}B"
        );
    }

    #[test]
    fn sort_file_produces_sorted_records() {
        let mut e = engine();
        let vol = FsVolume::create(&mut e, PartitionId(0)).unwrap();
        vol.create_file(&mut e, "in", 4).unwrap();
        fill(&vol, &mut e, "in", 20);
        vol.sort_file(&mut e, "in", "out").unwrap();
        let out = vol.read_records(&mut e, "out").unwrap();
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "globally sorted");
        let mut input = vol.read_records(&mut e, "in").unwrap();
        input.sort();
        input.dedup_by(|a, b| a.0 == b.0);
        assert_eq!(out.len(), input.len());
    }

    #[test]
    fn copy_and_sort_survive_crash_recovery() {
        let mut e = engine();
        let vol = FsVolume::create(&mut e, PartitionId(0)).unwrap();
        vol.create_file(&mut e, "src", 3).unwrap();
        fill(&vol, &mut e, "src", 9);
        vol.copy_file(&mut e, "src", "cp", CopyLogging::Logical)
            .unwrap();
        vol.sort_file(&mut e, "src", "sorted").unwrap();
        let expect_cp = vol.read_records(&mut e, "cp").unwrap();
        let expect_sorted = vol.read_records(&mut e, "sorted").unwrap();
        e.force_log().unwrap();
        e.crash();
        e.recover().unwrap();
        let vol2 = FsVolume::open(PartitionId(0), vol.catalog_page());
        assert_eq!(vol2.read_records(&mut e, "cp").unwrap(), expect_cp);
        assert_eq!(vol2.read_records(&mut e, "sorted").unwrap(), expect_sorted);
    }

    #[test]
    fn sort_requires_general_discipline() {
        let mut e = Engine::new(EngineConfig {
            discipline: Discipline::Tree,
            ..EngineConfig::single(64, 256)
        })
        .unwrap();
        let vol = FsVolume::create(&mut e, PartitionId(0)).unwrap();
        vol.create_file(&mut e, "in", 2).unwrap();
        assert!(vol.sort_file(&mut e, "in", "out").is_err());
        // But logical copy (a tree op) is fine.
        vol.copy_file(&mut e, "in", "cp", CopyLogging::Logical)
            .unwrap();
    }
}
