//! Operation bodies: read/write sets and deterministic redo.

use crate::class::{OpClass, TreeForm};
use crate::error::OpError;
use crate::mix;
use crate::recpage::RecPage;
use bytes::Bytes;
use lob_pagestore::PageId;

/// Source of page values for [`OpBody::apply`]. During normal execution this
/// is the cache manager; during recovery it is the cache over the restored
/// stable database.
pub trait PageReader {
    /// Current value of page `id`.
    fn read(&mut self, id: PageId) -> Result<Bytes, OpError>;
}

/// Blanket impl so closures can serve as readers in tests.
impl<F> PageReader for F
where
    F: FnMut(PageId) -> Result<Bytes, OpError>,
{
    fn read(&mut self, id: PageId) -> Result<Bytes, OpError> {
        self(id)
    }
}

/// A physiological operation `W_PL(X)`: reads and writes exactly one page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhysioOp {
    /// Overlay `bytes` at `offset` within the target page.
    SetBytes {
        /// Page read and written.
        target: PageId,
        /// Byte offset of the overlay.
        offset: u32,
        /// Bytes written at the offset.
        bytes: Bytes,
    },
    /// Insert (or replace) a record in a record page ("the insert of a
    /// record onto a page" — the paper's canonical physiological example).
    InsertRec {
        /// Record page.
        target: PageId,
        /// Record key.
        key: Bytes,
        /// Record value.
        val: Bytes,
    },
    /// Delete a record from a record page.
    DeleteRec {
        /// Record page.
        target: PageId,
        /// Key to delete.
        key: Bytes,
    },
    /// `RmvRec(old, key)`: remove all records with keys greater than `sep`
    /// from the page — the second half of a logically-logged B-tree split.
    RmvRec {
        /// Record page (the split's `old` node).
        target: PageId,
        /// Separator key; records strictly above it are removed.
        sep: Bytes,
    },
    /// `Ex(A)`: application execution between resource-manager calls — a
    /// physiological state transition of the application object.
    AppExec {
        /// Application state page.
        app: PageId,
        /// Captures the nondeterministic outcome of the execution interval
        /// so replay is deterministic.
        salt: u64,
    },
}

impl PhysioOp {
    /// The single page this operation reads and writes.
    pub fn target(&self) -> PageId {
        match *self {
            PhysioOp::SetBytes { target, .. }
            | PhysioOp::InsertRec { target, .. }
            | PhysioOp::DeleteRec { target, .. }
            | PhysioOp::RmvRec { target, .. } => target,
            PhysioOp::AppExec { app, .. } => app,
        }
    }
}

/// A logical operation: reads one or more pages, writes one or more
/// (potentially different) pages (paper §1.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogicalOp {
    /// `copy(X, Y)`: copy the value of `src` to `dst`. Reads `src` only;
    /// blind with respect to `dst`.
    Copy {
        /// Source page.
        src: PageId,
        /// Destination page.
        dst: PageId,
    },
    /// `MovRec(old, key, new)`: initialize `new` with the records of `old`
    /// whose keys exceed `sep` — the first half of a logically-logged B-tree
    /// split. Reads `old`, writes only `new`.
    MovRec {
        /// Source node of the split.
        old: PageId,
        /// Separator key.
        sep: Bytes,
        /// Newly allocated node receiving the high records.
        new: PageId,
    },
    /// `R(X, A)`: application read — `app` absorbs the value of `src` into
    /// its state. Reads `src` and `app`, writes `app`.
    AppRead {
        /// Input page read by the application.
        src: PageId,
        /// Application state page.
        app: PageId,
    },
    /// `W_L(A, X)`: application logical write — `dst` is derived from the
    /// application's output buffer (its state). Reads `app`, writes `dst`.
    AppWrite {
        /// Application state page.
        app: PageId,
        /// Output page written.
        dst: PageId,
    },
    /// `MergeRec(src, dst)`: append every record of `src` into `dst` — the
    /// dual of `MovRec`, used for B-tree underflow merges. Reads both pages
    /// (the shape of the paper's §6.2 read-extra operations: `dst` is read
    /// and written, `src` adds a successor edge), writes only `dst`. The
    /// caller guarantees disjoint key ranges.
    MergeRec {
        /// Node whose records move (left-sibling merges read the right
        /// node).
        src: PageId,
        /// Node absorbing the records.
        dst: PageId,
    },
    /// Sort the records held in the `src` extent into the `dst` extent
    /// (the paper's file-sort example: "X is the unsorted input and Y is the
    /// sorted output"). Reads every `src` page, writes every `dst` page.
    SortExtent {
        /// Unsorted input extent.
        src: Vec<PageId>,
        /// Sorted output extent (densely filled in order).
        dst: Vec<PageId>,
    },
    /// Synthetic general logical operation: every written page gets a
    /// deterministic mix of all read pages. Used by the randomized workloads
    /// behind the Figure 5 measurements.
    Mix {
        /// Pages read.
        reads: Vec<PageId>,
        /// Pages written.
        writes: Vec<PageId>,
        /// Key making distinct operations produce distinct values.
        salt: u64,
    },
}

/// A log operation body: the payload of one log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpBody {
    /// `W_P(X, log(v))`: physical write, value carried in the log record.
    PhysicalWrite {
        /// Page written.
        target: PageId,
        /// Full page value.
        value: Bytes,
    },
    /// `W_IP(X, log(X))`: cache-manager identity write. Semantically a
    /// physical write of the page's current value; kept distinct so the
    /// experiments can count Iw/oF logging separately.
    IdentityWrite {
        /// Page "written" (unchanged).
        target: PageId,
        /// The page's value at the time of the identity write.
        value: Bytes,
    },
    /// A physiological operation.
    Physio(PhysioOp),
    /// A logical operation.
    Logical(LogicalOp),
}

impl OpBody {
    /// The operation's class (paper Table 1).
    pub fn class(&self) -> OpClass {
        match self {
            OpBody::PhysicalWrite { .. } => OpClass::Physical,
            OpBody::IdentityWrite { .. } => OpClass::Identity,
            OpBody::Physio(_) => OpClass::Physiological,
            OpBody::Logical(_) => OpClass::Logical,
        }
    }

    /// `readset(Op)`: pages whose values the operation reads, collected from
    /// [`OpBody::for_each_read`] (the one declaration of the set).
    pub fn readset(&self) -> Vec<PageId> {
        let mut out = Vec::new();
        self.for_each_read(|p| out.push(p));
        out
    }

    /// `writeset(Op)`: pages the operation writes, collected from
    /// [`OpBody::for_each_write`] (the one declaration of the set).
    pub fn writeset(&self) -> Vec<PageId> {
        let mut out = Vec::new();
        self.for_each_write(|p| out.push(p));
        out
    }

    /// Visit every page of `readset(Op)` without allocating: the pages
    /// `apply` reads through its `PageReader`, in order.
    pub fn for_each_read(&self, mut f: impl FnMut(PageId)) {
        match self {
            OpBody::PhysicalWrite { .. } | OpBody::IdentityWrite { .. } => {}
            OpBody::Physio(p) => f(p.target()),
            OpBody::Logical(l) => match l {
                LogicalOp::Copy { src, .. } => f(*src),
                LogicalOp::MovRec { old, .. } => f(*old),
                LogicalOp::AppRead { src, app } => {
                    f(*src);
                    f(*app);
                }
                LogicalOp::AppWrite { app, .. } => f(*app),
                LogicalOp::MergeRec { src, dst } => {
                    f(*src);
                    f(*dst);
                }
                LogicalOp::SortExtent { src, .. } => src.iter().copied().for_each(f),
                LogicalOp::Mix { reads, .. } => reads.iter().copied().for_each(f),
            },
        }
    }

    /// Visit every page of `writeset(Op)` without allocating: the pages
    /// `apply` returns as writes, in order.
    pub fn for_each_write(&self, mut f: impl FnMut(PageId)) {
        match self {
            OpBody::PhysicalWrite { target, .. } | OpBody::IdentityWrite { target, .. } => {
                f(*target)
            }
            OpBody::Physio(p) => f(p.target()),
            OpBody::Logical(l) => match l {
                LogicalOp::Copy { dst, .. } => f(*dst),
                LogicalOp::MovRec { new, .. } => f(*new),
                LogicalOp::AppRead { app, .. } => f(*app),
                LogicalOp::AppWrite { dst, .. } => f(*dst),
                LogicalOp::MergeRec { dst, .. } => f(*dst),
                LogicalOp::SortExtent { dst, .. } => dst.iter().copied().for_each(f),
                LogicalOp::Mix { writes, .. } => writes.iter().copied().for_each(f),
            },
        }
    }

    /// Whether the operation writes `page` *blindly*, i.e. without reading
    /// `page`'s prior value. Blind writes are what allow the refined write
    /// graph to un-expose old values (paper §2.4).
    pub fn is_blind_write_of(&self, page: PageId) -> bool {
        self.writeset().contains(&page) && !self.readset().contains(&page)
    }

    /// The operation's shape under the tree-operation discipline of §4, if
    /// it has one. `None` means the operation is irreducibly general
    /// (multiple writes, or multiple reads feeding a write-new).
    pub fn tree_form(&self) -> Option<TreeForm> {
        match self {
            OpBody::PhysicalWrite { target, .. } | OpBody::IdentityWrite { target, .. } => {
                Some(TreeForm::PageOriented { target: *target })
            }
            OpBody::Physio(p) => Some(TreeForm::PageOriented { target: p.target() }),
            OpBody::Logical(l) => match l {
                LogicalOp::Copy { src, dst } => Some(TreeForm::WriteNew {
                    old: *src,
                    new: *dst,
                }),
                LogicalOp::MovRec { old, new, .. } => Some(TreeForm::WriteNew {
                    old: *old,
                    new: *new,
                }),
                LogicalOp::AppWrite { app, dst } => Some(TreeForm::WriteNew {
                    old: *app,
                    new: *dst,
                }),
                LogicalOp::AppRead { src, app } => Some(TreeForm::ReadExtra {
                    target: *app,
                    extra: vec![*src],
                }),
                LogicalOp::MergeRec { src, dst } => Some(TreeForm::ReadExtra {
                    target: *dst,
                    extra: vec![*src],
                }),
                LogicalOp::SortExtent { .. } | LogicalOp::Mix { .. } => None,
            },
        }
    }

    /// Evaluate the operation: read its read set through `reader` and return
    /// the new values of its write set, in `writeset()` order.
    ///
    /// This function is **deterministic** in the read values, which is the
    /// contract redo replay depends on. The caller decides, per written
    /// page, whether to install the value (LSN redo test).
    pub fn apply(&self, reader: &mut dyn PageReader) -> Result<Vec<(PageId, Bytes)>, OpError> {
        match self {
            OpBody::PhysicalWrite { target, value } | OpBody::IdentityWrite { target, value } => {
                Ok(vec![(*target, value.clone())])
            }
            OpBody::Physio(p) => apply_physio(p, reader),
            OpBody::Logical(l) => apply_logical(l, reader),
        }
    }

    /// Validate structural well-formedness (unique write set, nonempty write
    /// set, reads/writes as the form requires). The engine calls this before
    /// logging an operation.
    pub fn validate(&self) -> Result<(), OpError> {
        let writes = self.writeset();
        if writes.is_empty() {
            return Err(OpError::Invalid("empty write set".into()));
        }
        let mut sorted = writes.clone();
        sorted.sort();
        sorted.dedup();
        if sorted.len() != writes.len() {
            return Err(OpError::Invalid("duplicate pages in write set".into()));
        }
        if let OpBody::Logical(LogicalOp::Mix { reads, .. }) = self {
            if reads.is_empty() {
                return Err(OpError::Invalid("Mix must read at least one page".into()));
            }
        }
        if let OpBody::Logical(LogicalOp::SortExtent { src, dst }) = self {
            if src.is_empty() || dst.is_empty() {
                return Err(OpError::Invalid(
                    "SortExtent extents must be nonempty".into(),
                ));
            }
        }
        Ok(())
    }

    /// Short label for logs and experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            OpBody::PhysicalWrite { .. } => "W_P",
            OpBody::IdentityWrite { .. } => "W_IP",
            OpBody::Physio(PhysioOp::SetBytes { .. }) => "SetBytes",
            OpBody::Physio(PhysioOp::InsertRec { .. }) => "InsRec",
            OpBody::Physio(PhysioOp::DeleteRec { .. }) => "DelRec",
            OpBody::Physio(PhysioOp::RmvRec { .. }) => "RmvRec",
            OpBody::Physio(PhysioOp::AppExec { .. }) => "Ex",
            OpBody::Logical(LogicalOp::Copy { .. }) => "Copy",
            OpBody::Logical(LogicalOp::MovRec { .. }) => "MovRec",
            OpBody::Logical(LogicalOp::AppRead { .. }) => "R",
            OpBody::Logical(LogicalOp::AppWrite { .. }) => "W_L",
            OpBody::Logical(LogicalOp::MergeRec { .. }) => "MergeRec",
            OpBody::Logical(LogicalOp::SortExtent { .. }) => "Sort",
            OpBody::Logical(LogicalOp::Mix { .. }) => "Mix",
        }
    }
}

fn apply_physio(
    p: &PhysioOp,
    reader: &mut dyn PageReader,
) -> Result<Vec<(PageId, Bytes)>, OpError> {
    match p {
        PhysioOp::SetBytes {
            target,
            offset,
            bytes,
        } => {
            let cur = reader.read(*target)?;
            let off = *offset as usize;
            if off + bytes.len() > cur.len() {
                return Err(OpError::Invalid(format!(
                    "SetBytes overlay {}..{} exceeds page size {}",
                    off,
                    off + bytes.len(),
                    cur.len()
                )));
            }
            let mut out = cur.to_vec();
            #[expect(
                clippy::indexing_slicing,
                reason = "the overlay range is checked against the page size above"
            )]
            out[off..off + bytes.len()].copy_from_slice(bytes);
            Ok(vec![(*target, Bytes::from(out))])
        }
        PhysioOp::InsertRec { target, key, val } => {
            let cur = reader.read(*target)?;
            let size = cur.len();
            let mut page = RecPage::decode(*target, &cur)?;
            page.insert(key.to_vec(), val.to_vec());
            Ok(vec![(*target, page.encode(*target, size)?)])
        }
        PhysioOp::DeleteRec { target, key } => {
            let cur = reader.read(*target)?;
            let size = cur.len();
            let mut page = RecPage::decode(*target, &cur)?;
            page.delete(key);
            Ok(vec![(*target, page.encode(*target, size)?)])
        }
        PhysioOp::RmvRec { target, sep } => {
            let cur = reader.read(*target)?;
            let size = cur.len();
            let mut page = RecPage::decode(*target, &cur)?;
            page.remove_above(sep);
            Ok(vec![(*target, page.encode(*target, size)?)])
        }
        PhysioOp::AppExec { app, salt } => {
            let cur = reader.read(*app)?;
            let out = mix::derive_page(*salt ^ 0xE0EC, 0, &[&cur], cur.len());
            Ok(vec![(*app, Bytes::from(out))])
        }
    }
}

fn apply_logical(
    l: &LogicalOp,
    reader: &mut dyn PageReader,
) -> Result<Vec<(PageId, Bytes)>, OpError> {
    match l {
        LogicalOp::Copy { src, dst } => {
            let v = reader.read(*src)?;
            Ok(vec![(*dst, v)])
        }
        LogicalOp::MovRec { old, sep, new } => {
            let cur = reader.read(*old)?;
            let size = cur.len();
            let page = RecPage::decode(*old, &cur)?;
            let moved = RecPage::from_sorted(page.records_above(sep));
            Ok(vec![(*new, moved.encode(*new, size)?)])
        }
        LogicalOp::AppRead { src, app } => {
            let x = reader.read(*src)?;
            let a = reader.read(*app)?;
            let out = mix::derive_page(0xA99D, 0, &[&a, &x], a.len());
            Ok(vec![(*app, Bytes::from(out))])
        }
        LogicalOp::AppWrite { app, dst } => {
            let a = reader.read(*app)?;
            let out = mix::derive_page(0xA77E, 0, &[&a], a.len());
            Ok(vec![(*dst, Bytes::from(out))])
        }
        LogicalOp::MergeRec { src, dst } => {
            let src_bytes = reader.read(*src)?;
            let dst_bytes = reader.read(*dst)?;
            let size = dst_bytes.len();
            let mut merged = RecPage::decode(*dst, &dst_bytes)?;
            let moving = RecPage::decode(*src, &src_bytes)?;
            for (k, v) in moving.iter() {
                merged.insert(k.to_vec(), v.to_vec());
            }
            Ok(vec![(*dst, merged.encode(*dst, size)?)])
        }
        LogicalOp::SortExtent { src, dst } => {
            let mut all: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            let mut size = 0;
            for &s in src {
                let cur = reader.read(s)?;
                size = cur.len();
                let page = RecPage::decode(s, &cur)?;
                all.extend(page.into_entries());
            }
            // Last occurrence of a duplicate key (across pages) wins, as if
            // the extent were scanned in order.
            all.sort_by(|a, b| a.0.cmp(&b.0));
            all.dedup_by(|later, earlier| {
                if later.0 == earlier.0 {
                    // `dedup_by` removes `later` when true and keeps
                    // `earlier`; swap values so the later one survives.
                    std::mem::swap(&mut later.1, &mut earlier.1);
                    true
                } else {
                    false
                }
            });
            // Greedily pack sorted records into the destination extent.
            let mut out = Vec::with_capacity(dst.len());
            let mut it = all.into_iter().peekable();
            for &d in dst {
                let mut page = RecPage::new();
                while let Some((k, v)) = it.next_if(|(k, v)| page.fits_with(k, v, size)) {
                    page.insert(k, v);
                }
                out.push((d, page.encode(d, size)?));
            }
            if it.peek().is_some() {
                return Err(match dst.last() {
                    Some(&d) => OpError::PageFull { page: d },
                    None => OpError::Invalid("sort with an empty destination extent".to_string()),
                });
            }
            Ok(out)
        }
        LogicalOp::Mix {
            reads,
            writes,
            salt,
        } => {
            let mut inputs = Vec::with_capacity(reads.len());
            let mut size = 0;
            for &r in reads {
                let v = reader.read(r)?;
                size = v.len();
                inputs.push(v);
            }
            let refs: Vec<&[u8]> = inputs.iter().map(|b| b.as_ref()).collect();
            Ok(writes
                .iter()
                .enumerate()
                .map(|(i, &w)| {
                    (
                        w,
                        Bytes::from(mix::derive_page(*salt, i as u64, &refs, size)),
                    )
                })
                .collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    const SIZE: usize = 64;

    struct MapReader(HashMap<PageId, Bytes>);

    impl PageReader for MapReader {
        fn read(&mut self, id: PageId) -> Result<Bytes, OpError> {
            self.0.get(&id).cloned().ok_or(OpError::ReadFailed {
                page: id,
                cause: "absent".into(),
            })
        }
    }

    fn pid(i: u32) -> PageId {
        PageId::new(0, i)
    }

    fn recpage_bytes(id: PageId, kvs: &[(&str, &str)]) -> Bytes {
        let mut p = RecPage::new();
        for (k, v) in kvs {
            p.insert(k.as_bytes().to_vec(), v.as_bytes().to_vec());
        }
        p.encode(id, SIZE).unwrap()
    }

    fn reader(pages: &[(PageId, Bytes)]) -> MapReader {
        MapReader(pages.iter().cloned().collect())
    }

    #[test]
    fn physical_write_is_blind() {
        let op = OpBody::PhysicalWrite {
            target: pid(1),
            value: Bytes::from(vec![7u8; SIZE]),
        };
        assert_eq!(op.class(), OpClass::Physical);
        assert!(op.readset().is_empty());
        assert_eq!(op.writeset(), vec![pid(1)]);
        assert!(op.is_blind_write_of(pid(1)));
        let out = op.apply(&mut reader(&[])).unwrap();
        assert_eq!(out[0].1[0], 7);
    }

    #[test]
    fn identity_write_reports_identity_class() {
        let op = OpBody::IdentityWrite {
            target: pid(1),
            value: Bytes::from(vec![0u8; SIZE]),
        };
        assert_eq!(op.class(), OpClass::Identity);
        assert!(op.class().is_page_oriented());
        assert!(op.is_blind_write_of(pid(1)));
    }

    #[test]
    fn setbytes_overlays() {
        let op = OpBody::Physio(PhysioOp::SetBytes {
            target: pid(0),
            offset: 2,
            bytes: Bytes::from_static(b"xyz"),
        });
        let base = Bytes::from(vec![b'.'; SIZE]);
        let out = op.apply(&mut reader(&[(pid(0), base)])).unwrap();
        assert_eq!(&out[0].1[..6], b"..xyz.");
        assert_eq!(op.readset(), vec![pid(0)]);
        assert!(!op.is_blind_write_of(pid(0)));
    }

    #[test]
    fn setbytes_bounds_checked() {
        let op = OpBody::Physio(PhysioOp::SetBytes {
            target: pid(0),
            offset: SIZE as u32 - 1,
            bytes: Bytes::from_static(b"ab"),
        });
        let base = Bytes::from(vec![0u8; SIZE]);
        assert!(op.apply(&mut reader(&[(pid(0), base)])).is_err());
    }

    #[test]
    fn insert_and_delete_rec() {
        let base = recpage_bytes(pid(0), &[("b", "1")]);
        let ins = OpBody::Physio(PhysioOp::InsertRec {
            target: pid(0),
            key: Bytes::from_static(b"a"),
            val: Bytes::from_static(b"0"),
        });
        let out = ins.apply(&mut reader(&[(pid(0), base)])).unwrap();
        let page = RecPage::decode(pid(0), &out[0].1).unwrap();
        assert_eq!(page.len(), 2);
        assert_eq!(page.get(b"a"), Some(b"0".as_slice()));

        let del = OpBody::Physio(PhysioOp::DeleteRec {
            target: pid(0),
            key: Bytes::from_static(b"b"),
        });
        let out2 = del
            .apply(&mut reader(&[(pid(0), out[0].1.clone())]))
            .unwrap();
        let page2 = RecPage::decode(pid(0), &out2[0].1).unwrap();
        assert_eq!(page2.len(), 1);
        assert!(page2.get(b"b").is_none());
    }

    #[test]
    fn movrec_then_rmvrec_is_a_split() {
        let base = recpage_bytes(pid(0), &[("a", "1"), ("c", "3"), ("e", "5"), ("g", "7")]);
        let mov = OpBody::Logical(LogicalOp::MovRec {
            old: pid(0),
            sep: Bytes::from_static(b"c"),
            new: pid(1),
        });
        assert_eq!(mov.readset(), vec![pid(0)]);
        assert_eq!(mov.writeset(), vec![pid(1)]);
        assert!(mov.is_blind_write_of(pid(1)));
        assert_eq!(
            mov.tree_form(),
            Some(TreeForm::WriteNew {
                old: pid(0),
                new: pid(1)
            })
        );

        let out = mov.apply(&mut reader(&[(pid(0), base.clone())])).unwrap();
        let newp = RecPage::decode(pid(1), &out[0].1).unwrap();
        assert_eq!(newp.len(), 2);
        assert_eq!(newp.get(b"e"), Some(b"5".as_slice()));
        assert_eq!(newp.get(b"g"), Some(b"7".as_slice()));

        let rmv = OpBody::Physio(PhysioOp::RmvRec {
            target: pid(0),
            sep: Bytes::from_static(b"c"),
        });
        let out2 = rmv.apply(&mut reader(&[(pid(0), base)])).unwrap();
        let oldp = RecPage::decode(pid(0), &out2[0].1).unwrap();
        assert_eq!(oldp.len(), 2);
        assert!(oldp.get(b"e").is_none());
    }

    #[test]
    fn copy_moves_value_verbatim() {
        let v = Bytes::from(vec![0xAA; SIZE]);
        let op = OpBody::Logical(LogicalOp::Copy {
            src: pid(3),
            dst: pid(9),
        });
        let out = op.apply(&mut reader(&[(pid(3), v.clone())])).unwrap();
        assert_eq!(out, vec![(pid(9), v)]);
    }

    #[test]
    fn app_ops_shapes() {
        let r = OpBody::Logical(LogicalOp::AppRead {
            src: pid(1),
            app: pid(2),
        });
        assert_eq!(r.readset(), vec![pid(1), pid(2)]);
        assert_eq!(r.writeset(), vec![pid(2)]);
        assert!(matches!(r.tree_form(), Some(TreeForm::ReadExtra { .. })));

        let w = OpBody::Logical(LogicalOp::AppWrite {
            app: pid(2),
            dst: pid(5),
        });
        assert!(w.is_blind_write_of(pid(5)));
        assert_eq!(
            w.tree_form(),
            Some(TreeForm::WriteNew {
                old: pid(2),
                new: pid(5)
            })
        );

        let ex = OpBody::Physio(PhysioOp::AppExec {
            app: pid(2),
            salt: 4,
        });
        assert_eq!(
            ex.tree_form(),
            Some(TreeForm::PageOriented { target: pid(2) })
        );
    }

    #[test]
    fn app_read_depends_on_both_inputs() {
        let a = Bytes::from(vec![1u8; SIZE]);
        let x1 = Bytes::from(vec![2u8; SIZE]);
        let x2 = Bytes::from(vec![3u8; SIZE]);
        let op = OpBody::Logical(LogicalOp::AppRead {
            src: pid(1),
            app: pid(2),
        });
        let o1 = op
            .apply(&mut reader(&[(pid(1), x1), (pid(2), a.clone())]))
            .unwrap();
        let o2 = op.apply(&mut reader(&[(pid(1), x2), (pid(2), a)])).unwrap();
        assert_ne!(o1[0].1, o2[0].1, "different inputs → different app state");
    }

    #[test]
    fn sort_extent_sorts_and_packs() {
        let p0 = recpage_bytes(pid(0), &[("d", "4"), ("b", "2")]);
        let p1 = recpage_bytes(pid(1), &[("a", "1"), ("c", "3")]);
        let op = OpBody::Logical(LogicalOp::SortExtent {
            src: vec![pid(0), pid(1)],
            dst: vec![pid(10), pid(11)],
        });
        assert!(op.tree_form().is_none(), "sort is irreducibly general");
        let out = op
            .apply(&mut reader(&[(pid(0), p0), (pid(1), p1)]))
            .unwrap();
        assert_eq!(out.len(), 2);
        let first = RecPage::decode(pid(10), &out[0].1).unwrap();
        let all: Vec<Vec<u8>> = first.iter().map(|(k, _)| k.to_vec()).collect();
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        // All four records land somewhere and first page is filled first.
        let second = RecPage::decode(pid(11), &out[1].1).unwrap();
        assert_eq!(first.len() + second.len(), 4);
        assert!(first.len() >= second.len());
    }

    #[test]
    fn sort_extent_duplicate_keys_last_wins() {
        let p0 = recpage_bytes(pid(0), &[("k", "old")]);
        let p1 = recpage_bytes(pid(1), &[("k", "new")]);
        let op = OpBody::Logical(LogicalOp::SortExtent {
            src: vec![pid(0), pid(1)],
            dst: vec![pid(10)],
        });
        let out = op
            .apply(&mut reader(&[(pid(0), p0), (pid(1), p1)]))
            .unwrap();
        let page = RecPage::decode(pid(10), &out[0].1).unwrap();
        assert_eq!(page.get(b"k"), Some(b"new".as_slice()));
    }

    #[test]
    fn sort_extent_overflow_errors() {
        let mut big = RecPage::new();
        for i in 0..5u8 {
            big.insert(vec![i], vec![0u8; 10]);
        }
        let src = big.encode(pid(0), 128).unwrap();
        let op = OpBody::Logical(LogicalOp::SortExtent {
            src: vec![pid(0)],
            dst: vec![pid(1)],
        });
        // dst pages inherit the 128-byte size; 5 × 15B records fit (77B),
        // so shrink page capacity by using many more records instead.
        let mut huge = RecPage::new();
        for i in 0..9u8 {
            huge.insert(vec![i], vec![0u8; 10]);
        }
        assert!(huge.encode(pid(0), 256).is_ok());
        let src2 = huge.encode(pid(0), 256).unwrap();
        let op2 = OpBody::Logical(LogicalOp::SortExtent {
            src: vec![pid(0)],
            dst: vec![pid(1)],
        });
        // 9 records × 15B + 2 = 137B fits in 256 → ok.
        assert!(op2.apply(&mut reader(&[(pid(0), src2)])).is_ok());
        // One 128B destination page cannot hold 5 × 15B + header? 77B fits;
        // verify the success path too.
        assert!(op.apply(&mut reader(&[(pid(0), src)])).is_ok());
    }

    #[test]
    fn mix_is_deterministic_and_input_sensitive() {
        let op = OpBody::Logical(LogicalOp::Mix {
            reads: vec![pid(0), pid(1)],
            writes: vec![pid(2), pid(3)],
            salt: 99,
        });
        let a = Bytes::from(vec![1u8; SIZE]);
        let b = Bytes::from(vec![2u8; SIZE]);
        let o1 = op
            .apply(&mut reader(&[(pid(0), a.clone()), (pid(1), b.clone())]))
            .unwrap();
        let o2 = op
            .apply(&mut reader(&[(pid(0), a.clone()), (pid(1), b.clone())]))
            .unwrap();
        assert_eq!(o1, o2);
        assert_ne!(o1[0].1, o1[1].1, "distinct outputs per written page");
        let c = Bytes::from(vec![9u8; SIZE]);
        let o3 = op.apply(&mut reader(&[(pid(0), a), (pid(1), c)])).unwrap();
        assert_ne!(o1[0].1, o3[0].1, "output reflects read values");
    }

    #[test]
    fn validation_catches_malformed_ops() {
        let dup = OpBody::Logical(LogicalOp::Mix {
            reads: vec![pid(0)],
            writes: vec![pid(1), pid(1)],
            salt: 0,
        });
        assert!(dup.validate().is_err());
        let noread = OpBody::Logical(LogicalOp::Mix {
            reads: vec![],
            writes: vec![pid(1)],
            salt: 0,
        });
        assert!(noread.validate().is_err());
        let ok = OpBody::Logical(LogicalOp::Copy {
            src: pid(0),
            dst: pid(1),
        });
        assert!(ok.validate().is_ok());
        let empty_sort = OpBody::Logical(LogicalOp::SortExtent {
            src: vec![],
            dst: vec![pid(1)],
        });
        assert!(empty_sort.validate().is_err());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            OpBody::Logical(LogicalOp::MovRec {
                old: pid(0),
                sep: Bytes::new(),
                new: pid(1)
            })
            .label(),
            "MovRec"
        );
        assert_eq!(
            OpBody::Physio(PhysioOp::RmvRec {
                target: pid(0),
                sep: Bytes::new()
            })
            .label(),
            "RmvRec"
        );
    }
}
