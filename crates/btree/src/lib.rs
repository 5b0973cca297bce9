//! # lob-btree — a page-based B-tree with logically-logged splits
//!
//! The paper's motivating database example (§1.1, §1.3, §4.1): a B-tree
//! node split moves the records above the split key from the `old` node to
//! a freshly allocated `new` node. With **logical logging** the split costs
//! two tiny records:
//!
//! * `MovRec(old, key, new)` — a write-new tree operation that initializes
//!   `new` from `old`'s high records, logging only identifiers;
//! * `RmvRec(old, key)` — a physiological operation truncating `old`.
//!
//! With **page-oriented logging** the initial contents of `new` must be
//! carried in the log (`W_P(new, log(value))`) — the cost the paper's
//! logging-economy argument quantifies. Both modes are implemented
//! ([`SplitLogging`]) so the `tab_logging_economy` experiment can compare
//! them on identical workloads.
//!
//! ## Structure
//!
//! Every node is a sorted record page ([`lob_ops::RecPage`]). Inner-node
//! records map a separator key to an 8-byte child page id; the child covers
//! all keys `≤` its separator, and a sentinel separator (`0xFF…`) covers
//! the key space's tail, so lookups never fall off the end. Tree metadata
//! (root id, height) lives in a dedicated meta page updated with
//! physiological record operations — everything about the tree is
//! recoverable from the log.
//!
//! Deletes do not rebalance (underflow merging adds nothing to the backup
//! protocol being studied; the paper never mentions it).

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
use lob_ops::{LogicalOp, OpBody, OpError, PhysioOp, RecPage, RecView};
use lob_pagestore::{Page, PageId, PartitionId};

/// How node splits are logged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitLogging {
    /// `MovRec` + `RmvRec`: identifiers only (tree operations, §4.1).
    Logical,
    /// `W_P(new, log(value))` + `RmvRec`: the new node's initial contents
    /// are written to the log (the conventional page-oriented scheme).
    PageOriented,
}

/// Sentinel separator key, greater than every permitted user key.
const HIGH_KEY: [u8; 17] = [0xFF; 17];
/// Maximum user key length (must sort below the 17-byte `0xFF` sentinel).
pub const MAX_KEY: usize = 16;

/// Errors from B-tree operations (engine errors plus key validation).
#[derive(Debug)]
pub enum BTreeError {
    /// Underlying engine failure.
    Engine(EngineError),
    /// Key is empty, too long, or would sort at/above the sentinel.
    BadKey(String),
    /// Value too large to ever fit a page alongside its key.
    ValueTooLarge(usize),
    /// Structural corruption detected by [`BTree::check`].
    Corrupt(String),
}

impl std::fmt::Display for BTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BTreeError::Engine(e) => write!(f, "engine error: {e}"),
            BTreeError::BadKey(m) => write!(f, "bad key: {m}"),
            BTreeError::ValueTooLarge(n) => write!(f, "value of {n} bytes too large"),
            BTreeError::Corrupt(m) => write!(f, "b-tree corrupt: {m}"),
        }
    }
}

impl std::error::Error for BTreeError {}

impl From<EngineError> for BTreeError {
    fn from(e: EngineError) -> Self {
        BTreeError::Engine(e)
    }
}

/// A node that does not parse as a record page is a corrupt tree.
impl From<OpError> for BTreeError {
    fn from(e: OpError) -> Self {
        BTreeError::Corrupt(e.to_string())
    }
}

fn encode_child(id: PageId) -> Vec<u8> {
    let mut v = Vec::with_capacity(8);
    v.extend_from_slice(&id.partition.0.to_le_bytes());
    v.extend_from_slice(&id.index.to_le_bytes());
    v
}

fn decode_child(bytes: &[u8]) -> Result<PageId, BTreeError> {
    let &[p0, p1, p2, p3, i0, i1, i2, i3] = bytes else {
        return Err(BTreeError::Corrupt(format!(
            "child pointer of {} bytes",
            bytes.len()
        )));
    };
    Ok(PageId::new(
        u32::from_le_bytes([p0, p1, p2, p3]),
        u32::from_le_bytes([i0, i1, i2, i3]),
    ))
}

/// The records of a node, searched where they lie in the page.
fn node_view(id: PageId, page: &Page) -> Result<RecView<'_>, BTreeError> {
    Ok(RecView::new(id, page.data())?)
}

/// A key-value record: owned key and value bytes.
pub type Record = (Vec<u8>, Vec<u8>);

/// A B-tree rooted in one partition of the engine's database.
///
/// ```
/// use lob_btree::{BTree, SplitLogging};
/// use lob_core::{Discipline, Engine, EngineConfig, PartitionId};
///
/// let mut engine = Engine::new(EngineConfig {
///     discipline: Discipline::Tree,
///     ..EngineConfig::single(256, 256)
/// }).unwrap();
/// let tree = BTree::create(&mut engine, PartitionId(0), SplitLogging::Logical).unwrap();
/// for i in 0..100u32 {
///     let key = format!("k{i:04}");
///     tree.insert(&mut engine, key.as_bytes(), b"value").unwrap();
/// }
/// assert_eq!(tree.scan(&mut engine).unwrap().len(), 100);
/// assert_eq!(tree.range(&mut engine, b"k0010", b"k0019").unwrap().len(), 10);
/// assert!(tree.delete(&mut engine, b"k0042").unwrap());
/// tree.check(&mut engine).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct BTree {
    partition: PartitionId,
    meta: PageId,
    split_logging: SplitLogging,
}

impl BTree {
    /// Create a fresh tree: allocates the meta page and an empty root leaf.
    pub fn create(
        engine: &mut Engine,
        partition: PartitionId,
        split_logging: SplitLogging,
    ) -> Result<BTree, BTreeError> {
        let meta = engine.alloc_page(partition)?;
        let root = engine.alloc_page(partition)?;
        let tree = BTree {
            partition,
            meta,
            split_logging,
        };
        // height 0 = root is a leaf. The meta page is updated with ordinary
        // physiological operations, so it recovers like everything else.
        tree.put_meta(engine, root, 0)?;
        Ok(tree)
    }

    /// Re-open a tree from its meta page (e.g. after recovery).
    pub fn open(partition: PartitionId, meta: PageId, split_logging: SplitLogging) -> BTree {
        BTree {
            partition,
            meta,
            split_logging,
        }
    }

    /// The tree's meta page (for [`BTree::open`]).
    pub fn meta_page(&self) -> PageId {
        self.meta
    }

    fn put_meta(&self, engine: &mut Engine, root: PageId, height: u32) -> Result<(), BTreeError> {
        engine.execute(OpBody::Physio(PhysioOp::InsertRec {
            target: self.meta,
            key: Bytes::from_static(b"root"),
            val: Bytes::from(encode_child(root)),
        }))?;
        engine.execute(OpBody::Physio(PhysioOp::InsertRec {
            target: self.meta,
            key: Bytes::from_static(b"height"),
            val: Bytes::from(height.to_le_bytes().to_vec()),
        }))?;
        Ok(())
    }

    /// An owned copy of a node, for the paths that mutate or walk it. The
    /// descents search the page bytes in place instead ([`node_view`]).
    fn read_node(&self, engine: &mut Engine, id: PageId) -> Result<RecPage, BTreeError> {
        let page = engine.read_page(id)?;
        Ok(RecPage::decode(id, page.data())?)
    }

    /// Encoded size of a node's records (what underflow is judged by).
    fn node_len(&self, engine: &mut Engine, id: PageId) -> Result<usize, BTreeError> {
        let page = engine.read_page(id)?;
        Ok(node_view(id, &page)?.encoded_len()?)
    }

    /// Current `(root, height)`.
    pub fn root(&self, engine: &mut Engine) -> Result<(PageId, u32), BTreeError> {
        let page = engine.read_page(self.meta)?;
        let meta = node_view(self.meta, &page)?;
        let root = decode_child(
            meta.find(b"root")?
                .ok_or_else(|| BTreeError::Corrupt("meta page missing root".into()))?,
        )?;
        let height = meta
            .find(b"height")?
            .and_then(|v| v.try_into().ok().map(u32::from_le_bytes))
            .ok_or_else(|| BTreeError::Corrupt("meta page missing height".into()))?;
        Ok((root, height))
    }

    fn validate_key(&self, key: &[u8]) -> Result<(), BTreeError> {
        if key.is_empty() {
            return Err(BTreeError::BadKey("empty".into()));
        }
        if key.len() > MAX_KEY {
            return Err(BTreeError::BadKey(format!(
                "{} bytes exceeds MAX_KEY={MAX_KEY}",
                key.len()
            )));
        }
        Ok(())
    }

    fn page_size(&self, engine: &Engine) -> usize {
        engine.config().page_size
    }

    /// Within an inner node, the separator covering `key` and its child.
    fn child_for<'a>(node: &RecView<'a>, key: &[u8]) -> Result<(&'a [u8], PageId), BTreeError> {
        let (sep, child) = node.first_at_or_above(key)?.ok_or_else(|| {
            BTreeError::Corrupt("inner node lacks covering separator (no sentinel?)".into())
        })?;
        Ok((sep, decode_child(child)?))
    }

    /// Look up a key.
    pub fn get(&self, engine: &mut Engine, key: &[u8]) -> Result<Option<Vec<u8>>, BTreeError> {
        self.validate_key(key)?;
        let (mut node_id, height) = self.root(engine)?;
        for _ in 0..height {
            let page = engine.read_page(node_id)?;
            node_id = Self::child_for(&node_view(node_id, &page)?, key)?.1;
        }
        let page = engine.read_page(node_id)?;
        Ok(node_view(node_id, &page)?.find(key)?.map(<[u8]>::to_vec))
    }

    /// Insert (or overwrite) a record.
    pub fn insert(&self, engine: &mut Engine, key: &[u8], value: &[u8]) -> Result<(), BTreeError> {
        self.validate_key(key)?;
        let size = self.page_size(engine);
        // A record must fit a fresh page with room for one sibling record.
        if 2 + 2 * (4 + key.len() + value.len()) > size {
            return Err(BTreeError::ValueTooLarge(value.len()));
        }
        loop {
            // Descend, remembering the path. Any inner node without room
            // for one more separator entry is split *preemptively* (its own
            // parent is guaranteed to have room, because we checked it one
            // level up), then the descent restarts — so when a leaf splits,
            // its parent can always absorb the new separator.
            let (root, height) = self.root(engine)?;
            // The node above `node_id` and the separator that covers it
            // there (a view into that node's page, not a copy): all a split
            // needs of the path.
            let mut parent: Option<(PageId, Bytes)> = None;
            let mut node_id = root;
            let mut restart = false;
            for _ in 0..height {
                let page = engine.read_page(node_id)?;
                let node = node_view(node_id, &page)?;
                if !Self::inner_has_room(&node, size)? {
                    self.split(engine, node_id, parent.as_ref(), height)?;
                    restart = true;
                    break;
                }
                let (sep, child) = Self::child_for(&node, key)?;
                parent = Some((node_id, page.data().slice_ref(sep)));
                node_id = child;
            }
            if restart {
                continue;
            }
            let page = engine.read_page(node_id)?;
            if node_view(node_id, &page)?.fits_with(key, value, size)? {
                engine.execute(OpBody::Physio(PhysioOp::InsertRec {
                    target: node_id,
                    key: Bytes::copy_from_slice(key),
                    val: Bytes::copy_from_slice(value),
                }))?;
                return Ok(());
            }
            // Leaf is full: split it, then retry the descent.
            self.split(engine, node_id, parent.as_ref(), height)?;
        }
    }

    /// Whether an inner node can absorb the one separator entry a child
    /// split adds (worst case: a `MAX_KEY`-byte key + 8-byte child id).
    fn inner_has_room(node: &RecView<'_>, page_size: usize) -> Result<bool, BTreeError> {
        Ok(node.encoded_len()? + 4 + MAX_KEY + 8 <= page_size)
    }

    /// Split `node_id`, which `parent` covers with the given separator
    /// (`None` = it is the root). The parent is guaranteed to have room for
    /// the new separator (preemptive splitting during descent).
    fn split(
        &self,
        engine: &mut Engine,
        node_id: PageId,
        parent: Option<&(PageId, Bytes)>,
        height: u32,
    ) -> Result<(), BTreeError> {
        let node = self.read_node(engine, node_id)?;
        let sep = node
            .median_key()
            .ok_or_else(|| BTreeError::Corrupt("splitting an empty node".into()))?
            .to_vec();
        let new = engine.alloc_page(self.partition)?;

        // Move the high records to `new` — logically or page-oriented.
        match self.split_logging {
            SplitLogging::Logical => {
                engine.execute(OpBody::Logical(LogicalOp::MovRec {
                    old: node_id,
                    sep: Bytes::from(sep.clone()),
                    new,
                }))?;
            }
            SplitLogging::PageOriented => {
                let moved = RecPage::from_sorted(node.records_above(&sep));
                let value = moved.encode(new, self.page_size(engine))?;
                engine.execute(OpBody::PhysicalWrite { target: new, value })?;
            }
        }
        // Truncate the old node (must be logged after MovRec: the write
        // graph orders new's flush before old's).
        engine.execute(OpBody::Physio(PhysioOp::RmvRec {
            target: node_id,
            sep: Bytes::from(sep.clone()),
        }))?;

        if let Some((parent_id, old_sep)) = parent {
            // Parent: `node_id` now covers ≤ sep; `new` covers (sep, old_sep].
            let parent = self.read_node(engine, *parent_id)?;
            if !parent.fits_with(&sep, &encode_child(node_id), self.page_size(engine)) {
                return Err(BTreeError::Corrupt(format!(
                    "parent {parent_id} full despite preemptive splitting"
                )));
            }
            engine.execute(OpBody::Physio(PhysioOp::InsertRec {
                target: *parent_id,
                key: Bytes::from(sep),
                val: Bytes::from(encode_child(node_id)),
            }))?;
            engine.execute(OpBody::Physio(PhysioOp::InsertRec {
                target: *parent_id,
                key: old_sep.clone(),
                val: Bytes::from(encode_child(new)),
            }))?;
        } else {
            // Root split: grow the tree by one level.
            let new_root = engine.alloc_page(self.partition)?;
            let mut entries = RecPage::new();
            entries.insert(sep.clone(), encode_child(node_id));
            entries.insert(HIGH_KEY.to_vec(), encode_child(new));
            let value = entries.encode(new_root, self.page_size(engine))?;
            engine.execute(OpBody::PhysicalWrite {
                target: new_root,
                value,
            })?;
            self.put_meta(engine, new_root, height + 1)?;
        }
        Ok(())
    }

    /// Delete a key. Returns whether it was present.
    ///
    /// Underflowing leaves are rebalanced by **merging** into a sibling.
    /// Like splits, merges are logged per [`SplitLogging`]: logically as
    /// `MergeRec(src, dst)` + `RmvRec(src)` (identifiers only — `MergeRec`
    /// is the dual of `MovRec` and creates the mirrored flush dependency:
    /// the merged `dst` must reach a stable database before `src`'s
    /// truncation does), or page-oriented as a physical write of the
    /// combined node. Emptied source pages are not reused (the allocator
    /// only moves forward; compaction is a layer above this tree).
    pub fn delete(&self, engine: &mut Engine, key: &[u8]) -> Result<bool, BTreeError> {
        self.validate_key(key)?;
        let (mut node_id, height) = self.root(engine)?;
        let mut path: Vec<PageId> = Vec::new();
        for _ in 0..height {
            let page = engine.read_page(node_id)?;
            path.push(node_id);
            node_id = Self::child_for(&node_view(node_id, &page)?, key)?.1;
        }
        let page = engine.read_page(node_id)?;
        if node_view(node_id, &page)?.find(key)?.is_none() {
            return Ok(false);
        }
        engine.execute(OpBody::Physio(PhysioOp::DeleteRec {
            target: node_id,
            key: Bytes::copy_from_slice(key),
        }))?;

        // Rebalance: merge an underflowing leaf into a sibling when the
        // combined records fit one page, then walk the path upward merging
        // inner nodes the same way (MergeRec works on any record page —
        // inner entries are records too), finally collapsing single-child
        // roots.
        let size = self.page_size(engine);
        let mut child = node_id;
        for &parent in path.iter().rev() {
            if self.node_len(engine, child)? * 4 < size {
                self.try_merge(engine, parent, child)?;
            }
            child = parent;
        }
        self.collapse_root(engine)?;
        Ok(true)
    }

    /// Merge `child` with an adjacent sibling under `parent` if the
    /// combined records fit one page. Prefers absorbing into the left
    /// sibling.
    fn try_merge(
        &self,
        engine: &mut Engine,
        parent_id: PageId,
        child: PageId,
    ) -> Result<bool, BTreeError> {
        let parent = self.read_node(engine, parent_id)?;
        let entries: Vec<(Vec<u8>, PageId)> = parent
            .iter()
            .map(|(k, v)| decode_child(v).map(|c| (k.to_vec(), c)))
            .collect::<Result<_, _>>()?;
        let found = entries
            .iter()
            .position(|(_, c)| *c == child)
            .map(|idx| entries.split_at(idx));
        let Some((left, [(child_sep, _), right @ ..])) = found else {
            return Err(BTreeError::Corrupt(format!(
                "child {child} missing from parent {parent_id}"
            )));
        };
        let child_page = self.read_node(engine, child)?;
        let size = self.page_size(engine);
        let fits = |a: &RecPage, b: &RecPage| a.encoded_len() + b.encoded_len() - 2 <= size;

        // (src, dst, separator deleted, separator re-pointed at dst)
        let plan = match left.last() {
            Some((left_sep, left)) => {
                let left_page = self.read_node(engine, *left)?;
                fits(&left_page, &child_page)
                    .then(|| (child, *left, left_sep.clone(), child_sep.clone()))
            }
            None => None,
        };
        let plan = plan.or_else(|| {
            let (right_sep, right) = right.first()?;
            let right_page = self.read_node(engine, *right).ok()?;
            fits(&child_page, &right_page)
                .then(|| (*right, child, child_sep.clone(), right_sep.clone()))
        });
        let Some((src, dst, drop_sep, keep_sep)) = plan else {
            return Ok(false);
        };

        match self.split_logging {
            SplitLogging::Logical => {
                engine.execute(OpBody::Logical(LogicalOp::MergeRec { src, dst }))?;
            }
            SplitLogging::PageOriented => {
                let mut combined = self.read_node(engine, dst)?;
                for (k, v) in self.read_node(engine, src)?.iter() {
                    combined.insert(k.to_vec(), v.to_vec());
                }
                let value = combined.encode(dst, size)?;
                engine.execute(OpBody::PhysicalWrite { target: dst, value })?;
            }
        }
        // Empty the source (every key sorts above the empty separator), and
        // fix the parent: the dropped separator's entry goes away, the kept
        // separator re-points at the merged node.
        engine.execute(OpBody::Physio(PhysioOp::RmvRec {
            target: src,
            sep: Bytes::new(),
        }))?;
        engine.execute(OpBody::Physio(PhysioOp::DeleteRec {
            target: parent_id,
            key: Bytes::from(drop_sep),
        }))?;
        engine.execute(OpBody::Physio(PhysioOp::InsertRec {
            target: parent_id,
            key: Bytes::from(keep_sep),
            val: Bytes::from(encode_child(dst)),
        }))?;
        Ok(true)
    }

    /// If the root is an inner node with a single child, drop a level.
    fn collapse_root(&self, engine: &mut Engine) -> Result<(), BTreeError> {
        loop {
            let (root, height) = self.root(engine)?;
            if height == 0 {
                return Ok(());
            }
            let node = self.read_node(engine, root)?;
            if node.len() != 1 {
                return Ok(());
            }
            let Some((_, v)) = node.iter().next() else {
                return Ok(());
            };
            let child = decode_child(v)?;
            self.put_meta(engine, child, height - 1)?;
        }
    }

    /// Records with `lo <= key <= hi`, in key order. Descends only the
    /// subtrees whose separator ranges intersect the query (separators
    /// bound their child's keys from above, so pruning is exact).
    pub fn range(
        &self,
        engine: &mut Engine,
        lo: &[u8],
        hi: &[u8],
    ) -> Result<Vec<Record>, BTreeError> {
        let (root, height) = self.root(engine)?;
        let mut out = Vec::new();
        self.range_node(engine, root, height, lo, hi, &mut out)?;
        Ok(out)
    }

    fn range_node(
        &self,
        engine: &mut Engine,
        node_id: PageId,
        height: u32,
        lo: &[u8],
        hi: &[u8],
        out: &mut Vec<Record>,
    ) -> Result<(), BTreeError> {
        let node = self.read_node(engine, node_id)?;
        if height == 0 {
            out.extend(
                node.iter()
                    .filter(|(k, _)| *k >= lo && *k <= hi)
                    .map(|(k, v)| (k.to_vec(), v.to_vec())),
            );
            return Ok(());
        }
        // Children are bounded above by their separator and below by the
        // previous separator (exclusive).
        let mut prev: Option<Vec<u8>> = None;
        for (sep, v) in node.iter() {
            let child_min_above_hi = prev.as_deref().is_some_and(|p| p >= hi);
            if !child_min_above_hi && sep >= lo {
                self.range_node(engine, decode_child(v)?, height - 1, lo, hi, out)?;
            }
            if sep > hi {
                break;
            }
            prev = Some(sep.to_vec());
        }
        Ok(())
    }

    /// All records in key order (full scan).
    pub fn scan(&self, engine: &mut Engine) -> Result<Vec<Record>, BTreeError> {
        let (root, height) = self.root(engine)?;
        let mut out = Vec::new();
        self.scan_node(engine, root, height, &mut out)?;
        Ok(out)
    }

    fn scan_node(
        &self,
        engine: &mut Engine,
        node_id: PageId,
        height: u32,
        out: &mut Vec<Record>,
    ) -> Result<(), BTreeError> {
        let node = self.read_node(engine, node_id)?;
        if height == 0 {
            out.extend(node.iter().map(|(k, v)| (k.to_vec(), v.to_vec())));
            return Ok(());
        }
        for (_, v) in node.iter() {
            self.scan_node(engine, decode_child(v)?, height - 1, out)?;
        }
        Ok(())
    }

    /// Structural check: separators sorted, every leaf key covered by its
    /// ancestors' separators, uniform depth. Returns the number of nodes.
    pub fn check(&self, engine: &mut Engine) -> Result<usize, BTreeError> {
        let (root, height) = self.root(engine)?;
        self.check_node(engine, root, height, None)
    }

    fn check_node(
        &self,
        engine: &mut Engine,
        node_id: PageId,
        height: u32,
        upper: Option<&[u8]>,
    ) -> Result<usize, BTreeError> {
        let node = self.read_node(engine, node_id)?;
        if height == 0 {
            // Leaves: every key must fall under the parent separator.
            if let (Some(max), Some(up)) = (node.max_key(), upper) {
                if max > up {
                    return Err(BTreeError::Corrupt(format!(
                        "leaf {node_id} holds key above its separator"
                    )));
                }
            }
            return Ok(1);
        }
        // Inner nodes: the separators must cover the node's whole key
        // range, i.e. the max separator reaches the upper bound (the root
        // and the rightmost chain carry the sentinel; left split siblings
        // are bounded by their parent separator instead).
        let up = upper.unwrap_or(&HIGH_KEY);
        match node.max_key() {
            Some(max) if max >= up => {}
            Some(_) => {
                return Err(BTreeError::Corrupt(format!(
                    "inner node {node_id} does not cover its key range"
                )))
            }
            None => return Err(BTreeError::Corrupt(format!("inner node {node_id} empty"))),
        }
        let mut count = 1;
        for (k, v) in node.iter() {
            count += self.check_node(engine, decode_child(v)?, height - 1, Some(k))?;
        }
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lob_core::{Discipline, EngineConfig};

    fn engine(pages: u32) -> Engine {
        Engine::new(EngineConfig {
            discipline: Discipline::Tree,
            ..EngineConfig::single(pages, 256)
        })
        .unwrap()
    }

    fn key(i: u32) -> Vec<u8> {
        format!("k{i:06}").into_bytes()
    }

    fn val(i: u32) -> Vec<u8> {
        format!("value-{i:06}").into_bytes()
    }

    #[test]
    fn insert_and_get_without_splits() {
        let mut e = engine(64);
        let t = BTree::create(&mut e, PartitionId(0), SplitLogging::Logical).unwrap();
        for i in 0..5 {
            t.insert(&mut e, &key(i), &val(i)).unwrap();
        }
        for i in 0..5 {
            assert_eq!(t.get(&mut e, &key(i)).unwrap(), Some(val(i)));
        }
        assert_eq!(t.get(&mut e, b"absent").unwrap(), None);
        assert_eq!(t.root(&mut e).unwrap().1, 0, "no split yet");
    }

    #[test]
    fn splits_preserve_all_records_logical() {
        let mut e = engine(512);
        let t = BTree::create(&mut e, PartitionId(0), SplitLogging::Logical).unwrap();
        for i in 0..200 {
            t.insert(&mut e, &key(i), &val(i)).unwrap();
        }
        let (_, height) = t.root(&mut e).unwrap();
        assert!(height >= 1, "200 records in 256B pages must split");
        for i in 0..200 {
            assert_eq!(t.get(&mut e, &key(i)).unwrap(), Some(val(i)), "key {i}");
        }
        let scan = t.scan(&mut e).unwrap();
        assert_eq!(scan.len(), 200);
        assert!(scan.windows(2).all(|w| w[0].0 < w[1].0), "sorted scan");
        t.check(&mut e).unwrap();
    }

    #[test]
    fn splits_preserve_all_records_page_oriented() {
        let mut e = engine(512);
        let t = BTree::create(&mut e, PartitionId(0), SplitLogging::PageOriented).unwrap();
        for i in 0..200 {
            t.insert(&mut e, &key(i), &val(i)).unwrap();
        }
        for i in 0..200 {
            assert_eq!(t.get(&mut e, &key(i)).unwrap(), Some(val(i)));
        }
        t.check(&mut e).unwrap();
    }

    #[test]
    fn overwrite_and_delete() {
        let mut e = engine(64);
        let t = BTree::create(&mut e, PartitionId(0), SplitLogging::Logical).unwrap();
        t.insert(&mut e, b"k", b"one").unwrap();
        t.insert(&mut e, b"k", b"two").unwrap();
        assert_eq!(t.get(&mut e, b"k").unwrap(), Some(b"two".to_vec()));
        assert!(t.delete(&mut e, b"k").unwrap());
        assert!(!t.delete(&mut e, b"k").unwrap());
        assert_eq!(t.get(&mut e, b"k").unwrap(), None);
    }

    #[test]
    fn random_order_inserts_stay_sorted() {
        let mut e = engine(512);
        let t = BTree::create(&mut e, PartitionId(0), SplitLogging::Logical).unwrap();
        // Deterministic shuffle.
        let mut order: Vec<u32> = (0..150).collect();
        for i in 0..order.len() {
            let j = (i * 7919 + 13) % order.len();
            order.swap(i, j);
        }
        for &i in &order {
            t.insert(&mut e, &key(i), &val(i)).unwrap();
        }
        let scan = t.scan(&mut e).unwrap();
        assert_eq!(scan.len(), 150);
        assert!(scan.windows(2).all(|w| w[0].0 < w[1].0));
        t.check(&mut e).unwrap();
    }

    #[test]
    fn range_scan_prunes_correctly() {
        let mut e = engine(512);
        let t = BTree::create(&mut e, PartitionId(0), SplitLogging::Logical).unwrap();
        for i in 0..200 {
            t.insert(&mut e, &key(i), &val(i)).unwrap();
        }
        let got = t.range(&mut e, &key(37), &key(101)).unwrap();
        assert_eq!(got.len(), 101 - 37 + 1);
        assert_eq!(got.first().unwrap().0, key(37));
        assert_eq!(got.last().unwrap().0, key(101));
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
        // Empty and single-point ranges.
        assert!(t.range(&mut e, b"zz", b"zzz").unwrap().is_empty());
        let single = t.range(&mut e, &key(50), &key(50)).unwrap();
        assert_eq!(single, vec![(key(50), val(50))]);
        // Whole-tree range equals a scan.
        let all = t.range(&mut e, &key(0), &key(199)).unwrap();
        assert_eq!(all, t.scan(&mut e).unwrap());
    }

    #[test]
    fn key_validation() {
        let mut e = engine(64);
        let t = BTree::create(&mut e, PartitionId(0), SplitLogging::Logical).unwrap();
        assert!(matches!(
            t.insert(&mut e, b"", b"v"),
            Err(BTreeError::BadKey(_))
        ));
        assert!(matches!(
            t.insert(&mut e, &[b'x'; 17], b"v"),
            Err(BTreeError::BadKey(_))
        ));
        assert!(matches!(
            t.insert(&mut e, b"k", &[0u8; 300]),
            Err(BTreeError::ValueTooLarge(_))
        ));
    }

    #[test]
    fn deletes_merge_underflowing_leaves() {
        for mode in [SplitLogging::Logical, SplitLogging::PageOriented] {
            let mut e = engine(512);
            let t = BTree::create(&mut e, PartitionId(0), mode).unwrap();
            for i in 0..200 {
                t.insert(&mut e, &key(i), &val(i)).unwrap();
            }
            let (_, grown_height) = t.root(&mut e).unwrap();
            assert!(grown_height >= 1);
            // Delete almost everything; merges must shrink and eventually
            // collapse the tree.
            for i in 0..195 {
                assert!(t.delete(&mut e, &key(i)).unwrap(), "{mode:?} key {i}");
            }
            let scan = t.scan(&mut e).unwrap();
            assert_eq!(scan.len(), 5, "{mode:?}");
            for i in 195..200 {
                assert_eq!(t.get(&mut e, &key(i)).unwrap(), Some(val(i)), "{mode:?}");
            }
            t.check(&mut e).unwrap();
            let (_, height) = t.root(&mut e).unwrap();
            assert!(
                height < grown_height || height == 0,
                "{mode:?}: merges should collapse levels (was {grown_height}, now {height})"
            );
        }
    }

    #[test]
    fn merge_heavy_workload_survives_crash_and_media_recovery() {
        let mut e = engine(1024);
        let t = BTree::create(&mut e, PartitionId(0), SplitLogging::Logical).unwrap();
        for i in 0..150 {
            t.insert(&mut e, &key(i), &val(i)).unwrap();
        }
        // Interleave deletes (forcing merges) with an on-line backup.
        let mut run = e.begin_backup(4).unwrap();
        let mut deleted = 0;
        while !e.backup_step(&mut run).unwrap() {
            for _ in 0..30 {
                if deleted < 120 {
                    t.delete(&mut e, &key(deleted)).unwrap();
                    deleted += 1;
                }
            }
            for page in e.cache().dirty_pages().into_iter().take(8) {
                e.flush_page(page).unwrap();
            }
        }
        let image = e.complete_backup(run).unwrap();
        let expect = t.scan(&mut e).unwrap();

        // Crash drill.
        e.force_log().unwrap();
        e.crash();
        e.recover().unwrap();
        assert_eq!(t.scan(&mut e).unwrap(), expect);
        t.check(&mut e).unwrap();

        // Media drill from the backup taken during the merge storm.
        e.store().fail_partition(PartitionId(0)).unwrap();
        e.media_recover(&image).unwrap();
        assert_eq!(t.scan(&mut e).unwrap(), expect);
        t.check(&mut e).unwrap();
    }

    #[test]
    fn merge_logging_economy_mirrors_splits() {
        let run = |mode: SplitLogging| {
            let mut e = engine(512);
            let t = BTree::create(&mut e, PartitionId(0), mode).unwrap();
            for i in 0..200 {
                t.insert(&mut e, &key(i), &val(i)).unwrap();
            }
            let before = e.log().stats().bytes;
            for i in 0..190 {
                t.delete(&mut e, &key(i)).unwrap();
            }
            e.log().stats().bytes - before
        };
        let logical = run(SplitLogging::Logical);
        let page_oriented = run(SplitLogging::PageOriented);
        assert!(
            logical < page_oriented,
            "merge phase: logical {logical}B vs page-oriented {page_oriented}B"
        );
    }

    #[test]
    fn logical_splits_log_fewer_bytes() {
        // The paper's economy claim on identical workloads.
        let run = |mode: SplitLogging| {
            let mut e = engine(512);
            let t = BTree::create(&mut e, PartitionId(0), mode).unwrap();
            for i in 0..200 {
                t.insert(&mut e, &key(i), &val(i)).unwrap();
            }
            e.log().stats().bytes
        };
        let logical = run(SplitLogging::Logical);
        let page_oriented = run(SplitLogging::PageOriented);
        assert!(
            logical < page_oriented,
            "logical {logical}B vs page-oriented {page_oriented}B"
        );
    }

    #[test]
    fn a_damaged_inner_node_is_reported_by_every_descent() {
        let mut e = engine(512);
        let t = BTree::create(&mut e, PartitionId(0), SplitLogging::Logical).unwrap();
        for i in 0..200 {
            t.insert(&mut e, &key(i), &val(i)).unwrap();
        }
        let (root, height) = t.root(&mut e).unwrap();
        assert!(height >= 1, "the root is an inner node");
        // Rewrite the root with its first two separators swapped. The
        // sentinel entry still covers every key, so a search that stopped
        // at the first covering separator would not notice.
        let node = t.read_node(&mut e, root).unwrap();
        let mut entries: Vec<Record> = node.into_entries();
        assert!(entries.len() >= 3);
        entries.swap(0, 1);
        let mut value = (entries.len() as u16).to_le_bytes().to_vec();
        for (k, v) in &entries {
            value.extend_from_slice(&(k.len() as u16).to_le_bytes());
            value.extend_from_slice(&(v.len() as u16).to_le_bytes());
            value.extend_from_slice(k);
            value.extend_from_slice(v);
        }
        value.resize(256, 0);
        e.execute(OpBody::PhysicalWrite {
            target: root,
            value: Bytes::from(value),
        })
        .unwrap();

        let corrupt = |r: Result<(), BTreeError>| match r {
            Err(BTreeError::Corrupt(m)) => assert!(m.contains("not strictly ascending"), "{m}"),
            other => panic!("expected Corrupt, got {other:?}"),
        };
        corrupt(t.get(&mut e, &key(150)).map(drop));
        corrupt(t.insert(&mut e, &key(150), b"v"));
        corrupt(t.insert(&mut e, &key(777), b"v"));
        corrupt(t.delete(&mut e, &key(150)).map(drop));
        corrupt(t.check(&mut e).map(drop));
    }

    #[test]
    fn survives_crash_recovery_mid_build() {
        let mut e = engine(512);
        let t = BTree::create(&mut e, PartitionId(0), SplitLogging::Logical).unwrap();
        for i in 0..120 {
            t.insert(&mut e, &key(i), &val(i)).unwrap();
            // Periodically flush a little, like a real cache manager.
            if i % 17 == 0 {
                e.flush_page(t.meta_page()).ok();
            }
        }
        // Make everything durable, then crash with a dirty cache.
        e.force_log().unwrap();
        e.crash();
        e.recover().unwrap();
        let t2 = BTree::open(PartitionId(0), t.meta_page(), SplitLogging::Logical);
        for i in 0..120 {
            assert_eq!(t2.get(&mut e, &key(i)).unwrap(), Some(val(i)), "key {i}");
        }
        t2.check(&mut e).unwrap();
    }
}
