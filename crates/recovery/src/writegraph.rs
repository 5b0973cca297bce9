//! Write graphs: translating installation order into flush order.
//!
//! A write-graph node `n` carries a set `ops(n)` of uninstalled operations
//! and a set `vars(n)` of objects; atomically flushing `vars(n)` (when `n`
//! has no predecessors) installs `ops(n)` (paper §2.4). Two constructions
//! are provided:
//!
//! * **Intersecting writes (`W`)** — operations whose write sets intersect
//!   are collapsed into one node and `vars(n) = Writes(n)`. Objects can
//!   never leave `vars(n)`, so atomic flush sets grow monotonically — the
//!   behaviour the paper calls "highly unsatisfactory" and the reason the
//!   refined graph exists. Kept for the `fig2` ablation.
//!
//! * **Refined (`rW`)** — a *blind* write of `X` (one that does not read
//!   `X`) moves `X` into the blind writer's node and removes it from the
//!   previous holder's `vars`: the old value of `X` has become *unexposed* —
//!   no future recovery needs it, provided every uninstalled reader of the
//!   old value installs **before the holder** does. The paper's *inverse
//!   write-read edges* (§2.4) — reader → holder, deliberately not
//!   installation-graph edges — enforce that; the ordinary read-write
//!   edges reader → blind-writer are added as well. Cache-manager identity
//!   writes (`W_IP`) are blind writes that do not change the value, so the
//!   reader edges are provably unnecessary and are skipped — this is what
//!   lets Iw/oF (installing without flushing, §3.2) drain `vars(n)` to
//!   empty without waiting on readers.
//!
//! # Cost: one `add_op` touches only the nodes it changes
//!
//! Every logged operation pays for `add_op` before any backup starts, and
//! the commonest write there is — a physiological re-dirty of an already
//! dirty page — *is* a merge, so the insertion must not look at the rest of
//! the graph:
//!
//! * **In-place merge.** Nodes live in a slab; edges, `by_var` and
//!   `readers` name a node by its slot. An operation that merges with a
//!   live node appends its LSN and unions its (small, sorted) sets into
//!   that node and re-keys the slot to the operation's fresh [`NodeId`] —
//!   no neighbour is touched. Further merge partners are absorbed into the
//!   same slot.
//! * **Seeded local cycle collapse** (the paper's "second collapse"). The
//!   graph is acyclic before every insertion, so a cycle the insertion
//!   closed contains a new edge, and every new edge ends at the new/merged
//!   node or at a holder that just received an inverse write-read edge.
//!   Those nodes are the only *seeds*. A seed with no predecessors or no
//!   successors is on no cycle (the edge-free re-dirty exits here without
//!   visiting anything). Otherwise its strongly connected component is
//!   `ancestors(seed) ∩ descendants(seed)`: the two searches advance in
//!   lockstep until one side is exhausted, and the component is the part of
//!   that (smaller) side the seed reaches going the other way — every path
//!   between two descendants of the seed stays among its descendants.
//!   Distinct components are disjoint, so collapsing one seed's component
//!   never hides another's.
//! * **Survivor rule.** A collapsed component keeps the **largest member
//!   id**. A component containing the new/merged node therefore keeps the
//!   operation's fresh id, so `add_op` always returns the id it allocated.
//!
//! What callers can observe is independent of the storage: one fresh id
//! per `add_op`, [`WriteGraph::frontier`] ascending by id, and
//! [`WriteGraph::flush_plan`] the same schedule for the same graph.
//! `lob-harness` keeps the whole-graph construction (full Tarjan pass per
//! insertion) as `ReferenceWriteGraph` and checks this one against it
//! step by step.

use crate::fxhash::FxHashMap;
use lob_ops::OpBody;
use lob_pagestore::{Lsn, PageId};
use std::collections::BTreeSet;
use std::fmt;

/// Which write-graph construction to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphMode {
    /// The paper's `W`: merge on intersecting write sets, `vars = Writes`.
    Intersecting,
    /// The paper's `rW`: blind writes un-expose old values and shrink
    /// `vars`; required for Iw/oF and hence for the backup protocol.
    Refined,
}

/// Stable handle of a write-graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u64);

impl NodeId {
    /// The id as a plain number: ids are handed out 1, 2, 3, … in `add_op`
    /// order.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Errors from write-graph operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteGraphError {
    /// The node id is not (or no longer) present.
    NoSuchNode(NodeId),
    /// The node cannot be removed because it still has predecessors.
    HasPredecessors(NodeId),
    /// Internal invariant violation (only from [`WriteGraph::check_invariants`]).
    Invariant(String),
}

impl fmt::Display for WriteGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteGraphError::NoSuchNode(n) => write!(f, "no such write-graph node {n:?}"),
            WriteGraphError::HasPredecessors(n) => {
                write!(f, "node {n:?} still has predecessors")
            }
            WriteGraphError::Invariant(msg) => write!(f, "write-graph invariant: {msg}"),
        }
    }
}

impl std::error::Error for WriteGraphError {}

/// Position of a live node in the slab. Slots are reused after a node is
/// installed or absorbed; they never leave this module.
type Slot = u32;

/// A duplicate-free sorted vector. The sets a node carries hold a handful
/// of elements, where this beats a tree on every operation and iterates in
/// order for free. (An in-place variant for up to three elements was
/// measured too: the allocator's small-size fast path is as cheap, so the
/// plain vector stayed.)
#[derive(Debug)]
struct SortedSet<T>(Vec<T>);

impl<T> Default for SortedSet<T> {
    fn default() -> Self {
        SortedSet(Vec::new())
    }
}

impl<T: Ord + Copy> SortedSet<T> {
    fn insert(&mut self, x: T) -> bool {
        match self.0.binary_search(&x) {
            Ok(_) => false,
            Err(at) => {
                self.0.insert(at, x);
                true
            }
        }
    }

    fn remove(&mut self, x: T) -> bool {
        match self.0.binary_search(&x) {
            Ok(at) => {
                self.0.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    fn contains(&self, x: T) -> bool {
        self.0.binary_search(&x).is_ok()
    }

    fn as_slice(&self) -> &[T] {
        &self.0
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[derive(Debug)]
struct Node {
    id: NodeId,
    ops: Vec<Lsn>,
    /// Smallest LSN in `ops`; the node's key in [`WriteGraph::floor`].
    min_lsn: Lsn,
    vars: SortedSet<PageId>,
    reads: SortedSet<PageId>,
    preds: SortedSet<Slot>,
    succs: SortedSet<Slot>,
    /// Installing this node is only crash-safe once the log is durable up
    /// to here. Set when a blind write *steals* an object from this node's
    /// `vars`: the steal's promise — "the thief's logged operation will
    /// regenerate the object" — must survive a crash *before* this node's
    /// remaining vars reach `S` (or the node installs free), or recovery
    /// is left with neither the object's value nor a way to recompute it.
    wal_floor: Lsn,
}

fn node_ref(nodes: &[Option<Node>], slot: Slot) -> Option<&Node> {
    nodes.get(slot as usize)?.as_ref()
}

fn node_mut(nodes: &mut [Option<Node>], slot: Slot) -> Option<&mut Node> {
    nodes.get_mut(slot as usize)?.as_mut()
}

fn add_edge(nodes: &mut [Option<Node>], from: Slot, to: Slot) {
    if let Some(f) = node_mut(nodes, from) {
        f.succs.insert(to);
    }
    if let Some(t) = node_mut(nodes, to) {
        t.preds.insert(from);
    }
}

fn readers_of(readers: &FxHashMap<PageId, SortedSet<Slot>>, page: PageId) -> &[Slot] {
    readers
        .get(&page)
        .map(SortedSet::as_slice)
        .unwrap_or_default()
}

/// Search direction of a reachability walk.
#[derive(Clone, Copy)]
enum Dir {
    Succs,
    Preds,
}

fn neighbours(nodes: &[Option<Node>], slot: Slot, dir: Dir) -> &[Slot] {
    match (node_ref(nodes, slot), dir) {
        (Some(n), Dir::Succs) => n.succs.as_slice(),
        (Some(n), Dir::Preds) => n.preds.as_slice(),
        (None, _) => &[],
    }
}

/// Stamp `slot` with `epoch`; `false` if it already carried it.
fn stamp(marks: &mut [u64], slot: Slot, epoch: u64) -> bool {
    match marks.get_mut(slot as usize) {
        Some(m) if *m != epoch => {
            *m = epoch;
            true
        }
        _ => false,
    }
}

fn stamped(marks: &[u64], slot: Slot, epoch: u64) -> bool {
    marks.get(slot as usize) == Some(&epoch)
}

/// The write graph a cache manager consults before flushing.
pub struct WriteGraph {
    mode: GraphMode,
    nodes: Vec<Option<Node>>,
    free: Vec<Slot>,
    by_id: FxHashMap<NodeId, Slot>,
    /// Node currently responsible for flushing each page (`X ∈ vars(n)`).
    by_var: FxHashMap<PageId, Slot>,
    /// Nodes with an uninstalled op that read each page (no empty sets).
    readers: FxHashMap<PageId, SortedSet<Slot>>,
    /// `(min_lsn, slot)` of every live node: the redo floor is the first.
    floor: BTreeSet<(Lsn, Slot)>,
    /// Visited stamps of the cycle search, one per slot and direction; a
    /// slot is visited in the current search iff it carries its epoch.
    fwd_mark: Vec<u64>,
    bwd_mark: Vec<u64>,
    epoch: u64,
    next_id: u64,
    /// Largest `|vars(n)|` ever observed (ablation statistic).
    max_vars: usize,
    installed_ops: u64,
    nodes_walked: u64,
    /// The current operation's sorted read and write sets (kept for their
    /// capacity).
    reads_buf: Vec<PageId>,
    writes_buf: Vec<PageId>,
}

impl WriteGraph {
    /// An empty graph in the given mode.
    pub fn new(mode: GraphMode) -> WriteGraph {
        WriteGraph {
            mode,
            nodes: Vec::new(),
            free: Vec::new(),
            by_id: FxHashMap::default(),
            by_var: FxHashMap::default(),
            readers: FxHashMap::default(),
            floor: BTreeSet::new(),
            fwd_mark: Vec::new(),
            bwd_mark: Vec::new(),
            epoch: 0,
            next_id: 0,
            max_vars: 0,
            installed_ops: 0,
            nodes_walked: 0,
            reads_buf: Vec::new(),
            writes_buf: Vec::new(),
        }
    }

    /// The construction mode.
    pub fn mode(&self) -> GraphMode {
        self.mode
    }

    fn fresh_id(&mut self) -> NodeId {
        self.next_id += 1;
        NodeId(self.next_id)
    }

    fn slot_of(&self, id: NodeId) -> Result<Slot, WriteGraphError> {
        self.by_id
            .get(&id)
            .copied()
            .ok_or(WriteGraphError::NoSuchNode(id))
    }

    fn node(&self, id: NodeId) -> Result<&Node, WriteGraphError> {
        node_ref(&self.nodes, self.slot_of(id)?).ok_or(WriteGraphError::NoSuchNode(id))
    }

    fn id_of(&self, slot: Slot) -> Option<NodeId> {
        node_ref(&self.nodes, slot).map(|n| n.id)
    }

    /// Put a new edge-free node carrying one operation into the slab.
    fn alloc(&mut self, id: NodeId, lsn: Lsn) -> Slot {
        let node = Node {
            id,
            ops: vec![lsn],
            min_lsn: lsn,
            vars: SortedSet::default(),
            reads: SortedSet::default(),
            preds: SortedSet::default(),
            succs: SortedSet::default(),
            wal_floor: Lsn::NULL,
        };
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.nodes.push(None);
                self.fwd_mark.push(0);
                self.bwd_mark.push(0);
                (self.nodes.len() - 1) as Slot
            }
        };
        if let Some(cell) = self.nodes.get_mut(slot as usize) {
            *cell = Some(node);
        }
        self.by_id.insert(id, slot);
        self.floor.insert((lsn, slot));
        slot
    }

    /// Take a node out of the slab and the id and floor indexes. The page
    /// indexes and the neighbours' edge sets still name the slot; the
    /// caller rewires or drops them.
    fn release(&mut self, slot: Slot) -> Option<Node> {
        let node = self.nodes.get_mut(slot as usize)?.take()?;
        self.free.push(slot);
        self.by_id.remove(&node.id);
        self.floor.remove(&(node.min_lsn, slot));
        Some(node)
    }

    /// Fold node `src` into node `dst`: operations, sets, edges and WAL
    /// floor; `src`'s slot is freed and its id disappears.
    fn absorb(&mut self, dst: Slot, src: Slot) {
        if dst == src {
            return;
        }
        let Some(old) = self.release(src) else { return };
        for &v in old.vars.as_slice() {
            self.by_var.insert(v, dst);
        }
        for &r in old.reads.as_slice() {
            if let Some(rs) = self.readers.get_mut(&r) {
                rs.remove(src);
                rs.insert(dst);
            }
        }
        for &p in old.preds.as_slice() {
            if let Some(pn) = node_mut(&mut self.nodes, p) {
                pn.succs.remove(src);
                if p != dst {
                    pn.succs.insert(dst);
                }
            }
        }
        for &s in old.succs.as_slice() {
            if let Some(sn) = node_mut(&mut self.nodes, s) {
                sn.preds.remove(src);
                if s != dst {
                    sn.preds.insert(dst);
                }
            }
        }
        let Some(n) = node_mut(&mut self.nodes, dst) else {
            return;
        };
        n.ops.extend(old.ops);
        for &v in old.vars.as_slice() {
            n.vars.insert(v);
        }
        for &r in old.reads.as_slice() {
            n.reads.insert(r);
        }
        for &p in old.preds.as_slice() {
            if p != dst {
                n.preds.insert(p);
            }
        }
        for &s in old.succs.as_slice() {
            if s != dst {
                n.succs.insert(s);
            }
        }
        n.wal_floor = n.wal_floor.max(old.wal_floor);
        if old.min_lsn < n.min_lsn {
            self.floor.remove(&(n.min_lsn, dst));
            n.min_lsn = old.min_lsn;
            self.floor.insert((n.min_lsn, dst));
        }
    }

    /// Register a logged operation. `lsn` is the operation's log record LSN;
    /// the read/write sets and blindness are derived from `body`. Returns
    /// the node that now carries the operation — always a fresh id, larger
    /// than every id handed out before; nodes the operation merged with
    /// lose theirs.
    pub fn add_op(&mut self, lsn: Lsn, body: &OpBody) -> NodeId {
        let mut reads = std::mem::take(&mut self.reads_buf);
        let mut writes = std::mem::take(&mut self.writes_buf);
        reads.clear();
        writes.clear();
        body.for_each_read(|p| reads.push(p));
        body.for_each_write(|p| writes.push(p));
        reads.sort_unstable();
        reads.dedup();
        writes.sort_unstable();
        writes.dedup();
        let identity = matches!(body, OpBody::IdentityWrite { .. });
        let id = self.insert(lsn, &reads, &writes, identity);
        self.reads_buf = reads;
        self.writes_buf = writes;
        id
    }

    fn insert(&mut self, lsn: Lsn, reads: &[PageId], writes: &[PageId], identity: bool) -> NodeId {
        // Refined mode: a write of a page the op does not read is blind and
        // steals the page instead of merging with its holder.
        let refined = self.mode == GraphMode::Refined;
        let blind = |w: &PageId| refined && reads.binary_search(w).is_err();

        // 1. Merge: every holder of a non-blindly written page becomes one
        //    node, re-keyed to this operation's id.
        let mut merged: Option<Slot> = None;
        for w in writes.iter().filter(|&w| !blind(w)) {
            match (merged, self.by_var.get(w).copied()) {
                (_, None) => {}
                (None, Some(h)) => merged = Some(h),
                (Some(t), Some(h)) => self.absorb(t, h),
            }
        }
        let id = self.fresh_id();
        let target = match merged {
            None => self.alloc(id, lsn),
            Some(t) => {
                if let Some(n) = node_mut(&mut self.nodes, t) {
                    self.by_id.remove(&n.id);
                    n.id = id;
                    n.ops.push(lsn);
                    if lsn < n.min_lsn {
                        self.floor.remove(&(n.min_lsn, t));
                        n.min_lsn = lsn;
                        self.floor.insert((lsn, t));
                    }
                }
                self.by_id.insert(id, t);
                t
            }
        };

        // 2. The operation's reads.
        for &r in reads {
            if node_mut(&mut self.nodes, target).is_some_and(|n| n.reads.insert(r)) {
                self.readers.entry(r).or_default().insert(target);
            }
        }

        // 3. The operation's writes. A page held elsewhere is stolen from
        //    its holder — the old value becomes unexposed there, PROVIDED
        //    every uninstalled reader of the old value installs before the
        //    holder does: the paper's *inverse write-read edges* (§2.4),
        //    reader → holder. Then the ordinary read-write edges: every
        //    node with an uninstalled op that read a page this op writes
        //    must install first. Identity writes change no value, so the
        //    old readers are unaffected and both kinds of edge are skipped
        //    (§2.5) — that is what keeps Iw/oF from cascading.
        let mut robbed: Vec<Slot> = Vec::new();
        for &w in writes {
            let holder = self.by_var.get(&w).copied();
            if holder != Some(target) {
                if let Some(h) = holder {
                    debug_assert!(blind(&w), "a non-blind write merges with its holder");
                    if let Some(hn) = node_mut(&mut self.nodes, h) {
                        hn.vars.remove(w);
                        hn.wal_floor = hn.wal_floor.max(lsn);
                    }
                    if !identity {
                        for &r in readers_of(&self.readers, w) {
                            if r != h && r != target {
                                add_edge(&mut self.nodes, r, h);
                                if robbed.last() != Some(&h) {
                                    robbed.push(h);
                                }
                            }
                        }
                    }
                }
                if let Some(n) = node_mut(&mut self.nodes, target) {
                    n.vars.insert(w);
                }
                self.by_var.insert(w, target);
            }
            if !identity {
                for &r in readers_of(&self.readers, w) {
                    if r != target {
                        add_edge(&mut self.nodes, r, target);
                    }
                }
            }
        }
        self.note_vars(target);

        // 4. Second collapse, seeded (module header): only the merged node
        //    and the robbed holders gained edges.
        self.collapse_around(target);
        for h in robbed {
            self.collapse_around(h);
        }
        id
    }

    fn note_vars(&mut self, slot: Slot) {
        if let Some(n) = node_ref(&self.nodes, slot) {
            self.max_vars = self.max_vars.max(n.vars.len());
        }
    }

    /// Collapse the strongly connected component of `seed`, if it has more
    /// than one member, into the member with the largest id.
    fn collapse_around(&mut self, seed: Slot) {
        let members = self.component_of(seed);
        let Some(survivor) = members.iter().copied().max_by_key(|&m| self.id_of(m)) else {
            return;
        };
        for m in members {
            self.absorb(survivor, m);
        }
        self.note_vars(survivor);
    }

    /// The strongly connected component of `seed` when it has more than one
    /// member, else nothing. Visits at most about twice the smaller of the
    /// seed's ancestor and descendant sets, and nothing at all when the seed
    /// lacks predecessors or successors.
    fn component_of(&mut self, seed: Slot) -> Vec<Slot> {
        match node_ref(&self.nodes, seed) {
            Some(n) if !n.preds.is_empty() && !n.succs.is_empty() => {}
            _ => return Vec::new(),
        }
        self.epoch += 1;
        let epoch = self.epoch;
        stamp(&mut self.fwd_mark, seed, epoch);
        stamp(&mut self.bwd_mark, seed, epoch);
        let mut fwd = vec![seed];
        let mut bwd = vec![seed];
        let (mut fwd_at, mut bwd_at) = (0, 0);
        // Lockstep: expand one descendant, then one ancestor, until a side
        // has nothing left to expand — that side is then complete.
        let small = loop {
            let Some(&v) = fwd.get(fwd_at) else {
                break Dir::Succs;
            };
            fwd_at += 1;
            for &s in neighbours(&self.nodes, v, Dir::Succs) {
                if stamp(&mut self.fwd_mark, s, epoch) {
                    fwd.push(s);
                }
            }
            let Some(&v) = bwd.get(bwd_at) else {
                break Dir::Preds;
            };
            bwd_at += 1;
            for &p in neighbours(&self.nodes, v, Dir::Preds) {
                if stamp(&mut self.bwd_mark, p, epoch) {
                    bwd.push(p);
                }
            }
        };
        // The component is what the seed reaches, going the other way,
        // without leaving the complete side.
        self.epoch += 1;
        let inner = self.epoch;
        let (within, visited, back) = match small {
            Dir::Succs => (&self.fwd_mark, &mut self.bwd_mark, Dir::Preds),
            Dir::Preds => (&self.bwd_mark, &mut self.fwd_mark, Dir::Succs),
        };
        stamp(visited, seed, inner);
        let mut members = vec![seed];
        let mut at = 0;
        while let Some(&v) = members.get(at) {
            at += 1;
            for &n in neighbours(&self.nodes, v, back) {
                if stamped(within, n, epoch) && stamp(visited, n, inner) {
                    members.push(n);
                }
            }
        }
        self.nodes_walked += (fwd_at + bwd_at + at) as u64;
        if members.len() > 1 {
            members
        } else {
            Vec::new()
        }
    }

    /// Node currently responsible for flushing `page`, if any.
    pub fn node_of(&self, page: PageId) -> Option<NodeId> {
        self.id_of(*self.by_var.get(&page)?)
    }

    /// Atomic flush set of a node, ascending.
    pub fn vars(&self, id: NodeId) -> Result<&[PageId], WriteGraphError> {
        Ok(self.node(id)?.vars.as_slice())
    }

    /// The LSN the log must be durable to before this node may be
    /// installed (see the field documentation on the steal semantics).
    /// `Lsn::NULL` when nothing was ever stolen from the node.
    pub fn wal_floor(&self, id: NodeId) -> Result<Lsn, WriteGraphError> {
        Ok(self.node(id)?.wal_floor)
    }

    /// Uninstalled operations carried by a node, in no particular order.
    pub fn ops(&self, id: NodeId) -> Result<&[Lsn], WriteGraphError> {
        Ok(self.node(id)?.ops.as_slice())
    }

    /// Whether the node still has write-graph predecessors.
    pub fn has_preds(&self, id: NodeId) -> Result<bool, WriteGraphError> {
        Ok(!self.node(id)?.preds.is_empty())
    }

    /// The node's direct predecessors, ascending.
    pub fn preds(&self, id: NodeId) -> Result<Vec<NodeId>, WriteGraphError> {
        let mut out: Vec<NodeId> = self
            .node(id)?
            .preds
            .as_slice()
            .iter()
            .filter_map(|&p| self.id_of(p))
            .collect();
        out.sort_unstable();
        Ok(out)
    }

    /// All nodes with no predecessors (candidates for flushing/installing),
    /// ascending.
    pub fn frontier(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .nodes
            .iter()
            .flatten()
            .filter(|n| n.preds.is_empty())
            .map(|n| n.id)
            .collect();
        out.sort_unstable();
        out
    }

    /// The ancestors of `id` (nodes that must install first), topologically
    /// ordered, followed by `id` itself: a valid install schedule for `id`,
    /// and a function of the graph alone (ids break every tie).
    pub fn flush_plan(&self, id: NodeId) -> Result<Vec<NodeId>, WriteGraphError> {
        let root = self.slot_of(id)?;
        // Every predecessor of an ancestor is an ancestor, so within the
        // ancestor subgraph a node's in-degree is its whole `preds`.
        let mut indeg: FxHashMap<Slot, usize> = FxHashMap::default();
        let mut ready: Vec<(NodeId, Slot)> = Vec::new();
        let mut work = vec![root];
        while let Some(v) = work.pop() {
            let Some(n) = node_ref(&self.nodes, v) else {
                continue;
            };
            if indeg.insert(v, n.preds.len()).is_some() {
                continue; // reached before, along another edge
            }
            if n.preds.is_empty() {
                ready.push((n.id, v));
            }
            work.extend_from_slice(n.preds.as_slice());
        }
        // Kahn over the ancestor subgraph.
        ready.sort_unstable();
        let mut plan = Vec::with_capacity(indeg.len());
        let mut released: Vec<(NodeId, Slot)> = Vec::new();
        while let Some((vid, v)) = ready.pop() {
            plan.push(vid);
            for &s in neighbours(&self.nodes, v, Dir::Succs) {
                let Some(d) = indeg.get_mut(&s) else { continue };
                *d = d.saturating_sub(1);
                if *d == 0 {
                    if let Some(sid) = self.id_of(s) {
                        released.push((sid, s));
                    }
                }
            }
            released.sort_unstable();
            ready.append(&mut released);
        }
        debug_assert_eq!(plan.len(), indeg.len(), "ancestor subgraph must be acyclic");
        Ok(plan)
    }

    /// Remove a node whose operations are now installed (its `vars` were
    /// flushed, or drained to empty by identity writes). Fails if the node
    /// still has predecessors — installing it would violate installation
    /// order. Returns the installed operations' LSNs.
    pub fn install_node(&mut self, id: NodeId) -> Result<Vec<Lsn>, WriteGraphError> {
        let slot = self.slot_of(id)?;
        if node_ref(&self.nodes, slot).is_some_and(|n| !n.preds.is_empty()) {
            return Err(WriteGraphError::HasPredecessors(id));
        }
        let node = self.release(slot).ok_or(WriteGraphError::NoSuchNode(id))?;
        for v in node.vars.as_slice() {
            self.by_var.remove(v);
        }
        for r in node.reads.as_slice() {
            if let Some(rs) = self.readers.get_mut(r) {
                rs.remove(slot);
                if rs.is_empty() {
                    self.readers.remove(r);
                }
            }
        }
        for &s in node.succs.as_slice() {
            if let Some(sn) = node_mut(&mut self.nodes, s) {
                sn.preds.remove(slot);
            }
        }
        self.installed_ops += node.ops.len() as u64;
        Ok(node.ops)
    }

    /// Smallest LSN among uninstalled operations — the crash-recovery log
    /// truncation bound.
    pub fn min_uninstalled_lsn(&self) -> Option<Lsn> {
        self.floor.first().map(|&(lsn, _)| lsn)
    }

    /// Number of live (uninstalled) nodes.
    pub fn node_count(&self) -> usize {
        self.by_id.len()
    }

    /// Whether every operation has been installed.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Largest atomic flush set ever observed (the `fig2` ablation metric).
    pub fn max_vars_seen(&self) -> usize {
        self.max_vars
    }

    /// Total operations installed so far.
    pub fn installed_ops(&self) -> u64 {
        self.installed_ops
    }

    /// Nodes visited by cycle searches so far: what `add_op` spent beyond
    /// the nodes it changed.
    pub fn nodes_walked(&self) -> u64 {
        self.nodes_walked
    }

    /// Iterate over live node ids, ascending.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        let mut ids: Vec<NodeId> = self.nodes.iter().flatten().map(|n| n.id).collect();
        ids.sort_unstable();
        ids.into_iter()
    }

    /// Verify internal invariants; used by tests. Walks the whole graph.
    pub fn check_invariants(&self) -> Result<(), WriteGraphError> {
        let inv = |msg: String| Err(WriteGraphError::Invariant(msg));
        let live = self.nodes.iter().flatten().count();
        if self.by_id.len() != live || self.floor.len() != live {
            return inv(format!(
                "{live} live nodes, {} ids, {} floor entries",
                self.by_id.len(),
                self.floor.len()
            ));
        }
        if self.free.len() + live != self.nodes.len() {
            return inv("free list does not cover the empty slots".into());
        }
        let mut held = 0usize;
        let mut read = 0usize;
        for (slot, n) in self.nodes.iter().enumerate() {
            let Some(n) = n else { continue };
            let slot = slot as Slot;
            let id = n.id;
            if self.by_id.get(&id) != Some(&slot) {
                return inv(format!("by_id[{id:?}] does not point at its slot"));
            }
            if n.ops.iter().min() != Some(&n.min_lsn) || !self.floor.contains(&(n.min_lsn, slot)) {
                return inv(format!("floor entry of {id:?} is not its smallest LSN"));
            }
            for v in n.vars.as_slice() {
                if self.by_var.get(v) != Some(&slot) {
                    return inv(format!("by_var[{v}] does not point at holder {id:?}"));
                }
            }
            for r in n.reads.as_slice() {
                if !self.readers.get(r).is_some_and(|rs| rs.contains(slot)) {
                    return inv(format!("readers[{r}] misses reader {id:?}"));
                }
            }
            held += n.vars.len();
            read += n.reads.len();
            // Edge symmetry.
            for &p in n.preds.as_slice() {
                match node_ref(&self.nodes, p) {
                    Some(pn) if pn.succs.contains(slot) => {}
                    _ => return inv(format!("pred edge into {id:?} not mirrored")),
                }
            }
            for &s in n.succs.as_slice() {
                match node_ref(&self.nodes, s) {
                    Some(sn) if sn.preds.contains(slot) => {}
                    _ => return inv(format!("succ edge out of {id:?} not mirrored")),
                }
            }
            if n.preds.contains(slot) || n.succs.contains(slot) {
                return inv(format!("self loop at {id:?}"));
            }
        }
        // Each index entry was matched from the node side; equal sizes rule
        // out stale ones (and a page in the vars of two nodes).
        if self.by_var.len() != held {
            return inv("stale by_var entry".into());
        }
        if self.readers.values().map(SortedSet::len).sum::<usize>() != read {
            return inv("stale reader entry".into());
        }
        // Acyclicity: Kahn's algorithm must consume every node.
        let mut indeg: Vec<usize> = self
            .nodes
            .iter()
            .map(|n| n.as_ref().map_or(0, |n| n.preds.len()))
            .collect();
        let mut ready: Vec<Slot> = (0..self.nodes.len() as Slot)
            .filter(|&s| node_ref(&self.nodes, s).is_some_and(|n| n.preds.is_empty()))
            .collect();
        let mut consumed = 0usize;
        while let Some(v) = ready.pop() {
            consumed += 1;
            for &s in neighbours(&self.nodes, v, Dir::Succs) {
                if let Some(d) = indeg.get_mut(s as usize) {
                    *d = d.saturating_sub(1);
                    if *d == 0 {
                        ready.push(s);
                    }
                }
            }
        }
        if consumed != live {
            return inv("graph contains a cycle".into());
        }
        Ok(())
    }
}

impl fmt::Debug for WriteGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "WriteGraph({:?}, {} nodes):",
            self.mode,
            self.node_count()
        )?;
        let mut live: Vec<&Node> = self.nodes.iter().flatten().collect();
        live.sort_unstable_by_key(|n| n.id);
        for n in live {
            let preds: Vec<NodeId> = n.preds.0.iter().filter_map(|&p| self.id_of(p)).collect();
            writeln!(
                f,
                "  {:?}: ops={:?} vars={:?} preds={:?}",
                n.id, n.ops, n.vars.0, preds
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use lob_ops::{LogicalOp, PhysioOp};
    use std::collections::BTreeMap;

    fn pid(i: u32) -> PageId {
        PageId::new(0, i)
    }

    fn physio(target: u32) -> OpBody {
        OpBody::Physio(PhysioOp::SetBytes {
            target: pid(target),
            offset: 0,
            bytes: Bytes::from_static(b"x"),
        })
    }

    fn copy(src: u32, dst: u32) -> OpBody {
        OpBody::Logical(LogicalOp::Copy {
            src: pid(src),
            dst: pid(dst),
        })
    }

    fn mix(reads: &[u32], writes: &[u32]) -> OpBody {
        OpBody::Logical(LogicalOp::Mix {
            reads: reads.iter().map(|&i| pid(i)).collect(),
            writes: writes.iter().map(|&i| pid(i)).collect(),
            salt: 0,
        })
    }

    fn identity(target: u32) -> OpBody {
        OpBody::IdentityWrite {
            target: pid(target),
            value: Bytes::from_static(b"v"),
        }
    }

    #[test]
    fn page_oriented_ops_have_free_flush_order() {
        let mut g = WriteGraph::new(GraphMode::Refined);
        g.add_op(Lsn(1), &physio(1));
        g.add_op(Lsn(2), &physio(2));
        g.add_op(Lsn(3), &physio(3));
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.frontier().len(), 3, "no edges between page-oriented ops");
        g.check_invariants().unwrap();
    }

    #[test]
    fn repeated_updates_accumulate_in_one_node() {
        let mut g = WriteGraph::new(GraphMode::Refined);
        let a = g.add_op(Lsn(1), &physio(1));
        let b = g.add_op(Lsn(2), &physio(1));
        assert_eq!(
            g.node_of(pid(1)),
            Some(b),
            "same-page physiological ops share a node, re-keyed by the merge"
        );
        assert_ne!(a, b, "every add_op hands out a fresh id");
        assert!(g.vars(a).is_err(), "old id absorbed");
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.ops(b).unwrap().len(), 2);
        assert_eq!(g.vars(b).unwrap().len(), 1);
        g.check_invariants().unwrap();
    }

    #[test]
    fn copy_creates_flush_dependency() {
        // copy(X, Y): Y must flush before a subsequent update of X.
        let mut g = WriteGraph::new(GraphMode::Refined);
        let ny = g.add_op(Lsn(1), &copy(1, 2)); // reads 1 writes 2
        let nx = g.add_op(Lsn(2), &physio(1)); // updates X=1
        assert_ne!(ny, nx);
        assert!(g.has_preds(nx).unwrap(), "X's node waits on Y's node");
        assert!(!g.has_preds(ny).unwrap());
        assert_eq!(g.frontier(), vec![ny]);
        let plan = g.flush_plan(nx).unwrap();
        assert_eq!(plan, vec![ny, nx]);
        g.check_invariants().unwrap();
    }

    #[test]
    fn install_respects_predecessors() {
        let mut g = WriteGraph::new(GraphMode::Refined);
        let ny = g.add_op(Lsn(1), &copy(1, 2));
        let nx = g.add_op(Lsn(2), &physio(1));
        assert!(matches!(
            g.install_node(nx),
            Err(WriteGraphError::HasPredecessors(_))
        ));
        let ops = g.install_node(ny).unwrap();
        assert_eq!(ops, vec![Lsn(1)]);
        assert!(!g.has_preds(nx).unwrap(), "edge released");
        g.install_node(nx).unwrap();
        assert!(g.is_empty());
        assert_eq!(g.installed_ops(), 2);
        g.check_invariants().unwrap();
    }

    #[test]
    fn intersecting_mode_merges_and_grows() {
        let mut g = WriteGraph::new(GraphMode::Intersecting);
        g.add_op(Lsn(1), &mix(&[1], &[2, 3]));
        g.add_op(Lsn(2), &mix(&[4], &[3, 5]));
        // Write sets {2,3} and {3,5} intersect → one node with vars {2,3,5}.
        assert_eq!(g.node_count(), 1);
        let id = g.node_ids().next().unwrap();
        assert_eq!(g.vars(id).unwrap().len(), 3);
        assert_eq!(g.max_vars_seen(), 3);
        g.check_invariants().unwrap();
    }

    #[test]
    fn intersecting_mode_never_shrinks_vars() {
        let mut g = WriteGraph::new(GraphMode::Intersecting);
        g.add_op(Lsn(1), &mix(&[1], &[2, 3]));
        // Blind physical write of 2 merges rather than stealing.
        g.add_op(
            Lsn(2),
            &OpBody::PhysicalWrite {
                target: pid(2),
                value: Bytes::from_static(b"v"),
            },
        );
        assert_eq!(g.node_count(), 1);
        let id = g.node_ids().next().unwrap();
        assert_eq!(g.vars(id).unwrap().len(), 2, "vars stay {{2,3}}");
        g.check_invariants().unwrap();
    }

    #[test]
    fn refined_mode_blind_write_shrinks_vars() {
        // Figure 2 of the paper: A writes {X=2, Y=3}; blind write C of X
        // leaves node(A) with vars {Y} and node(C) with vars {X}.
        let mut g = WriteGraph::new(GraphMode::Refined);
        let a = g.add_op(Lsn(1), &mix(&[1], &[2, 3]));
        assert_eq!(g.vars(a).unwrap().len(), 2);
        let c = g.add_op(
            Lsn(2),
            &OpBody::PhysicalWrite {
                target: pid(2),
                value: Bytes::from_static(b"v"),
            },
        );
        assert_ne!(a, c);
        assert_eq!(
            g.vars(a).unwrap().to_vec(),
            vec![pid(3)],
            "X removed from node A's flush set"
        );
        assert_eq!(g.vars(c).unwrap().to_vec(), vec![pid(2)]);
        assert_eq!(g.node_of(pid(2)), Some(c));
        g.check_invariants().unwrap();
    }

    #[test]
    fn blind_write_gets_edges_from_readers_of_old_value() {
        let mut g = WriteGraph::new(GraphMode::Refined);
        // B reads X(=1) and writes 5: B's node reads 1.
        let b = g.add_op(Lsn(1), &copy(1, 5));
        // C blind-writes X: inverse write-read edge B -> C.
        let c = g.add_op(
            Lsn(2),
            &OpBody::PhysicalWrite {
                target: pid(1),
                value: Bytes::from_static(b"v"),
            },
        );
        assert!(g.has_preds(c).unwrap());
        assert_eq!(g.flush_plan(c).unwrap(), vec![b, c]);
        g.check_invariants().unwrap();
    }

    #[test]
    fn identity_write_steals_without_reader_edges() {
        let mut g = WriteGraph::new(GraphMode::Refined);
        let b = g.add_op(Lsn(1), &copy(1, 5)); // reads 1
        let m = g.add_op(Lsn(2), &identity(1)); // identity write of 1
        assert_ne!(b, m);
        assert!(
            !g.has_preds(m).unwrap(),
            "identity write does not wait on readers — Iw/oF must not cascade"
        );
        g.check_invariants().unwrap();
    }

    #[test]
    fn iwof_drains_vars_to_empty() {
        // Multi-object node; identity writes drain vars; node installs free.
        let mut g = WriteGraph::new(GraphMode::Refined);
        let n = g.add_op(Lsn(1), &mix(&[1], &[2, 3]));
        let m2 = g.add_op(Lsn(2), &identity(2));
        let m3 = g.add_op(Lsn(3), &identity(3));
        assert!(g.vars(n).unwrap().is_empty(), "vars drained by W_IP");
        assert_eq!(g.vars(m2).unwrap().len(), 1);
        assert_eq!(g.vars(m3).unwrap().len(), 1);
        // n has no preds → installable without flushing anything.
        let ops = g.install_node(n).unwrap();
        assert_eq!(ops, vec![Lsn(1)]);
        g.check_invariants().unwrap();
    }

    fn sorted_ops(g: &WriteGraph, n: NodeId) -> Vec<Lsn> {
        let mut ops = g.ops(n).unwrap().to_vec();
        ops.sort_unstable();
        ops
    }

    #[test]
    fn merge_that_closes_a_cycle_collapses_into_the_merging_op() {
        let mut g = WriteGraph::new(GraphMode::Refined);
        // n1 updates 11 having read 10; n2 updates 10 having read 11:
        // n1 -> n2 (n1 read the 10 that n2 overwrites).
        let n1 = g.add_op(Lsn(1), &mix(&[10, 11], &[11]));
        let n2 = g.add_op(Lsn(2), &mix(&[10, 11], &[10]));
        assert_eq!(g.preds(n2).unwrap(), vec![n1]);
        assert_eq!(g.nodes_walked(), 0, "no seed had both preds and succs yet");
        // A second update of 11 merges into n1's node, and n2 read the 11
        // it overwrites: n2 -> merged node -> n2.
        let n3 = g.add_op(Lsn(3), &physio(11));
        assert_eq!(n3, NodeId(3));
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.node_of(pid(10)), Some(n3));
        assert_eq!(g.node_of(pid(11)), Some(n3));
        assert_eq!(g.vars(n3).unwrap(), &[pid(10), pid(11)]);
        assert_eq!(sorted_ops(&g, n3), vec![Lsn(1), Lsn(2), Lsn(3)]);
        assert!(g.preds(n3).unwrap().is_empty());
        assert_eq!(g.frontier(), vec![n3]);
        assert!(g.vars(n1).is_err() && g.vars(n2).is_err());
        assert!(g.nodes_walked() > 0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn cycle_closed_by_a_two_node_merge_collapses() {
        let mut g = WriteGraph::new(GraphMode::Refined);
        let a = g.add_op(Lsn(1), &mix(&[1, 5], &[1]));
        let c = g.add_op(Lsn(2), &mix(&[6], &[5])); // a read 5: a -> c
        let b = g.add_op(Lsn(3), &mix(&[2, 6], &[2, 6])); // c read 6: c -> b
        assert_eq!(g.flush_plan(b).unwrap(), vec![a, c, b]);
        // d updates 1 and 2 in place: a and b become one node m, which
        // inherits a -> c and c -> b, i.e. m -> c -> m.
        let d = g.add_op(Lsn(4), &mix(&[1, 2], &[1, 2]));
        assert_eq!(d, NodeId(4));
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.vars(d).unwrap(), &[pid(1), pid(2), pid(5), pid(6)]);
        assert_eq!(sorted_ops(&g, d), vec![Lsn(1), Lsn(2), Lsn(3), Lsn(4)]);
        assert!(g.preds(d).unwrap().is_empty());
        assert_eq!(g.min_uninstalled_lsn(), Some(Lsn(1)));
        g.check_invariants().unwrap();
    }

    #[test]
    fn collapse_away_from_the_new_node_keeps_the_returned_id() {
        let mut g = WriteGraph::new(GraphMode::Refined);
        let n1 = g.add_op(Lsn(1), &mix(&[1], &[2]));
        let n2 = g.add_op(Lsn(2), &mix(&[2], &[1])); // n1 read 1: n1 -> n2
        assert_eq!(g.preds(n2).unwrap(), vec![n1]);
        // A blind write of 2 robs n1; n2 read the old 2, so the inverse
        // write-read edge n2 -> n1 closes n1 <-> n2. The thief only gains
        // the predecessor n2 and is on no cycle.
        let n3 = g.add_op(Lsn(3), &mix(&[3], &[2]));
        assert_eq!(n3, NodeId(3));
        assert_eq!(g.node_count(), 2);
        assert!(g.vars(n1).is_err(), "n1 absorbed: the largest id survives");
        assert_eq!(g.vars(n2).unwrap(), &[pid(1)]);
        assert_eq!(sorted_ops(&g, n2), vec![Lsn(1), Lsn(2)]);
        assert_eq!(g.wal_floor(n2).unwrap(), Lsn(3));
        assert_eq!(g.vars(n3).unwrap(), &[pid(2)]);
        assert_eq!(g.preds(n3).unwrap(), vec![n2]);
        assert_eq!(g.frontier(), vec![n2]);
        let n4 = g.add_op(Lsn(4), &mix(&[2], &[3])); // n3 read 3: n3 -> n4
        assert_eq!(g.flush_plan(n4).unwrap(), vec![n2, n3, n4]);
        g.check_invariants().unwrap();
    }

    #[test]
    fn one_op_can_close_two_disjoint_cycles_at_two_holders() {
        let mut g = WriteGraph::new(GraphMode::Refined);
        let h1 = g.add_op(Lsn(1), &mix(&[2], &[1]));
        let r1 = g.add_op(Lsn(2), &mix(&[1], &[2])); // h1 -> r1
        let h2 = g.add_op(Lsn(3), &mix(&[4], &[3]));
        let r2 = g.add_op(Lsn(4), &mix(&[3], &[4])); // h2 -> r2
        assert_eq!(g.node_count(), 4);
        // Blind writes of 1 and 3 rob h1 and h2; their readers r1 and r2
        // must now install before them: r1 -> h1 and r2 -> h2.
        let t = g.add_op(Lsn(5), &mix(&[9], &[1, 3]));
        assert_eq!(t, NodeId(5));
        assert_eq!(g.node_count(), 3);
        assert!(g.vars(h1).is_err() && g.vars(h2).is_err());
        assert_eq!(g.vars(r1).unwrap(), &[pid(2)]);
        assert_eq!(g.vars(r2).unwrap(), &[pid(4)]);
        assert_eq!(g.vars(t).unwrap(), &[pid(1), pid(3)]);
        assert_eq!(sorted_ops(&g, r1), vec![Lsn(1), Lsn(2)]);
        assert_eq!(sorted_ops(&g, r2), vec![Lsn(3), Lsn(4)]);
        assert_eq!(g.wal_floor(r1).unwrap(), Lsn(5));
        assert_eq!(g.wal_floor(r2).unwrap(), Lsn(5));
        assert_eq!(g.preds(t).unwrap(), vec![r1, r2]);
        assert_eq!(g.frontier(), vec![r1, r2]);
        assert_eq!(g.flush_plan(t).unwrap(), vec![r2, r1, t]);
        g.check_invariants().unwrap();
    }

    #[test]
    fn edge_free_redirty_walks_nothing() {
        let mut g = WriteGraph::new(GraphMode::Refined);
        for i in 0..64u64 {
            g.add_op(Lsn(i + 1), &physio((i % 4) as u32));
        }
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.nodes_walked(), 0);
        // Edges on one side only are as cheap: c -> x, both re-dirtied.
        let mut g = WriteGraph::new(GraphMode::Refined);
        g.add_op(Lsn(1), &copy(1, 2));
        g.add_op(Lsn(2), &physio(2));
        let x = g.add_op(Lsn(3), &physio(1));
        assert!(g.has_preds(x).unwrap());
        g.add_op(Lsn(4), &physio(1));
        g.add_op(Lsn(5), &physio(2));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.nodes_walked(), 0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn cycle_search_is_bounded_by_the_smaller_side() {
        // node(k+1) -> node(k) for k in 0..64: node(2) has two descendants
        // and sixty-odd ancestors.
        let mut g = WriteGraph::new(GraphMode::Refined);
        let mut lsn = 0u64;
        let mut next = || {
            lsn += 1;
            Lsn(lsn)
        };
        for k in 0..64u32 {
            g.add_op(next(), &copy(k, k + 1));
            g.add_op(next(), &physio(k));
        }
        let before = g.nodes_walked();
        let n = g.add_op(next(), &physio(2));
        assert_eq!(g.flush_plan(n).unwrap().len(), 63);
        assert!(
            g.nodes_walked() - before <= 8,
            "walked {} nodes for a seed with two descendants",
            g.nodes_walked() - before
        );
        g.check_invariants().unwrap();
    }

    #[test]
    fn btree_split_shape_is_a_tree() {
        // MovRec(old=1, new=2) then RmvRec(old=1): node(new) -> node(old).
        let mut g = WriteGraph::new(GraphMode::Refined);
        let mov = OpBody::Logical(LogicalOp::MovRec {
            old: pid(1),
            sep: Bytes::from_static(b"k"),
            new: pid(2),
        });
        let n_new = g.add_op(Lsn(1), &mov);
        let rmv = OpBody::Physio(PhysioOp::RmvRec {
            target: pid(1),
            sep: Bytes::from_static(b"k"),
        });
        let n_old = g.add_op(Lsn(2), &rmv);
        assert_ne!(n_new, n_old);
        assert_eq!(g.vars(n_new).unwrap().len(), 1);
        assert_eq!(g.vars(n_old).unwrap().len(), 1);
        assert_eq!(g.flush_plan(n_old).unwrap(), vec![n_new, n_old]);
        assert_eq!(g.frontier(), vec![n_new]);
        g.check_invariants().unwrap();
    }

    #[test]
    fn min_uninstalled_lsn_tracks_truncation_bound() {
        let mut g = WriteGraph::new(GraphMode::Refined);
        assert_eq!(g.min_uninstalled_lsn(), None);
        let a = g.add_op(Lsn(5), &physio(1));
        g.add_op(Lsn(9), &physio(2));
        assert_eq!(g.min_uninstalled_lsn(), Some(Lsn(5)));
        g.install_node(a).unwrap();
        assert_eq!(g.min_uninstalled_lsn(), Some(Lsn(9)));
    }

    #[test]
    fn node_of_absent_page_is_none() {
        let g = WriteGraph::new(GraphMode::Refined);
        assert_eq!(g.node_of(pid(7)), None);
        assert!(matches!(
            g.vars(NodeId(99)),
            Err(WriteGraphError::NoSuchNode(_))
        ));
    }

    #[test]
    fn blind_steal_sets_wal_floor_on_holder() {
        let mut g = WriteGraph::new(GraphMode::Refined);
        let n = g.add_op(Lsn(1), &mix(&[1], &[2, 3]));
        assert_eq!(g.wal_floor(n).unwrap(), Lsn::NULL);
        // Blind write of 2 steals it; the holder may not install until the
        // thief's record (LSN 5) is durable.
        g.add_op(
            Lsn(5),
            &OpBody::PhysicalWrite {
                target: pid(2),
                value: Bytes::from_static(b"v"),
            },
        );
        assert_eq!(g.wal_floor(n).unwrap(), Lsn(5));
        // A second steal raises the floor.
        g.add_op(
            Lsn(9),
            &OpBody::PhysicalWrite {
                target: pid(3),
                value: Bytes::from_static(b"v"),
            },
        );
        assert_eq!(g.wal_floor(n).unwrap(), Lsn(9));
        assert!(g.vars(n).unwrap().is_empty());
        g.check_invariants().unwrap();
    }

    #[test]
    fn identity_steal_also_sets_wal_floor() {
        // The engine forces identity records before installing anyway, but
        // the graph reports the requirement uniformly.
        let mut g = WriteGraph::new(GraphMode::Refined);
        let n = g.add_op(Lsn(1), &mix(&[1], &[2]));
        g.add_op(Lsn(4), &identity(2));
        assert_eq!(g.wal_floor(n).unwrap(), Lsn(4));
    }

    #[test]
    fn inverse_edges_target_the_holder() {
        // A writes {2}; R reads 2 (uninstalled); thief T blind-writes 2.
        // §2.4: R must install before A (the holder) — edge R → A — in
        // addition to the ordinary read-write edge R → T.
        let mut g = WriteGraph::new(GraphMode::Refined);
        let a = g.add_op(Lsn(1), &mix(&[1], &[2]));
        let r = g.add_op(Lsn(2), &mix(&[2], &[5]));
        let t = g.add_op(
            Lsn(3),
            &OpBody::PhysicalWrite {
                target: pid(2),
                value: Bytes::from_static(b"v"),
            },
        );
        // Holder A lost var 2 but now waits on reader R.
        assert!(g.vars(a).unwrap().is_empty());
        assert!(g.has_preds(a).unwrap(), "inverse write-read edge R -> A");
        assert!(g.has_preds(t).unwrap(), "ordinary read-write edge R -> T");
        assert!(!g.has_preds(r).unwrap());
        // Installing R releases both.
        let plan = g.flush_plan(a).unwrap();
        assert_eq!(plan, vec![r, a]);
        g.check_invariants().unwrap();
    }

    #[test]
    fn wal_floor_survives_merges() {
        let mut g = WriteGraph::new(GraphMode::Refined);
        g.add_op(Lsn(1), &mix(&[1], &[2, 3]));
        g.add_op(
            Lsn(5),
            &OpBody::PhysicalWrite {
                target: pid(2),
                value: Bytes::from_static(b"v"),
            },
        );
        // A physiological op on 3 merges into the (floored) holder.
        let merged = g.add_op(Lsn(6), &mix(&[3], &[3]));
        assert_eq!(g.wal_floor(merged).unwrap(), Lsn(5));
    }

    #[test]
    fn deep_chain_flush_plan_is_topological() {
        let mut g = WriteGraph::new(GraphMode::Refined);
        // copy(1,2), update 1; copy(1,3) ... build a chain:
        // copy(k, k+1) then physio(k): node(k+1) -> node(k).
        let mut last = None;
        for k in 0..10u32 {
            g.add_op(Lsn(2 * k as u64 + 1), &copy(k, k + 1));
            last = Some(g.add_op(Lsn(2 * k as u64 + 2), &physio(k)));
        }
        let plan = g.flush_plan(last.unwrap()).unwrap();
        // The plan respects edges: every node appears after its preds.
        let pos: BTreeMap<NodeId, usize> = plan.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        for &n in &plan {
            for p in g.preds(n).unwrap() {
                if let Some(pi) = pos.get(&p) {
                    assert!(pi < &pos[&n], "pred before successor");
                }
            }
        }
        g.check_invariants().unwrap();
    }
}
