//! [`ReferenceWriteGraph`]: the whole-graph write-graph construction, kept
//! as the differential witness for `lob_recovery::WriteGraph`.
//!
//! This is the construction the engine used before the write graph learned
//! to touch only the nodes an insertion changes: every merge detaches the
//! old nodes and rebuilds a new one, and every insertion that merged or
//! added inverse write-read edges runs a Tarjan pass over the **entire**
//! graph and collapses whatever components it finds. It is obviously
//! right and O(live graph) per operation, which is exactly what a witness
//! should be. The one rule it shares by decree rather than by derivation is
//! the survivor of a collapse: the member with the largest id.
//!
//! Node ids are plain `u64`s handed out 1, 2, 3, … like the production
//! graph's, so the two can be compared through `NodeId::raw`.

use lob_core::{GraphMode, Lsn, OpBody, PageId};
use std::collections::{BTreeMap, BTreeSet};

#[derive(Default)]
struct Node {
    ops: Vec<Lsn>,
    vars: BTreeSet<PageId>,
    reads: BTreeSet<PageId>,
    preds: BTreeSet<u64>,
    succs: BTreeSet<u64>,
    wal_floor: Lsn,
}

impl Node {
    fn absorb(&mut self, old: Node) {
        self.ops.extend(old.ops);
        self.vars.extend(old.vars);
        self.reads.extend(old.reads);
        self.preds.extend(old.preds);
        self.succs.extend(old.succs);
        self.wal_floor = self.wal_floor.max(old.wal_floor);
    }
}

/// The reference construction of both write graphs (`W` and `rW`).
pub struct ReferenceWriteGraph {
    mode: GraphMode,
    nodes: BTreeMap<u64, Node>,
    by_var: BTreeMap<PageId, u64>,
    readers: BTreeMap<PageId, BTreeSet<u64>>,
    next_id: u64,
}

impl ReferenceWriteGraph {
    /// An empty graph in the given mode.
    pub fn new(mode: GraphMode) -> ReferenceWriteGraph {
        ReferenceWriteGraph {
            mode,
            nodes: BTreeMap::new(),
            by_var: BTreeMap::new(),
            readers: BTreeMap::new(),
            next_id: 0,
        }
    }

    /// Register a logged operation; returns the id of the node carrying it.
    pub fn add_op(&mut self, lsn: Lsn, body: &OpBody) -> u64 {
        let reads: BTreeSet<PageId> = body.readset().into_iter().collect();
        let writes: BTreeSet<PageId> = body.writeset().into_iter().collect();
        let identity = matches!(body, OpBody::IdentityWrite { .. });
        let refined = self.mode == GraphMode::Refined;
        let blind = |w: &PageId| refined && !reads.contains(w);

        // 1. Holders of non-blindly written pages merge with the operation.
        let merge_with: BTreeSet<u64> = writes
            .iter()
            .filter(|w| !blind(w))
            .filter_map(|w| self.by_var.get(w).copied())
            .collect();

        // 2. Build the new node, folding in the merged nodes.
        self.next_id += 1;
        let id = self.next_id;
        let mut node = Node {
            ops: vec![lsn],
            vars: writes.clone(),
            reads: reads.clone(),
            ..Node::default()
        };
        for m in &merge_with {
            if let Some(old) = self.detach(*m) {
                node.absorb(old);
            }
        }
        node.preds.retain(|p| !merge_with.contains(p));
        node.succs.retain(|s| !merge_with.contains(s));

        // 3. Blind writes steal their target from its holder and add the
        //    inverse write-read edges reader -> holder (not for identity
        //    writes).
        let mut inverse_edges_added = false;
        for w in writes.iter().filter(|w| blind(w)) {
            let Some(&holder) = self.by_var.get(w) else {
                continue;
            };
            if let Some(h) = self.nodes.get_mut(&holder) {
                h.vars.remove(w);
                h.wal_floor = h.wal_floor.max(lsn);
            }
            if identity {
                continue;
            }
            let readers: Vec<u64> = self
                .readers
                .get(w)
                .map(|rs| rs.iter().copied().collect())
                .unwrap_or_default();
            for r in readers.into_iter().filter(|&r| r != holder) {
                if let Some(rn) = self.nodes.get_mut(&r) {
                    rn.succs.insert(holder);
                }
                if let Some(hn) = self.nodes.get_mut(&holder) {
                    hn.preds.insert(r);
                }
                inverse_edges_added = true;
            }
        }

        // 4. Read-write edges: every uninstalled reader of a written page
        //    installs first (not for identity writes).
        if !identity {
            for w in &writes {
                if let Some(rs) = self.readers.get(w) {
                    node.preds.extend(rs.iter().copied());
                }
            }
        }

        // 5. Insert the node and fix up the indexes.
        let merged_any = !merge_with.is_empty();
        self.attach(id, node);

        // 6. Second collapse over the whole graph.
        if merged_any || inverse_edges_added {
            self.collapse_sccs(id)
        } else {
            id
        }
    }

    /// Remove `m` from the graph and every index, returning its data.
    fn detach(&mut self, m: u64) -> Option<Node> {
        let node = self.nodes.remove(&m)?;
        for v in &node.vars {
            self.by_var.remove(v);
        }
        for r in &node.reads {
            if let Some(rs) = self.readers.get_mut(r) {
                rs.remove(&m);
            }
        }
        for p in &node.preds {
            if let Some(pn) = self.nodes.get_mut(p) {
                pn.succs.remove(&m);
            }
        }
        for s in &node.succs {
            if let Some(sn) = self.nodes.get_mut(s) {
                sn.preds.remove(&m);
            }
        }
        Some(node)
    }

    /// Insert `node` under `id` and mirror its sets into every index.
    fn attach(&mut self, id: u64, node: Node) {
        for v in &node.vars {
            self.by_var.insert(*v, id);
        }
        for r in &node.reads {
            self.readers.entry(*r).or_default().insert(id);
        }
        for p in &node.preds {
            if let Some(pn) = self.nodes.get_mut(p) {
                pn.succs.insert(id);
            }
        }
        for s in &node.succs {
            if let Some(sn) = self.nodes.get_mut(s) {
                sn.preds.insert(id);
            }
        }
        self.nodes.insert(id, node);
    }

    /// Collapse every SCC of size > 1 into its largest member. Returns the
    /// surviving id of the node that contains `track`.
    fn collapse_sccs(&mut self, track: u64) -> u64 {
        let mut result = track;
        for scc in self.tarjan() {
            let members: BTreeSet<u64> = scc.into_iter().collect();
            let Some(&keep) = members.last() else {
                continue;
            };
            if members.len() == 1 {
                continue;
            }
            let mut merged = Node::default();
            for m in &members {
                if let Some(old) = self.detach(*m) {
                    merged.absorb(old);
                }
            }
            merged.preds.retain(|p| !members.contains(p));
            merged.succs.retain(|s| !members.contains(s));
            self.attach(keep, merged);
            if members.contains(&result) {
                result = keep;
            }
        }
        result
    }

    /// Iterative Tarjan SCC over the whole graph.
    fn tarjan(&self) -> Vec<Vec<u64>> {
        #[derive(Clone, Copy)]
        struct Meta {
            index: u32,
            lowlink: u32,
            on_stack: bool,
        }
        let succs_of = |v: u64| -> Vec<u64> {
            self.nodes
                .get(&v)
                .map(|n| n.succs.iter().copied().collect())
                .unwrap_or_default()
        };
        let mut meta: BTreeMap<u64, Meta> = BTreeMap::new();
        let mut index = 0u32;
        let mut stack: Vec<u64> = Vec::new();
        let mut out = Vec::new();
        let mut enter = |v: u64, meta: &mut BTreeMap<u64, Meta>, stack: &mut Vec<u64>| {
            meta.insert(
                v,
                Meta {
                    index,
                    lowlink: index,
                    on_stack: true,
                },
            );
            index += 1;
            stack.push(v);
        };

        for start in self.nodes.keys().copied() {
            if meta.contains_key(&start) {
                continue;
            }
            // Explicit DFS stack of (node, its successors, position).
            let mut call: Vec<(u64, Vec<u64>, usize)> = Vec::new();
            enter(start, &mut meta, &mut stack);
            call.push((start, succs_of(start), 0));

            while let Some((v, succs, mut i)) = call.pop() {
                let mut descended = false;
                while let Some(&w) = succs.get(i) {
                    i += 1;
                    match meta.get(&w).copied() {
                        None => {
                            enter(w, &mut meta, &mut stack);
                            call.push((v, succs, i));
                            call.push((w, succs_of(w), 0));
                            descended = true;
                            break;
                        }
                        Some(mw) if mw.on_stack => {
                            if let Some(lv) = meta.get_mut(&v) {
                                lv.lowlink = lv.lowlink.min(mw.index);
                            }
                        }
                        Some(_) => {}
                    }
                }
                if descended {
                    continue;
                }
                // v finished: pop its SCC if it is a root, and propagate
                // its lowlink to the parent.
                let Some(mv) = meta.get(&v).copied() else {
                    continue;
                };
                if mv.lowlink == mv.index {
                    let mut scc = Vec::new();
                    while let Some(w) = stack.pop() {
                        if let Some(mw) = meta.get_mut(&w) {
                            mw.on_stack = false;
                        }
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    out.push(scc);
                }
                if let Some((parent, _, _)) = call.last() {
                    if let Some(lp) = meta.get_mut(parent) {
                        lp.lowlink = lp.lowlink.min(mv.lowlink);
                    }
                }
            }
        }
        out
    }

    /// Node currently responsible for flushing `page`, if any.
    pub fn node_of(&self, page: PageId) -> Option<u64> {
        self.by_var.get(&page).copied()
    }

    /// Atomic flush set of a node, ascending.
    pub fn vars(&self, id: u64) -> Option<Vec<PageId>> {
        Some(self.nodes.get(&id)?.vars.iter().copied().collect())
    }

    /// The node's WAL floor.
    pub fn wal_floor(&self, id: u64) -> Option<Lsn> {
        Some(self.nodes.get(&id)?.wal_floor)
    }

    /// The node's uninstalled operations, ascending.
    pub fn ops(&self, id: u64) -> Option<Vec<Lsn>> {
        let mut ops = self.nodes.get(&id)?.ops.clone();
        ops.sort_unstable();
        Some(ops)
    }

    /// The node's direct predecessors, ascending.
    pub fn preds(&self, id: u64) -> Option<Vec<u64>> {
        Some(self.nodes.get(&id)?.preds.iter().copied().collect())
    }

    /// Live node ids, ascending.
    pub fn node_ids(&self) -> Vec<u64> {
        self.nodes.keys().copied().collect()
    }

    /// All nodes with no predecessors, ascending.
    pub fn frontier(&self) -> Vec<u64> {
        self.nodes
            .iter()
            .filter(|(_, n)| n.preds.is_empty())
            .map(|(id, _)| *id)
            .collect()
    }

    /// The ancestors of `id` in a topological order, then `id`.
    pub fn flush_plan(&self, id: u64) -> Option<Vec<u64>> {
        self.nodes.get(&id)?;
        let mut anc: BTreeSet<u64> = BTreeSet::new();
        let mut work = vec![id];
        while let Some(v) = work.pop() {
            for &p in self.nodes.get(&v).iter().flat_map(|n| &n.preds) {
                if anc.insert(p) {
                    work.push(p);
                }
            }
        }
        anc.insert(id);
        // Kahn over the induced subgraph.
        let mut indeg: BTreeMap<u64, usize> = anc
            .iter()
            .map(|v| {
                let d = self
                    .nodes
                    .get(v)
                    .map_or(0, |n| n.preds.iter().filter(|p| anc.contains(p)).count());
                (*v, d)
            })
            .collect();
        let mut ready: Vec<u64> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(v, _)| *v)
            .collect();
        let mut plan = Vec::with_capacity(anc.len());
        while let Some(v) = ready.pop() {
            plan.push(v);
            for &s in self.nodes.get(&v).iter().flat_map(|n| &n.succs) {
                if let Some(d) = indeg.get_mut(&s) {
                    *d = d.saturating_sub(1);
                    if *d == 0 {
                        ready.push(s);
                    }
                }
            }
        }
        Some(plan)
    }

    /// Remove a predecessor-free node; `None` if it is absent or blocked.
    /// Returns the installed operations' LSNs, ascending.
    pub fn install_node(&mut self, id: u64) -> Option<Vec<Lsn>> {
        if !self.nodes.get(&id)?.preds.is_empty() {
            return None;
        }
        let mut ops = self.detach(id)?.ops;
        ops.sort_unstable();
        Some(ops)
    }

    /// Smallest LSN among uninstalled operations.
    pub fn min_uninstalled_lsn(&self) -> Option<Lsn> {
        self.nodes
            .values()
            .flat_map(|n| n.ops.iter().copied())
            .min()
    }

    /// Number of uninstalled operations in the graph.
    pub fn op_count(&self) -> usize {
        self.nodes.values().map(|n| n.ops.len()).sum()
    }
}
