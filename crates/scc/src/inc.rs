//! IncSCC — the incremental SCC algorithm of Section 5.3, bounded relative
//! to Tarjan.
//!
//! The auxiliary state is the condensation `Gc` with topological ranks,
//! plus — writer-side only — a strong-connectivity certificate per
//! component that has seen an intra-component deletion (`cert.rs`: an
//! out-tree and an in-tree over real graph edges to one root).
//! Unit operations:
//!
//! * **Insertion** (`IncSCC⁺`, Fig. 7): intra-scc insertions change nothing
//!   structurally; inter-scc insertions that respect the rank order only
//!   bump an edge counter; order-violating insertions trigger a
//!   bidirectional bounded search (`DFSf`/`DFSb`) over `Gc`, a cycle check by
//!   Tarjan on the affected region of `Gc`, component merging, and
//!   `reallocRank`.
//! * **Deletion** (`IncSCC⁻`): inter-scc deletions decrement a counter. An
//!   intra-scc deletion that is no edge of the component's certificate
//!   leaves the certificate — and so the output — as it is: two array
//!   reads. A deleted tree edge orphans a node, which re-attaches through
//!   any neighbour whose walk to the root avoids the orphans; the nodes
//!   that cannot re-attach are exactly the ones cut off from the root, and
//!   Tarjan runs restricted to *them*, splitting the component and slotting
//!   the sub-components' ranks into the gap left by the old rank.
//! * **Batch** (`IncSCC`): updates are grouped — all intra deletions of one
//!   scc orphan their nodes together and are repaired by one pass per
//!   tree, and inter updates are applied to `Gc` together — which is the
//!   optimisation the paper credits for the gap between `IncSCC` and
//!   `IncSCCⁿ`.
//!
//! **Invariant.** In a certified component every member other than the root
//! has, in each tree, a parent in the same component joined to it by an
//! edge of `g` (`parent → v` in the out-tree, `v → parent` in the in-tree),
//! and parent walks end at the root. A merge hangs the absorbed nodes into
//! the surviving component's trees from their neighbours; a split leaves
//! the certificate with the root's side.
//!
//! **Fallback.** A repair may spend `INTACT_CHECK_BUDGET_FACTOR`·`|Vc|`
//! (5·`|Vc|`) work; past that the certificate is rebuilt by one BFS pair
//! from a fresh root, which yields the cut-off set directly — so the worst
//! case stays within a constant factor of the restricted Tarjan it
//! replaces. The same build certifies a component the first time it sees
//! an intra deletion.
//!
//! **`WorkStats` depend on history.** What a deletion costs depends on
//! whether it hits a tree edge, and the trees depend on the updates the
//! view has seen — as the condensation's ranks always did. Two views over
//! the same graph agree on every answer but need not book the same work.
//!
//! Structural changes are made **in place and pay for the smaller side**:
//! a merge keeps the largest component of the cycle under its own id and
//! moves only the other members' nodes and edge counters into it; a split
//! keeps the largest sub-component under the old id and moves condensation
//! edges by scanning the carved nodes' adjacency alone. So a hub that
//! frays off a giant component and is fused back costs the hub, not the
//! giant, and `scc_of` is stable for everything that stayed put.
//!
//! Deviations from the paper: per-node `num`/`lowlink` are not maintained
//! (nothing reads them between Tarjan runs, and the restricted run
//! recomputes its own); intra-component reachability is answered by the
//! certificate instead of the full-version `chkReach` propagation (the
//! paper defers those details to its full version) — the same idea as the
//! `next` pointer of `IncKws` and the `mpre` witness of `IncRpq`: a deletion
//! that misses the witness is a no-op.

use crate::cert::{Certificates, SccDelta};
use crate::condensation::{Condensation, SccId, RANK_GAP};
use crate::tarjan::{tarjan, tarjan_restricted, LocalIndex};
use igc_core::work::{ChangeMetrics, WorkStats};
use igc_core::IncView;
use igc_graph::graph::Edge;
use igc_graph::{DynamicGraph, FxHashMap, FxHashSet, Label, NodeId, UpdateBatch};
use std::sync::Arc;

/// Maintained strongly connected components (the answer `SCC(G)`), with the
/// paper's auxiliary structures.
///
/// Every read accessor is served by the condensation, so it sits behind an
/// `Arc`: the copy [`IncView::clone_view`] publishes shares it, and `apply`
/// unshares it once (`SccPass`). The certificates and the restricted
/// Tarjan's node index are the writer's and are left out of that copy.
#[derive(Debug, Clone)]
pub struct IncScc {
    cond: Arc<Condensation>,
    work: WorkStats,
    metrics: ChangeMetrics,
    delta: SccDelta,
    certs: Certificates,
    local: LocalIndex,
}

/// One `apply`'s exclusive borrows: the condensation unshared once up
/// front, so the maintenance below works through plain `&mut`.
struct SccPass<'a> {
    cond: &'a mut Condensation,
    work: &'a mut WorkStats,
    metrics: &'a mut ChangeMetrics,
    delta: &'a mut SccDelta,
    certs: &'a mut Certificates,
    local: &'a mut LocalIndex,
}

/// Work budget of a certificate repair, as a multiple of the component's
/// member count. Rebuilding the certificate costs about `2·(|Vc| + |Ec|)`;
/// with the datasets' typical density `|Ec| ≈ 4·|Vc|`, a budget of `5·|Vc|`
/// nodes-plus-edges lets a repair spend up to roughly half a rebuild
/// before falling back to one — so the slow path costs at most ~1.5× a
/// rebuild, itself a small multiple of the restricted Tarjan over the
/// whole component that a failed intact check used to cost.
pub(crate) const INTACT_CHECK_BUDGET_FACTOR: u64 = 5;

impl IncScc {
    /// A deferred constructor for lazy engine registration: Tarjan runs on
    /// the engine's *current* graph at registration time
    /// (`engine.register_lazy("scc", IncScc::init())`).
    pub fn init() -> impl FnOnce(&DynamicGraph) -> Self {
        IncScc::new
    }

    /// Run Tarjan once on `g` and set up the condensation and ranks — the
    /// batch phase of the incrementalization.
    pub fn new(g: &DynamicGraph) -> Self {
        let r = tarjan(g);
        let mut cond = Condensation::new();
        // Emission order is reverse topological: emission index works as a
        // rank (sinks lowest), gapped for later splits.
        let mut ids: Vec<SccId> = Vec::with_capacity(r.components.len());
        for (i, comp) in r.components.iter().enumerate() {
            let id = cond.create_scc(comp.clone(), (i as u64 + 1) * RANK_GAP);
            ids.push(id);
        }
        for (u, v) in g.edges() {
            let a = cond.scc_of(u);
            let b = cond.scc_of(v);
            if a != b {
                cond.add_edge(a, b);
            }
        }
        IncScc {
            cond: Arc::new(cond),
            work: WorkStats::new(),
            metrics: ChangeMetrics::default(),
            delta: SccDelta::default(),
            certs: Certificates::default(),
            local: LocalIndex::default(),
        }
    }

    /// The answer in canonical form (sorted members, sorted component list).
    pub fn components(&self) -> Vec<Vec<NodeId>> {
        self.cond.canonical_components()
    }

    /// Number of strongly connected components.
    pub fn scc_count(&self) -> usize {
        self.cond.scc_count()
    }

    /// The scc id of `v`.
    pub fn scc_of(&self, v: NodeId) -> SccId {
        self.cond.scc_of(v)
    }

    /// True when `u` and `v` are strongly connected.
    pub fn same_scc(&self, u: NodeId, v: NodeId) -> bool {
        self.cond.scc_of(u) == self.cond.scc_of(v)
    }

    /// The topological rank of an scc (decreasing along condensation edges).
    pub fn rank(&self, id: SccId) -> u64 {
        self.cond.rank(id)
    }

    /// Direct access to the condensation (read-only).
    pub fn condensation(&self) -> &Condensation {
        &self.cond
    }

    /// Change metrics of the most recent [`IncView::apply`].
    pub fn last_metrics(&self) -> ChangeMetrics {
        self.metrics
    }

    /// Certificate counters of the most recent
    /// [`IncView::apply`]: where its deletions went.
    pub fn last_delta(&self) -> SccDelta {
        self.delta
    }

    /// Unit insertion convenience (`IncSCC⁺`); `g` must already contain the
    /// edge.
    pub fn insert_edge(&mut self, g: &DynamicGraph, v: NodeId, w: NodeId) {
        let batch = UpdateBatch::from_updates(vec![igc_graph::Update::insert(v, w)]);
        self.apply(g, &batch);
    }

    /// Unit deletion convenience (`IncSCC⁻`); `g` must already lack the edge.
    pub fn delete_edge(&mut self, g: &DynamicGraph, v: NodeId, w: NodeId) {
        let batch = UpdateBatch::from_updates(vec![igc_graph::Update::delete(v, w)]);
        self.apply(g, &batch);
    }

    /// Recount every condensation edge from `g` — the number of graph edges
    /// between two components must equal the maintained counter, with no
    /// counter left over. Audit path only: O(|E|).
    fn check_edge_counts(&self, g: &DynamicGraph) -> Result<(), String> {
        let mut recount: FxHashMap<(SccId, SccId), u32> = FxHashMap::default();
        for (u, v) in g.edges() {
            let (a, b) = (self.cond.scc_of(u), self.cond.scc_of(v));
            if a != b {
                *recount.entry((a, b)).or_insert(0) += 1;
            }
        }
        let mut maintained = 0usize;
        for a in self.cond.scc_ids() {
            for (b, c) in self.cond.out_edges(a) {
                maintained += 1;
                let fresh = recount.get(&(a, b)).copied().unwrap_or(0);
                if fresh != c {
                    return Err(format!(
                        "scc: condensation edge {a}→{b} counts {c}, the graph has {fresh}"
                    ));
                }
            }
        }
        if maintained != recount.len() {
            return Err(format!(
                "scc: {} condensation edges maintained, the graph induces {}",
                maintained,
                recount.len()
            ));
        }
        Ok(())
    }

    fn pass(&mut self) -> SccPass<'_> {
        SccPass {
            cond: Arc::make_mut(&mut self.cond),
            work: &mut self.work,
            metrics: &mut self.metrics,
            delta: &mut self.delta,
            certs: &mut self.certs,
            local: &mut self.local,
        }
    }
}

impl SccPass<'_> {
    /// Track nodes created by the batch as fresh singleton sccs.
    fn ensure_nodes(&mut self, g: &DynamicGraph) {
        while self.cond.node_count() < g.node_count() {
            let v = NodeId::from_index(self.cond.node_count());
            let rank = self.cond.fresh_top_rank();
            self.cond.create_scc(vec![v], rank);
            self.metrics.output_changes += 1;
            self.work.aux_touched += 1;
        }
        self.certs.grow(g.node_count());
    }

    /// Split the nodes `cut` — everything the certificate's repair found
    /// cut off from the root, flagged with whether the root still reaches
    /// them — off `id`: Tarjan restricted to them finds their components,
    /// and what stays behind is the root's. `pending_ins` are batch
    /// insertions not yet reflected in `Gc` — the split's edge scan skips
    /// them so they are counted exactly once later.
    fn carve(
        &mut self,
        g: &DynamicGraph,
        id: SccId,
        cut: &[(NodeId, bool)],
        pending_ins: &FxHashSet<Edge>,
    ) {
        let nodes: Vec<NodeId> = cut.iter().map(|c| c.0).collect();
        let r = tarjan_restricted(g, &nodes, self.local);
        self.work.nodes_visited += nodes.len() as u64;
        self.work.edges_traversed += r.edges_scanned;
        self.metrics.affected += nodes.len() as u64;
        self.delta.carved += nodes.len() as u64;
        // Rank order, sinks first: the carved components the root still
        // reaches (emission order among themselves), the root's own, then
        // the rest — which reach the root or are unrelated to it, never
        // reached from it — in emission order.
        let k = r.sizes.len();
        let mut below = vec![false; k];
        for (c, &comp) in cut.iter().zip(&r.comp_of) {
            below[comp as usize] |= c.1;
        }
        let stays = below.iter().filter(|&&b| b).count();
        let (mut next_below, mut next_above) = (0, stays + 1);
        let mut part = vec![0usize; k];
        for i in 0..k {
            let next = if below[i] {
                &mut next_below
            } else {
                &mut next_above
            };
            part[i] = *next;
            *next += 1;
        }
        let mut pieces: Vec<Vec<NodeId>> = vec![Vec::new(); k + 1];
        for (&v, &comp) in nodes.iter().zip(&r.comp_of) {
            pieces[part[comp as usize]].push(v);
        }
        self.cond.remove_members(id, &nodes);
        self.finish_split(g, id, pieces, stays, pending_ins);
        self.certs.resettle(id, self.cond);
    }

    /// The free rank window for splitting `id` into `k` parts: strictly
    /// between the nearest used ranks around `rank(id)` (so fresh ranks
    /// collide with nothing) and within the neighbour bounds (so the rank
    /// invariant holds). Returns `(window_lo, step)`; `step == 0` means the
    /// gap is exhausted and ranks must be renumbered first.
    fn split_window(&self, id: SccId, k: u64) -> (u64, u64) {
        let r_old = self.cond.rank(id);
        let lo_edges = self
            .cond
            .out_edges(id)
            .map(|(t, _)| self.cond.rank(t))
            .max()
            .unwrap_or(0);
        let hi_edges = self
            .cond
            .in_edges(id)
            .map(|(s, _)| self.cond.rank(s))
            .min()
            .unwrap_or(u64::MAX);
        let lo = lo_edges.max(self.cond.rank_below(r_old).unwrap_or(0));
        let hi = hi_edges.min(self.cond.rank_above(r_old).unwrap_or(u64::MAX));
        debug_assert!(lo < r_old && r_old < hi);
        (lo, (hi - lo) / (k + 1))
    }

    /// Split `id` in place into `pieces.len()` parts, given in reverse
    /// topological order: part `i` gets rank `lo + step·(i+1)` of the free
    /// window around the old rank. `pieces[stays]` is empty and stands for
    /// the members `id` still has; the others have left its member list.
    /// The largest part keeps `id`; every other one is carved off under a
    /// fresh id, and the condensation edges the carved nodes carry are
    /// moved from `id` to their new component by scanning those nodes'
    /// adjacency alone — edges of the part that stayed are already right.
    fn finish_split(
        &mut self,
        g: &DynamicGraph,
        id: SccId,
        mut pieces: Vec<Vec<NodeId>>,
        stays: usize,
        pending_ins: &FxHashSet<Edge>,
    ) {
        // Slot the parts' ranks into the free window around the old rank —
        // bounded by the nearest *used* ranks (uniqueness) and by the old
        // component's neighbours (rank invariant).
        let k = pieces.len();
        let (mut lo, mut step) = self.split_window(id, k as u64);
        if step == 0 {
            self.work.aux_touched += self.cond.renumber_ranks() as u64;
            (lo, step) = self.split_window(id, k as u64);
            assert!(step > 0, "rank window exhausted even after renumbering");
        }
        self.metrics.output_changes += 1 + k as u64;
        // First of the largest, so the choice never depends on hash order.
        let size = |i: usize| match i == stays {
            true => self.cond.members(id).len(),
            false => pieces[i].len(),
        };
        let keep = (0..k).rev().max_by_key(|&i| size(i)).expect("k ≥ 2");
        if keep != stays {
            // A carved part outgrew what stayed: it takes the id over, and
            // what stayed is carved instead (the smaller side, again).
            pieces[stays] = self
                .cond
                .swap_members(id, std::mem::take(&mut pieces[keep]));
        }
        self.cond.take_rank(id);
        let mut carved: Vec<SccId> = Vec::with_capacity(k - 1);
        for (i, piece) in pieces.into_iter().enumerate() {
            let rank = lo + step * (i as u64 + 1);
            self.work.aux_touched += 1;
            if i == keep {
                self.cond.set_rank(id, rank);
                continue;
            }
            self.work.aux_touched += piece.len() as u64;
            carved.push(self.cond.create_scc(piece, rank));
        }
        // Fresh ids only grow, so "carved by this split" is `≥ first_carved`.
        let first_carved = carved[0];
        // Move the carved nodes' edges, read off the post-update graph. An
        // edge with its other end outside the old component was counted on
        // `id` and moves to the carved component; one with its other end in
        // the old component was internal and is new in `Gc`. Successor scans
        // cover carved → anything; predecessor scans add only what no
        // carved node's successor scan sees (sources outside or kept).
        for cx in carved {
            for xi in 0..self.cond.members(cx).len() {
                let x = self.cond.members(cx)[xi];
                for &y in g.successors(x) {
                    self.work.edges_traversed += 1;
                    let cy = self.cond.scc_of(y);
                    if cy == cx || pending_ins.contains(&(x, y)) {
                        continue;
                    }
                    if cy != id && cy < first_carved {
                        self.cond.remove_edge(id, cy);
                    }
                    self.cond.add_edge(cx, cy);
                }
                for &z in g.predecessors(x) {
                    self.work.edges_traversed += 1;
                    let cz = self.cond.scc_of(z);
                    if cz >= first_carved || pending_ins.contains(&(z, x)) {
                        continue;
                    }
                    if cz != id {
                        self.cond.remove_edge(cz, id);
                    }
                    self.cond.add_edge(cz, cx);
                }
            }
        }
        debug_assert_eq!(self.cond.check_invariants(), Ok(()));
    }

    /// `IncSCC⁺` inter-component case: the inserted condensation edge
    /// `(a, b)` violates the rank order. Bidirectional bounded search, cycle
    /// check, merge, `reallocRank`.
    fn reorder_or_merge(&mut self, g: &DynamicGraph, a: SccId, b: SccId) {
        let ra = self.cond.rank(a);
        let rb = self.cond.rank(b);
        debug_assert!(ra < rb);

        // affr: forward from b, ranks strictly above r(a).
        let affr = self.bounded_search(b, |r| r > ra, true);
        // affl: backward from a, ranks strictly below r(b).
        let affl = self.bounded_search(a, |r| r < rb, false);

        // Region and pool of old ranks.
        let mut region: Vec<SccId> = Vec::with_capacity(affr.len() + affl.len());
        let mut in_region: FxHashMap<SccId, u32> = FxHashMap::default();
        for &x in affr.iter().chain(affl.iter()) {
            if let std::collections::hash_map::Entry::Vacant(e) = in_region.entry(x) {
                e.insert(region.len() as u32);
                region.push(x);
            }
        }
        let mut pool: Vec<u64> = region.iter().map(|x| self.cond.rank(*x)).collect();
        pool.sort_unstable();
        self.work.queue_ops += pool.len() as u64;

        // Cycle check: Tarjan over the region sub-condensation + new edge.
        let mut sub = DynamicGraph::with_capacity(region.len(), region.len() * 2);
        for _ in &region {
            sub.add_node(Label(0));
        }
        for (&x, &lx) in &in_region {
            for (t, _) in self.cond.out_edges(x) {
                if let Some(&lt) = in_region.get(&t) {
                    sub.insert_edge(NodeId(lx), NodeId(lt));
                }
            }
        }
        sub.insert_edge(NodeId(in_region[&a]), NodeId(in_region[&b]));
        let sr = tarjan(&sub);
        self.work.nodes_visited += region.len() as u64;

        let cycles: Vec<Vec<SccId>> = sr
            .components
            .iter()
            .filter(|c| c.len() > 1)
            .map(|c| c.iter().map(|l| region[l.index()]).collect())
            .collect();
        assert!(
            cycles.len() <= 1,
            "a single insertion closes at most one cycle in an acyclic Gc"
        );

        let merged_set: FxHashSet<SccId> = cycles.first().into_iter().flatten().copied().collect();

        // Merge the cycle (if any) in place: its largest component survives
        // under its own id and absorbs the others, so the cost is the
        // smaller sides' nodes and edge counters. (Ties go to the older id,
        // never to hash order.)
        let merged_id = if let Some(cycle) = cycles.first() {
            let keep = *cycle
                .iter()
                .max_by_key(|&&x| (self.cond.members(x).len(), std::cmp::Reverse(x)))
                .expect("a cycle has members");
            // Its rank is reassigned below with the rest of the region.
            self.cond.take_rank(keep);
            let mut merged: Vec<NodeId> = Vec::new();
            for &x in cycle {
                if x != keep {
                    self.metrics.affected += self.cond.members(x).len() as u64;
                    merged.extend_from_slice(self.cond.members(x));
                    self.certs.forget(x);
                    self.work.aux_touched += self.cond.absorb(keep, x) as u64;
                }
            }
            // The survivor's certificate (if it has one) takes the merged
            // nodes in; theirs went with their ids.
            self.certs.absorbed(g, self.cond, keep, &merged, self.work);
            self.metrics.output_changes += 1 + cycle.len() as u64;
            Some(keep)
        } else {
            None
        };

        // reallocRank: ascending pool; first the forward region (lowest
        // ranks), then the merged component, then the backward region —
        // each pure region keeps its internal old-rank order. Two phases:
        // release every affected rank, then reassign from the pool, so the
        // permutation never trips the global-uniqueness guard.
        let mut pure_affr: Vec<SccId> = affr
            .iter()
            .copied()
            .filter(|x| !merged_set.contains(x))
            .collect();
        let mut pure_affl: Vec<SccId> = affl
            .iter()
            .copied()
            .filter(|x| !merged_set.contains(x))
            .collect();
        // (affl ∩ affr ⊆ merged cycle, so the pure regions are disjoint.)
        pure_affr.sort_unstable_by_key(|x| self.cond.rank(*x));
        pure_affl.sort_unstable_by_key(|x| self.cond.rank(*x));
        for &x in pure_affr.iter().chain(pure_affl.iter()) {
            self.cond.take_rank(x);
        }
        for (i, &x) in pure_affr.iter().enumerate() {
            self.cond.set_rank(x, pool[i]);
            self.work.aux_touched += 1;
            self.metrics.affected += 1;
        }
        if let Some(nid) = merged_id {
            self.cond.set_rank(nid, pool[pure_affr.len()]);
            self.work.aux_touched += 1;
        }
        let base = pool.len() - pure_affl.len();
        for (j, &x) in pure_affl.iter().enumerate() {
            self.cond.set_rank(x, pool[base + j]);
            self.work.aux_touched += 1;
            self.metrics.affected += 1;
        }

        // Finally record the inserted edge in Gc (unless it became internal).
        let (na, nb) = (
            merged_id.filter(|_| merged_set.contains(&a)).unwrap_or(a),
            merged_id.filter(|_| merged_set.contains(&b)).unwrap_or(b),
        );
        if na != nb {
            self.cond.add_edge(na, nb);
        }
        debug_assert_eq!(self.cond.check_invariants(), Ok(()));
    }

    /// DFS over `Gc` from `start` (forward or backward), visiting only nodes
    /// whose rank satisfies `keep`. Returns the visited set including
    /// `start`.
    fn bounded_search(
        &mut self,
        start: SccId,
        keep: impl Fn(u64) -> bool,
        forward: bool,
    ) -> Vec<SccId> {
        let mut seen: FxHashSet<SccId> = FxHashSet::default();
        let mut order = vec![start];
        seen.insert(start);
        let mut stack = vec![start];
        while let Some(x) = stack.pop() {
            self.work.nodes_visited += 1;
            let neighbours: Vec<SccId> = if forward {
                self.cond.out_edges(x).map(|(t, _)| t).collect()
            } else {
                self.cond.in_edges(x).map(|(s, _)| s).collect()
            };
            for t in neighbours {
                self.work.edges_traversed += 1;
                if keep(self.cond.rank(t)) && seen.insert(t) {
                    order.push(t);
                    stack.push(t);
                }
            }
        }
        order
    }

    /// The batch algorithm `IncSCC`.
    fn apply(&mut self, g: &DynamicGraph, delta: &UpdateBatch) {
        *self.metrics = ChangeMetrics {
            input_updates: delta.len() as u64,
            ..Default::default()
        };
        *self.delta = SccDelta::default();
        self.ensure_nodes(g);

        // Classify by the pre-batch component assignment.
        let mut intra_del: FxHashMap<SccId, Vec<Edge>> = FxHashMap::default();
        let mut intra_ins: FxHashMap<SccId, u32> = FxHashMap::default();
        let mut inter_del: Vec<(SccId, SccId)> = Vec::new();
        let mut pending_ins: Vec<Edge> = Vec::new();
        for u in delta.iter() {
            let (v, w) = u.edge();
            let a = self.cond.scc_of(v);
            let b = self.cond.scc_of(w);
            if u.is_insert() {
                if a == b {
                    *intra_ins.entry(a).or_insert(0) += 1;
                } else {
                    pending_ins.push((v, w));
                }
            } else if a == b {
                intra_del.entry(a).or_default().push((v, w));
            } else {
                inter_del.push((a, b));
            }
        }
        let mut pending_set: FxHashSet<Edge> = pending_ins.iter().copied().collect();

        // (1) Inter-component deletions: counters only; ranks stay valid.
        for (a, b) in inter_del {
            self.cond.remove_edge(a, b);
            self.work.aux_touched += 1;
        }

        // (2) Intra-component deletion groups, against the component's
        // certificate: a deletion that is no tree edge is two array reads;
        // the tree edges among them orphan their nodes together, one repair
        // per tree re-attaches what still hangs together, and only what is
        // cut off from the root goes through a restricted Tarjan and is
        // carved off. Insertion-only groups cannot change the structure.
        let mut touched: Vec<SccId> = intra_del.keys().copied().collect();
        touched.sort_unstable();
        for id in touched {
            let cut = self
                .certs
                .delete(g, self.cond, id, &intra_del[&id], self.work, self.delta);
            if !cut.is_empty() {
                self.carve(g, id, &cut, &pending_set);
            }
        }
        // Intra insertions into components untouched above: structure is
        // unchanged; nothing to do. Work is still accounted for the
        // classification pass.
        self.work.aux_touched += intra_ins.len() as u64;

        // (3) Inter-component insertions, in batch order. Components may
        // have been split or merged meanwhile, so re-resolve endpoints.
        for (v, w) in pending_ins {
            pending_set.remove(&(v, w));
            let a = self.cond.scc_of(v);
            let b = self.cond.scc_of(w);
            if a == b {
                continue; // became internal through an earlier merge
            }
            let ra = self.cond.rank(a);
            let rb = self.cond.rank(b);
            self.work.aux_touched += 1;
            if ra > rb {
                self.cond.add_edge(a, b);
            } else {
                self.reorder_or_merge(g, a, b);
            }
        }
        debug_assert_eq!(self.cond.check_invariants(), Ok(()));
    }
}

impl IncView for IncScc {
    fn name(&self) -> &str {
        "scc"
    }

    fn apply(&mut self, g: &DynamicGraph, delta: &UpdateBatch) {
        self.pass().apply(g, delta);
    }

    fn work(&self) -> WorkStats {
        self.work
    }

    /// The condensation, shared; no certificates, cold index.
    fn clone_view(&self) -> Box<dyn IncView> {
        Box::new(IncScc {
            cond: Arc::clone(&self.cond),
            work: self.work,
            metrics: self.metrics,
            delta: self.delta,
            certs: Certificates::default(),
            local: LocalIndex::default(),
        })
    }

    /// Audit the maintained partition against one fresh Tarjan run, the
    /// condensation's structural invariants (rank order, member maps),
    /// every condensation edge's multiplicity against a recount from `g`,
    /// and every certificate (parent edges in `g` and inside the component,
    /// walks reach the root, no cycle).
    fn verify_against_batch(&self, g: &DynamicGraph) -> Result<(), String> {
        if let Err(e) = self.cond.check_invariants() {
            return Err(format!("scc: condensation invariant violated: {e}"));
        }
        self.check_edge_counts(g)?;
        self.certs.audit(g, &self.cond)?;
        let fresh = tarjan(g).canonical();
        let mine = self.components();
        if mine != fresh {
            return Err(format!(
                "scc: maintained partition ({} sccs) diverged from Tarjan ({} sccs)",
                mine.len(),
                fresh.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igc_graph::graph::graph_from;
    use igc_graph::Update;

    fn assert_matches_batch(inc: &IncScc, g: &DynamicGraph) {
        let batch = tarjan(g);
        assert_eq!(
            inc.components(),
            batch.canonical(),
            "IncSCC diverged from Tarjan"
        );
        igc_core::IncView::verify_against_batch(inc, g).expect("audit");
    }

    #[test]
    fn construction_matches_tarjan() {
        let g = graph_from(&[0; 6], &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3)]);
        let inc = IncScc::new(&g);
        assert_matches_batch(&inc, &g);
        assert_eq!(inc.scc_count(), 3);
    }

    #[test]
    fn rank_invariant_on_construction() {
        let g = graph_from(&[0; 5], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let inc = IncScc::new(&g);
        for v in g.nodes() {
            for &w in g.successors(v) {
                let (a, b) = (inc.scc_of(v), inc.scc_of(w));
                if a != b {
                    assert!(inc.rank(a) > inc.rank(b));
                }
            }
        }
    }

    #[test]
    fn insert_respecting_order_is_counter_only() {
        // 0→1: two singletons; adding 0→1 again via another node pair.
        let mut g = graph_from(&[0; 3], &[(0, 1), (1, 2)]);
        let mut inc = IncScc::new(&g);
        g.insert_edge(NodeId(0), NodeId(2));
        inc.insert_edge(&g, NodeId(0), NodeId(2));
        assert_eq!(inc.scc_count(), 3);
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn insert_closing_two_cycle_merges() {
        let mut g = graph_from(&[0; 2], &[(0, 1)]);
        let mut inc = IncScc::new(&g);
        g.insert_edge(NodeId(1), NodeId(0));
        inc.insert_edge(&g, NodeId(1), NodeId(0));
        assert_eq!(inc.scc_count(), 1);
        assert!(inc.same_scc(NodeId(0), NodeId(1)));
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn insert_merging_long_chain() {
        // Chain 0→1→…→5, then close 5→0: all merge into one scc.
        let mut g = graph_from(&[0; 6], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let mut inc = IncScc::new(&g);
        g.insert_edge(NodeId(5), NodeId(0));
        inc.insert_edge(&g, NodeId(5), NodeId(0));
        assert_eq!(inc.scc_count(), 1);
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn paper_example7_merge_via_ranks() {
        // Two 2-cycles A={0,1}, B={2,3} with A→B; insert B→A ⇒ merge all.
        let mut g = graph_from(&[0; 4], &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]);
        let mut inc = IncScc::new(&g);
        assert_eq!(inc.scc_count(), 2);
        g.insert_edge(NodeId(3), NodeId(0));
        inc.insert_edge(&g, NodeId(3), NodeId(0));
        assert_eq!(inc.scc_count(), 1);
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn reorder_without_merge_keeps_components() {
        // a→b, c isolated between them in rank order; insert c→a forcing a
        // reorder but no cycle.
        let mut g = graph_from(&[0; 3], &[(0, 1)]);
        let mut inc = IncScc::new(&g);
        // Whatever the rank order, inserting 2→0 and then 1→2 forces at
        // least one violating insertion without creating a cycle.
        g.insert_edge(NodeId(2), NodeId(0));
        inc.insert_edge(&g, NodeId(2), NodeId(0));
        assert_matches_batch(&inc, &g);
        g.insert_edge(NodeId(1), NodeId(2));
        inc.insert_edge(&g, NodeId(1), NodeId(2));
        // 0→1→2→0 is now a cycle through all three.
        assert_eq!(inc.scc_count(), 1);
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn delete_inter_component_edge() {
        let mut g = graph_from(&[0; 4], &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]);
        let mut inc = IncScc::new(&g);
        g.delete_edge(NodeId(1), NodeId(2));
        inc.delete_edge(&g, NodeId(1), NodeId(2));
        assert_eq!(inc.scc_count(), 2);
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn delete_intact_intra_edge() {
        // Triangle plus chord: deleting the chord keeps the scc whole.
        let mut g = graph_from(&[0; 3], &[(0, 1), (1, 2), (2, 0), (0, 2)]);
        let mut inc = IncScc::new(&g);
        g.delete_edge(NodeId(0), NodeId(2));
        inc.delete_edge(&g, NodeId(0), NodeId(2));
        assert_eq!(inc.scc_count(), 1);
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn delete_splitting_cycle() {
        let mut g = graph_from(&[0; 4], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut inc = IncScc::new(&g);
        assert_eq!(inc.scc_count(), 1);
        g.delete_edge(NodeId(2), NodeId(3));
        inc.delete_edge(&g, NodeId(2), NodeId(3));
        assert_eq!(inc.scc_count(), 4);
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn paper_example9_split_into_three() {
        // An scc where deleting one frond splits it into three components:
        // 0→1→2→0 and 1→3→1 share node 1; delete 2→0 ⇒ {0} {2} {1,3}.
        let mut g = graph_from(&[0; 4], &[(0, 1), (1, 2), (2, 0), (1, 3), (3, 1)]);
        let mut inc = IncScc::new(&g);
        assert_eq!(inc.scc_count(), 1);
        g.delete_edge(NodeId(2), NodeId(0));
        inc.delete_edge(&g, NodeId(2), NodeId(0));
        assert_eq!(inc.scc_count(), 3);
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn split_then_merge_round_trip() {
        let mut g = graph_from(&[0; 4], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut inc = IncScc::new(&g);
        g.delete_edge(NodeId(1), NodeId(2));
        inc.delete_edge(&g, NodeId(1), NodeId(2));
        assert_eq!(inc.scc_count(), 4);
        g.insert_edge(NodeId(1), NodeId(2));
        inc.insert_edge(&g, NodeId(1), NodeId(2));
        assert_eq!(inc.scc_count(), 1);
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn batch_mixed_updates_match_batch_run() {
        let mut g = graph_from(
            &[0; 6],
            &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)],
        );
        let mut inc = IncScc::new(&g);
        let delta = UpdateBatch::from_updates(vec![
            Update::delete(NodeId(2), NodeId(0)), // split first scc
            Update::insert(NodeId(5), NodeId(0)), // link back
            Update::insert(NodeId(0), NodeId(3)), // another inter edge
            Update::delete(NodeId(4), NodeId(5)), // split second scc
        ]);
        g.apply_batch(&delta);
        inc.apply(&g, &delta);
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn batch_with_new_nodes() {
        let mut g = graph_from(&[0; 2], &[(0, 1)]);
        let mut inc = IncScc::new(&g);
        let delta = UpdateBatch::from_updates(vec![
            Update::insert(NodeId(1), NodeId(3)),
            Update::insert(NodeId(3), NodeId(0)),
        ]);
        g.apply_batch(&delta);
        inc.apply(&g, &delta);
        assert_eq!(g.node_count(), 4);
        assert_matches_batch(&inc, &g);
        // 0→1→3→0 is a cycle; node 2 is an isolated singleton.
        assert_eq!(inc.scc_count(), 2);
    }

    #[test]
    fn self_loop_insertion_is_intra() {
        let mut g = graph_from(&[0; 2], &[(0, 1)]);
        let mut inc = IncScc::new(&g);
        g.insert_edge(NodeId(0), NodeId(0));
        inc.insert_edge(&g, NodeId(0), NodeId(0));
        assert_eq!(inc.scc_count(), 2);
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn work_counters_accumulate() {
        let mut g = graph_from(&[0; 3], &[(0, 1), (1, 2)]);
        let mut inc = IncScc::new(&g);
        let before = inc.work();
        g.insert_edge(NodeId(2), NodeId(0));
        inc.insert_edge(&g, NodeId(2), NodeId(0));
        assert!(inc.work().since(&before).total() > 0);
    }

    #[test]
    fn randomized_against_tarjan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..30 {
            let n = 12usize;
            let mut g = DynamicGraph::new();
            for _ in 0..n {
                g.add_node(Label(0));
            }
            let mut edges: Vec<Edge> = Vec::new();
            for u in 0..n as u32 {
                for v in 0..n as u32 {
                    if u != v && rng.gen_bool(0.15) {
                        g.insert_edge(NodeId(u), NodeId(v));
                        edges.push((NodeId(u), NodeId(v)));
                    }
                }
            }
            let mut inc = IncScc::new(&g);
            // Apply 3 random batches of mixed updates.
            for round in 0..3 {
                let mut ups = Vec::new();
                let mut deleted: FxHashSet<Edge> = FxHashSet::default();
                for _ in 0..4 {
                    if rng.gen_bool(0.5) && !edges.is_empty() {
                        let i = rng.gen_range(0..edges.len());
                        let e = edges.swap_remove(i);
                        if deleted.insert(e) {
                            ups.push(Update::delete(e.0, e.1));
                        }
                    } else {
                        let u = NodeId(rng.gen_range(0..n as u32));
                        let v = NodeId(rng.gen_range(0..n as u32));
                        if u != v && !g.contains_edge(u, v) && !deleted.contains(&(u, v)) {
                            ups.push(Update::insert(u, v));
                            edges.push((u, v));
                        }
                    }
                }
                let delta = UpdateBatch::from_updates(ups).normalized();
                g.apply_batch(&delta);
                inc.apply(&g, &delta);
                let batch = tarjan(&g);
                assert_eq!(
                    inc.components(),
                    batch.canonical(),
                    "trial {trial} round {round} diverged"
                );
                // Keep `edges` consistent with the graph.
                edges.retain(|e| g.contains_edge(e.0, e.1));
            }
        }
    }
}
