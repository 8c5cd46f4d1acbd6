//! IncKWS — localizable incremental keyword search (Section 4.2).
//!
//! Three algorithms share the auxiliary keyword-distance lists:
//!
//! * **`IncKWS⁺`** (Fig. 1, unit insertion): if the new edge shortens the
//!   source's distance to some keyword, the improvement is propagated to
//!   ancestors breadth-first; propagation stops at the bound `b`, so only
//!   the `b`-neighbourhood of the edge is touched.
//! * **`IncKWS⁻`** (Fig. 3, unit deletion): phase one walks `next`-pointer
//!   chains backwards to mark the *affected* nodes (those whose selected
//!   shortest path used the deleted edge) and computes their potential
//!   distances from unaffected successors; phase two settles exact
//!   distances smallest first through a bucket queue, heap order: every
//!   edge weighs 1, and [`igc_core::BucketQueue`] pops the `(dist, node)`
//!   sequence a binary heap would.
//! * **`IncKWS`** (batch): affected marking for all deletions per keyword,
//!   insertion seeding for unaffected endpoints, then one shared queue per
//!   keyword (bucket queue, heap order) decides every entry at most once —
//!   interleaving deletions and insertions exactly as the paper's Example 3
//!   describes.
//!
//! **Affected marks.** Phase one marks the affected nodes per keyword; the
//! mark is an epoch stamp in one writer-side `Vec<u32>` kept beside the
//! [`Kdist`] lists (a node is marked iff its stamp is the current epoch).
//! A fresh marking is one increment, a test in the potentials and
//! insertion-seeding phases one array read; the stamps are cleared whole
//! only when the epoch wraps. The settle queue sits beside the stamps, so
//! its buckets keep their capacity from commit to commit; `clone_view`
//! publishes without either.
//!
//! The extension from the paper's Remark — answering queries with a larger
//! bound `b′` by restarting propagation from the breakpoint snapshot — is
//! [`IncKws::raise_bound`].
//!
//! Matches are represented intensionally: the answer is the set of
//! qualified roots with their distance vectors, and [`IncKws::match_tree`]
//! materialises the tree of any root from the `next` pointers (each root
//! determines its match uniquely, as in the paper). The `replace edge in
//! matches` step of Figs. 1/3 corresponds to the `next`-pointer updates.

use crate::batch::compute_kdist;
use crate::kdist::{Kdist, KdistEntry};
use crate::query::{KwsQuery, MatchTree};
use igc_core::work::{ChangeMetrics, WorkStats};
use igc_core::{BucketQueue, IncView};
use igc_graph::{DynamicGraph, FxHashSet, NodeId, Update, UpdateBatch};
use std::collections::VecDeque;
use std::sync::Arc;

/// Maintained KWS state: query, keyword-distance lists and the root set.
///
/// All three serve the read API (`match_tree` walks the lists), so they sit
/// together behind one `Arc`: the copy [`IncView::clone_view`] publishes
/// shares it, and every mutation unshares it once (`KwsPass`).
#[derive(Debug, Clone)]
pub struct IncKws {
    state: Arc<KwsState>,
    work: WorkStats,
    metrics: ChangeMetrics,
    /// Writer-side only, like the queue: [`IncView::clone_view`] publishes
    /// without either.
    marks: Marks,
    /// The settle queue, cleared per keyword.
    queue: BucketQueue<NodeId>,
}

#[derive(Debug, Clone)]
struct KwsState {
    query: KwsQuery,
    kd: Kdist,
    qualified: FxHashSet<NodeId>,
}

/// The affected marks (module docs): `v` is marked iff `stamp[v]` is the
/// current epoch, so stamps left behind by earlier markings are inert.
#[derive(Debug, Clone, Default)]
struct Marks {
    stamp: Vec<u32>,
    epoch: u32,
}

impl Marks {
    /// Start a fresh, empty marking over `n` nodes.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Mark `v`; `false` when it already was.
    fn mark(&mut self, v: NodeId) -> bool {
        let s = &mut self.stamp[v.index()];
        let fresh = *s != self.epoch;
        *s = self.epoch;
        fresh
    }

    fn marked(&self, v: NodeId) -> bool {
        self.stamp[v.index()] == self.epoch
    }
}

/// One mutation's exclusive borrows: the shared state unshared once up
/// front, so the maintenance below works through plain `&mut`.
struct KwsPass<'a> {
    query: &'a mut KwsQuery,
    kd: &'a mut Kdist,
    qualified: &'a mut FxHashSet<NodeId>,
    marks: &'a mut Marks,
    queue: &'a mut BucketQueue<NodeId>,
    work: &'a mut WorkStats,
    metrics: &'a mut ChangeMetrics,
}

impl IncKws {
    /// A deferred constructor for lazy engine registration: the kdist lists
    /// are computed from the engine's *current* graph at registration time
    /// (`engine.register_lazy("kws:near", IncKws::init(query))`).
    pub fn init(query: KwsQuery) -> impl FnOnce(&DynamicGraph) -> Self {
        move |g: &DynamicGraph| IncKws::new(g, query)
    }

    /// Batch-compute `Q(G)` and the auxiliary lists.
    pub fn new(g: &DynamicGraph, query: KwsQuery) -> Self {
        let mut work = WorkStats::new();
        let kd = compute_kdist(g, &query, &mut work);
        let qualified = g
            .nodes()
            .filter(|&v| kd.qualifies(v, query.bound))
            .collect();
        IncKws {
            state: Arc::new(KwsState {
                query,
                kd,
                qualified,
            }),
            work,
            metrics: ChangeMetrics::default(),
            marks: Marks::default(),
            queue: BucketQueue::default(),
        }
    }

    /// The query.
    pub fn query(&self) -> &KwsQuery {
        &self.state.query
    }

    /// The auxiliary keyword-distance lists.
    pub fn kdist(&self) -> &Kdist {
        &self.state.kd
    }

    /// True when `v` roots a match.
    pub fn is_match_root(&self, v: NodeId) -> bool {
        self.state.qualified.contains(&v)
    }

    /// All match roots, sorted.
    pub fn roots(&self) -> Vec<NodeId> {
        let mut r: Vec<NodeId> = self.state.qualified.iter().copied().collect();
        r.sort_unstable();
        r
    }

    /// Number of matches.
    pub fn match_count(&self) -> usize {
        self.state.qualified.len()
    }

    /// The canonical answer signature: sorted `(root, distance vector)`
    /// pairs. Two runs agree on the answer iff their signatures agree
    /// (trees are determined up to equal-length path selection).
    pub fn answer_signature(&self) -> Vec<(NodeId, Vec<u32>)> {
        let mut out: Vec<(NodeId, Vec<u32>)> = self
            .state
            .qualified
            .iter()
            .map(|&v| (v, self.state.kd.dists(v)))
            .collect();
        out.sort();
        out
    }

    /// Materialise the match tree rooted at `root`. Panics when `root` is
    /// not a match root.
    pub fn match_tree(&self, root: NodeId) -> MatchTree {
        assert!(self.is_match_root(root), "{root:?} roots no match");
        MatchTree {
            root,
            paths: (0..self.state.query.m())
                .map(|ki| self.state.kd.path(root, ki))
                .collect(),
        }
    }

    /// Change metrics of the last `apply`.
    pub fn last_metrics(&self) -> ChangeMetrics {
        self.metrics
    }

    /// `IncKWS⁺` (Fig. 1): unit edge insertion; `g` must already contain
    /// `(v, w)`.
    pub fn insert_edge(&mut self, g: &DynamicGraph, v: NodeId, w: NodeId) {
        self.pass().insert_edge(g, v, w);
    }

    /// `IncKWS⁻` (Fig. 3): unit edge deletion; `g` must already lack
    /// `(v, w)`.
    pub fn delete_edge(&mut self, g: &DynamicGraph, v: NodeId, w: NodeId) {
        self.pass().delete_edge(g, v, w);
    }

    /// The paper's Remark: answer the same keywords with a larger bound by
    /// restarting propagation from the breakpoint snapshot (the nodes where
    /// propagation stopped at the old bound), instead of recomputing.
    pub fn raise_bound(&mut self, g: &DynamicGraph, new_bound: u32) {
        self.pass().raise_bound(g, new_bound);
    }

    fn pass(&mut self) -> KwsPass<'_> {
        let KwsState {
            query,
            kd,
            qualified,
        } = Arc::make_mut(&mut self.state);
        KwsPass {
            query,
            kd,
            qualified,
            marks: &mut self.marks,
            queue: &mut self.queue,
            work: &mut self.work,
            metrics: &mut self.metrics,
        }
    }
}

impl KwsPass<'_> {
    fn insert_edge(&mut self, g: &DynamicGraph, v: NodeId, w: NodeId) {
        self.kd.grow(g.node_count());
        let mut changed = FxHashSet::default();
        for ki in 0..self.query.m() {
            self.insert_edge_keyword(g, v, w, ki, &mut changed);
        }
        self.refresh_roots(g, &changed);
    }

    fn insert_edge_keyword(
        &mut self,
        g: &DynamicGraph,
        v: NodeId,
        w: NodeId,
        ki: usize,
        changed: &mut FxHashSet<NodeId>,
    ) {
        let b = self.query.bound;
        let dw = self.kd.get(w, ki).dist;
        self.work.aux_touched += 1;
        // Lines 1–3: is (v,w) a shorter route from v within the bound?
        if dw >= b || dw + 1 >= self.kd.get(v, ki).dist {
            return;
        }
        self.kd.set(
            v,
            ki,
            KdistEntry {
                dist: dw + 1,
                next: Some(w),
            },
        );
        changed.insert(v);
        // Lines 4–8: BFS propagation to ancestors, stopping at the bound.
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        queue.push_back(v);
        while let Some(u) = queue.pop_front() {
            self.work.nodes_visited += 1;
            let du = self.kd.get(u, ki).dist;
            if du >= b {
                continue;
            }
            for &p in g.predecessors(u) {
                self.work.edges_traversed += 1;
                if du + 1 < self.kd.get(p, ki).dist {
                    self.kd.set(
                        p,
                        ki,
                        KdistEntry {
                            dist: du + 1,
                            next: Some(u),
                        },
                    );
                    changed.insert(p);
                    queue.push_back(p);
                    self.work.queue_ops += 1;
                }
            }
        }
    }

    fn delete_edge(&mut self, g: &DynamicGraph, v: NodeId, w: NodeId) {
        self.kd.grow(g.node_count());
        let mut changed = FxHashSet::default();
        for ki in 0..self.query.m() {
            // Line 1: only keywords whose selected path used (v, w).
            if self.kd.get(v, ki).next != Some(w) {
                continue;
            }
            let affected = self.mark_affected(g, &[v], ki);
            self.compute_potentials(g, &affected, ki, &mut changed);
            self.settle(g, ki, &mut changed);
        }
        self.refresh_roots(g, &changed);
    }

    /// Phase 1 of `IncKWS⁻` (lines 2–6): every node whose `next`-chain for
    /// `ki` runs through a seed is affected — returned in marking order, and
    /// marked in `self.marks` until the next call.
    fn mark_affected(&mut self, g: &DynamicGraph, seeds: &[NodeId], ki: usize) -> Vec<NodeId> {
        self.marks.begin(self.kd.node_count());
        let mut order: Vec<NodeId> = Vec::new();
        let mut stack: Vec<NodeId> = Vec::new();
        for &s in seeds {
            if self.marks.mark(s) {
                order.push(s);
                stack.push(s);
            }
        }
        while let Some(u) = stack.pop() {
            self.work.nodes_visited += 1;
            for &p in g.predecessors(u) {
                self.work.edges_traversed += 1;
                if self.kd.get(p, ki).next == Some(u) && self.marks.mark(p) {
                    order.push(p);
                    stack.push(p);
                }
            }
        }
        order
    }

    /// Phase 1 of `IncKWS⁻` (lines 7–9): recompute each affected entry from
    /// its *unaffected* (unmarked) successors; start the keyword's queue
    /// with the finite potentials.
    fn compute_potentials(
        &mut self,
        g: &DynamicGraph,
        affected: &[NodeId],
        ki: usize,
        changed: &mut FxHashSet<NodeId>,
    ) {
        let b = self.query.bound;
        self.queue.clear();
        for &u in affected {
            let mut best = KdistEntry::BOTTOM;
            for &y in g.successors(u) {
                self.work.edges_traversed += 1;
                if self.marks.marked(y) {
                    continue;
                }
                let dy = self.kd.get(y, ki).dist;
                if dy < b {
                    let cand = dy + 1;
                    if cand < best.dist || (cand == best.dist && Some(y) < best.next) {
                        best = KdistEntry {
                            dist: cand,
                            next: Some(y),
                        };
                    }
                }
            }
            let old = self.kd.get(u, ki);
            if old != best {
                changed.insert(u);
            }
            self.kd.set(u, ki, best);
            self.work.aux_touched += 1;
            if best.dist <= b {
                self.queue.push(best.dist, u);
                self.work.queue_ops += 1;
            }
        }
    }

    /// Phase 2 (lines 10–14 of Fig. 3 / phase (c) of the batch algorithm):
    /// settle exact distances smallest-first, relaxing predecessors.
    fn settle(&mut self, g: &DynamicGraph, ki: usize, changed: &mut FxHashSet<NodeId>) {
        let b = self.query.bound;
        while let Some((d, u)) = self.queue.pop() {
            self.work.queue_ops += 1;
            if self.kd.get(u, ki).dist != d {
                continue; // stale entry (lazy decrease-key; bucket queue, heap order)
            }
            self.work.nodes_visited += 1;
            if d >= b {
                continue; // cannot extend further within the bound
            }
            for &p in g.predecessors(u) {
                self.work.edges_traversed += 1;
                let e = self.kd.get(p, ki);
                if d + 1 < e.dist {
                    self.kd.set(
                        p,
                        ki,
                        KdistEntry {
                            dist: d + 1,
                            next: Some(u),
                        },
                    );
                    changed.insert(p);
                    self.queue.push(d + 1, p);
                    self.work.queue_ops += 1;
                }
            }
        }
    }

    /// The batch algorithm `IncKWS` (Section 4.2(3)): three phases per
    /// keyword sharing one queue.
    fn apply_batch(&mut self, g: &DynamicGraph, delta: &UpdateBatch) {
        self.kd.grow(g.node_count());
        let (deletions, insertions) = delta.split_edges();
        let mut changed = FxHashSet::default();
        for ki in 0..self.query.m() {
            // (a) affected nodes w.r.t. ki across all deletions at once
            let seeds: Vec<NodeId> = deletions
                .iter()
                .filter(|&&(v, w)| {
                    v.index() < self.kd.node_count() && self.kd.get(v, ki).next == Some(w)
                })
                .map(|&(v, _)| v)
                .collect();
            let affected = self.mark_affected(g, &seeds, ki);
            self.compute_potentials(g, &affected, ki, &mut changed);

            // (b) insertions with both endpoints unaffected seed the queue
            let b = self.query.bound;
            for &(v, w) in &insertions {
                if self.marks.marked(v) || self.marks.marked(w) {
                    continue; // covered by potentials / later relaxation
                }
                let dw = self.kd.get(w, ki).dist;
                self.work.aux_touched += 1;
                if dw < b && dw + 1 < self.kd.get(v, ki).dist {
                    self.kd.set(
                        v,
                        ki,
                        KdistEntry {
                            dist: dw + 1,
                            next: Some(w),
                        },
                    );
                    changed.insert(v);
                    self.queue.push(dw + 1, v);
                    self.work.queue_ops += 1;
                }
            }

            // (c) one shared settle pass decides every entry at most once
            self.settle(g, ki, &mut changed);
        }
        self.refresh_roots(g, &changed);
    }

    /// Re-derive qualification for the nodes whose lists changed (matches
    /// are updated within the `2b`-neighbourhood of `ΔG`, per the paper).
    fn refresh_roots(&mut self, _g: &DynamicGraph, changed: &FxHashSet<NodeId>) {
        self.metrics.affected += changed.len() as u64;
        for &v in changed {
            self.work.aux_touched += 1;
            let now = self.kd.qualifies(v, self.query.bound);
            let was = self.qualified.contains(&v);
            if now != was {
                self.metrics.output_changes += 1;
                if now {
                    self.qualified.insert(v);
                } else {
                    self.qualified.remove(&v);
                }
            }
        }
    }

    fn raise_bound(&mut self, g: &DynamicGraph, new_bound: u32) {
        assert!(
            new_bound >= self.query.bound,
            "snapshots only support raising the bound"
        );
        if new_bound == self.query.bound {
            return;
        }
        let old_b = self.query.bound;
        self.query.bound = new_bound;
        let mut changed = FxHashSet::default();
        for ki in 0..self.query.m() {
            // Breakpoints: exactly the nodes at distance old_b (propagation
            // stopped there); treat each as a unit update, per the Remark.
            let mut queue: VecDeque<NodeId> = VecDeque::new();
            for v in g.nodes() {
                if self.kd.get(v, ki).dist == old_b {
                    queue.push_back(v);
                    self.work.queue_ops += 1;
                }
            }
            while let Some(u) = queue.pop_front() {
                self.work.nodes_visited += 1;
                let du = self.kd.get(u, ki).dist;
                if du >= new_bound {
                    continue;
                }
                for &p in g.predecessors(u) {
                    self.work.edges_traversed += 1;
                    let e = self.kd.get(p, ki);
                    if du + 1 < e.dist {
                        self.kd.set(
                            p,
                            ki,
                            KdistEntry {
                                dist: du + 1,
                                next: Some(u),
                            },
                        );
                        changed.insert(p);
                        queue.push_back(p);
                    }
                }
            }
        }
        // Qualification can only be gained when the bound grows; nodes with
        // unchanged lists were already decided under the old bound.
        for v in g.nodes() {
            if self.kd.qualifies(v, new_bound) {
                self.qualified.insert(v);
            }
        }
        self.metrics.affected += changed.len() as u64;
    }

    fn apply(&mut self, g: &DynamicGraph, delta: &UpdateBatch) {
        *self.metrics = ChangeMetrics {
            input_updates: delta.len() as u64,
            ..Default::default()
        };
        // Fresh nodes introduced by the batch: a node whose own label is a
        // keyword starts at distance 0 (the base case of compute_kdist).
        // Seeding must happen before the insertion phases below so the new
        // entries propagate through the inserted edges — a fresh node is
        // only reachable through edges of this very batch.
        let old_nodes = self.kd.node_count();
        if old_nodes < g.node_count() {
            self.kd.grow(g.node_count());
            let mut changed = FxHashSet::default();
            for i in old_nodes..g.node_count() {
                let v = NodeId::from_index(i);
                for ki in 0..self.query.m() {
                    if g.label(v) == self.query.keywords[ki] {
                        self.kd.set(
                            v,
                            ki,
                            KdistEntry {
                                dist: 0,
                                next: None,
                            },
                        );
                        self.work.aux_touched += 1;
                    }
                }
                changed.insert(v);
            }
            self.refresh_roots(g, &changed);
        }
        // A singleton batch dispatches to the paper's unit algorithms
        // (Figs. 1 and 3); larger batches take the grouped path. Driving
        // updates one at a time therefore reproduces IncKWSⁿ exactly.
        if delta.len() == 1 {
            let u = delta.iter().next().expect("len checked");
            match *u {
                Update::Insert { from, to, .. } => self.insert_edge(g, from, to),
                Update::Delete { from, to } => self.delete_edge(g, from, to),
            }
        } else {
            self.apply_batch(g, delta);
        }
    }
}

impl IncView for IncKws {
    fn name(&self) -> &str {
        "kws"
    }

    fn apply(&mut self, g: &DynamicGraph, delta: &UpdateBatch) {
        self.pass().apply(g, delta);
    }

    fn work(&self) -> WorkStats {
        self.work
    }

    /// One `Arc` bump; the marks and the queue stay with the writer (a copy
    /// that is ever applied to grows its own).
    fn clone_view(&self) -> Box<dyn IncView> {
        Box::new(IncKws {
            state: Arc::clone(&self.state),
            work: self.work,
            metrics: self.metrics,
            marks: Marks::default(),
            queue: BucketQueue::default(),
        })
    }

    /// Audit the answer signature (qualified roots with their distance
    /// vectors) against a from-scratch batch construction. `next`-pointer
    /// choices are not compared: equal-length shortest paths are selected
    /// arbitrarily, and each root's match is determined by its distances.
    fn verify_against_batch(&self, g: &DynamicGraph) -> Result<(), String> {
        let fresh = IncKws::new(g, self.state.query.clone());
        if self.answer_signature() != fresh.answer_signature() {
            return Err(format!(
                "kws: maintained answer ({} roots) diverged from batch recomputation ({} roots)",
                self.match_count(),
                fresh.match_count()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kdist::UNREACHED;
    use igc_graph::graph::graph_from;
    use igc_graph::Label;

    /// Oracle check: the maintained state must equal a fresh batch run.
    fn assert_matches_batch(inc: &IncKws, g: &DynamicGraph) {
        inc.state
            .kd
            .check_invariants(g, &inc.state.query)
            .expect("kdist invariants");
        let fresh = IncKws::new(g, inc.state.query.clone());
        assert_eq!(inc.answer_signature(), fresh.answer_signature());
    }

    #[test]
    fn fresh_keyword_node_seeds_distance_zero() {
        // Graph: a(0) → b(1); query keyword 9, bound 2. No matches.
        let mut g = graph_from(&[0, 0], &[(0, 1)]);
        let q = KwsQuery::new(vec![Label(9)], 2);
        let mut inc = IncKws::new(&g, q);
        assert_eq!(inc.match_count(), 0);
        // A batch inserts an edge to a fresh node labelled with the
        // keyword: the fresh node matches itself (dist 0) and both
        // ancestors come within the bound.
        let delta = UpdateBatch::from_updates(vec![Update::insert_labeled(
            NodeId(1),
            NodeId(2),
            None,
            Some(Label(9)),
        )]);
        g.apply_batch(&delta);
        inc.apply(&g, &delta);
        assert_eq!(inc.roots(), vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_matches_batch(&inc, &g);
        // Same shape through the multi-unit (grouped batch) path.
        let delta2 = UpdateBatch::from_updates(vec![
            Update::insert_labeled(NodeId(2), NodeId(3), None, Some(Label(9))),
            Update::delete(NodeId(0), NodeId(1)),
        ]);
        g.apply_batch(&delta2);
        inc.apply(&g, &delta2);
        assert!(inc.is_match_root(NodeId(3)));
        assert!(!inc.is_match_root(NodeId(0)));
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn insertion_improves_and_propagates_within_bound() {
        // Chain c(3) → r(0) → x(1) → d(2); query (d), b = 2.
        // r is a root (dist 2); c is not (dist 3 > b, stored ⊥).
        let mut g = graph_from(&[0, 0, 9, 0], &[(3, 0), (0, 1), (1, 2)]);
        let q = KwsQuery::new(vec![Label(9)], 2);
        let mut inc = IncKws::new(&g, q);
        assert!(inc.is_match_root(NodeId(0)));
        assert!(!inc.is_match_root(NodeId(3)));
        // Insert shortcut r → d: r's dist drops to 1, c becomes a root at 2.
        g.insert_edge(NodeId(0), NodeId(2));
        inc.insert_edge(&g, NodeId(0), NodeId(2));
        assert_eq!(inc.kdist().get(NodeId(0), 0).dist, 1);
        assert_eq!(inc.kdist().get(NodeId(0), 0).next, Some(NodeId(2)));
        assert_eq!(inc.kdist().get(NodeId(3), 0).dist, 2);
        assert!(inc.is_match_root(NodeId(3)));
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn insertion_not_improving_is_ignored() {
        let mut g = graph_from(&[0, 9, 9], &[(0, 1)]);
        let q = KwsQuery::new(vec![Label(9)], 2);
        let mut inc = IncKws::new(&g, q);
        g.insert_edge(NodeId(0), NodeId(2));
        inc.insert_edge(&g, NodeId(0), NodeId(2)); // dist already 1
        assert_eq!(inc.kdist().get(NodeId(0), 0).dist, 1);
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn deletion_disqualifies_root_beyond_bound() {
        // Example-2 mechanics: the root's only within-bound path dies.
        // c(0) → x(1) → a(2), bound 2, query (a). Delete (0,1).
        let mut g = graph_from(&[0, 0, 9], &[(0, 1), (1, 2)]);
        let q = KwsQuery::new(vec![Label(9)], 2);
        let mut inc = IncKws::new(&g, q);
        assert!(inc.is_match_root(NodeId(0)));
        g.delete_edge(NodeId(0), NodeId(1));
        inc.delete_edge(&g, NodeId(0), NodeId(1));
        assert!(!inc.is_match_root(NodeId(0)));
        assert_eq!(inc.kdist().get(NodeId(0), 0), KdistEntry::BOTTOM);
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn deletion_with_equal_alternative_keeps_distance() {
        // Two disjoint length-2 routes; deleting one keeps dist = 2.
        let mut g = graph_from(&[0, 0, 0, 9], &[(0, 1), (1, 3), (0, 2), (2, 3)]);
        let q = KwsQuery::new(vec![Label(9)], 3);
        let mut inc = IncKws::new(&g, q);
        let used = inc.kdist().get(NodeId(0), 0).next.expect("has next");
        g.delete_edge(NodeId(0), used);
        inc.delete_edge(&g, NodeId(0), used);
        assert_eq!(inc.kdist().get(NodeId(0), 0).dist, 2);
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn deletion_cascades_through_affected_chain() {
        // 0 → 1 → 2 → 3(k) with bound 3; delete (2,3): all upstream lose it.
        let mut g = graph_from(&[0, 0, 0, 9], &[(0, 1), (1, 2), (2, 3)]);
        let q = KwsQuery::new(vec![Label(9)], 3);
        let mut inc = IncKws::new(&g, q);
        g.delete_edge(NodeId(2), NodeId(3));
        inc.delete_edge(&g, NodeId(2), NodeId(3));
        for v in 0..3 {
            assert_eq!(inc.kdist().get(NodeId(v), 0), KdistEntry::BOTTOM);
        }
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn deletion_of_unused_edge_touches_nothing() {
        // 0 has two routes; its chosen path uses the smaller successor.
        let mut g = graph_from(&[0, 9, 9], &[(0, 1), (0, 2)]);
        let q = KwsQuery::new(vec![Label(9)], 2);
        let mut inc = IncKws::new(&g, q);
        assert_eq!(inc.kdist().get(NodeId(0), 0).next, Some(NodeId(1)));
        let w0 = inc.work().total();
        g.delete_edge(NodeId(0), NodeId(2)); // not the selected path
        inc.delete_edge(&g, NodeId(0), NodeId(2));
        assert!(
            inc.work().total() - w0 <= 2,
            "unused deletion must be ~free"
        );
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn batch_interleaves_deletion_and_insertion() {
        // Example-3 mechanics: delete the used route and insert an equally
        // short one in the same batch; the distance is decided once.
        let mut g = graph_from(&[0, 0, 9, 0], &[(0, 1), (1, 2)]);
        let q = KwsQuery::new(vec![Label(9)], 2);
        let mut inc = IncKws::new(&g, q);
        assert_eq!(inc.kdist().get(NodeId(0), 0).dist, 2);
        let delta = UpdateBatch::from_updates(vec![
            Update::delete(NodeId(1), NodeId(2)),
            Update::insert(NodeId(0), NodeId(3)),
            Update::insert(NodeId(3), NodeId(2)),
        ]);
        g.apply_batch(&delta);
        inc.apply(&g, &delta);
        assert_eq!(inc.kdist().get(NodeId(0), 0).dist, 2);
        assert!(inc.is_match_root(NodeId(0)));
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn batch_with_new_nodes() {
        let mut g = graph_from(&[0, 9], &[(0, 1)]);
        let q = KwsQuery::new(vec![Label(9)], 2);
        let mut inc = IncKws::new(&g, q);
        let delta = UpdateBatch::from_updates(vec![
            Update::insert_labeled(NodeId(2), NodeId(0), Some(Label(0)), None),
            Update::insert_labeled(NodeId(3), NodeId(2), Some(Label(0)), None),
        ]);
        g.apply_batch(&delta);
        inc.apply(&g, &delta);
        assert_eq!(inc.kdist().get(NodeId(2), 0).dist, 2);
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn match_tree_materialisation() {
        let g = graph_from(&[0, 8, 9], &[(0, 1), (0, 2)]);
        let q = KwsQuery::new(vec![Label(8), Label(9)], 1);
        let inc = IncKws::new(&g, q.clone());
        let t = inc.match_tree(NodeId(0));
        assert_eq!(t.paths[0], vec![NodeId(0), NodeId(1)]);
        assert_eq!(t.paths[1], vec![NodeId(0), NodeId(2)]);
        let truth = crate::kdist::oracle_distances(&g, &q);
        t.validate(&g, &q, |v, ki| truth[ki][v.index()])
            .expect("valid tree");
    }

    #[test]
    fn raise_bound_extends_from_breakpoints() {
        // Chain 0→1→2→3→4(k). b=2: nodes 2,3,4 reach k; 0,1 are ⊥.
        let g = graph_from(&[0, 0, 0, 0, 9], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let q = KwsQuery::new(vec![Label(9)], 2);
        let mut inc = IncKws::new(&g, q);
        assert_eq!(inc.kdist().get(NodeId(1), 0).dist, UNREACHED);
        inc.raise_bound(&g, 4);
        assert_eq!(inc.kdist().get(NodeId(1), 0).dist, 3);
        assert_eq!(inc.kdist().get(NodeId(0), 0).dist, 4);
        assert!(inc.is_match_root(NodeId(0)));
        // equal to recomputing from scratch at the new bound
        let fresh = IncKws::new(&g, KwsQuery::new(vec![Label(9)], 4));
        assert_eq!(inc.answer_signature(), fresh.answer_signature());
    }

    #[test]
    fn raise_bound_then_update_stays_consistent() {
        let mut g = graph_from(&[0, 0, 0, 9], &[(0, 1), (1, 2), (2, 3)]);
        let q = KwsQuery::new(vec![Label(9)], 1);
        let mut inc = IncKws::new(&g, q);
        inc.raise_bound(&g, 3);
        g.delete_edge(NodeId(2), NodeId(3));
        inc.delete_edge(&g, NodeId(2), NodeId(3));
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn randomized_batches_match_fresh_runs() {
        use igc_graph::generator::{random_update_batch, uniform_graph};
        for seed in 0..8 {
            let mut g = uniform_graph(50, 150, 5, seed);
            let q = KwsQuery::new(vec![Label(0), Label(1)], 2);
            let mut inc = IncKws::new(&g, q);
            for round in 0..4 {
                let delta = random_update_batch(&g, 12, 0.5, seed * 10 + round);
                g.apply_batch(&delta);
                inc.apply(&g, &delta);
                assert_matches_batch(&inc, &g);
            }
        }
    }

    #[test]
    fn marks_survive_an_epoch_wrap() {
        let mut m = Marks::default();
        m.begin(3);
        assert!(m.mark(NodeId(0)) && !m.mark(NodeId(0)));
        m.epoch = u32::MAX - 1;
        m.begin(4);
        assert!(m.mark(NodeId(1)) && m.mark(NodeId(3)));
        assert!(!m.marked(NodeId(0)) && !m.marked(NodeId(2)));
        // The wrap clears every stamp once: a node stamped with epoch 1
        // long ago would otherwise read as marked again.
        m.stamp[2] = 1;
        m.begin(4);
        assert_eq!(m.epoch, 1);
        assert!((0..4).all(|i| !m.marked(NodeId(i))));
    }

    /// Golden `WorkStats` + `ChangeMetrics` of a deletion-heavy run (delete
    /// share 0.8, ten grouped batches, then unit deletions of selected
    /// `next` edges through `IncKWS⁻`): affected marking, potentials and
    /// insertion seeding carry it. Captured from the implementation that
    /// kept the affected nodes in hash sets.
    #[test]
    fn work_counters_golden_on_deletion_heavy_run() {
        use igc_graph::generator::{random_update_batch, uniform_graph};
        let mut g = uniform_graph(80, 320, 5, 42);
        let q = KwsQuery::new(vec![Label(0), Label(1), Label(2)], 3);
        let mut inc = IncKws::new(&g, q);
        let before = inc.work();
        let (mut affected, mut output_changes) = (0, 0);
        let mut step = |g: &mut DynamicGraph, inc: &mut IncKws, delta: UpdateBatch| {
            g.apply_batch(&delta);
            inc.apply(g, &delta);
            affected += inc.last_metrics().affected;
            output_changes += inc.last_metrics().output_changes;
        };
        for round in 0..10u64 {
            let delta = random_update_batch(&g, 16, 0.2, 6000 + round);
            step(&mut g, &mut inc, delta);
        }
        for ki in 0..3 {
            let (v, w) = g
                .nodes()
                .find_map(|v| inc.kdist().get(v, ki).next.map(|w| (v, w)))
                .expect("a selected path");
            step(
                &mut g,
                &mut inc,
                UpdateBatch::from_updates(vec![Update::delete(v, w)]),
            );
        }
        let w = inc.work().since(&before);
        assert_eq!(
            (
                w.nodes_visited,
                w.edges_traversed,
                w.aux_touched,
                w.queue_ops
            ),
            (257, 1037, 320, 256),
            "work drifted from the golden"
        );
        assert_eq!((affected, output_changes), (109, 7));
        assert_eq!(inc.match_count(), 70);
        assert_matches_batch(&inc, &g);
    }

    /// Digest of every `Kdist` entry, `next` included. Settling takes the
    /// first predecessor the queue pops at each distance as `next`, so a tie
    /// broken differently changes this digest where `WorkStats` and the
    /// answer signature stay equal.
    fn kdist_digest(inc: &IncKws) -> u64 {
        use std::hash::{Hash, Hasher};
        let kd = inc.kdist();
        let mut h = igc_graph::fxhash::FxHasher::default();
        for v in 0..kd.node_count() {
            for e in kd.list(NodeId::from_index(v)) {
                (e.dist, e.next).hash(&mut h);
            }
        }
        h.finish()
    }

    /// The deletion-heavy golden above replayed, and an insertion-heavy
    /// companion (insert share 0.8, 40-unit batches: wide enough that two
    /// successors of one node settle at the same distance, where only the
    /// pop order picks `next`), each held to the `next` pointers it leaves
    /// (`kdist_digest`). Captured from the implementation that settled
    /// through a `BinaryHeap`.
    #[test]
    fn ordered_kdist_state_golden() {
        use igc_graph::generator::{random_update_batch, uniform_graph};
        let run = |count: usize, rho_insert: f64, seed: u64, unit_deletions: usize| {
            let mut g = uniform_graph(80, 320, 5, 42);
            let q = KwsQuery::new(vec![Label(0), Label(1), Label(2)], 3);
            let mut inc = IncKws::new(&g, q);
            for round in 0..10u64 {
                let delta = random_update_batch(&g, count, rho_insert, seed + round);
                g.apply_batch(&delta);
                inc.apply(&g, &delta);
            }
            for ki in 0..unit_deletions {
                let (v, w) = g
                    .nodes()
                    .find_map(|v| inc.kdist().get(v, ki).next.map(|w| (v, w)))
                    .expect("a selected path");
                let delta = UpdateBatch::from_updates(vec![Update::delete(v, w)]);
                g.apply_batch(&delta);
                inc.apply(&g, &delta);
            }
            assert_matches_batch(&inc, &g);
            kdist_digest(&inc)
        };
        assert_eq!(
            run(16, 0.2, 6000, 3),
            895968644694649588,
            "deletion-heavy scenario"
        );
        assert_eq!(
            run(40, 0.8, 7000, 0),
            14144368805282729255,
            "insertion-heavy scenario"
        );
    }

    #[test]
    fn randomized_unit_updates_match_fresh_runs() {
        use igc_core::incremental::apply_one_by_one;
        use igc_graph::generator::{random_update_batch, uniform_graph};
        for seed in 20..24 {
            let mut g = uniform_graph(40, 120, 4, seed);
            let q = KwsQuery::new(vec![Label(0), Label(1), Label(2)], 3);
            let mut inc = IncKws::new(&g, q);
            let delta = random_update_batch(&g, 10, 0.5, seed);
            apply_one_by_one(&mut inc, &mut g, &delta);
            assert_matches_batch(&inc, &g);
        }
    }
}
