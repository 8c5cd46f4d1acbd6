//! DynSCC — a dynamic-SCC baseline maintaining per-component certificates.
//!
//! The paper's DynSCC combines the incremental algorithm of Haeupler et
//! al. \[26\] with the decremental algorithm of Łącki \[32\]. This baseline is a
//! simplification that is faithful *in behaviour*: every non-singleton
//! component carries a strong-connectivity certificate (a forward spanning
//! tree from a root plus a backward spanning tree to it). Deleting an edge
//! outside both trees is O(1) — the certificate still proves strong
//! connectivity — while deleting a tree edge forces a certificate rebuild
//! over the whole component *even when the output does not change*. That
//! eager maintenance is exactly the overhead the paper measures: DynSCC
//! loses to IncSCC at small `|ΔG|` (Section 6, Exp-1(3)). Łącki's full
//! recursive hierarchy is out of scope: the baseline only has to pay the
//! eager certificate upkeep the paper compares against.

use crate::condensation::SccId;
use crate::inc::IncScc;
use igc_core::work::WorkStats;
use igc_core::IncView;
use igc_graph::{DynamicGraph, FxHashMap, FxHashSet, NodeId, Update, UpdateBatch};

/// A strong-connectivity certificate for one component.
#[derive(Debug, Clone)]
struct Cert {
    root: NodeId,
    size: usize,
    /// `out_parent[w] = v` ⇒ graph edge `(v, w)` is in the forward tree.
    out_parent: FxHashMap<NodeId, NodeId>,
    /// `in_parent[v] = w` ⇒ graph edge `(v, w)` is in the backward tree.
    in_parent: FxHashMap<NodeId, NodeId>,
}

impl Cert {
    /// True when the graph edge `(v, w)` belongs to either spanning tree.
    fn contains_edge(&self, v: NodeId, w: NodeId) -> bool {
        self.out_parent.get(&w) == Some(&v) || self.in_parent.get(&v) == Some(&w)
    }
}

/// Dynamic SCC with certificate maintenance.
#[derive(Debug, Clone)]
pub struct DynScc {
    inner: IncScc,
    certs: FxHashMap<SccId, Cert>,
    /// Structure events per component since its last certification —
    /// rebuilds are amortised so maintenance stays within a constant factor
    /// of the update stream (real dynamic-SCC structures are polylog-
    /// amortised; a full recertification per update would be O(|E|)).
    pending: FxHashMap<SccId, usize>,
    work: WorkStats,
}

impl DynScc {
    /// Batch construction: Tarjan + condensation (via [`IncScc`]) plus a
    /// certificate per non-singleton component; both count as its work.
    pub fn new(g: &DynamicGraph) -> Self {
        let inner = IncScc::new(g);
        let mut d = DynScc {
            work: inner.work(),
            inner,
            certs: FxHashMap::default(),
            pending: FxHashMap::default(),
        };
        let ids: Vec<SccId> = d.inner.condensation().scc_ids().collect();
        for id in ids {
            d.rebuild_cert(g, id);
        }
        d
    }

    /// The answer in canonical form.
    pub fn components(&self) -> Vec<Vec<NodeId>> {
        self.inner.components()
    }

    /// Number of components.
    pub fn scc_count(&self) -> usize {
        self.inner.scc_count()
    }

    /// True when `u` and `v` are strongly connected.
    pub fn same_scc(&self, u: NodeId, v: NodeId) -> bool {
        self.inner.same_scc(u, v)
    }

    /// Rebuild the certificate of component `id` (no-op for singletons).
    fn rebuild_cert(&mut self, g: &DynamicGraph, id: SccId) {
        let members = self.inner.condensation().members(id);
        if members.len() <= 1 {
            self.certs.remove(&id);
            return;
        }
        let members: Vec<NodeId> = members.to_vec();
        let root = *members.iter().min().expect("non-empty");
        let member_set: FxHashSet<NodeId> = members.iter().copied().collect();
        let out_parent = self.bfs_tree(g, root, &member_set, true);
        let in_parent = self.bfs_tree(g, root, &member_set, false);
        debug_assert_eq!(out_parent.len(), members.len() - 1);
        debug_assert_eq!(in_parent.len(), members.len() - 1);
        self.certs.insert(
            id,
            Cert {
                root,
                size: members.len(),
                out_parent,
                in_parent,
            },
        );
    }

    /// BFS tree restricted to `members`. Forward: parent map over successor
    /// edges; backward: parent map over predecessor edges (see [`Cert`]).
    fn bfs_tree(
        &mut self,
        g: &DynamicGraph,
        root: NodeId,
        members: &FxHashSet<NodeId>,
        forward: bool,
    ) -> FxHashMap<NodeId, NodeId> {
        let mut parent: FxHashMap<NodeId, NodeId> = FxHashMap::default();
        let mut seen: FxHashSet<NodeId> = FxHashSet::default();
        seen.insert(root);
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(root);
        while let Some(x) = queue.pop_front() {
            self.work.nodes_visited += 1;
            let nbrs = if forward {
                g.successors(x)
            } else {
                g.predecessors(x)
            };
            for &y in nbrs {
                self.work.edges_traversed += 1;
                if members.contains(&y) && seen.insert(y) {
                    parent.insert(y, x);
                    queue.push_back(y);
                }
            }
        }
        parent
    }

    /// A certificate is usable only if it still describes the component.
    fn valid_cert(&self, id: SccId, v: NodeId) -> Option<&Cert> {
        let c = self.certs.get(&id)?;
        if self.inner.condensation().members(id).len() == c.size
            && self.inner.scc_of(c.root) == id
            && self.inner.scc_of(v) == id
        {
            Some(c)
        } else {
            None
        }
    }
}

impl IncView for DynScc {
    fn name(&self) -> &str {
        "dynscc"
    }

    fn apply(&mut self, g: &DynamicGraph, delta: &UpdateBatch) {
        // Fast path: intra-component deletions outside both certificate
        // trees, in components untouched by any other update of this batch.
        let mut touched_by_rest: FxHashSet<SccId> = FxHashSet::default();
        let mut candidates: Vec<(SccId, NodeId, NodeId)> = Vec::new();
        for u in delta.iter() {
            let (v, w) = u.edge();
            let known = self.inner.condensation().knows(v) && self.inner.condensation().knows(w);
            if !u.is_insert() && known && self.inner.scc_of(v) == self.inner.scc_of(w) {
                candidates.push((self.inner.scc_of(v), v, w));
            } else {
                if known {
                    touched_by_rest.insert(self.inner.scc_of(v));
                    touched_by_rest.insert(self.inner.scc_of(w));
                }
            }
        }
        let mut rest: Vec<Update> = Vec::new();
        // Intra-scc deletions of *tree* edges break a certificate; remember
        // those components — they must be recertified even if the structure
        // survives. (This is the decremental maintenance cost the paper
        // observes DynSCC paying while IncSCC's output is stable.)
        let mut broken_certs: FxHashSet<SccId> = FxHashSet::default();
        for u in delta.iter() {
            let (v, w) = u.edge();
            let easy = !u.is_insert()
                && candidates.iter().any(|&(id, cv, cw)| {
                    cv == v
                        && cw == w
                        && !touched_by_rest.contains(&id)
                        && self
                            .valid_cert(id, v)
                            .is_some_and(|c| !c.contains_edge(v, w))
                });
            self.work.aux_touched += 1;
            if !easy {
                if !u.is_insert()
                    && self.inner.condensation().knows(v)
                    && self.inner.condensation().knows(w)
                    && self.inner.scc_of(v) == self.inner.scc_of(w)
                {
                    broken_certs.insert(self.inner.scc_of(v));
                }
                rest.push(*u);
            }
        }
        // The inner view is told of every update — its own certificate must
        // see each deletion; what the fast path skips is this baseline's
        // certificate upkeep.
        let before = self.inner.work();
        self.inner.apply(g, delta);
        self.work += self.inner.work().since(&before);
        if rest.is_empty() {
            return;
        }
        // Certificates broken by tree-edge deletions are dropped (the fast
        // path is lost until recertification); structure changes also
        // invalidate by the size/root check. Recertification is amortised:
        // a component is recertified only after accumulating events
        // proportional to its size, so maintenance stays a constant factor
        // over the update stream.
        for id in broken_certs {
            self.certs.remove(&id);
        }
        let mut candidates_rebuild: FxHashSet<SccId> = FxHashSet::default();
        for u in &rest {
            let (v, w) = u.edge();
            for x in [v, w] {
                let id = self.inner.scc_of(x);
                let members = self.inner.condensation().members(id).len();
                if members <= 1 {
                    continue;
                }
                if self.valid_cert(id, x).is_none() {
                    let c = self.pending.entry(id).or_insert(0);
                    *c += 1;
                    if *c * 8 >= members {
                        candidates_rebuild.insert(id);
                    }
                }
            }
        }
        for id in candidates_rebuild {
            self.rebuild_cert(g, id);
            self.pending.remove(&id);
        }
    }

    fn work(&self) -> WorkStats {
        self.work
    }

    fn clone_view(&self) -> Box<dyn IncView> {
        Box::new(self.clone())
    }

    /// Audits the answer, which the inner [`IncScc`] holds; the
    /// certificates are this baseline's upkeep, not part of the answer.
    fn verify_against_batch(&self, g: &DynamicGraph) -> Result<(), String> {
        self.inner.verify_against_batch(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tarjan::tarjan;
    use igc_graph::graph::graph_from;
    use igc_graph::Label;

    fn assert_matches_batch(d: &DynScc, g: &DynamicGraph) {
        assert_eq!(d.components(), tarjan(g).canonical());
    }

    #[test]
    fn construction_builds_certificates() {
        let g = graph_from(&[0; 4], &[(0, 1), (1, 0), (2, 3), (3, 2)]);
        let d = DynScc::new(&g);
        assert_eq!(d.scc_count(), 2);
        assert_eq!(d.certs.len(), 2);
    }

    #[test]
    fn singletons_have_no_certificates() {
        let g = graph_from(&[0; 3], &[(0, 1)]);
        let d = DynScc::new(&g);
        assert!(d.certs.is_empty());
    }

    #[test]
    fn non_tree_deletion_takes_fast_path() {
        // Triangle + chord: the chord is in no spanning tree built from
        // root 0 (forward tree uses 0→1→2... depends; use a clear case).
        // 4-cycle 0→1→2→3→0 plus chord 1→3 and 3→1.
        let mut g = graph_from(&[0; 4], &[(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (3, 1)]);
        let mut d = DynScc::new(&g);
        // Deleting 3→1: forward tree from 0 never uses it (3 is reached via
        // 2 at distance ≥ 2 vs 1→3 chord...); whether fast or slow, the
        // answer must stay correct.
        g.delete_edge(NodeId(3), NodeId(1));
        d.apply(
            &g,
            &UpdateBatch::from_updates(vec![Update::delete(NodeId(3), NodeId(1))]),
        );
        assert_eq!(d.scc_count(), 1);
        assert_matches_batch(&d, &g);
    }

    #[test]
    fn tree_edge_deletion_rebuilds_and_splits() {
        let mut g = graph_from(&[0; 3], &[(0, 1), (1, 2), (2, 0)]);
        let mut d = DynScc::new(&g);
        g.delete_edge(NodeId(1), NodeId(2));
        d.apply(
            &g,
            &UpdateBatch::from_updates(vec![Update::delete(NodeId(1), NodeId(2))]),
        );
        assert_eq!(d.scc_count(), 3);
        assert_matches_batch(&d, &g);
    }

    #[test]
    fn insert_merging_rebuilds_certificate() {
        let mut g = graph_from(&[0; 4], &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]);
        let mut d = DynScc::new(&g);
        g.insert_edge(NodeId(3), NodeId(0));
        d.apply(
            &g,
            &UpdateBatch::from_updates(vec![Update::insert(NodeId(3), NodeId(0))]),
        );
        assert_eq!(d.scc_count(), 1);
        assert_matches_batch(&d, &g);
        // the merged component must carry a fresh certificate
        let id = d.inner.scc_of(NodeId(0));
        assert!(d.valid_cert(id, NodeId(0)).is_some());
    }

    #[test]
    fn randomized_against_tarjan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let n = 10usize;
            let mut g = DynamicGraph::new();
            for _ in 0..n {
                g.add_node(Label(0));
            }
            for u in 0..n as u32 {
                for v in 0..n as u32 {
                    if u != v && rng.gen_bool(0.2) {
                        g.insert_edge(NodeId(u), NodeId(v));
                    }
                }
            }
            let mut d = DynScc::new(&g);
            for _ in 0..6 {
                // one random unit update at a time (DynSCC's natural mode)
                let edges: Vec<_> = g.sorted_edges();
                let upd = if !edges.is_empty() && rng.gen_bool(0.5) {
                    let (u, v) = edges[rng.gen_range(0..edges.len())];
                    Update::delete(u, v)
                } else {
                    let u = NodeId(rng.gen_range(0..n as u32));
                    let v = NodeId(rng.gen_range(0..n as u32));
                    if u == v || g.contains_edge(u, v) {
                        continue;
                    }
                    Update::insert(u, v)
                };
                let batch = UpdateBatch::from_updates(vec![upd]);
                g.apply_batch(&batch);
                d.apply(&g, &batch);
                assert_matches_batch(&d, &g);
            }
        }
    }
}
