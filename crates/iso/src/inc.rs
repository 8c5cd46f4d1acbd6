//! IncISO — the localizable incremental algorithm for subgraph isomorphism
//! (paper appendix, "Localizable Algorithm for ISO").
//!
//! * **Deletions** (`ΔG⁻`): a match dies iff its edge set contains a deleted
//!   edge; an edge → matches index makes removal output-sensitive.
//! * **Insertions** (`ΔG⁺`): every new match must use at least one inserted
//!   edge, and connected patterns keep all its nodes within the
//!   `d_Q`-neighbourhood of that edge's endpoints. The paper phrases this
//!   as one VF2 run over the induced union subgraph `G_{d_Q}(ΔG⁺)`; we
//!   realise it as an *edge-anchored* search — for each inserted edge and
//!   each pattern edge with matching endpoint labels, enumerate the
//!   completions of that partial mapping. This is equivalent (both find
//!   exactly the matches using an inserted edge inside the neighbourhood)
//!   but never re-enumerates pre-existing matches that happen to live in
//!   the neighbourhood.
//!
//! Cost is a function of `|Q|` and `|G_{d_Q}(ΔG)|` only, never of `|G|` —
//! the definition of localizability. The one-at-a-time variant `IncISOⁿ`
//! (used in the paper's comparisons) is this same algorithm driven through
//! [`igc_core::incremental::apply_one_by_one`].

use crate::pattern::Pattern;
use crate::vf2::{enumerate_matches, enumerate_seeded, MatchKey};
use igc_core::work::{ChangeMetrics, WorkStats};
use igc_core::IncView;
use igc_graph::graph::Edge;
use igc_graph::{DynamicGraph, FxHashMap, FxHashSet, NodeId, UpdateBatch};
use std::sync::Arc;

/// The deletion index: graph edge → ids of matches using it.
type EdgeIndex = FxHashMap<Edge, FxHashSet<u64>>;

/// Maintained ISO state: the pattern, the match set and an edge index.
///
/// The pattern and the match set serve the read API and sit behind `Arc`s:
/// the copy [`IncView::clone_view`] publishes shares them, and `apply`
/// unshares the match set once (`IsoPass`). The edge index is the writer's
/// and is left out of that copy.
#[derive(Debug, Clone)]
pub struct IncIso {
    pattern: Arc<Pattern>,
    state: Arc<IsoState>,
    /// `None` on a copy made by `clone_view`; its first `apply` rebuilds
    /// the index from the match set.
    by_edge: Option<EdgeIndex>,
    work: WorkStats,
    metrics: ChangeMetrics,
}

#[derive(Debug, Clone, Default)]
struct IsoState {
    /// Live matches by id. A match is stored once and both maps hold a
    /// handle on it, so the copy a pinned `apply` makes of this state bumps
    /// reference counts instead of copying node and edge lists.
    matches: FxHashMap<u64, Arc<MatchKey>>,
    /// Subgraph identity → id (duplicate suppression); looked up by
    /// `&MatchKey`.
    by_key: FxHashMap<Arc<MatchKey>, u64>,
    next_id: u64,
}

/// One `apply`'s exclusive borrows: the match set unshared once up front,
/// so the maintenance below works through plain `&mut`.
struct IsoPass<'a> {
    pattern: &'a Pattern,
    matches: &'a mut FxHashMap<u64, Arc<MatchKey>>,
    by_key: &'a mut FxHashMap<Arc<MatchKey>, u64>,
    next_id: &'a mut u64,
    by_edge: &'a mut EdgeIndex,
    work: &'a mut WorkStats,
    metrics: &'a mut ChangeMetrics,
}

impl IncIso {
    /// A deferred constructor for lazy engine registration: VF2 runs on the
    /// engine's *current* graph at registration time
    /// (`engine.register_lazy("iso", IncIso::init(pattern))`).
    pub fn init(pattern: Pattern) -> impl FnOnce(&DynamicGraph) -> Self {
        move |g: &DynamicGraph| IncIso::new(g, pattern)
    }

    /// Batch-compute `Q(G)` with VF2 and build the indexes.
    pub fn new(g: &DynamicGraph, pattern: Pattern) -> Self {
        let mut me = IncIso {
            pattern: Arc::new(pattern),
            state: Arc::default(),
            by_edge: Some(EdgeIndex::default()),
            work: WorkStats::new(),
            metrics: ChangeMetrics::default(),
        };
        let mut work = WorkStats::new();
        let found = enumerate_matches(g, &me.pattern, &mut work);
        me.work += work;
        let mut pass = me.pass();
        for key in found {
            pass.add_match(key);
        }
        me
    }

    /// The pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Number of matches `|Q(G)|`.
    pub fn match_count(&self) -> usize {
        self.state.matches.len()
    }

    /// All matches in canonical order.
    pub fn sorted_matches(&self) -> Vec<MatchKey> {
        let mut v: Vec<MatchKey> = self
            .state
            .matches
            .values()
            .map(|key| MatchKey::clone(key))
            .collect();
        v.sort();
        v
    }

    /// True when the given subgraph is a current match.
    pub fn contains(&self, key: &MatchKey) -> bool {
        self.state.by_key.contains_key(key)
    }

    /// Change metrics of the last `apply`.
    pub fn last_metrics(&self) -> ChangeMetrics {
        self.metrics
    }

    fn pass(&mut self) -> IsoPass<'_> {
        let IsoState {
            matches,
            by_key,
            next_id,
        } = Arc::make_mut(&mut self.state);
        let by_edge = self.by_edge.get_or_insert_with(|| {
            let mut index = EdgeIndex::default();
            for (&id, key) in matches.iter() {
                for &e in &key.edges {
                    index.entry(e).or_default().insert(id);
                }
            }
            index
        });
        IsoPass {
            pattern: &self.pattern,
            matches,
            by_key,
            next_id,
            by_edge,
            work: &mut self.work,
            metrics: &mut self.metrics,
        }
    }
}

impl IsoPass<'_> {
    fn add_match(&mut self, key: MatchKey) -> bool {
        if self.by_key.contains_key(&key) {
            return false;
        }
        let id = *self.next_id;
        *self.next_id += 1;
        for &e in &key.edges {
            self.by_edge.entry(e).or_default().insert(id);
        }
        let key = Arc::new(key);
        self.by_key.insert(Arc::clone(&key), id);
        self.matches.insert(id, key);
        self.work.aux_touched += 1;
        true
    }

    fn remove_matches_using(&mut self, e: Edge) -> usize {
        let Some(ids) = self.by_edge.remove(&e) else {
            return 0;
        };
        let count = ids.len();
        for id in ids {
            let key = self.matches.remove(&id).expect("index desync");
            self.by_key.remove(&*key);
            for &e2 in &key.edges {
                if e2 != e {
                    if let Some(s) = self.by_edge.get_mut(&e2) {
                        s.remove(&id);
                        if s.is_empty() {
                            self.by_edge.remove(&e2);
                        }
                    }
                }
            }
            self.work.aux_touched += 1;
        }
        count
    }

    fn apply(&mut self, g: &DynamicGraph, delta: &UpdateBatch) {
        *self.metrics = ChangeMetrics {
            input_updates: delta.len() as u64,
            ..Default::default()
        };
        let (deletions, insertions) = delta.split_edges();

        // (1) Deletions: drop every match using a deleted edge.
        for e in deletions {
            let removed = self.remove_matches_using(e) as u64;
            self.metrics.output_changes += removed;
        }

        // (2) Insertions. Every new match must map some pattern edge onto
        // some inserted edge, so an edge-anchored search per (inserted
        // edge, pattern edge) pair finds them all. The search only ever
        // expands graph neighbourhoods of the seed, so its footprint stays
        // inside the d_Q-neighbourhood of ΔG⁺ — the same locality radius as
        // the paper's union-subgraph formulation (see module docs), with
        // strictly less wasted re-enumeration of pre-existing matches.
        if !insertions.is_empty() {
            let pattern_edges: Vec<Edge> = self.pattern.graph().edges().collect();
            for &(v, w) in &insertions {
                self.work.nodes_visited += 1;
                for &pe in &pattern_edges {
                    let mut work = WorkStats::new();
                    let found = enumerate_seeded(g, self.pattern, pe, (v, w), &mut work);
                    self.metrics.affected += work.nodes_visited;
                    *self.work += work;
                    for key in found {
                        if self.add_match(key) {
                            self.metrics.output_changes += 1;
                        }
                    }
                }
            }
            // A connected zero-edge pattern is a single node: new nodes
            // introduced by insertions can match it without using any edge.
            if pattern_edges.is_empty() {
                let label = self.pattern.graph().label(NodeId(0));
                for &(v, w) in &insertions {
                    for node in [v, w] {
                        if g.label(node) == label {
                            let key = MatchKey {
                                nodes: vec![node],
                                edges: vec![],
                            };
                            if self.add_match(key) {
                                self.metrics.output_changes += 1;
                            }
                        }
                    }
                }
            }
        }
    }
}

impl IncView for IncIso {
    fn name(&self) -> &str {
        "iso"
    }

    fn apply(&mut self, g: &DynamicGraph, delta: &UpdateBatch) {
        self.pass().apply(g, delta);
    }

    fn work(&self) -> WorkStats {
        self.work
    }

    /// The pattern and the match set, shared; no edge index.
    fn clone_view(&self) -> Box<dyn IncView> {
        Box::new(IncIso {
            pattern: Arc::clone(&self.pattern),
            state: Arc::clone(&self.state),
            by_edge: None,
            work: self.work,
            metrics: self.metrics,
        })
    }

    /// Audit the maintained match set against a fresh VF2 enumeration (with
    /// its indexes rebuilt from scratch).
    fn verify_against_batch(&self, g: &DynamicGraph) -> Result<(), String> {
        let fresh = IncIso::new(g, Pattern::clone(&self.pattern));
        if self.sorted_matches() != fresh.sorted_matches() {
            return Err(format!(
                "iso: maintained match set ({}) diverged from VF2 ({})",
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
    use igc_graph::graph::graph_from;
    use igc_graph::Update;

    fn assert_matches_batch(inc: &IncIso, g: &DynamicGraph) {
        let mut w = WorkStats::new();
        let fresh = enumerate_matches(g, inc.pattern(), &mut w);
        let mut fresh: Vec<MatchKey> = fresh.into_iter().collect();
        fresh.sort();
        assert_eq!(inc.sorted_matches(), fresh, "IncISO diverged from VF2");
    }

    #[test]
    fn construction_counts_matches() {
        let g = graph_from(&[0, 1, 1], &[(0, 1), (0, 2)]);
        let p = Pattern::from_parts(&[0, 1], &[(0, 1)]);
        let inc = IncIso::new(&g, p);
        assert_eq!(inc.match_count(), 2);
    }

    #[test]
    fn deletion_removes_only_affected_matches() {
        let mut g = graph_from(&[0, 1, 1], &[(0, 1), (0, 2)]);
        let p = Pattern::from_parts(&[0, 1], &[(0, 1)]);
        let mut inc = IncIso::new(&g, p);
        g.delete_edge(NodeId(0), NodeId(1));
        inc.apply(
            &g,
            &UpdateBatch::from_updates(vec![Update::delete(NodeId(0), NodeId(1))]),
        );
        assert_eq!(inc.match_count(), 1);
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn insertion_finds_matches_in_neighborhood_only() {
        // Distant part of the graph is irrelevant to the new match.
        let mut g = graph_from(&[0, 1, 0, 1, 0], &[(2, 3), (3, 4)]);
        let p = Pattern::from_parts(&[0, 1], &[(0, 1)]);
        let mut inc = IncIso::new(&g, p);
        assert_eq!(inc.match_count(), 1);
        g.insert_edge(NodeId(0), NodeId(1));
        inc.apply(
            &g,
            &UpdateBatch::from_updates(vec![Update::insert(NodeId(0), NodeId(1))]),
        );
        assert_eq!(inc.match_count(), 2);
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn insertion_of_edge_completing_larger_pattern() {
        // Diamond pattern completed by its last edge.
        let p = Pattern::from_parts(&[0; 4], &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let mut g = graph_from(&[0; 4], &[(0, 1), (0, 2), (1, 3)]);
        let mut inc = IncIso::new(&g, p);
        assert_eq!(inc.match_count(), 0);
        g.insert_edge(NodeId(2), NodeId(3));
        inc.apply(
            &g,
            &UpdateBatch::from_updates(vec![Update::insert(NodeId(2), NodeId(3))]),
        );
        assert_eq!(inc.match_count(), 1);
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn reinsertion_does_not_duplicate() {
        let mut g = graph_from(&[0, 1], &[(0, 1)]);
        let p = Pattern::from_parts(&[0, 1], &[(0, 1)]);
        let mut inc = IncIso::new(&g, p);
        let del = UpdateBatch::from_updates(vec![Update::delete(NodeId(0), NodeId(1))]);
        g.apply_batch(&del);
        inc.apply(&g, &del);
        assert_eq!(inc.match_count(), 0);
        let ins = UpdateBatch::from_updates(vec![Update::insert(NodeId(0), NodeId(1))]);
        g.apply_batch(&ins);
        inc.apply(&g, &ins);
        assert_eq!(inc.match_count(), 1);
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn a_pinned_apply_shares_the_matches_it_leaves_alone() {
        use igc_core::IncView;
        let mut g = graph_from(&[0, 1, 0, 1], &[(0, 1), (2, 3)]);
        let mut inc = IncIso::new(&g, Pattern::from_parts(&[0, 1], &[(0, 1)]));
        let pinned = inc.clone_view();
        let pinned = pinned.downcast_ref::<IncIso>().unwrap();
        let delta = UpdateBatch::from_updates(vec![Update::delete(NodeId(0), NodeId(1))]);
        g.apply_batch(&delta);
        inc.apply(&g, &delta);
        assert!(
            !Arc::ptr_eq(&inc.state, &pinned.state),
            "the writer diverged"
        );
        assert_eq!((inc.match_count(), pinned.match_count()), (1, 2));
        let (id, kept) = inc.state.matches.iter().next().unwrap();
        assert!(Arc::ptr_eq(kept, &pinned.state.matches[id]));
        let (indexed, _) = inc.state.by_key.get_key_value(&**kept).unwrap();
        assert!(Arc::ptr_eq(indexed, kept), "stored once, two handles");
    }

    #[test]
    fn mixed_batch_update() {
        let p = Pattern::from_parts(&[0, 1, 0], &[(0, 1), (1, 2)]);
        let mut g = graph_from(&[0, 1, 0, 1, 0], &[(0, 1), (1, 2), (2, 3)]);
        let mut inc = IncIso::new(&g, p);
        let delta = UpdateBatch::from_updates(vec![
            Update::delete(NodeId(1), NodeId(2)),
            Update::insert(NodeId(3), NodeId(4)),
            Update::insert(NodeId(3), NodeId(0)),
        ]);
        g.apply_batch(&delta);
        inc.apply(&g, &delta);
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn new_nodes_in_insertions() {
        let p = Pattern::from_parts(&[0, 0], &[(0, 1)]);
        let mut g = graph_from(&[0], &[]);
        let mut inc = IncIso::new(&g, p);
        let delta = UpdateBatch::from_updates(vec![Update::insert_labeled(
            NodeId(0),
            NodeId(1),
            None,
            Some(igc_graph::Label(0)),
        )]);
        g.apply_batch(&delta);
        inc.apply(&g, &delta);
        assert_eq!(inc.match_count(), 1);
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn work_is_local_not_global() {
        // Same neighbourhood around the update, 10× bigger far-away graph:
        // the incremental work must not scale with the far-away part.
        let p = Pattern::from_parts(&[0, 1], &[(0, 1)]);
        let small = {
            let mut labels = vec![0u32, 1];
            labels.extend(std::iter::repeat_n(2, 50));
            let edges: Vec<(u32, u32)> = (2..51).map(|i| (i, i + 1)).collect();
            graph_from(&labels, &edges)
        };
        let large = {
            let mut labels = vec![0u32, 1];
            labels.extend(std::iter::repeat_n(2, 500));
            let edges: Vec<(u32, u32)> = (2..501).map(|i| (i, i + 1)).collect();
            graph_from(&labels, &edges)
        };
        let run = |mut g: DynamicGraph| -> u64 {
            let mut inc = IncIso::new(&g, Pattern::from_parts(&[0, 1], &[(0, 1)]));
            let before = inc.work();
            let delta = UpdateBatch::from_updates(vec![Update::insert(NodeId(0), NodeId(1))]);
            g.apply_batch(&delta);
            inc.apply(&g, &delta);
            inc.work().since(&before).total()
        };
        let _ = p;
        let w_small = run(small);
        let w_large = run(large);
        assert_eq!(
            w_small, w_large,
            "localizable: incremental work must not depend on |G|"
        );
    }

    #[test]
    fn randomized_against_vf2() {
        use igc_graph::generator::{random_update_batch, uniform_graph};
        let p = Pattern::from_parts(&[0, 1, 1], &[(0, 1), (0, 2)]);
        for seed in 0..6 {
            let mut g = uniform_graph(30, 80, 3, seed);
            let mut inc = IncIso::new(&g, p.clone());
            for round in 0..3 {
                let delta = random_update_batch(&g, 10, 0.5, seed * 5 + round);
                g.apply_batch(&delta);
                inc.apply(&g, &delta);
                assert_matches_batch(&inc, &g);
            }
        }
    }

    #[test]
    fn randomized_unit_updates_against_vf2() {
        use igc_core::incremental::apply_one_by_one;
        use igc_graph::generator::{random_update_batch, uniform_graph};
        let p = Pattern::from_parts(&[0, 1], &[(0, 1)]);
        for seed in 30..33 {
            let mut g = uniform_graph(25, 70, 2, seed);
            let mut inc = IncIso::new(&g, p.clone());
            let delta = random_update_batch(&g, 8, 0.5, seed);
            apply_one_by_one(&mut inc, &mut g, &delta);
            assert_matches_batch(&inc, &g);
        }
    }
}
