//! Tarjan's SCC algorithm \[43\], iterative, with the auxiliary values the
//! paper's incrementalization maintains: `num` (DFS discovery order),
//! `lowlink`, reverse-topological component emission order, and the DFS edge
//! classification of Section 5.3 (tree arcs, fronds, reverse fronds,
//! cross-links).

use igc_graph::{DynamicGraph, FxHashMap, NodeId};

/// Marker for "not yet visited" in `num`.
pub const UNVISITED: u32 = u32::MAX;

/// Result of a full Tarjan run.
#[derive(Debug, Clone)]
pub struct SccResult {
    /// `comp_of[v]` — index into `components` for node `v`.
    pub comp_of: Vec<u32>,
    /// Components in emission order, which is *reverse topological* order of
    /// the condensation: if scc `A` has an edge to scc `B`, then `B` is
    /// emitted before `A`. (Tarjan pops a component only after everything it
    /// can reach is popped.)
    pub components: Vec<Vec<NodeId>>,
    /// DFS discovery order `v.num`.
    pub num: Vec<u32>,
    /// `v.lowlink`: smallest `num` reachable via tree arcs plus at most one
    /// frond/cross-link within the same scc.
    pub lowlink: Vec<u32>,
}

impl SccResult {
    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// True when `u` and `v` are strongly connected.
    pub fn same_component(&self, u: NodeId, v: NodeId) -> bool {
        self.comp_of[u.index()] == self.comp_of[v.index()]
    }

    /// Components with sorted members, sorted lexicographically — the
    /// canonical form used to compare algorithms.
    pub fn canonical(&self) -> Vec<Vec<NodeId>> {
        let mut comps: Vec<Vec<NodeId>> = self
            .components
            .iter()
            .map(|c| {
                let mut c = c.clone();
                c.sort_unstable();
                c
            })
            .collect();
        comps.sort();
        comps
    }
}

/// Run Tarjan over the whole graph.
pub fn tarjan(g: &DynamicGraph) -> SccResult {
    let n = g.node_count();
    let mut state = State::new(n);
    for v in g.nodes() {
        if state.num[v.index()] == UNVISITED {
            state.dfs(g, v, None);
        }
    }
    SccResult {
        comp_of: state.comp_of,
        components: state.components,
        num: state.num,
        lowlink: state.lowlink,
    }
}

/// Marker for "outside the restriction" in a [`LocalIndex`].
const NOT_LOCAL: u32 = u32::MAX;

/// The node → position index of [`tarjan_restricted`], reusable across
/// calls. Between calls every entry is "outside the restriction": a call
/// sets the entries of its `nodes` and resets exactly those before it
/// returns, so reuse costs nothing beyond the restricted nodes themselves.
/// The backing vector follows the graph's node count, so growing it is
/// paid once per new node, not per call.
#[derive(Debug, Clone, Default)]
pub struct LocalIndex(Vec<u32>);

/// Result of [`tarjan_restricted`], positional: parallel to the `nodes`
/// slice the run was restricted to.
#[derive(Debug, Clone)]
pub struct RestrictedScc {
    /// `comp_of[i]` — emission index of the sub-component of `nodes[i]`.
    /// Emission order is reverse topological (sinks first).
    pub comp_of: Vec<u32>,
    /// Size of each sub-component, in emission order.
    pub sizes: Vec<u32>,
    /// Successor entries scanned: every out-edge of every restricted node
    /// exactly once, whether or not its target is inside the restriction.
    pub edges_scanned: u64,
}

/// Tarjan restricted to the subgraph induced by `nodes` (edges of `g` with
/// both endpoints in `nodes`; `nodes` must not repeat a node). Returns the
/// sub-components in reverse topological order of the *sub*-condensation —
/// this is what IncSCC runs on an affected scc.
///
/// All DFS state is sized by `|nodes|` via a local dense index, not by
/// `|V|`: this sits on IncSCC's hot path (every affected-component
/// recompute), and an earlier implementation that zeroed five
/// full-graph-sized vectors per call dominated the cost of maintaining
/// small components inside large graphs. The index itself lives in
/// `local` ([`LocalIndex`]) and is written and reset over `nodes` only.
/// Traversal order — roots in `nodes` order, successors in adjacency
/// order, non-members skipped — and therefore the emitted components are
/// unchanged.
pub fn tarjan_restricted(
    g: &DynamicGraph,
    nodes: &[NodeId],
    local: &mut LocalIndex,
) -> RestrictedScc {
    let n = nodes.len();
    let local = &mut local.0;
    if local.len() < g.node_count() {
        local.resize(g.node_count(), NOT_LOCAL);
    }
    for (i, &v) in nodes.iter().enumerate() {
        debug_assert_eq!(local[v.index()], NOT_LOCAL, "index dirty or {v:?} repeated");
        local[v.index()] = i as u32;
    }
    let mut num = vec![UNVISITED; n];
    let mut lowlink = vec![UNVISITED; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut comp_of = vec![u32::MAX; n];
    let mut sizes: Vec<u32> = Vec::new();
    let mut edges_scanned = 0u64;
    let mut counter = 0u32;
    // Frame: (local node index, next successor position).
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if num[root as usize] != UNVISITED {
            continue;
        }
        num[root as usize] = counter;
        lowlink[root as usize] = counter;
        counter += 1;
        stack.push(root);
        on_stack[root as usize] = true;
        frames.push((root, 0));
        while let Some(&(lv, i)) = frames.last() {
            let succs = g.successors(nodes[lv as usize]);
            if i < succs.len() {
                frames.last_mut().expect("frame just read").1 += 1;
                let lw = local[succs[i].index()];
                if lw == NOT_LOCAL {
                    continue; // successor outside the restriction
                }
                if num[lw as usize] == UNVISITED {
                    num[lw as usize] = counter;
                    lowlink[lw as usize] = counter;
                    counter += 1;
                    stack.push(lw);
                    on_stack[lw as usize] = true;
                    frames.push((lw, 0));
                } else if on_stack[lw as usize] {
                    let nw = num[lw as usize];
                    let ll = &mut lowlink[lv as usize];
                    if nw < *ll {
                        *ll = nw;
                    }
                }
                continue;
            }
            // lv finished: maybe emit a component, then propagate lowlink.
            frames.pop();
            edges_scanned += succs.len() as u64;
            if lowlink[lv as usize] == num[lv as usize] {
                let index = sizes.len() as u32;
                let mut size = 0u32;
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    on_stack[w as usize] = false;
                    comp_of[w as usize] = index;
                    size += 1;
                    if w == lv {
                        break;
                    }
                }
                sizes.push(size);
            }
            if let Some(&(p, _)) = frames.last() {
                let cur = lowlink[lv as usize];
                let lp = &mut lowlink[p as usize];
                if cur < *lp {
                    *lp = cur;
                }
            }
        }
    }
    for &v in nodes {
        local[v.index()] = NOT_LOCAL;
    }
    RestrictedScc {
        comp_of,
        sizes,
        edges_scanned,
    }
}

/// Shared iterative-DFS machinery.
struct State {
    num: Vec<u32>,
    lowlink: Vec<u32>,
    on_stack: Vec<bool>,
    stack: Vec<NodeId>,
    comp_of: Vec<u32>,
    components: Vec<Vec<NodeId>>,
    counter: u32,
}

impl State {
    fn new(n: usize) -> Self {
        State {
            num: vec![UNVISITED; n],
            lowlink: vec![UNVISITED; n],
            on_stack: vec![false; n],
            stack: Vec::new(),
            comp_of: vec![u32::MAX; n],
            components: Vec::new(),
            counter: 0,
        }
    }

    /// Iterative Tarjan DFS from `root`.
    fn dfs(&mut self, g: &DynamicGraph, root: NodeId, _parent_out: Option<NodeId>) {
        // Frame: (node, index of the next successor to process)
        let mut frames: Vec<(NodeId, usize)> = Vec::new();
        self.discover(root);
        frames.push((root, 0));
        while let Some(&(v, i)) = frames.last() {
            let succs = g.successors(v);
            if i < succs.len() {
                frames.last_mut().expect("frame just read").1 += 1;
                let w = succs[i];
                if self.num[w.index()] == UNVISITED {
                    self.discover(w);
                    frames.push((w, 0));
                } else if self.on_stack[w.index()] {
                    let nw = self.num[w.index()];
                    let lv = &mut self.lowlink[v.index()];
                    if nw < *lv {
                        *lv = nw;
                    }
                }
                continue;
            }
            // v finished: maybe emit a component, then propagate lowlink.
            frames.pop();
            if self.lowlink[v.index()] == self.num[v.index()] {
                let mut comp = Vec::new();
                loop {
                    let w = self.stack.pop().expect("tarjan stack underflow");
                    self.on_stack[w.index()] = false;
                    self.comp_of[w.index()] = self.components.len() as u32;
                    comp.push(w);
                    if w == v {
                        break;
                    }
                }
                self.components.push(comp);
            }
            if let Some(&(p, _)) = frames.last() {
                let lv = self.lowlink[v.index()];
                let lp = &mut self.lowlink[p.index()];
                if lv < *lp {
                    *lp = lv;
                }
            }
        }
    }

    fn discover(&mut self, v: NodeId) {
        self.num[v.index()] = self.counter;
        self.lowlink[v.index()] = self.counter;
        self.counter += 1;
        self.stack.push(v);
        self.on_stack[v.index()] = true;
    }
}

/// DFS classification of a graph edge (Section 5.3 / Tarjan \[43\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Leads to a node first discovered through this edge.
    TreeArc,
    /// Runs from a descendant to an ancestor in the DFS tree.
    Frond,
    /// Runs from an ancestor to a (non-child) descendant.
    ReverseFrond,
    /// Runs between unrelated subtrees.
    CrossLink,
}

/// Classify every edge of `g` with respect to a DFS forest (computed here
/// over all roots in node order, matching [`tarjan`]'s traversal order).
pub fn classify_edges(g: &DynamicGraph) -> FxHashMap<(NodeId, NodeId), EdgeKind> {
    let n = g.node_count();
    let mut entry = vec![u32::MAX; n];
    let mut exit = vec![u32::MAX; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut clock = 0u32;
    for root in g.nodes() {
        if entry[root.index()] != u32::MAX {
            continue;
        }
        let mut frames: Vec<(NodeId, usize)> = vec![(root, 0)];
        entry[root.index()] = clock;
        clock += 1;
        while let Some(&(v, i)) = frames.last() {
            let succs = g.successors(v);
            if i < succs.len() {
                frames.last_mut().expect("frame just read").1 += 1;
                let w = succs[i];
                if entry[w.index()] == u32::MAX {
                    entry[w.index()] = clock;
                    clock += 1;
                    parent[w.index()] = Some(v);
                    frames.push((w, 0));
                }
            } else {
                exit[v.index()] = clock;
                clock += 1;
                frames.pop();
            }
        }
    }
    let is_ancestor = |a: NodeId, b: NodeId| -> bool {
        entry[a.index()] <= entry[b.index()] && exit[b.index()] <= exit[a.index()]
    };
    let mut out = FxHashMap::default();
    for (u, v) in g.edges() {
        let kind = if parent[v.index()] == Some(u) {
            EdgeKind::TreeArc
        } else if is_ancestor(v, u) {
            EdgeKind::Frond
        } else if is_ancestor(u, v) {
            EdgeKind::ReverseFrond
        } else {
            EdgeKind::CrossLink
        };
        out.insert((u, v), kind);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use igc_graph::graph::graph_from;

    /// The paper's Fig. 2 graph (Example 6): nodes a1,d2,b2,c1,b1,c2,b3,a2,
    /// d1,b4 → ids 0..9, with four sccs.
    /// Edges (solid, without e1..e5): taken from the figure's structure so
    /// that scc1 = {b4}, scc2 = {b2,c2,b3,a2,d1}-ish splits depend on the
    /// exact figure; here we use a graph with the same scc *count* profile.
    fn multi_scc() -> DynamicGraph {
        // scc A = {0,1,2} (cycle), scc B = {3,4} (2-cycle), scc C = {5},
        // edges A→B, B→C
        graph_from(
            &[0; 6],
            &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3), (4, 5)],
        )
    }

    #[test]
    fn finds_components() {
        let g = multi_scc();
        let r = tarjan(&g);
        assert_eq!(r.component_count(), 3);
        assert!(r.same_component(NodeId(0), NodeId(2)));
        assert!(r.same_component(NodeId(3), NodeId(4)));
        assert!(!r.same_component(NodeId(0), NodeId(3)));
        assert!(!r.same_component(NodeId(4), NodeId(5)));
    }

    #[test]
    fn emission_order_is_reverse_topological() {
        let g = multi_scc();
        let r = tarjan(&g);
        // For every edge (u,v) across components, comp(v) emitted earlier.
        for (u, v) in g.edges() {
            let cu = r.comp_of[u.index()];
            let cv = r.comp_of[v.index()];
            if cu != cv {
                assert!(cv < cu, "edge {u:?}→{v:?}: comp {cv} should precede {cu}");
            }
        }
    }

    #[test]
    fn singleton_nodes_are_components() {
        let g = graph_from(&[0; 3], &[]);
        let r = tarjan(&g);
        assert_eq!(r.component_count(), 3);
    }

    #[test]
    fn self_loop_is_singleton_component() {
        let mut g = graph_from(&[0; 2], &[(0, 1)]);
        g.insert_edge(NodeId(0), NodeId(0));
        let r = tarjan(&g);
        assert_eq!(r.component_count(), 2);
    }

    #[test]
    fn root_satisfies_lowlink_eq_num() {
        let g = multi_scc();
        let r = tarjan(&g);
        // Exactly one node per component has lowlink == num (the root).
        for comp in &r.components {
            let roots = comp
                .iter()
                .filter(|v| r.lowlink[v.index()] == r.num[v.index()])
                .count();
            assert_eq!(roots, 1);
        }
    }

    #[test]
    fn large_cycle_single_component() {
        let n = 1000;
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = graph_from(&vec![0; n as usize], &edges);
        let r = tarjan(&g);
        assert_eq!(r.component_count(), 1);
        assert_eq!(r.components[0].len(), n as usize);
    }

    #[test]
    fn deep_path_does_not_overflow() {
        // 100k-node path: a recursive implementation would blow the stack.
        let n = 100_000u32;
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = graph_from(&vec![0; n as usize], &edges);
        let r = tarjan(&g);
        assert_eq!(r.component_count(), n as usize);
    }

    /// A restricted run's components as node lists in emission order
    /// (members in `nodes` order).
    fn restricted_components(r: &RestrictedScc, nodes: &[NodeId]) -> Vec<Vec<NodeId>> {
        let mut comps: Vec<Vec<NodeId>> = vec![Vec::new(); r.sizes.len()];
        for (i, &v) in nodes.iter().enumerate() {
            comps[r.comp_of[i] as usize].push(v);
        }
        for (c, &size) in comps.iter().zip(&r.sizes) {
            assert_eq!(c.len(), size as usize);
        }
        comps
    }

    fn ids(raw: &[u32]) -> Vec<NodeId> {
        raw.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn restricted_run_ignores_outside_edges() {
        let g = multi_scc();
        // Restrict to {0,1,2,3}: edge 3→4 leaves the set, 4→3 enters it, so
        // 3 is a singleton in the restriction.
        let nodes = ids(&[0, 1, 2, 3]);
        let r = tarjan_restricted(&g, &nodes, &mut LocalIndex::default());
        // 3 is the sink of the restriction, so it is emitted first.
        assert_eq!(
            restricted_components(&r, &nodes),
            vec![ids(&[3]), ids(&[0, 1, 2])]
        );
        // Positional result: one entry per restricted node, none for 4.
        assert_eq!(r.comp_of.len(), 4);
        // Out-edges of 0, 1, 2 (one, one, two) and of 3 (the one leaving).
        assert_eq!(r.edges_scanned, 5);
    }

    #[test]
    fn restricted_emission_reverse_topological() {
        // 5 → 6 → 7 as singletons: sinks first.
        let g = graph_from(&[0; 8], &[(5, 6), (6, 7)]);
        let nodes = ids(&[5, 6, 7]);
        let r = tarjan_restricted(&g, &nodes, &mut LocalIndex::default());
        assert_eq!(
            restricted_components(&r, &nodes),
            vec![ids(&[7]), ids(&[6]), ids(&[5])]
        );
    }

    #[test]
    fn restricted_index_is_reset_between_calls() {
        // Two 3-cycles bridged 2→3, a 2-cycle {6,7} fed by 5, and 8 → 0.
        let g = graph_from(
            &[0; 9],
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 3),
                (5, 6),
                (6, 7),
                (7, 6),
                (8, 0),
            ],
        );
        let mut local = LocalIndex::default();
        // Disjoint subsets first, then ones overlapping both; a stale entry
        // from an earlier call would pull an outside node into a later run.
        let subsets: [&[u32]; 5] = [
            &[0, 1, 2],
            &[3, 4, 5, 6],
            &[2, 3, 4, 5],
            &[8, 0, 1, 7, 6],
            &[0, 1, 2, 3, 4, 5, 6, 7, 8],
        ];
        for raw in subsets {
            let nodes = ids(raw);
            let reused = tarjan_restricted(&g, &nodes, &mut local);
            let fresh = tarjan_restricted(&g, &nodes, &mut LocalIndex::default());
            assert_eq!(reused.comp_of, fresh.comp_of, "subset {raw:?}");
            assert_eq!(reused.sizes, fresh.sizes, "subset {raw:?}");
            assert_eq!(reused.edges_scanned, fresh.edges_scanned);
            assert!(local.0.iter().all(|&l| l == NOT_LOCAL), "subset {raw:?}");
        }
        // The emission the hash-indexed implementation produced.
        let nodes = ids(&[2, 3, 4, 5]);
        let r = tarjan_restricted(&g, &nodes, &mut local);
        assert_eq!(
            restricted_components(&r, &nodes),
            vec![ids(&[3, 4, 5]), ids(&[2])]
        );
        let nodes = ids(&[8, 0, 1, 7, 6]);
        let r = tarjan_restricted(&g, &nodes, &mut local);
        assert_eq!(
            restricted_components(&r, &nodes),
            vec![ids(&[1]), ids(&[0]), ids(&[8]), ids(&[7, 6])]
        );
    }

    #[test]
    fn edge_classification_on_a_tree_with_extras() {
        //       0
        //      / \
        //     1   2
        //     |
        //     3
        // extra: 3→0 (frond), 0→3 (reverse frond), 2→3 (cross, since DFS
        // visits 1's subtree first).
        let g = graph_from(&[0; 4], &[(0, 1), (0, 2), (1, 3), (3, 0), (0, 3), (2, 3)]);
        let k = classify_edges(&g);
        assert_eq!(k[&(NodeId(0), NodeId(1))], EdgeKind::TreeArc);
        assert_eq!(k[&(NodeId(1), NodeId(3))], EdgeKind::TreeArc);
        assert_eq!(k[&(NodeId(3), NodeId(0))], EdgeKind::Frond);
        assert_eq!(k[&(NodeId(0), NodeId(3))], EdgeKind::ReverseFrond);
        assert_eq!(k[&(NodeId(2), NodeId(3))], EdgeKind::CrossLink);
    }

    #[test]
    fn classification_covers_every_edge() {
        let g = multi_scc();
        let k = classify_edges(&g);
        assert_eq!(k.len(), g.edge_count());
    }
}
