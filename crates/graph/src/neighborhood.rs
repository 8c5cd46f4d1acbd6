//! `d`-hop neighbourhoods — the locality radius of Section 4.
//!
//! The paper defines `V_d(v)` as all nodes within `d` hops of `v` *treating
//! `G` as undirected*, and the `d`-neighbour `G_d(v)` as the subgraph induced
//! by `V_d(v)`. A localizable incremental algorithm touches only the
//! `d_Q`-neighbourhoods of the nodes in `ΔG`.

use crate::fxhash::FxHashMap;
use crate::graph::DynamicGraph;
use crate::node::NodeId;

/// Nodes within `d` undirected hops of `center` (including `center`).
pub fn ball_nodes(g: &DynamicGraph, center: NodeId, d: usize) -> Vec<NodeId> {
    batch_ball_nodes(g, &[center], d)
}

/// Union of the `d`-hop undirected balls around every node in `centers`.
///
/// Returned in BFS-discovery order; each node appears once. Centres that are
/// not nodes of `g` are skipped (a deleted edge may refer to endpoints that
/// were never created).
pub fn batch_ball_nodes(g: &DynamicGraph, centers: &[NodeId], d: usize) -> Vec<NodeId> {
    let mut dist: FxHashMap<NodeId, usize> = FxHashMap::default();
    let mut queue = std::collections::VecDeque::new();
    for &c in centers {
        if g.contains_node(c) && !dist.contains_key(&c) {
            dist.insert(c, 0);
            queue.push_back(c);
        }
    }
    let mut order: Vec<NodeId> = queue.iter().copied().collect();
    while let Some(v) = queue.pop_front() {
        let dv = dist[&v];
        if dv == d {
            continue;
        }
        for &w in g.successors(v).iter().chain(g.predecessors(v)) {
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(w) {
                e.insert(dv + 1);
                order.push(w);
                queue.push_back(w);
            }
        }
    }
    order
}

/// A subgraph of a host graph induced by a node subset, with a mapping back
/// to host node ids. Used both for `G_d(v)` extraction and for running batch
/// algorithms on affected regions (IncISO, IncSCC).
#[derive(Debug, Clone)]
pub struct Neighborhood {
    /// The induced subgraph over locally renumbered nodes.
    pub graph: DynamicGraph,
    /// `local_to_host[i]` is the host node for local node `i`.
    pub local_to_host: Vec<NodeId>,
    /// Host node → local node.
    pub host_to_local: FxHashMap<NodeId, NodeId>,
}

impl Neighborhood {
    /// Host id of a local node.
    pub fn to_host(&self, local: NodeId) -> NodeId {
        self.local_to_host[local.index()]
    }

    /// Local id of a host node, if the node is inside the neighbourhood.
    pub fn to_local(&self, host: NodeId) -> Option<NodeId> {
        self.host_to_local.get(&host).copied()
    }
}

/// The subgraph of `g` induced by `nodes` (edges with both endpoints inside).
pub fn induced_subgraph(g: &DynamicGraph, nodes: &[NodeId]) -> Neighborhood {
    let mut sub = DynamicGraph::with_capacity(nodes.len(), nodes.len() * 2);
    let mut host_to_local: FxHashMap<NodeId, NodeId> = FxHashMap::default();
    host_to_local.reserve(nodes.len());
    let mut local_to_host = Vec::with_capacity(nodes.len());
    for &v in nodes {
        let local = sub.add_node(g.label(v));
        host_to_local.insert(v, local);
        local_to_host.push(v);
    }
    for &v in nodes {
        let lv = host_to_local[&v];
        for &w in g.successors(v) {
            if let Some(&lw) = host_to_local.get(&w) {
                sub.insert_edge(lv, lw);
            }
        }
    }
    Neighborhood {
        graph: sub,
        local_to_host,
        host_to_local,
    }
}

/// `G_d(v)`: the subgraph induced by `V_d(v)`.
pub fn d_neighbor(g: &DynamicGraph, center: NodeId, d: usize) -> Neighborhood {
    induced_subgraph(g, &ball_nodes(g, center, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::graph_from;

    /// 0 → 1 → 2 → 3 → 4 (path) plus 5 isolated.
    fn path5() -> DynamicGraph {
        graph_from(&[0, 0, 0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn ball_is_undirected() {
        let g = path5();
        // From node 2 at radius 1 we reach 1 (predecessor) and 3 (successor).
        let mut b = ball_nodes(&g, NodeId(2), 1);
        b.sort_unstable();
        assert_eq!(b, vec![NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn radius_zero_is_center_only() {
        let g = path5();
        assert_eq!(ball_nodes(&g, NodeId(2), 0), vec![NodeId(2)]);
    }

    #[test]
    fn ball_saturates_component() {
        let g = path5();
        let b = ball_nodes(&g, NodeId(0), 10);
        assert_eq!(b.len(), 5, "isolated node 5 not reached");
    }

    #[test]
    fn batch_ball_unions_without_duplicates() {
        let g = path5();
        let mut b = batch_ball_nodes(&g, &[NodeId(0), NodeId(4)], 1);
        b.sort_unstable();
        assert_eq!(b, vec![NodeId(0), NodeId(1), NodeId(3), NodeId(4)]);
    }

    #[test]
    fn batch_ball_skips_unknown_centers() {
        let g = path5();
        let b = batch_ball_nodes(&g, &[NodeId(99)], 2);
        assert!(b.is_empty());
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = path5();
        let n = induced_subgraph(&g, &[NodeId(1), NodeId(2), NodeId(4)]);
        assert_eq!(n.graph.node_count(), 3);
        // only 1→2 survives; 2→3 and 3→4 have an endpoint outside
        assert_eq!(n.graph.edge_count(), 1);
        let l1 = n.to_local(NodeId(1)).unwrap();
        let l2 = n.to_local(NodeId(2)).unwrap();
        assert!(n.graph.contains_edge(l1, l2));
        assert_eq!(n.to_host(l1), NodeId(1));
        assert_eq!(n.to_local(NodeId(3)), None);
    }

    #[test]
    fn d_neighbor_matches_manual_extraction() {
        let g = path5();
        let n = d_neighbor(&g, NodeId(2), 1);
        assert_eq!(n.graph.node_count(), 3);
        assert_eq!(n.graph.edge_count(), 2); // 1→2 and 2→3
    }

    #[test]
    fn labels_preserved_in_subgraph() {
        let g = graph_from(&[7, 8], &[(0, 1)]);
        let n = induced_subgraph(&g, &[NodeId(1)]);
        assert_eq!(n.graph.label(NodeId(0)), crate::label::Label(8));
    }
}
