//! The keyword-distance lists `kdist(v)` (Section 4.2).
//!
//! For every node `v` and keyword `ki`, `kdist(v)[ki]` holds the shortest
//! hop distance from `v` to a node labelled `ki` (values beyond the bound
//! are not maintained — the lists are "partially updated for matches within
//! bound b") and the successor `next` on one such shortest path. Ties are
//! broken toward the smallest successor id, so batch and incremental runs
//! are comparable.

use crate::query::KwsQuery;
use igc_graph::traversal;
use igc_graph::{DynamicGraph, NodeId};

/// Distance value for "no `ki`-node within the bound" (the paper's ⊥).
pub const UNREACHED: u32 = u32::MAX;

/// One `kdist` entry: `(dist, next)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KdistEntry {
    /// Shortest distance to a node matching the keyword, or [`UNREACHED`].
    pub dist: u32,
    /// The next node on the selected shortest path (`None` when the node
    /// itself matches, or when unreached).
    pub next: Option<NodeId>,
}

impl KdistEntry {
    /// The ⊥ entry.
    pub const BOTTOM: KdistEntry = KdistEntry {
        dist: UNREACHED,
        next: None,
    };
}

/// Keyword-distance lists for all nodes.
#[derive(Debug, Clone)]
pub struct Kdist {
    /// Row-major with stride `m`: `entries[v * m + i]` is `kdist(v)[ki]`
    /// for the i-th keyword of the query. One allocation for all nodes, so
    /// the copy a pinned `apply` makes is one `memcpy`, and a lookup is one
    /// indexed load.
    entries: Vec<KdistEntry>,
    /// Number of keywords: the row length.
    m: usize,
    /// Number of rows, kept apart because `m` may be 0.
    n: usize,
}

impl Kdist {
    /// All-⊥ lists for `n` nodes and `m` keywords.
    pub fn bottom(n: usize, m: usize) -> Self {
        Kdist {
            entries: vec![KdistEntry::BOTTOM; n * m],
            m,
            n,
        }
    }

    /// Number of keywords `m`.
    pub fn keyword_count(&self) -> usize {
        self.m
    }

    /// Number of tracked nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Grow to `n` nodes (new nodes start at ⊥).
    pub fn grow(&mut self, n: usize) {
        if self.n < n {
            self.entries.resize(n * self.m, KdistEntry::BOTTOM);
            self.n = n;
        }
    }

    /// `kdist(v)[ki]`.
    #[inline]
    pub fn get(&self, v: NodeId, ki: usize) -> KdistEntry {
        debug_assert!(ki < self.m);
        self.entries[v.index() * self.m + ki]
    }

    /// Overwrite `kdist(v)[ki]`.
    #[inline]
    pub fn set(&mut self, v: NodeId, ki: usize, e: KdistEntry) {
        debug_assert!(ki < self.m);
        self.entries[v.index() * self.m + ki] = e;
    }

    /// The full list for `v`.
    #[inline]
    pub fn list(&self, v: NodeId) -> &[KdistEntry] {
        &self.entries[v.index() * self.m..][..self.m]
    }

    /// True when all `m` distances of `v` are within `bound` — `v` roots a
    /// match.
    pub fn qualifies(&self, v: NodeId, bound: u32) -> bool {
        self.list(v).iter().all(|e| e.dist <= bound)
    }

    /// The distance vector of `v` (for answer signatures).
    pub fn dists(&self, v: NodeId) -> Vec<u32> {
        self.list(v).iter().map(|e| e.dist).collect()
    }

    /// Follow `next` pointers from `root` for keyword `ki`, producing the
    /// path to the matched node. Panics on ⊥ or a broken chain (those are
    /// bugs; the validity of chains is an invariant).
    pub fn path(&self, root: NodeId, ki: usize) -> Vec<NodeId> {
        let mut path = vec![root];
        let mut cur = root;
        loop {
            let e = self.get(cur, ki);
            assert_ne!(e.dist, UNREACHED, "path() called on an unreached entry");
            match e.next {
                None => return path,
                Some(n) => {
                    assert!(path.len() <= self.n, "next-pointer cycle at {cur:?}");
                    path.push(n);
                    cur = n;
                }
            }
        }
    }

    /// Verify the lists against ground truth computed independently:
    /// each `dist` equals the true bounded shortest distance, and each
    /// `next` chain steps along existing edges with `dist` decreasing by 1
    /// toward a matching node. O(m·(V+E)·b) — test/debug use only.
    pub fn check_invariants(&self, g: &DynamicGraph, q: &KwsQuery) -> Result<(), String> {
        let truth = oracle_distances(g, q);
        for v in g.nodes() {
            #[allow(clippy::needless_range_loop)] // ki indexes two parallel structures
            for ki in 0..self.m {
                let e = self.get(v, ki);
                let t = truth[ki][v.index()];
                if e.dist != t {
                    return Err(format!(
                        "kdist({v:?})[{ki}].dist = {} but oracle says {t}",
                        e.dist
                    ));
                }
                if e.dist == UNREACHED {
                    if e.next.is_some() {
                        return Err(format!("unreached entry with next at {v:?}[{ki}]"));
                    }
                    continue;
                }
                match e.next {
                    None => {
                        if g.label(v) != q.keywords[ki] || e.dist != 0 {
                            return Err(format!("terminal entry invalid at {v:?}[{ki}]"));
                        }
                    }
                    Some(n) => {
                        if !g.contains_edge(v, n) {
                            return Err(format!("next edge missing at {v:?}[{ki}]"));
                        }
                        let en = self.get(n, ki);
                        if en.dist != e.dist - 1 {
                            return Err(format!("next not on a shortest path at {v:?}[{ki}]"));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Ground-truth bounded keyword distances, computed by one reverse BFS per
/// keyword with an implementation independent from `batch.rs` (it reuses the
/// generic traversal helpers). `truth[ki][v]` is the distance, `UNREACHED`
/// beyond the bound.
pub fn oracle_distances(g: &DynamicGraph, q: &KwsQuery) -> Vec<Vec<u32>> {
    let mut out = Vec::with_capacity(q.m());
    for &k in &q.keywords {
        let mut dist = vec![UNREACHED; g.node_count()];
        let mut queue = std::collections::VecDeque::new();
        for &p in g.nodes_with_label(k) {
            dist[p.index()] = 0;
            queue.push_back(p);
        }
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()];
            if du == q.bound {
                continue;
            }
            for &w in g.predecessors(u) {
                if dist[w.index()] == UNREACHED {
                    dist[w.index()] = du + 1;
                    queue.push_back(w);
                }
            }
        }
        out.push(dist);
    }
    // Sanity cross-check on a few nodes against the single-pair helper.
    debug_assert!({
        let ok = g.nodes().take(8).all(|v| {
            (0..q.m()).all(|ki| {
                let t = out[ki][v.index()];
                let best = g
                    .nodes_with_label(q.keywords[ki])
                    .iter()
                    .map(|&p| traversal::dist(g, v, p))
                    .min()
                    .unwrap_or(traversal::INF);
                if best > q.bound {
                    t == UNREACHED
                } else {
                    t == best
                }
            })
        });
        ok
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use igc_graph::graph::graph_from;
    use igc_graph::Label;

    #[test]
    fn bottom_and_grow() {
        let mut k = Kdist::bottom(2, 3);
        assert_eq!(k.get(NodeId(1), 2), KdistEntry::BOTTOM);
        k.grow(5);
        assert_eq!(k.node_count(), 5);
        assert_eq!(k.get(NodeId(4), 0), KdistEntry::BOTTOM);
    }

    #[test]
    fn rows_stay_apart_for_any_keyword_count() {
        for m in [0, 1, 3] {
            let mut k = Kdist::bottom(2, m);
            k.grow(4);
            k.grow(3);
            assert_eq!((k.node_count(), k.keyword_count()), (4, m));
            let entry = |v: u32, ki: usize| KdistEntry {
                dist: v * 10 + ki as u32 + 1,
                next: Some(NodeId(v)),
            };
            for v in 0..4 {
                for ki in 0..m {
                    k.set(NodeId(v), ki, entry(v, ki));
                }
            }
            for v in 0..4 {
                let row: Vec<KdistEntry> = (0..m).map(|ki| entry(v, ki)).collect();
                assert_eq!(k.list(NodeId(v)), row);
                assert_eq!(k.dists(NodeId(v)).len(), m);
                // the row's largest distance is its last keyword's
                let worst = v * 10 + m as u32;
                assert!(k.qualifies(NodeId(v), worst));
                assert_eq!(k.qualifies(NodeId(v), worst.saturating_sub(1)), m == 0);
            }
        }
    }

    #[test]
    fn qualifies_requires_all_keywords() {
        let mut k = Kdist::bottom(1, 2);
        k.set(
            NodeId(0),
            0,
            KdistEntry {
                dist: 1,
                next: None,
            },
        );
        assert!(!k.qualifies(NodeId(0), 2));
        k.set(
            NodeId(0),
            1,
            KdistEntry {
                dist: 2,
                next: None,
            },
        );
        assert!(k.qualifies(NodeId(0), 2));
        assert!(!k.qualifies(NodeId(0), 1));
    }

    #[test]
    fn oracle_respects_bound() {
        // 0 → 1 → 2(k); bound 1: node 0 unreached, node 1 at distance 1.
        let g = graph_from(&[0, 0, 9], &[(0, 1), (1, 2)]);
        let q = KwsQuery::new(vec![Label(9)], 1);
        let t = oracle_distances(&g, &q);
        assert_eq!(t[0][0], UNREACHED);
        assert_eq!(t[0][1], 1);
        assert_eq!(t[0][2], 0);
    }

    #[test]
    fn path_follows_next_chain() {
        let mut k = Kdist::bottom(3, 1);
        k.set(
            NodeId(0),
            0,
            KdistEntry {
                dist: 2,
                next: Some(NodeId(1)),
            },
        );
        k.set(
            NodeId(1),
            0,
            KdistEntry {
                dist: 1,
                next: Some(NodeId(2)),
            },
        );
        k.set(
            NodeId(2),
            0,
            KdistEntry {
                dist: 0,
                next: None,
            },
        );
        assert_eq!(k.path(NodeId(0), 0), vec![NodeId(0), NodeId(1), NodeId(2)]);
    }
}
