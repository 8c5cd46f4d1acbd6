//! The markings `pmarkᵉ` — the auxiliary structure of IncRPQ (Section 5.2).
//!
//! For every source `u`, node `v` and NFA state `s` reached in the product
//! graph, `v.pmarkᵉ(u)[s]` records:
//!
//! * `dist` — the BFS distance from the source configuration of `u` to
//!   `(v, s)` in the intersection graph, and
//! * `mpre` — the predecessors `(v′, s′)` on shortest paths.
//!
//! The paper additionally stores `cpre` (all marked predecessors); we
//! derive candidate predecessors by scanning in-neighbours through the
//! NFA's inverse transition table instead, which costs a degree factor —
//! a deliberate deviation that saves the `cpre` sets' memory and upkeep.
//! `mpre` is maintained as a *subset* of the true shortest-path
//! predecessors (it may lose entries that are re-validated later); this is
//! sound because it is used only as a
//! conservative trigger — an empty `mpre` marks the entry affected, and the
//! potential recomputation scans all unaffected predecessors regardless.
//!
//! An entry also carries IncRPQ's per-`apply` `affected` flag, so that the
//! lookup which fetches a marking answers "is it affected?" as well — there
//! is no side set. `identAff` sets it, the last phase of the same `apply`
//! clears it on every survivor (the rest are removed), and between two
//! `apply` calls it is false everywhere; `verify_against_batch` checks that.

use igc_graph::{FxHashMap, NodeId};
use igc_nfa::StateId;

/// "No path" distance.
pub const INF_DIST: u32 = u32::MAX;

/// Identifies one marking: `(source, node, state)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MarkKey {
    /// The source node `u` of the product traversal.
    pub source: NodeId,
    /// The graph node `v` carrying the marking.
    pub node: NodeId,
    /// The NFA state `s`.
    pub state: StateId,
}

/// One marking: distance and shortest-path predecessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarkEntry {
    /// Shortest product-graph distance from the source configuration.
    pub dist: u32,
    /// Known shortest-path predecessors `(node, state)` for the same source.
    pub mpre: Vec<(NodeId, StateId)>,
    /// Flagged by the `identAff` phase of the `apply` in progress; false
    /// outside one.
    pub affected: bool,
}

impl MarkEntry {
    /// An unaffected marking.
    pub fn new(dist: u32, mpre: Vec<(NodeId, StateId)>) -> Self {
        MarkEntry {
            dist,
            mpre,
            affected: false,
        }
    }
}

/// Per-`apply` marking counters — what one batch did to the auxiliary
/// structure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RpqDelta {
    /// Markings `identAff` flagged: their last known shortest predecessor
    /// went with a deleted edge or with another flagged marking.
    pub flagged: u64,
    /// Markings whose distance the settle queue fixed: flagged ones that
    /// are still reachable, ones an insertion brought closer, new ones.
    pub resettled: u64,
    /// Markings created (a configuration newly reached).
    pub created: u64,
    /// Flagged markings that never settled and were removed.
    pub removed: u64,
}

/// All markings, indexed node-major so that edge updates can enumerate the
/// markings of an endpoint in output-linear time.
#[derive(Debug, Clone, Default)]
pub struct Markings {
    /// `per_node[v]` maps `(source, state)` to the entry of `(source,v,state)`.
    per_node: Vec<FxHashMap<(NodeId, StateId), MarkEntry>>,
}

impl Markings {
    /// Empty markings over `n` nodes.
    pub fn new(n: usize) -> Self {
        Markings {
            per_node: vec![FxHashMap::default(); n],
        }
    }

    /// Grow to `n` nodes.
    pub fn grow(&mut self, n: usize) {
        if self.per_node.len() < n {
            self.per_node.resize(n, FxHashMap::default());
        }
    }

    /// Number of tracked nodes.
    pub fn node_count(&self) -> usize {
        self.per_node.len()
    }

    /// Total number of markings (the size of the auxiliary structure).
    pub fn len(&self) -> usize {
        self.per_node.iter().map(|m| m.len()).sum()
    }

    /// True when no markings exist.
    pub fn is_empty(&self) -> bool {
        self.per_node.iter().all(|m| m.is_empty())
    }

    /// Look up the entry of `key`.
    pub fn get(&self, key: MarkKey) -> Option<&MarkEntry> {
        self.per_node[key.node.index()].get(&(key.source, key.state))
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, key: MarkKey) -> Option<&mut MarkEntry> {
        self.per_node[key.node.index()].get_mut(&(key.source, key.state))
    }

    /// The distance of `key`, or [`INF_DIST`] when unmarked.
    pub fn dist(&self, key: MarkKey) -> u32 {
        self.get(key).map_or(INF_DIST, |e| e.dist)
    }

    /// Insert or replace an entry.
    pub fn set(&mut self, key: MarkKey, entry: MarkEntry) {
        self.per_node[key.node.index()].insert((key.source, key.state), entry);
    }

    /// Remove an entry; returns it when present.
    pub fn remove(&mut self, key: MarkKey) -> Option<MarkEntry> {
        self.per_node[key.node.index()].remove(&(key.source, key.state))
    }

    /// Iterate the `(source, state, entry)` markings of one node.
    pub fn at_node(&self, v: NodeId) -> impl Iterator<Item = (NodeId, StateId, &MarkEntry)> + '_ {
        self.per_node[v.index()]
            .iter()
            .map(|(&(u, s), e)| (u, s, e))
    }

    /// True when `v` carries no markings — the hot-path guard for updates
    /// touching unmarked regions.
    #[inline]
    pub fn none_at_node(&self, v: NodeId) -> bool {
        self.per_node[v.index()].is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(u: u32, v: u32, s: StateId) -> MarkKey {
        MarkKey {
            source: NodeId(u),
            node: NodeId(v),
            state: s,
        }
    }

    #[test]
    fn set_get_remove() {
        let mut m = Markings::new(3);
        m.set(key(0, 1, 2), MarkEntry::new(4, vec![(NodeId(0), 1)]));
        assert_eq!(m.dist(key(0, 1, 2)), 4);
        assert_eq!(m.dist(key(0, 1, 3)), INF_DIST);
        assert_eq!(m.len(), 1);
        let e = m.remove(key(0, 1, 2)).unwrap();
        assert_eq!(e.dist, 4);
        assert!(m.is_empty());
    }

    #[test]
    fn at_node_iterates_only_that_node() {
        let mut m = Markings::new(2);
        m.set(key(0, 0, 1), MarkEntry::new(0, vec![]));
        m.set(key(5, 0, 2), MarkEntry::new(3, vec![]));
        m.set(key(0, 1, 1), MarkEntry::new(1, vec![]));
        assert_eq!(m.at_node(NodeId(0)).count(), 2);
        assert_eq!(m.at_node(NodeId(1)).count(), 1);
    }

    #[test]
    fn grow_preserves_entries() {
        let mut m = Markings::new(1);
        m.set(key(0, 0, 0), MarkEntry::new(7, vec![]));
        m.grow(5);
        assert_eq!(m.node_count(), 5);
        assert_eq!(m.dist(key(0, 0, 0)), 7);
    }
}
