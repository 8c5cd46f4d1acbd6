//! The markings `pmarkᵉ` — the auxiliary structure of IncRPQ (Section 5.2).
//!
//! For every source `u`, node `v` and NFA state `s` reached in the product
//! graph, `v.pmarkᵉ(u)[s]` records:
//!
//! * `dist` — a well-founded *rank*: 0 at a seed `(u, u, s)`, `s` a start
//!   state of `l(u)`, and above the rank of some support otherwise. A build
//!   sets it to the BFS distance from the source configuration of `u` to
//!   `(v, s)` in the intersection graph; an `apply` keeps it for as long as
//!   the marking keeps a support, so it may exceed the distance. The answer
//!   depends only on which markings exist, never on their ranks.
//! * `mpre` — the supports: *every* marking `(u, p, s′)` with `p → v` in
//!   `G`, `s ∈ δ(s′, l(v))` and a lower rank, and nothing else. A non-seed
//!   marking has at least one.
//!
//! Following supports, ranks fall strictly down to a seed, so every
//! marking is reachable; and because `mpre` is complete, an emptied `mpre`
//! proves that no lower-ranked support is left — `identAff` flags exactly
//! those markings. `verify_against_batch` holds every marking to this
//! promise.
//!
//! The paper additionally stores `cpre` (all marked predecessors); we
//! derive candidate predecessors by scanning in-neighbours through the
//! NFA's inverse transition table instead, which costs a degree factor —
//! a deliberate deviation that saves the `cpre` sets' memory and upkeep.
//!
//! An entry also carries IncRPQ's per-`apply` `affected` flag, so that the
//! lookup which fetches a marking answers "is it pending?" as well — there
//! is no side set. `identAff` sets it, and so does the creation of a
//! marking inside an `apply`; the last phase of the same `apply` clears it
//! on every survivor (the rest are removed), and between two `apply` calls
//! it is false everywhere; `verify_against_batch` checks that.

use igc_graph::{FxHashMap, NodeId};
use igc_nfa::StateId;

/// "No rank": a flagged marking no unflagged marking supports yet.
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

/// One marking: its rank and all of its lower-ranked supports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarkEntry {
    /// The rank: 0 at a seed, above some support's rank otherwise (the BFS
    /// distance after a build; never lowered while the marking is valid).
    pub dist: u32,
    /// Every in-neighbour marking `(node, state)` of the same source that
    /// ranks lower and steps here by δ.
    pub mpre: Vec<(NodeId, StateId)>,
    /// Pending in the `apply` in progress: flagged by `identAff`, or
    /// created by this `apply`. A pending marking takes the least rank it
    /// is offered; a valid one keeps its rank. False outside an `apply`.
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
    /// Markings `identAff` flagged: their last lower-ranked support went
    /// with a deleted edge or with another flagged marking.
    pub flagged: u64,
    /// Markings the settle queue ranked: flagged ones that are still
    /// reachable, and new ones. A marking that stays valid is never
    /// re-settled, however close an insertion brings it.
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

    /// Iterate every marking, node by node.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (MarkKey, &MarkEntry)> + '_ {
        self.per_node.iter().enumerate().flat_map(|(n, m)| {
            let node = NodeId::from_index(n);
            m.iter().map(move |(&(source, state), e)| {
                (
                    MarkKey {
                        source,
                        node,
                        state,
                    },
                    e,
                )
            })
        })
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
