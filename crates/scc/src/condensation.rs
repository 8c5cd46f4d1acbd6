//! The contracted graph `Gc` (Section 5.3): one node per scc, edges with
//! multiplicity counters, and topological ranks.
//!
//! The rank invariant the paper capitalises on: **`r(a) > r(b)` for every
//! condensation edge `(a, b)`** — ranks strictly decrease along edges
//! (Tarjan emits sinks first, so emission index works as an initial rank).
//!
//! Ranks are stored as gapped `u64` values (initial spacing [`RANK_GAP`]) so
//! that a split scc can place its sub-components inside the gap left at the
//! old component's rank; when a gap is exhausted a global renumbering
//! restores the spacing (amortised rare; counted in the work statistics).

use igc_graph::{FxHashMap, FxHashSet, NodeId};
use std::collections::BTreeSet;

/// Identifier of a condensation node (an scc). Fresh ids are never reused.
pub type SccId = u32;

/// Initial spacing between consecutive ranks.
pub const RANK_GAP: u64 = 1 << 20;

/// Reserved transient rank: an scc created with this rank is "unranked" and
/// must receive a real rank (via [`Condensation::set_rank`]) before the next
/// invariant check. Real ranks are always ≥ 1.
pub const PLACEHOLDER_RANK: u64 = 0;

/// The contracted graph `Gc` plus per-scc membership and ranks.
#[derive(Debug, Clone, Default)]
pub struct Condensation {
    /// node → scc id; grows as nodes appear.
    scc_of: Vec<SccId>,
    /// scc id → member nodes.
    members: FxHashMap<SccId, Vec<NodeId>>,
    /// node → its index in its scc's member list, so a split removes the
    /// nodes it carves without scanning the ones that stay.
    pos: Vec<u32>,
    /// Outgoing condensation edges with multi-edge counters.
    out: FxHashMap<SccId, FxHashMap<SccId, u32>>,
    /// Incoming condensation edges with counters (mirror of `out`).
    inn: FxHashMap<SccId, FxHashMap<SccId, u32>>,
    /// Topological rank `r(·)`: strictly decreasing along edges, unique.
    rank: FxHashMap<SccId, u64>,
    /// All ranks currently in use — supports gap queries for splits and
    /// enforces global uniqueness (ties would break the reorder logic).
    used_ranks: BTreeSet<u64>,
    next_id: SccId,
}

impl Condensation {
    /// An empty condensation.
    pub fn new() -> Self {
        Self::default()
    }

    /// The scc containing node `v`. Panics when `v` is untracked.
    #[inline]
    pub fn scc_of(&self, v: NodeId) -> SccId {
        self.scc_of[v.index()]
    }

    /// True when `v` is tracked.
    pub fn knows(&self, v: NodeId) -> bool {
        v.index() < self.scc_of.len() && self.scc_of[v.index()] != SccId::MAX
    }

    /// Number of tracked nodes (node ids `0..node_count()`).
    pub fn node_count(&self) -> usize {
        self.scc_of.len()
    }

    /// Member nodes of an scc.
    pub fn members(&self, id: SccId) -> &[NodeId] {
        self.members.get(&id).map_or(&[], |m| m.as_slice())
    }

    /// The rank `r(id)`.
    pub fn rank(&self, id: SccId) -> u64 {
        self.rank[&id]
    }

    /// Number of sccs.
    pub fn scc_count(&self) -> usize {
        self.members.len()
    }

    /// All scc ids (unordered).
    pub fn scc_ids(&self) -> impl Iterator<Item = SccId> + '_ {
        self.members.keys().copied()
    }

    /// Outgoing condensation neighbours of `id` (with counters).
    pub fn out_edges(&self, id: SccId) -> impl Iterator<Item = (SccId, u32)> + '_ {
        self.out
            .get(&id)
            .into_iter()
            .flat_map(|m| m.iter().map(|(&t, &c)| (t, c)))
    }

    /// Incoming condensation neighbours of `id` (with counters).
    pub fn in_edges(&self, id: SccId) -> impl Iterator<Item = (SccId, u32)> + '_ {
        self.inn
            .get(&id)
            .into_iter()
            .flat_map(|m| m.iter().map(|(&s, &c)| (s, c)))
    }

    /// Create a new scc with the given members and rank; members' `scc_of`
    /// entries are updated. Returns the fresh id. Pass [`PLACEHOLDER_RANK`]
    /// when the real rank is assigned afterwards by rank reallocation.
    pub fn create_scc(&mut self, nodes: Vec<NodeId>, rank: u64) -> SccId {
        let id = self.next_id;
        self.next_id += 1;
        for (i, &v) in nodes.iter().enumerate() {
            if self.scc_of.len() <= v.index() {
                self.scc_of.resize(v.index() + 1, SccId::MAX);
                self.pos.resize(v.index() + 1, 0);
            }
            self.scc_of[v.index()] = id;
            self.pos[v.index()] = i as u32;
        }
        self.members.insert(id, nodes);
        if rank != PLACEHOLDER_RANK {
            assert!(self.used_ranks.insert(rank), "duplicate rank {rank}");
        }
        self.rank.insert(id, rank);
        self.out.insert(id, FxHashMap::default());
        self.inn.insert(id, FxHashMap::default());
        id
    }

    /// Largest used rank strictly below `r` (excluding `r` itself).
    pub fn rank_below(&self, r: u64) -> Option<u64> {
        self.used_ranks.range(..r).next_back().copied()
    }

    /// Smallest used rank strictly above `r`.
    pub fn rank_above(&self, r: u64) -> Option<u64> {
        self.used_ranks.range(r + 1..).next().copied()
    }

    /// Release an scc's rank back to the pool, leaving it unranked
    /// ([`PLACEHOLDER_RANK`]). Returns the released rank. Two-phase rank
    /// reallocation takes every affected rank first and reassigns after.
    pub fn take_rank(&mut self, id: SccId) -> u64 {
        let r = self.rank.insert(id, PLACEHOLDER_RANK).expect("unknown scc");
        if r != PLACEHOLDER_RANK {
            self.used_ranks.remove(&r);
        }
        r
    }

    /// Increment the counter of condensation edge `(a, b)`; `a ≠ b`.
    pub fn add_edge(&mut self, a: SccId, b: SccId) {
        debug_assert_ne!(a, b, "condensation edges are never self-loops");
        *self.out.entry(a).or_default().entry(b).or_insert(0) += 1;
        *self.inn.entry(b).or_default().entry(a).or_insert(0) += 1;
    }

    /// Add `count` parallel edges `(a, b)` at once — used when rewiring
    /// aggregated edges after a merge or split.
    pub fn add_edge_count(&mut self, a: SccId, b: SccId, count: u32) {
        debug_assert_ne!(a, b);
        if count == 0 {
            return;
        }
        *self.out.entry(a).or_default().entry(b).or_insert(0) += count;
        *self.inn.entry(b).or_default().entry(a).or_insert(0) += count;
    }

    /// Decrement the counter of `(a, b)`, removing the edge at zero.
    /// Panics when the edge is absent — that indicates desynchronisation.
    pub fn remove_edge(&mut self, a: SccId, b: SccId) {
        let c = self
            .out
            .get_mut(&a)
            .and_then(|m| m.get_mut(&b))
            .unwrap_or_else(|| panic!("condensation edge {a}→{b} missing"));
        *c -= 1;
        if *c == 0 {
            self.out.get_mut(&a).unwrap().remove(&b);
        }
        let c = self.inn.get_mut(&b).unwrap().get_mut(&a).unwrap();
        *c -= 1;
        if *c == 0 {
            self.inn.get_mut(&b).unwrap().remove(&a);
        }
    }

    /// Counter of edge `(a, b)` (0 when absent).
    pub fn edge_count(&self, a: SccId, b: SccId) -> u32 {
        self.out
            .get(&a)
            .and_then(|m| m.get(&b))
            .copied()
            .unwrap_or(0)
    }

    /// Remove an scc entirely (members, rank and *all incident edges*);
    /// the returned nodes are left unmapped until the caller re-homes them.
    pub fn dissolve(&mut self, id: SccId) -> Vec<NodeId> {
        let nodes = self.members.remove(&id).unwrap_or_default();
        if let Some(r) = self.rank.remove(&id) {
            self.used_ranks.remove(&r);
        }
        if let Some(outs) = self.out.remove(&id) {
            for t in outs.keys() {
                if let Some(m) = self.inn.get_mut(t) {
                    m.remove(&id);
                }
            }
        }
        if let Some(inns) = self.inn.remove(&id) {
            for s in inns.keys() {
                if let Some(m) = self.out.get_mut(s) {
                    m.remove(&id);
                }
            }
        }
        nodes
    }

    /// Merge `src` into `dst` in place: `src`'s nodes join `dst`'s member
    /// list, its edge counters to and from third components move onto
    /// `dst`, and edges between the two become internal and vanish. `dst`
    /// keeps its id, rank and storage, so the cost is `src`'s members plus
    /// `src`'s condensation degree — independent of `dst`'s size. Returns
    /// that cost (nodes plus edge counters moved) for work accounting.
    pub fn absorb(&mut self, dst: SccId, src: SccId) -> usize {
        debug_assert_ne!(dst, src);
        let outs: Vec<(SccId, u32)> = self.out_edges(src).filter(|&(t, _)| t != dst).collect();
        let inns: Vec<(SccId, u32)> = self.in_edges(src).filter(|&(s, _)| s != dst).collect();
        let nodes = self.dissolve(src);
        let into = self.members.get_mut(&dst).expect("absorbing scc exists");
        for (i, &v) in nodes.iter().enumerate() {
            self.scc_of[v.index()] = dst;
            self.pos[v.index()] = (into.len() + i) as u32;
        }
        let moved = nodes.len() + outs.len() + inns.len();
        into.extend(nodes);
        for (t, c) in outs {
            self.add_edge_count(dst, t, c);
        }
        for (s, c) in inns {
            self.add_edge_count(s, dst, c);
        }
        moved
    }

    /// Drop `nodes` (members of `id`, each once) from `id`'s member list at
    /// a cost of `|nodes|`, whatever `id`'s size: each is swapped with the
    /// last member. `id` keeps its storage, rank and edges, and the dropped
    /// nodes stay mapped to it until the caller re-homes them with
    /// [`create_scc`](Self::create_scc) — how a split carves pieces off a
    /// component that survives under its own id.
    pub fn remove_members(&mut self, id: SccId, nodes: &[NodeId]) {
        let members = self.members.get_mut(&id).expect("unknown scc");
        for &v in nodes {
            let i = self.pos[v.index()] as usize;
            debug_assert_eq!(members[i], v, "{v:?} is no member of {id}");
            members.swap_remove(i);
            if let Some(&moved) = members.get(i) {
                self.pos[moved.index()] = i as u32;
            }
        }
    }

    /// Give `id` the member list `nodes` (already mapped to `id`) and return
    /// the one it had — how a split hands the old id to a carved part that
    /// outgrew what stayed.
    pub fn swap_members(&mut self, id: SccId, nodes: Vec<NodeId>) -> Vec<NodeId> {
        for (i, &v) in nodes.iter().enumerate() {
            debug_assert_eq!(self.scc_of[v.index()], id);
            self.pos[v.index()] = i as u32;
        }
        self.members.insert(id, nodes).expect("unknown scc")
    }

    /// Overwrite the rank of `id` with a real (non-placeholder) rank.
    pub fn set_rank(&mut self, id: SccId, rank: u64) {
        assert_ne!(rank, PLACEHOLDER_RANK, "cannot assign the placeholder");
        let old = self.rank.insert(id, rank).expect("unknown scc");
        if old != PLACEHOLDER_RANK {
            self.used_ranks.remove(&old);
        }
        assert!(self.used_ranks.insert(rank), "duplicate rank {rank}");
    }

    /// The next fresh rank for a node with no constraints yet (above all
    /// existing ranks, gapped).
    pub fn fresh_top_rank(&self) -> u64 {
        self.used_ranks.last().copied().unwrap_or(0) + RANK_GAP
    }

    /// Verify the rank invariant over the whole condensation — O(|Gc|),
    /// used by tests and debug assertions only.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen_ranks: FxHashSet<u64> = FxHashSet::default();
        for (&id, &r) in &self.rank {
            if r == PLACEHOLDER_RANK {
                return Err(format!("scc {id} left unranked"));
            }
            if !seen_ranks.insert(r) {
                return Err(format!("duplicate rank {r} (scc {id})"));
            }
            if !self.used_ranks.contains(&r) {
                return Err(format!("rank {r} missing from used set (scc {id})"));
            }
        }
        if seen_ranks.len() != self.used_ranks.len() {
            return Err("used-rank set desynchronised".to_owned());
        }
        for (&a, outs) in &self.out {
            for (&b, &c) in outs {
                if c == 0 {
                    return Err(format!("zero-count edge {a}→{b}"));
                }
                if self.rank[&a] <= self.rank[&b] {
                    return Err(format!(
                        "rank invariant violated: r({a})={} ≤ r({b})={}",
                        self.rank[&a], self.rank[&b]
                    ));
                }
                if self.inn.get(&b).and_then(|m| m.get(&a)) != Some(&c) {
                    return Err(format!("in/out counter desync on {a}→{b}"));
                }
            }
        }
        for (&id, m) in &self.members {
            for (i, &v) in m.iter().enumerate() {
                if self.scc_of(v) != id || self.pos[v.index()] as usize != i {
                    return Err(format!("member desync: {v:?} not mapped to {id} at {i}"));
                }
            }
        }
        Ok(())
    }

    /// Globally renumber ranks with fresh gaps, preserving the current rank
    /// order. Returns the number of sccs touched (all of them) so callers
    /// can account the work.
    pub fn renumber_ranks(&mut self) -> usize {
        let mut ids: Vec<SccId> = self.rank.keys().copied().collect();
        ids.sort_unstable_by_key(|id| self.rank[id]);
        self.used_ranks.clear();
        for (i, id) in ids.iter().enumerate() {
            let r = (i as u64 + 1) * RANK_GAP;
            self.rank.insert(*id, r);
            self.used_ranks.insert(r);
        }
        ids.len()
    }

    /// All member lists in canonical form (sorted members, sorted list) —
    /// the comparison format shared with [`crate::tarjan::SccResult`].
    pub fn canonical_components(&self) -> Vec<Vec<NodeId>> {
        let mut comps: Vec<Vec<NodeId>> = self
            .members
            .values()
            .map(|m| {
                let mut m = m.clone();
                m.sort_unstable();
                m
            })
            .collect();
        comps.sort();
        comps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_lookup() {
        let mut c = Condensation::new();
        let a = c.create_scc(vec![NodeId(0), NodeId(1)], 2 * RANK_GAP);
        let b = c.create_scc(vec![NodeId(2)], RANK_GAP);
        assert_eq!(c.scc_of(NodeId(0)), a);
        assert_eq!(c.scc_of(NodeId(2)), b);
        assert_eq!(c.scc_count(), 2);
        assert_eq!(c.members(a), &[NodeId(0), NodeId(1)]);
        assert!(c.check_invariants().is_ok());
    }

    #[test]
    fn edge_counters_aggregate() {
        let mut c = Condensation::new();
        let a = c.create_scc(vec![NodeId(0)], 2 * RANK_GAP);
        let b = c.create_scc(vec![NodeId(1)], RANK_GAP);
        c.add_edge(a, b);
        c.add_edge(a, b);
        assert_eq!(c.edge_count(a, b), 2);
        c.remove_edge(a, b);
        assert_eq!(c.edge_count(a, b), 1);
        c.remove_edge(a, b);
        assert_eq!(c.edge_count(a, b), 0);
        assert!(c.check_invariants().is_ok());
    }

    #[test]
    #[should_panic(expected = "missing")]
    fn removing_absent_edge_panics() {
        let mut c = Condensation::new();
        let a = c.create_scc(vec![NodeId(0)], 2 * RANK_GAP);
        let b = c.create_scc(vec![NodeId(1)], RANK_GAP);
        c.remove_edge(a, b);
    }

    #[test]
    fn dissolve_detaches_edges_both_sides() {
        let mut c = Condensation::new();
        let a = c.create_scc(vec![NodeId(0)], 3 * RANK_GAP);
        let b = c.create_scc(vec![NodeId(1)], 2 * RANK_GAP);
        let d = c.create_scc(vec![NodeId(2)], RANK_GAP);
        c.add_edge(a, b);
        c.add_edge(b, d);
        let nodes = c.dissolve(b);
        assert_eq!(nodes, vec![NodeId(1)]);
        assert_eq!(c.scc_count(), 2);
        assert_eq!(c.edge_count(a, b), 0);
        assert_eq!(c.out_edges(a).count(), 0);
        assert_eq!(c.in_edges(d).count(), 0);
        assert!(c.check_invariants().is_ok());
    }

    #[test]
    fn absorb_moves_nodes_and_outside_edges_only() {
        // a → b → d, a → d twice, e → b; absorbing b into a.
        let mut c = Condensation::new();
        let e = c.create_scc(vec![NodeId(4)], 4 * RANK_GAP);
        let a = c.create_scc(vec![NodeId(0), NodeId(5)], 3 * RANK_GAP);
        let b = c.create_scc(vec![NodeId(1), NodeId(2)], 2 * RANK_GAP);
        let d = c.create_scc(vec![NodeId(3)], RANK_GAP);
        c.add_edge(a, b);
        c.add_edge(b, d);
        c.add_edge_count(a, d, 2);
        c.add_edge(e, b);
        // Two nodes, one out-counter (→ d) and one in-counter (e →).
        assert_eq!(c.absorb(a, b), 4);
        assert_eq!(c.scc_count(), 3);
        assert_eq!(c.members(a), &[NodeId(0), NodeId(5), NodeId(1), NodeId(2)]);
        assert_eq!(c.scc_of(NodeId(2)), a);
        assert_eq!(c.rank(a), 3 * RANK_GAP);
        assert_eq!(c.rank_below(3 * RANK_GAP), Some(RANK_GAP));
        assert_eq!(c.edge_count(a, d), 3);
        assert_eq!(c.edge_count(e, a), 1);
        assert_eq!(c.out_edges(a).count(), 1);
        assert_eq!(c.in_edges(a).count(), 1);
        assert_eq!(c.out_edges(e).count(), 1);
        assert!(c.check_invariants().is_ok());
    }

    #[test]
    fn remove_members_keeps_id_rank_and_edges() {
        let mut c = Condensation::new();
        let a = c.create_scc(vec![NodeId(0), NodeId(1), NodeId(2)], 2 * RANK_GAP);
        let b = c.create_scc(vec![NodeId(3)], RANK_GAP);
        c.add_edge(a, b);
        c.remove_members(a, &[NodeId(1)]);
        let carved = c.create_scc(vec![NodeId(1)], 3 * RANK_GAP);
        assert_eq!(c.members(a), &[NodeId(0), NodeId(2)]);
        assert_eq!(c.scc_of(NodeId(1)), carved);
        assert_eq!(c.rank(a), 2 * RANK_GAP);
        assert_eq!(c.edge_count(a, b), 1);
        assert!(c.check_invariants().is_ok());
    }

    #[test]
    fn remove_and_swap_members_cost_the_nodes_named() {
        let mut c = Condensation::new();
        let a = c.create_scc((0..6).map(NodeId).collect(), RANK_GAP);
        c.remove_members(a, &[NodeId(1), NodeId(5), NodeId(0)]);
        assert_eq!(c.members(a), &[NodeId(3), NodeId(4), NodeId(2)]);
        // The removed nodes are re-homed; the index of the rest is intact.
        let b = c.create_scc(vec![NodeId(0), NodeId(1), NodeId(5)], 2 * RANK_GAP);
        assert!(c.check_invariants().is_ok());
        c.remove_members(a, &[NodeId(3)]);
        let old = c.swap_members(a, vec![NodeId(3)]);
        assert_eq!(old, vec![NodeId(2), NodeId(4)]);
        let d = c.create_scc(old, 3 * RANK_GAP);
        assert_eq!(c.members(a), &[NodeId(3)]);
        assert_eq!((c.scc_of(NodeId(2)), c.scc_of(NodeId(0))), (d, b));
        assert!(c.check_invariants().is_ok());
    }

    #[test]
    fn invariant_detects_rank_violation() {
        let mut c = Condensation::new();
        let a = c.create_scc(vec![NodeId(0)], RANK_GAP);
        let b = c.create_scc(vec![NodeId(1)], 2 * RANK_GAP);
        c.add_edge(a, b); // r(a) < r(b): violation
        assert!(c.check_invariants().is_err());
    }

    #[test]
    fn renumber_preserves_order() {
        let mut c = Condensation::new();
        let a = c.create_scc(vec![NodeId(0)], 17);
        let b = c.create_scc(vec![NodeId(1)], 5);
        let d = c.create_scc(vec![NodeId(2)], 11);
        c.renumber_ranks();
        assert!(c.rank(a) > c.rank(d));
        assert!(c.rank(d) > c.rank(b));
        assert_eq!(c.rank(b), RANK_GAP);
        assert_eq!(c.rank(a), 3 * RANK_GAP);
    }

    #[test]
    fn fresh_top_rank_exceeds_all() {
        let mut c = Condensation::new();
        c.create_scc(vec![NodeId(0)], 5 * RANK_GAP);
        assert!(c.fresh_top_rank() > 5 * RANK_GAP);
    }
}
