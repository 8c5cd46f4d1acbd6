//! The paper's update model: unit edge insertions/deletions and batches.

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::graph::{DynamicGraph, Edge, Slot, Version};
use crate::label::Label;
use crate::node::NodeId;
use std::collections::hash_map::Entry;

/// A unit update to a graph (Section 2.2).
///
/// Insertions may reference nodes that do not exist yet ("possibly with new
/// nodes"); the optional labels say how fresh endpoints are labelled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Update {
    /// `insert (from, to)`.
    Insert {
        /// Source endpoint.
        from: NodeId,
        /// Target endpoint.
        to: NodeId,
        /// Label for `from` when it is a fresh node.
        from_label: Option<Label>,
        /// Label for `to` when it is a fresh node.
        to_label: Option<Label>,
    },
    /// `delete (from, to)`.
    Delete {
        /// Source endpoint.
        from: NodeId,
        /// Target endpoint.
        to: NodeId,
    },
}

impl Update {
    /// An insertion between existing nodes.
    pub fn insert(from: NodeId, to: NodeId) -> Self {
        Update::Insert {
            from,
            to,
            from_label: None,
            to_label: None,
        }
    }

    /// An insertion that may create labelled fresh endpoints.
    ///
    /// Labelling rule: a label applies to *its endpoint only*. When an
    /// endpoint id jumps past the current node count, the intermediate
    /// fresh nodes filling the id gap are created with [`Label::DEFAULT`]
    /// (they are padding, not part of the inserted edge). `None` labels the
    /// endpoint itself [`Label::DEFAULT`] too; labels of already-existing
    /// endpoints are ignored.
    pub fn insert_labeled(
        from: NodeId,
        to: NodeId,
        from_label: Option<Label>,
        to_label: Option<Label>,
    ) -> Self {
        Update::Insert {
            from,
            to,
            from_label,
            to_label,
        }
    }

    /// A deletion.
    pub fn delete(from: NodeId, to: NodeId) -> Self {
        Update::Delete { from, to }
    }

    /// The updated edge `(from, to)`.
    pub fn edge(&self) -> Edge {
        match *self {
            Update::Insert { from, to, .. } | Update::Delete { from, to } => (from, to),
        }
    }

    /// True for insertions.
    pub fn is_insert(&self) -> bool {
        matches!(self, Update::Insert { .. })
    }
}

/// A batch update `ΔG = (ΔG⁺, ΔG⁻)`: a sequence of unit updates.
///
/// The paper assumes w.l.o.g. that no edge is both inserted and deleted in
/// the same batch; [`UpdateBatch::normalized`] enforces this by cancelling
/// such pairs and dropping duplicates, keeping first occurrences.
///
/// Equality and `Debug` read the unit updates alone.
#[derive(Clone, Default)]
pub struct UpdateBatch {
    updates: Vec<Update>,
    /// What [`UpdateBatch::normalize_against`] decided, and against which
    /// graph content; `None` for every other batch. Boxed, so a batch that
    /// was never normalized carries one word for it.
    normalized: Option<Box<Normalized>>,
}

/// A normalized batch's decisions, for [`DynamicGraph::apply_batch`].
#[derive(Clone)]
struct Normalized {
    /// The version of the graph the batch was normalized against.
    version: Version,
    /// Per delete, in batch order: where the membership scan found its edge.
    slots: Vec<Slot>,
}

impl PartialEq for UpdateBatch {
    fn eq(&self, other: &Self) -> bool {
        self.updates == other.updates
    }
}

impl Eq for UpdateBatch {}

impl std::fmt::Debug for UpdateBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpdateBatch")
            .field("updates", &self.updates)
            .finish()
    }
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a sequence of unit updates (kept verbatim; call
    /// [`UpdateBatch::normalized`] to apply the paper's w.l.o.g. assumption).
    pub fn from_updates(updates: Vec<Update>) -> Self {
        UpdateBatch {
            updates,
            normalized: None,
        }
    }

    /// Append a unit update. A normalized batch stops being one: the
    /// graph applies it unit by unit, each unit checked.
    pub fn push(&mut self, u: Update) {
        self.normalized = None;
        self.updates.push(u);
    }

    /// Per delete, where `normalize_against` found its edge — when this
    /// batch was normalized against a graph at `version`.
    pub(crate) fn delete_slots(&self, version: Version) -> Option<&[Slot]> {
        let n = self.normalized.as_ref()?;
        (n.version == version).then_some(n.slots.as_slice())
    }

    /// The unit updates in order.
    pub fn iter(&self) -> impl Iterator<Item = &Update> {
        self.updates.iter()
    }

    /// Number of unit updates, the paper's `|ΔG|`.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// True when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Insertions only (`ΔG⁺`).
    pub fn insertions(&self) -> impl Iterator<Item = &Update> {
        self.updates.iter().filter(|u| u.is_insert())
    }

    /// Deletions only (`ΔG⁻`).
    pub fn deletions(&self) -> impl Iterator<Item = &Update> {
        self.updates.iter().filter(|u| !u.is_insert())
    }

    /// Enforce the paper's assumption: for any edge `e`, the batch contains
    /// at most one of `insert e` / `delete e`, and contains it at most once.
    /// An insert+delete pair of the same edge cancels entirely.
    ///
    /// This is the graph-independent half of normalization; see
    /// [`UpdateBatch::normalize_against`] for the total version that also
    /// drops updates that are no-ops against a concrete graph.
    pub fn normalized(&self) -> UpdateBatch {
        let mut inserted: FxHashSet<Edge> = FxHashSet::default();
        let mut deleted: FxHashSet<Edge> = FxHashSet::default();
        for u in &self.updates {
            let e = u.edge();
            if u.is_insert() {
                inserted.insert(e);
            } else {
                deleted.insert(e);
            }
        }
        let conflict: FxHashSet<Edge> = inserted.intersection(&deleted).copied().collect();
        let mut emitted: FxHashSet<(bool, Edge)> = FxHashSet::default();
        let updates = self
            .updates
            .iter()
            .filter(|u| !conflict.contains(&u.edge()))
            .filter(|u| emitted.insert((u.is_insert(), u.edge())))
            .copied()
            .collect();
        UpdateBatch::from_updates(updates)
    }

    /// Total normalization against a concrete graph, faithful to applying
    /// the batch *in order*: for every edge, only its **last** update in
    /// the batch decides the net effect (so `[delete e, insert e]` nets to
    /// an insertion where [`normalized`]'s order-blind w.l.o.g. pair
    /// cancellation would drop both); net effects that match `g`'s current
    /// state (deleting an absent edge, inserting a present one) are
    /// dropped as no-ops. The result applies the same edge-set change as
    /// the raw batch, contains at most one update per edge, and satisfies
    /// every precondition the incremental algorithms document — for
    /// *arbitrary* input batches. It is what `Engine::commit` runs before
    /// fanning a delta out to views.
    ///
    /// When the net effect is an insertion, the emitted update is the
    /// edge's **first** insert occurrence: sequentially, that is the one
    /// that creates fresh endpoints (and fixes their labels) — later
    /// duplicates are no-ops on existing nodes. Insertions referencing
    /// fresh nodes (ids past `g`'s node count) are kept whenever they are
    /// the edge's net effect: their edge cannot be present yet. One
    /// deliberate deviation from literal sequential application: an
    /// insertion whose net effect is cancelled by a later deletion is
    /// dropped entirely, so fresh nodes it alone referenced are never
    /// materialised (no phantom isolated nodes).
    ///
    /// The result also carries what normalization decided: `g`'s content
    /// version, and for each delete the list and position where the
    /// membership scan found its edge (4 bytes per delete). A later
    /// [`DynamicGraph::apply_batch`] on a graph that still holds exactly
    /// that content reuses them instead of scanning again. They are not
    /// compared by `==`, not printed by `Debug`, not encoded into a log
    /// record, and [`push`](UpdateBatch::push) drops them.
    ///
    /// [`normalized`]: UpdateBatch::normalized
    pub fn normalize_against(&self, g: &DynamicGraph) -> UpdateBatch {
        struct EdgeFate {
            first_insert: Option<Update>,
            last_is_insert: bool,
        }
        // Fates in first-appearance order, the map only says where each
        // edge's fate sits: one probe per unit, none in the emit pass.
        // Almost every unit names its own edge, so both are sized for the
        // batch instead of rehashing up to it.
        let mut at: FxHashMap<Edge, u32> =
            FxHashMap::with_capacity_and_hasher(self.len(), Default::default());
        let mut fates: Vec<(Edge, EdgeFate)> = Vec::with_capacity(self.len());
        for u in &self.updates {
            let e = u.edge();
            match at.entry(e) {
                Entry::Vacant(slot) => {
                    slot.insert(fates.len() as u32);
                    fates.push((
                        e,
                        EdgeFate {
                            first_insert: u.is_insert().then_some(*u),
                            last_is_insert: u.is_insert(),
                        },
                    ));
                }
                Entry::Occupied(slot) => {
                    let f = &mut fates[*slot.get() as usize].1;
                    if u.is_insert() && f.first_insert.is_none() {
                        f.first_insert = Some(*u);
                    }
                    f.last_is_insert = u.is_insert();
                }
            }
        }
        let mut slots = Vec::new();
        let updates = fates
            .into_iter()
            // Net effect per edge: present iff its last update inserts.
            .filter_map(|(e, f)| match (f.last_is_insert, g.find_edge(e.0, e.1)) {
                (true, None) => f.first_insert, // the insert that creates/labels nodes
                (false, Some(slot)) => {
                    slots.push(slot);
                    Some(Update::delete(e.0, e.1))
                }
                _ => None, // no-op against the current graph
            })
            .collect();
        UpdateBatch {
            updates,
            normalized: Some(Box::new(Normalized {
                version: g.version(),
                slots,
            })),
        }
    }

    /// Split into `(ΔG⁻, ΔG⁺)` edge lists — the order the incremental batch
    /// algorithms process them in.
    pub fn split_edges(&self) -> (Vec<Edge>, Vec<Edge>) {
        let deletions = self.deletions().map(Update::edge).collect();
        let insertions = self.insertions().map(Update::edge).collect();
        (deletions, insertions)
    }
}

impl FromIterator<Update> for UpdateBatch {
    fn from_iter<T: IntoIterator<Item = Update>>(iter: T) -> Self {
        UpdateBatch::from_updates(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a UpdateBatch {
    type Item = &'a Update;
    type IntoIter = std::slice::Iter<'a, Update>;
    fn into_iter(self) -> Self::IntoIter {
        self.updates.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(a: u32, b: u32) -> (NodeId, NodeId) {
        (NodeId(a), NodeId(b))
    }

    #[test]
    fn normalization_cancels_insert_delete_pairs() {
        let batch = UpdateBatch::from_updates(vec![
            Update::insert(NodeId(0), NodeId(1)),
            Update::delete(NodeId(0), NodeId(1)),
            Update::insert(NodeId(2), NodeId(3)),
        ]);
        let n = batch.normalized();
        assert_eq!(n.len(), 1);
        assert_eq!(n.iter().next().unwrap().edge(), e(2, 3));
    }

    #[test]
    fn normalization_drops_duplicates() {
        let batch = UpdateBatch::from_updates(vec![
            Update::insert(NodeId(0), NodeId(1)),
            Update::insert(NodeId(0), NodeId(1)),
            Update::delete(NodeId(5), NodeId(6)),
            Update::delete(NodeId(5), NodeId(6)),
        ]);
        let n = batch.normalized();
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn split_edges_partitions_by_kind() {
        let batch = UpdateBatch::from_updates(vec![
            Update::insert(NodeId(0), NodeId(1)),
            Update::delete(NodeId(1), NodeId(2)),
            Update::insert(NodeId(2), NodeId(0)),
        ]);
        let (del, ins) = batch.split_edges();
        assert_eq!(del, vec![e(1, 2)]);
        assert_eq!(ins, vec![e(0, 1), e(2, 0)]);
    }

    #[test]
    fn empty_batch() {
        let b = UpdateBatch::new();
        assert!(b.is_empty());
        assert_eq!(b.normalized().len(), 0);
    }

    #[test]
    fn normalize_against_drops_graph_noops() {
        use crate::graph::graph_from;
        let g = graph_from(&[0, 0, 0], &[(0, 1), (1, 2)]);
        let batch = UpdateBatch::from_updates(vec![
            Update::insert(NodeId(0), NodeId(1)), // already present → drop
            Update::delete(NodeId(2), NodeId(0)), // absent → drop
            Update::insert(NodeId(2), NodeId(1)), // genuinely new → keep
            Update::delete(NodeId(1), NodeId(2)), // genuinely present → keep
        ]);
        let n = batch.normalize_against(&g);
        assert_eq!(
            n.iter().copied().collect::<Vec<_>>(),
            vec![
                Update::insert(NodeId(2), NodeId(1)),
                Update::delete(NodeId(1), NodeId(2)),
            ]
        );
    }

    #[test]
    fn normalize_against_is_total() {
        use crate::graph::graph_from;
        let g = graph_from(&[0, 0, 0], &[(0, 1)]);
        // Duplicates, an insert/delete pair, a no-op delete, and a fresh-node
        // insertion, all in one arbitrary batch.
        let batch = UpdateBatch::from_updates(vec![
            Update::insert(NodeId(1), NodeId(2)),
            Update::insert(NodeId(1), NodeId(2)), // duplicate → one survives
            Update::insert(NodeId(2), NodeId(0)), // pairs with delete below
            Update::delete(NodeId(2), NodeId(0)), // cancelled
            Update::delete(NodeId(1), NodeId(0)), // absent → drop
            Update::insert(NodeId(0), NodeId(5)), // fresh node → keep
        ]);
        let n = batch.normalize_against(&g);
        assert_eq!(n.len(), 2);
        assert!(n.iter().all(Update::is_insert));
        // Applying the normalized batch equals applying the raw batch.
        let mut g_raw = g.clone();
        g_raw.apply_batch(&batch);
        let mut g_norm = g.clone();
        g_norm.apply_batch(&n);
        assert_eq!(g_raw.sorted_edges(), g_norm.sorted_edges());
        assert_eq!(g_raw.node_count(), g_norm.node_count());
    }

    #[test]
    fn normalize_against_is_order_faithful() {
        use crate::graph::graph_from;
        let g = graph_from(&[0, 0, 0], &[(0, 1)]);
        // delete-then-insert of an absent edge is a net insertion (the
        // client's retry/upsert pattern) — it must survive, where the
        // order-blind `normalized()` would cancel the pair.
        let upsert = UpdateBatch::from_updates(vec![
            Update::delete(NodeId(1), NodeId(2)),
            Update::insert(NodeId(1), NodeId(2)),
        ]);
        assert_eq!(upsert.normalized().len(), 0, "w.l.o.g. view cancels");
        let n = upsert.normalize_against(&g);
        assert_eq!(
            n.iter().copied().collect::<Vec<_>>(),
            vec![Update::insert(NodeId(1), NodeId(2))]
        );
        // insert-then-delete of a present edge is a net deletion.
        let purge = UpdateBatch::from_updates(vec![
            Update::insert(NodeId(0), NodeId(1)),
            Update::delete(NodeId(0), NodeId(1)),
        ]);
        let n = purge.normalize_against(&g);
        assert_eq!(
            n.iter().copied().collect::<Vec<_>>(),
            vec![Update::delete(NodeId(0), NodeId(1))]
        );
        // In both cases, applying raw and normalized agree on the edge set.
        for batch in [upsert, purge] {
            let mut g_raw = g.clone();
            g_raw.apply_batch(&batch);
            let mut g_norm = g.clone();
            g_norm.apply_batch(&batch.normalize_against(&g));
            assert_eq!(g_raw.sorted_edges(), g_norm.sorted_edges());
        }
    }

    /// `normalize_against` as it was before the fates moved into a `Vec`:
    /// an edge map probed again by the emit pass.
    fn normalize_against_reference(batch: &UpdateBatch, g: &DynamicGraph) -> UpdateBatch {
        let mut fate: FxHashMap<Edge, (Option<Update>, bool)> = FxHashMap::default();
        let mut order: Vec<Edge> = Vec::new();
        for u in batch.iter() {
            let e = u.edge();
            match fate.get_mut(&e) {
                None => {
                    order.push(e);
                    fate.insert(e, (u.is_insert().then_some(*u), u.is_insert()));
                }
                Some(f) => {
                    if u.is_insert() && f.0.is_none() {
                        f.0 = Some(*u);
                    }
                    f.1 = u.is_insert();
                }
            }
        }
        order
            .into_iter()
            .filter_map(|e| {
                let (first_insert, last_is_insert) = fate[&e];
                if last_is_insert == g.contains_edge(e.0, e.1) {
                    None
                } else if last_is_insert {
                    first_insert
                } else {
                    Some(Update::delete(e.0, e.1))
                }
            })
            .collect()
    }

    #[test]
    fn normalize_against_equals_the_reference_on_random_batches() {
        use crate::generator::uniform_graph;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let g = uniform_graph(12, 40, 3, 5);
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..200 {
            // A small id range so edges repeat, flip between insert and
            // delete, hit present and absent edges and fresh nodes.
            let len = rng.gen_range(0..40usize);
            let batch: UpdateBatch = (0..len)
                .map(|_| {
                    let (u, v) = (
                        NodeId(rng.gen_range(0..14u32)),
                        NodeId(rng.gen_range(0..14u32)),
                    );
                    match rng.gen_range(0..3u32) {
                        0 => Update::delete(u, v),
                        1 => Update::insert(u, v),
                        _ => Update::insert_labeled(u, v, Some(Label(1)), Some(Label(2))),
                    }
                })
                .collect();
            assert_eq!(
                batch.normalize_against(&g),
                normalize_against_reference(&batch, &g)
            );
        }
    }

    #[test]
    fn normalize_against_keeps_first_insert_labels() {
        use crate::graph::graph_from;
        let g = graph_from(&[0], &[]);
        // A labelled insert followed by an unlabeled duplicate: the first
        // occurrence creates (and labels) the fresh node sequentially, so
        // it is the one that must survive normalization.
        let batch = UpdateBatch::from_updates(vec![
            Update::insert_labeled(NodeId(0), NodeId(1), None, Some(Label(5))),
            Update::insert(NodeId(0), NodeId(1)),
        ]);
        let n = batch.normalize_against(&g);
        assert_eq!(n.len(), 1);
        let mut g_norm = g.clone();
        g_norm.apply_batch(&n);
        assert_eq!(g_norm.label(NodeId(1)), Label(5));
        // delete-then-labelled-insert: net insert, labels intact.
        let batch = UpdateBatch::from_updates(vec![
            Update::delete(NodeId(0), NodeId(2)),
            Update::insert_labeled(NodeId(0), NodeId(2), None, Some(Label(7))),
        ]);
        let mut g_norm = g.clone();
        g_norm.apply_batch(&batch.normalize_against(&g));
        assert_eq!(g_norm.label(NodeId(2)), Label(7));
    }
}
