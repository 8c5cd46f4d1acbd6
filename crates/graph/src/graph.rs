//! The dynamic labelled directed graph.

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::label::Label;
use crate::node::NodeId;
use crate::update::{Update, UpdateBatch};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A directed edge `(from, to)`.
pub type Edge = (NodeId, NodeId);

/// One adjacency list: a capacity slab shared between graph versions, and
/// the length of its live prefix. The handle sits inline in the graph's
/// outer `Vec`, so reading a list is one hop (`&buf[..len]`), as with a
/// plain `Vec`.
#[derive(Clone, Default)]
struct AdjList {
    /// Doubling capacity; the slots past `len` are padding.
    buf: Arc<[NodeId]>,
    len: u32,
}

impl AdjList {
    /// Filler for the spare slots of a slab; never read.
    const PAD: NodeId = NodeId(u32::MAX);

    /// A slab holding exactly `live`, or a bump of `empty` for no entries.
    fn from_slice(live: &[NodeId], empty: &AdjList) -> AdjList {
        if live.is_empty() {
            return empty.clone();
        }
        AdjList {
            buf: Arc::from(live),
            len: live.len() as u32,
        }
    }

    #[inline]
    fn as_slice(&self) -> &[NodeId] {
        &self.buf[..self.len as usize]
    }

    /// `Vec::push`: in place when no other version shares the slab and it
    /// has a spare slot, else into a copy — of this list alone — that
    /// doubles the capacity if the slab was full.
    fn push(&mut self, v: NodeId) {
        let len = self.len as usize;
        match Arc::get_mut(&mut self.buf) {
            Some(slab) if len < slab.len() => slab[len] = v,
            _ => {
                let cap = if len < self.buf.len() {
                    self.buf.len()
                } else {
                    (2 * len).max(4)
                };
                let padding = std::iter::repeat_n(Self::PAD, cap - len - 1);
                let live = self.as_slice().iter().copied();
                self.buf = live.chain([v]).chain(padding).collect();
            }
        }
        self.len += 1;
    }

    /// The position of the entry equal to `v`, found by one scan.
    #[inline]
    fn position(&self, v: NodeId) -> Option<usize> {
        self.as_slice().iter().position(|&x| x == v)
    }

    /// `Vec::swap_remove` of the entry equal to `v`, found by one scan;
    /// `false` when there is none.
    fn swap_remove(&mut self, v: NodeId) -> bool {
        let Some(pos) = self.position(v) else {
            return false;
        };
        self.swap_remove_at(pos);
        true
    }

    /// `Vec::swap_remove` at `pos`, a live slot. A shared slab is copied
    /// first.
    fn swap_remove_at(&mut self, pos: usize) {
        let last = self.len as usize - 1;
        let slab = Arc::make_mut(&mut self.buf);
        slab[pos] = slab[last];
        self.len -= 1;
    }
}

/// A graph's content stamp. One is drawn from a process-wide counter when
/// a graph is built and after each write, and `Clone` copies it, so two
/// graphs with equal versions hold equal content.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Version(u64);

impl Version {
    fn fresh() -> Version {
        // Relaxed: a version must only be unique, which every ordering of
        // `fetch_add` gives; it publishes no data to another thread.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        Version(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl Default for Version {
    fn default() -> Version {
        Version::fresh()
    }
}

/// Where a membership scan found an edge `(u, v)`: the entry's position,
/// shifted left by one, with the low bit saying which list was scanned (0:
/// `v` in out(u), 1: `u` in in(v)). A position too large to pack reads as
/// [`Slot::UNKNOWN`]; a slot is checked before it is trusted either way.
#[derive(Clone, Copy)]
pub(crate) struct Slot(u32);

impl Slot {
    /// A slot that holds nothing in any real list: its reader scans.
    const UNKNOWN: Slot = Slot(u32::MAX);

    fn at(pos: usize, in_list: bool) -> Slot {
        u32::try_from((pos as u64) << 1 | in_list as u64).map_or(Slot::UNKNOWN, Slot)
    }

    /// `(position, whether the list is in(v))`.
    fn unpack(self) -> (usize, bool) {
        ((self.0 >> 1) as usize, self.0 & 1 == 1)
    }
}

/// A mutable directed graph `G = (V, E, l)` with node labels.
///
/// Designed for the paper's update model: unit edge insertions (which may
/// introduce fresh nodes) and unit edge deletions. Both directions of
/// adjacency are maintained, since the incremental algorithms of Sections 4–5
/// propagate changes through *predecessors* (IncKWS, IncRPQ) as well as
/// successors (IncSCC). `E` is a set, so parallel edges are not represented.
/// Self-loops are allowed.
///
/// # Costs
///
/// A graph is built to be versioned: every adjacency list is a handle on a
/// slab that clones share, and the labels and the label index sit behind
/// one `Arc` each.
///
/// * **Clone** bumps one reference count per adjacency list (2·|V|) and two
///   more for the labels and the label index; it copies nothing.
/// * **Membership** (`contains_edge`) scans the shorter of `out(u)` and
///   `in(v)`, O(min(deg⁺u, deg⁻v)): the lists are the only copy of `E`.
/// * **Write** (`insert_edge`, `delete_edge`) scans and edits the two lists
///   it touches. [`apply_batch`](Self::apply_batch) of a batch that
///   [`UpdateBatch::normalize_against`] produced against this very content
///   decides no unit again: an insert pushes to both lists without a scan,
///   and a delete removes at the slot normalize found it in, then scans
///   only the other list. The first write to a list that a clone still
///   shares copies that list alone; adding a node while a clone shares the
///   labels copies the labels and the label index. A dropped clone frees
///   only the slabs nothing else shares.
/// * **Sorted edges** ([`sorted_edges`](Self::sorted_edges), what a log
///   checkpoint writes) is one counting pass, O(|V| + |E|): out-degree
///   prefix sums, then the in-lists read in node order.
///
/// # Order
///
/// [`successors`](Self::successors) and
/// [`predecessors`](Self::predecessors) list neighbours in insertion order,
/// except that deleting an edge moves the list's last entry into the freed
/// slot (`Vec::swap_remove`); [`edges`](Self::edges) walks the out-lists in
/// node order. Both orders are functions of the sequence of writes alone —
/// a clone, a graph rebuilt by the same writes, and
/// [`from_edges`](Self::from_edges) on the same edge list all agree — and
/// the work counters of the incremental algorithms depend on that.
#[derive(Clone, Default)]
pub struct DynamicGraph {
    labels: Arc<Vec<Label>>,
    out: Vec<AdjList>,
    inn: Vec<AdjList>,
    edge_count: usize,
    by_label: Arc<FxHashMap<Label, Vec<NodeId>>>,
    /// The zero-capacity list every isolated node starts from.
    empty: AdjList,
    /// Transaction counter: the number of update transactions applied so far
    /// (each [`DynamicGraph::apply`] and [`DynamicGraph::apply_batch`] call
    /// counts as one). Construction-time primitives (`add_node`,
    /// `insert_edge`, `delete_edge`) do not bump it.
    epoch: u64,
    /// Content stamp, renewed by every write, the primitives included: a
    /// batch normalized against this version may be applied without
    /// deciding its units again.
    version: Version,
}

impl DynamicGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty graph with room for `nodes` nodes; `_edges` reserves nothing.
    pub fn with_capacity(nodes: usize, _edges: usize) -> Self {
        DynamicGraph {
            labels: Arc::new(Vec::with_capacity(nodes)),
            out: Vec::with_capacity(nodes),
            inn: Vec::with_capacity(nodes),
            ..Self::default()
        }
    }

    /// The graph with nodes `0..labels.len()` and the given edges, built in
    /// bulk: equal — adjacency order and [`edges`](Self::edges) order
    /// included — to [`add_node`](Self::add_node) per label followed by
    /// [`insert_edge`](Self::insert_edge) per edge (repeated edges are
    /// skipped the same way), but each list is sized once instead of grown
    /// push by push. `Err` carries the first edge with an endpoint past
    /// `labels.len()`.
    pub fn from_edges(labels: Vec<Label>, edges: &[Edge]) -> Result<Self, Edge> {
        let n = labels.len();
        let mut set = FxHashSet::with_capacity_and_hasher(edges.len(), Default::default());
        let mut distinct = Vec::with_capacity(edges.len());
        for &(u, v) in edges {
            if u.index() >= n || v.index() >= n {
                return Err((u, v));
            }
            if set.insert((u, v)) {
                distinct.push((u, v));
            }
        }
        let empty = AdjList::default();
        // One family of lists: `key` maps an edge to (the node whose list it
        // goes to, the entry). A counting sort by node — stable, so every
        // list comes out in insertion order — then one exact slab per list.
        let lists = |key: fn(Edge) -> Edge| -> Vec<AdjList> {
            let mut end = vec![0usize; n + 1];
            for &e in &distinct {
                end[key(e).0.index() + 1] += 1;
            }
            for i in 0..n {
                end[i + 1] += end[i];
            }
            let mut at = end.clone();
            let mut flat = vec![AdjList::PAD; distinct.len()];
            for &e in &distinct {
                let (node, entry) = key(e);
                flat[at[node.index()]] = entry;
                at[node.index()] += 1;
            }
            (0..n)
                .map(|i| AdjList::from_slice(&flat[end[i]..end[i + 1]], &empty))
                .collect()
        };
        let (out, inn) = (lists(|e| e), lists(|(u, v)| (v, u)));
        let mut by_label: FxHashMap<Label, Vec<NodeId>> = FxHashMap::default();
        for (i, &l) in labels.iter().enumerate() {
            by_label.entry(l).or_default().push(NodeId::from_index(i));
        }
        Ok(DynamicGraph {
            out,
            inn,
            labels: Arc::new(labels),
            edge_count: distinct.len(),
            by_label: Arc::new(by_label),
            empty,
            epoch: 0,
            version: Version::fresh(),
        })
    }

    /// Add a fresh isolated node with the given label; returns its id.
    pub fn add_node(&mut self, label: Label) -> NodeId {
        self.version = Version::fresh();
        self.push_node(label)
    }

    /// [`add_node`](Self::add_node) without renewing the version.
    fn push_node(&mut self, label: Label) -> NodeId {
        let labels = Arc::make_mut(&mut self.labels);
        let id = NodeId::from_index(labels.len());
        labels.push(label);
        self.out.push(self.empty.clone());
        self.inn.push(self.empty.clone());
        Arc::make_mut(&mut self.by_label)
            .entry(label)
            .or_default()
            .push(id);
        id
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// True when `v` is a node of this graph.
    #[inline]
    pub fn contains_node(&self, v: NodeId) -> bool {
        v.index() < self.labels.len()
    }

    /// The label `l(v)`.
    #[inline]
    pub fn label(&self, v: NodeId) -> Label {
        self.labels[v.index()]
    }

    /// All nodes carrying `label`, in creation order.
    pub fn nodes_with_label(&self, label: Label) -> &[NodeId] {
        self.by_label.get(&label).map_or(&[], |v| v.as_slice())
    }

    /// True when the edge `(u, v)` is present; `false` for ids past |V|.
    #[inline]
    pub fn contains_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.find_edge(u, v).is_some()
    }

    /// Where the edge `(u, v)` sits: one scan of the shorter of out(u) and
    /// in(v). `None` when it is absent or an id is past |V|.
    #[inline]
    pub(crate) fn find_edge(&self, u: NodeId, v: NodeId) -> Option<Slot> {
        match (self.out.get(u.index()), self.inn.get(v.index())) {
            (Some(out), Some(inn)) if out.len <= inn.len => Some(Slot::at(out.position(v)?, false)),
            (Some(_), Some(inn)) => Some(Slot::at(inn.position(u)?, true)),
            _ => None,
        }
    }

    /// The content stamp a normalized batch is checked against.
    #[inline]
    pub(crate) fn version(&self) -> Version {
        self.version
    }

    /// Insert edge `(u, v)`. Returns `true` if the edge was new.
    ///
    /// Panics if either endpoint is not a node; use [`DynamicGraph::add_node`]
    /// first when an update introduces fresh nodes.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(
            self.contains_node(u) && self.contains_node(v),
            "insert_edge({u:?}, {v:?}): node out of bounds (|V| = {})",
            self.node_count()
        );
        self.version = Version::fresh();
        if self.contains_edge(u, v) {
            return false;
        }
        self.push_edge(u, v);
        true
    }

    /// Append `(u, v)`, known absent, to both of its lists.
    fn push_edge(&mut self, u: NodeId, v: NodeId) {
        self.out[u.index()].push(v);
        self.inn[v.index()].push(u);
        self.edge_count += 1;
    }

    /// Delete edge `(u, v)`. Returns `true` if the edge was present.
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        self.version = Version::fresh();
        self.unlink(u, v)
    }

    /// [`delete_edge`](Self::delete_edge) without renewing the version.
    fn unlink(&mut self, u: NodeId, v: NodeId) -> bool {
        // One scan of out(u) both decides membership and finds the entry.
        if !self.contains_node(u) || !self.out[u.index()].swap_remove(v) {
            return false;
        }
        self.inn[v.index()].swap_remove(u);
        self.edge_count -= 1;
        true
    }

    /// Delete `(u, v)`, known present, starting at `slot`, where a
    /// membership scan found it. An earlier delete of the same batch may
    /// have moved the entry since; then the hinted list is scanned again.
    /// The other list is scanned either way.
    fn unlink_at(&mut self, u: NodeId, v: NodeId, slot: Slot) {
        let (pos, in_list) = slot.unpack();
        let ((hinted, entry), (other, mirror)) = if in_list {
            ((&mut self.inn[v.index()], u), (&mut self.out[u.index()], v))
        } else {
            ((&mut self.out[u.index()], v), (&mut self.inn[v.index()], u))
        };
        if hinted.as_slice().get(pos) == Some(&entry) {
            hinted.swap_remove_at(pos);
        } else {
            let found = hinted.swap_remove(entry);
            debug_assert!(found, "a normalized delete of absent ({u:?}, {v:?})");
        }
        let found = other.swap_remove(mirror);
        debug_assert!(found, "({u:?}, {v:?}) was in one list only");
        self.edge_count -= 1;
    }

    /// Successors of `v` (targets of out-edges).
    #[inline]
    pub fn successors(&self, v: NodeId) -> &[NodeId] {
        self.out[v.index()].as_slice()
    }

    /// Predecessors of `v` (sources of in-edges).
    #[inline]
    pub fn predecessors(&self, v: NodeId) -> &[NodeId] {
        self.inn[v.index()].as_slice()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out[v.index()].len as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.inn[v.index()].len as usize
    }

    /// Iterate over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.labels.len()).map(NodeId::from_index)
    }

    /// Iterate over all edges, by source in node order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.nodes()
            .flat_map(move |u| self.successors(u).iter().map(move |&v| (u, v)))
    }

    /// All edges, ascending. A counting pass in O(|V| + |E|), no comparison
    /// sort: prefix sums of the out-degrees give each source its run, and
    /// the in-lists, read target by target in node order, fill every run
    /// already ascending.
    pub fn sorted_edges(&self) -> Vec<Edge> {
        let n = self.out.len();
        let mut start = Vec::with_capacity(n + 1);
        start.push(0);
        for l in &self.out {
            start.push(start[start.len() - 1] + l.len as usize);
        }
        let mut at = start[..n].to_vec();
        let mut e = vec![(AdjList::PAD, AdjList::PAD); start[n]];
        for (v, inn) in self.nodes().zip(&self.inn) {
            for &u in inn.as_slice() {
                e[at[u.index()]] = (u, v);
                at[u.index()] += 1;
            }
        }
        debug_assert!(at == start[1..], "a source's run did not fill exactly");
        e
    }

    /// The graph's version: how many update transactions ([`apply`] calls
    /// and [`apply_batch`] calls) have been applied since construction.
    /// The engine's commit pipeline tags every commit receipt with the
    /// post-commit epoch.
    ///
    /// [`apply`]: DynamicGraph::apply
    /// [`apply_batch`]: DynamicGraph::apply_batch
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Restore the epoch counter on a graph reconstructed from an external
    /// snapshot (a commit-log checkpoint): the construction primitives that
    /// rebuilt it do not bump the epoch, so the restorer must re-stamp the
    /// version the snapshot captured. Replaying logged batches with
    /// [`DynamicGraph::apply_batch`] then advances it one transaction at a
    /// time, exactly as the original graph did.
    pub fn restore_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Apply a single update as one transaction (bumps the epoch), creating
    /// referenced nodes on demand for insertions (the paper allows
    /// `insert e` "possibly with new nodes"; fresh nodes take labels from
    /// [`Update::Insert`]'s optional labels).
    pub fn apply(&mut self, update: &Update) {
        self.apply_update(update);
        self.epoch += 1;
        self.version = Version::fresh();
    }

    /// Apply every update of a batch in order, as one transaction (the
    /// epoch advances by exactly one however long the batch is).
    ///
    /// A batch that [`UpdateBatch::normalize_against`] returned for this
    /// graph's current content — this graph or a clone of it, with no
    /// write to either since — is applied without deciding its units
    /// again: each insert is pushed to both lists with no membership scan,
    /// and each delete is removed at the slot normalize found it in. Any
    /// other batch is applied unit by unit, each unit checked against the
    /// graph first: one built with [`UpdateBatch::from_updates`] or
    /// decoded from a log, one pushed to after normalizing, or one
    /// normalized against another graph or against this one before a later
    /// write. Both paths leave the same lists in the same order.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) {
        match batch.delete_slots(self.version) {
            Some(slots) => self.apply_normalized(batch, slots),
            None => batch.iter().for_each(|u| self.apply_update(u)),
        }
        self.epoch += 1;
        self.version = Version::fresh();
    }

    /// Apply a batch normalized against exactly this content: each insert
    /// is of an absent edge and each delete of a present one when its turn
    /// comes, and `slots` holds, per delete in order, where normalize found
    /// its edge.
    fn apply_normalized(&mut self, batch: &UpdateBatch, slots: &[Slot]) {
        let mut slots = slots.iter();
        for u in batch {
            match *u {
                Update::Insert {
                    from,
                    to,
                    from_label,
                    to_label,
                } => {
                    self.ensure_endpoints(from, to, from_label, to_label);
                    debug_assert!(
                        !self.contains_edge(from, to),
                        "a normalized insert of present ({from:?}, {to:?})"
                    );
                    self.push_edge(from, to);
                }
                Update::Delete { from, to } => {
                    let slot = slots.next().copied().unwrap_or(Slot::UNKNOWN);
                    self.unlink_at(from, to, slot);
                }
            }
        }
    }

    /// Apply one unit update without advancing the epoch.
    fn apply_update(&mut self, update: &Update) {
        match *update {
            Update::Insert {
                from,
                to,
                from_label,
                to_label,
            } => {
                self.ensure_endpoints(from, to, from_label, to_label);
                if !self.contains_edge(from, to) {
                    self.push_edge(from, to);
                }
            }
            Update::Delete { from, to } => {
                self.unlink(from, to);
            }
        }
    }

    /// Create an insert's fresh endpoints in ascending id order: otherwise
    /// a lower-id fresh endpoint would first be materialised as
    /// default-labelled padding for the higher one, and its explicit label
    /// silently lost.
    fn ensure_endpoints(
        &mut self,
        from: NodeId,
        to: NodeId,
        from_label: Option<Label>,
        to_label: Option<Label>,
    ) {
        if from.index() <= to.index() {
            self.ensure_node(from, from_label);
            self.ensure_node(to, to_label);
        } else {
            self.ensure_node(to, to_label);
            self.ensure_node(from, from_label);
        }
    }

    /// Grow the node set so that `v` exists. Only `v` itself takes `label`
    /// (default [`Label::DEFAULT`] when `None`); any intermediate fresh
    /// nodes a gap-jumping id implies are labelled [`Label::DEFAULT`] — see
    /// [`Update::insert_labeled`] for the rule.
    fn ensure_node(&mut self, v: NodeId, label: Option<Label>) {
        while self.labels.len() < v.index() {
            self.push_node(Label::DEFAULT);
        }
        if self.labels.len() == v.index() {
            self.push_node(label.unwrap_or(Label::DEFAULT));
        }
    }

    /// Total size `|V| + |E|`, the paper's `|G|`.
    pub fn size(&self) -> usize {
        self.node_count() + self.edge_count()
    }

    /// Check that the adjacency lists, the edge count and the label index
    /// describe one graph: every live prefix fits its slab, no list holds
    /// an entry twice, `edge_count` is the out-lists' total, both list
    /// families hold the same edges, and the label index lists each node
    /// once, under its label, in creation order. O(|G| log |G|) —
    /// test/debug use only.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.node_count();
        if self.out.len() != n || self.inn.len() != n {
            return Err(format!(
                "{n} labels but {} out-lists and {} in-lists",
                self.out.len(),
                self.inn.len()
            ));
        }
        let overfull = |l: &AdjList| l.len as usize > l.buf.len();
        if self.out.iter().chain(&self.inn).any(overfull) {
            return Err("a list's live prefix exceeds its slab".into());
        }
        // Ascending, so an entry an out-list holds twice sits next to
        // itself; an in-list's twice then shows as a disagreement below.
        // Built from the out-lists alone (`sorted_edges` reads the
        // in-lists), so the comparison below checks one family against
        // the other.
        let mut by_out: Vec<Edge> = self.edges().collect();
        by_out.sort_unstable();
        if let Some(w) = by_out.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("an out-list holds {:?} twice", w[0]));
        }
        if by_out.len() != self.edge_count {
            return Err("edge_count is not the out-lists' total".into());
        }
        let mut by_in = Vec::with_capacity(by_out.len());
        for v in self.nodes() {
            by_in.extend(self.predecessors(v).iter().map(|&w| (w, v)));
        }
        by_in.sort_unstable();
        if by_out != by_in {
            return Err("the out- and in-lists disagree".into());
        }
        let mut indexed = 0;
        for (&label, nodes) in self.by_label.iter() {
            let ascending = nodes.windows(2).all(|w| w[0] < w[1]);
            let labelled = nodes
                .iter()
                .all(|&v| self.contains_node(v) && self.label(v) == label);
            if !ascending || !labelled {
                return Err(format!(
                    "label index entry for {label:?} is wrong: {nodes:?}"
                ));
            }
            indexed += nodes.len();
        }
        if indexed != n {
            return Err(format!("label index lists {indexed} of {n} nodes"));
        }
        Ok(())
    }
}

impl std::fmt::Debug for DynamicGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicGraph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count())
            .finish()
    }
}

/// Build a graph from a label slice and an edge list — convenient in tests.
///
/// Panics if an edge names a node past `labels.len()`.
pub fn graph_from(labels: &[u32], edges: &[(u32, u32)]) -> DynamicGraph {
    let labels = labels.iter().map(|&l| Label(l)).collect();
    let edges: Vec<Edge> = edges.iter().map(|&(u, v)| (NodeId(u), NodeId(v))).collect();
    DynamicGraph::from_edges(labels, &edges).unwrap_or_else(|(u, v)| {
        panic!("graph_from: edge ({u:?}, {v:?}) names a node out of bounds")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_delete_roundtrip() {
        let mut g = graph_from(&[0, 1, 2], &[(0, 1), (1, 2)]);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g.contains_edge(NodeId(0), NodeId(1)));
        assert!(g.delete_edge(NodeId(0), NodeId(1)));
        assert!(!g.contains_edge(NodeId(0), NodeId(1)));
        assert_eq!(g.edge_count(), 1);
        assert!(!g.delete_edge(NodeId(0), NodeId(1)), "double delete");
        assert!(g.insert_edge(NodeId(0), NodeId(1)));
        assert!(!g.insert_edge(NodeId(0), NodeId(1)), "duplicate insert");
    }

    #[test]
    fn adjacency_both_directions() {
        let g = graph_from(&[0, 0, 0], &[(0, 1), (0, 2), (1, 2)]);
        assert_eq!(g.successors(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.predecessors(NodeId(2)), &[NodeId(0), NodeId(1)]);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(2)), 2);
        assert_eq!(g.in_degree(NodeId(0)), 0);
    }

    #[test]
    fn self_loop_supported() {
        let mut g = graph_from(&[0], &[]);
        assert!(g.insert_edge(NodeId(0), NodeId(0)));
        assert!(g.contains_edge(NodeId(0), NodeId(0)));
        assert_eq!(g.successors(NodeId(0)), &[NodeId(0)]);
        assert_eq!(g.predecessors(NodeId(0)), &[NodeId(0)]);
        assert!(g.delete_edge(NodeId(0), NodeId(0)));
        assert_eq!(g.out_degree(NodeId(0)), 0);
    }

    #[test]
    fn label_index_tracks_nodes() {
        let mut g = DynamicGraph::new();
        let a = g.add_node(Label(7));
        let b = g.add_node(Label(7));
        let c = g.add_node(Label(9));
        assert_eq!(g.nodes_with_label(Label(7)), &[a, b]);
        assert_eq!(g.nodes_with_label(Label(9)), &[c]);
        assert_eq!(g.nodes_with_label(Label(11)), &[] as &[NodeId]);
    }

    #[test]
    fn apply_insert_creates_nodes() {
        let mut g = graph_from(&[0], &[]);
        g.apply(&Update::insert_labeled(
            NodeId(0),
            NodeId(3),
            None,
            Some(Label(5)),
        ));
        assert_eq!(g.node_count(), 4);
        assert!(g.contains_edge(NodeId(0), NodeId(3)));
        assert_eq!(g.label(NodeId(3)), Label(5));
        // intermediate fresh nodes take the default label, not the
        // endpoint's: only the endpoint itself is labelled by the update
        assert_eq!(g.label(NodeId(1)), Label::DEFAULT);
        assert_eq!(g.label(NodeId(2)), Label::DEFAULT);
    }

    #[test]
    fn apply_insert_labels_both_fresh_endpoints_regardless_of_order() {
        // from > to, both fresh: the lower endpoint must still receive its
        // explicit label, not be pre-created as padding for the higher one.
        let mut g = graph_from(&[0], &[]);
        g.apply(&Update::insert_labeled(
            NodeId(4),
            NodeId(3),
            Some(Label(7)),
            Some(Label(9)),
        ));
        assert_eq!(g.node_count(), 5);
        assert!(g.contains_edge(NodeId(4), NodeId(3)));
        assert_eq!(g.label(NodeId(3)), Label(9));
        assert_eq!(g.label(NodeId(4)), Label(7));
        assert_eq!(g.label(NodeId(1)), Label::DEFAULT);
        assert_eq!(g.label(NodeId(2)), Label::DEFAULT);
    }

    #[test]
    fn epoch_counts_transactions_not_units() {
        let mut g = graph_from(&[0, 0, 0], &[]);
        assert_eq!(g.epoch(), 0, "construction primitives leave epoch at 0");
        g.apply(&Update::insert(NodeId(0), NodeId(1)));
        assert_eq!(g.epoch(), 1);
        let delta = UpdateBatch::from_updates(vec![
            Update::insert(NodeId(1), NodeId(2)),
            Update::delete(NodeId(0), NodeId(1)),
        ]);
        g.apply_batch(&delta);
        assert_eq!(g.epoch(), 2, "a batch is one transaction");
        let cloned = g.clone();
        assert_eq!(cloned.epoch(), 2);
    }

    #[test]
    fn every_write_renews_the_version_and_a_clone_keeps_it() {
        let mut g = graph_from(&[0, 0, 0], &[(0, 1)]);
        assert!(DynamicGraph::new().version() != g.version());
        let delta = UpdateBatch::from_updates(vec![
            Update::insert(NodeId(1), NodeId(2)),
            Update::delete(NodeId(0), NodeId(1)),
        ])
        .normalize_against(&g);
        let clone = g.clone();
        assert!(clone.version() == g.version());
        assert!(delta.delete_slots(clone.version()).is_some());
        let writes: [fn(&mut DynamicGraph); 5] = [
            |g| {
                g.add_node(Label(0));
            },
            |g| {
                g.insert_edge(NodeId(2), NodeId(0));
            },
            // A write that changes nothing still renews the version.
            |g| {
                g.delete_edge(NodeId(2), NodeId(2));
            },
            |g| g.apply(&Update::insert(NodeId(0), NodeId(0))),
            |g| g.apply_batch(&UpdateBatch::new()),
        ];
        for write in writes {
            let before = g.version();
            write(&mut g);
            assert!(g.version() != before);
            assert!(delta.delete_slots(g.version()).is_none());
        }
        let mut pushed = delta.clone();
        assert!(pushed.delete_slots(clone.version()).is_some());
        pushed.push(Update::delete(NodeId(0), NodeId(1)));
        assert!(pushed.delete_slots(clone.version()).is_none());
        assert_eq!(delta.delete_slots(clone.version()).map(<[_]>::len), Some(1));
    }

    /// Two deletes of one batch in one list: the first swap-removes the
    /// entry the second's slot names, and an insert between them refills
    /// that slot, so the second delete must scan instead.
    #[test]
    fn a_moved_entry_is_found_by_a_scan() {
        // out(0) = [1, 2] is shorter than in(1) and in(2): both slots name it.
        let edges = [(0, 1), (0, 2), (3, 1), (4, 1), (3, 2), (4, 2)];
        let g = graph_from(&[0; 5], &edges);
        let delta = UpdateBatch::from_updates(vec![
            Update::delete(NodeId(0), NodeId(1)),
            Update::insert(NodeId(0), NodeId(3)),
            Update::delete(NodeId(0), NodeId(2)),
        ])
        .normalize_against(&g);
        let slots = delta.delete_slots(g.version()).unwrap();
        assert_eq!(
            slots.iter().map(|s| s.unpack()).collect::<Vec<_>>(),
            [(0, false), (1, false)]
        );
        let mut trusted = g.clone();
        trusted.apply_batch(&delta);
        let mut unit = g.clone();
        delta.iter().for_each(|u| unit.apply(u));
        assert_eq!(trusted.successors(NodeId(0)), &[NodeId(3)]);
        for v in g.nodes() {
            assert_eq!(trusted.successors(v), unit.successors(v));
            assert_eq!(trusted.predecessors(v), unit.predecessors(v));
        }
        trusted.check_invariants().unwrap();
    }

    #[test]
    fn apply_delete_of_absent_edge_is_noop() {
        let mut g = graph_from(&[0, 0], &[(0, 1)]);
        g.apply(&Update::delete(NodeId(1), NodeId(0)));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn sorted_edges_deterministic() {
        let g = graph_from(&[0, 0, 0], &[(2, 0), (0, 1), (1, 2)]);
        assert_eq!(
            g.sorted_edges(),
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(2)),
                (NodeId(2), NodeId(0))
            ]
        );
    }

    /// How many of `a`'s adjacency lists sit on a different slab than the
    /// list of the same node in `b`.
    fn lists_unshared(a: &DynamicGraph, b: &DynamicGraph) -> usize {
        let differ = |x: &[AdjList], y: &[AdjList]| {
            let common = x
                .iter()
                .zip(y)
                .filter(|(p, q)| !Arc::ptr_eq(&p.buf, &q.buf));
            common.count() + x.len().abs_diff(y.len())
        };
        differ(&a.out, &b.out) + differ(&a.inn, &b.inn)
    }

    #[test]
    fn a_clone_diverges_by_the_lists_a_batch_writes() {
        use crate::generator::{random_update_batch, uniform_graph};
        let original = uniform_graph(200, 800, 3, 11);
        for (k, seed) in [(1, 1), (8, 2), (40, 3)] {
            let mut clone = original.clone();
            assert_eq!(lists_unshared(&clone, &original), 0, "clone copies no list");
            let delta = random_update_batch(&clone, k, 0.5, seed);
            clone.apply_batch(&delta);
            let unshared = lists_unshared(&clone, &original);
            assert!(
                (1..=2 * delta.len()).contains(&unshared),
                "{} units unshared {unshared} lists",
                delta.len()
            );
            assert!(Arc::ptr_eq(&clone.labels, &original.labels));
            assert!(Arc::ptr_eq(&clone.by_label, &original.by_label));
            clone.check_invariants().unwrap();
        }
        // A fresh node unshares the labels and the label index, and still
        // no list but the two its edge writes.
        let mut clone = original.clone();
        let fresh = NodeId::from_index(original.node_count());
        clone.apply(&Update::insert_labeled(
            NodeId(0),
            fresh,
            None,
            Some(Label(1)),
        ));
        assert!(!Arc::ptr_eq(&clone.labels, &original.labels));
        assert!(!Arc::ptr_eq(&clone.by_label, &original.by_label));
        assert_eq!(lists_unshared(&clone, &original), 1 + 2);
        assert!(!original.nodes_with_label(Label(1)).contains(&fresh));
        original.check_invariants().unwrap();
        clone.check_invariants().unwrap();
    }

    #[test]
    fn an_unshared_list_is_written_in_place() {
        let mut g = graph_from(&[0; 6], &[]);
        for w in 1..=4 {
            g.insert_edge(NodeId(0), NodeId(w));
        }
        let slab = Arc::as_ptr(&g.out[0].buf);
        g.delete_edge(NodeId(0), NodeId(1));
        g.insert_edge(NodeId(0), NodeId(5));
        assert_eq!(Arc::as_ptr(&g.out[0].buf), slab, "roomy and unshared");
        assert_eq!(
            g.successors(NodeId(0)),
            &[NodeId(4), NodeId(2), NodeId(3), NodeId(5)]
        );
        g.insert_edge(NodeId(0), NodeId(0));
        assert_eq!(g.out[0].buf.len(), 8, "a full slab doubles");
        g.check_invariants().unwrap();
    }

    #[test]
    fn from_edges_rejects_an_endpoint_past_the_labels() {
        let edges = [(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))];
        let err = DynamicGraph::from_edges(vec![Label(0); 2], &edges);
        assert_eq!(err.err(), Some((NodeId(1), NodeId(2))));
    }

    #[test]
    fn size_counts_nodes_plus_edges() {
        let g = graph_from(&[0, 0, 0], &[(0, 1)]);
        assert_eq!(g.size(), 4);
    }

    #[test]
    fn check_invariants_reports_each_broken_invariant() {
        let base = graph_from(&[0; 3], &[(0, 1), (1, 2)]);
        base.check_invariants().unwrap();
        let breaks: [fn(&mut DynamicGraph); 3] = [
            |g| {
                g.out[2].push(NodeId(0));
                g.edge_count += 1;
            },
            |g| {
                g.out[0].push(NodeId(1));
                g.inn[1].push(NodeId(0));
                g.edge_count += 1;
            },
            |g| g.edge_count += 1,
        ];
        for (reported, break_one) in ["disagree", "twice", "edge_count"].into_iter().zip(breaks) {
            let mut g = base.clone();
            break_one(&mut g);
            let err = g.check_invariants().unwrap_err();
            assert!(err.contains(reported), "expected {reported:?} in {err:?}");
        }
    }

    /// The membership API against a reference set, over random units on a
    /// graph with a hub, self-loops, repeated and absent deletes, and ids
    /// past the node count.
    #[test]
    fn membership_matches_a_reference_edge_set() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const N: u32 = 200;
        let (hub, mut rng) = (NodeId(7), StdRng::seed_from_u64(5));
        let mut g = graph_from(&[0; N as usize], &[]);
        let mut model: FxHashSet<Edge> = FxHashSet::default();
        let mut inserted: Vec<Edge> = Vec::new();
        let mut hub_ratio: f64 = 0.0;
        for step in 0..6_000 {
            let node = |rng: &mut StdRng| NodeId(rng.gen_range(0..N));
            let roll = if inserted.is_empty() {
                0
            } else {
                rng.gen_range(0u32..100)
            };
            let (u, v) = match roll {
                0..=49 => {
                    let (u, v) = match rng.gen_range(0u32..10) {
                        0..=3 => (hub, node(&mut rng)),
                        4..=6 => (node(&mut rng), hub),
                        7 => {
                            let u = node(&mut rng);
                            (u, u)
                        }
                        _ => (node(&mut rng), node(&mut rng)),
                    };
                    assert_eq!(
                        g.insert_edge(u, v),
                        model.insert((u, v)),
                        "insert {u:?}→{v:?}"
                    );
                    inserted.push((u, v));
                    (u, v)
                }
                // A past insert: present, or deleted before (a repeat).
                50..=84 => inserted[rng.gen_range(0..inserted.len())],
                85..=94 => (node(&mut rng), node(&mut rng)),
                _ => {
                    let past = NodeId(N + rng.gen_range(0u32..3));
                    let (u, v) = if rng.gen_bool(0.5) {
                        (past, node(&mut rng))
                    } else {
                        (node(&mut rng), past)
                    };
                    assert!(!g.contains_edge(u, v));
                    (u, v)
                }
            };
            if roll >= 50 {
                assert_eq!(
                    g.delete_edge(u, v),
                    model.remove(&(u, v)),
                    "delete {u:?}→{v:?}"
                );
            }
            assert_eq!(g.contains_edge(u, v), model.contains(&(u, v)));
            assert_eq!(g.edge_count(), model.len());
            let mean = model.len() as f64 / N as f64;
            let hub_degree = g.out_degree(hub).max(g.in_degree(hub)) as f64;
            hub_ratio = hub_ratio.max(hub_degree / mean.max(1.0));
            if step % 500 == 499 {
                let walked: Vec<Edge> = g.edges().collect();
                assert!(
                    walked.windows(2).all(|w| w[0].0 <= w[1].0),
                    "edges() leaves node order"
                );
                assert_eq!(walked.iter().copied().collect::<FxHashSet<_>>(), model);
                let sorted = g.sorted_edges();
                assert!(
                    sorted.windows(2).all(|w| w[0] < w[1]),
                    "sorted_edges() not ascending"
                );
                let mut expected: Vec<Edge> = model.iter().copied().collect();
                expected.sort_unstable();
                assert_eq!(sorted, expected);
                for w in g.nodes() {
                    assert_eq!(g.contains_edge(hub, w), model.contains(&(hub, w)));
                    assert_eq!(g.contains_edge(w, hub), model.contains(&(w, hub)));
                }
                g.check_invariants().unwrap();
            }
        }
        assert!(
            hub_ratio >= 20.0,
            "the hub reached only {hub_ratio:.1} × the mean degree"
        );
    }
}
