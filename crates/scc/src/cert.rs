//! The strong-connectivity certificate of [`IncScc`](crate::IncScc): per
//! certified component one root, an **out-tree** (the root reaches every
//! member along `parent → v` edges) and an **in-tree** (every member reaches
//! the root along `v → parent` edges), both over real edges of the graph
//! between members of the component. Two spanning trees to one root prove
//! the component strongly connected, so an intra-component deletion that is
//! no tree edge cannot change the answer and costs two array reads.
//!
//! A deleted tree edge *orphans* its lower end. [`Certificates::delete`]
//! repairs one tree at a time:
//!
//! 1. every orphan looks for a neighbour whose walk to the root meets no
//!    orphan, and takes it as its new parent (cost: the orphan's degree
//!    times a tree depth; walks that reached the root are remembered for
//!    the rest of the pass);
//! 2. orphans still unattached — their candidates all hang below another
//!    orphan — have their subtrees collected, and the collected region is
//!    re-grown from the attached nodes around it by one BFS.
//!
//! What the BFS cannot reach is cut off from the root for good: those nodes
//! (and only those) left the root's component, and the caller runs its
//! restricted Tarjan over them alone. A work budget bounds the repair
//! relative to that Tarjan; past it the certificate is rebuilt by one BFS
//! pair, which also yields the cut-off set.
//!
//! The trees are the writer's: they never reach the published
//! `Arc<Condensation>`, a copy without them rebuilds them on demand, and a
//! component is certified lazily — the first time it sees an intra deletion.

use crate::condensation::{Condensation, SccId};
use igc_core::work::WorkStats;
use igc_graph::graph::Edge;
use igc_graph::{DynamicGraph, FxHashMap, NodeId};

/// "No parent": the root's entry, and every node not yet certified.
const NONE: NodeId = NodeId(u32::MAX);

/// Per-`apply` certificate counters — where the deletions of one batch went.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SccDelta {
    /// Intra-component deletions that removed a tree edge (one per tree).
    pub tree_hits: u64,
    /// Nodes that lost their parent and were given another.
    pub reattached: u64,
    /// Nodes cut off from their component's root — the only input of the
    /// restricted Tarjan runs.
    pub carved: u64,
    /// Whole-component passes: a certificate built from scratch, the first
    /// time a component sees an intra deletion or when a repair ran out of
    /// budget.
    pub fallbacks: u64,
}

/// Which tree of the certificate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dir {
    /// Root reaches `v`: tree edges are `parent → v`.
    Out = 0,
    /// `v` reaches the root: tree edges are `v → parent`.
    In = 1,
}

impl Dir {
    /// The neighbours that can be `v`'s parent in this tree.
    fn toward_root(self, g: &DynamicGraph, v: NodeId) -> &[NodeId] {
        match self {
            Dir::Out => g.predecessors(v),
            Dir::In => g.successors(v),
        }
    }

    /// The neighbours that can be `v`'s children in this tree.
    fn away_from_root(self, g: &DynamicGraph, v: NodeId) -> &[NodeId] {
        match self {
            Dir::Out => g.successors(v),
            Dir::In => g.predecessors(v),
        }
    }
}

/// The certificates of every certified component, plus the marks and
/// buffers of one repair pass (nothing in them outlives a pass).
#[derive(Debug, Clone, Default)]
pub(crate) struct Certificates {
    /// `parent[Dir][v]`, meaningful only while `v`'s component has a root.
    parent: [Vec<NodeId>; 2],
    roots: FxHashMap<SccId, NodeId>,
    /// Pass marks: `epoch` = unattached, `epoch + 1` = known attached.
    mark: Vec<u32>,
    epoch: u32,
    queue: Vec<NodeId>,
    path: Vec<NodeId>,
}

/// The repair gave up: its work passed the budget.
struct OverBudget;

/// One repair pass over one tree of one component.
struct Pass<'a> {
    c: &'a mut Certificates,
    g: &'a DynamicGraph,
    cond: &'a Condensation,
    id: SccId,
    root: NodeId,
    dir: Dir,
    work: &'a mut WorkStats,
    /// The repair gives up once `work.total()` passes this.
    limit: u64,
}

impl Certificates {
    /// Track nodes `0..n` — called by every `apply` before anything else
    /// here, so the per-node arrays always cover the graph.
    pub(crate) fn grow(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
            for p in &mut self.parent {
                p.resize(n, NONE);
            }
        }
    }

    /// Drop `id`'s certificate (the component is gone or was merged away).
    pub(crate) fn forget(&mut self, id: SccId) {
        self.roots.remove(&id);
    }

    /// Marks of a fresh pass: nothing unattached, nothing known attached.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch >= u32::MAX - 3 {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 2;
        self.epoch
    }

    fn pass<'a>(
        &'a mut self,
        g: &'a DynamicGraph,
        cond: &'a Condensation,
        id: SccId,
        root: NodeId,
        dir: Dir,
        work: &'a mut WorkStats,
    ) -> Pass<'a> {
        self.next_epoch();
        Pass {
            c: self,
            g,
            cond,
            id,
            root,
            dir,
            work,
            limit: u64::MAX,
        }
    }

    /// The intra-component deletions `dels` of `id` have left the graph.
    /// Returns the members now cut off from the root, sorted, each with
    /// whether the root still reaches it — empty when the component is
    /// provably intact. Everything not returned is (still) the root's
    /// strongly connected component, under a valid certificate.
    pub(crate) fn delete(
        &mut self,
        g: &DynamicGraph,
        cond: &Condensation,
        id: SccId,
        dels: &[Edge],
        work: &mut WorkStats,
        delta: &mut SccDelta,
    ) -> Vec<(NodeId, bool)> {
        let members = cond.members(id);
        if members.len() < 2 {
            return Vec::new(); // a deleted self-loop
        }
        let Some(&root) = self.roots.get(&id) else {
            return self.build(g, cond, id, work, delta);
        };
        let mut orphans: [Vec<NodeId>; 2] = [Vec::new(), Vec::new()];
        work.aux_touched += 2 * dels.len() as u64;
        for &(v, w) in dels {
            if self.parent[Dir::Out as usize][w.index()] == v {
                orphans[Dir::Out as usize].push(w);
            }
            if self.parent[Dir::In as usize][v.index()] == w {
                orphans[Dir::In as usize].push(v);
            }
        }
        delta.tree_hits += (orphans[0].len() + orphans[1].len()) as u64;
        let budget = crate::inc::INTACT_CHECK_BUDGET_FACTOR * members.len() as u64;
        let spent_before = work.total();
        let mut cut: [Vec<NodeId>; 2] = [Vec::new(), Vec::new()];
        for dir in [Dir::Out, Dir::In] {
            if orphans[dir as usize].is_empty() {
                continue;
            }
            let mut pass = self.pass(g, cond, id, root, dir, work);
            pass.limit = spent_before + budget;
            match pass.repair(&orphans[dir as usize], delta) {
                Ok(failed) => cut[dir as usize] = failed,
                Err(OverBudget) => return self.build(g, cond, id, work, delta),
            }
        }
        let [unreached, unreaching] = cut;
        merge_cut(unreached, unreaching)
    }

    /// Certify `id` from scratch on the current graph: pick a root, grow
    /// both trees by BFS. Returns what the trees do not span, as
    /// [`delete`](Self::delete) does.
    fn build(
        &mut self,
        g: &DynamicGraph,
        cond: &Condensation,
        id: SccId,
        work: &mut WorkStats,
        delta: &mut SccDelta,
    ) -> Vec<(NodeId, bool)> {
        delta.fallbacks += 1;
        let members = cond.members(id);
        // The best-connected member: the least likely to fray off itself.
        let root = *members
            .iter()
            .max_by_key(|&&v| (g.out_degree(v) + g.in_degree(v), std::cmp::Reverse(v)))
            .expect("a certified component has members");
        work.nodes_visited += members.len() as u64;
        self.roots.insert(id, root);
        let mut cut: [Vec<NodeId>; 2] = [Vec::new(), Vec::new()];
        for dir in [Dir::Out, Dir::In] {
            let mut pass = self.pass(g, cond, id, root, dir, work);
            for &v in members {
                pass.c.mark[v.index()] = pass.c.epoch;
            }
            pass.c.parent[dir as usize][root.index()] = NONE;
            pass.c.mark[root.index()] = pass.c.epoch + 1;
            pass.c.queue.clear();
            pass.c.queue.push(root);
            pass.spread();
            cut[dir as usize] = pass.unattached(members);
        }
        let [unreached, unreaching] = cut;
        merge_cut(unreached, unreaching)
    }

    /// `nodes` were just merged into `keep`: hang them into `keep`'s trees
    /// (if it has any) from the members around them. Costs the merged
    /// nodes' adjacency, not `keep`'s.
    pub(crate) fn absorbed(
        &mut self,
        g: &DynamicGraph,
        cond: &Condensation,
        keep: SccId,
        nodes: &[NodeId],
        work: &mut WorkStats,
    ) {
        let Some(&root) = self.roots.get(&keep) else {
            return;
        };
        for dir in [Dir::Out, Dir::In] {
            let mut pass = self.pass(g, cond, keep, root, dir, work);
            for &v in nodes {
                pass.c.mark[v.index()] = pass.c.epoch;
            }
            pass.regrow(nodes);
            debug_assert!(
                pass.unattached(nodes).is_empty(),
                "a merged component is strongly connected"
            );
        }
    }

    /// `id` was just split: its certificate follows its root, and a
    /// component that shrank to one node needs none.
    pub(crate) fn resettle(&mut self, id: SccId, cond: &Condensation) {
        let Some(root) = self.roots.remove(&id) else {
            return;
        };
        let now = cond.scc_of(root);
        if cond.members(now).len() > 1 {
            self.roots.insert(now, root);
        }
    }

    /// Audit every certificate against `g`: each parent edge is in the
    /// graph and inside the component, and every member's walk reaches the
    /// root (so neither tree has a cycle).
    pub(crate) fn audit(&self, g: &DynamicGraph, cond: &Condensation) -> Result<(), String> {
        for (&id, &root) in &self.roots {
            let members = cond.members(id);
            if members.len() < 2 || cond.scc_of(root) != id {
                return Err(format!(
                    "scc: certificate of {id} is rooted at {root:?}, outside it"
                ));
            }
            for dir in [Dir::Out, Dir::In] {
                let parent = &self.parent[dir as usize];
                for &v in members {
                    let mut x = v;
                    let mut steps = 0;
                    while x != root {
                        let p = parent.get(x.index()).copied().unwrap_or(NONE);
                        let edge = match dir {
                            Dir::Out => (p, x),
                            Dir::In => (x, p),
                        };
                        if p == NONE || cond.scc_of(p) != id || !g.contains_edge(edge.0, edge.1) {
                            return Err(format!(
                                "scc: {dir:?}-tree of {id}: {x:?} hangs on {p:?}, no edge of the component"
                            ));
                        }
                        steps += 1;
                        if steps > members.len() {
                            return Err(format!("scc: {dir:?}-tree of {id} has a cycle at {v:?}"));
                        }
                        x = p;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Join the two trees' failures into one sorted list; the flag says whether
/// the root still reaches the node (it failed in the in-tree only).
fn merge_cut(unreached: Vec<NodeId>, unreaching: Vec<NodeId>) -> Vec<(NodeId, bool)> {
    let mut cut: Vec<(NodeId, bool)> = unreached
        .into_iter()
        .map(|v| (v, false))
        .chain(unreaching.into_iter().map(|v| (v, true)))
        .collect();
    // `false` sorts first, so a node in both lists keeps "unreached".
    cut.sort_unstable();
    cut.dedup_by_key(|c| c.0);
    cut
}

impl Pass<'_> {
    fn over_budget(&self) -> bool {
        self.work.total() > self.limit
    }

    fn unattached_mark(&self, v: NodeId) -> bool {
        self.c.mark[v.index()] == self.c.epoch
    }

    fn set_attached(&mut self, v: NodeId, parent: NodeId) {
        self.c.parent[self.dir as usize][v.index()] = parent;
        self.c.mark[v.index()] = self.c.epoch + 1;
    }

    /// The nodes of `region` still unattached.
    fn unattached(&self, region: &[NodeId]) -> Vec<NodeId> {
        region
            .iter()
            .copied()
            .filter(|&v| self.unattached_mark(v))
            .collect()
    }

    /// Does `n`'s walk to the root meet no unattached node? Nodes on a walk
    /// that got there are marked, so later walks stop at them.
    fn reaches_root(&mut self, n: NodeId) -> bool {
        self.c.path.clear();
        let mut x = n;
        let ok = loop {
            self.work.aux_touched += 1;
            let m = self.c.mark[x.index()];
            if x == self.root || m == self.c.epoch + 1 {
                break true;
            }
            if m == self.c.epoch {
                break false;
            }
            self.c.path.push(x);
            x = self.c.parent[self.dir as usize][x.index()];
        };
        if ok {
            for &p in &self.c.path {
                self.c.mark[p.index()] = self.c.epoch + 1;
            }
        }
        ok
    }

    /// Step 1 for one orphan: adopt the first neighbour that is attached.
    fn try_reattach(&mut self, o: NodeId) -> bool {
        self.work.nodes_visited += 1;
        for &n in self.dir.toward_root(self.g, o) {
            if self.over_budget() {
                return false;
            }
            self.work.edges_traversed += 1;
            if n != o && self.cond.scc_of(n) == self.id && self.reaches_root(n) {
                self.set_attached(o, n);
                return true;
            }
        }
        false
    }

    /// BFS from the attached nodes in `queue` into the unattached ones.
    fn spread(&mut self) {
        let mut head = 0;
        while head < self.c.queue.len() {
            let a = self.c.queue[head];
            head += 1;
            self.work.nodes_visited += 1;
            for &c in self.dir.away_from_root(self.g, a) {
                self.work.edges_traversed += 1;
                // Only members of this component carry this pass's mark.
                if self.unattached_mark(c) {
                    self.set_attached(c, a);
                    self.c.queue.push(c);
                }
            }
        }
    }

    /// Step 2's second half: every node of the component outside `region`
    /// is attached and every node of `region` marked unattached — attach
    /// what the outside reaches.
    fn regrow(&mut self, region: &[NodeId]) {
        self.c.queue.clear();
        for &u in region {
            if !self.unattached_mark(u) {
                continue;
            }
            self.work.nodes_visited += 1;
            for &n in self.dir.toward_root(self.g, u) {
                self.work.edges_traversed += 1;
                if self.cond.scc_of(n) == self.id && !self.unattached_mark(n) {
                    self.set_attached(u, n);
                    self.c.queue.push(u);
                    break;
                }
            }
        }
        self.spread();
    }

    /// Repair this tree after `orphans` lost their parent edges. Returns
    /// the nodes the root's tree can no longer span.
    fn repair(
        &mut self,
        orphans: &[NodeId],
        delta: &mut SccDelta,
    ) -> Result<Vec<NodeId>, OverBudget> {
        for &o in orphans {
            self.c.mark[o.index()] = self.c.epoch;
        }
        // Step 1, repeated while it makes progress: an orphan whose only
        // candidates hang below another orphan succeeds once that one has.
        let mut pending: Vec<NodeId> = orphans.to_vec();
        loop {
            let before = pending.len();
            pending.retain(|&o| self.over_budget() || !self.try_reattach(o));
            if self.over_budget() {
                return Err(OverBudget);
            }
            if pending.is_empty() || pending.len() == before {
                break;
            }
        }
        delta.reattached += (orphans.len() - pending.len()) as u64;
        if pending.is_empty() {
            return Ok(Vec::new());
        }
        // Step 2: collect the subtrees hanging below the stuck orphans …
        let mut region = pending;
        let mut next = 0;
        while next < region.len() {
            let x = region[next];
            next += 1;
            self.work.nodes_visited += 1;
            for &c in self.dir.away_from_root(self.g, x) {
                self.work.edges_traversed += 1;
                if self.c.parent[self.dir as usize][c.index()] == x
                    && self.cond.scc_of(c) == self.id
                    && !self.unattached_mark(c)
                {
                    self.c.mark[c.index()] = self.c.epoch;
                    region.push(c);
                }
            }
            if self.over_budget() {
                return Err(OverBudget);
            }
        }
        // … and re-grow them from outside.
        self.regrow(&region);
        let failed = self.unattached(&region);
        delta.reattached += (region.len() - failed.len()) as u64;
        Ok(failed)
    }
}
