//! IncRPQ — bounded relative to `RPQ_NFA` (Section 5.2, Fig. 5).
//!
//! The maintained auxiliary structure is the marking set of the product
//! graph ([`crate::marking`]); the answer `Q(G)` is derived from markings
//! with accepting states. A batch update is processed in the same shape as
//! the batch `IncKWS`:
//!
//! 1. **identAff** — take deleted product edges out of the supports
//!    (`mpre`) of the markings they led to; a marking left with none has no
//!    lower-ranked support, so it is flagged, and it leaves the supports of
//!    the markings it leads to in turn,
//! 2. **potentials** — give each flagged marking the least rank its
//!    unflagged in-neighbour markings offer (via the NFA's inverse
//!    transitions), with every one that offers it as `mpre`,
//! 3. **insertion seeding** — each inserted edge offers rank + 1 from the
//!    unflagged markings at its tail: a missing marking is created
//!    pending, a pending one takes a lower offer, and a valid one of
//!    higher rank takes the tail marking as one more support,
//! 4. **settle** — one shared queue settles the pending markings (flagged
//!    or created by this `apply`) in increasing rank, each at most once,
//!    relaxing their product successors alike. A marking that was valid
//!    before the `apply` is never lowered or re-queued, however close an
//!    insertion brings it: only reachability decides the answer. Every
//!    product edge weighs 1, so the queue is an [`igc_core::BucketQueue`]:
//!    a bucket queue, heap order — it pops the `(rank, key)` sequence a
//!    binary heap would;
//! 5. flagged markings that never settle are removed, updating `Q(G)`.
//!
//! Every phase touches a marking once per product edge: δ and δ⁻¹ are the
//! NFA's dense tables ([`Nfa::next`] / [`Nfa::prev`], iterated in place),
//! and "is it pending?" is a flag on the entry the phase fetches anyway
//! ([`MarkEntry::affected`]) — phases 1 and 3–4 set it, phase 5 clears it
//! on the survivors, so no marking carries it out of an `apply`.
//!
//! **|AFF|** ([`IncRpq::last_metrics`]'s `affected`) is the number of
//! markings an `apply` flags plus the number it creates, a new node's seeds
//! included. A marking that only gains or loses supports is not counted:
//! it keeps its key and its rank.

use crate::batch;
use crate::marking::{MarkEntry, MarkKey, Markings, RpqDelta, INF_DIST};
use igc_core::work::{ChangeMetrics, WorkStats};
use igc_core::{BucketQueue, IncView};
use igc_graph::{DynamicGraph, FxHashMap, FxHashSet, NodeId, UpdateBatch};
use igc_nfa::{build_nfa, Nfa, Regex, StateId};
use std::collections::VecDeque;
use std::sync::Arc;

/// Maintained RPQ state: NFA, markings and the match-pair answer.
///
/// What a reader can see — the NFA and the answer — sits behind `Arc`s, so
/// the copy [`IncView::clone_view`] publishes shares it and carries nothing
/// else: markings, `acc_count` and the scratch belong to the writer and are
/// left out. `Clone` is the deep, writable copy (markings included).
#[derive(Debug, Clone)]
pub struct IncRpq {
    nfa: Arc<Nfa>,
    marks: Markings,
    /// Number of accepting-state markings per (source, node) pair.
    acc_count: FxHashMap<(NodeId, NodeId), u32>,
    /// Unshared on the first answer change of an `apply` (|ΔO| is small),
    /// never inside the marking loops.
    answer: Arc<FxHashSet<(NodeId, NodeId)>>,
    work: WorkStats,
    metrics: ChangeMetrics,
    delta: RpqDelta,
    scratch: RpqScratch,
}

/// Reusable per-`apply` working memory, kept on the view so its capacity
/// amortizes across commits (the fan-out hot path used to reallocate all of
/// this — including one `Vec` per product edge traversed — on every
/// commit). Cleared at the start of each `apply`; contents never carry
/// semantic state between commits, and the work counters are untouched by
/// the reuse (see the `work_counters` regression tests).
#[derive(Debug, Clone, Default)]
struct RpqScratch {
    /// The settle queue (phase 4; bucket queue, heap order): phases 2 and
    /// 3 push at any rank, phase 4 only at `d + 1` while it settles `d`.
    queue: BucketQueue<MarkKey>,
    /// Pending markings: the flagged ones in flag order (phase 1 output),
    /// then the ones phases 3–4 create; each has its entry's `affected`
    /// flag set until phase 5.
    affected: Vec<MarkKey>,
    /// identAff cascade stack.
    stack: Vec<MarkKey>,
    /// `(source, state)` buffer for endpoint marking scans.
    keys: Vec<(NodeId, StateId)>,
    /// Shortest-predecessor buffer for potential recomputation.
    mpre: Vec<(NodeId, StateId)>,
}

impl RpqScratch {
    /// Empty all buffers, retaining capacity.
    fn clear(&mut self) {
        self.queue.clear();
        self.affected.clear();
        self.stack.clear();
        self.keys.clear();
        self.mpre.clear();
    }
}

impl IncRpq {
    /// Build from a query expression: translate to an NFA, then run the
    /// instrumented batch traversal to create all markings.
    pub fn new(g: &DynamicGraph, query: &Regex) -> Self {
        Self::with_nfa(g, build_nfa(query))
    }

    /// A deferred constructor for lazy engine registration: the view's
    /// initial markings are built from the engine's *current* graph at
    /// registration time, so an RPQ tenant can join mid-stream
    /// (`engine.register_lazy("rpq:alice", IncRpq::init(query))`).
    pub fn init(query: Regex) -> impl FnOnce(&DynamicGraph) -> Self {
        move |g: &DynamicGraph| IncRpq::new(g, &query)
    }

    /// Build from a pre-constructed NFA.
    pub fn with_nfa(g: &DynamicGraph, nfa: Nfa) -> Self {
        Self::build(g, Arc::new(nfa))
    }

    fn build(g: &DynamicGraph, nfa: Arc<Nfa>) -> Self {
        let mut me = IncRpq {
            nfa,
            marks: Markings::new(g.node_count()),
            acc_count: FxHashMap::default(),
            answer: Arc::default(),
            work: WorkStats::new(),
            metrics: ChangeMetrics::default(),
            delta: RpqDelta::default(),
            scratch: RpqScratch::default(),
        };
        for u in g.nodes() {
            me.traverse_source(g, u);
        }
        me
    }

    /// The current answer `Q(G)` as match pairs.
    pub fn answer(&self) -> &FxHashSet<(NodeId, NodeId)> {
        &self.answer
    }

    /// True when `(u, v)` is a match.
    pub fn contains_pair(&self, u: NodeId, v: NodeId) -> bool {
        self.answer.contains(&(u, v))
    }

    /// Sorted matches for deterministic comparisons.
    pub fn sorted_answer(&self) -> Vec<(NodeId, NodeId)> {
        batch::sorted_answer(&self.answer)
    }

    /// Total number of markings (the auxiliary structure size) — 0 on a
    /// copy made by `clone_view`, which carries none.
    pub fn mark_count(&self) -> usize {
        self.marks.len()
    }

    /// The sorted `(key, rank)` signature of all markings. Two views that
    /// applied the same deltas have equal signatures; a fresh construction
    /// has the same keys ([`IncRpq::marking_keys`]) but may rank lower,
    /// since an incremental rank is not a distance.
    pub fn marking_signature(&self) -> Vec<(MarkKey, u32)> {
        let mut v: Vec<(MarkKey, u32)> = self.marks.iter().map(|(k, e)| (k, e.dist)).collect();
        v.sort_unstable();
        v
    }

    /// The sorted marking keys: the product configurations reached, equal
    /// to a fresh construction's after every `apply`.
    pub fn marking_keys(&self) -> Vec<MarkKey> {
        let mut v: Vec<MarkKey> = self.marks.iter().map(|(k, _)| k).collect();
        v.sort_unstable();
        v
    }

    /// True for a view with no markings to maintain: a copy made by
    /// `clone_view`, or a view built on an empty graph. (A maintained view
    /// tracks one marking map per graph node.)
    fn detached(&self) -> bool {
        self.marks.node_count() == 0
    }

    /// Change metrics of the last `apply`; `affected` is |AFF| as the
    /// module docs define it.
    pub fn last_metrics(&self) -> ChangeMetrics {
        self.metrics
    }

    /// Marking counters of the last `apply`.
    pub fn last_delta(&self) -> RpqDelta {
        self.delta
    }

    /// The NFA in use.
    pub fn nfa(&self) -> &Nfa {
        &self.nfa
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Instrumented product-graph BFS from one source, recording `dist` and
    /// `mpre` (all shortest predecessors, complete at construction).
    fn traverse_source(&mut self, g: &DynamicGraph, u: NodeId) {
        let seeds: Vec<StateId> = self.nfa.start_states(g.label(u)).to_vec();
        if seeds.is_empty() {
            return;
        }
        let mut queue: VecDeque<(NodeId, StateId)> = VecDeque::new();
        for s in seeds {
            let key = MarkKey {
                source: u,
                node: u,
                state: s,
            };
            if self.marks.get(key).is_none() {
                self.create_mark(key, 0, Vec::new());
                queue.push_back((u, s));
            }
        }
        while let Some((x, s)) = queue.pop_front() {
            self.work.nodes_visited += 1;
            let d = self.marks.dist(MarkKey {
                source: u,
                node: x,
                state: s,
            });
            for &y in g.successors(x) {
                let ly = g.label(y);
                for &t in self.nfa.next(s, ly).to_vec().iter() {
                    self.work.edges_traversed += 1;
                    let key = MarkKey {
                        source: u,
                        node: y,
                        state: t,
                    };
                    match self.marks.get_mut(key) {
                        None => {
                            self.create_mark(key, d + 1, vec![(x, s)]);
                            queue.push_back((y, t));
                        }
                        Some(e) if e.dist == d + 1 => {
                            if !e.mpre.contains(&(x, s)) {
                                e.mpre.push((x, s));
                            }
                        }
                        Some(_) => {}
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Answer bookkeeping
    // ------------------------------------------------------------------

    /// Create an unaffected marking; see [`IncRpq::insert_mark`].
    fn create_mark(&mut self, key: MarkKey, dist: u32, mpre: Vec<(NodeId, StateId)>) {
        self.insert_mark(key, MarkEntry::new(dist, mpre));
    }

    /// Insert a new marking, maintaining the accepting-state counters and
    /// the answer set.
    fn insert_mark(&mut self, key: MarkKey, entry: MarkEntry) {
        debug_assert!(self.marks.get(key).is_none());
        self.marks.set(key, entry);
        self.work.aux_touched += 1;
        self.delta.created += 1;
        // A created marking is part of AFF: it is data RPQ_NFA inspects on
        // G⊕ΔG that it did not inspect on G. (apply() resets the metrics,
        // so construction-time increments are discarded.)
        self.metrics.affected += 1;
        if self.nfa.is_accepting(key.state) {
            let pair = (key.source, key.node);
            let c = self.acc_count.entry(pair).or_insert(0);
            *c += 1;
            if *c == 1 && Arc::make_mut(&mut self.answer).insert(pair) {
                self.metrics.output_changes += 1;
            }
        }
    }

    /// Remove a marking, maintaining counters and the answer set.
    fn remove_mark(&mut self, key: MarkKey) {
        if self.marks.remove(key).is_none() {
            return;
        }
        self.work.aux_touched += 1;
        self.delta.removed += 1;
        if self.nfa.is_accepting(key.state) {
            let pair = (key.source, key.node);
            let c = self.acc_count.get_mut(&pair).expect("counted at creation");
            *c -= 1;
            if *c == 0 {
                self.acc_count.remove(&pair);
                Arc::make_mut(&mut self.answer).remove(&pair);
                self.metrics.output_changes += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Incremental phases
    // ------------------------------------------------------------------

    /// Take `pre` out of `key`'s supports. A marking left with none is
    /// affected — flagged, recorded in flag order, pushed on the
    /// cascade stack — unless it is a seed `(u, u, s)`, `s` a start state of
    /// `l(u)`, which exists independently of any edge.
    fn unlink(
        &mut self,
        g: &DynamicGraph,
        nfa: &Nfa,
        key: MarkKey,
        pre: (NodeId, StateId),
        sc: &mut RpqScratch,
    ) {
        let Some(e) = self.marks.get_mut(key).filter(|e| !e.affected) else {
            return; // not marked, or flagged already
        };
        e.mpre.retain(|&p| p != pre);
        if e.mpre.is_empty()
            && !(key.node == key.source
                && nfa.start_states(g.label(key.source)).contains(&key.state))
        {
            e.affected = true;
            sc.affected.push(key);
            sc.stack.push(key);
        }
    }

    /// Phase 1 — identAff: remove deleted/invalidated supports from `mpre`
    /// sets; entries whose `mpre` empties are affected, and the
    /// invalidation cascades along the product graph. Fills
    /// `scratch.affected` (flag order) and flags each entry.
    fn ident_aff(
        &mut self,
        g: &DynamicGraph,
        nfa: &Nfa,
        deletions: &[(NodeId, NodeId)],
        sc: &mut RpqScratch,
    ) {
        for &(v, w) in deletions {
            if !g.contains_node(v) || !g.contains_node(w) {
                continue;
            }
            // A target label the automaton never reads advances no
            // marking: skip before the source's markings are looked at.
            let lw = g.label(w);
            if !nfa.used_labels().contains(&lw) {
                continue;
            }
            if v.index() >= self.marks.node_count() || self.marks.none_at_node(v) {
                continue;
            }
            sc.keys.clear();
            sc.keys
                .extend(self.marks.at_node(v).map(|(u, s, _)| (u, s)));
            for ki in 0..sc.keys.len() {
                let (u, s_prime) = sc.keys[ki];
                for &t in nfa.next(s_prime, lw) {
                    self.work.aux_touched += 1;
                    let key_w = MarkKey {
                        source: u,
                        node: w,
                        state: t,
                    };
                    self.unlink(g, nfa, key_w, (v, s_prime), sc);
                }
            }
        }

        while let Some(key) = sc.stack.pop() {
            self.work.nodes_visited += 1;
            for &y in g.successors(key.node) {
                for &t in nfa.next(key.state, g.label(y)) {
                    self.work.edges_traversed += 1;
                    let key_y = MarkKey {
                        source: key.source,
                        node: y,
                        state: t,
                    };
                    self.unlink(g, nfa, key_y, (key.node, key.state), sc);
                }
            }
        }
    }

    /// Phase 2 — tentative ranks for affected markings from their
    /// unaffected in-neighbour markings (scanning in-neighbours through the
    /// inverse transition table; see the `marking` module docs for the
    /// `cpre` deviation). Every unaffected one that offers the least rank
    /// becomes a support; none offers less.
    fn compute_potentials(&mut self, g: &DynamicGraph, nfa: &Nfa, sc: &mut RpqScratch) {
        for ai in 0..sc.affected.len() {
            let key = sc.affected[ai];
            let states = nfa.prev(key.state, g.label(key.node));
            let mut best = INF_DIST;
            sc.mpre.clear();
            if !states.is_empty() {
                for &p in g.predecessors(key.node) {
                    self.work.edges_traversed += 1;
                    for &s_prime in states {
                        let key_p = MarkKey {
                            source: key.source,
                            node: p,
                            state: s_prime,
                        };
                        let Some(e) = self.marks.get(key_p).filter(|e| !e.affected) else {
                            continue;
                        };
                        let cand = e.dist.saturating_add(1);
                        if cand < best {
                            best = cand;
                            sc.mpre.clear();
                            sc.mpre.push((p, s_prime));
                        } else if cand == best && !sc.mpre.contains(&(p, s_prime)) {
                            sc.mpre.push((p, s_prime));
                        }
                    }
                }
            }
            let e = self.marks.get_mut(key).expect("affected marks persist");
            e.dist = best;
            e.mpre.clear();
            e.mpre.extend_from_slice(&sc.mpre);
            self.work.aux_touched += 1;
            if best != INF_DIST {
                sc.queue.push(best, key);
                self.work.queue_ops += 1;
            }
        }
    }

    /// Phase 3 — insertion seeding from unaffected source markings.
    fn seed_insertions(
        &mut self,
        g: &DynamicGraph,
        nfa: &Nfa,
        insertions: &[(NodeId, NodeId)],
        sc: &mut RpqScratch,
    ) {
        for &(v, w) in insertions {
            let lw = g.label(w);
            if !nfa.used_labels().contains(&lw) || self.marks.none_at_node(v) {
                continue;
            }
            sc.keys.clear();
            sc.keys
                .extend(self.marks.at_node(v).map(|(u, s, _)| (u, s)));
            for ki in 0..sc.keys.len() {
                let (u, s_prime) = sc.keys[ki];
                let key_v = MarkKey {
                    source: u,
                    node: v,
                    state: s_prime,
                };
                // An affected one, flagged or created by this batch, is
                // covered when it settles.
                let dv = match self.marks.get(key_v) {
                    Some(e) if !e.affected => e.dist,
                    _ => continue,
                };
                for &t in nfa.next(s_prime, lw) {
                    self.work.aux_touched += 1;
                    let key_w = MarkKey {
                        source: u,
                        node: w,
                        state: t,
                    };
                    self.relax(key_w, dv + 1, (v, s_prime), sc);
                }
            }
        }
    }

    /// Offer `key` the rank `cand` through `pre`, a marking of rank
    /// `cand − 1`. A marking that was valid before this `apply` keeps its
    /// rank, and `pre` joins its supports when it ranks below it. A pending
    /// one — flagged, or created by this `apply` — takes the least rank it
    /// is offered and is queued to settle at it.
    fn relax(&mut self, key: MarkKey, cand: u32, pre: (NodeId, StateId), sc: &mut RpqScratch) {
        match self.marks.get_mut(key) {
            None => {
                let entry = MarkEntry {
                    affected: true,
                    ..MarkEntry::new(cand, vec![pre])
                };
                self.insert_mark(key, entry);
                sc.affected.push(key);
                sc.queue.push(cand, key);
                self.work.queue_ops += 1;
            }
            Some(e) if e.affected && cand < e.dist => {
                e.dist = cand;
                e.mpre.clear();
                e.mpre.push(pre);
                self.work.aux_touched += 1;
                sc.queue.push(cand, key);
                self.work.queue_ops += 1;
            }
            Some(e) if cand <= e.dist => {
                if !e.mpre.contains(&pre) {
                    e.mpre.push(pre);
                }
            }
            Some(_) => {}
        }
    }

    /// Phase 4 — settle pending markings smallest rank first, relaxing
    /// product successors through the (post-update) graph. Bucket queue,
    /// heap order: equal ranks pop by key, and each `mpre` list fills in
    /// that order.
    fn settle(&mut self, g: &DynamicGraph, nfa: &Nfa, sc: &mut RpqScratch) {
        while let Some((d, key)) = sc.queue.pop() {
            self.work.queue_ops += 1;
            if self.marks.dist(key) != d {
                continue; // stale
            }
            self.work.nodes_visited += 1;
            self.delta.resettled += 1;
            for &y in g.successors(key.node) {
                for &t in nfa.next(key.state, g.label(y)) {
                    self.work.edges_traversed += 1;
                    let key_y = MarkKey {
                        source: key.source,
                        node: y,
                        state: t,
                    };
                    self.relax(key_y, d + 1, (key.node, key.state), sc);
                }
            }
        }
    }

    /// Hold one marking of rank `r` to its promise: a non-seed has a
    /// support; each support is a marking of rank `< r` that δ steps from
    /// over an edge of `g`; every such marking is listed, and none twice.
    /// `sorted` is a reused buffer for the sorted supports.
    fn audit_supports(
        &self,
        g: &DynamicGraph,
        key: MarkKey,
        e: &MarkEntry,
        sorted: &mut Vec<(NodeId, StateId)>,
    ) -> Result<(), String> {
        let lv = g.label(key.node);
        let seed = key.node == key.source && self.nfa.start_states(lv).contains(&key.state);
        if e.mpre.is_empty() && !seed {
            return Err(format!("rpq: marking {key:?} has no support"));
        }
        sorted.clear();
        sorted.extend_from_slice(&e.mpre);
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(format!("rpq: marking {key:?} lists a support twice"));
        }
        for &(p, s_prime) in &e.mpre {
            let support = MarkKey {
                source: key.source,
                node: p,
                state: s_prime,
            };
            let Some(se) = self.marks.get(support) else {
                return Err(format!("rpq: support {support:?} of {key:?} is not marked"));
            };
            if !self.nfa.next(s_prime, lv).contains(&key.state) {
                return Err(format!(
                    "rpq: δ does not step from support {support:?} to {key:?}"
                ));
            }
            if se.dist >= e.dist {
                return Err(format!(
                    "rpq: support {support:?} of {key:?} has rank {}, not below {}",
                    se.dist, e.dist
                ));
            }
        }
        // Every lower-ranked in-neighbour marking must be listed; the ones
        // found account for the whole list only if none is over an edge
        // that `g` lacks.
        let mut found = 0;
        for &p in g.predecessors(key.node) {
            for &s_prime in self.nfa.prev(key.state, lv) {
                let support = MarkKey {
                    source: key.source,
                    node: p,
                    state: s_prime,
                };
                if self.marks.get(support).is_none_or(|se| se.dist >= e.dist) {
                    continue;
                }
                if sorted.binary_search(&(p, s_prime)).is_err() {
                    return Err(format!(
                        "rpq: lower-ranked support {support:?} of {key:?} is missing"
                    ));
                }
                found += 1;
            }
        }
        if found != sorted.len() {
            return Err(format!(
                "rpq: a support of {key:?} is over an edge not in the graph"
            ));
        }
        Ok(())
    }
}

impl IncView for IncRpq {
    fn name(&self) -> &str {
        "rpq"
    }

    fn apply(&mut self, g: &DynamicGraph, delta: &UpdateBatch) {
        if self.detached() {
            // `g` already reflects `delta`, so a from-scratch build *is*
            // the post-state.
            let mut fresh = Self::build(g, Arc::clone(&self.nfa));
            fresh.work += self.work;
            fresh.metrics.input_updates = delta.len() as u64;
            *self = fresh;
            return;
        }
        self.metrics = ChangeMetrics {
            input_updates: delta.len() as u64,
            ..Default::default()
        };
        self.delta = RpqDelta::default();
        // The scratch moves out for the duration of the apply (so the
        // phases can borrow `self` and the buffers independently) and back
        // in at the end, carrying its grown capacity to the next commit;
        // the NFA is held beside `self` for the same reason.
        let mut sc = std::mem::take(&mut self.scratch);
        sc.clear();
        let nfa = Arc::clone(&self.nfa);

        // New nodes: create their seed markings.
        let old_nodes = self.marks.node_count();
        self.marks.grow(g.node_count());
        for i in old_nodes..g.node_count() {
            let u = NodeId::from_index(i);
            for &s in nfa.start_states(g.label(u)) {
                self.create_mark(
                    MarkKey {
                        source: u,
                        node: u,
                        state: s,
                    },
                    0,
                    Vec::new(),
                );
            }
        }

        let (deletions, insertions) = delta.split_edges();
        self.ident_aff(g, &nfa, &deletions, &mut sc);
        self.metrics.affected += sc.affected.len() as u64;
        self.delta.flagged = sc.affected.len() as u64;

        self.compute_potentials(g, &nfa, &mut sc);
        self.seed_insertions(g, &nfa, &insertions, &mut sc);
        self.settle(g, &nfa, &mut sc);

        // Phase 5 — unreachable affected markings disappear; the rest are
        // affected no longer.
        for &key in &sc.affected {
            let e = self.marks.get_mut(key).expect("affected marks persist");
            if e.dist == INF_DIST {
                self.remove_mark(key);
            } else {
                e.affected = false;
            }
        }
        self.scratch = sc;
    }

    fn work(&self) -> WorkStats {
        self.work
    }

    /// The NFA and the answer, shared; no markings — the copy's first
    /// `apply` rebuilds them from the graph it is handed.
    fn clone_view(&self) -> Box<dyn IncView> {
        Box::new(IncRpq {
            nfa: Arc::clone(&self.nfa),
            marks: Markings::default(),
            acc_count: FxHashMap::default(),
            answer: Arc::clone(&self.answer),
            work: self.work,
            metrics: self.metrics,
            delta: self.delta,
            scratch: RpqScratch::default(),
        })
    }

    /// Audit both layers of maintained state: the answer against a
    /// marking-free batch `RPQ_NFA` evaluation; then, in one pass over the
    /// markings, their key set against a fresh instrumented construction,
    /// no `affected` flag left behind by the last `apply`, and every
    /// marking's supports against the promise of [`crate::marking`] (skipped
    /// on a copy made by `clone_view`, which has no markings to audit).
    fn verify_against_batch(&self, g: &DynamicGraph) -> Result<(), String> {
        let mut w = WorkStats::new();
        let fresh_answer = batch::evaluate(g, &self.nfa, &mut w);
        if self.sorted_answer() != batch::sorted_answer(&fresh_answer) {
            return Err(format!(
                "rpq: maintained answer ({} pairs) diverged from batch RPQ_NFA ({} pairs)",
                self.answer.len(),
                fresh_answer.len()
            ));
        }
        if self.detached() {
            return Ok(());
        }
        let fresh = IncRpq::build(g, Arc::clone(&self.nfa));
        let mut sorted = Vec::new();
        for (key, e) in self.marks.iter() {
            if fresh.marks.get(key).is_none() {
                return Err(format!(
                    "rpq: marking {key:?} is not in a fresh construction"
                ));
            }
            if e.affected {
                return Err(format!(
                    "rpq: marking {key:?} left flagged affected after apply"
                ));
            }
            self.audit_supports(g, key, e, &mut sorted)?;
        }
        if self.mark_count() != fresh.mark_count() {
            return Err(format!(
                "rpq: markings ({}) diverged from a fresh construction ({})",
                self.mark_count(),
                fresh.mark_count()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igc_graph::graph::graph_from;
    use igc_graph::{LabelInterner, Update};

    fn setup(expr: &str, labels: &[&str], edges: &[(u32, u32)]) -> (DynamicGraph, IncRpq, Regex) {
        let mut it = LabelInterner::new();
        let ids: Vec<u32> = labels.iter().map(|l| it.intern(l).0).collect();
        let g = graph_from(&ids, edges);
        let q = Regex::parse(expr, &mut it).unwrap();
        let inc = IncRpq::new(&g, &q);
        (g, inc, q)
    }

    /// Oracle: answer equals a marking-free batch run; the marking keys
    /// equal a fresh instrumented construction's; the view's own audit
    /// agrees (it also holds every marking's rank and supports to their
    /// promise and rejects an `affected` flag left behind).
    fn assert_matches_batch(inc: &IncRpq, g: &DynamicGraph) {
        igc_core::IncView::verify_against_batch(inc, g).unwrap();
        let mut w = WorkStats::new();
        let fresh_answer = batch::evaluate(g, inc.nfa(), &mut w);
        assert_eq!(
            inc.sorted_answer(),
            batch::sorted_answer(&fresh_answer),
            "answer diverged from batch RPQ_NFA"
        );
        let fresh = IncRpq::with_nfa(g, inc.nfa().clone());
        assert_eq!(
            inc.marking_keys(),
            fresh.marking_keys(),
            "marking keys diverged from a fresh construction"
        );
    }

    #[test]
    fn example4_construction() {
        // c1=0 b1=1 a1=2 c2=3 b3=4 a2=5; Q = c·(b·a+c)*·c
        let (g, inc, _) = setup(
            "c.(b.a+c)*.c",
            &["c", "b", "a", "c", "b", "a"],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3)],
        );
        assert_eq!(
            inc.sorted_answer(),
            vec![(NodeId(0), NodeId(3)), (NodeId(3), NodeId(3))]
        );
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn example5_deletion_and_insertion_interleaved() {
        // Delete the b3-route and insert an alternative in one batch; the
        // (c2, c2) match must survive through the new path — the paper's
        // Example 5 behaviour.
        let (mut g, mut inc, _) = setup(
            "c.(b.a+c)*.c",
            // c1 b1 a1 c2 b3 a2 + spare b2(6) a3(7)
            &["c", "b", "a", "c", "b", "a", "b", "a"],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3)],
        );
        assert!(inc.contains_pair(NodeId(3), NodeId(3)));
        let delta = UpdateBatch::from_updates(vec![
            Update::delete(NodeId(3), NodeId(4)), // cut c2→b3
            Update::insert(NodeId(3), NodeId(6)), // c2→b2
            Update::insert(NodeId(6), NodeId(7)), // b2→a3
            Update::insert(NodeId(7), NodeId(3)), // a3→c2
        ]);
        g.apply_batch(&delta);
        inc.apply(&g, &delta);
        assert!(inc.contains_pair(NodeId(3), NodeId(3)));
        assert!(inc.contains_pair(NodeId(0), NodeId(3)));
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn deletion_removes_match() {
        let (mut g, mut inc, _) = setup("a.b", &["a", "b"], &[(0, 1)]);
        assert!(inc.contains_pair(NodeId(0), NodeId(1)));
        g.delete_edge(NodeId(0), NodeId(1));
        inc.apply(
            &g,
            &UpdateBatch::from_updates(vec![Update::delete(NodeId(0), NodeId(1))]),
        );
        assert!(!inc.contains_pair(NodeId(0), NodeId(1)));
        assert_eq!(inc.answer().len(), 0);
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn deletion_with_alternative_path_keeps_match() {
        // two disjoint a→b edges from the same source via different walks:
        // a(0) → b(1) and a(0) → b(2); query a.b
        let (mut g, mut inc, _) = setup("a.b", &["a", "b", "b"], &[(0, 1), (0, 2)]);
        g.delete_edge(NodeId(0), NodeId(1));
        inc.apply(
            &g,
            &UpdateBatch::from_updates(vec![Update::delete(NodeId(0), NodeId(1))]),
        );
        assert!(!inc.contains_pair(NodeId(0), NodeId(1)));
        assert!(inc.contains_pair(NodeId(0), NodeId(2)));
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn insertion_creates_match_through_star() {
        let (mut g, mut inc, _) = setup("a.b*.c", &["a", "b", "b", "c"], &[(0, 1), (2, 3)]);
        assert!(inc.answer().is_empty());
        g.insert_edge(NodeId(1), NodeId(2));
        inc.apply(
            &g,
            &UpdateBatch::from_updates(vec![Update::insert(NodeId(1), NodeId(2))]),
        );
        assert!(inc.contains_pair(NodeId(0), NodeId(3)));
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn deletion_inside_cycle_keeps_reachability_via_longer_path() {
        // 3-cycle of a's, query a·a*: deleting one edge keeps some pairs.
        let (mut g, mut inc, _) = setup("a.a*", &["a", "a", "a"], &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(inc.answer().len(), 9);
        g.delete_edge(NodeId(2), NodeId(0));
        inc.apply(
            &g,
            &UpdateBatch::from_updates(vec![Update::delete(NodeId(2), NodeId(0))]),
        );
        // Remaining: path 0→1→2 gives (0,0),(0,1),(0,2),(1,1),(1,2),(2,2)
        assert_eq!(inc.answer().len(), 6);
        assert_matches_batch(&inc, &g);
    }

    /// The seed test of `identAff`, both conjuncts, on the 2-cycle `0 ⇄ 1`
    /// losing the edge back into node 0. A marking at its own source is
    /// flagged when its state is no start state (`a.a*` re-enters 0 in the
    /// star state, `a.b.a` in the last one) and is left alone when it is
    /// one, though its `mpre` is empty (`a*.a` re-enters 0 in both of its
    /// start states): a seed exists independently of any edge.
    #[test]
    fn seed_with_empty_mpre_is_not_flagged_and_survives() {
        // Query, label of node 1, flagged = removed, answer afterwards.
        let case = |expr: &str, l1: &str, flagged: u64, answer: &[(u32, u32)]| {
            let (mut g, mut inc, _) = setup(expr, &["a", l1], &[(0, 1), (1, 0)]);
            assert!(inc.contains_pair(NodeId(0), NodeId(0)), "{expr}");
            let seeds = |inc: &IncRpq| {
                let sig = inc.marking_signature();
                sig.iter().filter(|(_, d)| *d == 0).count()
            };
            let seeds_before = seeds(&inc);
            let delta = UpdateBatch::from_updates(vec![Update::delete(NodeId(1), NodeId(0))]);
            g.apply_batch(&delta);
            inc.apply(&g, &delta);
            let d = inc.last_delta();
            assert_eq!((d.flagged, d.removed), (flagged, flagged), "{expr}");
            assert_eq!((d.created, d.resettled), (0, 0), "{expr}");
            assert_eq!(seeds(&inc), seeds_before, "{expr}: a seed went");
            let pairs: Vec<_> = answer
                .iter()
                .map(|&(u, v)| (NodeId(u), NodeId(v)))
                .collect();
            assert_eq!(inc.sorted_answer(), pairs, "{expr}");
            assert_matches_batch(&inc, &g);
        };
        case("a.a*", "a", 3, &[(0, 0), (0, 1), (1, 1)]);
        case("a.b.a", "b", 1, &[]);
        case("a*.a", "a", 2, &[(0, 0), (0, 1), (1, 1)]);
    }

    /// A self-loop inserted at a node that carries markings: the markings
    /// insertion seeding starts from are at the edge's own target, so one
    /// relaxation feeds the next. Under `a.(a+b.b.b).a.a` each source `u`
    /// holds `(u, 7)` in state 2 at rank 1 (the edge `u → 7`) and in state
    /// 6 at rank 4 (through the `b`s). `7 → 7` offers the second rank 2
    /// from the first; it was valid before the `apply`, so it keeps rank 4
    /// and takes the first as one more support — it is no longer lowered
    /// to 2, nor settled again. What the test still guards is that seeding
    /// reads a marking's rank and flag at use time, not with the node's
    /// keys: state 7 is created once per source, at rank 5, and settles
    /// once. The counters were re-captured when ranks replaced distances.
    #[test]
    fn self_loop_insertion_sees_relaxations_of_the_same_batch() {
        let (mut g, mut inc, _) = setup(
            "a.(a+b.b.b).a.a",
            &["a", "a", "a", "a", "b", "b", "b", "a"],
            &[
                (0, 7),
                (1, 7),
                (2, 7),
                (3, 7),
                (0, 4),
                (1, 4),
                (2, 4),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
            ],
        );
        assert!(inc.answer().is_empty());
        let before = inc.work();
        let delta = UpdateBatch::from_updates(vec![Update::insert(NodeId(7), NodeId(7))]);
        g.apply_batch(&delta);
        inc.apply(&g, &delta);
        assert_matches_batch(&inc, &g);
        assert_eq!(inc.answer().len(), 5, "(u, 7) for the four sources and 7");
        let w = inc.work().since(&before);
        assert_eq!(
            (
                w.nodes_visited,
                w.edges_traversed,
                w.aux_touched,
                w.queue_ops
            ),
            (7, 2, 16, 14)
        );
        assert_eq!(inc.last_metrics().affected, 7);
        let d = inc.last_delta();
        assert_eq!((d.flagged, d.removed, d.created), (0, 0, 7));
    }

    /// The audit rejects an `affected` flag that outlives its `apply`.
    #[test]
    fn audit_rejects_a_flag_left_behind() {
        let (g, mut inc, _) = setup("a.b", &["a", "b"], &[(0, 1)]);
        assert_matches_batch(&inc, &g);
        let key = MarkKey {
            source: NodeId(0),
            node: NodeId(1),
            state: 2,
        };
        inc.marks
            .get_mut(key)
            .expect("a.b reaches (1, s2)")
            .affected = true;
        let err = igc_core::IncView::verify_against_batch(&inc, &g).unwrap_err();
        assert!(err.contains("flagged affected"), "{err}");
    }

    /// The one marking of `source` at `node`.
    fn only_mark(inc: &IncRpq, source: u32, node: u32) -> MarkKey {
        let mut at = inc
            .marks
            .at_node(NodeId(node))
            .filter(|&(u, _, _)| u == NodeId(source));
        let (_, state, _) = at.next().expect("marked");
        assert!(at.next().is_none(), "one marking of {source} at {node}");
        MarkKey {
            source: NodeId(source),
            node: NodeId(node),
            state,
        }
    }

    /// The diamond `a(0) → b(1), b(2) → c(3)` under `a.b.c`: the marking
    /// of source 0 at node 3 has rank 2 and the two supports at 1 and 2,
    /// both of rank 1. The audit passes before `corrupt` runs and must
    /// fail after, with `expected` in its message.
    fn audit_rejects(corrupt: impl FnOnce(&mut DynamicGraph, &mut IncRpq), expected: &str) {
        let (mut g, mut inc, _) = setup(
            "a.b.c",
            &["a", "b", "b", "c"],
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
        );
        assert_matches_batch(&inc, &g);
        let top = only_mark(&inc, 0, 3);
        let e = inc.marks.get(top).unwrap();
        assert_eq!((e.dist, e.mpre.len()), (2, 2));
        corrupt(&mut g, &mut inc);
        let err = igc_core::IncView::verify_against_batch(&inc, &g).unwrap_err();
        assert!(err.contains(expected), "{err}");
    }

    #[test]
    fn audit_rejects_a_rank_not_above_its_supports() {
        audit_rejects(
            |_, inc| {
                let top = only_mark(inc, 0, 3);
                inc.marks.get_mut(top).unwrap().dist = 1;
            },
            "not below",
        );
    }

    /// The edge `1 → 3` goes from the graph but not from the markings: the
    /// key set and the answer still match, only the support list is stale.
    #[test]
    fn audit_rejects_a_support_over_a_deleted_edge() {
        audit_rejects(
            |g, _| {
                g.delete_edge(NodeId(1), NodeId(3));
            },
            "over an edge not in the graph",
        );
    }

    #[test]
    fn audit_rejects_a_missing_lower_ranked_support() {
        audit_rejects(
            |_, inc| {
                let top = only_mark(inc, 0, 3);
                inc.marks.get_mut(top).unwrap().mpre.pop();
            },
            "is missing",
        );
    }

    /// Node 1 (labelled `b`) is no source of `a.b.c`, so a fresh build
    /// marks nothing for it.
    #[test]
    fn audit_rejects_a_marking_the_fresh_build_lacks() {
        audit_rejects(
            |_, inc| {
                let top = only_mark(inc, 0, 3);
                let stray = MarkKey {
                    source: NodeId(1),
                    ..top
                };
                inc.marks
                    .set(stray, MarkEntry::new(1, vec![(NodeId(1), 1)]));
            },
            "not in a fresh construction",
        );
    }

    /// The chain `a(0) → b(1) → b(2) → c(3)` under `a.b*.c`.
    fn chain() -> (DynamicGraph, IncRpq) {
        let (g, inc, _) = setup("a.b*.c", &["a", "b", "b", "c"], &[(0, 1), (1, 2), (2, 3)]);
        (g, inc)
    }

    /// A shortcut `0 → 2` reaches no configuration that was not reached:
    /// the marking at node 2 keeps rank 2, gains the source's seed as a
    /// second support, and nothing is flagged, created, settled or removed.
    #[test]
    fn shortcut_to_a_reached_configuration_only_adds_a_support() {
        let (mut g, mut inc) = chain();
        let signature = inc.marking_signature();
        let delta = UpdateBatch::from_updates(vec![Update::insert(NodeId(0), NodeId(2))]);
        g.apply_batch(&delta);
        inc.apply(&g, &delta);
        assert_matches_batch(&inc, &g);
        assert_eq!(inc.last_delta(), RpqDelta::default());
        assert_eq!(inc.last_metrics().output_changes, 0);
        assert_eq!(inc.marking_signature(), signature);
        let seed = only_mark(&inc, 0, 0);
        let e = inc.marks.get(only_mark(&inc, 0, 2)).unwrap();
        assert_eq!(e.dist, 2);
        assert!(e.mpre.contains(&(seed.node, seed.state)), "{:?}", e.mpre);
    }

    /// The mirror: once the shortcut is in, the marking at node 2 has two
    /// lower-ranked supports, and deleting the edge under one of them
    /// flags nothing.
    #[test]
    fn deleting_one_of_two_lower_ranked_supports_flags_nothing() {
        let (mut g, mut inc) = chain();
        let shortcut = UpdateBatch::from_updates(vec![Update::insert(NodeId(0), NodeId(2))]);
        g.apply_batch(&shortcut);
        inc.apply(&g, &shortcut);
        let signature = inc.marking_signature();
        let delta = UpdateBatch::from_updates(vec![Update::delete(NodeId(1), NodeId(2))]);
        g.apply_batch(&delta);
        inc.apply(&g, &delta);
        assert_matches_batch(&inc, &g);
        assert_eq!(inc.last_delta(), RpqDelta::default());
        assert_eq!(inc.last_metrics().output_changes, 0);
        assert_eq!(inc.marking_signature(), signature);
        let seed = only_mark(&inc, 0, 0);
        let e = inc.marks.get(only_mark(&inc, 0, 2)).unwrap();
        assert_eq!(e.mpre, vec![(seed.node, seed.state)]);
    }

    #[test]
    fn new_node_with_seed_match() {
        // Query "a": a single a-labelled node matches itself on creation.
        let (mut g, mut inc, _) = setup("a", &["b"], &[]);
        assert!(inc.answer().is_empty());
        // Interner order in setup(): "b" = Label(0) (node labels first),
        // then the query's "a" = Label(1).
        let delta = UpdateBatch::from_updates(vec![Update::insert_labeled(
            NodeId(0),
            NodeId(1),
            None,
            Some(igc_graph::Label(1)),
        )]);
        g.apply_batch(&delta);
        inc.apply(&g, &delta);
        assert!(inc.contains_pair(NodeId(1), NodeId(1)));
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn self_loop_and_star() {
        let (mut g, mut inc, _) = setup("a.a*", &["a"], &[]);
        assert_eq!(inc.answer().len(), 1); // (0,0) via the single symbol
        g.insert_edge(NodeId(0), NodeId(0));
        inc.apply(
            &g,
            &UpdateBatch::from_updates(vec![Update::insert(NodeId(0), NodeId(0))]),
        );
        assert_eq!(inc.answer().len(), 1);
        assert_matches_batch(&inc, &g);
    }

    #[test]
    fn randomized_batches_match_batch_algorithm() {
        use igc_graph::generator::{random_update_batch, uniform_graph};
        for seed in 0..6 {
            let mut g = uniform_graph(30, 90, 3, seed);
            let mut it = LabelInterner::new();
            // Labels are numeric strings "0".."2" — intern to ids 0..2 to
            // align with the generator's label ids.
            let q = Regex::parse("l0.(l1+l2)*.l2", &mut it).unwrap();
            // Interner ids follow first-use order: l0→0, l1→1, l2→2 ✓
            let mut inc = IncRpq::new(&g, &q);
            assert_matches_batch(&inc, &g);
            for round in 0..3 {
                let delta = random_update_batch(&g, 10, 0.5, seed * 7 + round);
                g.apply_batch(&delta);
                inc.apply(&g, &delta);
                assert_matches_batch(&inc, &g);
            }
        }
    }

    #[test]
    fn randomized_unit_updates_match_batch_algorithm() {
        use igc_core::incremental::apply_one_by_one;
        use igc_graph::generator::{random_update_batch, uniform_graph};
        for seed in 10..14 {
            let mut g = uniform_graph(25, 60, 3, seed);
            let mut it = LabelInterner::new();
            let q = Regex::parse("l0.l1*.l2", &mut it).unwrap();
            let mut inc = IncRpq::new(&g, &q);
            let delta = random_update_batch(&g, 8, 0.5, seed);
            apply_one_by_one(&mut inc, &mut g, &delta);
            assert_matches_batch(&inc, &g);
        }
    }

    /// Buffer-reuse regression: the scratch refactor hoists allocations out
    /// of the hot loops but must not change what the algorithm *does*. The
    /// golden counters below were first captured from the pre-scratch
    /// implementation (per-edge `to_vec` clones, per-apply heap/set
    /// construction) on this exact deterministic scenario, and re-captured
    /// when ranks replaced distances; the reused buffers must reproduce
    /// them to the last unit.
    #[test]
    fn work_counters_unchanged_by_buffer_reuse() {
        use igc_graph::generator::{random_update_batch, uniform_graph};
        let mut g = uniform_graph(60, 240, 3, 42);
        let mut it = LabelInterner::new();
        let q = Regex::parse("l0.(l1+l2)*.l2", &mut it).unwrap();
        let mut inc = IncRpq::new(&g, &q);
        let before = inc.work();
        for round in 0..5u64 {
            let delta = random_update_batch(&g, 12, 0.5, 1000 + round);
            g.apply_batch(&delta);
            inc.apply(&g, &delta);
        }
        let w = inc.work().since(&before);
        assert_eq!(
            w.nodes_visited, 359,
            "nodes_visited drifted from pre-refactor golden"
        );
        assert_eq!(
            w.edges_traversed, 1413,
            "edges_traversed drifted from pre-refactor golden"
        );
        assert_eq!(
            w.aux_touched, 727,
            "aux_touched drifted from pre-refactor golden"
        );
        assert_eq!(
            w.queue_ops, 302,
            "queue_ops drifted from pre-refactor golden"
        );
        assert_eq!(inc.answer().len(), 192);
        assert_eq!(inc.mark_count(), 966);
        assert_matches_batch(&inc, &g);
    }

    /// The deletion-heavy companion of the golden above (delete share 0.8,
    /// 8 rounds): `identAff`'s cascade, the potentials and the removal of
    /// markings that never settle carry this one, where insertions carry
    /// the other. Captured from the implementation that kept the affected
    /// flag in a side set and probed δ through a hash map, and re-captured
    /// when ranks replaced distances.
    #[test]
    fn work_counters_unchanged_on_deletion_heavy_run() {
        use igc_graph::generator::{random_update_batch, uniform_graph};
        let mut g = uniform_graph(60, 240, 3, 42);
        let mut it = LabelInterner::new();
        let q = Regex::parse("l0.(l1+l2)*.l2", &mut it).unwrap();
        let mut inc = IncRpq::new(&g, &q);
        let before = inc.work();
        let mut affected = 0;
        let mut output_changes = 0;
        for round in 0..8u64 {
            let delta = random_update_batch(&g, 15, 0.2, 2000 + round);
            g.apply_batch(&delta);
            inc.apply(&g, &delta);
            affected += inc.last_metrics().affected;
            output_changes += inc.last_metrics().output_changes;
        }
        let w = inc.work().since(&before);
        assert_eq!(
            (
                w.nodes_visited,
                w.edges_traversed,
                w.aux_touched,
                w.queue_ops
            ),
            (1886, 7517, 3025, 1306),
            "work drifted from the golden"
        );
        assert_eq!((affected, output_changes), (1331, 155));
        assert_eq!(inc.answer().len(), 87);
        assert_eq!(inc.mark_count(), 419);
        assert_matches_batch(&inc, &g);
    }

    /// Digest of the ordered marking state: every marking's key and
    /// distance in key order, each with its `mpre` in list order. `relax`
    /// appends predecessors in the order the settle queue pops, so a tie
    /// broken differently changes this digest where `WorkStats` stay equal.
    fn marking_digest(inc: &IncRpq) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut keys: Vec<MarkKey> = Vec::new();
        for n in 0..inc.marks.node_count() {
            let node = NodeId::from_index(n);
            keys.extend(inc.marks.at_node(node).map(|(source, state, _)| MarkKey {
                source,
                node,
                state,
            }));
        }
        keys.sort_unstable();
        let mut h = igc_graph::fxhash::FxHasher::default();
        keys.len().hash(&mut h);
        for key in keys {
            let e = inc.marks.get(key).expect("listed above");
            (key, e.dist, &e.mpre).hash(&mut h);
        }
        h.finish()
    }

    /// The two `WorkStats` goldens above, replayed and held to the ordered
    /// marking state they leave (`marking_digest`). Captured from the
    /// implementation that settled through a `BinaryHeap`, and re-captured
    /// when ranks replaced distances.
    #[test]
    fn ordered_marking_state_golden() {
        use igc_graph::generator::{random_update_batch, uniform_graph};
        let run = |count: usize, rho_insert: f64, seed: u64, rounds: u64| {
            let mut g = uniform_graph(60, 240, 3, 42);
            let mut it = LabelInterner::new();
            let q = Regex::parse("l0.(l1+l2)*.l2", &mut it).unwrap();
            let mut inc = IncRpq::new(&g, &q);
            for round in 0..rounds {
                let delta = random_update_batch(&g, count, rho_insert, seed + round);
                g.apply_batch(&delta);
                inc.apply(&g, &delta);
            }
            marking_digest(&inc)
        };
        assert_eq!(
            run(12, 0.5, 1000, 5),
            16437893602985153000,
            "buffer-reuse scenario"
        );
        assert_eq!(
            run(15, 0.2, 2000, 8),
            4712441307238178147,
            "deletion-heavy scenario"
        );
    }

    /// Scratch contents must be semantically inert: a view whose buffers
    /// are dirty from earlier commits and a clone whose buffers were wiped
    /// must do bit-identical work on the next delta.
    #[test]
    fn dirty_scratch_equals_clean_scratch() {
        use igc_graph::generator::{random_update_batch, uniform_graph};
        let mut g = uniform_graph(40, 140, 3, 7);
        let mut it = LabelInterner::new();
        let q = Regex::parse("l0.(l1+l2)*.l2", &mut it).unwrap();
        let mut dirty = IncRpq::new(&g, &q);
        for round in 0..3u64 {
            let delta = random_update_batch(&g, 10, 0.5, 500 + round);
            g.apply_batch(&delta);
            dirty.apply(&g, &delta);
        }
        let mut clean = dirty.clone();
        clean.scratch = RpqScratch::default();
        let before = dirty.work();
        let delta = random_update_batch(&g, 10, 0.5, 999);
        g.apply_batch(&delta);
        dirty.apply(&g, &delta);
        clean.apply(&g, &delta);
        assert_eq!(dirty.work().since(&before), clean.work().since(&before));
        assert_eq!(dirty.sorted_answer(), clean.sorted_answer());
        assert_eq!(dirty.marking_signature(), clean.marking_signature());
    }

    #[test]
    fn work_accumulates() {
        let (mut g, mut inc, _) = setup("a.b", &["a", "b", "b"], &[(0, 1)]);
        let before = inc.work();
        g.insert_edge(NodeId(0), NodeId(2));
        inc.apply(
            &g,
            &UpdateBatch::from_updates(vec![Update::insert(NodeId(0), NodeId(2))]),
        );
        assert!(inc.work().since(&before).total() > 0);
    }
}
