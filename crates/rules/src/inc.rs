//! `IncRules` — incremental maintenance of a rule program's derived facts.
//!
//! # Algorithm
//!
//! The view keeps, for every derived fact, a **support count** — the number
//! of valid rule instantiations deriving it in the current database — and a
//! **derivation rank**, set when the fact becomes derived: a stamp that
//! only grows, so a fact's first derivation used facts ranked strictly
//! below it. Maintenance under a normalized batch `ΔG` runs three phases:
//!
//! 1. **Deletion (counting) pass** — deleted edges, then derived facts
//!    whose support hits zero, stream through a worklist one token at a
//!    time. Processing a token enumerates, per rule, the instantiations it
//!    participates in (semi-naive: the token pinned at one body position,
//!    the rest joined against the current view) and decrements the heads.
//!    Count-zero heads are genuinely underivable and propagate. A head
//!    whose count stays positive is a *suspect* — its remaining support
//!    may be cyclic (a fact "deriving itself" through a dependency cycle,
//!    which a pure counting scheme would incorrectly keep alive) — unless
//!    its predicate is not recursive (counts of a non-recursive predicate
//!    are exact) or the lost instantiation used a fact ranked *above* it
//!    (then that was not the derivation its rank certifies).
//! 2. **Repair** — suspects are examined lowest rank first. Everything
//!    ranked below the suspect at hand is settled by then, so one
//!    head-bound search decides it: a surviving derivation through facts
//!    ranked below it clears the suspect, at the cost of its in-degree. A
//!    suspect without one is retracted *through the counting worklist of
//!    phase 1* — heads decremented, count-zero heads propagate, survivors
//!    ranked above it join the suspects. When the suspects run out, every
//!    retracted fact is re-grounded (derivations counted afresh in the
//!    database without the retracted facts) and the insertion machinery
//!    propagates from the ones that still hold: facts with only
//!    higher-ranked support come back under a fresh rank, cyclic support
//!    does not, and support counts stay exact throughout.
//! 3. **Insertion pass** — fresh node-label facts and inserted edges
//!    stream through the same worklist machinery with increments instead
//!    of decrements; derived facts whose count leaves zero become visible
//!    and propagate.
//!
//! **Invariant.** Between applies every derived fact has a derivation all
//! of whose derived body facts rank strictly below it (so following such
//! derivations down always ends at base facts: the support is well
//! founded), and its support counts every derivation, certified or not.
//!
//! What the repair phase retracts is the facts whose *certified* derivation
//! broke, not everything downstream of a suspect; [`RulesDelta`] reports
//! both (`suspects`, `overdeleted`). Ranks record the order in which facts
//! were derived, so `WorkStats` depend on a view's history: a view rebuilt
//! on the same graph holds the same facts and counts, but may clear a
//! suspect the maintained one retracts and re-derives (or the reverse).
//!
//! Exactly-once counting uses the pin discipline documented in
//! `crate::eval`. Both directions are *bounded by affected facts*: work
//! is proportional to the instantiations the changed facts participate in,
//! not to the database or to from-scratch re-evaluation (the
//! deletion-storm regression tests in `igc_bench` assert this on work
//! counters).
//!
//! **The batch overlay.** The graph an `apply` is handed already reflects
//! the whole batch, so the passes join against an overlay that hides
//! inserted edges and fresh nodes until their token is processed and keeps
//! deleted edges visible until theirs is. The worklists take node tokens in
//! id order and edge tokens in the batch's sorted order, so what is still
//! pending is always a suffix of a sorted list: the overlay (`Pending`) is
//! three cursors over the batch's edges packed into `u64` keys, sorted once
//! per apply. A neighbour walk tests a neighbour only when its node's range
//! of pending edges — nearly always empty — is not, and a token is tried
//! only against the body atoms of its own kind. At each such atom it first
//! meets the atom's *guards* (`Program::pin_sites`): the rule's other atoms
//! whose terms the pin alone binds, label checks first, then edge
//! membership under the overlay, then fact lookups. A token one of them
//! rejects is dropped before any join, one probe in; one they all pass
//! runs the positional join unchanged. The build is the same insertion
//! pass over every node and every edge.

use crate::ast::{Atom, PredId, Program, Term, MAX_ARITY};
use crate::eval::{
    bind_pinned, for_each_instantiation, head_fact, Bind, Fact, FactView, Pin, Token,
};
use crate::naive::naive_fixpoint;
use igc_core::work::{ChangeMetrics, WorkStats};
use igc_core::IncView;
use igc_graph::fxhash::{FxHashMap, FxHashSet};
use igc_graph::{DynamicGraph, Edge, Label, NodeId, UpdateBatch};
use std::cell::{Cell, OnceCell};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// Per-`apply` maintenance counters — the observable shape of one delta:
/// how much was retracted outright, how much the repair phase had to
/// over-delete and re-derive, and whether repair ran at all.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RulesDelta {
    /// Derived facts that became true.
    pub facts_added: u64,
    /// Derived facts that became false (including repair casualties).
    pub facts_removed: u64,
    /// Facts decremented but left alive whose certified derivation may
    /// have been the one lost — each examined once by the repair phase.
    pub suspects: u64,
    /// Facts tentatively removed by the repair phase: suspects without a
    /// lower-ranked derivation, and what their retraction took along.
    pub overdeleted: u64,
    /// Over-deleted facts that proved well-founded and came back.
    pub rederived: u64,
    /// Number of repair phases that retracted anything (0 or 1 per apply).
    pub repairs: u64,
}

/// What the view keeps per derived fact.
#[derive(Clone, Copy, Debug)]
struct Support {
    /// Valid rule instantiations deriving the fact.
    count: u32,
    /// Derivation rank: some derivation uses only facts ranked below.
    rank: u64,
}

/// Visible derived facts, positionally indexed, plus support counts and
/// derivation ranks.
#[derive(Clone, Debug, Default)]
struct FactStore {
    by_pred: Vec<FxHashSet<Fact>>,
    index: FxHashMap<(PredId, u8, NodeId), FxHashSet<Fact>>,
    support: FxHashMap<Fact, Support>,
    /// The last rank handed out; ranks start at 1.
    last_rank: u64,
}

impl FactStore {
    fn new(preds: usize) -> FactStore {
        FactStore {
            by_pred: vec![FxHashSet::default(); preds],
            ..FactStore::default()
        }
    }

    fn visible(&self, f: &Fact) -> bool {
        self.by_pred[f.pred.0 as usize].contains(f)
    }

    fn insert_visible(&mut self, f: Fact) {
        self.by_pred[f.pred.0 as usize].insert(f);
        for (i, &n) in f.args().iter().enumerate() {
            self.index
                .entry((f.pred, i as u8, n))
                .or_default()
                .insert(f);
        }
    }

    fn remove_visible(&mut self, f: &Fact) {
        self.by_pred[f.pred.0 as usize].remove(f);
        for (i, &n) in f.args().iter().enumerate() {
            if let Some(set) = self.index.get_mut(&(f.pred, i as u8, n)) {
                set.remove(f);
                if set.is_empty() {
                    self.index.remove(&(f.pred, i as u8, n));
                }
            }
        }
    }

    fn fresh_rank(&mut self) -> u64 {
        self.last_rank += 1;
        self.last_rank
    }
}

/// An edge as one sortable key: source in the high half, target in the
/// low half, so a sorted key list is sorted by `(source, target)`.
fn key(u: NodeId, v: NodeId) -> u64 {
    (u.0 as u64) << 32 | v.0 as u64
}

/// The edge a [`key`] packs.
fn unkey(k: u64) -> Edge {
    (NodeId((k >> 32) as u32), NodeId(k as u32))
}

/// The token of the edge a [`key`] packs.
fn edge_token(&k: &u64) -> Token {
    let (u, v) = unkey(k);
    Token::Edge(u, v)
}

/// The keys of `sorted` whose high half is `n`: one node's out-edges in a
/// source-keyed list, its in-edges in a target-keyed one.
fn range_of(sorted: &[u64], n: NodeId) -> &[u64] {
    let lo = sorted.partition_point(|&k| (k >> 32) < n.0 as u64);
    let len = sorted[lo..].partition_point(|&k| (k >> 32) == n.0 as u64);
    &sorted[lo..lo + len]
}

/// The first key of a cursor's pending suffix: a key of its list is still
/// pending iff it is at least this.
fn first(pending: &[u64]) -> u64 {
    pending.first().copied().unwrap_or(u64::MAX)
}

/// `sorted` re-keyed by target (`(target, source)` keys), sorted.
fn by_target(sorted: &[u64]) -> Vec<u64> {
    let mut t: Vec<u64> = sorted.iter().map(|&k| k.rotate_left(32)).collect();
    t.sort_unstable();
    t
}

/// The in-transition visibility overlay for one `apply` (module docs): three
/// cursors over the sorted batch. The worklists consume node tokens in id
/// order and edge tokens in the order of `ins` / `dels` — asserted as each
/// is consumed — so an edge of the batch is still pending iff its key is at
/// or past its list's cursor.
#[derive(Debug, Default)]
struct Pending {
    /// Inserted edges, sorted; `ins[ins_at..]` are not yet revealed.
    ins: Vec<u64>,
    ins_at: usize,
    /// Deleted edges, sorted; `dels[dels_at..]` are gone from the graph
    /// but still visible.
    dels: Vec<u64>,
    dels_at: usize,
    /// Both lists keyed by target, so a node's inserted or deleted in-edges
    /// are one range — built on the first walk into in-edges that needs
    /// them (the deletion and insertion passes of most programs never do).
    ins_by_target: OnceCell<Vec<u64>>,
    dels_by_target: OnceCell<Vec<u64>>,
    /// Nodes below this id have their label fact visible: the nodes that
    /// existed before the batch, then each fresh node as it is revealed.
    node_floor: usize,
}

impl Pending {
    /// The overlay of a batch that deletes `dels` and inserts `ins` (edge
    /// keys, any order) and brings fresh nodes from `node_floor` on.
    fn new(mut dels: Vec<u64>, mut ins: Vec<u64>, node_floor: usize) -> Pending {
        dels.sort_unstable();
        ins.sort_unstable();
        Pending {
            ins,
            dels,
            node_floor,
            ..Pending::default()
        }
    }

    /// Inserted edges not yet revealed.
    fn hidden(&self) -> &[u64] {
        &self.ins[self.ins_at..]
    }

    /// Deleted edges not yet hidden.
    fn deleted(&self) -> &[u64] {
        &self.dels[self.dels_at..]
    }

    fn reveal_node(&mut self, v: NodeId) {
        debug_assert_eq!(v.index(), self.node_floor, "fresh nodes out of id order");
        self.node_floor += 1;
    }

    fn reveal_edge(&mut self, u: NodeId, v: NodeId) {
        debug_assert_eq!(
            self.hidden().first(),
            Some(&key(u, v)),
            "inserts out of order"
        );
        self.ins_at += 1;
    }

    fn hide_edge(&mut self, u: NodeId, v: NodeId) {
        debug_assert_eq!(
            self.deleted().first(),
            Some(&key(u, v)),
            "deletes out of order"
        );
        self.dels_at += 1;
    }
}

/// The database a rule body is joined against in the middle of an `apply`.
struct ApplyView<'a> {
    g: &'a DynamicGraph,
    store: &'a FactStore,
    p: &'a Pending,
    /// Derived facts ranked at or above this are invisible (`u64::MAX`:
    /// none are) — the view a suspect's certified derivation must hold in.
    below: u64,
    /// Rank reads made to decide that, for the work accounting.
    rank_reads: Cell<u64>,
}

impl<'a> ApplyView<'a> {
    fn new(g: &'a DynamicGraph, store: &'a FactStore, p: &'a Pending, below: u64) -> Self {
        ApplyView {
            g,
            store,
            p,
            below,
            rank_reads: Cell::new(0),
        }
    }

    fn ranked_below(&self, f: &Fact) -> bool {
        self.below == u64::MAX || {
            self.rank_reads.set(self.rank_reads.get() + 1);
            self.store
                .support
                .get(f)
                .is_some_and(|s| s.rank < self.below)
        }
    }
}

impl FactView for ApplyView<'_> {
    fn edge(&self, u: NodeId, v: NodeId) -> bool {
        let k = key(u, v);
        (self.g.contains_edge(u, v) && self.p.hidden().binary_search(&k).is_err())
            || self.p.deleted().binary_search(&k).is_ok()
    }
    fn for_succ(&self, u: NodeId, f: &mut dyn FnMut(NodeId)) {
        if u.index() < self.g.node_count() {
            let hidden = range_of(self.p.hidden(), u);
            for &w in self.g.successors(u) {
                if hidden.is_empty() || hidden.binary_search(&key(u, w)).is_err() {
                    f(w);
                }
            }
        }
        for &k in range_of(self.p.deleted(), u) {
            f(unkey(k).1);
        }
    }
    fn for_pred_nodes(&self, v: NodeId, f: &mut dyn FnMut(NodeId)) {
        let p = self.p;
        if v.index() < self.g.node_count() {
            let inserted = match p.hidden() {
                [] => &[][..],
                _ => range_of(p.ins_by_target.get_or_init(|| by_target(&p.ins)), v),
            };
            let cursor = first(p.hidden());
            for &u in self.g.predecessors(v) {
                let hidden = !inserted.is_empty()
                    && key(u, v) >= cursor
                    && inserted.binary_search(&key(v, u)).is_ok();
                if !hidden {
                    f(u);
                }
            }
        }
        if !p.deleted().is_empty() {
            let cursor = first(p.deleted());
            for &k in range_of(p.dels_by_target.get_or_init(|| by_target(&p.dels)), v) {
                let u = unkey(k).1;
                if key(u, v) >= cursor {
                    f(u);
                }
            }
        }
    }
    fn for_edges(&self, f: &mut dyn FnMut(NodeId, NodeId)) {
        for (u, v) in self.g.edges() {
            if self.p.hidden().binary_search(&key(u, v)).is_err() {
                f(u, v);
            }
        }
        for &k in self.p.deleted() {
            let (u, v) = unkey(k);
            f(u, v);
        }
    }
    fn node(&self, v: NodeId) -> bool {
        v.index() < self.p.node_floor
    }
    fn label_of(&self, v: NodeId) -> Option<Label> {
        (self.node(v) && v.index() < self.g.node_count()).then(|| self.g.label(v))
    }
    fn for_label(&self, l: Label, f: &mut dyn FnMut(NodeId)) {
        for &v in self.g.nodes_with_label(l) {
            if self.node(v) {
                f(v);
            }
        }
    }
    fn fact(&self, f: &Fact) -> bool {
        self.store.visible(f) && self.ranked_below(f)
    }
    fn for_pred_facts(&self, p: PredId, f: &mut dyn FnMut(&Fact)) {
        for fact in &self.store.by_pred[p.0 as usize] {
            if self.ranked_below(fact) {
                f(fact);
            }
        }
    }
    fn for_pred_facts_bound(&self, p: PredId, pos: usize, n: NodeId, f: &mut dyn FnMut(&Fact)) {
        if let Some(set) = self.store.index.get(&(p, pos as u8, n)) {
            for fact in set {
                if self.ranked_below(fact) {
                    f(fact);
                }
            }
        }
    }
}

/// Enumerate the derivations of exactly `f` in `view`, head variables bound
/// first (each rule's precomputed head-bound join order); `emit` returns
/// `false` to stop at the first.
fn for_each_derivation(
    prog: &Program,
    view: &ApplyView,
    f: &Fact,
    work: &mut WorkStats,
    emit: &mut dyn FnMut() -> bool,
) {
    for &ri in prog.rules_deriving(f.pred) {
        let rule = &prog.rules()[ri];
        let mut bind = Bind::new();
        let head_binds = rule
            .head_args
            .iter()
            .zip(f.args())
            .all(|(t, n)| bind.try_set(t, *n).is_some());
        if head_binds
            && !for_each_instantiation(
                view,
                prog.head_bound_body(ri),
                &mut bind,
                0,
                None,
                work,
                &mut |_| emit(),
            )
        {
            break;
        }
    }
    work.aux_touched += view.rank_reads.take();
}

/// Whether a pin site's guard (every term bound) holds in `view`: one probe,
/// counted where the join counts its atom kind. It is the probe the join's
/// fully-bound branches make, written out because most tries end here:
/// entering `for_each_instantiation` for it made the storm's deletion and
/// insertion passes about a fifth slower.
fn guard_holds(view: &ApplyView, atom: &Atom, bind: &Bind, work: &mut WorkStats) -> bool {
    let at = |t: &Term| bind.get(t).expect("a pin binds its guards' terms");
    match atom {
        Atom::HasLabel(t, l) => {
            work.nodes_visited += 1;
            view.label_of(at(t)) == Some(*l)
        }
        Atom::Edge(t1, t2) => {
            work.edges_traversed += 1;
            view.edge(at(t1), at(t2))
        }
        Atom::Pred(p, terms) => {
            work.aux_touched += 1;
            let mut vals = [NodeId(0); MAX_ARITY];
            for (val, t) in vals.iter_mut().zip(terms) {
                *val = at(t);
            }
            view.fact(&Fact::new(*p, &vals[..terms.len()]))
        }
    }
}

/// Suspects, lowest rank first.
type Suspects = BinaryHeap<Reverse<(u64, Fact)>>;

/// One maintenance pass's working borrows.
struct Pass<'a> {
    prog: &'a Program,
    g: &'a DynamicGraph,
    store: &'a mut FactStore,
    pend: &'a mut Pending,
    work: &'a mut WorkStats,
    delta: &'a mut RulesDelta,
}

impl Pass<'_> {
    /// Heads of every instantiation the token participates in, one entry
    /// per instantiation (the pin discipline makes the multiset exact).
    /// A site whose guard fails is dropped before the join: the join would
    /// fail at that atom anyway.
    fn pinned_heads(&mut self, token: &Token, out: &mut Vec<Fact>) {
        let view = ApplyView::new(self.g, &*self.store, &*self.pend, u64::MAX);
        let rules = self.prog.rules();
        for site in self.prog.pin_sites(token) {
            let rule = &rules[site.rule];
            let mut bind = Bind::new();
            if !bind_pinned(&view, &rule.body[site.pos], token, &mut bind)
                || !site
                    .guards
                    .iter()
                    .all(|a| guard_holds(&view, a, &bind, self.work))
            {
                continue;
            }
            let pin = Pin {
                pos: site.pos,
                token,
            };
            for_each_instantiation(
                &view,
                &rule.body,
                &mut bind,
                0,
                Some(&pin),
                self.work,
                &mut |b| {
                    out.push(head_fact(rule, b));
                    true
                },
            );
        }
    }

    /// Number of instantiations deriving exactly `f` in the current view.
    fn count_derivations(&mut self, f: &Fact) -> u32 {
        let view = ApplyView::new(self.g, &*self.store, &*self.pend, u64::MAX);
        let mut count = 0u32;
        for_each_derivation(self.prog, &view, f, self.work, &mut || {
            count += 1;
            true
        });
        count
    }

    /// Does `f` (ranked `rank`) still have a derivation whose derived body
    /// facts all rank below it? Rules with all-base bodies are tried
    /// first: such a derivation needs no rank read at all.
    fn rank_witness(&mut self, f: &Fact, rank: u64) -> bool {
        let view = ApplyView::new(self.g, &*self.store, &*self.pend, rank);
        let mut found = false;
        for_each_derivation(self.prog, &view, f, self.work, &mut || {
            found = true;
            false
        });
        found
    }

    /// The insertion worklist: reveal each token, then count the
    /// instantiations it completes; a fact whose support leaves zero takes
    /// the next rank, joins the queue, and becomes visible in its turn —
    /// after every fact its first derivation used.
    fn run_insertion(&mut self, queue: &mut VecDeque<Token>) {
        let mut buf: Vec<Fact> = Vec::new();
        while let Some(tok) = queue.pop_front() {
            self.work.queue_ops += 1;
            self.work.nodes_visited += 1;
            match tok {
                Token::Edge(u, v) => self.pend.reveal_edge(u, v),
                Token::Node(v) => self.pend.reveal_node(v),
                Token::Derived(f) => {
                    self.store.insert_visible(f);
                    self.delta.facts_added += 1;
                }
            }
            buf.clear();
            self.pinned_heads(&tok, &mut buf);
            for &h in &buf {
                self.work.aux_touched += 1;
                let rank = self.store.last_rank + 1;
                match self.store.support.entry(h) {
                    Entry::Occupied(mut e) => e.get_mut().count += 1,
                    Entry::Vacant(e) => {
                        e.insert(Support { count: 1, rank });
                        self.store.last_rank = rank;
                        queue.push_back(Token::Derived(h));
                        self.work.queue_ops += 1;
                    }
                }
            }
        }
    }

    /// The deletion worklist: count the instantiations each token still
    /// completes, decrement their heads, then hide the token. Count-zero
    /// heads join the queue; survivors that may have lost their certified
    /// derivation join `suspects`.
    fn run_deletion(&mut self, queue: &mut VecDeque<Token>, suspects: &mut Suspects) {
        let mut buf: Vec<Fact> = Vec::new();
        while let Some(tok) = queue.pop_front() {
            self.work.queue_ops += 1;
            self.work.nodes_visited += 1;
            // Base facts rank below every derived fact.
            let tok_rank = match tok {
                Token::Derived(f) => self.store.support[&f].rank,
                _ => 0,
            };
            buf.clear();
            self.pinned_heads(&tok, &mut buf);
            for &h in &buf {
                self.work.aux_touched += 1;
                // The token's own support goes with it: a fact repair
                // retracts may still derive itself (`reach(x, y)` over a
                // loop `y → y`), and must not queue itself again.
                if tok == Token::Derived(h) {
                    continue;
                }
                // A head the repair phase already retracted is recounted
                // from scratch when it is re-grounded.
                let Some(s) = self.store.support.get_mut(&h) else {
                    debug_assert!(!self.store.visible(&h), "visible head without support");
                    continue;
                };
                s.count = s.count.checked_sub(1).expect("support count underflow");
                if s.count == 0 {
                    queue.push_back(Token::Derived(h));
                    self.work.queue_ops += 1;
                } else if tok_rank < s.rank && self.prog.is_recursive(h.pred) {
                    suspects.push(Reverse((s.rank, h)));
                    self.work.queue_ops += 1;
                }
            }
            match tok {
                Token::Edge(u, v) => self.pend.hide_edge(u, v),
                Token::Node(_) => unreachable!("node-label facts are never deleted"),
                Token::Derived(f) => {
                    self.store.remove_visible(&f);
                    self.store.support.remove(&f);
                    self.delta.facts_removed += 1;
                }
            }
        }
    }

    /// Settle the suspects, lowest rank first: clear the ones that keep a
    /// derivation through lower-ranked facts, retract the others through
    /// the counting worklist, then re-ground what was retracted.
    fn repair(&mut self, mut suspects: Suspects, queue: &mut VecDeque<Token>) {
        let removed_before = self.delta.facts_removed;
        let mut retracted: Vec<Fact> = Vec::new();
        let mut last: Option<Fact> = None;
        while let Some(Reverse((rank, f))) = suspects.pop() {
            self.work.queue_ops += 1;
            // Decremented more than once, or gone since (its count ran out).
            let live = self.store.support.get(&f).is_some_and(|s| s.rank == rank);
            if last.replace(f) == Some(f) || !live {
                continue;
            }
            self.delta.suspects += 1;
            if self.rank_witness(&f, rank) {
                continue;
            }
            retracted.push(f);
            queue.push_back(Token::Derived(f));
            self.run_deletion(queue, &mut suspects);
        }
        if retracted.is_empty() {
            return;
        }
        self.delta.repairs += 1;
        let overdeleted = self.delta.facts_removed - removed_before;
        self.delta.overdeleted += overdeleted;

        // Re-ground: count each retracted fact's derivations in the database
        // without any of them, then let the insertion machinery propagate.
        // Only what the repair took out can come back — anything else with
        // a derivation still has its count.
        for f in &retracted {
            let count = self.count_derivations(f);
            if count > 0 {
                let rank = self.store.fresh_rank();
                self.store.support.insert(*f, Support { count, rank });
                queue.push_back(Token::Derived(*f));
                self.work.queue_ops += 1;
            }
        }
        let before_added = self.delta.facts_added;
        self.run_insertion(queue);
        // Revived facts never logically left the answer: undo their
        // accounting on both sides; the rest is permanently retracted.
        let revived = self.delta.facts_added - before_added;
        self.delta.facts_added = before_added;
        self.delta.facts_removed -= revived;
        self.delta.rederived += revived;
    }
}

/// An incrementally maintained rule view: the derived facts of a compiled
/// [`Program`] over the engine's shared graph, kept exact under edge
/// insertions *and* deletions (see the module docs for the algorithm).
///
/// The program and the fact store serve the read API and sit behind `Arc`s:
/// the copy [`IncView::clone_view`] publishes is `Clone` — two `Arc` bumps —
/// and `apply` unshares the store once.
#[derive(Clone, Debug)]
pub struct IncRules {
    program: Arc<Program>,
    store: Arc<FactStore>,
    known_nodes: usize,
    work: WorkStats,
    metrics: ChangeMetrics,
    last: RulesDelta,
}

impl IncRules {
    /// Build the view from scratch on `g` (a semi-naive from-scratch
    /// evaluation: every node and edge streams through the insertion
    /// machinery).
    pub fn new(g: &DynamicGraph, program: Program) -> IncRules {
        let mut me = IncRules {
            store: Arc::new(FactStore::new(program.pred_count())),
            program: Arc::new(program),
            known_nodes: 0,
            work: WorkStats::new(),
            metrics: ChangeMetrics::default(),
            last: RulesDelta::default(),
        };
        let mut pend = Pending::new(Vec::new(), g.edges().map(|(u, v)| key(u, v)).collect(), 0);
        let mut queue: VecDeque<Token> = (0..g.node_count())
            .map(|i| Token::Node(NodeId::from_index(i)))
            .chain(pend.ins.iter().map(edge_token))
            .collect();
        let mut pass = Pass {
            prog: &me.program,
            g,
            store: Arc::make_mut(&mut me.store),
            pend: &mut pend,
            work: &mut me.work,
            delta: &mut me.last,
        };
        pass.run_insertion(&mut queue);
        me.known_nodes = g.node_count();
        me.last = RulesDelta::default();
        me
    }

    /// A deferred constructor for lazy registration
    /// ([`Engine::register_lazy`](../igc_engine), recovery, background
    /// builds, replica tailing): captures the program, builds from
    /// whatever graph the engine hands it. Deterministic, as lazy
    /// registration requires.
    pub fn init(program: Program) -> impl FnOnce(&DynamicGraph) -> Self {
        move |g: &DynamicGraph| IncRules::new(g, program)
    }

    /// The compiled program this view maintains.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Whether `pred(args)` is currently derived.
    pub fn holds(&self, pred: PredId, args: &[NodeId]) -> bool {
        self.store.visible(&Fact::new(pred, args))
    }

    /// `pred(args)`'s support count (0 when not derived).
    pub fn support(&self, pred: PredId, args: &[NodeId]) -> u32 {
        self.store
            .support
            .get(&Fact::new(pred, args))
            .map_or(0, |s| s.count)
    }

    /// Total number of derived facts.
    pub fn derived_count(&self) -> usize {
        self.store.support.len()
    }

    /// The derived facts of one predicate, sorted.
    pub fn facts_of(&self, pred: PredId) -> Vec<Fact> {
        let mut v: Vec<Fact> = self.store.by_pred[pred.0 as usize]
            .iter()
            .copied()
            .collect();
        v.sort_unstable();
        v
    }

    /// Every derived fact, sorted — the canonical answer signature
    /// bit-identity tests compare.
    pub fn sorted_facts(&self) -> Vec<Fact> {
        let mut v: Vec<Fact> = self.store.support.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// The maintenance counters of the most recent `apply`.
    pub fn last_delta(&self) -> RulesDelta {
        self.last
    }

    /// Cumulative paper-style change metrics.
    pub fn metrics(&self) -> ChangeMetrics {
        self.metrics
    }
}

impl IncView for IncRules {
    fn name(&self) -> &str {
        "rules"
    }
    fn apply(&mut self, g: &DynamicGraph, delta: &UpdateBatch) {
        self.last = RulesDelta::default();
        let (mut dels, mut ins) = (Vec::new(), Vec::new());
        for u in delta.iter() {
            let (a, b) = u.edge();
            if u.is_insert() { &mut ins } else { &mut dels }.push(key(a, b));
        }
        let mut pend = Pending::new(dels, ins, self.known_nodes);
        let mut dq: VecDeque<Token> = pend.dels.iter().map(edge_token).collect();
        let mut iq: VecDeque<Token> = (self.known_nodes..g.node_count())
            .map(|i| Token::Node(NodeId::from_index(i)))
            .chain(pend.ins.iter().map(edge_token))
            .collect();
        let mut pass = Pass {
            prog: &self.program,
            g,
            store: Arc::make_mut(&mut self.store),
            pend: &mut pend,
            work: &mut self.work,
            delta: &mut self.last,
        };
        let mut suspects = Suspects::new();
        pass.run_deletion(&mut dq, &mut suspects);
        pass.repair(suspects, &mut dq);
        pass.run_insertion(&mut iq);
        self.known_nodes = g.node_count();
        self.metrics.input_updates += delta.len() as u64;
        self.metrics.output_changes += self.last.facts_added + self.last.facts_removed;
        self.metrics.affected += self.last.facts_added
            + self.last.facts_removed
            + self.last.suspects
            + self.last.overdeleted;
    }
    fn work(&self) -> WorkStats {
        self.work
    }
    fn verify_against_batch(&self, g: &DynamicGraph) -> Result<(), String> {
        let oracle = naive_fixpoint(g, &self.program);
        if oracle.facts.len() != self.store.support.len() {
            return Err(format!(
                "rules: maintained {} facts ≠ oracle {}",
                self.store.support.len(),
                oracle.facts.len()
            ));
        }
        for (f, c) in &oracle.facts {
            match self.store.support.get(f).map(|s| s.count) {
                Some(c2) if c2 == *c => {}
                Some(c2) => {
                    return Err(format!(
                        "rules: {}{:?} has support {c2} ≠ oracle {c}",
                        self.program.pred_name(f.pred),
                        f.args()
                    ));
                }
                None => {
                    return Err(format!(
                        "rules: missing fact {}{:?}",
                        self.program.pred_name(f.pred),
                        f.args()
                    ));
                }
            }
        }
        // Every fact is visible and holds its rank's promise: a derivation
        // through facts ranked strictly below it.
        let settled = Pending {
            node_floor: g.node_count(),
            ..Pending::default()
        };
        let mut work = WorkStats::new();
        for (f, s) in &self.store.support {
            let view = ApplyView::new(g, &self.store, &settled, s.rank);
            let mut certified = false;
            for_each_derivation(&self.program, &view, f, &mut work, &mut || {
                certified = true;
                false
            });
            if !self.store.visible(f) || !certified {
                return Err(format!(
                    "rules: supported fact {}{:?} is {}",
                    self.program.pred_name(f.pred),
                    f.args(),
                    if certified {
                        "not visible"
                    } else {
                        "not derivable from lower-ranked facts"
                    }
                ));
            }
        }
        Ok(())
    }
    fn clone_view(&self) -> Box<dyn IncView> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{v, Atom, RuleSet};
    use igc_graph::generator::{random_update_batch, uniform_graph};
    use igc_graph::graph::graph_from;
    use igc_graph::Update;

    const ENTRY: Label = Label(1);
    const VULN: Label = Label(2);
    const CRITICAL: Label = Label(3);

    /// The anchored attack-reachability program: code execution spreads
    /// from entry points along edges into vulnerable or critical hosts.
    fn attack_program() -> (Program, PredId, PredId) {
        let mut rs = RuleSet::new();
        let exec = rs.predicate("exec", 1).unwrap();
        let goal = rs.predicate("goal", 1).unwrap();
        rs.rule(exec, &[v(0)], vec![Atom::has_label(v(0), ENTRY)])
            .unwrap();
        rs.rule(
            exec,
            &[v(1)],
            vec![
                Atom::pred(exec, &[v(0)]),
                Atom::edge(v(0), v(1)),
                Atom::has_label(v(1), VULN),
            ],
        )
        .unwrap();
        rs.rule(
            exec,
            &[v(1)],
            vec![
                Atom::pred(exec, &[v(0)]),
                Atom::edge(v(0), v(1)),
                Atom::has_label(v(1), CRITICAL),
            ],
        )
        .unwrap();
        rs.rule(
            goal,
            &[v(0)],
            vec![Atom::pred(exec, &[v(0)]), Atom::has_label(v(0), CRITICAL)],
        )
        .unwrap();
        (rs.compile().unwrap(), exec, goal)
    }

    fn reach_program() -> (Program, PredId) {
        let mut rs = RuleSet::new();
        let reach = rs.predicate("reach", 2).unwrap();
        rs.rule(reach, &[v(0), v(1)], vec![Atom::edge(v(0), v(1))])
            .unwrap();
        rs.rule(
            reach,
            &[v(0), v(2)],
            vec![Atom::pred(reach, &[v(0), v(1)]), Atom::edge(v(1), v(2))],
        )
        .unwrap();
        (rs.compile().unwrap(), reach)
    }

    fn step(g: &mut DynamicGraph, view: &mut IncRules, updates: Vec<Update>) {
        let delta = UpdateBatch::from_updates(updates).normalize_against(g);
        g.apply_batch(&delta);
        view.apply(g, &delta);
        IncView::verify_against_batch(view, g).unwrap();
    }

    #[test]
    fn attack_chain_insert_and_delete() {
        let (program, exec, goal) = attack_program();
        // 0:entry → 1:vuln → 2:vuln → 3:critical, with a bystander 4.
        let mut g = graph_from(&[1, 2, 2, 3, 0], &[(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)]);
        let mut view = IncRules::new(&g, program);
        IncView::verify_against_batch(&view, &g).unwrap();
        assert!(view.holds(goal, &[NodeId(3)]));
        assert!(!view.holds(exec, &[NodeId(4)]), "label 0 is not vulnerable");
        assert_eq!(view.derived_count(), 5); // exec(0..=3), goal(3)

        // Cutting 1→2 severs the only chain to the critical host.
        step(
            &mut g,
            &mut view,
            vec![Update::delete(NodeId(1), NodeId(2))],
        );
        assert!(!view.holds(goal, &[NodeId(3)]));
        assert_eq!(view.sorted_facts().len(), 2); // exec(0), exec(1)
        assert_eq!(view.last_delta().facts_removed, 3);
        assert_eq!(
            view.last_delta().repairs,
            0,
            "chain retraction needs no repair"
        );

        // A direct edge into the critical host restores the goal.
        step(
            &mut g,
            &mut view,
            vec![Update::insert(NodeId(0), NodeId(3))],
        );
        assert!(view.holds(goal, &[NodeId(3)]));
        assert_eq!(view.support(exec, &[NodeId(0)]), 1);
    }

    #[test]
    fn cyclic_support_is_torn_down() {
        // exec(y) ⇐ entry(y);  exec(y) ⇐ exec(x) ∧ edge(x,y).
        let mut rs = RuleSet::new();
        let exec = rs.predicate("exec", 1).unwrap();
        rs.rule(exec, &[v(0)], vec![Atom::has_label(v(0), ENTRY)])
            .unwrap();
        rs.rule(
            exec,
            &[v(1)],
            vec![Atom::pred(exec, &[v(0)]), Atom::edge(v(0), v(1))],
        )
        .unwrap();
        let program = rs.compile().unwrap();
        // Entry 0 feeds the 2-cycle 1⇄2. After cutting 0→1 the cycle's
        // facts mutually support each other — pure counting would leak
        // them; the repair phase must tear the cycle down.
        let mut g = graph_from(&[1, 0, 0], &[(0, 1), (1, 2), (2, 1)]);
        let mut view = IncRules::new(&g, program);
        assert_eq!(view.support(exec, &[NodeId(1)]), 2); // from 0 and from 2

        step(
            &mut g,
            &mut view,
            vec![Update::delete(NodeId(0), NodeId(1))],
        );
        assert_eq!(view.sorted_facts(), vec![Fact::new(exec, &[NodeId(0)])]);
        let d = view.last_delta();
        assert_eq!(d.repairs, 1, "cyclic support must trigger repair");
        assert_eq!(d.overdeleted, 2, "exec(1) and exec(2)");
        assert_eq!(d.rederived, 0);
        assert_eq!(d.facts_removed, 2);
    }

    #[test]
    fn repair_rederives_well_founded_facts() {
        let (program, exec) = {
            let (p, e, _) = attack_program();
            (p, e)
        };
        // Two entries feed the vuln cycle 2⇄3; cutting one entry edge
        // decrements but must not retract anything (the other entry keeps
        // the cycle well-founded). Facts over-deleted by repair — if any —
        // must come back.
        let mut g = graph_from(&[1, 1, 2, 2], &[(0, 2), (1, 3), (2, 3), (3, 2)]);
        let mut view = IncRules::new(&g, program);
        assert_eq!(view.derived_count(), 4); // exec(0), exec(1), exec(2), exec(3)

        step(
            &mut g,
            &mut view,
            vec![Update::delete(NodeId(0), NodeId(2))],
        );
        assert_eq!(view.derived_count(), 4, "still derivable via entry 1");
        assert_eq!(view.last_delta().facts_removed, 0);
        // exec(2) now has exactly one derivation: exec(3) ∧ edge(3,2).
        assert_eq!(view.support(exec, &[NodeId(2)]), 1);
    }

    /// exec(y) ⇐ entry(y);  exec(y) ⇐ exec(x) ∧ edge(x,y) — every node
    /// reachable from an entry point.
    fn spread_program() -> (Program, PredId) {
        let mut rs = RuleSet::new();
        let exec = rs.predicate("exec", 1).unwrap();
        rs.rule(exec, &[v(0)], vec![Atom::has_label(v(0), ENTRY)])
            .unwrap();
        rs.rule(
            exec,
            &[v(1)],
            vec![Atom::pred(exec, &[v(0)]), Atom::edge(v(0), v(1))],
        )
        .unwrap();
        (rs.compile().unwrap(), exec)
    }

    #[test]
    fn a_support_cycle_cut_from_its_entry_dies_whole() {
        // Entry 0 feeds the 6-cycle 1→2→…→6→1, which also carries the chords
        // 3→1 and 5→2: after the cut every cycle fact still counts a
        // derivation, none of them through a lower-ranked fact.
        let (program, exec) = spread_program();
        let mut edges = vec![(0, 1), (3, 1), (5, 2)];
        edges.extend((1..=6).map(|i| (i, i % 6 + 1)));
        let mut g = graph_from(&[1, 0, 0, 0, 0, 0, 0], &edges);
        let mut view = IncRules::new(&g, program);
        assert_eq!(view.derived_count(), 7);
        assert_eq!(view.support(exec, &[NodeId(1)]), 3);

        step(
            &mut g,
            &mut view,
            vec![Update::delete(NodeId(0), NodeId(1))],
        );
        assert_eq!(view.sorted_facts(), vec![Fact::new(exec, &[NodeId(0)])]);
        let d = view.last_delta();
        assert_eq!((d.overdeleted, d.rederived, d.facts_removed), (6, 0, 6));
        // exec(1), then exec(2) (the chord from 5 keeps its count up); the
        // counts of the rest run out.
        assert_eq!(d.suspects, 2);
    }

    #[test]
    fn a_lower_ranked_alternative_clears_a_suspect_without_overdeleting() {
        // Two entries feed node 2, which feeds a chain 2→3→4 and the back
        // edge 4→2. Losing one entry edge decrements exec(2); its other
        // entry derivation ranks below it, so nothing is retracted —
        // although exec(2) also sits on a support cycle.
        let (program, exec) = spread_program();
        let mut g = graph_from(&[1, 1, 0, 0, 0], &[(0, 2), (1, 2), (2, 3), (3, 4), (4, 2)]);
        let mut view = IncRules::new(&g, program);
        assert_eq!(view.support(exec, &[NodeId(2)]), 3);

        step(
            &mut g,
            &mut view,
            vec![Update::delete(NodeId(0), NodeId(2))],
        );
        assert_eq!(view.derived_count(), 5);
        assert_eq!(view.support(exec, &[NodeId(2)]), 2);
        let d = view.last_delta();
        assert_eq!((d.suspects, d.overdeleted, d.repairs), (1, 0, 0));
        assert_eq!((d.facts_removed, d.facts_added), (0, 0));
    }

    #[test]
    fn a_higher_ranked_alternative_reranks_the_chain_and_keeps_it() {
        // Entry 0 reaches 1 directly and over the detour 0→3→4→1; 1 feeds 2.
        // exec(1) was first derived from exec(0), so exec(4) ranks above it.
        let (program, exec) = spread_program();
        let mut g = graph_from(&[1, 0, 0, 0, 0], &[(0, 1), (1, 2), (0, 3), (3, 4), (4, 1)]);
        let mut view = IncRules::new(&g, program);
        assert_eq!(view.support(exec, &[NodeId(1)]), 2);

        // The direct edge goes: the only derivation left for exec(1) is
        // through the higher-ranked exec(4). It is retracted (taking exec(2)
        // along), re-grounded, and both come back — nothing left the answer.
        step(
            &mut g,
            &mut view,
            vec![Update::delete(NodeId(0), NodeId(1))],
        );
        assert_eq!(view.derived_count(), 5);
        assert_eq!(view.support(exec, &[NodeId(1)]), 1);
        let d = view.last_delta();
        assert_eq!((d.overdeleted, d.rederived, d.repairs), (2, 2, 1));
        assert_eq!((d.facts_removed, d.facts_added), (0, 0));

        // Under its new rank exec(1) is certified by exec(4): cutting the
        // detour now retracts the chain by counting alone.
        step(
            &mut g,
            &mut view,
            vec![Update::delete(NodeId(3), NodeId(4))],
        );
        assert_eq!(view.derived_count(), 2);
        let d = view.last_delta();
        assert_eq!((d.facts_removed, d.overdeleted, d.repairs), (3, 0, 0));
    }

    #[test]
    fn a_fact_left_deriving_only_itself_is_retracted_once() {
        // reach(0, 1) holds over the edge 0 → 1 and again over itself and
        // the loop 1 → 1. Without the edge only the self-derivation is
        // left: repair retracts reach(0, 1), and the instantiation it
        // decrements is its own.
        let (program, reach) = reach_program();
        let mut g = graph_from(&[0, 0], &[(0, 1), (1, 1)]);
        let mut view = IncRules::new(&g, program);
        assert_eq!(view.support(reach, &[NodeId(0), NodeId(1)]), 2);

        step(
            &mut g,
            &mut view,
            vec![Update::delete(NodeId(0), NodeId(1))],
        );
        assert_eq!(
            view.sorted_facts(),
            vec![Fact::new(reach, &[NodeId(1), NodeId(1)])]
        );
        let d = view.last_delta();
        assert_eq!((d.suspects, d.overdeleted, d.repairs), (1, 1, 1));
        assert_eq!((d.facts_removed, d.rederived), (1, 0));
    }

    #[test]
    fn non_recursive_heads_are_never_suspects() {
        // goal(x) ⇐ exec(x) ∧ critical(x) counts exec facts but cannot
        // support itself: a decrement that leaves it alive settles it.
        let mut rs = RuleSet::new();
        let exec = rs.predicate("exec", 1).unwrap();
        let near = rs.predicate("near_entry", 1).unwrap();
        rs.rule(exec, &[v(0)], vec![Atom::has_label(v(0), ENTRY)])
            .unwrap();
        rs.rule(
            near,
            &[v(1)],
            vec![Atom::pred(exec, &[v(0)]), Atom::edge(v(0), v(1))],
        )
        .unwrap();
        let program = rs.compile().unwrap();
        assert!(!program.is_recursive(near));
        let mut g = graph_from(&[1, 1, 0], &[(0, 2), (1, 2)]);
        let mut view = IncRules::new(&g, program);
        assert_eq!(view.support(near, &[NodeId(2)]), 2);
        step(
            &mut g,
            &mut view,
            vec![Update::delete(NodeId(0), NodeId(2))],
        );
        assert_eq!(view.support(near, &[NodeId(2)]), 1);
        assert_eq!(view.last_delta().suspects, 0);
    }

    #[test]
    fn nullary_predicate_counts_instantiations() {
        let mut rs = RuleSet::new();
        let nonempty = rs.predicate("nonempty", 0).unwrap();
        rs.rule(nonempty, &[], vec![Atom::edge(v(0), v(1))])
            .unwrap();
        let program = rs.compile().unwrap();
        let mut g = graph_from(&[0, 0, 0], &[(0, 1), (1, 2)]);
        let mut view = IncRules::new(&g, program);
        assert_eq!(view.support(nonempty, &[]), 2);

        step(
            &mut g,
            &mut view,
            vec![Update::delete(NodeId(0), NodeId(1))],
        );
        assert_eq!(view.support(nonempty, &[]), 1);
        step(
            &mut g,
            &mut view,
            vec![Update::delete(NodeId(1), NodeId(2))],
        );
        assert!(!view.holds(nonempty, &[]));
        assert_eq!(view.derived_count(), 0);
    }

    #[test]
    fn fresh_nodes_join_the_derivation() {
        let (program, _, goal) = attack_program();
        let mut g = graph_from(&[1, 2], &[(0, 1)]);
        let mut view = IncRules::new(&g, program);
        assert_eq!(view.derived_count(), 2);

        // A fresh critical node attached to the vuln frontier.
        step(
            &mut g,
            &mut view,
            vec![Update::insert_labeled(
                NodeId(1),
                NodeId(2),
                None,
                Some(CRITICAL),
            )],
        );
        assert!(view.holds(goal, &[NodeId(2)]));
    }

    #[test]
    fn randomized_streams_match_oracle() {
        let (program, _) = reach_program();
        let mut g = uniform_graph(25, 50, 3, 11);
        let mut view = IncRules::new(&g, program);
        IncView::verify_against_batch(&view, &g).unwrap();
        for i in 0..30u64 {
            let mut batch = random_update_batch(&g, 8, 0.5, 1000 + i);
            if i % 7 == 3 {
                // Occasionally attach a fresh node so node-growth paths
                // are exercised under the same audit.
                let fresh = NodeId::from_index(g.node_count());
                batch.push(Update::insert_labeled(
                    NodeId((i % 20) as u32),
                    fresh,
                    None,
                    Some(Label((i % 3) as u32)),
                ));
            }
            let delta = batch.normalize_against(&g);
            g.apply_batch(&delta);
            view.apply(&g, &delta);
            IncView::verify_against_batch(&view, &g).unwrap_or_else(|e| panic!("round {i}: {e}"));
        }
    }

    #[test]
    fn randomized_attack_streams_match_oracle() {
        let (program, _, _) = attack_program();
        let mut g = uniform_graph(40, 90, 4, 5);
        let mut view = IncRules::new(&g, program);
        IncView::verify_against_batch(&view, &g).unwrap();
        for i in 0..30u64 {
            let delta = random_update_batch(&g, 10, 0.4, 2000 + i).normalize_against(&g);
            g.apply_batch(&delta);
            view.apply(&g, &delta);
            IncView::verify_against_batch(&view, &g).unwrap_or_else(|e| panic!("round {i}: {e}"));
        }
    }

    /// [`step`], adding the apply's `RulesDelta` into `sum` (field order of
    /// the struct).
    fn step_summing(
        g: &mut DynamicGraph,
        view: &mut IncRules,
        updates: Vec<Update>,
        sum: &mut [u64; 6],
    ) {
        step(g, view, updates);
        let d = view.last_delta();
        let fields = [
            d.facts_added,
            d.facts_removed,
            d.suspects,
            d.overdeleted,
            d.rederived,
            d.repairs,
        ];
        for (s, f) in sum.iter_mut().zip(fields) {
            *s += f;
        }
    }

    fn counters(w: WorkStats) -> [u64; 4] {
        [
            w.nodes_visited,
            w.edges_traversed,
            w.aux_touched,
            w.queue_ops,
        ]
    }

    /// A deletion-heavy storm on the attack program, with fresh vulnerable
    /// and critical hosts attached as it goes: the build, the deletion pass,
    /// repair and the insertion pass all join through the batch overlay.
    /// Returns the view, the build's work and the summed `RulesDelta`.
    fn attack_storm() -> (IncRules, WorkStats, [u64; 6]) {
        let (program, _, _) = attack_program();
        let mut g = uniform_graph(80, 320, 4, 17);
        let mut view = IncRules::new(&g, program);
        let build = view.work();
        let mut sum = [0u64; 6];
        for round in 0..10u64 {
            let mut batch: Vec<Update> = random_update_batch(&g, 40, 0.3, 4000 + round)
                .iter()
                .copied()
                .collect();
            let host = NodeId((round * 7 % 80) as u32);
            let fresh = NodeId::from_index(g.node_count());
            let label = if round % 2 == 0 { VULN } else { CRITICAL };
            batch.push(Update::insert_labeled(host, fresh, None, Some(label)));
            batch.push(Update::insert_labeled(
                fresh,
                NodeId(fresh.0 + 1),
                None,
                Some(CRITICAL),
            ));
            step_summing(&mut g, &mut view, batch, &mut sum);
        }
        (view, build, sum)
    }

    /// Golden `WorkStats` + `RulesDelta` of [`attack_storm`]. The
    /// `RulesDelta` was captured from the implementation that kept the
    /// overlay in hash sets; the `WorkStats` were re-baselined when pin
    /// sites gained guards, whose probes count.
    #[test]
    fn work_counters_golden_on_attack_storm() {
        let (view, build, sum) = attack_storm();
        let goal = view.program().pred_id("goal").unwrap();
        assert_eq!(
            counters(build),
            [1418, 290, 147, 488],
            "build work drifted from the golden"
        );
        assert_eq!(
            counters(view.work().since(&build)),
            [1612, 953, 1170, 593],
            "work drifted from the golden"
        );
        assert_eq!(
            sum,
            [28, 18, 22, 4, 4, 3],
            "RulesDelta drifted from the golden"
        );
        assert_eq!((view.derived_count(), view.facts_of(goal).len()), (54, 11));
    }

    /// The binary `reach` program where every batch deletes and inserts in-
    /// and out-edges of one node and hangs fresh nodes off it on both
    /// sides: `edge`, `for_succ`, `for_pred_nodes` and `node` each answer
    /// under the overlay with the node's hidden inserts and still-visible
    /// deletes in play. Returns what [`attack_storm`] returns.
    fn reach_around_one_node() -> (IncRules, WorkStats, [u64; 6]) {
        let (program, _) = reach_program();
        let mut g = uniform_graph(30, 60, 3, 23);
        let mut view = IncRules::new(&g, program);
        let build = view.work();
        let mut sum = [0u64; 6];
        for round in 0..8u32 {
            let hub = NodeId(round % 5);
            let mut batch = Vec::new();
            for (i, &w) in g.successors(hub).iter().enumerate() {
                if i % 2 == 0 {
                    batch.push(Update::delete(hub, w));
                }
            }
            for (i, &u) in g.predecessors(hub).iter().enumerate() {
                if i % 2 == 1 {
                    batch.push(Update::delete(u, hub));
                }
            }
            for k in 0..3 {
                let w = NodeId((hub.0 + 7 + 5 * k + round) % 30);
                batch.push(Update::insert(hub, w));
                batch.push(Update::insert(w, hub));
            }
            let fresh = NodeId::from_index(g.node_count());
            batch.push(Update::insert_labeled(hub, fresh, None, Some(Label(1))));
            batch.push(Update::insert_labeled(
                NodeId(fresh.0 + 1),
                hub,
                Some(Label(2)),
                None,
            ));
            batch.extend(random_update_batch(&g, 6, 0.5, 5000 + round as u64).iter());
            step_summing(&mut g, &mut view, batch, &mut sum);
        }
        (view, build, sum)
    }

    /// Golden `WorkStats` + `RulesDelta` of [`reach_around_one_node`].
    /// Captured from the implementation that kept the overlay in hash sets.
    #[test]
    fn work_counters_golden_on_reach_around_one_node() {
        let (view, build, sum) = reach_around_one_node();
        assert_eq!(
            counters(build),
            [844, 1479, 1539, 1598],
            "build work drifted from the golden"
        );
        assert_eq!(
            counters(view.work().since(&build)),
            [2856, 24010, 63157, 8685],
            "work drifted from the golden"
        );
        assert_eq!(
            sum,
            [1043, 466, 1417, 922, 608, 8],
            "RulesDelta drifted from the golden"
        );
        assert_eq!(view.derived_count(), 1331);
    }

    /// Digest of the derived state: every fact with its support count and
    /// rank, in sorted-fact order. Ranks follow the order in which the
    /// insertion pass met each fact's first derivation, which neither the
    /// fact set nor `WorkStats` can see.
    fn fact_digest(view: &IncRules) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = igc_graph::fxhash::FxHasher::default();
        let facts = view.sorted_facts();
        facts.len().hash(&mut h);
        for f in facts {
            let s = view.store.support[&f];
            (f, s.count, s.rank).hash(&mut h);
        }
        h.finish()
    }

    /// The two `WorkStats` goldens' scenarios, held to the facts, supports
    /// and ranks they leave (`fact_digest`) and to their `RulesDelta` sums.
    #[test]
    fn ordered_fact_state_golden() {
        let (storm, _, storm_sum) = attack_storm();
        assert_eq!(
            (fact_digest(&storm), storm_sum),
            (16630584239141035059, [28, 18, 22, 4, 4, 3]),
            "attack storm"
        );
        let (reach, _, reach_sum) = reach_around_one_node();
        assert_eq!(
            (fact_digest(&reach), reach_sum),
            (8775637793021100253, [1043, 466, 1417, 922, 608, 8]),
            "reach around one node"
        );
    }

    #[test]
    fn rebuilt_twin_matches_incremental_state() {
        // The builder contract: a view rebuilt from scratch on the final
        // graph is bit-identical (facts AND counts) to the incrementally
        // maintained one — recovery and replica paths depend on this.
        let (program, _) = reach_program();
        let mut g = uniform_graph(20, 40, 3, 21);
        let mut view = IncRules::new(&g, program.clone());
        for i in 0..10u64 {
            let delta = random_update_batch(&g, 6, 0.5, 3000 + i).normalize_against(&g);
            g.apply_batch(&delta);
            view.apply(&g, &delta);
        }
        let twin = IncRules::new(&g, program);
        assert_eq!(view.sorted_facts(), twin.sorted_facts());
        for f in view.sorted_facts() {
            assert_eq!(
                view.support(f.pred, f.args()),
                twin.support(f.pred, f.args()),
                "support mismatch on {f:?}"
            );
        }
    }
}
