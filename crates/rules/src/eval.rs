//! The shared conjunctive-join evaluator.
//!
//! Both evaluation strategies — the naive fixpoint oracle in
//! [`crate::naive`] and the semi-naive/support-counted maintenance in
//! [`crate::inc`] — reduce to one primitive: *enumerate the satisfying
//! variable assignments of a rule body against some view of the database*.
//! The view is abstracted as [`FactView`] because the incremental side
//! evaluates against a database in transition (edges of the current batch
//! are revealed or hidden one token at a time), while the oracle sees the
//! graph plus a plain fact set.
//!
//! # The token discipline
//!
//! Semi-naive counting needs every derivation (rule instantiation) counted
//! **exactly once** as facts stream in or out. The classic discipline is
//! implemented here via [`Pin`]: when processing token `t` pinned at body
//! position `j`, positions `< j` may bind `t` again (the same fact used at
//! several positions), while positions `> j` must not — so an instantiation
//! using `t` at positions `S` is found exactly when `j = max(S)`, and an
//! instantiation using several in-flight tokens is found exactly when its
//! last-revealed (first-hidden) token is processed.
//!
//! The incremental side probes a pin site's *guards* — other body atoms
//! the pinned token alone binds — before it enters the join. Guards only
//! reject: a failed probe means the join would fail at that atom too,
//! since the view and the bound values are the ones it would read. A
//! token that passes runs the same positional join, exclusion included, so
//! which instantiations are found, and at which pin, does not change.

use crate::ast::{Atom, PredId, Rule, Term, MAX_ARITY, MAX_VARS};
use igc_core::work::WorkStats;
use igc_graph::{Label, NodeId};

/// A derived fact: a predicate applied to concrete nodes. Unused argument
/// slots (beyond the predicate's arity) are zero-filled, so derived
/// equality and ordering are canonical.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fact {
    /// The predicate.
    pub pred: PredId,
    /// The argument count (the predicate's arity).
    pub arity: u8,
    args: [NodeId; MAX_ARITY],
}

impl Fact {
    /// Build a fact; `args.len()` must be the predicate's arity.
    pub fn new(pred: PredId, args: &[NodeId]) -> Fact {
        debug_assert!(args.len() <= MAX_ARITY);
        let mut a = [NodeId(0); MAX_ARITY];
        a[..args.len()].copy_from_slice(args);
        Fact {
            pred,
            arity: args.len() as u8,
            args: a,
        }
    }

    /// The argument tuple.
    pub fn args(&self) -> &[NodeId] {
        &self.args[..self.arity as usize]
    }
}

/// One unit of database change flowing through a maintenance pass: a base
/// fact (an edge or a node-label fact) or a derived fact.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Token {
    /// A node-label base fact (the node id; its label is read off the graph).
    Node(NodeId),
    /// An edge base fact.
    Edge(NodeId, NodeId),
    /// A derived fact.
    Derived(Fact),
}

/// A partial assignment of rule variables.
#[derive(Clone, Debug)]
pub(crate) struct Bind {
    vals: [Option<NodeId>; MAX_VARS],
}

impl Bind {
    pub(crate) fn new() -> Bind {
        Bind {
            vals: [None; MAX_VARS],
        }
    }

    /// Resolve a term under the current assignment.
    pub(crate) fn get(&self, t: &Term) -> Option<NodeId> {
        match t {
            Term::Node(n) => Some(*n),
            Term::Var(i) => self.vals[*i as usize],
        }
    }

    /// Try to make `t = n`: `Some(true)` if a variable was newly bound,
    /// `Some(false)` if already consistent, `None` on mismatch.
    pub(crate) fn try_set(&mut self, t: &Term, n: NodeId) -> Option<bool> {
        match t {
            Term::Node(c) => (*c == n).then_some(false),
            Term::Var(i) => match self.vals[*i as usize] {
                Some(x) => (x == n).then_some(false),
                None => {
                    self.vals[*i as usize] = Some(n);
                    Some(true)
                }
            },
        }
    }

    fn unset(&mut self, t: &Term) {
        if let Term::Var(i) = t {
            self.vals[*i as usize] = None;
        }
    }

    /// Bind `terms` against a concrete tuple, rolling back on mismatch.
    /// Returns the set of term indices newly bound (for later rollback).
    pub(crate) fn try_bind_tuple(&mut self, terms: &[Term], vals: &[NodeId]) -> Option<u32> {
        debug_assert_eq!(terms.len(), vals.len());
        let mut newly = 0u32;
        for (i, (t, n)) in terms.iter().zip(vals).enumerate() {
            match self.try_set(t, *n) {
                Some(true) => newly |= 1 << i,
                Some(false) => {}
                None => {
                    self.unbind_tuple(terms, newly);
                    return None;
                }
            }
        }
        Some(newly)
    }

    /// Roll back the bindings `try_bind_tuple` reported in `newly`.
    pub(crate) fn unbind_tuple(&mut self, terms: &[Term], newly: u32) {
        for (i, t) in terms.iter().enumerate() {
            if newly & (1 << i) != 0 {
                self.unset(t);
            }
        }
    }
}

/// A view of the database a rule body is evaluated against.
///
/// Implementations must be *self-consistent*: `edge` agrees with
/// `for_succ`/`for_pred`/`for_edges`, `label_of`/`for_label` yield only
/// nodes for which `node` holds, and `fact` agrees with the
/// `for_pred_facts*` enumerations.
pub(crate) trait FactView {
    fn edge(&self, u: NodeId, v: NodeId) -> bool;
    fn for_succ(&self, u: NodeId, f: &mut dyn FnMut(NodeId));
    fn for_pred_nodes(&self, v: NodeId, f: &mut dyn FnMut(NodeId));
    fn for_edges(&self, f: &mut dyn FnMut(NodeId, NodeId));
    /// Whether the node-label fact for `v` is visible.
    fn node(&self, v: NodeId) -> bool;
    /// `v`'s label, `None` when the node(-label fact) is not visible.
    fn label_of(&self, v: NodeId) -> Option<Label>;
    fn for_label(&self, l: Label, f: &mut dyn FnMut(NodeId));
    fn fact(&self, f: &Fact) -> bool;
    fn for_pred_facts(&self, p: PredId, f: &mut dyn FnMut(&Fact));
    /// Facts of `p` whose argument at `pos` equals `n`.
    fn for_pred_facts_bound(&self, p: PredId, pos: usize, n: NodeId, f: &mut dyn FnMut(&Fact));
}

/// A pinned body position: the token being processed, already bound at
/// `pos`. Positions after `pos` must not bind the token again.
pub(crate) struct Pin<'a> {
    pub pos: usize,
    pub token: &'a Token,
}

fn excluded(pin: Option<&Pin>, pos: usize, candidate: &Token) -> bool {
    match pin {
        Some(p) => pos > p.pos && candidate == p.token,
        None => false,
    }
}

/// Enumerate every satisfying assignment of `body[pos..]` under `bind`,
/// calling `emit` on each complete assignment. `emit` returns `false` to
/// stop the whole enumeration (existence checks); the function mirrors
/// that: `false` means "stopped early".
pub(crate) fn for_each_instantiation<V: FactView + ?Sized>(
    view: &V,
    body: &[Atom],
    bind: &mut Bind,
    pos: usize,
    pin: Option<&Pin>,
    work: &mut WorkStats,
    emit: &mut dyn FnMut(&mut Bind) -> bool,
) -> bool {
    if pos == body.len() {
        return emit(bind);
    }
    if let Some(p) = pin {
        if p.pos == pos {
            return for_each_instantiation(view, body, bind, pos + 1, pin, work, emit);
        }
    }
    match &body[pos] {
        Atom::Edge(t1, t2) => {
            match (bind.get(t1), bind.get(t2)) {
                (Some(u), Some(v)) => {
                    work.edges_traversed += 1;
                    if view.edge(u, v) && !excluded(pin, pos, &Token::Edge(u, v)) {
                        return for_each_instantiation(view, body, bind, pos + 1, pin, work, emit);
                    }
                }
                (Some(u), None) => {
                    let mut go_on = true;
                    view.for_succ(u, &mut |w| {
                        if !go_on || excluded(pin, pos, &Token::Edge(u, w)) {
                            return;
                        }
                        work.edges_traversed += 1;
                        if let Some(newly) = bind.try_set(t2, w) {
                            go_on =
                                for_each_instantiation(view, body, bind, pos + 1, pin, work, emit);
                            if newly {
                                bind.unset(t2);
                            }
                        }
                    });
                    return go_on;
                }
                (None, Some(v)) => {
                    let mut go_on = true;
                    view.for_pred_nodes(v, &mut |u| {
                        if !go_on || excluded(pin, pos, &Token::Edge(u, v)) {
                            return;
                        }
                        work.edges_traversed += 1;
                        if let Some(newly) = bind.try_set(t1, u) {
                            go_on =
                                for_each_instantiation(view, body, bind, pos + 1, pin, work, emit);
                            if newly {
                                bind.unset(t1);
                            }
                        }
                    });
                    return go_on;
                }
                (None, None) => {
                    let mut go_on = true;
                    view.for_edges(&mut |u, v| {
                        if !go_on || excluded(pin, pos, &Token::Edge(u, v)) {
                            return;
                        }
                        work.edges_traversed += 1;
                        if let Some(n1) = bind.try_set(t1, u) {
                            if let Some(n2) = bind.try_set(t2, v) {
                                go_on = for_each_instantiation(
                                    view,
                                    body,
                                    bind,
                                    pos + 1,
                                    pin,
                                    work,
                                    emit,
                                );
                                if n2 {
                                    bind.unset(t2);
                                }
                            }
                            if n1 {
                                bind.unset(t1);
                            }
                        }
                    });
                    return go_on;
                }
            }
            true
        }
        Atom::HasLabel(t, l) => {
            match bind.get(t) {
                Some(u) => {
                    work.nodes_visited += 1;
                    if view.label_of(u) == Some(*l) && !excluded(pin, pos, &Token::Node(u)) {
                        return for_each_instantiation(view, body, bind, pos + 1, pin, work, emit);
                    }
                }
                None => {
                    let mut go_on = true;
                    view.for_label(*l, &mut |u| {
                        if !go_on || excluded(pin, pos, &Token::Node(u)) {
                            return;
                        }
                        work.nodes_visited += 1;
                        if let Some(newly) = bind.try_set(t, u) {
                            go_on =
                                for_each_instantiation(view, body, bind, pos + 1, pin, work, emit);
                            if newly {
                                bind.unset(t);
                            }
                        }
                    });
                    return go_on;
                }
            }
            true
        }
        Atom::Pred(p, terms) => {
            // Find the first bound position to drive the index; fall back
            // to a full predicate scan.
            let mut driver: Option<(usize, NodeId)> = None;
            let mut all_bound = true;
            let mut vals = [NodeId(0); MAX_ARITY];
            for (i, t) in terms.iter().enumerate() {
                match bind.get(t) {
                    Some(n) => {
                        vals[i] = n;
                        if driver.is_none() {
                            driver = Some((i, n));
                        }
                    }
                    None => all_bound = false,
                }
            }
            if all_bound {
                let fact = Fact::new(*p, &vals[..terms.len()]);
                work.aux_touched += 1;
                if view.fact(&fact) && !excluded(pin, pos, &Token::Derived(fact)) {
                    return for_each_instantiation(view, body, bind, pos + 1, pin, work, emit);
                }
                return true;
            }
            let mut go_on = true;
            let mut visit = |fact: &Fact, bind: &mut Bind, work: &mut WorkStats| {
                if !go_on || excluded(pin, pos, &Token::Derived(*fact)) {
                    return;
                }
                work.aux_touched += 1;
                if let Some(newly) = bind.try_bind_tuple(terms, fact.args()) {
                    go_on = for_each_instantiation(view, body, bind, pos + 1, pin, work, emit);
                    bind.unbind_tuple(terms, newly);
                }
            };
            match driver {
                Some((i, n)) => {
                    view.for_pred_facts_bound(*p, i, n, &mut |fact| visit(fact, bind, work))
                }
                None => view.for_pred_facts(*p, &mut |fact| visit(fact, bind, work)),
            }
            go_on
        }
    }
}

/// Greedy join order for a head-bound enumeration (sound only with
/// `pin: None` — [`Pin`] semantics are positional). Starting from the
/// variables `bound` marks as fixed (a rule's head variables), repeatedly
/// pick the cheapest atom — fully-bound checks first, then index-driven
/// enumerations (an edge with a bound endpoint, a predicate with a bound
/// argument, a label scan) and full scans last — and mark its variables
/// bound for the next pick. Without this, a body like `p(x), edge(x, y)`
/// evaluated with only the head's `y` bound scans every `p` fact instead of
/// walking `y`'s in-edges. Computed once per rule by
/// [`RuleSet::compile`](crate::RuleSet::compile).
pub(crate) fn ordered_body(body: &[Atom], mut bound: [bool; MAX_VARS]) -> Vec<Atom> {
    let cost = |a: &Atom, bound: &[bool; MAX_VARS]| -> usize {
        let free = |t: &Term| matches!(t, Term::Var(i) if !bound[*i as usize]) as usize;
        match a {
            Atom::Edge(t1, t2) => match free(t1) + free(t2) {
                0 => 0, // membership check
                1 => 1, // successor/predecessor walk
                _ => 3, // all-edges scan
            },
            Atom::HasLabel(t, _) => match free(t) {
                0 => 0, // label check
                _ => 2, // label-bucket scan
            },
            Atom::Pred(_, ts) => {
                if ts.iter().map(free).sum::<usize>() == 0 {
                    0 // fact lookup
                } else if ts.iter().any(|t| free(t) == 0) {
                    1 // positional-index walk
                } else {
                    3 // whole-predicate scan
                }
            }
        }
    };
    let mut remaining: Vec<&Atom> = body.iter().collect();
    let mut out = Vec::with_capacity(body.len());
    while !remaining.is_empty() {
        let best = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, a)| cost(a, &bound))
            .map(|(i, _)| i)
            .expect("remaining is non-empty");
        let atom = remaining.remove(best);
        for t in match atom {
            Atom::Edge(t1, t2) => vec![t1, t2],
            Atom::HasLabel(t, _) => vec![t],
            Atom::Pred(_, ts) => ts.iter().collect(),
        } {
            if let Term::Var(i) = t {
                bound[*i as usize] = true;
            }
        }
        out.push(atom.clone());
    }
    out
}

/// Instantiate a rule's head under a complete assignment.
pub(crate) fn head_fact(rule: &Rule, bind: &Bind) -> Fact {
    let mut vals = [NodeId(0); MAX_ARITY];
    for (i, t) in rule.head_args.iter().enumerate() {
        vals[i] = bind.get(t).expect("head variables are body-bound");
    }
    Fact::new(rule.head_pred, &vals[..rule.head_args.len()])
}

/// Bind a body atom against the token being processed, into a **fresh**
/// [`Bind`] (no rollback support — the caller discards the binding on
/// `false`). `false` when the atom cannot match the token: wrong kind,
/// wrong predicate, constant/repeated-variable mismatch, or a label
/// mismatch for node tokens.
pub(crate) fn bind_pinned<V: FactView + ?Sized>(
    view: &V,
    atom: &Atom,
    token: &Token,
    bind: &mut Bind,
) -> bool {
    match (atom, token) {
        (Atom::Edge(t1, t2), Token::Edge(u, v)) => {
            bind.try_set(t1, *u).is_some() && bind.try_set(t2, *v).is_some()
        }
        (Atom::HasLabel(t, l), Token::Node(v)) => {
            view.label_of(*v) == Some(*l) && bind.try_set(t, *v).is_some()
        }
        (Atom::Pred(p, terms), Token::Derived(f)) if *p == f.pred => terms
            .iter()
            .zip(f.args())
            .all(|(t, n)| bind.try_set(t, *n).is_some()),
        _ => false,
    }
}
