//! The rule language: typed atoms over graph edges, node labels and derived
//! facts, assembled into monotone Datalog rules and compiled into a checked
//! [`Program`].
//!
//! The language is deliberately small — exactly what the maintenance
//! machinery in [`crate::inc`] can keep incrementally correct under both
//! insertions and deletions:
//!
//! * **base atoms** read the [`DynamicGraph`](igc_graph::DynamicGraph)
//!   directly: `Edge(x, y)` holds when the edge `x → y` is present, and
//!   `HasLabel(x, l)` holds when node `x` carries label `l`;
//! * **derived atoms** `p(t₁, …, tₖ)` refer to predicates declared on the
//!   [`RuleSet`] and populated by rules;
//! * every rule is **monotone** (no negation — the AST cannot express it),
//!   so any program has a unique least fixpoint and is trivially
//!   stratifiable; [`RuleSet::compile`] still computes the predicate
//!   dependency strata (they drive diagnostics and let the evaluator tell
//!   recursive predicates from non-recursive ones) and rejects malformed
//!   programs with a typed [`RuleError`].

use crate::eval::Token;
use igc_graph::{Label, NodeId};
use std::fmt;

/// Maximum arity of a derived predicate (facts are fixed-size arrays).
pub const MAX_ARITY: usize = 3;

/// Maximum number of distinct variables in one rule.
pub const MAX_VARS: usize = 16;

/// A predicate identifier, dense per [`RuleSet`] in declaration order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredId(pub u16);

/// A term: a rule variable or a concrete node constant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Term {
    /// A rule variable (scoped to one rule; ids must be `< MAX_VARS`).
    Var(u8),
    /// A concrete node.
    Node(NodeId),
}

/// Shorthand for [`Term::Var`].
pub fn v(i: u8) -> Term {
    Term::Var(i)
}

/// One body atom.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Atom {
    /// `Edge(x, y)`: the graph contains the edge `x → y`.
    Edge(Term, Term),
    /// `HasLabel(x, l)`: node `x` carries label `l`.
    HasLabel(Term, Label),
    /// `p(t₁, …, tₖ)`: the derived fact is present.
    Pred(PredId, Vec<Term>),
}

impl Atom {
    /// An edge atom.
    pub fn edge(from: Term, to: Term) -> Atom {
        Atom::Edge(from, to)
    }

    /// A node-label atom.
    pub fn has_label(node: Term, label: Label) -> Atom {
        Atom::HasLabel(node, label)
    }

    /// A derived-fact atom.
    pub fn pred(p: PredId, terms: &[Term]) -> Atom {
        Atom::Pred(p, terms.to_vec())
    }
}

/// One rule: `head(args) ⇐ body₁ ∧ … ∧ bodyₙ`.
#[derive(Clone, Debug)]
pub struct Rule {
    /// The derived predicate the rule populates.
    pub head_pred: PredId,
    /// Head argument terms (every variable must occur in the body).
    pub head_args: Vec<Term>,
    /// The (non-empty) conjunctive body.
    pub body: Vec<Atom>,
}

/// A typed error from rule registration or program compilation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuleError {
    /// A predicate name was declared twice.
    DuplicatePredicate {
        /// The offending name.
        name: String,
    },
    /// A predicate was declared with arity above [`MAX_ARITY`].
    ArityTooLarge {
        /// The offending name.
        name: String,
        /// The declared arity.
        arity: usize,
    },
    /// A rule refers to a [`PredId`] this rule set never issued.
    UnknownPredicate {
        /// The foreign id.
        pred: PredId,
    },
    /// A predicate was used with the wrong number of arguments.
    ArityMismatch {
        /// The predicate's name.
        pred: String,
        /// Its declared arity.
        expected: usize,
        /// The number of arguments at the use site.
        found: usize,
    },
    /// A rule has an empty body (bare facts are not expressible — base
    /// facts live in the graph).
    EmptyBody {
        /// The head predicate's name.
        head: String,
    },
    /// A head variable does not occur in the body (range restriction).
    UnboundHeadVar {
        /// The head predicate's name.
        head: String,
        /// The unbound variable id.
        var: u8,
    },
    /// A variable id is `≥ MAX_VARS`.
    VarOutOfRange {
        /// The offending variable id.
        var: u8,
    },
    /// A predicate occurs in a body but no rule derives it, so it would be
    /// permanently empty — almost always a typo.
    UndefinedPredicate {
        /// The underived predicate's name.
        pred: String,
    },
    /// [`RuleSet::compile`] was called on a set with no rules.
    NoRules,
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleError::DuplicatePredicate { name } => {
                write!(f, "predicate {name:?} declared twice")
            }
            RuleError::ArityTooLarge { name, arity } => write!(
                f,
                "predicate {name:?} has arity {arity}, above the maximum {MAX_ARITY}"
            ),
            RuleError::UnknownPredicate { pred } => write!(
                f,
                "predicate id {} was never declared on this rule set",
                pred.0
            ),
            RuleError::ArityMismatch {
                pred,
                expected,
                found,
            } => write!(
                f,
                "predicate {pred:?} has arity {expected} but was used with {found} arguments"
            ),
            RuleError::EmptyBody { head } => {
                write!(f, "rule for {head:?} has an empty body")
            }
            RuleError::UnboundHeadVar { head, var } => write!(
                f,
                "head variable ?{var} of a rule for {head:?} does not occur in its body"
            ),
            RuleError::VarOutOfRange { var } => write!(
                f,
                "variable id {var} is out of range (rules allow at most {MAX_VARS} variables)"
            ),
            RuleError::UndefinedPredicate { pred } => write!(
                f,
                "predicate {pred:?} occurs in a body but no rule derives it"
            ),
            RuleError::NoRules => write!(f, "the rule set contains no rules"),
        }
    }
}

impl std::error::Error for RuleError {}

/// A builder for a rule program: declare predicates, add rules, compile.
#[derive(Clone, Debug, Default)]
pub struct RuleSet {
    preds: Vec<(String, usize)>,
    rules: Vec<Rule>,
}

impl RuleSet {
    /// An empty rule set.
    pub fn new() -> RuleSet {
        RuleSet::default()
    }

    /// Declare a derived predicate with the given arity.
    pub fn predicate(&mut self, name: &str, arity: usize) -> Result<PredId, RuleError> {
        if self.preds.iter().any(|(n, _)| n == name) {
            return Err(RuleError::DuplicatePredicate { name: name.into() });
        }
        if arity > MAX_ARITY {
            return Err(RuleError::ArityTooLarge {
                name: name.into(),
                arity,
            });
        }
        let id = PredId(self.preds.len() as u16);
        self.preds.push((name.into(), arity));
        Ok(id)
    }

    fn check_pred_use(&self, pred: PredId, found: usize) -> Result<(), RuleError> {
        let Some((name, arity)) = self.preds.get(pred.0 as usize) else {
            return Err(RuleError::UnknownPredicate { pred });
        };
        if *arity != found {
            return Err(RuleError::ArityMismatch {
                pred: name.clone(),
                expected: *arity,
                found,
            });
        }
        Ok(())
    }

    /// Add the rule `head_pred(head_args) ⇐ body`, validating it eagerly.
    pub fn rule(
        &mut self,
        head_pred: PredId,
        head_args: &[Term],
        body: Vec<Atom>,
    ) -> Result<(), RuleError> {
        self.check_pred_use(head_pred, head_args.len())?;
        let head_name = || self.preds[head_pred.0 as usize].0.clone();
        if body.is_empty() {
            return Err(RuleError::EmptyBody { head: head_name() });
        }
        let mut body_vars = 0u32;
        let note = |t: &Term, mask: &mut u32| -> Result<(), RuleError> {
            if let Term::Var(i) = t {
                if *i as usize >= MAX_VARS {
                    return Err(RuleError::VarOutOfRange { var: *i });
                }
                *mask |= 1 << i;
            }
            Ok(())
        };
        for atom in &body {
            match atom {
                Atom::Edge(a, b) => {
                    note(a, &mut body_vars)?;
                    note(b, &mut body_vars)?;
                }
                Atom::HasLabel(a, _) => note(a, &mut body_vars)?,
                Atom::Pred(p, terms) => {
                    self.check_pred_use(*p, terms.len())?;
                    for t in terms {
                        note(t, &mut body_vars)?;
                    }
                }
            }
        }
        for t in head_args {
            let mut head_mask = 0u32;
            note(t, &mut head_mask)?;
            if head_mask & !body_vars != 0 {
                let Term::Var(i) = t else { unreachable!() };
                return Err(RuleError::UnboundHeadVar {
                    head: head_name(),
                    var: *i,
                });
            }
        }
        self.rules.push(Rule {
            head_pred,
            head_args: head_args.to_vec(),
            body,
        });
        Ok(())
    }

    /// Compile into a checked [`Program`]: verify every body predicate is
    /// derived by some rule, and compute the predicate dependency strata.
    pub fn compile(self) -> Result<Program, RuleError> {
        if self.rules.is_empty() {
            return Err(RuleError::NoRules);
        }
        let n = self.preds.len();
        let mut derived = vec![false; n];
        for r in &self.rules {
            derived[r.head_pred.0 as usize] = true;
        }
        // Dependency edges: head pred → body pred (deduplicated).
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
        for r in &self.rules {
            let h = r.head_pred.0 as usize;
            for atom in &r.body {
                if let Atom::Pred(p, _) = atom {
                    let b = p.0 as usize;
                    if !derived[b] {
                        return Err(RuleError::UndefinedPredicate {
                            pred: self.preds[b].0.clone(),
                        });
                    }
                    if !deps[h].contains(&b) {
                        deps[h].push(b);
                    }
                }
            }
        }
        let (strata, recursive) = stratify(n, &deps);
        // Per predicate its rules, the ones with all-base bodies first: a
        // derivation through one of those needs no other derived fact.
        let all_base = |r: &Rule| r.body.iter().all(|a| !matches!(a, Atom::Pred(..)));
        let mut deriving = vec![Vec::new(); n];
        for base_first in [true, false] {
            for (i, r) in self.rules.iter().enumerate() {
                if all_base(r) == base_first {
                    deriving[r.head_pred.0 as usize].push(i);
                }
            }
        }
        let head_bound = self
            .rules
            .iter()
            .map(|r| {
                let mut bound = [false; MAX_VARS];
                for t in &r.head_args {
                    if let Term::Var(i) = t {
                        bound[*i as usize] = true;
                    }
                }
                crate::eval::ordered_body(&r.body, bound)
            })
            .collect();
        let mut edge_sites = Vec::new();
        let mut label_sites = Vec::new();
        let mut pred_sites = vec![Vec::new(); n];
        for (ri, r) in self.rules.iter().enumerate() {
            for (j, atom) in r.body.iter().enumerate() {
                let site = PinSite {
                    rule: ri,
                    pos: j,
                    guards: guards(&r.body, j),
                };
                match atom {
                    Atom::Edge(..) => edge_sites.push(site),
                    Atom::HasLabel(..) => label_sites.push(site),
                    Atom::Pred(p, _) => pred_sites[p.0 as usize].push(site),
                }
            }
        }
        Ok(Program {
            preds: self.preds,
            rules: self.rules,
            strata,
            recursive,
            deriving,
            head_bound,
            edge_sites,
            label_sites,
            pred_sites,
        })
    }
}

/// The variables an atom mentions, as a bit set.
fn var_mask(atom: &Atom) -> u32 {
    let terms: &[Term] = match atom {
        Atom::Edge(t1, t2) => &[*t1, *t2],
        Atom::HasLabel(t, _) => &[*t],
        Atom::Pred(_, ts) => ts,
    };
    terms.iter().fold(0, |mask, t| match t {
        Term::Var(i) => mask | 1 << i,
        Term::Node(_) => mask,
    })
}

/// The guards of a token pinned at `body[j]` ([`PinSite::guards`]).
fn guards(body: &[Atom], j: usize) -> Vec<Atom> {
    let bound = var_mask(&body[j]);
    let mut guards: Vec<Atom> = body
        .iter()
        .enumerate()
        .filter(|&(k, a)| k != j && var_mask(a) & !bound == 0)
        .map(|(_, a)| a.clone())
        .collect();
    guards.sort_by_key(|a| match a {
        Atom::HasLabel(..) => 0,
        Atom::Edge(..) => 1,
        Atom::Pred(..) => 2,
    });
    guards
}

/// Tarjan condensation of the predicate dependency graph, emitted in
/// *reverse topological* order (dependencies before dependents) together
/// with a per-predicate "sits in a dependency cycle" flag.
fn stratify(n: usize, deps: &[Vec<usize>]) -> (Vec<Vec<PredId>>, Vec<bool>) {
    // Iterative Tarjan over at most `n` tiny nodes.
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        // (node, next child position)
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (u, ref mut ci)) = call.last_mut() {
            if *ci == 0 {
                index[u] = next;
                low[u] = next;
                next += 1;
                stack.push(u);
                on_stack[u] = true;
            }
            if *ci < deps[u].len() {
                let w = deps[u][*ci];
                *ci += 1;
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[u] = low[u].min(index[w]);
                }
            } else {
                if low[u] == index[u] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == u {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    sccs.push(comp);
                }
                call.pop();
                if let Some(&mut (p, _)) = call.last_mut() {
                    low[p] = low[p].min(low[u]);
                }
            }
        }
    }
    // Tarjan pops SCCs in reverse topological order of the dependency
    // digraph head→body; since dependencies are *successors* here, the pop
    // order already lists dependencies before dependents.
    let mut recursive = vec![false; n];
    for comp in &sccs {
        let cyclic = comp.len() > 1 || deps[comp[0]].contains(&comp[0]);
        for &p in comp {
            recursive[p] = cyclic;
        }
    }
    let strata = sccs
        .into_iter()
        .map(|c| c.into_iter().map(|p| PredId(p as u16)).collect())
        .collect();
    (strata, recursive)
}

/// A compiled, validated rule program — the immutable input to both the
/// naive fixpoint oracle ([`crate::naive`]) and the incremental view
/// ([`crate::IncRules`]).
#[derive(Clone, Debug)]
pub struct Program {
    preds: Vec<(String, usize)>,
    rules: Vec<Rule>,
    strata: Vec<Vec<PredId>>,
    recursive: Vec<bool>,
    /// Per predicate: indices of the rules deriving it, those whose bodies
    /// are all base atoms first.
    deriving: Vec<Vec<usize>>,
    /// Per rule: its body in head-bound join order.
    head_bound: Vec<Vec<Atom>>,
    /// The body atoms a token can be pinned at, in rule-then-position
    /// order: every edge atom, every label atom, and per predicate the
    /// atoms over it.
    edge_sites: Vec<PinSite>,
    label_sites: Vec<PinSite>,
    pred_sites: Vec<Vec<PinSite>>,
}

/// A body atom a token can be pinned at, with the atoms the pin decides.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct PinSite {
    /// The rule.
    pub rule: usize,
    /// The pinned atom's body position.
    pub pos: usize,
    /// The rule's other body atoms whose terms are all constants or
    /// variables the pinned atom binds, cheapest first: label checks, then
    /// edge membership, then fact lookups (body order within a kind). Once
    /// the pin has bound the token, each is one probe, and a binding one of
    /// them rejects completes no instantiation.
    pub guards: Vec<Atom>,
}

impl Program {
    /// Number of declared predicates.
    pub fn pred_count(&self) -> usize {
        self.preds.len()
    }

    /// Number of rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// A predicate's name.
    pub fn pred_name(&self, p: PredId) -> &str {
        &self.preds[p.0 as usize].0
    }

    /// A predicate's arity.
    pub fn arity(&self, p: PredId) -> usize {
        self.preds[p.0 as usize].1
    }

    /// Look a predicate up by name.
    pub fn pred_id(&self, name: &str) -> Option<PredId> {
        self.preds
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| PredId(i as u16))
    }

    /// The predicate dependency strata (SCCs of the head→body dependency
    /// graph), dependencies before dependents.
    pub fn strata(&self) -> &[Vec<PredId>] {
        &self.strata
    }

    /// Whether `p` sits in a dependency cycle (defined — possibly
    /// transitively — in terms of itself).
    pub fn is_recursive(&self, p: PredId) -> bool {
        self.recursive[p.0 as usize]
    }

    /// The rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Indices of the rules deriving `p`, those with all-base bodies first
    /// — the cheapest witnesses that a fact is still derivable, so the
    /// deletion machinery finds them before it joins against derived facts.
    pub(crate) fn rules_deriving(&self, p: PredId) -> &[usize] {
        &self.deriving[p.0 as usize]
    }

    /// Rule `rule`'s body in the join order for an enumeration that starts
    /// with the head's variables bound (sound only without a pin).
    pub(crate) fn head_bound_body(&self, rule: usize) -> &[Atom] {
        &self.head_bound[rule]
    }

    /// Every body atom of `token`'s own kind, in rule-then-position order —
    /// the only atoms it can be pinned at — each with its guards: the other
    /// atoms of its rule the pin alone decides, which the maintenance
    /// passes probe before they join.
    pub(crate) fn pin_sites(&self, token: &Token) -> &[PinSite] {
        match token {
            Token::Edge(..) => &self.edge_sites,
            Token::Node(_) => &self.label_sites,
            Token::Derived(f) => &self.pred_sites[f.pred.0 as usize],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_pred_set() -> (RuleSet, PredId, PredId) {
        let mut rs = RuleSet::new();
        let reach = rs.predicate("reach", 2).unwrap();
        let hot = rs.predicate("hot", 1).unwrap();
        (rs, reach, hot)
    }

    #[test]
    fn compile_computes_strata_and_recursion() {
        let (mut rs, reach, hot) = two_pred_set();
        rs.rule(reach, &[v(0), v(1)], vec![Atom::edge(v(0), v(1))])
            .unwrap();
        rs.rule(
            reach,
            &[v(0), v(2)],
            vec![Atom::pred(reach, &[v(0), v(1)]), Atom::edge(v(1), v(2))],
        )
        .unwrap();
        rs.rule(
            hot,
            &[v(1)],
            vec![
                Atom::pred(reach, &[v(0), v(1)]),
                Atom::has_label(v(1), Label(2)),
            ],
        )
        .unwrap();
        let p = rs.compile().unwrap();
        assert_eq!(p.pred_count(), 2);
        assert_eq!(p.rule_count(), 3);
        assert!(p.is_recursive(reach));
        assert!(!p.is_recursive(hot));
        // reach's stratum precedes hot's.
        let strata = p.strata();
        let pos = |q: PredId| strata.iter().position(|s| s.contains(&q)).unwrap();
        assert!(pos(reach) < pos(hot));
        assert_eq!(p.pred_id("reach"), Some(reach));
        assert_eq!(p.pred_name(hot), "hot");
        assert_eq!(p.arity(reach), 2);
        // reach's all-base rule comes first; hot has the one rule.
        assert_eq!(p.rules_deriving(reach), &[0, 1]);
        assert_eq!(p.rules_deriving(hot), &[2]);
        // Head-bound order: with `?1` fixed, the label check goes first.
        assert_eq!(
            p.head_bound_body(2),
            &[
                Atom::has_label(v(1), Label(2)),
                Atom::pred(reach, &[v(0), v(1)])
            ]
        );
    }

    /// `(rule, position, guards)` of every pin site `token` is tried at.
    fn sites(p: &Program, token: Token) -> Vec<(usize, usize, Vec<Atom>)> {
        p.pin_sites(&token)
            .iter()
            .map(|s| (s.rule, s.pos, s.guards.clone()))
            .collect()
    }

    #[test]
    fn pin_sites_carry_the_atoms_their_pin_binds_cheapest_first() {
        use crate::eval::Fact;
        use igc_graph::NodeId;
        let (vuln, critical) = (Label(2), Label(3));
        let mut rs = RuleSet::new();
        let exec = rs.predicate("exec", 1).unwrap();
        let goal = rs.predicate("goal", 1).unwrap();
        rs.rule(exec, &[v(0)], vec![Atom::has_label(v(0), Label(1))])
            .unwrap();
        for target in [vuln, critical] {
            rs.rule(
                exec,
                &[v(1)],
                vec![
                    Atom::pred(exec, &[v(0)]),
                    Atom::edge(v(0), v(1)),
                    Atom::has_label(v(1), target),
                ],
            )
            .unwrap();
        }
        rs.rule(
            goal,
            &[v(0)],
            vec![Atom::pred(exec, &[v(0)]), Atom::has_label(v(0), critical)],
        )
        .unwrap();
        let p = rs.compile().unwrap();
        let (x, y) = (v(0), v(1));
        // An edge token binds both ends: the label check on the target
        // goes before the fact lookup at the source, against body order.
        assert_eq!(
            sites(&p, Token::Edge(NodeId(0), NodeId(1))),
            vec![
                (1, 1, vec![Atom::has_label(y, vuln), Atom::pred(exec, &[x])]),
                (
                    2,
                    1,
                    vec![Atom::has_label(y, critical), Atom::pred(exec, &[x])]
                ),
            ]
        );
        // `exec(x)` in an edge rule binds no `y`: only goal's site guards.
        assert_eq!(
            sites(&p, Token::Derived(Fact::new(exec, &[NodeId(0)]))),
            vec![
                (1, 0, vec![]),
                (2, 0, vec![]),
                (3, 0, vec![Atom::has_label(x, critical)]),
            ]
        );
        assert_eq!(
            sites(&p, Token::Node(NodeId(0))),
            vec![
                (0, 0, vec![]),
                (1, 2, vec![]),
                (2, 2, vec![]),
                (3, 1, vec![Atom::pred(exec, &[x])]),
            ]
        );

        // Binary reach: each atom of the recursive rule leaves a variable
        // of the other free, so no site has a guard.
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
        let p = rs.compile().unwrap();
        assert_eq!(
            sites(&p, Token::Edge(NodeId(0), NodeId(1))),
            vec![(0, 0, vec![]), (1, 1, vec![])]
        );
        assert_eq!(
            sites(
                &p,
                Token::Derived(Fact::new(reach, &[NodeId(0), NodeId(1)]))
            ),
            vec![(1, 0, vec![])]
        );
    }

    #[test]
    fn registration_rejects_malformed_rules() {
        let (mut rs, reach, hot) = two_pred_set();
        assert_eq!(
            rs.predicate("reach", 1).unwrap_err(),
            RuleError::DuplicatePredicate {
                name: "reach".into()
            }
        );
        assert_eq!(
            rs.predicate("wide", MAX_ARITY + 1).unwrap_err(),
            RuleError::ArityTooLarge {
                name: "wide".into(),
                arity: MAX_ARITY + 1
            }
        );
        assert_eq!(
            rs.rule(PredId(7), &[v(0)], vec![Atom::edge(v(0), v(1))])
                .unwrap_err(),
            RuleError::UnknownPredicate { pred: PredId(7) }
        );
        assert_eq!(
            rs.rule(reach, &[v(0)], vec![Atom::edge(v(0), v(1))])
                .unwrap_err(),
            RuleError::ArityMismatch {
                pred: "reach".into(),
                expected: 2,
                found: 1
            }
        );
        assert_eq!(
            rs.rule(hot, &[v(0)], vec![]).unwrap_err(),
            RuleError::EmptyBody { head: "hot".into() }
        );
        assert_eq!(
            rs.rule(hot, &[v(3)], vec![Atom::edge(v(0), v(1))])
                .unwrap_err(),
            RuleError::UnboundHeadVar {
                head: "hot".into(),
                var: 3
            }
        );
        assert_eq!(
            rs.rule(
                hot,
                &[v(0)],
                vec![Atom::edge(v(0), Term::Var(MAX_VARS as u8))]
            )
            .unwrap_err(),
            RuleError::VarOutOfRange {
                var: MAX_VARS as u8
            }
        );
        assert_eq!(RuleSet::new().compile().unwrap_err(), RuleError::NoRules);
        // hot used in a body but never derived.
        rs.rule(reach, &[v(0), v(0)], vec![Atom::pred(hot, &[v(0)])])
            .unwrap();
        assert_eq!(
            rs.compile().unwrap_err(),
            RuleError::UndefinedPredicate { pred: "hot".into() }
        );
    }

    #[test]
    fn constants_and_repeated_vars_are_allowed() {
        let mut rs = RuleSet::new();
        let looped = rs.predicate("looped", 1).unwrap();
        let pinned = rs.predicate("pinned", 1).unwrap();
        rs.rule(looped, &[v(0)], vec![Atom::edge(v(0), v(0))])
            .unwrap();
        // A constant head argument needs no body occurrence.
        rs.rule(
            pinned,
            &[Term::Node(igc_graph::NodeId(4))],
            vec![Atom::edge(v(0), Term::Node(igc_graph::NodeId(4)))],
        )
        .unwrap();
        let p = rs.compile().unwrap();
        assert!(!p.is_recursive(looped));
        assert!(!p.is_recursive(pinned));
    }

    /// Every `RuleError` variant displays its offending details — the
    /// table-driven round-trip with the exhaustive-match guard from PR 5:
    /// adding a variant without extending the table fails to compile.
    #[test]
    fn every_variant_displays_its_offending_details() {
        let table: Vec<(RuleError, Vec<&str>)> = vec![
            (
                RuleError::DuplicatePredicate { name: "dup".into() },
                vec!["dup", "twice"],
            ),
            (
                RuleError::ArityTooLarge {
                    name: "wide".into(),
                    arity: 9,
                },
                vec!["wide", "9", "3"],
            ),
            (
                RuleError::UnknownPredicate { pred: PredId(41) },
                vec!["41", "never declared"],
            ),
            (
                RuleError::ArityMismatch {
                    pred: "reach".into(),
                    expected: 2,
                    found: 1,
                },
                vec!["reach", "arity 2", "1 argument"],
            ),
            (
                RuleError::EmptyBody {
                    head: "goal".into(),
                },
                vec!["goal", "empty body"],
            ),
            (
                RuleError::UnboundHeadVar {
                    head: "goal".into(),
                    var: 5,
                },
                vec!["goal", "?5", "does not occur"],
            ),
            (RuleError::VarOutOfRange { var: 200 }, vec!["200", "16"]),
            (
                RuleError::UndefinedPredicate {
                    pred: "exce".into(),
                },
                vec!["exce", "no rule derives"],
            ),
            (RuleError::NoRules, vec!["no rules"]),
        ];
        for (err, fragments) in &table {
            // Compile-time completeness guard: no wildcard arm.
            match err {
                RuleError::DuplicatePredicate { .. }
                | RuleError::ArityTooLarge { .. }
                | RuleError::UnknownPredicate { .. }
                | RuleError::ArityMismatch { .. }
                | RuleError::EmptyBody { .. }
                | RuleError::UnboundHeadVar { .. }
                | RuleError::VarOutOfRange { .. }
                | RuleError::UndefinedPredicate { .. }
                | RuleError::NoRules => {}
            }
            let shown = err.to_string();
            for frag in fragments {
                assert!(
                    shown.contains(frag),
                    "{err:?} displays {shown:?}, missing {frag:?}"
                );
            }
        }
        assert_eq!(table.len(), 9, "one row per RuleError variant");
    }
}
