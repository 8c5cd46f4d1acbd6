#![warn(missing_docs)]

//! Declarative delta-rule views — a generic, rule-programmable fifth view
//! class over the incremental engine.
//!
//! Where `igc_scc`/`igc_kws`/`igc_rpq`/`igc_iso` each hard-code one query
//! class, this crate maintains the derived facts of an arbitrary **monotone
//! Datalog program** over the shared graph's base facts (edges and node
//! labels):
//!
//! * [`ast`] — the typed rule language: [`RuleSet`] builder, registration
//!   validation with typed [`RuleError`]s, and stratification into a
//!   compiled [`Program`],
//! * [`naive`] — [`naive_fixpoint`], the from-scratch bottom-up oracle the
//!   incremental view audits against,
//! * `eval` (private) — the shared conjunctive-join primitive and the
//!   exactly-once token-pin discipline,
//! * [`inc`] — [`IncRules`]: semi-naive delta evaluation with support
//!   counting and derivation ranks; deletions run a counting pass, then
//!   retract and re-ground only the facts whose lower-ranked derivation
//!   broke, so retraction storms never degenerate into from-scratch
//!   re-evaluation.
//!
//! In the paper's terms ([Fan, Hu, Tian, SIGMOD 2017]) this is the
//! "relatively bounded" regime: maintenance cost is measured in the
//! instantiations the changed facts participate in (`AFF`), not in `|G|`.
//!
//! # Quickstart
//!
//! ```
//! use igc_graph::graph::graph_from;
//! use igc_graph::{Label, NodeId, Update, UpdateBatch};
//! use igc_core::IncView;
//! use igc_rules::{v, Atom, IncRules, RuleSet};
//!
//! // exec(y) ⇐ entry(y);  exec(y) ⇐ exec(x) ∧ edge(x,y)
//! let mut rs = RuleSet::new();
//! let exec = rs.predicate("exec", 1).unwrap();
//! rs.rule(exec, &[v(0)], vec![Atom::has_label(v(0), Label(1))]).unwrap();
//! rs.rule(exec, &[v(1)], vec![Atom::pred(exec, &[v(0)]), Atom::edge(v(0), v(1))]).unwrap();
//! let program = rs.compile().unwrap();
//!
//! let mut g = graph_from(&[1, 0, 0], &[(0, 1), (1, 2)]);
//! let mut view = IncRules::new(&g, program);
//! assert!(view.holds(exec, &[NodeId(2)]));
//!
//! let delta = UpdateBatch::from_updates(vec![Update::delete(NodeId(0), NodeId(1))]);
//! g.apply_batch(&delta);
//! view.apply(&g, &delta);
//! assert!(!view.holds(exec, &[NodeId(2)]));
//! // Audit against the naive oracle (the `IncView` entry point).
//! igc_core::IncView::verify_against_batch(&view, &g).unwrap();
//! ```

pub mod ast;
mod eval;
pub mod inc;
pub mod naive;

pub use ast::{v, Atom, PredId, Program, Rule, RuleError, RuleSet, Term, MAX_ARITY, MAX_VARS};
pub use eval::Fact;
pub use inc::{IncRules, RulesDelta};
pub use naive::{naive_fixpoint, NaiveEval};
