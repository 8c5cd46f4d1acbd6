//! Pin-site guards only reject: `IncRules` with a guard on every atom kind
//! holds the naive fixpoint's facts, support counts and rank certificates
//! (`verify_against_batch`) through random batches that bring fresh
//! labelled nodes, over 64 seeded cases; a failing case's seed is printed.

use igc_core::IncView;
use igc_graph::{DynamicGraph, Edge, Label, NodeId, Update, UpdateBatch};
use igc_rules::{v, Atom, Program, RuleSet, Term};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LABELS: u32 = 4;

/// Run `body` on 64 seeded cases. Each prints its seed first, so the
/// output of a failing test ends with the seed of the case that failed.
fn cases(mut body: impl FnMut(&mut StdRng)) {
    for seed in 0..64 {
        eprintln!("case seed {seed}");
        body(&mut StdRng::seed_from_u64(seed));
    }
}

/// Guards of every kind at every kind of pin site (`x` = `?0`, `y` = `?1`):
///
/// ```text
/// reach(x, y) ⇐ edge(x, y) ∧ label(x, 0)
/// reach(x, z) ⇐ reach(x, y) ∧ edge(y, z)
/// loop(x)     ⇐ edge(x, x) ∧ label(x, 1)               repeated variable
/// near(y)     ⇐ edge(#0, y) ∧ label(y, 1)              constant term
/// pair(x)     ⇐ near(x) ∧ edge(x, y) ∧ near(x)         one fact, two positions
/// bridge(x, y) ⇐ reach(x, y) ∧ edge(y, x) ∧ reach(y, x) bound facts either side
/// lit(x)      ⇐ loop(x) ∧ label(#1, 2)                 constant label check
/// ```
///
/// Every label atom is also a node-token pin site, and its guards are the
/// other atoms over its variable (`edge(x, x)`, `edge(#0, y)`).
fn guarded_program() -> Program {
    let (x, y, z) = (v(0), v(1), v(2));
    let (c0, c1) = (Term::Node(NodeId(0)), Term::Node(NodeId(1)));
    let mut rs = RuleSet::new();
    let reach = rs.predicate("reach", 2).unwrap();
    let looped = rs.predicate("loop", 1).unwrap();
    let near = rs.predicate("near", 1).unwrap();
    let pair = rs.predicate("pair", 1).unwrap();
    let bridge = rs.predicate("bridge", 2).unwrap();
    let lit = rs.predicate("lit", 1).unwrap();
    let rules = [
        (
            reach,
            vec![x, y],
            vec![Atom::edge(x, y), Atom::has_label(x, Label(0))],
        ),
        (
            reach,
            vec![x, z],
            vec![Atom::pred(reach, &[x, y]), Atom::edge(y, z)],
        ),
        (
            looped,
            vec![x],
            vec![Atom::edge(x, x), Atom::has_label(x, Label(1))],
        ),
        (
            near,
            vec![y],
            vec![Atom::edge(c0, y), Atom::has_label(y, Label(1))],
        ),
        (
            pair,
            vec![x],
            vec![
                Atom::pred(near, &[x]),
                Atom::edge(x, y),
                Atom::pred(near, &[x]),
            ],
        ),
        (
            bridge,
            vec![x, y],
            vec![
                Atom::pred(reach, &[x, y]),
                Atom::edge(y, x),
                Atom::pred(reach, &[y, x]),
            ],
        ),
        (
            lit,
            vec![x],
            vec![Atom::pred(looped, &[x]), Atom::has_label(c1, Label(2))],
        ),
    ];
    for (head, args, body) in rules {
        rs.rule(head, &args, body).unwrap();
    }
    rs.compile().unwrap()
}

/// The attack program: recursive `exec` behind label and fact guards, so
/// guarded tokens also feed suspects and repair.
fn attack_program() -> Program {
    let mut rs = RuleSet::new();
    let exec = rs.predicate("exec", 1).unwrap();
    let goal = rs.predicate("goal", 1).unwrap();
    rs.rule(exec, &[v(0)], vec![Atom::has_label(v(0), Label(1))])
        .unwrap();
    for target in [Label(2), Label(3)] {
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
        vec![Atom::pred(exec, &[v(0)]), Atom::has_label(v(0), Label(3))],
    )
    .unwrap();
    rs.compile().unwrap()
}

/// A small digraph as (labels, edges); self-loops occur.
fn arb_graph(rng: &mut StdRng) -> (Vec<u32>, Vec<(u32, u32)>) {
    let n = rng.gen_range(3u32..14);
    let labels = (0..n).map(|_| rng.gen_range(0..LABELS)).collect();
    let edge = |rng: &mut StdRng| (rng.gen_range(0..n), rng.gen_range(0..n));
    let edges: Vec<_> = (0..rng.gen_range(0usize..48)).map(|_| edge(rng)).collect();
    (labels, edges)
}

/// One raw unit: delete or insert between ids up to a few past any graph
/// [`arb_graph`] draws (fresh nodes), each end with or without a label.
type RawUnit = (bool, u32, u32, u32, u32);

fn arb_batches(rng: &mut StdRng) -> Vec<Vec<RawUnit>> {
    let label = |rng: &mut StdRng| rng.gen_range(0..=LABELS);
    let unit = |rng: &mut StdRng| {
        let (a, b) = (rng.gen_range(0u32..17), rng.gen_range(0u32..17));
        (rng.gen(), a, b, label(rng), label(rng))
    };
    let batch = |rng: &mut StdRng| (0..rng.gen_range(0usize..16)).map(|_| unit(rng)).collect();
    (0..5).map(|_| batch(rng)).collect()
}

fn batch_of(raw: &[RawUnit]) -> UpdateBatch {
    let label = |l: u32| (l < LABELS).then_some(Label(l));
    UpdateBatch::from_updates(
        raw.iter()
            .map(|&(insert, a, b, la, lb)| {
                if insert {
                    Update::insert_labeled(NodeId(a), NodeId(b), label(la), label(lb))
                } else {
                    Update::delete(NodeId(a), NodeId(b))
                }
            })
            .collect(),
    )
}

#[test]
fn guarded_views_match_the_naive_fixpoint() {
    cases(|rng| {
        let (labels, edges) = arb_graph(rng);
        let batches = arb_batches(rng);
        let labels: Vec<Label> = labels.into_iter().map(Label).collect();
        let edges: Vec<Edge> = edges
            .into_iter()
            .map(|(a, b)| (NodeId(a), NodeId(b)))
            .collect();
        for program in [guarded_program(), attack_program()] {
            let mut g = DynamicGraph::from_edges(labels.clone(), &edges).unwrap();
            let mut view = igc_rules::IncRules::new(&g, program);
            assert_eq!(view.verify_against_batch(&g), Ok(()));
            for raw in &batches {
                let delta = batch_of(raw).normalize_against(&g);
                g.apply_batch(&delta);
                view.apply(&g, &delta);
                assert_eq!(view.verify_against_batch(&g), Ok(()));
            }
        }
    });
}

/// The property above is only as strong as the facts it sees: on a graph
/// built for it, every predicate of [`guarded_program`] holds, each through
/// a site whose guards all pass.
#[test]
fn every_guarded_predicate_is_derivable() {
    // Node 0 carries label 0, node 1 label 2, nodes 2 and 3 label 1. The
    // loop on 0 makes `reach(0, 0)` and `bridge(0, 0)`, the loop on 2
    // `loop(2)` and `lit(2)`, 0 → 3 `near(3)`, and 3 → 3 `pair(3)`.
    let labels = [0, 2, 1, 1].map(Label).to_vec();
    let edges: Vec<Edge> = [(0, 0), (0, 1), (1, 2), (2, 1), (2, 2), (0, 3), (3, 3)]
        .map(|(a, b)| (NodeId(a), NodeId(b)))
        .to_vec();
    let g = DynamicGraph::from_edges(labels, &edges).unwrap();
    let program = guarded_program();
    let view = igc_rules::IncRules::new(&g, program.clone());
    assert_eq!(view.verify_against_batch(&g), Ok(()));
    for name in ["reach", "loop", "near", "pair", "bridge", "lit"] {
        let p = program.pred_id(name).unwrap();
        assert!(!view.facts_of(p).is_empty(), "no {name} fact");
    }
}
