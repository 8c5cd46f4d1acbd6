//! Property-based tests: for arbitrary graphs, queries and update batches,
//! every incremental algorithm agrees with from-scratch recomputation, and
//! the core data-structure invariants hold. Each property runs 48 seeded
//! cases; a failing case's seed is printed.

use incgraph::graph::graph::graph_from;
use incgraph::iso::enumerate_matches;
use incgraph::nfa::build_nfa;
use incgraph::prelude::*;
use incgraph::rpq::batch as rpq_batch;
use incgraph::scc::tarjan;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Run `body` on 48 seeded cases. Each prints its seed first, so the
/// output of a failing test ends with the seed of the case that failed.
fn cases(mut body: impl FnMut(&mut StdRng)) {
    for seed in 0..48 {
        eprintln!("case seed {seed}");
        body(&mut StdRng::seed_from_u64(seed));
    }
}

/// A small random digraph as (node labels, edge list) with ≤ `n` nodes.
fn arb_graph(rng: &mut StdRng, n: u32, max_edges: usize) -> (Vec<u32>, Vec<(u32, u32)>) {
    let nodes = rng.gen_range(2..=n);
    let labels = (0..nodes).map(|_| rng.gen_range(0u32..4)).collect();
    let edges = arb_updates(rng, nodes, max_edges);
    (labels, edges.into_iter().map(|(_, a, b)| (a, b)).collect())
}

/// A batch of updates against the given node count: deletions reference
/// arbitrary pairs (absent ones are dropped below), insertions arbitrary
/// pairs; no self-loops.
fn arb_updates(rng: &mut StdRng, nodes: u32, count: usize) -> Vec<(bool, u32, u32)> {
    let unit = |rng: &mut StdRng| loop {
        let u = (rng.gen(), rng.gen_range(0..nodes), rng.gen_range(0..nodes));
        if u.1 != u.2 {
            return u;
        }
    };
    (0..rng.gen_range(0..count)).map(|_| unit(rng)).collect()
}

/// Make a well-formed batch (deletions of present edges, insertions of
/// absent ones, normalized) from raw generated units.
fn realize_batch(g: &DynamicGraph, raw: &[(bool, u32, u32)]) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    let mut staged = g.clone();
    for &(insert, a, b) in raw {
        let (a, b) = (NodeId(a), NodeId(b));
        if insert && !staged.contains_edge(a, b) {
            // May reference fresh nodes — `apply` creates them (label 2,
            // outside the keyword/anchor labels, via the default fallback).
            let u = Update::insert_labeled(a, b, Some(Label(2)), Some(Label(2)));
            staged.apply(&u);
            batch.push(u);
        } else if !insert && staged.contains_edge(a, b) {
            staged.delete_edge(a, b);
            batch.push(Update::delete(a, b));
        }
    }
    batch.normalized()
}

#[test]
fn scc_incremental_equals_tarjan() {
    cases(|rng| {
        let (labels, edges) = arb_graph(rng, 14, 40);
        let raw = arb_updates(rng, 14, 12);
        let mut g = graph_from(&labels, &edges);
        let mut inc = IncScc::new(&g);
        let delta = realize_batch(&g, &raw);
        g.apply_batch(&delta);
        inc.apply(&g, &delta);
        assert_eq!(inc.components(), tarjan(&g).canonical());
    });
}

#[test]
fn kws_incremental_equals_batch() {
    cases(|rng| {
        let (labels, edges) = arb_graph(rng, 14, 40);
        let raw = arb_updates(rng, 14, 12);
        let bound = rng.gen_range(1u32..4);
        let mut g = graph_from(&labels, &edges);
        let q = KwsQuery::new(vec![Label(0), Label(1)], bound);
        let mut inc = IncKws::new(&g, q.clone());
        let delta = realize_batch(&g, &raw);
        g.apply_batch(&delta);
        inc.apply(&g, &delta);
        let fresh = IncKws::new(&g, q.clone());
        assert_eq!(inc.answer_signature(), fresh.answer_signature());
        assert!(inc.kdist().check_invariants(&g, &q).is_ok());
    });
}

#[test]
fn rpq_incremental_equals_batch() {
    cases(|rng| {
        let (labels, edges) = arb_graph(rng, 12, 30);
        let raw = arb_updates(rng, 12, 10);
        let mut interner = LabelInterner::new();
        for i in 0..4 {
            interner.intern(&format!("l{i}"));
        }
        let q = Regex::parse("l0.(l1+l2)*.l3", &mut interner).unwrap();
        let mut g = graph_from(&labels, &edges);
        let mut inc = IncRpq::new(&g, &q);
        let delta = realize_batch(&g, &raw);
        g.apply_batch(&delta);
        inc.apply(&g, &delta);
        let mut w = WorkStats::new();
        let fresh = rpq_batch::evaluate(&g, &build_nfa(&q), &mut w);
        assert_eq!(inc.sorted_answer(), rpq_batch::sorted_answer(&fresh));
        // the marked configurations equal a fresh construction's, and
        // every rank and support list keeps its promise
        let rebuilt = IncRpq::new(&g, &q);
        assert_eq!(inc.marking_keys(), rebuilt.marking_keys());
        inc.verify_against_batch(&g).unwrap();
    });
}

#[test]
fn iso_incremental_equals_vf2() {
    cases(|rng| {
        let (labels, edges) = arb_graph(rng, 12, 30);
        let raw = arb_updates(rng, 12, 10);
        let p = Pattern::from_parts(&[0, 1], &[(0, 1)]);
        let mut g = graph_from(&labels, &edges);
        let mut inc = IncIso::new(&g, p.clone());
        let delta = realize_batch(&g, &raw);
        g.apply_batch(&delta);
        inc.apply(&g, &delta);
        let mut w = WorkStats::new();
        let mut fresh: Vec<_> = enumerate_matches(&g, &p, &mut w).into_iter().collect();
        fresh.sort();
        assert_eq!(inc.sorted_matches(), fresh);
    });
}

#[test]
fn scc_rank_invariant_survives_batches() {
    cases(|rng| {
        let (labels, edges) = arb_graph(rng, 12, 30);
        let raw = arb_updates(rng, 12, 10);
        let mut g = graph_from(&labels, &edges);
        let mut inc = IncScc::new(&g);
        let delta = realize_batch(&g, &raw);
        g.apply_batch(&delta);
        inc.apply(&g, &delta);
        assert!(inc.condensation().check_invariants().is_ok());
        // Ranks strictly decrease along every inter-component graph edge.
        for (u, v) in g.edges() {
            let (a, b) = (inc.scc_of(u), inc.scc_of(v));
            if a != b {
                assert!(inc.rank(a) > inc.rank(b));
            }
        }
    });
}

#[test]
fn update_normalization_is_idempotent() {
    cases(|rng| {
        let raw = arb_updates(rng, 10, 16);
        let ups: Vec<Update> = raw
            .iter()
            .map(|&(ins, a, b)| {
                if ins {
                    Update::insert(NodeId(a), NodeId(b))
                } else {
                    Update::delete(NodeId(a), NodeId(b))
                }
            })
            .collect();
        let batch = UpdateBatch::from_updates(ups);
        let once = batch.normalized();
        assert_eq!(once.normalized(), once.clone());
        // No edge appears both inserted and deleted after normalization.
        let ins: std::collections::HashSet<_> = once.insertions().map(|u| u.edge()).collect();
        for d in once.deletions() {
            assert!(!ins.contains(&d.edge()));
        }
    });
}
