//! Edge cases and failure-injection tests across the public API: empty
//! structures, degenerate queries, repeated churn on the same edge,
//! self-loops, disconnected graphs, and the bound-raising extension under
//! subsequent updates.

use incgraph::prelude::*;
use incgraph::scc::tarjan;

fn two_label_graph() -> (DynamicGraph, NodeId, NodeId, NodeId) {
    let mut g = DynamicGraph::new();
    let a = g.add_node(Label(0));
    let b = g.add_node(Label(1));
    let c = g.add_node(Label(0));
    g.insert_edge(a, b);
    g.insert_edge(b, c);
    (g, a, b, c)
}

#[test]
fn empty_batch_is_a_noop_everywhere() {
    let (mut g, ..) = two_label_graph();
    let mut labels = LabelInterner::new();
    labels.intern("l0");
    labels.intern("l1");
    let q = Regex::parse("l0.l1", &mut labels).unwrap();
    let mut rpq = IncRpq::new(&g, &q);
    let mut kws = IncKws::new(&g, KwsQuery::new(vec![Label(1)], 1));
    let mut scc = IncScc::new(&g);
    let mut iso = IncIso::new(&g, Pattern::from_parts(&[0, 1], &[(0, 1)]));

    let before = (
        rpq.sorted_answer(),
        kws.answer_signature(),
        scc.components(),
        iso.sorted_matches(),
    );
    let empty = UpdateBatch::new();
    g.apply_batch(&empty);
    rpq.apply(&g, &empty);
    kws.apply(&g, &empty);
    scc.apply(&g, &empty);
    iso.apply(&g, &empty);
    assert_eq!(before.0, rpq.sorted_answer());
    assert_eq!(before.1, kws.answer_signature());
    assert_eq!(before.2, scc.components());
    assert_eq!(before.3, iso.sorted_matches());
}

#[test]
fn delete_then_reinsert_same_edge_round_trips() {
    // Churn the same edge repeatedly; every algorithm must return to its
    // original answer each time the edge returns.
    let (mut g, a, b, _) = two_label_graph();
    let mut labels = LabelInterner::new();
    labels.intern("l0");
    labels.intern("l1");
    let q = Regex::parse("l0.l1.l0", &mut labels).unwrap();
    let mut rpq = IncRpq::new(&g, &q);
    let mut kws = IncKws::new(&g, KwsQuery::new(vec![Label(1)], 2));
    let mut scc = IncScc::new(&g);
    let original = (
        rpq.sorted_answer(),
        kws.answer_signature(),
        scc.components(),
    );

    for _ in 0..3 {
        let del = UpdateBatch::from_updates(vec![Update::delete(a, b)]);
        g.apply_batch(&del);
        rpq.apply(&g, &del);
        kws.apply(&g, &del);
        scc.apply(&g, &del);

        let ins = UpdateBatch::from_updates(vec![Update::insert(a, b)]);
        g.apply_batch(&ins);
        rpq.apply(&g, &ins);
        kws.apply(&g, &ins);
        scc.apply(&g, &ins);

        assert_eq!(rpq.sorted_answer(), original.0);
        assert_eq!(kws.answer_signature(), original.1);
        assert_eq!(scc.components(), original.2);
    }
}

#[test]
fn self_loop_churn_is_consistent() {
    let mut g = DynamicGraph::new();
    let v = g.add_node(Label(0));
    let w = g.add_node(Label(0));
    g.insert_edge(v, w);
    let mut scc = IncScc::new(&g);
    let mut labels = LabelInterner::new();
    labels.intern("l0");
    let q = Regex::parse("l0.l0*", &mut labels).unwrap();
    let mut rpq = IncRpq::new(&g, &q);

    let loop_ins = UpdateBatch::from_updates(vec![Update::insert(v, v)]);
    g.apply_batch(&loop_ins);
    scc.apply(&g, &loop_ins);
    rpq.apply(&g, &loop_ins);
    assert_eq!(scc.components(), tarjan(&g).canonical());
    // l0·l0* over a self-loop: (v, v) through the loop and (v, w).
    assert!(rpq.contains_pair(v, v));
    assert!(rpq.contains_pair(v, w));

    let loop_del = UpdateBatch::from_updates(vec![Update::delete(v, v)]);
    g.apply_batch(&loop_del);
    scc.apply(&g, &loop_del);
    rpq.apply(&g, &loop_del);
    assert_eq!(scc.components(), tarjan(&g).canonical());
    assert!(rpq.contains_pair(v, v), "single-symbol match survives");
}

#[test]
fn disconnected_components_do_not_interfere() {
    // Two islands; updates in one island leave the other's answers intact.
    let mut g = DynamicGraph::new();
    let a1 = g.add_node(Label(0));
    let a2 = g.add_node(Label(1));
    let b1 = g.add_node(Label(0));
    let b2 = g.add_node(Label(1));
    g.insert_edge(a1, a2);
    g.insert_edge(b1, b2);
    let mut kws = IncKws::new(&g, KwsQuery::new(vec![Label(1)], 1));
    assert!(kws.is_match_root(a1) && kws.is_match_root(b1));

    let del = UpdateBatch::from_updates(vec![Update::delete(a1, a2)]);
    g.apply_batch(&del);
    kws.apply(&g, &del);
    assert!(!kws.is_match_root(a1));
    assert!(kws.is_match_root(b1), "the other island is untouched");
}

#[test]
fn raise_bound_then_churn_then_verify() {
    // The Remark extension composes with later updates: raise b, mutate,
    // and the final state equals a fresh computation at the new bound.
    let mut g = DynamicGraph::new();
    let nodes: Vec<NodeId> = (0..6)
        .map(|i| g.add_node(Label(if i == 5 { 9 } else { 0 })))
        .collect();
    for w in nodes.windows(2) {
        g.insert_edge(w[0], w[1]);
    }
    let mut kws = IncKws::new(&g, KwsQuery::new(vec![Label(9)], 1));
    assert_eq!(kws.match_count(), 2); // nodes 4 (dist 1) and 5 (dist 0)

    kws.raise_bound(&g, 4);
    assert_eq!(kws.match_count(), 5);

    let delta = UpdateBatch::from_updates(vec![
        Update::delete(nodes[2], nodes[3]),
        Update::insert(nodes[0], nodes[3]),
    ]);
    g.apply_batch(&delta);
    kws.apply(&g, &delta);
    let fresh = IncKws::new(&g, KwsQuery::new(vec![Label(9)], 4));
    assert_eq!(kws.answer_signature(), fresh.answer_signature());
}

#[test]
fn iso_single_node_pattern_tracks_new_nodes() {
    let mut g = DynamicGraph::new();
    g.add_node(Label(7));
    let p = Pattern::from_parts(&[7], &[]);
    let mut iso = IncIso::new(&g, p);
    assert_eq!(iso.match_count(), 1);
    // An insertion that creates a labelled fresh node adds a match.
    let delta = UpdateBatch::from_updates(vec![Update::insert_labeled(
        NodeId(0),
        NodeId(1),
        None,
        Some(Label(7)),
    )]);
    g.apply_batch(&delta);
    iso.apply(&g, &delta);
    assert_eq!(iso.match_count(), 2);
}

#[test]
fn rpq_star_only_query_matches_every_labelled_node() {
    // Q = l0* accepts ε plus any l0-word; as a path query, every l0 node
    // matches itself and l0-chains match pairwise.
    let mut labels = LabelInterner::new();
    labels.intern("l0");
    let q = Regex::parse("l0*", &mut labels).unwrap();
    let mut g = DynamicGraph::new();
    let x = g.add_node(Label(0));
    let y = g.add_node(Label(0));
    let z = g.add_node(Label(1));
    g.insert_edge(x, y);
    g.insert_edge(y, z);
    let rpq = IncRpq::new(&g, &q);
    assert!(rpq.contains_pair(x, x));
    assert!(rpq.contains_pair(x, y));
    assert!(!rpq.contains_pair(y, z), "z's label breaks the word");
    assert!(
        !rpq.contains_pair(z, z),
        "ε-acceptance needs a 1-symbol word"
    );
}

#[test]
fn scc_total_collapse_and_rebuild() {
    // Insert edges until the whole graph is one scc, then delete until it
    // fully shatters — exercising repeated merges then repeated splits.
    let n = 20u32;
    let mut g = DynamicGraph::new();
    for _ in 0..n {
        g.add_node(Label(0));
    }
    for i in 0..n - 1 {
        g.insert_edge(NodeId(i), NodeId(i + 1));
    }
    let mut scc = IncScc::new(&g);
    assert_eq!(scc.scc_count(), n as usize);

    g.insert_edge(NodeId(n - 1), NodeId(0));
    scc.insert_edge(&g, NodeId(n - 1), NodeId(0));
    assert_eq!(scc.scc_count(), 1);
    assert_eq!(scc.components(), tarjan(&g).canonical());

    // Now delete the chain edges one by one; each deletion splits off more.
    for i in 0..n - 1 {
        g.delete_edge(NodeId(i), NodeId(i + 1));
        scc.delete_edge(&g, NodeId(i), NodeId(i + 1));
        assert_eq!(scc.components(), tarjan(&g).canonical(), "after cut {i}");
    }
    assert_eq!(scc.scc_count(), n as usize);
}

#[test]
fn work_counters_monotone() {
    let (mut g, a, b, _) = two_label_graph();
    let mut kws = IncKws::new(&g, KwsQuery::new(vec![Label(1)], 2));
    let w0 = kws.work().total();
    let del = UpdateBatch::from_updates(vec![Update::delete(a, b)]);
    g.apply_batch(&del);
    kws.apply(&g, &del);
    assert!(kws.work().total() >= w0, "counters never decrease");
}
