//! The `IncView::clone_view` contract for `IncRpq`: the published copy
//! answers like the original, is independent of it, is still a valid view —
//! and carries no markings.

use igc_core::IncView;
use igc_graph::generator::{random_update_batch, uniform_graph};
use igc_graph::{DynamicGraph, LabelInterner, NodeId};
use igc_nfa::Regex;
use igc_rpq::IncRpq;

/// Every public read accessor, `contains_pair` over all node pairs.
fn reads(v: &IncRpq, g: &DynamicGraph) -> (Vec<(NodeId, NodeId)>, Vec<bool>) {
    let hits = g
        .nodes()
        .flat_map(|a| g.nodes().map(move |b| (a, b)))
        .map(|(a, b)| v.contains_pair(a, b))
        .collect();
    (v.sorted_answer(), hits)
}

fn rpq(v: &dyn IncView) -> &IncRpq {
    v.downcast_ref().expect("an IncRpq")
}

fn step(g: &mut DynamicGraph, v: &mut dyn IncView, seed: u64) {
    let delta = random_update_batch(g, 10, 0.5, seed);
    g.apply_batch(&delta);
    v.apply(g, &delta);
}

#[test]
fn clone_view_publishes_the_answer_and_never_the_markings() {
    let mut g = uniform_graph(40, 140, 3, 7);
    let q = Regex::parse("l0.(l1+l2)*.l2", &mut LabelInterner::new()).unwrap();
    let mut original = IncRpq::new(&g, &q);
    for seed in 0..3 {
        step(&mut g, &mut original, seed);
    }
    let mut copy = original.clone_view();
    let mut g_copy = g.clone();

    // (i) answer-identical at the moment of the copy.
    let frozen = reads(rpq(copy.as_ref()), &g);
    assert_eq!(frozen, reads(&original, &g));
    assert!(!frozen.0.is_empty(), "a trivial answer proves nothing");
    assert_eq!(copy.work(), original.work());

    // (iv) auxiliary state is never published.
    assert!(original.mark_count() > 0);
    assert_eq!(rpq(copy.as_ref()).mark_count(), 0);
    assert!(rpq(copy.as_ref()).marking_signature().is_empty());

    // (ii) independent: the original moves on, the copy does not.
    for seed in 100..120 {
        step(&mut g, &mut original, seed);
    }
    assert_ne!(reads(&original, &g), frozen, "the original did move");
    assert_eq!(reads(rpq(copy.as_ref()), &g), frozen);
    assert_eq!(copy.verify_against_batch(&g_copy), Ok(()));

    // (iii) still a valid view: its first apply rebuilds the markings from
    // the graph it is handed, later ones maintain them.
    for seed in 200..203 {
        step(&mut g_copy, copy.as_mut(), seed);
        assert_eq!(copy.verify_against_batch(&g_copy), Ok(()));
        assert!(rpq(copy.as_ref()).mark_count() > 0);
    }
    assert_eq!(IncView::verify_against_batch(&original, &g), Ok(()));
}
