//! The `IncView::clone_view` contract for `IncKws`: the published copy
//! answers like the original, is independent of it, and is still a valid
//! view.

use igc_core::IncView;
use igc_graph::generator::{random_update_batch, uniform_graph};
use igc_graph::{DynamicGraph, Label, NodeId};
use igc_kws::{IncKws, KwsQuery, MatchTree};

type Reads = (
    Vec<(NodeId, Vec<u32>)>,
    Vec<NodeId>,
    Vec<bool>,
    Vec<MatchTree>,
);

/// Every public read accessor: `is_match_root` over all nodes, `match_tree`
/// over all roots.
fn reads(v: &IncKws, g: &DynamicGraph) -> Reads {
    let roots = v.roots();
    let trees = roots.iter().map(|&r| v.match_tree(r)).collect();
    let is_root = g.nodes().map(|n| v.is_match_root(n)).collect();
    (v.answer_signature(), roots, is_root, trees)
}

fn kws(v: &dyn IncView) -> &IncKws {
    v.downcast_ref().expect("an IncKws")
}

fn step(g: &mut DynamicGraph, v: &mut dyn IncView, seed: u64) {
    let delta = random_update_batch(g, 10, 0.5, seed);
    g.apply_batch(&delta);
    v.apply(g, &delta);
}

#[test]
fn clone_view_publishes_an_independent_valid_copy() {
    let mut g = uniform_graph(40, 90, 4, 7);
    let mut original = IncKws::new(&g, KwsQuery::new(vec![Label(0), Label(1)], 2));
    for seed in 0..3 {
        step(&mut g, &mut original, seed);
    }
    let mut copy = original.clone_view();
    let mut g_copy = g.clone();

    // (i) answer-identical at the moment of the copy.
    let frozen = reads(kws(copy.as_ref()), &g);
    assert_eq!(frozen, reads(&original, &g));
    assert!(!frozen.1.is_empty(), "a trivial answer proves nothing");
    assert_eq!(copy.work(), original.work());

    // (ii) independent: the original moves on, the copy does not.
    for seed in 100..120 {
        step(&mut g, &mut original, seed);
    }
    assert_ne!(reads(&original, &g), frozen, "the original did move");
    assert_eq!(reads(kws(copy.as_ref()), &g), frozen);
    assert_eq!(copy.verify_against_batch(&g_copy), Ok(()));

    // (iii) still a valid view.
    for seed in 200..203 {
        step(&mut g_copy, copy.as_mut(), seed);
        assert_eq!(copy.verify_against_batch(&g_copy), Ok(()));
    }
    assert_eq!(IncView::verify_against_batch(&original, &g), Ok(()));
}
