//! The `IncView::clone_view` contract for `IncScc`: the published copy
//! answers like the original, is independent of it, and is still a valid
//! view.

use igc_core::IncView;
use igc_graph::generator::{random_update_batch, uniform_graph};
use igc_graph::{DynamicGraph, NodeId};
use igc_scc::IncScc;

/// Every public read accessor, `same_scc` over all node pairs.
fn reads(v: &IncScc, g: &DynamicGraph) -> (Vec<Vec<NodeId>>, usize, Vec<bool>) {
    let same = g
        .nodes()
        .flat_map(|a| g.nodes().map(move |b| (a, b)))
        .map(|(a, b)| v.same_scc(a, b))
        .collect();
    (v.components(), v.scc_count(), same)
}

fn scc(v: &dyn IncView) -> &IncScc {
    v.downcast_ref().expect("an IncScc")
}

fn step(g: &mut DynamicGraph, v: &mut dyn IncView, seed: u64) {
    let delta = random_update_batch(g, 10, 0.5, seed);
    g.apply_batch(&delta);
    v.apply(g, &delta);
}

#[test]
fn clone_view_publishes_an_independent_valid_copy() {
    let mut g = uniform_graph(40, 70, 1, 7);
    let mut original = IncScc::new(&g);
    for seed in 0..3 {
        step(&mut g, &mut original, seed);
    }
    let mut copy = original.clone_view();
    let mut g_copy = g.clone();

    // (i) answer-identical at the moment of the copy.
    let frozen = reads(scc(copy.as_ref()), &g);
    assert_eq!(frozen, reads(&original, &g));
    assert_eq!(copy.work(), original.work());

    // (ii) independent: the original moves on, the copy does not.
    for seed in 100..120 {
        step(&mut g, &mut original, seed);
    }
    assert_ne!(reads(&original, &g), frozen, "the original did move");
    assert_eq!(reads(scc(copy.as_ref()), &g), frozen);
    assert_eq!(copy.verify_against_batch(&g_copy), Ok(()));

    // (iii) still a valid view.
    for seed in 200..203 {
        step(&mut g_copy, copy.as_mut(), seed);
        assert_eq!(copy.verify_against_batch(&g_copy), Ok(()));
    }
    assert_eq!(IncView::verify_against_batch(&original, &g), Ok(()));
}
