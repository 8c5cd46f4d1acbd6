//! The `IncView::clone_view` contract for `IncIso`: the published copy
//! answers like the original, is independent of it, and is still a valid
//! view (its first `apply` rebuilds the edge index it was published
//! without).

use igc_core::IncView;
use igc_graph::generator::{random_update_batch, uniform_graph};
use igc_graph::DynamicGraph;
use igc_iso::{IncIso, MatchKey, Pattern};

/// Every public read accessor, `contains` over `probes`.
fn reads(v: &IncIso, probes: &[MatchKey]) -> (Vec<MatchKey>, Vec<bool>) {
    (
        v.sorted_matches(),
        probes.iter().map(|k| v.contains(k)).collect(),
    )
}

fn iso(v: &dyn IncView) -> &IncIso {
    v.downcast_ref().expect("an IncIso")
}

fn step(g: &mut DynamicGraph, v: &mut dyn IncView, seed: u64) {
    let delta = random_update_batch(g, 10, 0.5, seed);
    g.apply_batch(&delta);
    v.apply(g, &delta);
}

#[test]
fn clone_view_publishes_an_independent_valid_copy() {
    let mut g = uniform_graph(40, 160, 3, 7);
    let mut original = IncIso::new(&g, Pattern::from_parts(&[0, 1, 2], &[(0, 1), (1, 2)]));
    for seed in 0..3 {
        step(&mut g, &mut original, seed);
    }
    let mut copy = original.clone_view();
    let mut g_copy = g.clone();

    // (i) answer-identical at the moment of the copy.
    let then = original.sorted_matches();
    let frozen = reads(iso(copy.as_ref()), &then);
    assert_eq!(frozen, reads(&original, &then));
    assert!(!then.is_empty(), "a trivial answer proves nothing");
    assert_eq!(copy.work(), original.work());

    // (ii) independent: the original moves on, the copy does not — probed
    // with the matches of both moments.
    for seed in 100..120 {
        step(&mut g, &mut original, seed);
    }
    let now = original.sorted_matches();
    assert_ne!(now, then, "the original did move");
    assert_eq!(reads(iso(copy.as_ref()), &then), frozen);
    let still: Vec<bool> = now.iter().map(|k| then.contains(k)).collect();
    assert_eq!(reads(iso(copy.as_ref()), &now).1, still);
    assert_eq!(copy.verify_against_batch(&g_copy), Ok(()));

    // (iii) still a valid view.
    for seed in 200..203 {
        step(&mut g_copy, copy.as_mut(), seed);
        assert_eq!(copy.verify_against_batch(&g_copy), Ok(()));
    }
    assert_eq!(IncView::verify_against_batch(&original, &g), Ok(()));
}
