//! The `IncView::clone_view` contract for `IncRules`: the published copy
//! answers like the original, is independent of it, and is still a valid
//! view.

use igc_core::IncView;
use igc_graph::generator::{random_update_batch, uniform_graph};
use igc_graph::DynamicGraph;
use igc_rules::{v, Atom, Fact, IncRules, PredId, RuleSet};

/// Every public read accessor; `support` and `holds` over `probes`.
fn reads(
    view: &IncRules,
    reach: PredId,
    probes: &[Fact],
) -> (Vec<Fact>, Vec<Fact>, Vec<(u32, bool)>) {
    let per_probe = probes
        .iter()
        .map(|f| (view.support(f.pred, f.args()), view.holds(f.pred, f.args())))
        .collect();
    (view.sorted_facts(), view.facts_of(reach), per_probe)
}

fn rules(view: &dyn IncView) -> &IncRules {
    view.downcast_ref().expect("an IncRules")
}

fn step(g: &mut DynamicGraph, view: &mut dyn IncView, seed: u64) {
    let delta = random_update_batch(g, 8, 0.5, seed);
    g.apply_batch(&delta);
    view.apply(g, &delta);
}

#[test]
fn clone_view_publishes_an_independent_valid_copy() {
    // reach(x,y) ⇐ edge(x,y);  reach(x,z) ⇐ reach(x,y) ∧ edge(y,z)
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
    let mut g = uniform_graph(25, 40, 3, 11);
    let mut original = IncRules::new(&g, rs.compile().unwrap());
    for seed in 0..3 {
        step(&mut g, &mut original, seed);
    }
    let mut copy = original.clone_view();
    let mut g_copy = g.clone();

    // (i) answer-identical at the moment of the copy.
    let then = original.sorted_facts();
    let frozen = reads(rules(copy.as_ref()), reach, &then);
    assert_eq!(frozen, reads(&original, reach, &then));
    assert!(!then.is_empty(), "a trivial answer proves nothing");
    assert_eq!(copy.work(), original.work());

    // (ii) independent: the original moves on, the copy does not — probed
    // with the facts of both moments.
    for seed in 100..120 {
        step(&mut g, &mut original, seed);
    }
    let now = original.sorted_facts();
    assert_ne!(now, then, "the original did move");
    assert_eq!(reads(rules(copy.as_ref()), reach, &then), frozen);
    let still: Vec<bool> = now.iter().map(|f| then.contains(f)).collect();
    let held: Vec<bool> = reads(rules(copy.as_ref()), reach, &now)
        .2
        .iter()
        .map(|&(support, holds)| {
            assert_eq!(support > 0, holds);
            holds
        })
        .collect();
    assert_eq!(held, still);
    assert_eq!(copy.verify_against_batch(&g_copy), Ok(()));

    // (iii) still a valid view.
    for seed in 200..203 {
        step(&mut g_copy, copy.as_mut(), seed);
        assert_eq!(copy.verify_against_batch(&g_copy), Ok(()));
    }
    assert_eq!(IncView::verify_against_batch(&original, &g), Ok(()));
}
