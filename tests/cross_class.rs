//! Cross-crate integration: all four query classes maintained side by side
//! over the same evolving graph, each verified against its batch
//! counterpart after every batch of updates.

use incgraph::graph::generator::{random_update_batch, uniform_graph};
use incgraph::iso::enumerate_matches;
use incgraph::nfa::build_nfa;
use incgraph::prelude::*;
use incgraph::rpq::batch as rpq_batch;
use incgraph::scc::tarjan;

fn queries(labels: &mut LabelInterner) -> (Regex, KwsQuery, Pattern) {
    let q_rpq = Regex::parse("l3.(l0+l1)*.l2", labels).unwrap();
    let q_kws = KwsQuery::new(vec![Label(0), Label(1)], 2);
    let pattern = Pattern::from_parts(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]);
    (q_rpq, q_kws, pattern)
}

#[test]
fn four_classes_stay_consistent_across_batches() {
    let mut labels = LabelInterner::new();
    for i in 0..8 {
        labels.intern(&format!("l{i}"));
    }
    let (q_rpq, q_kws, pattern) = queries(&mut labels);

    for seed in 0..3u64 {
        let mut g = uniform_graph(120, 500, 8, seed);
        let mut rpq = IncRpq::new(&g, &q_rpq);
        let mut kws = IncKws::new(&g, q_kws.clone());
        let mut scc = IncScc::new(&g);
        let mut iso = IncIso::new(&g, pattern.clone());

        for round in 0..4u64 {
            let delta = random_update_batch(&g, 25, 0.5, seed * 100 + round);
            g.apply_batch(&delta);
            rpq.apply(&g, &delta);
            kws.apply(&g, &delta);
            scc.apply(&g, &delta);
            iso.apply(&g, &delta);

            // RPQ against the marking-free batch traversal.
            let mut w = WorkStats::new();
            let fresh_rpq = rpq_batch::evaluate(&g, &build_nfa(&q_rpq), &mut w);
            assert_eq!(
                rpq.sorted_answer(),
                rpq_batch::sorted_answer(&fresh_rpq),
                "RPQ diverged (seed {seed}, round {round})"
            );

            // KWS against a fresh bounded computation.
            let fresh_kws = IncKws::new(&g, q_kws.clone());
            assert_eq!(
                kws.answer_signature(),
                fresh_kws.answer_signature(),
                "KWS diverged (seed {seed}, round {round})"
            );

            // SCC against Tarjan.
            assert_eq!(
                scc.components(),
                tarjan(&g).canonical(),
                "SCC diverged (seed {seed}, round {round})"
            );

            // ISO against VF2.
            let mut w = WorkStats::new();
            let mut fresh_iso: Vec<_> = enumerate_matches(&g, &pattern, &mut w)
                .into_iter()
                .collect();
            fresh_iso.sort();
            assert_eq!(
                iso.sorted_matches(),
                fresh_iso,
                "ISO diverged (seed {seed}, round {round})"
            );
        }
    }
}

#[test]
fn unit_driving_equals_batch_driving() {
    // Applying ΔG one update at a time (the Inc*ⁿ mode) must land on the
    // same answers as the grouped batch mode.
    let mut labels = LabelInterner::new();
    for i in 0..6 {
        labels.intern(&format!("l{i}"));
    }
    let q_rpq = Regex::parse("l2.(l0+l1)*", &mut labels).unwrap();
    let q_kws = KwsQuery::new(vec![Label(0)], 2);

    let g0 = uniform_graph(80, 320, 6, 9);
    let delta = random_update_batch(&g0, 30, 0.5, 10);

    // Batch mode.
    let mut g_batch = g0.clone();
    let mut rpq_b = IncRpq::new(&g_batch, &q_rpq);
    let mut kws_b = IncKws::new(&g_batch, q_kws.clone());
    let mut scc_b = IncScc::new(&g_batch);
    g_batch.apply_batch(&delta);
    rpq_b.apply(&g_batch, &delta);
    kws_b.apply(&g_batch, &delta);
    scc_b.apply(&g_batch, &delta);

    // Unit-at-a-time mode.
    let mut g_unit = g0.clone();
    let mut rpq_u = IncRpq::new(&g_unit, &q_rpq);
    let mut kws_u = IncKws::new(&g_unit, q_kws);
    let mut scc_u = IncScc::new(&g_unit);
    incgraph::core::incremental::apply_one_by_one(&mut rpq_u, &mut g_unit, &delta);
    g_unit = g0.clone();
    incgraph::core::incremental::apply_one_by_one(&mut kws_u, &mut g_unit, &delta);
    g_unit = g0.clone();
    incgraph::core::incremental::apply_one_by_one(&mut scc_u, &mut g_unit, &delta);

    assert_eq!(rpq_b.sorted_answer(), rpq_u.sorted_answer());
    assert_eq!(kws_b.answer_signature(), kws_u.answer_signature());
    assert_eq!(scc_b.components(), scc_u.components());
}

#[test]
fn dynscc_baseline_agrees_with_incscc() {
    let mut g = uniform_graph(100, 300, 4, 21);
    let mut inc = IncScc::new(&g);
    let mut dyn_scc = incgraph::scc::DynScc::new(&g);
    for round in 0..4u64 {
        let delta = random_update_batch(&g, 20, 0.5, 300 + round);
        g.apply_batch(&delta);
        inc.apply(&g, &delta);
        // DynSCC runs per-unit in its natural mode; here feed it batches.
        dyn_scc.apply(&g, &delta);
        assert_eq!(inc.components(), dyn_scc.components(), "round {round}");
        dyn_scc
            .verify_against_batch(&g)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
    }
}
