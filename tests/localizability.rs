//! Theorem 3, measured: the work of the localizable algorithms (IncKWS,
//! IncISO) for a fixed `ΔG` must not depend on `|G|` — only on the
//! `d_Q`-neighbourhood content of the updated edges.
//!
//! The construction plants an identical "update zone" inside host graphs of
//! very different sizes: the far-away part is connected but beyond the
//! locality radius of the zone, so the counters must match exactly.
//!
//! IncRPQ, IncSCC and IncRules are held to the same table: relatively
//! bounded means work tracks |AFF|, and the tail changes no AFF, so their
//! `WorkStats` (field by field) and `ChangeMetrics` must be equal across
//! sizes too — over a scripted run that closes and breaks cycles inside
//! the zone, deleting and re-inserting its edges, at three sizes (×1, ×4,
//! ×16).

use incgraph::core::ChangeMetrics;
use incgraph::prelude::*;

/// Host graph: an update zone (a small fixed gadget around nodes 0..Z) and
/// a long tail of `tail` extra nodes chained far away, attached at distance
/// > 2b from the zone.
fn host(tail: usize) -> (DynamicGraph, UpdateBatch) {
    let mut g = DynamicGraph::new();
    // Zone: 8 nodes, labels 0/1 used by queries.
    let zone: Vec<NodeId> = (0..8).map(|i| g.add_node(Label(i % 2))).collect();
    for i in 0..7 {
        g.insert_edge(zone[i], zone[i + 1]);
    }
    // Buffer path of label-9 nodes (distance spacer, length 6 > 2b),
    // oriented *toward* the zone so the whole tail can reach the keywords
    // — a batch engine must scan it, a localizable algorithm must not.
    let mut prev = zone[7];
    for _ in 0..6 {
        let v = g.add_node(Label(9));
        g.insert_edge(v, prev);
        prev = v;
    }
    // Far tail: a chain of label-9 nodes feeding into the buffer.
    for _ in 0..tail {
        let v = g.add_node(Label(9));
        g.insert_edge(v, prev);
        prev = v;
    }
    // The batch updates edges strictly inside the zone.
    let delta = UpdateBatch::from_updates(vec![
        Update::delete(zone[2], zone[3]),
        Update::insert(zone[0], zone[3]),
        Update::insert(zone[4], zone[6]),
    ]);
    (g, delta)
}

#[test]
fn inckws_work_is_independent_of_graph_size() {
    let q = KwsQuery::new(vec![Label(0), Label(1)], 2);
    let run = |tail: usize| -> u64 {
        let (mut g, delta) = host(tail);
        let mut kws = IncKws::new(&g, q.clone());
        let before = kws.work();
        g.apply_batch(&delta);
        kws.apply(&g, &delta);
        kws.work().since(&before).total()
    };
    let small = run(10);
    let large = run(10_000);
    assert_eq!(
        small, large,
        "localizable: IncKWS work must not grow with |G| ({small} vs {large})"
    );
    assert!(small > 0, "the update zone must actually cause work");
}

#[test]
fn inciso_work_is_independent_of_graph_size() {
    let p = Pattern::from_parts(&[0, 1, 0], &[(0, 1), (1, 2)]);
    let run = |tail: usize| -> u64 {
        let (mut g, delta) = host(tail);
        let mut iso = IncIso::new(&g, p.clone());
        let before = iso.work();
        g.apply_batch(&delta);
        iso.apply(&g, &delta);
        iso.work().since(&before).total()
    };
    let small = run(10);
    let large = run(10_000);
    assert_eq!(
        small, large,
        "localizable: IncISO work must not grow with |G| ({small} vs {large})"
    );
}

#[test]
fn batch_work_grows_with_graph_size_for_contrast() {
    // Sanity for the experiment design: the *batch* cost is what scales
    // with |G| — otherwise the comparison above would be vacuous.
    let q = KwsQuery::new(vec![Label(0), Label(1)], 2);
    let work_of = |tail: usize| -> u64 {
        let (g, _) = host(tail);
        let mut w = WorkStats::new();
        incgraph::kws::batch::compute_kdist_baseline(&g, &q, &mut w);
        w.total()
    };
    let small = work_of(10);
    let large = work_of(10_000);
    assert!(
        large > small * 10,
        "baseline should scan the whole graph ({small} vs {large})"
    );
}

/// Host sizes of the scripted exact-count runs: ×1, ×4, ×16.
const TAILS: [usize; 3] = [600, 2_400, 9_600];

/// `host(tail)` and a scripted run inside its zone (nodes `0..8`):
/// `host`'s own batch, then — each normalized against what the one before
/// leaves — close a 3-cycle, break it, close a cycle through the whole
/// zone, break that. Returns per step what `step` reports after the view
/// applied it, handed the work of that step alone.
fn scripted<V: IncView, R>(
    tail: usize,
    build: impl Fn(&DynamicGraph) -> V,
    step: impl Fn(WorkStats, &V) -> R,
) -> Vec<R> {
    let (mut g, first) = host(tail);
    let n = |i: u32| NodeId(i);
    let script = [
        first,
        UpdateBatch::from_updates(vec![Update::insert(n(5), n(3)), Update::insert(n(2), n(3))]),
        UpdateBatch::from_updates(vec![Update::delete(n(5), n(3)), Update::delete(n(0), n(1))]),
        UpdateBatch::from_updates(vec![Update::insert(n(7), n(0))]),
        UpdateBatch::from_updates(vec![Update::delete(n(7), n(0)), Update::delete(n(3), n(4))]),
    ];
    let mut view = build(&g);
    script
        .iter()
        .map(|delta| {
            let before = view.work();
            g.apply_batch(delta);
            view.apply(&g, delta);
            step(view.work().since(&before), &view)
        })
        .collect()
}

#[test]
fn relative_boundedness_work_tracks_aff_not_graph() {
    // IncRPQ over the zone's two labels. The tail carries a label the query
    // never reads, so no marking lives there and none of the script's
    // deletions and re-insertions can reach it: every counter of every
    // step — and so every table the view or its NFA keeps — must be blind
    // to |G|.
    let mut labels = LabelInterner::new();
    for i in 0..10 {
        labels.intern(&format!("l{i}"));
    }
    let q = Regex::parse("l0.(l1+l0)*", &mut labels).unwrap();
    let run = |tail| -> Vec<(WorkStats, ChangeMetrics)> {
        scripted(
            tail,
            |g| IncRpq::new(g, &q),
            |w, rpq| (w, rpq.last_metrics()),
        )
    };
    let base = run(TAILS[0]);
    assert!(
        base.iter()
            .all(|(w, m)| w.total() > 0 && m.affected > 0 && m.output_changes > 0),
        "every step must move markings and matches: {base:?}"
    );
    for tail in &TAILS[1..] {
        assert_eq!(
            base,
            run(*tail),
            "relatively bounded: IncRPQ work tracks AFF, not |G| (tail {tail})"
        );
    }
}

#[test]
fn incscc_work_and_aff_are_equal_at_three_graph_sizes() {
    let run = |tail| -> Vec<(WorkStats, ChangeMetrics)> {
        scripted(tail, IncScc::new, |w, scc| (w, scc.last_metrics()))
    };
    let base = run(TAILS[0]);
    assert!(
        base.iter().any(|(_, m)| m.output_changes >= 7),
        "the script must merge and split the whole zone: {base:?}"
    );
    for tail in &TAILS[1..] {
        assert_eq!(
            base,
            run(*tail),
            "relatively bounded: IncSCC work tracks AFF, not |G| (tail {tail})"
        );
    }
}

#[test]
fn localizable_views_work_and_aff_are_equal_at_three_graph_sizes() {
    // The localizable classes held to the scripted table, step by step and
    // field by field — where the two tests at the top compare one batch's
    // total. The script's cycles are inside the zone, so every step stays
    // within d_Q of the updated edges.
    let q = KwsQuery::new(vec![Label(0), Label(1)], 2);
    let kws = |tail| -> Vec<(WorkStats, ChangeMetrics)> {
        scripted(
            tail,
            |g| IncKws::new(g, q.clone()),
            |w, kws| (w, kws.last_metrics()),
        )
    };
    let p = Pattern::from_parts(&[0, 1, 0], &[(0, 1), (1, 2)]);
    let iso = |tail| -> Vec<(WorkStats, ChangeMetrics)> {
        scripted(
            tail,
            |g| IncIso::new(g, p.clone()),
            |w, iso| (w, iso.last_metrics()),
        )
    };
    let (kws_base, iso_base) = (kws(TAILS[0]), iso(TAILS[0]));
    assert!(
        kws_base.iter().all(|(w, _)| w.total() > 0)
            && kws_base.iter().any(|(w, _)| w.queue_ops > 0)
            && kws_base.iter().any(|(_, m)| m.output_changes > 0),
        "every step must touch kdist, some must settle and move roots: {kws_base:?}"
    );
    assert!(
        iso_base.iter().any(|(_, m)| m.output_changes > 0),
        "the script must gain and lose matches: {iso_base:?}"
    );
    for tail in &TAILS[1..] {
        assert_eq!(
            kws_base,
            kws(*tail),
            "localizable: IncKWS work must not grow with |G| (tail {tail})"
        );
        assert_eq!(
            iso_base,
            iso(*tail),
            "localizable: IncISO work must not grow with |G| (tail {tail})"
        );
    }
}

#[test]
fn incrules_work_and_aff_are_equal_at_three_graph_sizes() {
    // Two-rule reachability from the label-0 nodes. The tail points *into*
    // the zone, so nothing out there is ever derived.
    let program = || {
        let mut rules = RuleSet::new();
        let reach = rules.predicate("reach", 1).unwrap();
        rules
            .rule(reach, &[v(0)], vec![Atom::has_label(v(0), Label(0))])
            .unwrap();
        rules
            .rule(
                reach,
                &[v(1)],
                vec![Atom::pred(reach, &[v(0)]), Atom::edge(v(0), v(1))],
            )
            .unwrap();
        rules.compile().unwrap()
    };
    // `metrics()` is cumulative over the run; equal prefixes ⇒ equal steps.
    let run = |tail| -> Vec<(WorkStats, ChangeMetrics, usize)> {
        scripted(
            tail,
            |g| IncRules::new(g, program()),
            |w, r| (w, r.metrics(), r.derived_count()),
        )
    };
    let base = run(TAILS[0]);
    assert!(
        base.windows(2).any(|w| w[0].2 != w[1].2),
        "the script must derive and retract facts: {base:?}"
    );
    for tail in &TAILS[1..] {
        assert_eq!(
            base,
            run(*tail),
            "IncRules work is bounded by affected facts, not |G| (tail {tail})"
        );
    }
}
