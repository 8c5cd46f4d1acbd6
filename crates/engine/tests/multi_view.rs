//! Engine integration: all four paper query classes registered as views on
//! one shared generator-built graph, driven through the commit pipeline —
//! plus the v2 lifecycle: lazy mid-stream joins, deregistration, and
//! per-view quarantine with real query classes as the survivors.

mod common;

use common::quiet_panics;
use igc_core::{IncView, WorkStats};
use igc_engine::{Engine, EngineError, ViewState};
use igc_graph::generator::{random_update_batch, uniform_graph};
use igc_graph::{DynamicGraph, Label, LabelInterner, NodeId, Update, UpdateBatch};
use igc_iso::{IncIso, Pattern};
use igc_kws::{IncKws, KwsQuery};
use igc_nfa::Regex;
use igc_rpq::IncRpq;
use igc_scc::IncScc;

fn rpq_query() -> Regex {
    let mut it = LabelInterner::new();
    // Interner ids follow first-use order: l0→0, l1→1, l2→2, matching the
    // generator's numeric labels.
    Regex::parse("l0.(l1+l2)*.l2", &mut it).unwrap()
}

/// Build an engine over a small uniform graph with all four classes
/// registered.
fn engine_with_all_views(nodes: usize, edges: usize, seed: u64) -> Engine {
    let g = uniform_graph(nodes, edges, 3, seed);
    let mut engine = Engine::new(g);

    engine.register("rpq", IncRpq::init(rpq_query())).unwrap();
    engine.register("scc", IncScc::init()).unwrap();
    engine
        .register(
            "kws",
            IncKws::init(KwsQuery::new(vec![Label(1), Label(2)], 2)),
        )
        .unwrap();
    engine
        .register(
            "iso",
            IncIso::init(Pattern::from_parts(&[0, 1, 2], &[(0, 1), (1, 2)])),
        )
        .unwrap();

    engine
}

#[test]
fn four_views_stay_consistent_over_random_commits() {
    let mut engine = engine_with_all_views(30, 90, 42);
    assert_eq!(
        engine.labels().collect::<Vec<_>>(),
        vec!["rpq", "scc", "kws", "iso"]
    );
    for round in 0..5 {
        let delta = random_update_batch(engine.graph(), 12, 0.5, 1000 + round);
        let receipt = engine.commit(&delta).unwrap();
        assert_eq!(receipt.applied + receipt.dropped, receipt.submitted);
        assert_eq!(receipt.per_view.len(), 4);
        assert!(receipt.per_view.iter().all(|v| v.applied()));
        if let Err(failures) = engine.verify_all() {
            panic!("round {round}: views diverged: {failures}");
        }
    }
    assert_eq!(engine.totals().commits, 5);
    assert!(engine.totals().work.total() > 0);
}

#[test]
fn denormalized_commits_match_generator_commits() {
    // The same net updates, submitted once clean and once polluted with
    // duplicates and no-ops, must leave all views in identical states.
    let mut clean = engine_with_all_views(25, 60, 7);
    let mut dirty = engine_with_all_views(25, 60, 7);

    for round in 0..4 {
        let delta = random_update_batch(clean.graph(), 8, 0.5, 500 + round);
        let mut polluted: Vec<Update> = Vec::new();
        for u in delta.iter() {
            polluted.push(*u);
            polluted.push(*u); // duplicate every unit
        }
        // No-ops against the current graph: deleting an absent edge and
        // re-inserting a present one.
        let present = clean.graph().sorted_edges()[0];
        polluted.push(Update::insert(present.0, present.1));
        polluted.push(Update::delete(NodeId(0), NodeId(0)));

        let r_clean = clean.commit(&delta).unwrap();
        let r_dirty = dirty.commit(&UpdateBatch::from_updates(polluted)).unwrap();
        assert_eq!(r_clean.applied, r_dirty.applied, "round {round}");
        assert!(r_dirty.dropped >= r_clean.applied, "round {round}");
    }

    assert_eq!(
        clean.graph().sorted_edges(),
        dirty.graph().sorted_edges(),
        "graphs diverged"
    );
    let rpq_clean = clean.typed::<IncRpq>(clean.find("rpq").unwrap()).unwrap();
    let rpq_dirty = dirty.typed::<IncRpq>(dirty.find("rpq").unwrap()).unwrap();
    assert_eq!(
        clean.view(&rpq_clean).unwrap().sorted_answer(),
        dirty.view(&rpq_dirty).unwrap().sorted_answer()
    );
    let iso_clean = clean.typed::<IncIso>(clean.find("iso").unwrap()).unwrap();
    let iso_dirty = dirty.typed::<IncIso>(dirty.find("iso").unwrap()).unwrap();
    assert_eq!(
        clean.view(&iso_clean).unwrap().sorted_matches(),
        dirty.view(&iso_dirty).unwrap().sorted_matches()
    );
    assert!(clean.verify_all().is_ok());
    assert!(dirty.verify_all().is_ok());
}

#[test]
fn commits_with_fresh_nodes_propagate_to_all_views() {
    let mut engine = engine_with_all_views(20, 40, 9);
    let n = engine.graph().node_count() as u32;
    // A gap-jumping insertion: creates intermediate default-labelled nodes
    // and one labelled endpoint.
    let receipt = engine
        .commit(&UpdateBatch::from_updates(vec![Update::insert_labeled(
            NodeId(0),
            NodeId(n + 2),
            None,
            Some(Label(2)),
        )]))
        .unwrap();
    assert_eq!(receipt.applied, 1);
    assert_eq!(engine.graph().node_count(), n as usize + 3);
    assert_eq!(engine.graph().label(NodeId(n + 2)), Label(2));
    assert_eq!(engine.graph().label(NodeId(n)), Label::DEFAULT);
    if let Err(failures) = engine.verify_all() {
        panic!("views diverged after fresh-node commit: {failures}");
    }
}

/// The acceptance bar for lazy registration: a view registered lazily at
/// epoch `k` must give bit-identical answers to one registered eagerly at
/// epoch 0, after both see the same commit suffix.
#[test]
fn lazy_views_match_eager_views_bit_for_bit() {
    let mut engine = engine_with_all_views(30, 90, 42);

    // Churn a while with only the eager views registered.
    for round in 0..3 {
        let delta = random_update_batch(engine.graph(), 12, 0.5, 9000 + round);
        engine.commit(&delta).unwrap();
    }

    // All four classes join mid-stream, built from the current graph.
    let rpq2 = engine
        .register("rpq:late", IncRpq::init(rpq_query()))
        .unwrap();
    let scc2 = engine.register("scc:late", IncScc::init()).unwrap();
    let kws2 = engine
        .register(
            "kws:late",
            IncKws::init(KwsQuery::new(vec![Label(1), Label(2)], 2)),
        )
        .unwrap();
    let iso2 = engine
        .register(
            "iso:late",
            IncIso::init(Pattern::from_parts(&[0, 1, 2], &[(0, 1), (1, 2)])),
        )
        .unwrap();
    assert_eq!(engine.view_count(), 8);

    // Same commit suffix for everyone.
    for round in 0..4 {
        let delta = random_update_batch(engine.graph(), 12, 0.5, 9100 + round);
        engine.commit(&delta).unwrap();
        engine.verify_all().unwrap_or_else(|e| {
            panic!("round {round}: {e}");
        });
    }

    // Bit-identical answers, eager vs lazy.
    let rpq1 = engine.typed::<IncRpq>(engine.find("rpq").unwrap()).unwrap();
    assert_eq!(
        engine.view(&rpq1).unwrap().sorted_answer(),
        engine.view(&rpq2).unwrap().sorted_answer()
    );
    let scc1 = engine.typed::<IncScc>(engine.find("scc").unwrap()).unwrap();
    let scc_a = engine.view(&scc1).unwrap();
    let scc_b = engine.view(&scc2).unwrap();
    assert_eq!(scc_a.scc_count(), scc_b.scc_count());
    let canon = |c: &IncScc| {
        let mut comps: Vec<Vec<NodeId>> = c
            .components()
            .into_iter()
            .map(|mut comp| {
                comp.sort_unstable();
                comp
            })
            .collect();
        comps.sort_unstable();
        comps
    };
    assert_eq!(canon(scc_a), canon(scc_b));
    let kws1 = engine.typed::<IncKws>(engine.find("kws").unwrap()).unwrap();
    assert_eq!(
        engine.view(&kws1).unwrap().answer_signature(),
        engine.view(&kws2).unwrap().answer_signature()
    );
    let iso1 = engine.typed::<IncIso>(engine.find("iso").unwrap()).unwrap();
    assert_eq!(
        engine.view(&iso1).unwrap().sorted_matches(),
        engine.view(&iso2).unwrap().sorted_matches()
    );

    // The latecomers only paid for the suffix.
    assert_eq!(engine.view_totals(rpq2).unwrap().commits, 4);
    assert_eq!(engine.view_totals(rpq1).unwrap().commits, 7);
}

/// A view that panics on its first apply, used to prove quarantine does not
/// poison the real query classes sharing the engine.
#[derive(Debug, Clone)]
struct Grenade;

impl IncView for Grenade {
    fn name(&self) -> &str {
        "grenade"
    }
    fn apply(&mut self, _g: &DynamicGraph, _delta: &UpdateBatch) {
        panic!("pin pulled");
    }
    fn work(&self) -> WorkStats {
        WorkStats::new()
    }
    fn verify_against_batch(&self, _g: &DynamicGraph) -> Result<(), String> {
        Ok(())
    }
    fn clone_view(&self) -> Box<dyn IncView> {
        Box::new(self.clone())
    }
}

/// The acceptance bar for quarantine: a deliberately panicking view is
/// fenced off while all four real query classes keep committing and still
/// pass `verify_all`; recovery is deregister + lazy re-register.
#[test]
fn quarantine_isolates_a_panicking_view_from_real_classes() {
    let mut engine = engine_with_all_views(30, 90, 13);
    let grenade = engine.register("grenade", |_| Grenade).unwrap();

    // Commit 1: the grenade goes off mid-fan-out; the commit succeeds.
    let delta = random_update_batch(engine.graph(), 10, 0.5, 77);
    let receipt = quiet_panics(|| engine.commit(&delta)).unwrap();
    assert_eq!(receipt.per_view.len(), 5);
    assert_eq!(receipt.newly_quarantined().count(), 1);
    let quarantine_epoch = receipt.epoch;
    match engine.state(grenade).unwrap() {
        ViewState::Quarantined { epoch, cause } => {
            assert_eq!(*epoch, quarantine_epoch);
            assert!(cause.contains("pin pulled"));
        }
        other => panic!("expected quarantine, got {other:?}"),
    }

    // Later commits skip it; the four real views keep serving and auditing.
    for round in 0..3 {
        let delta = random_update_batch(engine.graph(), 10, 0.5, 200 + round);
        let receipt = engine.commit(&delta).unwrap();
        assert_eq!(receipt.per_view.len(), 4);
        assert_eq!(receipt.skipped_quarantined, 1);
        assert!(receipt.per_view.iter().all(|v| v.applied()));
        engine.verify_all().unwrap_or_else(|e| {
            panic!("round {round}: real classes diverged: {e}");
        });
    }

    // Reads of the quarantined view fail loudly, not silently.
    match engine.view(&grenade) {
        Err(EngineError::ViewQuarantined { label, .. }) => assert_eq!(&*label, "grenade"),
        other => panic!("expected ViewQuarantined, got {other:?}"),
    }

    // Recovery: deregister the wreck, lazily register a healthy stand-in.
    engine.deregister(grenade).unwrap();
    let standin = engine.register("grenade", IncScc::init()).unwrap();
    let delta = random_update_batch(engine.graph(), 10, 0.5, 999);
    let receipt = engine.commit(&delta).unwrap();
    assert_eq!(receipt.per_view.len(), 5);
    assert_eq!(receipt.skipped_quarantined, 0);
    assert!(engine.view(&standin).is_ok());
    engine.verify_all().unwrap();
}
