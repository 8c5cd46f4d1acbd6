//! Retained memory under pins is bounded by answers, not by auxiliary
//! state: under the benchmark's pin pattern (a ladder of four sliding pins
//! plus one long pin, all five view classes) the version window stays ≤ 5,
//! and no retained `IncRpq` cell carries a marking while the live view
//! keeps all of its own.

use incgraph::graph::generator::{random_update_batch, uniform_graph};
use incgraph::prelude::*;
use std::collections::VecDeque;

#[test]
fn pinned_versions_retain_answers_not_auxiliary_state() -> Result<(), EngineError> {
    let mut engine = Engine::new(uniform_graph(60, 240, 3, 42));
    let query = Regex::parse("l0.(l1+l2)*.l2", &mut LabelInterner::new()).unwrap();
    let mut rs = RuleSet::new();
    let exec = rs.predicate("exec", 1).unwrap();
    rs.rule(exec, &[v(0)], vec![Atom::has_label(v(0), Label(1))])
        .unwrap();
    rs.rule(
        exec,
        &[v(1)],
        vec![Atom::pred(exec, &[v(0)]), Atom::edge(v(0), v(1))],
    )
    .unwrap();
    let rpq = engine.register("rpq", IncRpq::init(query))?;
    engine.register("scc", IncScc::init())?;
    engine.register(
        "kws",
        IncKws::init(KwsQuery::new(vec![Label(1), Label(2)], 2)),
    )?;
    engine.register(
        "iso",
        IncIso::init(Pattern::from_parts(&[0, 1, 2], &[(0, 1), (1, 2)])),
    )?;
    engine.register("rules", IncRules::init(rs.compile().unwrap()))?;

    let long_pin = engine.snapshot()?;
    let long_answer = long_pin.view(&rpq)?.sorted_answer();
    let mut ladder: VecDeque<Snapshot> = VecDeque::new();
    for round in 0..50 {
        let delta = random_update_batch(engine.graph(), 12, 0.5, 1000 + round);
        engine.commit(&delta)?;
        ladder.push_back(engine.snapshot()?);
        if ladder.len() > 4 {
            ladder.pop_front();
        }

        // Long pin + four held, the newest among them: the one just
        // released is freed by its drop.
        let store = engine.snapshot_store();
        assert!(store.window() <= 5, "window {}", store.window());
        assert!(store.retained_stats().distinct_view_cells <= 25);

        assert!(engine.view(&rpq)?.mark_count() > 0);
        for epoch in store.oldest()..=store.head() {
            let Ok(retained) = store.snapshot_at(epoch) else {
                continue; // collected already
            };
            assert_eq!(retained.view(&rpq)?.mark_count(), 0, "epoch {epoch}");
        }
    }

    // What the pins do retain is right: every held version's views audit
    // clean against that version's own graph.
    assert_eq!(long_pin.view(&rpq)?.sorted_answer(), long_answer);
    assert_ne!(engine.view(&rpq)?.sorted_answer(), long_answer);
    for pin in ladder.iter().chain([&long_pin]) {
        for label in ["rpq", "scc", "kws", "iso", "rules"] {
            let id = pin.find(label).expect("registered at every pinned epoch");
            assert_eq!(
                pin.view_dyn(id)?.verify_against_batch(pin.graph()),
                Ok(()),
                "{label} at epoch {}",
                pin.epoch()
            );
        }
    }
    engine.verify_all()
}
